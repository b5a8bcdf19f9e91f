"""The host's speed, measured with a fixed pure-Python kernel.

On a shared host the speed available to one process drifts: stretches of tens
of seconds to minutes run up to 1.6x slower than others, which no statistic
taken inside a 25-second run can remove.  The kernel below does the kind of
work the library does (small objects with ``__slots__``, polynomial products
of machine-sized integers, a dict keyed by tuples, ``Fraction`` values, a
sort) and never touches the library, so a change to the library cannot move
it.  ``slowdown()`` is the kernel's time divided by ``REFERENCE_S``, its time
on an undisturbed 2-vCPU Intel Xeon virtual machine under CPython 3.11 (the
reference host).  A timing divided by the slowdown measured right after it is
that timing on the reference host.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0025
MODULUS = 2 ** 32


class _Poly:
    """An element of (Z/2^32)[x]/(x^4 + x - 1), a stand-in for a field
    element of Q_{2^4} at precision 32."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __mul__(self, other):
        a, b = self.c, other.c
        n = len(a)
        r = [0] * (2 * n - 1)
        for i in range(n):
            ai = a[i]
            for j in range(n):
                r[i + j] += ai * b[j]
        for k in range(2 * n - 2, n - 1, -1):  # x^n = 1 - x
            t = r[k]
            r[k - n] += t
            r[k - n + 1] -= t
        return _Poly([x % MODULUS for x in r[:n]])

    def __add__(self, other):
        return _Poly([(x + y) % MODULUS for x, y in zip(self.c, other.c)])


_rng = random.Random(0)
_MATRIX = [[_Poly([_rng.randrange(MODULUS) for _ in range(4)]) for _ in range(6)]
           for _ in range(6)]


def kernel():
    """A 6x6 matrix product over the ring above, then a dict of Fractions."""
    M = _MATRIX
    prod = []
    for i in range(6):
        row = []
        for j in range(6):
            t = M[i][0] * M[0][j]
            for k in range(1, 6):
                t = t + M[i][k] * M[k][j]
            row.append(t)
        prod.append(row)
    d = {}
    for i in range(800):
        d[(i * 7919) % 1009, i % 13] = Fraction(i, 7)
    return prod, sorted(d.items())


def slowdown():
    """How many times slower than the reference host this process runs now."""
    t0 = perf_counter()
    kernel()
    return (perf_counter() - t0) / REFERENCE_S
