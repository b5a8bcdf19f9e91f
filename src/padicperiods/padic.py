"""Exact truncated-precision arithmetic in Q_p and its unramified extensions.

Elements of Q_{p^m} are stored as polynomials in a fixed generator of the
residue field lift, with integer coefficients modulo a power of p and an
explicit p-power denominator.  Every value carries an absolute precision N:
the element is known modulo p^N.  A valuation is either an exact integer or
the marker ``AtLeast(N)`` when the element is indistinguishable from zero at
the working precision; that ambiguity is always surfaced, never coerced.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from typing import Callable, NamedTuple, Union


class AtLeast(NamedTuple):
    """Valuation lower bound: the true valuation is >= n (possibly infinite)."""

    n: int

    def __str__(self):
        return f">={self.n}"


Valuation = Union[int, AtLeast]


def is_exact(v: Valuation) -> bool:
    return isinstance(v, int)


class PrecisionError(ArithmeticError):
    """Raised when a result cannot be certified at the working precision."""


# ---------------------------------------------------------------------------
# polynomial helpers over Z/p^M (coefficient lists, low degree first)


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a, b):
    """a*b over the integers; the caller reduces the coefficients."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
    return out


def _poly_rem(a, f, mod):
    """a mod (f, mod) for monic f; a may have unreduced coefficients.

    Each coefficient is reduced once: a leading one when it is divided out,
    the others at the end.  The leading term of f only cancels the popped
    coefficient, and zero terms of f change nothing, so both are skipped.
    """
    a = list(a)
    df = len(f) - 1
    while len(a) > df:
        c = a.pop() % mod
        if c:
            k = len(a) - df
            for i in range(df):
                if f[i]:
                    a[k + i] -= c * f[i]
    return _poly_trim([x % mod for x in a])


def _poly_mulmod(a, b, f, mod):
    return _poly_rem(_poly_mul(a, b), f, mod)


def _poly_powmod(a, e, f, mod):
    r = [1]
    a = _poly_rem(a, f, mod)
    while e:
        if e & 1:
            r = _poly_mulmod(r, a, f, mod)
        a = _poly_mulmod(a, a, f, mod)
        e >>= 1
    return r


def _power_table(y, f, mod, count):
    """y^0, ..., y^(count-1) modulo (f, mod), each as len(f) - 1 coefficients:
    the table of the Z-linear map w^i -> y^i."""
    width, table, cur = len(f) - 1, [], [1]
    for _ in range(count):
        table.append(tuple(cur + [0] * (width - len(cur))))
        cur = _poly_mulmod(cur, y, f, mod)
    return table


def _linear_image(coeffs, table):
    """sum_i coeffs[i] * table[i] over the integers: the image of sum_i
    coeffs[i] w^i under the linear map w^i -> table[i]; the caller reduces."""
    out = [0] * len(table[0])
    for c, row in zip(coeffs, table):
        if c:
            for k, t in enumerate(row):
                if t:
                    out[k] += c * t
    return out


def _is_irreducible_mod_p(f, p):
    """Rabin's test for a monic f of degree m over F_p: irreducible when
    x^(p^m) = x mod f and x^(p^(m/l)) - x is a unit mod (f, p) for every
    prime l | m."""
    m = len(f) - 1
    if m < 2:  # x is not reduced mod f below degree 2
        return m == 1
    x = [0, 1]
    xq = _poly_powmod(x, p ** m, f, p)
    if _poly_trim([(xi - yi) % p for xi, yi in itertools.zip_longest(xq, x, fillvalue=0)]):
        return False
    for ell in _prime_factors(m):
        xd = _poly_powmod(x, p ** (m // ell), f, p)
        d = [(xi - yi) % p for xi, yi in itertools.zip_longest(xd, x, fillvalue=0)]
        try:  # gcd(d, f) = 1 exactly when d is a unit mod (f, p)
            _residue_inverse(tuple(d), tuple(f), p)
        except ZeroDivisionError:
            return False
    return True


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981  # least strong pseudoprime to all of them


def _is_prime(n):
    """Miller-Rabin to the prime bases 2, ..., 41, which is exact below
    _MR_LIMIT (about 3.3e24); ValueError for a larger n.  The bases up to 37
    alone pass 318665857834031151167461 = 399165290221 * 798330580441."""
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is too large to test for primality (limit 3.3e24)")
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(m):
    return {q for q in range(2, m + 1) if m % q == 0 and _is_prime(q)}


# ---------------------------------------------------------------------------
# field descriptors


@dataclass(frozen=True)
class FieldDescriptor:
    """Unramified extension Q_{p^m} at working precision.

    ``modulus`` is the monic degree-m integer polynomial cut out of the
    deterministic search (lexicographically smallest irreducible mod p); its
    coefficients are exact integers.  ``frobenius_image`` is the polynomial
    giving the image of the generator under the lift of x -> x^p, computed to
    the descriptor precision.
    """

    p: int
    m: int
    modulus: tuple
    frobenius_image: tuple
    precision: int

    def zero(self, precision=None):
        N = self.precision if precision is None else precision
        return PadicElement(self, (0,) * self.m, 0, N)

    def one(self, precision=None):
        N = self.precision if precision is None else precision
        return self.from_int(1, N)

    def from_int(self, a, precision=None):
        N = self.precision if precision is None else precision
        coeffs = [a % self.p ** N] + [0] * (self.m - 1)
        return PadicElement(self, tuple(coeffs), 0, N)

    def from_coeffs(self, coeffs, precision=None, shift=0):
        N = self.precision if precision is None else precision
        M = self.p ** (N + shift)
        c = [x % M for x in coeffs] + [0] * (self.m - len(coeffs))
        return PadicElement(self, tuple(c[: self.m]), shift, N)

    def generator(self, precision=None):
        if self.m == 1:
            return self.one(precision)
        return self.from_coeffs([0, 1], precision)

    def frobenius_poly(self, min_precision):
        """Image of the generator under sigma, to at least the given precision."""
        if min_precision <= self.precision:
            return list(self.frobenius_image)
        return _frobenius_image(self.p, list(self.modulus), min_precision)

    @cached_property
    def _folds(self):
        """{(k, i): c_ki} for the nonzero c_ki of w^k = sum_i c_ki w^i mod
        the modulus over Z, m <= k <= 2m-2: the one fold table of the
        generated kernels."""
        m, f = self.m, self.modulus
        folds, cur = {}, [-c for c in f[:m]]  # w^m
        for k in range(m, 2 * m - 1):
            folds.update(((k, i), c) for i, c in enumerate(cur) if c)
            cur = [c - cur[-1] * fc for c, fc in zip([0] + cur[:-1], f)]  # w * cur
        return folds

    @cached_property
    def product_kernel(self):
        """(a, b) -> a*b in Z[w]/(modulus) over Z, for two m-coefficient
        lists: one straight-line function generated for this modulus.

        It unpacks a0..a(m-1) and b0..b(m-1), forms each high term
        h_k = sum_{i+j=k} a_i b_j (m <= k <= 2m-2) once, and returns the m
        sums of the low terms and h_k * c_ki, from the fold table
        (``_entry_source`` writes both).
        """
        m = self.m
        lines, coeffs = _entry_source(m, self._folds, [("+", "a", "b", "dense")], False)
        return self._compile("product_kernel(a, b)", [
            f"{_unpack('a', m)} = a", f"{_unpack('b', m)} = b", *lines, f"return {coeffs}"])

    @cached_property
    def row_kernel(self):
        """(u, q, X, Y, mod) -> [u*x - q*y mod ``mod`` for x, y in zip(X,
        Y)]: the row update of both eliminations on m-coefficient lists,
        one straight-line function generated for this modulus.

        Each product keeps ``_mul_coeffs``'s rule: a factor in Q_p (no
        w-part) only scales the other, in O(m), and two factors with
        w-parts multiply in full.  u and q are tested once per row, x and y
        once per entry; when both products are full, their high terms are
        added before the one fold.  The integers are those of
        ``_mul_coeffs`` reduced mod ``mod``, whichever branch runs.
        """
        m = self.m

        def entry(ux, qy):
            lines, coeffs = _entry_source(
                m, self._folds, [("+", "u", "x", ux), ("-", "q", "y", qy)], True)
            return [*lines, f"out.append({coeffs})"]

        head = "row_kernel(u, q, X, Y, mod)"
        rows = f"({_unpack('x', m)}), ({_unpack('y', m)}) in zip(X, Y)"
        body = [f"{_unpack('u', m)} = u", f"{_unpack('q', m)} = q"]
        scale = _entry_source(
            m, self._folds, [("+", "u", "x", "left"), ("-", "q", "y", "left")], True)[1]
        if m == 1:  # every factor lies in Q_p
            return self._compile(head, body + [f"return [{scale} for {rows}]"])
        wide = {x: " or ".join(f"{x}{i}" for i in range(1, m)) for x in "uqxy"}  # a w-part
        body += [
            f"ud = {wide['u']}",
            f"qd = {wide['q']}",
            "if not (ud or qd):",
            f"    return [{scale} for {rows}]",
            "out = []",
            f"for {rows}:",
            f"    if ud and ({wide['x']}):",
            f"        if qd and ({wide['y']}):",
            *(" " * 12 + line for line in entry("dense", "dense")),
            "        else:",
            *(" " * 12 + line for line in entry("dense", "either")),
            f"    elif qd and ({wide['y']}):",
            *(" " * 8 + line for line in entry("either", "dense")),
            "    else:",
            *(" " * 8 + line for line in entry("either", "either")),
            "return out",
        ]
        return self._compile(head, body)

    def _compile(self, head, body):
        """The function ``head`` with these body lines, its globals the fold
        constants c_ki; its source is named after the field, so tracebacks
        and profiles tell the kernels of different fields apart."""
        names = {f"c{k}_{i}": c for (k, i), c in self._folds.items()}
        source = "".join([f"def {head}:\n", *(f"    {line}\n" for line in body)])
        exec(compile(source, f"<kernels of Q_{self.p}^{self.m}>", "exec"), names)
        return names[head[:head.index("(")]]


def _unpack(name, m):
    """The assignment target name0, ..., name(m-1), of an m-coefficient list."""
    return "".join(f"{name}{i}, " for i in range(m))


def _terms(sign, a, b, kind, k, m):
    """The products of the coefficient of w^k (k <= 2m-2, before folding)
    of sign*a*b, as source: the schoolbook sum for ``kind`` "dense";
    a0 * b_k for "left", exact when a lies in Z_p; a0 * b_k + b0 * a_k for
    "either", exact when a or b does."""
    if kind == "dense":
        return [f"{sign} {a}{i} * {b}{k - i}" for i in range(max(0, k - m + 1), min(k, m - 1) + 1)]
    if k >= m:
        return []
    if kind == "left" or k == 0:
        return [f"{sign} {a}0 * {b}{k}"]
    return [f"{sign} {a}0 * {b}{k}", f"{sign} {b}0 * {a}{k}"]


def _entry_source(m, folds, parts, reduce):
    """(lines, coeffs) for the sum of sign*a*b over ``parts`` (sign, a, b,
    kind) in Z[w]/(modulus): the statements that form each high term h_k
    once, and the list expression of the m low terms plus h_k * c_ki for
    the fold table ``folds``, each taken mod ``mod`` when ``reduce``.  A
    zero c_ki is left out, c_ki = +-1 adds or subtracts h_k, and every
    other c_ki is a name bound in the function's globals
    (``FieldDescriptor._compile``), so no constant is written into the
    source as a literal."""
    def total(terms):
        return " ".join(terms).removeprefix("+ ")

    high = range(m, 2 * m - 1) if any(kind == "dense" for *_, kind in parts) else ()
    lines = [f"h{k} = {total([t for part in parts for t in _terms(*part, k, m)])}" for k in high]
    coeffs = []
    for i in range(m):
        terms = [t for part in parts for t in _terms(*part, i, m)]
        for k in high:
            c = folds.get((k, i), 0)
            if c:
                terms.append(f"+ h{k}" if c == 1 else f"- h{k}" if c == -1 else f"+ h{k} * c{k}_{i}")
        coeffs.append(f"({total(terms)}) % mod" if reduce else total(terms))
    return lines, f"[{', '.join(coeffs)}]"


def _residues(p, m, start=0):
    """Coefficient lists [c_0, ..., c_{m-1}] over F_p, in increasing order of
    the code c_0 + c_1 p + ... + c_{m-1} p^(m-1), from the code ``start``."""
    for code in range(start, p ** m):
        yield [code // p ** i % p for i in range(m)]


def _binomial_may_be_irreducible(p, m):
    """False when no x^m + c is irreducible over F_p: x^m - a can be only if
    every prime r | m divides p - 1, and 4 | p - 1 when 4 | m (Lidl and
    Niederreiter, Finite Fields, Thm 3.75)."""
    if m % 4 == 0 and (p - 1) % 4:
        return False
    return all((p - 1) % r == 0 for r in _prime_factors(m))


def _find_modulus(p, m):
    """The irreducible x^m + c_{m-1} x^(m-1) + ... + c_0 mod p of least code.
    The binomials are the codes below p; when none of them can be
    irreducible the walk starts past them, at the same answer."""
    if m == 1:
        return [0, 1]  # generator is 1; modulus x - 0 placeholder unused
    start = 0 if _binomial_may_be_irreducible(p, m) else p
    for c in _residues(p, m, start):
        if _is_irreducible_mod_p(c + [1], p):
            return c + [1]
    raise PrecisionError("no irreducible polynomial found")  # pragma: no cover


def _hensel_root(g, y, f, p, N):
    """The root of g in Z[x]/(f) congruent to y mod p, lifted modulo p^N.

    Newton's iteration y -> y - g(y) z doubles the precision each step,
    where z = g'(y)^-1 to the digits y has; z starts as the residue's
    inverse (``_residue_inverse``) and follows y by one step z -> z(2 -
    g'(y) z) of the same iteration.  g'(y) must be a unit, as it is for a
    simple root mod p.
    """
    gprime = [i * g[i] for i in range(1, len(g))]
    z = list(_residue_inverse(tuple(_poly_eval_poly(gprime, y, f, p)), tuple(f), p))
    prec = 1
    while prec < N:
        prec = min(2 * prec, N)
        mod = p ** prec
        corr = _poly_mulmod(_poly_eval_poly(g, y, f, mod), z, f, mod)
        y = _poly_trim([(a - b) % mod for a, b in itertools.zip_longest(y, corr, fillvalue=0)])
        if prec < N:
            t = [-x % mod for x in _poly_mulmod(_poly_eval_poly(gprime, y, f, mod), z, f, mod)]
            t[0] += 2
            z = _poly_mulmod(z, t, f, mod)
    return y


def _frobenius_image(p, f, N):
    """The root of f congruent to x^p mod p, modulo p^N."""
    if len(f) == 2:
        return [0]
    return _hensel_root(f, _poly_powmod([0, 1], p, f, p), f, p, N)


def _poly_eval_poly(g, y, f, mod):
    """g(y) modulo (f, mod), Horner."""
    acc = []
    for c in reversed(g):
        acc = _poly_mulmod(acc, y, f, mod)
        add = c % mod
        if acc:
            acc[0] = (acc[0] + add) % mod
        elif add:
            acc = [add]
        _poly_trim(acc)
    return acc


def make_field(p, m, precision):
    """Descriptor of the unramified extension Q_{p^m} at absolute precision."""
    if precision < 1:
        raise ValueError("precision must be >= 1")
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    modulus = _find_modulus(p, m)
    frob = _frobenius_image(p, modulus, precision)
    frob = frob + [0] * (m - len(frob))
    return FieldDescriptor(p, m, tuple(modulus), tuple(frob[:m]), precision)


# ---------------------------------------------------------------------------
# elements


def _valuation(p, coeffs):
    """The least valuation of the nonzero integers in coeffs, or None."""
    best = None
    for c in coeffs:
        if c:
            if c % p:
                return 0
            if p == 2:
                v = (c & -c).bit_length() - 1
            else:
                v = 0
                while not c % p:
                    c //= p
                    v += 1
            if best is None or v < best:
                best = v
    return best


def _normal(p, coeffs, shift, N):
    """The normal form (coeffs, shift, N, v) of p^-shift * sum coeffs[i] w^i
    at absolute precision N: coefficients mod p^(N+shift), with the p-powers
    that divide all of them pulled out of the denominator.  It depends only
    on the value mod p^N and on N.  ``v`` is the exact valuation, or None
    for a value that is zero at precision N (its shift is then 0)."""
    M = p ** (N + shift)
    coeffs = [c % M for c in coeffs]
    v = _valuation(p, coeffs)
    if v is None:
        return tuple(coeffs), 0, N, None
    if shift and v:
        d = shift if shift < v else v
        pd = p ** d
        coeffs = [c // pd for c in coeffs]
        shift -= d
        v -= d
    return tuple(coeffs), shift, N, v - shift


def _product_precision(Na, va, Nb, vb):
    """Absolute precision of a*b: min(N_a + e(b), N_b + e(a)), where e(x) is
    the valuation v_x of x, or N_x for a zero x (v_x None); capped-absolute
    precision, as in Caruso-Roe-Vaccon.  PrecisionError when no digit is
    significant."""
    N = Na + (Nb if vb is None else vb)
    if Nb + (Na if va is None else va) < N:
        N = Nb + (Na if va is None else va)
    if N < 1:
        raise PrecisionError("product has no significant digits")
    return N


def _mul_coeffs(f, a, b):
    """a*b in Z[w]/(modulus) over the integers, for two m-coefficient lists;
    the caller reduces mod p^k.

    A factor in Q_p (no w-part) scales the other one coefficient by
    coefficient; every other product is the field's ``product_kernel``.
    Both give the unique remainder of a*b by the monic modulus over Z.
    """
    if not any(a[1:]):
        return [a[0] * y for y in b]
    if not any(b[1:]):
        return [b[0] * x for x in a]
    return f.product_kernel(a, b)


@lru_cache(maxsize=256)
def _residue_inverse(a, f, p):
    """a^-1 mod (f, p) as a tuple of m coefficients, for a tuple a of
    residues mod p of degree below m and a monic tuple f of degree m; by
    the extended Euclidean algorithm over F_p, in which each remainder r_i
    keeps s_i * a = r_i mod f until r_i is a nonzero constant.
    ZeroDivisionError exactly when gcd(a, f) != 1, as for a = 0 or, with a
    reducible f, as ``_is_irreducible_mod_p`` asks.  The 256 kept inverses
    hold, e.g., all 88 units mod 2 of Q_4, Q_8, Q_16 and Q_64 together."""
    m, r0, r1, s0, s1 = len(f) - 1, list(f), _poly_trim(list(a)), [], [1]
    while len(r1) > 1:
        d, inv = len(r1) - 1, pow(r1[-1], -1, p)
        q = [0] * (len(r0) - d)
        for k in reversed(range(len(q))):  # r0 <- r0 mod r1, q the quotient
            q[k] = c = r0[k + d] * inv % p
            if c:
                for i, y in enumerate(r1, k):
                    r0[i] = (r0[i] - c * y) % p
        s = itertools.zip_longest(s0, _poly_mul(q, s1), fillvalue=0)
        r0, r1, s0, s1 = r1, _poly_trim(r0[:d]), s1, _poly_trim([(x - y) % p for x, y in s])
    if not r1:
        raise ZeroDivisionError("not a unit")
    inv = pow(r1[0], -1, p)
    return tuple([x * inv % p for x in s1] + [0] * (m - len(s1)))


def _unit_inverse(f, u, rel):
    """u^-1 mod (modulus, p^rel) as m coefficients, for a unit u of
    Z[w]/(modulus): by ``pow`` for a unit of Z_p; otherwise the residue's
    inverse mod p, lifted by Newton's iteration z <- z(2 - uz), which
    doubles the precision in two ``product_kernel`` calls.  The result is
    the unique inverse with coefficients in [0, p^rel); ZeroDivisionError
    for a non-unit."""
    p = f.p
    if not any(u[1:]):
        if not u[0] % p:
            raise ZeroDivisionError("not a unit")
        return [pow(u[0], -1, p ** rel)] + [0] * (f.m - 1)
    z = list(_residue_inverse(tuple([x % p for x in u]), f.modulus, p))
    prec, kernel = 1, f.product_kernel
    while prec < rel:
        prec = min(2 * prec, rel)
        mod = p ** prec
        t = [-x % mod for x in kernel(u, z)]
        t[0] += 2
        z = [x % mod for x in kernel(z, t)]
    return z


def _inverse(f, coeffs, shift, N, v):
    """(coeffs, shift, N) of 1/x, before normalization, for x = p^-shift *
    coeffs of valuation v at precision N (ZeroDivisionError for v None).

    1/x has precision N - 2v, which may be < 1 while y/x has digits; its
    unit part u is inverted modulo p^(N - v) (v < N) by ``_unit_inverse``.
    """
    if v is None:
        raise ZeroDivisionError("element indistinguishable from zero")
    p = f.p
    pw = p ** (v + shift)  # p to the coefficient-level valuation
    inv = _unit_inverse(f, [c // pw for c in coeffs], N - v)
    N = N - 2 * v
    shift_out = max(v, 0)
    scale = p ** (shift_out - v)
    return [c * scale for c in inv], shift_out, N


def _sum(p, xc, sx, yc, sy, sign):
    """(coeffs, shift) of x + sign*y over the common denominator p^max(sx, sy)."""
    if sx < sy:
        k = p ** (sy - sx)
        xc, sx = [c * k for c in xc], sy
    elif sy < sx:
        k = p ** (sx - sy)
        yc = [c * k for c in yc]
    if sign > 0:
        return [u + w for u, w in zip(xc, yc)], sx
    return [u - w for u, w in zip(xc, yc)], sx


_UNNORMALIZED = object()  # PadicElement's v when the form is not yet normal


class PadicElement:
    """Element of Q_{p^m} at absolute precision N.

    The value is p^(-shift) * (c_0 + c_1*w + ... + c_{m-1}*w^{m-1}) with the
    c_i stored modulo p^(N+shift).  Since the basis 1, w, ..., w^{m-1} is an
    integral basis of the unramified extension, the valuation is the minimum
    coefficient valuation minus the shift.  ``_normal`` gives the stored
    form, and the valuation it finds is kept.  Only kernel code passes ``v``:
    (coeffs, shift, abs_precision, v) is then already a ``_normal`` form,
    and it is stored as it is.
    """

    __slots__ = ("field", "coeffs", "shift", "abs_precision", "_v")

    def __init__(self, field, coeffs, shift, abs_precision, v=_UNNORMALIZED):
        self.field = field
        if v is _UNNORMALIZED:
            self.coeffs, self.shift, self.abs_precision, self._v = _normal(
                field.p, coeffs, shift, abs_precision)
        else:
            self.coeffs, self.shift, self.abs_precision, self._v = coeffs, shift, abs_precision, v

    # -- queries ----------------------------------------------------------

    def valuation(self) -> Valuation:
        """Exact p-adic valuation, or AtLeast(N) when indistinguishable from 0."""
        return AtLeast(self.abs_precision) if self._v is None else self._v

    def is_zero_at_precision(self):
        return self._v is None

    def is_integral(self):
        return self._v is None or self._v >= 0

    # -- arithmetic -------------------------------------------------------

    def _plus(self, other, sign):
        other = self._coerce(other)
        f = self.field
        if f is not other.field and f != other.field:
            raise ValueError("field mismatch")
        coeffs, s = _sum(f.p, self.coeffs, self.shift, other.coeffs, other.shift, sign)
        return PadicElement(f, coeffs, s, min(self.abs_precision, other.abs_precision))

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return PadicElement(self.field, [-c for c in self.coeffs], self.shift, self.abs_precision)

    def __mul__(self, other):
        other = self._coerce(other)
        N = _product_precision(self.abs_precision, self._v, other.abs_precision, other._v)
        # PadicElement reduces the product's coefficients mod p^(N+s)
        prod = _mul_coeffs(self.field, self.coeffs, other.coeffs)
        return PadicElement(self.field, prod, self.shift + other.shift, N)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def inverse(self):
        f = self.field
        coeffs, shift, N = _inverse(f, self.coeffs, self.shift, self.abs_precision, self._v)
        if N < 1:
            raise PrecisionError("inverse has no significant digits")
        return PadicElement(f, coeffs, shift, N)

    def __truediv__(self, other):
        """x/y at min(N_x - v_y, N_y - 2v_y + e(x)), digits 1/y may lack."""
        y = self._coerce(other)
        f = self.field
        coeffs, shift, N = _inverse(f, y.coeffs, y.shift, y.abs_precision, y._v)
        N = _product_precision(self.abs_precision, self._v, N, -y._v)
        return PadicElement(f, _mul_coeffs(f, self.coeffs, coeffs), self.shift + shift, N)

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        r = self.field.one(self.abs_precision)
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b if e > 1 else b
            e >>= 1
        return r

    def _coerce(self, other):
        if isinstance(other, PadicElement):
            return other
        if isinstance(other, int):
            return self.field.from_int(other, self.abs_precision)
        raise TypeError(f"cannot combine PadicElement with {type(other).__name__}")

    # -- structure maps ---------------------------------------------------

    def frobenius(self):
        """The lift of x -> x^p; a Q_p-linear ring automorphism of order m,
        applied to the coefficients as one product with its kept table."""
        f = self.field
        if not any(self.coeffs[1:]):  # x lies in Q_p, which sigma fixes
            return self
        P = max(self.abs_precision + self.shift, f.precision)
        table = _map_table(f, tuple(f.frobenius_poly(P)), P, f.m)
        return PadicElement(f, _linear_image(self.coeffs, table), self.shift, self.abs_precision)

    def frobenius_iterate(self, k):
        x = self
        for _ in range(k % self.field.m):
            x = x.frobenius()
        return x

    # -- comparisons ------------------------------------------------------

    def approx_equal(self, other):
        """True when the difference is indistinguishable from zero."""
        return (self - self._coerce(other)).is_zero_at_precision()

    def __eq__(self, other):
        if isinstance(other, (PadicElement, int)):
            return self.approx_equal(other)
        return NotImplemented

    def __repr__(self):
        f = self.field
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                mag = c if 2 * c <= f.p ** (self.abs_precision + self.shift) else c - f.p ** (self.abs_precision + self.shift)
                terms.append(f"{mag}" + ("" if i == 0 else f"*w^{i}" if i > 1 else "*w"))
        body = " + ".join(terms) if terms else "0"
        pre = f"p^-{self.shift}*(" if self.shift else ""
        post = ")" if self.shift else ""
        return f"{pre}{body}{post} + O({f.p}^{self.abs_precision})"


@cache
def make_field_cached(p, m, precision):
    return make_field(p, m, precision)


def teichmueller(field: FieldDescriptor, residue_coeffs, precision=None):
    """The (p^m - 1)-th root of unity (or 0) lifting the given residue.

    ``residue_coeffs`` are the coordinates of the residue-field element in
    the reduction of the basis 1, w, ..., w^{m-1}.
    """
    N = field.precision if precision is None else precision
    p, m = field.p, field.m
    if isinstance(residue_coeffs, int):
        residue_coeffs = [residue_coeffs]
    x = list(residue_coeffs) + [0] * (m - len(residue_coeffs))
    x = [c % p for c in x]
    if all(c == 0 for c in x):
        return field.zero(N)
    mod = p ** N
    q = p ** m
    cur = x
    for _ in range(N + 1):
        nxt = _poly_powmod(cur, q, list(field.modulus), mod)
        nxt = nxt + [0] * (m - len(nxt))
        if nxt == cur:
            break
        cur = nxt
    return PadicElement(field, cur, 0, N)


def field_embedding(sub: FieldDescriptor, big: FieldDescriptor):
    """Return the image in ``big`` of the generator of ``sub``.

    Requires sub.m | big.m.  The chosen root is the Hensel lift of a root of
    the sub-modulus in the residue field of ``big``; the first root in the
    deterministic enumeration of the residue field is picked.
    """
    if big.m % sub.m != 0 or sub.p != big.p:
        raise ValueError("no embedding: degree must divide")
    if sub.m == 1:
        return big.one()
    p, N = big.p, big.precision
    f, F = list(sub.modulus), list(big.modulus)
    # the first residue-level root in the enumeration of F_{p^m}
    for root in _residues(p, big.m):
        if not _poly_eval_poly(f, root, F, p):
            break
    else:  # pragma: no cover
        raise PrecisionError("no residue root found")
    y = _hensel_root(f, root, F, p, N)
    y = y + [0] * (big.m - len(y))
    return PadicElement(big, y, 0, N)


@lru_cache(maxsize=64)
def _map_table(field, image_coeffs, P, m):
    """The table of the Q_p-linear ring map w^i -> y^i, i < m, into
    ``field``, y = image_coeffs, modulo (field modulus, p^P): sigma, with y
    = sigma(w), or an embedding, with y the image of the subfield's w."""
    return _power_table(list(image_coeffs), field.modulus, field.p ** P, m)


def embed_element(x: PadicElement, big: FieldDescriptor, gen_image: PadicElement):
    """Map x = p^-s * sum c_i w^i into ``big`` along a fixed embedding:
    p^-s * sum c_i g^i for the unit g = ``gen_image``, one product with the
    kept table of the g^i mod p^N_g.  c_0 is mapped exactly and c_i g^i is
    known mod p^(N_g + v(c_i)), so the image has precision min(N_x, N_g +
    v(c_i) - s over i >= 1 with c_i != 0), which may exceed big's precision
    as an inverse's may; PrecisionError when it is below 1."""
    s, Ng, N = x.shift, gen_image.abs_precision, x.abs_precision
    if Ng - s < N:
        N = min([N] + [Ng + _valuation(big.p, [c]) - s for c in x.coeffs[1:] if c])
    if N < 1:
        raise PrecisionError("embedding has no significant digits")
    table = _map_table(big, gen_image.coeffs, Ng, x.field.m)
    return PadicElement(big, _linear_image(x.coeffs, table), s, N)


# ---------------------------------------------------------------------------
# matrices


class PadicMatrix:
    """Dense matrix of PadicElements over a single field descriptor."""

    __slots__ = ("field", "rows")

    def __init__(self, field, rows):
        self.field = field
        self.rows = [list(r) for r in rows]

    @classmethod
    def from_ints(cls, field, rows, precision=None):
        made = {}  # one element per distinct integer: elements are never mutated
        return cls(field, [[made.get(x) or made.setdefault(x, field.from_int(x, precision))
                            for x in r] for r in rows])

    @classmethod
    def identity(cls, field, n, precision=None):
        return cls.from_ints(
            field, [[1 if i == j else 0 for j in range(n)] for i in range(n)], precision
        )

    @classmethod
    def zero(cls, field, r, c, precision=None):
        return cls.from_ints(field, [[0] * c for _ in range(r)], precision)

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    @property
    def precision(self):
        """The least entry precision; the field's for a matrix with no entry."""
        return min((e.abs_precision for r in self.rows for e in r), default=self.field.precision)

    def transpose(self):
        return PadicMatrix(self.field, list(map(list, zip(*self.rows))))

    def __mul__(self, other):
        return PadicMatrix(self.field, _product(self.rows, list(zip(*other.rows))))

    def map_frobenius(self, k=1):
        return PadicMatrix(
            self.field, [[e.frobenius_iterate(k) for e in r] for r in self.rows]
        )

    def approx_equal(self, other):
        return all(
            a.approx_equal(b)
            for ra, rb in zip(self.rows, other.rows)
            for a, b in zip(ra, rb)
        )

    def __repr__(self):  # pragma: no cover
        return "PadicMatrix([\n  " + ",\n  ".join(str(r) for r in self.rows) + "\n])"

    # -- elimination ------------------------------------------------------

    def inverse(self):
        n = self.nrows
        if n != self.ncols:
            raise ValueError("not square")
        sf = smith_form(self)
        if any(not is_exact(d) for d in sf.divisors):
            raise ZeroDivisionError("matrix not invertible at precision")
        # M = Linv D Rinv  =>  M^-1 = R D^-1 L
        Dinv = sf.pivot_inverses(self.field, n, self.precision)
        return sf.R * Dinv * sf.L

    def det_valuation(self) -> Valuation:
        """Valuation of the determinant (sum of elementary divisor valuations)."""
        total = 0
        for d in certified_rank(self)[1]:
            if not is_exact(d):
                return AtLeast(total + d.n)
            total += d
        return total


_INF = float("inf")


def _product(rows, cols):
    """The sums rows[i] . cols[j] for all i, j.

    Every pair (a_t, b_t) caps its sum at ``_product_precision``, which for
    a zero b is N_b + e(a), for a zero a N_a + e(b) and for two zeros
    N_a + N_b.  Only the nonzero pairs are multiplied, in increasing t; their
    ``_mul_coeffs`` are added over a common denominator (``_sum``) and
    normalized once, at the cap.  ``_normal`` depends only on the value mod
    p^N and on N, so each entry equals the dense fold of element products in
    coefficients, shift and precision.
    """
    rs = [[(x.coeffs, x.shift, x.abs_precision, x._v) for x in r] for r in rows]
    cs = [[(x.coeffs, x.shift, x.abs_precision, x._v) for x in c] for c in cols]
    zero_at = {}  # one zero element per cap; elements are never mutated
    out = []
    for row, a_row in zip(rows, rs):
        f = row[0].field
        out_row = []
        for b_col in cs:
            acc, cap = None, _INF
            for (ac, sa, Na, va), (bc, sb, Nb, vb) in zip(a_row, b_col):
                N = _product_precision(Na, va, Nb, vb)
                if N < cap:
                    cap = N
                if va is None or vb is None:
                    continue
                if acc is None:
                    acc, s = _mul_coeffs(f, ac, bc), sa + sb
                else:
                    acc, s = _sum(f.p, acc, s, _mul_coeffs(f, ac, bc), sa + sb, 1)
            if acc is None:
                if cap not in zero_at:
                    zero_at[cap] = f.zero(cap)
                out_row.append(zero_at[cap])
            else:
                out_row.append(PadicElement(f, acc, s, cap))
        out.append(out_row)
    return out


@dataclass
class SmithForm:
    """L*M*R = D diagonal mod p^N, N = M.precision; Linv, Rinv are the
    inverses of the transforms.

    ``divisors`` are the elementary divisor valuations in non-decreasing
    order; entries indistinguishable from zero produce AtLeast markers.
    ``pivots`` holds the actual diagonal elements for the exact divisors.
    ``pivots_invertible`` is False when a pivot that cleared entries has no
    inverse digits (N - 2v < 1): L*M*R, L*Linv, R*Rinv may then have none.
    ``L``, ``Linv``, ``R`` and ``Rinv`` are built on first read, by
    ``build(name)``, and kept.  ``inverses[k]`` is the kernel entry of
    1/pivots[k] that the elimination computed, or None for a pivot that
    cleared nothing.
    """

    divisors: list
    pivots: list
    build: Callable[[str], PadicMatrix]
    inverses: list

    @property
    def rank(self):
        return len(self.pivots)

    @property
    def pivots_invertible(self):
        return all(inv is None or inv[2] >= 1 for inv in self.inverses)

    L = cached_property(lambda self: self.build("L"))
    Linv = cached_property(lambda self: self.build("Linv"))
    R = cached_property(lambda self: self.build("R"))
    Rinv = cached_property(lambda self: self.build("Rinv"))

    def pivot_inverses(self, f, d, precision):
        """D^-1 of the first d pivots: d x d, zero at ``precision`` off the
        diagonal.  A kept inverse is reused; ``PadicElement.inverse`` runs
        only for a pivot that cleared nothing.  PrecisionError, as that
        method's, where 1/pivot has no digit."""
        D = PadicMatrix.zero(f, d, d, precision)
        for k, inv in enumerate(self.inverses[:d]):
            if inv is not None and inv[2] < 1:
                raise PrecisionError("inverse has no significant digits")
            D.rows[k][k] = self.pivots[k].inverse() if inv is None else PadicElement(f, *inv[:3])
        return D


def _fused(f, x, a, b):
    """x - a*b on kernel entries, normalized once, at precision min(N_x,
    N(a*b)); it raises where a*b raises, so it equals the element fold
    field by field.  A zero factor only caps x."""
    ac, sa, Na, va = a
    bc, sb, Nb, vb = b
    xc, sx, N, _ = x
    Np = _product_precision(Na, va, Nb, vb)
    if va is None or vb is None:
        return x if N <= Np else _normal(f.p, xc, sx, Np)
    coeffs, s = _sum(f.p, xc, sx, _mul_coeffs(f, ac, bc), sa + sb, -1)
    return _normal(f.p, coeffs, s, N if N < Np else Np)


def _replay(f, n, steps, cols, inverse, one, zero):
    """Rows of an n x n transform of ``smith_form`` at N = one[2], from the
    identity and the recorded factors in the elimination's order: the row
    operations of L (row i -= fct * row k, by ``_fused``) and Rinv (row k +=
    fct * row i), or the transposed column operations of R and Linv.  At
    step k of Rinv or Linv every row below k is still a unit row, so row k
    += fct * row i writes fct, capped at N, where row i holds its 1."""
    T = [[one if i == j else zero for j in range(n)] for i in range(n)]
    N = one[2]
    for k, bi, bj, row_fcts, col_fcts in steps:
        b, fcts = (bj, col_fcts) if cols else (bi, row_fcts)
        T[k], T[b] = T[b], T[k]
        for i, fct in enumerate(fcts, k + 1):
            if inverse:
                T[k][T[i].index(one)] = fct if fct[2] <= N else _normal(f.p, fct[0], fct[1], N)
            else:
                T[i] = [_fused(f, x, fct, y) for x, y in zip(T[i], T[k])]
    elements = {}  # one per entry object: T keeps every entry alive, so ids stay distinct
    for row in T:
        for e in row:
            if id(e) not in elements:
                elements[id(e)] = PadicElement(f, *e)
    return [[elements[id(e)] for e in row] for row in T]


def _flat(p, rows, N):
    """(S, work) for the matrix whose entries are given as (coeffs, shift):
    each entry x = p^-shift * sum coeffs[i] w^i becomes the coefficient list
    of p^S * x mod p^(N+S), S the largest shift.  An entry known to more
    than N digits is cut to N; dropping digits never certifies more."""
    S = max((s for row in rows for _, s in row), default=0)
    mod = p ** (N + S)
    return S, [[[x * p ** (S - s) % mod for x in coeffs] for coeffs, s in row] for row in rows]


def _pivot(p, work, k):
    """The first entry of least valuation v in the block of ``work`` from
    (k, k), in row-major order, moved to (k, k) by swapping rows k and bi
    and columns k and bj: (v, bi, bj), or None when the block is zero."""
    v = None
    for i in range(k, len(work)):
        for j, x in enumerate(work[i][k:], k):
            w = _valuation(p, x)
            if w is not None and (v is None or w < v):
                v, bi, bj = w, i, j
                if not w:
                    break
        if v == 0:
            break
    if v is None:
        return None
    if bi != k:
        work[k], work[bi] = work[bi], work[k]
    if bj != k:
        for row in work:
            row[k], row[bj] = row[bj], row[k]
    return v, bi, bj


def smith_form(M: PadicMatrix) -> SmithForm:
    """Smith-style reduction of M cut to N = M.precision, with least-valuation
    pivoting; PrecisionError for N < 1, where the identity has no digit.

    At one precision every zero is O(p^N) and every exact valuation is
    below N, so the least-valuation pivot is sound: a lift of M within
    O(p^N) has the same divisors, and they are ``certified_rank``'s.  The
    loop runs on the rank kernel's integers, p^S * M mod p^(N+S) from
    ``_flat``, with its pivots p^v * u (v at coefficient level, u a unit)
    from ``_pivot``.  An entry e of the pivot's column or row is cleared by
    the factor c = (e / p^v) * u^-1 mod p^(N+S-v), integral as v is least;
    u^-1 is computed once, only if an entry needs clearing, and 1/pivot is
    kept.  Row i <- row i - c * row k stays exact mod p^(N+S), since every
    entry of row k has valuation >= v, which makes c's error vanish.  The
    rows below are then zero in the pivot column, so clearing the pivot
    row's columns changes no other row; the pivot's row and column are not
    read again.

    Each factor is recorded as the kernel entry of the quotient e / pivot,
    c at precision N - (v - S), zero there for a zero e, in the step (k, row
    swap, column swap, row factors, column factors).  A transform is built
    on first read by ``_replay``, from the identity at N, so L*M*R = D mod
    p^N and each transform entry keeps the precision that its products cap
    it at.  Every factor is integral with a digit, so every transform entry
    stays integral with precision >= 1, and no replay raises.
    """
    f, p = M.field, M.field.p
    r, c = M.nrows, M.ncols
    N = M.precision
    if N < 1:
        raise PrecisionError("matrix has no significant digits")
    S, work = _flat(p, [[(e.coeffs, e.shift) for e in row] for row in M.rows], N)
    mod, unit = p ** (N + S), (1,) + (0,) * (f.m - 1)
    divisors, pivots, inverses, steps = [], [], [], []
    for k in range(min(r, c)):
        found = _pivot(p, work, k)
        if found is None:
            break
        v, bi, bj = found
        wk = work[k]
        n, pv = N + S - v, p ** v  # n: the digits of every factor
        cleared = [wi[k] for wi in work[k + 1:]] + wk[k + 1:]
        pinv = None
        if any(map(any, cleared)):
            uinv = _unit_inverse(f, [x // pv for x in wk[k]], n)
            # 1/pivot = p^-v * (p^S * u^-1), at precision N - 2(v - S)
            pinv = _normal(p, [x * p ** S for x in uinv], v, n + S - v)
        nil = _normal(p, [0] * f.m, 0, n)
        fcts = [_normal(p, _mul_coeffs(f, [x // pv for x in e], uinv), 0, n) if any(e) else nil
                for e in cleared]
        row_fcts, col_fcts = fcts[:r - k - 1], fcts[r - k - 1:]
        rest = wk[k + 1:]
        for wi, fct in zip(work[k + 1:], row_fcts):
            if fct[3] is not None:
                wi[k + 1:] = f.row_kernel(unit, fct[0], wi[k + 1:], rest, mod)
        steps.append((k, bi, bj, row_fcts, col_fcts))
        divisors.append(v - S)
        pivots.append(PadicElement(f, wk[k], S, N))
        inverses.append(pinv)
    divisors += [AtLeast(N)] * (min(r, c) - len(divisors))
    one = _normal(p, [1] + [0] * (f.m - 1), 0, N)
    zero = _normal(p, [0] * f.m, 0, N)

    def build(name):
        cols = name[0] == "R"
        T = _replay(f, c if cols else r, steps, cols, name.endswith("inv"), one, zero)
        return PadicMatrix(f, T if name in ("L", "Rinv") else zip(*T))

    return SmithForm(divisors, pivots, build, inverses)


def rank_below(divisors, threshold):
    """Number of divisors certified exact and below ``threshold``."""
    return sum(1 for d in divisors if is_exact(d) and d < threshold)


def _int_divisors(f, rows, N):
    """The certified divisors, at the one precision N, of the matrix over
    ``f`` whose entries are given as (coeffs, shift): the rank kernel.

    It eliminates ``_flat``'s p^S * M mod p^(N+S) with ``smith_form``'s
    pivots (``_pivot``), but without any division: a pivot p^v * u clears
    each entry e below it by row_i <- u * row_i - (e / p^v) * row_k, mod
    p^(N+S).  That is u times ``smith_form``'s update by the factor
    (e / p^v) * u^-1.  u is a unit of Z[w]/(modulus), the modulus being
    irreducible mod p, so a row times u keeps the valuation of every entry,
    and by induction each row stays a unit multiple of that elimination's
    row.  The pivots, swaps and divisors are therefore the same, and no
    entry is ever too coarse to clear.  Clearing the pivot row only zeroes
    its entries (the other rows are zero in the pivot column), so it is
    skipped.  Returns v - S per pivot, each below N, then AtLeast(N).
    """
    p = f.p
    S, work = _flat(p, rows, N)
    mod = p ** (N + S)
    r = len(work)
    c = len(work[0]) if r else 0
    divisors = []
    for k in range(min(r, c)):
        found = _pivot(p, work, k)
        if found is None:
            break
        v = found[0]
        wk = work[k]
        pv = p ** v
        u, rest = [x // pv for x in wk[k]], wk[k + 1:]
        for wi in work[k + 1:]:
            e = wi[k]
            if any(e):  # column k is not read again
                wi[k + 1:] = f.row_kernel(u, [x // pv for x in e], wi[k + 1:], rest, mod)
        divisors.append(v - S)
    divisors += [AtLeast(N)] * (min(r, c) - len(divisors))
    return divisors


def certified_rank(M: PadicMatrix):
    """(rank, divisor valuations) at N = M.precision, from ``_int_divisors``:
    the exact divisors, all below N, and AtLeast(N) for the others; the
    rank counts the exact ones."""
    N = M.precision
    divisors = _int_divisors(M.field, [[(e.coeffs, e.shift) for e in row] for row in M.rows], N)
    return rank_below(divisors, N), divisors


def kernel_basis(M: PadicMatrix):
    """Certified right-kernel basis vectors (columns indistinguishable from 0)."""
    sf = smith_form(M)  # the exact divisors are the first sf.rank
    return [[row[k] for row in sf.R.rows] for k in range(sf.rank, M.ncols)]


def saturate_lattice(M: PadicMatrix) -> PadicMatrix:
    """Basis of the smallest direct summand containing the column span.

    Entries must be integral; elementary divisors are divided out, so the
    returned basis has all divisors of valuation zero.
    """
    for row in M.rows:
        for e in row:
            if not e.is_integral():
                raise ValueError("entries must be integral")
    sf = smith_form(M)
    if sf.rank == 0:
        raise PrecisionError("rank indeterminate at precision")
    return PadicMatrix(M.field, [row[: sf.rank] for row in sf.Linv.rows])


# ---------------------------------------------------------------------------
# characteristic polynomial (Hessenberg on Z/p^N, Berkowitz on elements)


def _zp_rows(M: PadicMatrix):
    """One pass over M's entries, the scan rule of every Z_p route.

    When every entry lies in Z_p (shift 0, no w-part; an entry zero at its
    precision counts as its c_0 = 0, from its stored valuation), (A, N):
    the integer rows of c_0's and N = M.precision, the least entry
    precision.  Otherwise None.
    """
    wide, rows = M.field.m > 1, M.rows
    N = rows[0][0].abs_precision if rows and rows[0] else M.precision
    A = []
    for r in rows:
        row = []
        for e in r:
            if e._v is not None and (e.shift or wide and any(e.coeffs[1:])):
                return None
            row.append(e.coeffs[0])
            if e.abs_precision < N:
                N = e.abs_precision
        A.append(row)
    return A, N


def charpoly(M: PadicMatrix):
    """Coefficients [a_0, ..., a_n] of det(tI - M), low degree first.

    When every entry lies in Z_p, ``_zp_rows`` reads the integers c_0 and
    N = M.precision, and ``_hessenberg_charpoly`` computes det(tI - A) mod
    p^N.  That is the element loop's answer exactly: its zero accumulators
    cap every coefficient at N, products of integral elements never fall
    below N, and Z_p -> Z_{p^m} is a ring map.  The reduction to Hessenberg
    form keeps that value, since each of its steps is a similarity by a
    matrix invertible over Z/p^N: a symmetric swap, or row_i -= c row_r
    followed by col_r += c col_i for an integer c.  Any other entry sends
    M to the division-free loop on the elements, where a zero is O(p^N)
    and caps its sums.
    """
    if M.nrows != M.ncols:
        raise ValueError("not square")
    f = M.field
    zp = _zp_rows(M)
    if zp is None:
        N = M.precision
        return _berkowitz(M.rows, f.zero(N), f.one(N))
    (A, N), p, pad = zp, f.p, (0,) * (f.m - 1)
    return [PadicElement(f, (c,) + pad, 0, N, _valuation(p, (c,)))
            for c in _hessenberg_charpoly(A, p, N)]


def _hessenberg_charpoly(A, p, N):
    """det(tI - A) mod p^N, low degree first, for a square integer matrix A.

    Column k by column k, the entry of least valuation v below the diagonal
    is swapped to (k+1, k) by a symmetric row and column swap, and each
    entry e under it is cleared with c = (e / p^v) u^-1 mod p^(N-v), u the
    pivot's unit part: row_i -= c row_(k+1), then col_(k+1) += c col_i.
    Every step is a similarity over Z/p^N, so the upper Hessenberg H that
    remains has the charpoly of A; that is read off the division-free
    recurrence P_(m+1) = (t - h_mm) P_m - sum_i h_im h_(i+1,i)...h_(m,m-1)
    P_i (Cohen, section 2.2.4).  Both steps take O(n^3) operations mod p^N.
    """
    n, mod = len(A), p ** N
    H = [[x % mod for x in row] for row in A]
    for k in range(n - 2):
        r, v = None, N
        for i in range(k + 1, n):
            x = H[i][k]
            if x:
                vx = _valuation(p, (x,))
                if vx < v:
                    r, v = i, vx
                    if not vx:
                        break
        if r is None:
            continue
        if r != k + 1:
            H[r], H[k + 1] = H[k + 1], H[r]
            for row in H:
                row[r], row[k + 1] = row[k + 1], row[r]
            r = k + 1
        pv, rel = p ** v, p ** (N - v)
        inv = pow(H[r][k] // pv, -1, rel)
        pivot = H[r]
        for i in range(r + 1, n):
            e = H[i][k]
            if e:
                c = e // pv * inv % rel
                H[i][k:] = [(x - c * y) % mod for x, y in zip(H[i][k:], pivot[k:])]
                for row in H:
                    if row[i]:
                        row[r] = (row[r] + c * row[i]) % mod
    polys = [[1]]
    for m in range(n):
        prev, h = polys[m], H[m][m]
        new = [(x - h * y) % mod for x, y in zip([0] + prev, prev + [0])]  # (t - h) prev
        scale = 1
        for i in range(m - 1, -1, -1):
            scale = scale * H[i + 1][i] % mod
            if not scale:
                break
            c = scale * H[i][m] % mod
            if c:
                new[: i + 1] = [(x - c * y) % mod for x, y in zip(new, polys[i])]
        polys.append(new)
    return polys[n]


def _berkowitz(A, zero, one):
    """The division-free Samuelson-Berkowitz loop on PadicElements, low
    degree first.

    Step i multiplies the coefficient vector by the Toeplitz matrix of
    T = [1, -a, -R C, -R M C, ..., -R M^(i-2) C], where a = A[i-1][i-1], R
    and C are the row and column beside it and M is the block above them.
    The Krylov vectors M^k C come from one product per k by M with R joined
    as its last row.  Every sum folds from ``zero`` in increasing index, so
    a zero entry, O(p^N), caps the sums it enters.
    """
    vec = [one]
    for i in range(1, len(A) + 1):
        rows = [row[: i - 1] for row in A[:i]]
        T = [one, zero - A[i - 1][i - 1]]
        cur = [A[t][i - 1] for t in range(i - 1)]
        for _ in range(i - 1):
            cur = [sum((x * y for x, y in zip(row, cur)), zero) for row in rows]
            T.append(zero - cur.pop())
        vec = [sum((T[t] * vec[s - t] for t in range(max(0, s - i + 1), s + 1)), zero)
               for s in range(i + 1)]
    return vec[::-1]


# ---------------------------------------------------------------------------
# serialization


def matrix_to_json(M: PadicMatrix):
    return {
        "p": M.field.p,
        "m": M.field.m,
        "modulus": [int(c) for c in M.field.modulus],
        "precision": M.precision,
        "coeffs": [
            [[str(c) for c in e.coeffs] for e in row] for row in M.rows
        ],
        "shifts": [[e.shift for e in row] for row in M.rows],
    }


def _json_int(x, what):
    """An int written as a JSON number or an ASCII decimal string."""
    if type(x) is int or isinstance(x, str) and re.fullmatch("-?[0-9]+", x):
        return int(x)
    raise ValueError(f"{what} must be an integer (got {x!r})")


def matrix_from_json(d):
    """The matrix written by ``matrix_to_json``; ValueError if malformed."""
    if not isinstance(d, dict):
        raise ValueError("matrix JSON must be an object")
    missing = [k for k in ("p", "m", "precision", "coeffs") if k not in d]
    if missing:
        raise ValueError(f"matrix JSON lacks {', '.join(missing)}")
    p, m, N = (_json_int(d[k], k) for k in ("p", "m", "precision"))
    field = make_field_cached(p, m, N)
    coeffs, shifts = d["coeffs"], d.get("shifts")
    if not (isinstance(coeffs, list) and coeffs and all(
            isinstance(r, list) and r and len(r) == len(coeffs[0]) for r in coeffs)):
        raise ValueError("coeffs must be a non-empty list of rows of equal length")
    if shifts is None:
        shifts = [[0] * len(row) for row in coeffs]
    elif not (isinstance(shifts, list) and len(shifts) == len(coeffs) and all(
            isinstance(r, list) and len(r) == len(coeffs[0]) for r in shifts)):
        raise ValueError("shifts must have the shape of coeffs")
    rows = []
    for crow, srow in zip(coeffs, shifts):
        out = []
        for c, s in zip(crow, srow):
            if not (isinstance(c, list) and len(c) == m):
                raise ValueError(f"each entry needs a list of m = {m} coefficients")
            s = _json_int(s, "shift")
            if s < 0:
                raise ValueError(f"shift must be >= 0 (got {s})")
            out.append(PadicElement(field, [_json_int(x, "coefficient") for x in c], s, N))
        rows.append(out)
    return PadicMatrix(field, rows)
