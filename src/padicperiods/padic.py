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
from dataclasses import dataclass
from functools import cached_property, lru_cache
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


def _poly_gcd_fp(a, b, p):
    a = [x % p for x in a]
    b = [x % p for x in b]
    _poly_trim(a), _poly_trim(b)
    while b:
        # make b monic
        inv = pow(b[-1], -1, p)
        b = [(x * inv) % p for x in b]
        a, b = b, _poly_rem(a, b, p)
    return a


def _is_irreducible_mod_p(f, p):
    m = len(f) - 1
    if m < 1:
        return False
    x = [0, 1]
    xq = _poly_powmod(x, p ** m, f, p)
    if _poly_trim([(xi - yi) % p for xi, yi in itertools.zip_longest(xq, x, fillvalue=0)]):
        return False
    for ell in _prime_factors(m):
        xd = _poly_powmod(x, p ** (m // ell), f, p)
        g = _poly_gcd_fp(
            [(xi - yi) % p for xi, yi in itertools.zip_longest(xd, x, fillvalue=0)], f, p
        )
        if len(g) - 1 != 0:
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


def _poly_inverse(a, f, p, M):
    """Inverse of a modulo (f, p^M) for monic f; a must be a unit (nonzero residue).

    Solves a*z = 1 by Gauss-Jordan elimination mod p^M on the matrix whose
    column j is a*x^j mod f.  A unit's matrix is invertible mod p, so each
    column has a pivot prime to p below the diagonal.
    """
    m, mod = len(f) - 1, p ** M
    col, cols = [x % mod for x in a] + [0] * (m - len(a)), []
    for _ in range(m):
        cols.append(col)
        col = [(c - col[-1] * fc) % mod for c, fc in zip([0] + col[:-1], f)]  # x * col
    rows = [[cj[i] for cj in cols] + [int(i == 0)] for i in range(m)]
    for k in range(m):
        piv = next((i for i in range(k, m) if rows[i][k] % p), None)
        if piv is None:
            raise ZeroDivisionError("not a unit")
        rows[k], rows[piv] = rows[piv], rows[k]
        inv = pow(rows[k][k], -1, mod)
        rk = rows[k] = [x * inv % mod for x in rows[k]]
        for i, row in enumerate(rows):
            if i != k and row[k]:
                c = row[k]
                rows[i] = [(x - c * y) % mod for x, y in zip(row, rk)]
    return _poly_trim([row[m] for row in rows])


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

    def frobenius_table(self, min_precision):
        """The table of sigma: sigma(w)^j for j < m, modulo (modulus, p^P)
        with P = max(min_precision, precision).  The table at the field's
        precision is built on first use and kept; one above it is built from
        ``frobenius_poly`` on each call."""
        if min_precision <= self.precision:
            return self._frobenius_table
        return _power_table(self.frobenius_poly(min_precision), self.modulus,
                            self.p ** min_precision, self.m)

    @cached_property
    def _frobenius_table(self):
        return _power_table(list(self.frobenius_image), self.modulus,
                            self.p ** self.precision, self.m)

    @cached_property
    def powers(self):
        """w^m, ..., w^(2m-2) modulo the modulus over Z, as nonzero terms (i, c)."""
        m, f = self.m, self.modulus
        out, cur = [], [-c for c in f[:m]]  # w^m
        for _ in range(m - 1):
            out.append([(i, c) for i, c in enumerate(cur) if c])
            cur = [c - cur[-1] * fc for c, fc in zip([0] + cur[:-1], f)]  # w * cur
        return out


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

    Newton's iteration y -> y - g(y)/g'(y) doubles the precision each step;
    g'(y) must be a unit, as it is for a simple root mod p.
    """
    gprime = [i * g[i] for i in range(1, len(g))]
    prec = 1
    while prec < N:
        prec = min(2 * prec, N)
        mod = p ** prec
        gy = _poly_eval_poly(g, y, f, mod)
        inv = _poly_inverse(_poly_eval_poly(gprime, y, f, mod), f, p, prec)
        corr = _poly_mulmod(gy, inv, f, mod)
        y = _poly_trim([(a - b) % mod for a, b in itertools.zip_longest(y, corr, fillvalue=0)])
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
    """a*b in Z[w]/(modulus) over the integers; the caller reduces mod p^k.

    A factor in Q_p (no w-part) scales the other one coefficient by
    coefficient.  Otherwise the terms of degree m..2m-2 of the schoolbook
    product fold back through the field's table of w^m..w^(2m-2).
    """
    if not any(a[1:]):
        return [a[0] * y for y in b]
    if not any(b[1:]):
        return [b[0] * x for x in a]
    m = f.m
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                prod[j] += x * y
    out = prod[:m]
    for h, row in zip(prod[m:], f.powers):
        if h:
            for i, t in row:
                out[i] += h * t
    return out


def _unit_inverse(f, unit, k):
    """u^-1 modulo (modulus, p^k) as m coefficients, for a unit u of
    Z[w]/(modulus): by ``pow`` for a unit of Z_p, by ``_poly_inverse``
    otherwise."""
    if any(unit[1:]):
        inv = _poly_inverse(unit, list(f.modulus), f.p, k)
        return inv + [0] * (f.m - len(inv))
    return [pow(unit[0], -1, f.p ** k)] + [0] * (f.m - 1)


def _inverse(f, coeffs, shift, N, v):
    """(coeffs, shift, N) of 1/x, before normalization, for x = p^-shift *
    coeffs of valuation v at precision N (ZeroDivisionError for v None).

    1/x has precision N - 2v, which may be < 1 while y/x has digits; its
    unit part is inverted modulo p^(N - v) (v < N) by ``_unit_inverse``.
    """
    if v is None:
        raise ZeroDivisionError("element indistinguishable from zero")
    p = f.p
    rel = N - v
    N = N - 2 * v
    pw = p ** (v + shift)  # p to the coefficient-level valuation
    inv = _unit_inverse(f, [c // pw for c in coeffs], rel)
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


class PadicElement:
    """Element of Q_{p^m} at absolute precision N.

    The value is p^(-shift) * (c_0 + c_1*w + ... + c_{m-1}*w^{m-1}) with the
    c_i stored modulo p^(N+shift).  Since the basis 1, w, ..., w^{m-1} is an
    integral basis of the unramified extension, the valuation is the minimum
    coefficient valuation minus the shift.  ``_normal`` gives the stored
    form, and the valuation it finds is kept.
    """

    __slots__ = ("field", "coeffs", "shift", "abs_precision", "_v")

    def __init__(self, field, coeffs, shift, abs_precision):
        self.field = field
        self.coeffs, self.shift, self.abs_precision, self._v = _normal(
            field.p, coeffs, shift, abs_precision)

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
        applied to the coefficients as one product with the field's table."""
        f = self.field
        if not any(self.coeffs[1:]):  # x lies in Q_p, which sigma fixes
            return self
        table = f.frobenius_table(self.abs_precision + self.shift)
        return PadicElement(f, _linear_image(self.coeffs, table), self.shift, self.abs_precision)

    def frobenius_iterate(self, k):
        if not any(self.coeffs[1:]):  # x lies in Q_p, which sigma fixes
            return self
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


_FIELD_CACHE = {}


def make_field_cached(p, m, precision):
    key = (p, m, precision)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = make_field(p, m, precision)
    return _FIELD_CACHE[key]


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
        nxt = _poly_powmod(cur, q, list(field.modulus), mod) if m > 1 else [pow(cur[0], q, mod)]
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
def _embedding_table(big, gen_coeffs, gen_precision, m):
    """The table of w^i -> g^i, i < m, modulo (big modulus, p^N_g)."""
    return _power_table(list(gen_coeffs), big.modulus, big.p ** gen_precision, m)


def embed_element(x: PadicElement, big: FieldDescriptor, gen_image=None):
    """Map x = p^-s * sum c_i w^i into ``big`` along a fixed embedding:
    p^-s * sum c_i g^i for the unit g = ``gen_image``, one product with the
    kept table of the g^i mod p^N_g.  c_0 is mapped exactly and c_i g^i is
    known mod p^(N_g + v(c_i)), so the image has precision min(N_x, N_g +
    v(c_i) - s over i >= 1 with c_i != 0), which may exceed big's precision
    as an inverse's may; PrecisionError when it is below 1."""
    if gen_image is None:
        gen_image = field_embedding(x.field, big)
    s, Ng, N = x.shift, gen_image.abs_precision, x.abs_precision
    if Ng - s < N:
        N = min([N] + [Ng + _valuation(big.p, [c]) - s for c in x.coeffs[1:] if c])
    if N < 1:
        raise PrecisionError("embedding has no significant digits")
    table = _embedding_table(big, gen_image.coeffs, Ng, x.field.m)
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
        return min(e.abs_precision for r in self.rows for e in r)

    def transpose(self):
        return PadicMatrix(self.field, list(map(list, zip(*self.rows))))

    def __mul__(self, other):
        if isinstance(other, PadicMatrix):
            return PadicMatrix(self.field, _product(self.rows, list(zip(*other.rows))))
        return PadicMatrix(self.field, [[e * other for e in r] for r in self.rows])

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

    def smith_form(self):
        return smith_form(self)

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


def _split(v):
    """(vals, nonzero, zeros, e) of a vector of elements, each flag read once.

    ``vals[t]`` is the entry as (coeffs, shift, N, v), or None when it is
    zero; ``nonzero`` holds the pairs (t, vals[t]) of the nonzero entries in
    increasing t; ``zeros`` maps each precision N of a zero entry to the set
    of its positions; ``e[t]`` is e(x), the valuation of x or N for a zero x.
    """
    vals, nonzero, zeros, e = [], [], {}, []
    for t, x in enumerate(v):
        if x._v is None:
            vals.append(None)
            zeros.setdefault(x.abs_precision, set()).add(t)
            e.append(x.abs_precision)
        else:
            entry = (x.coeffs, x.shift, x.abs_precision, x._v)
            vals.append(entry)
            nonzero.append((t, entry))
            e.append(x._v)
    return vals, nonzero, zeros, e


def _product(rows, cols):
    """The sums rows[i] . cols[j] for all i, j, multiplying only nonzero pairs.

    Each sum adds the ``_mul_coeffs`` of its nonzero pairs over a common
    denominator (``_sum``) and is normalized once, at the least product
    precision (``_product_precision``) of those pairs.  A skipped product is
    zero, but it still caps the sum at the precision a*b would have had,
    which for a zero b is N_b + e(a) (as e(a) <= N_a).  ``_normal`` depends
    only on the value mod p^N and on N, so each entry equals the dense fold
    of element products in coefficients, shift and precision.
    """
    rs = [_split(r) for r in rows]
    cs = [_split(c) for c in cols]
    zero_at = {}  # one zero element per cap; elements are never mutated
    out = []
    for row, (a_vals, a_nonzero, a_zeros, a_e) in zip(rows, rs):
        f = row[0].field
        out_row = []
        for b_vals, b_nonzero, b_zeros, b_e in cs:
            acc, cap = None, _INF
            for t, (ac, sa, Na, va) in a_nonzero:
                b = b_vals[t]
                if b is not None:
                    bc, sb, Nb, vb = b
                    N = _product_precision(Na, va, Nb, vb)
                    if N < cap:
                        cap = N
                    if acc is None:
                        acc, s = _mul_coeffs(f, ac, bc), sa + sb
                    else:
                        acc, s = _sum(f.p, acc, s, _mul_coeffs(f, ac, bc), sa + sb, 1)
                elif b_e[t] + a_e[t] < cap:  # b is zero: N_b + e(a)
                    cap = b_e[t] + a_e[t]
            if a_zeros:
                for t, b in b_nonzero:
                    if a_vals[t] is None and a_e[t] + b_e[t] < cap:  # a is zero
                        cap = a_e[t] + b_e[t]
                for na, ta in a_zeros.items():  # both are zero: N_a + N_b
                    for nb, tb in b_zeros.items():
                        if na + nb < cap and not ta.isdisjoint(tb):
                            cap = na + nb
            if cap < 1:
                raise PrecisionError("product has no significant digits")
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
    """L*M*R = D diagonal; Linv, Rinv are the inverses of the transforms.

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


def _times(f, a, b):
    """a*b on kernel entries (coeffs, shift, N, v), normalized once."""
    N = _product_precision(a[2], a[3], b[2], b[3])
    return _normal(f.p, _mul_coeffs(f, a[0], b[0]), a[1] + b[1], N)


def _fused(f, x, a, b, sign):
    """x + sign*a*b on kernel entries, normalized once, at precision
    min(N_x, N(a*b)); it raises where a*b raises, so it equals the element
    fold field by field.  A zero factor only caps x."""
    ac, sa, Na, va = a
    bc, sb, Nb, vb = b
    xc, sx, N, _ = x
    Np = _product_precision(Na, va, Nb, vb)
    if va is None or vb is None:
        return x if N <= Np else _normal(f.p, xc, sx, Np)
    coeffs, s = _sum(f.p, xc, sx, _mul_coeffs(f, ac, bc), sa + sb, sign)
    return _normal(f.p, coeffs, s, N if N < Np else Np)


def _zero_quotient(zero, n):
    """x / pivot for a zero x, at its precision n = N_x - v_pivot, as a
    kernel entry; PrecisionError for n < 1, as the element quotient."""
    if n < 1:
        raise PrecisionError("quotient has no significant digits")
    return zero[0], 0, n, None


def _replay(f, n, steps, cols, inverse, one, zero):
    """Rows of an n x n transform of ``smith_form``, replayed on the identity
    by the elimination's ``_fused`` updates in its order: the row operations
    of L (row i -= fct * row k) and Rinv (row k += fct * row j), or the
    transposed column operations of R and Linv (a*b is symmetric there)."""
    T = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for k, bi, bj, row_fcts, col_fcts in steps:
        b, fcts = (bj, col_fcts) if cols else (bi, row_fcts)
        T[k], T[b] = T[b], T[k]
        for i, fct in enumerate(fcts, k + 1):
            if inverse:
                T[k] = [_fused(f, x, fct, y, 1) for x, y in zip(T[k], T[i])]
            else:
                T[i] = [_fused(f, x, fct, y, -1) for x, y in zip(T[i], T[k])]
    return [[PadicElement(f, e[0], e[1], e[2]) for e in row] for row in T]


def smith_form(M: PadicMatrix) -> SmithForm:
    """Smith-style reduction with minimal-valuation pivoting.

    The loop eliminates only the work matrix, on kernel entries (coeffs,
    shift, N, v) of ``_normal``: each update is one ``_fused`` step, and a
    pivot is inverted once, only if an entry needs clearing, and that
    inverse is kept.  The clearing factor e / pivot has the quotient's
    precision, which 1/pivot may lack, so each entry equals the element
    fold x - (e / pivot) * y and every PrecisionError is raised where it
    would.  A zero entry x of the pivot row or column is known only mod
    p^N_x, so it is cleared too, by the zero factor x / pivot at precision
    N_x - v: its updates only cap precisions, and skipping them would give
    the transforms digits that M does not determine.

    Each step is recorded as (k, row swap, column swap, row factors, column
    factors), and a transform is built on first read by ``_replay``.  No
    replay raises.  Every factor e / pivot is integral, as the pivot has the
    least valuation in its block, and it has a digit, or the elimination
    would have raised.  So from the identity at N = M.precision >= 1 every
    transform entry stays integral with precision >= 1, and no product of
    two such entries falls below one digit.  Every PrecisionError is thus
    raised here, where the caller's ``try`` sees it; for an M built with
    entries of precision < 1 the transforms are built here.
    """
    f = M.field
    r, c = M.nrows, M.ncols
    N = M.precision
    work = [[(e.coeffs, e.shift, e.abs_precision, e._v) for e in row] for row in M.rows]
    one = _normal(f.p, [1] + [0] * (f.m - 1), 0, N)
    zero = _normal(f.p, [0] * f.m, 0, N)
    divisors, pivots, inverses, steps = [], [], [], []
    for k in range(min(r, c)):
        # the first entry of least valuation, in row-major order
        best = min(((row[j][3], i, j) for i, row in enumerate(work[k:], k)
                    for j in range(k, c) if row[j][3] is not None), default=None)
        if best is None:
            break
        v, bi, bj = best
        if bi != k:
            work[k], work[bi] = work[bi], work[k]
        if bj != k:
            for row in work:
                row[k], row[bj] = row[bj], row[k]
        wk = work[k]
        pivot, pinv = wk[k], None  # inverted once, and only if an entry needs clearing
        if any(row[k][3] is not None for row in work[k + 1:]) or any(
                e[3] is not None for e in wk[k + 1:]):
            pinv = (*_inverse(f, *pivot), -pivot[3])
        row_fcts, col_fcts = [], []
        for wi in work[k + 1:]:
            fct = (_zero_quotient(zero, wi[k][2] - v) if wi[k][3] is None
                   else _times(f, wi[k], pinv))
            row_fcts.append(fct)
            for j in range(k, c):
                wi[j] = _fused(f, wi[j], fct, wk[j], -1)
        for j in range(k + 1, c):
            fct = (_zero_quotient(zero, wk[j][2] - v) if wk[j][3] is None
                   else _times(f, wk[j], pinv))
            col_fcts.append(fct)
            for row in work:
                row[j] = _fused(f, row[j], row[k], fct, -1)
        steps.append((k, bi, bj, row_fcts, col_fcts))
        divisors.append(v)
        pivots.append(PadicElement(f, pivot[0], pivot[1], pivot[2]))
        inverses.append(pinv)
    divisors += [AtLeast(N)] * (min(r, c) - len(divisors))

    def build(name):
        cols = name[0] == "R"
        T = _replay(f, c if cols else r, steps, cols, name.endswith("inv"), one, zero)
        return PadicMatrix(f, T if name in ("L", "Rinv") else zip(*T))

    sf = SmithForm(divisors, pivots, build, inverses)
    if N < 1:  # the identity has no digit, so a replay may raise: build here
        for name in ("L", "Linv", "R", "Rinv"):
            getattr(sf, name)
    return sf


def rank_below(divisors, threshold):
    """Number of divisors certified exact and below ``threshold``."""
    return sum(1 for d in divisors if is_exact(d) and d < threshold)


def _int_divisors(f, rows, N):
    """The certified divisors, at the one precision N, of the matrix over
    ``f`` whose entries are given as (coeffs, shift): the rank kernel.

    Each entry x = p^-shift * sum coeffs[i] w^i becomes the coefficient
    list of p^S * x mod (modulus, p^(N+S)), S the largest shift; an entry
    known to more than N digits is cut to N, and dropping digits never
    certifies more.  The pivot is the first entry of least valuation v in
    row-major order, with ``smith_form``'s row and column swaps, and a
    pivot p^v * u clears each entry e below it by the factor (e / p^v) *
    u^-1 mod p^(N+S-v), every update reduced mod p^(N+S).  That is exact,
    so no precision is tracked: e has valuation >= v, so the factor is
    integral and its error is a multiple of p^(N+S-v) in
    Z[w]/(modulus), and every entry of the pivot row has valuation >= v, so
    the error times any of them vanishes mod p^(N+S).  Each entry thus
    stays at precision N, as in ``smith_form`` at one flat precision, and
    no entry is ever too coarse to clear.  Clearing the pivot row only
    zeroes its entries (the other rows are zero in the pivot column), so it
    is skipped.  Returns v - S per pivot, each below N, then AtLeast(N).
    """
    p = f.p
    S = max((s for row in rows for _, s in row), default=0)
    mod = p ** (N + S)
    work = [[[x * p ** (S - s) % mod for x in coeffs] for coeffs, s in row] for row in rows]
    r = len(work)
    c = len(work[0]) if r else 0
    divisors = []
    for k in range(min(r, c)):
        # the first entry of least valuation, in row-major order
        v = None
        for i in range(k, r):
            for j, x in enumerate(work[i][k:], k):
                w = _valuation(p, x)
                if w is not None and (v is None or w < v):
                    v, bi, bj = w, i, j
                    if not w:
                        break
            if v == 0:
                break
        if v is None:
            break
        if bi != k:
            work[k], work[bi] = work[bi], work[k]
        if bj != k:
            for row in work:
                row[k], row[bj] = row[bj], row[k]
        wk = work[k]
        pv = p ** v
        rel = N + S - v
        prel = mod // pv
        uinv = None  # inverted once, and only if an entry needs clearing
        for wi in work[k + 1:]:
            e = wi[k]
            if not any(e):
                continue
            if uinv is None:
                uinv = _unit_inverse(f, [x // pv for x in wk[k]], rel)
            # column k is not read again; the factor is known mod p^rel only
            fct = [x % prel for x in _mul_coeffs(f, [x // pv for x in e], uinv)]
            for j in range(k + 1, c):
                wi[j] = [(a - b) % mod for a, b in zip(wi[j], _mul_coeffs(f, fct, wk[j]))]
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
# characteristic polynomial (division-free Samuelson-Berkowitz)


def in_base_field(M: PadicMatrix):
    """True when every entry of M lies in Q_p: no w-part, any shift."""
    return M.field.m == 1 or all(not any(e.coeffs[1:]) for r in M.rows for e in r)


def charpoly(M: PadicMatrix):
    """Coefficients [a_0, ..., a_n] of det(tI - M), low degree first.

    When every entry lies in Z_p (shift 0, no w-part) the loop runs on the
    integers c_0 mod p^N, N = M.precision.  That is the loop's answer on
    elements exactly: its zero accumulators cap every coefficient at N,
    products of integral elements never fall below N, and Z_p -> Z_{p^m}
    is a ring map.
    """
    n = M.nrows
    if n != M.ncols:
        raise ValueError("not square")
    f = M.field
    N = M.precision
    if in_base_field(M) and all(e.shift == 0 for r in M.rows for e in r):
        mod = f.p ** N
        pad = (0,) * (f.m - 1)
        A = [[e.coeffs[0] % mod for e in r] for r in M.rows]
        coeffs = _berkowitz(A, 0, 1, lambda v: [x % mod for x in v])
        return [PadicElement(f, (c,) + pad, 0, N) for c in coeffs]
    return _berkowitz(M.rows, f.zero(N), f.one(N), lambda v: v)


def _berkowitz(A, zero, one, red):
    """The division-free Samuelson-Berkowitz loop over any ring, low degree first.

    Step i multiplies the coefficient vector by the Toeplitz matrix of
    T = [1, -a, -R C, -R M C, ..., -R M^(i-2) C], where a = A[i-1][i-1], R
    and C are the row and column beside it and M is the block above them.
    The Krylov vectors M^k C come from one matrix-vector product per k, over
    the nonzero entries (t, j, x) of M with R joined as its last row.  Every
    sum folds from ``zero`` in increasing index; ``red`` reduces a vector,
    once per Krylov vector, T and coefficient vector.
    """
    vec = [one]
    for i in range(1, len(A) + 1):
        # ``if x`` drops zero ints only: a PadicElement has no truth value, so
        # a zero element is kept and caps its sum, as the dense fold does
        rows = [(t, j, x) for t, row in enumerate(A[:i]) for j, x in enumerate(row[: i - 1]) if x]
        T = [one, zero - A[i - 1][i - 1]]
        cur = [A[t][i - 1] for t in range(i - 1)]
        for _ in range(i - 1):
            nxt = [zero] * i
            for t, j, x in rows:
                nxt[t] += x * cur[j]
            T.append(zero - nxt.pop())
            cur = red(nxt)
        T = red(T)
        new = []
        for s in range(i + 1):
            acc = zero
            for t in range(max(0, s - i + 1), s + 1):
                acc += T[t] * vec[s - t]
            new.append(acc)
        vec = red(new)
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
    """An int written as a JSON number or a decimal string."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValueError(f"{what} must be an integer (got {x!r})")
    return int(x)


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
