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
from typing import NamedTuple, Union


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
    for ell in {q for q in range(2, m + 1) if m % q == 0 and _is_prime(q)}:
        xd = _poly_powmod(x, p ** (m // ell), f, p)
        g = _poly_gcd_fp(
            [(xi - yi) % p for xi, yi in itertools.zip_longest(xd, x, fillvalue=0)], f, p
        )
        if len(g) - 1 != 0:
            return False
    return True


def _is_prime(n):
    if n < 2:
        return False
    for d in range(2, int(n ** 0.5) + 1):
        if n % d == 0:
            return False
    return True


def _poly_inverse(a, f, p, M):
    """Inverse of a modulo (f, p^M); a must be a unit (nonzero residue)."""
    # invert mod p by extended Euclid over F_p, then Hensel lift
    r0, r1 = [x % p for x in f], [x % p for x in a]
    s0, s1 = [], [1]
    _poly_trim(r0), _poly_trim(r1)
    while r1:
        inv = pow(r1[-1], -1, p)
        r1m = [(x * inv) % p for x in r1]
        q = _poly_quo_fp(r0, r1m, p)
        q = [(x * inv) % p for x in q]
        r0, r1 = r1, _poly_trim(
            [
                (x - y) % p
                for x, y in itertools.zip_longest(r0, _poly_mul(q, r1), fillvalue=0)
            ]
        )
        s0, s1 = s1, _poly_trim(
            [
                (x - y) % p
                for x, y in itertools.zip_longest(s0, _poly_mul(q, s1), fillvalue=0)
            ]
        )
    lead_inv = pow(r0[-1], -1, p) if r0 else None
    if lead_inv is None:
        raise ZeroDivisionError("not a unit")
    z = [(x * lead_inv) % p for x in s0]
    prec = 1
    while prec < M:
        prec = min(2 * prec, M)
        mod = p ** prec
        az = _poly_mulmod(a, z, f, mod)
        two_minus = [(-x) % mod for x in az]
        if two_minus:
            two_minus[0] = (two_minus[0] + 2) % mod
        else:
            two_minus = [2 % mod]
        z = _poly_mulmod(z, two_minus, f, mod)
    return z


def _poly_quo_fp(a, b, p):
    # b monic over F_p
    a = [x % p for x in a]
    q = [0] * max(len(a) - len(b) + 1, 0)
    db = len(b) - 1
    while len(_poly_trim(a)) - 1 >= db:
        c = a[-1] % p
        k = len(a) - 1 - db
        q[k] = c
        for i in range(db + 1):
            a[k + i] = (a[k + i] - c * b[i]) % p
        a.pop()
    return _poly_trim(q)


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


def _residues(p, m):
    """Coefficient lists [c_0, ..., c_{m-1}] over F_p, in increasing order of
    the code c_0 + c_1 p + ... + c_{m-1} p^(m-1)."""
    for c in itertools.product(range(p), repeat=m):
        yield list(reversed(c))


def _find_modulus(p, m):
    if m == 1:
        return [0, 1]  # generator is 1; modulus x - 0 placeholder unused
    for c in _residues(p, m):
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


def _scaled(x, s):
    """x's coefficients over the denominator p^s (s >= x.shift)."""
    if s == x.shift:
        return x.coeffs
    k = x.field.p ** (s - x.shift)
    return [c * k for c in x.coeffs]


class PadicElement:
    """Element of Q_{p^m} at absolute precision N.

    The value is p^(-shift) * (c_0 + c_1*w + ... + c_{m-1}*w^{m-1}) with the
    c_i stored modulo p^(N+shift).  Since the basis 1, w, ..., w^{m-1} is an
    integral basis of the unramified extension, the valuation is the minimum
    coefficient valuation minus the shift.
    """

    __slots__ = ("field", "coeffs", "shift", "abs_precision")

    def __init__(self, field, coeffs, shift, abs_precision):
        p = field.p
        # normalize: pull p-powers out of the denominator when possible
        coeffs = list(coeffs)
        M = p ** (abs_precision + shift)
        coeffs = [c % M for c in coeffs]
        while shift > 0 and all(c % p == 0 for c in coeffs):
            coeffs = [c // p for c in coeffs]
            shift -= 1
        self.field = field
        self.coeffs = tuple(coeffs)
        self.shift = shift
        self.abs_precision = abs_precision

    # -- queries ----------------------------------------------------------

    def valuation(self) -> Valuation:
        """Exact p-adic valuation, or AtLeast(N) when indistinguishable from 0."""
        p = self.field.p
        best = None
        for c in self.coeffs:
            if c:
                v = 0
                while c % p == 0:
                    c //= p
                    v += 1
                best = v if best is None else min(best, v)
        if best is None:
            return AtLeast(self.abs_precision)
        return best - self.shift

    def is_zero_at_precision(self):
        return not any(self.coeffs)

    def is_integral(self):
        v = self.valuation()
        return v >= 0 if is_exact(v) else True

    # -- arithmetic -------------------------------------------------------

    def _align(self, other):
        if self.field is not other.field and self.field != other.field:
            raise ValueError("field mismatch")
        s = max(self.shift, other.shift)
        N = min(self.abs_precision, other.abs_precision)
        return _scaled(self, s), _scaled(other, s), s, N

    def __add__(self, other):
        other = self._coerce(other)
        a, b, s, N = self._align(other)
        return PadicElement(self.field, [x + y for x, y in zip(a, b)], s, N)

    def __sub__(self, other):
        other = self._coerce(other)
        a, b, s, N = self._align(other)
        return PadicElement(self.field, [x - y for x, y in zip(a, b)], s, N)

    def __neg__(self):
        return PadicElement(self.field, [-c for c in self.coeffs], self.shift, self.abs_precision)

    def _valuation_or_precision(self):
        """The exact valuation, or N for an element indistinguishable from 0."""
        return self.valuation() if any(self.coeffs) else self.abs_precision

    def __mul__(self, other):
        other = self._coerce(other)
        f = self.field
        N = min(
            self.abs_precision + other._valuation_or_precision(),
            other.abs_precision + self._valuation_or_precision(),
        )
        if N < 1:
            raise PrecisionError("product has no significant digits")
        s = self.shift + other.shift
        # A factor in Q_p scales the other one coefficient by coefficient;
        # PadicElement reduces the scaled coefficients mod p^(N+s).
        if not any(self.coeffs[1:]):
            prod = [x * self.coeffs[0] for x in other.coeffs]
        elif not any(other.coeffs[1:]):
            prod = [x * other.coeffs[0] for x in self.coeffs]
        else:
            mod = f.p ** (N + s)
            prod = _poly_mulmod(list(self.coeffs), list(other.coeffs), list(f.modulus), mod)
            prod = prod + [0] * (f.m - len(prod))
        return PadicElement(f, prod, s, N)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def inverse(self):
        f = self.field
        v = self.valuation()
        if not is_exact(v):
            raise ZeroDivisionError("element indistinguishable from zero")
        p = f.p
        rel = self.abs_precision - v
        N = self.abs_precision - 2 * v
        if N < 1 or rel < 1:
            raise PrecisionError("inverse has no significant digits")
        pw = p ** (v + self.shift)  # p to the coefficient-level valuation
        unit = [c // pw for c in self.coeffs]
        if any(unit[1:]):
            inv = _poly_inverse(unit, list(f.modulus), p, rel)
            inv = inv + [0] * (f.m - len(inv))
        else:  # a unit of Z_p
            inv = [pow(unit[0], -1, p ** rel)] + [0] * (f.m - 1)
        shift_out = max(v, 0)
        scale = p ** (shift_out - v)
        return PadicElement(f, [c * scale for c in inv], shift_out, N)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

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
        """The lift of x -> x^p; a Q_p-linear ring automorphism of order m."""
        f = self.field
        if not any(self.coeffs[1:]):  # x lies in Q_p, which sigma fixes
            return self
        M = f.p ** (self.abs_precision + self.shift)
        g = f.frobenius_poly(self.abs_precision + self.shift)
        img = _poly_eval_poly(list(self.coeffs), g, list(f.modulus), M)
        img = img + [0] * (f.m - len(img))
        return PadicElement(f, img, self.shift, self.abs_precision)

    def frobenius_iterate(self, k):
        if not any(self.coeffs[1:]):  # x lies in Q_p, which sigma fixes
            return self
        x = self
        for _ in range(k % self.field.m):
            x = x.frobenius()
        return x

    def qp_coordinates(self):
        """Coordinates in the Q_p-basis 1, w, ..., w^{m-1}, as prime-field elements."""
        base = make_field_cached(self.field.p, 1, self.abs_precision)
        return [
            PadicElement(base, (c,), self.shift, self.abs_precision)
            for c in self.coeffs
        ]

    # -- comparisons ------------------------------------------------------

    def approx_equal(self, other):
        """True when the difference is indistinguishable from zero."""
        return (self - self._coerce(other)).is_zero_at_precision()

    def __eq__(self, other):
        if isinstance(other, (PadicElement, int)):
            return self.approx_equal(other)
        return NotImplemented

    def __hash__(self):  # pragma: no cover
        raise TypeError("PadicElement is not hashable")

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


def embed_element(x: PadicElement, big: FieldDescriptor, gen_image=None):
    """Map x from its field into ``big`` along a fixed embedding."""
    if gen_image is None:
        gen_image = field_embedding(x.field, big)
    acc = big.zero(min(x.abs_precision, big.precision))
    powg = big.one()
    for c in x.coeffs:
        acc = acc + powg * big.from_int(c)
        powg = powg * gen_image
    if x.shift:
        acc = acc * big.from_int(x.field.p ** x.shift).inverse()
    return acc


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
        return cls(field, [[field.from_int(x, precision) for x in r] for r in rows])

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

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def transpose(self):
        return PadicMatrix(self.field, list(map(list, zip(*self.rows))))

    def __add__(self, other):
        return PadicMatrix(
            self.field,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __sub__(self, other):
        return PadicMatrix(
            self.field,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __mul__(self, other):
        if isinstance(other, PadicMatrix):
            return PadicMatrix(self.field, _product(self.rows, list(zip(*other.rows))))
        return PadicMatrix(self.field, [[e * other for e in r] for r in self.rows])

    def scale(self, x):
        return PadicMatrix(self.field, [[e * x for e in r] for r in self.rows])

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

    def is_zero_at_precision(self):
        return all(e.is_zero_at_precision() for r in self.rows for e in r)

    def __repr__(self):  # pragma: no cover
        return "PadicMatrix([\n  " + ",\n  ".join(str(r) for r in self.rows) + "\n])"

    # -- elimination ------------------------------------------------------

    def smith_form(self):
        return smith_form(self)

    def elementary_divisors(self):
        return _reduce(self, False)[0]

    def inverse(self):
        n = self.nrows
        if n != self.ncols:
            raise ValueError("not square")
        sf = smith_form(self)
        if any(not is_exact(d) for d in sf.divisors):
            raise ZeroDivisionError("matrix not invertible at precision")
        # M = Linv D Rinv  =>  M^-1 = R D^-1 L
        f = self.field
        Dinv = PadicMatrix.zero(f, n, n, self.precision)
        for k in range(n):
            Dinv.rows[k][k] = sf.pivots[k].inverse()
        return sf.R * Dinv * sf.L

    def det_valuation(self) -> Valuation:
        """Valuation of the determinant (sum of elementary divisor valuations)."""
        total = 0
        for d in self.elementary_divisors():
            if not is_exact(d):
                return AtLeast(total + d.n)
            total += d
        return total


_INF = float("inf")


def _split(v):
    """(vals, nonzero, zeros, e) of a vector of elements, each flag read once.

    ``vals[t]`` is the entry, or None when it is zero; ``nonzero`` holds the
    pairs (t, x) of the nonzero entries in increasing t; ``zeros`` maps each
    precision N of a zero entry to the set of its positions.  ``e[t]`` is
    e(x): N for a zero entry, and for a nonzero one None until ``_product``
    needs the valuation and stores it there.
    """
    vals, nonzero, zeros, e = [], [], {}, []
    for t, x in enumerate(v):
        if any(x.coeffs):
            vals.append(x)
            nonzero.append((t, x))
            e.append(None)
        else:
            vals.append(None)
            zeros.setdefault(x.abs_precision, set()).add(t)
            e.append(x.abs_precision)
    return vals, nonzero, zeros, e


def _product(rows, cols):
    """The sums rows[i] . cols[j] for all i, j, multiplying only nonzero pairs.

    The pairs with both factors nonzero are multiplied in increasing t, so
    each sum folds in the order of the dense loop.  A skipped product is
    zero, but it still caps the sum at the precision a*b would have had,
    e(a) + e(b), where e(x) is the valuation of x, or N_x for a zero x
    (capped-absolute precision, as in Caruso-Roe-Vaccon).  Each entry equals
    the dense fold in coefficients, shift and precision.  e(x) is computed at
    most once per entry, and only when a zero partner needs it, so a product
    without zeros does no extra valuations.
    """
    rs = [_split(r) for r in rows]
    cs = [_split(c) for c in cols]
    zero_at = {}  # one zero element per cap; elements are never mutated
    out = []
    for row, (a_vals, a_nonzero, a_zeros, a_e) in zip(rows, rs):
        out_row = []
        for b_vals, b_nonzero, b_zeros, b_e in cs:
            acc, cap = None, _INF
            for t, a in a_nonzero:
                b = b_vals[t]
                if b is not None:
                    prod = a * b
                    acc = prod if acc is None else acc + prod
                else:  # b is zero: N_b + e(a)
                    e = a_e[t]
                    if e is None:
                        e = a_e[t] = a.valuation()
                    if b_e[t] + e < cap:
                        cap = b_e[t] + e
            if a_zeros:
                for t, b in b_nonzero:
                    if a_vals[t] is None:  # a is zero: N_a + e(b)
                        e = b_e[t]
                        if e is None:
                            e = b_e[t] = b.valuation()
                        if a_e[t] + e < cap:
                            cap = a_e[t] + e
                for na, ta in a_zeros.items():  # both are zero: N_a + N_b
                    for nb, tb in b_zeros.items():
                        if na + nb < cap and not ta.isdisjoint(tb):
                            cap = na + nb
            if cap < 1:
                raise PrecisionError("product has no significant digits")
            if acc is None:
                acc = zero_at.get(cap)
                if acc is None:
                    acc = zero_at[cap] = row[0].field.zero(cap)
            elif cap < acc.abs_precision:
                acc = PadicElement(acc.field, acc.coeffs, acc.shift, cap)
            out_row.append(acc)
        out.append(out_row)
    return out


@dataclass
class SmithForm:
    """L*M*R = D diagonal; Linv, Rinv are the inverses of the transforms.

    ``divisors`` are the elementary divisor valuations in non-decreasing
    order; entries indistinguishable from zero produce AtLeast markers.
    ``pivots`` holds the actual diagonal elements for the exact divisors.
    """

    divisors: list
    pivots: list
    L: PadicMatrix
    Linv: PadicMatrix
    R: PadicMatrix
    Rinv: PadicMatrix
    rank: int


def _reduce(M: PadicMatrix, track: bool):
    """Smith-style reduction with minimal-valuation pivoting.

    Returns (divisors, pivots, transforms).  ``transforms`` is the tuple
    (L, Linv, R, Rinv) when ``track`` is true and None otherwise; the pivot
    choice and every update of the working matrix are the same either way,
    so the divisors (AtLeast markers included) do not depend on ``track``.
    """
    f = M.field
    r, c = M.nrows, M.ncols
    N = M.precision
    work = [row[:] for row in M.rows]
    if track:
        L = PadicMatrix.identity(f, r, N)
        Linv = PadicMatrix.identity(f, r, N)
        R = PadicMatrix.identity(f, c, N)
        Rinv = PadicMatrix.identity(f, c, N)
    divisors, pivots = [], []
    k = 0
    while k < min(r, c):
        best = None
        for i in range(k, r):
            for j in range(k, c):
                v = work[i][j].valuation()
                if is_exact(v) and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        v, bi, bj = best
        if bi != k:
            work[k], work[bi] = work[bi], work[k]
            if track:
                L.rows[k], L.rows[bi] = L.rows[bi], L.rows[k]
                for row in Linv.rows:
                    row[k], row[bi] = row[bi], row[k]
        if bj != k:
            for row in work:
                row[k], row[bj] = row[bj], row[k]
            if track:
                for row in R.rows:
                    row[k], row[bj] = row[bj], row[k]
                Rinv.rows[k], Rinv.rows[bj] = Rinv.rows[bj], Rinv.rows[k]
        # The pivot is inverted once, and only if an entry needs clearing:
        # a pivot with no significant inverse digits raises PrecisionError
        # exactly where e / pivot would have.
        pivot, pinv = work[k][k], None
        for i in range(k + 1, r):
            e = work[i][k]
            if e.is_zero_at_precision():
                continue
            if pinv is None:
                pinv = pivot.inverse()
            fct = e * pinv
            for j in range(k, c):
                work[i][j] = work[i][j] - fct * work[k][j]
            if track:
                for j in range(r):
                    L.rows[i][j] = L.rows[i][j] - fct * L.rows[k][j]
                    Linv.rows[j][k] = Linv.rows[j][k] + fct * Linv.rows[j][i]
        for j in range(k + 1, c):
            e = work[k][j]
            if e.is_zero_at_precision():
                continue
            if pinv is None:
                pinv = pivot.inverse()
            fct = e * pinv
            for i in range(r):
                work[i][j] = work[i][j] - work[i][k] * fct
            if track:
                for i in range(c):
                    R.rows[i][j] = R.rows[i][j] - R.rows[i][k] * fct
                for jj in range(c):
                    Rinv.rows[k][jj] = Rinv.rows[k][jj] + fct * Rinv.rows[j][jj]
        divisors.append(v)
        pivots.append(pivot)
        k += 1
    for _ in range(min(r, c) - k):
        divisors.append(AtLeast(N))
    return divisors, pivots, (L, Linv, R, Rinv) if track else None


def smith_form(M: PadicMatrix) -> SmithForm:
    """Smith-style reduction with minimal-valuation pivoting and transforms."""
    divisors, pivots, (L, Linv, R, Rinv) = _reduce(M, True)
    return SmithForm(divisors, pivots, L, Linv, R, Rinv, len(pivots))


def rank_below(divisors, threshold):
    """Number of divisors certified exact and below ``threshold``."""
    return sum(1 for d in divisors if is_exact(d) and d < threshold)


def certified_rank(M: PadicMatrix, threshold=None):
    """(rank, divisor valuations); rank counts divisors certified below threshold.

    Runs the reduction without building the transforms.
    """
    divisors = _reduce(M, False)[0]
    thr = M.precision if threshold is None else threshold
    return rank_below(divisors, thr), divisors


def kernel_basis(M: PadicMatrix):
    """Certified right-kernel basis vectors (columns indistinguishable from 0)."""
    sf = smith_form(M)
    cols = []
    for k in range(M.ncols):
        if k >= len(sf.divisors) or not is_exact(sf.divisors[k]):
            cols.append([sf.R.rows[i][k] for i in range(M.ncols)])
    return cols


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
    basis = [[sf.Linv.rows[i][k] for i in range(M.nrows)] for k in range(sf.rank)]
    return PadicMatrix(M.field, basis).transpose()


# ---------------------------------------------------------------------------
# characteristic polynomial (division-free Samuelson-Berkowitz)


def charpoly(M: PadicMatrix):
    """Coefficients [a_0, ..., a_n] of det(tI - M), low degree first.

    When every entry lies in Z_p (shift 0, no w-part) the loop runs on the
    integers c_0 mod p^N, N = M.precision.  That is the generic loop's
    answer exactly: its zero accumulators cap every coefficient at N,
    products of integral elements never fall below N, and Z_p -> Z_{p^m}
    is a ring map.
    """
    n = M.nrows
    if n != M.ncols:
        raise ValueError("not square")
    f = M.field
    N = M.precision
    if all(e.shift == 0 and not any(e.coeffs[1:]) for r in M.rows for e in r):
        mod = f.p ** N
        pad = (0,) * (f.m - 1)
        coeffs = _berkowitz_int([[e.coeffs[0] % mod for e in r] for r in M.rows], mod)
        return [PadicElement(f, (c,) + pad, 0, N) for c in coeffs]
    return _berkowitz_padic(M)


def _berkowitz(n, zero, one, red, krylov):
    """The division-free Samuelson-Berkowitz loop over any ring, low degree first.

    ``krylov(i)`` is the sequence T = [1, -a, -R C, -R M C, ..., -R M^(i-2) C]
    of the i-th leading block, where a = A[i-1][i-1], R and C are the row and
    column beside it and M is the block above them.  Each step multiplies the
    coefficient vector by the Toeplitz matrix of T, folding every sum from
    ``zero`` in increasing t; ``red`` reduces the new vector once per step.
    """
    vec = [one]
    for i in range(1, n + 1):
        T = krylov(i)
        new = []
        for s in range(i + 1):
            acc = zero
            for t in range(max(0, s - i + 1), s + 1):
                acc += T[t] * vec[s - t]
            new.append(acc)
        vec = red(new)
    return vec[::-1]


def _berkowitz_padic(M: PadicMatrix):
    """charpoly(M) over PadicElements, any entries; matvecs use ``_product``."""
    A = M.rows
    one, zero = M.field.one(M.precision), M.field.zero(M.precision)

    def krylov(i):
        R, Msub = A[i - 1][: i - 1], [row[: i - 1] for row in A[: i - 1]]
        T = [one, zero - A[i - 1][i - 1]]
        cur = [A[t][i - 1] for t in range(i - 1)]
        for _ in range(i - 1):
            sums = _product([R] + Msub, [cur])
            T.append(zero - sums[0][0])
            cur = [zero + s[0] for s in sums[1:]]
        return T

    return _berkowitz(M.nrows, zero, one, lambda v: v, krylov)


def _berkowitz_int(A, mod):
    """charpoly of the integer matrix A, coefficients mod ``mod``."""

    def krylov(i):
        # only the nonzero entries (t, j, x) of the block M and, as row i - 1, of R
        rows = [(t, j, x) for t, row in enumerate(A[:i]) for j, x in enumerate(row[: i - 1]) if x]
        T = [1, (-A[i - 1][i - 1]) % mod]
        cur = [A[t][i - 1] for t in range(i - 1)]
        for _ in range(i - 1):
            nxt = [0] * i
            for t, j, x in rows:
                nxt[t] += x * cur[j]
            T.append(-nxt.pop() % mod)
            cur = [c % mod for c in nxt]
        return T

    return _berkowitz(len(A), 0, 1, lambda v: [x % mod for x in v], krylov)


# ---------------------------------------------------------------------------
# serialization


def element_to_json(x: PadicElement):
    return {
        "p": x.field.p,
        "m": x.field.m,
        "modulus": [int(c) for c in x.field.modulus],
        "precision": x.abs_precision,
        "shift": x.shift,
        "coeffs": [str(c) for c in x.coeffs],
    }


def element_from_json(d):
    field = make_field_cached(d["p"], d["m"], d["precision"])
    return PadicElement(field, [int(c) for c in d["coeffs"]], d.get("shift", 0), d["precision"])


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
