"""Truncated formal group arithmetic for the height-h one-dimensional group
with logarithm f(T) = sum_n T^{p^{nh}} / p^n: the group law, the [p]-series
with its height certificate, and the roots-of-unity action.

Coefficients are exact rationals, truncated at a fixed (total) degree.  The
kernels hold a series as integers over one common denominator, as FLINT's
fmpq_poly does; Fractions are built only for what public functions return.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .ledger import _frac_str

_ZERO = Fraction(0)


def _ints(items):
    """Nonzero (key, rational) pairs as numerators over their least denominator."""
    items = [(k, c) for k, c in items if c]
    den = lcm(*(c.denominator for _, c in items))
    return {k: c.numerator * (den // c.denominator) for k, c in items}, den


def _series(coeffs):
    """Dense univariate coefficients as numerators of X^k, key (k, 0)."""
    return _ints(((k, 0), c) for k, c in enumerate(coeffs))


def _lowest(c, den):
    """c/den in lowest terms, zero numerators dropped."""
    c = {k: v for k, v in c.items() if v}
    g = gcd(den, *c.values())
    return ({k: v // g for k, v in c.items()}, den // g) if g > 1 else (c, den)


def _axpy(acc, dacc, a, da, x, dx):
    """acc/dacc + (a/da) * (x/dx) over the least common denominator."""
    L = lcm(dacc, da * dx)
    s, t = L // dacc, a * (L // (da * dx))
    out = {k: v * s for k, v in acc.items()}
    for k, v in x.items():
        out[k] = out.get(k, 0) + t * v
    return _lowest(out, L)


def _mul(a, da, b, db, D):
    """(a/da)(b/db) truncated at total degree D; X^i Y^j is the key (i, j),
    so a univariate series lives in X alone."""
    out = {}
    for (i1, j1), x in a.items():
        for (i2, j2), y in b.items():
            if i1 + i2 + j1 + j2 <= D:
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + x * y
    return _lowest(out, da * db)


def _compose(g, dg, s, ds, D):
    """g(s) = sum_k g_k s^k truncated at total degree D, for g/dg in X alone
    with degrees <= D."""
    acc, dacc = {(0, 0): g.get((0, 0), 0)}, dg
    power, dpow = {(0, 0): 1}, 1
    for k in range(1, max((i for i, _ in g), default=0) + 1):
        power, dpow = _mul(power, dpow, s, ds, D)
        if (k, 0) in g:
            acc, dacc = _axpy(acc, dacc, g[k, 0], dg, power, dpow)
    return _lowest(acc, dacc)


def _reversion(f, df, D):
    """g/dg with g(f(X)) = X + O(X^(D+1)) for f/df = X + O(X^2): since
    [f^k]_k = 1, g_k = -sum_{j<k} g_j [f^j]_k."""
    powers = [(f, df)]
    for _ in range(2, D):
        powers.append(_mul(*powers[-1], f, df, D))
    E = lcm(*(d for _, d in powers))
    powers = [{k: v * (E // d) for k, v in c.items()} for c, d in powers]
    g, dg = {(1, 0): 1}, 1
    for k in range(2, D + 1):
        s = sum(v * powers[j - 1].get((k, 0), 0) for (j, _), v in g.items())
        if s:  # g_k = -s / (dg E): move g onto that denominator
            g = {j: v * E for j, v in g.items()}
            g[k, 0] = -s
            g, dg = _lowest(g, dg * E)
    return g, dg


def _univariate(c, den, D):
    return PowerSeriesTrunc([Fraction(c[k, 0], den) if (k, 0) in c else _ZERO
                             for k in range(D + 1)], D)


def _bivariate(c, den, D):
    return BivariateSeriesTrunc({k: Fraction(v, den) for k, v in c.items()}, D)


@dataclass
class PowerSeriesTrunc:
    """Univariate series sum c_k T^k, k = 0..D, exact rational coefficients."""

    coeffs: list
    D: int

    def __post_init__(self):
        c = [x if type(x) is Fraction else Fraction(x) for x in self.coeffs[: self.D + 1]]
        c.extend([_ZERO] * (self.D + 1 - len(c)))
        self.coeffs = c

    def __mul__(self, other):
        D = min(self.D, other.D)
        return _univariate(*_mul(*_series(self.coeffs), *_series(other.coeffs), D), D)

    def scale(self, c):
        c = Fraction(c).as_integer_ratio()
        return _univariate(*_axpy({}, 1, *c, *_series(self.coeffs)), self.D)

    def compose(self, inner):
        """self(inner), requiring inner(0) = 0."""
        if inner.coeffs[0] != 0:
            raise ValueError("inner series must have zero constant term")
        D = min(self.D, inner.D)
        g, dg = _series(self.coeffs[: D + 1])
        return _univariate(*_compose(g, dg, *_series(inner.coeffs[: D + 1]), D), D)

    def reversion(self):
        """Compositional inverse g with g(self(T)) = T; needs c_0=0, c_1=1."""
        if self.coeffs[0] != 0 or self.coeffs[1] != 1:
            raise ValueError("reversion needs a series T + O(T^2)")
        return _univariate(*_reversion(*_series(self.coeffs), self.D), self.D)

    def lowest_degree_mod_p(self, p):
        """Smallest k with v_p(c_k) <= 0 and c_k a p-unit numerator, i.e. the
        lowest degree whose coefficient is nonzero mod p; None if all vanish."""
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if c.denominator % p == 0:
                raise ValueError("non-integral coefficient")
            if c.numerator % p != 0:
                return k
        return None

    def to_json(self):
        return [[k, _frac_str(c)] for k, c in enumerate(self.coeffs) if c != 0]


@dataclass
class BivariateSeriesTrunc:
    """sum c_{ij} X^i Y^j over i+j <= D; sparse {(i, j): c_ij} storage."""

    coeffs: dict
    D: int

    def get(self, i, j):
        return self.coeffs.get((i, j), _ZERO)

    def __add__(self, other):
        D = min(self.D, other.D)
        c, den = _axpy(*_ints(self.coeffs.items()), 1, 1, *_ints(other.coeffs.items()))
        return _bivariate({k: v for k, v in c.items() if k[0] + k[1] <= D}, den, D)

    def scale(self, c):
        c = Fraction(c).as_integer_ratio()
        return _bivariate(*_axpy({}, 1, *c, *_ints(self.coeffs.items())), self.D)

    def swap(self):
        return BivariateSeriesTrunc({(j, i): v for (i, j), v in self.coeffs.items()}, self.D)

    def to_json(self):
        return [
            [[i, j], _frac_str(c)]
            for (i, j), c in sorted(self.coeffs.items())
            if c != 0
        ]


@dataclass
class FormalGroupLaw:
    p: int
    h: int
    D: int
    law: BivariateSeriesTrunc
    log: PowerSeriesTrunc
    exp: PowerSeriesTrunc  # reversion of log


class IntegralityError(ArithmeticError):
    """A group-law coefficient fell outside Z_p — signals a bug upstream."""


def lubin_tate_log(p, h, D) -> PowerSeriesTrunc:
    """f(T) = sum_{n >= 0} T^{p^{nh}} / p^n, truncated at degree D."""
    if D < 1:
        raise ValueError("D must be >= 1")
    if p < 2 or h < 1:
        raise ValueError("need p >= 2 and h >= 1")
    coeffs = [_ZERO] * (D + 1)
    n = 0
    while p ** (n * h) <= D:
        coeffs[p ** (n * h)] = Fraction(1, p ** n)
        n += 1
    return PowerSeriesTrunc(coeffs, D)


def _compose_univariate_bivariate(g: PowerSeriesTrunc, S: BivariateSeriesTrunc):
    D = S.D
    c, dc = _series(g.coeffs[: min(g.D, D) + 1])
    return _bivariate(*_compose(c, dc, *_ints(S.coeffs.items()), D), D)


def group_law(p, h, D) -> FormalGroupLaw:
    """F(X, Y) = f^{-1}(f(X) + f(Y)) truncated at total degree D.

    Raises IntegralityError if any coefficient is not p-integral (the law
    is defined over Z_p, so a failure means a computation bug).
    """
    if D < 2:
        raise ValueError("D must be >= 2")
    log = lubin_tate_log(p, h, D)
    f, df = _series(log.coeffs)
    g, dg = _reversion(f, df, D)
    S = {**f, **{(0, i): v for (i, _), v in f.items()}}  # f(X) + f(Y)
    F, dF = _compose(g, dg, S, df, D)
    for (i, j), v in F.items():
        if dF // gcd(v, dF) % p == 0:  # the reduced denominator of v/dF
            c = Fraction(v, dF)
            raise IntegralityError(f"coefficient of X^{i}Y^{j} is {c}, not p-integral")
    return FormalGroupLaw(p, h, D, _bivariate(F, dF, D), log, _univariate(g, dg, D))


def p_series(fgl: FormalGroupLaw) -> PowerSeriesTrunc:
    """[p](T) = f^{-1}(p f(T)); requires D >= p^h to certify the height."""
    p, h = fgl.p, fgl.h
    if fgl.D < p ** h:
        raise ValueError(f"truncation degree {fgl.D} < p^h = {p ** h}")
    return fgl.exp.compose(fgl.log.scale(p))


def height_certificate(fgl: FormalGroupLaw):
    """Lowest degree of [p](T) mod p; equals p^h for this group."""
    ps = p_series(fgl)
    k = ps.lowest_degree_mod_p(fgl.p)
    if k is None:
        raise ValueError("[p] vanished mod p to truncation degree")
    return k, ps


def zeta_action(fgl: FormalGroupLaw, zeta) -> PowerSeriesTrunc:
    """The endomorphism [zeta](T) = zeta*T for zeta in mu_{p^h - 1}.

    ``zeta`` is a truncated-precision field element; its (p^h - 1)-th power
    must be 1 at precision.  The endomorphism law F(zX, zY) = z F(X, Y)
    holds coefficientwise iff z^{i+j-1} = 1 whenever c_{ij} != 0; both are
    verified at the element's working precision.
    """
    p, h = fgl.p, fgl.h
    one = zeta.field.one(zeta.abs_precision)
    if not (zeta ** (p ** h - 1)).approx_equal(one):
        raise ValueError("zeta is not a (p^h - 1)-th root of unity at precision")
    powers = [one]  # zeta^0 .. zeta^(D-1), a unit: each keeps its precision
    for _ in range(1, fgl.D):
        powers.append(powers[-1] * zeta)
    ok = {0: True}  # zeta^e = 1 at precision, checked once per exponent e
    for (i, j), c in fgl.law.coeffs.items():
        e = i + j - 1
        if c != 0 and not (ok.get(e) or ok.setdefault(e, powers[e].approx_equal(one))):
            raise ValueError(
                f"endomorphism law fails at X^{i}Y^{j}: "
                f"zeta^{e} != 1 but the coefficient is nonzero"
            )
    series = PowerSeriesTrunc([0, 1], fgl.D)
    series.coeffs[1] = zeta  # linear series with a field-element slope
    return series
