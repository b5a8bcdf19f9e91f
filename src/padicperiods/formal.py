"""Truncated formal group arithmetic for the height-h one-dimensional group
with logarithm f(T) = sum_n T^{p^{nh}} / p^n: the group law, the [p]-series
with its height certificate, and the roots-of-unity action.

Coefficients are exact rationals; series are dense lists truncated at a
fixed degree (total degree for bivariate laws), and every operation
preserves the truncation degree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ledger import _frac_str


@dataclass
class PowerSeriesTrunc:
    """Univariate series sum c_k T^k, k = 0..D, exact rational coefficients."""

    coeffs: list
    D: int

    def __post_init__(self):
        c = [Fraction(x) for x in self.coeffs[: self.D + 1]]
        c.extend([Fraction(0)] * (self.D + 1 - len(c)))
        self.coeffs = c

    def __add__(self, other):
        D = min(self.D, other.D)
        return PowerSeriesTrunc(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], D
        )

    def __mul__(self, other):
        D = min(self.D, other.D)
        out = [Fraction(0)] * (D + 1)
        for i, a in enumerate(self.coeffs):
            if i > D or a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > D:
                    break
                if b:
                    out[i + j] += a * b
        return PowerSeriesTrunc(out, D)

    def scale(self, c):
        return PowerSeriesTrunc([Fraction(c) * a for a in self.coeffs], self.D)

    def compose(self, inner):
        """self(inner), requiring inner(0) = 0."""
        if inner.coeffs[0] != 0:
            raise ValueError("inner series must have zero constant term")
        D = min(self.D, inner.D)
        acc = PowerSeriesTrunc([self.coeffs[0]], D)
        power = PowerSeriesTrunc([0, 1], D)  # inner^0 built up incrementally
        for k in range(1, D + 1):
            power = power * inner if k > 1 else PowerSeriesTrunc(inner.coeffs, D)
            if self.coeffs[k]:
                acc = acc + power.scale(self.coeffs[k])
        return acc

    def reversion(self):
        """Compositional inverse g with g(self(T)) = T; needs c_0=0, c_1=1."""
        if self.coeffs[0] != 0 or self.coeffs[1] != 1:
            raise ValueError("reversion needs a series T + O(T^2)")
        D = self.D
        g = [Fraction(0)] * (D + 1)
        g[1] = Fraction(1)
        # powers[j] = self^j truncated; fill g degree by degree
        powers = [None, PowerSeriesTrunc(self.coeffs, D)]
        for j in range(2, D + 1):
            powers.append(powers[-1] * powers[1])
        for k in range(2, D + 1):
            # coefficient of T^k in sum_j g[j]*self^j must vanish
            c = sum(
                (g[j] * powers[j].coeffs[k] for j in range(1, k) if g[j]),
                Fraction(0),
            )
            g[k] = -c  # self^k contributes exactly 1*g[k] at degree k
        return PowerSeriesTrunc(g, D)

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
    """sum c_{ij} X^i Y^j over i+j <= D; dense triangular storage."""

    coeffs: dict
    D: int

    @classmethod
    def zero(cls, D):
        return cls({}, D)

    def get(self, i, j):
        return self.coeffs.get((i, j), Fraction(0))

    def __add__(self, other):
        D = min(self.D, other.D)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return BivariateSeriesTrunc(
            {k: v for k, v in out.items() if v != 0 and k[0] + k[1] <= D}, D
        )

    def __mul__(self, other):
        D = min(self.D, other.D)
        out = {}
        for (i1, j1), a in self.coeffs.items():
            for (i2, j2), b in other.coeffs.items():
                i, j = i1 + i2, j1 + j2
                if i + j > D:
                    continue
                out[(i, j)] = out.get((i, j), Fraction(0)) + a * b
        return BivariateSeriesTrunc({k: v for k, v in out.items() if v != 0}, D)

    def scale(self, c):
        c = Fraction(c)
        return BivariateSeriesTrunc(
            {k: c * v for k, v in self.coeffs.items() if c * v != 0}, self.D
        )

    def swap(self):
        return BivariateSeriesTrunc(
            {(j, i): v for (i, j), v in self.coeffs.items()}, self.D
        )

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

    def to_json(self):
        return {
            "p": self.p,
            "h": self.h,
            "D": self.D,
            "law": self.law.to_json(),
            "log": self.log.to_json(),
        }


class IntegralityError(ArithmeticError):
    """A group-law coefficient fell outside Z_p — signals a bug upstream."""


def lubin_tate_log(p, h, D) -> PowerSeriesTrunc:
    """f(T) = sum_{n >= 0} T^{p^{nh}} / p^n, truncated at degree D."""
    if D < 1:
        raise ValueError("D must be >= 1")
    if p < 2 or h < 1:
        raise ValueError("need p >= 2 and h >= 1")
    coeffs = [Fraction(0)] * (D + 1)
    n = 0
    while p ** (n * h) <= D:
        coeffs[p ** (n * h)] = Fraction(1, p ** n)
        n += 1
    return PowerSeriesTrunc(coeffs, D)


def _compose_univariate_bivariate(g: PowerSeriesTrunc, S: BivariateSeriesTrunc):
    D = S.D
    acc = BivariateSeriesTrunc.zero(D)
    power = BivariateSeriesTrunc({(0, 0): Fraction(1)}, D)
    for k in range(1, min(g.D, D) + 1):
        power = power * S
        if g.coeffs[k]:
            acc = acc + power.scale(g.coeffs[k])
    if g.coeffs[0]:
        acc = acc + BivariateSeriesTrunc({(0, 0): g.coeffs[0]}, D)
    return acc


def group_law(p, h, D) -> FormalGroupLaw:
    """F(X, Y) = f^{-1}(f(X) + f(Y)) truncated at total degree D.

    Raises IntegralityError if any coefficient is not p-integral (the law
    is defined over Z_p, so a failure means a computation bug).
    """
    if D < 2:
        raise ValueError("D must be >= 2")
    f = lubin_tate_log(p, h, D)
    g = f.reversion()
    fx = BivariateSeriesTrunc(
        {(k, 0): c for k, c in enumerate(f.coeffs) if c != 0}, D
    )
    fy = fx.swap()
    F = _compose_univariate_bivariate(g, fx + fy)
    for (i, j), c in F.coeffs.items():
        if c.denominator % p == 0:
            raise IntegralityError(
                f"coefficient of X^{i}Y^{j} is {c}, not p-integral"
            )
    return FormalGroupLaw(p, h, D, F, f, g)


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
    for (i, j), c in fgl.law.coeffs.items():
        if c == 0 or i + j == 1:
            continue
        if not (zeta ** (i + j - 1)).approx_equal(one):
            raise ValueError(
                f"endomorphism law fails at X^{i}Y^{j}: "
                f"zeta^{i + j - 1} != 1 but the coefficient is nonzero"
            )
    series = PowerSeriesTrunc([0, 1], fgl.D)
    series.coeffs[1] = zeta  # linear series with a field-element slope
    return series
