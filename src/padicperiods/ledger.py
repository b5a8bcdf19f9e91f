"""Exact-rational valuation bookkeeping: CM period valuations, determinant
laws, height normalization and transfer, beta-integrality.

All quantities are p-adic valuations normalized by v(p) = 1, held as exact
``fractions.Fraction`` values; nothing here touches the truncated-precision
field arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .padic import _is_prime


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


@dataclass
class HeightLedger:
    """Heights of the two quasi-isogenies and the connecting isogeny."""

    n: int
    ht_rho_H: int
    ht_rho_G: int
    ht_Delta: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1 (got n={self.n})")


@dataclass
class CMDatum:
    """One-dimensional CM datum of height h with critical index i_0."""

    p: int
    h: int
    i_0: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if not (0 <= self.i_0 < self.h):
            raise ValueError("critical index out of range")

    def y_valuations(self):
        return cm_period_valuations(self.p, self.h, self.i_0)


def cm_period_valuations(p, h, i_0):
    """Valuations of the h flat periods of the height-h CM group.

    v(y_i) = p^{h+i-i_0}/(p^h - 1) for i < i_0 and p^{i-i_0}/(p^h - 1)
    for i >= i_0.
    """
    if not (0 <= i_0 < h):
        raise ValueError("critical index out of range")
    q = p ** h - 1
    out = []
    for i in range(h):
        e = i - i_0 if i >= i_0 else h + i - i_0
        out.append(Fraction(p ** e, q))
    return out


def check_sum_identity(datum: CMDatum) -> bool:
    """Sum of the period valuations equals v(t) = 1/(p-1), on integers: the
    (p^h - 1) * v(y_i) are p^0, ..., p^(h-1), once each, and p - 1 times
    their sum is p^h - 1."""
    p, q = datum.p, datum.p ** datum.h - 1
    scaled = sorted(q * y for y in datum.y_valuations())
    return scaled == [p ** i for i in range(datum.h)] and (p - 1) * sum(scaled) == q


def functional_equation_valuations(datum: CMDatum) -> bool:
    """Frobenius multiplies flat-coordinate valuations by p, inserting one
    factor of p per cycle: p*v(y_i) = v(y_{i+1 mod h}) + [i+1 = i_0 mod h].
    """
    ys = datum.y_valuations()
    p, h, i0 = datum.p, datum.h, datum.i_0
    for i in range(h):
        bump = 1 if (i + 1) % h == i0 % h else 0
        if p * ys[i] != ys[(i + 1) % h] + bump:
            return False
    return True


def det_valuation_LT(ledger: HeightLedger) -> Fraction:
    """v_p of the period determinant scalar on the rank-n side:
    -ht_rho_H - n(n-1)/2."""
    n = ledger.n
    return -Fraction(ledger.ht_rho_H) - Fraction(n * (n - 1), 2)


def det_valuation_Dr(ledger: HeightLedger) -> Fraction:
    """v_p of the determinant scalar on the rank-n^2 side:
    -ht_rho_G/n - ht_Delta."""
    return -Fraction(ledger.ht_rho_G, ledger.n) - ledger.ht_Delta


@dataclass
class TransferVerdict:
    consistent: bool
    lt_value: Fraction
    dr_value: Fraction
    normalized_height: Fraction | None

    def to_json(self):
        return {
            "consistent": self.consistent,
            "det_valuation_LT": _frac_str(self.lt_value),
            "det_valuation_Dr": _frac_str(self.dr_value),
            "normalized_height": (
                _frac_str(self.normalized_height)
                if self.normalized_height is not None
                else None
            ),
        }


def height_transfer(ledger: HeightLedger) -> TransferVerdict:
    """With ht_Delta = n(n-1)/2, the two determinant laws agree exactly when
    the normalized heights match: ht_rho_H = ht_rho_G / n."""
    n = ledger.n
    if ledger.ht_Delta != n * (n - 1) // 2:
        raise ValueError(f"transfer requires ht_Delta = n(n-1)/2 = {n * (n - 1) // 2}")
    lt = det_valuation_LT(ledger)
    dr = det_valuation_Dr(ledger)
    consistent = lt == dr
    assert consistent == (Fraction(ledger.ht_rho_H) == Fraction(ledger.ht_rho_G, n))
    height = Fraction(ledger.ht_rho_H) if consistent else None
    return TransferVerdict(consistent, lt, dr, height)


def lt_character_valuation(i, p, h) -> Fraction:
    """Valuation p^i/(p^h - 1) of the canonical invariant attached to the
    i-th Frobenius twist of the height-h character."""
    if not (0 <= i < h):
        raise ValueError("index out of range")
    return Fraction(p ** i, p ** h - 1)


def beta_integrality(datum: CMDatum) -> Fraction:
    """v(beta) = sum v(y_i) - 1/(p-1); the determinant-of-periods unit law
    says this is exactly 0."""
    return sum(datum.y_valuations(), Fraction(0)) - Fraction(1, datum.p - 1)


def check_report(check, inputs, expected, computed):
    """Uniform JSON report row for one exact check."""

    def enc(x):
        if isinstance(x, Fraction):
            return _frac_str(x)
        if isinstance(x, dict):
            return {k: enc(v) for k, v in x.items()}
        return x

    return {
        "check": check,
        "inputs": enc(inputs),
        "expected": enc(expected),
        "computed": enc(computed),
        "pass": enc(expected) == enc(computed),
    }
