"""The formal group against an oracle that uses only Fractions: the law, the
exponential and the [p]-series solved degree by degree from the functional
equations f(F(X, Y)) = f(X) + f(Y), f(exp(T)) = T and f([p](T)) = p f(T),
with f(T) = sum_n T^(p^(nh)) / p^n written out here.  Also: the integer
kernels build Fractions only for their outputs, and the roots-of-unity
action rejects a law coefficient whose power of zeta is not 1."""

from fractions import Fraction

import pytest

from padicperiods.formal import (
    BivariateSeriesTrunc,
    FormalGroupLaw,
    group_law,
    height_certificate,
    p_series,
    zeta_action,
)
from padicperiods.padic import make_field_cached, teichmueller

CASES = [
    (p, h, D)
    for p in (2, 3, 5)
    for h in (1, 2)
    for D in (p ** h + p, 2 * p ** h + p)
]


def _log(p, h, D):
    f = [Fraction(0)] * (D + 1)
    n = 0
    while p ** (n * h) <= D:
        f[p ** (n * h)] = Fraction(1, p ** n)
        n += 1
    return f


def _solve_log(R, p, h, D):
    """G with f(G) = R + O(T^(D+1)), for R(0) = 0 and R_1 != 0.

    The degree-d part of f(G) is G_d + sum_{n>=1} [G^m]_d / p^n, m = p^(nh),
    and [G^m]_d = [H^m]_(d-m) for H = G/T needs only G_1..G_(d-m+1).  The
    coefficients of H^m follow from Miller's recurrence
    k h_0 P_k = sum_{j=1..k} ((m+1) j - k) h_j P_(k-j)."""
    q = p ** h
    ms = [(q ** n, Fraction(1, p ** n)) for n in range(1, D) if q ** n <= D]
    G = [Fraction(0), R[1]]
    P = {m: [R[1] ** m] for m, _ in ms}
    for d in range(2, D + 1):
        c = R[d]
        for m, w in ms:
            if m > d:
                break
            Pm = P[m]
            while len(Pm) <= d - m:
                k = len(Pm)
                s = sum(((m + 1) * j - k) * G[j + 1] * Pm[k - j] for j in range(1, k + 1))
                Pm.append(s / (k * G[1]))
            c -= w * Pm[d - m]
        G.append(c)
    return G


def _interpolate(values):
    """Coefficients a_0..a_d of the polynomial with a(t) = values[t],
    t = 0..d, by Newton's divided differences."""
    d = len(values) - 1
    dd = list(values)
    for k in range(1, d + 1):
        for t in range(d, k - 1, -1):
            dd[t] = (dd[t] - dd[t - 1]) / k
    a = [Fraction(0)] * (d + 1)
    for k in range(d, -1, -1):  # Horner in the basis (t - 0)...(t - k + 1)
        a = [dd[k] + (-k * a[0] if k else 0)] + [
            a[i - 1] - k * a[i] for i in range(1, d + 1)
        ]
    return a


def _law(p, h, D):
    """{(i, j): c_ij != 0}: on the line Y = tX the law is G_t = F(X, tX), the
    solution of f(G_t) = f(X) + f(tX), whose X^d coefficient
    sum_j c_(d-j, j) t^j is interpolated from t = 0..d."""
    f = _log(p, h, D)
    lines = [
        _solve_log([c * (1 + t ** k) for k, c in enumerate(f)], p, h, D)
        for t in range(D + 1)
    ]
    law = {}
    for d in range(1, D + 1):
        for j, c in enumerate(_interpolate([G[d] for G in lines[: d + 1]])):
            if c:
                law[(d - j, j)] = c
    return law


def _compose(a, b, D):
    """a(b) truncated at degree D, for b(0) = 0."""
    terms = [(i, c) for i, c in enumerate(b) if c]
    out = [Fraction(0)] * (D + 1)
    power = [Fraction(1)] + [Fraction(0)] * D
    for k in range(D + 1):
        out = [x + a[k] * y for x, y in zip(out, power)]
        power = [sum(power[n - i] * c for i, c in terms if i <= n) for n in range(D + 1)]
    return out


@pytest.mark.parametrize("p, h, D", CASES, ids=lambda x: str(x))
def test_law_exp_and_p_series_solve_the_functional_equations(p, h, D):
    fgl = group_law(p, h, D)
    f = _log(p, h, D)
    T = [Fraction(0), Fraction(1)] + [Fraction(0)] * (D - 1)
    assert fgl.log.coeffs == f
    assert fgl.law.coeffs == _law(p, h, D)
    exp = _solve_log(T, p, h, D)
    assert fgl.exp.coeffs == exp
    assert _compose(fgl.exp.coeffs, f, D) == T
    assert p_series(fgl).coeffs == _solve_log([p * c for c in f], p, h, D)


def _count_fractions(monkeypatch):
    """A list that grows by one for each Fraction built from now on."""
    made = []
    new = Fraction.__new__

    def spy_new(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", spy_new)
    if "_from_coprime_ints" in vars(Fraction):  # arithmetic results skip __new__
        coprime = vars(Fraction)["_from_coprime_ints"].__func__

        def spy_coprime(cls, n, d):
            made.append(cls)
            return coprime(cls, n, d)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(spy_coprime))
    return made


@pytest.mark.parametrize("p, h, D", [(2, 2, 8), (3, 2, 12), (2, 4, 20)])
def test_group_law_builds_fractions_only_for_its_outputs(monkeypatch, p, h, D):
    """The arithmetic runs on integer numerators: Fractions are made for the
    returned series only, well under 16 per degree."""
    made = _count_fractions(monkeypatch)
    fgl = group_law(p, h, D)
    height, _ = height_certificate(fgl)
    assert height == p ** h
    assert 0 < len(made) <= 16 * (D + 1)


def test_zeta_action_rejects_a_coefficient_off_the_exponents():
    """zeta of order 3 fixes the degree-4 coefficients of the (2, 2) law but
    not an added X Y term: zeta^1 != 1."""
    fgl = group_law(2, 2, 6)
    zeta = teichmueller(make_field_cached(2, 2, 16), [0, 1])
    assert zeta_action(fgl, zeta).coeffs[1] is zeta
    law = BivariateSeriesTrunc({**fgl.law.coeffs, (1, 1): Fraction(1)}, 6)
    with pytest.raises(ValueError, match=r"X\^1Y\^1: zeta\^1 != 1"):
        zeta_action(FormalGroupLaw(2, 2, 6, law, fgl.log, fgl.exp), zeta)
