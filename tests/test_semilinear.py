"""Isocrystals: linearization, Newton slopes, fixed points, admissibility."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from padicperiods import semilinear
from padicperiods.padic import (
    PadicMatrix,
    PrecisionError,
    charpoly,
    in_base_field,
    is_exact,
    make_field_cached,
)
from padicperiods.semilinear import (
    FilteredIsocrystal,
    Isocrystal,
    linearize,
    newton_slopes,
    phi_fixed_points,
    restrict_frobenius,
    slopes_to_json,
    weak_admissibility_sample,
)
from padicperiods.models import build_DG, build_DH, phi_matrix


class TestLinearize:
    def test_prime_field_is_identity_on_matrix(self, Q2):
        A = PadicMatrix.from_ints(Q2, [[1, 2], [3, 4]])
        assert linearize(Isocrystal(Q2, 2, A)).approx_equal(A)

    def test_cyclic_squares_to_p(self, Q2):
        phi = phi_matrix(2, precision=16)
        B = linearize(Isocrystal(Q2, 2, phi))
        # over Q_p linearize is trivial; phi^2 = p*I is the slope content
        sq = phi * phi
        pI = PadicMatrix.from_ints(Q2, [[2, 0], [0, 2]])
        assert sq.approx_equal(pI)
        assert B.approx_equal(phi)

    def test_norm_of_root_of_unity(self, Q4):
        w = Q4.generator()
        A = PadicMatrix(Q4, [[w, Q4.zero()], [Q4.zero(), Q4.one()]])
        B = linearize(Isocrystal(Q4, 2, A))
        # w * sigma(w) = w^3 = 1
        assert B.approx_equal(PadicMatrix.identity(Q4, 2))


class TestSlopes:
    def test_identity_all_zero(self, Q4):
        iso = Isocrystal(Q4, 3, PadicMatrix.identity(Q4, 3))
        assert newton_slopes(iso) == [Fraction(0)] * 3

    def test_cyclic_half(self, Q2):
        iso = Isocrystal(Q2, 2, phi_matrix(2, precision=16))
        assert newton_slopes(iso) == [Fraction(1, 2)] * 2

    def test_mixed_slopes(self, Q2):
        A = PadicMatrix.from_ints(Q2, [[1, 0], [0, 4]])
        assert newton_slopes(Isocrystal(Q2, 2, A)) == [Fraction(0), Fraction(2)]

    def test_sum_equals_det_valuation(self, Q4):
        rng = random.Random(2)
        for _ in range(10):
            A = PadicMatrix.from_ints(
                Q4, [[rng.randrange(2 ** 12) for _ in range(3)] for _ in range(3)]
            )
            try:
                s = newton_slopes(Isocrystal(Q4, 3, A))
            except Exception:
                continue
            B = linearize(Isocrystal(Q4, 3, A))
            dv = B.det_valuation()
            assert sum(s) * Q4.m == dv

    def test_base_change_invariance(self, Q4):
        rng = random.Random(3)
        A = PadicMatrix.from_ints(Q4, [[2, 1], [4, 6]])
        base = newton_slopes(Isocrystal(Q4, 2, A))
        for _ in range(10):
            a, b = rng.randrange(1, 2 ** 8, 2), rng.randrange(2 ** 8)
            c = rng.randrange(1, 2 ** 8, 2)
            G = PadicMatrix.from_ints(Q4, [[a, b], [0, c]])
            A2 = G * A * G.map_frobenius(1).inverse()
            assert newton_slopes(Isocrystal(Q4, 2, A2)) == base

    def test_w_part_takes_the_linearization(self, Q4):
        # A's eigenvalues have valuations 0 and 1, but phi^2 = A*sigma(A)
        # has both of valuation 1: sigma does not fix A
        w = Q4.generator()
        A = PadicMatrix(Q4, [[Q4.one(), w], [w, Q4.one() + w]])
        assert newton_slopes(Isocrystal(Q4, 2, A)) == [Fraction(1, 2)] * 2

    def test_json_form(self):
        assert slopes_to_json([Fraction(1, 2), Fraction(3)]) == ["1/2", "3/1"]


class TestFixedPoints:
    def test_identity_rank_one(self, Q2):
        iso = Isocrystal(Q2, 1, PadicMatrix.identity(Q2, 1))
        fixed = phi_fixed_points(iso, twist=0)
        assert len(fixed) == 1

    def test_unit_root_dimension(self):
        for n in (2, 3):
            mod = build_DG(n, precision=12)
            ur = mod.unit_root_operator(mod.field)
            fixed = phi_fixed_points(ur, twist=0)
            assert len(fixed) == n
            # residual check: phi(v) = v at precision
            for v in fixed:
                img = ur.apply(v)
                assert all((a - b).is_zero_at_precision() for a, b in zip(img, v))

    def test_slope_obstruction(self, Q2):
        iso = Isocrystal(Q2, 2, phi_matrix(2, precision=16))
        assert phi_fixed_points(iso, twist=0) == []

    def test_non_integral_twist_empty(self, Q2):
        iso = Isocrystal(Q2, 1, PadicMatrix.identity(Q2, 1))
        assert phi_fixed_points(iso, twist=Fraction(1, 2)) == []


class TestAdmissibility:
    def test_full_object_equality(self):
        # slope sum of p*V^{-1} on the rank-n model is n-1 = dim Fil
        for n in (2, 3):
            mod = build_DH(n, precision=16)
            f = mod.field
            phi_iso = Isocrystal(
                f, n,
                PadicMatrix.from_ints(
                    f, [[e.coeffs[0] for e in row] for row in mod.frobenius_matrix.rows]
                ),
            )
            fil = PadicMatrix.from_ints(
                f, [[1 if i == j else 0 for j in range(n - 1)] for i in range(n)]
            )
            rep = weak_admissibility_sample(FilteredIsocrystal(phi_iso, fil), [])
            assert rep.admissible
            assert rep.full_t_N == Fraction(n - 1)
            assert rep.to_json()["full"]["t_N"] == f"{n - 1}/1"

    def test_rational_line_in_fil_violates(self, Q4):
        # unit-root isocrystal with Fil containing a phi-stable line:
        # t_H = 1 > t_N = 0 on that line
        iso = Isocrystal(Q4, 2, PadicMatrix.identity(Q4, 2))
        fil = PadicMatrix.from_ints(Q4, [[1], [0]])
        line = PadicMatrix.from_ints(Q4, [[1], [0]])
        rep = weak_admissibility_sample(FilteredIsocrystal(iso, fil), [line])
        assert not rep.admissible
        assert rep.sub_reports[0][1] == 1  # t_H
        assert rep.sub_reports[0][2] == 0  # t_N
        js = rep.to_json()
        assert js["sub_objects"][0]["t_N"] == "0/1"
        assert js["full"]["t_N"] == "0/1"

    def test_fil_avoiding_lines_passes_subchecks(self, Q4):
        w = Q4.generator()
        iso = Isocrystal(Q4, 2, PadicMatrix.identity(Q4, 2))
        fil = PadicMatrix(Q4, [[Q4.one()], [w]])
        lines = [
            PadicMatrix.from_ints(Q4, [[1], [0]]),
            PadicMatrix.from_ints(Q4, [[0], [1]]),
            PadicMatrix.from_ints(Q4, [[1], [1]]),
        ]
        rep = weak_admissibility_sample(FilteredIsocrystal(iso, fil), lines)
        assert all(ok for _, _, _, ok in rep.sub_reports)

    def test_unstable_subspace_rejected(self, Q2):
        iso = Isocrystal(Q2, 2, phi_matrix(2, precision=16))
        S = PadicMatrix.from_ints(Q2, [[1], [0]])
        with pytest.raises(ValueError):
            restrict_frobenius(iso, S)


@st.composite
def _entries(draw, f):
    """An entry at precision 2, 6 or 10: often zero, sometimes p-divisible,
    maybe with a w-part, with a denominator up to p^3."""
    N = draw(st.sampled_from([2, 6, 10]))
    if draw(st.integers(0, 2)) == 0:
        return f.zero(N)
    v = draw(st.sampled_from([0, 0, 1, 3]))
    coeffs = [draw(st.integers(0, f.p ** N - 1)) * f.p ** v for _ in range(f.m)]
    if draw(st.booleans()):
        coeffs[1:] = [0] * (f.m - 1)
    return f.from_coeffs(coeffs, N, draw(st.integers(0, 3)))


@st.composite
def _operator_and_columns(draw):
    """(A, S) over Q_2, Q_4, Q_8, Q_3, Q_9 or Q_27: A is n x n, S is n x d."""
    f = make_field_cached(draw(st.sampled_from([2, 3])), draw(st.integers(1, 3)), 10)
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    entry = _entries(f)
    A = PadicMatrix(f, [[draw(entry) for _ in range(n)] for _ in range(n)])
    S = PadicMatrix(f, [[draw(entry) for _ in range(d)] for _ in range(n)])
    return A, S


def _dense_phi(A, v):
    """A * sigma(v) by element folds, every product formed."""
    sv = [x.frobenius() for x in v]
    out = []
    for row in A.rows:
        acc = row[0] * sv[0]
        for a, b in zip(row[1:], sv[1:]):
            acc = acc + a * b
        out.append(acc)
    return out


def _fields(vec):
    return [(x.coeffs, x.shift, x.abs_precision) for x in vec]


class TestPhiByMatrixProduct:
    """phi = A * sigma is applied as a matrix product; every image entry is
    the dense element fold's, field by field, and raises where it raises."""

    @settings(max_examples=200, deadline=None)
    @given(_operator_and_columns())
    def test_apply_matches_dense_fold(self, AS):
        A, S = AS
        iso = Isocrystal(A.field, A.nrows, A)
        for v in map(list, zip(*S.rows)):
            try:
                expected = _dense_phi(A, v)
            except PrecisionError:
                with pytest.raises(PrecisionError):
                    iso.apply(v)
                continue
            assert _fields(iso.apply(v)) == _fields(expected)

    @settings(max_examples=200, deadline=None)
    @given(_operator_and_columns())
    def test_restrict_frobenius_images_match_dense_fold(self, AS):
        A, S = AS
        iso = Isocrystal(A.field, A.nrows, A)
        seen = []

        def spy(span, images):  # records the images; the solve is not under test
            seen.append(images)
            return PadicMatrix.identity(span.field, span.ncols)

        with mock.patch.object(semilinear, "solve_columns", spy):
            try:
                expected = [_dense_phi(A, col) for col in zip(*S.rows)]
            except PrecisionError:
                with pytest.raises(PrecisionError):
                    restrict_frobenius(iso, S)
                assert not seen
                return
            restrict_frobenius(iso, S)
        (B,) = seen
        assert [_fields(col) for col in zip(*B.rows)] == [_fields(col) for col in expected]


@st.composite
def _slope_operator(draw, w_part):
    """A over Q_{p^m}, p in {2, 3}, at one precision N <= 8: entries often
    zero, sometimes p-divisible, with a denominator up to p^2.  With
    ``w_part`` (m >= 2) at least one entry has a w-part; without it every
    entry lies in Q_p."""
    p = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(2 if w_part else 1, 4))
    f = make_field_cached(p, m, 16)
    n, N = draw(st.integers(1, 4)), draw(st.integers(2, 8))

    def entry():
        if draw(st.integers(0, 2)) == 0:
            return f.zero(N)
        v = draw(st.sampled_from([0, 0, 1, 2]))
        coeffs = [draw(st.integers(0, p ** N - 1)) * p ** v
                  for _ in range(m if w_part else 1)]
        return f.from_coeffs(coeffs, N, draw(st.integers(0, 2)))

    rows = [[entry() for _ in range(n)] for _ in range(n)]
    if w_part:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = rows[i][j] + f.generator(N)
    A = PadicMatrix(f, rows)
    assume(in_base_field(A) != w_part)  # the added w can cancel a drawn w-part
    return A


def _lift(A, rng, w_part):
    """A + p^N * E at precision 2N, E random with entries in Z_p, or in
    Z_{p^m} with ``w_part``: a lift of A within O(p^N)."""
    f, N = A.field, A.precision

    def lift(x):
        unit = f.p ** (N + x.shift)  # p^N in the coefficients' scale
        return f.from_coeffs(
            [c + unit * (rng.randrange(f.p ** N) if i == 0 or w_part else 0)
             for i, c in enumerate(x.coeffs)], 2 * N, x.shift)

    return PadicMatrix(f, [[lift(x) for x in row] for row in A.rows])


def _polygon_slopes(coeffs):
    """Slopes of the lower hull of the exact points (i, v(c_i)), walked from
    each vertex to the farthest point of least slope; None when the
    constant term is not exact or an AtLeast bound lies below the hull."""
    vals = [c.valuation() for c in coeffs]
    if not is_exact(vals[0]):
        return None
    slopes, i = [], 0
    while i < len(vals) - 1:
        later = [j for j in range(i + 1, len(vals)) if is_exact(vals[j])]
        j = min(later, key=lambda j: (Fraction(vals[j] - vals[i], j - i), -j))
        for k in range(i + 1, j):
            hull = vals[i] + Fraction((vals[j] - vals[i]) * (k - i), j - i)
            if not is_exact(vals[k]) and vals[k].n < hull:
                return None
        slopes += [Fraction(vals[i] - vals[j], j - i)] * (j - i)
        i = j
    return slopes


def _starved(m):
    """[[0, 2^-2, 0], [0, 0, 4], [4, 0, 0]] over Q_{2^m} at precision 3, its
    zeros O(2^3): charpoly(A) is -4 + (0 + O(2)) t + (0 + O(2^3)) t^2 + t^3,
    and the t-coefficient's bound 1 lies below the hull value 4/3 through
    v(det A) = 2.  A lift of the zero beside 2^-2 moves it to valuation 1."""
    f = make_field_cached(2, m, 16)
    z, q = f.zero(3), f.from_int(4, 3)
    return PadicMatrix(f, [[z, f.from_coeffs([1], 3, 2), z], [z, z, q], [q, z, z]])


class TestSlopeRoutes:
    """newton_slopes reads charpoly(A) when A is sigma-stable and the
    charpoly of the sigma^m-linearization otherwise; each route's answer
    holds for the lifts it certifies."""

    @settings(max_examples=150, deadline=None)
    @given(st.booleans().flatmap(lambda w: st.tuples(_slope_operator(w), st.just(w))),
           st.randoms(use_true_random=False))
    # Random(1) lifts the zero beside 2^-2 by an odd multiple of 2^3
    @example((_starved(1), False), random.Random(1))
    @example((_starved(2), False), random.Random(1))
    def test_slopes_hold_for_every_lift(self, Aw, rng):
        A, w_part = Aw
        try:
            slopes = newton_slopes(Isocrystal(A.field, A.nrows, A))
        except PrecisionError:
            return
        lift = _lift(A, rng, w_part)
        assert newton_slopes(Isocrystal(A.field, A.nrows, lift)) == slopes

    @settings(max_examples=100, deadline=None)
    @given(_slope_operator(False))
    def test_sigma_stable_agrees_with_the_linearization(self, A):
        iso = Isocrystal(A.field, A.nrows, A)
        try:
            expected = _polygon_slopes(charpoly(linearize(iso)))
        except PrecisionError:  # a product with no digits: the route does not resolve
            expected = None
        if expected is None:
            return
        m = A.field.m
        assert newton_slopes(iso) == sorted(s / m for s in expected)
