"""Isocrystals: linearization, Newton slopes, fixed points, admissibility."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from padicperiods import padic, semilinear
from padicperiods.padic import (
    AtLeast,
    PadicMatrix,
    PrecisionError,
    charpoly,
    field_embedding,
    is_exact,
    make_field_cached,
)
from padicperiods.semilinear import (
    FilteredIsocrystal,
    Isocrystal,
    intersection_dim,
    linearize,
    newton_slopes,
    phi_fixed_points,
    restrict_frobenius,
    slopes_to_json,
    weak_admissibility_sample,
)
from padicperiods.models import build_DG, build_DH, phi_matrix
from test_padic import _dense_berkowitz_int


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

    def test_zero_dimensional_sub_object(self, Q4):
        # the 2 x 0 span is the zero sub-object: no slopes, so t_N = 0, and
        # it meets the filtration in dimension t_H = 0
        assert newton_slopes(Isocrystal(Q4, 0, PadicMatrix(Q4, []))) == []
        iso = Isocrystal(Q4, 2, PadicMatrix.identity(Q4, 2))
        fil = PadicMatrix(Q4, [[Q4.one()], [Q4.generator()]])
        rep = weak_admissibility_sample(FilteredIsocrystal(iso, fil), [PadicMatrix(Q4, [[], []])])
        assert rep.sub_reports == [(0, 0, 0, True)]

    def test_unstable_subspace_rejected(self, Q2):
        iso = Isocrystal(Q2, 2, phi_matrix(2, precision=16))
        S = PadicMatrix.from_ints(Q2, [[1], [0]])
        with pytest.raises(ValueError):
            restrict_frobenius(iso, S)


class TestCommonField:
    """intersection_dim over Q_{p^a} and Q_{p^ab}, either one first: the
    small matrix is embedded in the big field, so the answer is the one the
    big matrix was built to have.  B is 3 x 2 of rank 2 with a zero last
    row; its image is written out from the generator's image g, a root of
    the small modulus, as sum x_i g^i."""

    @staticmethod
    def _image(x, big, g):
        acc, power = big.zero(x.abs_precision), big.one()
        for c in x.coeffs:
            acc = acc + big.from_coeffs([c], x.abs_precision, x.shift) * power
            power = power * g
        return acc

    @pytest.mark.parametrize("p, a, ab", [(2, 1, 2), (2, 2, 4), (3, 2, 4), (2, 3, 6)])
    @pytest.mark.parametrize("seed", range(3))
    def test_big_matrix_built_from_the_embedded_small_one(self, p, a, ab, seed):
        small, big = make_field_cached(p, a, 16), make_field_cached(p, ab, 16)
        g = field_embedding(small, big)
        if a > 1:  # the small modulus vanishes at g (Q_p's generator is 1)
            root = big.zero()
            for i, c in enumerate(small.modulus):
                root = root + g ** i * big.from_int(c)
            assert root.is_zero_at_precision()
        rng = random.Random(seed)
        x = small.from_coeffs([rng.randrange(p ** 16) for _ in range(a)])
        B = PadicMatrix(small, [[small.one(), small.zero()], [x, small.one()],
                                [small.zero(), small.zero()]])
        img = [[self._image(e, big, g) for e in row] for row in B.rows]
        y = [big.from_coeffs([rng.randrange(p ** 16) for _ in range(ab)]) for _ in range(2)]
        inside = [row[0] * y[0] + row[1] * y[1] for row in img]  # in the span
        outside = [big.zero(), big.zero(), big.one()]  # off B's zero last row
        cases = [
            ([r + [o] for r, o in zip(img, outside)], 2),
            ([[o] for o in outside], 0),
            ([[e] for e in inside], 1),
            ([r + [e] for r, e in zip(img, inside)], 2),
        ]
        for rows, expected in cases:
            A = PadicMatrix(big, rows)
            assert intersection_dim(A, B) == expected
            assert intersection_dim(B, A) == expected


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
    assume(_has_w_part(A) == w_part)  # the added w can cancel a drawn w-part
    return A


def _has_w_part(A):
    """Some entry of A, not zero at its precision, has a nonzero
    coefficient of w^i, i >= 1."""
    return any(not x.is_zero_at_precision() and any(x.coeffs[1:]) for row in A.rows for x in row)


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


UNRESOLVED_CONSTANT = "Newton polygon unresolved: constant term indistinguishable from zero"
UNRESOLVED_BOUND = "precision insufficient to resolve the Newton polygon"


def _polygon(vals):
    """(slopes, None) for the lower hull of the exact points (i, vals[i]),
    walked from each vertex to the farthest point of least slope; (None,
    the PrecisionError message newton_slopes owes) when the constant term
    is not exact or an AtLeast bound lies below the hull."""
    if not is_exact(vals[0]):
        return None, UNRESOLVED_CONSTANT
    slopes, i = [], 0
    while i < len(vals) - 1:
        later = [j for j in range(i + 1, len(vals)) if is_exact(vals[j])]
        j = min(later, key=lambda j: (Fraction(vals[j] - vals[i], j - i), -j))
        for k in range(i + 1, j):
            hull = vals[i] + Fraction((vals[j] - vals[i]) * (k - i), j - i)
            if not is_exact(vals[k]) and vals[k].n < hull:
                return None, UNRESOLVED_BOUND
        slopes += [Fraction(vals[i] - vals[j], j - i)] * (j - i)
        i = j
    return slopes, None


def _polygon_slopes(coeffs):
    """The polygon slopes of the valuations of coeffs, or None when they
    do not resolve."""
    return _polygon([c.valuation() for c in coeffs])[0]


def _fraction_hull_slopes(vals, m):
    """Reference for ``semilinear._hull_slopes``: the hull's value at each
    AtLeast position as a Fraction, and the slopes sorted."""
    pts = [(i, v) for i, v in enumerate(vals) if is_exact(v)]
    if not pts or pts[0][0] != 0:
        return None
    hull = semilinear._lower_hull(pts)
    for x, v in enumerate(vals):
        if is_exact(v):
            continue
        value = Fraction(hull[-1][1])
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            if x1 <= x <= x2:
                value = Fraction(y1 * (x2 - x) + y2 * (x - x1), x2 - x1)
                break
        if value > v.n:
            return None
    slopes = []
    for (i1, v1), (i2, v2) in zip(hull, hull[1:]):
        slopes += [Fraction(v1 - v2, i2 - i1) / m] * (i2 - i1)
    return sorted(slopes)


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

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 9), st.builds(AtLeast, st.integers(0, 9))),
                    min_size=1, max_size=10), st.integers(1, 4))
    def test_integer_hull_matches_fractions(self, vals, m):
        expected = _fraction_hull_slopes(vals, m)
        if expected is None:
            with pytest.raises(PrecisionError):
                semilinear._hull_slopes(vals, m)
        else:
            assert semilinear._hull_slopes(vals, m) == expected

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


def _v(c, p):
    """The valuation of a nonzero integer."""
    v = 0
    while not c % p:
        c //= p
        v += 1
    return v


def _oracle_slopes(A, p, mod, N):
    """(slopes, None) or (None, message): the hull of the valuations of
    det(tI - A) mod ``mod``, the reference Berkowitz, with AtLeast(N) for a
    coefficient that is 0 mod ``mod``.  Ascending, as newton_slopes gives
    them."""
    coeffs = _dense_berkowitz_int(A, mod, len(A))
    slopes, message = _polygon([_v(c, p) if c else AtLeast(N) for c in coeffs])
    return (None, message) if slopes is None else (sorted(slopes), None)


@st.composite
def _zp_operator(draw):
    """(A, ints, N): A over Q_{p^m}, p in {2, 3, 5}, m <= 3, n <= 6, every
    entry a w-free element of Z_p at its own precision (N to N + 3, so
    mixed); entries are sometimes zero, often p-divisible and sometimes zero
    at their precision.  ``ints`` are the drawn integers, N the least
    entry precision."""
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 3))
    f = make_field_cached(p, m, 16)
    n, base = draw(st.integers(1, 6)), draw(st.integers(1, 10))
    ints, rows, precisions = [], [], []
    for _ in range(n):
        row, ints_row = [], []
        for _ in range(n):
            prec = base + draw(st.sampled_from([0, 0, 1, 3]))
            e = draw(st.sampled_from([0, 0, 0, 1, 2, prec]))
            c = draw(st.integers(-p ** 8, p ** 8)) * p ** e if draw(st.integers(0, 3)) else 0
            row.append(f.from_coeffs([c], prec))
            ints_row.append(c)
            precisions.append(prec)
        rows.append(row)
        ints.append(ints_row)
    return PadicMatrix(f, rows), ints, min(precisions)


def _first_row_finer():
    """[[4 + O(2^8), 0 + O(2^8)], [0 + O(2^4), 4 + O(2^4)]] over Q_2, drawn
    as ``_zp_operator`` draws."""
    f = make_field_cached(2, 1, 16)
    A = PadicMatrix(f, [[f.from_int(4, 8), f.zero(8)], [f.zero(4), f.from_int(4, 4)]])
    return A, [[4, 0], [0, 4]], 4


def _elements_built(fn, *args):
    """The PadicElements constructed while fn(*args) runs, and its result or
    the exception it raised."""
    built, real = [], padic.PadicElement.__init__

    def spy(self, *a, **k):
        built.append(a)
        real(self, *a, **k)

    with mock.patch.object(padic.PadicElement, "__init__", spy):
        try:
            return built, fn(*args)
        except PrecisionError as exc:
            return built, exc


class TestZpRoute:
    """On Z_p input newton_slopes reads the polygon off one integer pass:
    it equals the tests' own hull of the reference Berkowitz mod p^N, N the
    least entry precision, and builds no element."""

    @settings(max_examples=300, deadline=None)
    @given(_zp_operator())
    # det = 16: zero at N = 4, the second row's precision, though the first
    # row is known mod 2^8
    @example(_first_row_finer())
    def test_matches_the_integer_oracle(self, drawn):
        A, ints, N = drawn
        p = A.field.p
        slopes, message = _oracle_slopes(ints, p, p ** N, N)
        iso = Isocrystal(A.field, A.nrows, A)
        if message is None:
            assert newton_slopes(iso) == slopes
        else:
            with pytest.raises(PrecisionError) as exc:
                newton_slopes(iso)
            assert str(exc.value) == message

    @settings(max_examples=50, deadline=None)
    @given(_zp_operator())
    def test_builds_no_element(self, drawn):
        A = drawn[0]
        built, _ = _elements_built(newton_slopes, Isocrystal(A.field, A.nrows, A))
        assert built == []

    def test_the_spy_sees_the_element_routes(self, Q4):
        # a shift or a w-part leaves Z_p: charpoly's element loop runs
        half = Q4.from_coeffs([1], 16, 1)
        for x in (half, Q4.generator()):
            A = PadicMatrix(Q4, [[x, Q4.zero()], [Q4.zero(), Q4.one()]])
            built, _ = _elements_built(newton_slopes, Isocrystal(Q4, 2, A))
            assert built

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_models_take_the_integer_pass(self, n):
        for model in (build_DH(n, precision=12), build_DG(n, precision=12)):
            iso = model.isocrystal(model.field)
            built, slopes = _elements_built(newton_slopes, iso)
            assert built == [] and slopes == [Fraction(1, n)] * iso.dim

    @settings(max_examples=150, deadline=None)
    @given(_zp_operator())
    def test_shifted_entries_lower_every_slope(self, drawn):
        # A/p has the slopes of A less 1, and the exact A/p is a lift of
        # the element loop's input: whatever it certifies must be that
        A, ints, N = drawn
        p, n = A.field.p, A.nrows
        f = make_field_cached(p, 1, 16)
        B = PadicMatrix(f, [[f.from_coeffs([a], N, 1) for a in row] for row in ints])
        try:
            got = newton_slopes(Isocrystal(f, n, B))
        except PrecisionError:
            return
        exact, message = _oracle_slopes(ints, p, p ** (64 * n), 64 * n)
        assert message is None
        assert got == [s - 1 for s in exact]
