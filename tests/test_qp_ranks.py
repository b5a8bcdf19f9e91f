"""Ranks: certified_rank's integer kernel against the Smith form, Omega
membership against its construction through elements, and lift soundness:
what is certified at precision N must survive a lift of the inputs to
precision 2N with arbitrary extra digits."""

import random
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from padicperiods import padic, periods
from padicperiods.padic import (
    AtLeast,
    PadicElement,
    PadicMatrix,
    PrecisionError,
    certified_rank,
    is_exact,
    make_field_cached,
    rank_below,
    smith_form,
    _int_divisors,
)
from padicperiods.periods import (
    OmegaVerdict,
    ProjectivePoint,
    fil_G,
    omega_membership,
    random_point,
)


FIELD_PREC = 16


def _qp_entry(draw, f, N, prec, w_part=False):
    """An entry at precision ``prec``: zero, a p-power (possibly zero at
    ``prec``), a unit or a p-divisible value, with shift 0-3; a w-part only
    when asked for."""
    p = f.p
    kind = draw(st.sampled_from(["zero", "p-power", "unit", "multiple"]))
    shift = draw(st.sampled_from([0, 0, 1, 2, 3]))
    if kind == "zero":
        return f.zero(prec)
    if kind == "p-power":
        coeffs = [p ** draw(st.integers(0, prec + shift + 1))]
    else:
        x = draw(st.integers(1, p ** (N + shift)))
        coeffs = [x if kind == "unit" else x * p ** draw(st.integers(1, 4))]
    if w_part:
        coeffs += [draw(st.integers(0, p ** (prec + shift))) for _ in range(f.m - 1)]
    return f.from_coeffs(coeffs, prec, shift)


@st.composite
def qp_matrices(draw, w_part=False):
    """Up to 4 x 4 over Q_{p^m}, p in {2, 3, 5}, m in {1, 2, 3}, N in 1-12:
    flat precision N, or per-entry precisions N, N + 2 or 2N;
    rows that repeat an earlier row times an integer (rank deficiency)."""
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.sampled_from([1, 2, 3]) if not w_part else st.sampled_from([2, 3]))
    f = make_field_cached(p, m, FIELD_PREC)
    N = draw(st.integers(1, 12))
    precs = [N] + ([N + 2, 2 * N] if draw(st.booleans()) else [])
    r, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = [[_qp_entry(draw, f, N, draw(st.sampled_from(precs)), w_part) for _ in range(c)]
            for _ in range(r)]
    for i in range(1, r):
        if draw(st.integers(0, 2)) == 0:
            k = draw(st.sampled_from([0, 1, -1, p, p ** 2 + 1, 7]))
            rows[i] = [f.from_coeffs([k * x for x in e.coeffs], e.abs_precision, e.shift)
                       for e in rows[draw(st.integers(0, i - 1))]]
    return PadicMatrix(f, rows)


def _reference_rank(divisors, N):
    return sum(1 for d in divisors if isinstance(d, int) and d < N)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PrecisionError as exc:
        return ("PrecisionError", str(exc))


def _zero_beside_32():
    """[[O(2^2), 32 + O(2^10)]] over Q_2: 32 is zero at M.precision = 2."""
    f = make_field_cached(2, 1, FIELD_PREC)
    return PadicMatrix(f, [[f.zero(2), f.from_int(32, 10)]])


def _coarse_zero_below_32():
    """[[32 + O(2^10), 0 + O(2^10)], [0 + O(2^10), O(2^2)]] over Q_2 (ROADMAP
    2(b)): 32 is zero at M.precision = 2, and the lift [[32, 0], [0, 4]]
    has the divisors [2, 5]."""
    f = make_field_cached(2, 1, FIELD_PREC)
    return PadicMatrix(f, [[f.from_int(32, 10), f.zero(10)], [f.zero(10), f.zero(2)]])


class TestIntegerPath:
    """certified_rank, with and without w-parts, against smith_form: both
    eliminate M cut to M.precision, so the divisors are the same, field by
    field, at one precision and at mixed precisions."""

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(qp_matrices(), qp_matrices(w_part=True)))
    def test_matches_element_elimination(self, M):
        with mock.patch.object(padic, "smith_form", side_effect=AssertionError("smith_form ran")):
            rank, divisors = certified_rank(M)  # a rank builds no Smith form
        ref = smith_form(M).divisors
        assert divisors == ref
        assert rank == _reference_rank(ref, M.precision)

    def test_shifted_entries(self):
        """1/2 and 1/4 over Q_2 at N = 3: the kernel ranks 4M and subtracts 2;
        det M = 1/4, so the divisors are -2 and 0."""
        f = make_field_cached(2, 1, FIELD_PREC)
        M = PadicMatrix(f, [[f.from_coeffs([1], 3, 1), f.from_coeffs([1], 3, 2)],
                            [f.from_coeffs([1], 3, 1), f.from_coeffs([3], 3, 2)]])
        assert certified_rank(M) == (2, [-2, 0]) == (2, smith_form(M).divisors)

    def test_digits_beyond_the_precision_are_dropped(self):
        """The kernel reads its entries mod p^(N+S), as Omega hands them over
        with all the digits of a more precise normal: 2^6 and 2^7 at N = 4
        are zero, not entries of valuation 6 and 7."""
        Q2, Q3 = make_field_cached(2, 1, FIELD_PREC), make_field_cached(3, 1, FIELD_PREC)
        big = [[((2 ** 6,), 0), ((2 ** 6,), 0)], [((2 ** 6,), 0), ((2 ** 7,), 0)]]
        assert _int_divisors(Q2, big, 4) == [AtLeast(4)] * 2
        assert _int_divisors(Q3, [[((3 ** 5 + 1,), 1), ((3 ** 3,), 0)]], 2) == [-1]

    def test_mixed_precision_divisor_is_not_certified(self):
        """The lift [[4 + O(2^4), 32 + O(2^20)]] of _zero_beside_32 has the
        divisor 2, not 5.  smith_form too cuts M to M.precision = 2, where
        32 is zero, so neither it nor the rank kernel certifies a divisor
        of that example or of _coarse_zero_below_32, which at its entries'
        own precisions would give [5, AtLeast(2)], not even non-decreasing."""
        f = make_field_cached(2, 1, FIELD_PREC)
        lift = PadicMatrix(f, [[f.from_int(4, 4), f.from_int(32, 20)]])
        assert certified_rank(_zero_beside_32()) == (0, [AtLeast(2)])
        assert certified_rank(lift) == (1, [2])
        for M, expected in ((_zero_beside_32(), [AtLeast(2)]),
                            (_coarse_zero_below_32(), [AtLeast(2), AtLeast(2)])):
            assert smith_form(M).divisors == certified_rank(M)[1] == expected
        assert smith_form(PadicMatrix.from_ints(f, [[32, 0], [0, 4]], 10)).divisors == [2, 5]


@st.composite
def normals(draw):
    """A hyperplane's normal over Q_{p^m}, p in {2, 3}, m in 1-4, n in 1-4, at
    per-entry precisions N..N+4 with shifts, zeros and p-powers; sometimes one
    entry is a rational combination of two others, so that the coordinate
    matrix loses rank, stored at a precision that may be below the others'.
    Returns the point and a lift of every entry to twice the largest
    precision in which that combination holds exactly (None when there is
    none)."""
    p = draw(st.sampled_from([2, 3]))
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    f = make_field_cached(p, m, FIELD_PREC)
    N = draw(st.integers(1, 12))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))  # digits all the way up
    normal = []
    for _ in range(n):
        prec = draw(st.sampled_from([N, N, N + 1, N + 4]))
        shift = draw(st.sampled_from([0, 0, 1, 2, 3]))
        kind = draw(st.sampled_from(["zero", "p-power", "rational", "any"]))
        if kind == "zero":
            normal.append(f.zero(prec))
            continue
        top = p ** (prec + shift)
        if kind == "p-power":
            coeffs = [p ** draw(st.integers(0, prec + shift)) * draw(st.integers(0, 3))
                      for _ in range(m)]
        elif kind == "rational":
            coeffs = [draw(st.integers(0, top))]
        else:
            coeffs = [rng.randrange(top) for _ in range(m)]
        normal.append(f.from_coeffs(coeffs, prec, shift))
    exact = None
    if n > 1 and draw(st.booleans()):
        x, y = normal[0], normal[draw(st.integers(0, n - 2))]
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        s = max(x.shift, y.shift)
        coeffs = [a * u * p ** (s - x.shift) + b * w * p ** (s - y.shift)
                  for u, w in zip(x.coeffs, y.coeffs)]
        k = draw(st.sampled_from([N, min(x.abs_precision, y.abs_precision)]))
        normal[-1] = f.from_coeffs(coeffs, k, s)
        top = 2 * max(e.abs_precision for e in normal)
        exact = [f.from_coeffs(e.coeffs, top, e.shift) for e in normal[:-1]]
        exact.append(f.from_coeffs(coeffs, top, s))
    return ProjectivePoint(PadicMatrix.identity(f, n), normal), exact


def _lift(e, rng):
    """e at twice its precision, with random digits below the known ones;
    a Q_p entry stays in Q_p."""
    p, N, s = e.field.p, e.abs_precision, e.shift
    top = p ** (N + s)
    coeffs = [c + top * rng.randrange(p ** N) if i == 0 or any(e.coeffs[1:]) else c
              for i, c in enumerate(e.coeffs)]
    return e.field.from_coeffs(coeffs, 2 * N, s)


def _lift_matrix(M, seed):
    rng = random.Random(seed)
    return PadicMatrix(M.field, [[_lift(e, rng) for e in row] for row in M.rows])


def _check_lift_sound(M, seed, divisors_of=lambda A: certified_rank(A)[1]):
    N = M.precision
    lifted = _lift_matrix(M, seed)
    assert lifted.precision == 2 * N
    divisors, divisors2 = divisors_of(M), divisors_of(lifted)
    assert rank_below(divisors2, N) == rank_below(divisors, N)
    for d, d2 in zip(divisors, divisors2):
        if is_exact(d):
            assert d2 == d
        else:
            assert d == AtLeast(N)
            assert (d2.n if isinstance(d2, AtLeast) else d2) >= N


class TestLiftSoundness:
    """ROADMAP 4a: lift each entry to 2N with random extra digits and rank
    again; exact divisors and the rank certified at N must not move, and an
    AtLeast(N) must stay at least N."""

    @settings(max_examples=250, deadline=None)
    @given(qp_matrices(), st.integers(0, 2 ** 32))
    @example(_zero_beside_32(), 0)  # the lift puts 12 + O(2^4) beside 32
    def test_certified_rank_integer_path(self, M, seed):
        """Q_p-valued entries, at one precision or mixed."""
        _check_lift_sound(M, seed)

    @settings(max_examples=150, deadline=None)
    @given(qp_matrices(w_part=True), st.integers(0, 2 ** 32))
    def test_certified_rank_element_path(self, M, seed):
        """Entries over Q_{p^m}, m > 1, at least one with a w-part."""
        if all(not any(e.coeffs[1:]) for row in M.rows for e in row):
            e = M.rows[0][0]
            M.rows[0][0] = M.field.from_coeffs([1, 1], e.abs_precision)  # force a w-part
        _check_lift_sound(M, seed)

    @settings(max_examples=250, deadline=None)
    @given(st.one_of(qp_matrices(), qp_matrices(w_part=True)), st.integers(0, 2 ** 32))
    @example(_coarse_zero_below_32(), 3)  # the lift has -4 + O(2^4) for O(2^2): [2, 5]
    def test_smith_form_divisors(self, M, seed):
        """ROADMAP 2(c): smith_form's divisors, at one precision or mixed."""
        _check_lift_sound(M, seed, lambda A: smith_form(A).divisors)

    @settings(max_examples=300, deadline=None)
    @given(normals(), st.integers(0, 2 ** 32))
    def test_in_omega_survives_lifting(self, inputs, seed):
        """Both the random lift and, where the strategy made one, the lift
        in which a rational relation among the entries holds exactly."""
        point, exact = inputs
        if omega_membership(point).status != "in_Omega":
            return
        rng = random.Random(seed)
        for normal in ([_lift(e, rng) for e in point.normal], exact):
            if normal is not None:
                lifted = ProjectivePoint(point.basis, normal)
                assert omega_membership(lifted).status == "in_Omega"


def _element_omega(point):
    """Omega membership as built through elements: each coordinate of each
    normal entry becomes a Q_p element at its entry's precision, then is
    homed at the common precision; rank and witness come from smith_form."""
    normal = point.normal
    n, p = len(normal), normal[0].field.p
    N = min(e.abs_precision for e in normal)
    base = make_field_cached(p, 1, N)
    rows = []
    for e in normal:
        own = make_field_cached(p, 1, e.abs_precision)
        coords = [PadicElement(own, (c,), e.shift, e.abs_precision) for c in e.coeffs]
        rows.append([base.from_coeffs([x.coeffs[0]], N, x.shift) for x in coords])
    sf = smith_form(PadicMatrix(base, rows))
    if _reference_rank(sf.divisors, N) == n:
        return OmegaVerdict("in_Omega")
    return OmegaVerdict("not_in_Omega", list(sf.L.rows[n - 1]))


def _p_valuation(x, p):
    v, a, b = 0, x.numerator, x.denominator
    while a % p == 0:
        a, v = a // p, v + 1
    while b % p == 0:
        b, v = b // p, v - 1
    return v


def _check_witness(point, witness):
    """A not_in_Omega witness is integral, has an entry of exact valuation
    0, and annihilates the normal read at the common precision N: in each
    Q_p coordinate j the exact sum of w_i * l_ij over the stored
    representatives has valuation at least min(N, N_w_i + v(l_ij)), the
    precision that the witness's digits and the normal's carry."""
    vals = [x.valuation() for x in witness]
    assert all(v >= 0 for v in vals if is_exact(v))
    assert 0 in [v for v in vals if is_exact(v)]
    normal = point.normal
    p, N = normal[0].field.p, min(e.abs_precision for e in normal)
    for j in range(normal[0].field.m):
        total, cap = Fraction(0), N
        for x, e in zip(witness, normal):
            lij = Fraction(e.coeffs[j], p ** e.shift)
            total += Fraction(x.coeffs[0], p ** x.shift) * lij
            if lij:
                cap = min(cap, x.abs_precision + _p_valuation(lij, p))
        assert total == 0 or _p_valuation(total, p) >= cap


def _verdict_fields(verdict):
    if isinstance(verdict, tuple):
        return verdict
    witness = verdict.witness
    return verdict.status, None if witness is None else [
        (x.coeffs, x.shift, x.abs_precision) for x in witness]


class TestOmegaMembership:
    @settings(max_examples=300, deadline=None)
    @given(normals())
    def test_verdict_and_witness_match_element_construction(self, inputs):
        point, _ = inputs
        ref = _outcome(_element_omega, point)
        got = _outcome(omega_membership, point)
        if not isinstance(got, tuple) and got.status == "not_in_Omega":
            _check_witness(point, got.witness)
        assert _verdict_fields(got) == _verdict_fields(ref)

    def test_in_omega_builds_no_element(self, monkeypatch):
        K = make_field_cached(2, 3, 32)
        point = fil_G(random_point(3, K, 5))
        rational = ProjectivePoint(point.basis, [K.one(), K.from_int(2), K.zero()])
        built, reduced = [], []
        init = PadicElement.__init__

        def spy_init(self, *args):
            built.append(1)
            init(self, *args)

        def spy_smith_form(M):
            reduced.append(1)
            return smith_form(M)

        monkeypatch.setattr(PadicElement, "__init__", spy_init)
        monkeypatch.setattr(periods, "smith_form", spy_smith_form)
        assert omega_membership(point).status == "in_Omega"
        assert built == [] and reduced == []
        # a rank-deficient normal builds elements and a Smith form for its witness
        assert omega_membership(rational).status == "not_in_Omega"
        assert built and reduced
