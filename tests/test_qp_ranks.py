"""Ranks of matrices over Q_p: certified_rank's integer path against the
element elimination, Omega membership against its construction through
elements, and lift soundness: what is certified at precision N must survive
a lift of the inputs to precision 2N with arbitrary extra digits."""

import random
from contextlib import nullcontext
from unittest import mock

from hypothesis import given, settings, strategies as st

from padicperiods import padic
from padicperiods.padic import (
    AtLeast,
    PadicElement,
    PadicMatrix,
    PrecisionError,
    certified_rank,
    is_exact,
    make_field_cached,
    smith_form,
    _int_divisors,
    _reduce,
)
from padicperiods.periods import (
    OmegaVerdict,
    ProjectivePoint,
    _primitive_scale,
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
def qp_matrices(draw, mixed=True, w_part=False):
    """Up to 4 x 4 over Q_{p^m}, p in {2, 3, 5}, m in {1, 2, 3}, N in 1-12:
    flat precision N, or (``mixed``) per-entry precisions N, N + 2 or 2N;
    rows that repeat an earlier row times an integer (rank deficiency)."""
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.sampled_from([1, 2, 3]) if not w_part else st.sampled_from([2, 3]))
    f = make_field_cached(p, m, FIELD_PREC)
    N = draw(st.integers(1, 12))
    precs = [N] + ([N + 2, 2 * N] if mixed and draw(st.booleans()) else [])
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


class TestIntegerPath:
    """certified_rank on Q_p-valued entries against _reduce(M, False)."""

    @settings(max_examples=400, deadline=None)
    @given(qp_matrices())
    def test_matches_element_elimination(self, M):
        ref = _outcome(lambda: _reduce(M, False)[0])
        N = M.precision
        flat = all(e.abs_precision == N for row in M.rows for e in row)
        # a flat matrix must take the integer path, so _reduce must not run
        guard = (mock.patch.object(padic, "_reduce", side_effect=AssertionError("element path"))
                 if flat else nullcontext())
        with guard:
            got = _outcome(certified_rank, M)
        if isinstance(ref, tuple):
            assert got == ref
            return
        rank, divisors = got
        assert divisors == ref
        assert [type(d) for d in divisors] == [type(d) for d in ref]
        assert rank == _reference_rank(ref, N)

    def test_shifted_entries(self):
        """1/2 and 1/4 over Q_2 at N = 3: the kernel ranks 4M and subtracts 2;
        det M = 1/4, so the divisors are -2 and 0."""
        f = make_field_cached(2, 1, FIELD_PREC)
        M = PadicMatrix(f, [[f.from_coeffs([1], 3, 1), f.from_coeffs([1], 3, 2)],
                            [f.from_coeffs([1], 3, 1), f.from_coeffs([3], 3, 2)]])
        assert certified_rank(M) == (2, [-2, 0]) == (2, _reduce(M, False)[0])

    def test_digits_beyond_the_precision_are_dropped(self):
        """The kernel reads its integers mod p^(N+S), as Omega hands them over
        with all the digits of a more precise normal: 2^6 and 2^7 at N = 4
        are zero, not entries of valuation 6 and 7."""
        assert _int_divisors([[2 ** 6, 2 ** 6], [2 ** 6, 2 ** 7]], 2, 4, 0) == [AtLeast(4)] * 2
        assert _int_divisors([[3 ** 5 + 1, 3 ** 4]], 3, 2, 1) == [-1]


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


def _check_lift_sound(M, seed, path):
    N = M.precision
    lifted = _lift_matrix(M, seed)
    assert lifted.precision == 2 * N
    calls = []
    with mock.patch.object(padic, "_reduce", side_effect=lambda *a: calls.append(1) or _reduce(*a)):
        rank, divisors = certified_rank(M)
        rank2, divisors2 = certified_rank(lifted, N)
    assert bool(calls) == (path == "element")  # the path under test ran
    assert rank2 == rank
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
    @given(qp_matrices(mixed=False), st.integers(0, 2 ** 32))
    def test_certified_rank_integer_path(self, M, seed):
        _check_lift_sound(M, seed, "integer")

    @settings(max_examples=150, deadline=None)
    @given(qp_matrices(mixed=False, w_part=True), st.integers(0, 2 ** 32))
    def test_certified_rank_element_path(self, M, seed):
        if all(not any(e.coeffs[1:]) for row in M.rows for e in row):
            M.rows[0][0] = M.field.from_coeffs([1, 1], M.precision)  # force a w-part
        _check_lift_sound(M, seed, "element")

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
    homed at the common precision; the rank comes from _reduce."""
    normal = point.normal
    n, p = len(normal), normal[0].field.p
    N = min(e.abs_precision for e in normal)
    base = make_field_cached(p, 1, N)
    rows = []
    for e in normal:
        own = make_field_cached(p, 1, e.abs_precision)
        coords = [PadicElement(own, (c,), e.shift, e.abs_precision) for c in e.coeffs]
        rows.append([base.from_coeffs([x.coeffs[0]], N, x.shift) for x in coords])
    M = PadicMatrix(base, rows)
    if _reference_rank(_reduce(M, False)[0], N) == n:
        return OmegaVerdict("in_Omega")
    witness = _primitive_scale(list(smith_form(M).L.rows[n - 1]))
    if witness is None:
        return OmegaVerdict("indeterminate")
    return OmegaVerdict("not_in_Omega", witness)


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
        assert _verdict_fields(got) == _verdict_fields(ref)

    def test_in_omega_builds_no_element(self, monkeypatch):
        K = make_field_cached(2, 3, 32)
        point = fil_G(random_point(3, K, 5))
        rational = ProjectivePoint(point.basis, [K.one(), K.from_int(2), K.zero()])
        built, reduced = [], []
        init, reduce_ = PadicElement.__init__, padic._reduce

        def spy_init(self, *args):
            built.append(1)
            init(self, *args)

        def spy_reduce(*args):
            reduced.append(1)
            return reduce_(*args)

        monkeypatch.setattr(PadicElement, "__init__", spy_init)
        monkeypatch.setattr(padic, "_reduce", spy_reduce)
        assert omega_membership(point).status == "in_Omega"
        assert built == [] and reduced == []
        # a rank-deficient normal takes the element path for its witness
        assert omega_membership(rational).status == "not_in_Omega"
        assert built and reduced
