"""Core field and matrix arithmetic: construction, valuations, Frobenius,
Teichmueller lifts, Smith-style reduction, saturation, rank certification,
characteristic polynomials, and JSON round-trips."""

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from padicperiods import padic
from padicperiods.padic import (
    AtLeast,
    PadicElement,
    PadicMatrix,
    PrecisionError,
    certified_rank,
    charpoly,
    embed_element,
    field_embedding,
    is_exact,
    kernel_basis,
    make_field,
    make_field_cached,
    matrix_from_json,
    matrix_to_json,
    rank_below,
    saturate_lattice,
    smith_form,
    teichmueller,
    _berkowitz,
    _binomial_may_be_irreducible,
    _find_modulus,
    _is_irreducible_mod_p,
    _is_prime,
    _poly_eval_poly,
    _poly_inverse,
    _poly_mul,
    _poly_mulmod,
    _poly_rem,
    _residues,
)
from padicperiods import periods
from padicperiods.models import build_DG
from padicperiods.periods import (
    ProjectivePoint,
    RankCertificationError,
    correspond,
    fil_G,
    fil_H,
    from_matrix,
    omega_membership,
    random_point,
)


def cut(M, N):
    """M with every entry cut to precision N."""
    return PadicMatrix(M.field, [[M.field.from_coeffs(e.coeffs, N, e.shift) for e in row]
                                 for row in M.rows])


class TestFieldConstruction:
    def test_prime_field(self):
        f = make_field(2, 1, 16)
        assert f.m == 1 and f.modulus == (0, 1)
        x = f.from_int(5)
        assert x.frobenius().approx_equal(x)

    def test_degree_two_modulus_and_frobenius(self, Q4):
        # lexicographically smallest irreducible: x^2 + x + 1
        assert Q4.modulus == (1, 1, 1)
        w = Q4.generator()
        # the conjugate root: sigma(w) = -1 - w
        sw = w.frobenius()
        assert sw.approx_equal(-(Q4.one()) - w)

    def test_frobenius_involution(self, Q9):
        rng = random.Random(0)
        for _ in range(50):
            x = Q9.from_coeffs([rng.randrange(3 ** 8) for _ in range(2)], 8)
            assert x.frobenius().frobenius().approx_equal(x)

    def test_modulus_irreducible_mod_p(self):
        f = make_field(5, 3, 10)
        # the defining invariant: frobenius_image is a root of the modulus
        y = f.from_coeffs(list(f.frobenius_image), 10)
        acc = f.zero(10)
        for c in reversed(f.modulus):
            acc = acc * y + f.from_int(c)
        assert acc.is_zero_at_precision()

    def test_bad_precision(self):
        with pytest.raises(ValueError):
            make_field(2, 1, 0)


class TestValuation:
    def test_p_power_times_unit(self, Q2):
        x = Q2.from_int(8 * 5)
        assert x.valuation() == 3

    def test_zero_reports_at_least(self, Q2):
        z = Q2.zero(8)
        v = z.valuation()
        assert not is_exact(v) and v.n >= 8

    def test_unit_sum(self, Q4):
        # 1 + w is a unit since (1 + w) is the other cube root of unity times -1
        w = Q4.generator()
        assert (Q4.one() + w).valuation() == 0

    def test_multiplicativity(self, Q4):
        rng = random.Random(1)
        for _ in range(30):
            x = Q4.from_coeffs([rng.randrange(2 ** 16) for _ in range(2)], 16)
            y = Q4.from_coeffs([rng.randrange(2 ** 16) for _ in range(2)], 16)
            vx, vy = x.valuation(), y.valuation()
            if is_exact(vx) and is_exact(vy):
                v = (x * y).valuation()
                if is_exact(v):
                    assert v == vx + vy


@st.composite
def q4_elements(draw):
    f = make_field_cached(2, 2, 16)
    coeffs = [draw(st.integers(0, 2 ** 16 - 1)) for _ in range(2)]
    return f.from_coeffs(coeffs, 16)


class TestRingAxioms:
    @settings(max_examples=100, deadline=None)
    @given(q4_elements(), q4_elements(), q4_elements())
    def test_ring_axioms(self, x, y, z):
        assert ((x + y) + z).approx_equal(x + (y + z))
        assert (x * y).approx_equal(y * x)
        assert (x * (y + z)).approx_equal(x * y + x * z)
        assert ((x * y) * z).approx_equal(x * (y * z))

    @settings(max_examples=60, deadline=None)
    @given(q4_elements(), q4_elements())
    def test_ultrametric(self, x, y):
        vx, vy, vs = x.valuation(), y.valuation(), (x + y).valuation()
        if is_exact(vx) and is_exact(vy) and is_exact(vs):
            assert vs >= min(vx, vy)

    @settings(max_examples=60, deadline=None)
    @given(q4_elements(), q4_elements())
    def test_frobenius_homomorphism(self, x, y):
        assert (x + y).frobenius().approx_equal(x.frobenius() + y.frobenius())
        assert (x * y).frobenius().approx_equal(x.frobenius() * y.frobenius())


class TestCoercion:
    def test_fraction_operand_raises_type_error(self, Q4):
        x = Q4.from_int(3)
        for op in (
            lambda: x + Fraction(1, 2),
            lambda: x - Fraction(1, 2),
            lambda: x * Fraction(1, 2),
            lambda: x / Fraction(1, 2),
            lambda: Fraction(1, 2) + x,
            lambda: Fraction(1, 2) - x,
        ):
            with pytest.raises(TypeError):
                op()

    def test_int_operand_still_coerced(self, Q4):
        x = Q4.from_int(3)
        assert (x + 1).approx_equal(Q4.from_int(4))
        assert (2 - x).approx_equal(Q4.from_int(-1))
        assert x == 3 and x != Fraction(3)

    def test_elements_are_unhashable(self, Q4):
        # equality is approximate, so no hash can agree with it
        with pytest.raises(TypeError):
            hash(Q4.from_int(3))


class TestTeichmueller:
    def test_one_and_zero(self, Q4):
        assert teichmueller(Q4, [1]).approx_equal(Q4.one())
        assert teichmueller(Q4, [0]).is_zero_at_precision()

    def test_cube_root_of_unity(self, Q4):
        w = teichmueller(Q4, [0, 1])
        assert (w ** 3).approx_equal(Q4.one())
        assert not (w - Q4.one()).is_zero_at_precision()

    def test_frobenius_functoriality(self, Q9):
        # sigma([a]) = [a^p]
        t = teichmueller(Q9, [1, 1])
        assert t.frobenius().approx_equal(t ** 3)


class TestInverse:
    def test_unit_inverse(self, Q4):
        w = Q4.generator()
        x = Q4.one() + w * 2
        assert (x * x.inverse()).approx_equal(Q4.one(x.abs_precision))

    def test_nonunit_loses_precision(self, Q2):
        x = Q2.from_int(4)
        inv = x.inverse()
        assert inv.valuation() == -2
        assert (x * inv).approx_equal(Q2.one(inv.abs_precision))

    def test_zero_raises(self, Q2):
        with pytest.raises(ZeroDivisionError):
            Q2.zero(8).inverse()


class TestEmbedding:
    def test_tower(self):
        small = make_field_cached(2, 2, 16)
        big = make_field_cached(2, 4, 16)
        gen = field_embedding(small, big)
        w = small.generator()
        img = embed_element(w, big, gen)
        # the image satisfies the same minimal polynomial
        acc = big.zero(16)
        for c in reversed(small.modulus):
            acc = acc * img + big.from_int(c)
        assert acc.is_zero_at_precision()
        # embedding is a ring map on a sample
        x = small.from_coeffs([3, 5], 16)
        y = small.from_coeffs([7, 11], 16)
        assert embed_element(x * y, big, gen).approx_equal(
            embed_element(x, big, gen) * embed_element(y, big, gen)
        )


class TestSmith:
    def _random_matrix(self, f, r, c, rng, bound=None):
        bound = bound or f.p ** f.precision
        return PadicMatrix.from_ints(
            f, [[rng.randrange(bound) for _ in range(c)] for _ in range(r)]
        )

    def test_transform_invariants(self, Q4):
        rng = random.Random(3)
        for _ in range(10):
            M = self._random_matrix(Q4, 3, 3, rng)
            sf = smith_form(M)
            D = sf.L * M * sf.R
            for i in range(3):
                for j in range(3):
                    if i != j:
                        assert D.rows[i][j].is_zero_at_precision()
            assert (sf.L * sf.Linv).approx_equal(PadicMatrix.identity(Q4, 3))
            assert (sf.Rinv * sf.R).approx_equal(PadicMatrix.identity(Q4, 3))
            # divisors non-decreasing among exact ones
            ex = [d for d in sf.divisors if is_exact(d)]
            assert ex == sorted(ex)

    def test_identity_rank(self, Q2):
        I = PadicMatrix.identity(Q2, 4)
        rank, div = certified_rank(I)
        assert rank == 4 and div == [0, 0, 0, 0]

    def test_borderline_divisor(self):
        f = make_field_cached(2, 1, 8)
        M = PadicMatrix.from_ints(f, [[1, 0], [0, 2 ** 8]], 8)
        rank, div = certified_rank(M)
        assert rank == 1
        assert div[0] == 0 and not is_exact(div[1])

    def test_symbolic_rank_one(self, Q4):
        w = Q4.generator()
        M = PadicMatrix(Q4, [[Q4.one(), w], [w, w * w]])
        rank, _ = certified_rank(M)
        assert rank == 1

    def test_unimodular_invariance(self, Q2):
        rng = random.Random(4)
        M = PadicMatrix.from_ints(Q2, [[2, 4], [0, 8]])
        _, base = certified_rank(M)
        for _ in range(10):
            # random unit-determinant integer matrices
            a = rng.randrange(1, 2 ** 8, 2)
            b = rng.randrange(2 ** 8)
            G = PadicMatrix.from_ints(Q2, [[a, b], [0, 1]])
            _, div = certified_rank(G * M)
            assert div == base
            _, div = certified_rank(M * G)
            assert div == base

    def test_kernel(self, Q2):
        M = PadicMatrix.from_ints(Q2, [[1, 2], [2, 4]])
        kern = kernel_basis(M)
        assert len(kern) == 1
        v = kern[0]
        img = [sum((M.rows[i][j] * v[j] for j in range(2)), Q2.zero()) for i in range(2)]
        assert all(x.is_zero_at_precision() for x in img)

    def test_matrix_inverse(self, Q4):
        rng = random.Random(5)
        for _ in range(5):
            M = self._random_matrix(Q4, 3, 3, rng, bound=2 ** 10)
            try:
                inv = M.inverse()
            except ZeroDivisionError:
                continue
            assert (M * inv).approx_equal(PadicMatrix.identity(Q4, 3, inv.precision))


PREC = 10


def _entry(draw, f):
    """A random element of valuation 0..PREC+1, mostly small (beyond N it
    reads AtLeast), optionally divided by p or p^2."""
    p = f.p
    coeffs = [draw(st.integers(0, p ** PREC - 1)) for _ in range(f.m)]
    v = draw(st.one_of(st.integers(0, 2), st.integers(0, PREC + 1)))
    shift = draw(st.integers(0, 2))
    return f.from_coeffs([x * p ** v for x in coeffs], PREC, shift)


@st.composite
def elimination_inputs(draw, square_corank_one=False):
    """Matrices over Q_2, Q_4 or Q_8: square or not, full or deficient rank.

    A deficient matrix is a product A*B through a smaller inner dimension;
    products of entries with negative valuation have lowered precision.
    With ``square_corank_one`` the result is n x n through inner dimension
    n - 1, a candidate for from_matrix.
    """
    f = make_field_cached(2, draw(st.sampled_from([1, 2, 3])), PREC)
    if square_corank_one:
        r = c = draw(st.integers(2, 4))
        k = r - 1
    else:
        r, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        k = draw(st.integers(1, min(r, c)))
        if k == min(r, c) and draw(st.booleans()):
            return PadicMatrix(f, [[_entry(draw, f) for _ in range(c)] for _ in range(r)])
    A = PadicMatrix(f, [[_entry(draw, f) for _ in range(k)] for _ in range(r)])
    B = PadicMatrix(f, [[_entry(draw, f) for _ in range(c)] for _ in range(k)])
    return A * B


def _same_element(x, y):
    return (x.coeffs, x.shift, x.abs_precision) == (y.coeffs, y.shift, y.abs_precision)


def _zero_in_pivot_column():
    """A rank-3 matrix over Q_4 whose third pivot has the zero 0 + O(2^8) of
    row 2 below it: rows 2 and 3 satisfy X[2] = 128 * X[3], so the left
    kernel is spanned by (0, 0, 1, -128)."""
    f = make_field_cached(2, 2, PREC)
    u = [-1, -1]
    return PadicMatrix(f, [
        [f.zero(8), f.from_coeffs([-5, -5], 8, 2), f.from_coeffs(u, 8, 3), f.from_coeffs(u, 8, 2)],
        [f.zero(10), f.zero(10), f.from_coeffs(u, 8, 2), f.zero(10)],
        [f.zero(17), f.from_coeffs([-128, -128], 10), f.zero(8), f.from_coeffs([-128, -128], 10)],
        [f.zero(10), f.from_coeffs(u, 10), f.zero(8), f.from_coeffs(u, 10)],
    ])


class TestSharedElimination:
    """The rank kernel agrees with the Smith form, and the Smith form of X
    serves its transpose."""

    @settings(max_examples=150, deadline=None)
    @given(elimination_inputs())
    def test_rank_only_divisors_match_smith_form(self, M):
        # one pivot rule: both eliminate M cut to M.precision
        rank, divisors = certified_rank(M)
        sf = smith_form(M)
        assert divisors == sf.divisors
        assert rank == sf.rank == rank_below(sf.divisors, M.precision)

    @settings(max_examples=60, deadline=None)
    @given(elimination_inputs(square_corank_one=True))
    @example(_zero_in_pivot_column())
    def test_correspond_carries_transposed_smith_form(self, X):
        try:
            pm = from_matrix(X)
        except (RankCertificationError, PrecisionError):
            assume(False)
        n = pm.n
        pt = correspond(pm)
        sf = pt.smith
        f = X.field
        D = sf.L * pt.X * sf.R
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert D.rows[i][j].is_zero_at_precision()
                elif i < sf.rank:
                    assert D.rows[i][i].approx_equal(sf.pivots[i])
                else:
                    assert D.rows[i][i].is_zero_at_precision()
        assert (sf.L * sf.Linv).approx_equal(PadicMatrix.identity(f, n))
        assert (sf.R * sf.Rinv).approx_equal(PadicMatrix.identity(f, n))
        assert sf.divisors == pm.divisors

        g, h = fil_G(pt), fil_H(pm)
        assert len(g.basis.rows) == len(h.basis.rows) == n
        for rg, rh in zip(g.basis.rows, h.basis.rows):
            assert all(_same_element(x, y) for x, y in zip(rg, rh))
        assert all(_same_element(x, y) for x, y in zip(g.normal, h.normal))

    def test_zero_below_a_pivot_caps_the_kernel_covector(self):
        # X is cut to its precision 8, and the elimination leaves 0 + O(2^8)
        # below the pivot 12(1 + w) of valuation 2, so the factor 0 / pivot
        # is known mod 2^6 only, and so is the covector's last entry, -128:
        # a claim of 2^8 excludes the kernel
        X = _zero_in_pivot_column()
        pm = from_matrix(X)
        assert pm.divisors == [-3, -1, 2, AtLeast(8)]
        normal = fil_G(pm).normal
        kernel = [0, 0, 1, -128]
        assert all((x - k).is_zero_at_precision() for x, k in zip(normal, kernel))
        assert normal[3].abs_precision == 6


@st.composite
def sparse_entries(draw, f, w_part=True, max_shift=3):
    """An entry at precision 2, 6 or 10: often zero, sometimes p-divisible,
    with a denominator up to p^max_shift and, if ``w_part``, maybe a w-part."""
    p = f.p
    N = draw(st.sampled_from([2, 6, 10]))
    if draw(st.integers(0, 2)) == 0:
        return f.zero(N)
    v = draw(st.sampled_from([0, 0, 1, 3]))
    coeffs = [draw(st.integers(0, p ** N - 1)) * p ** v for _ in range(f.m)]
    if not w_part or draw(st.booleans()):
        coeffs[1:] = [0] * (f.m - 1)
    shift = draw(st.integers(0, max_shift)) if draw(st.booleans()) else 0
    return f.from_coeffs(coeffs, N, shift)


def _random_entry(rng, f, zero_percent, precisions, max_shift):
    """Like sparse_entries, drawn from ``rng``: zero with the given chance."""
    p, N = f.p, rng.choice(precisions)
    if rng.randrange(100) < zero_percent:
        return f.zero(N)
    v = rng.choice([0, 0, 1, 3])
    coeffs = [rng.randrange(p ** N) * p ** v for _ in range(f.m)]
    if rng.random() < 0.5:
        coeffs[1:] = [0] * (f.m - 1)
    shift = rng.randint(0, max_shift) if rng.random() < 0.3 else 0
    return f.from_coeffs(coeffs, N, shift)


def _profile(rng):
    """Precisions and largest shift of one random matrix: mixed precisions
    make the caps of skipped products bind, shifts give e(x) < 0, and
    precision 2 with shift 3 leaves products without significant digits."""
    return rng.choice([[10], [6, 10], [2, 6, 10]]), rng.choice([0, 1, 3])


def _random_matrix(rng, f, r, c, zero_percent):
    """Sometimes one row and one column are all zero."""
    precisions, max_shift = _profile(rng)
    rows = [[_random_entry(rng, f, zero_percent, precisions, max_shift) for _ in range(c)]
            for _ in range(r)]
    if rng.random() < 0.5:
        i, j = rng.randrange(r), rng.randrange(c)
        rows[i] = [f.zero(rng.choice(precisions)) for _ in range(c)]
        for row in rows:
            row[j] = f.zero(rng.choice(precisions))
    return PadicMatrix(f, rows)


def _permutation_like(rng, f, n):
    """n x n with one nonzero entry per row and per column, like the
    Frobenius of build_DG."""
    precisions, max_shift = _profile(rng)
    cols = list(range(n))
    rng.shuffle(cols)
    rows = [[f.zero(rng.choice(precisions)) for _ in range(n)] for _ in range(n)]
    for i, j in enumerate(cols):
        rows[i][j] = _random_entry(rng, f, 0, precisions, max_shift)
    return PadicMatrix(f, rows)


@st.composite
def sparse_products(draw):
    """(A, B) over Q_2, Q_4 or Q_8: up to 9 x 9 with 0-95 % zeros, or two
    16 x 16 permutation-like matrices (the shape of build_DG(4))."""
    f = make_field_cached(2, draw(st.sampled_from([1, 2, 3])), PREC)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.integers(0, 4)) == 0:
        return _permutation_like(rng, f, 16), _permutation_like(rng, f, 16)
    r, k, c = (draw(st.integers(1, 9)) for _ in range(3))
    zero_percent = draw(st.sampled_from([0, 33, 80, 90, 95]))
    return _random_matrix(rng, f, r, k, zero_percent), _random_matrix(rng, f, k, c, zero_percent)


@st.composite
def square_matrices(draw, in_zp):
    """Square matrices over Q_2, Q_4 or Q_8; with ``in_zp`` every entry
    lies in Z_p."""
    f = make_field_cached(2, draw(st.sampled_from([1, 2, 3])), PREC)
    n = draw(st.integers(1, 5))
    entries = sparse_entries(f, w_part=not in_zp, max_shift=0 if in_zp else 3)
    return PadicMatrix(f, [[draw(entries) for _ in range(n)] for _ in range(n)])


def _dense_dot(row, col):
    """Every product formed, then folded left to right."""
    acc = row[0] * col[0]
    for a, b in zip(row[1:], col[1:]):
        acc = acc + a * b
    return acc


def _dense_product(A, B):
    """Reference A*B by dense folds."""
    return [[_dense_dot(row, col) for col in zip(*B.rows)] for row in A.rows]


def _dense_berkowitz_padic(M):
    """Reference charpoly: the division-free loop with dense folds."""
    A, n = M.rows, M.nrows
    one, zero = M.field.one(M.precision), M.field.zero(M.precision)
    vec = [one]
    for i in range(1, n + 1):
        Rrow = A[i - 1][: i - 1]
        Msub = [row[: i - 1] for row in A[: i - 1]]
        T = [one, zero - A[i - 1][i - 1]]
        cur = [A[t][i - 1] for t in range(i - 1)]
        for _ in range(i - 1):
            T.append(zero - _dense_dot(Rrow, cur))
            cur = [zero + _dense_dot(row, cur) for row in Msub]
        vec = [
            sum((T[t] * vec[s - t] for t in range(min(s, len(T) - 1) + 1) if s - t < len(vec)), zero)
            for s in range(i + 1)
        ]
    return list(reversed(vec))


def _element_loop(M):
    """charpoly(M) by the Berkowitz loop on the element ring, whatever the
    entries (``charpoly`` takes the integer ring for a Z_p matrix)."""
    N = M.precision
    return _berkowitz(M.rows, M.field.zero(N), M.field.one(N))


def _dense_berkowitz_int(A, mod, n):
    """Reference integer Berkowitz: every row summed over all columns."""
    vec = [1]
    for i in range(1, n + 1):
        Rrow = A[i - 1][: i - 1]
        Msub = [row[: i - 1] for row in A[: i - 1]]
        T = [1, (-A[i - 1][i - 1]) % mod]
        cur = [A[t][i - 1] for t in range(i - 1)]
        for _ in range(i - 1):
            T.append((-sum(x * y for x, y in zip(Rrow, cur))) % mod)
            cur = [sum(x * y for x, y in zip(row, cur)) % mod for row in Msub]
        vec = [
            sum(T[t] * vec[s - t] for t in range(min(s, len(T) - 1) + 1) if s - t < len(vec)) % mod
            for s in range(i + 1)
        ]
    return list(reversed(vec))


def _horner_frobenius(x):
    """sigma(x) by evaluating x's coefficients at the image of w."""
    f = x.field
    g = f.frobenius_poly(x.abs_precision + x.shift)
    mod = f.p ** (x.abs_precision + x.shift)
    img = _poly_eval_poly(list(x.coeffs), g, list(f.modulus), mod)
    return PadicElement(f, img + [0] * (f.m - len(img)), x.shift, x.abs_precision)


class TestSkippedZeros:
    """Zero entries, Q_p entries and Z_p matrices take shortcuts that must
    give the same element as the general arithmetic, field by field."""

    @settings(max_examples=200, deadline=None)
    @given(sparse_products())
    def test_product_matches_dense_fold(self, AB):
        A, B = AB
        try:
            expected = _dense_product(A, B)
        except PrecisionError:
            with pytest.raises(PrecisionError):
                A * B
            return
        got = (A * B).rows
        for rg, rd in zip(got, expected):
            assert all(_same_element(x, y) for x, y in zip(rg, rd))

    @settings(max_examples=100, deadline=None)
    @given(sparse_products())
    def test_only_nonzero_pairs_multiplied_in_increasing_t(self, AB):
        A, B = AB
        where = {id(x.coeffs): ("a", i, t) for i, row in enumerate(A.rows)
                 for t, x in enumerate(row)}
        where.update({id(x.coeffs): ("b", t, j) for t, row in enumerate(B.rows)
                      for j, x in enumerate(row)})
        formed = {}
        mul = padic._mul_coeffs

        def recording_mul(f, a, b):
            (sa, i, t), (sb, t2, j) = where[id(a)], where[id(b)]
            assert (sa, sb) == ("a", "b") and t == t2
            formed.setdefault((i, j), []).append(t)
            return mul(f, a, b)

        with mock.patch.object(padic, "_mul_coeffs", recording_mul):
            try:
                A * B
            except PrecisionError:
                return
        for i, row in enumerate(A.rows):
            for j, col in enumerate(zip(*B.rows)):
                expected = [t for t, (a, b) in enumerate(zip(row, col))
                            if not a.is_zero_at_precision() and not b.is_zero_at_precision()]
                assert formed.get((i, j), []) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.booleans().flatmap(square_matrices))
    def test_generic_loop_matches_dense_folds(self, M):
        out = _same_outcome(_dense_berkowitz_padic, _element_loop, M)
        if out:
            assert all(_same_element(x, y) for x, y in zip(*out, strict=True))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 25), st.sampled_from([0, 50, 80, 95, "shear"]),
           st.randoms(use_true_random=False))
    def test_sparse_integer_berkowitz_matches_dense_rows(self, n, zero_percent, rng):
        # the integer kernel, Hessenberg reduction and recurrence, against
        # the dense loop: 2^32 and 3^20 at n <= 9; 2^14 at n <= 25 is the
        # slopes benchmark's Q_2 input, dense or a shear conjugate of a
        # scaled permutation
        p, N = rng.choice([(2, 32), (3, 20), (2, 14)])
        mod = p ** N
        if mod != 2 ** 14:
            n = min(n, 9)
        if zero_percent == "shear":
            perm = rng.sample(range(n), n)
            A = [[rng.choice([1, 2]) if j == perm[i] else 0 for j in range(n)] for i in range(n)]
            for _ in range(12):
                i, j, c = rng.randrange(n), rng.randrange(n), rng.randrange(1, 8)
                if i != j:
                    for k in range(n):  # row_i += c * row_j, then col_j -= c * col_i
                        A[i][k] = (A[i][k] + c * A[j][k]) % mod
                    for k in range(n):
                        A[k][j] = (A[k][j] - c * A[k][i]) % mod
        else:
            A = [[0 if rng.randrange(100) < zero_percent else rng.randrange(mod)
                  for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.5:
                A[rng.randrange(n)] = [0] * n
        assert padic._hessenberg_charpoly(A, p, N) == _dense_berkowitz_int(A, mod, n)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(
        lambda m: sparse_entries(make_field_cached(2, m, PREC))), st.integers(-4, 7))
    def test_frobenius_iterate_is_repeated_frobenius(self, x, k):
        y = x
        for _ in range(k % x.field.m):
            y = y.frobenius()
        assert _same_element(x.frobenius_iterate(k), y)

    @settings(max_examples=200, deadline=None)
    @given(st.booleans().flatmap(square_matrices))
    def test_charpoly_matches_generic_loop(self, M):
        try:
            expected = _element_loop(M)
        except PrecisionError:
            with pytest.raises(PrecisionError):
                charpoly(M)
            return
        got = charpoly(M)
        assert len(got) == len(expected) == M.nrows + 1
        assert all(_same_element(x, y) for x, y in zip(got, expected))

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(
        lambda m: sparse_entries(make_field_cached(2, m, PREC), w_part=False)))
    def test_frobenius_fixes_qp(self, x):
        assert _same_element(x.frobenius(), _horner_frobenius(x))


# (p, m, m_big) of a subfield and a field that contains it, both at TABLE_PREC
TABLE_FIELDS = [(p, m, mb) for p in (2, 3) for m, mb in ((2, 4), (3, 6), (4, 4), (6, 6))]
TABLE_PREC = 8


def _int_valuation(c, p):
    v = 0
    while not c % p:
        c //= p
        v += 1
    return v


def _horner_embedding(x, big, gen):
    """x = p^-s * sum c_i w^i embedded by Horner: p^-s * sum c_i g^i mod
    (modulus, p^(N+s)) at N = min(N_x, N_g + v(c_i) - s over i >= 1 with
    c_i != 0)."""
    s, p = x.shift, big.p
    N = min([x.abs_precision] + [
        gen.abs_precision + _int_valuation(c, p) - s for c in x.coeffs[1:] if c])
    if N < 1:
        raise PrecisionError("embedding has no significant digits")
    acc = _poly_eval_poly(list(x.coeffs), list(gen.coeffs), list(big.modulus), p ** (N + s))
    return PadicElement(big, acc + [0] * (big.m - len(acc)), s, N)


@st.composite
def table_elements(draw, f):
    """An element of f with a w-part, at precision 2, 5, 8 (the field's) or
    12 (above it), shift 0-3 and maybe p-divisible coefficients."""
    p = f.p
    N, shift = draw(st.sampled_from([2, 5, 8, 12])), draw(st.integers(0, 3))
    v = draw(st.sampled_from([0, 0, 1, 3]))
    coeffs = [draw(st.integers(0, p ** (N + shift) - 1)) * p ** v for _ in range(f.m)]
    coeffs[draw(st.integers(1, f.m - 1))] = draw(st.integers(1, p ** N - 1))
    return f.from_coeffs(coeffs, N, shift)


@st.composite
def table_cases(draw):
    """(x, y, big, gen): two elements of a subfield, the field over it and
    the generator's image known to 3, 5 or 8 digits, or to 12 (above big's)."""
    p, m, mb = draw(st.sampled_from(TABLE_FIELDS))
    f, big = make_field_cached(p, m, TABLE_PREC), make_field_cached(p, mb, TABLE_PREC)
    Ng = draw(st.sampled_from([3, 5, 8, 12]))
    gen = field_embedding(f, make_field_cached(p, mb, max(Ng, TABLE_PREC)))
    gen = PadicElement(big, gen.coeffs, 0, Ng)
    return draw(table_elements(f)), draw(table_elements(f)), big, gen


class TestLinearTables:
    """sigma and the field embedding apply a kept table of powers; they
    give Horner's element field by field, and the embedding's precision is
    one it knows."""

    @settings(max_examples=150, deadline=None)
    @given(table_cases(), st.integers(-2, 7))
    def test_frobenius_matches_horner(self, case, k):
        x = case[0]
        assert _same_element(x.frobenius(), _horner_frobenius(x))
        y = x
        for _ in range(k % x.field.m):
            y = _horner_frobenius(y)
        assert _same_element(x.frobenius_iterate(k), y)

    @settings(max_examples=150, deadline=None)
    @given(table_cases())
    def test_embedding_matches_horner(self, case):
        x, _, big, gen = case
        out = _same_outcome(_horner_embedding, embed_element, x, big, gen)
        if out:
            assert _same_element(*out)

    @settings(max_examples=150, deadline=None)
    @given(table_cases())
    def test_embedding_is_a_ring_map_at_its_precision(self, case):
        x, y, big, gen = case
        # the generator's image to 12 digits agrees with gen's to its precision
        fine = field_embedding(x.field, make_field_cached(big.p, big.m, 12))
        fine = PadicElement(big, fine.coeffs, 0, 12)
        try:
            ex = embed_element(x, big, gen)
        except PrecisionError:
            return
        fx = embed_element(x, big, fine)
        assert fx.abs_precision >= ex.abs_precision
        assert _same_element(big.from_coeffs(fx.coeffs, ex.abs_precision, fx.shift), ex)
        try:
            ey = embed_element(y, big, gen)
            assert embed_element(x * y, big, gen).approx_equal(ex * ey)
            assert embed_element(x + y, big, gen).approx_equal(ex + ey)
        except PrecisionError:
            return

    def test_shifted_embedding_keeps_its_digits(self):
        # p^-1 (1 + w) + O(2^32) in Q_4 is known to 31 digits in Q_16
        small, big = make_field_cached(2, 2, 32), make_field_cached(2, 4, 32)
        x = small.from_coeffs([1, 1], 32, 1)
        img = embed_element(x, big, field_embedding(small, big))
        assert img.abs_precision == 31 and img.valuation() == -1

    def test_tables_are_built_once(self):
        # sigma keeps one table per precision in the cache of every field map
        f = make_field(3, 4, TABLE_PREC)
        padic._map_table.cache_clear()
        f.generator().frobenius()
        assert padic._map_table.cache_info().misses == 1
        f.from_coeffs([1, 2, 3, 4]).frobenius()
        assert padic._map_table.cache_info().misses == 1
        above = f.from_coeffs([1, 2, 3, 4], TABLE_PREC + 4)
        above.frobenius()
        assert padic._map_table.cache_info().misses == 2
        above.frobenius()
        assert padic._map_table.cache_info().misses == 2


def _trimmed(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _per_term_poly_mul(a, b, mod):
    """Reference product: every term added and reduced mod ``mod`` at once."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % mod
    return _trimmed(out)


def _per_term_poly_rem(a, f, mod):
    """Reference remainder by monic f: every term of f reduced at once."""
    a = list(a)
    df = len(f) - 1
    while len(a) - 1 >= df:
        c = a[-1] % mod
        k = len(a) - 1 - df
        if c:
            for i in range(df + 1):
                a[k + i] = (a[k + i] - c * f[i]) % mod
        a.pop()
    return _trimmed(a)


def _per_term_poly_mulmod(a, b, f, mod):
    return _per_term_poly_rem(_per_term_poly_mul(a, b, mod), f, mod)


def _e(x):
    """The exact valuation of x, or its precision N if it reads AtLeast(N)."""
    v = x.valuation()
    return v if is_exact(v) else v.n


def _reference_mul(x, y):
    """x*y as a polynomial product mod (f, p^(N+s)), whatever the factors."""
    f = x.field
    N = min(x.abs_precision + _e(y), y.abs_precision + _e(x))
    if N < 1:
        raise PrecisionError("product has no significant digits")
    s = x.shift + y.shift
    prod = _per_term_poly_mulmod(list(x.coeffs), list(y.coeffs), list(f.modulus), f.p ** (N + s))
    return PadicElement(f, prod + [0] * (f.m - len(prod)), s, N)


def _reference_inverse(x):
    """1/x with the unit part inverted by _poly_inverse, whatever the unit."""
    f, p = x.field, x.field.p
    v = x.valuation()
    if not is_exact(v):
        raise ZeroDivisionError("element indistinguishable from zero")
    rel, N = x.abs_precision - v, x.abs_precision - 2 * v
    if N < 1 or rel < 1:
        raise PrecisionError("inverse has no significant digits")
    unit = [c // p ** (v + x.shift) for c in x.coeffs]
    inv = _poly_inverse(unit, list(f.modulus), p, rel)
    inv = inv + [0] * (f.m - len(inv))
    shift = max(v, 0)
    return PadicElement(f, [c * p ** (shift - v) for c in inv], shift, N)


def _reference_quotient(x, y):
    """x/y at precision min(N_x - v_y, N_y - 2v_y + e(x)): x times the
    inverse of a lift of y with more digits, cut back to that precision."""
    v = y.valuation()
    if not is_exact(v):
        raise ZeroDivisionError("element indistinguishable from zero")
    N = min(x.abs_precision - v, y.abs_precision - 2 * v + _e(x))
    if N < 1:
        raise PrecisionError("product has no significant digits")
    lift = PadicElement(y.field, y.coeffs, y.shift, y.abs_precision + 2 * abs(v) + 2)
    q = x * lift.inverse()
    return PadicElement(y.field, q.coeffs, q.shift, N)


def _reference_smith(M):
    """Smith-style reduction dividing by the pivot at every entry it clears,
    zero entries included: x / pivot for a zero x caps what it touches."""
    f, r, c, N = M.field, M.nrows, M.ncols, M.precision
    work = [row[:] for row in M.rows]
    L, Linv = PadicMatrix.identity(f, r, N).rows, PadicMatrix.identity(f, r, N).rows
    R, Rinv = PadicMatrix.identity(f, c, N).rows, PadicMatrix.identity(f, c, N).rows
    divisors, pivots = [], []
    for k in range(min(r, c)):
        cands = [(work[i][j].valuation(), i, j) for i in range(k, r) for j in range(k, c)]
        cands = [t for t in cands if is_exact(t[0])]
        if not cands:
            break
        v, bi, bj = min(cands, key=lambda t: t[0])
        work[k], work[bi] = work[bi], work[k]
        L[k], L[bi] = L[bi], L[k]
        for row in Linv:
            row[k], row[bi] = row[bi], row[k]
        for row in work + R:
            row[k], row[bj] = row[bj], row[k]
        Rinv[k], Rinv[bj] = Rinv[bj], Rinv[k]
        pivot = work[k][k]
        for i in range(k + 1, r):
            fct = work[i][k] / pivot
            for j in range(k, c):
                work[i][j] = work[i][j] - fct * work[k][j]
            for j in range(r):
                L[i][j] = L[i][j] - fct * L[k][j]
                Linv[j][k] = Linv[j][k] + fct * Linv[j][i]
        for j in range(k + 1, c):
            fct = work[k][j] / pivot
            for i in range(r):
                work[i][j] = work[i][j] - work[i][k] * fct
            for i in range(c):
                R[i][j] = R[i][j] - R[i][k] * fct
            for jj in range(c):
                Rinv[k][jj] = Rinv[k][jj] + fct * Rinv[j][jj]
        divisors.append(v)
        pivots.append(pivot)
    divisors += [AtLeast(N)] * (min(r, c) - len(divisors))
    return divisors, pivots, (L, Linv, R, Rinv)


def _reference_smith_cut(M):
    """_reference_smith of M cut to M.precision: smith_form(M)'s contract."""
    return _reference_smith(cut(M, M.precision))


SCALAR_DEGREES = [1, 2, 3, 6]  # Q_2, Q_4, Q_8, Q_64


def _scalar_field(draw):
    return make_field_cached(2, draw(st.sampled_from(SCALAR_DEGREES)), PREC)


@st.composite
def qp_pairs(draw):
    """(element of Q_p, any element) of one field, each as sparse_entries."""
    f = _scalar_field(draw)
    return draw(sparse_entries(f, w_part=False)), draw(sparse_entries(f))


@st.composite
def any_entries(draw):
    return draw(sparse_entries(_scalar_field(draw)))


@st.composite
def entry_pairs(draw):
    f = _scalar_field(draw)
    return draw(sparse_entries(f)), draw(sparse_entries(f))


@st.composite
def sparse_matrices(draw, square=False):
    """r x c matrices of sparse_entries: many zeros, precisions 2/6/10, so
    a pivot often has no significant inverse digits."""
    f = _scalar_field(draw)
    r = draw(st.integers(1, 4))
    c = r if square else draw(st.integers(1, 4))
    return PadicMatrix(f, [[draw(sparse_entries(f)) for _ in range(c)] for _ in range(r)])


@st.composite
def coarse_matrices(draw):
    """Up to 4 x 4 over Q_{p^m}, p in {2, 3}, m <= 3, entries at precision
    1..10 (often 1..3), with shifts 0..3 and zeros."""
    f = make_field_cached(draw(st.sampled_from([2, 3])), draw(st.integers(1, 3)), PREC)
    p = f.p

    def entry():
        N = draw(st.one_of(st.integers(1, 3), st.integers(1, PREC)))
        if draw(st.integers(0, 3)) == 0:
            return f.zero(N)
        v = draw(st.sampled_from([0, 0, 1, 2]))
        coeffs = [draw(st.integers(0, p ** N - 1)) * p ** v for _ in range(f.m)]
        return f.from_coeffs(coeffs, N, draw(st.sampled_from([0, 0, 1, 3])))

    r, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return PadicMatrix(f, [[entry() for _ in range(c)] for _ in range(r)])


@st.composite
def poly_inputs(draw):
    """Two polynomials with reduced, unreduced and zero coefficients, a
    monic modulus with zero terms, and a prime-power modulus."""
    p = draw(st.sampled_from([2, 3, 5]))
    mod = p ** draw(st.integers(1, 12))
    coeff = st.one_of(st.just(0), st.integers(0, mod - 1), st.integers(0, mod * p ** 3))
    a, b = (draw(st.lists(coeff, max_size=8)) for _ in range(2))
    f = draw(st.lists(st.one_of(st.just(0), st.integers(0, mod - 1)), max_size=6)) + [1]
    return a, b, f, mod


@st.composite
def unit_inverse_inputs(draw):
    """(a, f, p, M): f the modulus of Q_{p^m}, a of degree < m with
    negative and unreduced coefficients, all of them divisible by p about
    half the time."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    f = list(make_field_cached(p, draw(st.integers(2, 8)), PREC).modulus)
    M = draw(st.integers(1, 40))
    bound = p ** (M + 1)
    a = draw(st.lists(st.integers(-bound, bound), min_size=1, max_size=len(f) - 1))
    if draw(st.booleans()):
        a = [x * p for x in a]
    return a, f, p, M


def _plain_valuation(x):
    """v(x) of a nonzero x from its coefficients by repeated division."""
    p, vals = x.field.p, []
    for c in x.coeffs:
        if c:
            v = 0
            while c % p == 0:
                c //= p
                v += 1
            vals.append(v)
    return min(vals) - x.shift


TRANSFORMS = ("L", "Linv", "R", "Rinv")


def _same_rows(ref, got):
    return all(_same_element(x, y) for rr, rg in zip(ref, got.rows, strict=True)
               for x, y in zip(rr, rg, strict=True))


def _check_reduce_against_reference(M, order=TRANSFORMS):
    """smith_form(M) equals _reference_smith_cut(M) field by field, or both
    raise PrecisionError; every exact divisor is the valuation of its pivot,
    read from the pivot's coefficients.  The transforms are read in
    ``order``, and each one alone from a fresh form: they are built on
    first read, and no order may change them.  certified_rank(M) gives the
    same divisors, types included (an AtLeast is never equal to an int)."""
    _, divisors = certified_rank(M)
    out = _same_outcome(_reference_smith_cut, smith_form, M)
    if out is None:
        return
    (div, piv, mats), sf = out
    assert sf.divisors == div == divisors
    assert all(_same_element(x, y) for x, y in zip(sf.pivots, piv, strict=True))
    ref = dict(zip(TRANSFORMS, mats, strict=True))
    for name in order:
        assert _same_rows(ref[name], getattr(sf, name))
    for name in TRANSFORMS:
        assert _same_rows(ref[name], getattr(smith_form(M), name))
    assert [_plain_valuation(x) for x in sf.pivots] == [d for d in div if is_exact(d)]


def _reference_matrix_inverse(M):
    """R * D^-1 * L from _reference_smith_cut, by element inverses of the
    pivots and dense folds of element products."""
    f, n = M.field, M.nrows
    div, piv, (L, _, R, _) = _reference_smith_cut(M)
    if not all(is_exact(d) for d in div):
        raise ZeroDivisionError("matrix not invertible at precision")
    Dinv = PadicMatrix.zero(f, n, n, M.precision)
    for k, x in enumerate(piv):
        Dinv.rows[k][k] = x.inverse()
    RD = PadicMatrix(f, _dense_product(PadicMatrix(f, R), Dinv))
    return PadicMatrix(f, _dense_product(RD, PadicMatrix(f, L)))


def _same_outcome(reference, fast, *args):
    """fast(*args) equals reference(*args) field by field, or both raise the
    same exception type."""
    try:
        expected = reference(*args)
    except (PrecisionError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            fast(*args)
        return None
    got = fast(*args)
    return expected, got


class TestQpScalars:
    """Q_p factors, Z_p units, single-reduction polynomial arithmetic and
    one pivot inverse per elimination step give what the general
    arithmetic gives, field by field."""

    @settings(max_examples=300, deadline=None)
    @given(qp_pairs())
    def test_product_with_qp_factor(self, pair):
        x, y = pair
        for a, b in ((x, y), (y, x)):
            out = _same_outcome(_reference_mul, lambda u, v: u * v, a, b)
            if out:
                assert _same_element(*out)

    @settings(max_examples=300, deadline=None)
    @given(any_entries())
    def test_inverse_matches_poly_inverse(self, x):
        out = _same_outcome(_reference_inverse, lambda u: u.inverse(), x)
        if out:
            assert _same_element(*out)

    @settings(max_examples=300, deadline=None)
    @given(entry_pairs())
    def test_quotient_where_the_inverse_may_have_no_digits(self, pair):
        x, y = pair
        out = _same_outcome(_reference_quotient, lambda u, w: u / w, x, y)
        if out:
            assert _same_element(*out)
        try:
            expected = x * y.inverse()
        except (PrecisionError, ZeroDivisionError):
            return
        assert _same_element(x / y, expected)

    @settings(max_examples=300, deadline=None)
    @given(poly_inputs())
    def test_single_reduction_polynomials(self, inputs):
        a, b, f, mod = inputs
        reduced = _per_term_poly_mul(a, b, mod)
        assert _trimmed([x % mod for x in _poly_mul(a, b)]) == reduced
        for r in (reduced, _poly_mul(a, b), a + b):
            assert _poly_rem(r, f, mod) == _per_term_poly_rem([x % mod for x in r], f, mod)
        assert _poly_mulmod(a, b, f, mod) == _per_term_poly_mulmod(a, b, f, mod)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_product_kernel_matches_per_term_product(self, data):
        # every field Q_{p^m}, p in {2, 3, 5, 7} and m <= 8, on factors with
        # zero, negative and unreduced coefficients
        for p, m in itertools.product([2, 3, 5, 7], range(1, 9)):
            f = make_field_cached(p, m, PREC)
            mod = p ** data.draw(st.integers(1, 40))
            coeff = st.one_of(st.just(0), st.integers(-mod * p, mod * p))
            a, b = (data.draw(st.lists(coeff, min_size=m, max_size=m)) for _ in range(2))
            expected = _per_term_poly_mulmod(a, b, list(f.modulus), mod)
            expected += [0] * (m - len(expected))
            for got in (f.product_kernel(a, b), padic._mul_coeffs(f, a, b)):
                assert [x % mod for x in got] == expected

    @settings(max_examples=400, deadline=None)
    @given(unit_inverse_inputs())
    def test_poly_inverse_is_an_inverse(self, inputs):
        # checked by the per-term product, not against _poly_inverse itself:
        # a is a unit exactly when some coefficient is prime to p, as f is
        # irreducible mod p
        a, f, p, M = inputs
        mod = p ** M
        if all(x % p == 0 for x in a):
            with pytest.raises(ZeroDivisionError):
                _poly_inverse(a, f, p, M)
            return
        z = _poly_inverse(a, f, p, M)
        assert len(z) < len(f) and all(0 <= x < mod for x in z)
        assert _per_term_poly_mulmod(a, z, f, mod) == [1]

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(sparse_matrices(), elimination_inputs()), st.permutations(TRANSFORMS))
    def test_elimination_matches_division_per_entry(self, M, order):
        _check_reduce_against_reference(M, order)

    @settings(max_examples=300, deadline=None)
    @given(coarse_matrices())
    def test_every_returned_form_builds_its_transforms(self, M):
        # smith_form raises exactly where the eager reference of the cut M
        # does, and a form it returns builds every transform without raising
        out = _same_outcome(_reference_smith_cut, smith_form, M)
        for name in TRANSFORMS if out else ():
            getattr(out[1], name)

    @settings(max_examples=200, deadline=None)
    @given(sparse_matrices(square=True))
    def test_matrix_inverse_matches_element_fold(self, M):
        out = _same_outcome(_reference_matrix_inverse, PadicMatrix.inverse, M)
        if out:
            assert _same_rows(out[0].rows, out[1])

    def test_entry_without_digits_raises_inside_smith_form(self):
        # at M.precision = 0 the identity has no digit: smith_form raises on
        # entry, and the eager reference at its first transform update
        f = make_field_cached(2, 2, PREC)
        M = PadicMatrix.from_ints(f, [[1, 0, 0], [1, 0, 0], [0, 0, 0]])
        M.rows[2][2] = f.zero(0)
        with pytest.raises(PrecisionError, match="matrix has no significant digits"):
            smith_form(M)
        with pytest.raises(PrecisionError, match="product has no significant digits"):
            _reference_smith(M)

    def test_inverse_where_only_the_kept_inverse_lacks_digits(self):
        # 2/2 = 1 + O(2) clears the column at N = 2, but 1/2 has no digit
        f = make_field_cached(2, 1, 2)
        M = PadicMatrix.from_ints(f, [[2, 2], [2, 0]], 2)
        assert smith_form(M).divisors == [1, 1]
        with pytest.raises(PrecisionError, match="inverse has no significant digits"):
            M.inverse()
        # at one precision no later pivot has a smaller valuation, so none
        # has an inverse digit that a kept inverse lacks: cut to 2, the
        # 4 + O(2^10) beside 2 + O(2^2) is zero, and M is singular there
        g = make_field_cached(2, 1, PREC)
        M = PadicMatrix(g, [[g.from_int(2, 2), g.zero(10)], [g.from_int(2, 10), g.from_int(4, 10)]])
        assert smith_form(M).divisors == certified_rank(M)[1] == [1, AtLeast(2)]
        with pytest.raises(ZeroDivisionError, match="matrix not invertible at precision"):
            M.inverse()
        inv = PadicMatrix.from_ints(f, [[2, 2], [2, 0]], 4).inverse()
        half = f.from_coeffs([1], 2, 1)
        assert _same_rows([[f.zero(2), half], [half, -half]], inv)

    def test_pivot_without_inverse_digits_and_nothing_to_clear(self):
        # v(8) = 3 at precision 4: 1/8 would have precision 4 - 6 < 1
        f = make_field_cached(2, 2, PREC)
        x, zero = f.from_coeffs([8], 4), f.zero(4)
        with pytest.raises(PrecisionError):
            x.inverse()
        M = PadicMatrix(f, [[zero, zero], [zero, x]])
        sf = smith_form(M)
        assert sf.divisors == _reference_smith_cut(M)[0] == [3, AtLeast(4)]
        assert _same_element(sf.pivots[0], x)
        assert sf.pivots_invertible
        # 8 needs clearing: 8 / 8 = 1 + O(2^1) has a digit that 1/8 lacks
        N = PadicMatrix(f, [[x, x]])
        assert _same_element(x / x, f.one(1))
        assert smith_form(N).divisors == _reference_smith_cut(N)[0] == [3]
        assert not smith_form(N).pivots_invertible
        assert certified_rank(N) == (1, [3])


@st.composite
def odd_p_entries(draw, f):
    """An entry over Q_3.. or Q_5..: precision 2..PREC, often zero or
    p-divisible, shift 0-3, sometimes without w-part."""
    p, N = f.p, draw(st.integers(2, PREC))
    if draw(st.integers(0, 3)) == 0:
        return f.zero(N)
    v = draw(st.sampled_from([0, 0, 1, 2, 3]))
    coeffs = [draw(st.integers(0, p ** N - 1)) * p ** v for _ in range(f.m)]
    if draw(st.booleans()):
        coeffs[1:] = [0] * (f.m - 1)
    return f.from_coeffs(coeffs, N, draw(st.sampled_from([0, 0, 1, 2, 3])))


@st.composite
def odd_p_matrices(draw):
    """r x c matrices over Q_{p^m}, p in {3, 5}, m in {1, 2, 3}; or, half
    of the time, a product A*B through a smaller inner dimension, whose
    rank is deficient."""
    p, m = draw(st.sampled_from([3, 5])), draw(st.sampled_from([1, 2, 3]))
    f = make_field_cached(p, m, PREC)
    r, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entries = odd_p_entries(f)
    if min(r, c) == 1 or draw(st.booleans()):
        return PadicMatrix(f, [[draw(entries) for _ in range(c)] for _ in range(r)])
    k = draw(st.integers(1, min(r, c) - 1))
    A = PadicMatrix(f, [[draw(entries) for _ in range(k)] for _ in range(r)])
    B = PadicMatrix(f, [[draw(entries) for _ in range(c)] for _ in range(k)])
    try:
        return A * B
    except PrecisionError:
        assume(False)


class TestOddPrimeElimination:
    """The elimination kernel's valuation for p != 2, against the reference
    elimination and against valuations read off the pivots' coefficients."""

    @settings(max_examples=200, deadline=None)
    @given(odd_p_matrices(), st.permutations(TRANSFORMS))
    def test_matches_reference_per_entry(self, M, order):
        _check_reduce_against_reference(M, order)


def _int_det(A):
    """Determinant of a square integer matrix by cofactor expansion."""
    if len(A) == 1:
        return A[0][0]
    return sum((-1) ** j * A[0][j] * _int_det([row[:j] + row[j + 1:] for row in A[1:]])
               for j in range(len(A)))


def _vp(n, p):
    """v_p of a nonzero integer."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def _smith_oracle(A, p):
    """p-adic valuations of the Smith invariants of the integer matrix A over
    Z, None for a zero invariant: d_k is the gcd of the k x k minors and the
    k-th invariant is d_k / d_(k-1)."""
    r, c = len(A), len(A[0])
    d = [1]
    for k in range(1, min(r, c) + 1):
        g = 0
        for rows in itertools.combinations(range(r), k):
            for cols in itertools.combinations(range(c), k):
                g = math.gcd(g, _int_det([[A[i][j] for j in cols] for i in rows]))
        d.append(g)
    return [None if d[k] == 0 else _vp(d[k], p) - _vp(d[k - 1], p) for k in range(1, len(d))]


@st.composite
def integer_matrices(draw):
    """(p, rows): up to 4 x 4 integer matrices, p in {2, 3}, entries often
    p-divisible, sometimes of deficient rank (a repeated or doubled row)."""
    p = draw(st.sampled_from([2, 3]))
    r, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = st.builds(lambda u, e: u * p ** e, st.integers(-30, 30),
                      st.sampled_from([0, 0, 1, 2, 5]))
    rows = [[draw(entry) for _ in range(c)] for _ in range(r)]
    if r > 1 and draw(st.booleans()):
        rows[-1] = [x * draw(st.sampled_from([1, p, -p ** 2])) for x in rows[0]]
    return p, rows


def _mulmod(a, b, modulus):
    """a * b in Z[w]/(modulus), for coefficient lists of length m and the
    monic modulus given by its m + 1 coefficients."""
    m = len(modulus) - 1
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for d in range(2 * m - 2, m - 1, -1):  # w^d = -sum_i modulus[i] w^(d - m + i)
        top = prod.pop()
        for i in range(m):
            prod[d - m + i] -= top * modulus[i]
    return prod


def _poly_det(A, modulus):
    """Determinant over Z[w]/(modulus) by cofactor expansion."""
    if len(A) == 1:
        return list(A[0][0])
    total = [0] * (len(modulus) - 1)
    for j, a in enumerate(A[0]):
        term = _mulmod(a, _poly_det([row[:j] + row[j + 1:] for row in A[1:]], modulus), modulus)
        total = [t + (-1) ** j * x for t, x in zip(total, term)]
    return total


def _extension_oracle(A, modulus, p):
    """Valuations of the Smith invariants of A over Z_{p^m} = Z_p[w]/(modulus),
    None for a zero invariant.  Z_{p^m} is a discrete valuation ring and
    1, w, ..., w^(m-1) an integral basis, so v(d_k) is the least valuation
    of a coefficient of a k x k minor, and the k-th invariant is
    v(d_k) - v(d_(k-1))."""
    r, c = len(A), len(A[0])
    vd = [0]
    for k in range(1, min(r, c) + 1):
        vals = [_vp(x, p) for rows in itertools.combinations(range(r), k)
                for cols in itertools.combinations(range(c), k)
                for x in _poly_det([[A[i][j] for j in cols] for i in rows], modulus) if x]
        vd.append(min(vals) if vals else None)
    return [None if vd[k] is None else vd[k] - vd[k - 1] for k in range(1, len(vd))]


@st.composite
def extension_matrices(draw):
    """(p, m, rows, k): up to 4 x 4 matrices over Z[w]/(modulus), p in
    {2, 3}, m in {2, 3}, entries m integer coefficients, often p-divisible;
    k, when not None, is an element (with a w-part) that the first row is
    multiplied by to give the last, so that the rank is deficient over
    Z_{p^m} but not coefficient by coefficient."""
    p, m = draw(st.sampled_from([2, 3])), draw(st.sampled_from([2, 3]))
    r, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    coeff = st.builds(lambda u, e: u * p ** e, st.integers(-30, 30),
                      st.sampled_from([0, 0, 1, 2, 5]))
    entry = st.lists(coeff, min_size=m, max_size=m)
    rows = [[draw(entry) for _ in range(c)] for _ in range(r)]
    k = draw(entry) if r > 1 and draw(st.booleans()) else None
    return p, m, rows, k


class TestSmithOracle:
    """certified_rank against the Smith form computed without the library:
    over Z from gcds of minors, and over Z_{p^m} from the valuations of the
    minors."""

    @settings(max_examples=150, deadline=None)
    @given(integer_matrices(), st.sampled_from([4, 8, 16]))
    def test_divisors_are_the_p_parts_of_the_smith_invariants(self, inputs, N):
        p, rows = inputs
        f = make_field_cached(p, 1, N)
        _, divisors = certified_rank(PadicMatrix.from_ints(f, rows))
        oracle = _smith_oracle(rows, p)
        assert len(divisors) == len(oracle)
        for d, o in zip(divisors, oracle):
            if is_exact(d):
                assert d == o
            else:
                assert o is None or o >= d.n

    @settings(max_examples=150, deadline=None)
    @given(extension_matrices(), st.sampled_from([4, 8, 16]))
    def test_divisors_over_unramified_extensions(self, inputs, N):
        p, m, rows, k = inputs
        f = make_field_cached(p, m, N)
        if k is not None:
            rows = rows[:-1] + [[_mulmod(k, x, f.modulus) for x in rows[0]]]
        M = PadicMatrix(f, [[f.from_coeffs(x, N) for x in row] for row in rows])
        _, divisors = certified_rank(M)
        oracle = _extension_oracle(rows, f.modulus, p)
        assert len(divisors) == len(oracle)
        for d, o in zip(divisors, oracle):
            if is_exact(d):
                assert d == o
            else:
                assert o is None or o >= d.n


@pytest.mark.parametrize("rows, N, expected", [
    ([[4, 4]], 4, (1, [2])),
    ([[16, 16], [16, 48]], 8, (2, [4, 5])),
])
def test_quotients_certify_what_inverses_cannot(rows, N, expected):
    """Clearing 4 with the pivot 4 at N = 4: 1/4 has no digits, 4/4 has 2."""
    assert _smith_oracle(rows, 2) == expected[1]
    assert certified_rank(PadicMatrix.from_ints(make_field_cached(2, 1, N), rows)) == expected


def test_elimination_makes_no_element_arithmetic(monkeypatch):
    """smith_form and certified_rank run on flat entries: no element product
    or inverse, here on a 3 x 3 matrix over Q_8 that needs every kind of
    update (a pivot with a w-part, shifts, entries to clear)."""
    f = make_field_cached(2, 3, PREC)
    M = PadicMatrix(f, [
        [f.from_coeffs([6, 1, 3], PREC, 1), f.from_coeffs([5, 2]), f.from_coeffs([4])],
        [f.from_coeffs([1, 1, 1]), f.from_coeffs([12, 0, 2], PREC, 2), f.from_coeffs([0, 8])],
        [f.from_coeffs([7]), f.from_coeffs([2, 6, 1]), f.from_coeffs([3, 3], PREC, 1)],
    ])
    calls = []
    for name in ("__mul__", "__rmul__", "inverse"):
        def spy(self, *args, _orig=getattr(PadicElement, name), _name=name):
            calls.append(_name)
            return _orig(self, *args)

        monkeypatch.setattr(PadicElement, name, spy)
    sf = smith_form(M)
    rank, divisors = certified_rank(M)
    assert calls == []
    assert rank == sf.rank == 3 and divisors == sf.divisors
    M.rows[0][0] * M.rows[0][1]
    M.rows[0][0].inverse()
    assert calls == ["__mul__", "inverse"]


def _record_forms(monkeypatch, module):
    """A list that gets (M, form) for each smith_form(M) that ``module`` makes."""
    forms = []

    def spy(M, _orig=smith_form):
        forms.append((M, _orig(M)))
        return forms[-1][1]

    monkeypatch.setattr(module, "smith_form", spy)
    return forms


def _built(sf):
    """The transforms of ``sf`` built so far: each is kept once read."""
    return sorted(set(vars(sf)) & set(TRANSFORMS))


def test_inverse_builds_l_and_r_and_inverts_one_pivot(monkeypatch):
    """A 3 x 3 matrix with unit pivots 1, -3, 1: the first two cleared
    entries, so their inverses are kept, and only the last is inverted."""
    f = make_field_cached(2, 2, PREC)
    M = PadicMatrix.from_ints(f, [[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    forms = _record_forms(monkeypatch, padic)
    calls = []

    def spy(self, _orig=PadicElement.inverse):
        calls.append(self)
        return _orig(self)

    monkeypatch.setattr(PadicElement, "inverse", spy)
    inv = M.inverse()
    ((_, sf),) = forms
    assert _built(sf) == ["L", "R"]
    assert len(calls) == 1 and calls[0] is sf.pivots[-1]
    assert [x.valuation() for x in sf.pivots] == [0, 0, 0]
    assert (M * inv).approx_equal(PadicMatrix.identity(f, 3))


def test_omega_witness_builds_only_l(monkeypatch):
    f = make_field_cached(2, 2, PREC)
    point = ProjectivePoint(PadicMatrix.identity(f, 2), [f.from_int(1), f.from_int(3)])
    forms = _record_forms(monkeypatch, periods)
    assert omega_membership(point).status == "not_in_Omega"
    ((_, sf),) = forms
    assert _built(sf) == ["L"]


def test_sampler_covector_form_builds_only_r(monkeypatch):
    forms = _record_forms(monkeypatch, padic)  # the sampler's kernel_basis makes it
    random_point(2, make_field_cached(2, 2, 8), seed=1)
    covector_forms = [sf for M, sf in forms if M.nrows == 1]
    assert covector_forms and all(_built(sf) == ["R"] for sf in covector_forms)


def test_product_makes_no_element_arithmetic(monkeypatch):
    """A * B sums flat coefficient products: no element product or sum, here
    on 3 x 3 matrices over Q_8 with shifts, w-parts and zeros."""
    f = make_field_cached(2, 3, PREC)
    A = PadicMatrix(f, [
        [f.from_coeffs([6, 1, 3], PREC, 1), f.zero(), f.from_coeffs([4])],
        [f.from_coeffs([1, 1, 1]), f.from_coeffs([12, 0, 2], PREC, 2), f.zero(6)],
        [f.from_coeffs([7]), f.from_coeffs([2, 6, 1]), f.from_coeffs([3, 3], PREC, 1)],
    ])
    B = PadicMatrix(f, [
        [f.from_coeffs([5, 2]), f.from_coeffs([0, 8]), f.zero()],
        [f.zero(8), f.from_coeffs([9, 1, 1], PREC, 3), f.from_coeffs([2])],
        [f.from_coeffs([1, 0, 5], PREC, 1), f.from_coeffs([3]), f.from_coeffs([1, 1])],
    ])
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        def spy(self, *args, _orig=getattr(PadicElement, name), _name=name):
            calls.append(_name)
            return _orig(self, *args)

        monkeypatch.setattr(PadicElement, name, spy)
    C = A * B
    assert calls == []
    assert all(_same_element(x, y) for x, y in zip(
        (x for row in C.rows for x in row), (x for row in _dense_product(A, B) for x in row)))
    assert calls  # the reference fold goes through the spies


def test_from_ints_builds_one_element_per_integer():
    f = make_field_cached(2, 2, PREC)
    M = PadicMatrix.from_ints(f, [[0, 1], [0, 0]])
    (z, one), (z1, z2) = M.rows
    assert z is z1 is z2 and one is not z
    assert z.is_zero_at_precision() and one.approx_equal(f.one())
    assert z.abs_precision == one.abs_precision == PREC


class TestMatricesWithoutEntries:
    """A matrix with no entry has the field's precision, so every routine
    takes it: the 0 x 0 matrix has charpoly 1, determinant valuation 0 and
    the empty inverse, and an n x 0 matrix has rank 0."""

    def test_zero_by_zero(self, Q4):
        E = PadicMatrix(Q4, [])
        assert E.precision == Q4.precision
        (a0,) = charpoly(E)
        assert a0.approx_equal(Q4.one()) and a0.abs_precision == Q4.precision
        assert certified_rank(E) == (0, [])
        assert E.det_valuation() == 0
        assert E.inverse().rows == []
        sf = smith_form(E)
        assert sf.divisors == [] and sf.L.rows == sf.R.rows == []

    def test_rows_without_columns(self, Q2):
        Z = PadicMatrix(Q2, [[], [], []])
        assert Z.precision == Q2.precision
        assert certified_rank(Z) == (0, [])
        sf = smith_form(Z)
        assert sf.divisors == [] and sf.R.rows == []
        assert sf.L.approx_equal(PadicMatrix.identity(Q2, 3))


class TestSaturate:
    def test_divide_single_column(self, Q2):
        M = PadicMatrix.from_ints(Q2, [[2], [2]])
        S = saturate_lattice(M)
        _, div = certified_rank(S)
        assert div == [0]
        # span unchanged after inverting p: (1,1) generates the same line
        assert S.rows[0][0].approx_equal(S.rows[1][0])

    def test_identity(self, Q2):
        I = PadicMatrix.identity(Q2, 3)
        S = saturate_lattice(I)
        _, div = certified_rank(S)
        assert div == [0, 0, 0]

    def test_mixed_valuations(self, Q2):
        M = PadicMatrix.from_ints(Q2, [[4], [8]])
        S = saturate_lattice(M)
        _, div = certified_rank(S)
        assert div == [0]
        # the saturated generator is (1, 2) up to a unit
        ratio = S.rows[1][0] / S.rows[0][0]
        assert ratio.valuation() == 1

    def test_non_integral_rejected(self, Q2):
        x = Q2.from_int(2).inverse()
        with pytest.raises(ValueError):
            saturate_lattice(PadicMatrix(Q2, [[x]]))


class TestCharpoly:
    def test_companion(self, Q2):
        # companion matrix of t^2 - t - 1
        M = PadicMatrix.from_ints(Q2, [[0, 1], [1, 1]])
        c = charpoly(M)
        assert c[0].approx_equal(Q2.from_int(-1))
        assert c[1].approx_equal(Q2.from_int(-1))
        assert c[2].approx_equal(Q2.one())

    def test_matches_generic_path(self, Q4):
        # the element ring of the one loop, over Q_4, against the integer ring
        rng = random.Random(6)
        rows = [[rng.randrange(2 ** 8) for _ in range(4)] for _ in range(4)]
        f1 = make_field_cached(2, 1, 16)
        c_int = charpoly(PadicMatrix.from_ints(f1, rows))
        c_gen = _element_loop(PadicMatrix.from_ints(Q4, rows))
        for a, b in zip(c_int, c_gen):
            assert a.coeffs[0] == b.coeffs[0]

    def test_trace_and_det(self, Q2):
        M = PadicMatrix.from_ints(Q2, [[3, 1], [4, 5]])
        c = charpoly(M)
        # det = 11, trace = 8: t^2 - 8t + 11
        assert c[0].approx_equal(Q2.from_int(11))
        assert c[1].approx_equal(Q2.from_int(-8))


def _charpoly_oracle(A):
    """Coefficients c_0..c_n of det(tI - A) over Z, low degree first: the
    determinant at t = 0..n by cofactors, interpolated with Fractions."""
    n = len(A)
    points = [(t, _int_det([[t * (i == j) - A[i][j] for j in range(n)] for i in range(n)]))
              for t in range(n + 1)]
    coeffs = [Fraction(0)] * (n + 1)
    for t, value in points:  # Lagrange: value * prod (x - s) / (t - s)
        basis = [Fraction(1)]
        for s, _ in points:
            if s != t:
                basis = [(b1 - s * b0) / (t - s) for b0, b1 in zip(basis + [0], [0] + basis)]
        coeffs = [c + value * b for c, b in zip(coeffs, basis)]
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


def _rational_value(x):
    """The value of an element with no w-part, as a Fraction."""
    assert not any(x.coeffs[1:])
    return Fraction(x.coeffs[0], x.field.p ** x.shift)


def _agrees_mod(x, c, N):
    """x = c mod p^N for an element x without w-part and a rational c."""
    diff, p = _rational_value(x) - c, x.field.p
    if diff == 0:
        return True
    num, den, v = diff.numerator, diff.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v >= N


@st.composite
def charpoly_inputs(draw):
    """(p, A): integer matrices up to 5 x 5, p in {2, 3, 5}, entries often
    p-divisible or zero."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 5))
    entry = st.builds(lambda u, e: u * p ** e, st.integers(-40, 40),
                      st.sampled_from([0, 0, 0, 1, 3]))
    return p, [[draw(entry) for _ in range(n)] for _ in range(n)]


class TestCharpolyOracle:
    """charpoly against det(tI - A) computed over Z without the library."""

    @settings(max_examples=150, deadline=None)
    @given(charpoly_inputs(), st.sampled_from([4, 8, 16]), st.sampled_from([1, 2]))
    def test_integer_matrices(self, inputs, N, m):
        p, A = inputs
        f = make_field_cached(p, m, N)
        got = charpoly(PadicMatrix.from_ints(f, A))
        oracle = _charpoly_oracle(A)
        assert len(got) == len(oracle)
        for x, c in zip(got, oracle):
            assert x.abs_precision == N and x.shift == 0
            assert _agrees_mod(x, c, N)

    @settings(max_examples=100, deadline=None)
    @given(charpoly_inputs())
    def test_divided_by_p_takes_the_generic_loop(self, inputs):
        # charpoly(A/p)_k = p^(k-n) c_k; an entry of A/p prime to p keeps
        # shift 1, which sends charpoly to the element ring of the loop
        p, A = inputs
        assume(any(a % p for row in A for a in row))
        n, N = len(A), 24
        f = make_field_cached(p, 1, N)
        M = PadicMatrix(f, [[f.from_coeffs([a], N, 1) for a in row] for row in A])
        got = charpoly(M)
        oracle = _charpoly_oracle(A)
        assert len(got) == n + 1
        for k, (x, c) in enumerate(zip(got, oracle)):
            assert x.abs_precision >= 1
            assert _agrees_mod(x, Fraction(c) * Fraction(p) ** (k - n), x.abs_precision)


@st.composite
def hidden_block_triangular(draw):
    """(p, N, A, blocks): an integer matrix, block upper triangular in
    diagonal blocks of 1-5 (n <= 12), hidden by a random symmetric
    permutation; ``blocks`` lists each diagonal block's indices in A.  Some
    entries inside the blocks and above them are zero, some multiples of p^N,
    and some below them multiples of p^N, which are zero mod p^N.  Zero
    columns and pivots divisible by p come up often."""
    p = draw(st.sampled_from([2, 3, 5]))
    N = draw(st.integers(1, 8))
    sizes = []
    for size in draw(st.lists(st.integers(1, 5), min_size=1, max_size=12)):
        if sum(sizes) + size > 12:
            break
        sizes.append(size)
    zero_percent = draw(st.sampled_from([0, 30, 60, 90]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    mod = p ** N
    owner = [b for b, size in enumerate(sizes) for _ in range(size)]
    n = len(owner)

    def entry(i, j):
        if owner[i] > owner[j]:
            return mod * rng.randint(-2, 2) if rng.random() < 0.2 else 0
        if rng.randrange(100) < zero_percent:
            return mod * rng.randint(-2, 2) if rng.random() < 0.3 else 0
        return rng.randrange(-2 * mod, 2 * mod) * p ** rng.choice([0, 0, 1, 2])

    T = [[entry(i, j) for j in range(n)] for i in range(n)]
    perm = rng.sample(range(n), n)  # row i of A is row perm[i] of T
    A = [[T[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    where = {t: i for i, t in enumerate(perm)}
    starts = [sum(sizes[:b]) for b in range(len(sizes))]
    blocks = [[where[t] for t in range(s, s + size)] for s, size in zip(starts, sizes)]
    return p, N, A, blocks


class TestBlockSplit:
    """Block triangular matrices, hidden or not: on the integer ring the
    Hessenberg kernel gives the product of the diagonal blocks' charpolys
    and never the element loop; the element ring never takes the kernel."""

    @settings(max_examples=150, deadline=None)
    @given(hidden_block_triangular(), st.sampled_from([1, 2]))
    def test_hidden_blocks_match_the_whole_matrix(self, inputs, m):
        p, N, A, blocks = inputs
        n, mod = len(A), p ** N
        got = charpoly(PadicMatrix.from_ints(make_field_cached(p, m, N), A, N))
        assert all(x.abs_precision == N and x.shift == 0 for x in got)
        ints = [x.coeffs[0] for x in got]
        assert ints == _dense_berkowitz_int(A, mod, n)
        product = [1]
        for b in blocks:
            product = _poly_mul(product, _charpoly_oracle([[A[i][j] for j in b] for i in b]))
        assert ints == [c % mod for c in product]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_special_model_splits_into_n_cycles(self, n):
        # DG(n)'s n cycles of length n lie in Z_p: the integer ring only
        model = build_DG(n, precision=PREC)
        M = model.isocrystal(model.field).frob_matrix
        with mock.patch.object(padic, "_berkowitz", side_effect=AssertionError("element loop")):
            got = charpoly(M)
        A = [[x.coeffs[0] for x in row] for row in M.rows]
        assert [x.coeffs[0] for x in got] == _dense_berkowitz_int(A, 2 ** PREC, n * n)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([1, 2]), st.lists(st.integers(1, 3), min_size=2, max_size=3),
           st.integers(0, 2 ** 32), st.booleans())
    def test_element_ring_keeps_the_dense_loop(self, m, sizes, seed, shifted):
        # block diagonal, its zeros O(p^N), one diagonal entry shifted or
        # (over Q_4) given a w-part: the element loop, never the kernel
        f = make_field_cached(2, m, PREC)
        rng = random.Random(seed)
        owner = [b for b, size in enumerate(sizes) for _ in range(size)]
        n = len(owner)
        precisions = [rng.choice([4, 6, 10]) for _ in range(n)]
        rows = [[f.from_int(rng.randrange(2 ** 10), precisions[j]) if owner[i] == owner[j]
                 else f.zero(precisions[j]) for j in range(n)] for i in range(n)]
        i = rng.randrange(n)
        if m == 1 or shifted:
            rows[i][i] = f.from_coeffs([rng.randrange(1, 2 ** 10, 2)], precisions[i], 1)
        else:
            rows[i][i] = rows[i][i] + f.generator(precisions[i])
        M = PadicMatrix(f, rows)
        with mock.patch.object(padic, "_hessenberg_charpoly", side_effect=AssertionError("kernel")):
            out = _same_outcome(_element_loop, charpoly, M)
        if out:
            assert all(_same_element(x, y) for x, y in zip(*out, strict=True))


def _capped_e(value, N, p):
    """e(x) for x = value + O(p^N): its valuation, or N if value = 0 mod p^N."""
    if value == 0:
        return N
    num, den, v = value.numerator, value.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return min(v, N)


@st.composite
def qp_operands(draw):
    """(p, (a, s, N), (b, t, M)): the elements a/p^s + O(p^N) and
    b/p^t + O(p^M) of Q_p, p in {2, 3, 5}, often p-divisible, sometimes zero
    at their precision."""
    p = draw(st.sampled_from([2, 3, 5]))
    operand = st.tuples(
        st.builds(lambda u, e: u * p ** e, st.integers(-10 ** 6, 10 ** 6),
                  st.sampled_from([0, 0, 1, 2, 4, 9, 30])),
        st.integers(0, 3), st.integers(1, 20),
    )
    return p, draw(operand), draw(operand)


class TestElementOracle:
    """Element arithmetic over Q_p (m = 1) against Fractions: each result
    agrees with the exact rational result mod p^N, where N is the
    capped-absolute precision computed here, and PrecisionError stands for
    N < 1."""

    @settings(max_examples=300, deadline=None)
    @given(qp_operands())
    def test_against_fractions(self, operands):
        p, (a, s, N), (b, t, M) = operands
        f = make_field_cached(p, 1, 20)
        x, y = f.from_coeffs([a], N, s), f.from_coeffs([b], M, t)
        X, Y = Fraction(a, p ** s), Fraction(b, p ** t)
        ex, ey = _capped_e(X, N, p), _capped_e(Y, M, p)
        cases = [
            (lambda: x + y, X + Y, min(N, M)),
            (lambda: x - y, X - Y, min(N, M)),
            (lambda: x * y, X * Y, min(N + ey, M + ex)),
        ]
        if ey < M:
            cases += [
                (lambda: x / y, X / Y, min(N - ey, M - 2 * ey + ex)),
                (y.inverse, 1 / Y, M - 2 * ey),
            ]
        else:
            for op in (lambda: x / y, y.inverse):
                with pytest.raises(ZeroDivisionError):
                    op()
        for op, value, prec in cases:
            if prec < 1:
                with pytest.raises(PrecisionError):
                    op()
            else:
                r = op()
                assert r.abs_precision == prec
                assert _agrees_mod(r, value, prec)


class TestJson:
    def test_matrix_round_trip(self, Q4):
        w = Q4.generator()
        shifted = Q4.from_coeffs([123, 456], 16, shift=1)
        for M in (PadicMatrix(Q4, [[Q4.one(), w], [w * 2, w.inverse()]]),
                  PadicMatrix(Q4, [[shifted]])):
            M2 = matrix_from_json(matrix_to_json(M))
            assert M2.approx_equal(M)
            assert [e.shift for r in M2.rows for e in r] == [e.shift for r in M.rows for e in r]


class TestIsPrime:
    def test_matches_trial_division_below_1e5(self):
        for n in range(10 ** 5):
            assert _is_prime(n) == (n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))), n

    @pytest.mark.parametrize("n", [3215031751, 3825123056546413051, 318665857834031151167461])
    def test_rejects_strong_pseudoprimes(self, n):
        # the least strong pseudoprimes to the prime bases up to 7, 31 and 37
        assert not _is_prime(n)

    def test_large_primes_and_the_limit(self):
        assert _is_prime(2 ** 61 - 1) and _is_prime(2 ** 31 - 1)
        assert not _is_prime(1000003 * (2 ** 61 - 1))
        with pytest.raises(ValueError, match="too large"):
            _is_prime(3317044064679887385961981)


def _code(c, p):
    return sum(x * p ** i for i, x in enumerate(c))


class TestFindModulus:
    """The modulus is the irreducible polynomial of least code; skipping the
    binomials where none can be irreducible keeps it."""

    def test_matches_the_walk_from_code_0(self):
        for p in (q for q in range(2, 60) if _is_prime(q)):
            for m in range(2, 9):
                if p ** m > 3 * 10 ** 6:
                    break
                first = next(c + [1] for c in _residues(p, m) if _is_irreducible_mod_p(c + [1], p))
                assert _find_modulus(p, m) == first, (p, m)
                if not _binomial_may_be_irreducible(p, m):
                    assert _code(first[:-1], p) >= p, (p, m)

    @pytest.mark.parametrize("p", [1000003, 2 ** 61 - 1])
    def test_large_p_within_a_few_codes(self, p):
        # about one monic polynomial of degree m in m is irreducible; the
        # furthest here is 11 codes past the start (p = 10^6 + 3, m = 5)
        for m in range(2, 9):
            start = 0 if _binomial_may_be_irreducible(p, m) else p
            assert _code(_find_modulus(p, m)[:-1], p) < start + 4 * m, m


def _mixed_precision_transforms():
    """Over Q_2, at entry precisions 8 to 17: cut to 8, its divisors are
    [0, 1, AtLeast(8)].  Transforms eliminated at the entries' own
    precisions keep digits that M does not determine, and (L*M)*R and
    L*(M*R) then differ at (3, 2): 2048 + O(2^13) against 0 + O(2^9)."""
    f = make_field_cached(2, 1, PREC)
    x = f.from_int
    return PadicMatrix(f, [[x(2, 8), x(0, 10), x(2048, 13)], [x(2, 8), x(0, 10), x(0, 13)],
                           [x(0, 8), x(0, 10), x(0, 17)], [x(1, 8), x(1, 10), x(0, 10)]])


class TestKernelNormalForms:
    """Every element that smith_form returns is stored as the elimination
    holds it, without ``_normal`` again, so each must already be normal."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(coarse_matrices(), sparse_matrices(), elimination_inputs()))
    @example(_mixed_precision_transforms())
    def test_transforms_and_pivots_are_normal_forms(self, M):
        try:
            sf = smith_form(M)
        except PrecisionError:
            assume(False)
        f, r, c, N = M.field, M.nrows, M.ncols, M.precision
        L, Linv, R, Rinv = (getattr(sf, name) for name in TRANSFORMS)
        for x in itertools.chain(sf.pivots, *L.rows, *Linv.rows, *R.rows, *Rinv.rows):
            form = (x.coeffs, x.shift, x.abs_precision, x._v)
            assert padic._normal(f.p, *form[:3]) == form
        assert (L * Linv).approx_equal(PadicMatrix.identity(f, r))
        assert (R * Rinv).approx_equal(PadicMatrix.identity(f, c))
        # L*M*R = D mod p^N, in either order of the products: each entry
        # agrees with D to N digits, or to all of its own where a transform
        # entry capped it lower.  Every transform entry is integral with a
        # digit; an entry of M of negative valuation can leave L*M*R none,
        # so D is checked on integral M, zeros and mixed precisions included
        if all(x.is_integral() for row in M.rows for x in row):
            for D in (L * M * R, L * (M * R)):
                for i in range(r):
                    for j in range(c):
                        d = f.zero(N) if i != j or i >= sf.rank else sf.pivots[i]
                        v = (D.rows[i][j] - d).valuation()
                        assert not is_exact(v) or v >= N
