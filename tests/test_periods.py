"""Period matrices: rank certification, filtrations, the transpose
correspondence, hyperplane-complement membership, and the two-sided action."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from padicperiods import periods
from padicperiods.padic import (
    AtLeast,
    PadicMatrix,
    PrecisionError,
    certified_rank,
    embed_element,
    field_embedding,
    kernel_basis,
    make_field_cached,
    matrix_to_json,
    smith_form,
)
from padicperiods.models import build_DH, iota_matrix, od_multiply
from padicperiods.semilinear import intersection_dim
from padicperiods.periods import (
    OmegaVerdict,
    ProjectivePoint,
    RankCertificationError,
    _embed_rational,
    act,
    correspond,
    fil_G,
    fil_H,
    from_matrix,
    omega_membership,
    random_point,
    subspaces_equal,
    translate_point,
)


@pytest.fixture(scope="module")
def K():
    return make_field_cached(2, 2, 32)


@pytest.fixture(scope="module")
def symmetric_point(K):
    w = K.generator()
    X = PadicMatrix(K, [[K.one(), w], [w, w * w]])
    return from_matrix(X)


class TestFromMatrix:
    def test_accepts_symbolic_rank_one(self, symmetric_point):
        assert symmetric_point.n == 2

    def test_rejects_identity(self, K):
        with pytest.raises(RankCertificationError) as exc:
            from_matrix(PadicMatrix.identity(K, 2))
        assert exc.value.kind == "full_rank"

    def test_rejects_zero(self, K):
        with pytest.raises(RankCertificationError) as exc:
            from_matrix(PadicMatrix(K, [[K.zero()] * 2 for _ in range(2)]))
        assert exc.value.kind == "rank_deficient"

    def test_rejects_non_square(self, K):
        with pytest.raises(ValueError):
            from_matrix(PadicMatrix.from_ints(K, [[1, 0]]))

    def test_rejects_clearing_pivot_without_inverse_digits(self):
        # v(8) = 3 at precision 4: 8 / 8 = 1 + O(2) clears the other entries,
        # so the rank is certified, but 1/8 has no digit and the transforms
        # are too coarse to certify the filtrations read from them
        f = make_field_cached(2, 1, 4)
        X = PadicMatrix.from_ints(f, [[8, 8], [8, 8]])
        assert certified_rank(X) == (1, [3, AtLeast(4)])
        assert not smith_form(X).pivots_invertible
        with pytest.raises(PrecisionError):
            from_matrix(X)
        line = ProjectivePoint(PadicMatrix.from_ints(f, [[1], [1]]), [f.one(), -f.one()])
        with pytest.raises(PrecisionError):
            translate_point(line, PadicMatrix.from_ints(f, [[8, 0], [0, 8]]))


class TestFiltrations:
    def test_normals_annihilate_bases(self, symmetric_point):
        for point in (fil_G(symmetric_point), fil_H(symmetric_point)):
            for j in range(point.basis.ncols):
                acc = None
                for i in range(2):
                    t = point.normal[i] * point.basis.rows[i][j]
                    acc = t if acc is None else acc + t
                assert acc.is_zero_at_precision()

    def test_symmetric_matrix_fil_equal(self, symmetric_point):
        assert subspaces_equal(fil_G(symmetric_point), fil_H(symmetric_point))

    def test_orthogonality_invariants(self, symmetric_point, K):
        # normal of fil_G is the left kernel: l_G * X = 0
        lg = fil_G(symmetric_point).normal
        X = symmetric_point.X
        for j in range(2):
            acc = None
            for i in range(2):
                t = lg[i] * X.rows[i][j]
                acc = t if acc is None else acc + t
            assert acc.is_zero_at_precision()
        # normal of fil_H is the right kernel: X * l_H = 0
        lh = fil_H(symmetric_point).normal
        for i in range(2):
            acc = None
            for j in range(2):
                t = X.rows[i][j] * lh[j]
                acc = t if acc is None else acc + t
            assert acc.is_zero_at_precision()

    def test_degenerate_last_column(self, K):
        X = PadicMatrix.from_ints(K, [[1, 0], [0, 0]])
        pm = from_matrix(X)
        e1 = ProjectivePoint(
            PadicMatrix.from_ints(K, [[1], [0]]), fil_G(pm).normal
        )
        assert subspaces_equal(fil_G(pm), e1)


class TestCorrespond:
    def test_involution(self, K):
        rng = random.Random(21)
        for _ in range(10):
            pm = random_point(2, K, rng.randrange(10 ** 6))
            assert correspond(correspond(pm)).X.approx_equal(pm.X)

    def test_duality(self, K):
        for seed in range(5):
            pm = random_point(2, K, seed)
            pt = correspond(pm)
            assert subspaces_equal(fil_G(pt), fil_H(pm))
            assert subspaces_equal(fil_H(pt), fil_G(pm))

    def test_fil_H_reads_R_and_Rinv(self):
        # fil_G of the transpose is Rinv's first n - 1 rows, transposed, and
        # R's last column: the very elements of pm's own Smith form
        pm = random_point(3, make_field_cached(2, 3, 24), seed=1)
        point, sf = fil_H(pm), pm.smith
        assert all(a is b for a, b in zip(point.normal, [row[2] for row in sf.R.rows]))
        assert all(a is b for row, rinv_row in zip(zip(*point.basis.rows), sf.Rinv.rows[:2])
                   for a, b in zip(row, rinv_row))

    def test_symmetric_fixed_point(self, symmetric_point):
        pt = correspond(symmetric_point)
        assert pt.X.approx_equal(symmetric_point.X)

    def test_subspaces_equal_across_fields(self, K):
        # a hyperplane over Q_4 and its image in Q_16 are the same, in
        # either order: the bases are compared over their common field
        big = make_field_cached(2, 4, K.precision)
        gen = field_embedding(K, big)
        A = fil_G(random_point(2, K, seed=3))
        B = ProjectivePoint(
            PadicMatrix(big, [[embed_element(e, big, gen) for e in row] for row in A.basis.rows]),
            [embed_element(e, big, gen) for e in A.normal])
        assert subspaces_equal(A, B) and subspaces_equal(B, A)
        assert intersection_dim(A.basis, B.basis) == intersection_dim(B.basis, A.basis) == 1


class TestOmega:
    def test_irrational_hyperplane(self, K):
        w = K.generator()
        pt = ProjectivePoint(PadicMatrix.identity(K, 2), [K.one(), w])
        assert omega_membership(pt).status == "in_Omega"

    def test_rational_hyperplane_with_witness(self, K):
        pt = ProjectivePoint(PadicMatrix.identity(K, 2), [K.one(), K.one()])
        v = omega_membership(pt)
        assert v.status == "not_in_Omega"
        acc = v.witness[0] + v.witness[1]
        assert acc.is_zero_at_precision()

    def test_field_too_small(self):
        Qp = make_field_cached(2, 1, 16)
        pt = ProjectivePoint(
            PadicMatrix.identity(Qp, 2), [Qp.from_int(3), Qp.from_int(5)]
        )
        assert omega_membership(pt).status == "not_in_Omega"


@pytest.fixture(scope="module")
def setup():
    K = make_field_cached(2, 2, 32)
    model = build_DH(2, precision=32)
    pm = random_point(2, K, seed=17)
    return K, model, pm


class TestAction:
    def _rand_g(self, rng, n=2):
        while True:
            g = [[rng.randrange(2 ** 6) for _ in range(n)] for _ in range(n)]
            if (g[0][0] * g[1][1] - g[0][1] * g[1][0]) % 2 == 1:
                return g

    def _rand_d(self, rng, model):
        f = model.field
        n = model.n
        while True:
            d = [
                f.from_coeffs([rng.randrange(2 ** 8) for _ in range(n)], 32)
                for _ in range(n)
            ]
            try:
                iota_matrix(model, d).inverse()
                return d
            except ZeroDivisionError:
                continue

    def test_identity_pair(self, setup):
        K, model, pm = setup
        out = act([[1, 0], [0, 1]], [1, 0], pm, model)
        assert out.X.approx_equal(pm.X)

    def test_rank_preserved(self, setup):
        K, model, pm = setup
        rng = random.Random(30)
        for _ in range(5):
            out = act(self._rand_g(rng), self._rand_d(rng, model), pm, model)
            rank, _ = certified_rank(out.X)
            assert rank == 1

    def test_fil_G_transforms_by_transpose_g(self, setup):
        K, model, pm = setup
        rng = random.Random(31)
        g = self._rand_g(rng)
        d = self._rand_d(rng, model)
        out = act(g, d, pm, model)
        gT = PadicMatrix.from_ints(K, [[g[j][i] for j in range(2)] for i in range(2)], 32)
        assert subspaces_equal(fil_G(out), translate_point(fil_G(pm), gT))

    def test_fil_H_right_translates(self, setup):
        K, model, pm = setup
        rng = random.Random(32)
        g = self._rand_g(rng)
        d = self._rand_d(rng, model)
        out = act(g, d, pm, model)
        # row space of X * iota(d)^{-1}: basis transported by the transpose
        # of iota(d)^{-1}
        from padicperiods.periods import _embed_rational
        from padicperiods.padic import embed_element, field_embedding

        gen = field_embedding(model.field, K)
        iota = iota_matrix(model, d)
        iotaK = PadicMatrix(
            K, [[embed_element(e, K, gen) for e in row] for row in iota.rows]
        )
        MT = iotaK.inverse().transpose()
        assert subspaces_equal(fil_H(out), translate_point(fil_H(pm), MT))

    def test_central_pair_fixes_filtrations(self, setup):
        K, model, pm = setup
        c = 3
        out = act([[c, 0], [0, c]], [c, 0], pm, model)
        assert subspaces_equal(fil_G(out), fil_G(pm))
        assert subspaces_equal(fil_H(out), fil_H(pm))

    def test_composition_law(self, setup):
        K, model, pm = setup
        rng = random.Random(33)
        g1, g2 = self._rand_g(rng), self._rand_g(rng)
        d1, d2 = self._rand_d(rng, model), self._rand_d(rng, model)
        lhs = act(g1, d1, act(g2, d2, pm, model), model)
        gg = [
            [sum(g2[i][k] * g1[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)
        ]
        rhs = act(gg, od_multiply(model, d1, d2), pm, model)
        assert lhs.X.approx_equal(rhs.X)

    def test_omega_stability_under_g(self, setup):
        K, model, pm = setup
        rng = random.Random(34)
        assert omega_membership(fil_G(pm)).in_omega
        for _ in range(5):
            out = act(self._rand_g(rng), [1, 0], pm, model)
            assert omega_membership(fil_G(out)).in_omega

    def test_padic_matrix_g_matches_int_g(self, setup):
        K, model, pm = setup
        g = [[3, 2], [5, 1]]
        Q2 = make_field_cached(2, 1, 32)
        by_matrix = act(PadicMatrix.from_ints(Q2, g, 32), [1, 0], pm, model)
        by_ints = act(g, [1, 0], pm, model)
        assert matrix_to_json(by_matrix.X) == matrix_to_json(by_ints.X)

    def test_g_over_extension_field_rejected(self, setup):
        K, model, pm = setup
        Q8 = make_field_cached(2, 3, 32)
        with pytest.raises(ValueError, match="g must be rational"):
            act(PadicMatrix.identity(Q8, 2), [1, 0], pm, model)

    def test_field_containment_required(self):
        K = make_field_cached(2, 2, 16)
        model3 = build_DH(3, precision=16)
        pm = random_point(2, K, seed=1)
        with pytest.raises(ValueError):
            act([[1, 0], [0, 1]], [1, 0, 0], pm, model3)

    @pytest.mark.parametrize("zero", ["ints", "at_precision"])
    def test_zero_order_element_is_not_invertible(self, setup, zero):
        K, model, pm = setup
        f = model.field
        d = [0, 0] if zero == "ints" else [f.from_int(2 ** 32), f.zero(16)]
        with pytest.raises(ValueError, match="order element is not invertible at precision"):
            act([[1, 0], [0, 1]], d, pm, model)


class TestRandomPoint:
    def test_deterministic(self, K):
        a = random_point(2, K, seed=7)
        b = random_point(2, K, seed=7)
        assert a.X.approx_equal(b.X)

    def test_field_too_small(self):
        Qp = make_field_cached(2, 1, 16)
        with pytest.raises(ValueError):
            random_point(2, Qp, seed=0)

    def test_n3(self):
        K3 = make_field_cached(2, 3, 24)
        pm = random_point(3, K3, seed=1)
        assert omega_membership(fil_G(pm)).in_omega
        rank, _ = certified_rank(pm.X)
        assert rank == 2

    def test_precision_error_candidate_is_skipped(self, monkeypatch):
        # the first candidate raises, as one whose inverse has no digits
        # does, and the sampler draws the next
        rejected = []

        def spy(X):
            if not rejected:
                rejected.append(X)
                raise PrecisionError("inverse has no significant digits")
            return from_matrix(X)

        monkeypatch.setattr(periods, "from_matrix", spy)
        pm = random_point(2, make_field_cached(2, 2, 2), 14)
        assert len(rejected) == 1 and pm.X is not rejected[0]
        assert certified_rank(pm.X)[0] == 1
        assert omega_membership(fil_G(pm)).in_omega


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sampler_product_keeps_a_rank_deficient_c_out(data):
    """random_point draws X = B * C with B a kernel basis of a normal, so B
    is saturated and X's divisors are at least C's: a C of certified rank
    below n - 1 makes from_matrix reject X, and the sampler needs no rank
    check of C."""
    p = data.draw(st.sampled_from([2, 3, 5]), label="p")
    n = data.draw(st.integers(2, 4), label="n")
    N = data.draw(st.integers(1, 8), label="N")
    K = make_field_cached(p, n, N)
    digits = st.lists(st.integers(0, p ** N - 1), min_size=n, max_size=n)
    normal = [K.from_coeffs(data.draw(digits), N) for _ in range(n)]
    kernel = kernel_basis(PadicMatrix(K, [normal]))
    assume(len(kernel) == n - 1)
    B = PadicMatrix(K, kernel).transpose()
    rows = [data.draw(digits) for _ in range(n - 1)]
    i = data.draw(st.integers(0, n - 2), label="deficient row")
    j = data.draw(st.integers(0, n - 2), label="copied row")
    if i == j:
        rows[i] = [0] * n
    else:
        c = data.draw(st.integers(0, p ** N), label="factor")
        rows[i] = [c * x for x in rows[j]]
    C = PadicMatrix.from_ints(K, rows)
    assert certified_rank(C)[0] < n - 1
    with pytest.raises((RankCertificationError, PrecisionError)) as exc:
        from_matrix(B * C)
    if exc.type is RankCertificationError:
        assert exc.value.kind == "rank_deficient"


def _k_path_act(g, d, pm, model, gen):
    """act with iota(d) embedded in K first and inverted over K."""
    K = pm.field
    iota = iota_matrix(model, d)
    iota_K = PadicMatrix(K, [[embed_element(e, K, gen) for e in row] for row in iota.rows])
    return from_matrix(_embed_rational(g, K, pm.precision).transpose() * pm.X * iota_K.inverse())


def _order_elements(p, n, f, rng):
    """Units, non-units with a_0 = 0 mod p and the Pi-powers of the
    acceptance suite, padded to n coefficients, as coefficient lists."""
    def coeffs():
        return [rng.randrange(p ** 8) for _ in range(n)]

    units = []
    while len(units) < 3:
        a0 = coeffs()
        if any(c % p for c in a0):
            units.append([a0] + [coeffs() for _ in range(n - 1)])
    non_units = [[[p * c for c in coeffs()]] + [coeffs() for _ in range(n - 1)]
                 for _ in range(3)]
    pad = [[0] * n] * (n - 2)
    powers = [[[0] * n, [1] + [0] * (n - 1)] + pad, [[2] + [0] * (n - 1), [0] * n] + pad,
              [[0] * n, [3] + [0] * (n - 1)] + pad]
    return units + non_units + powers


class TestInverseOverW:
    """act inverts iota(d) over W(F_{p^n}) and embeds the inverse; that is
    the K-side inverse of the embedded iota(d), entry by entry."""

    @pytest.fixture(scope="class", params=[(p, n, m) for p in (2, 3)
                                           for n, m in ((2, 2), (2, 4), (3, 3), (3, 6))],
                    ids=lambda c: f"p{c[0]}-n{c[1]}-m{c[2]}")
    def case(self, request):
        p, n, m = request.param
        N = 16
        K, model = make_field_cached(p, m, N), build_DH(n, N, p)
        return random_point(n, K, seed=5), model, field_embedding(model.field, K)

    def _pairs(self, case, shifted):
        """(g, d) for each order element, its coefficients shifted by 0-2
        at random if ``shifted``."""
        pm, model, gen = case
        p, n, f = model.field.p, model.n, model.field
        rng = random.Random(11)
        g = [[int(i == j) + p * rng.randrange(8) for j in range(n)] for i in range(n)]
        for d in _order_elements(p, n, f, rng):
            yield g, [f.from_coeffs(c, 16, rng.randrange(3) if shifted else 0) for c in d]

    def test_matches_the_k_path(self, case):
        pm, model, gen = case
        for g, d in self._pairs(case, False):
            ref, got = _k_path_act(g, d, pm, model, gen), act(g, d, pm, model, gen)
            assert [_fields(x) for x in _flat(got.X)] == [_fields(x) for x in _flat(ref.X)]

    def test_shifted_coefficients_keep_at_least_the_k_path_digits(self, case):
        pm, model, gen = case
        for g, d in self._pairs(case, True):
            ref, got = _k_path_act(g, d, pm, model, gen), act(g, d, pm, model, gen)
            for x, y in zip(_flat(got.X), _flat(ref.X), strict=True):
                assert x.abs_precision >= y.abs_precision
                assert x.approx_equal(y)


def _fields(x):
    return x.coeffs, x.shift, x.abs_precision


def _flat(M):
    return [x for row in M.rows for x in row]



def _ring_mul(a, b, f, mod):
    """a * b in Z[w]/(f, mod): coefficient lists low degree first, f monic
    of degree m = len(f) - 1."""
    m = len(f) - 1
    out = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    for k in range(2 * m - 2, m - 1, -1):  # w^k = -sum_i f_i w^(k - m + i)
        c = out[k]
        for i in range(m):
            out[k - m + i] -= c * f[i]
    return [x % mod for x in out[:m]]


def _ring_sum(terms, mod):
    return [sum(cs) % mod for cs in zip(*terms)]


def _ring_det(M, f, mod):
    """det M over Z[w]/(f, mod), by expansion along the first row."""
    if len(M) == 1:
        return M[0][0]
    terms = []
    for j, a in enumerate(M[0]):
        minor = _ring_det([row[:j] + row[j + 1:] for row in M[1:]], f, mod)
        term = _ring_mul(a, minor, f, mod)
        terms.append(term if j % 2 == 0 else [-x for x in term])
    return _ring_sum(terms, mod)


def _adjugate(X, f, mod):
    """adj(X)[j][i] = (-1)^(i+j) det of X without row i and column j."""
    n = len(X)
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for k, row in enumerate(X) if k != i]
            d = _ring_det(minor, f, mod)
            adj[j][i] = d if (i + j) % 2 == 0 else [-x % mod for x in d]
    return adj


def _proportional(u, l, f, mod):
    """Every 2 x 2 cross product u_i l_j - u_j l_i is 0 mod (f, mod)."""
    return all(not any(_ring_sum([_ring_mul(u[i], l[j], f, mod),
                                  [-x for x in _ring_mul(u[j], l[i], f, mod)]], mod))
               for i in range(len(u)) for j in range(i + 1, len(u)))


class TestAdjugateOracle:
    """X = B * C, B an n x (n-1) matrix over Z[w] and C an (n-1) x n integer
    matrix, has rank n - 1, so adj(X) X = X adj(X) = 0 and adj(X) has rank
    1: every row of adj(X) is proportional to fil_G's normal and every
    column to fil_H's.  The product and the cofactors are computed here mod
    (modulus, p^N), with no library routine; the proportionality is checked
    mod p^min(N, N_l), N_l the normal's precision."""

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("n", [2, 3])
    def test_rows_and_columns_of_the_adjugate(self, p, m, n):
        N = 16
        K = make_field_cached(p, m, N)
        f, mod = list(K.modulus), p ** N
        rng = random.Random(p * 100 + m * 10 + n)
        checked = nonzero = 0
        for _ in range(75):
            B = [[[rng.randrange(mod) for _ in range(m)] for _ in range(n - 1)]
                 for _ in range(n)]
            C = [[rng.randrange(mod) for _ in range(n)] for _ in range(n - 1)]
            X = [[_ring_sum([[c * x for x in b] for b, c in zip(B[i], [row[j] for row in C])],
                            mod) for j in range(n)] for i in range(n)]
            try:
                pm = from_matrix(PadicMatrix(K, [[K.from_coeffs(x, N) for x in row]
                                                 for row in X]))
            except (RankCertificationError, PrecisionError):
                continue
            adj = _adjugate(X, f, mod)
            for normal, vectors in ((fil_G(pm).normal, adj),
                                    (fil_H(pm).normal, [list(c) for c in zip(*adj)])):
                assert all(x.shift == 0 for x in normal)
                cut = p ** min(N, min(x.abs_precision for x in normal))
                l = [list(x.coeffs) for x in normal]
                for u in vectors:
                    nonzero += any(any(c % cut for c in x) for x in u)
                    assert _proportional(u, l, f, cut)
            checked += 1
        assert checked == 75 and nonzero
