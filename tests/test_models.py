"""Integral models: cyclic operators, slopes, order action, block isogeny."""

import random
from fractions import Fraction

import pytest

from padicperiods.padic import PadicMatrix, make_field_cached, teichmueller
from padicperiods.semilinear import Isocrystal, newton_slopes
from padicperiods.models import (
    build_DG,
    build_DH,
    delta_matrix,
    dg_iota_matrix,
    iota_matrix,
    od_multiply,
    phi_matrix,
)


def _lift(f, M):
    """Reinterpret an integer-entry rational matrix over the field f."""
    return PadicMatrix(f, [[f.from_int(e.coeffs[0]) for e in row] for row in M.rows])


class TestPhiMatrix:
    def test_n1_special_case(self):
        M = phi_matrix(1, 16)
        assert M.rows[0][0].coeffs[0] == 2

    def test_n2_shape(self):
        M = phi_matrix(2, 16)
        vals = [[e.coeffs[0] for e in row] for row in M.rows]
        assert vals == [[0, 2], [1, 0]]

    def test_det_valuation(self):
        for n in (2, 3, 4):
            assert phi_matrix(n, 16).det_valuation() == n - 1

    def test_phi_V_product(self):
        for n in (2, 3, 4):
            mod = build_DH(n, precision=16)
            prod = mod.frobenius_matrix * mod.V_matrix
            f = mod.V_matrix.field
            pI = PadicMatrix.from_ints(
                f, [[2 if i == j else 0 for j in range(n)] for i in range(n)]
            )
            assert prod.approx_equal(pI)


class TestBuildDH:
    def test_slopes(self):
        for n in (1, 2, 3, 4):
            mod = build_DH(n, precision=20)
            s = newton_slopes(mod.isocrystal(mod.field))
            assert s == [Fraction(1, n)] * n

    def test_V_cubed_is_p(self):
        # V^n as a semilinear operator is multiplication by p composed with
        # sigma^{-n}; at matrix level V * sigma^{-1}(V) * sigma^{-2}(V) = pI
        mod = build_DH(3, precision=16)
        f = mod.field
        Mv = _lift(f, mod.V_matrix)
        acc = Mv
        for k in (1, 2):
            acc = acc * Mv.map_frobenius(-k)
        pI = PadicMatrix.from_ints(f, [[2 if i == j else 0 for j in range(3)] for i in range(3)])
        assert acc.approx_equal(pI)

    def test_json(self):
        d = build_DH(2, precision=8).to_json()
        assert d["n"] == 2 and d["basis_labels"] == ["Pi^0", "Pi^1"]


class TestBuildDG:
    def test_V_rule_n2(self):
        mod = build_DG(2, precision=16)
        V = mod.V_matrix
        # V(e_{0,0}) = e_{0,1}; V(e_{0,1}) = p e_{0,0}
        i00, i01 = mod.index(0, 0), mod.index(0, 1)
        assert V.rows[i01][i00].coeffs[0] == 1
        assert V.rows[i00][i01].coeffs[0] == 2
        assert V.rows[i00][i00].coeffs[0] == 0

    def test_graded_pieces(self):
        for n in (2, 3):
            mod = build_DG(n, precision=8)
            for i in range(n):
                assert len(mod.graded_piece_indices(i)) == n

    def test_grading_degree_of_V(self):
        mod = build_DG(3, precision=8)
        V = mod.V_matrix
        for src in range(9):
            for dst in range(9):
                if V.rows[dst][src].coeffs[0]:
                    assert mod.grading(dst) == (mod.grading(src) + 1) % 3

    def test_slopes(self):
        for n in (2, 3):
            mod = build_DG(n, precision=16)
            s = newton_slopes(mod.isocrystal(mod.field))
            assert s == [Fraction(1, n)] * (n * n)

    def test_unit_root_slopes(self):
        mod = build_DG(2, precision=16)
        s = newton_slopes(mod.unit_root_operator(mod.field))
        assert s == [Fraction(0)] * 2


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_slopes_over_model_field(n):
    """Both models over Q_{2^n}, DG(5) over Q_32 included."""
    dh, dg = build_DH(n, precision=32), build_DG(n, precision=32)
    assert newton_slopes(dh.isocrystal(dh.field)) == [Fraction(1, n)] * n
    assert newton_slopes(dg.isocrystal(dg.field)) == [Fraction(1, n)] * (n * n)


class TestIota:
    def test_identity(self):
        mod = build_DH(3, precision=16)
        M = iota_matrix(mod, [1, 0, 0])
        assert M.approx_equal(PadicMatrix.identity(mod.field, 3))

    def test_pi_n2(self):
        mod = build_DH(2, precision=16)
        f = mod.field
        M = iota_matrix(mod, [0, 1])
        assert M.rows[0][1].approx_equal(f.from_int(2))
        assert M.rows[1][0].approx_equal(f.one())
        assert M.rows[0][0].is_zero_at_precision()

    def test_scalar_diagonal(self):
        mod = build_DH(3, precision=16)
        f = mod.field
        a = teichmueller(f, [0, 1, 1])
        M = iota_matrix(mod, [a, 0, 0])
        for j in range(3):
            assert M.rows[j][j].approx_equal(a.frobenius_iterate(-j))
            for k in range(3):
                if k != j:
                    assert M.rows[j][k].is_zero_at_precision()

    def test_zero_rejected(self):
        mod = build_DH(2, precision=16)
        with pytest.raises(ZeroDivisionError):
            iota_matrix(mod, [0, 0])

    def test_multiplicativity(self):
        rng = random.Random(9)
        for n in (2, 3):
            mod = build_DH(n, precision=16)
            f = mod.field
            for _ in range(5):
                d1 = [f.from_coeffs([rng.randrange(2 ** 10) for _ in range(n)], 16) for _ in range(n)]
                d2 = [f.from_coeffs([rng.randrange(2 ** 10) for _ in range(n)], 16) for _ in range(n)]
                lhs = iota_matrix(mod, od_multiply(mod, d1, d2))
                rhs = iota_matrix(mod, d1) * iota_matrix(mod, d2)
                assert lhs.approx_equal(rhs)

    def test_V_equivariance(self):
        rng = random.Random(10)
        for n in (2, 3):
            mod = build_DH(n, precision=16)
            f = mod.field
            Mv = _lift(f, mod.V_matrix)
            d = [f.from_coeffs([rng.randrange(2 ** 8) for _ in range(n)], 16) for _ in range(n)]
            Mi = iota_matrix(mod, d)
            assert (Mv * Mi.map_frobenius(-1)).approx_equal(Mi * Mv)

    def test_dg_grade_action_on_teichmueller(self):
        mod = build_DG(3, precision=16)
        f = mod.field
        a = teichmueller(f, [0, 1])
        M = dg_iota_matrix(mod, [a, 0, 0])
        for k in range(9):
            g = mod.grading(k)
            assert M.rows[k][k].approx_equal(a.frobenius_iterate(-g))

    def test_dg_V_equivariance(self):
        rng = random.Random(11)
        for n in (2, 3):
            mod = build_DG(n, precision=16)
            f = mod.field
            Mv = _lift(f, mod.V_matrix)
            d = [f.from_coeffs([rng.randrange(2 ** 8) for _ in range(n)], 16) for _ in range(n)]
            Mi = dg_iota_matrix(mod, d)
            assert (Mv * Mi.map_frobenius(-1)).approx_equal(Mi * Mv)


class TestDelta:
    def test_heights(self):
        assert delta_matrix(1, 16).height == 0
        assert delta_matrix(2, 16).height == 1
        assert delta_matrix(3, 16).height == 3

    def test_n1_identity(self):
        D = delta_matrix(1, 16).matrix
        assert D.rows[0][0].coeffs[0] == 1

    def test_det_valuation_matches_height(self):
        for n in (2, 3, 4):
            d = delta_matrix(n, 16)
            assert d.matrix.det_valuation() == d.height

    def test_intertwines_order_action(self):
        rng = random.Random(12)
        for n in (2, 3):
            modH = build_DH(n, precision=16)
            modG = build_DG(n, precision=16)
            f = modH.field
            D = _lift(f, delta_matrix(n, 16).matrix)
            d = [f.from_coeffs([rng.randrange(2 ** 8) for _ in range(n)], 16) for _ in range(n)]
            MiH = iota_matrix(modH, d)
            nn = n * n
            blk = PadicMatrix(f, [[f.zero() for _ in range(nn)] for _ in range(nn)])
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        blk.rows[k * n + i][k * n + j] = MiH.rows[i][j]
            MiG = dg_iota_matrix(modG, d)
            assert (D * blk).approx_equal(MiG * D)

    def test_intertwines_V(self):
        for n in (2, 3):
            modH = build_DH(n, precision=16)
            modG = build_DG(n, precision=16)
            f = modH.field
            D = _lift(f, delta_matrix(n, 16).matrix)
            MvH = _lift(f, modH.V_matrix)
            MvG = _lift(f, modG.V_matrix)
            nn = n * n
            blkV = PadicMatrix(f, [[f.zero() for _ in range(nn)] for _ in range(nn)])
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        blkV.rows[k * n + i][k * n + j] = MvH.rows[i][j]
            assert (MvG * D.map_frobenius(-1)).approx_equal(D * blkV)
