"""Isocrystals: linearization, Newton slopes, fixed points, admissibility."""

import random
from fractions import Fraction

import pytest

from padicperiods.padic import PadicMatrix, make_field_cached
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
