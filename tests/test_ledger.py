"""Exact-rational valuation ledger: CM tables, determinant laws, transfer."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from padicperiods.ledger import (
    CMDatum,
    HeightLedger,
    beta_integrality,
    check_report,
    check_sum_identity,
    cm_period_valuations,
    det_valuation_Dr,
    det_valuation_LT,
    functional_equation_valuations,
    height_transfer,
    lt_character_valuation,
)

SMALL_PRIMES = [2, 3, 5]


class TestCMTable:
    def test_h3_critical_zero(self):
        vals = cm_period_valuations(2, 3, 0)
        assert vals == [Fraction(1, 7), Fraction(2, 7), Fraction(4, 7)]

    def test_h3_critical_one(self):
        vals = cm_period_valuations(2, 3, 1)
        assert vals == [Fraction(4, 7), Fraction(1, 7), Fraction(2, 7)]

    def test_h1(self):
        for p in SMALL_PRIMES:
            assert cm_period_valuations(p, 1, 0)[0] == Fraction(1, p - 1)

    def test_index_range(self):
        with pytest.raises(ValueError):
            cm_period_valuations(2, 3, 3)

    def test_cyclic_orbit_structure(self):
        # the i_0 > 0 table is the i_0 = 0 table cyclically rotated
        for p in SMALL_PRIMES:
            for h in range(2, 5):
                base = cm_period_valuations(p, h, 0)
                for i0 in range(h):
                    rot = cm_period_valuations(p, h, i0)
                    assert rot == [base[(i - i0) % h] for i in range(h)]


class TestIdentities:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(SMALL_PRIMES),
        st.integers(1, 6),
        st.data(),
    )
    def test_all_identities(self, p, h, data):
        i0 = data.draw(st.integers(0, h - 1))
        datum = CMDatum(p, h, i0)
        assert check_sum_identity(datum)
        assert functional_equation_valuations(datum)
        assert beta_integrality(datum) == Fraction(0)

    def test_sum_identity_does_not_read_beta_integrality(self):
        # the two ledger checks compute v(beta) independently
        datum = CMDatum(3, 4, 1)
        with mock.patch("padicperiods.ledger.beta_integrality", return_value=Fraction(1)):
            assert check_sum_identity(datum)
        ys = datum.y_valuations()
        for wrong in ([2 * ys[0]] + ys[1:], [ys[0]] * 4):
            with mock.patch.object(CMDatum, "y_valuations", return_value=wrong):
                assert not check_sum_identity(datum)

    def test_functional_equation_wrap(self):
        # p*v(y_{h-1}) picks up the extra factor p at the critical wrap
        datum = CMDatum(2, 3, 0)
        ys = datum.y_valuations()
        assert 2 * ys[2] == ys[0] + 1

    def test_character_matches_table(self):
        for p in SMALL_PRIMES:
            for h in range(1, 5):
                table = cm_period_valuations(p, h, 0)
                for i in range(h):
                    assert lt_character_valuation(i, p, h) == table[i]

    def test_character_examples(self):
        assert lt_character_valuation(2, 2, 3) == Fraction(4, 7)
        assert lt_character_valuation(1, 3, 2) == Fraction(3, 8)
        assert lt_character_valuation(0, 5, 1) == Fraction(1, 4)


class TestDetLaws:
    def test_lt_examples(self):
        assert det_valuation_LT(HeightLedger(2, 0, 0, 1)) == -1
        assert det_valuation_LT(HeightLedger(3, 2, 0, 3)) == -5
        assert det_valuation_LT(HeightLedger(1, 0, 0, 0)) == 0

    def test_dr_examples(self):
        assert det_valuation_Dr(HeightLedger(2, 0, 0, 1)) == -1
        assert det_valuation_Dr(HeightLedger(3, 0, 3, 3)) == -4
        assert det_valuation_Dr(HeightLedger(1, 0, 0, 0)) == 0

    def test_lt_strictly_decreasing_in_height(self):
        prev = None
        for ht in range(-6, 7):
            v = det_valuation_LT(HeightLedger(3, ht, 0, 3))
            if prev is not None:
                assert v < prev
            prev = v


class TestTransfer:
    def test_consistent(self):
        assert height_transfer(HeightLedger(2, 3, 6, 1)).consistent

    def test_inconsistent(self):
        v = height_transfer(HeightLedger(2, 3, 4, 1))
        assert not v.consistent and v.normalized_height is None

    def test_n1_trivial(self):
        v = height_transfer(HeightLedger(1, 5, 5, 0))
        assert v.consistent and v.normalized_height == 5

    def test_requires_half_pyramid_height(self):
        with pytest.raises(ValueError):
            height_transfer(HeightLedger(3, 0, 0, 2))

    def test_round_trip_consistency(self):
        # consistency is exactly ht_H = ht_G/n on the grid
        for n in range(1, 5):
            for htH in range(-6, 7):
                for htG in range(-6, 7):
                    led = HeightLedger(n, htH, htG, n * (n - 1) // 2)
                    assert height_transfer(led).consistent == (
                        Fraction(htG, n) == htH
                    )


class TestReports:
    def test_check_report_encoding(self):
        r = check_report(
            "x", {"p": 2}, Fraction(1, 2), Fraction(1, 2)
        )
        assert r["pass"] and r["expected"] == "1/2"

    def test_check_report_mismatch(self):
        r = check_report("x", {}, Fraction(1), Fraction(2))
        assert not r["pass"]


class TestFractionResults:
    def test_every_valuation_is_a_fraction(self):
        datum = CMDatum(3, 4, 1)
        led = HeightLedger(3, 2, 6, 3)
        verdict = height_transfer(led)
        values = [
            *cm_period_valuations(3, 4, 1),
            *datum.y_valuations(),
            det_valuation_LT(led),
            det_valuation_Dr(led),
            verdict.lt_value,
            verdict.dr_value,
            lt_character_valuation(2, 3, 4),
            beta_integrality(datum),
        ]
        assert all(type(v) is Fraction for v in values)
