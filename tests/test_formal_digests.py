"""Stored sha256 digests of the formal group's outputs: the ``to_json`` of
the law, the logarithm, the exponential and the [p]-series, over a grid of
(p, h) and truncation degrees.  The JSON encodes every coefficient as an
exact "num/den" string, so no value of these series can change unnoticed."""

import hashlib
import json
from pathlib import Path

import pytest

from padicperiods.formal import group_law, p_series

FORMAL_DIGESTS = Path(__file__).with_name("formal_digests.json")
PH = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)]


def _digest(series):
    text = json.dumps(series.to_json(), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def formal_digests(p, h, D):
    fgl = group_law(p, h, D)
    return {
        "law": _digest(fgl.law),
        "log": _digest(fgl.log),
        "exp": _digest(fgl.exp),
        "p_series": _digest(p_series(fgl)),
    }


def grid():
    """(p, h, D) for D in {p^h + p, 2p^h}; the two agree when h = 1."""
    return [(p, h, D) for p, h in PH for D in sorted({p ** h + p, 2 * p ** h})]


CASES = json.loads(FORMAL_DIGESTS.read_text())


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"p{c['p']}-h{c['h']}-D{c['D']}")
def test_formal_outputs_match_digests(case):
    assert formal_digests(case["p"], case["h"], case["D"]) == case["digests"]


def test_cases_cover_the_grid():
    assert [(c["p"], c["h"], c["D"]) for c in CASES] == grid()

