"""Stored sha256 digests of the action path: act(g, d) on a seeded base
point with both filtrations of its image, iota(d) on both models, and the
field embedding of iota's entries and of d's coefficients, divided by p or
at half the precision.  Each digest covers the coefficients, shift and
precision of every entry, so the bytes of these outputs cannot change
unnoticed.  A change that means to alter them regenerates the stored file,
with every digest recomputed from this checkout's ``src``:

    python tools/action_digests.py > tests/action_digests.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from padicperiods.models import build_DG, build_DH, dg_iota_matrix, iota_matrix
from padicperiods.padic import embed_element, field_embedding, make_field_cached
from padicperiods.periods import act, fil_G, fil_H, random_point

ACTION_DIGESTS = Path(__file__).with_name("action_digests.json")


def _entry(x):
    return f"{','.join(map(str, x.coeffs))};{x.shift};{x.abs_precision}"


def _digest(entries):
    return hashlib.sha256("|".join(_entry(x) for x in entries).encode()).hexdigest()


def _flat(M):
    return [x for row in M.rows for x in row]


def action_digests(case):
    """The digests of one stored case {p, n, m, precision, seed, g, d}."""
    p, n, m, N = case["p"], case["n"], case["m"], case["precision"]
    model = build_DH(n, N, p)
    K = make_field_cached(p, m, N)
    gen = field_embedding(model.field, K)
    d = [model.field.from_coeffs(c, N) for c in case["d"]]
    base = random_point(n, K, case["seed"])
    out = act(case["g"], d, base, model, gen)
    fg, fh = fil_G(out), fil_H(out)
    iota = iota_matrix(model, d)
    # the shift branch, and elements known to less than K's precision
    scaled = [model.field.from_coeffs(c, N, 1) for c in case["d"]]
    scaled += [model.field.from_coeffs(c, N // 2) for c in case["d"]]
    return {
        "act": _digest(_flat(out.X)),
        "fil_G": _digest(_flat(fg.basis) + fg.normal),
        "fil_H": _digest(_flat(fh.basis) + fh.normal),
        "iota_matrix": _digest(_flat(iota)),
        "dg_iota_matrix": _digest(_flat(dg_iota_matrix(build_DG(n, N, p), d))),
        "embed_element": _digest([embed_element(x, K, gen) for x in _flat(iota) + scaled]),
    }


CASES = json.loads(ACTION_DIGESTS.read_text())


@pytest.mark.parametrize(
    "case", CASES,
    ids=lambda c: f"p{c['p']}-n{c['n']}-m{c['m']}-seed{c['seed']}",
)
def test_action_outputs_match_digests(case):
    assert action_digests(case) == case["digests"]


def test_cases_cover_the_workload_pairs():
    pairs = {(c["n"], c["m"]) for c in CASES}
    assert {(2, 2), (2, 4), (3, 3), (3, 6)} <= pairs
    assert len(CASES) >= 8
    # one d has a p-power coefficient: iota then carries p^k terms past the wrap
    assert any(
        any(x > 1 and x & (x - 1) == 0 for c in case["d"] for x in c)
        for case in CASES if case["p"] == 2
    )
