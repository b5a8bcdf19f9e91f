"""End-to-end acceptance criteria.

Each test covers one numbered criterion, prints a single PASS/FAIL line
(run with ``pytest -s`` to see them), and enforces the stated runtime
budget where one applies.  All comparisons are exact unless noted.
"""

import io
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

from padicperiods import cli
from padicperiods.formal import (
    BivariateSeriesTrunc,
    group_law,
    height_certificate,
    zeta_action,
)
from padicperiods.formal import _compose_univariate_bivariate
from padicperiods.ledger import (
    CMDatum,
    HeightLedger,
    beta_integrality,
    check_sum_identity,
    cm_period_valuations,
    det_valuation_Dr,
    det_valuation_LT,
    functional_equation_valuations,
    height_transfer,
)
from padicperiods.models import build_DG, build_DH, iota_matrix, od_multiply
from padicperiods.padic import (
    PadicMatrix,
    certified_rank,
    embed_element,
    field_embedding,
    is_exact,
    make_field_cached,
    saturate_lattice,
    smith_form,
    teichmueller,
)
from padicperiods.periods import (
    act,
    correspond,
    fil_G,
    fil_H,
    omega_membership,
    random_point,
    subspaces_equal,
    translate_point,
)
from padicperiods.semilinear import Isocrystal, newton_slopes, phi_fixed_points


def _report(num, name, ok, elapsed):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert ok


def test_criterion_1_cm_valuation_tables():
    t0 = time.time()
    ok = True
    for p in (2, 3, 5):
        for h in range(1, 7):
            q = p ** h - 1
            for i0 in range(h):
                vals = cm_period_valuations(p, h, i0)
                # closed-form oracle, recomputed independently
                for i, v in enumerate(vals):
                    e = i - i0 if i >= i0 else h + i - i0
                    ok = ok and v == Fraction(p ** e, q)
                datum = CMDatum(p, h, i0)
                ok = ok and check_sum_identity(datum)
                ok = ok and sum(vals) == Fraction(1, p - 1)
                ok = ok and beta_integrality(datum) == 0
                ok = ok and functional_equation_valuations(datum)
    elapsed = time.time() - t0
    _report(1, "CM valuation tables", ok and elapsed < 1.0, elapsed)


def _shear_conjugate(A, mod, rng, shears=12):
    """Random unimodular conjugation G M G^{-1} via elementary row/column
    shears applied in matching pairs; exact mod p^N arithmetic."""
    n = len(A)
    M = [row[:] for row in A]
    for _ in range(shears):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randrange(1, 8)
        for k in range(n):  # row_i += c*row_j
            M[i][k] = (M[i][k] + c * M[j][k]) % mod
        for k in range(n):  # col_j -= c*col_i
            M[k][j] = (M[k][j] - c * M[k][i]) % mod
    return M


def test_criterion_2_slope_suite():
    t0 = time.time()
    ok = True
    N = 14
    f = make_field_cached(2, 1, N)
    rng = random.Random(2024)
    cases = []
    for n in range(1, 6):
        dh = build_DH(n, precision=N)
        dg = build_DG(n, precision=N)
        cases.append((n, dh.isocrystal(), [Fraction(1, n)] * n))
        cases.append((n, dg.isocrystal(), [Fraction(1, n)] * (n * n)))
    for n, iso, expected in cases:
        ok = ok and newton_slopes(iso) == expected
        A = [[e.coeffs[0] for e in row] for row in iso.frob_matrix.rows]
        mod = 2 ** N
        for _ in range(50):
            M = _shear_conjugate(A, mod, rng)
            iso2 = Isocrystal(f, iso.dim, PadicMatrix.from_ints(f, M, N))
            ok = ok and newton_slopes(iso2) == expected
    # unit-root operator: slopes 0 and an n-dimensional Q_p-fixed space
    for n in range(2, 6):
        mod_g = build_DG(n, precision=10)
        ur = mod_g.unit_root_operator(mod_g.field)
        ok = ok and newton_slopes(ur) == [Fraction(0)] * n
        ok = ok and len(phi_fixed_points(ur, twist=0)) == n
    elapsed = time.time() - t0
    _report(2, "slope suite", ok and elapsed < 30.0, elapsed)


def test_criterion_3_correspondence_suite():
    t0 = time.time()
    ok = True
    total = 0
    indeterminate = 0
    for n, m in [(2, 2), (2, 4), (3, 3), (3, 6)]:
        K = make_field_cached(2, m, 32)
        for seed in range(50):
            total += 1
            pm = random_point(n, K, seed=seed)
            pt = correspond(pm)
            ok = ok and correspond(pt).X.approx_equal(pm.X)
            fg, fh = fil_G(pm), fil_H(pm)
            ok = ok and subspaces_equal(fil_G(pt), fh)
            ok = ok and subspaces_equal(fil_H(pt), fg)
            # orthogonality: l_G . X = 0 and X . l_H = 0
            for j in range(n):
                acc = None
                for i in range(n):
                    t = fg.normal[i] * pm.X.rows[i][j]
                    acc = t if acc is None else acc + t
                ok = ok and acc.is_zero_at_precision()
            for i in range(n):
                acc = None
                for j in range(n):
                    t = pm.X.rows[i][j] * fh.normal[j]
                    acc = t if acc is None else acc + t
                ok = ok and acc.is_zero_at_precision()
            # det indistinguishable from zero: last divisor inexact
            ok = ok and not is_exact(pm.divisors[-1])
            verdict = omega_membership(fg)
            if verdict.status == "indeterminate":
                indeterminate += 1
            else:
                ok = ok and verdict.status == "in_Omega"
    rate = indeterminate / total
    print(f"  indeterminate rate: {rate:.1%} ({indeterminate}/{total})")
    ok = ok and rate < 0.05
    elapsed = time.time() - t0
    _report(3, "correspondence suite", ok, elapsed)


def test_criterion_4_action_suite():
    t0 = time.time()
    ok = True
    n = 2
    K = make_field_cached(2, 2, 32)
    model = build_DH(n, precision=32)
    gen = field_embedding(model.field, K)
    pm = random_point(n, K, seed=99)
    rng = random.Random(4)

    def rand_g():
        while True:
            g = [[rng.randrange(2 ** 6) for _ in range(n)] for _ in range(n)]
            if (g[0][0] * g[1][1] - g[0][1] * g[1][0]) % 2 == 1:
                return g

    def rand_d():
        f = model.field
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

    pairs = [(rand_g(), rand_d()) for _ in range(96)]
    # plus explicit Pi-powers on the order side
    pairs += [([[1, 0], [0, 1]], [0, 1]), ([[1, 0], [0, 1]], [2, 0]),
              ([[3, 1], [2, 1]], [0, 1]), ([[1, 0], [2, 1]], [0, 3])]
    for g, d in pairs:
        out = act(g, d, pm, model)
        rank, _ = certified_rank(out.X)
        ok = ok and rank == n - 1
        gT = PadicMatrix.from_ints(K, [[g[j][i] for j in range(n)] for i in range(n)], 32)
        ok = ok and subspaces_equal(fil_G(out), translate_point(fil_G(pm), gT))
        iota = iota_matrix(model, d)
        iotaK = PadicMatrix(
            K, [[embed_element(e, K, gen) for e in row] for row in iota.rows]
        )
        MT = iotaK.inverse().transpose()
        ok = ok and subspaces_equal(fil_H(out), translate_point(fil_H(pm), MT))
    # central pairs fix both filtrations
    for c in (3, 5):
        out = act([[c, 0], [0, c]], [c, 0], pm, model)
        ok = ok and subspaces_equal(fil_G(out), fil_G(pm))
        ok = ok and subspaces_equal(fil_H(out), fil_H(pm))
    # Omega membership preserved under the GL_n factor
    for _ in range(10):
        out = act(rand_g(), [1, 0], pm, model)
        ok = ok and omega_membership(fil_G(out)).status == "in_Omega"
    elapsed = time.time() - t0
    _report(4, "action suite", ok, elapsed)


def test_criterion_5_height_ledger():
    t0 = time.time()
    ok = True
    for n in range(1, 5):
        for htH in range(-6, 7):
            for htG in range(-6, 7):
                led = HeightLedger(n, htH, htG, n * (n - 1) // 2)
                # closed-form oracles, recomputed with plain Fractions
                ok = ok and det_valuation_LT(led) == (
                    -Fraction(htH) - Fraction(n * (n - 1), 2)
                )
                ok = ok and det_valuation_Dr(led) == (
                    -Fraction(htG, n) - Fraction(n * (n - 1), 2)
                )
                verdict = height_transfer(led)
                ok = ok and verdict.consistent == (Fraction(htG, n) == htH)
    elapsed = time.time() - t0
    _report(5, "height ledger", ok, elapsed)


def test_criterion_6_formal_group():
    t0 = time.time()
    ok = True
    for p, h in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        D = p ** h + p
        fgl = group_law(p, h, D)
        law = fgl.law
        for (i, j), c in law.coeffs.items():
            if j == 0:
                ok = ok and (i, c) == (1, Fraction(1))
            if i == 0:
                ok = ok and (j, c) == (1, Fraction(1))
            ok = ok and c.denominator % p != 0
        ok = ok and law.swap().coeffs == law.coeffs
        # associativity via log additivity: f(F(X,Y)) = f(X) + f(Y)
        fx = BivariateSeriesTrunc(
            {(k, 0): c for k, c in enumerate(fgl.log.coeffs) if c != 0}, D
        )
        diff = _compose_univariate_bivariate(fgl.log, law) + (fx + fx.swap()).scale(-1)
        ok = ok and not diff.coeffs
        height, _ = height_certificate(fgl)
        ok = ok and height == p ** h
        K = make_field_cached(p, h, 16)
        zeta = teichmueller(K, [0, 1] if h > 1 else [p - 1])
        try:
            zeta_action(fgl, zeta)
        except ValueError:
            ok = False
    elapsed = time.time() - t0
    _report(6, "formal group", ok and elapsed < 10.0, elapsed)


def test_criterion_7_lattice_saturation():
    t0 = time.time()
    ok = True
    rng = random.Random(7)
    f = make_field_cached(2, 1, 24)
    for _ in range(100):
        r = rng.randrange(2, 5)
        c = rng.randrange(1, r + 1)
        exps = sorted(rng.randrange(0, 6) for _ in range(c))
        # planted construction: D = diag(p^e), then unimodular row/col mixes
        M = [[0] * c for _ in range(r)]
        for k in range(c):
            M[k][k] = 2 ** exps[k]
        for _ in range(10):
            i, j = rng.randrange(r), rng.randrange(r)
            if i != j:
                a = rng.randrange(1, 4)
                for k in range(c):
                    M[i][k] += a * M[j][k]
            i, j = rng.randrange(c), rng.randrange(c)
            if i != j:
                a = rng.randrange(1, 4)
                for k in range(r):
                    M[k][i] += a * M[k][j]
        PM = PadicMatrix.from_ints(f, M, 24)
        # oracle: elementary divisors equal the planted exponents
        _, div = certified_rank(PM)
        ok = ok and div[:c] == exps
        S = saturate_lattice(PM)
        rank_s, div_s = certified_rank(S)
        ok = ok and rank_s == c and div_s[:c] == [0] * c
        # same span after inverting p: stacking M's columns adds no rank
        joint = PadicMatrix(f, [S.rows[i] + PM.rows[i] for i in range(r)])
        rank_j, _ = certified_rank(joint)
        ok = ok and rank_j == c
    elapsed = time.time() - t0
    _report(7, "lattice saturation", ok, elapsed)


def test_criterion_8_cli_determinism():
    t0 = time.time()
    ok = True
    argvs = [
        ["models", "--n", "2", "--precision", "12"],
        ["models", "--n", "3", "--precision", "12"],
        ["correspond", "--n", "2", "--m", "2", "--seed", "7", "--precision", "32"],
        ["correspond", "--n", "3", "--m", "3", "--seed", "1", "--precision", "32"],
        ["ledger", "--p", "2", "--h", "3", "--i0", "0"],
        ["ledger", "--heights", "2,3,6,1"],
        ["formal-group", "--p", "2", "--h", "2", "--D", "8"],
        ["--pretty", "ledger", "--p", "5", "--h", "2", "--i0", "1"],
    ]
    for argv in argvs:
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(argv)
            outs.append(buf.getvalue().encode())
            ok = ok and code == 0
        ok = ok and outs[0] == outs[1] and outs[0].endswith(b"\n")
        ok = ok and json.loads(outs[0])["schema"] == 1
    elapsed = time.time() - t0
    _report(8, "CLI determinism", ok, elapsed)
