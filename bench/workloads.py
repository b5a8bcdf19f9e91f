"""The four benchmark workloads.

Each workload is built from the workload seed alone and offers:

- ``setup()``: the library set-up a user pays before the first operation
  (field construction, models, embeddings); ``setup_s`` times it;
- ``cycle()``: the inputs of one round of the input mix, drawn from the seeded
  generator.  A run always executes whole rounds, so its mix is exact;
- ``run(inp)``: one operation, the only timed code;
- ``check(inp, out)``: the untimed check of that operation's output.

Library calls go through module attributes (``periods.fil_G``), so a traced
run sees them.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from padicperiods import cli, models, padic, periods, semilinear

P = 2
PRECISION = 32

# (n, m) of the period field Q_{2^m}.  (3, 3) comes twice per round so that
# the median and the 90th percentile of the round's latencies fall inside one
# pair's cluster rather than on the gap between two pairs.
PERIOD_PAIRS = [(2, 2), (2, 4), (3, 3), (3, 3), (3, 6)]


def _dot_is_zero(xs, ys):
    acc = None
    for x, y in zip(xs, ys):
        t = x * y
        acc = t if acc is None else acc + t
    return acc.is_zero_at_precision()


class Correspondence:
    """random_point -> correspond -> both filtrations of X and X^T -> the two
    duality checks -> Omega membership of X and X^T."""

    name = "correspondence"
    trace_cycles = 4

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def setup(self):
        self.fields = {
            m: padic.make_field_cached(P, m, PRECISION) for _, m in PERIOD_PAIRS
        }

    def cycle(self):
        return [(n, m, self.rng.randrange(2 ** 31)) for n, m in PERIOD_PAIRS]

    def run(self, inp):
        n, m, seed = inp
        pm = periods.random_point(n, self.fields[m], seed)
        pt = periods.correspond(pm)
        fg, fh = periods.fil_G(pm), periods.fil_H(pm)
        fg_t, fh_t = periods.fil_G(pt), periods.fil_H(pt)
        duality = (periods.subspaces_equal(fg_t, fh), periods.subspaces_equal(fh_t, fg))
        omega = (periods.omega_membership(fg), periods.omega_membership(fg_t))
        return pm, pt, fg, fh, fg_t, duality, omega

    def check(self, inp, out):
        n, m, _ = inp
        pm, pt, fg, fh, fg_t, duality, (omega_x, omega_tx) = out
        X = pm.X.rows
        if not periods.correspond(pt).X.approx_equal(pm.X) or not all(duality):
            return False
        if padic.is_exact(pm.divisors[-1]):  # det must be indistinguishable from 0
            return False
        # l_G . X = 0 and X . l_H = 0
        if not all(_dot_is_zero(fg.normal, [X[i][j] for i in range(n)]) for j in range(n)):
            return False
        if not all(_dot_is_zero(X[i], fh.normal) for i in range(n)):
            return False
        # The sampler certifies fil_G(X) in Omega.  X = B*C with C an integer
        # matrix, so the hyperplane of X^T is spanned by rational vectors and
        # is not in Omega; its witness must lie in that hyperplane.
        if omega_x.status != "in_Omega" or omega_tx.status != "not_in_Omega":
            return False
        K = self.fields[m]
        w = [K.from_coeffs([c.coeffs[0]], c.abs_precision, c.shift) for c in omega_tx.witness]
        return _dot_is_zero(fg_t.normal, w)


def _shear_conjugate(A, mod, rng, shears=12):
    """G A G^{-1} for a product G of random integer shears, mod ``mod``."""
    n = len(A)
    M = [row[:] for row in A]
    for _ in range(shears):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randrange(1, 8)
        for k in range(n):  # row_i += c * row_j
            M[i][k] = (M[i][k] + c * M[j][k]) % mod
        for k in range(n):  # col_j -= c * col_i
            M[k][j] = (M[k][j] - c * M[k][i]) % mod
    return M


class Slopes:
    """newton_slopes of one isocrystal.  A round holds the build_DH(n) and
    build_DG(n) isocrystals over Q_{2^n} (linearize and the generic charpoly)
    and one seeded shear-conjugate of each of the same integer matrices over
    Q_2, n = 2..5 (the integer Berkowitz path; numpy above dimension 4), in a
    seeded order.  build_DG(5) over Q_32 is left out: its single 2-second
    operation would make a round outlast the host-speed measurement taken
    after it, and build_DG(4) over Q_16 carries the same dense
    extension-field cost.  With those 15 operations the median falls on the
    DG(4) shear and the 90th percentile on the DG(3) isocrystal over Q_8,
    each inside one latency cluster rather than on the gap between two."""

    name = "slopes"
    trace_cycles = 2
    INT_PRECISION = 14  # keeps the dimension-25 numpy path free of overflow

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def setup(self):
        self.ext, self.ints = [], []
        for n in range(2, 6):
            expected = Fraction(1, n)
            for kind, build in (("DH", models.build_DH), ("DG", models.build_DG)):
                if (kind, n) != ("DG", 5):
                    model = build(n, precision=PRECISION)
                    iso = model.isocrystal(model.field)
                    self.ext.append((iso, [expected] * iso.dim))
                rational = build(n, precision=self.INT_PRECISION).isocrystal()
                A = [[e.coeffs[0] for e in row] for row in rational.frob_matrix.rows]
                self.ints.append((A, [expected] * rational.dim))
        self.q2 = padic.make_field_cached(P, 1, self.INT_PRECISION)

    def cycle(self):
        N = self.INT_PRECISION
        ops = list(self.ext)
        for A, expected in self.ints:
            M = _shear_conjugate(A, P ** N, self.rng)
            iso = semilinear.Isocrystal(
                self.q2, len(M), padic.PadicMatrix.from_ints(self.q2, M, N)
            )
            ops.append((iso, expected))
        self.rng.shuffle(ops)
        return ops

    def run(self, inp):
        return semilinear.newton_slopes(inp[0])

    def check(self, inp, out):
        return out == inp[1]


def _int_det(g):
    if len(g) == 1:
        return g[0][0]
    return sum(
        (-1) ** j * g[0][j] * _int_det([row[:j] + row[j + 1:] for row in g[1:]])
        for j in range(len(g))
    )


class Action:
    """act(g, d, pm, model) for g in GL_n(Z_2) and an order unit d, then both
    filtrations of the image.  One base point and one field embedding per
    (n, m) pair are made in set-up."""

    name = "action"
    trace_cycles = 8

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def setup(self):
        self.models = {n: models.build_DH(n, precision=PRECISION) for n, _ in PERIOD_PAIRS}
        self.pairs = {}
        for n, m in PERIOD_PAIRS:
            if (n, m) in self.pairs:
                continue
            K = padic.make_field_cached(P, m, PRECISION)
            gen = padic.field_embedding(self.models[n].field, K)
            base = periods.random_point(n, K, self.rng.randrange(2 ** 31))
            self.pairs[(n, m)] = (K, gen, base)
        self.base_fil_G = {}

    def _order_unit(self, n):
        # d = a_0 + a_1 Pi + ... is a unit of the order iff a_0 is a unit of
        # W(F_{2^n}), i.e. some coefficient of a_0 is odd.
        f = self.models[n].field
        while True:
            a0 = [self.rng.randrange(2 ** 8) for _ in range(n)]
            if any(c % 2 for c in a0):
                break
        rest = [[self.rng.randrange(2 ** 8) for _ in range(n)] for _ in range(n - 1)]
        return [f.from_coeffs(c, PRECISION) for c in [a0] + rest]

    def _unit_matrix(self, n):
        while True:
            g = [[self.rng.randrange(2 ** 6) for _ in range(n)] for _ in range(n)]
            if _int_det(g) % 2:
                return g

    def cycle(self):
        return [(n, m, self._unit_matrix(n), self._order_unit(n)) for n, m in PERIOD_PAIRS]

    def run(self, inp):
        n, m, g, d = inp
        _, gen, base = self.pairs[(n, m)]
        out = periods.act(g, d, base, self.models[n], gen)
        return out, periods.fil_G(out), periods.fil_H(out)

    def check(self, inp, out):
        n, m, g, _ = inp
        image, fg, _ = out
        K, _, base = self.pairs[(n, m)]
        if padic.certified_rank(image.X)[0] != n - 1:
            return False
        if (n, m) not in self.base_fil_G:
            self.base_fil_G[(n, m)] = periods.fil_G(base)
        gT = padic.PadicMatrix.from_ints(K, [list(col) for col in zip(*g)], PRECISION)
        return periods.subspaces_equal(
            fg, periods.translate_point(self.base_fil_G[(n, m)], gT)
        )


DIGESTS = Path(__file__).with_name("cli_digests.json")


class Cli:
    """In-process ``cli.main(argv)`` with stdout captured; a round runs every
    argv of ``cli_digests.json`` once, plus the four fastest commands once
    more, in a seeded order.  With those 15 operations the median falls on
    ``formal-group --p 2 --h 2`` and the 90th percentile on ``models --n 3``,
    each inside one command's latency cluster rather than on the gap between
    two."""

    name = "cli"
    trace_cycles = 1
    TWICE = (
        ["ledger", "--heights", "2,3,6,1"],
        ["--pretty", "ledger", "--p", "5", "--h", "2", "--i0", "1"],
        ["ledger", "--p", "2", "--h", "3", "--i0", "0"],
        ["formal-group", "--p", "2", "--h", "2", "--D", "8"],
    )

    def __init__(self, seed):
        self.rng = random.Random(seed)
        entries = json.loads(DIGESTS.read_text())
        self.round = entries + [e for e in entries if e["argv"] in self.TWICE]

    def setup(self):
        pass

    def cycle(self):
        ops = list(self.round)
        self.rng.shuffle(ops)
        return ops

    def run(self, inp):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(inp["argv"]))
            except SystemExit as exc:  # argparse rejected the flags
                code = exc.code
        return code, out.getvalue()

    def check(self, inp, out):
        code, text = out
        return code == inp["exit"] and hashlib.sha256(text.encode()).hexdigest() == inp["sha256"]

    @staticmethod
    def stdout_bytes(out):
        return len(out[1].encode())


WORKLOADS = {w.name: w for w in (Correspondence, Slopes, Action, Cli)}
