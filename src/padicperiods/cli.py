"""Batch command-line front end: builds models, runs the period-matrix
correspondence pipeline, evaluates the valuation ledger, and certifies the
formal group, emitting deterministic JSON reports.

Exit codes: 0 all checks passed, 1 a check failed, 2 bad flags, 3 rank
certification rejected the input matrix, 4 an indeterminate verdict was
produced (report still emitted) or a PrecisionError stopped the command
before its report, 5 integrality assertion failed.  A command refuses a bad
flag by raising ``_Refusal``, whose one line ``main`` prints before it
returns 2; the caps on flags whose cost grows fast are README's cap table.

``PADIC_PRECISION`` (default 32) is read on every ``main`` call, so an
in-process caller may change it between calls; the parser is built once per
process, on the first call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import formal, ledger as ledger_mod, models, periods, semilinear
from .ledger import _frac_str
from .padic import (
    PrecisionError,
    _is_prime,
    _json_int,
    make_field_cached,
    matrix_from_json,
    matrix_to_json,
    teichmueller,
)

SCHEMA = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_FLAGS = 2
EXIT_RANK_REJECTED = 3
EXIT_INDETERMINATE = 4
EXIT_INTEGRALITY = 5

# formal-group's law costs about D^4: D = 128 takes seconds
FORMAL_MAX_D = 128
# models costs about n^4, for the n^2 x n^2 matrices it builds and prints (DG(n)'s
# charpoly takes 12 ms of it at n = 16): n = 16 takes about 0.4 s, n = 24 2.3 s
MODELS_MAX_N = 16
# correspond: building Q_{p^m} takes 0.6 s at m = 64 and 13 s at m = 128; the
# pipeline takes 0.7 s at n = m = 16 and 7.6 s at n = m = 32 (5 s at n = 16, m = 64)
CORRESPOND_MAX_M = 64
CORRESPOND_MAX_N = 16
# correspond prints integers just below p^N (an entry may carry a digit or so
# more), and CPython's default limit on int-to-str conversion is 4300 digits
CORRESPOND_MAX_DIGITS = 4000
_DIGIT_LIMIT = 10 ** CORRESPOND_MAX_DIGITS  # formed once: about 30 us
# ledger prints h fractions of about h digits each: h = 1000 takes 0.2 s and
# prints 457 KB, h = 14000 16 s and 88 MB; p^h meets CORRESPOND_MAX_DIGITS too
LEDGER_MAX_H = 1000


def _default_precision():
    raw = os.environ.get("PADIC_PRECISION", "32")
    try:
        precision = int(raw)
    except ValueError:
        precision = 0
    if precision < 1:
        raise ValueError(f"PADIC_PRECISION must be an integer >= 1 (got {raw!r})")
    return precision


def _emit(report, pretty):
    report["schema"] = SCHEMA
    if pretty:
        text = json.dumps(report, sort_keys=True, indent=2)
    else:
        text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    sys.stdout.write(text + "\n")


class _Refusal(Exception):
    """A bad flag, carrying the whole stderr line; not a ValueError, so the
    ``--matrix`` block's handler lets it through to ``main``."""


def _over(key, value, cap):
    """The line refusing ``key`` past ``cap``, or None."""
    if value > cap:
        return f"{key} must be <= {cap} (got {key.lstrip('-')}={value})"
    return None


def cmd_models(args):
    n, p, precision = args.n, args.p, args.precision
    refusal = _over("--n", n, MODELS_MAX_N)
    if refusal:
        raise _Refusal(f"models: {refusal}")
    if not _is_prime(p):
        raise _Refusal(f"models: --p must be a prime (got p={p})")
    dh = models.build_DH(n, precision=precision, base_p=p)
    dg = models.build_DG(n, precision=precision, base_p=p)
    delta = models.delta_matrix(n, precision=precision, base_p=p)
    report = {
        "command": "models",
        "n": n,
        "precision": precision,
        "height_n_model": dh.to_json(),
        "special_model": dg.to_json(),
        "phi_matrix": matrix_to_json(dh.frobenius_matrix),
        "delta": delta.to_json(),
        "slopes": {
            "height_n_model": semilinear.slopes_to_json(
                semilinear.newton_slopes(dh.isocrystal(dh.field))
            ),
            "special_model": semilinear.slopes_to_json(
                semilinear.newton_slopes(dg.isocrystal(dg.field))
            ),
        },
    }
    expected = f"1/{n}"
    ok = (
        report["slopes"]["height_n_model"] == [expected] * n
        and report["slopes"]["special_model"] == [expected] * (n * n)
        and delta.height == n * (n - 1) // 2
    )
    report["pass"] = ok
    _emit(report, args.pretty)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _digits_refusal(p, e, key, name):
    """One line naming ``key`` when p^e (e called ``name``) reaches
    10^CORRESPOND_MAX_DIGITS, or None.  p^e is formed only below
    2^(2 * bits(10^CORRESPOND_MAX_DIGITS)): above that, p^e >=
    2^(e * (bits(p) - 1)) is already past the cap."""
    if e > 0 and (e * (p.bit_length() - 1) >= _DIGIT_LIMIT.bit_length()
                  or p ** e >= _DIGIT_LIMIT):
        return (f"{key} must keep p^{name} below "
                f"10^{CORRESPOND_MAX_DIGITS} (got p={p}, {name}={e})")
    return None


def _matrix_file_refusal(doc):
    """The cap that a --matrix document breaks, read from its p, m,
    precision, number of rows n and longest row before the field or any
    entry is built; a document without those as integers is left to
    ``matrix_from_json``."""
    try:
        p, m, N = (_json_int(doc[k], k) for k in ("p", "m", "precision"))
    except (KeyError, TypeError, ValueError):
        return None
    rows = doc.get("coeffs")
    rows = rows if isinstance(rows, list) else []
    width = max((len(r) for r in rows if isinstance(r, list)), default=0)
    return (_over("m", m, CORRESPOND_MAX_M) or _digits_refusal(p, N, "precision", "N")
            or _over("n", len(rows), CORRESPOND_MAX_N) or _over("columns", width, CORRESPOND_MAX_N))


def cmd_correspond(args):
    precision = args.precision
    n = args.n
    report = {"command": "correspond", "n": n, "precision": precision}
    if args.matrix:
        try:
            with open(args.matrix) as fh:
                doc = json.load(fh)
            refusal = _matrix_file_refusal(doc)
            if refusal:
                raise ValueError(refusal)
            X = matrix_from_json(doc)
            if X.nrows != X.ncols or X.nrows < 2:
                raise ValueError(f"need an n x n matrix, n >= 2 (got {X.nrows}x{X.ncols})")
        except (OSError, ValueError) as exc:
            raise _Refusal(f"correspond: --matrix {args.matrix}: {exc}")
        report["n"] = n = X.nrows
        report["source"] = {"matrix": args.matrix}
        try:
            pm = periods.from_matrix(X)
        except periods.RankCertificationError as exc:
            report["rank_rejected"] = {"kind": exc.kind}
            report["pass"] = False
            _emit(report, args.pretty)
            return EXIT_RANK_REJECTED
    else:
        m = args.m
        if m is None or n is None:
            raise _Refusal("correspond: need --n and --m (or --matrix)")
        if n < 2:
            raise _Refusal(f"correspond: need --n >= 2 (got n={n})")
        if m < n:
            raise _Refusal(
                f"correspond: field too small, need m >= n (got m={m}, n={n}); "
                "a hyperplane over a degree-m field meets a rational vector whenever m < n")
        refusal = (_over("--n", n, CORRESPOND_MAX_N) or _over("--m", m, CORRESPOND_MAX_M)
                   or _digits_refusal(args.p, precision, "--precision (or PADIC_PRECISION)", "N"))
        if refusal:
            raise _Refusal(f"correspond: {refusal}")
        report["source"] = {"seed": args.seed, "m": m}
        K = make_field_cached(args.p, m, precision)
        pm = periods.random_point(n, K, args.seed)
    pt = periods.correspond(pm)
    fg, fh = periods.fil_G(pm), periods.fil_H(pm)
    fg_t, fh_t = periods.fil_G(pt), periods.fil_H(pt)
    involution_ok = periods.correspond(pt).X.approx_equal(pm.X)
    duality_ok = periods.subspaces_equal(fg_t, fh) and periods.subspaces_equal(
        fh_t, fg
    )
    omega_X = periods.omega_membership(fg)
    omega_tX = periods.omega_membership(fg_t)
    report.update(
        {
            "matrix": matrix_to_json(pm.X),
            "fil_G": fg.to_json(),
            "fil_H": fh.to_json(),
            "omega": {"X": omega_X.to_json(), "tX": omega_tX.to_json()},
            "involution": involution_ok,
            "transpose_duality": duality_ok,
        }
    )
    indeterminate = "indeterminate" in (omega_X.status, omega_tX.status)
    report["pass"] = involution_ok and duality_ok and not indeterminate
    _emit(report, args.pretty)
    if indeterminate:
        return EXIT_INDETERMINATE
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


def cmd_ledger(args):
    if args.heights:
        try:
            n, ht_h, ht_g, ht_d = (int(x) for x in args.heights.split(","))
        except ValueError:
            raise _Refusal("ledger: --heights expects n,htH,htG,htDelta")
        try:
            led = ledger_mod.HeightLedger(n, ht_h, ht_g, ht_d)
            verdict = ledger_mod.height_transfer(led)
        except ValueError as exc:
            raise _Refusal(f"ledger: --heights: {exc}")
        report = {
            "command": "ledger",
            "heights": {"n": n, "ht_rho_H": ht_h, "ht_rho_G": ht_g, "ht_Delta": ht_d},
            "det_valuation_LT": _frac_str(verdict.lt_value),
            "det_valuation_Dr": _frac_str(verdict.dr_value),
            "height_transfer": verdict.to_json(),
            "pass": verdict.consistent,
        }
        _emit(report, args.pretty)
        return EXIT_OK if verdict.consistent else EXIT_CHECK_FAILED
    if args.p is None or args.h is None:
        raise _Refusal("ledger: need --p and --h (or --heights)")
    refusal = _over("--h", args.h, LEDGER_MAX_H) or _digits_refusal(args.p, args.h, "--h", "h")
    if refusal:
        raise _Refusal(f"ledger: {refusal}")
    try:
        datum = ledger_mod.CMDatum(args.p, args.h, args.i0)
    except ValueError as exc:
        raise _Refusal(f"ledger: {exc}")
    inputs = {"p": args.p, "h": args.h, "i0": args.i0}
    checks = [
        ledger_mod.check_report(name, inputs, expected, computed)
        for name, expected, computed in (
            ("sum_identity", True, ledger_mod.check_sum_identity(datum)),
            ("functional_equation", True, ledger_mod.functional_equation_valuations(datum)),
            ("beta_integrality", Fraction(0), ledger_mod.beta_integrality(datum)),
        )
    ]
    report = {
        "command": "ledger",
        "cm": inputs,
        "y_valuations": [_frac_str(y) for y in datum.y_valuations()],
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
    _emit(report, args.pretty)
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


def cmd_formal_group(args):
    p, h, D = args.p, args.h, args.D
    if p < 2 or h < 1:
        raise _Refusal(f"formal-group: need --p >= 2 and --h >= 1 (got p={p}, h={h})")
    if not _is_prime(p):
        raise _Refusal(f"formal-group: --p must be a prime (got p={p})")
    # from h = 8 on p^h >= 2^8 > FORMAL_MAX_D, so no D fits; p^h is not formed
    q = p ** h if h < 8 else None
    if D is None and q is not None:
        D = q + p
    if D is None:
        raise _Refusal(f"formal-group: --D must be <= {FORMAL_MAX_D} "
                       f"(got the default p^h + p with h={h})")
    refusal = _over("--D", D, FORMAL_MAX_D)
    if refusal:
        raise _Refusal(f"formal-group: {refusal}")
    if q is None or D < q:
        raise _Refusal(f"formal-group: D must be >= {'p^h' if q is None else f'p^h = {q}'}")
    try:
        fgl = formal.group_law(p, h, D)
        height, ps = formal.height_certificate(fgl)
    except formal.IntegralityError as exc:
        print(f"formal-group: {exc}", file=sys.stderr)
        return EXIT_INTEGRALITY
    K = make_field_cached(p, h, 16)
    zeta = teichmueller(K, ([0, 1] if h > 1 else [p - 1]))
    zeta_ok = True
    try:
        formal.zeta_action(fgl, zeta)
    except ValueError:
        zeta_ok = False
    report = {
        "command": "formal-group",
        "p": p,
        "h": h,
        "D": D,
        "law": fgl.law.to_json(),
        "p_series": ps.to_json(),
        "height": height,
        "height_ok": height == p ** h,
        "zeta_endomorphism": zeta_ok,
        "pass": height == p ** h and zeta_ok,
    }
    _emit(report, args.pretty)
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


@functools.cache
def build_parser():
    """The one parser of this process; ``--precision`` has no default here,
    since ``main`` reads ``PADIC_PRECISION`` on every call."""
    ap = argparse.ArgumentParser(
        prog="padic-periods",
        description="Deterministic JSON reports for p-adic period-domain checks.",
    )
    ap.add_argument("--pretty", action="store_true", help="indent the JSON output")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    m = sub.add_parser("models", help="build both integral models and slope reports")
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--p", type=int, default=2, help="the prime p of Q_p (default 2)")
    m.add_argument("--precision", type=int)
    m.set_defaults(func=cmd_models)

    c = sub.add_parser("correspond", help="sample/load a period matrix and run checks")
    c.add_argument("--n", type=int)
    c.add_argument("--m", type=int, help="degree of the period field over Q_p")
    c.add_argument("--p", type=int, default=2)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--matrix", help="JSON file holding the matrix")
    c.add_argument("--precision", type=int)
    c.set_defaults(func=cmd_correspond)

    l = sub.add_parser("ledger", help="CM valuation table or height-transfer check")
    l.add_argument("--p", type=int)
    l.add_argument("--h", type=int)
    l.add_argument("--i0", type=int, default=0)
    l.add_argument("--heights", help="n,htH,htG,htDelta")
    l.set_defaults(func=cmd_ledger)

    f = sub.add_parser("formal-group", help="group law, [p]-series, height certificate")
    f.add_argument("--p", type=int, required=True)
    f.add_argument("--h", type=int, required=True)
    f.add_argument("--D", type=int)
    f.set_defaults(func=cmd_formal_group)
    return ap


def main(argv=None):
    try:
        precision = _default_precision()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FLAGS
    args = build_parser().parse_args(argv)
    if getattr(args, "precision", precision) is None:  # ledger, formal-group take none
        args.precision = precision
    try:
        return args.func(args)
    except _Refusal as exc:
        print(exc, file=sys.stderr)
        return EXIT_BAD_FLAGS
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FLAGS
    except PrecisionError as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE


if __name__ == "__main__":
    sys.exit(main())
