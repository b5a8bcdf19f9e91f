"""CLI: subcommand behavior, exit codes, JSON shape, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import padicperiods
from padicperiods import cli, formal, padic
from padicperiods.padic import PadicMatrix, make_field_cached, matrix_to_json


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestModelsCommand:
    def test_n2_slopes(self, capsys):
        code, out, _ = run(capsys, ["models", "--n", "2", "--precision", "12"])
        assert code == 0
        rep = json.loads(out)
        assert rep["schema"] == 1
        assert rep["slopes"]["height_n_model"] == ["1/2", "1/2"]
        assert rep["slopes"]["special_model"] == ["1/2"] * 4
        assert rep["delta"]["height"] == 1

    def test_n1_trivial(self, capsys):
        code, out, _ = run(capsys, ["models", "--n", "1", "--precision", "8"])
        assert code == 0
        rep = json.loads(out)
        assert rep["slopes"]["height_n_model"] == ["1/1"]

    def test_n5_over_q32(self, capsys):
        code, out, _ = run(capsys, ["models", "--n", "5", "--precision", "32"])
        assert code == 0
        rep = json.loads(out)
        assert rep["slopes"]["height_n_model"] == ["1/5"] * 5
        assert rep["slopes"]["special_model"] == ["1/5"] * 25

    def test_missing_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["models"])
        assert exc.value.code == 2

    def test_p3_builds_over_q3(self, capsys):
        code, out, _ = run(capsys, ["models", "--n", "2", "--p", "3", "--precision", "12"])
        assert code == 0
        rep = json.loads(out)
        assert rep["phi_matrix"]["p"] == 3
        assert rep["height_n_model"]["V_matrix"]["p"] == 3
        assert rep["delta"]["matrix"]["p"] == 3
        assert rep["pass"] is True

    @pytest.mark.parametrize("p", ["4", "1", "0", "-3"])
    def test_non_prime_p_exits_2(self, capsys, p):
        code, out, err = run(capsys, ["models", "--n", "2", "--p", p])
        assert code == cli.EXIT_BAD_FLAGS
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and "--p" in lines[0]


class TestCorrespondCommand:
    def test_sampled_point(self, capsys):
        code, out, _ = run(
            capsys,
            ["correspond", "--n", "2", "--m", "2", "--seed", "7", "--precision", "32"],
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["involution"] and rep["transpose_duality"]
        assert rep["omega"]["X"]["status"] == "in_Omega"

    def test_field_too_small(self, capsys):
        code, _, err = run(capsys, ["correspond", "--n", "2", "--m", "1"])
        assert code == cli.EXIT_BAD_FLAGS
        assert "field too small" in err

    def test_full_rank_matrix_rejected(self, tmp_path, capsys):
        K = make_field_cached(2, 2, 16)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(matrix_to_json(PadicMatrix.identity(K, 2))))
        code, out, _ = run(capsys, ["correspond", "--matrix", str(path)])
        assert code == cli.EXIT_RANK_REJECTED
        rep = json.loads(out)
        assert rep["rank_rejected"]["kind"] == "full_rank"

    def test_rational_hyperplane_witness(self, tmp_path, capsys):
        # symmetric rational rank-1 matrix: fil_G is a rational hyperplane
        K = make_field_cached(2, 2, 16)
        X = PadicMatrix.from_ints(K, [[1, 1], [1, 1]])
        path = tmp_path / "m.json"
        path.write_text(json.dumps(matrix_to_json(X)))
        code, out, _ = run(capsys, ["correspond", "--matrix", str(path)])
        rep = json.loads(out)
        assert rep["omega"]["X"]["status"] == "not_in_Omega"
        assert "witness" in rep["omega"]["X"]


class TestLedgerCommand:
    def test_cm_table(self, capsys):
        code, out, _ = run(capsys, ["ledger", "--p", "2", "--h", "3", "--i0", "0"])
        assert code == 0
        rep = json.loads(out)
        assert rep["y_valuations"] == ["1/7", "2/7", "4/7"]
        assert all(c["pass"] for c in rep["checks"])

    def test_heights_consistent(self, capsys):
        code, out, _ = run(capsys, ["ledger", "--heights", "2,3,6,1"])
        assert code == 0
        assert json.loads(out)["height_transfer"]["consistent"]

    def test_heights_inconsistent(self, capsys):
        code, out, _ = run(capsys, ["ledger", "--heights", "2,3,5,1"])
        assert code == cli.EXIT_CHECK_FAILED
        assert not json.loads(out)["height_transfer"]["consistent"]

    def test_bad_heights_flag(self, capsys):
        code, _, err = run(capsys, ["ledger", "--heights", "2,3"])
        assert code == cli.EXIT_BAD_FLAGS

    def test_missing_flags(self, capsys):
        code, _, _ = run(capsys, ["ledger"])
        assert code == cli.EXIT_BAD_FLAGS


class TestFormalGroupCommand:
    def test_height_one(self, capsys):
        code, out, _ = run(capsys, ["formal-group", "--p", "2", "--h", "1", "--D", "4"])
        assert code == 0
        rep = json.loads(out)
        assert rep["height"] == 2 and rep["height_ok"]
        assert [[1, 0], "1/1"] in rep["law"]
        assert [[1, 1], "-1/1"] in rep["law"]

    def test_height_two(self, capsys):
        code, out, _ = run(capsys, ["formal-group", "--p", "2", "--h", "2", "--D", "8"])
        assert code == 0
        assert json.loads(out)["height"] == 4

    def test_small_D_rejected(self, capsys):
        code, _, err = run(capsys, ["formal-group", "--p", "2", "--h", "2", "--D", "3"])
        assert code == cli.EXIT_BAD_FLAGS

    def test_integrality_exit_code(self, capsys, monkeypatch):
        def boom(p, h, D):
            raise formal.IntegralityError("planted")

        monkeypatch.setattr(cli.formal, "group_law", boom)
        code, _, err = run(capsys, ["formal-group", "--p", "2", "--h", "1"])
        assert code == cli.EXIT_INTEGRALITY

    @pytest.mark.parametrize("p", ["4", "6", "9"])
    def test_non_prime_p_exits_2(self, capsys, p):
        """Refused before any series is built, so a composite p never reaches
        the integrality check (exit 5) or a message that names no flag."""
        code, out, err = run(capsys, ["formal-group", "--p", p, "--h", "1"])
        assert code == cli.EXIT_BAD_FLAGS
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and "--p" in lines[0]

    @pytest.mark.parametrize("argv", [
        ["--p", "2", "--h", "1", "--D", "129"],
        ["--p", "7", "--h", "3"],  # the default D = 7^3 + 7 = 350
    ])
    def test_D_above_bound_exits_2(self, capsys, monkeypatch, argv):
        """Refused before any field or series is built: the law costs about D^4."""
        def never(*args):
            raise AssertionError("built before the --D check")

        monkeypatch.setattr(cli.formal, "group_law", never)
        monkeypatch.setattr(cli, "make_field_cached", never)
        code, out, err = run(capsys, ["formal-group", *argv])
        assert code == cli.EXIT_BAD_FLAGS
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and "--D" in lines[0] and "128" in lines[0]


def run_process(argv, timeout=60):
    """The CLI in a fresh interpreter, killed if it outlasts ``timeout``."""
    src = str(Path(padicperiods.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "padicperiods.cli", *argv],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


def test_import_leaves_numpy_unloaded():
    src = str(Path(padicperiods.__file__).resolve().parents[1])
    code = "import sys, padicperiods, padicperiods.cli; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0 and proc.stdout == "False\n"


class TestRejectedInputs:
    """Bad values exit 2 with one line on stderr, no traceback, no hang."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["formal-group", "--p", "2", "--h", "0"],
            ["ledger", "--p", "1", "--h", "1"],
            ["ledger", "--p", "4", "--h", "2"],
            # primality is decided only below 3.3e24
            ["ledger", "--p", "3317044064679887385961981", "--h", "2"],
            ["models", "--n", "2", "--p", "3317044064679887385961981"],
        ],
    )
    def test_exit_2_with_one_line(self, argv):
        proc = run_process(argv)
        assert proc.returncode == cli.EXIT_BAD_FLAGS
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("n", ["17", "40", "1000000"])
    def test_models_n_above_the_cap(self, n):
        # refused before any field is built; --n 40 once ran 12 s to exit 4
        proc = run_process(["models", "--n", n], timeout=20)
        assert proc.returncode == cli.EXIT_BAD_FLAGS
        assert proc.stdout == ""
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and "--n" in lines[0] and str(cli.MODELS_MAX_N) in lines[0]

    @pytest.mark.parametrize("p, h", [("2", "1001"), ("2", "50000"), ("3", "10" * 30),
                                      ("1000003", "667"), ("1000003", "800")])
    def test_ledger_h_past_the_cap(self, p, h):
        # refused before any work; --p 2 --h 14000 ran 16 s and printed 88 MB,
        # and --p 1000003 --h 800 failed on CPython's int-to-str limit
        proc = run_process(["ledger", "--p", p, "--h", h], timeout=20)
        assert proc.returncode == cli.EXIT_BAD_FLAGS
        assert proc.stdout == ""
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and "--h" in lines[0]

    @pytest.mark.parametrize("p, h", [(2, cli.LEDGER_MAX_H), (1000003, 666)])
    def test_ledger_h_at_the_cap(self, capsys, p, h):
        # 1000003^666 is the last power of that p below 10^CORRESPOND_MAX_DIGITS
        code, out, err = run(capsys, ["ledger", "--p", str(p), "--h", str(h)])
        assert code == cli.EXIT_OK and err == ""
        assert len(json.loads(out)["y_valuations"]) == h

    @pytest.mark.parametrize("n, m", [("1", "1"), ("0", "1"), ("-1", "2")])
    def test_correspond_needs_n_at_least_2(self, n, m):
        proc = run_process(["correspond", "--n", n, "--m", m])
        assert proc.returncode == cli.EXIT_BAD_FLAGS
        assert proc.stdout == ""
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and "--n" in lines[0]


    @pytest.mark.parametrize("heights", ["0,0,0,0", "-1,0,0,0"])
    def test_heights_need_n_at_least_1(self, heights):
        proc = run_process(["ledger", f"--heights={heights}"])
        assert proc.returncode == cli.EXIT_BAD_FLAGS
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and "--heights" in lines[0]


class Reached(Exception):
    pass


class TestCorrespondCaps:
    """correspond refuses n, m and p^N past their caps with exit 2 and one
    line naming the flag, before it builds a field; just below, it builds one."""

    @pytest.fixture
    def no_field(self, monkeypatch):
        def reached(*args):
            raise Reached
        monkeypatch.setattr(cli, "make_field_cached", reached)
        monkeypatch.delenv("PADIC_PRECISION", raising=False)

    @pytest.mark.parametrize("flags, flag", [
        (["--n", "17", "--m", "17"], "--n"),
        (["--n", "64", "--m", "64"], "--n"),
        (["--n", "2", "--m", "65"], "--m"),
        (["--n", "2", "--m", "1000"], "--m"),
        (["--n", "2", "--m", "2", "--precision", "13288"], "--precision"),
        # --precision 100000 once ran 5.6 s to fail in the JSON writer
        (["--n", "2", "--m", "2", "--precision", "100000"], "--precision"),
        (["--n", "2", "--m", "2", "--p", "3", "--precision", "8384"], "--precision"),
        (["--n", "2", "--m", "2", "--p", "1000003", "--precision", "667"], "--precision"),
        (["--n", "2", "--m", "2", "--p", str(2 ** 61 - 1), "--precision", "1000000"],
         "--precision"),
    ])
    @pytest.mark.usefixtures("no_field")
    def test_past_the_cap(self, capsys, flags, flag):
        code, out, err = run(capsys, ["correspond", *flags])
        assert code == cli.EXIT_BAD_FLAGS
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and flag in lines[0]

    @pytest.mark.usefixtures("no_field")
    def test_env_precision_past_the_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("PADIC_PRECISION", "100000")
        code, out, err = run(capsys, ["correspond", "--n", "2", "--m", "2"])
        assert code == cli.EXIT_BAD_FLAGS
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and "PADIC_PRECISION" in lines[0]

    @pytest.mark.parametrize("flags", [
        ["--n", "16", "--m", "64"],
        ["--n", "2", "--m", "2", "--precision", "13287"],
        ["--n", "2", "--m", "2", "--p", "3", "--precision", "8383"],
        ["--n", "2", "--m", "2", "--p", "1000003", "--precision", "666"],
    ])
    @pytest.mark.usefixtures("no_field")
    def test_at_the_cap(self, capsys, flags):
        with pytest.raises(Reached):
            cli.main(["correspond", *flags])

    def test_matrix_file_n_past_the_cap(self, tmp_path, capsys, monkeypatch):
        # refused from the number of rows, before any entry is built
        n = cli.CORRESPOND_MAX_N + 1
        path = tmp_path / "m.json"
        path.write_text(json.dumps(matrix_to_json(
            PadicMatrix.identity(make_field_cached(2, 1, 8), n))))
        monkeypatch.setattr(cli, "matrix_from_json", lambda doc: pytest.fail("built"))
        monkeypatch.setattr(cli.periods, "from_matrix", lambda X: pytest.fail("ran"))
        code, out, err = run(capsys, ["correspond", "--matrix", str(path)])
        assert code == cli.EXIT_BAD_FLAGS
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and "--matrix" in lines[0] and f"n={n}" in lines[0]

    def test_matrix_file_row_past_the_cap(self, tmp_path, capsys, monkeypatch):
        # one row of 200,000 entries once built every entry (0.83 s, 65 MB)
        # before the shape check refused it
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"p": 2, "m": 1, "precision": 32, "coeffs": [[["1"]] * 200000]}))
        monkeypatch.setattr(cli, "matrix_from_json", lambda doc: pytest.fail("built"))
        code, out, err = run(capsys, ["correspond", "--matrix", str(path)])
        assert code == cli.EXIT_BAD_FLAGS
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and "--matrix" in lines[0] and "columns=200000" in lines[0]

    @pytest.mark.parametrize("document, key", [
        ({"p": 2, "m": 200, "precision": 32}, "m"),
        ({"p": 2, "m": 65, "precision": 8}, "m"),
        ({"p": 2, "m": 2, "precision": 13288}, "precision"),
        ({"p": "1000003", "m": 2, "precision": "667"}, "precision"),
    ])
    def test_matrix_file_field_past_the_cap(self, tmp_path, capsys, document, key):
        # building the field of m = 200 alone once took 24 s
        path = tmp_path / "m.json"
        path.write_text(json.dumps(dict(document, coeffs=[[["1"]]])))
        start = time.perf_counter()
        code, out, err = run(capsys, ["correspond", "--matrix", str(path)])
        assert time.perf_counter() - start < 1
        assert code == cli.EXIT_BAD_FLAGS
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and str(path) in lines[0] and f" {key} must" in lines[0]

    @pytest.mark.parametrize("document", [
        {"p": 2, "m": 64, "precision": 8},
        {"p": 2, "m": 2, "precision": 13287},
        {"p": 1000003, "m": 2, "precision": 666},
    ])
    def test_matrix_file_field_at_the_cap(self, tmp_path, monkeypatch, document):
        def reached(*args):
            raise Reached
        monkeypatch.setattr(padic, "make_field_cached", reached)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(dict(document, coeffs=[[["1"]]])))
        with pytest.raises(Reached):
            cli.main(["correspond", "--matrix", str(path)])


@pytest.mark.parametrize("p", [2, 3, 10 ** 6 + 3])
def test_correspond_at_the_digit_cap_prints(capsys, p):
    # the report's integers lie just below p^N, or a digit above: at p = 3,
    # N = 9012 (p^N of 4300 digits) one had 4301, past what CPython writes
    N = int(cli.CORRESPOND_MAX_DIGITS / math.log10(p)) + 1
    while p ** N >= 10 ** cli.CORRESPOND_MAX_DIGITS:
        N -= 1
    code, out, _ = run(capsys, ["correspond", "--n", "2", "--m", "2", "--p", str(p),
                                "--precision", str(N)])
    assert code == 0
    assert json.loads(out)["precision"] == N


# Every refusal line, byte for byte: the command's argv (after an optional
# PADIC_PRECISION=value), then its one stderr line; each exits 2 with no
# stdout.  {dir} stands for the directory holding REFUSAL_DOCUMENTS.
REFUSALS = [
    ("models --n 17",
     "models: --n must be <= 16 (got n=17)"),
    ("models --n 1000000",
     "models: --n must be <= 16 (got n=1000000)"),
    ("correspond --n 17 --m 17",
     "correspond: --n must be <= 16 (got n=17)"),
    ("correspond --n 2 --m 65",
     "correspond: --m must be <= 64 (got m=65)"),
    ("correspond --n 2 --m 2 --precision 13288",
     "correspond: --precision (or PADIC_PRECISION) must keep p^N below 10^4000 (got p=2, N=13288)"),
    ("correspond --n 2 --m 2 --p 1000003 --precision 667",
     "correspond: --precision (or PADIC_PRECISION) must keep p^N below 10^4000 (got p=1000003, N=667)"),
    ("correspond --n 2 --m 2 --p 2305843009213693951 --precision 1000000",
     "correspond: --precision (or PADIC_PRECISION) must keep p^N below 10^4000 (got p=2305843009213693951, N=1000000)"),
    ("PADIC_PRECISION=20000 correspond --n 2 --m 2",
     "correspond: --precision (or PADIC_PRECISION) must keep p^N below 10^4000 (got p=2, N=20000)"),
    ("ledger --p 2 --h 1001",
     "ledger: --h must be <= 1000 (got h=1001)"),
    ("ledger --p 1000003 --h 667",
     "ledger: --h must keep p^h below 10^4000 (got p=1000003, h=667)"),
    ("ledger --p 3 --h 101010101010101010101010101010101010101010101010101010101010",
     "ledger: --h must be <= 1000 (got h=101010101010101010101010101010101010101010101010101010101010)"),
    ("formal-group --p 2 --h 1 --D 129",
     "formal-group: --D must be <= 128 (got D=129)"),
    ("formal-group --p 2 --h 7",
     "formal-group: --D must be <= 128 (got D=130)"),
    ("formal-group --p 2 --h 8",
     "formal-group: --D must be <= 128 (got the default p^h + p with h=8)"),
    ("models --n 2 --p 4",
     "models: --p must be a prime (got p=4)"),
    ("models --n 2 --p 3317044064679887385961981",
     "error: 3317044064679887385961981 is too large to test for primality (limit 3.3e24)"),
    ("PADIC_PRECISION=abc models --n 1",
     "error: PADIC_PRECISION must be an integer >= 1 (got 'abc')"),
    ("correspond --n 2",
     "correspond: need --n and --m (or --matrix)"),
    ("correspond --m 2",
     "correspond: need --n and --m (or --matrix)"),
    ("correspond --n 1 --m 1",
     "correspond: need --n >= 2 (got n=1)"),
    ("correspond --n 3 --m 2",
     "correspond: field too small, need m >= n (got m=2, n=3); a hyperplane over a degree-m field meets a rational vector whenever m < n"),
    ("correspond --n 2 --m 2 --p 4",
     "error: 4 is not prime"),
    ("ledger",
     "ledger: need --p and --h (or --heights)"),
    ("ledger --heights 1,2",
     "ledger: --heights expects n,htH,htG,htDelta"),
    ("ledger --heights 0,1,1,0",
     "ledger: --heights: n must be >= 1 (got n=0)"),
    ("ledger --heights 2,3,6,5",
     "ledger: --heights: transfer requires ht_Delta = n(n-1)/2 = 1"),
    ("ledger --p 1 --h 1",
     "ledger: 1 is not prime"),
    ("ledger --p 4 --h 2",
     "ledger: 4 is not prime"),
    ("formal-group --p 1 --h 1",
     "formal-group: need --p >= 2 and --h >= 1 (got p=1, h=1)"),
    ("formal-group --p 2 --h 0",
     "formal-group: need --p >= 2 and --h >= 1 (got p=2, h=0)"),
    ("formal-group --p 4 --h 1",
     "formal-group: --p must be a prime (got p=4)"),
    ("formal-group --p 2 --h 2 --D 3",
     "formal-group: D must be >= p^h = 4"),
    ("formal-group --p 3 --h 20 --D 100",
     "formal-group: D must be >= p^h"),
    ("correspond --matrix {dir}/missing.json",
     "correspond: --matrix {dir}/missing.json: [Errno 2] No such file or directory: '{dir}/missing.json'"),
    ("correspond --matrix {dir}/m200.json",
     "correspond: --matrix {dir}/m200.json: m must be <= 64 (got m=200)"),
    ("correspond --matrix {dir}/m65.json",
     "correspond: --matrix {dir}/m65.json: m must be <= 64 (got m=65)"),
    ("correspond --matrix {dir}/n17.json",
     "correspond: --matrix {dir}/n17.json: n must be <= 16 (got n=17)"),
    ("correspond --matrix {dir}/precision20000.json",
     "correspond: --matrix {dir}/precision20000.json: precision must keep p^N below 10^4000 (got p=2, N=20000)"),
    ("correspond --matrix {dir}/p1000003.json",
     "correspond: --matrix {dir}/p1000003.json: precision must keep p^N below 10^4000 (got p=1000003, N=667)"),
    ("correspond --matrix {dir}/1x17.json",
     "correspond: --matrix {dir}/1x17.json: columns must be <= 16 (got columns=17)"),
    ("correspond --matrix {dir}/1x2.json",
     "correspond: --matrix {dir}/1x2.json: need an n x n matrix, n >= 2 (got 1x2)"),
    ("correspond --matrix {dir}/p-not-an-integer.json",
     "correspond: --matrix {dir}/p-not-an-integer.json: p must be an integer (got 'two')"),
]

_Q2 = make_field_cached(2, 1, 8)
REFUSAL_DOCUMENTS = {
    "m200.json": {"p": 2, "m": 200, "precision": 32, "coeffs": [[["1"]]]},
    "m65.json": {"p": 2, "m": 65, "precision": 8, "coeffs": [[["1"]]]},
    "n17.json": matrix_to_json(PadicMatrix.identity(_Q2, 17)),
    "precision20000.json": {"p": 2, "m": 2, "precision": 20000, "coeffs": [[["1"]]]},
    "p1000003.json": {"p": "1000003", "m": 2, "precision": "667", "coeffs": [[["1"]]]},
    "1x17.json": matrix_to_json(PadicMatrix.from_ints(_Q2, [[1] * 17])),
    "1x2.json": matrix_to_json(PadicMatrix.from_ints(_Q2, [[1, 1]])),
    "p-not-an-integer.json": {"p": "two", "m": 1, "precision": 8, "coeffs": [[["1"]]]},
}


@pytest.mark.parametrize("command, line", REFUSALS, ids=[c for c, _ in REFUSALS])
def test_refusal_line(tmp_path, capsys, monkeypatch, command, line):
    monkeypatch.delenv("PADIC_PRECISION", raising=False)
    argv = command.replace("{dir}", str(tmp_path)).split()
    if argv[0].startswith("PADIC_PRECISION="):
        monkeypatch.setenv("PADIC_PRECISION", argv.pop(0).partition("=")[2])
    for name, document in REFUSAL_DOCUMENTS.items():
        (tmp_path / name).write_text(json.dumps(document))
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (cli.EXIT_BAD_FLAGS, "", line.replace("{dir}", str(tmp_path)) + "\n")


def _q4_document():
    return matrix_to_json(PadicMatrix.from_ints(make_field_cached(2, 2, 16), [[1, 1], [1, 1]]))


class TestMalformedMatrix:
    """A --matrix file that is not a matrix document exits 2 with one line
    naming the flag."""

    @pytest.mark.parametrize(
        "document",
        [
            {},
            [1, 2],
            dict(_q4_document(), coeffs=[]),
            dict(_q4_document(), coeffs=[[["1", "0"], ["1", "0"]], [["1", "0"]]], shifts=None),
            dict(_q4_document(), coeffs=[[["1", "0"]]], shifts=[[0]]),
            dict(_q4_document(), shifts=[[0, 0]]),
            dict(_q4_document(), coeffs=[[["1"], ["1"]], [["1"], ["1"]]]),
            dict(_q4_document(), p="two"),
            dict(_q4_document(), p=" 7"),
            dict(_q4_document(), m="+2"),
            dict(_q4_document(), precision="1_000"),
            dict(_q4_document(), p="\u0663"),
        ],
        ids=["empty-object", "top-level-list", "no-rows", "ragged-rows", "1x1",
             "shifts-shape", "short-entry", "p-not-an-integer", "p-space", "m-plus",
             "precision-underscore", "p-arabic-indic-digit"],
    )
    def test_exit_2_naming_the_flag(self, tmp_path, capsys, document):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(document))
        code, out, err = run(capsys, ["correspond", "--matrix", str(path)])
        assert code == cli.EXIT_BAD_FLAGS
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and "--matrix" in lines[0]


def _argv(*parts):
    return [str(x) for x in parts if x is not None]


def _past_the_digit_cap(p, N):
    # p^N >= 2^N, and 2^13288 > 10^4000 already
    return p ** min(N, 13288) >= 10 ** cli.CORRESPOND_MAX_DIGITS


def _correspond_argv(n, m, p, N, seed):
    if N is not None and not _past_the_digit_cap(p, N):
        N = N % 32 + 1
    return _argv("correspond", "--n", n, "--m", m, "--p", p, "--seed", seed,
                 *(("--precision", N) if N else ()))


def _correspond_refused(argv):
    """Whether a sampled correspond argv breaks a documented rule."""
    flags = dict(zip(argv[1::2], map(int, argv[2::2])))
    n, m, p = flags["--n"], flags["--m"], flags.get("--p", 2)
    N = flags.get("--precision") or cli._default_precision()
    return (n < 2 or m < n or n > cli.CORRESPOND_MAX_N or m > cli.CORRESPOND_MAX_M
            or _past_the_digit_cap(p, N))


# Bounded argv for every subcommand, bad values included.
ARGVS = st.one_of(
    st.builds(
        lambda n, p, N: _argv("models", "--n", n, "--p", p, "--precision", N),
        # n in 1..64, mostly past the cap; below it only 1..3, which run fast
        st.integers(1, 64).map(lambda n: n if n > cli.MODELS_MAX_N else n % 3 + 1),
        st.sampled_from([2, 3, 4]), st.integers(1, 16),
    ),
    st.builds(
        lambda n, m, seed, N: _argv("correspond", "--n", n, "--m", m, "--seed", seed,
                                    *(("--precision", N) if N else ())),
        st.integers(0, 3), st.integers(0, 4), st.integers(0, 2 ** 31 - 1),
        st.none() | st.integers(1, 32),
    ),
    st.builds(
        _correspond_argv,
        # each flag is past its cap about half the time, where the refusal is
        # immediate; below the caps only n <= 3, m <= 4 and N <= 32, which run fast
        st.integers(0, 3) | st.integers(cli.CORRESPOND_MAX_N + 1, 64),
        st.integers(0, 4) | st.integers(cli.CORRESPOND_MAX_M + 1, 1000),
        st.sampled_from([2, 3, 10 ** 6 + 3]), st.none() | st.integers(1, 10 ** 5),
        st.integers(0, 2 ** 31 - 1),
    ),
    st.builds(
        lambda hs: ["ledger", "--heights=" + ",".join(map(str, hs))],
        st.lists(st.integers(-3, 6), min_size=3, max_size=5),
    ),
    st.builds(
        lambda p, h, i0: _argv("ledger", "--p", p, "--h", h, "--i0", i0),
        # h past the cap about half the time, where the refusal is immediate
        st.integers(-1, 8), st.integers(-1, 5) | st.integers(cli.LEDGER_MAX_H + 1, 10 ** 6),
        st.none() | st.integers(-2, 5),
    ),
    st.builds(
        lambda p, h, D: _argv("formal-group", "--p", p, "--h", h, *(("--D", D) if D is not None else ())),
        st.integers(0, 3) | st.sampled_from([4, 6, 9]), st.integers(-1, 3),
        st.none() | st.integers(-1, 40),
    ),
)


class TestContractFuzz:
    """Every run ends in a documented exit code with at most one JSON line
    on stdout and no traceback, within a time bound."""

    @settings(max_examples=200, deadline=20_000,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ARGVS)
    def test_exit_code_and_output(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refusing a flag
                code = exc.code
        assert code in range(6), (argv, code)
        if argv[0] == "correspond":  # exit 2 only for a refused flag
            assert (code == cli.EXIT_BAD_FLAGS) == _correspond_refused(argv), (argv, code)
        if argv[:2] == ["ledger", "--p"] and int(argv[4]) > cli.LEDGER_MAX_H:
            assert code == cli.EXIT_BAD_FLAGS, (argv, code)
        lines = out.getvalue().splitlines()
        assert len(lines) <= 1
        if lines:
            json.loads(lines[0])
        assert "Traceback" not in err.getvalue()

    def test_large_prime_p_ends_within_the_deadline(self):
        # p = 2^61 - 1: trial division to sqrt(p) ran for minutes
        proc = run_process(["models", "--n", "2", "--p", str(2 ** 61 - 1)], timeout=20)
        assert proc.returncode in range(6)
        lines = proc.stdout.splitlines()
        assert len(lines) <= 1
        if lines:
            json.loads(lines[0])
        assert "Traceback" not in proc.stderr

    def test_large_prime_modulus_search_ends_within_the_deadline(self):
        # p = 2^61 - 1 is 3 mod 4, so no x^4 + c is irreducible; the
        # modulus search once walked all p of them
        proc = run_process(["models", "--n", "4", "--p", str(2 ** 61 - 1)], timeout=20)
        assert proc.returncode in range(6)
        assert len(proc.stdout.splitlines()) <= 1
        assert "Traceback" not in proc.stderr


class TestBadPrecisionEnv:
    """A PADIC_PRECISION that is not an integer >= 1 is refused, not replaced."""

    @pytest.mark.parametrize("value", ["abc", "0", "-4", "2.5", ""])
    def test_exit_2_naming_the_variable(self, monkeypatch, value):
        monkeypatch.setenv("PADIC_PRECISION", value)
        proc = run_process(["models", "--n", "1"])
        assert proc.returncode == cli.EXIT_BAD_FLAGS
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and "PADIC_PRECISION" in lines[0]


    @pytest.mark.parametrize("value", ["abc", "0", ""])
    @pytest.mark.parametrize("argv", [
        ["models", "--n", "1"],
        ["correspond", "--n", "2", "--m", "2"],
        ["ledger", "--p", "2", "--h", "1"],
        ["formal-group", "--p", "2", "--h", "1"],
    ], ids=lambda argv: argv[0])
    def test_in_process_after_a_good_call(self, capsys, monkeypatch, argv, value):
        monkeypatch.delenv("PADIC_PRECISION", raising=False)
        assert run(capsys, argv)[0] == 0
        monkeypatch.setenv("PADIC_PRECISION", value)
        code, out, err = run(capsys, argv)
        assert code == cli.EXIT_BAD_FLAGS
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: PADIC_PRECISION")


class TestPrecisionErrorExit:
    def test_exit_4_with_one_line(self):
        # DG(5)'s slopes come from charpoly(A), whose constant term has
        # valuation v(det A) = 5: precision 5 cannot tell it from zero
        proc = run_process(["models", "--n", "5", "--precision", "5"])
        assert proc.returncode == cli.EXIT_INDETERMINATE
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("indeterminate: ")

    def test_sampler_precision_error_draws_next_candidate(self, capsys):
        # at precision 2 this seed draws a candidate whose inverse has no digits;
        # the sampler skips it, so the run reports a point
        code, out, err = run(
            capsys, ["correspond", "--n", "2", "--m", "2", "--precision", "2", "--seed", "14"]
        )
        assert code == 0
        assert err == ""
        assert json.loads(out)["command"] == "correspond"


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        argvs = [
            ["models", "--n", "2", "--precision", "12"],
            ["correspond", "--n", "2", "--m", "2", "--seed", "3", "--precision", "32"],
            ["ledger", "--p", "3", "--h", "2", "--i0", "1"],
            ["formal-group", "--p", "3", "--h", "1", "--D", "6"],
        ]
        for argv in argvs:
            _, out1, _ = run(capsys, argv)
            _, out2, _ = run(capsys, argv)
            assert out1 == out2
            assert out1.endswith("\n")

    def test_pretty_adds_no_information(self, capsys):
        _, plain, _ = run(capsys, ["ledger", "--p", "2", "--h", "2", "--i0", "0"])
        _, pretty, _ = run(capsys, ["--pretty", "ledger", "--p", "2", "--h", "2", "--i0", "0"])
        assert json.loads(plain) == json.loads(pretty)

    def test_env_precision(self, capsys, monkeypatch):
        # PADIC_PRECISION is read on every call, not when the parser is built
        for argv in (["models", "--n", "1"], ["correspond", "--n", "2", "--m", "2"]):
            for value in (12, 20):
                monkeypatch.setenv("PADIC_PRECISION", str(value))
                code, out, _ = run(capsys, argv)
                assert code == 0 and json.loads(out)["precision"] == value
            code, out, _ = run(capsys, [*argv, "--precision", "16"])
            assert code == 0 and json.loads(out)["precision"] == 16

    def test_parser_built_once(self, capsys, monkeypatch):
        # each build adds the subcommands once
        builds = []
        add_subparsers = argparse.ArgumentParser.add_subparsers

        def spy(self, **kwargs):
            builds.append(self.prog)
            return add_subparsers(self, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", spy)
        cli.build_parser.cache_clear()
        try:
            for i in range(20):
                if i % 4 == 3:  # a bad flag: argparse exits 2
                    with pytest.raises(SystemExit) as exc:
                        cli.main(["ledger", "--p", "two"])
                    assert exc.value.code == cli.EXIT_BAD_FLAGS
                else:
                    assert cli.main(["ledger", "--p", "2", "--h", str(i % 4 + 1)]) == 0
        finally:
            cli.build_parser.cache_clear()
        capsys.readouterr()
        assert builds == ["padic-periods"]


CLI_DIGESTS = Path(__file__).resolve().parents[1] / "bench" / "cli_digests.json"


class TestStoredDigests:
    """Each stored argv still exits with its code and prints the same bytes."""

    @pytest.mark.parametrize(
        "case", json.loads(CLI_DIGESTS.read_text()), ids=lambda c: " ".join(c["argv"])
    )
    def test_stdout_matches_digest(self, capsys, case):
        code, out, _ = run(capsys, case["argv"])
        assert code == case["exit"]
        assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]


MODELS_DIGESTS = Path(__file__).with_name("models_digests.json")


class TestStoredModelsDigests:
    """`models` outputs the benchmark's digests miss: the n = 1 special cases
    (phi = [p] for the height-n model, [1] for the special model), n = 5 and
    p = 3.  The argv without --precision runs at the default precision."""

    @pytest.mark.parametrize(
        "case", json.loads(MODELS_DIGESTS.read_text()), ids=lambda c: " ".join(c["argv"])
    )
    def test_stdout_matches_digest(self, capsys, monkeypatch, case):
        monkeypatch.delenv("PADIC_PRECISION", raising=False)
        code, out, _ = run(capsys, case["argv"])
        assert code == case["exit"]
        assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]


CLI_SWEEP = Path(__file__).with_name("cli_sweep.tsv")


def test_sweep_matches_the_stored_lines(monkeypatch):
    """``tools/cli_sweep.py``'s 216 argvs, run in-process: each exits with
    its stored code and writes the stored stdout and stderr bytes.  The
    file is the tool's output (``python tools/cli_sweep.py >
    tests/cli_sweep.tsv``), made in fresh interpreters."""
    monkeypatch.delenv("PADIC_PRECISION", raising=False)
    stored = CLI_SWEEP.read_text().splitlines()
    lines = []
    for entry in stored:
        argv = entry.split("\t")[0].split()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        digests = [hashlib.sha256(f.getvalue().encode()).hexdigest() for f in (out, err)]
        lines.append("\t".join([" ".join(argv), str(code), *digests]))
    assert len(stored) == 216
    assert lines == stored
