"""CLI: subcommand behavior, exit codes, JSON shape, determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import padicperiods
from padicperiods import cli, formal
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
        ],
        ids=["empty-object", "top-level-list", "no-rows", "ragged-rows", "1x1",
             "shifts-shape", "short-entry", "p-not-an-integer"],
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
        lambda hs: ["ledger", "--heights=" + ",".join(map(str, hs))],
        st.lists(st.integers(-3, 6), min_size=3, max_size=5),
    ),
    st.builds(
        lambda p, h, i0: _argv("ledger", "--p", p, "--h", h, "--i0", i0),
        st.integers(-1, 8), st.integers(-1, 5), st.none() | st.integers(-2, 5),
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
        monkeypatch.setenv("PADIC_PRECISION", "12")
        # the parser default is bound when the parser is built
        parser = cli.build_parser()
        args = parser.parse_args(["models", "--n", "1"])
        assert args.precision == 12


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
