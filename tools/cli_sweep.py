"""Run the CLI over a fixed 216-argv sweep and print one line per argv.

Each line is the argv, the exit code and the sha256 of stdout and of
stderr, so two source trees give the same output exactly when every run
exits alike and prints the same bytes:

    python tools/cli_sweep.py /path/to/other/checkout/src > before.txt
    python tools/cli_sweep.py > after.txt
    diff before.txt after.txt

The argument is the directory that holds the ``padicperiods`` package; it
defaults to this checkout's ``src``.  Each argv runs in a fresh interpreter.

``tests/cli_sweep.tsv`` holds this output for the current CLI: a tier-1
test runs the same argvs in-process against it, and CI diffs a fresh run
with it.  A change that means to alter the CLI's output regenerates it:

    python tools/cli_sweep.py > tests/cli_sweep.tsv
"""

import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path


def sweep():
    """192 ``correspond`` and 24 ``models`` argvs."""
    for n, dm, p, N, seed in itertools.product((1, 2, 3), (0, 1), (2, 3), (2, 4, 8, 16), range(4)):
        yield ["correspond", "--n", n, "--m", n + dm, "--p", p, "--precision", N, "--seed", seed]
    for n, p, N in itertools.product((1, 2, 3, 4), (2, 3), (4, 8, 14)):
        yield ["models", "--n", n, "--p", p, "--precision", N]


def main(src):
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    env.pop("PADIC_PRECISION", None)
    for argv in sweep():
        argv = [str(x) for x in argv]
        proc = subprocess.run([sys.executable, "-m", "padicperiods.cli", *argv],
                              capture_output=True, env=env)
        out, err = (hashlib.sha256(b).hexdigest() for b in (proc.stdout, proc.stderr))
        print(" ".join(argv), proc.returncode, out, err, sep="\t", flush=True)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src")
