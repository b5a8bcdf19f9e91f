"""Run every workload once and print its metrics as a table.

    python3 bench/report.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own process through ``bench/run.py``.  The table
gives each metric with its unit, and for each workload the operation count,
the error rate and the environment of the run.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    status = 0
    for w in SPEC["workloads"]:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=BENCH.parent, capture_output=True, text=True, timeout=900,
        )
        if done.returncode != 0:
            print(f"== {w['name']}: failed\n{done.stderr}")
            status = 1
            continue
        *_, info, result = done.stdout.strip().splitlines()
        info, result = json.loads(info)["info"], json.loads(result)
        timed = (f"timed_ops={info['ops_timed']} rounds={info['rounds']} "
                 f"slowdown={info['slowdown_median']:.3f}" if "ops_timed" in info
                 else f"sample_ops={info['sample_ops']} passes={info['passes']}")
        print(f"== {w['name']}  ops={result['attempted']} {timed} failed={result['failed']} "
              f"error_rate={info['error_rate']:.4f} correct={result['correct']}  "
              f"python={info['python']} numpy={info['numpy']} nproc={info['nproc']} "
              f"seed={info['seed']}")
        for name, m in result["metrics"].items():
            if args.trace and not m["value"]:
                continue
            print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
        if args.trace:
            for name, share in info["self_time_share_of_ops"].items():
                print(f"  share of op time, self: {name:30s} {share:7.2%}")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
