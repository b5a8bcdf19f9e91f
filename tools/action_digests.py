"""Print ``tests/action_digests.json`` with every digest recomputed.

The cases (p, n, m, precision, seed, g, d) are read from the stored file,
and each case's digests are recomputed by ``action_digests`` of
``tests/test_action_digests.py`` with the ``padicperiods`` package in SRC:

    python tools/action_digests.py /path/to/other/checkout/src > before.json
    python tools/action_digests.py > after.json
    diff before.json after.json

SRC is the directory that holds the package; it defaults to this checkout's
``src``.  The output keeps the stored file's layout, so on an unchanged
tree it is that file byte for byte.  A change that means to alter an action
output regenerates it:

    python tools/action_digests.py > tests/action_digests.json
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def render(cases):
    """One line per case, then its digests one per line, as stored."""
    out = []
    for case in cases:
        head = json.dumps({k: v for k, v in case.items() if k != "digests"})[:-1]
        digests = ",\n".join(f"   {json.dumps(k)}: {json.dumps(v)}"
                             for k, v in case["digests"].items())
        out.append(f' {head}, "digests": {{\n{digests}\n }}}}')
    return "[\n" + ",\n".join(out) + "\n]"


def main(src):
    sys.path[:0] = [str(Path(src).resolve()), str(ROOT / "tests")]
    from test_action_digests import CASES, action_digests

    for case in CASES:
        case["digests"] = action_digests(case)
    print(render(CASES))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else ROOT / "src")
