#!/usr/bin/env python3
"""Run one workload of the HC2L benchmark from the root of a checkout.

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 20 --trace 0

Workloads: build-dimacs, query-mix, update-local.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; see perfbench/README.md.
The program under test is the ``repro`` package in ``src/`` next to
this directory; without it the script exits with status 2.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main() -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from hc2lbench.cli import main as run

    return run(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
