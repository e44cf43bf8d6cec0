"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cidr07-middle --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
``cedr`` modules and reports per-layer metrics instead.  The last line of
standard output is the result; a human-readable summary goes to standard
error.  The program under test is imported from ``src/`` next to this
directory, and the run fails when it is not there.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cedr" / "__init__.py").is_file():
        print(f"error: no cedr sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness

    return harness.main(args)


if __name__ == "__main__":
    sys.exit(main())
