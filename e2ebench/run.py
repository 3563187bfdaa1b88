"""End-to-end assembly benchmark: one workload, one run, one JSON line.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload clean-overlap --seed 1 --seconds 12 --trace 0

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; with ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones of an extra traced assembly.  A record of
the run (environment stamp, every repetition, spans and the self-time
table) is written to ``.e2ebench_out/`` in the checkout.  See README.md
beside this file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no program source under {ROOT / 'src'}; run from a full "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from e2e_bench import run_benchmark
    from e2e_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; options: "
            f"{sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    result = run_benchmark(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
        ROOT / ".e2ebench_out",
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
