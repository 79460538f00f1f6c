"""Reproduce any table or figure of the SkinnerDB paper from the command line.

Usage (from the repository root)::

    PYTHONPATH=src python -m benchmarks.paper table1 table5
    PYTHONPATH=src python -m benchmarks.paper figure9 --small
    PYTHONPATH=src python -m benchmarks.paper all --small

``--small`` shrinks the workloads so every experiment finishes in seconds;
without it the defaults of :mod:`benchmarks.paper.experiments` are used (the
same parameters the ``benchmarks/`` modules run with).
"""

from __future__ import annotations

import argparse
import sys
import time

from .experiments import EXPERIMENTS
from .report import render

_SMALL_OVERRIDES: dict[str, dict] = {
    "table1": {"scale": 0.3},
    "table2": {"scale": 0.3},
    "table3": {"scale": 0.25},
    "table4": {"scale": 0.25},
    "table5": {"scale": 0.3},
    "table6": {"scale": 0.3},
    "table7": {"scale": 0.3},
    "figure6": {"scale": 0.3},
    "figure7": {"scale": 0.3},
    "figure8": {"scale": 0.3},
    "figure9": {"table_counts": (4, 5), "tuples_per_table": 30, "budget": 50_000},
    "figure10": {"table_counts": (4, 5), "tuples_per_table": 80, "budget": 50_000},
    "figure11": {"table_counts": (4, 5), "tuples_per_table": 80, "budget": 50_000},
    "figure12": {"table_counts": (4, 5), "tuples_per_table": 100, "budget": 50_000},
    "figure13": {"scale": 0.3},
}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.paper", description=__doc__)
    parser.add_argument("experiments", nargs="+",
                        help="experiment names (table1..table7, figure6..figure13) or 'all'")
    parser.add_argument("--small", action="store_true",
                        help="use reduced workload sizes for a quick run")
    args = parser.parse_args(argv)

    names = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}; "
                     f"available: {', '.join(EXPERIMENTS)}")

    for name in names:
        kwargs = _SMALL_OVERRIDES.get(name, {}) if args.small else {}
        started = time.perf_counter()
        output = EXPERIMENTS[name](**kwargs)
        elapsed = time.perf_counter() - started
        print("=" * 72)
        print(render(output))
        print(f"[{name} completed in {elapsed:.1f}s wall time]")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
