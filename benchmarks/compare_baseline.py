#!/usr/bin/env python
"""Bench-regression gate: compare BENCH_*.json artifacts against a baseline.

CI's ``bench-smoke`` job writes one ``BENCH_<experiment>.json`` artifact per
benchmark; this script compares a directory of such artifacts against the
committed ``benchmarks/baseline.json`` and fails (exit code 1) on
regressions.  One metric is gated per benchmark, the **work fingerprint**:
the sum of every ``simulated_time`` value in the artifact's output.  This is
derived from the cost meters, so it is deterministic across machines:
exceeding the baseline by more than the tolerance means the engines
genuinely do more work now.  A fingerprint equal to the baseline's to its
three stored decimals reads ``identical`` instead of ``ok``.  Wall time is
shown beside it and not gated: the smoke inputs finish in well under a
second, and the end-to-end harness (``benchmarks/e2e/``) owns wall time.

A markdown delta table is printed, and appended to ``$GITHUB_STEP_SUMMARY``
when that variable is set (or to ``--summary PATH``).  A benchmark present
in the artifacts but missing from the baseline also fails the gate (status
``NO BASELINE``) with a pointer to the fix, so newly added benchmarks cannot
ship ungated.  Refresh the baseline with ``--update`` after an intentional
performance change or when adding a benchmark (see docs/ci.md); with
``--only`` it refreshes the named entries and keeps every other one as it
was, so a change that moves one fingerprint commits exactly that one.

Usage::

    python benchmarks/compare_baseline.py bench-artifacts
    python benchmarks/compare_baseline.py bench-artifacts --update
    python benchmarks/compare_baseline.py bench-artifacts --update --only docstore_axes
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any

DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"


def work_fingerprint(value: Any) -> float:
    """Sum of every ``simulated_time`` number anywhere in the artifact output."""
    total = 0.0
    if isinstance(value, dict):
        for key, item in value.items():
            if key == "simulated_time" and isinstance(item, (int, float)):
                total += float(item)
            else:
                total += work_fingerprint(item)
    elif isinstance(value, list):
        total += sum(work_fingerprint(item) for item in value)
    return total


def load_artifacts(directory: Path) -> dict[str, dict[str, float]]:
    """Read every BENCH_*.json into {experiment: {wall, work}}."""
    artifacts: dict[str, dict[str, float]] = {}
    for path in sorted(directory.rglob("BENCH_*.json")):
        data = json.loads(path.read_text())
        name = data.get("experiment", path.stem.removeprefix("BENCH_"))
        artifacts[name] = {
            "wall_time_seconds": float(data.get("wall_time_seconds", 0.0)),
            "work_fingerprint": round(work_fingerprint(data.get("output", {})), 3),
        }
    return artifacts


def compare(
    baseline: dict[str, Any], artifacts: dict[str, dict[str, float]]
) -> tuple[list[dict[str, str]], bool]:
    """Build the delta table; the second element is True when the gate fails."""
    tolerance = float(baseline.get("tolerance", 0.25))
    expected = baseline.get("benchmarks", {})
    rows: list[dict[str, str]] = []
    failed = False

    def delta(base: float, current: float) -> str:
        if base <= 0:
            return "n/a"
        return f"{(current - base) / base:+.1%}"

    for name in sorted(set(expected) | set(artifacts)):
        base = expected.get(name)
        current = artifacts.get(name)
        if current is None:
            rows.append({"benchmark": name, "status": "MISSING",
                         "wall": "-", "wall_delta": "-", "work": "-", "work_delta": "-"})
            failed = True
            continue
        if base is None:
            # A benchmark without a committed baseline entry cannot be
            # gated; fail loudly so the entry is added with the benchmark
            # instead of the gate silently passing on new code paths.
            rows.append({
                "benchmark": name, "status": "NO BASELINE",
                "wall": f"{current['wall_time_seconds']:.2f}s", "wall_delta": "n/a",
                "work": f"{current['work_fingerprint']:,.0f}", "work_delta": "n/a",
            })
            failed = True
            continue
        base_wall = float(base.get("wall_time_seconds", 0.0))
        base_work = float(base.get("work_fingerprint", 0.0))
        wall, work = current["wall_time_seconds"], current["work_fingerprint"]
        if base_work > 0 and work > base_work * (1.0 + tolerance) + 1e-6:
            status = "WORK REGRESSION"
            failed = True
        else:
            # The tolerance is one-sided and wide; a refactoring's claim that
            # no engine does different work is the exact match, so show it.
            status = "identical" if work == round(base_work, 3) else "ok"
        rows.append({
            "benchmark": name, "status": status,
            "wall": f"{wall:.2f}s vs {base_wall:.2f}s",
            "wall_delta": delta(base_wall, wall),
            "work": f"{work:,.0f} vs {base_work:,.0f}",
            "work_delta": delta(base_work, work),
        })
    return rows, failed


def render_markdown(rows: list[dict[str, str]], tolerance: float) -> str:
    lines = [
        "## Bench regression gate",
        "",
        f"Tolerance: {tolerance:.0%} relative on work; wall time is not gated.",
        "",
        "| Benchmark | Wall (current vs base) | Δ wall | Work (current vs base) "
        "| Δ work | Status |",
        "|---|---|---|---|---|---|",
    ]
    for row in rows:
        lines.append(
            f"| {row['benchmark']} | {row['wall']} | {row['wall_delta']} "
            f"| {row['work']} | {row['work_delta']} | {row['status']} |"
        )
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("artifact_dir", type=Path,
                        help="directory containing BENCH_*.json files")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument("--summary", type=Path, default=None,
                        help="file to append the markdown table to "
                             "(defaults to $GITHUB_STEP_SUMMARY when set)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the artifacts instead of gating")
    parser.add_argument("--only", metavar="NAME[,NAME]",
                        type=lambda text: [name for name in text.split(",") if name],
                        help="with --update: refresh these entries, keep all others")
    args = parser.parse_args(argv)
    if args.only is not None and not args.update:
        parser.error("--only needs --update")

    artifacts = load_artifacts(args.artifact_dir)
    if not artifacts:
        print(f"no BENCH_*.json artifacts found under {args.artifact_dir}", file=sys.stderr)
        return 1
    baseline = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}

    if args.update:
        baseline.setdefault("tolerance", 0.25)
        if args.only is None:
            refreshed = baseline["benchmarks"] = artifacts
        else:
            missing = [name for name in args.only if name not in artifacts]
            if missing:
                print(f"no artifact for {', '.join(missing)} under {args.artifact_dir}",
                      file=sys.stderr)
                return 1
            refreshed = {name: artifacts[name] for name in args.only}
            baseline.setdefault("benchmarks", {}).update(refreshed)
        args.baseline.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        print(f"baseline refreshed with {len(refreshed)} benchmarks -> {args.baseline}")
        return 0

    rows, failed = compare(baseline, artifacts)
    markdown = render_markdown(rows, float(baseline.get("tolerance", 0.25)))
    print(markdown)
    summary_path = args.summary or (
        Path(os.environ["GITHUB_STEP_SUMMARY"]) if os.environ.get("GITHUB_STEP_SUMMARY")
        else None)
    if summary_path is not None:
        with summary_path.open("a") as handle:
            handle.write(markdown)
    missing_baseline = [row["benchmark"] for row in rows if row["status"] == "NO BASELINE"]
    if missing_baseline:
        print(
            f"benchmark(s) {', '.join(missing_baseline)} have no entry in "
            f"{args.baseline}; run `python benchmarks/compare_baseline.py "
            f"{args.artifact_dir} --update --only {','.join(missing_baseline)}` "
            "and commit the refreshed baseline "
            "together with the new benchmark (see docs/ci.md)",
            file=sys.stderr,
        )
    if failed:
        print("bench regression gate FAILED", file=sys.stderr)
        return 1
    print("bench regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
