"""Wall-clock end-to-end benchmark: one command, four workloads.

    python3 benchmarks/e2e/run.py --seed 1                  # all four, one subprocess each
    python3 benchmarks/e2e/run.py --seed 1 --trace          # the same with timing shims
    python3 benchmarks/e2e/run.py --workload job_learn_local --seed 1 --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py --compare out_a out_b     # regression table

The last line of standard output of a ``--workload`` run is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
# The benchmark imports as package ``e2e`` (its ``trace`` module must not
# shadow the standard library's) and the program under test from ``src/``.
sys.path[:] = [entry for entry in sys.path if Path(entry or ".").resolve() != HERE]
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"
DEFAULT_OUT = HERE / "out"
SCRATCH_ROOT = HERE / ".tmp"

WORKLOAD_NAMES = ("job_learn_local", "tpch_hybrid_local", "wide_stream_remote",
                  "doc_churn_durable")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS_PER_RUN = 3
#: A window never closes on fewer passes than a lower quartile needs,
#: nor — with tracing off — on fewer timed statements than leave ten
#: samples beyond the 95th percentile.
MIN_PASSES = 4
MIN_TIMED_STATEMENTS = 200
#: How the traced run divides ``--seconds``: untraced passes, the local
#: twin's passes (remote workload only), traced passes.
TRACE_WINDOW_SHARES = (0.4, 0.15, 0.45)

END_TO_END_UNITS = {
    "setup_s": "s", "queries_per_s": "1/s", "query_p50_ms": "ms", "query_p95_ms": "ms",
    "first_row_p50_ms": "ms", "peak_rss_mb": "MB",
}


# ----------------------------------------------------------------------
# measuring
# ----------------------------------------------------------------------
def run_window(instance, stopwatch, seconds: float, tracer=None, *, passes: int | None = None,
               at_least: int = MIN_PASSES, inspect=None) -> list[list]:
    """Whole passes until ``seconds`` have gone by and ``at_least`` are
    done (or exactly ``passes``)."""
    done: list[list] = []
    deadline = time.perf_counter() + seconds
    while (len(done) < passes if passes is not None
           else len(done) < at_least or time.perf_counter() < deadline):
        done.append(instance.run_pass(stopwatch, tracer, pass_index=len(done),
                                      inspect=inspect if not done else None))
    return done


def step_times(passes: list[list]) -> list[float]:
    """Typical (lower-quartile, yardstick-scaled) seconds of each step slot."""
    from e2e.timing import lower_quartile

    return [lower_quartile([one_pass[index].raw_s * one_pass[index].scale
                            for one_pass in passes])
            for index in range(len(passes[0]))]


def slot_times(passes: list[list]) -> dict[str, dict[str, Any]]:
    """The same per statement slot, with the samples it was taken from."""
    from e2e.timing import lower_quartile

    slots: dict[str, dict[str, Any]] = {}
    for index, step in enumerate(passes[0]):
        for position, statement in enumerate(step.statements):
            samples = [one_pass[index].statements[position] for one_pass in passes]
            scales = [one_pass[index].scale for one_pass in passes]
            slots[statement.slot] = {
                "latency_s": lower_quartile(
                    [sample.raw_s * scale for sample, scale in zip(samples, scales)]),
                "rows": statement.rows,
                "raw_samples_s": [sample.raw_s for sample in samples],
                "first_row_raw_samples_s": [sample.first_row_raw_s for sample in samples],
                "scales": scales,
            }
    return slots


def end_to_end(passes: list[list], setups: list[float]) -> tuple[dict[str, float], dict]:
    from e2e.timing import percentile

    slots = slot_times(passes)
    latencies = [slot["latency_s"] for slot in slots.values()]
    # Over all samples, not over slots: whether a remote fetch arrives
    # before or after an episode boundary makes a slot's time to first row
    # two-valued, and a per-slot quartile flips between the two (19 %
    # spread between runs); the median of all samples moves smoothly (5 %).
    first_rows = [first * scale for slot in slots.values()
                  for first, scale in zip(slot["first_row_raw_samples_s"], slot["scales"])]
    metrics = {
        "setup_s": statistics.median(setups),
        "queries_per_s": len(slots) / pass_seconds(passes),
        "query_p50_ms": statistics.median(latencies) * 1e3,
        "query_p95_ms": percentile(latencies, 0.95) * 1e3,
        "first_row_p50_ms": statistics.median(first_rows) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, slots


def failures_of(passes: list[list]) -> tuple[int, list[str]]:
    statements = [statement for one_pass in passes for step in one_pass
                  for statement in step.statements]
    return len(statements), [s.error for s in statements if s.error is not None]


def pass_seconds(passes: list[list]) -> float:
    """Typical scaled seconds of one pass (sum of the step slots)."""
    return sum(step_times(passes))


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict[str, Any]:
    """One run of one workload; returns the result and the output record."""
    from e2e.timing import Stopwatch
    from e2e.workloads import SIZES, WORKLOADS, Scratch

    root = SCRATCH_ROOT / f"run-{time.time_ns():x}"
    root.mkdir(parents=True)
    tempfile.tempdir = str(root)  # sqlite mirrors and data dirs stay in the checkout
    scratch = Scratch(root)
    opened: list = []

    def new_instance():
        instance = WORKLOADS[workload](SIZES[size][workload], seed, scratch)
        opened.append(instance)
        return instance

    fixed = 2 if size == "tiny" else None
    stopwatch = Stopwatch()
    try:
        if trace:
            record = _measure_traced(new_instance, stopwatch, seconds, fixed)
        else:
            setups = []
            for _ in range(SETUPS_PER_RUN):
                if opened:
                    opened[-1].close()
                instance = new_instance()
                setups.append(instance.setup(stopwatch))
            instance.build_oracle()
            reads_per_pass = sum(len(step.reads) for step in instance.steps)
            passes = run_window(
                instance, stopwatch, seconds, passes=fixed,
                at_least=max(MIN_PASSES, math.ceil(MIN_TIMED_STATEMENTS / reads_per_pass)))
            metrics, slots = end_to_end(passes, setups)
            attempted, failures = failures_of(passes)
            record = {
                "metrics": {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                            for name, value in metrics.items()},
                "attempted": attempted, "failures": failures,
                "passes": len(passes), "timed_statements": attempted,
                "setup_phases_s": instance.phases, "slots": slots, "problems": [],
            }
    finally:
        tempfile.tempdir = None
        for instance in opened:
            instance.close()
    leaks = scratch.leaks()
    shutil.rmtree(root, ignore_errors=True)
    record["problems"] += [f"leak: {leak}" for leak in leaks]
    record.update(workload=workload, seed=seed, seconds=seconds, size=size, traced=trace,
                  failed_share=len(record["failures"]) / max(1, record["attempted"]),
                  provenance={"python": platform.python_version(),
                              "machine": platform.machine(), "when": time.strftime("%F %T")})
    return record


def _measure_traced(new_instance, stopwatch, seconds: float, fixed: int | None) -> dict:
    """Untraced passes, then the same from a fresh set-up under the shims."""
    from e2e import layers
    from e2e.trace import SPAN_FIELDS, Shims, Tracer, leftovers
    from e2e.workloads import SETUP_STATEMENT

    plain_share, twin_share, traced_share = TRACE_WINDOW_SHARES
    problems: list[str] = []

    def phase(instance, share: float, tracer=None, inspect=None):
        """The first pass alone, then the rest of the window: the passes,
        and what the instance's counters moved by over each."""
        before = _counters(instance)
        passes = run_window(instance, stopwatch, 0.0, tracer, passes=1, inspect=inspect)
        first = _delta(_counters(instance), before)
        passes += run_window(instance, stopwatch, seconds * share, tracer,
                             passes=fixed and fixed - 1)
        return passes, first, _delta(_counters(instance), before)

    plain = new_instance()
    plain.setup(stopwatch)
    plain.build_oracle()
    plain_passes, plain_first, _ = phase(plain, plain_share)
    plain_pass_s = pass_seconds(plain_passes)
    hop_tax = 0.0
    twin = plain.local_twin()
    if twin is not None:
        twin_passes = run_window(twin, stopwatch, seconds * twin_share, passes=fixed)
        hop_tax = (plain_pass_s - pass_seconds(twin_passes)) / plain_pass_s
        problems += failures_of(twin_passes)[1]
    plain.close()

    tracer = Tracer()
    shims = Shims(tracer)
    inspected: dict[str, float] = {"time_slices": 0, "uct_nodes": 0, "result_tuples": 0,
                                   "learn_s": 0.0, "forced_s": 0.0}
    shims.install()
    try:
        traced = new_instance()
        tracer.statement_id = SETUP_STATEMENT
        span = tracer.open("bench.setup")
        traced.setup(stopwatch, tracer)
        traced.build_oracle()
        tracer.close(span)
        traced_passes, traced_first, whole = phase(
            traced, traced_share, tracer,
            inspect=lambda read, cursor, seconds_taken: _inspect(
                traced, stopwatch, read, cursor, seconds_taken, inspected))
    finally:
        shims.remove()
    problems += [f"shim still bound: {where}" for where in leftovers()]

    for name in ("work_units", "invalidations"):
        if plain_first[name] != traced_first[name]:
            problems.append(f"{name} differ between the untraced ({plain_first[name]}) and "
                            f"the traced ({traced_first[name]}) first pass")
    rows = [sum(s.rows for step in passes[0] for s in step.statements)
            for passes in (plain_passes, traced_passes)]
    if rows[0] != rows[1]:
        problems.append(f"rows fetched differ between untraced ({rows[0]}) and traced "
                        f"({rows[1]}) first pass")

    first_ids = {step.statement_id for step in traced_passes[0]}
    timed = [span for span in tracer.spans if span[layers.STATEMENT] >= 0]
    setup_spans = [span for span in tracer.spans if span[layers.STATEMENT] == SETUP_STATEMENT]
    problems += layers.malformed(timed)
    engines = {record.statement_id: tuple(read.engine for read in step.reads)
               for one_pass in traced_passes for step, record in zip(traced.steps, one_pass)}
    counters = dict(whole)
    counters.update(
        work_units=traced_first["work_units"], invalidations=traced_first["invalidations"],
        time_slices=inspected["time_slices"], uct_nodes=inspected["uct_nodes"],
        result_tuples=inspected["result_tuples"],
        regret_ratio=(inspected["learn_s"] / inspected["forced_s"]
                      if inspected["forced_s"] else 0.0),
        hop_tax_share=hop_tax,
        load_commit_s=traced.phases.get("load_commit", 0.0),
        reopen_s=traced.phases.get("reopen", 0.0),
        trace_overhead_share=(pass_seconds(traced_passes) - plain_pass_s) / plain_pass_s,
    )
    metrics, shares = layers.derive(
        timed, setup_spans=setup_spans, traced_passes=len(traced_passes),
        counter_statements=first_ids, statement_engines=engines, counters=counters)
    units = dict(layers.PER_LAYER)
    attempted, failures = failures_of(plain_passes + traced_passes)
    return {
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "attempted": attempted, "failures": failures,
        "passes": {"untraced": len(plain_passes), "traced": len(traced_passes)},
        "timed_statements": attempted, "problems": problems,
        "layer_shares": shares,
        "span_fields": list(SPAN_FIELDS),
        "spans_of_first_traced_pass": [span for span in timed
                                       if span[layers.STATEMENT] in first_ids],
    }


def _counters(instance) -> dict[str, float]:
    """Cumulative counters the serving layer and the storage keep themselves."""
    stats = instance.server_stats()
    counters = {
        "work_units": stats["work_total"],
        "result_hits": stats["result_cache"]["hits"],
        "result_misses": stats["result_cache"]["misses"],
        "invalidations": stats["result_cache"]["invalidations"],
        "order_hits": stats["order_cache"]["hits"],
        "order_misses": stats["order_cache"]["misses"],
    }
    counters.update(instance.storage_counters())
    return counters


def _delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    # Sizes on disk are states, not flows.
    return {name: value if name in ("disk_bytes", "live_user_bytes") else value - before[name]
            for name, value in after.items()}


def _inspect(instance, stopwatch, read, cursor, seconds_taken: float,
             totals: dict[str, float]) -> None:
    """First traced pass only: read the finished query's own metrics, and
    time Skinner-C on the order it settled on, for the regret ratio."""
    metrics = cursor.result().metrics
    if metrics.extra.get("result_cache") == "hit":
        return
    totals["time_slices"] += metrics.time_slices
    totals["uct_nodes"] += metrics.uct_nodes
    totals["result_tuples"] += metrics.result_tuple_count
    conn = instance.conn
    if read.engine != "skinner-c" or conn.is_remote or metrics.final_join_order is None:
        return
    from repro.skinner.skinner_c import SkinnerC

    engine = SkinnerC(conn.catalog, conn.udfs, conn.config)
    query = conn.parse(read.sql)
    _, raw, scale = stopwatch.time(
        lambda: engine.execute_with_order(query, metrics.final_join_order))
    totals["learn_s"] += seconds_taken
    totals["forced_s"] += raw * scale


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def print_metrics(record: dict[str, Any]) -> None:
    print(f"# {record['workload']}  seed={record['seed']}  size={record['size']}  "
          f"passes={record['passes']}  timed_statements={record['timed_statements']}")
    for name, metric in record["metrics"].items():
        print(f"{name:36s} {metric['value']:>16.6f} {metric['unit']}")
    print(f"{'failed_share':36s} {record['failed_share']:>16.6f} ratio")
    for line in record["failures"][:20] + record["problems"][:20]:
        print(f"!! {line}")


def write_record(record: dict[str, Any], out: Path) -> None:
    """Append the run to ``<out>/<workload>.json``; a traced run also
    replaces ``<out>/trace_<workload>.json`` (per-layer numbers and spans)."""
    out.mkdir(parents=True, exist_ok=True)
    if record["traced"]:
        path = out / f"trace_{record['workload']}.json"
        path.write_text(json.dumps(record, default=float))
        return
    path = out / f"{record['workload']}.json"
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    runs.append(record)
    path.write_text(json.dumps({"workload": record["workload"], "runs": runs}, indent=1))


def result_line(record: dict[str, Any]) -> str:
    correct = not record["failures"] and not record["problems"]
    values = [metric["value"] for metric in record["metrics"].values()]
    correct = correct and all(math.isfinite(value) for value in values)
    return json.dumps({
        "correct": correct, "attempted": record["attempted"],
        "failed": len(record["failures"]), "metrics": record["metrics"],
    })


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh subprocess; the worst exit code."""
    worst = 0
    for workload in WORKLOAD_NAMES:
        command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--size", args.size, "--out", str(args.out)]
        done = subprocess.run(command, check=False)
        worst = max(worst, done.returncode)
    return worst


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def _spread(values: list[float]) -> float:
    """Interquartile range over the median (0 for one run, or all zeros)."""
    if len(values) < 2 or not statistics.median(values):
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def compare(dir_a: Path, dir_b: Path) -> int:
    """One row per workload x end-to-end metric; non-zero exit on ``regressed``."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    bounds["failed_share"] = ("lower", 0.0)  # any rise fails
    regressed = False
    print(f"{'workload':20s} {'metric':18s} {'A':>12s} {'B':>12s} {'B/A':>8s}  verdict")
    for workload in WORKLOAD_NAMES:
        runs = []
        for directory in (dir_a, dir_b):
            path = directory / f"{workload}.json"
            runs.append(json.loads(path.read_text())["runs"] if path.exists() else [])
        if not all(runs):
            print(f"{workload:20s} missing in {'A' if not runs[0] else 'B'}")
            regressed = True
            continue
        for metric, (better, bound) in bounds.items():
            values = [[run["failed_share"] if metric == "failed_share"
                       else run["metrics"][metric]["value"] for run in side] for side in runs]
            a, b = (statistics.median(side) for side in values)
            worse = (b - a) if better == "lower" else (a - b)
            if worse > bound * a:
                verdict, regressed = "regressed", True
            elif max(_spread(values[0]), _spread(values[1])) > bound > 0:
                verdict = "unresolved"
            else:
                verdict = "ok"
            ratio = f"{b / a:8.3f}" if a else f"{'-':>8s}"
            print(f"{workload:20s} {metric:18s} {a:12.4f} {b:12.4f} {ratio}  {verdict} "
                  f"(base A, n={len(values[0])}/{len(values[1])}, bound {bound})")
    return 1 if regressed else 0


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run this one in this process (default: all, a subprocess each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="length of the measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: timing shims on, per-layer metrics out")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: self-test sizes, a fixed two passes, no out/ files")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        return run_all(args)
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print_metrics(record)
    if args.size != "tiny":
        write_record(record, args.out)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Plans iterate over sets of names: the work clock, and with it the
        # seconds, differ from process to process unless the hash salt is
        # pinned, as the work-clock gate in benchmarks/ pins it too.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
