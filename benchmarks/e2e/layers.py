"""Per-layer metrics: what the traced run's spans and counters add up to.

Names are ``<package>.<metric>``.  Times ending in ``_busy_s`` are wall
seconds inside the layer's spans *per pass* (mean over the traced passes);
``_ms_p50`` / ``_us_p50`` are medians of single span durations; ``_share``
is the layer's *self* time — a span's duration minus what its child spans
cover — divided by the time of the statement spans.  Counts marked ``=`` in
the README come from the first traced pass alone, which starts from the
same state in every run with the same seed.

Two threads record spans on the remote workload.  While the client waits on
its socket the server thread does the work, so the part of a client span's
self time that server-thread spans cover is booked to those spans' layers,
not to the client's.
"""

from __future__ import annotations

import bisect
import statistics
from collections import defaultdict
from collections.abc import Iterable

from e2e.trace import END, ID, NAME, PARENT, START, STATEMENT, THREAD, VALUE

#: Every per-layer metric and its unit, in print order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("query.parse_ms_p50", "ms"), ("query.parse_share", "ratio"),
    ("optimizer.stats_collect_calls", "count"), ("optimizer.stats_collect_busy_s", "s"),
    ("optimizer.dp_optimize_ms_p50", "ms"),
    ("skinner.preprocess_ms_p50", "ms"), ("skinner.preprocess_share", "ratio"),
    ("skinner.time_slices_total", "count"), ("skinner.join_busy_s", "s"),
    ("skinner.join_us_per_slice", "us"), ("skinner.result_tuples_total", "count"),
    ("skinner.regret_ratio", "ratio"), ("skinner.g_busy_s", "s"), ("skinner.h_busy_s", "s"),
    ("uct.choose_us_p50", "us"), ("uct.update_us_p50", "us"), ("uct.busy_share", "ratio"),
    ("uct.nodes_total", "count"),
    ("engine.work_units_total", "count"), ("engine.execute_order_busy_s", "s"),
    ("engine.encode_keys_calls", "count"), ("engine.encode_keys_busy_s", "s"),
    ("engine.postprocess_ms_p50", "ms"), ("engine.postprocess_share", "ratio"),
    ("external.mirror_s", "s"), ("external.run_batch_calls", "count"),
    ("external.run_batch_busy_s", "s"), ("external.useful_batch_share", "ratio"),
    ("serving.submit_ms_p50", "ms"), ("serving.steps", "count"),
    ("serving.step_busy_s", "s"), ("serving.queue_wait_ms_p50", "ms"),
    ("serving.result_cache_hit_share", "ratio"), ("serving.order_cache_hit_share", "ratio"),
    ("serving.invalidations", "count"), ("serving.overhead_share", "ratio"),
    ("api.fetch_busy_s", "s"), ("api.rows_fetched", "count"), ("api.fetch_us_per_row", "us"),
    ("net.encode_busy_s", "s"), ("net.decode_busy_s", "s"), ("net.frames", "count"),
    ("net.bytes_sent", "bytes"), ("net.bytes_per_row", "bytes"), ("net.hop_tax_share", "ratio"),
    ("storage.load_commit_s", "s"), ("storage.reopen_s", "s"), ("storage.commit_ms_p50", "ms"),
    ("storage.fsync_calls", "count"), ("storage.wal_bytes_per_user_byte", "ratio"),
    ("storage.disk_bytes_per_user_byte", "ratio"), ("storage.pool_hit_share", "ratio"),
    ("storage.pool_evictions", "count"),
    ("docstore.shred_ms_p50", "ms"),
    ("trace.overhead_share", "ratio"), ("trace.unattributed_share", "ratio"),
)

#: Counts that repeat exactly for a given seed.  ``serving.steps``,
#: ``net.frames`` and ``net.bytes_sent`` are exact on the in-process
#: workloads only: over the wire, how many rows a fetch finds buffered
#: depends on how the two threads interleave.
EXACT_COUNTS = (
    "optimizer.stats_collect_calls", "skinner.time_slices_total",
    "skinner.result_tuples_total", "uct.nodes_total", "engine.work_units_total",
    "engine.encode_keys_calls", "external.run_batch_calls", "serving.invalidations",
    "api.rows_fetched", "storage.fsync_calls",
)
EXACT_COUNTS_IN_PROCESS = ("serving.steps", "net.frames", "net.bytes_sent")

ROOT = "bench.statement"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


class _Cover:
    """Total length of a set of intervals inside any query interval."""

    def __init__(self, intervals: Iterable[tuple[int, int]]) -> None:
        merged: list[list[int]] = []
        for start, end in sorted(intervals):
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        self._starts = [start for start, _ in merged]
        self._ends = [end for _, end in merged]
        self._before = [0]  # covered length before interval i
        for start, end in merged:
            self._before.append(self._before[-1] + end - start)

    def _upto(self, instant: int) -> int:
        index = bisect.bisect_right(self._starts, instant)
        if index == 0:
            return 0
        covered = self._before[index - 1]
        return covered + min(instant, self._ends[index - 1]) - self._starts[index - 1]

    def within(self, start: int, end: int) -> int:
        return self._upto(end) - self._upto(start) if self._starts else 0


def self_times(spans: list[list]) -> dict[int, int]:
    """Nanoseconds of each span not covered by its children — nor, for a
    span of the benchmark's own thread, by work on another thread."""
    client = min((span[THREAD] for span in spans), default=0)
    cover = _Cover((span[START], span[END]) for span in spans
                   if span[THREAD] != client and span[PARENT] == -1)

    def uncovered(span: list) -> int:
        duration = span[END] - span[START]
        if span[THREAD] == client:
            duration -= cover.within(span[START], span[END])
        return duration

    own = {span[ID]: uncovered(span) for span in spans}
    result = dict(own)
    for span in spans:
        if span[PARENT] in result:
            result[span[PARENT]] -= own[span[ID]]
    return result


def derive(
    spans: list[list],
    *,
    setup_spans: list[list],
    traced_passes: int,
    counter_statements: set[int],
    statement_engines: dict[int, tuple[str, ...]],
    counters: dict[str, float],
) -> tuple[dict[str, float], dict[str, float]]:
    """Every :data:`PER_LAYER` metric from the pass spans and the counters,
    and each layer's self time as a share of the statement spans' time.

    ``spans`` are those of timed statements (statement id >= 0);
    ``counter_statements`` are the ids of the first traced pass;
    ``counters`` carries what spans cannot show (cache and pool counters,
    summed ``QueryMetrics`` fields, set-up phases, the run-level ratios).
    """
    passes = max(1, traced_passes)
    by_name: dict[str, list[list]] = defaultdict(list)
    for span in spans:
        by_name[span[NAME]].append(span)
    own = self_times(spans)

    def durations(*names: str) -> list[int]:
        return [span[END] - span[START] for name in names for span in by_name[name]]

    def busy_s(*names: str) -> float:
        return sum(durations(*names)) / 1e9 / passes

    def p50(name: str, unit_ns: float) -> float:
        return _median(durations(name)) / unit_ns

    def calls(name: str) -> int:
        return sum(1 for span in by_name[name] if span[STATEMENT] in counter_statements)

    def setup_s(name: str) -> float:
        return sum(span[END] - span[START] for span in setup_spans if span[NAME] == name) / 1e9

    root_ns = sum(durations(ROOT))
    layer_self: dict[str, int] = defaultdict(int)
    for span in spans:
        layer_self[span[NAME].split(".")[0]] += own[span[ID]]

    def self_share(*names: str) -> float:
        return _ratio(sum(own[span[ID]] for name in names for span in by_name[name]), root_ns)

    # Time from a submit returning to the scheduler's next grant.
    step_starts = sorted(span[START] for span in by_name["serving.step"])
    waits = []
    for submit in by_name["serving.submit"]:
        index = bisect.bisect_left(step_starts, submit[END])
        if index < len(step_starts):
            waits.append(step_starts[index] - submit[END])

    engine_ns: dict[str, int] = defaultdict(int)
    for span in by_name[ROOT]:
        for engine in statement_engines.get(span[STATEMENT], ()):
            engine_ns[engine] += span[END] - span[START]

    fetch_spans = by_name["api.fetchmany"] + by_name["api.fetchall"]
    rows_all = sum(span[VALUE] for span in fetch_spans)
    rows_counted = sum(span[VALUE] for span in fetch_spans
                       if span[STATEMENT] in counter_statements)
    frames = [span for span in by_name["net.encode"] if span[STATEMENT] in counter_statements]
    batches = by_name["external.run_batch"]
    steps_run = [span for span in by_name["serving.step"] if span[VALUE]]

    metrics = {
        "query.parse_ms_p50": p50("query.parse", 1e6),
        "query.parse_share": self_share("query.parse"),
        # The connection caches its statistics, so most collecting is set-up.
        "optimizer.stats_collect_calls": calls("optimizer.stats_collect") + sum(
            1 for span in setup_spans if span[NAME] == "optimizer.stats_collect"),
        "optimizer.stats_collect_busy_s": setup_s("optimizer.stats_collect")
        + busy_s("optimizer.stats_collect"),
        "optimizer.dp_optimize_ms_p50": p50("optimizer.dp_optimize", 1e6),
        "skinner.preprocess_ms_p50": p50("skinner.preprocess", 1e6),
        "skinner.preprocess_share": self_share("skinner.preprocess"),
        "skinner.time_slices_total": counters.get("time_slices", 0),
        "skinner.join_busy_s": busy_s("skinner.join"),
        "skinner.join_us_per_slice": _ratio(sum(durations("skinner.join")) / 1e3,
                                            len(by_name["skinner.join"])),
        "skinner.result_tuples_total": counters.get("result_tuples", 0),
        "skinner.regret_ratio": counters.get("regret_ratio", 0.0),
        "skinner.g_busy_s": engine_ns["skinner-g"] / 1e9 / passes,
        "skinner.h_busy_s": (engine_ns["skinner-h"] + engine_ns["skinner_h_sqlite"])
        / 1e9 / passes,
        "uct.choose_us_p50": p50("uct.choose", 1e3),
        "uct.update_us_p50": p50("uct.update", 1e3),
        "uct.busy_share": self_share("uct.choose", "uct.update"),
        "uct.nodes_total": counters.get("uct_nodes", 0),
        "engine.work_units_total": counters.get("work_units", 0),
        "engine.execute_order_busy_s": busy_s("engine.execute_order"),
        "engine.encode_keys_calls": calls("engine.encode_keys"),
        "engine.encode_keys_busy_s": busy_s("engine.encode_keys"),
        "engine.postprocess_ms_p50": p50("engine.postprocess", 1e6),
        "engine.postprocess_share": self_share("engine.postprocess"),
        "external.mirror_s": setup_s("external.mirror") + busy_s("external.mirror"),
        "external.run_batch_calls": calls("external.run_batch"),
        "external.run_batch_busy_s": busy_s("external.run_batch"),
        "external.useful_batch_share": _ratio(sum(span[VALUE] for span in batches),
                                              len(batches)),
        "serving.submit_ms_p50": p50("serving.submit", 1e6),
        "serving.steps": sum(1 for span in steps_run
                             if span[STATEMENT] in counter_statements),
        "serving.step_busy_s": sum(span[END] - span[START] for span in steps_run)
        / 1e9 / passes,
        "serving.queue_wait_ms_p50": _median(waits) / 1e6,
        "serving.result_cache_hit_share": _ratio(
            counters.get("result_hits", 0),
            counters.get("result_hits", 0) + counters.get("result_misses", 0)),
        "serving.order_cache_hit_share": _ratio(
            counters.get("order_hits", 0),
            counters.get("order_hits", 0) + counters.get("order_misses", 0)),
        "serving.invalidations": counters.get("invalidations", 0),
        "serving.overhead_share": self_share("api.execute", "api.fetchmany", "api.fetchall"),
        "api.fetch_busy_s": sum(span[END] - span[START] for span in fetch_spans)
        / 1e9 / passes,
        "api.rows_fetched": rows_counted,
        "api.fetch_us_per_row": _ratio(
            sum(span[END] - span[START] for span in fetch_spans) / 1e3, rows_all),
        "net.encode_busy_s": busy_s("net.encode", "net.result_to_wire"),
        "net.decode_busy_s": busy_s("net.decode", "net.result_from_wire"),
        "net.frames": len(frames),
        "net.bytes_sent": sum(span[VALUE] for span in frames),
        "net.bytes_per_row": _ratio(sum(span[VALUE] for span in frames), rows_counted),
        "net.hop_tax_share": counters.get("hop_tax_share", 0.0),
        "storage.load_commit_s": counters.get("load_commit_s", 0.0),
        "storage.reopen_s": counters.get("reopen_s", 0.0),
        "storage.commit_ms_p50": p50("storage.commit", 1e6),
        "storage.fsync_calls": calls("storage.fsync"),
        "storage.wal_bytes_per_user_byte": _ratio(
            counters.get("wal_bytes", 0), counters.get("user_bytes_written", 0)),
        "storage.disk_bytes_per_user_byte": _ratio(
            counters.get("disk_bytes", 0), counters.get("live_user_bytes", 0)),
        "storage.pool_hit_share": _ratio(
            counters.get("pool_hits", 0),
            counters.get("pool_hits", 0) + counters.get("pool_misses", 0)),
        "storage.pool_evictions": counters.get("pool_evictions", 0),
        "docstore.shred_ms_p50": p50("docstore.shred", 1e6),
        "trace.overhead_share": counters.get("trace_overhead_share", 0.0),
        "trace.unattributed_share": _ratio(layer_self["bench"], root_ns),
    }
    assert set(metrics) == {name for name, _ in PER_LAYER}
    return metrics, {layer: _ratio(own_ns, root_ns) for layer, own_ns in layer_self.items()}


def malformed(spans: list[list]) -> list[str]:
    """Why the span tree is not well-formed (empty when it is)."""
    by_id = {span[ID]: span for span in spans}
    problems = []
    for span in spans:
        if span[END] < span[START]:
            problems.append(f"span {span[ID]} {span[NAME]} ends before it starts")
        parent = by_id.get(span[PARENT])
        if parent is not None and not (
            parent[START] <= span[START] and span[END] <= parent[END]
            and parent[THREAD] == span[THREAD]
        ):
            problems.append(f"span {span[ID]} {span[NAME]} leaves its parent {parent[NAME]}")
    problems += [f"span {span_id} has negative self time {own}"
                 for span_id, own in self_times(spans).items() if own < 0]
    return problems
