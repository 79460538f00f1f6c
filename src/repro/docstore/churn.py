"""Read/write churn under serving: interleaved run vs serialized replay.

The driver turns the serving layer's central invariant — *per-query rows
and meter charges do not depend on how execution interleaves* — into an
executable proof over document data.  One deterministic schedule of
operations (axis queries, subtree INSERT/UPDATE/DELETE through the PR 5
transaction surface) is executed twice:

* **interleaved** — queries are submitted with ``stream=True`` and
  drained a few rows at a time, with mutations committed *between fetches*
  while the query's task is mid-execution;
* **serialized replay** — the same schedule on a fresh catalog, but every
  query runs to completion at its submission point before the next
  operation applies.

Because engine tasks snapshot their input tables at activation, the
catalog state each query observes is its *submission-time* state in both
runs, so rows, work-unit breakdowns and ledger charges must be
byte-identical pairwise — any divergence is a bug in snapshotting, in the
version keys of the serving caches, or in admission accounting, and the
report names it.  A stale cache hit would be identical in both runs, so
every answer served from the result cache is also re-run on the spot with
:meth:`~repro.api.connection.Connection.execute_direct`, which bypasses the
serving layer, and must give the same rows.  The schedule keeps at most one
query in flight so the serving caches traverse identical states in both
runs; warm-starting is disabled for the same reason (it couples one
query's charges to another's *completion* time, which is exactly what the
two runs make different).

Runs work on in-memory and durable catalogs alike; ``python -m
repro.docstore.churn --data-dir DIR`` is the CI entry point.
"""

from __future__ import annotations

import argparse
import copy
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.config import DEFAULT_CONFIG, SkinnerConfig
from repro.docstore.axes import axis_query
from repro.docstore.shred import (
    DocNode,
    delete_subtree,
    forest_size,
    insert_subtree,
    shred_nodes,
    update_value,
)
from repro.docstore.workload import _query_pool, build_forest, random_item
from repro.storage.table import Table
from repro.workloads.generators import make_rng

_TABLE = "doc_nodes"


@dataclass(frozen=True)
class ChurnOp:
    """One schedule entry, fully materialized at build time.

    Everything random is drawn while building the schedule, so applying
    an op is a pure function — both runs replay identical values.
    """

    kind: str  # "query" | "insert" | "update" | "delete"
    name: str = ""
    sql: str = ""
    fraction: float = 0.0  # node selector: fraction of the live forest
    text: str = ""
    subtree: DocNode | None = None


@dataclass
class ChurnReport:
    """What one churn comparison produced."""

    steps: int
    queries: int
    mutations: int
    matched: bool
    mismatches: list[str] = field(default_factory=list)
    invalidations: int = 0
    cache_hits: int = 0
    interleaved_work: int = 0
    replay_work: int = 0
    per_query: list[dict[str, Any]] = field(default_factory=list)

    def summary(self) -> str:
        verdict = "MATCH" if self.matched else "MISMATCH"
        lines = [
            f"churn: {self.steps} ops ({self.queries} queries, "
            f"{self.mutations} mutations) -> {verdict}",
            f"  cache hits: {self.cache_hits}, invalidations: {self.invalidations}",
            f"  work: interleaved={self.interleaved_work} "
            f"replay={self.replay_work}",
        ]
        lines.extend(f"  !! {reason}" for reason in self.mismatches)
        return "\n".join(lines)


def build_schedule(*, steps: int, seed: int) -> list[ChurnOp]:
    """A deterministic operation schedule (queries and subtree mutations)."""
    rng = make_rng(seed)
    pool = _query_pool(_TABLE)
    ops: list[ChurnOp] = []
    for index in range(steps):
        draw = rng.random()
        if draw < 0.5 or index == 0:  # start with a query so streams exist
            stem, _, axis_steps = pool[int(rng.integers(0, len(pool)))]
            ops.append(ChurnOp(
                kind="query",
                name=f"q{index:02d}_{stem}",
                # No DISTINCT: bare select-project-join keeps the streaming
                # path incremental, which is what the interleaving stresses.
                sql=axis_query(_TABLE, axis_steps, distinct=False),
            ))
        elif draw < 0.7:
            ops.append(ChurnOp(
                kind="insert",
                fraction=float(rng.random()),
                subtree=random_item(rng, depth=1, sellers=40),
            ))
        elif draw < 0.9:
            ops.append(ChurnOp(
                kind="update",
                fraction=float(rng.random()),
                text=f"{float(rng.integers(1, 6)):.0f}",
            ))
        else:
            ops.append(ChurnOp(kind="delete", fraction=float(rng.random())))
    return ops


def _apply_mutation(forest: list[DocNode], op: ChurnOp) -> None:
    index = int(op.fraction * (forest_size(forest) - 1))
    if op.kind == "insert":
        assert op.subtree is not None
        # Deep copy: the schedule's subtree object is shared by both runs,
        # and later updates must not leak between their forests through it.
        insert_subtree(forest, index, copy.deepcopy(op.subtree))
    elif op.kind == "update":
        update_value(forest, index, op.text)
    elif op.kind == "delete":
        delete_subtree(forest, index)
    else:  # pragma: no cover - schedule construction guards this
        raise ValueError(f"not a mutation: {op.kind}")


def _commit_forest(conn, forest: list[DocNode]) -> None:
    """Re-encode the forest and commit it as the node table's new version."""
    conn.add_table(Table(_TABLE, shred_nodes(forest)), replace=True)
    conn.commit()


def _result_rows(result) -> list[tuple]:
    table = result.table
    columns = [table.column(name).values() for name in table.column_names]
    return list(zip(*columns))


def _connect(config: SkinnerConfig, data_dir: str | None):
    import repro.api as api

    if data_dir is not None:
        config = config.with_overrides(data_dir=data_dir)
    return api.connect(config)


def _run_schedule(
    schedule: list[ChurnOp],
    *,
    config: SkinnerConfig,
    data_dir: str | None,
    forest_seed: int,
    forest_kwargs: dict[str, int],
    engine: str,
    fetch_rows: int,
    interleave: bool,
) -> dict[str, Any]:
    """Execute the schedule once; returns per-query observations."""
    forest = build_forest(seed=forest_seed, **forest_kwargs)
    conn = _connect(config, data_dir)
    try:
        _commit_forest(conn, forest)
        server = conn.server
        observations: list[dict[str, Any]] = []
        active: dict[str, Any] | None = None

        def fetch(ticket: int) -> list[tuple[Any, ...]]:
            return server.fetch_batch(ticket, fetch_rows).row_tuples()

        def drain_active() -> None:
            nonlocal active
            if active is None:
                return
            while chunk := fetch(active["ticket"]):
                active["streamed"].extend(chunk)
            result = server.result(active["ticket"])
            active["rows"] = _result_rows(result)
            active["breakdown"] = result.metrics.work
            active["work"] = server.ledger.total(active["ticket"])
            observations.append(active)
            active = None

        for op in schedule:
            if op.kind == "query":
                drain_active()
                parsed = conn.parse(op.sql)
                ticket = server.submit(
                    parsed, engine=engine, tenant="churn", stream=True,
                    config=config,
                )
                active = {"name": op.name, "ticket": ticket, "streamed": []}
                if server.session(ticket).cache_hit:
                    # Served at submission: check it against the catalog as
                    # it stands, before any later write moves it.
                    direct = conn.execute_direct(parsed, engine=engine, config=config)
                    active["direct_rows"] = _result_rows(direct)
                if interleave:
                    active["streamed"].extend(fetch(ticket))
                else:
                    drain_active()
            else:
                if interleave and active is not None:
                    # Pull a partial chunk so the mutation lands strictly
                    # between fetches of a mid-execution stream.
                    active["streamed"].extend(fetch(active["ticket"]))
                _apply_mutation(forest, op)
                _commit_forest(conn, forest)
        drain_active()
        stats = server.stats()
        return {
            "observations": observations,
            "invalidations": stats["result_cache"]["invalidations"],
            "cache_hits": stats["result_cache"]["hits"],
            "work_total": stats["work_total"],
            "inflight": stats["inflight"],
            "queued": stats["queued"],
        }
    finally:
        conn.close()


def run_churn(
    *,
    steps: int = 24,
    seed: int = 11,
    engine: str = "skinner-c",
    data_dir: str | Path | None = None,
    fetch_rows: int = 3,
    documents: int = 3,
    items_per_document: int = 8,
    depth: int = 1,
    config: SkinnerConfig | None = None,
) -> ChurnReport:
    """Run the interleaved schedule and its serialized replay, compare.

    With ``data_dir`` set, each run gets its own durable catalog under it
    (``interleaved/`` and ``replay/`` subdirectories); ``None`` runs both
    in memory.  The returned report's ``matched`` asserts byte-identical
    canonical rows, identical streamed-row multisets, and identical
    ``metrics.work`` breakdowns and ledger charges per query, result-cache hits
    that match a direct run at their submission point — plus zero leaked
    admission slots in both runs.
    """
    base = config if config is not None else DEFAULT_CONFIG
    # Warm-starting couples a query's charges to its *predecessor's
    # completion*, which is precisely what interleaving changes; the
    # byte-identity contract is defined with it off.
    run_config = base.with_overrides(serving_warm_start=False)
    schedule = build_schedule(steps=steps, seed=seed)
    forest_kwargs = {
        "documents": documents,
        "items_per_document": items_per_document,
        "depth": depth,
    }
    dirs: dict[str, str | None] = {"interleaved": None, "replay": None}
    if data_dir is not None:
        root = Path(data_dir)
        for mode in dirs:
            (root / mode).mkdir(parents=True, exist_ok=True)
            dirs[mode] = str(root / mode)
    runs = {
        mode: _run_schedule(
            schedule, config=run_config, data_dir=dirs[mode],
            forest_seed=seed * 7919, forest_kwargs=forest_kwargs,
            engine=engine, fetch_rows=fetch_rows,
            interleave=(mode == "interleaved"),
        )
        for mode in ("interleaved", "replay")
    }
    queries = sum(1 for op in schedule if op.kind == "query")
    report = ChurnReport(
        steps=len(schedule),
        queries=queries,
        mutations=len(schedule) - queries,
        matched=True,
        invalidations=runs["interleaved"]["invalidations"],
        cache_hits=runs["interleaved"]["cache_hits"],
        interleaved_work=runs["interleaved"]["work_total"],
        replay_work=runs["replay"]["work_total"],
    )
    for mode, run in runs.items():
        if run["inflight"] or run["queued"]:
            report.mismatches.append(
                f"{mode}: leaked admission slots "
                f"(inflight={run['inflight']}, queued={run['queued']})"
            )
        for one in run["observations"]:
            if "direct_rows" in one and one["direct_rows"] != one["rows"]:
                report.mismatches.append(
                    f"{mode}: {one['name']}: a result-cache hit disagrees with a direct run"
                )
    left = runs["interleaved"]["observations"]
    right = runs["replay"]["observations"]
    if len(left) != len(right):
        report.mismatches.append(
            f"query counts differ: {len(left)} vs {len(right)}"
        )
    for one, two in zip(left, right):
        entry = {
            "name": one["name"],
            "rows": len(one["rows"]),
            "work": one["work"],
        }
        report.per_query.append(entry)
        if one["rows"] != two["rows"]:
            report.mismatches.append(f"{one['name']}: canonical rows differ")
        if sorted(one["streamed"]) != sorted(two["streamed"]):
            report.mismatches.append(f"{one['name']}: streamed rows differ")
        if sorted(one["streamed"]) != sorted(one["rows"]):
            report.mismatches.append(
                f"{one['name']}: streamed rows disagree with the result"
            )
        if one["breakdown"] != two["breakdown"]:
            report.mismatches.append(
                f"{one['name']}: work {one['breakdown']} vs {two['breakdown']}"
            )
        if one["work"] != two["work"]:
            report.mismatches.append(
                f"{one['name']}: ledger charge {one['work']} vs {two['work']}"
            )
    report.matched = not report.mismatches
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Interleave document churn with streamed queries and "
                    "compare against a serialized replay."
    )
    parser.add_argument("--steps", type=int, default=24)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--engine", default="skinner-c")
    parser.add_argument("--data-dir", default=None,
                        help="durable catalog root (omit to run in memory)")
    parser.add_argument("--fetch-rows", type=int, default=3)
    args = parser.parse_args(argv)
    report = run_churn(
        steps=args.steps, seed=args.seed, engine=args.engine,
        data_dir=args.data_dir, fetch_rows=args.fetch_rows,
    )
    print(report.summary())
    return 0 if report.matched else 1


if __name__ == "__main__":  # pragma: no cover - CI entry point
    raise SystemExit(main())
