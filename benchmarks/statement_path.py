"""Where a learned Skinner-C statement's time goes, beside its forced run.

    python benchmarks/statement_path.py                      # 5 repetitions of 10 passes
    python benchmarks/statement_path.py --passes 1 --repetitions 1 --warm 1   # smallest
    python benchmarks/statement_path.py --stream             # streamed statements instead
    python benchmarks/statement_path.py --stream --remote    # ... over repro:// too
    python benchmarks/statement_path.py --churn              # reads beside writes

On ``job_learn_local``'s data and statements (``benchmarks/e2e``'s frozen
``JobSizes``), one in-memory connection runs the 20 statements round-robin
through the cursor, ``use_result_cache=False``, as the benchmark does.
After ``--warm`` untimed passes every statement's settled order is read
off its metrics.  Each repetition then times ``--passes`` learned passes
and as many forced ones — ``SkinnerC.execute_with_order`` on those orders
— in alternating order, and prints per pass:

* ``learned``: the statements through the cursor, execute to last fetch;
* ``forced``: the forced runs, and ``learned/forced``;
* ``join``: seconds inside ``MultiwayJoin.continue_join`` in the learned
  pass (``forced join``: in the forced one);
* the learned pass's non-join time in four parts, from inclusive timers:
  ``setup`` (``QueryServer.submit``, task set-up included), ``slices``
  (``SkinnerCTask._slice`` less its join), ``complete``
  (``QueryServer._complete``) and ``glue`` (the rest: cursor, transport,
  scheduler steps, accounting, stream buffer).

``--stream`` times ``wide_stream_remote``'s statements instead
(``benchmarks/e2e``'s ``wide_statements(WideSizes())``, fetched 256 rows
first and 4096 at a time after) on one in-memory connection, and prints per
pass:

* ``pass``: the statements through the cursor, execute to last fetch;
* ``join``: seconds inside ``MultiwayJoin.continue_join``;
* ``stream``: projecting each grant's new rows into the stream buffer
  (``QueryServer._pump_stream``);
* ``complete``: ``QueryServer._complete`` — a blocking statement's
  post-processing, and a streamed one's output charge (its table is left
  for whoever reads it);
* ``glue``: the rest — cursor, transport, task set-up, slices less their
  join, the scheduler's grant loop.

``--stream --remote`` runs the same statements over ``repro://`` to an
in-process :class:`~repro.net.server.ServerThread`, as ``wide_stream_remote``
does, and on an in-process connection, alternating, and prints per pass:

* ``remote``: the statements over ``repro://``, execute to last fetch;
* ``local``: the same statements in process;
* ``exchanges``: request/response exchanges the remote pass made;
* ``one-exchange``: statements that took exactly one exchange;
* ``us/exchange``: ``(remote - local) / exchanges`` in microseconds — what
  one hop costs, a figure that does not move when work is taken out of
  the statements (the ratio ``net.hop_tax_share`` does).

``--churn`` replays ``doc_churn_durable``'s steps (``benchmarks/e2e``'s
``DocChurnDurable`` at its frozen ``DocSizes``: XPath-axis self-joins with
the result cache on and a subtree write every five reads, on a durable
``data_dir`` in a temporary directory) on one connection, one read at a
time through one cursor, and prints per pass:

* ``reads``: the read statements, execute to last fetch;
* ``writes``: the writes (edit the forest, re-shred it, replace the table,
  commit);
* ``slices``: Skinner-C time slices of the reads that ran (a result-cache
  hit runs none and is counted nowhere below);
* ``fresh`` / ``stale`` / ``missed``: reads whose task started from priors
  learned on the current tables, from priors the tables moved under (a
  hint), or from none (``metrics.extra["warm_start"]``).

The last lines are the medians over the repetitions.  The timers cost a
few microseconds a statement, the same on any commit that has the timed
names, so two commits compare; wall time drifts on a shared machine, so
compare runs made back to back, alternating.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from e2e.workloads import (  # noqa: E402
    FIRST_FETCH_ROWS, NEXT_FETCH_ROWS, DocChurnDurable, DocSizes, JobSizes, Scratch, WideSizes,
    wide_columns, wide_statements)
from repro.api import connect  # noqa: E402
from repro.config import SkinnerConfig  # noqa: E402
from repro.net.server import ServerThread  # noqa: E402
from repro.serving.server import QueryServer  # noqa: E402
from repro.skinner.multiway_join import MultiwayJoin  # noqa: E402
from repro.skinner.skinner_c import SkinnerC, SkinnerCTask  # noqa: E402
from repro.workloads.job import make_job_workload  # noqa: E402

#: Timed parts: name -> (class, method).
TIMED = {
    "setup": (QueryServer, "submit"),
    "slice": (SkinnerCTask, "_slice"),
    "join": (MultiwayJoin, "continue_join"),
    "complete": (QueryServer, "_complete"),
    "stream": (QueryServer, "_pump_stream"),
}
COLUMNS = ("learned", "forced", "learned/forced", "join", "forced join", "non-join",
           "setup", "slices", "complete", "glue")
STREAM_COLUMNS = ("pass", "join", "stream", "complete", "glue")
REMOTE_COLUMNS = ("remote", "local", "exchanges", "one-exchange", "us/exchange")
CHURN_COLUMNS = ("reads", "writes", "slices", "fresh", "stale", "missed")


def install_timers(parts: tuple[str, ...]) -> dict[str, float]:
    """Wrap each of ``parts``' :data:`TIMED` methods in an inclusive timer;
    seconds by part."""
    seconds = dict.fromkeys(parts, 0.0)
    for part in parts:
        owner, name = TIMED[part]
        original = getattr(owner, name)

        def timed(*args, _original=original, _part=part, **kwargs):
            started = time.perf_counter()
            try:
                return _original(*args, **kwargs)
            finally:
                seconds[_part] += time.perf_counter() - started

        setattr(owner, name, timed)
    return seconds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=10, help="passes a repetition times")
    parser.add_argument("--repetitions", type=int, default=5)
    parser.add_argument("--warm", type=int, default=8, help="untimed passes first")
    parser.add_argument("--stream", action="store_true",
                        help="time wide_stream_remote's statements, streamed")
    parser.add_argument("--remote", action="store_true",
                        help="with --stream: over repro:// beside in process, per exchange")
    parser.add_argument("--churn", action="store_true",
                        help="replay doc_churn_durable's reads and writes instead")
    args = parser.parse_args(argv)
    if args.remote and not args.stream:
        parser.error("--remote needs --stream")
    if args.churn and args.stream:
        parser.error("--churn and --stream are two modes")
    if args.churn:
        return churn_main(args)
    if args.remote:
        return remote_main(args)
    return stream_main(args) if args.stream else learned_main(args)


def print_rows(rows: list[list[float]], columns: tuple[str, ...], row: list[float]) -> None:
    """Print ``row`` (ms per pass) under ``columns`` and keep it in ``rows``."""
    if not rows:
        print(" ".join(f"{column:>14}" for column in columns))
    rows.append(row)
    print(" ".join(f"{value:14.3f}" for value in row))


def print_medians(rows: list[list[float]]) -> None:
    print("median:")
    print(" ".join(f"{statistics.median(column):14.3f}" for column in zip(*rows)))


def wide_pass(cursor, reads, after_each=None) -> None:
    """The wide statements once through ``cursor``, fetched as the benchmark
    fetches them; ``after_each()`` is called after each statement."""
    for read in reads:
        cursor.execute(read.sql, engine=read.engine, use_result_cache=False)
        size = FIRST_FETCH_ROWS
        while cursor.fetchmany(size):
            size = NEXT_FETCH_ROWS
        if after_each is not None:
            after_each()


def load_wide(conn, sizes: WideSizes) -> None:
    for table_name, data in wide_columns(sizes.fact_rows, sizes.data_seed).items():
        conn.create_table(table_name, data)
    conn.commit()


def stream_main(args: argparse.Namespace) -> int:
    """Per pass of the wide statements: join, stream projection, completion, glue."""
    sizes = WideSizes()
    conn = connect(SkinnerConfig())
    load_wide(conn, sizes)
    reads = wide_statements(sizes)
    cursor = conn.cursor()

    def one_pass() -> None:
        wide_pass(cursor, reads)

    for _ in range(max(1, args.warm)):
        one_pass()
    seconds = install_timers(("join", "stream", "complete"))
    rows: list[list[float]] = []
    print(f"{len(reads)} statements a pass, {args.passes} passes a repetition; ms per pass")
    for _ in range(args.repetitions):
        for part in seconds:
            seconds[part] = 0.0
        started = time.perf_counter()
        for _ in range(args.passes):
            one_pass()
        elapsed = time.perf_counter() - started
        parts = [seconds["join"], seconds["stream"], seconds["complete"]]
        print_rows(rows, STREAM_COLUMNS,
                   [value * 1000 / args.passes for value in (elapsed, *parts,
                                                             elapsed - sum(parts))])
    print_medians(rows)
    cursor.close()
    conn.close()
    return 0


def remote_main(args: argparse.Namespace) -> int:
    """Per pass of the wide statements over repro:// and in process: exchanges
    and what one costs."""
    sizes = WideSizes()
    reads = wide_statements(sizes)
    live = ServerThread(config=SkinnerConfig()).start()
    local = connect(SkinnerConfig())
    remote = None
    try:
        load_wide(live.connection, sizes)
        load_wide(local, sizes)
        remote = connect(live.dsn)
        channel = remote.transport._channel
        request = channel.request
        #: Exchanges of each finished statement, then of the one in flight.
        per_statement = [0]

        def counting(verb, **kwargs):
            per_statement[-1] += 1
            return request(verb, **kwargs)

        channel.request = counting
        remote_cursor, local_cursor = remote.cursor(), local.cursor()
        runs = {"remote": lambda: wide_pass(remote_cursor, reads, lambda: per_statement.append(0)),
                "local": lambda: wide_pass(local_cursor, reads)}
        for _ in range(max(1, args.warm)):
            for run in runs.values():
                run()

        def timed_passes(run) -> float:
            started = time.perf_counter()
            for _ in range(args.passes):
                run()
            return (time.perf_counter() - started) / args.passes

        rows: list[list[float]] = []
        print(f"{len(reads)} statements a pass, {args.passes} passes a repetition; "
              "ms per pass, exchanges and one-exchange statements per pass")
        for repetition in range(args.repetitions):
            per_statement[:] = [0]
            sides = list(runs)[:: 1 if repetition % 2 == 0 else -1]
            seconds = {side: timed_passes(runs[side]) for side in sides}
            counts = per_statement[:-1]
            exchanges = sum(counts) / args.passes
            hop_us = (seconds["remote"] - seconds["local"]) * 1e6 / exchanges
            print_rows(rows, REMOTE_COLUMNS, [seconds["remote"] * 1000, seconds["local"] * 1000,
                                              exchanges, counts.count(1) / args.passes, hop_us])
        print_medians(rows)
        remote_cursor.close()
        local_cursor.close()
    finally:
        if remote is not None:
            remote.close()
        local.close()
        live.stop()
    return 0


def churn_main(args: argparse.Namespace) -> int:
    """Per pass of doc_churn_durable's steps: read and write ms, slices, warm starts."""
    with tempfile.TemporaryDirectory(prefix="repro-churn-") as root:
        workload = DocChurnDurable(DocSizes(), seed=1, scratch=Scratch(Path(root)))
        try:
            for _, phase in workload._setup_phases():
                phase()
            cursor = workload.conn.cursor()

            def one_pass() -> list[float]:
                """reads s, writes s, slices, fresh, stale, missed."""
                totals = [0.0] * len(CHURN_COLUMNS)
                for step in workload.steps:
                    if step.write is not None:
                        started = time.perf_counter()
                        workload.apply_write(step.write)
                        totals[1] += time.perf_counter() - started
                    for read in step.reads:
                        started = time.perf_counter()
                        cursor.execute(read.sql, engine=read.engine,
                                       use_result_cache=read.use_result_cache)
                        while cursor.fetchmany(NEXT_FETCH_ROWS):
                            pass
                        totals[0] += time.perf_counter() - started
                        metrics = cursor.result().metrics
                        if metrics.extra.get("result_cache") != "hit":
                            totals[2] += metrics.time_slices
                            kind = metrics.extra.get("warm_start", "missed")
                            totals[CHURN_COLUMNS.index(kind)] += 1
                return totals

            for _ in range(max(1, args.warm)):
                one_pass()
            rows: list[list[float]] = []
            print(f"{sum(len(step.reads) for step in workload.steps)} reads and "
                  f"{sum(step.write is not None for step in workload.steps)} writes a pass, "
                  f"{args.passes} passes a repetition; ms and counts per pass")
            for _ in range(args.repetitions):
                passes = [one_pass() for _ in range(args.passes)]
                reads, writes, *counts = (sum(column) / args.passes for column in zip(*passes))
                print_rows(rows, CHURN_COLUMNS, [reads * 1000, writes * 1000, *counts])
            print_medians(rows)
            cursor.close()
        finally:
            workload.close()
    return 0


def learned_main(args: argparse.Namespace) -> int:
    """Per pass of job_learn_local's statements, learned and forced."""
    sizes = JobSizes()
    generated = make_job_workload(sizes.scale, sizes.data_seed)
    conn = connect(SkinnerConfig())
    for table_name in generated.catalog.table_names():
        conn.add_table(generated.catalog.table(table_name))
    conn.commit()
    statements = [q.query.display() for q in generated.queries]
    cursor = conn.cursor()

    def learned_pass() -> None:
        for sql in statements:
            cursor.execute(sql, engine="skinner-c", use_result_cache=False)
            while cursor.fetchmany(4096):
                pass

    for _ in range(max(1, args.warm)):
        learned_pass()
    orders = []
    for sql in statements:
        cursor.execute(sql, engine="skinner-c", use_result_cache=False)
        orders.append((conn.parse(sql), cursor.result().metrics.final_join_order))
    engine = SkinnerC(conn.catalog, conn.udfs, conn.config)

    def forced_pass() -> None:
        for query, order in orders:
            engine.execute_with_order(query, order)

    seconds = install_timers(("setup", "slice", "join", "complete"))

    def timed(run) -> tuple[float, dict[str, float]]:
        for part in seconds:
            seconds[part] = 0.0
        started = time.perf_counter()
        for _ in range(args.passes):
            run()
        elapsed = time.perf_counter() - started
        return elapsed, dict(seconds)

    rows: list[list[float]] = []
    print(f"{len(statements)} statements a pass, {args.passes} passes a repetition; "
          "ms per pass")
    for repetition in range(args.repetitions):
        runs = [learned_pass, forced_pass][:: 1 if repetition % 2 == 0 else -1]
        results = {run: timed(run) for run in runs}
        learned, parts = results[learned_pass]
        forced, forced_parts = results[forced_pass]
        join = parts["join"]
        slices = parts["slice"] - join
        glue = learned - parts["setup"] - parts["slice"] - parts["complete"]
        row = [learned, forced, None, join, forced_parts["join"], learned - join,
               parts["setup"], slices, parts["complete"], glue]
        print_rows(rows, COLUMNS, [value * 1000 / args.passes if value is not None
                                   else learned / forced for value in row])
    print_medians(rows)
    cursor.close()
    conn.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
