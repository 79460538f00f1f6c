"""Where a learned Skinner-C statement's time goes, beside its forced run.

    python benchmarks/statement_path.py                      # 5 repetitions of 10 passes
    python benchmarks/statement_path.py --passes 1 --repetitions 1 --warm 1   # smallest

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

The last lines are the medians over the repetitions.  The timers cost a
few microseconds a statement, the same on any commit that has the four
names, so two commits compare; wall time drifts on a shared machine, so
compare runs made back to back, alternating.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from e2e.workloads import JobSizes  # noqa: E402
from repro.api import connect  # noqa: E402
from repro.config import SkinnerConfig  # noqa: E402
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
}
COLUMNS = ("learned", "forced", "learned/forced", "join", "forced join", "non-join",
           "setup", "slices", "complete", "glue")


def install_timers() -> dict[str, float]:
    """Wrap each :data:`TIMED` method in an inclusive timer; seconds by part."""
    seconds = dict.fromkeys(TIMED, 0.0)
    for part, (owner, name) in TIMED.items():
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
    args = parser.parse_args(argv)

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

    seconds = install_timers()

    def timed(run) -> tuple[float, dict[str, float]]:
        for part in seconds:
            seconds[part] = 0.0
        started = time.perf_counter()
        for _ in range(args.passes):
            run()
        elapsed = time.perf_counter() - started
        return elapsed, dict(seconds)

    rows = []
    print(f"{len(statements)} statements a pass, {args.passes} passes a repetition; "
          "ms per pass")
    print(" ".join(f"{column:>14}" for column in COLUMNS))
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
        row = [value * 1000 / args.passes if value is not None else learned / forced
               for value in row]
        rows.append(row)
        print(" ".join(f"{value:14.3f}" for value in row))
    print("median:")
    print(" ".join(f"{statistics.median(column):14.3f}" for column in zip(*rows)))
    cursor.close()
    conn.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
