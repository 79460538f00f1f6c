"""The four closed-loop workloads and their frozen sizes.

A workload is a fixed sequence of *steps* — one pass — replayed until the
measuring window closes.  A step is one read, several reads kept in flight
together, or one write.  Every read goes through the public PEP 249
surface: ``repro.api.connect()`` → ``Cursor.execute`` → ``fetchmany``.

One :class:`Workload` object is one *set-up*: generated data, loaded
tables, open connection, one untimed warm-up pass.  The runner sets a
workload up several times per run (set-up time is a metric), measures on
the last one, and closes each in ``finally``.
"""

from __future__ import annotations

import copy
import itertools
import shutil
import socket
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro.api import connect
from repro.config import SkinnerConfig
from repro.docstore import shred
from repro.docstore.axes import axis_query
from repro.docstore.shred import DocNode
from repro.docstore.workload import _query_pool, build_forest, random_item
from repro.net.server import ServerThread
from repro.storage.table import Table
from repro.workloads.generators import make_rng, uniform_keys
from repro.workloads.job import make_job_workload
from repro.workloads.tpch import make_tpch_workload

from e2e.timing import Stopwatch
from e2e.trace import Tracer

#: Rows of the first fetch (time to first row) and of every later one.
FIRST_FETCH_ROWS = 256
NEXT_FETCH_ROWS = 4096

#: Statement ids the tracer sees outside timed statements.
SETUP_STATEMENT = -1
VERIFY_STATEMENT = -2

_HASH_MASK = (1 << 64) - 1


# ----------------------------------------------------------------------
# steps and what running them yields
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Read:
    """One read statement of the mix; ``slot`` names it in the output."""

    slot: str
    sql: str
    engine: str
    use_result_cache: bool = False


@dataclass(frozen=True)
class Write:
    """One document-forest mutation, committed as a table replace."""

    kind: str  # insert | update | delete
    pick: float  # which candidate node, as a share of the candidates
    subtree: DocNode | None = None
    text: str = ""


@dataclass(frozen=True)
class Step:
    reads: tuple[Read, ...] = ()
    write: Write | None = None


@dataclass
class StatementRecord:
    slot: str
    engine: str
    raw_s: float = 0.0
    first_row_raw_s: float = 0.0
    rows: int = 0
    error: str | None = None  # why the statement counts as failed
    #: The rows themselves, dropped once the oracle has seen them.
    fetched: list[tuple] = field(default_factory=list, repr=False)


@dataclass
class StepRecord:
    raw_s: float
    scale: float
    statement_id: int
    statements: list[StatementRecord] = field(default_factory=list)


def fingerprint(rows: list[tuple]) -> tuple[int, int]:
    """Order-free digest of a row multiset (hash salts are per process,
    and so is every comparison made with this)."""
    if any(value != value for row in rows for value in row):
        # A NaN hashes by identity: an empty MIN() would never match itself.
        rows = [tuple(None if value != value else value for value in row) for row in rows]
    return len(rows), sum(map(hash, rows)) & _HASH_MASK


class Scratch:
    """Everything a run must leave clean: temp files, servers, handles."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.servers: list[ServerThread] = []
        self.connections: list[Any] = []
        self.cursors: list[Any] = []

    def leaks(self) -> list[str]:
        """What is still there that should not be (empty when clean)."""
        found = [f"temp path {path}" for path in sorted(self.root.rglob("*"))]
        found += [f"socket {server.dsn} still listening" for server in self.servers
                  if _accepts(server.server.host, server.server.port)]
        found += [f"open cursor {c!r}" for c in self.cursors if not c.closed]
        found += [f"open connection {c!r}" for c in self.connections if not c.closed]
        return found


def _accepts(host: str, port: int) -> bool:
    try:
        socket.create_connection((host, port), timeout=0.5).close()
    except OSError:
        return False
    return True


# ----------------------------------------------------------------------
# the workload base: pass runner, oracle, lifecycle
# ----------------------------------------------------------------------
class Workload:
    """One set-up of one workload.  Subclasses fill in the data and steps."""

    name = ""
    #: Steps that stay together when the seed picks where the cycle is entered.
    steps_per_unit = 1

    def __init__(self, sizes: Any, seed: int, scratch: Scratch) -> None:
        self.sizes = sizes
        self.seed = seed
        self.scratch = scratch
        self.conn: Any = None
        self.steps: list[Step] = []
        #: Yardstick-scaled seconds of each set-up phase, in order.
        self.phases: dict[str, float] = {}
        self.expected: dict[str, tuple[int, int]] = {}
        self._cursors: list[Any] = []
        self._statement_ids = itertools.count()

    # -- lifecycle -------------------------------------------------------
    def setup(self, stopwatch: Stopwatch, tracer: Tracer | None = None) -> float:
        """Build everything up to the first timed statement; scaled seconds."""
        for phase, call in self._setup_phases():
            _, raw, scale = stopwatch.time(call)
            self.phases[phase] = raw * scale
        warm = self.run_pass(stopwatch, tracer, verify=False, statement_id=SETUP_STATEMENT)
        self.phases["warm_up_pass"] = sum(step.raw_s * step.scale for step in warm)
        self.steps = _rotated(self.steps, self.seed, self.steps_per_unit)
        return sum(self.phases.values())

    def _setup_phases(self):
        raise NotImplementedError

    def close(self) -> None:
        for cursor in self._cursors:
            cursor.close()
        if self.conn is not None:
            self.conn.close()

    def _load_generated(self, generated: Any) -> None:
        """Open an in-memory connection on a generated workload's tables."""
        self.conn = self._open(SkinnerConfig())
        for table_name in generated.catalog.table_names():
            self.conn.add_table(generated.catalog.table(table_name))
        self.conn.commit()

    def _open(self, target: SkinnerConfig | str, **kwargs) -> Any:
        conn = connect(target, **kwargs)
        self.scratch.connections.append(conn)
        return conn

    def _cursor(self, index: int) -> Any:
        while len(self._cursors) <= index:
            cursor = self.conn.cursor()
            self._cursors.append(cursor)
            self.scratch.cursors.append(cursor)
        return self._cursors[index]

    # -- oracle ----------------------------------------------------------
    def oracle_connection(self) -> Any:
        """An in-process connection holding the same data (default: ours)."""
        return self.conn

    def build_oracle(self) -> None:
        """Expected row multiset per read slot, from engine ``traditional``
        on an in-process connection — it shares no join code with Skinner-C."""
        conn = self.oracle_connection()
        cursor = conn.cursor()
        try:
            for step in self.steps:
                for read in step.reads:
                    if read.sql not in self.expected:
                        cursor.execute(read.sql, engine="traditional", use_result_cache=False)
                        self.expected[read.sql] = fingerprint(cursor.fetchall())
        finally:
            cursor.close()

    def verify(self, read: Read, rows: list[tuple], pass_index: int) -> str | None:
        """``None`` when ``rows`` is the expected multiset, else the reason."""
        expected = self.expected.get(read.sql)
        if expected is None:
            return None  # set-up warm-up: the oracle does not exist yet
        got = fingerprint(rows)
        if got != expected:
            return f"{read.slot}: got {got[0]} rows, oracle has {expected[0]} (or other values)"
        return None

    # -- running ---------------------------------------------------------
    def run_pass(
        self,
        stopwatch: Stopwatch,
        tracer: Tracer | None = None,
        *,
        verify: bool = True,
        pass_index: int = 0,
        statement_id: int | None = None,
        inspect: Any = None,
    ) -> list[StepRecord]:
        """Replay the step sequence once; one record per step.

        ``inspect(read, cursor, scaled_seconds)`` is called, untimed, for
        each finished read while its cursor still holds the result.
        """
        records = []
        for step in self.steps:
            current = next(self._statement_ids) if statement_id is None else statement_id
            if tracer is not None:
                tracer.statement_id = current
            outcome, raw, scale = stopwatch.time(lambda: self._run_step(step, tracer))
            record = StepRecord(raw, scale, current, outcome)
            if tracer is not None:
                tracer.statement_id = VERIFY_STATEMENT
            if verify:
                for read, statement in zip(step.reads, outcome):
                    if statement.error is None:
                        statement.error = self.verify(read, statement.fetched, pass_index)
            for index, (read, statement) in enumerate(zip(step.reads, outcome)):
                statement.fetched = []
                if inspect is not None and statement.error is None:
                    inspect(read, self._cursor(index), statement.raw_s * scale)
            records.append(record)
        return records

    def _run_step(self, step: Step, tracer: Tracer | None) -> list[StatementRecord]:
        span = tracer.open("bench.statement") if tracer is not None else None
        try:
            if step.write is not None:
                self.apply_write(step.write)
                return []
            return self._run_reads(step.reads)
        finally:
            if span is not None:
                tracer.close(span)

    def _run_reads(self, reads: tuple[Read, ...]) -> list[StatementRecord]:
        """Execute every read, then drain the cursors in turn.

        A statement's latency runs from its own ``execute`` to its own last
        row, so with two in flight each includes the share of the other's
        episodes the scheduler interleaved.  A statement that raises is a
        failed statement, not a failed run.
        """
        records = [StatementRecord(read.slot, read.engine) for read in reads]
        started = [0.0] * len(reads)
        fetched: list[list[tuple]] = [[] for _ in reads]
        live = []
        for index, read in enumerate(reads):
            cursor = self._cursor(index)
            started[index] = time.perf_counter()
            try:
                cursor.execute(read.sql, engine=read.engine,
                               use_result_cache=read.use_result_cache)
                live.append(index)
            except Exception as error:  # noqa: BLE001 - counted, not fatal
                records[index].error = f"{read.slot}: {type(error).__name__}: {error}"
        size = FIRST_FETCH_ROWS
        while live:
            for index in list(live):
                try:
                    batch = self._cursor(index).fetchmany(size)
                except Exception as error:  # noqa: BLE001 - counted, not fatal
                    records[index].error = (
                        f"{reads[index].slot}: {type(error).__name__}: {error}")
                    batch = []
                now = time.perf_counter() - started[index]
                if size == FIRST_FETCH_ROWS:
                    records[index].first_row_raw_s = now
                if batch:
                    fetched[index].extend(batch)
                else:
                    records[index].raw_s = now
                    live.remove(index)
            size = NEXT_FETCH_ROWS
        for record, rows in zip(records, fetched):
            record.rows = len(rows)
            record.fetched = rows
        return records

    def apply_write(self, write: Write) -> None:
        raise NotImplementedError(f"{self.name} has no writes")

    # -- what the traced run reads off the instance -----------------------
    def server_stats(self) -> dict[str, Any]:
        return self.conn.stats()

    def storage_counters(self) -> dict[str, float]:
        return {}

    def local_twin(self) -> "Workload | None":
        """The same steps without the wire, where there is a wire."""
        return None


def _rotated(steps: list[Step], seed: int, unit: int = 1) -> list[Step]:
    """The cycle of ``steps`` entered at a seed-chosen unit.

    Passes repeat back to back, so every seed replays the same cycle and
    only the phase differs; the warm-up pass runs before this, in the
    written order, so the learning every seed starts from is the same.  A
    seeded *shuffle* would not do: the serving layer warm-starts each
    query's UCT tree from the last query with the same join graph, so the
    neighbours decide what is learned — measured, a shuffle moved the
    remote workload's throughput by 40 % between seeds.
    """
    start = seed % (len(steps) // unit) * unit
    return steps[start:] + steps[:start]


# ----------------------------------------------------------------------
# 1. join-order learning, in process
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobSizes:
    scale: float = 1.5
    #: Frozen, like every workload's: the generators' skew makes one seed's
    #: pass 20x another's here (0.46 s to 10 s at this scale), and the
    #: benchmark must read the same on every seed.  ``--seed`` only picks
    #: where the statement cycle is entered.
    data_seed: int = 29


class JobLearnLocal(Workload):
    """The 20 JOB-analogue ``COUNT(*)`` joins on Skinner-C: learning and joining."""

    name = "job_learn_local"

    def _setup_phases(self):
        def generate():
            self._generated = make_job_workload(self.sizes.scale, self.sizes.data_seed)

        def load():
            self._load_generated(self._generated)
            self.steps = [Step((Read(q.name, q.query.display(), "skinner-c"),))
                          for q in self._generated.queries]

        return [("generate", generate), ("load_commit", load)]


# ----------------------------------------------------------------------
# 2. existing-DBMS strategies, in process
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TpchSizes:
    scale: float = 12.0
    data_seed: int = 29
    engines: tuple[str, ...] = ("traditional", "skinner-h", "skinner-g", "skinner_h_sqlite")


class TpchHybridLocal(Workload):
    """The 10 TPC-H analogues on each existing-DBMS strategy: the multiway
    join is bypassed; optimizer, plan executor and sqlite adapter work."""

    name = "tpch_hybrid_local"

    def _setup_phases(self):
        def generate():
            self._generated = make_tpch_workload(self.sizes.scale, self.sizes.data_seed)

        def load():
            self._load_generated(self._generated)
            self.steps = [Step((Read(f"{engine}:{q.name}", q.query.display(), engine),))
                          for engine in self.sizes.engines for q in self._generated.queries]

        return [("generate", generate), ("load_commit", load)]


# ----------------------------------------------------------------------
# 3. result delivery over the wire
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WideSizes:
    fact_rows: int = 9000
    data_seed: int = 7
    #: ``v`` is uniform on [0, 1000): each shape runs at four cut-offs, so
    #: result widths climb from 8 rows to tens of thousands without a gap.
    scan_below: tuple[int, ...] = (100, 200, 400, 800)
    join_below: tuple[int, ...] = (250, 500, 750, 1000)
    ordered_below: tuple[int, ...] = (30, 60, 120, 240)
    grouped_below: tuple[int, ...] = (250, 500, 750, 1000)
    fanout_below: tuple[int, ...] = (10, 20, 40, 80)

_WIDE_ENGINE = "skinner-c"


def wide_statements(sizes: WideSizes) -> list[Read]:
    """Five shapes at four widths each: a filtered scan, a 2-way projection
    join, a join with ORDER BY, a GROUP BY aggregate, a 3-way fan-out join."""
    shapes = (
        ("filtered_scan", sizes.scan_below,
         "SELECT f.k, f.g, f.v FROM fact f WHERE f.v < {cut}"),
        ("projection_join", sizes.join_below,
         "SELECT f.v, h.v FROM fact f, fact2 h WHERE f.k = h.k AND f.v < {cut}"),
        ("ordered_join", sizes.ordered_below,
         "SELECT f.k, f.v, h.v FROM fact f, fact2 h "
         "WHERE f.k = h.k AND f.v < {cut} ORDER BY f.v, h.v, f.k"),
        ("group_by", sizes.grouped_below,
         "SELECT f.g, COUNT(*) AS n, SUM(f.v) AS total FROM fact f "
         "WHERE f.v < {cut} GROUP BY f.g"),
        ("fanout_join", sizes.fanout_below,
         "SELECT f.v, h.v, d.name FROM fact f, fact2 h, dim d "
         "WHERE f.k = h.k AND f.g = d.g AND f.v < {cut}"),
    )
    return [Read(f"{shape}_{cut}", sql.format(cut=cut), _WIDE_ENGINE)
            for shape, cuts, sql in shapes for cut in cuts]


def wide_columns(fact_rows: int, seed: int) -> dict[str, dict[str, list]]:
    """Two joinable fact tables (~3x fan-out per key) and a small dimension,
    shaped like ``bench/experiments_server``'s tables."""
    rng = make_rng(seed)
    keys = max(1, fact_rows // 3)
    columns: dict[str, dict[str, list]] = {}
    for table_name in ("fact", "fact2"):
        columns[table_name] = {
            "k": uniform_keys(rng, fact_rows, keys).tolist(),
            "g": uniform_keys(rng, fact_rows, 8).tolist(),
            "v": uniform_keys(rng, fact_rows, 1000).tolist(),
        }
    dim_rows = max(8, fact_rows // 50)
    # Every group keeps the same number of dimension rows: an even fan-out.
    groups = [row % 8 for row in range(dim_rows)]
    columns["dim"] = {"g": groups, "name": [f"g{g}-{row}" for row, g in enumerate(groups)]}
    return columns


class WideStreamRemote(Workload):
    """Results of 8 to tens of thousands of rows over a ``repro://`` DSN to
    an in-process :class:`ServerThread`: delivery, framing, the socket."""

    name = "wide_stream_remote"

    def __init__(self, sizes: Any, seed: int, scratch: Scratch) -> None:
        super().__init__(sizes, seed, scratch)
        self.server: ServerThread | None = None
        self._local: Any = None

    def _setup_phases(self):
        def generate():
            self._columns = wide_columns(self.sizes.fact_rows, self.sizes.data_seed)

        def serve_and_connect():
            self.server = ServerThread(config=SkinnerConfig()).start()
            self.scratch.servers.append(self.server)
            self.scratch.connections.append(self.server.connection)
            self.conn = self._open(self.server.dsn, timeout=60.0)

        def load():
            for table_name, data in self._columns.items():
                self.conn.create_table(table_name, data)
            self.conn.commit()
            self.steps = [Step((read,)) for read in wide_statements(self.sizes)]

        return [("generate", generate), ("serve_connect", serve_and_connect),
                ("load_commit", load)]

    def oracle_connection(self) -> Any:
        """A second, in-process copy of the tables: the oracle's engine runs
        here, and the traced run times the same statements here for the hop tax."""
        if self._local is None:
            self._local = self._open(SkinnerConfig())
            for table_name, data in self._columns.items():
                self._local.create_table(table_name, data)
            self._local.commit()
        return self._local

    def local_twin(self) -> "Workload":
        """The same steps against the in-process copy (hop-tax reference)."""
        twin = Workload(self.sizes, self.seed, self.scratch)
        twin.name = self.name + "/local"
        twin.conn = self.oracle_connection()
        twin.steps = self.steps
        twin.expected = self.expected
        return twin

    def close(self) -> None:
        try:
            super().close()
            if self._local is not None:
                self._local.close()
        finally:
            if self.server is not None:
                self.server.stop()
                self.server.connection.close()


# ----------------------------------------------------------------------
# 4. reads beside writes on durable storage
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DocSizes:
    documents: int = 8
    items_per_document: int = 24
    depth: int = 2
    data_seed: int = 7
    #: Smaller than the node table's columns, so reads evict.
    buffer_pool_bytes: int = 128 * 1024
    #: In each of the first ``recheck_passes`` passes one read in
    #: ``recheck_every`` is re-run on ``traditional`` at the same epoch, a
    #: different one each pass: 16 fixed slots that cover all eight
    #: statements and four of the cache hits.  The same re-runs in every
    #: run, because ``traditional`` is slow and large on some of these
    #: statements and the oracle's footprint must not move ``peak_rss_mb``
    #: or the pass count between runs.
    recheck_every: int = 10
    recheck_passes: int = 4

_DOC_TABLE = "doc_nodes"


class DocChurnDurable(Workload):
    """XPath-axis self-joins with the result cache on, two cursors in flight
    and a subtree write every five reads, on a durable ``data_dir`` whose
    buffer pool is smaller than the data."""

    name = "doc_churn_durable"
    steps_per_unit = 4  # a window: pair, pair, single read, write

    def __init__(self, sizes: Any, seed: int, scratch: Scratch) -> None:
        super().__init__(sizes, seed, scratch)
        self.data_dir = scratch.root / f"repro-bench-data-{id(self):x}"
        self._forest: list[DocNode] = []
        self._read_index: dict[str, int] = {}
        self._user_bytes_written = 0
        self._wal_bytes = 0
        self._live_user_bytes = 0

    def _config(self) -> SkinnerConfig:
        return SkinnerConfig(data_dir=str(self.data_dir),
                             buffer_pool_bytes=self.sizes.buffer_pool_bytes)

    def _setup_phases(self):
        def generate():
            self._forest = build_forest(
                documents=self.sizes.documents,
                items_per_document=self.sizes.items_per_document,
                depth=self.sizes.depth, seed=self.sizes.data_seed)
            self.steps = self._schedule()

        def load():
            self.conn = self._open(self._config())
            self._replace_table()

        def reopen():
            self.conn.close()
            self.conn = self._open(self._config())

        return [("generate", generate), ("load_commit", load), ("reopen", reopen)]

    def _schedule(self) -> list[Step]:
        """One window of five reads and a write per pool statement.

        Window ``w`` reads statement ``w`` and its three successors once
        each, then statement ``w`` again — the one result-cache hit of the
        window — as (pair, pair, single), then writes, which invalidates
        the cache.  So every statement is read five times a pass and hits
        once.  Which nodes the writes touch is drawn from the frozen data
        seed: what is learned after each invalidation depends on the forest,
        so seeded writes moved the tail by 40 % between seeds.  The seed
        picks, like everywhere, the window the cycle is entered at.
        """
        rng = make_rng(self.sizes.data_seed)
        pool = [Read(stem, axis_query(_DOC_TABLE, steps), "skinner-c", use_result_cache=True)
                for stem, _, steps in _query_pool(_DOC_TABLE)]
        steps: list[Step] = []
        for window in range(len(pool)):
            first, *others = (pool[(window + offset) % len(pool)] for offset in range(4))
            reads = [replace(read, slot=f"w{window}{tag}_{read.slot}")
                     for tag, read in zip("abcde", (first, others[0], others[1], first,
                                                    others[2]))]
            kind = ("insert", "update", "delete")[window % 3]
            write = Write(
                kind=kind, pick=float(rng.random()),
                subtree=random_item(rng, depth=1, sellers=40) if kind == "insert" else None,
                text=f"{int(rng.integers(1, 6))}")
            steps += [Step((reads[0], reads[1])), Step((reads[2], reads[3])),
                      Step((reads[4],)), Step(write=write)]
            self._read_index.update(
                {read.slot: window * 5 + position for position, read in enumerate(reads)})
        return steps

    def build_oracle(self) -> None:
        """No table of answers here — the data changes under the reads.
        :meth:`verify` re-runs reads on ``traditional`` instead."""
        self.expected = {"": (0, 0)}  # non-empty: verification is on

    def verify(self, read: Read, rows: list[tuple], pass_index: int) -> str | None:
        due = (pass_index < self.sizes.recheck_passes
               and self._read_index[read.slot] % self.sizes.recheck_every == pass_index)
        if not self.expected or not due:
            return None
        cursor = self._cursor(2)
        cursor.execute(read.sql, engine="traditional", use_result_cache=False)
        expected = fingerprint(cursor.fetchall())
        got = fingerprint(rows)
        if got != expected:
            return f"{read.slot}: got {got[0]} rows, traditional has {expected[0]} at this epoch"
        return None

    def apply_write(self, write: Write) -> None:
        """Edit the forest, re-shred it, replace the table, commit."""
        nodes = [node for root in self._forest for node in root.walk()]
        if write.kind == "insert":
            regions = [node for node in nodes if node.tag == "region"]
            regions[int(write.pick * len(regions))].children.append(
                copy.deepcopy(write.subtree))
        elif write.kind == "update":
            ratings = [node for node in nodes if node.tag == "rating"]
            node = ratings[int(write.pick * len(ratings))]
            node.text, node.number = write.text, float(write.text)
        else:
            regions = [node for node in nodes if node.tag == "region"]
            owners = [(region, child) for region in regions
                      for child in region.children if child.tag == "item"]
            region, item = owners[int(write.pick * len(owners))]
            region.children.remove(item)
        self._replace_table()

    def _replace_table(self) -> None:
        # Through the module, so the traced run's shim is the one called.
        table = Table(_DOC_TABLE, shred.shred_nodes(self._forest))
        wal = self.data_dir / "wal.log"
        before = wal.stat().st_size if wal.exists() else 0
        self.conn.add_table(table, replace=True)
        self.conn.commit()
        after = wal.stat().st_size if wal.exists() else 0
        self._live_user_bytes = sum(
            table.column(column).data.nbytes for column in table.column_names)
        self._user_bytes_written += self._live_user_bytes
        # A checkpoint empties the log: then all of ``after`` is new.
        self._wal_bytes += after - before if after >= before else after

    def storage_counters(self) -> dict[str, float]:
        pool = self.conn.catalog.buffer_manager.cache_stats()
        disk = sum(path.stat().st_size for path in self.data_dir.rglob("*") if path.is_file())
        return {
            "pool_hits": pool["hits"], "pool_misses": pool["misses"],
            "pool_evictions": pool["evictions"],
            "wal_bytes": self._wal_bytes, "user_bytes_written": self._user_bytes_written,
            "disk_bytes": disk, "live_user_bytes": self._live_user_bytes,
        }

    def close(self) -> None:
        try:
            super().close()
        finally:
            shutil.rmtree(self.data_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# registry: committed sizes and the self-test's tiny ones
# ----------------------------------------------------------------------
WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (JobLearnLocal, TpchHybridLocal, WideStreamRemote, DocChurnDurable)
}

SIZES: dict[str, dict[str, Any]] = {
    "full": {
        "job_learn_local": JobSizes(),
        "tpch_hybrid_local": TpchSizes(),
        "wide_stream_remote": WideSizes(),
        "doc_churn_durable": DocSizes(),
    },
    # Under 2 s each, for the self-test only.
    "tiny": {
        "job_learn_local": JobSizes(scale=0.3),
        "tpch_hybrid_local": TpchSizes(scale=0.5),
        "wide_stream_remote": WideSizes(fact_rows=300),
        "doc_churn_durable": DocSizes(documents=2, items_per_document=6, depth=1,
                                      buffer_pool_bytes=8 * 1024, recheck_every=2,
                                      recheck_passes=2),
    },
}
