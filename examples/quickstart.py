"""Quickstart: the PEP 249 API — connections, cursors, streaming, engines.

``repro.connect()`` opens a DB-API 2.0 style connection: schema management
with transactions, cursors with parameter binding (``?`` / ``:name``), and
**streaming fetches** — on a streamable engine/query combination,
``fetchmany`` returns first rows while the query is still executing,
because SkinnerDB materializes results incrementally across its learning
episodes.  Every cursor execution is served by the multi-tenant
:class:`repro.QueryServer` (admission control, fair-share scheduling,
result/join-order caches), and engines resolve through a pluggable
registry that third-party code can extend.  Run with::

    python examples/quickstart.py
"""

from repro import connect, register_engine


def main() -> None:
    conn = connect()

    # A tiny movie-rental style schema; commit makes it permanent
    # (rollback() would undo schema changes since the last commit).
    conn.create_table("films", {
        "fid": [1, 2, 3, 4, 5, 6],
        "title": ["heat", "alien", "brazil", "clue", "diva", "eden"],
        "year": [1995, 1979, 1985, 1985, 1981, 1996],
        "genre": ["crime", "scifi", "scifi", "comedy", "crime", "drama"],
    })
    conn.create_table("rentals", {
        "rid": list(range(1, 11)),
        "fid": [1, 1, 2, 3, 3, 3, 4, 5, 6, 6],
        "price": [4, 3, 5, 2, 2, 3, 1, 4, 2, 2],
    })
    conn.create_table("customers", {
        "rid": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        "segment": ["gold", "gold", "silver", "silver", "gold",
                    "bronze", "silver", "gold", "bronze", "gold"],
    })
    conn.commit()

    # -- cursors: execute with bound parameters, fetch incrementally.
    cursor = conn.cursor()
    cursor.execute(
        "SELECT f.genre AS genre, COUNT(*) AS rentals, SUM(r.price) AS revenue "
        "FROM films f, rentals r, customers c "
        "WHERE f.fid = r.fid AND r.rid = c.rid AND c.segment = ? "
        "GROUP BY f.genre ORDER BY f.genre",
        ("gold",),
    )
    print("Gold-segment revenue by genre "
          f"(columns: {[d[0] for d in cursor.description]}):")
    for row in cursor:
        print(f"  {row}")

    # -- streaming: on a plain select-project-join, the first batch arrives
    # strictly before the query completes (watch the session state).  A
    # bigger self-joinable table makes the join run for many episodes.
    import random

    rng = random.Random(7)
    conn.create_table("events", {
        "k": [rng.randrange(600) for _ in range(2000)],
        "v": [rng.randrange(100) for _ in range(2000)],
    })
    conn.commit()
    cursor.execute(
        "SELECT e1.v AS left_v, e2.v AS right_v FROM events e1, events e2 "
        "WHERE e1.k = e2.k AND e1.v < 10",
        use_result_cache=False,
    )
    first = cursor.fetchmany(3)
    status = conn.server.poll(cursor.ticket)
    print(f"\nStreaming: first {len(first)} row(s) fetched while the query "
          f"is {status['state']!r}: {first}")
    rest = cursor.fetchall()
    print(f"  ...then {len(rest)} more row(s); "
          f"charges identical to a non-streamed run.")

    # -- engines are pluggable: anything in the registry is selectable,
    # including engines registered by user code (see docs/api.md) and the
    # external-DBMS backends like "skinner_g_sqlite", which run learned
    # join orders on a real host database (see docs/engines.md and
    # examples/external_engine_quickstart.py).
    cursor.execute(
        "SELECT COUNT(*) AS n FROM films f, rentals r WHERE f.fid = r.fid",
        engine="traditional",
    )
    print(f"\nTraditional baseline agrees: COUNT(*) = {cursor.fetchone()[0]}")
    print("Registered engines:", ", ".join(conn.registry.names()))
    assert callable(register_engine)  # third-party entry point (docs/api.md)

    # -- no cursor needed for a whole result with its metrics.
    result = conn.execute("SELECT COUNT(*) AS n FROM films f WHERE f.year > ?",
                          params=(1985,))
    print(f"\nWhole result: {result.rows} — {result.metrics.describe()}")

    # -- and the server's multi-query API serves many submissions at once:
    # admission-controlled, episodes interleaved fairly, results cached.
    tickets = [
        conn.server.submit(
            "SELECT f.title AS title, SUM(r.price) AS revenue "
            "FROM films f, rentals r "
            f"WHERE f.fid = r.fid AND f.year >= {year} "
            "GROUP BY f.title ORDER BY f.title"
        )
        for year in (1979, 1985, 1995)
    ]
    conn.server.drain()
    print("\nConcurrently served submissions:")
    for ticket in tickets:
        status = conn.server.poll(ticket)
        rows = conn.server.result(ticket).rows
        print(f"  ticket {ticket}: {status['state']} after "
              f"{status['episodes']} episode(s), {len(rows)} row(s)")
    stats = conn.server.stats()
    print(f"  server totals: {stats['completed']} completed, "
          f"{stats['work_total']} work units, "
          f"result cache hits={stats['result_cache']['hits']}")

    conn.close()


if __name__ == "__main__":
    main()
