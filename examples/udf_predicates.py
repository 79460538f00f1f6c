"""User-defined predicates: the case where cost models cannot help.

Registers opaque Python UDFs as join predicates (the paper's "UDF torture"
setting, also used for the TPC-H UDF variant).  A traditional optimizer has
no statistics for a black-box predicate and must guess; SkinnerDB simply
observes which join orders make progress.

Run with::

    python examples/udf_predicates.py
"""

from repro import SkinnerConfig, connect
from repro.workloads.torture import make_udf_torture
from repro.baselines.traditional import TraditionalEngine
from repro.skinner.skinner_c import SkinnerC


def curated_example() -> None:
    """A hand-written schema with a semantic UDF join predicate."""
    db = connect(SkinnerConfig(slice_budget=100), autocommit=True)
    db.create_table("sensors", {
        "sid": [1, 2, 3, 4],
        "lat": [52.5, 48.1, 40.7, 37.8],
        "lon": [13.4, 11.6, -74.0, -122.4],
    })
    db.create_table("events", {
        "eid": list(range(1, 9)),
        "lat": [52.6, 52.4, 48.0, 40.8, 37.7, 10.0, 20.0, 30.0],
        "lon": [13.5, 13.3, 11.7, -74.1, -122.5, 10.0, 20.0, 30.0],
        "severity": [3, 1, 2, 5, 4, 1, 1, 2],
    })
    # "Near" is arbitrary Python code: invisible to any cost model.
    db.register_udf("near", lambda a, b, c, d: abs(a - c) < 0.5 and abs(b - d) < 0.5, cost=3)

    sql = (
        "SELECT s.sid, COUNT(*) AS nearby_events, MAX(e.severity) AS worst "
        "FROM sensors s, events e "
        "WHERE near(s.lat, s.lon, e.lat, e.lon) AND e.severity > 1 "
        "GROUP BY s.sid ORDER BY s.sid"
    )
    result = db.execute(sql, engine="skinner-c")
    print("Nearby events per sensor (Skinner-C):")
    for row in result.rows:
        print(f"  {row}")
    print(f"  {result.metrics.describe()}\n")


def torture_example() -> None:
    """The paper's UDF torture: one never-satisfied predicate hidden among
    always-true ones.  Evaluating it early finishes instantly; deferring it
    explodes.  The optimizer cannot tell the two apart."""
    workload = make_udf_torture(num_tables=6, tuples_per_table=40, shape="chain",
                                good_position=2)
    query = workload.queries[0].query

    skinner = SkinnerC(workload.catalog, workload.udfs, SkinnerConfig(slice_budget=100))
    optimizer = TraditionalEngine(workload.catalog, workload.udfs)

    learned = skinner.execute(query)
    planned = optimizer.execute(query, work_budget=300_000)

    print("UDF torture, 6-table chain, 40 tuples per table:")
    print(f"  Skinner-C            : {learned.metrics.work.total:>12,} work units, "
          f"{learned.metrics.wall_time_seconds * 1e3:>8.1f} ms, "
          f"{learned.rows[0]['matches']} matching tuples")
    status = "TIMED OUT" if planned.metrics.extra["timed_out"] else "finished"
    print(f"  Traditional optimizer: {planned.metrics.work.total:>12,} work units, "
          f"{planned.metrics.wall_time_seconds * 1e3:>8.1f} ms ({status})")
    print("\nSkinner discovers that one join edge never matches and schedules it "
          "first; the traditional optimizer has no way to know which edge that is.")


if __name__ == "__main__":
    curated_example()
    torture_example()
