"""Quickstart: Skinner-G driving an external DBMS (the sqlite adapter).

``skinner_g_sqlite`` and ``skinner_h_sqlite`` run the learning layers of
SkinnerDB on top of a *real* host database instead of the internal
executor: catalog tables are mirrored into a scratch sqlite file, every
batch attempt is compiled to SQL with the learned join order forced via a
``CROSS JOIN`` chain, and budgets are enforced through sqlite's progress
handler on a deterministic work clock.  Rows come back byte-identical to
the internal engine — the external backend changes *where* joins execute,
never *what* they return.  Run with::

    python examples/external_engine_quickstart.py

See ``docs/engines.md`` for the adapter contract and how to register an
adapter for another DBMS.
"""

import warnings

from repro import connect


def main() -> None:
    # engine= picks the connection-wide default (REPRO_ENGINE and the DSN
    # ?engine= parameter resolve into the same knob); any single execute
    # or cursor can still override it per call.
    conn = connect(engine="skinner_g_sqlite")
    print("connection default engine:", conn.info()["engine"])

    conn.create_table("suppliers", {
        "sid": [1, 2, 3, 4, 5, 6],
        "region": ["east", "west", "east", "south", "west", "east"],
    })
    conn.create_table("parts", {
        "pid": [10, 11, 12, 13, 14, 15, 16, 17],
        "sid": [1, 1, 2, 3, 3, 3, 5, 6],
        "weight": [4.5, 3.2, 8.0, 1.1, 2.4, 9.9, 5.5, 7.1],
    })
    conn.commit()

    sql = ("SELECT s.region, p.weight FROM suppliers s, parts p "
           "WHERE s.sid = p.sid AND p.weight > 2.0 AND s.region = 'east'")

    # The external engine mirrors both tables into a scratch sqlite file
    # (once per content fingerprint) and learns its join order there.
    external = conn.execute(sql)
    internal = conn.execute(sql, engine="skinner-g")
    print("rows via sqlite:  ", sorted(tuple(r.values()) for r in external.rows))
    print("rows internally:  ", sorted(tuple(r.values()) for r in internal.rows))
    assert sorted(map(tuple, (r.values() for r in external.rows))) == \
        sorted(map(tuple, (r.values() for r in internal.rows)))

    # Queries sqlite cannot replicate bit-for-bit (UDFs here) run on the
    # internal executor after a RuntimeWarning.
    conn.register_udf("heavy", lambda w: w > 6.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = conn.execute(
            "SELECT p.pid FROM parts p WHERE heavy(p.weight)")
    print("udf fallback rows:", sorted(r["pid"] for r in result.rows),
          "| warned:", any(w.category is RuntimeWarning for w in caught))

    # close() also deletes the scratch mirror database.
    conn.close()


if __name__ == "__main__":
    main()
