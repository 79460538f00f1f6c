"""Quickstart: shred documents, run XPath-axis joins, churn under serving.

The document subsystem in one sitting: ``Connection.load_document()``
shreds an XML (or JSON) file into a pre/post/last node table, the axis
compiler renders XPath-style steps as multi-way self-joins every engine
can run, and the churn driver proves that interleaving subtree writes
with streamed queries never changes any answer.  Run with::

    python examples/docstore_quickstart.py

See ``docs/docstore.md`` for the shredding schema and the axis→join
mapping.
"""

import tempfile
from pathlib import Path

from repro import connect
from repro.docstore.axes import AxisStep, axis_query
from repro.docstore.churn import run_churn

SITE_XML = """
<site name="demo">
  <item><name>rare coins</name><price>120.00</price>
    <review><rating>2</rating><comment>damaged</comment></review>
    <review><rating>5</rating><comment>great</comment></review>
  </item>
  <item><name>vintage maps</name><price>18.50</price>
    <review><rating>4</rating><comment>as described</comment></review>
  </item>
</site>
"""

INVENTORY_JSON = """
{"warehouse": "north", "bins": [
  {"sku": "c-120", "count": 7},
  {"sku": "m-018", "count": 0}
]}
"""


def main() -> None:
    conn = connect()
    with tempfile.TemporaryDirectory(prefix="repro-docstore-") as scratch:
        xml_path = Path(scratch) / "site.xml"
        xml_path.write_text(SITE_XML.strip())
        json_path = Path(scratch) / "inventory.json"
        json_path.write_text(INVENTORY_JSON.strip())

        # Shred: one relational row per document node (pre/post/last
        # interval encoding, parent pointers, typed value columns).
        doc = conn.load_document(xml_path)                   # table "site"
        inv = conn.load_document(json_path, "inventory")
        conn.commit()
        print(f"shredded {doc.name}: {doc.num_rows} nodes; "
              f"{inv.name}: {inv.num_rows} nodes")

        # Axes: XPath steps compile to a self-join chain.  "ratings <= 3
        # of reviews anywhere under the site" mixes a descendant
        # (inequality) axis with child (equi) axes.
        sql = axis_query("site", [
            AxisStep("self", tag="site"),
            AxisStep("descendant", tag="review"),
            AxisStep("child", tag="rating", value_op="<=", value=3),
        ], distinct=True)
        print("axis SQL:", sql)
        for engine in ("traditional", "skinner-c"):
            result = conn.execute(sql, engine=engine)
            rows = sorted(tuple(row.values()) for row in result.rows)
            print(f"  {engine}: {rows}")

        # JSON shreds into the same schema: object keys become tags.
        empty = axis_query("inventory", [
            AxisStep("self", tag="#item"),
            AxisStep("child", tag="count", value_op="=", value=0),
        ], select="s0.pre")
        print("empty bins:", [tuple(r.values()) for r in conn.execute(empty).rows])
    conn.close()

    # Churn: the same schedule of axis queries + subtree mutations runs
    # interleaved (streams mid-fetch while commits land) and serialized;
    # rows, work clock, and ledger charges must match byte-for-byte.
    report = run_churn(steps=8, seed=3, documents=2, items_per_document=4,
                       depth=1)
    print(report.summary())
    assert report.matched


if __name__ == "__main__":
    main()
