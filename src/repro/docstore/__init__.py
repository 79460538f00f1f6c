"""Document data over the relational engines: shredding, axes, churn.

Hierarchical documents (XML/JSON) are the canonical generator of the
queries the paper's learned join ordering is strongest on: XPath axis
steps over a shredded node table become deep *self-joins* whose structural
predicates are heavily correlated — exactly where a conventional
optimizer's independence assumptions collapse (see ``docs/docstore.md``).

Three parts:

* :mod:`repro.docstore.shred` — parse XML/JSON into a node tree and encode
  it as a relational node table (pre/post order, last descendant, parent,
  depth, tag/kind, typed value columns);
* :mod:`repro.docstore.axes` / :mod:`repro.docstore.workload` — compile
  XPath-style axis steps into multi-way self-join SQL on the repro query
  surface, and generate deterministic, correlation-heavy axes workloads;
* :mod:`repro.docstore.churn` — interleave subtree INSERT/UPDATE/DELETE
  through transactions while streamed queries run through the serving
  layer, proving rows and meter charges byte-identical to a serialized
  replay.
"""

from repro.docstore.axes import AxisStep, axis_query
from repro.docstore.churn import ChurnReport, run_churn
from repro.docstore.shred import (
    DocNode,
    parse_json,
    parse_xml,
    shred_document,
    shred_nodes,
)
from repro.docstore.workload import make_docstore_workload

__all__ = [
    "AxisStep",
    "ChurnReport",
    "DocNode",
    "axis_query",
    "make_docstore_workload",
    "parse_json",
    "parse_xml",
    "run_churn",
    "shred_document",
    "shred_nodes",
]
