"""Tests for the document-data subsystem (:mod:`repro.docstore`).

Four properties carry the subsystem:

* **Shredding is a faithful encoding** — the pre/post region scheme
  satisfies its invariants (ranks are permutations, per-document rank
  ranges are disjoint, the containment test matches real ancestry for
  *every* node pair of a generated forest, parents/depths/sizes agree
  with the tree).
* **The axis compiler is sound** — every workload template executed
  through the real engines returns exactly the node set a tree-walking
  XPath oracle computes on the un-shredded forest, for learned and
  traditional optimizers alike.
* **Ingestion goes through the front door** — ``Connection.load_document``
  works for XML and JSON, over local and remote transports, and shares
  the durable warm-start fingerprint skip with ``load_csv``.
* **The workload generator is deterministic** — same seed, same bytes.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SkinnerConfig, connect
from repro.errors import CatalogError, ReproError
from repro.docstore import (
    AxisStep,
    DocNode,
    axis_query,
    make_docstore_workload,
    parse_json,
    parse_xml,
    shred_document,
    shred_nodes,
)
from repro.docstore.shred import (
    _numeric,
    delete_subtree,
    forest_size,
    insert_subtree,
    node_at,
    update_value,
)
from repro.docstore.workload import _query_pool, build_forest, to_xml
from repro.net.server import ServerThread
from repro.storage.column import Column
from repro.storage.table import Table

FAST = SkinnerConfig(
    slice_budget=64,
    batches_per_table=3,
    base_timeout=200,
    serving_warm_start=False,
)

ENGINES = ["traditional", "skinner-c", "skinner-g", "skinner-h"]


def same_values(left, right):
    """Element-wise equality that treats the NaN marker as equal to itself."""
    return len(left) == len(right) and all(
        x == y
        or (isinstance(x, float) and isinstance(y, float)
            and math.isnan(x) and math.isnan(y))
        for x, y in zip(left, right)
    )


def rows_of(result):
    table = result.table
    columns = [table.column(name).values() for name in table.column_names]
    return list(zip(*columns))


# ----------------------------------------------------------------------
# tree-walking oracle (independent of the relational encoding)
# ----------------------------------------------------------------------
def index_forest(roots):
    """Document-order nodes, identity-keyed parents, and preorder ranks."""
    order, parents, pre = [], {}, {}
    counter = 0

    def visit(node, parent):
        nonlocal counter
        pre[id(node)] = counter
        counter += 1
        parents[id(node)] = parent
        order.append(node)
        for child in node.children:
            visit(child, node)

    for root in roots:
        visit(root, None)
    return order, parents, pre


def _descendants(node):
    out = []
    for child in node.children:
        out.append(child)
        out.extend(_descendants(child))
    return out


def _ancestors(node, parents):
    out = []
    parent = parents[id(node)]
    while parent is not None:
        out.append(parent)
        parent = parents[id(parent)]
    return out


def _following_siblings(node, parents):
    parent = parents[id(node)]
    if parent is None:
        return []
    # identity scan: DocNode compares by value, and sibling subtrees of a
    # generated forest can be equal without being the same node
    index = next(i for i, c in enumerate(parent.children) if c is node)
    return parent.children[index + 1:]


def _compare(left, op, right):
    return {
        "=": left == right, "!=": left != right, "<>": left != right,
        "<": left < right, "<=": left <= right,
        ">": left > right, ">=": left >= right,
    }[op]


def _node_matches(node, step):
    if step.tag is not None and node.tag != step.tag:
        return False
    if step.kind is not None and node.kind != step.kind:
        return False
    if step.value_op is None:
        return True
    if isinstance(step.value, (int, float)) and not isinstance(step.value, bool):
        if math.isnan(node.number):
            return False  # NaN keys never match
        return _compare(node.number, step.value_op, float(step.value))
    return _compare(node.text, step.value_op, str(step.value))


def oracle_axis_path(roots, steps):
    """Evaluate an axis path by walking the trees; returns sorted pre ranks."""
    order, parents, pre = index_forest(roots)
    current = [node for node in order if _node_matches(node, steps[0])]
    for step in steps[1:]:
        seen, nxt = set(), []
        for context in current:
            if step.axis == "child":
                candidates = context.children
            elif step.axis == "descendant":
                candidates = _descendants(context)
            elif step.axis == "following-sibling":
                candidates = _following_siblings(context, parents)
            else:  # ancestor
                candidates = _ancestors(context, parents)
            for candidate in candidates:
                if _node_matches(candidate, step) and id(candidate) not in seen:
                    seen.add(id(candidate))
                    nxt.append(candidate)
        current = nxt
    return sorted(pre[id(node)] for node in current)


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def forest():
    return build_forest(documents=2, items_per_document=6, depth=1, seed=3)


def shredded_values(roots):
    """``shred_nodes`` as plain value lists, one per column."""
    return {name: column.values() for name, column in shred_nodes(roots).items()}


@pytest.fixture(scope="module")
def columns(forest):
    return shredded_values(forest)


def recursive_shred(roots):
    """The encoder ``shred_nodes`` replaced, kept as its oracle: one
    recursive call per node, plain value lists, types left to ``Column``."""
    columns = {name: [] for name in (
        "pre", "post", "parent", "depth", "size", "last", "kind", "tag", "val_str", "val_num")}

    def encode(node, parent, depth, counters):
        pre = counters["pre"]
        counters["pre"] += 1
        row = len(columns["pre"])
        columns["pre"].append(pre)
        columns["post"].append(0)  # patched once the subtree is numbered
        columns["parent"].append(parent)
        columns["depth"].append(depth)
        columns["size"].append(node.subtree_size() - 1)
        columns["last"].append(0)  # patched once the last descendant is numbered
        columns["kind"].append(node.kind)
        columns["tag"].append(node.tag)
        columns["val_str"].append(node.text)
        columns["val_num"].append(node.number)
        for child in node.children:
            encode(child, pre, depth + 1, counters)
        columns["post"][row] = counters["post"]
        counters["post"] += 1
        columns["last"][row] = counters["pre"] - 1

    base = 0
    for root in roots:
        encode(root, -1, 0, {"pre": base, "post": base})
        base += root.subtree_size()
    return columns


def assert_same_as_oracle(roots):
    """Same types, physical arrays and dictionaries as the recursive encoder."""
    got = shred_nodes(roots)
    want = recursive_shred(roots if isinstance(roots, list) else [roots])
    assert list(got) == list(want)
    for name, values in want.items():
        column, expected = got[name], Column(values)
        assert isinstance(column, Column)
        assert column.ctype is expected.ctype, name
        assert same_values(column.data.tolist(), expected.data.tolist()), name
        if name in ("kind", "tag", "val_str"):
            assert column.dictionary == expected.dictionary, name


_TAGS = st.sampled_from(["a", "b", "item", "rating"])
_TEXTS = st.sampled_from(["", "5", "x", "2.5", "nan"])
_LEAVES = st.builds(
    lambda tag, text: DocNode(tag=tag, text=text, number=_numeric(text)), _TAGS, _TEXTS)
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.builds(
        lambda tag, kids: DocNode(tag=tag, children=kids),
        _TAGS, st.lists(children, max_size=4)),
    max_leaves=25,
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats(allow_nan=False, width=32)
    | st.sampled_from(["", "x", "7"]),
    lambda values: st.lists(values, max_size=3)
    | st.dictionaries(st.sampled_from(["k", "v", "w"]), values, max_size=3),
    max_leaves=15,
)


@pytest.fixture(scope="module")
def doc_conn(forest):
    from repro.storage.table import Table

    conn = connect(FAST)
    conn.add_table(Table("doc", shred_nodes(forest)))
    conn.commit()
    yield conn
    conn.close()


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------
class TestParsing:
    XML = """
    <site open="yes">
      <region code="eu">europe
        <item><price>12.5</price></item>
      </region>
      <!-- a comment node -->
    </site>
    """

    def test_xml_structure(self):
        root = parse_xml(self.XML)
        assert (root.tag, root.kind) == ("site", "elem")
        assert [c.tag for c in root.children] == ["open", "region"]
        attr = root.children[0]
        assert (attr.kind, attr.text) == ("attr", "yes")
        region = root.children[1]
        assert region.text == "europe"  # element text lives on the element row
        assert [c.tag for c in region.children] == ["code", "item"]
        price = region.children[1].children[0]
        assert price.number == 12.5 and price.text == "12.5"

    def test_xml_non_numeric_text_is_nan(self):
        root = parse_xml("<a>hello</a>")
        assert math.isnan(root.number)

    def test_xml_malformed_raises(self):
        with pytest.raises(ReproError, match="malformed XML"):
            parse_xml("<a><b></a>")

    def test_json_kinds(self):
        root = parse_json(
            '{"name": "x", "price": 3.5, "sold": true, "note": null,'
            ' "tags": ["a", 2]}'
        )
        assert (root.tag, root.kind) == ("#root", "object")
        kinds = {child.tag: child.kind for child in root.children}
        assert kinds == {"name": "string", "price": "number",
                         "sold": "bool", "note": "null", "tags": "array"}
        tags = root.children[-1]
        assert [c.tag for c in tags.children] == ["#item", "#item"]
        assert tags.children[1].number == 2.0
        sold = next(c for c in root.children if c.tag == "sold")
        assert sold.text == "true" and sold.number == 1.0

    def test_json_malformed_raises(self):
        with pytest.raises(ReproError, match="malformed JSON"):
            parse_json("{nope")

    def test_xml_round_trip_through_serializer(self, forest):
        got = shredded_values(parse_xml(to_xml(forest[0])))
        want = shredded_values(forest[0])
        assert set(got) == set(want)
        for name in want:
            if name != "val_num":
                assert got[name] == want[name], name
        # XML text is the only value channel, so numbers survive exactly
        # when they are derivable from the text (the generator's seller
        # nodes carry an extra numeric id that is not).
        for value, text in zip(got["val_num"], want["val_str"]):
            try:
                derivable = float(text)
            except ValueError:
                assert math.isnan(value)
            else:
                assert value == derivable


# ----------------------------------------------------------------------
# pre/post encoding invariants
# ----------------------------------------------------------------------
class TestEncoding:
    def test_pre_is_row_order_and_post_is_a_permutation(self, columns):
        n = len(columns["pre"])
        assert columns["pre"] == list(range(n))
        assert sorted(columns["post"]) == list(range(n))

    def test_per_document_rank_ranges_are_shared_and_disjoint(self, forest, columns):
        base = 0
        for root in forest:
            size = root.subtree_size()
            span = range(base, base + size)
            for row in span:
                assert columns["pre"][row] in span
                assert columns["post"][row] in span
            base += size
        assert base == len(columns["pre"])

    def test_containment_test_matches_real_ancestry(self, forest, columns):
        order, parents, pre_of = index_forest(forest)
        ancestry = set()
        for node in order:
            for ancestor in _ancestors(node, parents):
                ancestry.add((pre_of[id(node)], pre_of[id(ancestor)]))
        n = len(order)
        pre, post, last = columns["pre"], columns["post"], columns["last"]
        for d in range(n):
            for a in range(n):
                region = pre[d] > pre[a] and post[d] < post[a]
                interval = pre[a] < pre[d] <= last[a]
                assert region == interval == ((d, a) in ancestry), (d, a)

    def test_parent_depth_size_agree_with_the_tree(self, forest, columns):
        order, parents, pre_of = index_forest(forest)
        for row, node in enumerate(order):
            parent = parents[id(node)]
            expected_parent = -1 if parent is None else pre_of[id(parent)]
            assert columns["parent"][row] == expected_parent
            assert columns["depth"][row] == len(_ancestors(node, parents))
            assert columns["size"][row] == node.subtree_size() - 1

    def test_forest_editing_helpers(self):
        roots = [parse_xml("<a><b>1</b><c>2</c></a>")]
        assert forest_size(roots) == 3
        assert node_at(roots, 1).tag == "b"
        with pytest.raises(ReproError):
            node_at(roots, 99)
        insert_subtree(roots, 1, DocNode(tag="d", text="3"))
        assert forest_size(roots) == 4
        update_value(roots, 2, "42")
        assert node_at(roots, 2).number == 42.0
        assert delete_subtree(roots, 1)  # drops b and its new child
        assert forest_size(roots) == 2
        assert not delete_subtree(roots, 0)  # roots are never removed
        assert forest_size(roots) == 2

    def test_delete_subtree_picks_the_node_not_a_look_alike(self):
        # DocNode compares by value: the two ratings are equal, not identical.
        roots = [parse_xml(
            "<site><item><rating>5</rating></item>"
            "<item><rating>5</rating><name>n</name></item></site>")]
        assert node_at(roots, 4).tag == "rating"
        assert delete_subtree(roots, 4)
        first, second = roots[0].children
        assert [child.tag for child in first.children] == ["rating"]
        assert [child.tag for child in second.children] == ["name"]


class TestShredAgainstRecursiveOracle:
    """``shred_nodes`` is one iterative pass returning typed columns; the
    recursive encoder it replaced says what they must hold."""

    def test_generated_forest(self, forest):
        assert_same_as_oracle(forest)
        assert_same_as_oracle(forest[0])  # a bare root is a forest of one

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_TREES, min_size=1, max_size=4))
    def test_random_forests(self, roots):
        assert_same_as_oracle(roots)

    @settings(max_examples=40, deadline=None)
    @given(_JSON)
    def test_json_documents(self, value):
        assert_same_as_oracle([parse_json(json.dumps(value))])

    def test_xml_document(self):
        assert_same_as_oracle([parse_xml(TestParsing.XML)])

    def test_empty_forest(self):
        assert shredded_values([]) == recursive_shred([])
        # Typed even when empty (the value-list form inferred INT throughout).
        assert Table("doc", shred_nodes([])).column_types()["kind"].value == "string"

    def test_deep_chain_does_not_recurse(self):
        root = deep_chain()
        columns = shred_nodes(root)
        ranks = list(range(DEEP))
        assert columns["pre"].values() == ranks
        assert columns["post"].values() == ranks[::-1]
        assert columns["depth"].values() == ranks
        assert columns["parent"].values() == [-1] + ranks[:-1]
        assert columns["size"].values() == ranks[::-1]
        assert columns["last"].values() == [DEEP - 1] * DEEP


#: Far past the interpreter's recursion limit.
DEEP = 5000


def deep_chain(depth: int = DEEP) -> DocNode:
    """A chain of ``depth`` nodes, each the only child of the one before."""
    root = DocNode(tag="n0")
    node = root
    for level in range(1, depth):
        child = DocNode(tag=f"n{level % 7}")
        node.children.append(child)
        node = child
    return root


class TestDeepChainHelpers:
    """The tree helpers walk a chain deeper than the recursion limit, as the
    shredder does.  (Nodes are compared by identity: ``DocNode.__eq__``
    compares children, recursively.)"""

    def test_walk(self):
        nodes = list(deep_chain().walk())
        assert len(nodes) == DEEP
        assert all(child is parent.children[0] for parent, child in zip(nodes, nodes[1:]))

    def test_subtree_size(self):
        assert deep_chain().subtree_size() == DEEP

    def test_node_at(self):
        root = deep_chain()
        deepest = list(root.walk())[-1]
        assert node_at([root], DEEP - 1) is deepest
        with pytest.raises(ReproError):
            node_at([root], DEEP)

    def test_forest_size(self):
        assert forest_size([deep_chain(), deep_chain()]) == 2 * DEEP

    def test_delete_subtree(self):
        roots = [deep_chain()]
        middle = node_at(roots, DEEP // 2)
        assert delete_subtree(roots, DEEP // 2)
        assert forest_size(roots) == DEEP // 2
        assert all(node is not middle for node in roots[0].walk())


# ----------------------------------------------------------------------
# axis compiler
# ----------------------------------------------------------------------
class TestAxisCompiler:
    def test_rendered_sql(self):
        sql = axis_query("doc", [
            AxisStep("self", tag="review"),
            AxisStep("child", tag="rating", value_op="<=", value=2),
        ])
        assert sql == (
            "SELECT s1.pre, s1.tag, s1.val_str FROM doc s0, doc s1"
            " WHERE s0.tag = 'review' AND s1.parent = s0.pre"
            " AND s1.tag = 'rating' AND s1.val_num <= 2"
        )

    def test_distinct_and_custom_projection(self):
        sql = axis_query("doc", [AxisStep("self", tag="item")],
                         select="s0.pre", distinct=True)
        assert sql == "SELECT DISTINCT s0.pre FROM doc s0 WHERE s0.tag = 'item'"

    def test_string_values_are_quoted_and_escaped(self):
        sql = axis_query("doc", [
            AxisStep("self", tag="comment", value_op="=", value="it's fine"),
        ])
        assert "s0.val_str = 'it''s fine'" in sql

    def test_validation(self):
        with pytest.raises(ReproError, match="at least one step"):
            axis_query("doc", [])
        with pytest.raises(ReproError, match="first step"):
            axis_query("doc", [AxisStep("child")])
        with pytest.raises(ReproError, match="anchor"):
            axis_query("doc", [AxisStep("self"), AxisStep("self")])
        with pytest.raises(ReproError, match="unknown axis"):
            AxisStep("parent")
        with pytest.raises(ReproError, match="together"):
            AxisStep("self", value_op="=")
        with pytest.raises(ReproError, match="operator"):
            AxisStep("self", value_op="LIKE", value="x")


class TestAxisOracle:
    """Every workload template, on the real engines, vs the tree oracle."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_deep_ratings_matches_oracle_on_every_engine(
        self, doc_conn, forest, engine
    ):
        stem, _, steps = _query_pool("doc")[0]
        assert stem == "deep_ratings"
        sql = axis_query("doc", steps, select="s3.pre", distinct=True)
        got = sorted(row[0] for row in rows_of(doc_conn.execute(sql, engine=engine)))
        assert got == oracle_axis_path(forest, steps)

    @pytest.mark.parametrize(
        "template", _query_pool("doc"), ids=[t[0] for t in _query_pool("doc")]
    )
    def test_every_template_matches_oracle(self, doc_conn, forest, template):
        _, _, steps = template
        last = f"s{len(steps) - 1}"
        sql = axis_query("doc", steps, select=f"{last}.pre", distinct=True)
        got = sorted(row[0] for row in rows_of(doc_conn.execute(sql, engine="skinner-c")))
        assert got == oracle_axis_path(forest, steps)


#: ``descendant``/``ancestor`` as the compiler emitted them before ``last``:
#: the pre/post region test, kept as the oracle of the interval form.
_PRE_POST_AXES = {
    "descendant": "{n}.pre > {m}.pre AND {n}.post < {m}.post",
    "ancestor": "{n}.pre < {m}.pre AND {n}.post > {m}.post",
}


def pre_post_axis_query(table, steps):
    """The path in the pre/post form, projecting every step's ``pre``."""
    where = []
    for i, step in enumerate(steps):
        if i:
            where.append(_PRE_POST_AXES[step.axis].format(n=f"s{i}", m=f"s{i - 1}"))
        if step.tag is not None:
            where.append(f"s{i}.tag = '{step.tag}'")
    aliases = [f"s{i}" for i in range(len(steps))]
    return (f"SELECT {', '.join(f'{a}.pre' for a in aliases)}"
            f" FROM {', '.join(f'{table} {a}' for a in aliases)} WHERE {' AND '.join(where)}")


_REGION_STEPS = st.builds(
    AxisStep, st.sampled_from(["descendant", "ancestor"]), st.none() | _TAGS)


class TestIntervalAxes:
    """``descendant``/``ancestor`` compiled onto ``pre``/``last`` return the
    multiset the pre/post region form returns, on a cost-model optimizer and
    on the learning engine (whose band jump the interval form feeds)."""

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_TREES, min_size=1, max_size=3), st.none() | _TAGS,
           st.lists(_REGION_STEPS, min_size=1, max_size=2))
    def test_same_multiset_as_pre_post(self, roots, first_tag, later):
        steps = [AxisStep("self", tag=first_tag), *later]
        select = ", ".join(f"s{i}.pre" for i in range(len(steps)))
        interval_sql = axis_query("doc", steps, select=select)
        region_sql = pre_post_axis_query("doc", steps)
        assert "last" in interval_sql and "post" not in interval_sql
        conn = connect(FAST)
        try:
            conn.add_table(Table("doc", shred_nodes(roots)))
            conn.commit()
            for engine in ("traditional", "skinner-c"):
                got, want = (
                    sorted(rows_of(conn.execute(sql, engine=engine, use_result_cache=False)))
                    for sql in (interval_sql, region_sql))
                assert got == want, engine
        finally:
            conn.close()


# ----------------------------------------------------------------------
# ingestion front door
# ----------------------------------------------------------------------
class TestLoadDocument:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_xml_load_and_query(self, tmp_path):
        path = self._write(
            tmp_path, "catalog.xml",
            "<shop><item><price>5</price></item>"
            "<item><price>9</price></item></shop>",
        )
        conn = connect(FAST)
        try:
            table = conn.load_document(path)
            assert table.name == "catalog"  # from the file stem
            conn.commit()
            sql = axis_query("catalog", [
                AxisStep("self", tag="price", value_op=">", value=4),
            ], select="s0.val_num")
            assert sorted(rows_of(conn.execute(sql))) == [(5.0,), (9.0,)]
        finally:
            conn.close()

    def test_json_load_with_explicit_name(self, tmp_path):
        path = self._write(tmp_path, "data.json", '{"a": [1, 2, 3]}')
        conn = connect(FAST)
        try:
            table = conn.load_document(path, "docs")
            assert table.name == "docs"
            assert table.num_rows == 5  # root + array + 3 items
        finally:
            conn.close()

    def test_format_inference_failure_and_override(self, tmp_path):
        path = self._write(tmp_path, "notes.txt", "<n>1</n>")
        conn = connect(FAST)
        try:
            with pytest.raises(ReproError, match="cannot infer"):
                conn.load_document(path)
            assert conn.load_document(path, format="xml").num_rows == 1
        finally:
            conn.close()

    def test_in_memory_duplicate_load_requires_replace(self, tmp_path):
        path = self._write(tmp_path, "d.xml", "<a>1</a>")
        conn = connect(FAST)
        try:
            conn.load_document(path)
            with pytest.raises(CatalogError, match="already exists"):
                conn.load_document(path)
            conn.load_document(path, replace=True)  # explicit reload is fine
        finally:
            conn.close()

    def test_durable_reload_is_a_warm_start_skip(self, tmp_path):
        data_dir = tmp_path / "data"
        path = self._write(tmp_path, "d.xml", "<a><b>1</b></a>")
        config = FAST.with_overrides(data_dir=str(data_dir))
        conn = connect(config)
        try:
            conn.load_document(path)
            conn.commit()
        finally:
            conn.close()
        conn = connect(config)
        try:
            # same bytes: idempotent no-op, no replace=True needed
            assert conn.load_document(path).num_rows == 2
            # changed bytes: a real reload, so the strict contract applies
            self._write(tmp_path, "d.xml", "<a><b>1</b><c>2</c></a>")
            with pytest.raises(CatalogError, match="already exists"):
                conn.load_document(path)
            assert conn.load_document(path, replace=True).num_rows == 3
        finally:
            conn.close()

    def test_remote_load_document(self, tmp_path):
        path = self._write(
            tmp_path, "remote.xml",
            "<r><x>1</x><x>2</x><x>3</x></r>",
        )
        with ServerThread(config=FAST) as live:
            conn = connect(live.dsn)
            try:
                table = conn.load_document(path)
                assert table.name == "remote" and table.num_rows == 4
                sql = ("SELECT COUNT(*) AS n FROM remote s0"
                       " WHERE s0.tag = 'x'")
                assert rows_of(conn.execute(sql)) == [(3,)]
            finally:
                conn.close()


# ----------------------------------------------------------------------
# workload generator
# ----------------------------------------------------------------------
class TestWorkloadGenerator:
    KNOBS = dict(documents=2, items_per_document=5, depth=1, sellers=10, seed=5)

    def test_deterministic_in_the_seed(self):
        one = make_docstore_workload(**self.KNOBS)
        two = make_docstore_workload(**self.KNOBS)
        assert [q.name for q in one.queries] == [q.name for q in two.queries]
        t1, t2 = one.catalog.table("doc_nodes"), two.catalog.table("doc_nodes")
        for name in t1.column_names:
            assert same_values(t1.column(name).values(), t2.column(name).values())
        different = make_docstore_workload(**{**self.KNOBS, "seed": 6})
        t3 = different.catalog.table("doc_nodes")
        assert not same_values(t1.column("val_num").values(),
                               t3.column("val_num").values())

    def test_workload_shape(self):
        workload = make_docstore_workload(**self.KNOBS)
        assert workload.name == "docstore_axes"
        assert len(workload.queries) == len(_query_pool("doc_nodes"))
        for query in workload.queries:
            assert "axes" in query.tags
            aliases = [alias for alias, _ in query.query.tables]
            assert len(aliases) >= 2  # every template is a self-join
        assert workload.parameters["seed"] == 5
