"""Deterministic, correlation-heavy XPath-axes workloads.

The generator builds an auction-style document forest (sites holding
regions, items, nested bundles, reviews) whose *structure is the
correlation*: ``rating`` nodes exist only under ``review`` nodes, review
fan-out depends on the item's price band, and a few Zipf-hot sellers
dominate the listings.  Per-column statistics on the shredded node table
see only marginal tag/value frequencies, so an independence-based cost
model misestimates every intermediate of an axis path — while every alias
being the *same* table starves it of base-table signal entirely.  That is
the regime the paper's learned join ordering targets, and the workload
queries are tuned to sit in it: deep self-join chains mixing equi-join
axes (child, the parent half of following-sibling) with inequality region
axes (descendant, ancestor) and selective value predicates.

Everything is a pure function of the seed and the size knobs — the
benchmark gate compares deterministic work fingerprints across machines.
"""

from __future__ import annotations

import math

from repro.docstore.axes import AxisStep, axis_query
from repro.docstore.shred import DocNode, shred_nodes
from repro.query.parser import parse_query
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.workloads.generators import Workload, WorkloadQuery, make_rng

_REGIONS = ("africa", "asia", "europe", "namerica", "samerica")
_CATEGORIES = ("coins", "books", "art", "maps", "tools", "toys")
_ADJECTIVES = ("rare", "vintage", "signed", "restored", "boxed", "odd")
_COMMENTS = ("great", "as described", "slow shipping", "damaged", "perfect")


# ----------------------------------------------------------------------
# document generation
# ----------------------------------------------------------------------
def random_item(rng, *, depth: int, sellers: int) -> DocNode:
    """One ``item`` subtree; ``depth`` allows nested ``bundle`` items.

    The built-in correlations: review count tracks the price band (cheap
    items rarely get reviewed), ratings skew low for hot sellers (their
    volume attracts complaints), and bundles recurse only under non-cheap
    items.
    """
    item = DocNode(tag="item", kind="elem")
    category = _CATEGORIES[int(rng.integers(0, len(_CATEGORIES)))]
    adjective = _ADJECTIVES[int(rng.integers(0, len(_ADJECTIVES)))]
    price = float(round(math.exp(rng.uniform(0.0, 7.0)), 2))
    # Zipf-ish seller id: low ids are hot.
    seller = int(rng.zipf(1.4)) % sellers
    item.children.append(DocNode(tag="name", kind="elem",
                                 text=f"{adjective} {category}"))
    item.children.append(DocNode(tag="category", kind="elem", text=category))
    item.children.append(DocNode(tag="price", kind="elem",
                                 text=f"{price:.2f}", number=price))
    item.children.append(DocNode(tag="seller", kind="elem",
                                 text=f"s{seller:03d}", number=float(seller)))
    # View counters stretch the numeric value domain far above the rating
    # scale: the shredded table holds every number in one ``val_num``
    # column, so a marginal histogram over it sees mostly large values and
    # misprices tag-correlated range predicates (``rating >= 5`` looks
    # broad, yet five-star ratings are rare below).
    views = int(rng.integers(500, 5000))
    item.children.append(DocNode(tag="views", kind="elem",
                                 text=str(views), number=float(views)))
    # Correlation: pricey items attract reviews, cheap ones almost none.
    reviews = int(rng.integers(0, 2)) if price < 50 else int(rng.integers(2, 6))
    for _ in range(reviews):
        review = DocNode(tag="review", kind="elem")
        # Correlation: hot sellers (low ids) collect the bad ratings, and
        # a five-star rating is rare for everyone.
        if seller < max(1, sellers // 10):
            rating = float(rng.integers(1, 4))
        elif rng.random() < 0.08:
            rating = 5.0
        else:
            rating = float(rng.integers(3, 5))
        review.children.append(DocNode(tag="rating", kind="elem",
                                       text=f"{rating:.0f}", number=rating))
        # Praise is cheap: most comments are the same hot string, which a
        # distinct-count model still prices as one-in-hundreds.
        if rng.random() < 0.6:
            comment = "great"
        else:
            comment = _COMMENTS[int(rng.integers(1, len(_COMMENTS)))]
        review.children.append(DocNode(tag="comment", kind="elem",
                                       text=comment))
        item.children.append(review)
    if depth > 0 and price >= 50 and rng.random() < 0.6:
        bundle = DocNode(tag="bundle", kind="elem")
        for _ in range(int(rng.integers(1, 3))):
            bundle.children.append(
                random_item(rng, depth=depth - 1, sellers=sellers)
            )
        item.children.append(bundle)
    return item


def build_forest(
    *,
    documents: int = 8,
    items_per_document: int = 24,
    depth: int = 2,
    sellers: int = 40,
    seed: int = 7,
) -> list[DocNode]:
    """A deterministic auction-site forest (one ``site`` root per document)."""
    rng = make_rng(seed)
    roots = []
    for doc in range(documents):
        site = DocNode(tag="site", kind="elem", text=f"site{doc}")
        for region_name in _REGIONS[: 1 + doc % len(_REGIONS)]:
            region = DocNode(tag="region", kind="elem", text=region_name)
            region.children.append(DocNode(tag="rname", kind="attr",
                                           text=region_name))
            share = max(1, items_per_document // (1 + doc % len(_REGIONS)))
            for _ in range(share):
                region.children.append(
                    random_item(rng, depth=depth, sellers=sellers)
                )
            site.children.append(region)
        roots.append(site)
    return roots


# ----------------------------------------------------------------------
# query generation
# ----------------------------------------------------------------------
def _query_pool(table: str) -> list[tuple[str, str, list[AxisStep]]]:
    """The axis-path templates the workload samples from.

    Each entry: (name stem, description, steps).  The paths deliberately
    hit the estimator's blind spots — descendant steps from near-root
    nodes (huge true fan-out, flat default selectivity), value predicates
    whose truth is correlated with the structure (bad ratings live under
    hot sellers), and sibling steps among same-tag children.
    """
    return [
        (
            "deep_ratings",
            "ratings of reviews of items anywhere under a site",
            [
                AxisStep("self", tag="site"),
                AxisStep("descendant", tag="item"),
                AxisStep("child", tag="review"),
                AxisStep("child", tag="rating", value_op="<=", value=2),
            ],
        ),
        (
            "region_pricey",
            "prices above threshold for items directly under a region",
            [
                AxisStep("self", tag="region"),
                AxisStep("child", tag="item"),
                AxisStep("child", tag="price", value_op=">", value=400),
            ],
        ),
        (
            "bad_rating_sellers",
            "sellers of items that own a low rating (ancestor axis)",
            [
                AxisStep("self", tag="rating", value_op="<=", value=2),
                AxisStep("ancestor", tag="item"),
                AxisStep("child", tag="seller"),
            ],
        ),
        (
            "repeat_reviews",
            "later reviews of twice-reviewed items (following-sibling)",
            [
                AxisStep("self", tag="item"),
                AxisStep("child", tag="review"),
                AxisStep("following-sibling", tag="review"),
                AxisStep("child", tag="rating", value_op=">=", value=5),
            ],
        ),
        (
            "bundle_prices",
            "prices of items nested inside bundles",
            [
                AxisStep("self", tag="bundle"),
                AxisStep("descendant", tag="item"),
                AxisStep("child", tag="price", value_op="<", value=100),
            ],
        ),
        (
            "praised_five_star",
            "items praised 'great' that also earned a five-star rating",
            [
                AxisStep("self", tag="comment", value_op="=", value="great"),
                AxisStep("ancestor", tag="item"),
                AxisStep("descendant", tag="rating", value_op=">=", value=5),
            ],
        ),
        (
            "praised_context",
            "any context holding both praise and a five-star rating",
            [
                AxisStep("self", tag="comment", value_op="=", value="great"),
                AxisStep("ancestor"),
                AxisStep("descendant", tag="rating", value_op=">=", value=5),
            ],
        ),
        (
            "deep_bundle_ratings",
            "ratings reached through a bundle (two descendant hops)",
            [
                AxisStep("self", tag="site"),
                AxisStep("descendant", tag="bundle"),
                AxisStep("descendant", tag="rating", value_op=">=", value=4),
            ],
        ),
    ]


def make_docstore_workload(
    *,
    documents: int = 8,
    items_per_document: int = 24,
    depth: int = 2,
    sellers: int = 40,
    seed: int = 7,
    table_name: str = "doc_nodes",
) -> Workload:
    """Build the node table and the seeded axes queries over it.

    The returned :class:`~repro.workloads.generators.Workload` carries the
    populated catalog plus one parsed query per template in
    :func:`_query_pool` (tagged ``axes`` and by their axis kinds), with
    the generation knobs recorded in ``parameters``.
    """
    roots = build_forest(
        documents=documents, items_per_document=items_per_document,
        depth=depth, sellers=sellers, seed=seed,
    )
    catalog = Catalog()
    catalog.add_table(Table(table_name, shred_nodes(roots)))
    workload = Workload(
        name="docstore_axes",
        catalog=catalog,
        parameters={
            "documents": documents,
            "items_per_document": items_per_document,
            "depth": depth,
            "sellers": sellers,
            "seed": seed,
            "table_name": table_name,
        },
    )
    for index, (stem, description, steps) in enumerate(_query_pool(table_name)):
        sql = axis_query(table_name, steps, distinct=True)
        axes_used = tuple(sorted({step.axis for step in steps[1:]}))
        workload.queries.append(
            WorkloadQuery(
                name=f"ax{index:02d}_{stem}",
                query=parse_query(sql, catalog),
                description=description,
                tags=("axes", *axes_used),
            )
        )
    return workload
