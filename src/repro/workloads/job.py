"""A synthetic analogue of the Join Order Benchmark (JOB).

The real JOB runs 113 queries against the IMDB dataset; its defining
property is that real-world correlation and skew make a handful of plans
catastrophically worse than estimated.  This module generates an IMDB-like
snowflake schema — a ``title`` fact table, large skewed fact-side tables
(``cast_info``, ``movie_info``, ``movie_keyword``, ``movie_companies``) and
small dimensions — with two planted hazards:

* **skewed join keys**: ``movie_id`` columns follow a Zipf distribution, so
  joining two fact-side tables before filtering explodes on the head movies;
* **correlated filters**: predicate pairs whose actual joint selectivity is
  an order of magnitude higher than the independence-based estimate, so the
  traditional optimizer believes the badly-filtered table is tiny and joins
  it too early.

The query mix mirrors the benchmark's structure: most queries are handled
fine by a traditional optimizer, while a few (tagged ``hazard``) produce the
catastrophic plans that dominate total execution time in Table 1/Figure 6.
"""

from __future__ import annotations

from repro.query.expressions import Star
from repro.query.predicates import (
    Predicate,
    column_compare_literal,
    column_equals_column,
)
from repro.query.query import AggregateSpec, Query, SelectItem
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.workloads.generators import (
    Workload,
    WorkloadQuery,
    choice_strings,
    correlated_column,
    make_rng,
    uniform_keys,
    zipf_keys,
)

_COUNTRIES = ["us", "uk", "de", "fr", "jp", "in", "it", "ca"]
_GENDERS = ["m", "f"]
_KINDS = ["movie", "tv", "video", "short", "doc", "game"]


def make_job_workload(scale: float = 1.0, seed: int = 13) -> Workload:
    """Build the JOB-analogue catalog and query mix.

    Parameters
    ----------
    scale:
        Multiplies all table sizes; 1.0 keeps the benchmark laptop-friendly
        (a few thousand fact rows), which is enough to reproduce the
        *relative* behaviour the paper reports.
    seed:
        Seed for the deterministic data generator.
    """
    rng = make_rng(seed)
    catalog = Catalog()
    sizes = _sizes(scale)

    n_title = sizes["title"]
    kind_id = uniform_keys(rng, n_title, len(_KINDS))
    # Correlation hazard #1: kind 1 titles are all recent, others span decades.
    production_year = rng.integers(1930, 2011, size=n_title)
    production_year = production_year.copy()
    production_year[kind_id == 1] = rng.integers(1990, 2011, size=int((kind_id == 1).sum()))
    votes = zipf_keys(rng, n_title, 1000, skew=1.1) + 1
    catalog.add_table(Table("title", {
        "id": list(range(n_title)),
        "kind_id": kind_id.tolist(),
        "production_year": production_year.tolist(),
        "votes": votes.tolist(),
    }))

    n_mi = sizes["movie_info"]
    mi_movie = zipf_keys(rng, n_mi, n_title, skew=1.5)
    mi_type = uniform_keys(rng, n_mi, sizes["info_type"])
    # Correlation hazard #2: info type 5 always carries a high info_val, so
    # "info_type_id = 5 AND info_val > 90" is ~10x more selective on paper
    # than in reality.
    mi_val = rng.integers(0, 101, size=n_mi)
    mi_val[mi_type == 5] = rng.integers(91, 101, size=int((mi_type == 5).sum()))
    catalog.add_table(Table("movie_info", {
        "movie_id": mi_movie.tolist(),
        "info_type_id": mi_type.tolist(),
        "info_val": mi_val.tolist(),
    }))

    n_ci = sizes["cast_info"]
    ci_movie = zipf_keys(rng, n_ci, n_title, skew=1.5)
    ci_person = zipf_keys(rng, n_ci, sizes["name"], skew=1.1)
    ci_role = uniform_keys(rng, n_ci, sizes["role_type"])
    catalog.add_table(Table("cast_info", {
        "movie_id": ci_movie.tolist(),
        "person_id": ci_person.tolist(),
        "role_id": ci_role.tolist(),
    }))

    n_mk = sizes["movie_keyword"]
    mk_movie = zipf_keys(rng, n_mk, n_title, skew=1.45)
    # Skew hazard: low keyword ids are used by most movies, high ("tail")
    # keyword ids are rare.  Filters selecting tail keywords are much more
    # selective than the uniform join-selectivity estimate suggests.
    mk_keyword = zipf_keys(rng, n_mk, sizes["keyword"], skew=1.1)
    catalog.add_table(Table("movie_keyword", {
        "movie_id": mk_movie.tolist(),
        "keyword_id": mk_keyword.tolist(),
    }))

    n_mc = sizes["movie_companies"]
    mc_movie = zipf_keys(rng, n_mc, n_title, skew=1.4)
    mc_company = zipf_keys(rng, n_mc, sizes["company_name"], skew=1.1)
    mc_type = correlated_column(rng, mc_company, sizes["company_type"], correlation=0.9)
    catalog.add_table(Table("movie_companies", {
        "movie_id": mc_movie.tolist(),
        "company_id": mc_company.tolist(),
        "company_type_id": mc_type.tolist(),
    }))

    n_cn = sizes["company_name"]
    # Companies with high ids are the rarely-referenced tail of the Zipf
    # distribution above; they are all Italian, so "country_code = 'it'"
    # looks ordinary to the optimizer but joins to almost nothing.
    tail_start_cn = int(n_cn * 0.85)
    country = choice_strings(rng, n_cn, _COUNTRIES[:6], [4, 2, 1, 1, 1, 1])
    country = ["it" if i >= tail_start_cn else c for i, c in enumerate(country)]
    catalog.add_table(Table("company_name", {
        "id": list(range(n_cn)),
        "country_code": country,
    }))

    n_kw = sizes["keyword"]
    # Keyword group 11 is reserved for the tail keywords (high ids): filters
    # on it are accurately estimated as "a few keywords" but those keywords
    # barely occur in movie_keyword, so the true join result is tiny.
    tail_start_kw = int(n_kw * 0.88)
    keyword_group = uniform_keys(rng, n_kw, 11).tolist()
    keyword_group = [11 if i >= tail_start_kw else g for i, g in enumerate(keyword_group)]
    catalog.add_table(Table("keyword", {
        "id": list(range(n_kw)),
        "keyword_group": keyword_group,
    }))

    n_name = sizes["name"]
    catalog.add_table(Table("name", {
        "id": list(range(n_name)),
        "gender": choice_strings(rng, n_name, _GENDERS),
    }))

    catalog.add_table(Table("info_type", {
        "id": list(range(sizes["info_type"])),
        "info": [f"info_{i}" for i in range(sizes["info_type"])],
    }))
    catalog.add_table(Table("kind_type", {
        "id": list(range(len(_KINDS))),
        "kind": list(_KINDS),
    }))
    catalog.add_table(Table("company_type", {
        "id": list(range(sizes["company_type"])),
        "kind": [f"ctype_{i}" for i in range(sizes["company_type"])],
    }))
    catalog.add_table(Table("role_type", {
        "id": list(range(sizes["role_type"])),
        "role": [f"role_{i}" for i in range(sizes["role_type"])],
    }))

    workload = Workload(name="job", catalog=catalog,
                        parameters={"scale": scale, "seed": seed})
    workload.queries = _make_queries(sizes)
    return workload


def _sizes(scale: float) -> dict[str, int]:
    def scaled(base: int) -> int:
        return max(4, int(base * scale))

    return {
        "title": scaled(700),
        "movie_info": scaled(2200),
        "cast_info": scaled(2200),
        "movie_keyword": scaled(1600),
        "movie_companies": scaled(1200),
        "company_name": scaled(90),
        "keyword": scaled(110),
        "name": scaled(260),
        "info_type": 10,
        "company_type": 4,
        "role_type": 8,
    }


# ----------------------------------------------------------------------
# query construction helpers
# ----------------------------------------------------------------------
def _count_star() -> tuple[SelectItem, ...]:
    return (SelectItem(aggregate=AggregateSpec("count", Star()), alias="matches"),)


def _query(
    name: str,
    tables: list[tuple[str, str]],
    predicates: list[Predicate],
    description: str,
    tags: tuple[str, ...] = (),
) -> WorkloadQuery:
    query = Query(
        tables=tuple(tables),
        predicates=tuple(predicates),
        select_items=_count_star(),
    )
    return WorkloadQuery(name=name, query=query, description=description, tags=tags)


def _make_queries(sizes: dict[str, int]) -> list[WorkloadQuery]:
    queries: list[WorkloadQuery] = []
    # Tail thresholds: entities above these ids sit in the tail of the Zipf
    # reference distributions, so filters selecting them are far more
    # selective than the uniform join-selectivity estimate suggests.
    name_tail = int(sizes["name"] * 0.82)

    # --- easy star joins (a traditional optimizer does fine here) --------
    queries.append(_query(
        "job_q01",
        [("t", "title"), ("kt", "kind_type")],
        [column_equals_column("t", "kind_id", "kt", "id"),
         column_compare_literal("kt", "kind", "=", "movie"),
         column_compare_literal("t", "production_year", ">", 2000)],
        "recent movies by kind", ("easy",),
    ))
    queries.append(_query(
        "job_q02",
        [("t", "title"), ("mc", "movie_companies"), ("cn", "company_name")],
        [column_equals_column("mc", "movie_id", "t", "id"),
         column_equals_column("mc", "company_id", "cn", "id"),
         column_compare_literal("cn", "country_code", "=", "de")],
        "movies by german companies", ("easy",),
    ))
    queries.append(_query(
        "job_q03",
        [("t", "title"), ("mk", "movie_keyword"), ("k", "keyword")],
        [column_equals_column("mk", "movie_id", "t", "id"),
         column_equals_column("mk", "keyword_id", "k", "id"),
         column_compare_literal("k", "keyword_group", "=", 3),
         column_compare_literal("t", "production_year", "<", 1960)],
        "old movies with keyword group 3", ("easy",),
    ))
    queries.append(_query(
        "job_q04",
        [("t", "title"), ("ci", "cast_info"), ("rt", "role_type")],
        [column_equals_column("ci", "movie_id", "t", "id"),
         column_equals_column("ci", "role_id", "rt", "id"),
         column_compare_literal("rt", "role", "=", "role_2"),
         column_compare_literal("t", "votes", ">", 500)],
        "high-vote titles with role 2", ("easy",),
    ))
    queries.append(_query(
        "job_q05",
        [("t", "title"), ("mi", "movie_info"), ("it", "info_type")],
        [column_equals_column("mi", "movie_id", "t", "id"),
         column_equals_column("mi", "info_type_id", "it", "id"),
         column_compare_literal("it", "info", "=", "info_2"),
         column_compare_literal("t", "kind_id", "=", 2)],
        "info rows of kind-2 titles", ("easy",),
    ))

    # --- medium snowflakes -----------------------------------------------
    queries.append(_query(
        "job_q06",
        [("t", "title"), ("mc", "movie_companies"), ("cn", "company_name"),
         ("ct", "company_type")],
        [column_equals_column("mc", "movie_id", "t", "id"),
         column_equals_column("mc", "company_id", "cn", "id"),
         column_equals_column("mc", "company_type_id", "ct", "id"),
         column_compare_literal("cn", "country_code", "=", "uk"),
         column_compare_literal("ct", "kind", "=", "ctype_1"),
         column_compare_literal("t", "production_year", ">", 1990)],
        "uk productions of type 1", ("medium",),
    ))
    queries.append(_query(
        "job_q07",
        [("t", "title"), ("ci", "cast_info"), ("n", "name"), ("kt", "kind_type")],
        [column_equals_column("ci", "movie_id", "t", "id"),
         column_equals_column("ci", "person_id", "n", "id"),
         column_equals_column("t", "kind_id", "kt", "id"),
         column_compare_literal("n", "gender", "=", "f"),
         column_compare_literal("kt", "kind", "=", "doc")],
        "documentaries with female cast", ("medium",),
    ))
    queries.append(_query(
        "job_q08",
        [("t", "title"), ("mk", "movie_keyword"), ("k", "keyword"),
         ("mc", "movie_companies"), ("cn", "company_name")],
        [column_equals_column("mk", "movie_id", "t", "id"),
         column_equals_column("mk", "keyword_id", "k", "id"),
         column_equals_column("mc", "movie_id", "t", "id"),
         column_equals_column("mc", "company_id", "cn", "id"),
         column_compare_literal("k", "keyword_group", "=", 7),
         column_compare_literal("cn", "country_code", "=", "jp")],
        "japanese movies with keyword group 7", ("medium",),
    ))
    queries.append(_query(
        "job_q09",
        [("t", "title"), ("mi", "movie_info"), ("it", "info_type"),
         ("mk", "movie_keyword"), ("k", "keyword")],
        [column_equals_column("mi", "movie_id", "t", "id"),
         column_equals_column("mi", "info_type_id", "it", "id"),
         column_equals_column("mk", "movie_id", "t", "id"),
         column_equals_column("mk", "keyword_id", "k", "id"),
         column_compare_literal("it", "info", "=", "info_7"),
         column_compare_literal("k", "keyword_group", "=", 1),
         column_compare_literal("t", "production_year", ">", 1985)],
        "keyworded info rows of recent titles", ("medium",),
    ))
    queries.append(_query(
        "job_q10",
        [("t", "title"), ("ci", "cast_info"), ("n", "name"), ("rt", "role_type"),
         ("kt", "kind_type")],
        [column_equals_column("ci", "movie_id", "t", "id"),
         column_equals_column("ci", "person_id", "n", "id"),
         column_equals_column("ci", "role_id", "rt", "id"),
         column_equals_column("t", "kind_id", "kt", "id"),
         column_compare_literal("rt", "role", "=", "role_5"),
         column_compare_literal("kt", "kind", "=", "short"),
         column_compare_literal("n", "gender", "=", "m")],
        "male role-5 cast of shorts", ("medium",),
    ))

    # --- larger joins ------------------------------------------------------
    queries.append(_query(
        "job_q11",
        [("t", "title"), ("mc", "movie_companies"), ("cn", "company_name"),
         ("ct", "company_type"), ("mk", "movie_keyword"), ("k", "keyword")],
        [column_equals_column("mc", "movie_id", "t", "id"),
         column_equals_column("mc", "company_id", "cn", "id"),
         column_equals_column("mc", "company_type_id", "ct", "id"),
         column_equals_column("mk", "movie_id", "t", "id"),
         column_equals_column("mk", "keyword_id", "k", "id"),
         column_compare_literal("cn", "country_code", "=", "fr"),
         column_compare_literal("k", "keyword_group", "=", 9),
         column_compare_literal("t", "production_year", ">", 1970)],
        "french keyworded productions", ("large",),
    ))
    queries.append(_query(
        "job_q12",
        [("t", "title"), ("ci", "cast_info"), ("n", "name"), ("mi", "movie_info"),
         ("it", "info_type"), ("kt", "kind_type")],
        [column_equals_column("ci", "movie_id", "t", "id"),
         column_equals_column("ci", "person_id", "n", "id"),
         column_equals_column("mi", "movie_id", "t", "id"),
         column_equals_column("mi", "info_type_id", "it", "id"),
         column_equals_column("t", "kind_id", "kt", "id"),
         column_compare_literal("it", "info", "=", "info_3"),
         column_compare_literal("kt", "kind", "=", "tv"),
         column_compare_literal("n", "gender", "=", "f")],
        "tv cast and info", ("large",),
    ))
    queries.append(_query(
        "job_q13",
        [("t", "title"), ("mk", "movie_keyword"), ("k", "keyword"),
         ("ci", "cast_info"), ("rt", "role_type"), ("n", "name"),
         ("kt", "kind_type")],
        [column_equals_column("mk", "movie_id", "t", "id"),
         column_equals_column("mk", "keyword_id", "k", "id"),
         column_equals_column("ci", "movie_id", "t", "id"),
         column_equals_column("ci", "role_id", "rt", "id"),
         column_equals_column("ci", "person_id", "n", "id"),
         column_equals_column("t", "kind_id", "kt", "id"),
         column_compare_literal("k", "keyword_group", "=", 4),
         column_compare_literal("rt", "role", "=", "role_1"),
         column_compare_literal("kt", "kind", "=", "movie"),
         column_compare_literal("t", "votes", ">", 300)],
        "seven-table snowflake", ("large",),
    ))

    # --- hazard queries: correlation + skew mislead the optimizer ----------
    # Pattern: the filter on movie_info (or title) is under-estimated ~10x
    # because of column correlation, which lures the optimizer into starting
    # from the fact side and joining the heavily skewed cast_info /
    # movie_companies tables before the genuinely selective tail-entity
    # dimension filter gets a chance to prune.
    queries.append(_query(
        "job_q14",
        [("mi", "movie_info"), ("t", "title"), ("ci", "cast_info"), ("n", "name")],
        [column_equals_column("mi", "movie_id", "t", "id"),
         column_equals_column("ci", "movie_id", "t", "id"),
         column_equals_column("ci", "person_id", "n", "id"),
         column_compare_literal("mi", "info_type_id", "=", 5),
         column_compare_literal("mi", "info_val", ">", 90),
         column_compare_literal("n", "id", ">", name_tail),
         column_compare_literal("n", "gender", "=", "f")],
        "correlated movie_info filter with skewed cast_info and tail persons",
        ("hazard",),
    ))
    queries.append(_query(
        "job_q15",
        [("mi", "movie_info"), ("t", "title"), ("mc", "movie_companies"),
         ("cn", "company_name")],
        [column_equals_column("mi", "movie_id", "t", "id"),
         column_equals_column("mc", "movie_id", "t", "id"),
         column_equals_column("mc", "company_id", "cn", "id"),
         column_compare_literal("mi", "info_type_id", "=", 5),
         column_compare_literal("mi", "info_val", ">", 92),
         column_compare_literal("cn", "country_code", "=", "it")],
        "correlated filter with skewed movie_companies and tail companies",
        ("hazard",),
    ))
    queries.append(_query(
        "job_q16",
        [("mi", "movie_info"), ("t", "title"), ("ci", "cast_info"),
         ("n", "name"), ("rt", "role_type")],
        [column_equals_column("mi", "movie_id", "t", "id"),
         column_equals_column("ci", "movie_id", "t", "id"),
         column_equals_column("ci", "person_id", "n", "id"),
         column_equals_column("ci", "role_id", "rt", "id"),
         column_compare_literal("mi", "info_type_id", "=", 5),
         column_compare_literal("mi", "info_val", ">", 91),
         column_compare_literal("rt", "role", "=", "role_3"),
         column_compare_literal("n", "id", ">", name_tail)],
        "correlated info filter with tail persons and role dimension", ("hazard",),
    ))

    # --- remaining mixed queries -------------------------------------------
    queries.append(_query(
        "job_q17",
        [("t", "title"), ("mi", "movie_info"), ("mk", "movie_keyword")],
        [column_equals_column("mi", "movie_id", "t", "id"),
         column_equals_column("mk", "movie_id", "t", "id"),
         column_compare_literal("t", "votes", ">", 800),
         column_compare_literal("mi", "info_val", ">", 95)],
        "two fact joins with weak filters", ("medium",),
    ))
    queries.append(_query(
        "job_q18",
        [("t", "title"), ("mc", "movie_companies"), ("ct", "company_type")],
        [column_equals_column("mc", "movie_id", "t", "id"),
         column_equals_column("mc", "company_type_id", "ct", "id"),
         column_compare_literal("ct", "kind", "=", "ctype_0"),
         column_compare_literal("t", "production_year", "<", 1945)],
        "early productions by company type", ("easy",),
    ))
    queries.append(_query(
        "job_q19",
        [("ci", "cast_info"), ("n", "name"), ("t", "title"), ("mk", "movie_keyword")],
        [column_equals_column("ci", "person_id", "n", "id"),
         column_equals_column("ci", "movie_id", "t", "id"),
         column_equals_column("mk", "movie_id", "t", "id"),
         column_compare_literal("n", "gender", "=", "f"),
         column_compare_literal("t", "kind_id", "=", 4)],
        "female cast of kind-4 titles with keywords", ("medium",),
    ))
    queries.append(_query(
        "job_q20",
        [("t", "title"), ("mi", "movie_info"), ("it", "info_type"),
         ("mc", "movie_companies"), ("cn", "company_name"), ("ct", "company_type"),
         ("kt", "kind_type")],
        [column_equals_column("mi", "movie_id", "t", "id"),
         column_equals_column("mi", "info_type_id", "it", "id"),
         column_equals_column("mc", "movie_id", "t", "id"),
         column_equals_column("mc", "company_id", "cn", "id"),
         column_equals_column("mc", "company_type_id", "ct", "id"),
         column_equals_column("t", "kind_id", "kt", "id"),
         column_compare_literal("it", "info", "=", "info_9"),
         column_compare_literal("cn", "country_code", "=", "us"),
         column_compare_literal("ct", "kind", "=", "ctype_2"),
         column_compare_literal("kt", "kind", "=", "game")],
        "seven-table dimension-heavy join", ("large",),
    ))
    return queries
