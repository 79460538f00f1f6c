"""The one cache of derived values, against a plain-dict model.

:class:`~repro.engine.versioned_lru.VersionedLru` holds every parse, filter,
join map, edge, result and order prior.  Over random sequences of puts,
gets, table replacements and drops, and UDF re-registrations, at every
step:

* the bytes held never exceed :data:`~repro.engine.versioned_lru.MAX_BYTES`
  and equal the entries' charges;
* no stale value is returned;
* an entry larger than the bound is never kept;
* eviction takes the least recently used entry first (the held keys, in
  order, are the model's);
* ``invalidations`` counts exactly the stale entries dropped.

And over interleaved puts and re-puts of a few keys at new sizes, a put
that cannot stay evicts no other entry, and one that stays evicts only as
many of the least recently used as it must.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import versioned_lru
from repro.engine.versioned_lru import ENTRY_BYTES, VersionedLru
from repro.query.udf import UdfRegistry
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from tests.conftest import lru_items

BOUND = 4 * ENTRY_BYTES

KEYS = st.integers(0, 5)
TABLE_NAMES = st.sampled_from(["a", "b", "c"])
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), KEYS,
                  st.lists(TABLE_NAMES, max_size=2, unique=True).map(tuple),
                  st.integers(0, BOUND)),
        st.tuples(st.just("get"), KEYS),
        st.tuples(st.just("replace"), TABLE_NAMES),
        st.tuples(st.just("drop"), TABLE_NAMES),
        st.tuples(st.just("udf")),
    ),
    max_size=60,
)


class Model:
    """What the cache should hold: key -> (tables, versions, charge), in
    least-recently-used order, with its counters."""

    def __init__(self, versions) -> None:
        self.versions = versions
        self.entries: dict = {}
        self.hits = self.misses = self.invalidations = 0

    def sync(self) -> None:
        stale = [key for key, (tables, versions, _) in self.entries.items()
                 if self.versions(tables) != versions]
        for key in stale:
            del self.entries[key]
        self.invalidations += len(stale)

    def get(self, key) -> bool:
        if key not in self.entries:
            self.misses += 1
            return False
        self.entries[key] = self.entries.pop(key)
        self.hits += 1
        return True

    def put(self, key, tables, nbytes) -> None:
        self.entries.pop(key, None)
        charge = nbytes + ENTRY_BYTES
        if charge > BOUND:
            return
        self.entries[key] = (tables, self.versions(tables), charge)
        while sum(charge for _, _, charge in self.entries.values()) > BOUND:
            del self.entries[next(iter(self.entries))]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(OPERATIONS)
def test_the_cache_matches_a_plain_dict_model(operations):
    catalog = Catalog()
    for name in ("a", "b"):
        catalog.add_table(Table(name, {"x": [1]}))
    udfs = UdfRegistry()

    def versions(tables):
        return (udfs.version, *(catalog.version(name) if catalog.has_table(name) else None
                                for name in tables))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(versioned_lru, "MAX_BYTES", BOUND)
        cache = VersionedLru(catalog, udfs)
        model = Model(versions)
        for operation in operations:
            kind = operation[0]
            if kind == "put":
                _, key, tables, nbytes = operation
                cache.put(key, (key, versions(tables)), tables, nbytes)
                model.put(key, tables, nbytes)
                if nbytes + ENTRY_BYTES > BOUND:
                    assert key not in dict(lru_items(cache))
            elif kind == "get":
                key = operation[1]
                value = cache.get(key)
                assert (value is not None) == model.get(key)
                if value is not None:
                    stored_key, stored_versions = value
                    tables = model.entries[key][0]
                    assert stored_key == key and stored_versions == versions(tables)
            elif kind == "replace":
                catalog.add_table(Table(operation[1], {"x": [2]}), replace=True)
            elif kind == "drop":
                if catalog.has_table(operation[1]):
                    catalog.drop_table(operation[1])
            else:
                udfs.register("keep", abs, replace=True)
            model.sync()
            held = list(lru_items(cache))
            assert [key for key, _ in held] == list(model.entries)
            assert [(entry.tables, entry.versions, entry.nbytes) for _, entry in held] == list(
                model.entries.values())
            assert cache.nbytes == sum(entry.nbytes for _, entry in held) <= BOUND
            assert cache.counters() == {
                "entries": len(model.entries),
                "hits": model.hits,
                "misses": model.misses,
                "invalidations": model.invalidations,
            }



@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.tuples(st.just("put"), st.integers(0, 3), st.integers(0, 2 * BOUND)),
                          st.tuples(st.just("get"), st.integers(0, 3))), max_size=40))
def test_a_put_that_cannot_stay_evicts_no_other_entry(operations):
    catalog = Catalog()
    catalog.add_table(Table("a", {"x": [1]}))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(versioned_lru, "MAX_BYTES", BOUND)
        cache = VersionedLru(catalog)
        for operation in operations:
            if operation[0] == "get":
                cache.get(operation[1])
                continue
            _, key, nbytes = operation
            others = [(held, entry.nbytes) for held, entry in lru_items(cache) if held != key]
            cache.put(key, key, ("a",), nbytes)
            after = [(held, entry.nbytes) for held, entry in lru_items(cache)]
            assert cache.nbytes == sum(charge for _, charge in after) <= BOUND
            if nbytes + ENTRY_BYTES > BOUND:
                assert after == others, "a refused put evicted another entry"
                continue
            assert after[-1] == (key, nbytes + ENTRY_BYTES)
            kept = after[:-1]
            evicted = others[:len(others) - len(kept)]
            assert kept == others[len(evicted):]
            if evicted:  # one fewer eviction would not have fit
                assert sum(charge for _, charge in after) + evicted[-1][1] > BOUND
