"""Unit tests for the catalog and CSV loading."""

import pytest

from repro.errors import CatalogError, SchemaError
from repro.storage.catalog import Catalog
from repro.storage.column import ColumnType
from benchmarks.paper.experiments_storage import save_csv
from repro.storage.loader import load_csv
from repro.storage.table import Table


class TestCatalog:
    def test_add_and_get(self):
        catalog = Catalog()
        catalog.add_table(Table("t", {"a": [1]}))
        assert catalog.table("t").num_rows == 1
        assert catalog.has_table("t")
        assert catalog.table_names() == ["t"]
        assert len(catalog) == 1

    def test_duplicate_add_raises(self):
        catalog = Catalog()
        catalog.add_table(Table("t", {"a": [1]}))
        with pytest.raises(CatalogError):
            catalog.add_table(Table("t", {"a": [2]}))

    def test_replace(self):
        catalog = Catalog()
        catalog.add_table(Table("t", {"a": [1]}))
        catalog.add_table(Table("t", {"a": [1, 2]}), replace=True)
        assert catalog.table("t").num_rows == 2

    def test_missing_table_raises(self):
        with pytest.raises(CatalogError):
            Catalog().table("nope")

    def test_drop(self):
        catalog = Catalog()
        catalog.add_table(Table("t", {"a": [1]}))
        catalog.drop_table("t")
        assert not catalog.has_table("t")
        with pytest.raises(CatalogError):
            catalog.drop_table("t")

    def test_iteration(self):
        catalog = Catalog()
        catalog.add_table(Table("a", {"x": [1]}))
        catalog.add_table(Table("b", {"x": [1]}))
        assert sorted(table.name for table in catalog) == ["a", "b"]


class TestCsvLoader:
    def test_round_trip(self, tmp_path):
        table = Table("t", {"id": [1, 2], "name": ["x", "y"], "score": [1.5, 2.5]})
        path = tmp_path / "t.csv"
        save_csv(table, path)
        loaded = load_csv(path)
        assert loaded.name == "t"
        assert loaded.column("id").values() == [1, 2]
        assert loaded.column("name").values() == ["x", "y"]
        assert loaded.column("score").values() == [1.5, 2.5]

    def test_type_inference_falls_back_to_string(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("a,b\n1,x\n2,y\n")
        loaded = load_csv(path, "mixed")
        assert loaded.column("a").ctype is ColumnType.INT
        assert loaded.column("b").ctype is ColumnType.STRING

    def test_explicit_schema(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("a\n1\n2\n")
        loaded = load_csv(path, schema={"a": ColumnType.FLOAT})
        assert loaded.column("a").ctype is ColumnType.FLOAT

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            load_csv(path)

    def test_ragged_rows_raise(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(SchemaError):
            load_csv(path)
