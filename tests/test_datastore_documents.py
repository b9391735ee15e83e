"""Unit tests for the document store (MongoDB stand-in)."""

import pytest

from repro.datastore import DocumentStore
from repro.errors import DataStoreError, DocumentNotFoundError


class TestCrud:
    def test_insert_get(self):
        store = DocumentStore()
        store.insert(1, {"name": "alice"})
        assert store.get(1) == {"name": "alice"}

    def test_insert_duplicate_raises(self):
        store = DocumentStore()
        store.insert(1, {})
        with pytest.raises(DataStoreError):
            store.insert(1, {})

    def test_upsert_overwrites(self):
        store = DocumentStore()
        store.upsert(1, {"v": 1})
        store.upsert(1, {"v": 2})
        assert store.get(1)["v"] == 2

    def test_update_merges(self):
        store = DocumentStore()
        store.insert(1, {"a": 1})
        store.update(1, {"b": 2})
        assert store.get(1) == {"a": 1, "b": 2}

    def test_update_missing_raises(self):
        with pytest.raises(DocumentNotFoundError):
            DocumentStore().update(1, {})

    def test_get_missing_raises(self):
        with pytest.raises(DocumentNotFoundError):
            DocumentStore().get(1)

    def test_get_or_none(self):
        store = DocumentStore()
        assert store.get_or_none(1) is None
        store.insert(1, {"x": 1})
        assert store.get_or_none(1) == {"x": 1}

    def test_delete(self):
        store = DocumentStore()
        store.insert(1, {})
        assert store.delete(1) is True
        assert store.delete(1) is False

    def test_contains_len_ids(self):
        store = DocumentStore()
        store.insert("u1", {})
        assert "u1" in store
        assert len(store) == 1
        assert list(store.ids()) == ["u1"]


class TestIsolation:
    def test_stored_copy_insulated_from_caller(self):
        doc = {"tags": ["a"]}
        store = DocumentStore()
        store.insert(1, doc)
        doc["tags"].append("b")
        assert store.get(1)["tags"] == ["a"]

    def test_returned_copy_insulated_from_store(self):
        store = DocumentStore()
        store.insert(1, {"tags": ["a"]})
        fetched = store.get(1)
        fetched["tags"].append("b")
        assert store.get(1)["tags"] == ["a"]

    def test_nested_list_insulated_from_store(self):
        store = DocumentStore()
        store.insert(1, {"name": "a", "groups": [["x"], ["y"]]})
        fetched = store.get_or_none(1)
        fetched["groups"][0].append("z")
        assert store.get(1)["groups"] == [["x"], ["y"]]

    def test_aliased_fields_come_back_aliased(self):
        shared = ["a"]
        store = DocumentStore()
        store.insert(1, {"tags": shared, "labels": shared, "deg": 3})
        for fetched in (store.get(1), store.get_or_none(1)):
            # as under copy.deepcopy of the whole document
            assert fetched["tags"] is fetched["labels"]
            fetched["tags"].append("b")
            assert fetched["labels"] == ["a", "b"]
        assert store.get(1) == {"tags": ["a"], "labels": ["a"], "deg": 3}


class TestQueries:
    def _populated(self) -> DocumentStore:
        store = DocumentStore()
        store.insert(1, {"deg": 3, "active": True})
        store.insert(2, {"deg": 5, "active": False})
        store.insert(3, {"deg": 3, "active": False})
        return store

    def test_find_equality(self):
        store = self._populated()
        assert len(store.find(deg=3)) == 2
        assert len(store.find(deg=3, active=True)) == 1
        assert store.find(deg=99) == []

    def test_find_where(self):
        store = self._populated()
        assert len(store.find_where(lambda d: d["deg"] > 3)) == 1

    def test_count(self):
        store = self._populated()
        assert store.count() == 3
        assert store.count(lambda d: not d["active"]) == 2
