"""In-memory document store (the MongoDB stand-in).

Stores id-keyed documents (plain dicts) — user profiles with attributes
like ``self_description`` — and supports simple field-equality and
predicate queries, which is all the aggregate-estimation pipeline needs.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, Hashable, Iterator, List, Mapping, Optional

from repro.errors import DataStoreError, DocumentNotFoundError

# Immutable value types a returned copy may share with the stored document.
_ATOMIC = frozenset({int, float, str, bool, type(None), bytes})


def _copy_document(doc: Mapping) -> dict:
    """A copy of ``doc`` indistinguishable from ``copy.deepcopy(doc)``.

    Atomic top-level values are handed back by reference; only container
    values are deep-copied, through one memo for the whole document, so
    two fields aliasing one list come back aliased, as under a deepcopy.
    """
    out: dict = {}
    memo = {id(doc): out}
    for key, value in doc.items():
        out[key] = value if type(value) in _ATOMIC else copy.deepcopy(value, memo)
    return out


class DocumentStore:
    """Collection of documents keyed by id.

    Documents go in and come out as copies equal to a deep copy, so
    callers can never corrupt the store through shared references
    (matching the serialization boundary a real document database
    imposes); only immutable top-level values are shared.
    """

    def __init__(self) -> None:
        self._docs: Dict[Hashable, dict] = {}

    def insert(self, doc_id: Hashable, document: Mapping) -> None:
        """Insert a new document.

        Raises:
            DataStoreError: If ``doc_id`` already exists (use
                :meth:`upsert` to overwrite).
        """
        if doc_id in self._docs:
            raise DataStoreError(f"document {doc_id!r} already exists")
        self._docs[doc_id] = _copy_document(document)

    def upsert(self, doc_id: Hashable, document: Mapping) -> None:
        """Insert or replace the document under ``doc_id``."""
        self._docs[doc_id] = _copy_document(document)

    def update(self, doc_id: Hashable, fields: Mapping) -> None:
        """Merge ``fields`` into an existing document.

        Raises:
            DocumentNotFoundError: If ``doc_id`` is absent.
        """
        if doc_id not in self._docs:
            raise DocumentNotFoundError(doc_id)
        self._docs[doc_id].update(_copy_document(fields))

    def get(self, doc_id: Hashable) -> dict:
        """Fetch a document copy.

        Raises:
            DocumentNotFoundError: If ``doc_id`` is absent.
        """
        try:
            return _copy_document(self._docs[doc_id])
        except KeyError:
            raise DocumentNotFoundError(doc_id) from None

    def get_or_none(self, doc_id: Hashable) -> Optional[dict]:
        """Fetch a document copy or ``None`` if absent."""
        doc = self._docs.get(doc_id)
        return _copy_document(doc) if doc is not None else None

    def delete(self, doc_id: Hashable) -> bool:
        """Remove a document; returns whether it existed."""
        return self._docs.pop(doc_id, None) is not None

    def __contains__(self, doc_id: Hashable) -> bool:
        return doc_id in self._docs

    def __len__(self) -> int:
        return len(self._docs)

    def ids(self) -> Iterator[Hashable]:
        """Iterate over document ids."""
        return iter(self._docs)

    def find(self, **equals: object) -> List[dict]:
        """All documents whose fields equal the given keyword values.

        Example:
            >>> store = DocumentStore()
            >>> store.insert(1, {"name": "a", "active": True})
            >>> store.insert(2, {"name": "b", "active": False})
            >>> [d["name"] for d in store.find(active=True)]
            ['a']
        """
        out = []
        for doc in self._docs.values():
            if all(doc.get(field) == value for field, value in equals.items()):
                out.append(_copy_document(doc))
        return out

    def find_where(self, predicate: Callable[[dict], bool]) -> List[dict]:
        """All documents satisfying an arbitrary predicate.

        The predicate receives the *stored* document (not a copy) for speed;
        it must not mutate it.  Matches are returned as copies.
        """
        return [_copy_document(d) for d in self._docs.values() if predicate(d)]

    def count(self, predicate: Optional[Callable[[dict], bool]] = None) -> int:
        """Number of documents, optionally filtered by ``predicate``."""
        if predicate is None:
            return len(self._docs)
        return sum(1 for d in self._docs.values() if predicate(d))
