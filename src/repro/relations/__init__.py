"""Relational substrate: relations, index backends, and the database catalog."""

from repro.relations.database import (
    DEFAULT_BACKEND,
    INDEX_BACKENDS,
    Database,
    WarmReport,
    build_index,
)
from repro.relations.relation import Relation, Row, Value, union_all
from repro.relations.sorted_index import SortedArrayIndex, SortedTrieIterator
from repro.relations.trie import TrieIndex

__all__ = [
    "DEFAULT_BACKEND",
    "Database",
    "INDEX_BACKENDS",
    "Relation",
    "Row",
    "SortedArrayIndex",
    "SortedTrieIterator",
    "TrieIndex",
    "Value",
    "WarmReport",
    "build_index",
    "union_all",
]
