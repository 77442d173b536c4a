"""Byte-accounting invariants of the index cache.

``Database.cache_info()`` reports ``bytes_total`` (a running counter
maintained on insert/evict/invalidate) and ``bytes_by_backend`` (summed
from the resident entries at snapshot time).  These must never drift:
the per-backend breakdown always sums to the total, and every path that
removes an entry — GreedyDual-Size eviction, relation replacement,
relation removal — gives the entry's bytes back.
"""

import pytest

from repro.relations.database import Database
from repro.relations.relation import Relation

BACKENDS = ("trie", "sorted", "compact")


def _relation(name: str, rows: int, offset: int = 0) -> Relation:
    return Relation(
        name,
        ("A", "B"),
        [(offset + i, offset + i * 2) for i in range(rows)],
    )


def _assert_consistent(db: Database) -> None:
    """The invariants every snapshot must satisfy."""
    info = db.cache_info()
    assert sum(info.bytes_by_backend.values()) == info.bytes_total
    assert all(v > 0 for v in info.bytes_by_backend.values())
    assert info.bytes_total >= 0
    assert info.entries >= len(info.bytes_by_backend) or info.entries == 0


@pytest.fixture
def db():
    return Database([_relation("R", 50), _relation("S", 30, offset=100)])


class TestInsertAccounting:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_single_insert_measures_bytes(self, db, kind):
        index = db.index("R", ("A", "B"), kind)
        info = db.cache_info()
        assert info.bytes_total == index.nbytes()
        assert info.bytes_by_backend == {kind: index.nbytes()}
        _assert_consistent(db)

    def test_mixed_backends_sum_to_total(self, db):
        expected = {}
        for kind in BACKENDS:
            expected[kind] = db.index("R", ("A", "B"), kind).nbytes()
            expected[kind] += db.index("S", ("B", "A"), kind).nbytes()
        info = db.cache_info()
        assert info.bytes_by_backend == expected
        assert info.bytes_total == sum(expected.values())
        _assert_consistent(db)

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_cache_hit_does_not_recharge(self, db, kind):
        db.index("R", ("A", "B"), kind)
        before = db.cache_info()
        db.index("R", ("A", "B"), kind)
        after = db.cache_info()
        assert after.bytes_total == before.bytes_total
        assert after.bytes_by_backend == before.bytes_by_backend
        assert after.hits == before.hits + 1
        _assert_consistent(db)


class TestEvictionAccounting:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_eviction_decrements_bytes(self, kind):
        db = Database([_relation("R", 50)], index_cache_budget=1)
        first = db.index("R", ("A", "B"), kind).nbytes()
        assert db.cache_info().bytes_total == first
        # The second order evicts the first (budget 1): the victim's
        # bytes must be given back, leaving only the new entry charged.
        second = db.index("R", ("B", "A"), kind).nbytes()
        info = db.cache_info()
        assert info.evictions == 1
        assert info.entries == 1
        assert info.bytes_total == second
        assert info.bytes_by_backend == {kind: second}
        _assert_consistent(db)

    def test_byte_budget_eviction_keeps_books(self):
        db = Database([_relation("R", 200)])
        probe = db.index("R", ("A", "B"), "trie").nbytes()
        # A byte ceiling that fits roughly two resident tries.
        db = Database(
            [_relation("R", 200), _relation("S", 200, offset=1000)],
            index_cache_byte_budget=int(probe * 2.5),
        )
        for name in ("R", "S"):
            for order in (("A", "B"), ("B", "A")):
                db.index(name, order, "trie")
                info = db.cache_info()
                assert info.bytes_total <= info.byte_budget
                _assert_consistent(db)
        assert db.cache_info().evictions >= 1

    def test_churn_never_drifts(self):
        db = Database(
            [_relation("R", 40), _relation("S", 40, offset=500)],
            index_cache_budget=2,
        )
        for round_ in range(3):
            for kind in BACKENDS:
                for name in ("R", "S"):
                    db.index(name, ("A", "B"), kind)
                    _assert_consistent(db)
        info = db.cache_info()
        assert info.entries <= 2
        # GreedyDual-Size ranks entries by their *measured* build time,
        # so which requests hit depends on the clock (one slow build
        # keeps its entry resident across a round).  What holds whatever
        # the clock says: every miss beyond the resident entries evicted
        # one, and a round of 6 distinct keys misses at least 6 - 2.
        requests = len(BACKENDS) * 2 * 3
        assert info.hits + info.misses == requests
        assert info.evictions == info.misses - info.entries
        assert info.misses >= 6 + 4 + 4


class TestInvalidationAccounting:
    def test_replace_refunds_all_backends(self, db):
        for kind in BACKENDS:
            db.index("R", ("A", "B"), kind)
            db.index("S", ("B", "A"), kind)
        survivor = db.cache_info().bytes_by_backend
        db.add(_relation("R", 5), replace=True)
        info = db.cache_info()
        # Only S's entries remain; R's bytes were refunded in full.
        assert info.entries == len(BACKENDS)
        assert info.bytes_total == sum(info.bytes_by_backend.values())
        assert all(
            info.bytes_by_backend[kind] < survivor[kind]
            for kind in BACKENDS
        )
        _assert_consistent(db)

    def test_remove_refunds_to_zero(self, db):
        for kind in BACKENDS:
            db.index("R", ("A", "B"), kind)
        db.remove("R")
        info = db.cache_info()
        assert info.entries == 0
        assert info.bytes_total == 0
        assert info.bytes_by_backend == {}

    def test_rebuild_after_replace_recharges(self, db):
        db.index("R", ("A", "B"), "compact")
        db.add(_relation("R", 10), replace=True)
        rebuilt = db.index("R", ("A", "B"), "compact").nbytes()
        info = db.cache_info()
        assert info.bytes_total == rebuilt
        assert info.bytes_by_backend == {"compact": rebuilt}
        _assert_consistent(db)
