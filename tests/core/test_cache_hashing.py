"""Unit tests for the record cache and consistent hashing."""

import pytest
from hypothesis import given, strategies as st

from repro.core.cache import RecordCache
from repro.core.hashing import ConsistentHashRing, stable_hash
from repro.core.types import LogRecord, _approx_size


def record(seqnum, size=100):
    return LogRecord(seqnum=seqnum, tags=(), data="x" * size)


class TestRecordCache:
    def test_put_get_roundtrip(self):
        cache = RecordCache(10_000)
        cache.put_record(record(1))
        assert cache.get_record(1).seqnum == 1

    def test_miss_returns_none(self):
        cache = RecordCache(10_000)
        assert cache.get_record(42) is None
        assert cache.misses == 1

    def test_lru_eviction_under_pressure(self):
        cache = RecordCache(500)
        for s in range(10):
            cache.put_record(record(s, size=100))
        assert cache.get_record(0) is None  # oldest evicted
        assert cache.get_record(9) is not None
        assert cache.evictions > 0

    def test_access_refreshes_lru_order(self):
        cache = RecordCache(400)
        cache.put_record(record(1, 100))
        cache.put_record(record(2, 100))
        cache.get_record(1)  # refresh 1
        cache.put_record(record(3, 100))
        cache.put_record(record(4, 100))  # evicts 2, not 1
        assert cache.get_record(1) is not None
        assert cache.get_record(2) is None

    def test_aux_data_shares_cache(self):
        cache = RecordCache(10_000)
        cache.put_aux(5, {"view": 1})
        assert cache.get_aux(5) == {"view": 1}
        cache.put_record(record(5))
        assert cache.get_aux(5) == {"view": 1}  # preserved alongside record

    def test_aux_without_record(self):
        cache = RecordCache(10_000)
        cache.put_aux(7, "aux")
        assert cache.get_record(7) is None
        assert cache.get_aux(7) == "aux"

    def test_drop(self):
        cache = RecordCache(10_000)
        cache.put_record(record(1))
        cache.drop(1)
        assert cache.get_record(1) is None
        assert cache.used_bytes == 0

    def test_used_bytes_tracks_updates(self):
        cache = RecordCache(100_000)
        cache.put_record(record(1, 100))
        first = cache.used_bytes
        cache.put_record(record(1, 100))  # overwrite, no growth
        assert cache.used_bytes == first

    def test_hit_rate(self):
        cache = RecordCache(10_000)
        cache.put_record(record(1))
        cache.get_record(1)
        cache.get_record(2)
        assert cache.hit_rate() == 0.5

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RecordCache(0)

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=200))
    def test_capacity_never_exceeded_property(self, accesses):
        cache = RecordCache(1000)
        for s in accesses:
            cache.put_record(record(s, size=150))
            assert cache.used_bytes <= max(cache.capacity_bytes, 150 + 32)


class TestRecordCacheSizing:
    """Each half of an entry is sized once, when it is put."""

    def test_replacing_one_half_does_not_resize_the_other(self):
        sized = []

        class CountedRecord(LogRecord):
            def size_bytes(self):
                sized.append(self.seqnum)
                return super().size_bytes()

        cache = RecordCache(10_000)
        rec = CountedRecord(seqnum=3, tags=(1, 2), data="x" * 100)
        cache.put_record(rec)
        cache.put_aux(3, {"view": {"k": "v" * 50}})
        cache.put_aux(3, {"view": {"k": "w" * 60}})
        assert sized == [3]
        assert cache.used_bytes == 100 + 16 * 2 + 32 + _approx_size({"view": {"k": "w" * 60}})

    @given(st.lists(st.tuples(st.sampled_from(["record", "aux", "drop"]),
                              st.integers(0, 8), st.integers(0, 300)),
                    max_size=120))
    def test_byte_accounting_matches_a_fresh_recount(self, ops):
        cache = RecordCache(1500)
        for op, seqnum, size in ops:
            if op == "record":
                cache.put_record(record(seqnum, size=size))
            elif op == "aux":
                cache.put_aux(seqnum, "a" * size)
            else:
                cache.drop(seqnum)
            recount = sum((rec.size_bytes() if rec is not None else 0) + _approx_size(aux)
                          for rec, aux, *_ in cache._entries.values())
            assert cache.used_bytes == recount


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash(42, "x") == stable_hash(42, "x")

    def test_salt_changes_value(self):
        assert stable_hash(42, "a") != stable_hash(42, "b")


class TestConsistentHashRing:
    def test_lookup_in_members(self):
        ring = ConsistentHashRing([0, 1, 2], num_partitions=64)
        for book in range(100):
            assert ring.lookup(book) in (0, 1, 2)

    def test_deterministic(self):
        r1 = ConsistentHashRing([0, 1], num_partitions=64, seed=3)
        r2 = ConsistentHashRing([0, 1], num_partitions=64, seed=3)
        assert all(r1.lookup(b) == r2.lookup(b) for b in range(50))

    def test_balance(self):
        """Strategy 3's equal partitions keep load within ~2x of fair share
        for many books."""
        ring = ConsistentHashRing([0, 1, 2, 3], num_partitions=256)
        counts = ring.load_counts(range(100_000))
        fair = 100_000 / 4
        for member, count in counts.items():
            assert 0.6 * fair < count < 1.6 * fair

    def test_partitions_equally_owned(self):
        ring = ConsistentHashRing([0, 1, 2, 3], num_partitions=256)
        for member in [0, 1, 2, 3]:
            assert len(ring.partitions_of(member)) == 64

    def test_single_member_gets_everything(self):
        ring = ConsistentHashRing([7], num_partitions=16)
        assert all(ring.lookup(b) == 7 for b in range(20))

    def test_errors(self):
        with pytest.raises(ValueError):
            ConsistentHashRing([], num_partitions=8)
        with pytest.raises(ValueError):
            ConsistentHashRing([1, 2, 3], num_partitions=2)

    def test_growing_ring_remaps_subset(self):
        """Adding a member moves some books but most stay (consistent
        hashing's defining property)."""
        before = ConsistentHashRing([0, 1], num_partitions=256)
        after = ConsistentHashRing([0, 1, 2], num_partitions=256)
        moved = sum(
            1 for b in range(10_000)
            if before.lookup(b) != after.lookup(b) and after.lookup(b) != 2
        )
        # Books should only move TO the new member, almost never between
        # old members (equal-partition reassignment keeps most in place).
        assert moved < 3000
