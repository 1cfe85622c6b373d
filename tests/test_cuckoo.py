"""Unit tests: cuckoo filter + bloom spill tier + seen shards."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from container_crawler_ray.functions.hashing import mix64
from container_crawler_ray.state.cuckoo import (
    BloomFilter, CuckooFilter, SpillFilter)


@pytest.fixture
def keys():
    rng = np.random.RandomState(7)
    return np.unique(rng.randint(0, 2**63, size=4000).astype(np.uint64))


def test_cuckoo_insert_contains(keys):
    f = CuckooFilter(8192)
    for k in keys[:2000].tolist():
        f.add(int(k))
    assert f.contains_many(keys[:2000]).all()
    # false positives on fresh keys should be ~0 with 32-bit fingerprints
    fresh = np.setdiff1d(keys[2000:], keys[:2000])
    assert f.contains_many(fresh).sum() == 0


def test_bloom(keys):
    b = BloomFilter(1 << 16)
    b.add_many(keys[:1000])
    assert b.contains_many(keys[:1000]).all()
    fresh = keys[1000:3000]
    fp_rate = b.contains_many(fresh).mean()
    assert fp_rate < 0.01


def test_spill_roundtrip_and_overflow(keys):
    f = SpillFilter(256, 1 << 16)  # tiny cuckoo → forced spill
    novel = f.contains_add_many(keys)
    assert novel.all()
    assert f.spilled > 0  # bloom tier engaged
    assert f.contains_many(keys).all()
    again = f.contains_add_many(keys)
    assert not again.any()
    # serialization roundtrip preserves membership
    f2 = SpillFilter.from_state(f.to_state())
    assert f2.contains_many(keys).all()
    assert f2.num_items == f.num_items


def test_contains_add_dedups_within_batch():
    f = SpillFilter(1 << 12, 1 << 16)
    h = np.array([5, 5, 7, 5, 7, 9], dtype=np.uint64)
    novel = f.contains_add_many(h)
    # only first occurrence of each value is novel
    assert novel.tolist() == [True, False, True, False, False, True]


def test_determinism_same_insert_sequence(keys):
    a, b = SpillFilter(1 << 12, 1 << 16), SpillFilter(1 << 12, 1 << 16)
    a.contains_add_many(keys)
    b.contains_add_many(keys)
    assert a.to_state()["cuckoo"]["bits"] == b.to_state()["cuckoo"]["bits"]
    assert a.to_state()["bloom"]["bits"] == b.to_state()["bloom"]["bits"]


def test_cuckoo_remove_many_roundtrip():
    """Keys inserted then removed must read back absent; untouched keys
    survive (incl. stash entries); spill-tier keys report as residual."""
    import numpy as np
    from container_crawler_ray.state.cuckoo import CuckooFilter, SpillFilter

    rng = np.random.default_rng(7)
    keys = rng.integers(1, 2**63, size=2000, dtype=np.int64).astype(np.uint64)
    keep, drop = keys[:1000], keys[1000:]

    f = CuckooFilter(4096)
    for h in keys.tolist():
        f.add(int(h))
    gone = f.remove_many(drop)
    assert gone.all()
    assert not f.contains_many(drop).any()
    assert f.contains_many(keep).all()
    assert f.count == 1000

    # spill tier: cuckoo sized far below the insert count forces bloom
    # spill; removal of spilled keys must report a residual, not lie
    s = SpillFilter(cuckoo_capacity=64, bloom_bits=1 << 14)
    s.add_novel(keys)
    removed, residual = s.remove_many(keys)
    assert removed + residual >= len(np.unique(keys)) - 5  # fp slack
    assert residual > 0


def test_add_many_places_what_add_places(keys):
    """The vectorized insert holds the same keys as the per-key one, up
    to the fill guard, and counts every key once."""
    a, b = CuckooFilter(2048), CuckooFilter(2048)
    ins = keys[:int(a.nbuckets * 4 * 0.95)]
    a.add_many(ins)
    for k in ins.tolist():
        b.add(k)
    assert a.count == b.count == len(ins)
    assert a.contains_many(ins).all() and b.contains_many(ins).all()
    assert (a.slots != 0).sum() + len(a.stash) == len(ins)


_op = st.one_of(
    st.tuples(st.just("insert"), st.lists(st.integers(0, 400), max_size=120)),
    st.tuples(st.just("remove"), st.lists(st.integers(0, 400), max_size=60)),
    st.tuples(st.just("roundtrip"), st.just([])),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_op, min_size=1, max_size=12), st.sampled_from([64, 512]))
def test_membership_equals_python_set(ops, capacity):
    """Across inserts, removals and state round trips (the small
    capacities force the bloom spill) the filter's membership equals a
    Python set's. A removed key that had spilled stays a member: the
    bloom tier cannot delete, and ``remove_many`` counts it as residual."""
    # mix64 spreads the small drawn ints over all 64 bits, so two keys
    # never share both buckets and a fingerprint
    def key(xs):
        return mix64(np.array(list(xs), dtype=np.uint64))

    f = SpillFilter(capacity, 1 << 20)
    model: set[int] = set()
    universe = key(range(401))
    for kind, xs in ops:
        ks = key(xs)
        if kind == "insert":
            first = np.zeros(len(ks), dtype=bool)
            first[np.unique(ks, return_index=True)[1]] = True
            want = [bool(fi) and int(k) not in model
                    for k, fi in zip(ks, first)]
            assert f.contains_add_many(ks).tolist() == want
            model.update(int(k) for k in ks)
        elif kind == "remove":
            uniq = np.unique(ks)
            spilled = f.bloom.contains_many(uniq)
            member = np.array([int(k) in model for k in uniq], dtype=bool)
            assert f.remove_many(ks) == (int((member & ~spilled).sum()),
                                         int(spilled.sum()))
            model.difference_update(int(k) for k in uniq[~spilled])
        else:
            f = SpillFilter.from_state(f.to_state())
        assert f.contains_many(universe).tolist() == [
            int(k) in model for k in universe]
