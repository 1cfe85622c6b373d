"""Unit tests for the pass stages that run without a crawl: driver-side
rowid assignment and the per-worker caches of the mapped functions."""

import pickle

import numpy as np
import pyarrow as pa
from ray import cloudpickle

from container_crawler_ray.stages import fetch, probe
from container_crawler_ray.stages.links import assign_rowids, to_append_shape


def _rows(pid, url, canon, depth, rowid=None):
    cols = {
        "partition_id": pa.array(pid, type=pa.int32()),
        "url": url,
        "canonical_url": canon,
        "host": [c.split("/")[2] for c in canon],
        "url_hash": pa.array(np.arange(len(url)), type=pa.uint64()),
        "host_hash": pa.array(np.zeros(len(url)), type=pa.uint64()),
        "priority": pa.array(np.zeros(len(url)), type=pa.float32()),
        "depth": pa.array(depth, type=pa.int32()),
    }
    if rowid is not None:
        cols["rowid"] = pa.array(rowid, type=pa.int64())
    return pa.table(cols)


def test_assign_rowids_dedup_order_and_dense_rowids():
    # deferred rows of partition 0, out of old-rowid order
    deferred = _rows([0, 0], ["http://d.example/7", "http://d.example/5"],
                     ["http://d.example/7", "http://d.example/5"], [1, 1],
                     rowid=[7, 5])
    # two link blocks: http://a.example/x arrives at depth 3, then at 2;
    # http://z.example/q arrives twice at one depth (the smallest raw
    # url wins the tie, whatever the block order)
    block_a = _rows([0, 0, 1],
                    ["http://a.example/x", "http://z.example/q",
                     "http://c.example/y"],
                    ["http://a.example/x", "http://z.example/q",
                     "http://c.example/y"], [3, 2, 1])
    block_b = _rows([0, 0, 0],
                    ["HTTP://a.example/x", "http://a.example/b",
                     "HTTP://z.example/q"],
                    ["http://a.example/x", "http://a.example/b",
                     "http://z.example/q"], [2, 1, 2])
    app = pa.concat_tables([to_append_shape(deferred, 0),
                            to_append_shape(block_a, 1),
                            to_append_shape(block_b, 1)])
    next_rowid = {0: 10, 1: 3}
    out = assign_rowids(app, next_rowid, pass_id=4).to_pylist()
    got = [(r["partition_id"], r["rowid"], r["url"], r["depth"])
           for r in out]
    assert got == [
        (0, 10, "http://d.example/5", 1),     # deferred, old-rowid order
        (0, 11, "http://d.example/7", 1),
        (0, 12, "http://a.example/b", 1),     # links by canonical_url
        (0, 13, "HTTP://a.example/x", 2),     # min depth kept
        (0, 14, "HTTP://z.example/q", 2),     # tie: smallest raw url
        (1, 3, "http://c.example/y", 1),
    ]
    assert all(r["pass_added"] == 4 for r in out)
    assert next_rowid == {0: 15, 1: 4}


class _StubRef:
    def hex(self):
        return "stub-handler"


class _StubSeen:
    def contains(self, hashes):
        return np.asarray(hashes) % 2 == 1


def test_mapped_fns_use_module_cache_after_pickling():
    """Ray ships a mapped function to each task with cloudpickle; the
    per-worker caches only hit if the unpickled function still reads the
    module's own dict (a closure would carry a copy of it)."""
    fetch_fn = pickle.loads(cloudpickle.dumps(
        fetch.make_fetch_fn(_StubRef(), False)))
    args = ("stub-run", 1, 16, 64)
    probe_fn = pickle.loads(cloudpickle.dumps(probe.make_probe_fn(args)))
    # filled only now: the functions can see these entries only through
    # the module's dicts (a miss would ray.get the stub ref or build a
    # SeenSet over actors that do not exist)
    fetch._HANDLERS["stub-handler"] = fetch.SimulatedFetchHandler(5, 10, 0)
    probe._CLIENTS[args] = _StubSeen()
    try:
        out = fetch_fn(pa.table({
            "sched": ["scheduled", "deferred"],
            "canonical_url": ["http://h0001.example/p/1",
                              "http://h0001.example/p/2"],
            "attempts": pa.array([0, 0], type=pa.int32()),
            "url_hash": pa.array([1, 2], type=pa.uint64())}))
        assert out.column("ok").to_pylist() == [True, False]
        seen = probe_fn(pa.table({"url_hash": pa.array([1, 2],
                                                       type=pa.uint64())}))
        assert seen.column("seen").to_pylist() == [True, False]
    finally:
        fetch._HANDLERS.pop("stub-handler", None)
        probe._CLIENTS.pop(args, None)
