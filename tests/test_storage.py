"""Storage-layer tests: atomic replace, per-pass fragments, pruning, GC."""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.ipc as ipc
import pytest

from container_crawler_ray.config import CrawlConfig
from container_crawler_ray.pipelines.crawl import (enumerate_partitions,
                                                   init_run)
from container_crawler_ray.sources.synth import make_seed_urls
from container_crawler_ray.storage import (TableStore, register_backend,
                                           resolve_backend)


@pytest.fixture
def store(tmp_path):
    return TableStore(str(tmp_path / "s"))


def _t(vals):
    return pa.table({"x": pa.array(vals, type=pa.int64())})


class IpcBackend:
    """A non-parquet backend: one arrow IPC file per fragment."""

    ext = "arrows"

    def write(self, table, path):
        with ipc.new_file(path, table.schema) as w:
            w.write_table(table)

    def read(self, path):
        with ipc.open_file(path) as r:
            return r.read_all()


def test_atomic_current(store):
    store.write_current("ck", _t([1, 2]))
    assert store.read_current("ck").column("x").to_pylist() == [1, 2]
    store.write_current("ck", _t([3]))
    assert store.read_current("ck").column("x").to_pylist() == [3]
    # no tmp leftovers
    assert not [f for f in os.listdir(store.table_dir("ck"))
                if f.endswith(".tmp")]


def test_fragments_and_committed_filter(store):
    for p in (1, 2, 3):
        store.append_fragment("fr", _t([p]), p)
    assert len(store.fragments("fr")) == 3
    # uncommitted pass-3 fragment excluded
    assert len(store.fragments("fr", committed_passes=2)) == 2
    t = store.read_all("fr", committed_passes=2)
    assert sorted(t.column("x").to_pylist()) == [1, 2]


def test_fragment_overwrite_idempotent(store):
    store.append_fragment("fr", _t([1, 2, 3]), 1)
    store.append_fragment("fr", _t([9]), 1)  # re-run of an uncommitted pass
    t = store.read_all("fr")
    assert t.column("x").to_pylist() == [9]


def test_fragment_meta_sidecar(store):
    store.append_fragment("fr", _t([5]), 1, meta={"max_rowid": 5})
    frag = store.fragments("fr")[0]
    assert store.fragment_meta(frag) == {"max_rowid": 5}


def test_state_fragment_gc(store):
    for p in range(5):
        store.append_fragment("ck", _t([p]), p, tag="ckpt")
    store.gc_state_fragments("ck", "ckpt", keep_from_pass=3)
    names = sorted(os.listdir(store.table_dir("ck")))
    assert [n for n in names if n.endswith(".parquet")] == \
        ["ckpt_000003.parquet", "ckpt_000004.parquet"]


def test_pass_dir_cleared_on_rerun(store):
    d = store.pass_dir("docs", 2)
    open(os.path.join(d, "junk.parquet"), "w").write("x")
    d2 = store.pass_dir("docs", 2)
    assert d == d2 and os.listdir(d2) == []


def test_meta_commit_point(store):
    assert store.read_meta() is None
    store.write_meta({"pass_id": 7})
    assert store.read_meta()["pass_id"] == 7


# ------------------------------------------------------- backend seam
def test_backend_seam_custom_backend(tmp_path):
    """The storage backend is pluggable: a custom backend drives every
    fragment read/write through its own format (here: arrow IPC files),
    proving the Lance swap is a config change, not a rewrite."""
    register_backend("ipc-test", IpcBackend)
    store = TableStore(str(tmp_path / "b"), backend=resolve_backend("ipc-test"))
    store.write_current("t", _t([1, 2]))
    assert store.read_current("t").column("x").to_pylist() == [1, 2]
    store.append_fragment("t", _t([3]), 1)
    assert store.read_fragment("t", "append", 1).column("x").to_pylist() == [3]
    assert all(f.endswith(".arrows") for f in store.fragments("t"))


def test_enumerate_partitions_reads_through_backend(tmp_path, monkeypatch):
    """The partition enumerator reads the frontier through the store's
    backend, so it works on a frontier written in a non-parquet format."""
    register_backend("ipc-test", IpcBackend)
    monkeypatch.setenv("GRAFT_STORAGE_BACKEND", "ipc-test")
    cfg = CrawlConfig(num_partitions=4, seen_shards=2, n_hosts=20)
    store, state = init_run(str(tmp_path / "run"), cfg,
                            make_seed_urls(60, n_hosts=20))
    try:
        assert all(f.endswith(".arrows") for f in store.fragments("frontier"))
        want = sorted(set(store.read_all("frontier")
                          .column("partition_id").to_pylist()))
        assert len(want) > 1
        assert enumerate_partitions(store) == want
    finally:
        state.seen.teardown()


def test_backend_env_var_switch(tmp_path, monkeypatch):
    from container_crawler_ray import storage

    monkeypatch.setenv("GRAFT_STORAGE_BACKEND", "parquet")
    assert isinstance(TableStore(str(tmp_path / "p"))._backend,
                      storage.ParquetBackend)
    monkeypatch.setenv("GRAFT_STORAGE_BACKEND", "nope")
    with pytest.raises(ValueError, match="unknown storage backend"):
        TableStore(str(tmp_path / "x"))


def test_lance_backend_registered_but_gated(monkeypatch):
    """lance isn't installed in this environment: selecting it must fail
    with an actionable message (and would work where pylance exists)."""
    from container_crawler_ray import storage

    assert "lance" in storage._BACKENDS
    with pytest.raises(ImportError, match="lance"):
        storage.resolve_backend("lance")


def test_compact_merges_fragments_and_sidecars(store):
    for p in (1, 2, 3, 4):
        store.append_fragment("fr", _t([p * 10, p * 10 + 1]), p,
                              meta={"max_rowid": p * 10 + 1,
                                    "per_partition_max": {"0": p * 10 + 1}})
    seg = store.compact("fr")
    assert seg is not None and seg.endswith("append_000001x000004.parquet")
    files = store.fragments("fr")
    assert [os.path.basename(f) for f in files] == \
        ["append_000001x000004.parquet"]
    t = store.read_all("fr")
    assert sorted(t.column("x").to_pylist()) == \
        [10, 11, 20, 21, 30, 31, 40, 41]
    # merged pruning sidecar
    assert store.fragment_meta(files[0]) == \
        {"max_rowid": 41, "per_partition_max": {"0": 41}}
    # committed-pass filter parses the segment's HI bound
    assert store.fragments("fr", committed_passes=4) == files
    assert store.fragments("fr", committed_passes=3) == []
    # new appends coexist with the segment; a second compact absorbs only
    # the loose fragments (segments are terminal)
    store.append_fragment("fr", _t([50]), 5)
    assert len(store.fragments("fr")) == 2
    assert store.compact("fr") is None  # one loose fragment -> no-op


def test_compact_crash_windows_never_double_read(store):
    import glob
    import json

    for p in (1, 2):
        store.append_fragment("fr", _t([p]), p)
    # torn compaction attempt: segment written, manifest NOT yet written
    seg = os.path.join(store.table_dir("fr"), "append_000001x000002.parquet")
    store._write_file(_t([1, 2]), seg)
    got = store.read_all("fr").column("x").to_pylist()
    assert sorted(got) == [1, 2]  # unlisted segment ignored, originals win
    # manifest committed, originals not yet deleted (the other window)
    man = {"covered": [{"segment": "append_000001x000002.parquet",
                        "originals": ["append_000001.parquet",
                                      "append_000002.parquet"]}]}
    with open(os.path.join(store.table_dir("fr"), "compaction.json"),
              "w") as f:
        json.dump(man, f)
    got = store.read_all("fr").column("x").to_pylist()
    assert sorted(got) == [1, 2]  # segment wins, originals skipped
    assert len(glob.glob(os.path.join(store.table_dir("fr"),
                                      "append_00000?.parquet"))) == 2


# ---------------------------------------------------------------- lance seam
# The north_rule names Lance as the table format. The sandbox has no
# ``lance`` package (no network), so these integration tests skip here —
# but the moment pylance is installable they prove the backend swap is a
# config change, not a code change (write/read/append/atomic-replace/
# resume-filter parity with the parquet backend on identical inputs).

@pytest.fixture
def lance_store(tmp_path):
    pytest.importorskip("lance")
    from container_crawler_ray.storage import LanceBackend
    return TableStore(str(tmp_path / "ls"), backend=LanceBackend())


def test_lance_atomic_current(lance_store):
    lance_store.write_current("ck", _t([1, 2]))
    assert lance_store.read_current("ck").column("x").to_pylist() == [1, 2]
    lance_store.write_current("ck", _t([3]))
    assert lance_store.read_current("ck").column("x").to_pylist() == [3]
    assert not [f for f in os.listdir(lance_store.table_dir("ck"))
                if f.endswith(".tmp")]


def test_lance_parquet_parity(tmp_path, lance_store):
    """Identical fragment history through both backends must read back
    identical tables, including the committed-pass resume filter and
    idempotent overwrite of an uncommitted pass."""
    pstore = TableStore(str(tmp_path / "ps"))
    for s in (pstore, lance_store):
        for p in (1, 2, 3):
            s.append_fragment("fr", _t([p * 10, p * 10 + 1]), p)
        s.append_fragment("fr", _t([99]), 3)      # pass-3 re-run overwrite
    for kw in ({}, {"committed_passes": 2}):
        a = pstore.read_all("fr", **kw)
        b = lance_store.read_all("fr", **kw)
        assert sorted(a.column("x").to_pylist()) \
            == sorted(b.column("x").to_pylist())


def test_lance_read_where(lance_store):
    for p in (1, 2, 3):
        lance_store.append_fragment("fr", _t([p]), p)
    t = lance_store.read_where(lance_store.fragments("fr"),
                               pc.field("x") >= 2)
    assert sorted(t.column("x").to_pylist()) == [2, 3]
