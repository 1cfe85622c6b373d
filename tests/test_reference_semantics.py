"""Behavioral tests ported from the reference's own suite (SURVEY.md §5.1;
[recon] test/test_container_crawler.py): ownership split, bulk vs per-row,
watermark gating, skip, partition placement, empty scan — re-expressed for
the Ray engine.
"""

import glob
import json

import pyarrow.parquet as pq
import pytest

from container_crawler_ray.config import CrawlConfig
from container_crawler_ray.pipelines.crawl import init_run, run_crawl, run_pass
from container_crawler_ray.sources.synth import make_seed_urls

BASE = dict(num_partitions=4, items_chunk=100, workers=2, seen_shards=2,
            n_hosts=20, n_paths=100, pass_time_ms=4000)


def _docs(root):
    return [d for f in sorted(glob.glob(f"{root}/tables/documents/*/*.parquet"))
            for d in pq.read_table(f).to_pylist()]


def _wm(root):
    meta = json.load(open(f"{root}/meta.json"))
    ck = pq.read_table(
        f"{root}/tables/checkpoints/ckpt_{meta['pass_id']:06d}.parquet")
    return {r["partition_id"]: r["last_row"] for r in ck.to_pylist()}


def _frontier_rowids(root):
    out = {}
    for f in glob.glob(f"{root}/tables/frontier/*.parquet"):
        for r in pq.read_table(f).to_pylist():
            out[r["canonical_url"]] = (r["partition_id"], r["rowid"])
    return out


def test_mod_ownership_split(tmp_store):
    """Reference behavior 1: rows split by ROWID % nodes — owner processes,
    others only verified (and verify misses gate the watermark)."""
    cfg = CrawlConfig(**BASE, num_nodes=3, node_id=1, fail_mod=0)
    seeds = make_seed_urls(120, n_hosts=20)
    store, state = init_run(tmp_store, cfg, seeds)
    rowids = _frontier_rowids(tmp_store)
    stats = run_pass(store, cfg, state)
    docs = _docs(tmp_store)
    assert docs, "owner must process its rows"
    for d in docs:
        _, rowid = rowids[d["url"]]
        assert rowid % 3 == 1, "only owned rows are fetched"
    # verification misses (other nodes absent) gate every watermark
    assert stats["errors"] > 0
    assert all(v == -1 for v in _wm(tmp_store).values())


def test_bulk_and_per_row_modes_agree(tmp_store):
    """Reference behaviors 2/3: bulk (one handle(rows) per chunk) and
    per-row dispatch produce the same results when nothing errors."""
    seeds = make_seed_urls(100, n_hosts=20)
    outs = []
    for i, bulk in enumerate([False, True]):
        cfg = CrawlConfig(**BASE, bulk_process=bulk, fail_mod=0)
        root = f"{tmp_store}-{i}"
        run_crawl(root, cfg, seed_urls=seeds, max_passes=2)
        outs.append({(d["doc_id"], d["pass_id"]) for d in _docs(root)})
    assert outs[0] == outs[1]


def test_bulk_mode_chunk_error_is_all_or_nothing(tmp_store):
    """Reference bulk semantics: one failing row fails its whole handle()
    call, so every row of that chunk lands in the retry queue."""
    cfg = CrawlConfig(**BASE, bulk_process=True, fail_mod=11)
    seeds = make_seed_urls(100, n_hosts=20)
    store, state = init_run(tmp_store, cfg, seeds)
    stats = run_pass(store, cfg, state)
    assert stats["errors"] > 0
    meta = json.load(open(f"{tmp_store}/meta.json"))
    retry = pq.read_table(
        f"{tmp_store}/tables/retry/retry_{meta['pass_id']:06d}.parquet")
    # in bulk mode errors >= the number of actually-bad rows: whole blocks
    # fail together and all failed rows are queued for retry
    assert len(retry) == stats["errors"]
    assert stats["fetched"] + stats["errors"] == stats["scheduled"]


def test_watermark_gating_and_recovery(tmp_store):
    """Reference behavior 4: any error → save_last_row NOT called; the
    chunk is retried next pass and the watermark advances once clean."""
    cfg = CrawlConfig(**BASE, fail_mod=7)  # many transient failures
    seeds = make_seed_urls(80, n_hosts=20)
    store, state = init_run(tmp_store, cfg, seeds)
    s1 = run_pass(store, cfg, state)
    assert s1["errors"] > 0
    wm1 = _wm(tmp_store)
    gated = [p for p in wm1 if wm1[p] == -1 and s1["scanned"] > 0]
    assert gated, "some partition must be gated by errors"
    # recovery passes with no further failure injection: the seen set
    # dedupes already-fetched rows, retries succeed, watermarks advance
    from container_crawler_ray.stages.fetch import SimulatedFetchHandler
    clean = SimulatedFetchHandler(cfg.n_hosts, cfg.n_paths, fail_mod=0)
    run_pass(store, cfg, state, handler=clean)
    s3 = run_pass(store, cfg, state, handler=clean)
    wm3 = _wm(tmp_store)
    assert all(wm3[p] > -1 for p in gated)
    assert s3["retry_size"] == 0


def test_skip_partitions(tmp_store):
    """Reference behavior 5 (SkipContainer): skipped partition is never
    scanned, watermark untouched."""
    cfg = CrawlConfig(**BASE, skip_partitions=(2,), fail_mod=0)
    seeds = make_seed_urls(120, n_hosts=20)
    store, state = init_run(tmp_store, cfg, seeds)
    run_pass(store, cfg, state)
    wm = _wm(tmp_store)
    assert wm[2] == -1
    assert any(wm[p] > -1 for p in (0, 1, 3))


def test_engine_placement_no_op_for_foreign_partitions(tmp_store):
    """Reference behavior 8: a node not in the replica set is a no-op —
    here, engine 0 of 2 only scans even partitions."""
    cfg = CrawlConfig(**BASE, num_engines=2, engine_index=0, fail_mod=0)
    seeds = make_seed_urls(120, n_hosts=20)
    store, state = init_run(tmp_store, cfg, seeds)
    run_pass(store, cfg, state)
    # multi-engine runs commit per-engine state (meta-e0 / ckpt-e0)
    meta = json.load(open(f"{tmp_store}/meta-e0.json"))
    ck = pq.read_table(
        f"{tmp_store}/tables/checkpoints/ckpt-e0_{meta['pass_id']:06d}.parquet")
    wm = {r["partition_id"]: r["last_row"] for r in ck.to_pylist()}
    assert all(wm[p] == -1 for p in (1, 3))
    assert any(wm[p] > -1 for p in (0, 2))


def test_empty_scan_is_noop(tmp_store):
    """Reference behavior 9: empty get_items_since → no handler calls,
    watermark untouched."""
    cfg = CrawlConfig(**BASE, fail_mod=0)
    out = run_crawl(tmp_store, cfg, seed_urls=[], max_passes=3)
    assert out["total_fetched"] == 0
    assert out["final_pass"] == 1  # done right away
    assert all(v == -1 for v in _wm(tmp_store).values())


def test_items_chunk_limits_scan(tmp_store):
    """items_chunk caps rows per partition per pass, in rowid order."""
    cfg = CrawlConfig(**BASE | {"items_chunk": 5}, fail_mod=0)
    seeds = [f"http://h0001.example/p/{i}" for i in range(40)]
    store, state = init_run(tmp_store, cfg, seeds)
    s = run_pass(store, cfg, state)
    assert s["scanned"] == 5  # one host → one partition → one chunk
    # rowid order: the five lowest rowids were scanned
    wm = _wm(tmp_store)
    assert max(wm.values()) == 4
    # the metrics table carries each stage's own wall, not the pass wall
    m = store.read_fragment("metrics", "metrics", s["pass_id"]).to_pylist()
    walls = {r["stage"]: r["wall_ms"] for r in m if r["partition_id"] >= 0}
    assert set(walls) == {"scan", "fetch"}
    assert all(w <= s["wall_ms"] for w in walls.values())
    assert walls["scan"] != walls["fetch"]
    # plus one row per pass stage (partition_id -1) up to the docs join
    stages = {r["stage"]: r["wall_ms"] for r in m if r["partition_id"] == -1}
    assert list(stages) == ["scan", "probe_sched_fetch", "slim_collect",
                            "links", "frontier_append", "retry",
                            "docs_write_join"]
    assert stages == {k: int(s["timings"][k] * 1000) for k in stages}
    # and together they account for the pass: their sum is the pass wall
    # within 5 %, allowing 1 ms per stage for the int() truncation
    gap = abs(s["wall_ms"] - sum(stages.values()))
    assert gap <= 0.05 * s["wall_ms"] + len(stages), (s["wall_ms"], stages)


def test_link_path_probes_seen_set_once_per_pass(tmp_store, monkeypatch):
    """Each pass probes the seen set on the driver exactly twice, one
    SeenSet.contains call (one RPC per shard) each: once for the pass's
    candidates and once for its discovered links."""
    from container_crawler_ray.state.seen import SeenSet

    calls = []
    orig = SeenSet.contains

    def counting(self, hashes):
        calls.append(len(hashes))
        return orig(self, hashes)

    monkeypatch.setattr(SeenSet, "contains", counting)
    cfg = CrawlConfig(**BASE, fail_mod=0)
    store, state = init_run(tmp_store, cfg, make_seed_urls(60, n_hosts=20))
    for _ in range(2):
        before = len(calls)
        s = run_pass(store, cfg, state)
        assert s["fetched"] > 0
        assert len(calls) - before == 2
        assert calls[before] == s["candidates"]
    assert all(n > 0 for n in calls)
    state.seen.teardown()


def test_one_ray_data_execution_per_pass(tmp_store, monkeypatch):
    """The fetch map is a pass's only Ray Data execution: the scan is a
    driver read, and each fetch task writes its own documents part and
    enriches its own links."""
    import ray.data
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    materialized, executed = [], []
    orig_mat, orig_exec = ray.data.Dataset.materialize, StreamingExecutor.execute

    def materialize(self, *a, **kw):
        materialized.append(1)
        return orig_mat(self, *a, **kw)

    def execute(self, *a, **kw):
        executed.append(1)
        return orig_exec(self, *a, **kw)

    monkeypatch.setattr(ray.data.Dataset, "materialize", materialize)
    monkeypatch.setattr(StreamingExecutor, "execute", execute)
    cfg = CrawlConfig(**BASE, fail_mod=0)
    store, state = init_run(tmp_store, cfg, make_seed_urls(60, n_hosts=20))
    for _ in range(2):
        materialized.clear()
        executed.clear()
        s = run_pass(store, cfg, state)
        assert s["fetched"] > 0 and s["new_frontier_rows"] > 0
        assert (len(materialized), len(executed)) == (1, 1)
        docs = pq.read_table(f"{tmp_store}/tables/documents/"
                             f"pass_{s['pass_id']:06d}")
        assert len(docs) == s["fetched"]
    state.seen.teardown()


def test_fetch_runs_one_task_per_driver_slice(tmp_store):
    """Per-row mode fetches each driver slice of the scheduled rows in its
    own task: a pass of fewer than 2000 scheduled rows is cut into
    2·workers slices, and each slice writes one documents part (Ray Data
    bundling slices up to a fetch batch size would write fewer)."""
    cfg = CrawlConfig(**BASE, fail_mod=0)
    assert not cfg.bulk_process
    store, state = init_run(tmp_store, cfg, make_seed_urls(60, n_hosts=20))
    s = run_pass(store, cfg, state)
    assert 2 * cfg.workers <= s["fetched"] < 2000
    parts = glob.glob(f"{tmp_store}/tables/documents/"
                      f"pass_{s['pass_id']:06d}/*.parquet")
    assert len(parts) == 2 * cfg.workers
    state.seen.teardown()


def test_unicode_urls_roundtrip(tmp_store):
    """Reference behavior 7 analog: unicode names survive the pipeline."""
    cfg = CrawlConfig(**BASE, fail_mod=0)
    seeds = ["http://h0001.example/p/0",
             "http://h0001.example/p/über",
             "http://h0001.example/p/日本"]
    out = run_crawl(tmp_store, cfg, seed_urls=seeds, max_passes=1)
    docs = _docs(tmp_store)
    urls = {d["url"] for d in docs}
    assert "http://h0001.example/p/über" in urls
    assert out["total_fetched"] == 3


def test_resume_equals_uninterrupted(tmp_store):
    """north_rule resume gate: 2 passes + resume 2 ≡ straight 4 passes."""
    cfg = CrawlConfig(**BASE, fail_mod=13)
    seeds = make_seed_urls(100, n_hosts=20)
    rootA, rootB = f"{tmp_store}-A", f"{tmp_store}-B"
    run_crawl(rootA, cfg, seed_urls=seeds, max_passes=4)
    run_crawl(rootB, cfg, seed_urls=seeds, max_passes=2)
    run_crawl(rootB, cfg, resume=True, max_passes=4)
    assert {d["doc_id"] for d in _docs(rootA)} == \
        {d["doc_id"] for d in _docs(rootB)}
    assert _wm(rootA) == _wm(rootB)
    assert _frontier_rowids(rootA) == _frontier_rowids(rootB)


def test_resume_purges_torn_conditional_fragments(tmp_store):
    """A crashed attempt at the next (uncommitted) pass can leave torn
    fragments that the re-run won't overwrite when it produces nothing
    for that table (frontier append / retry / dead-letter / docs dir are
    conditional writes). Resume must purge them — otherwise, once the
    pass commits, a garbage ``append_0000NN.parquet`` crashes the NEXT
    pass's scan and a garbage docs dir corrupts analytics reads."""
    import os

    cfg = CrawlConfig(**BASE, fail_mod=13)
    seeds = make_seed_urls(100, n_hosts=20)
    rootA, rootB = f"{tmp_store}-A", f"{tmp_store}-B"
    run_crawl(rootA, cfg, seed_urls=seeds, max_passes=4)
    run_crawl(rootB, cfg, seed_urls=seeds, max_passes=2)
    # plant torn pass-3 orphans in every conditional sink
    os.makedirs(f"{rootB}/tables/documents/pass_000003", exist_ok=True)
    os.makedirs(f"{rootB}/tables/dead_letter", exist_ok=True)
    for p in ("documents/pass_000003/junk.parquet",
              "frontier/append_000003.parquet",
              "retry/retry_000003.parquet",
              "dead_letter/dead_000003.parquet"):
        with open(f"{rootB}/tables/{p}", "w") as f:
            f.write("not a parquet file")
    run_crawl(rootB, cfg, resume=True, max_passes=4)
    assert {d["doc_id"] for d in _docs(rootA)} == \
        {d["doc_id"] for d in _docs(rootB)}
    assert _wm(rootA) == _wm(rootB)
    assert _frontier_rowids(rootA) == _frontier_rowids(rootB)


def test_fragment_pruning_skips_consumed_files(tmp_store):
    """Manifest pruning: once every partition's watermark passes a
    fragment's max rowid, the scan no longer reads that file."""
    from container_crawler_ray.pipelines.crawl import (
        _prune_consumed_fragments)

    cfg = CrawlConfig(**BASE, fail_mod=0)
    seeds = make_seed_urls(60, n_hosts=20)
    store, state = init_run(tmp_store, cfg, seeds)
    files0 = store.fragments("frontier", committed_passes=0)
    assert _prune_consumed_fragments(store, files0, state.watermarks) \
        == files0, "nothing consumed yet"
    run_pass(store, cfg, state)
    run_pass(store, cfg, state)
    files = store.fragments("frontier", committed_passes=state.pass_id)
    pruned = _prune_consumed_fragments(store, files, state.watermarks)
    assert len(pruned) < len(files), "consumed fragments must be pruned"
    # correctness: pruning never drops unscanned rows — rerun one more
    # pass and ensure it still converges cleanly
    s = run_pass(store, cfg, state)
    assert s["errors"] == 0


def test_driver_bucket_state_bounded(tmp_path):
    """The driver's token-bucket dict must hold only hosts with
    OUTSTANDING politeness debt, not every host ever scheduled —
    at 1e8 hosts an entry per host is a driver-memory scale-killer.
    With a light load per host (most hosts refill to capacity between
    passes) the dict must stay far below the host count."""
    from container_crawler_ray.config import CrawlConfig
    from container_crawler_ray.pipelines.crawl import init_run, run_pass
    from container_crawler_ray.sources.synth import make_seed_urls

    n_hosts = 120
    cfg = CrawlConfig(num_partitions=8, items_chunk=400, workers=2,
                      seen_shards=4, n_hosts=n_hosts, n_paths=400,
                      pass_time_ms=60_000)   # ample budget: no debt
    seeds = make_seed_urls(360, n_hosts=n_hosts)   # ~3 URLs per host
    store, st = init_run(str(tmp_path / "run"), cfg, seeds)
    hosts_seen = set()
    for _ in range(2):
        run_pass(store, cfg, st)
        hosts_seen |= set(st.buckets)
        # every host refills past capacity next pass => entry dropped
        assert len(st.buckets) <= n_hosts // 10, (
            f"bucket dict holds {len(st.buckets)} entries for "
            f"{n_hosts} lightly-loaded hosts — unbounded growth")
    st.seen.teardown()


def _frontier_rows_sorted(root):
    """Full frontier MULTISET (deferred re-appends duplicate
    canonical_urls, so the keyed _frontier_rowids dict is file-order
    sensitive — this is the order-free comparison)."""
    import pandas as pd

    fs = sorted(glob.glob(f"{root}/tables/frontier/*.parquet"))
    df = pd.concat([pq.read_table(f).to_pandas() for f in fs],
                   ignore_index=True)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_compact_then_resume_equals_uninterrupted(tmp_store):
    """Small-file compaction between passes is invisible to the engine:
    2 passes + frontier compaction + resume 2 ≡ straight 4 passes
    (content, watermarks, rowids — the compacted segment's merged
    sidecar must keep the delta-scan pruning exact)."""
    from container_crawler_ray.storage import TableStore

    cfg = CrawlConfig(**BASE, fail_mod=13)
    seeds = make_seed_urls(100, n_hosts=20)
    rootA, rootB = f"{tmp_store}-A", f"{tmp_store}-B"
    run_crawl(rootA, cfg, seed_urls=seeds, max_passes=4)
    run_crawl(rootB, cfg, seed_urls=seeds, max_passes=2)
    st = TableStore(rootB)
    committed = st.read_meta()["pass_id"]
    assert st.compact("frontier", upto_pass=committed) is not None
    run_crawl(rootB, cfg, resume=True, max_passes=4)
    assert {d["doc_id"] for d in _docs(rootA)} == \
        {d["doc_id"] for d in _docs(rootB)}
    assert _wm(rootA) == _wm(rootB)
    assert _frontier_rows_sorted(rootA).equals(_frontier_rows_sorted(rootB))
    # and the file count actually went down
    assert len(glob.glob(f"{rootB}/tables/frontier/*.parquet")) < \
        len(glob.glob(f"{rootA}/tables/frontier/*.parquet"))


def test_auto_salt_emergent_hot_host(tmp_store):
    """A Zipf head that emerges MID-CRAWL is detected from the per-pass
    appended-frontier rollup and salted without a restart: before
    detection every one of the host's frontier rows sits in the single
    partition its host_hash pins; after detection, newly appended rows
    for that host spread across partitions by url_hash — and the salted
    set survives resume via the committed meta."""
    import collections
    import glob as _glob

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from container_crawler_ray.config import CrawlConfig
    from container_crawler_ray.pipelines.crawl import (
        init_run, resume_run, run_pass)
    from container_crawler_ray.sources.synth import make_seed_urls

    # a 2-host world: each host draws ~50% of discovered links, so both
    # blow through the 30% share threshold on the first link-bearing pass
    cfg = CrawlConfig(num_partitions=8, items_chunk=100, workers=2,
                      seen_shards=2, n_hosts=2, n_paths=400,
                      pass_time_ms=60000, fail_mod=0,
                      auto_salt_share_milli=300)
    store, st = init_run(tmp_store, cfg, make_seed_urls(40, n_hosts=2))
    assert st.salted_hosts == ()

    run_pass(store, cfg, st)      # pass 1: appends links, detects heads
    assert len(st.salted_hosts) >= 1, "hot host not detected"
    hot = st.salted_hosts[0]

    def _parts_by_pass(host):
        out = collections.defaultdict(set)
        for f in _glob.glob(f"{tmp_store}/tables/frontier/append_*.parquet"):
            t = pq.read_table(f, columns=["host", "partition_id"])
            pid = int(f.rsplit("_", 1)[1].split(".")[0])
            m = pc.equal(t.column("host"), host)
            out[pid].update(
                t.filter(m).column("partition_id").to_pylist())
        return out

    before = _parts_by_pass(hot)[1]
    assert len(before) == 1, "unsalted host must pin one partition"

    run_pass(store, cfg, st)      # pass 2: links route WITH the salt
    after = _parts_by_pass(hot)[2]
    assert len(after) > 1, (
        f"salted host still pinned to one partition: {after}")

    # resume restores the auto-salted set from committed meta, even when
    # the resume-time config carries no salt at all
    st.seen.teardown()
    store2, st2 = resume_run(tmp_store, cfg)
    assert hot in st2.salted_hosts
    st2.seen.teardown()


def test_fetch_mode_accepts_only_tasks():
    """The fetch stage runs as stateless tasks only; the field stays so
    configs that name ``fetch_mode="tasks"`` keep loading."""
    assert CrawlConfig().fetch_mode == "tasks"
    with pytest.raises(ValueError):
        CrawlConfig(fetch_mode="actors")
