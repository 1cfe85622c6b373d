"""Shared-nothing multi-engine test (the reference's one-daemon-per-node
model, SURVEY.md §4.1): two engine instances over one store, each owning
half the partitions, exchanging discovered links through per-engine
mailboxes and sharing the global sharded seen set. The union of their
crawls must equal a single-engine crawl of the same closed world.
"""

import dataclasses
import glob

import pyarrow.parquet as pq

from container_crawler_ray.config import CrawlConfig
from container_crawler_ray.pipelines.crawl import (
    init_run, resume_run, run_crawl, run_pass)
from container_crawler_ray.sources.synth import make_seed_urls

BASE = dict(num_partitions=4, items_chunk=200, workers=2, seen_shards=2,
            n_hosts=10, n_paths=40, pass_time_ms=8000, fail_mod=0,
            max_passes=30)


def _docs(root):
    return [d for f in sorted(glob.glob(f"{root}/tables/documents/*/*.parquet"))
            for d in pq.read_table(f).to_pylist()]


def test_two_engines_equal_single_engine(tmp_store):
    seeds = make_seed_urls(120, n_hosts=10)

    # single-engine ground run, crawled to exhaustion
    rootS = f"{tmp_store}-single"
    outS = run_crawl(rootS, CrawlConfig(**BASE), seed_urls=seeds,
                     max_passes=30)
    docsS = {d["doc_id"] for d in _docs(rootS)}
    assert outS["passes"][-1]["done"]

    # two shared-nothing engines over one store
    rootM = f"{tmp_store}-multi"
    cfg0 = CrawlConfig(**BASE, num_engines=2, engine_index=0)
    cfg1 = CrawlConfig(**BASE, num_engines=2, engine_index=1)
    init_run(rootM, cfg0, seeds)
    store0, st0 = resume_run(rootM, cfg0)
    store1, st1 = resume_run(rootM, cfg1)
    idle = 0
    for _ in range(40):
        s0 = run_pass(store0, cfg0, st0)
        s1 = run_pass(store1, cfg1, st1)
        if (s0["done"] and s1["done"]
                and s0["retry_size"] == 0 and s1["retry_size"] == 0):
            idle += 1
            if idle >= 2:   # one extra round so late mailbox posts drain
                break
        else:
            idle = 0
    docsM = {d["doc_id"] for d in _docs(rootM)}
    assert docsM == docsS, (
        f"multi-engine union differs: only-single={len(docsS - docsM)} "
        f"only-multi={len(docsM - docsS)}")

    # no rowid collisions within any partition across all frontier fragments
    seen_rowids: dict[tuple, int] = {}
    for f in glob.glob(f"{rootM}/tables/frontier/*.parquet"):
        for r in pq.read_table(f, columns=["partition_id", "rowid"]).to_pylist():
            key = (r["partition_id"], r["rowid"])
            seen_rowids[key] = seen_rowids.get(key, 0) + 1
    dups = {k: v for k, v in seen_rowids.items() if v > 1}
    assert not dups, f"rowid collisions: {list(dups)[:5]}"

    st0.seen.teardown()


def test_engine_partition_disjointness(tmp_store):
    """Each document is fetched by the engine owning its partition."""
    seeds = make_seed_urls(80, n_hosts=10)
    cfg0 = CrawlConfig(**BASE, num_engines=2, engine_index=0)
    cfg1 = CrawlConfig(**BASE, num_engines=2, engine_index=1)
    init_run(tmp_store, cfg0, seeds)
    store0, st0 = resume_run(tmp_store, cfg0)
    store1, st1 = resume_run(tmp_store, cfg1)
    run_pass(store0, cfg0, st0)
    docs_after_e0 = {d["doc_id"] for d in _docs(tmp_store)}
    run_pass(store1, cfg1, st1)
    docs_after_e1 = {d["doc_id"] for d in _docs(tmp_store)}
    assert docs_after_e0 and docs_after_e1 - docs_after_e0, \
        "both engines fetch something"
    st0.seen.teardown()


def test_resume_does_not_roll_back_live_foreign_shards(tmp_store):
    """Restarting one engine while another is mid-pass must NOT restore
    the live engine's seen shards from its last committed snapshot —
    that would erase in-flight seen marks and re-permit duplicate
    fetches. The resuming engine restores its OWN shards; foreign
    shards are restored only when their actors are freshly created."""
    import numpy as np

    seeds = make_seed_urls(120, n_hosts=10)
    root = f"{tmp_store}-liveresume"
    cfg0 = CrawlConfig(**BASE, num_engines=2, engine_index=0)
    cfg1 = CrawlConfig(**BASE, num_engines=2, engine_index=1)
    store, state = init_run(root, dataclasses.replace(cfg0, num_engines=1,
                                                      engine_index=0), seeds)
    state.seen.teardown()

    s0, st0 = resume_run(root, cfg0)
    s1, st1 = resume_run(root, cfg1)
    run_pass(s0, cfg0, st0)
    run_pass(s1, cfg1, st1)

    # engine 1 keeps running: it marks NEW uncommitted hashes into the
    # shards it owns (shard id odd = engine 1 under shard % 2 == engine)
    live_hashes = np.array([0xDEAD0001, 0xDEAD0003], dtype=np.uint64)
    assert all(int(h) % cfg1.seen_shards == 1 for h in live_hashes)
    st1.seen.contains_add(live_hashes)
    before = st1.seen.items_per_shard()

    # engine 0 crashes and resumes while engine 1's actors are LIVE
    s0b, st0b = resume_run(root, cfg0)
    after = st0b.seen.items_per_shard()
    assert after[1] == before[1], (
        "live foreign shard rolled back on resume")
    assert st0b.seen.contains(live_hashes).all(), (
        "in-flight marks of the live engine were erased")
    st0b.seen.teardown()


def test_three_engines_equal_single_engine(tmp_store):
    """3-way shared-nothing split (partition % 3 ownership, 3 seen
    shards): union of the three engines' crawls equals the single-engine
    crawl — the ownership/mailbox/seen logic is modulo-N, not
    hardcoded-2."""
    seeds = make_seed_urls(120, n_hosts=10)
    base = dict(BASE, num_partitions=6, seen_shards=3)

    rootS = f"{tmp_store}-single3"
    outS = run_crawl(rootS, CrawlConfig(**base), seed_urls=seeds,
                     max_passes=30)
    docsS = {d["doc_id"] for d in _docs(rootS)}
    assert outS["passes"][-1]["done"]

    rootM = f"{tmp_store}-multi3"
    cfgs = [CrawlConfig(**base, num_engines=3, engine_index=i)
            for i in range(3)]
    init_run(rootM, cfgs[0], seeds)
    pairs = [resume_run(rootM, c) for c in cfgs]
    idle = 0
    for _ in range(40):
        ss = [run_pass(store, c, st)
              for (store, st), c in zip(pairs, cfgs)]
        if all(s["done"] and s["retry_size"] == 0 for s in ss):
            idle += 1
            if idle >= 2:
                break
        else:
            idle = 0
    docsM = {d["doc_id"] for d in _docs(rootM)}
    assert docsM == docsS, (
        f"3-engine union differs: only-single={len(docsS - docsM)} "
        f"only-multi={len(docsM - docsS)}")
    pairs[0][1].seen.teardown()


def test_two_engines_with_midway_restart_equal_single(tmp_store):
    """Engine 0 'crashes' after its first pass (state discarded) and
    resumes from its committed checkpoints while engine 1 keeps going;
    the finished union must STILL equal the single-engine crawl —
    mailbox drains and seen marks are idempotent across the restart."""
    seeds = make_seed_urls(120, n_hosts=10)

    rootS = f"{tmp_store}-single-r"
    run_crawl(rootS, CrawlConfig(**BASE), seed_urls=seeds, max_passes=30)
    docsS = {d["doc_id"] for d in _docs(rootS)}

    rootM = f"{tmp_store}-multi-r"
    cfg0 = CrawlConfig(**BASE, num_engines=2, engine_index=0)
    cfg1 = CrawlConfig(**BASE, num_engines=2, engine_index=1)
    init_run(rootM, cfg0, seeds)
    s0, st0 = resume_run(rootM, cfg0)
    s1, st1 = resume_run(rootM, cfg1)
    run_pass(s0, cfg0, st0)
    run_pass(s1, cfg1, st1)
    # engine 0 crashes: drop its driver state, resume from checkpoints
    del s0, st0
    s0, st0 = resume_run(rootM, cfg0)
    idle = 0
    for _ in range(40):
        r0 = run_pass(s0, cfg0, st0)
        r1 = run_pass(s1, cfg1, st1)
        if (r0["done"] and r1["done"]
                and r0["retry_size"] == 0 and r1["retry_size"] == 0):
            idle += 1
            if idle >= 2:
                break
        else:
            idle = 0
    docsM = {d["doc_id"] for d in _docs(rootM)}
    assert docsM == docsS, (
        f"restart broke the union: only-single={len(docsS - docsM)} "
        f"only-multi={len(docsM - docsS)}")
    st0.seen.teardown()


def test_destroy_run_actors_reclaims_leaked_shards(tmp_store):
    """A run abandoned without teardown leaves detached shard actors;
    destroy_run_actors reclaims exactly them (idempotent)."""
    import ray as _ray

    from container_crawler_ray.pipelines.crawl import destroy_run_actors
    from container_crawler_ray.state.seen import NAMESPACE

    seeds = make_seed_urls(60, n_hosts=10)
    root = f"{tmp_store}-leak"
    cfg = CrawlConfig(**BASE)
    store, st = init_run(root, cfg, seeds)
    run_pass(store, cfg, st)
    name0 = f"seen-{st.seen.run_id}-0"
    assert _ray.get_actor(name0, namespace=NAMESPACE) is not None
    del store, st                        # 'crash': no teardown
    killed = destroy_run_actors(root, cfg)
    assert killed == cfg.seen_shards
    import pytest as _pytest
    with _pytest.raises(ValueError):
        _ray.get_actor(name0, namespace=NAMESPACE)
    assert destroy_run_actors(root, cfg) == 0    # idempotent


def test_total_shard_actor_loss_between_passes_recovers(tmp_store):
    """Node-loss drill: after a committed pass, ALL detached seen-shard
    actors are killed (ray.kill — simulated node failure). A resume must
    mint fresh shard actors, restore their filters from the committed
    snapshot, and converge to exactly the uninterrupted run's documents,
    watermarks and frontier."""
    from container_crawler_ray.pipelines.crawl import destroy_run_actors

    seeds = make_seed_urls(80, n_hosts=10)
    cfg = CrawlConfig(**BASE)
    rootA, rootB = f"{tmp_store}-lossA", f"{tmp_store}-lossB"
    run_crawl(rootA, cfg, seed_urls=seeds, max_passes=4)
    store, st = init_run(rootB, cfg, seeds)
    run_pass(store, cfg, st)
    run_pass(store, cfg, st)
    del store, st                                    # crash: no teardown
    assert destroy_run_actors(rootB, cfg) == cfg.seen_shards  # node dies
    run_crawl(rootB, cfg, resume=True, max_passes=4)
    assert {d["doc_id"] for d in _docs(rootA)} == \
        {d["doc_id"] for d in _docs(rootB)}


def test_two_engines_with_compaction_equal_single(tmp_store):
    """Small-file compaction of one engine's committed frontier
    appends (and the coordinator seed tag) mid-crawl must be invisible
    to BOTH engines: the finished union still equals the single-engine
    crawl. Exercises the LOxHI segment name through the multi-engine
    committed-frontier filter (prefix match + HI-bound parse)."""
    from container_crawler_ray.storage import TableStore

    seeds = make_seed_urls(120, n_hosts=10)

    rootS = f"{tmp_store}-single-c"
    run_crawl(rootS, CrawlConfig(**BASE), seed_urls=seeds, max_passes=30)
    docsS = {d["doc_id"] for d in _docs(rootS)}

    rootM = f"{tmp_store}-multi-c"
    cfg0 = CrawlConfig(**BASE, num_engines=2, engine_index=0)
    cfg1 = CrawlConfig(**BASE, num_engines=2, engine_index=1)
    init_run(rootM, cfg0, seeds)
    s0, st0 = resume_run(rootM, cfg0)
    s1, st1 = resume_run(rootM, cfg1)
    for _ in range(3):
        run_pass(s0, cfg0, st0)
        run_pass(s1, cfg1, st1)
    # compact engine 0's committed appends while engine 1 is live
    st = TableStore(rootM)
    committed0 = st.read_meta("meta-e0.json")["pass_id"]
    st.compact("frontier", tag="append-e0", upto_pass=committed0)
    idle = 0
    for _ in range(40):
        r0 = run_pass(s0, cfg0, st0)
        r1 = run_pass(s1, cfg1, st1)
        if (r0["done"] and r1["done"]
                and r0["retry_size"] == 0 and r1["retry_size"] == 0):
            idle += 1
            if idle >= 2:
                break
        else:
            idle = 0
    docsM = {d["doc_id"] for d in _docs(rootM)}
    assert docsM == docsS, (
        f"compaction broke the union: only-single={len(docsS - docsM)} "
        f"only-multi={len(docsM - docsS)}")
    st0.seen.teardown()


def test_staggered_midpass_kill_loses_nothing(tmp_store):
    """One engine is killed MID-PASS — after its seen marks landed on the
    SHARED shards (half of them foreign-owned and live) but before its
    meta commit — while the other engine keeps crawling. The mark-WAL
    rollback in resume_run must delete exactly the torn marks from
    foreign shards (own shards roll back via snapshot restore), so the
    converged union still equals the single-engine crawl: no committed
    doc lost, none duplicated. Before the WAL fix the replayed rows were
    dropped as "seen" and their documents silently lost."""
    import collections
    import os
    import shutil

    seeds = make_seed_urls(120, n_hosts=10)

    rootS = f"{tmp_store}-single-k"
    run_crawl(rootS, CrawlConfig(**BASE), seed_urls=seeds, max_passes=30)
    docsS = {d["doc_id"] for d in _docs(rootS)}

    rootM = f"{tmp_store}-multi-k"
    cfg0 = CrawlConfig(**BASE, num_engines=2, engine_index=0)
    cfg1 = CrawlConfig(**BASE, num_engines=2, engine_index=1)
    init_run(rootM, cfg0, seeds)
    s0, st0 = resume_run(rootM, cfg0)
    s1, st1 = resume_run(rootM, cfg1)
    run_pass(s0, cfg0, st0)
    run_pass(s1, cfg1, st1)
    committed_before = {d["doc_id"] for d in _docs(rootM)}

    # ---- mid-pass kill emulation: run engine 0's pass 2 fully, then
    # roll its COMMIT POINT back (meta-e0.json is the commit; every
    # other artifact is a fragment the replay must ignore/overwrite).
    # The shard actors stay up — detached actors survive an engine
    # crash — so the torn pass's marks are LIVE in the shared seen set,
    # and the mark-WAL fragment is on disk: exactly the post-crash
    # state of a kill between mark-apply and commit.
    meta_path = os.path.join(rootM, "meta-e0.json")
    saved_meta = open(meta_path, "rb").read()
    run_pass(s0, cfg0, st0)
    with open(meta_path + ".tmp", "wb") as f:
        f.write(saved_meta)
    os.replace(meta_path + ".tmp", meta_path)
    assert glob.glob(f"{rootM}/tables/marks/marks-e0_000002.parquet"), \
        "mark-WAL fragment for the torn pass must exist"
    del s0, st0           # engine 0 is dead

    # engine 1 keeps writing to the shared seen shards while 0 is down
    run_pass(s1, cfg1, st1)
    run_pass(s1, cfg1, st1)

    # engine 0 resumes from its last committed pass (1)
    s0, st0 = resume_run(rootM, cfg0)
    assert st0.pass_id == 1

    idle = 0
    for _ in range(40):
        r0 = run_pass(s0, cfg0, st0)
        r1 = run_pass(s1, cfg1, st1)
        if (r0["done"] and r1["done"]
                and r0["retry_size"] == 0 and r1["retry_size"] == 0):
            idle += 1
            if idle >= 2:
                break
        else:
            idle = 0

    all_docs = [d["doc_id"] for d in _docs(rootM)]
    docsM = set(all_docs)
    # effectively-once: no doc committed twice anywhere
    dupes = [k for k, v in collections.Counter(all_docs).items() if v > 1]
    assert not dupes, f"duplicated committed docs: {dupes[:5]}"
    # nothing committed before the kill was lost
    assert committed_before <= docsM
    # and the full union still equals the single-engine crawl — the
    # torn marks did not swallow any document
    assert docsM == docsS, (
        f"mid-pass kill lost docs: only-single={len(docsS - docsM)} "
        f"only-multi={len(docsM - docsS)}")
    st0.seen.teardown()


def test_multi_engine_auto_salt_union(tmp_store):
    """Auto-salting in multi-engine mode: each engine detects hot hosts
    from its OWN appends, so engines can transiently disagree on a
    host's salted status and the same discovered URL can land in two
    partitions owned by different engines. The seen set must still make
    delivery effectively-once: the converged union equals the
    single-engine crawl (also with auto-salt on) and no doc_id is
    committed twice."""
    import collections

    seeds = make_seed_urls(120, n_hosts=4)
    base = dict(BASE, n_hosts=4, num_partitions=8,
                auto_salt_share_milli=200, auto_salt_min_rows=4)

    rootS = f"{tmp_store}-salt-single"
    run_crawl(rootS, CrawlConfig(**base), seed_urls=seeds, max_passes=30)
    docsS = {d["doc_id"] for d in _docs(rootS)}

    rootM = f"{tmp_store}-salt-multi"
    cfg0 = CrawlConfig(**base, num_engines=2, engine_index=0)
    cfg1 = CrawlConfig(**base, num_engines=2, engine_index=1)
    init_run(rootM, cfg0, seeds)
    s0, st0 = resume_run(rootM, cfg0)
    s1, st1 = resume_run(rootM, cfg1)
    idle = 0
    for _ in range(40):
        r0 = run_pass(s0, cfg0, st0)
        r1 = run_pass(s1, cfg1, st1)
        if (r0["done"] and r1["done"]
                and r0["retry_size"] == 0 and r1["retry_size"] == 0):
            idle += 1
            if idle >= 2:
                break
        else:
            idle = 0
    # with 4 hosts and a 20% share threshold, detection must fire
    assert st0.salted_hosts or st1.salted_hosts, "auto-salt never fired"
    all_docs = [d["doc_id"] for d in _docs(rootM)]
    dupes = [k for k, v in collections.Counter(all_docs).items()
             if v > 1]
    assert not dupes, f"duplicate committed docs: {dupes[:5]}"
    assert set(all_docs) == docsS, (
        f"auto-salt broke the union: only-single="
        f"{len(docsS - set(all_docs))} "
        f"only-multi={len(set(all_docs) - docsS)}")
    st0.seen.teardown()


def test_three_engine_staggered_kill(tmp_store):
    """3-engine variant of the mid-pass kill: engine 1 dies after its
    marks landed on shards owned by all THREE engines; engines 0 and 2
    keep crawling while it is down. The WAL rollback must clean engine
    1's torn marks from every shard without touching the survivors'
    in-flight marks — converged union equals single-engine, no dup."""
    import collections
    import os

    seeds = make_seed_urls(120, n_hosts=10)
    base = dict(BASE, num_partitions=6, seen_shards=3)

    rootS = f"{tmp_store}-k3-single"
    run_crawl(rootS, CrawlConfig(**base), seed_urls=seeds, max_passes=30)
    docsS = {d["doc_id"] for d in _docs(rootS)}

    rootM = f"{tmp_store}-k3-multi"
    cfgs = [CrawlConfig(**base, num_engines=3, engine_index=i)
            for i in range(3)]
    init_run(rootM, cfgs[0], seeds)
    pairs = [list(resume_run(rootM, c)) for c in cfgs]
    for (st_, s_), c in zip(pairs, cfgs):
        run_pass(st_, c, s_)

    # engine 1: run pass 2 fully, then roll back its commit point —
    # detached shard actors keep the torn marks live
    meta_path = os.path.join(rootM, "meta-e1.json")
    saved = open(meta_path, "rb").read()
    run_pass(pairs[1][0], cfgs[1], pairs[1][1])
    with open(meta_path + ".tmp", "wb") as f:
        f.write(saved)
    os.replace(meta_path + ".tmp", meta_path)
    pairs[1] = None                              # engine 1 is dead

    # survivors keep writing to the shared shards
    run_pass(pairs[0][0], cfgs[0], pairs[0][1])
    run_pass(pairs[2][0], cfgs[2], pairs[2][1])

    pairs[1] = list(resume_run(rootM, cfgs[1]))
    assert pairs[1][1].pass_id == 1

    idle = 0
    for _ in range(40):
        rs = [run_pass(s_, c, st_)
              for (s_, st_), c in zip(pairs, cfgs)]
        if all(r["done"] and r["retry_size"] == 0 for r in rs):
            idle += 1
            if idle >= 2:
                break
        else:
            idle = 0
    all_docs = [d["doc_id"] for d in _docs(rootM)]
    dupes = [k for k, v in collections.Counter(all_docs).items()
             if v > 1]
    assert not dupes, f"duplicate committed docs: {dupes[:5]}"
    assert set(all_docs) == docsS, (
        f"3-engine staggered kill broke the union: "
        f"only-single={len(docsS - set(all_docs))} "
        f"only-multi={len(set(all_docs) - docsS)}")
    pairs[0][1].seen.teardown()


def test_wal_rollback_protects_foreign_dup_marks(tmp_store):
    """Round-4 guard (ADVICE): a crashed engine's torn-pass WAL rollback
    must NOT erase a hash another engine has write-ahead-logged — the
    auto-salt transient-disagreement case where the same discovered URL
    lands in two partitions owned by two engines and both mark it. The
    rollback intersects the torn WAL against foreign engines' retained
    mark-WAL fragments: protected hashes stay marked, the engine's own
    unshared torn marks are removed, and the consumed WAL fragment is
    deleted so a second crash cannot roll the same marks back twice."""
    import numpy as np
    import pyarrow as pa

    from container_crawler_ray.pipelines.crawl import _etag
    from container_crawler_ray.storage import TableStore

    seeds = make_seed_urls(80, n_hosts=10)
    cfg0 = CrawlConfig(**BASE, num_engines=2, engine_index=0)
    cfg1 = CrawlConfig(**BASE, num_engines=2, engine_index=1)
    init_run(tmp_store, cfg0, seeds)
    s0, st0 = resume_run(tmp_store, cfg0)
    s1, st1 = resume_run(tmp_store, cfg1)
    run_pass(s0, cfg0, st0)        # commit pass 1 for both engines
    run_pass(s1, cfg1, st1)

    h_dup = np.uint64(0xDEADBEEF00000001)   # marked by BOTH engines
    h_own = np.uint64(0xDEADBEEF00000002)   # marked by engine 0 only
    st0.seen.contains_add(np.array([h_dup, h_own], dtype=np.uint64))

    # engine 0's TORN WAL (uncommitted pass 2): both hashes
    store = TableStore(tmp_store)
    store.append_fragment(
        "marks", pa.table({"url_hash": pa.array(
            np.array([h_dup, h_own], dtype=np.uint64))}),
        st0.pass_id + 1, tag=_etag(cfg0, "marks"))
    # engine 1's COMMITTED WAL for its pass 1: the dup hash
    store.append_fragment(
        "marks", pa.table({"url_hash": pa.array(
            np.array([h_dup], dtype=np.uint64))}),
        st1.pass_id, tag=_etag(cfg1, "marks"))

    # engine 0 "crashes" and resumes: rollback must keep h_dup, drop h_own
    del s0, st0
    s0, st0 = resume_run(tmp_store, cfg0)
    got = st0.seen.contains(np.array([h_dup, h_own], dtype=np.uint64))
    assert bool(got[0]), "foreign-logged dup mark was erased by rollback"
    assert not bool(got[1]), "engine's own torn mark survived rollback"
    # the consumed WAL fragment is gone (no double-rollback exposure)
    assert store.read_fragment("marks", _etag(cfg0, "marks"),
                               st0.pass_id + 1) is None
    st0.seen.teardown()


def test_stalled_engine_pins_mark_wal_retention(tmp_store, caplog):
    """Round-5 guard (ADVICE r4, medium): mark-WAL GC is anchored to the
    MINIMUM commit frontier across all engines, not each engine's own
    pass — a crashed engine can resume arbitrarily later, and the
    foreign WAL fragment protecting its torn dup-mark must survive even
    if the surviving engine commits many more than _MARK_WAL_KEEP
    passes in the meantime. Under the old own-pass GC, engine 1's
    pass-1 fragment would be deleted once engine 1 reached pass 6; the
    resumed engine 0 would then erase engine 1's legitimate mark."""
    import numpy as np
    import pyarrow as pa

    from container_crawler_ray.pipelines.crawl import (
        _MARK_WAL_KEEP, _etag)
    from container_crawler_ray.storage import TableStore

    seeds = make_seed_urls(80, n_hosts=10)
    cfg0 = CrawlConfig(**BASE, num_engines=2, engine_index=0)
    cfg1 = CrawlConfig(**BASE, num_engines=2, engine_index=1)
    init_run(tmp_store, cfg0, seeds)
    s0, st0 = resume_run(tmp_store, cfg0)
    s1, st1 = resume_run(tmp_store, cfg1)
    run_pass(s0, cfg0, st0)        # both engines commit pass 1
    run_pass(s1, cfg1, st1)

    h_dup = np.uint64(0xFEEDFACE00000001)   # marked by BOTH engines
    h_own = np.uint64(0xFEEDFACE00000002)   # engine 0's torn mark only
    st0.seen.contains_add(np.array([h_dup, h_own], dtype=np.uint64))

    store = TableStore(tmp_store)
    # engine 0's TORN WAL (uncommitted pass 2): both hashes
    store.append_fragment(
        "marks", pa.table({"url_hash": pa.array(
            np.array([h_dup, h_own], dtype=np.uint64))}),
        st0.pass_id + 1, tag=_etag(cfg0, "marks"))
    # engine 1's COMMITTED WAL for its pass 1: the dup hash
    wal_pass = st1.pass_id
    store.append_fragment(
        "marks", pa.table({"url_hash": pa.array(
            np.array([h_dup], dtype=np.uint64))}),
        wal_pass, tag=_etag(cfg1, "marks"))

    # engine 0 stalls; engine 1 commits KEEP+2 more passes (each pass
    # runs the mark-WAL GC in _write_state_fragments)
    with caplog.at_level("WARNING", logger="container_crawler_ray.crawl"):
        for _ in range(_MARK_WAL_KEEP + 2):
            run_pass(s1, cfg1, st1)
    pinned = [r.getMessage() for r in caplog.records
              if "mark-WAL retention pinned" in r.getMessage()]
    assert pinned and all("engine 0 committed pass 1" in m
                          for m in pinned), \
        "a lagging engine that pins WAL retention must be named"
    assert st1.pass_id - wal_pass > _MARK_WAL_KEEP, \
        "engine 1 must outrun the per-engine retention window"
    assert wal_pass in store.list_fragment_passes(
        "marks", _etag(cfg1, "marks")), \
        "stalled engine 0 must pin engine 1's pass-1 WAL fragment"

    # engine 0 finally resumes: rollback still protects h_dup
    del s0, st0
    s0, st0 = resume_run(tmp_store, cfg0)
    got = st0.seen.contains(np.array([h_dup, h_own], dtype=np.uint64))
    assert bool(got[0]), \
        "late resume erased a foreign dup mark (retention window GC'd)"
    assert not bool(got[1]), "engine 0's own torn mark must roll back"
    st0.seen.teardown()


def test_mailbox_posts_are_deduplicated(tmp_store):
    """A pass posts each foreign canonical URL once (min depth, ties to
    the smallest raw url, the rule its own links follow), so no drained
    frontier fragment holds a canonical URL twice; the documents still
    equal a single-engine crawl's."""
    seeds = make_seed_urls(160, n_hosts=10)
    rootS = f"{tmp_store}-single"
    run_crawl(rootS, CrawlConfig(**BASE), seed_urls=seeds, max_passes=30)

    rootM = f"{tmp_store}-multi"
    cfgs = [CrawlConfig(**BASE, num_engines=2, engine_index=e)
            for e in (0, 1)]
    init_run(rootM, cfgs[0], seeds)
    engines = [(cfg, *resume_run(rootM, cfg)) for cfg in cfgs]
    idle = 0
    for _ in range(40):
        stats = [run_pass(store, cfg, st) for cfg, store, st in engines]
        idle = idle + 1 if all(s["done"] and s["retry_size"] == 0
                               for s in stats) else 0
        if idle >= 2:
            break
    drained = glob.glob(f"{rootM}/tables/frontier/append-e*d_*.parquet")
    assert drained
    for f in drained:
        canon = pq.read_table(f, columns=["canonical_url"]).column(
            "canonical_url").to_pylist()
        assert len(canon) == len(set(canon)), f
    assert ({d["doc_id"] for d in _docs(rootM)}
            == {d["doc_id"] for d in _docs(rootS)})
    engines[0][2].seen.teardown()


def test_per_engine_metrics_cover_every_scanned_partition(tmp_store):
    """Each engine writes its own metrics fragment, so after one pass per
    engine at the same pass id the union of their metrics rows covers
    every partition that was scanned (a metrics tag shared by the engines
    let the second engine's fragment overwrite the first's)."""
    from container_crawler_ray.storage import TableStore

    seeds = make_seed_urls(80, n_hosts=10)
    cfgs = [CrawlConfig(**BASE, num_engines=2, engine_index=e)
            for e in (0, 1)]
    init_run(tmp_store, cfgs[0], seeds)
    engines = [(cfg, *resume_run(tmp_store, cfg)) for cfg in cfgs]
    scanned = sum(run_pass(store, cfg, st)["scanned"]
                  for cfg, store, st in engines)
    store = TableStore(tmp_store)
    seeded = set(store.read_fragment("frontier", "append", 0)
                 .column("partition_id").to_pylist())
    rows = [r for r in store.read_all("metrics").to_pylist()
            if r["stage"] == "scan" and r["partition_id"] >= 0]
    assert seeded == set(range(BASE["num_partitions"]))
    assert {r["partition_id"] for r in rows if r["rows_in"]} == seeded
    assert sum(r["rows_in"] for r in rows) == scanned
    engines[0][2].seen.teardown()


def test_multi_engine_resume_needs_the_shared_seen_set(tmp_store):
    """Engines share one seen set through the ``seen_run_id`` of the init
    ``meta.json``. A run initialized with zero passes keeps it, and every
    engine resolves the same shards; a committed single-engine pass
    overwrites ``meta.json`` without it, and a multi-engine resume then
    refuses to start rather than mint a private seen set per engine."""
    import pytest

    seeds = make_seed_urls(40, n_hosts=10)
    cfgs = [CrawlConfig(**BASE, num_engines=2, engine_index=e)
            for e in (0, 1)]
    run_crawl(f"{tmp_store}-zero", CrawlConfig(**BASE), seed_urls=seeds,
              max_passes=0)
    states = [resume_run(f"{tmp_store}-zero", cfg)[1] for cfg in cfgs]
    assert states[0].seen.run_id == states[1].seen.run_id
    states[0].seen.teardown()

    run_crawl(f"{tmp_store}-one", CrawlConfig(**BASE), seed_urls=seeds,
              max_passes=1)
    with pytest.raises(ValueError, match="seen_run_id"):
        resume_run(f"{tmp_store}-one", cfgs[0])


def test_engine_names_come_from_the_naming_rule():
    """Every per-engine name in ``crawl.py`` is built by ``_etag``: no
    other string there writes an ``-e{...}`` engine suffix. One engine
    and many choose different code only where they differ (the naming
    rule and the seen restore in ``resume_run``)."""
    import ast
    import inspect

    from container_crawler_ray.pipelines import crawl

    suffixed, branches = [], []
    for top in ast.parse(inspect.getsource(crawl)).body:
        where = getattr(top, "name", "<module>")
        for n in ast.walk(top):
            if isinstance(n, ast.JoinedStr) and any(
                    isinstance(a, ast.Constant) and a.value.endswith("-e")
                    and isinstance(b, ast.FormattedValue)
                    for a, b in zip(n.values, n.values[1:])):
                suffixed.append(f"{where}:{n.lineno}")
            if isinstance(n, ast.Compare) and any(
                    isinstance(x, ast.Attribute) and x.attr == "num_engines"
                    for x in [n.left, *n.comparators]):
                branches.append(where)
    assert all(s.startswith("_etag:") for s in suffixed), suffixed
    assert sorted(branches) == ["_etag", "resume_run"], branches
