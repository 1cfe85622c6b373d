"""Engine ↔ spec-oracle conformance (SURVEY.md §5.2; BASELINE.json
correctness gate): identical seed list + politeness budget ⇒

- identical URL-seen set (per-(host, pass) fetched-URL sets; since the
  per-host schedule order is a deterministic function of the set —
  priority desc, rowid asc — set equality per pass implies crawl-order
  equality),
- span-sequence equality (kind, text, media_ref, order) for every emitted
  document,
- identical frontier contents (rowid, canonical_url, partition, depth per
  row), watermarks and retry queue after every run.
"""

import glob

import pyarrow.parquet as pq
import pytest

from container_crawler_ray.config import CrawlConfig
from container_crawler_ray.pipelines.crawl import run_crawl
from container_crawler_ray.sources.synth import make_seed_urls

from .oracle import run_oracle

CFG = CrawlConfig(num_partitions=8, items_chunk=150, workers=2,
                  seen_shards=4, n_hosts=60, n_paths=400,
                  pass_time_ms=2000)
N_SEEDS = 400
N_PASSES = 4


@pytest.fixture(scope="module")
def engine_run(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("conf") / "run")
    seeds = make_seed_urls(N_SEEDS, n_hosts=CFG.n_hosts)
    out = run_crawl(root, CFG, seed_urls=seeds, max_passes=N_PASSES)
    return root, out


@pytest.fixture(scope="module")
def oracle_run():
    seeds = make_seed_urls(N_SEEDS, n_hosts=CFG.n_hosts)
    return run_oracle(CFG, seeds, max_passes=N_PASSES)


def _engine_docs(root):
    files = sorted(glob.glob(f"{root}/tables/documents/*/*.parquet"))
    rows = []
    for f in files:
        rows.extend(pq.read_table(f).to_pylist())
    return rows


def test_fetched_sets_per_host_pass(engine_run, oracle_run):
    root, _ = engine_run
    eng = _engine_docs(root)
    assert len(eng) > 100, "crawl should have fetched a meaningful corpus"
    eng_sets: dict = {}
    for d in eng:
        eng_sets.setdefault((d["host"], d["pass_id"]), set()).add(d["url"])
    ora_sets: dict = {}
    for d in oracle_run.docs:
        ora_sets.setdefault((d["host"], d["pass_id"]), set()).add(d["url"])
    assert eng_sets == ora_sets


def test_span_sequence_equality(engine_run, oracle_run):
    """The per-row invariant from BASELINE.json input_hint: span-sequence
    equality (kind, text, media_ref, order) for every emitted doc."""
    root, _ = engine_run
    eng = {d["doc_id"]: d for d in _engine_docs(root)}
    ora = {d["doc_id"]: d for d in oracle_run.docs}
    assert set(eng) == set(ora)
    for doc_id, e in eng.items():
        o = ora[doc_id]
        e_seq = [(s["kind"], s["text"], s["media_ref"]) for s in e["spans"]]
        o_seq = [(s["kind"], s["text"], s["media_ref"]) for s in o["spans"]]
        assert e_seq == o_seq, f"span mismatch for {doc_id}"
        assert [s["offset"] for s in e["spans"]] == \
            [s["offset"] for s in o["spans"]]


def test_frontier_and_watermarks_match(engine_run, oracle_run):
    root, _ = engine_run
    files = sorted(glob.glob(f"{root}/tables/frontier/*.parquet"))
    eng_rows = set()
    for f in files:
        for r in pq.read_table(f).to_pylist():
            eng_rows.add((r["partition_id"], r["rowid"], r["canonical_url"],
                          r["depth"], r["pass_added"]))
    ora_rows = set()
    for p, rows in oracle_run.frontier.items():
        for r in rows:
            ora_rows.add((p, r.rowid, r.canonical_url, r.depth, r.pass_added))
    assert eng_rows == ora_rows
    import json
    meta = json.load(open(f"{root}/meta.json"))
    ck = pq.read_table(
        f"{root}/tables/checkpoints/ckpt_{meta['pass_id']:06d}.parquet"
    ).to_pylist()
    eng_wm = {r["partition_id"]: r["last_row"] for r in ck}
    assert eng_wm == oracle_run.watermarks


def test_retry_queue_matches(engine_run, oracle_run):
    root, _ = engine_run
    import json
    meta = json.load(open(f"{root}/meta.json"))
    rt = pq.read_table(
        f"{root}/tables/retry/retry_{meta['pass_id']:06d}.parquet").to_pylist()
    eng = {(r["canonical_url"], r["attempts"]) for r in rt}
    ora = {(r.canonical_url, r.attempts) for r in oracle_run.retry}
    assert eng == ora


def test_errors_were_injected_and_retried(engine_run, oracle_run):
    """The deterministic transient-failure injector must actually fire and
    the retried URLs must eventually be fetched (effectively-once)."""
    _, out = engine_run
    total_errors = sum(p["errors"] for p in out["passes"])
    assert total_errors > 0
    root, _ = engine_run
    docs = _engine_docs(root)
    assert len(docs) == len({d["doc_id"] for d in docs}), \
        "no document fetched twice (seen-set effectively-once)"


def test_bucket_state_matches_oracle_every_pass(tmp_store):
    """The engine's token buckets equal the spec oracle's after every
    pass, exactly (same IEEE arithmetic), less the entries the engine
    drops because they would refill to capacity by the next pass. Budgets
    bind (small pass time), one host is skip-all, one has a path-prefix
    disallow, and first attempts fail and retry."""
    from container_crawler_ray.pipelines.crawl import init_run, run_pass
    from container_crawler_ray.sources import synth

    from .oracle import init_oracle, run_oracle_pass

    cfg = CrawlConfig(num_partitions=4, items_chunk=60, workers=2,
                      seen_shards=2, n_hosts=12, n_paths=60,
                      pass_time_ms=300, fail_mod=5)
    robots = synth.robots_lookup(cfg.n_hosts)
    # delays whose rates (2, 1, 0.5 tokens a pass) put entries exactly on
    # the refill-to-capacity boundary
    for h, delay in ((3, 150), (4, 300), (5, 600)):
        robots[synth.host_name(h)]["crawl_delay_ms"] = delay
    robots["h0001.example"]["rules"] = [{"allow": False, "path_prefix": "/"}]
    robots["h0002.example"]["rules"] = [
        {"allow": False, "path_prefix": "/p/1"},
        {"allow": True, "path_prefix": "/"}]
    seeds = make_seed_urls(150, n_hosts=cfg.n_hosts)
    store, state = init_run(tmp_store, cfg, seeds, robots=robots)
    ost, _ = init_oracle(cfg, seeds, robots)

    def kept(host, tokens):
        delay = robots[host]["crawl_delay_ms"]
        rate = cfg.pass_time_ms / max(1.0, float(delay))
        return tokens + rate < max(1.0, cfg.bucket_capacity_factor * rate)

    deferred = errors = 0
    try:
        for _ in range(5):
            stats = run_pass(store, cfg, state)
            run_oracle_pass(cfg, ost, robots)
            deferred += stats["deferred"]
            errors += stats["errors"]
            assert state.buckets == {h: v for h, v in ost.buckets.items()
                                     if kept(h, v)}
    finally:
        state.seen.teardown()
    assert deferred > 0 and errors > 0 and state.buckets
