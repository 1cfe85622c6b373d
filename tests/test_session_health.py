"""Pinned repro for the round-2 'post-crawl in-session slowdown'
pathology (BENCH/BASELINE.md): running the headline crawl first could
nondeterministically inflate a later Python-loop-heavy query in the SAME
Ray session by 30-60x (strip_dup_windows 231 s vs ~7 s). Round 2 shipped
two mitigations — the mask stage was batch-vectorized (one searchsorted
per batch, ~20x smaller Python-loop exposure) and the round-2 bench
script moved the query sweep to a fresh session. With those in place the inflation no
longer reproduces at any scale tried (100k and 229k fetched URLs, sf0.01
and sf0.1: post-crawl runs are 0.3-1.1x fresh — FASTER, warm workers).
This test keeps the pathology pinned: it poisons the session with a real
multi-pass crawl (~15k fetch tasks through the same worker pool) and
fails if the loop-heavy query ever inflates past 2x again."""

import time

from container_crawler_ray.config import CrawlConfig
from container_crawler_ray.pipelines.crawl import run_crawl
from container_crawler_ray.pipelines.dedup import strip_dup_windows
from container_crawler_ray.sources.synth import make_seed_urls

SF = "/root/testdata/sf0.001"


def _best_of(fn, n=3):
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_no_post_crawl_slowdown(ray_session, tmp_path):
    strip_dup_windows(SF)                       # warm code paths
    fresh = _best_of(lambda: strip_dup_windows(SF))

    cfg = CrawlConfig(num_partitions=16, items_chunk=400, workers=3,
                      seen_shards=4, n_hosts=500, n_paths=60,
                      pass_time_ms=60000, fail_mod=0)
    out = run_crawl(str(tmp_path / "poison"), cfg,
                    seed_urls=make_seed_urls(8000, n_hosts=500),
                    max_passes=4)
    assert out["total_fetched"] > 10_000       # real worker-pool churn

    post = _best_of(lambda: strip_dup_windows(SF))
    assert post <= max(2.0 * fresh, fresh + 0.5), (
        f"post-crawl inflation regressed: fresh={fresh:.2f}s "
        f"post={post:.2f}s ({post / fresh:.1f}x)")
