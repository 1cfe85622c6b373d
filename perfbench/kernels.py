"""Per-call costs of the crawl kernels and of one catalog bucket exchange,
measured in the driver process on inputs the workload generated.

Each kernel is called through its public function and timed over a few
repetitions; the median is reported per unit of work (URL, key, row or
link).
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pyarrow as pa


def _median_time(fn, reps: int = 3) -> float:
    ts = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        ts.append(time.perf_counter() - t0)
    return statistics.median(ts)


def crawl_kernels(cfg, urls: list[str], robots: dict) -> dict:
    import ray

    from container_crawler_ray.functions.canonicalize import (
        canonicalize_many)
    from container_crawler_ray.functions.hashing import hash64_many
    from container_crawler_ray.pipelines.crawl import build_frontier_rows
    from container_crawler_ray.stages.fetch import (
        SimulatedFetchHandler, apply_fetch)
    from container_crawler_ray.stages.links import (
        explode_links, make_link_enrich)
    from container_crawler_ray.stages.politeness import make_schedule_fn
    from container_crawler_ray.state.cuckoo import SpillFilter

    out = {}
    canon = canonicalize_many(urls)
    out["canonicalize.us_per_url"] = 1e6 * _median_time(
        lambda: canonicalize_many(urls)) / len(urls)
    out["hashing.us_per_key"] = 1e6 * _median_time(
        lambda: hash64_many(canon)) / len(canon)

    keys = np.unique(hash64_many(canon))
    ins = keys[:5000]

    def insert():
        SpillFilter(cfg.cuckoo_capacity, cfg.bloom_bits).contains_add_many(
            ins)
    out["cuckoo.insert_us_per_key"] = 1e6 * _median_time(insert) / len(ins)
    full = SpillFilter(cfg.cuckoo_capacity, cfg.bloom_bits)
    full.contains_add_many(ins)
    probe = np.resize(keys, 200_000)
    out["cuckoo.probe_us_per_key"] = 1e6 * _median_time(
        lambda: full.contains_many(probe)) / len(probe)

    rows = build_frontier_rows(urls, cfg)
    n = len(rows)
    cand = rows.append_column("rowid", pa.array(np.arange(n, dtype=np.int64)))
    cand = cand.append_column("attempts", pa.array(np.zeros(n, np.int32)))
    cand = cand.append_column("src", pa.array(["scan"] * n))
    cand = cand.append_column("owned", pa.array(np.ones(n, dtype=bool)))
    cand = cand.append_column("seen", pa.array(np.zeros(n, dtype=bool)))
    schedule = make_schedule_fn(ray.put(robots), ray.put({}),
                                cfg.pass_time_ms, cfg.bucket_capacity_factor)
    hh = cand.column("host_hash").to_numpy()
    order = np.argsort(hh, kind="stable")
    bounds = np.flatnonzero(np.diff(hh[order])) + 1
    groups = [cand.take(pa.array(ix)) for ix in np.split(order, bounds)]
    out["politeness.schedule_us_per_row"] = 1e6 * _median_time(
        lambda: [schedule(g) for g in groups]) / n

    handler = SimulatedFetchHandler(cfg.n_hosts, cfg.n_paths, cfg.fail_mod,
                                    cfg.parse_cost_bytes)
    handler.setup({})
    m = min(n, 2000 if cfg.parse_cost_bytes == 0 else 400)
    todo = cand.slice(0, m).append_column(
        "sched", pa.array(["scheduled"] * m))
    fetched = apply_fetch(handler, False, todo)
    out["fetch.handler_us_per_row"] = 1e6 * _median_time(
        lambda: apply_fetch(handler, False, todo)) / m

    ok = fetched.filter(fetched.column("ok"))
    edges = explode_links(ok)
    enrich = make_link_enrich(cfg.num_partitions, ())
    out["links.enrich_us_per_link"] = 1e6 * _median_time(
        lambda: enrich(explode_links(ok))) / len(edges)
    return out


def bucket_exchange_s(n_rows: int = 200_000, seed: int = 0) -> float:
    """One ``key % 64`` → ``groupby("bucket").map_groups`` →
    ``to_pandas`` exchange, the shape the catalog repeats in its
    analytics operators (median of three)."""
    import ray.data

    rng = np.random.default_rng(seed)
    tbl = pa.table({"key": rng.integers(0, 1 << 40, n_rows),
                    "value": rng.random(n_rows)})

    def tag(t: pa.Table) -> pa.Table:
        b = (t.column("key").to_numpy() % 64).astype(np.int64)
        return t.append_column("bucket", pa.array(b))

    def per_bucket(t: pa.Table) -> pa.Table:
        v = t.column("value").to_numpy()
        return pa.table({"bucket": [t.column("bucket")[0].as_py()],
                         "n": [len(t)], "s": [float(v.sum())]})

    def run():
        ds = ray.data.from_arrow(tbl).map_batches(tag, batch_format="pyarrow")
        df = ds.groupby("bucket").map_groups(
            per_bucket, batch_format="pyarrow").to_pandas()
        assert int(df["n"].sum()) == n_rows
    run()  # first call pays worker start / imports
    return _median_time(run)
