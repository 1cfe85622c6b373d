"""The crawl-engine workload, driven through the engine's public entry
points (``init_run``, ``run_pass``, ``resume_run``).

One *unit* is a fresh crawl: ``init_run`` on a new store, a fixed number
of ``run_pass`` calls (each timed), then the seen set is torn down and
``resume_run`` reopens the committed store (timed). A run repeats units
while its time budget allows; every unit of a seed is identical work.

Correctness gates run outside the timed regions:

- each pass's fetched / scheduled / deferred / new-frontier counts and a
  digest of its sorted ``doc_id``s equal the values recorded in
  ``expected.json`` for the input seed (recorded from the unmodified
  engine by ``record.py``);
- no ``doc_id`` is fetched twice;
- no host gets more documents in a pass than its token-bucket cap;
- after ``resume_run`` the watermarks, ``next_rowid``, retry size and
  seen-shard item counts equal the state before teardown.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil
import time

import pyarrow.parquet as pq

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# Workload shapes. ``workers`` is filled in with the session's cpus.
SPECS = {
    # engine only: no parse cost, politeness effectively off, so link
    # expansion, seen probe/mark and frontier append do the work
    "crawl_bfs": {
        "seeds": 5000, "passes": 3,
        "cfg": {"num_partitions": 16, "items_chunk": 2000,
                "fetch_mode": "tasks", "pass_time_ms": 3_600_000,
                "parse_cost_bytes": 0},
    },
    # politeness-bound probe (256 KiB md5 parse per fetch, hot hosts
    # deferred) that the traced query_mix run profiles, so every traced
    # run reports the crawl-side layers and the deferral path is timed
    "crawl_probe": {
        "seeds": 1000, "passes": 2,
        "cfg": {"num_partitions": 16, "items_chunk": 1000,
                "fetch_mode": "tasks", "pass_time_ms": 10_000,
                "parse_cost_bytes": 256 * 1024},
    },
}
# toy sizes for the self-test (smoke.py)
for _n in ("crawl_bfs", "crawl_probe"):
    SPECS[f"{_n}_toy"] = {**SPECS[_n], "seeds": 200, "passes": 1,
                          "cfg": {**SPECS[_n]["cfg"], "seen_shards": 2}}

# record.py records input seeds 0 .. RECORDED_SEEDS-1
RECORDED_SEEDS = 16

# warm-up crawl: same engine paths, toy size, one seen shard, untimed
WARMUP_SEEDS = 300


def make_cfg(name: str, cpus: int, **over):
    from container_crawler_ray.config import CrawlConfig

    return CrawlConfig(workers=cpus, **{**SPECS[name]["cfg"], **over})


def source_sha256(repo_root: str) -> str:
    """Fingerprint of the engine + catalog sources (recorded values are
    only claimed to come from the code with this fingerprint)."""
    h = hashlib.sha256()
    pkg = os.path.join(repo_root, "container_crawler_ray")
    for f in sorted(glob.glob(os.path.join(pkg, "**", "*.py"),
                              recursive=True)):
        h.update(os.path.relpath(f, repo_root).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH) as f:
        return json.load(f)


def input_seed(seed: int) -> int:
    """``--seed`` picks one of the recorded seed lists."""
    return seed % RECORDED_SEEDS


def _digest(ids) -> str:
    return hashlib.sha256("\n".join(sorted(ids)).encode()).hexdigest()[:16]


def warm_up(session, name: str, run_root: str) -> None:
    """Start the worker pool and import the engine in it (untimed)."""
    from container_crawler_ray.pipelines import crawl as crawl_mod
    from container_crawler_ray.sources.synth import make_seed_urls

    cfg = make_cfg(name, session.num_cpus, seen_shards=1)
    root = os.path.join(run_root, "warmup")
    store, state = crawl_mod.init_run(
        root, cfg, make_seed_urls(WARMUP_SEEDS, seed=10_000))
    session.track(state.seen)
    try:
        crawl_mod.run_pass(store, cfg, state)
    finally:
        session.teardown_seen(state.seen)
        shutil.rmtree(root, ignore_errors=True)


def prepare_unit(session, name: str, seed: int, root: str) -> dict:
    """Seed generation + ``init_run`` (part of set-up, not of the pass
    timings)."""
    import ray

    from container_crawler_ray.pipelines import crawl as crawl_mod
    from container_crawler_ray.sources.synth import make_seed_urls

    cfg = make_cfg(name, session.num_cpus)
    shutil.rmtree(root, ignore_errors=True)
    t0 = time.perf_counter()
    urls = make_seed_urls(SPECS[name]["seeds"], seed=seed)
    store, state = crawl_mod.init_run(root, cfg, urls)
    session.track(state.seen)
    # force the shard actors up now so their start is set-up, not pass 1
    state.seen.items_per_shard()
    robots_ref = ray.put(state.robots)
    return {"cfg": cfg, "store": store, "state": state, "root": root,
            "robots_ref": robots_ref, "urls": urls,
            "init_s": time.perf_counter() - t0}


def run_unit(session, name: str, prep: dict) -> dict:
    """Timed passes and timed resume of one prepared unit. Never raises
    for an engine error: the failing op is counted and the unit stops."""
    from container_crawler_ray.pipelines import crawl as crawl_mod
    from session import steal_s

    cfg, store, state = prep["cfg"], prep["store"], prep["state"]
    passes: list[dict] = []
    out = {"passes": passes, "resume_s": None, "errors": [],
           "ops": 0, "failed_ops": 0}
    try:
        for _ in range(SPECS[name]["passes"]):
            out["ops"] += 1
            st0, cpu0 = steal_s(), session.cpu_s()
            t0 = time.perf_counter()
            stats = crawl_mod.run_pass(store, cfg, state,
                                       robots_ref=prep["robots_ref"])
            wall = time.perf_counter() - t0
            passes.append({"wall_s": wall, "steal_s": steal_s() - st0,
                           "cpu_s": session.cpu_s() - cpu0, **stats})
        pre = {"watermarks": _dense(state.watermarks, cfg.num_partitions),
               "next_rowid": _dense(state.next_rowid, cfg.num_partitions),
               "retry_size": passes[-1]["retry_size"],
               "seen_items": state.seen.items_per_shard()}
        session.teardown_seen(state.seen)
        out["ops"] += 1
        t0 = time.perf_counter()
        store2, state2 = crawl_mod.resume_run(prep["root"], cfg)
        out["resume_s"] = time.perf_counter() - t0
        session.track(state2.seen)
        retry = store2.read_fragment("retry", "retry", state2.pass_id)
        post = {"watermarks": _dense(state2.watermarks, cfg.num_partitions),
                "next_rowid": _dense(state2.next_rowid, cfg.num_partitions),
                "retry_size": 0 if retry is None else len(retry),
                "seen_items": state2.seen.items_per_shard()}
        session.teardown_seen(state2.seen)
        out["resume_mismatch"] = sorted(k for k in pre if pre[k] != post[k])
    except Exception as e:  # noqa: BLE001 - counted, reported, not raised
        out["failed_ops"] += 1
        out["errors"].append(f"{type(e).__name__}: {e}")
    return out


def _dense(d: dict, n: int) -> list[int]:
    return [int(d.get(p, 0)) for p in range(n)]


def observe(prep: dict) -> dict:
    """Read back what the unit committed (after timing): per-pass docs,
    lineage edge counts and the file footprint."""
    root = prep["root"]
    by_pass: dict[int, list] = {}
    for d in sorted(glob.glob(os.path.join(root, "tables", "documents",
                                           "pass_*"))):
        if not glob.glob(os.path.join(d, "*.parquet")):
            continue
        t = pq.read_table(d, columns=["doc_id", "host", "pass_id"])
        for doc, host, p in zip(t.column("doc_id").to_pylist(),
                                t.column("host").to_pylist(),
                                t.column("pass_id").to_pylist()):
            by_pass.setdefault(int(p), []).append((doc, host))
    lineage = 0
    for f in glob.glob(os.path.join(root, "tables", "lineage", "pass_*",
                                    "*.parquet")):
        lineage += pq.ParquetFile(f).metadata.num_rows
    files = [f for f in glob.glob(os.path.join(root, "tables", "**", "*"),
                                  recursive=True) if os.path.isfile(f)]
    return {"docs_by_pass": by_pass, "lineage_rows": lineage,
            "fragment_files": len(files),
            "bytes_on_disk": sum(os.path.getsize(f) for f in files)}


def pass_record(p: dict, docs: list) -> list:
    return [p["fetched"], p["scheduled"], p["deferred"],
            p["new_frontier_rows"], _digest(d for d, _ in docs)]


def check_unit(name: str, prep: dict, unit: dict, seen_obs: dict,
               expected_seed: dict | None) -> list[str]:
    """Correctness gates; returns one message per failed op (a pass or the
    resume), and marks them in unit["failed_ops"]."""
    cfg = prep["cfg"]
    robots = prep["state"].robots
    problems: list[str] = []
    failed_passes: set[int] = set()
    docs_by_pass = seen_obs["docs_by_pass"]
    seen_ids: set[str] = set()
    for i, p in enumerate(unit["passes"]):
        pid = p["pass_id"]
        docs = docs_by_pass.get(pid, [])
        if len(docs) != p["fetched"]:
            problems.append(f"pass {pid}: {len(docs)} docs committed, "
                            f"run_pass reported {p['fetched']} fetched")
            failed_passes.add(i)
        ids = [d for d, _ in docs]
        dup = set(ids) & seen_ids or (len(set(ids)) != len(ids))
        if dup:
            problems.append(f"pass {pid}: doc_id fetched twice")
            failed_passes.add(i)
        seen_ids.update(ids)
        per_host: dict[str, int] = {}
        for _, h in docs:
            per_host[h] = per_host.get(h, 0) + 1
        for h, n in per_host.items():
            delay = robots.get(h, {}).get("crawl_delay_ms", 1000)
            rate = cfg.pass_time_ms / max(1.0, float(delay))
            cap = int(max(1.0, cfg.bucket_capacity_factor * rate))
            if n > cap:
                problems.append(f"pass {pid}: host {h} got {n} docs, "
                                f"token-bucket cap {cap}")
                failed_passes.add(i)
                break
        if expected_seed is not None:
            want = expected_seed["passes"][i] if i < len(
                expected_seed["passes"]) else None
            got = pass_record(p, docs)
            if got != want:
                problems.append(f"pass {pid}: got {got}, recorded {want}")
                failed_passes.add(i)
    if expected_seed is None:
        problems.append("no recorded values for this workload spec")
        failed_passes.update(range(len(unit["passes"])))
    if unit.get("resume_mismatch"):
        problems.append(f"resume differs in {unit['resume_mismatch']}")
        unit["failed_ops"] += 1
    unit["failed_ops"] += len(failed_passes)
    unit["errors"].extend(problems)
    return problems


def expected_for(expected: dict, name: str, iseed: int) -> dict | None:
    """Recorded values for *name* at *iseed*, or None when nothing was
    recorded for the current spec."""
    wl = expected["workloads"].get(name)
    if wl is None or wl["spec"] != spec_key(name):
        return None
    return wl["seeds"].get(str(iseed))


def spec_key(name: str) -> dict:
    """The recorded-values key: everything that shapes the crawl output
    (worker count does not)."""
    return json.loads(json.dumps(SPECS[name]))
