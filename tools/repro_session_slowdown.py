"""Minimal RAY-ONLY reproduction harness for the 'post-crawl in-session
slowdown' pathology (BENCH/BASELINE.md, round 2): after pushing many
short tasks through a Ray worker pool, a later Python-loop-heavy
``map_batches`` stage in the SAME session was observed (round 2, Ray
2.49.2) to nondeterministically inflate 30-60x (strip_dup_windows:
231 s poisoned vs ~7 s fresh — in-task USER CPU, not scheduling).

This script strips the engine out entirely: numpy + hashlib + Ray Data
only, so the result implicates (or clears) Ray itself.

  phase A  best-of-3 wall of a loop-heavy map_batches stage (fresh)
  phase B  poison: N short map_batches tasks through the worker pool
           (the crawl's fetch-task shape: many small pyarrow batches,
           per-row hashlib work, task-pool workers)
  phase C  best-of-3 wall of the SAME stage, same session

Exit code 1 + a POISONED verdict if phase C inflates past 2x phase A.

Disposition (2026-08-20, Ray 2.49.2, this container): NOT REPRODUCIBLE
in this minimal form — see BASELINE.md 'Session-health disposition'.
The engine keeps two fences regardless: the loop-heavy mask stage was
batch-vectorized (round 2) and the round-2 bench script ran the query
sweep in a fresh session; tests/test_session_health.py pins the
full-engine shape.
If this script ever prints POISONED, attach its output to a Ray issue
(github.com/ray-project/ray) — it is self-contained and deterministic.

Usage: python tools/repro_session_slowdown.py [poison_tasks=15000]
"""

from __future__ import annotations

import hashlib
import sys
import time

import numpy as np
import pyarrow as pa


def loop_heavy(t: pa.Table) -> pa.Table:
    """The victim stage: deliberate per-row Python md5 loop (the shape
    the engine's pre-fix mask stage had)."""
    v = t.column("id").to_numpy()
    out = np.fromiter(
        (int.from_bytes(hashlib.md5(str(int(x)).encode()).digest()[:8],
                        "big") for x in v),
        dtype=np.uint64, count=len(v))
    return pa.table({"h": pa.array(out.view(np.int64))})


def short_task(t: pa.Table) -> pa.Table:
    """The poison shape: a tiny batch, a little hashing, returns fast
    (the crawl fetch task analog)."""
    v = t.column("id").to_numpy()
    h = hashlib.md5(v.tobytes()).digest()
    return pa.table({"ok": pa.array(np.full(len(v), h[0], np.int64))})


def best_of(fn, n: int = 3) -> float:
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> int:
    poison_tasks = int(sys.argv[1]) if len(sys.argv) > 1 else 15_000
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    def victim():
        (ray.data.range(400_000, override_num_blocks=16)
         .map_batches(loop_heavy, batch_format="pyarrow").materialize())

    victim()  # warm code paths + workers (untimed)
    fresh = best_of(victim)

    # poison: many short tasks through the same worker pool
    (ray.data.range(poison_tasks * 32,
                    override_num_blocks=poison_tasks)
     .map_batches(short_task, batch_format="pyarrow").materialize())

    post = best_of(victim)
    ratio = post / fresh
    verdict = "POISONED" if ratio > 2.0 else "CLEAN"
    print(f"fresh={fresh:.2f}s post={post:.2f}s ratio={ratio:.2f}x "
          f"poison_tasks={poison_tasks} -> {verdict}")
    ray.shutdown()
    return 1 if verdict == "POISONED" else 0


if __name__ == "__main__":
    raise SystemExit(main())
