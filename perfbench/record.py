"""Record the per-pass values the crawl gates compare against.

    python3 perfbench/record.py

Runs every crawl spec in ``crawl_workloads.SPECS`` for input seeds
``0 .. RECORDED_SEEDS-1`` through the same unit code the benchmark times,
and writes ``expected.json`` next to this file afresh with, per seed and
pass, ``[fetched, scheduled, deferred, new_frontier_rows, docs digest]``,
plus the sha256 of the engine sources it ran. Run it on the unmodified
engine only: the recorded values are the reference a later change must
reproduce exactly.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import crawl_workloads as cw  # noqa: E402
import run as bench  # noqa: E402


def main() -> int:
    bench.check_layout()
    sys.path.insert(0, bench.ROOT)
    from session import RaySession

    out = {"source_sha256": cw.source_sha256(bench.ROOT), "workloads": {}}
    run_dir = bench.make_run_dir(f"rec{os.getpid()}")
    cpus = len(os.sched_getaffinity(0))
    try:
        with RaySession(bench.ROOT, run_dir, cpus) as s:
            for name in sorted(cw.SPECS):
                seeds = {}
                for seed in range(cw.RECORDED_SEEDS):
                    root = os.path.join(run_dir, name)
                    prep = cw.prepare_unit(s, name, seed, root)
                    unit = cw.run_unit(s, name, prep)
                    if unit["errors"] or unit.get("resume_mismatch"):
                        raise RuntimeError(f"{name} seed {seed}: "
                                           f"{unit['errors']} "
                                           f"{unit.get('resume_mismatch')}")
                    obs = cw.observe(prep)
                    seeds[str(seed)] = {"passes": [
                        cw.pass_record(p, obs["docs_by_pass"].get(
                            p["pass_id"], []))
                        for p in unit["passes"]]}
                    print(name, seed, seeds[str(seed)]["passes"],
                          file=sys.stderr, flush=True)
                out["workloads"][name] = {"spec": cw.spec_key(name),
                                          "seeds": seeds}
    finally:
        bench.remove_run_dir(run_dir)
    with open(cw.EXPECTED_PATH, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
