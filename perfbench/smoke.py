"""Self-test of the benchmark at toy sizes.

    python3 perfbench/smoke.py

In one Ray session it runs both workloads traced at toy size (query_mix
with its probe crawl) and asserts that every metric named in
BENCHMARK.json is emitted as a finite number with its unit, that the
correctness gates pass on the unmodified engine, and that a deliberately
wrong recorded digest trips the crawl gate. After the session closes it
asserts that no Ray process of the run survives. Exits 0 when all of that
holds.
"""

from __future__ import annotations

import copy
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import crawl_workloads as cw  # noqa: E402
import run as bench  # noqa: E402


def check_metric_names() -> None:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for key, table in (("end_to_end", bench.END_TO_END),
                       ("per_layer", bench.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert declared == table, f"{key} in BENCHMARK.json != run.py"


def check_report(opts, result: dict) -> None:
    for trace in (0, 1):
        opts.trace = trace
        out = bench.report(opts, result)
        names = bench.PER_LAYER if trace else bench.END_TO_END
        assert set(out["metrics"]) == set(names), opts.workload
        for n, m in out["metrics"].items():
            assert math.isfinite(m["value"]), (opts.workload, n, m)
            assert m["unit"] == names[n][0]
        assert out["correct"], (opts.workload, result["errors"])
        assert out["attempted"] >= 1 and out["failed"] == 0
    opts.trace = 1


def check_wrong_digest_trips(s, run_dir: str) -> None:
    name = "crawl_bfs_toy"
    expected = cw.load_expected()
    seed_exp = cw.expected_for(expected, name, 0)
    bad = copy.deepcopy(seed_exp)
    bad["passes"][0][4] = "0" * 16
    prep = cw.prepare_unit(s, name, 0, os.path.join(run_dir, "gate"))
    unit = cw.run_unit(s, name, prep)
    obs = cw.observe(prep)
    good_unit = copy.deepcopy(unit)
    assert not cw.check_unit(name, prep, good_unit, obs, seed_exp)
    assert good_unit["failed_ops"] == 0
    problems = cw.check_unit(name, prep, unit, obs, bad)
    assert problems and unit["failed_ops"] == 1, problems


def ray_processes(run_dir: str) -> list[str]:
    ps = subprocess.run(["ps", "-eo", "pid,args"], capture_output=True,
                        text=True, check=True).stdout.splitlines()
    return [line for line in ps
            if run_dir in line and ("raylet" in line or "gcs_server" in line)]


def main() -> int:
    t0 = time.perf_counter()
    bench.check_layout()
    sys.path.insert(0, bench.ROOT)
    check_metric_names()
    from session import RaySession

    run_dir = bench.make_run_dir(f"smoke{os.getpid()}")
    session = RaySession(bench.ROOT, run_dir, len(os.sched_getaffinity(0)))
    try:
        with session as s:
            for w in bench.WORKLOADS:
                opts = bench.parse_args(["--workload", w, "--toy",
                                         "--trace", "1", "--seconds", "1"])
                result = bench.run_workload(
                    s, opts, run_dir, bench.Stopwatch(),
                    bench.make_inputs(opts, run_dir))
                result["leftover_pids"] = []
                check_report(opts, result)
                print(f"smoke: {w} ok", file=sys.stderr)
            check_wrong_digest_trips(s, run_dir)
            print("smoke: wrong digest trips the gate", file=sys.stderr)
            if s.temp_dir:  # the raylet's command line names run_dir
                assert ray_processes(run_dir), "raylet not visible to ps"
    finally:
        bench.remove_run_dir(run_dir)
    assert session.leftover == [], session.leftover
    assert not ray_processes(run_dir), ray_processes(run_dir)
    print(f"smoke: no Ray process left; {time.perf_counter() - t0:.0f} s",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
