"""Benchmark for the crawl engine and the query catalog.

    python3 perfbench/run.py --workload crawl_bfs --seed 3 --seconds 20 \
        --trace 0

Workloads: ``crawl_bfs`` (the crawl engine through ``init_run`` /
``run_pass`` / ``resume_run``) and ``query_mix`` (a fixed slice of
``__ray_entry__.queries()``). See NOTES.md.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The line before it is a JSON object
with the run's context (host telemetry, the workload's own named metrics,
gate failures). A table of every metric goes to stderr.

Exits non-zero without a result if the repository is not next to this
directory, and on SIGTERM/SIGINT after cleaning up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HOST_CPUS = os.cpu_count() or 1   # the cpus /proc/stat's steal covers

# name -> (unit, better). Must match BENCHMARK.json (smoke.py checks).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "op_s_p50": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "crawl.scan_s": ("s", "lower"),
    "crawl.probe_sched_fetch_s": ("s", "lower"),
    "crawl.slim_collect_s": ("s", "lower"),
    "crawl.links_s": ("s", "lower"),
    "crawl.frontier_append_s": ("s", "lower"),
    "crawl.retry_s": ("s", "lower"),
    "crawl.docs_write_join_s": ("s", "lower"),
    "crawl.checkpoint_s": ("s", "lower"),
    "crawl.engine_overhead_s": ("s", "lower"),
    "crawl.resume_s": ("s", "lower"),
    "crawl.candidates": ("count", "lower"),
    "crawl.deferred": ("count", "lower"),
    "crawl.new_frontier_rows": ("count", "lower"),
    "crawl.retry_size": ("count", "lower"),
    "politeness.scheduled_per_candidate": ("ratio", "higher"),
    "fetch.ok_per_scheduled": ("ratio", "higher"),
    "fetch.handler_floor_s": ("s", "lower"),
    "links.extracted": ("count", "lower"),
    "links.novel_per_extracted": ("ratio", "higher"),
    "seen.mark_s": ("s", "lower"),
    "seen.marked_keys": ("count", "lower"),
    "seen.snapshot_s": ("s", "lower"),
    "seen.restore_s": ("s", "lower"),
    "storage.append_fragment_s": ("s", "lower"),
    "storage.append_fragment_calls": ("count", "lower"),
    "storage.write_meta_s": ("s", "lower"),
    "storage.bytes_written": ("B", "lower"),
    "storage.bytes_per_doc": ("B", "lower"),
    "storage.fragment_files": ("count", "lower"),
    "canonicalize.us_per_url": ("us", "lower"),
    "hashing.us_per_key": ("us", "lower"),
    "cuckoo.insert_us_per_key": ("us", "lower"),
    "cuckoo.probe_us_per_key": ("us", "lower"),
    "politeness.schedule_us_per_row": ("us", "lower"),
    "fetch.handler_us_per_row": ("us", "lower"),
    "links.enrich_us_per_link": ("us", "lower"),
    "query.bucket_exchange_s": ("s", "lower"),
    "query.rows_out": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
WORKLOADS = ("crawl_bfs", "query_mix")
# Measured length of one unit (a crawl, or one pass over the query list)
# on 4 cpus. A run measures round(--seconds / UNIT_S) units, at least one,
# and every unit of a run is the same work.
UNIT_S = {"crawl_bfs": 25.0, "query_mix": 19.0}


def n_units(opts) -> int:
    if opts.trace:
        return 1
    return max(1, round(opts.seconds / UNIT_S[opts.workload]))


def unstolen(wall: float, steal: float) -> float:
    """Wall time less the CPU time the hypervisor stole meanwhile, spread
    over the host's cpus: a neighbour's burst shows in ``steal`` and not
    as a slower engine."""
    return wall - steal / HOST_CPUS


# The host's per-core speed drifts by +-12% within minutes (neighbours on
# shared cores), and every timing of a run moves with it. End-to-end
# timings are reported at a reference speed: multiplied by the md5 MB/s
# measured right before and after the timed region over REF_MD5_MB_S.
REF_MD5_MB_S = 500.0


class Stopwatch:
    """Wall time and hypervisor steal since it was made, with named marks
    (set-up is timed with one)."""

    def __init__(self):
        from session import steal_s

        self.t0, self.steal0 = time.perf_counter(), steal_s()
        self.marks: dict[str, float] = {}

    def wall(self) -> float:
        return time.perf_counter() - self.t0

    def steal(self) -> float:
        from session import steal_s

        return steal_s() - self.steal0

    def mark(self, name: str) -> None:
        self.marks[name] = round(self.wall(), 3)


class PeakRss:
    """Driver peak RSS over the timed units only: the kernel's high-water
    mark is reset when they start (``/proc/self/clear_refs``) and read
    when they end, before any correctness check, so neither set-up nor
    the checks count."""

    def __init__(self):
        try:
            with open("/proc/self/clear_refs", "w") as f:
                f.write("5")
            self.reset = True
        except OSError:   # not resettable: the whole run's peak
            self.reset = False

    def peak_mb(self) -> float:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SpeedScale:
    def __init__(self):
        self.before = md5_mb_per_s(16)

    def close(self) -> float:
        self.after = md5_mb_per_s(16)
        self.scale = (self.before + self.after) / 2 / REF_MD5_MB_S
        return self.scale

    def context(self) -> dict:
        return {"md5_mb_per_s_before": round(self.before, 1),
                "md5_mb_per_s_after": round(self.after, 1),
                "speed_scale": round(self.scale, 4)}


class LayoutError(Exception):
    pass


def check_layout() -> None:
    for rel in ("container_crawler_ray/pipelines/crawl.py",
                "__ray_entry__.py", "tools/check_oracle.py",
                "tools/make_goldens.py", "tests/oracle.py"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            raise LayoutError(f"{rel} not found under {ROOT}: run from a "
                              "checkout of the repository")


# ------------------------------------------------------------- telemetry
def md5_mb_per_s(mb: int = 32) -> float:
    import hashlib

    buf = b"\xa5" * (mb << 20)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        hashlib.md5(buf).digest()
        best = min(best, time.perf_counter() - t0)
    return mb * 1.048576 / best


class Telemetry:
    def __init__(self):
        from session import steal_s

        self.load_before = os.getloadavg()
        self.steal_before = steal_s()
        self.md5 = md5_mb_per_s()

    def finish(self) -> dict:
        import pyarrow
        import ray
        from session import steal_s

        return {
            "cpus_affinity": len(os.sched_getaffinity(0)),
            "os_cpu_count": os.cpu_count(),
            "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
            "loadavg_before": list(self.load_before),
            "loadavg_after": list(os.getloadavg()),
            "steal_s": round(steal_s() - self.steal_before, 2),
            "md5_mb_per_s": round(self.md5, 1),
            "ray": ray.__version__,
            "pyarrow": pyarrow.__version__,
            "python": sys.version.split()[0],
        }


# ---------------------------------------------------------- crawl side
def _crawl_layers(tracer, unit: dict, obs: dict, kern: dict,
                  cpus: int) -> dict:
    rp = [s for s in tracer.spans if s.name == "pipelines.crawl.run_pass"]

    def stat(k):
        return sum(s.attrs.get(k, 0) for s in rp)

    fetched, sched, cands = stat("fetched"), stat("scheduled"), stat(
        "candidates")
    pass_wall = sum(s.end - s.start for s in rp)
    floor = fetched * kern["fetch.handler_us_per_row"] / 1e6 / cpus
    extracted = obs["lineage_rows"]
    written = tracer.attr_sum("storage.append_fragment", "bytes")
    out = {f"crawl.{k}_s": stat(f"stage.{k}") for k in (
        "scan", "probe_sched_fetch", "slim_collect", "links",
        "frontier_append", "retry", "docs_write_join", "checkpoint")}
    out.update({
        "crawl.engine_overhead_s": pass_wall - floor,
        "crawl.resume_s": unit["resume_s"],
        "crawl.candidates": cands,
        "crawl.deferred": stat("deferred"),
        "crawl.new_frontier_rows": stat("new_frontier_rows"),
        "crawl.retry_size": stat("retry_size"),
        "politeness.scheduled_per_candidate": sched / max(1, cands),
        "fetch.ok_per_scheduled": fetched / max(1, sched),
        "fetch.handler_floor_s": floor,
        "links.extracted": extracted,
        "links.novel_per_extracted":
            stat("new_frontier_rows") / max(1, extracted),
        "seen.mark_s": tracer.total("state.seen.contains_add"),
        "seen.marked_keys": tracer.attr_sum("state.seen.contains_add",
                                            "keys"),
        "seen.snapshot_s": tracer.total("state.seen.snapshot_table"),
        "seen.restore_s": tracer.total("state.seen.restore_from_table"),
        "storage.append_fragment_s": tracer.total("storage.append_fragment"),
        "storage.append_fragment_calls": tracer.count(
            "storage.append_fragment"),
        "storage.write_meta_s": tracer.total("storage.write_meta"),
        "storage.bytes_written": written,
        "storage.bytes_per_doc": written / max(1, fetched),
        "storage.fragment_files": obs["fragment_files"],
    })
    out.update(kern)
    return out


def _traced_crawl_unit(s, cw, name: str, seed: int, root: str, expected,
                       tracer) -> tuple[dict, dict, dict]:
    """Prepare, run traced, observe and check one unit."""
    from tracing import instrument

    prep = cw.prepare_unit(s, name, seed, root)
    with instrument(tracer), tracer.span("unit", workload=name):
        unit = cw.run_unit(s, name, prep)
    obs = cw.observe(prep)
    cw.check_unit(name, prep, unit, obs, expected)
    shutil.rmtree(root, ignore_errors=True)
    return prep, unit, obs


def e2e_times(ops, setup, count: int, k: float) -> tuple[dict, dict]:
    """The three gated timings from the timed ops and the set-up, each a
    ``(wall, steal)`` pair: reported (steal removed, md5-scaled by *k*),
    and for the context raw and steal-removed only."""
    def at(adj):
        walls = [adj(w, st) for w, st in ops]
        return {"setup_s": adj(*setup),
                "throughput_per_s": count / max(1e-9, sum(walls)),
                "op_s_p50": statistics.median(walls) if walls else 0.0}
    return (at(lambda w, st: k * unstolen(w, st)),
            {"raw": _rounded(at(lambda w, st: w)),
             "steal_only": _rounded(at(unstolen))})


def crawl_workload(s, opts, run_dir: str, clock: Stopwatch,
                   inputs=None) -> dict:
    import crawl_workloads as cw
    import kernels
    from tracing import Tracer

    name = opts.spec or opts.workload
    expected_all = cw.load_expected()
    iseed = cw.input_seed(opts.seed)
    expected = cw.expected_for(expected_all, name, iseed)

    if not opts.toy:
        cw.warm_up(s, name, run_dir)
        clock.mark("warm_up")
    preps = [cw.prepare_unit(s, name, iseed, os.path.join(run_dir, "u0"))]
    setup = (clock.wall(), clock.steal())
    clock.mark("init_run")
    speed = SpeedScale()
    rss = PeakRss()
    units = []
    for i in range(n_units(opts)):
        if i:
            preps.append(cw.prepare_unit(s, name, iseed,
                                         os.path.join(run_dir, f"u{i}")))
        unit = cw.run_unit(s, name, preps[i])
        units.append(unit)
        if len(unit["passes"]) < cw.SPECS[name]["passes"]:
            break   # a pass raised: the engine is broken, stop here
    peak = rss.peak_mb()
    k = speed.close()
    obs_all = []
    for prep, unit in zip(preps, units):
        obs = cw.observe(prep)
        cw.check_unit(name, prep, unit, obs, expected)
        shutil.rmtree(prep["root"], ignore_errors=True)
        obs_all.append(obs)

    passes = [p for u in units for p in u["passes"]]
    fetched = sum(p["fetched"] for p in passes)
    # several set-ups per run are not affordable (Ray start plus warm-up
    # is ~20 s), but every unit's init_run is one
    inits = [p["init_s"] for p in preps]
    setup = (setup[0] - inits[0] + statistics.median(inits), setup[1])
    e2e, variants = e2e_times([(p["wall_s"], p["steal_s"]) for p in passes],
                              setup, fetched, k)
    e2e["peak_rss_mb"] = peak
    raw = [p["wall_s"] for p in passes]
    resumes = [u["resume_s"] for u in units if u["resume_s"] is not None]
    result = {
        "attempted": sum(u["ops"] for u in units),
        "failed": sum(u["failed_ops"] for u in units),
        "errors": [e for u in units for e in u["errors"]],
        "e2e": e2e,
        "named": {
            "crawl_urls_per_s": fetched / max(1e-9, sum(raw)),
            "pass_s_p50": statistics.median(raw) if raw else None,
            "steal_s": sum(p["steal_s"] for p in passes),
            "setup_steal_s": round(setup[1], 2),
            "setup_marks_s": clock.marks,
            "e2e_variants": variants,
            "rss_reset": rss.reset,
            "cpu_ms_per_url": 1e3 * sum(p["cpu_s"] for p in passes) / max(
                1, fetched),
            "passes": len(passes),
            "units": len(units),
            "resume_s": statistics.median(resumes) if resumes else None,
            "input_seed": iseed,
            **speed.context(),
            "per_pass": [[p["pass_id"], round(p["wall_s"], 3),
                          round(p["steal_s"], 2), round(p["cpu_s"], 2),
                          p["fetched"],
                          p["scheduled"], p["deferred"],
                          p["new_frontier_rows"]] for p in passes],
            "stage_s": _stage_sums(units),
            "fragment_files": obs_all[-1]["fragment_files"],
            "bytes_on_disk": obs_all[-1]["bytes_on_disk"],
        },
    }
    if opts.trace:
        tracer = Tracer()
        tprep, tunit, tobs = _traced_crawl_unit(
            s, cw, name, iseed, os.path.join(run_dir, "traced"), expected,
            tracer)
        result["attempted"] += tunit["ops"]
        result["failed"] += tunit["failed_ops"]
        result["errors"].extend(tunit["errors"])
        kern = kernels.crawl_kernels(tprep["cfg"], tprep["urls"],
                                     tprep["state"].robots)
        kern["query.bucket_exchange_s"] = kernels.bucket_exchange_s(
            seed=iseed)
        layers = _crawl_layers(tracer, tunit, tobs, kern, s.num_cpus)
        layers["trace.overhead_s"] = (
            sum(p["wall_s"] for p in tunit["passes"])
            - sum(p["wall_s"] for p in units[-1]["passes"]))
        layers["query.rows_out"] = 0   # this workload runs no query
        result["layers"] = layers
        result["named"]["span_self_s"] = _rounded(tracer.self_times())
        result["named"]["spans"] = len(tracer.spans)
    return result


def _stage_sums(units) -> dict:
    out: dict[str, float] = {}
    for u in units:
        for p in u["passes"]:
            for k, v in (p.get("timings") or {}).items():
                out[k] = round(out.get(k, 0.0) + v, 3)
    return out


def _rounded(d: dict) -> dict:
    return {k: round(v, 4) for k, v in sorted(d.items())}


# ---------------------------------------------------------- query side
def query_workload(s, opts, run_dir: str, clock: Stopwatch,
                   mix) -> dict:
    mix.setup()
    clock.mark("import")
    if not opts.toy:
        mix.warm_up()
        clock.mark("warm_up")
    setup = (clock.wall(), clock.steal())
    speed = SpeedScale()
    rss = PeakRss()
    units = [mix.run_unit() for _ in range(n_units(opts))]
    peak = rss.peak_mb()
    k = speed.close()
    verdicts_all = [mix.check(u) for u in units]
    result = _query_result(mix, units, verdicts_all, setup, k)
    result["e2e"]["peak_rss_mb"] = peak
    result["named"].update({
        "setup_steal_s": round(setup[1], 2),
        "setup_marks_s": clock.marks,
        "rss_reset": rss.reset,
        **speed.context()})
    if opts.trace:
        result.update(_query_traced(s, opts, mix, run_dir,
                                    sum(units[-1]["walls"].values())))
    return result


def _query_result(mix, units, verdicts_all, setup, k: float) -> dict:
    raw = [w for u in units for w in u["walls"].values()]
    ops = [(w, u["steal"][n]) for u in units for n, w in u["walls"].items()]
    e2e, variants = e2e_times(ops, setup, len(ops), k)
    failed, errors = 0, []
    for u, verdicts in zip(units, verdicts_all):
        for n, e in u["errors"].items():
            failed += 1
            errors.append(f"{n}: {e}")
        for n, v in verdicts.items():
            if v != "OK":
                failed += 1
                errors.append(f"{n}: {v}")
    per_module: dict[str, float] = {}
    for u in units:
        for n, w in u["walls"].items():
            m = f"query.{mix.modules[n]}_s"
            per_module[m] = per_module.get(m, 0.0) + w / len(units)
    q = statistics.quantiles(raw, n=4) if len(raw) >= 2 else [0, 0, 0]
    return {
        "attempted": sum(len(mix.names) for _ in units),
        "failed": failed,
        "errors": errors,
        "e2e": e2e,
        "named": {
            "query_mix_s": statistics.median(
                sum(u["walls"].values()) for u in units),
            "query_s_p50": statistics.median(raw) if raw else None,
            "steal_s": sum(sum(u["steal"].values()) for u in units),
            "query_s_p75": q[2],
            "queries": len(mix.names),
            "e2e_variants": variants,
            "units": len(units),
            "query_rows_out": sum(units[-1]["rows"].values()),
            "table_rows": mix.rows,
            "tables_s": round(mix.tables_s, 3),
            "inputs": "tables generated from --seed by querydata.py",
            **_rounded(per_module),
        },
    }


def _query_traced(s, opts, mix, run_dir: str, untraced_wall: float) -> dict:
    """Traced list, then a traced probe crawl and the kernel costs so the
    crawl-side layers are measured in this run too."""
    import crawl_workloads as cw
    import kernels
    from tracing import Tracer

    tracer = Tracer()
    with tracer.span("unit", workload="query_mix"):
        unit = mix.run_unit(tracer)
    verdicts = mix.check(unit)
    bad = [f"{n}: {v}" for n, v in verdicts.items() if v != "OK"] + [
        f"{n}: {e}" for n, e in unit["errors"].items()]
    traced_wall = sum(unit["walls"].values())

    name = "crawl_probe_toy" if opts.toy else "crawl_probe"
    expected_all = cw.load_expected()
    iseed = cw.input_seed(opts.seed)
    expected = cw.expected_for(expected_all, name, iseed)
    ctracer = Tracer()
    prep, cunit, cobs = _traced_crawl_unit(
        s, cw, name, iseed, os.path.join(run_dir, "probe"), expected,
        ctracer)
    kern = kernels.crawl_kernels(prep["cfg"], prep["urls"],
                                 prep["state"].robots)
    kern["query.bucket_exchange_s"] = kernels.bucket_exchange_s(seed=iseed)
    layers = _crawl_layers(ctracer, cunit, cobs, kern, s.num_cpus)
    layers["trace.overhead_s"] = traced_wall - untraced_wall
    layers["query.rows_out"] = sum(unit["rows"].values())
    return {
        "layers": layers,
        "attempted_extra": len(mix.names) + cunit["ops"],
        "failed_extra": len(bad) + cunit["failed_ops"],
        "errors_extra": bad + cunit["errors"],
        "span_self_s": _rounded(tracer.self_times()
                                | ctracer.self_times()),
    }


# ------------------------------------------------------------------ main
def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="toy sizes (self-test); numbers are not comparable")
    opts = ap.parse_args(argv)
    opts.spec = (f"{opts.workload}_toy" if opts.toy
                 and opts.workload != "query_mix" else None)
    return opts


def make_run_dir(tag: str) -> str:
    """This run's scratch directory inside the checkout; temp files of the
    catalog code (``tempfile``) go there too."""
    parent = os.path.join(ROOT, ".perfbench_run")
    # a run killed before its cleanup (a signal while Ray starts ends the
    # process in Ray's own handler) leaves its directory: remove those
    # whose process is gone (tags end in the pid)
    for old in os.listdir(parent) if os.path.isdir(parent) else []:
        pid = old.lstrip("abcdefghijklmnopqrstuvwxyz")
        if pid.isdigit() and not os.path.exists(f"/proc/{pid}"):
            shutil.rmtree(os.path.join(parent, old), ignore_errors=True)
    run_dir = os.path.join(parent, tag)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "tmp"))
    tempfile.tempdir = os.path.join(run_dir, "tmp")
    os.environ["TMPDIR"] = tempfile.tempdir
    return run_dir


def remove_run_dir(run_dir: str) -> None:
    shutil.rmtree(run_dir, ignore_errors=True)
    parent = os.path.dirname(run_dir)
    if os.path.isdir(parent) and not os.listdir(parent):
        os.rmdir(parent)


def make_inputs(opts, run_dir: str):
    """Inputs made before set-up is timed: the query tables (the crawl's
    seed list is made by the engine's own generator, inside set-up)."""
    if opts.workload != "query_mix":
        return None
    import query_workload as qw

    mix = qw.QueryMix(ROOT, os.path.join(run_dir, "data"), opts.seed,
                      toy=opts.toy)
    t0 = time.perf_counter()
    mix.make_tables()
    mix.tables_s = time.perf_counter() - t0
    return mix


def run_workload(s, opts, run_dir: str, clock: Stopwatch, inputs) -> dict:
    """Run one workload in an open session (*clock* started with set-up)."""
    fn = query_workload if opts.workload == "query_mix" else crawl_workload
    result = fn(s, opts, run_dir, clock, inputs)
    result["attempted"] += result.pop("attempted_extra", 0)
    result["failed"] += result.pop("failed_extra", 0)
    result["errors"] += result.pop("errors_extra", [])
    if "span_self_s" in result:
        result["named"]["span_self_s"] = result.pop("span_self_s")
    return result


def run(opts) -> dict:
    """Run one workload in its own Ray session; return the report dict.
    Raises session.Interrupted on SIGTERM/SIGINT (after cleanup)."""
    check_layout()
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    from session import RaySession

    run_dir = make_run_dir(str(os.getpid()))
    tele = Telemetry()
    session = RaySession(ROOT, run_dir, len(os.sched_getaffinity(0)))
    try:
        inputs = make_inputs(opts, run_dir)
        clock = Stopwatch()
        with session as s:
            clock.mark("ray_start")
            result = run_workload(s, opts, run_dir, clock, inputs)
    finally:
        remove_run_dir(run_dir)
    result["leftover_pids"] = session.leftover
    result["context"] = tele.finish()
    result["context"]["ray_temp_dir"] = (
        "run directory" if session.temp_dir else "ray default")
    result["context"]["subreaper"] = session.subreaper
    return result


def report(opts, result: dict) -> dict:
    names = PER_LAYER if opts.trace else END_TO_END
    values = result["layers"] if opts.trace else result["e2e"]
    # a value is missing only when an op failed, which is already counted
    missing = [n for n in names if values.get(n) is None]
    correct = (result["failed"] == 0 and not result["leftover_pids"]
               and not missing)
    return {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: {"value": float(values.get(n) or 0.0),
                        "unit": names[n][0]} for n in names},
    }


def main(argv=None) -> int:
    opts = parse_args(sys.argv[1:] if argv is None else argv)
    import session

    try:
        result = run(opts)
    except LayoutError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    except BaseException as e:
        if not session.received:
            raise
        print(f"perfbench: interrupted by signal {session.received[0]} "
              f"({type(e).__name__})", file=sys.stderr)
        return 128 + session.received[0]
    out = report(opts, result)
    ctx = {"workload": opts.workload, "seed": opts.seed, "trace": opts.trace,
           "host": result["context"], "named": result["named"],
           "failed_ops_ratio": out["failed"] / max(1, out["attempted"]),
           "errors": result["errors"][:20],
           "leftover_pids": result["leftover_pids"]}
    if opts.trace:
        ctx["e2e_of_untraced_unit"] = result["e2e"]
    width = max(len(n) for n in out["metrics"])
    for n, m in out["metrics"].items():
        print(f"{n:<{width}}  {m['value']:>14.6g} {m['unit']}",
              file=sys.stderr)
    for n, v in result["named"].items():
        if isinstance(v, (int, float)):
            print(f"{n:<{width}}  {v:>14.6g}   (context)", file=sys.stderr)
    print(json.dumps({"context": ctx}, default=str))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
