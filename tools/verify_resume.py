"""End-to-end resume-exactness drive (the /verify flow, scripted).

Runs, in three FRESH subprocesses: (1) an uninterrupted 4-pass crawl,
(2) a 2-pass crawl, (3) a resume of (2) to 4 passes over deliberately
TORN next-pass fragments (garbage parquet the resume must ignore and
overwrite). Then compares documents/frontier/watermarks/retry tables
and meta.json across (1) and (3) — they must be identical.

Usage: python tools/verify_resume.py  (exit 0 = exact)
"""
from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = "/tmp/verify_resume"
# the checkout this script lives in: its crawl subprocesses import this
# checkout's package, wherever it is
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DRIVER = """
import ray
ray.init(address="local", num_cpus=8, include_dashboard=False,
         logging_level="ERROR")
import ray.data
ray.data.DataContext.get_current().enable_progress_bars = False
from container_crawler_ray.config import CrawlConfig
from container_crawler_ray.pipelines.crawl import run_crawl
from container_crawler_ray.sources.synth import make_seed_urls
cfg = CrawlConfig(num_partitions=8, items_chunk=150, workers=2,
                  seen_shards=4, n_hosts=60, n_paths=400,
                  pass_time_ms=2000)
kw = dict(resume=True) if {resume} else dict(
    seed_urls=make_seed_urls(400, n_hosts=60))
run_crawl({root!r}, cfg, max_passes={passes}, **kw)
ray.shutdown()
"""


def run(root: str, passes: int, resume: bool = False) -> None:
    code = DRIVER.format(root=root, passes=passes, resume=resume)
    env = dict(os.environ, PYTHONPATH=REPO)
    r = subprocess.run([sys.executable, "-c", code], env=env,
                       capture_output=True, text=True, timeout=560)
    if r.returncode != 0:
        print(r.stderr[-3000:])
        raise SystemExit(f"crawl subprocess failed rc={r.returncode}")


def table_hash(paths: list[str]) -> tuple[str, int]:
    import pandas as pd
    import pyarrow.parquet as pq
    frames = [pq.read_table(p).to_pandas() for p in sorted(paths)]
    df = (pd.concat(frames, ignore_index=True)
          if frames else pd.DataFrame())
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].map(
                lambda v: json.dumps(v, default=str, sort_keys=True)
                if not isinstance(v, (str, bytes, type(None))) else v)
    if len(df):
        cols = sorted(df.columns)
        df = df[cols].sort_values(cols, kind="mergesort") \
            .reset_index(drop=True)
    h = hashlib.md5(pd.util.hash_pandas_object(df, index=False)
                    .to_numpy().tobytes()).hexdigest()
    return h, len(df)


def main() -> int:
    shutil.rmtree(ROOT, ignore_errors=True)
    full, half = f"{ROOT}/full", f"{ROOT}/half"
    run(full, 4)
    run(half, 2)
    # tear the NEXT (uncommitted) pass: orphans must be ignored
    meta = json.load(open(f"{half}/meta.json"))
    np_ = meta["pass_id"] + 1
    os.makedirs(f"{half}/tables/documents/pass_{np_:06d}", exist_ok=True)
    with open(f"{half}/tables/documents/pass_{np_:06d}/part-0.parquet",
              "w") as f:
        f.write("GARBAGE")
    with open(f"{half}/tables/frontier/append_{np_:06d}.parquet",
              "w") as f:
        f.write("TORN")
    run(half, 4, resume=True)
    ok = True
    for sub in ["documents", "frontier", "watermarks", "retry"]:
        a = glob.glob(f"{full}/tables/{sub}/**/*.parquet", recursive=True)
        b = glob.glob(f"{half}/tables/{sub}/**/*.parquet", recursive=True)
        ha, na = table_hash(a)
        hb, nb = table_hash(b)
        match = ha == hb
        ok &= match
        print(f"{sub:12s} full={na:6d} resumed={nb:6d} match={match}")
    mm = (json.load(open(f"{full}/meta.json"))
          == json.load(open(f"{half}/meta.json")))
    ok &= mm
    print(f"meta match={mm}")
    print("RESUME-EXACT" if ok else "MISMATCH")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
