"""Job entry point (SURVEY.md §7 step 8): the ``ray job submit`` target.

    python -m container_crawler_ray.run --root /tmp/crawl --seeds 100000 \
        --passes 5 [--resume] [--num-cpus 32] [--engine-index 0 --num-engines 1]

Kill it at any point; re-run with ``--resume`` and it continues exactly
from the last committed pass. This is the only module in the library that
may call ``ray.init`` (guarded), because it IS a process entry point.
"""

from __future__ import annotations

import argparse
import json


def main() -> None:
    ap = argparse.ArgumentParser(description="container-crawler-ray job")
    ap.add_argument("--root", required=True, help="run/state directory")
    ap.add_argument("--seeds", type=int, default=10_000,
                    help="synthetic seed count (ignored with --seed-file)")
    ap.add_argument("--seed-file", default=None,
                    help="URL list file (.txt/.csv/.parquet) instead of "
                         "synthetic seeds")
    ap.add_argument("--passes", type=int, default=5)
    ap.add_argument("--resume", action="store_true")
    ap.add_argument("--num-cpus", type=int, default=None)
    ap.add_argument("--num-engines", type=int, default=1)
    ap.add_argument("--engine-index", type=int, default=0)
    ap.add_argument("--partitions", type=int, default=32)
    ap.add_argument("--items-chunk", type=int, default=4000)
    ap.add_argument("--bulk", action="store_true")
    args = ap.parse_args()

    import ray
    if not ray.is_initialized():
        kw = {"num_cpus": args.num_cpus} if args.num_cpus else {}
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR", **kw)
    import ray.data
    ray.data.DataContext.get_current().enable_progress_bars = False

    from .config import CrawlConfig
    from .pipelines.crawl import run_crawl
    from .sources.synth import make_seed_urls

    cfg = CrawlConfig(num_partitions=args.partitions,
                      items_chunk=args.items_chunk,
                      num_engines=args.num_engines,
                      engine_index=args.engine_index,
                      bulk_process=args.bulk,
                      workers=args.num_cpus or 16)
    if args.resume:
        seed_urls = None
    elif args.seed_file:
        from .sources.seeds import load_seed_urls
        seed_urls = load_seed_urls(args.seed_file)
    else:
        seed_urls = make_seed_urls(args.seeds)
    out = run_crawl(args.root, cfg, seed_urls=seed_urls,
                    max_passes=args.passes, resume=args.resume)
    print(json.dumps({"final_pass": out["final_pass"],
                      "total_fetched": out["total_fetched"],
                      "total_scheduled": out["total_scheduled"]}))
    ray.shutdown()


if __name__ == "__main__":
    main()
