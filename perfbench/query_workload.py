"""The ``query_mix`` workload: a fixed slice of the operator catalog, run
through ``__ray_entry__.queries()`` in catalog order over tables generated
from the workload seed (``querydata.py``).

Every result is checked after timing: SQL-twin queries against their
DuckDB twin from ``__ray_entry__.oracle_sql()``, and the two modules that
only have golden-file oracles (``cluster``, ``crawl_queries``) against the
independent reference implementation in ``tools/make_goldens.py`` run on
the same tables. Both comparisons use ``tools/check_oracle.py``'s
``compare()``.
"""

from __future__ import annotations

import os
import time

# Scale of the generated tables (0.1 is the size of the catalog's own
# benchmark test data; 0.01 keeps the list near 20 s on 4 cpus).
SF = 0.01

# About half are analytics operators built on the hand-rolled
# ``key % 64`` → ``groupby("bucket").map_groups`` exchange, spread over the
# catalog (taken from every 8th such SQL-twin operator); the rest are the
# first aggregations, two TPC-H style joins and one representative of
# every other pipelines module.
BUCKET_ANALYTICS = [
    "events_topk_per_user", "user_value_rolling", "user_daily_locf",
    "customer_revenue_inequality", "user_lifetime_km", "session_length_hist",
    "user_minute_burst_flags", "priority_transition_matrix",
    "part_demand_quadrants", "lineitem_cluster_deff",
    "user_journey_endpoints", "event_type_intraday_cadence",
    "user_activity_fingerprint_dups", "repeat_revenue_share",
]
OTHER = [
    "docs_per_lang", "events_rollup", "q1_pricing", "user_activity",
    "q3_shipping", "q18_large_orders",
    "cms_width_sweep",               # curate
    "embedding_triplet_audit",       # ann
    "minhash_error_audit",           # dedup
    "docs_entropy_rate_by_source",   # text_ops
    "part_assortativity",            # graph
    "media_scene_changes",           # media
    "spans_flat",                    # spans
    "kmeans_clusters",               # cluster (golden oracle)
    "frontier_host_stats",           # crawl_queries (golden oracle)
]
# untimed warm-up: one query per worker-side module family
WARMUP = ["q1_pricing", "events_topk_per_user", "embedding_triplet_audit"]
# self-test slice: one query per oracle kind
TOY = ["q1_pricing", "events_topk_per_user", "kmeans_clusters",
       "frontier_host_stats"]
TOY_SF = 0.001


class QueryMix:
    def __init__(self, repo_root: str, data_dir: str, seed: int,
                 toy: bool = False):
        self.repo_root = repo_root
        self.data_dir = data_dir
        self.seed = seed
        self.toy = toy
        self._expected: dict = {}

    def make_tables(self) -> None:
        """Generate the input tables (the benchmark's own work, before the
        timed set-up)."""
        from querydata import generate

        self.rows = generate(self.data_dir, self.seed,
                             TOY_SF if self.toy else SF)

    def setup(self) -> None:
        """Import the catalog and pick the list (set-up)."""
        import sys

        tools = os.path.join(self.repo_root, "tools")
        if tools not in sys.path:
            sys.path.insert(0, tools)
        import __ray_entry__ as entry

        catalog = entry.queries()
        self.oracles = entry.oracle_sql()
        wanted = set(TOY if self.toy else BUCKET_ANALYTICS + OTHER)
        missing = wanted - set(catalog)
        if missing:
            raise KeyError(f"queries not in the catalog: {sorted(missing)}")
        self.names = [n for n in catalog if n in wanted]   # catalog order
        self.fns = {n: catalog[n] for n in self.names}
        self.modules = {n: catalog[n].__module__.rsplit(".", 1)[-1]
                        for n in self.names}

    def warm_up(self) -> None:
        from check_oracle import to_pdf

        for n in TOY if self.toy else WARMUP:
            to_pdf(self.fns[n](self.data_dir))

    def run_unit(self, tracer=None) -> dict:
        """Run the list once; per-query wall, rows and result frames."""
        from check_oracle import to_pdf

        from session import steal_s

        out = {"walls": {}, "steal": {}, "rows": {}, "results": {},
               "errors": {}}
        for n in self.names:
            st0 = steal_s()
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    res = to_pdf(self.fns[n](self.data_dir))
                else:
                    with tracer.span(f"pipelines.{self.modules[n]}",
                                     query=n):
                        res = to_pdf(self.fns[n](self.data_dir))
            except Exception as e:  # noqa: BLE001 - counted as failed op
                out["errors"][n] = f"{type(e).__name__}: {e}"
                continue
            out["walls"][n] = time.perf_counter() - t0
            out["steal"][n] = steal_s() - st0
            out["rows"][n] = len(res)
            out["results"][n] = res
        return out

    def expected(self, name: str):
        """The oracle answer for *name* over the generated tables."""
        if name not in self._expected:
            import check_oracle
            import make_goldens

            sql = self.oracles.get(name)
            if sql is None:
                raise KeyError(f"{name} has no oracle")
            if "tests/golden" in sql:
                self._expected[name] = make_goldens.GOLDENS[name](
                    self.data_dir)
            else:
                if not hasattr(self, "_con"):
                    import duckdb
                    self._con = duckdb.connect()
                    for t in check_oracle.TABLES:
                        self._con.sql(
                            f"CREATE VIEW {t} AS SELECT * FROM read_parquet("
                            f"'{self.data_dir}/{t}.parquet')")
                self._expected[name] = self._con.sql(sql).df()
        return self._expected[name]

    def check(self, unit: dict) -> dict[str, str]:
        """Verdict per query that ran: "OK" or the mismatch."""
        from check_oracle import compare

        verdicts = {}
        for n, res in unit["results"].items():
            try:
                verdicts[n] = compare(n, res, self.expected(n))
            except Exception as e:  # noqa: BLE001 - a failed check
                verdicts[n] = f"CHECK-ERROR {type(e).__name__}: {e}"
        unit["results"].clear()
        return verdicts
