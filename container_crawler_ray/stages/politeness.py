"""Per-host politeness scheduler (T6/O1/J2/M5 in SURVEY.md §2).

After the ``groupby(host)`` shuffle each host's pending candidates land in
one group; the group fn applies, deterministically:

1. within-pass exact dedup by ``url_hash`` (A4 backstop; copies of a
   canonical URL share the host so they always meet here — no extra
   shuffle needed). Preference: retry rows over scan rows, then min rowid.
2. robots rules (J2 broadcast small side): first-match path-prefix rules;
   a host whose rules disallow ``/`` is skipped entirely — the
   ``SkipContainer`` analog [recon: ``container_crawler/exceptions.py:≈5``,
   caught ``__init__.py:≈215–225``].
3. priority top-k under the token bucket (O1): sort by
   (priority desc, rowid asc, src) — rowid ties make crawl order
   reproducible — and schedule the first ``floor(available_tokens)`` rows.
   Bucket state: ``available = min(capacity, stored + rate)`` with
   ``rate = pass_time_ms / crawl_delay_ms`` (virtual time → deterministic).

Rows keep flowing with a ``sched`` tag instead of being dropped, so one
materialized pass result carries every branch (metrics, deferral, verify).
Tags: scheduled | deferred | disallowed | skipped_host | dup | seen |
verify_ok | verify_miss.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions.canonicalize import path_of


def make_schedule_fn(robots_ref, buckets_ref, cfg_pass_time_ms: float,
                     cfg_capacity_factor: float):
    """Build the per-host group fn (Arrow batches — this is the one
    per-pass shuffle, so the group blocks stay zero-copy instead of
    paying an Arrow→pandas→Arrow round trip). robots/buckets are
    ray.put broadcast refs (small sides), resolved per call via ray.get
    (a local plasma lookup after the first touch on a worker)."""

    def schedule(t: pa.Table) -> pa.Table:
        robots = ray.get(robots_ref)
        buckets = ray.get(buckets_ref)
        host = t.column("host")[0].as_py()
        n = len(t)
        sched = np.full(n, "", dtype=object)

        # verification branch: not-owned rows never compete for budget
        seen_a = t.column("seen").to_numpy()
        verify = ~t.column("owned").to_numpy()
        sched[verify & seen_a] = "verify_ok"
        sched[verify & ~seen_a] = "verify_miss"

        own = ~verify
        # 1. within-pass dedup (prefer retry, then min rowid) — vectorized:
        # first occurrence in (retry-first, rowid-asc) order claims the hash
        is_retry = pc.equal(t.column("src"), "retry").to_numpy(
            zero_copy_only=False)
        rowid = t.column("rowid").to_numpy()
        order = np.lexsort((rowid, ~is_retry))
        own_order = order[own[order]]
        uh = t.column("url_hash").to_numpy()
        dup = np.zeros(n, dtype=bool)
        if len(own_order):
            dup_sorted = pd.Series(uh[own_order]).duplicated().to_numpy()
            dup[own_order[dup_sorted]] = True
        sched[own & dup] = "dup"

        # 2. already-seen scan rows are duplicates across passes
        seen_drop = own & ~dup & seen_a & ~is_retry
        sched[seen_drop] = "seen"

        # 3. robots
        rb = robots.get(host)
        rules = rb["rules"] if rb else [{"allow": True, "path_prefix": "/"}]
        delay_ms = rb["crawl_delay_ms"] if rb else 1000
        if not _allowed(rules, "/"):
            # SkipContainer analog: whole host skipped this pass
            sched[own & (sched == "")] = "skipped_host"
            return t.append_column(
                "sched", pa.array(sched, type=pa.string()))
        cand = own & (sched == "")
        trivial_allow = (len(rules) == 1 and rules[0]["allow"]
                         and rules[0]["path_prefix"] == "/")
        if not trivial_allow:
            # per-row path checks only for hosts with real rule lists
            paths = [path_of(u)
                     for u in t.column("canonical_url").to_pylist()]
            disallowed = np.array(
                [bool(c) and not _allowed(rules, p)
                 for c, p in zip(cand, paths)]
            )
            sched[disallowed] = "disallowed"
            cand &= ~disallowed

        # 4. token bucket + priority top-k
        rate = cfg_pass_time_ms / max(1.0, float(delay_ms))
        cap = max(1.0, cfg_capacity_factor * rate)
        stored = buckets.get(host, cap)  # buckets start full
        avail = min(cap, stored + rate)
        budget = int(avail)
        cidx = np.flatnonzero(cand)
        if len(cidx):
            pr = t.column("priority").to_numpy()[cidx]
            order2 = np.lexsort((rowid[cidx], -pr))
            chosen = cidx[order2[:budget]]
            sched[chosen] = "scheduled"
            rest = cidx[order2[budget:]]
            sched[rest] = "deferred"
        return t.append_column("sched", pa.array(sched, type=pa.string()))

    return schedule


def _allowed(rules: list[dict], path: str) -> bool:
    for r in rules:
        if path.startswith(r["path_prefix"]):
            return bool(r["allow"])
    return True

