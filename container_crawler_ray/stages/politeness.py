"""Per-host politeness scheduler (T6/O1/J2/M5 in SURVEY.md §2).

``schedule_table`` tags a whole pass's candidate table on the driver in one
vectorized kernel. Hosts are grouped by ``host_hash`` with ``np.unique``
and every per-host rule below is evaluated over the host-sorted rows, so
the result equals running the rules on each host group separately — the
semantics of the reference's ``groupby(host)`` priority frontier without
an exchange (the candidate set is bounded by
``num_partitions × items_chunk + |retry|``). Deterministically:

1. verification branch: rows not owned by this virtual node are only
   membership-probed — ``verify_ok`` / ``verify_miss``.
2. within-pass exact dedup by ``url_hash`` (A4 backstop; copies of a
   canonical URL share the host). The first row in (retry first, rowid,
   partition_id) order is kept, the rest are ``dup``.
3. cross-pass dedup: an already-seen scan row is ``seen``.
4. robots rules (J2 broadcast small side): first-match path-prefix rules;
   a host whose rules disallow ``/`` is skipped entirely — the
   ``SkipContainer`` analog [recon: ``container_crawler/exceptions.py:≈5``,
   caught ``__init__.py:≈215–225``]. Only hosts with non-trivial rules pay
   per-row path checks.
5. priority top-k under the token bucket (O1): per host, rank by
   (priority desc, rowid, partition_id, url_hash) — the last two make a
   salted host, whose rows share rowids across partitions, independent of
   row order — and schedule the first ``floor(available_tokens)`` rows.
   Bucket state: ``available = min(capacity, stored + rate)`` with
   ``rate = pass_time_ms / crawl_delay_ms`` (virtual time → deterministic).

``update_buckets`` then spends the tagged pass's tokens over the same host
grouping: each host with an owned row stores ``available - scheduled``.
Both read the rate, capacity and available tokens from ``_host_policy``,
the one place the bucket policy is written.

Rows keep flowing with a ``sched`` tag instead of being dropped, so one
pass result carries every branch (metrics, deferral, verify).
Tags: scheduled | deferred | disallowed | skipped_host | dup | seen |
verify_ok | verify_miss.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions.canonicalize import path_of


def schedule_table(t: pa.Table, robots: dict, buckets: dict,
                   pass_time_ms: float, capacity_factor: float) -> pa.Table:
    """Append the ``sched`` tag to a candidate table of any number of
    hosts (needs ``owned`` and ``seen`` columns)."""
    n = len(t)
    sched = np.full(n, "", dtype=object)
    seen = t.column("seen").to_numpy()
    own = t.column("owned").to_numpy()
    sched[~own & seen] = "verify_ok"
    sched[~own & ~seen] = "verify_miss"

    _, first, hidx = np.unique(t.column("host_hash").to_numpy(),
                               return_index=True, return_inverse=True)
    uh = t.column("url_hash").to_numpy()
    rowid = t.column("rowid").to_numpy()
    pid = t.column("partition_id").to_numpy()
    is_retry = pc.equal(t.column("src"), "retry").to_numpy(
        zero_copy_only=False)

    # within-pass dedup: the first row per (host, url_hash) claims it
    oidx = np.flatnonzero(own)
    order = oidx[np.lexsort((pid[oidx], rowid[oidx], ~is_retry[oidx],
                             uh[oidx], hidx[oidx]))]
    dup_sorted = np.zeros(len(order), dtype=bool)
    dup_sorted[1:] = ((uh[order[1:]] == uh[order[:-1]])
                      & (hidx[order[1:]] == hidx[order[:-1]]))
    dup = np.zeros(n, dtype=bool)
    dup[order[dup_sorted]] = True
    sched[dup] = "dup"
    sched[own & ~dup & seen & ~is_retry] = "seen"

    skip, ruled, _, _, avail = _host_policy(
        t.column("host").take(first).to_pylist(), robots, buckets,
        pass_time_ms, capacity_factor)
    budget = avail.astype(np.int64)
    cand = sched == ""
    sched[cand & skip[hidx]] = "skipped_host"
    cand &= ~skip[hidx]
    if ruled:
        ridx = np.flatnonzero(cand & np.isin(hidx, list(ruled)))
        urls = t.column("canonical_url").take(ridx).to_pylist()
        bad = ridx[[not _allowed(ruled[int(hidx[i])], path_of(u))
                    for i, u in zip(ridx, urls)]]
        sched[bad] = "disallowed"
        cand[bad] = False

    # token-bucket top-k by per-host rank
    cidx = np.flatnonzero(cand)
    pr = t.column("priority").to_numpy()
    cidx = cidx[np.lexsort((uh[cidx], pid[cidx], rowid[cidx], -pr[cidx],
                            hidx[cidx]))]
    hs = hidx[cidx]
    starts = np.flatnonzero(np.r_[True, hs[1:] != hs[:-1]])
    rank = np.arange(len(cidx)) - np.repeat(starts,
                                            np.diff(np.r_[starts, len(cidx)]))
    take = rank < budget[hs]
    sched[cidx[take]] = "scheduled"
    sched[cidx[~take]] = "deferred"
    return t.append_column("sched", pa.array(sched, type=pa.string()))


def make_schedule_fn(robots_ref, buckets_ref, cfg_pass_time_ms: float,
                     cfg_capacity_factor: float):
    """``schedule_table`` as a per-table function over ray.put refs."""
    def schedule(t: pa.Table) -> pa.Table:
        return schedule_table(t, ray.get(robots_ref), ray.get(buckets_ref),
                              cfg_pass_time_ms, cfg_capacity_factor)
    return schedule


def update_buckets(t: pa.Table, robots: dict, buckets: dict,
                   pass_time_ms: float, capacity_factor: float) -> None:
    """Spend a tagged pass's tokens in *buckets*, in place: each host with
    an owned row stores ``available - scheduled``. An entry that would
    refill to capacity by the next pass (``left + rate >= capacity``)
    reads exactly like an absent one, so it is dropped (a skip-all host,
    which schedules nothing, always is): at 10^8 hosts the dict holds
    only the throttled head."""
    oidx = np.flatnonzero(t.column("owned").to_numpy())
    _, first, hidx = np.unique(t.column("host_hash").to_numpy()[oidx],
                               return_index=True, return_inverse=True)
    hosts = t.column("host").take(oidx[first]).to_pylist()
    sched_m = pc.equal(t.column("sched"), "scheduled").to_numpy(
        zero_copy_only=False)[oidx]
    spent = np.bincount(hidx[sched_m], minlength=len(hosts))
    _, _, rate, cap, avail = _host_policy(hosts, robots, buckets,
                                          pass_time_ms, capacity_factor)
    left = avail - spent
    for host, full, v in zip(hosts, left + rate >= cap, left.tolist()):
        if full:
            buckets.pop(host, None)
        else:
            buckets[host] = v


def _host_policy(hosts: list[str], robots: dict, buckets: dict,
                 pass_time_ms: float, capacity_factor: float):
    """The per-host robots and token-bucket policy, one dict lookup per
    distinct host: (skip-all mask, {index: non-trivial rules}, refill
    rate, capacity, available tokens) with ``rate = pass_time_ms /
    crawl_delay_ms`` (virtual time, so deterministic), ``capacity =
    max(1, capacity_factor × rate)`` and ``available = min(capacity,
    stored + rate)``, an absent bucket reading as full."""
    skip = np.zeros(len(hosts), dtype=bool)
    delay = np.full(len(hosts), 1000.0)
    ruled: dict[int, list] = {}
    for h, host in enumerate(hosts):
        rb = robots.get(host)
        if not rb:
            continue            # absent: allow all, 1 s delay
        rules = rb["rules"]
        if not _allowed(rules, "/"):
            skip[h] = True      # SkipContainer analog: whole host skipped
        elif not (len(rules) == 1 and rules[0]["allow"]
                  and rules[0]["path_prefix"] == "/"):
            ruled[h] = rules
        delay[h] = rb["crawl_delay_ms"]
    rate = pass_time_ms / np.maximum(1.0, delay)
    cap = np.maximum(1.0, capacity_factor * rate)
    stored = np.array([buckets.get(host, c)
                       for host, c in zip(hosts, cap.tolist())],
                      dtype=np.float64)
    return skip, ruled, rate, cap, np.minimum(cap, stored + rate)


def _allowed(rules: list[dict], path: str) -> bool:
    for r in rules:
        if path.startswith(r["path_prefix"]):
            return bool(r["allow"])
    return True
