"""Unit tests for the pass stages that run without a crawl: URL routing,
driver-side rowid assignment, the politeness schedule, the per-worker
cache of the mapped fetch function and the driver scan window."""

import itertools
import pickle
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
from hypothesis import assume, given, settings, strategies as st
from ray import cloudpickle

from container_crawler_ray.config import CrawlConfig
from container_crawler_ray.functions.canonicalize import canonicalize_url
from container_crawler_ray.pipelines.crawl import (_append_in_list_order,
                                                   build_frontier_rows)
from container_crawler_ray.stages import fetch
from container_crawler_ray.stages.links import (assign_rowids, dedup_links,
                                                make_link_enrich,
                                                to_append_shape)
from container_crawler_ray.stages.politeness import (_allowed,
                                                     make_schedule_fn,
                                                     schedule_table)
from container_crawler_ray.stages.scan import (make_watermark_filter,
                                               window_expr)
from container_crawler_ray.storage import TableStore

from .oracle import _mk_row, init_oracle


def _rows(pid, url, canon, depth, rowid=None):
    cols = {
        "partition_id": pa.array(pid, type=pa.int32()),
        "url": url,
        "canonical_url": canon,
        "host": [c.split("/")[2] for c in canon],
        "url_hash": pa.array(np.arange(len(url)), type=pa.uint64()),
        "host_hash": pa.array(np.zeros(len(url)), type=pa.uint64()),
        "priority": pa.array(np.zeros(len(url)), type=pa.float32()),
        "depth": pa.array(depth, type=pa.int32()),
    }
    if rowid is not None:
        cols["rowid"] = pa.array(rowid, type=pa.int64())
    return pa.table(cols)


def test_assign_rowids_dedup_order_and_dense_rowids():
    # deferred rows of partition 0, out of old-rowid order
    deferred = _rows([0, 0], ["http://d.example/7", "http://d.example/5"],
                     ["http://d.example/7", "http://d.example/5"], [1, 1],
                     rowid=[7, 5])
    # two link blocks: http://a.example/x arrives at depth 3, then at 2;
    # http://z.example/q arrives twice at one depth (the smallest raw
    # url wins the tie, whatever the block order)
    block_a = _rows([0, 0, 1],
                    ["http://a.example/x", "http://z.example/q",
                     "http://c.example/y"],
                    ["http://a.example/x", "http://z.example/q",
                     "http://c.example/y"], [3, 2, 1])
    block_b = _rows([0, 0, 0],
                    ["HTTP://a.example/x", "http://a.example/b",
                     "HTTP://z.example/q"],
                    ["http://a.example/x", "http://a.example/b",
                     "http://z.example/q"], [2, 1, 2])
    links = dedup_links(pa.concat_tables([block_a, block_b]))
    app = pa.concat_tables([to_append_shape(deferred, 0),
                            to_append_shape(links, 1)])
    next_rowid = {0: 10, 1: 3}
    out = assign_rowids(app, next_rowid, pass_id=4).to_pylist()
    got = [(r["partition_id"], r["rowid"], r["url"], r["depth"])
           for r in out]
    assert got == [
        (0, 10, "http://d.example/5", 1),     # deferred, old-rowid order
        (0, 11, "http://d.example/7", 1),
        (0, 12, "http://a.example/b", 1),     # links by canonical_url
        (0, 13, "HTTP://a.example/x", 2),     # min depth kept
        (0, 14, "HTTP://z.example/q", 2),     # tie: smallest raw url
        (1, 3, "http://c.example/y", 1),
    ]
    assert all(r["pass_added"] == 4 for r in out)
    assert next_rowid == {0: 15, 1: 4}


# ---------------------------------------------------------------- routing
_SALTED = "h3.example"
_url = st.builds(
    lambda scheme, host, port, path, q, frag:
        f"{scheme}://{host}{port}/p/{path}{q}{frag}",
    scheme=st.sampled_from(["http", "HTTP"]),
    host=st.sampled_from(["h0.example", "H0.EXAMPLE", "h1.example",
                          "h2.Example", _SALTED, "H3.example"]),
    port=st.sampled_from(["", ":80", ":8080"]),
    path=st.integers(0, 40),
    q=st.sampled_from(["", "?a=1&b=2", "?b=2&a=1"]),
    frag=st.sampled_from(["", "#frag"]),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_url, min_size=1, max_size=40),
       st.lists(st.integers(0, 39), max_size=8),
       st.sampled_from([1, 5, 8]))
def test_routing_matches_oracle(urls, dup_at, num_partitions):
    """Seed rows (routing plus per-partition rowids in list order) and
    link rows equal the spec oracle's, row by row: partition, canonical
    URL, both hashes, priority and rowid, over uppercase hosts, default
    and other ports, fragments, reordered queries, verbatim duplicates
    and one salted host."""
    urls = urls + [urls[i % len(urls)] for i in dup_at]
    cfg = CrawlConfig(num_partitions=num_partitions, salted_hosts=(_SALTED,))

    def prio(n):
        return float(np.float32(n) / np.float32(1000))

    st_, _ = init_oracle(cfg, urls, robots={})
    want = sorted((r.partition_id, r.rowid, r.url, r.canonical_url, r.host,
                   r.url_hash, r.host_hash, prio(r.priority_n), 0)
                  for rows in st_.frontier.values() for r in rows)
    next_rowid: dict = {}
    seeds = _append_in_list_order(build_frontier_rows(urls, cfg),
                                  next_rowid, 0)
    got = sorted((r["partition_id"], r["rowid"], r["url"],
                  r["canonical_url"], r["host"], r["url_hash"],
                  r["host_hash"], r["priority"], r["depth"])
                 for r in seeds.to_pylist())
    assert got == want
    assert next_rowid == st_.next_rowid

    depth = list(range(len(urls)))
    links = make_link_enrich(num_partitions, cfg.salted_hosts)(pa.table({
        "url": urls, "depth": pa.array(depth, type=pa.int32())}))
    for r, u, d in zip(links.to_pylist(), urls, depth):
        o = _mk_row(cfg, u, d, 0, priority_src=canonicalize_url(u))
        assert (r["partition_id"], r["url"], r["canonical_url"], r["host"],
                r["url_hash"], r["host_hash"], r["priority"], r["depth"]) \
            == (o.partition_id, o.url, o.canonical_url, o.host, o.url_hash,
                o.host_hash, prio(o.priority_n), o.depth)


class _StubRef:
    def hex(self):
        return "stub-handler"


def test_mapped_fns_use_module_cache_after_pickling(tmp_path):
    """Ray ships a mapped function to each task with cloudpickle; the
    per-worker cache only hits if the unpickled function still reads the
    module's own dict (a closure would carry a copy of it). The task then
    writes its documents part (once, however often it runs) and returns
    its links nested per row."""
    store = TableStore(str(tmp_path))
    docs_dir = store.pass_dir("documents", 1)
    fetch_fn = pickle.loads(cloudpickle.dumps(fetch.make_fetch_fn(
        _StubRef(), False,
        fetch.PassOutputs(store, docs_dir, 1, make_link_enrich(4, ())))))
    # filled only now: the function can see this entry only through the
    # module's dict (a miss would ray.get the stub ref)
    # (fail_mod=1: every first attempt fails, every retry succeeds)
    fetch._HANDLERS["stub-handler"] = fetch.SimulatedFetchHandler(5, 10, 1)
    rows = pa.table({
        "canonical_url": ["http://h0001.example/p/1",
                          "http://h0001.example/p/2"],
        "host": ["h0001.example"] * 2,
        "depth": pa.array([0, 0], type=pa.int32()),
        "attempts": pa.array([1, 0], type=pa.int32()),
        "url_hash": pa.array([1, 2], type=pa.uint64())})
    try:
        for _ in range(2):          # a retried task
            out = fetch_fn(rows)
        assert out.column("ok").to_pylist() == [True, False]
        assert "spans" not in out.column_names
        n_links = [len(x) for x in out.column("link_rows").to_pylist()]
        assert n_links[0] > 0 and n_links[1] == 0
        docs = pq.read_table(docs_dir)
        assert docs.column("doc_id").to_pylist() == [f"{1:016x}"]
    finally:
        fetch._HANDLERS.pop("stub-handler", None)


# ------------------------------------------------------------- politeness
PASS_MS, CAP_FACTOR = 2000, 2.0
# robots kinds: absent (allow all, 1 s delay), trivial, skip-all, and a
# path-prefix disallow; delays make budgets of 0..8 rows per host
_ROBOTS_KINDS = {
    "absent": None,
    "trivial": [{"allow": True, "path_prefix": "/"}],
    "skip_all": [{"allow": False, "path_prefix": "/"},
                 {"allow": True, "path_prefix": "/"}],
    "prefix": [{"allow": False, "path_prefix": "/p/1"},
               {"allow": True, "path_prefix": "/"}],
}


def _cand_table(rows):
    """Candidate table from (host, path, src, rowid, pid, prio, owned,
    seen) tuples; copies of one (host, path) share url_hash."""
    return pa.table({
        "partition_id": pa.array([r[4] for r in rows], type=pa.int32()),
        "canonical_url": [f"http://h{r[0]}.example/p/{r[1]}" for r in rows],
        "host": [f"h{r[0]}.example" for r in rows],
        "url_hash": pa.array([r[0] * 100 + r[1] for r in rows],
                             type=pa.uint64()),
        "host_hash": pa.array([7919 * (r[0] + 1) for r in rows],
                              type=pa.uint64()),
        "priority": pa.array([r[5] for r in rows], type=pa.float32()),
        "rowid": pa.array([r[3] for r in rows], type=pa.int64()),
        "src": [r[2] for r in rows],
        "owned": pa.array([r[6] for r in rows]),
        "seen": pa.array([r[7] for r in rows]),
    })


def _reference_tags(t, robots, buckets):
    """The schedule spelled out row by row, one host at a time."""
    rows = t.to_pylist()
    tags = [None] * len(rows)
    hosts: dict = {}
    for i, r in enumerate(rows):
        hosts.setdefault(r["host_hash"], []).append(i)
    for idx in hosts.values():
        host = rows[idx[0]]["host"]
        for i in idx:
            if not rows[i]["owned"]:
                tags[i] = "verify_ok" if rows[i]["seen"] else "verify_miss"
        own = [i for i in idx if rows[i]["owned"]]
        kept: set = set()
        for i in sorted(own, key=lambda i: (rows[i]["src"] != "retry",
                                            rows[i]["rowid"],
                                            rows[i]["partition_id"])):
            if rows[i]["url_hash"] in kept:
                tags[i] = "dup"
            else:
                kept.add(rows[i]["url_hash"])
                if rows[i]["seen"] and rows[i]["src"] != "retry":
                    tags[i] = "seen"
        rb = robots.get(host)
        rules = rb["rules"] if rb else _ROBOTS_KINDS["trivial"]
        left = [i for i in own if tags[i] is None]
        if not _allowed(rules, "/"):
            for i in left:
                tags[i] = "skipped_host"
            continue
        for i in left:
            path = rows[i]["canonical_url"].split(".example", 1)[1]
            if not _allowed(rules, path):
                tags[i] = "disallowed"
        left = sorted((i for i in left if tags[i] is None),
                      key=lambda i: (-rows[i]["priority"], rows[i]["rowid"],
                                     rows[i]["partition_id"],
                                     rows[i]["url_hash"]))
        rate = PASS_MS / (rb["crawl_delay_ms"] if rb else 1000)
        cap = max(1.0, CAP_FACTOR * rate)
        budget = int(min(cap, buckets.get(host, cap) + rate))
        for k, i in enumerate(left):
            tags[i] = "scheduled" if k < budget else "deferred"
    return tags


def _per_group_tags(t, robots, buckets):
    fn = make_schedule_fn(ray.put(robots), ray.put(buckets), PASS_MS,
                          CAP_FACTOR)
    tags = [None] * len(t)
    hh = t.column("host_hash").to_numpy()
    for h in np.unique(hh):
        ix = np.flatnonzero(hh == h)
        for i, tag in zip(ix, fn(t.take(pa.array(ix)))
                          .column("sched").to_pylist()):
            tags[i] = tag
    return tags


_host_cfg = st.tuples(st.sampled_from(sorted(_ROBOTS_KINDS)),
                      st.sampled_from([250, 1000, 3000]),
                      st.sampled_from([None, 0.0, 0.5, 1.7]))
_row = st.tuples(
    st.integers(0, 3),                        # host
    st.integers(0, 13),                       # path (1, 10..13 disallowed)
    st.sampled_from(["scan", "scan", "retry"]),
    st.integers(0, 6),                        # rowid
    st.integers(0, 2),                        # partition_id
    st.sampled_from([0.25, 0.5, 0.75]),       # priority (ties)
    st.sampled_from([True, True, True, False]),  # owned
    st.booleans(),                            # seen
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_host_cfg, min_size=4, max_size=4),
       st.lists(_row, min_size=1, max_size=60))
def test_schedule_table_equals_per_host_groups(host_cfgs, rows):
    """The whole-table kernel tags every row as the schedule run on each
    host group separately does, and as the row-by-row spec does: verify
    rows, retry/scan copies of one url, seen rows, skip-all hosts,
    path-disallowed rows, budgets below the candidate count and
    priority ties."""
    robots, buckets = {}, {}
    for h, (kind, delay, stored) in enumerate(host_cfgs):
        if _ROBOTS_KINDS[kind] is not None:
            robots[f"h{h}.example"] = {"crawl_delay_ms": delay,
                                       "rules": _ROBOTS_KINDS[kind]}
        if stored is not None:
            buckets[f"h{h}.example"] = stored
    t = _cand_table(rows)
    got = schedule_table(t, robots, buckets, PASS_MS,
                         CAP_FACTOR).column("sched").to_pylist()
    assert got == _per_group_tags(t, robots, buckets)
    assert got == _reference_tags(t, robots, buckets)


def test_schedule_table_salted_host_ignores_row_order():
    """A salted host's rows share rowids across partitions; which copy
    is kept and which rows fit the budget must not depend on row order."""
    rows = [(0, 1, "scan", 5, 1, 0.5, True, False),
            (0, 1, "scan", 5, 0, 0.5, True, False),   # copy of url 1
            (0, 2, "scan", 5, 1, 0.5, True, False),
            (0, 3, "scan", 5, 0, 0.5, True, False),
            (0, 4, "scan", 5, 2, 0.5, True, False)]
    robots = {"h0.example": {"crawl_delay_ms": 1000,
                             "rules": _ROBOTS_KINDS["trivial"]}}
    buckets = {"h0.example": 0.0}              # budget 2 of 4 urls
    want = None
    for perm in itertools.permutations(range(len(rows))):
        t = _cand_table([rows[i] for i in perm])
        tags = schedule_table(t, robots, buckets, PASS_MS, CAP_FACTOR)
        got = {(r["partition_id"], r["url_hash"]): r["sched"]
               for r in tags.to_pylist()}
        want = want or got
        assert got == want
    assert want == {(0, 1): "scheduled", (1, 1): "dup",
                    (0, 3): "scheduled", (1, 2): "deferred",
                    (2, 4): "deferred"}


# ------------------------------------------------------------------- scan
_FRAG_TAGS = ["append", "append-e0", "append-e0d"]


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 6), st.integers(1, 40))
def test_driver_scan_equals_watermark_filter(data, num_partitions, chunk):
    """The pushed-down driver read of the scan window equals the numpy
    window filter over the whole frontier, over multi-fragment frontiers
    with plain, per-engine and drained-mailbox fragments and ``LOxHI``
    compaction segments; unscanned partitions read nothing."""
    sizes = data.draw(st.lists(st.integers(0, 30), min_size=num_partitions,
                               max_size=num_partitions))
    rows = [(p, r) for p, n in enumerate(sizes) for r in range(n)]
    assume(rows)
    frag = data.draw(st.lists(
        st.tuples(st.sampled_from(_FRAG_TAGS), st.integers(1, 4)),
        min_size=len(rows), max_size=len(rows)))
    wms = {p: data.draw(st.integers(-1, n + 2)) for p, n in enumerate(sizes)}
    scanned = {p: w for p, w in wms.items() if data.draw(st.booleans())}
    compact_upto = data.draw(st.sampled_from([None, 2, 4]))

    def table(sub):
        return pa.table({
            "rowid": pa.array([r for _, r in sub], pa.int64()),
            "partition_id": pa.array([p for p, _ in sub], pa.int32()),
            "url": [f"http://h{p}.example/{r}" for p, r in sub]})

    with tempfile.TemporaryDirectory() as root:
        store = TableStore(root)
        for key in sorted(set(frag)):
            sub = [row for row, k in zip(rows, frag) if k == key]
            store.append_fragment("frontier", table(sub), key[1], tag=key[0])
        if compact_upto is not None:
            store.compact("frontier", tag="append", upto_pass=compact_upto)
        got = store.read_where(store.fragments("frontier"),
                               window_expr(scanned, chunk))
    window = {p: scanned.get(p, 1 << 62) for p in range(num_partitions)}
    want = make_watermark_filter(window, num_partitions, chunk)(table(rows))

    def key(t):
        return sorted(zip(t.column("partition_id").to_pylist(),
                          t.column("rowid").to_pylist(),
                          t.column("url").to_pylist()))
    assert key(got) == key(want)
