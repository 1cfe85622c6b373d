"""The crawl driver: one pass = one Ray Data round; the BFS loop lives on
the driver (Ray Data DAGs are acyclic — SURVEY.md §4.3), exactly mirroring
the reference's poll-pass structure [recon:
``container_crawler/__init__.py:≈100–330`` run_always/run_once/
handle_container/process_items].

Per-pass dataflow. Candidates are bounded by
``num_partitions × items_chunk + |retry|`` — the reference's micro-batch
invariant — so every per-pass table is bounded regardless of frontier size,
and the pass runs ONE Ray Data execution (the fetch map), no shuffle and no
repartition:

    driver read of the frontier fragments through the storage backend,
      the watermark WINDOW (wm, wm + items_chunk] of every owned
      partition pushed into the read                           [S1/O3]
      (= sort+head(chunk), shuffle-free: per-partition rowids are dense)
    driver, over those scan rows and the retry re-injections     [J3]:
      mod-ownership tag (numpy)                                   [M1]
      ONE seen probe (one RPC per shard)                          [J1]
      schedule_table: dedup, robots, per-host token-bucket top-k
        over the host-sorted table (the priority-frontier
        semantics, without the exchange)                  [O1/T6/J2/M5]
      mark-WAL append + bulk seen mark of the scheduled scan rows
        (write-ahead-logged so a mid-pass kill rolls back exactly;
        on a driver thread, overlapped with the fetch)             [T5]
    uniform driver slices of the scheduled rows only
      → map_batches(fetch: elastic tasks), each task also     [T1/M2/M3]
          writing its ok rows' documents part into the pass dir,
          exploding + canonicalizing/hashing/routing its links
          into one nested ``link_rows`` column, and returning its
          rows without the document payload
      → materialize → blocks read zero-copy on the driver

then, on the driver — numpy and Arrow, no pandas:

    over the fetched rows plus the unscheduled candidates as not fetched:
      per-partition stats (np.unique/bincount) → watermark gating
      token-bucket spend over the tagged candidates
        (politeness.update_buckets)
    over the link edges (``link_rows`` flattened) and the deferred rows:
      lineage sink (one file per pass, on a driver thread)
      ONE seen probe per pass (one RPC per shard)            [J1]
      → exact dedup (min depth per canonical URL)
      → own/foreign split (foreign links post to the owning
        engine's mailbox)
      → per-partition rowid assignment                       [a sort —
        no shuffle, no repartition] → frontier append
    retry table (one Arrow filter), metrics

and an atomic checkpoint (``_commit``: state fragments, then meta.json —
the commit point; kill anywhere → exact resume).

One path serves one engine and many: a single engine is the ring of one,
with no peer mailboxes to drain or post to. Every per-engine name comes
from ``_etag``, which adds the ``-e<k>`` suffix only when E > 1, so a
single-engine run keeps the plain layout; only ``resume_run``'s seen
restore differs between the two (exclusive vs shared shards).

Watermark semantics (the critical reference invariant [recon:
``__init__.py:≈310–330``]): a partition's watermark advances to the max
scanned rowid IFF no gating error occurred in its chunk (fetch errors of
scan-branch rows + verification misses). Errors leave the watermark
untouched → the chunk is rescanned next pass; already-scheduled rows are
dropped by the seen set (at-least-once ∧ seen-set ⇒ effectively-once) and
failed rows re-enter via the retry queue with attempts+1.
"""

from __future__ import annotations

import os
import time
import uuid
from dataclasses import dataclass, field, replace

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..config import CrawlConfig
from ..functions.hashing import hash64_many
from ..schemas import BUCKETS, CHECKPOINTS, LINEAGE, METRICS, RETRY
from ..sources import synth
from ..stages.fetch import PassOutputs, SimulatedFetchHandler, make_fetch_fn
from ..stages.links import (assign_rowids, dedup_links, make_link_enrich,
                            to_append_shape, unpack_link_rows)
from ..stages.politeness import schedule_table, update_buckets
from ..stages.scan import window_expr
from ..state.seen import SeenSet
from ..storage import TableStore, parse_fragment_name

CAND_SCHEMA = pa.schema(list(RETRY) + [("src", pa.string())])

_LOG = __import__("logging").getLogger("container_crawler_ray.crawl")

# mark-WAL retention (passes per engine). The rollback guard reads other
# engines' retained WALs to avoid erasing a foreign dup-mark (auto-salt
# transient disagreement); a torn pass can only temporally overlap a
# foreign pass within a few pass-walls of the commit frontier, so a
# small window suffices — and bounds the on-disk WAL footprint that
# previously grew without bound.
_MARK_WAL_KEEP = 4


@dataclass
class CrawlState:
    run_id: str
    pass_id: int
    watermarks: dict[int, int]
    next_rowid: dict[int, int]
    buckets: dict[str, float]
    robots: dict[str, dict]
    seen: SeenSet
    salted_hosts: tuple = ()
    # multi-engine: per-sender high-water of drained link-mailbox passes
    drained: dict = field(default_factory=dict)


def _etag(cfg: CrawlConfig, base: str, engine: int | None = None) -> str:
    """The naming rule for every per-engine name (fragment tags, mailboxes,
    ``meta*.json``) of this engine or of engine *engine*. Engines are
    shared-nothing (the reference's one-daemon-per-node model): each owns
    the partitions with ``partition_id % num_engines == engine_index``."""
    # one engine and many differ here: a ring of one keeps the plain
    # names, the coordinator's init layout every engine bootstraps from
    k = cfg.engine_index if engine is None else engine
    return f"{base}-e{k}" if cfg.num_engines > 1 else base


def _inbox(cfg: CrawlConfig, to: int, sender: int) -> str:
    """Mailbox tag of the link intents *sender* posts to engine *to*."""
    return _etag(cfg, _etag(cfg, "inbox", to) + "-from", sender)


def _peers(cfg: CrawlConfig) -> list[int]:
    """Every OTHER engine of the run (none for a single engine)."""
    return [e for e in range(cfg.num_engines) if e != cfg.engine_index]


def _peer_commits(store: TableStore, cfg: CrawlConfig) -> dict[int, int]:
    """Committed pass id of every other engine (-1 before its first)."""
    out = {}
    for e in _peers(cfg):
        m = store.read_meta(_etag(cfg, "meta", e) + ".json")
        out[e] = -1 if m is None else m["pass_id"]
    return out


# --------------------------------------------------------------------- init
def build_frontier_rows(urls: list[str], cfg: CrawlConfig) -> pa.Table:
    """Enrich raw seed URLs into FRONTIER rows (without rowids), routed by
    the link enrich. Seed priority is hash64(RAW url)%1000/1000 per
    FIXTURES.md §1 — non-canonical variants get their own priority; the
    per-pass dedup picks the min-rowid copy."""
    rows = make_link_enrich(cfg.num_partitions, cfg.salted_hosts)(pa.table({
        "url": pa.array(urls, type=pa.string()),
        "depth": pa.array(np.zeros(len(urls), dtype=np.int32))}))
    prio = (hash64_many(urls) % np.uint64(1000)).astype(np.float32) / 1000.0
    return rows.set_column(rows.schema.get_field_index("priority"),
                           "priority", pa.array(prio))


def _append_in_list_order(rows: pa.Table, next_rowid: dict[int, int],
                          pass_id: int) -> pa.Table:
    """Per-partition rowids in list (append) order: the list position is
    the order key of ``assign_rowids``'s undeduplicated kind-0 rows."""
    pos = pa.array(np.arange(len(rows), dtype=np.int64))
    return assign_rowids(to_append_shape(rows.append_column("rowid", pos), 0),
                         next_rowid, pass_id)


def init_run(root: str, cfg: CrawlConfig, seed_urls: list[str],
             robots: dict[str, dict] | None = None) -> tuple[TableStore, CrawlState]:
    store = TableStore(root)
    state = CrawlState(
        run_id=uuid.uuid4().hex[:12],
        pass_id=0,
        watermarks={p: -1 for p in range(cfg.num_partitions)},
        next_rowid={},
        buckets={},
        robots=robots if robots is not None else synth.robots_lookup(cfg.n_hosts),
        seen=SeenSet(uuid.uuid4().hex[:12], cfg.seen_shards,
                     cfg.cuckoo_capacity, cfg.bloom_bits),
        salted_hosts=cfg.salted_hosts,
    )
    seed_tbl = _append_in_list_order(build_frontier_rows(seed_urls, cfg),
                                     state.next_rowid, 0)
    store.append_fragment("frontier", seed_tbl, 0, tag="append",
                          meta=_frontier_meta(seed_tbl))
    # persist robots so resume (any engine, any process) sees the same
    # politeness rules that were configured at init
    hosts = sorted(state.robots)
    store.write_current("robots", pa.table(
        {
            "host": hosts,
            "crawl_delay_ms": pa.array(
                [state.robots[h]["crawl_delay_ms"] for h in hosts],
                type=pa.int32()),
            "rules": [state.robots[h]["rules"] for h in hosts],
        }))
    # the coordinator writes the one-engine (plain-named) init state that
    # every engine of a multi-engine run bootstraps from
    _write_state_fragments(
        store, replace(cfg, num_engines=1, engine_index=0), state)
    # seen_run_id in the init meta lets every engine of a multi-engine run
    # resolve the SAME named shard actors — the seen set is cluster-global,
    # sharded by url_hash, exactly as on a real multi-node cluster
    store.write_meta({"pass_id": 0, "run": "initialized",
                      "num_partitions": cfg.num_partitions,
                      "salted_hosts": list(cfg.salted_hosts),
                      "seen_run_id": state.seen.run_id})
    # sidecar survives pass commits (which overwrite meta.json in
    # single-engine mode): destroy_run_actors reads it to reclaim the
    # run's detached shard actors after a crash without a resume
    store.write_meta({"seen_run_id": state.seen.run_id},
                     name="seen_run.json")
    return store, state


def resume_run(root: str, cfg: CrawlConfig) -> tuple[TableStore, CrawlState]:
    """Exact resume from the last committed pass: every state table is read
    at the meta version; later (torn) fragments are ignored and will be
    overwritten when the pass re-runs. An engine's first start (no meta of
    its own yet — only possible when E > 1) bootstraps from the
    coordinator's init state (plain meta/ckpt)."""
    store = TableStore(root)
    init_meta = store.read_meta()
    assert init_meta is not None, "no meta.json — nothing to resume"
    # partitioning is part of the durable layout: resuming with a different
    # partition count would silently skip partitions / mis-route links
    init_parts = init_meta.get("num_partitions")
    assert init_parts is None or init_parts == cfg.num_partitions, (
        f"resume with num_partitions={cfg.num_partitions} but the run was "
        f"initialized with {init_parts}")
    meta = store.read_meta(_etag(cfg, "meta") + ".json")
    bootstrap = meta is None
    if bootstrap:
        meta = init_meta  # engine's first start: coordinator state at pass 0
    p = meta["pass_id"]
    ck = store.read_fragment("checkpoints",
                             "ckpt" if bootstrap else _etag(cfg, "ckpt"), p)
    # single-engine pass commits overwrite meta.json, dropping
    # seen_run_id — resume then mints FRESH shard names on purpose:
    # reusing the old names would race a just-torn-down actor set
    # (kill + get_if_exists on the same name). The sidecar below tracks
    # whichever name set is CURRENT so destroy_run_actors can reclaim it.
    seen_run = init_meta.get("seen_run_id", uuid.uuid4().hex[:12])
    rb_tbl = store.read_current("robots")
    robots = (
        {r["host"]: {"crawl_delay_ms": r["crawl_delay_ms"],
                     "rules": r["rules"]}
         for r in rb_tbl.to_pylist()}
        if rb_tbl is not None else synth.robots_lookup(cfg.n_hosts)
    )
    state = CrawlState(
        run_id=uuid.uuid4().hex[:12],
        pass_id=p if not bootstrap else 0,
        watermarks={}, next_rowid={}, buckets={},
        robots=robots,
        seen=SeenSet(seen_run, cfg.seen_shards,
                     cfg.cuckoo_capacity, cfg.bloom_bits),
        # salting is part of the durable partition layout — the committed
        # meta (init-time config plus any auto-salted hosts detected
        # mid-crawl) wins over whatever the resume-time cfg happens to say
        salted_hosts=tuple(meta.get(
            "salted_hosts",
            init_meta.get("salted_hosts", cfg.salted_hosts))),
        drained=dict((int(k), v) for k, v in
                     (meta.get("drained") or {}).items()),
    )
    for row in ck.to_pylist():
        if row["partition_id"] % cfg.num_engines != cfg.engine_index:
            continue
        state.watermarks[row["partition_id"]] = row["last_row"]
        state.next_rowid[row["partition_id"]] = row["next_rowid"]
    bk = store.read_fragment("buckets",
                             "buckets" if bootstrap else _etag(cfg, "buckets"), p)
    if bk is not None:
        state.buckets = dict(zip(bk.column("host").to_pylist(),
                                 bk.column("tokens").to_pylist()))
    # seen restore — one engine and many differ here, in semantics, not
    # in layout. A single engine owns every shard exclusively, so it
    # restores its snapshot unconditionally (its torn-pass marks must roll
    # back to the commit point, and no other engine's marks can be
    # erased). Multi-engine shards are SHARED mutable state: restoring any
    # LIVE shard from a snapshot would erase marks other engines added
    # after it was taken (their committed docs would then re-fetch as
    # duplicates). So snapshots only ever hydrate FRESH shard actors
    # (num_items == 0 — node loss / first start), each from its owner
    # engine's last committed fragment; a resuming engine's own
    # uncommitted marks are instead rolled back SURGICALLY from its
    # mark-WAL (below).
    if cfg.num_engines == 1:
        sn = store.read_fragment("seen_shards", "seen", p)
        if sn is not None and len(sn):
            state.seen.restore_from_table(sn)
    else:
        if "seen_run_id" not in init_meta:
            raise ValueError(
                "meta.json has no seen_run_id: a single-engine pass has "
                "committed, so the engines cannot share one seen set; "
                "initialize a multi-engine run with zero passes")
        peers = _peer_commits(store, cfg)
        items = state.seen.items_per_shard()
        for e, q in {**peers, cfg.engine_index: -1 if bootstrap else p}.items():
            if q < 0:
                continue
            sn = store.read_fragment("seen_shards", _etag(cfg, "seen", e), q)
            if sn is not None and len(sn):
                ok = {s for s in range(cfg.seen_shards)
                      if s % cfg.num_engines == e and items[s] == 0}
                state.seen.restore_from_table(sn, only_shards=ok)
        # torn-pass mark rollback: if this engine crashed MID-PASS, the
        # marks it applied for the uncommitted pass were write-ahead-
        # logged (run_pass writes the "marks" WAL before any
        # contains_add). Delete them from ALL shards — live ones hold
        # the torn marks directly; freshly-restored foreign snapshots
        # may also contain them (a foreign commit can postdate the torn
        # marks).
        #
        # AUTO-SALT INTERACTION: partition ownership *almost* guarantees
        # no other engine marks these URLs — the exception is a host
        # whose salted status the engines transiently disagree on (see
        # the auto-salt comment at the frontier-append site): the same
        # discovered URL can then land in two partitions owned by two
        # engines, both of which schedule+mark it. An unconditional
        # rollback would erase the survivor's legitimate mark (possibly
        # backing a committed document) and re-permit a duplicate
        # fetch. Guard: intersect the torn WAL against every OTHER
        # engine's retained mark-WAL fragments (their last
        # ``_MARK_WAL_KEEP`` committed passes plus any in-flight pass) —
        # a hash another engine has write-ahead-logged is one it marked
        # (or is about to mark and will either commit or roll back
        # itself), so we leave it in place. Residual hazards, accepted
        # and logged: (1) a hash that overflowed into a shard's bloom
        # spill tier during the torn window cannot be deleted
        # (``residual`` count); (2) a cuckoo fingerprint collision can
        # delete an unrelated key on a shard where the WAL hash is
        # absent (bounded by the per-shard FPR, and only on crash
        # paths); (3) a foreign dup-mark older than the WAL retention
        # window is not protected (the window covers every pass that
        # can temporally overlap the torn one).
        wal = store.read_fragment("marks", _etag(cfg, "marks"),
                                  state.pass_id + 1)
        if wal is not None and len(wal):
            torn = wal.column("url_hash").to_numpy().astype(np.uint64)
            foreign: list[np.ndarray] = []
            for e in peers:
                # scan EVERY retained fragment of this foreign engine,
                # not just its last _MARK_WAL_KEEP passes: GC retention
                # is pinned by the min commit frontier across engines
                # (see _write_state_fragments), so after a long stall the
                # protecting fragment can be far older than the foreign
                # engine's own recent window — and an in-flight pass WAL
                # (pass_id+1) is also in the listing.
                tag = _etag(cfg, "marks", e)
                for q in store.list_fragment_passes("marks", tag):
                    fw = store.read_fragment("marks", tag, q)
                    if fw is not None and len(fw):
                        foreign.append(
                            fw.column("url_hash").to_numpy()
                            .astype(np.uint64))
            if foreign:
                prot = np.isin(torn, np.concatenate(foreign))
                n_prot = int(prot.sum())
                torn = torn[~prot]
            else:
                n_prot = 0
            removed, residual = state.seen.remove(torn)
            _LOG.info(
                "torn-pass mark rollback (engine %d, pass %d): "
                "%d WAL hashes, %d removed, %d bloom-residual, "
                "%d protected by foreign mark-WALs",
                cfg.engine_index, state.pass_id + 1,
                len(torn) + n_prot, removed, residual, n_prot)
        # the WAL is consumed: remove it so a second crash during the
        # re-run of this pass cannot roll the same marks back twice
        # (the re-run rewrites its own fresh WAL before marking)
        store.remove_fragment("marks", _etag(cfg, "marks"),
                              state.pass_id + 1)
    # track the CURRENT shard-actor name set for crash cleanup
    store.write_meta({"seen_run_id": state.seen.run_id},
                     name="seen_run.json")
    return store, state


def _frontier_meta(t: pa.Table) -> dict:
    """Sidecar manifest for scan pruning: global + per-partition max rowid."""
    if len(t) == 0:
        return {"max_rowid": -1, "per_partition_max": {}}
    pid = t.column("partition_id").to_numpy()
    rowid = t.column("rowid").to_numpy()
    per = {}
    for p in np.unique(pid):
        per[str(int(p))] = int(rowid[pid == p].max())
    return {"max_rowid": int(rowid.max()), "per_partition_max": per}


def _write_state_fragments(store: TableStore, cfg: CrawlConfig,
                           state: CrawlState,
                           retry_tbl: pa.Table | None = None) -> None:
    p = state.pass_id
    parts = sorted(state.watermarks)
    ck = pa.table(
        {
            "partition_id": pa.array(parts, type=pa.int32()),
            "db_id": [f"db-{q:04d}" for q in parts],
            "last_row": pa.array([state.watermarks[q] for q in parts],
                                 type=pa.int64()),
            "next_rowid": pa.array([state.next_rowid.get(q, 0) for q in parts],
                                   type=pa.int64()),
            "pass_id": pa.array([p] * len(parts), type=pa.int64()),
        },
        schema=CHECKPOINTS,
    )
    store.append_fragment("checkpoints", ck, p, tag=_etag(cfg, "ckpt"))
    hosts = sorted(state.buckets)
    bk = pa.table(
        {"host": hosts,
         "tokens": pa.array([state.buckets[h] for h in hosts], type=pa.float64())},
        schema=BUCKETS,
    )
    store.append_fragment("buckets", bk, p, tag=_etag(cfg, "buckets"))
    # each engine checkpoints the seen shards it owns (shard % E ==
    # engine; all of them for one engine), so no engine overwrites
    # another's marks
    shard_ids = [s for s in range(cfg.seen_shards)
                 if s % cfg.num_engines == cfg.engine_index]
    store.append_fragment("seen_shards", state.seen.snapshot_table(shard_ids),
                          p, tag=_etag(cfg, "seen"))
    if retry_tbl is not None:
        store.append_fragment("retry", retry_tbl, p, tag=_etag(cfg, "retry"))
    for name, tag in (("checkpoints", _etag(cfg, "ckpt")),
                      ("buckets", _etag(cfg, "buckets")),
                      ("seen_shards", _etag(cfg, "seen")),
                      ("retry", _etag(cfg, "retry"))):
        store.gc_state_fragments(name, tag, p - 1)
    # mark-WALs keep a _MARK_WAL_KEEP-pass window BEHIND THE MINIMUM
    # COMMIT FRONTIER ACROSS ALL ENGINES, not behind this engine's own
    # pass: a crashed engine resumes arbitrarily later, and its torn-pass
    # rollback must still find any foreign dup-mark WAL (auto-salt
    # disagreement) that overlapped its torn pass. GC'ing at our own
    # `p - KEEP` could erase that fragment once we outrun the crashed
    # engine by >KEEP passes, so a stalled engine pins retention until it
    # resumes. The 'temporal overlap' bound holds at ROLLBACK time only
    # when anchored to the slowest engine.
    frontier = p
    for e, e_pass in _peer_commits(store, cfg).items():
        if e_pass < p - _MARK_WAL_KEEP:
            # retention stays pinned (WAL fragments accumulate) until the
            # lagging engine commits again
            _LOG.warning(
                "mark-WAL retention pinned: engine %d committed pass %s, "
                "engine %d is at pass %d",
                e, e_pass if e_pass >= 0 else "none (no meta)",
                cfg.engine_index, p)
        frontier = min(frontier, e_pass)
    store.gc_state_fragments("marks", _etag(cfg, "marks"),
                             frontier - _MARK_WAL_KEEP)


def _purge_torn_pass(store: TableStore, cfg: CrawlConfig,
                     pass_id: int) -> None:
    """Remove orphan fragments a crashed attempt at THIS (uncommitted)
    pass may have left behind. Unconditional writes (checkpoints, buckets,
    seen snapshots, metrics) are overwritten by the re-run, but the
    CONDITIONAL ones — frontier append, retry, dead-letter, docs/lineage
    pass dirs, mailboxes — are only written when non-empty; if the re-run
    produces nothing for one of them, the torn fragment would survive and
    be read back as committed data once this pass's meta lands (e.g. a
    garbage ``append_0000NN.parquet`` crashes the NEXT pass's scan).
    Every name here is this engine's own (``_etag``), for one engine and
    many alike, so no other engine's fragment is touched."""
    append = _etag(cfg, "append")
    store.remove_fragment("frontier", append, pass_id)
    store.remove_fragment("frontier", append + "d", pass_id)
    store.remove_fragment("retry", _etag(cfg, "retry"), pass_id)
    store.remove_fragment("dead_letter", _etag(cfg, "dead"), pass_id)
    store.remove_fragment("metrics", _etag(cfg, "metrics"), pass_id)
    store.remove_pass_dir("documents", pass_id, tag=_etag(cfg, "pass"))
    store.remove_pass_dir("lineage", pass_id, tag=_etag(cfg, "pass"))
    for e in _peers(cfg):
        store.remove_fragment("mailbox", _inbox(cfg, e, cfg.engine_index),
                              pass_id)


# --------------------------------------------------------- engine exchange
def _committed_frontier_files(store: TableStore, cfg: CrawlConfig,
                              pass_id: int) -> list[str]:
    """Frontier visibility for pass *pass_id*: the coordinator's seed
    ``append`` and THIS engine's appends up to its last committed pass,
    and its drained mailbox fragments up to this pass's own drain (for
    one engine: every committed ``append`` fragment). Engines post
    foreign links to the owner's mailbox instead of appending them, so
    rowid sequences cannot collide."""
    append = _etag(cfg, "append")
    out = []
    for f in store.fragments("frontier"):
        frag = parse_fragment_name(os.path.basename(f))
        if frag is not None and (
                (frag.tag in ("append", append) and frag.hi < pass_id)
                or (frag.tag == append + "d" and frag.hi <= pass_id)):
            out.append(f)
    return out


def _drain_mailboxes(store: TableStore, cfg: CrawlConfig, state: CrawlState,
                     pass_id: int) -> None:
    """Pick up committed link intents addressed to this engine, assign
    rowids from this engine's per-partition counters (deterministic order:
    sender, sender-pass, then canonical_url, depth and raw url — a total
    order, so copies of a URL posted in any fetch-block order get the same
    rowids and the shallowest copy is scanned first) and append them to the
    frontier so this very pass can scan them. The mailbox high-water per
    sender is part of this engine's meta commit, so a killed pass re-drains
    identically.
    """
    rows: list[pa.Table] = []
    new_drained = dict(state.drained)
    for e, committed in _peer_commits(store, cfg).items():
        lo = new_drained.get(e, 0)
        for sp in range(lo + 1, committed + 1):
            t = store.read_fragment(
                "mailbox", _inbox(cfg, cfg.engine_index, e), sp)
            if t is not None and len(t):
                rows.append(t.sort_by([("canonical_url", "ascending"),
                                       ("depth", "ascending"),
                                       ("url", "ascending")]))
        if committed > lo:
            new_drained[e] = committed
    state.drained = new_drained
    if rows:
        tbl = _append_in_list_order(pa.concat_tables(rows), state.next_rowid,
                                    pass_id)
        store.append_fragment("frontier", tbl, pass_id,
                              tag=_etag(cfg, "append") + "d",
                              meta=_frontier_meta(tbl))


def _prune_consumed_fragments(store: TableStore, files: list[str],
                              watermarks: dict[int, int]) -> list[str]:
    """Manifest-level fragment pruning (S1 scale path, SURVEY.md §2.1):
    a fragment whose sidecar ``max_rowid`` is ≤ the minimum watermark over
    all partitions can contain no unscanned row — skip it before any I/O.
    Conservative: fragments without sidecars are kept. At 10^10-URL scale
    this is what keeps pass cost proportional to the frontier DELTA, not
    the frontier's lifetime size."""
    out = []
    for f in files:
        m = store.fragment_meta(f)
        if m is not None:
            per = m.get("per_partition_max")
            if per is not None:
                if all(int(mx) <= watermarks.get(int(p), -1)
                       for p, mx in per.items()):
                    continue
            elif (watermarks and m.get("max_rowid", 1 << 62)
                    <= min(watermarks.values())):
                continue
        out.append(f)
    return out


# --------------------------------------------------------------------- pass
def _add_cand_cols(t: pa.Table, src: str) -> pa.Table:
    n = len(t)
    if "attempts" not in t.column_names:
        t = t.append_column("attempts", pa.array(np.zeros(n, dtype=np.int32)))
        t = t.append_column("last_error", pa.array([""] * n, type=pa.string()))
    t = t.append_column("src", pa.array([src] * n, type=pa.string()))
    return t.select(CAND_SCHEMA.names).cast(CAND_SCHEMA)


def run_pass(store: TableStore, cfg: CrawlConfig, state: CrawlState,
             robots_ref=None, handler=None) -> dict:
    """Execute one crawl pass; returns pass stats. Mutates *state* and
    commits it durably (meta.json last). *robots_ref* is accepted for
    caller compatibility only: the schedule reads ``state.robots``."""
    t0 = time.monotonic()
    _tm: dict[str, float] = {}
    _last = [t0]

    def _mark(name: str) -> None:
        now = time.monotonic()
        _tm[name] = round(now - _last[0], 3)
        _last[0] = now

    pass_id = state.pass_id + 1
    _purge_torn_pass(store, cfg, pass_id)
    if handler is None:
        handler = SimulatedFetchHandler(cfg.n_hosts, cfg.n_paths, cfg.fail_mod,
                                        cfg.parse_cost_bytes)

    # ---- scan + retry → one bounded candidate table on the driver --------
    _drain_mailboxes(store, cfg, state, pass_id)
    frontier_files = _prune_consumed_fragments(
        store, _committed_frontier_files(store, cfg, pass_id),
        state.watermarks)
    pieces = []
    if frontier_files:
        # the window (wm, wm + items_chunk] of every owned partition,
        # pushed into a driver read (stages/scan.py)
        window = window_expr({
            p: state.watermarks[p] for p in range(cfg.num_partitions)
            if p % cfg.num_engines == cfg.engine_index
            and p not in cfg.skip_partitions}, cfg.items_chunk)
        pieces.append(_add_cand_cols(
            store.read_where(frontier_files, window), "scan"))
    retry_tbl = store.read_fragment("retry", _etag(cfg, "retry"),
                                    state.pass_id)
    n_dead = 0
    if retry_tbl is not None and len(retry_tbl):
        retry_live = retry_tbl.filter(
            pc.less(retry_tbl.column("attempts"), cfg.max_attempts))
        n_dead = len(retry_tbl) - len(retry_live)
        if n_dead:
            dead = retry_tbl.filter(
                pc.greater_equal(retry_tbl.column("attempts"), cfg.max_attempts))
            store.append_fragment("dead_letter", dead, pass_id,
                                  tag=_etag(cfg, "dead"))
        if len(retry_live):
            pieces.append(_add_cand_cols(retry_live, "retry"))
    n_cand = sum(len(t) for t in pieces)
    _mark("scan")
    if n_cand == 0:
        return _finalize_empty_pass(store, cfg, state, pass_id, t0, n_dead)

    # ---- tag → probe → politeness → mark-WAL → mark → fetch --------------
    # the candidate set is bounded (P×items_chunk+|retry|), so it is
    # tagged on the driver: mod-ownership, ONE seen probe (one RPC per
    # shard) and one vectorized schedule over the host-sorted table
    cand = pa.concat_tables(pieces)
    uh = cand.column("url_hash").to_numpy()
    cand = cand.append_column("owned", pa.array(
        cand.column("rowid").to_numpy() % cfg.num_nodes == cfg.node_id))
    cand = cand.append_column("seen", pa.array(state.seen.contains(uh)))
    cand = schedule_table(cand, state.robots, state.buckets,
                          cfg.pass_time_ms, cfg.bucket_capacity_factor)
    sched_m = pc.equal(cand.column("sched"), "scheduled").to_numpy(
        zero_copy_only=False)
    scan_m = pc.equal(cand.column("src"), "scan").to_numpy(
        zero_copy_only=False)
    sched_hashes = uh[sched_m & scan_m]

    # Seen marks are WRITE-AHEAD-LOGGED then bulk-applied from the driver
    # — not a pipeline stage. A crash at ANY point after the first mark
    # leaves a durable record of exactly which hashes were (about to be)
    # marked, and the resume path deletes exactly them from the shared
    # shards, so a mid-pass engine crash cannot leave uncommitted marks
    # behind that would drop its replayed rows as "seen" (lost docs).
    # WAL-then-mark runs on a DRIVER THREAD overlapped with the fetch:
    # nothing in the fetch path reads the seen set, and the one consumer
    # that does (the driver's discovered-link probe) only runs after the
    # thread has been joined. The WAL write strictly precedes the first
    # contains_add inside the thread, preserving the crash invariant.
    def _wal_and_mark():
        store.append_fragment(
            "marks", pa.table({"url_hash": pa.array(sched_hashes)}),
            pass_id, tag=_etag(cfg, "marks"))
        state.seen.contains_add(sched_hashes)

    from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(max_workers=1)
    mark_fut = pool.submit(_wal_and_mark)
    # Only the scheduled rows are fetched, dispatched as uniform driver
    # slices: a hot host (Zipf head) spreads over many blocks instead of
    # riding into fetch as one straggler task (SURVEY.md §4.1). A block is
    # a task: ≥2 per worker balance the stage without paying Ray's
    # per-task cost on tiny slices. Each task also writes its documents
    # part and enriches its links (PassOutputs).
    docs_dir = store.pass_dir("documents", pass_id, tag=_etag(cfg, "pass"))
    todo = cand.filter(pa.array(sched_m))
    result = None
    if len(todo):
        n_blocks = min(len(todo), int(np.clip(len(todo) // 2000,
                                              cfg.workers * 2, 1024)))
        bounds = np.linspace(0, len(todo), n_blocks + 1).astype(np.int64)
        fetch_in = ray.data.from_arrow(
            [todo.slice(a, b - a) for a, b in zip(bounds[:-1], bounds[1:])])
        outputs = PassOutputs(store, docs_dir, pass_id, make_link_enrich(
            cfg.num_partitions, state.salted_hosts))
        result = fetch_in.map_batches(
            make_fetch_fn(ray.put(handler), cfg.bulk_process, outputs),
            batch_size=None,
            batch_format="pyarrow",
        ).materialize()
    # marks must be durable + applied before anything probes the seen
    # set (the link probe below); in practice the thread finished long
    # before the fetch did
    mark_fut.result()
    _mark("probe_sched_fetch")

    # ---- the fetched rows (bounded, like the candidates) come back
    # zero-copy without the document payload; their nested link rows
    # become one edge table
    blocks = [] if result is None else [
        t for t in ray.get(result.to_arrow_refs()) if len(t)]
    fetched = flat = None
    if blocks:
        fetched = pa.concat_tables(blocks)
        flat = unpack_link_rows(fetched)
        fetched = fetched.drop_columns(["link_rows"])
    # then every unscheduled row (never dispatched) as not fetched
    rest = cand.filter(pa.array(~sched_m))
    rest = (rest.append_column("ok", pa.array(np.zeros(len(rest), bool)))
            .append_column("error", pa.array([""] * len(rest), pa.string()))
            .append_column("doc_id", pa.array([""] * len(rest), pa.string())))
    slim = rest if fetched is None else pa.concat_tables([fetched, rest])
    _mark("slim_collect")
    is_scan = pc.equal(slim.column("src"), "scan").to_numpy(
        zero_copy_only=False)
    sched_a = slim.column("sched").to_numpy(zero_copy_only=False)
    ok_a = slim.column("ok").to_numpy(zero_copy_only=False)
    scheduled_m = sched_a == "scheduled"
    deferred_m = sched_a == "deferred"
    err_gate_m = (is_scan & scheduled_m & ~ok_a) | (sched_a == "verify_miss")
    # per-partition stats, in sorted partition order
    parts, pix = np.unique(slim.column("partition_id").to_numpy(),
                           return_inverse=True)
    p_scanned, p_err, p_sched, p_fetched = (
        np.bincount(pix[m], minlength=len(parts))
        for m in (is_scan, err_gate_m, scheduled_m, ok_a))
    p_max = np.full(len(parts), -1, dtype=np.int64)
    rowid_a = slim.column("rowid").to_numpy()
    np.maximum.at(p_max, pix[is_scan], rowid_a[is_scan])

    # ---- watermark gating (all-or-nothing per chunk) ---------------------
    adv = (p_scanned > 0) & (p_err == 0)
    advanced = parts[adv].tolist()
    state.watermarks.update(zip(advanced, p_max[adv].tolist()))

    # ---- host bucket updates --------------------------------------------
    update_buckets(cand, state.robots, state.buckets, cfg.pass_time_ms,
                   cfg.bucket_capacity_factor)

    # ---- links: lineage + ONE seen probe + exact dedup ------------------
    n_fetched = int(ok_a.sum())
    n_links = 0 if flat is None else len(flat)
    novel = lineage_fut = None
    if n_links:
        # one file per pass, written on the driver thread concurrently
        # with the frontier-append assembly over the same table
        lineage_fut = pool.submit(_write_lineage, store, cfg, pass_id, flat)
        # ONE seen probe for the whole pass — one RPC per shard (the
        # mark thread was joined above, so this pass's marks are in)
        novel = flat.drop_columns(["parent_url", "parent_doc_id"])
        novel = novel.filter(pa.array(~state.seen.contains(
            novel.column("url_hash").to_numpy())))
    _mark("links")
    n_novel = 0 if novel is None else len(novel)

    # ---- frontier append: deferred re-queue (advanced partitions only)
    # + novel links, rowids assigned on the driver ----------------------
    requeue_m = deferred_m & is_scan & adv[pix]
    append_pieces = []
    if requeue_m.any():
        append_pieces.append(
            to_append_shape(slim.filter(pa.array(requeue_m)), 0))
    if novel is not None:
        # one row per canonical URL, then foreign-partition links are
        # POSTED, not appended: only the owning engine may assign rowids
        # in its partitions
        novel = dedup_links(novel)
        owner = novel.column("partition_id").to_numpy() % cfg.num_engines
        for e in np.unique(owner[owner != cfg.engine_index]).tolist():
            store.append_fragment("mailbox", novel.filter(pa.array(
                owner == e)), pass_id, tag=_inbox(cfg, e, cfg.engine_index))
        append_pieces.append(to_append_shape(
            novel.filter(pa.array(owner == cfg.engine_index)), 1))
    n_new_links = 0
    n_append_in = sum(len(x) for x in append_pieces)
    if append_pieces:
        frag = assign_rowids(pa.concat_tables(append_pieces),
                             state.next_rowid, pass_id)
        if len(frag):
            n_new_links = len(frag)
            store.append_fragment("frontier", frag, pass_id,
                                  tag=_etag(cfg, "append"),
                                  meta=_frontier_meta(frag))
            # ---- auto-salt detection (SURVEY.md §4.1): a Zipf head
            # that EMERGES mid-crawl is spotted from this pass's
            # appended rows (the A1 per-host rollup, already on the
            # driver) and salted for every LATER pass — its future rows
            # spread across partitions by url_hash instead of pinning
            # one partition. Deterministic (pure function of the
            # committed frontier), so a replayed pass re-derives the
            # identical set; persisted in meta below for resume.
            # Multi-engine note: each engine detects from its OWN
            # appends, so engines can transiently disagree on a host's
            # salted status and the same discovered URL may land in
            # two partitions (owned by different engines). That breaks
            # only the co-location assumption of the frontier-append
            # EXACT dedup — the seen set still dedups at schedule
            # time, so delivery stays effectively-once (tested by
            # test_multi_engine_auto_salt_union); the cost is a few
            # duplicate frontier rows, not duplicate documents.
            if cfg.auto_salt_share_milli > 0:
                hosts_a, counts_a = np.unique(
                    frag.column("host").to_numpy(zero_copy_only=False),
                    return_counts=True)
                hot = ((counts_a * 1000
                        > cfg.auto_salt_share_milli * len(frag))
                       & (counts_a >= cfg.auto_salt_min_rows))
                new_hot = [h for h in hosts_a[hot]
                           if h not in state.salted_hosts]
                if new_hot:
                    state.salted_hosts = tuple(sorted(
                        set(state.salted_hosts) | set(new_hot)))
    _mark("frontier_append")

    # ---- next retry table (from the slim collection) ---------------------
    failed_m = scheduled_m & ~ok_a
    keep_m = failed_m | (deferred_m & ~is_scan)
    kept = slim.filter(pa.array(keep_m))
    failed_k = pa.array(failed_m[keep_m])
    retry_next = pa.table({
        **{c: kept.column(c) for c in RETRY.names},
        "attempts": pc.add(kept.column("attempts"),
                           pc.cast(failed_k, pa.int32())),
        "last_error": pc.if_else(failed_k, kept.column("error"),
                                 kept.column("last_error")),
    }, schema=RETRY)
    _mark("retry")

    # ---- commit (the lineage sink must be durable BEFORE meta commits;
    # the fetch tasks wrote the documents) ---------------------------------
    if lineage_fut is not None:
        lineage_fut.result()
    pool.shutdown()
    _mark("docs_write_join")

    # ---- metrics: per-partition scan/fetch rows plus one row per stage
    # (partition_id -1), each with its own wall; written before the state
    # fragments, so a torn pass purges it ---------------------------------
    wall_ms = int((time.monotonic() - t0) * 1000)
    n_sched = int(scheduled_m.sum())
    mrows = []
    for p, sc, er, sd, ft in zip(parts.tolist(), p_scanned.tolist(),
                                 p_err.tolist(), p_sched.tolist(),
                                 p_fetched.tolist()):
        mrows.append({"pass_id": pass_id, "partition_id": p,
                      "stage": "scan", "rows_in": sc, "rows_out": sd,
                      "errors": er, "wall_ms": int(_tm["scan"] * 1000)})
        mrows.append({"pass_id": pass_id, "partition_id": p,
                      "stage": "fetch", "rows_in": sd, "rows_out": ft,
                      "errors": sd - ft,
                      "wall_ms": int(_tm["probe_sched_fetch"] * 1000)})
    counts = {"scan": (0, n_cand, 0),
              "probe_sched_fetch": (n_cand, n_fetched, n_sched - n_fetched),
              "slim_collect": (n_cand, len(slim), 0),
              "links": (n_links, n_novel, 0),
              "frontier_append": (n_append_in, n_new_links, 0),
              "retry": (n_cand, len(retry_next), 0)}
    for stage, sec in _tm.items():
        r_in, r_out, err = counts.get(stage, (0, 0, 0))
        mrows.append({"pass_id": pass_id, "partition_id": -1,
                      "stage": stage, "rows_in": r_in, "rows_out": r_out,
                      "errors": err, "wall_ms": int(sec * 1000)})
    store.append_fragment("metrics", pa.Table.from_pylist(mrows, schema=METRICS),
                          pass_id, tag=_etag(cfg, "metrics"))
    _commit(store, cfg, state, pass_id, retry_next)
    _mark("checkpoint")
    return {
        "pass_id": pass_id,
        "candidates": n_cand,
        "scanned": int(is_scan.sum()),
        "scheduled": n_sched,
        "fetched": n_fetched,
        "errors": int(err_gate_m.sum()),
        "deferred": int(deferred_m.sum()),
        "new_frontier_rows": n_new_links,
        "retry_size": len(retry_next),
        "dead": n_dead,
        "advanced_partitions": advanced,
        "wall_ms": wall_ms,
        "timings": _tm,
        "done": False,
    }


def _write_lineage(store: TableStore, cfg: CrawlConfig, pass_id: int,
                   flat: pa.Table) -> None:
    """Every extracted edge of the pass, one file per pass."""
    store.write_part(pa.table(
        {
            "doc_id": flat.column("parent_doc_id"),
            "parent_url": flat.column("parent_url"),
            "url": flat.column("url"),
            "pass_id": pa.array(np.full(len(flat), pass_id, dtype=np.int64)),
        },
        schema=LINEAGE,
    ), store.pass_dir("lineage", pass_id, tag=_etag(cfg, "pass")),
        "part-000000")


def _commit(store: TableStore, cfg: CrawlConfig, state: CrawlState,
            pass_id: int, retry_tbl: pa.Table) -> None:
    """Make pass *pass_id* durable: the state fragments, then this
    engine's meta — the commit point."""
    state.pass_id = pass_id
    _write_state_fragments(store, cfg, state, retry_tbl=retry_tbl)
    store.write_meta({"pass_id": pass_id,
                      "num_partitions": cfg.num_partitions,
                      "drained": state.drained,
                      "salted_hosts": sorted(state.salted_hosts)},
                     name=_etag(cfg, "meta") + ".json")


def _finalize_empty_pass(store, cfg, state, pass_id, t0, n_dead=0) -> dict:
    _commit(store, cfg, state, pass_id, RETRY.empty_table())
    return {"pass_id": pass_id, "candidates": 0, "scanned": 0, "scheduled": 0,
            "fetched": 0, "errors": 0, "deferred": 0, "new_frontier_rows": 0,
            "retry_size": 0, "dead": n_dead, "advanced_partitions": [],
            "wall_ms": int((time.monotonic() - t0) * 1000), "done": True}


def enumerate_partitions(store: TableStore,
                         committed_passes: int | None = None) -> list[int]:
    """S3 analog (the account-wildcard enumerator [recon:
    ``container_crawler/__init__.py:≈120–150``]): list the partition ids
    present in the frontier, from fragment metadata/files — the driver-side
    fan-out source when partitions are not known a priori."""
    t = store.read_all("frontier", committed_passes)
    if t is None:
        return []
    return np.unique(t.column("partition_id").to_numpy()).tolist()


# --------------------------------------------------------------------- loop
def run_crawl(root: str, cfg: CrawlConfig, seed_urls: list[str] | None = None,
              max_passes: int | None = None, resume: bool = False,
              handler=None, teardown: bool = True) -> dict:
    """The run_always analog: pass loop until frontier exhaustion or the
    pass budget. Kill-safe at any point; re-run with resume=True."""
    if resume:
        store, state = resume_run(root, cfg)
    else:
        assert seed_urls is not None, "fresh run needs seed_urls"
        store, state = init_run(root, cfg, seed_urls)
    passes = []
    budget = max_passes if max_passes is not None else cfg.max_passes
    try:
        while state.pass_id < budget:
            stats = run_pass(store, cfg, state, handler=handler)
            passes.append(stats)
            if stats["done"] and stats["retry_size"] == 0:
                break
    finally:
        if teardown:
            state.seen.teardown()
    return {
        "passes": passes,
        "total_fetched": sum(p["fetched"] for p in passes),
        "total_scheduled": sum(p["scheduled"] for p in passes),
        "final_pass": state.pass_id,
    }


def run_always(root: str, cfg: CrawlConfig,
               seed_urls: list[str] | None = None,
               poll_interval: float = 5.0, max_polls: int = 3,
               handler=None) -> list[dict]:
    """Reference entry point 1 [recon: ``container_crawler/__init__.py:
    ≈100–115``]: run_once + sleep(poll_interval), forever. Here the loop is
    bounded by *max_polls* (a daemon wrapper would pass a large value);
    each poll is one pass over every owned partition, so new frontier
    appends made between polls are picked up incrementally via the
    watermarks — the change-data-capture shape of the reference."""
    if seed_urls is not None:
        store, state = init_run(root, cfg, seed_urls)
    else:
        store, state = resume_run(root, cfg)
    polls = []
    try:
        for _ in range(max_polls):
            stats = run_pass(store, cfg, state, handler=handler)
            polls.append(stats)
            if not (stats["done"] and stats["retry_size"] == 0):
                time.sleep(poll_interval)
    finally:
        state.seen.teardown()
    return polls


def destroy_run_actors(root: str, cfg: CrawlConfig) -> int:
    """Reclaim a run's detached seen-shard actors without resuming it —
    the cleanup path for a run that crashed before ``teardown()`` (a
    detached actor outlives its creator by design, so an abandoned run
    would otherwise hold its shard memory until the cluster restarts).
    Reads the run's ``seen_run_id`` from the committed meta and kills
    every shard actor that still exists. Returns the kill count."""
    from ..state.seen import NAMESPACE

    store = TableStore(root)
    meta = store.read_meta("seen_run.json") or store.read_meta() or {}
    if "seen_run_id" not in meta:
        return 0
    seen = SeenSet(meta["seen_run_id"], cfg.seen_shards)
    killed = 0
    for i in range(cfg.seen_shards):
        try:
            a = ray.get_actor(seen.shard_name(i), namespace=NAMESPACE)
        except ValueError:
            continue
        ray.kill(a)
        killed += 1
    return killed
