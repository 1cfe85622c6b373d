"""Link expansion + frontier append assembly (graft M-additions, §2.2).

Link extraction is flat_map-shaped: one fetched doc → K candidate URLs.
In each fetch task ``pack_link_rows`` explodes the task's links
(``list_flatten``, zero Python), canonicalizes, hashes and routes them and
nests them under their parent rows as one ``link_rows`` list<struct>
column. On the driver (``run_pass``) ``unpack_link_rows`` flattens it into
one row per edge (``list_parent_indices`` gives the parent's depth, URL
and doc id), one seen-set probe per pass drops known URLs, ``dedup_links``
keeps one row per canonical URL (a sort — no shuffle) and
``assign_rowids`` does the deterministic per-partition rowid assignment
(one independent rowid sequence per partition, exactly like the
reference's per-container SQLite DBs).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.canonicalize import host_of
from ..functions.hashing import hash64_many
from ..schemas import FRONTIER


def explode_links(t: pa.Table) -> pa.Table:
    """Fetch output → one row per (parent, link) edge."""
    links = t.column("links")
    flat = pc.list_flatten(links)
    parent_idx = pc.list_parent_indices(links)
    return pa.table(
        {
            "url": flat,
            "parent_url": pc.take(t.column("canonical_url"), parent_idx),
            "parent_doc_id": pc.take(t.column("doc_id"), parent_idx),
            "depth": pc.add(pc.take(t.column("depth"), parent_idx), 1),
        }
    )


def make_link_enrich(num_partitions: int, salted_hosts: tuple[str, ...]):
    """Canonicalize (links may come from the wild), hash, route to
    partitions. Hot-host salting (SURVEY.md §4.1): rows of a salted host
    are spread by url_hash instead of host_hash so one hot host doesn't
    pin a whole partition; politeness stays global per host because the
    scheduler groups by host, not partition."""
    from ..functions.canonicalize import canonicalize_many

    salted = set(salted_hosts)

    def enrich(t: pa.Table) -> pa.Table:
        urls = t.column("url").to_pylist()
        canon = canonicalize_many(urls)
        hosts = [host_of(c) for c in canon]
        uh = hash64_many(canon)
        hh = hash64_many(hosts)
        P = np.uint64(num_partitions)
        pid = (hh % P).astype(np.int32)
        if salted:
            salt_mask = np.array([h in salted for h in hosts])
            if salt_mask.any():
                pid[salt_mask] = (uh[salt_mask] % P).astype(np.int32)
        prio = ((uh % np.uint64(1000)).astype(np.float32) / 1000.0)
        cols = {
            "url": pa.array(urls, type=pa.string()),
            "canonical_url": pa.array(canon, type=pa.string()),
            "host": pa.array(hosts, type=pa.string()),
            "url_hash": pa.array(uh, type=pa.uint64()),
            "host_hash": pa.array(hh, type=pa.uint64()),
            "partition_id": pa.array(pid, type=pa.int32()),
            "priority": pa.array(prio, type=pa.float32()),
            "depth": t.column("depth").cast(pa.int32()),
        }
        return pa.table(cols)

    return enrich


def pack_link_rows(t: pa.Table, enrich) -> pa.ListArray:
    """Fetch output → its links enriched and nested per parent row: one
    ``list<struct>`` entry per row of *t* (empty for rows that were not
    fetched), each struct an enriched link without ``depth``, which
    ``unpack_link_rows`` derives from the parent."""
    flat = enrich(explode_links(t)).drop_columns(["depth"])
    n = pc.fill_null(pc.list_value_length(t.column("links")), 0).to_numpy()
    offsets = np.zeros(len(t) + 1, dtype=np.int32)
    np.cumsum(n, out=offsets[1:])
    return pa.ListArray.from_arrays(pa.array(offsets), pa.StructArray.from_arrays(
        [c.combine_chunks() for c in flat.columns], names=flat.column_names))


def unpack_link_rows(t: pa.Table) -> pa.Table:
    """Fetched rows with a ``link_rows`` column → one row per (parent,
    link) edge: the enriched link columns, ``depth`` (the parent's + 1)
    and the lineage columns ``parent_url`` and ``parent_doc_id``."""
    nested = t.column("link_rows")
    parent = pc.list_parent_indices(nested)
    flat = pa.table(pc.list_flatten(nested).flatten(),
                    names=[f.name for f in nested.type.value_type])
    depth = pc.add(pc.take(t.column("depth"), parent), 1).cast(pa.int32())
    return (flat.append_column("depth", depth)
            .append_column("parent_url", pc.take(t.column("canonical_url"), parent))
            .append_column("parent_doc_id", pc.take(t.column("doc_id"), parent)))


def dedup_links(t: pa.Table) -> pa.Table:
    """Exact per-pass link dedup, kept rows in input order: one row per
    ``canonical_url``, min ``depth``, ties to the smallest raw ``url``,
    so the kept row does not depend on fetch-block order."""
    o = pc.sort_indices(t, sort_keys=[("canonical_url", "ascending"),
                                      ("depth", "ascending"),
                                      ("url", "ascending")]).to_numpy()
    cs = t.column("canonical_url").take(o)
    first = np.ones(len(o), dtype=bool)
    first[1:] = pc.not_equal(cs[1:], cs[:-1]).to_numpy(zero_copy_only=False)
    return t.take(np.sort(o[first]))


def to_append_shape(t: pa.Table, order_kind: int) -> pa.Table:
    """Normalize deferred rows (``order_kind`` 0, ordered by their old
    ``rowid``) or novel links (1, ordered by URL) to the pre-rowid append
    shape that ``assign_rowids`` consumes."""
    n = len(t)
    return pa.table({
        "partition_id": t.column("partition_id").cast(pa.int32()),
        "url": t.column("url"),
        "canonical_url": t.column("canonical_url"),
        "host": t.column("host"),
        "url_hash": t.column("url_hash").cast(pa.uint64()),
        "host_hash": t.column("host_hash").cast(pa.uint64()),
        "priority": t.column("priority").cast(pa.float32()),
        "depth": t.column("depth").cast(pa.int32()),
        "order_kind": pa.array(np.full(n, order_kind, dtype=np.int8)),
        "order_a": (t.column("rowid").cast(pa.int64())
                    if "rowid" in t.column_names
                    else pa.array(np.zeros(n, dtype=np.int64))),
    })


def assign_rowids(t: pa.Table, next_rowid: dict[int, int],
                  pass_id: int) -> pa.Table:
    """Driver-side frontier append assembly over the whole pass (deferred
    rows + links already deduplicated by ``dedup_links``, in the append
    shape of ``to_append_shape``):

    1. deterministic append order per partition: deferred rows by old
       rowid first, then links by ``canonical_url``;
    2. dense rowids from each partition's ``next_rowid`` counter, which is
       advanced in place.

    Returns FRONTIER rows sorted by (partition_id, rowid)."""
    t = t.take(pc.sort_indices(
        t, sort_keys=[("partition_id", "ascending"),
                      ("order_kind", "ascending"),
                      ("order_a", "ascending"),
                      ("canonical_url", "ascending")]))
    pid = t.column("partition_id").to_numpy()
    parts, start, count = np.unique(pid, return_index=True,
                                    return_counts=True)
    base = np.array([next_rowid.get(int(p), 0) for p in parts],
                    dtype=np.int64)
    rowid = (np.arange(len(t), dtype=np.int64)
             + np.repeat(base - start, count))
    for p, b, c in zip(parts, base, count):
        next_rowid[int(p)] = int(b + c)
    n = len(t)
    return (t.drop_columns(["order_kind", "order_a"])
            .append_column("pass_added",
                           pa.array(np.full(n, pass_id, dtype=np.int64)))
            .append_column("rowid", pa.array(rowid))
            .select(FRONTIER.names))
