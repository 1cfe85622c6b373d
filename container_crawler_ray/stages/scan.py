"""Incremental watermark scan (operators S1/O3, SURVEY.md §2.1/§2.6).

Reference semantics [recon: ``container_crawler/__init__.py:≈230–245``]:
``broker.get_items_since(last_row, items_chunk)`` — rows with
``ROWID > watermark`` in ROWID order, at most ``items_chunk`` per partition
per pass. Here: the rowid window ``(watermark, watermark + items_chunk]``
of every scanned partition — equivalent to sort-by-rowid + head(chunk),
with no sort and no groupby, because per-partition rowids are DENSE append
sequences (0,1,2,…; rows are never deleted; the assigner allocates
contiguously).

The driver reads it through the storage backend seam
(``TableStore.read_where``) with ``window_expr`` pushed into the read: row
groups that cannot match are skipped, and only the bounded
``P × items_chunk`` window is materialized, whatever the frontier's size.
``make_watermark_filter`` is the same window as an in-memory numpy filter.
"""

from __future__ import annotations

import functools
import operator

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def window_expr(watermarks: dict[int, int], items_chunk: int) -> pc.Expression:
    """The scan window of the partitions in *watermarks* as one predicate
    (``wm < rowid <= wm + items_chunk`` per partition); partitions absent
    from *watermarks* match nothing."""
    rowid, pid = pc.field("rowid"), pc.field("partition_id")
    return functools.reduce(operator.or_, (
        (pid == pa.scalar(p, pa.int32())) & (rowid > w)
        & (rowid <= w + items_chunk)
        for p, w in watermarks.items()), pc.scalar(False))


def make_watermark_filter(watermarks: dict[int, int], num_partitions: int,
                          items_chunk: int):
    """The scan window as a vectorized in-memory filter (partitions
    absent from *watermarks* read from rowid 0)."""
    wm = np.full(num_partitions, -1, dtype=np.int64)
    wm[list(watermarks)] = list(watermarks.values())

    def wm_filter(t: pa.Table) -> pa.Table:
        w = wm[t.column("partition_id").to_numpy()]
        rowid = t.column("rowid").to_numpy()
        return t.filter(pa.array((rowid > w) & (rowid <= w + items_chunk)))

    return wm_filter
