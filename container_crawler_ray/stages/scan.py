"""Incremental watermark scan (operators S1/O3, SURVEY.md §2.1/§2.6).

Reference semantics [recon: ``container_crawler/__init__.py:≈230–245``]:
``broker.get_items_since(last_row, items_chunk)`` — rows with
``ROWID > watermark`` in ROWID order, at most ``items_chunk`` per partition
per pass. Here: one vectorized per-batch filter on the rowid window
``(watermark, watermark + items_chunk]`` (the per-partition watermark
vector is tiny and broadcast by closure capture) — no sort, no groupby,
because per-partition rowids are dense.

At 100 TB scale the filter is additionally pushed into the parquet read
(``read_parquet(filter=rowid > min(watermarks))`` prunes whole row groups;
fragment files are named per pass so fully-consumed fragments prune by
manifest before any I/O).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def make_watermark_filter(watermarks: dict[int, int], num_partitions: int,
                          items_chunk: int | None = None):
    """Vectorized scan filter. With *items_chunk*, also caps the window at
    ``watermark + items_chunk`` — equivalent to sort-by-rowid + head(chunk)
    because per-partition rowids are DENSE append sequences (0,1,2,…;
    rows are never deleted; the assigner allocates contiguously). This
    turns the chunk scan into a pure filter with NO sort/groupby shuffle.
    """
    wm = np.full(num_partitions, -1, dtype=np.int64)
    for p, w in watermarks.items():
        wm[p] = w
    hi = wm + items_chunk if items_chunk is not None else None

    def wm_filter(t: pa.Table) -> pa.Table:
        pid = t.column("partition_id").to_numpy()
        rowid = t.column("rowid").to_numpy()
        keep = rowid > wm[pid]
        if hi is not None:
            keep &= rowid <= hi[pid]
        return t.filter(pa.array(keep))

    return wm_filter

