"""The operator catalog's one keyed exchange, and its parquet reader.

Every per-key operator in the catalog has the same Ray shape: tag each
row with ``key % n``, ``groupby("bucket")`` so a key's rows co-locate,
and run one vectorized pandas fold per bucket. ``bucket_map`` is that
shape, written once, so the bucket count, the shuffle and the result
format are chosen in this module only.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

BUCKETS = 64

Key = str | Callable[[pa.Table], np.ndarray]
Fold = Callable[[pd.DataFrame], pd.DataFrame | pa.Table]
Inputs = ray.data.Dataset | Sequence[ray.data.Dataset]


def read(sf_dir: str, table: str, columns=None,
         rows_per_block: int = 65536) -> ray.data.Dataset:
    """Size-aware read: block count scales with the table's row count
    (parquet metadata only), not with the CPU count. These queries are
    exchange-dominated (derive → groupby/sort), and Ray's sort shuffle
    pays per input block — letting a small table split into 64
    CPU-count-sized slivers made the shuffle dominate wall time. CPU-heavy
    per-row stages (regex/md5 over text) pass a SMALL ``rows_per_block``
    instead, because block count is also the map stage's parallelism."""
    path = f"{sf_dir}/{table}.parquet"
    n = pq.ParquetFile(path).metadata.num_rows
    nb = max(2, n // rows_per_block)
    return ray.data.read_parquet(path, columns=columns,
                                 override_num_blocks=nb)


def bucket_map(inputs: Inputs, key: Key, fold: Fold,
               n: int = BUCKETS) -> pd.DataFrame:
    """Run ``fold`` once per bucket of rows with equal ``key % n`` and
    return the concatenated fold outputs as one pandas frame.

    ``key`` names an integer column, or computes the key array from a
    batch (a key that is an expression of the columns, e.g.
    ``lambda t: t.column("k").to_numpy() // 32768``). ``inputs`` is one
    Dataset, or several with one schema: the tagged-union join shape,
    where a ``side`` column tells the fold which input a row came from.
    Every row of a key reaches the same fold call; one call sees the
    rows of about |keys| / n keys, plus an int32 ``bucket`` column.

    The tag is a plain task map, so Ray fuses it into the caller's last
    map and the plan gains no operator (over an already materialized
    input it is one extra map). Each input is tagged before the union,
    because a map after a union is not fused.

    The shuffle is Ray Data's sort shuffle: ``HASH_SHUFFLE`` did not
    finish a catalog query in 10 minutes on a 4-cpu host. Map-side
    combine: Ray's sort-based ``groupby().aggregate()`` already
    pre-aggregates within each block (its AggregateFn accumulate/merge
    protocol), so plain aggregations stay direct aggregates — a
    hand-rolled pandas partial-aggregate stage in front of one was
    measured 4-8× slower at sf0.1 (it multiplies block count and pays a
    second per-block aggregation in Python). ``bucket_map`` is for folds
    that need all of a key's rows at once."""
    return bucket_groups(inputs, key, fold, n).to_pandas()


def bucket_groups(inputs: Inputs, key: Key, fold: Fold,
                  n: int = BUCKETS) -> ray.data.Dataset:
    """``bucket_map`` left lazy, for the operators whose fold output
    feeds another Ray stage (a second exchange, an aggregate, a
    materialized input) in the same plan."""

    def bucket_tag(t: pa.Table) -> pa.Table:
        k = key(t) if callable(key) else t.column(key).to_numpy()
        return t.append_column("bucket", pa.array((k % n).astype(np.int32)))

    parts = [inputs] if isinstance(inputs, ray.data.Dataset) else inputs
    tagged = [ds.map_batches(bucket_tag, batch_format="pyarrow")
              for ds in parts]
    ds = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    return ds.groupby("bucket").map_groups(fold, batch_format="pandas")
