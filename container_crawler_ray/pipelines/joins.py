"""Fact-to-fact joins (SURVEY.md §2.4 extension beyond the broadcast
dimension join in analytics.region_revenue).

When BOTH sides are large, broadcasting is off the table; the Ray-Data
shape is a bucketed co-partition join: tag each side, bucket rows by
``hash(key) % B``, ``groupby(bucket)`` so matching keys co-locate, and
run one vectorized pandas merge per bucket. One all-to-all exchange
total (the groupby); B bounds per-task memory to ~|data|/B. At 100 TB
you pick B so a bucket pair fits a worker's heap, and skewed keys can be
salted on top (the politeness scheduler shows the same pattern on
host_hash).
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Sum

from .exchange import BUCKETS, bucket_groups, bucket_map, read
from .kernels import (
    day_bounds, dense_lookup, nation_flow_join, run_starts, tag_lineitem,
    tag_order_cust)


def order_priority_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H-Q12-ish: orders ⨝ lineitem on orderkey (both fact-sized),
    revenue cents + line count per order priority. Value-exact vs SQL:
    money quantized to integer cents with FLOOR on both sides."""
    orders = read(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])
    items = read(sf_dir, "lineitem",
                 columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def tag_orders(t: pa.Table) -> pa.Table:
        key = t.column("o_orderkey").to_numpy()
        return pa.table({
            "key": pa.array(key.astype(np.int64)),
            "o_orderpriority": t.column("o_orderpriority"),
            "disc_cents": pa.array(np.full(len(t), -1, dtype=np.int64)),
            "side": pa.array(np.zeros(len(t), dtype=np.int8)),
        })

    def tag_items(t: pa.Table) -> pa.Table:
        key = t.column("l_orderkey").to_numpy()
        price = t.column("l_extendedprice").to_numpy()
        disc = t.column("l_discount").to_numpy()
        cents = np.floor(price * (1 - disc) * 100).astype(np.int64)
        return pa.table({
            "key": pa.array(key.astype(np.int64)),
            "o_orderpriority": pa.array([""] * len(t), type=pa.string()),
            "disc_cents": pa.array(cents),
            "side": pa.array(np.ones(len(t), dtype=np.int8)),
        })

    def bucket_join(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == 0][["key", "o_orderpriority"]]
        right = g[g["side"] == 1][["key", "disc_cents"]]
        m = right.merge(left, on="key")
        # partial aggregate inside the bucket: the second (tiny) exchange
        # moves one row per (priority, bucket)
        out = m.groupby("o_orderpriority", as_index=False).agg(
            revenue_cents=("disc_cents", "sum"),
            n_lines=("disc_cents", "size"))
        return out

    out = bucket_map([orders.map_batches(tag_orders, batch_format="pyarrow"),
                      items.map_batches(tag_items, batch_format="pyarrow")],
                     "key", bucket_join)
    out = out.groupby("o_orderpriority", as_index=False).agg(
        revenue_cents=("revenue_cents", "sum"),
        n_lines=("n_lines", "sum"))
    return out.astype({"revenue_cents": "int64", "n_lines": "int64"})


def purchase_click_asof(sf_dir: str) -> pd.DataFrame:
    """As-of join (attribution): for each ``purchase`` event, the same
    user's most recent ``click`` at-or-before the purchase timestamp.

    Ray shape: one exchange — tag both event streams, bucket by
    ``user_id % B``, ``groupby(bucket)``, then one vectorized
    ``pd.merge_asof(by=user_id)`` per bucket (C sort-merge under the
    hood). Per-bucket memory is |events|/B; skewed users can be salted
    the same way the politeness scheduler salts hot hosts. Ties (equal
    user_id+ts clicks) are pre-collapsed to the max event_id so the
    match is deterministic on both the Ray and SQL sides. Purchases with
    no prior click are dropped (inner as-of)."""
    ev = read(sf_dir, "events",
              columns=["event_id", "ts", "user_id", "event_type"])

    def tag(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t.column("event_type"),
                        value_set=pa.array(["click", "purchase"]))
        t = t.filter(keep)
        side = (np.asarray(t.column("event_type")) == "purchase").astype(
            np.int8)
        return pa.table({
            "event_id": t.column("event_id"),
            "ts_us": t.column("ts").cast(pa.int64()),
            "user_id": t.column("user_id"),
            "side": pa.array(side),
        })

    def bucket_asof(g: pd.DataFrame) -> pd.DataFrame:
        clicks = (g[g["side"] == 0]
                  .sort_values(["ts_us", "event_id"], kind="mergesort")
                  .drop_duplicates(["user_id", "ts_us"], keep="last")
                  .rename(columns={"event_id": "click_id",
                                   "ts_us": "click_ts_us"}))
        purch = (g[g["side"] == 1]
                 .rename(columns={"event_id": "purchase_id",
                                  "ts_us": "purchase_ts_us"})
                 .sort_values("purchase_ts_us", kind="mergesort"))
        if clicks.empty or purch.empty:
            return pd.DataFrame({
                "purchase_id": pd.Series([], dtype="int64"),
                "user_id": pd.Series([], dtype="int64"),
                "purchase_ts_us": pd.Series([], dtype="int64"),
                "click_id": pd.Series([], dtype="int64"),
                "click_ts_us": pd.Series([], dtype="int64"),
                "gap_us": pd.Series([], dtype="int64")})
        m = pd.merge_asof(
            purch[["purchase_id", "user_id", "purchase_ts_us"]],
            clicks[["click_id", "user_id", "click_ts_us"]],
            left_on="purchase_ts_us", right_on="click_ts_us",
            by="user_id", direction="backward")
        m = m[m["click_id"].notna()].copy()
        m["click_id"] = m["click_id"].astype("int64")
        m["click_ts_us"] = m["click_ts_us"].astype("int64")
        m["gap_us"] = m["purchase_ts_us"] - m["click_ts_us"]
        return m[["purchase_id", "user_id", "purchase_ts_us",
                  "click_id", "click_ts_us", "gap_us"]]

    return bucket_map(ev.map_batches(tag, batch_format="pyarrow"),
                      "user_id", bucket_asof)


def q3_shipping(sf_dir: str, segment: str = "BUILDING",
                cutoff: str = "1998-01-01", topn: int = 10) -> pd.DataFrame:
    """TPC-H-Q3-ish shipping priority: revenue of the top orders for one
    market segment before a date cutoff.

    Join plan for scale: the CUSTOMER side shrinks to a key set after the
    segment filter → broadcast it once (``ray.put``) and semi-join orders
    in-map; orders ⨝ lineitem is fact×fact → bucketed co-partition join
    (same one-exchange pattern as ``order_priority_revenue``) with the
    (orderkey, date) partial aggregate inside each bucket, so the final
    exchange moves one row per order, not per lineitem."""
    cutoff_us = int(pd.Timestamp(cutoff).value // 1000)
    cust = read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])

    def seg_keys(t: pa.Table) -> pa.Table:
        m = pc.equal(t.column("c_mktsegment"), segment)
        return t.filter(m).select(["c_custkey"])

    keys = np.sort(cust.map_batches(seg_keys, batch_format="pyarrow")
                   .to_pandas()["c_custkey"].to_numpy().astype(np.int64))
    keys_ref = ray.put(keys)

    orders = read(sf_dir, "orders",
                  columns=["o_orderkey", "o_custkey", "o_orderdate"])
    items = read(sf_dir, "lineitem",
                 columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def tag_orders(t: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref)
        ck = t.column("o_custkey").to_numpy().astype(np.int64)
        dt = t.column("o_orderdate").cast(pa.int64()).to_numpy()
        keep = (dt < cutoff_us) & np.isin(ck, ks, assume_unique=False)
        key = t.column("o_orderkey").to_numpy().astype(np.int64)[keep]
        return pa.table({
            "key": pa.array(key),
            "date_us": pa.array(dt[keep]),
            "cents": pa.array(np.full(keep.sum(), -1, dtype=np.int64)),
            "side": pa.array(np.zeros(int(keep.sum()), dtype=np.int8)),
        })

    def tag_items(t: pa.Table) -> pa.Table:
        key = t.column("l_orderkey").to_numpy().astype(np.int64)
        price = t.column("l_extendedprice").to_numpy()
        disc = t.column("l_discount").to_numpy()
        cents = np.floor(price * (1 - disc) * 100).astype(np.int64)
        return pa.table({
            "key": pa.array(key),
            "date_us": pa.array(np.full(len(t), -1, dtype=np.int64)),
            "cents": pa.array(cents),
            "side": pa.array(np.ones(len(t), dtype=np.int8)),
        })

    def bucket_join(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == 0][["key", "date_us"]]
        right = g[g["side"] == 1][["key", "cents"]]
        m = right.merge(left, on="key")
        out = m.groupby(["key", "date_us"], as_index=False).agg(
            revenue_cents=("cents", "sum"))
        return out

    out = bucket_map([orders.map_batches(tag_orders, batch_format="pyarrow"),
                      items.map_batches(tag_items, batch_format="pyarrow")],
                     "key", bucket_join)
    # buckets partition by orderkey, so (key, date) rows are already
    # unique across buckets — only the global top-N remains
    out = out.sort_values(["revenue_cents", "key"],
                          ascending=[False, True]).head(topn)
    out = out.rename(columns={"key": "l_orderkey",
                              "date_us": "o_orderdate_us"})
    return (out[["l_orderkey", "o_orderdate_us", "revenue_cents"]]
            .reset_index(drop=True)
            .astype({"l_orderkey": "int64", "o_orderdate_us": "int64",
                     "revenue_cents": "int64"}))


def quiet_customers(sf_dir: str,
                    min_total: float = 300_000.0) -> pd.DataFrame:
    """Anti-join: customers with NO order above ``min_total``. Bucketed
    co-partition anti-join — both sides hash to ``key % B`` buckets, one
    exchange, then a vectorized ``np.isin`` complement per bucket. The
    probe side is pre-deduplicated per batch so the exchange moves at
    most one row per distinct custkey per block, not one per order."""
    cust = read(sf_dir, "customer",
                columns=["c_custkey", "c_name", "c_acctbal"])
    orders = read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def tag_cust(t: pa.Table) -> pa.Table:
        key = t.column("c_custkey").to_numpy().astype(np.int64)
        cents = np.floor(t.column("c_acctbal").to_numpy() * 100).astype(
            np.int64)
        return pa.table({
            "key": pa.array(key),
            "c_name": t.column("c_name"),
            "acctbal_cents": pa.array(cents),
            "side": pa.array(np.zeros(len(t), dtype=np.int8)),
        })

    def tag_orders(t: pa.Table) -> pa.Table:
        key = t.column("o_custkey").to_numpy().astype(np.int64)
        key = np.unique(key[t.column("o_totalprice").to_numpy() > min_total])
        return pa.table({
            "key": pa.array(key),
            "c_name": pa.array([""] * len(key), type=pa.string()),
            "acctbal_cents": pa.array(np.zeros(len(key), dtype=np.int64)),
            "side": pa.array(np.ones(len(key), dtype=np.int8)),
        })

    def bucket_anti(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == 0]
        hit = np.isin(left["key"].to_numpy(),
                      g.loc[g["side"] == 1, "key"].to_numpy())
        out = left.loc[~hit, ["key", "c_name", "acctbal_cents"]]
        return out.rename(columns={"key": "c_custkey"})

    return bucket_map(
        [cust.map_batches(tag_cust, batch_format="pyarrow"),
         orders.map_batches(tag_orders, batch_format="pyarrow")],
        "key", bucket_anti)


def part_supplier_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H-Q9-ish: revenue per (part brand, supplier nation) from
    lineitem ⨝ part ⨝ supplier ⨝ nation. All three non-fact sides are
    dimension-sized, so they collapse on the driver into dense
    key→index lookup arrays broadcast once (``ray.put``); the fact scan
    resolves both dims with two vectorized ``np.take`` per batch and
    pre-aggregates per block — no shuffle join, and the single groupby
    exchange moves one row per (brand, nation, block)."""
    import pyarrow.parquet as pq

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_brand"])
    supp = pq.read_table(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_nationkey"])
    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"])

    pk = part.column("p_partkey").to_numpy().astype(np.int64)
    brands = pd.Index(part.column("p_brand").to_pylist())
    brand_cat = pd.factorize(brands)  # codes, uniques
    p_lookup = np.full(int(pk.max()) + 1, -1, dtype=np.int32)
    p_lookup[pk] = brand_cat[0].astype(np.int32)
    brand_names = np.asarray(brand_cat[1], dtype=object)

    nk = nat.column("n_nationkey").to_numpy().astype(np.int64)
    n_names = np.asarray(nat.column("n_name").to_pylist(), dtype=object)
    n_lookup = np.full(int(nk.max()) + 1, -1, dtype=np.int32)
    n_lookup[nk] = np.arange(len(nk), dtype=np.int32)
    sk = supp.column("s_suppkey").to_numpy().astype(np.int64)
    s_nat = supp.column("s_nationkey").to_numpy().astype(np.int64)
    s_lookup = np.full(int(sk.max()) + 1, -1, dtype=np.int32)
    s_lookup[sk] = n_lookup[s_nat]

    refs = ray.put((p_lookup, brand_names, s_lookup, n_names))
    items = read(sf_dir, "lineitem",
                 columns=["l_partkey", "l_suppkey", "l_extendedprice",
                          "l_discount"])

    def agg(t: pa.Table) -> pa.Table:
        pl, bn, sl, nn = ray.get(refs)
        pkey = t.column("l_partkey").to_numpy().astype(np.int64)
        skey = t.column("l_suppkey").to_numpy().astype(np.int64)
        price = t.column("l_extendedprice").to_numpy()
        disc = t.column("l_discount").to_numpy()
        cents = np.floor(price * (1 - disc) * 100).astype(np.int64)
        bi = pl[pkey]
        ni = sl[skey]
        # per-block partial aggregate on the dense (brand, nation) grid
        key = bi.astype(np.int64) * len(nn) + ni
        uniq, inv = np.unique(key, return_inverse=True)
        sums = np.bincount(inv, weights=cents).astype(np.int64)
        cnts = np.bincount(inv).astype(np.int64)
        return pa.table({
            "p_brand": pa.array(bn[(uniq // len(nn)).astype(np.int64)],
                                type=pa.string()),
            "n_name": pa.array(nn[(uniq % len(nn)).astype(np.int64)],
                               type=pa.string()),
            "revenue_cents": pa.array(sums),
            "n_lines": pa.array(cnts),
        })

    out = (items.map_batches(agg, batch_format="pyarrow")
           .groupby(["p_brand", "n_name"])
           .aggregate(Sum("revenue_cents", alias_name="revenue_cents"),
                      Sum("n_lines", alias_name="n_lines"))
           .to_pandas())
    return out.astype({"revenue_cents": "int64", "n_lines": "int64"})


def q5_region_supplier_volume(sf_dir: str,
                              region: str = "ASIA") -> pd.DataFrame:
    """TPC-H-Q5-ish: revenue per nation from lineitems whose CUSTOMER and
    SUPPLIER sit in the same nation of one region — the canonical
    multiway join mixing both join strategies:

    - nation/region/supplier are dimension-sized → collapsed on the
      driver into dense ``suppkey → nation-index`` / ``nation-index →
      in-region`` lookup arrays, broadcast ONCE via ``ray.put`` (at
      10⁸+ suppliers the supplier side would graduate to a third
      co-partition join; the seam is the same bucket key).
    - customer and orders are both fact-shaped → co-partition join #1
      (bucket by ``custkey % B``) produces (orderkey, cust-nation).
    - its output and lineitem are both fact-shaped → co-partition join
      #2 (bucket by ``orderkey % B``), where the bucket kernel resolves
      the supplier nation with one ``np.take``, applies the
      same-nation + region filters, and PARTIAL-aggregates per nation —
      so the final exchange moves one row per (nation, bucket).

    Two all-to-all exchanges total for a 6-table join; each bucket kernel
    is one C-level pandas merge + numpy mask.
    """
    import pyarrow.parquet as pq

    nat = pq.read_table(f"{sf_dir}/nation.parquet")
    reg = pq.read_table(f"{sf_dir}/region.parquet")
    supp = pq.read_table(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_nationkey"])

    reg_keys = reg.column("r_regionkey").to_numpy()
    in_reg_key = {int(k) for k, n in zip(reg_keys,
                                         reg.column("r_name").to_pylist())
                  if n == region}
    nk = nat.column("n_nationkey").to_numpy().astype(np.int64)
    n_names = np.asarray(nat.column("n_name").to_pylist(), dtype=object)
    n_in_region = np.asarray(
        [int(rk) in in_reg_key for rk in
         nat.column("n_regionkey").to_numpy()], dtype=bool)
    nat_lookup = np.full(int(nk.max()) + 1, -1, dtype=np.int32)
    nat_lookup[nk] = np.arange(len(nk), dtype=np.int32)
    sk = supp.column("s_suppkey").to_numpy().astype(np.int64)
    s_lookup = np.full(int(sk.max()) + 1, -1, dtype=np.int32)
    s_lookup[sk] = nat_lookup[supp.column("s_nationkey").to_numpy()
                              .astype(np.int64)]
    dims_ref = ray.put((s_lookup, nat_lookup, n_in_region, n_names))

    cust = read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    orders = read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    items = read(sf_dir, "lineitem",
                 columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                          "l_discount"])

    # ---- join #1: orders ⨝ customer on custkey (both fact-shaped)
    def tag_cust(t: pa.Table) -> pa.Table:
        key = t.column("c_custkey").to_numpy().astype(np.int64)
        return pa.table({
            "key": pa.array(key),
            "payload": pa.array(t.column("c_nationkey").to_numpy()
                                .astype(np.int64)),
            "side": pa.array(np.zeros(len(t), dtype=np.int8))})

    def tag_orders(t: pa.Table) -> pa.Table:
        key = t.column("o_custkey").to_numpy().astype(np.int64)
        return pa.table({
            "key": pa.array(key),
            "payload": pa.array(t.column("o_orderkey").to_numpy()
                                .astype(np.int64)),
            "side": pa.array(np.ones(len(t), dtype=np.int8))})

    def join_cust(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == 0][["key", "payload"]].rename(
            columns={"payload": "c_nat"})
        right = g[g["side"] == 1][["key", "payload"]].rename(
            columns={"payload": "o_orderkey"})
        m = right.merge(left, on="key")
        return m[["o_orderkey", "c_nat"]]

    ord_nat = bucket_groups(
        [cust.map_batches(tag_cust, batch_format="pyarrow"),
         orders.map_batches(tag_orders, batch_format="pyarrow")],
        "key", join_cust)

    # ---- join #2: (orderkey, cust-nation) ⨝ lineitem on orderkey
    def tag_ordnat(t: pa.Table) -> pa.Table:
        key = t.column("o_orderkey").to_numpy().astype(np.int64)
        return pa.table({
            "key": pa.array(key),
            "nat": pa.array(t.column("c_nat").to_numpy()
                            .astype(np.int64)),
            "cents": pa.array(np.full(len(t), -1, dtype=np.int64)),
            "side": pa.array(np.zeros(len(t), dtype=np.int8))})

    def tag_items(t: pa.Table) -> pa.Table:
        key = t.column("l_orderkey").to_numpy().astype(np.int64)
        price = t.column("l_extendedprice").to_numpy()
        disc = t.column("l_discount").to_numpy()
        cents = np.floor(price * (1 - disc) * 100).astype(np.int64)
        supp_nat = t.column("l_suppkey").to_numpy().astype(np.int64)
        return pa.table({
            "key": pa.array(key),
            "nat": pa.array(supp_nat),    # suppkey until resolved below
            "cents": pa.array(cents),
            "side": pa.array(np.ones(len(t), dtype=np.int8))})

    def join_items(g: pd.DataFrame) -> pd.DataFrame:
        sl, _nl, in_reg, names = ray.get(dims_ref)
        left = g[g["side"] == 0][["key", "nat"]].rename(
            columns={"nat": "c_nat"})
        right = g[g["side"] == 1][["key", "nat", "cents"]].rename(
            columns={"nat": "suppkey"})
        m = right.merge(left, on="key")
        if not len(m):
            return pd.DataFrame({"n_name": pd.Series([], dtype=object),
                                 "revenue_cents": pd.Series([], dtype=np.int64),
                                 "n_lines": pd.Series([], dtype=np.int64)})
        s_ni = sl[m["suppkey"].to_numpy()]
        c_ni = _nl[m["c_nat"].to_numpy()]
        keep = (s_ni == c_ni) & in_reg[s_ni]
        ni = s_ni[keep]
        cents = m["cents"].to_numpy()[keep]
        uniq, inv = np.unique(ni, return_inverse=True)
        return pd.DataFrame({
            "n_name": names[uniq],
            "revenue_cents": np.bincount(inv, weights=cents)
            .astype(np.int64),
            "n_lines": np.bincount(inv).astype(np.int64)})

    partial = bucket_map(
        [ord_nat.map_batches(tag_ordnat, batch_format="pyarrow"),
         items.map_batches(tag_items, batch_format="pyarrow")],
        "key", join_items)
    out = partial.groupby("n_name", as_index=False).agg(
        revenue_cents=("revenue_cents", "sum"),
        n_lines=("n_lines", "sum"))
    return out.astype({"revenue_cents": "int64", "n_lines": "int64"})


def big_order_lines_bloom(sf_dir: str,
                          threshold: float = 450_000.0) -> pd.DataFrame:
    """Semi-join with a broadcast Bloom pre-filter: revenue per order
    priority over the lineitems of high-value orders (``o_totalprice >
    threshold``, ~10% of orders).

    The scale trick this demonstrates: the big side (lineitem) is
    pre-filtered MAP-SIDE by a Bloom filter of the qualifying orderkeys
    before anything is shuffled — at 100 TB that keeps ~90% of the fact
    table out of the exchange for the cost of a 1 MiB broadcast bitmap.
    The bitmap is built distributed (one per-block bitmap per map task,
    OR-merged on the driver via a STREAMING ``iter_batches`` — constant
    driver memory, never the keys themselves), and false positives are
    removed by the exact co-partition join that follows, so the result
    is value-exact regardless of the Bloom error rate.
    """
    from ..functions.hashing import mix64

    m_bits = 1 << 23                      # 1 MiB bitmap
    orders = read(sf_dir, "orders",
                  columns=["o_orderkey", "o_totalprice",
                           "o_orderpriority"])
    items = read(sf_dir, "lineitem",
                 columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def hv(t: pa.Table) -> pa.Table:
        m = t.column("o_totalprice").to_numpy() > threshold
        return t.filter(pa.array(m)).select(["o_orderkey",
                                             "o_orderpriority"])

    hv_orders = orders.map_batches(hv, batch_format="pyarrow")

    def block_bloom(t: pa.Table) -> pa.Table:
        key = t.column("o_orderkey").to_numpy().astype(np.uint64)
        bits = np.zeros(m_bits // 64, dtype=np.uint64)
        h1 = mix64(key) % np.uint64(m_bits)
        h2 = mix64(key + np.uint64(0x9E3779B97F4A7C15)) % np.uint64(m_bits)
        for h in (h1, h2):
            np.bitwise_or.at(bits, (h >> np.uint64(6)).astype(np.int64),
                             np.uint64(1) << (h & np.uint64(63)))
        return pa.table({"bloom": pa.array([bits.tobytes()],
                                           type=pa.binary())})

    merged = np.zeros(m_bits // 64, dtype=np.uint64)
    for b in hv_orders.map_batches(block_bloom, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow"):
        for buf in b.column("bloom").to_pylist():
            merged |= np.frombuffer(buf, dtype=np.uint64)
    bloom_ref = ray.put(merged)

    def tag_hv(t: pa.Table) -> pa.Table:
        key = t.column("o_orderkey").to_numpy().astype(np.int64)
        return pa.table({
            "key": pa.array(key),
            "o_orderpriority": t.column("o_orderpriority"),
            "cents": pa.array(np.full(len(t), -1, dtype=np.int64)),
            "side": pa.array(np.zeros(len(t), dtype=np.int8))})

    def prefilter_items(t: pa.Table) -> pa.Table:
        bits = ray.get(bloom_ref)          # zero-copy plasma read
        key = t.column("l_orderkey").to_numpy().astype(np.uint64)
        h1 = mix64(key) % np.uint64(m_bits)
        h2 = mix64(key + np.uint64(0x9E3779B97F4A7C15)) % np.uint64(m_bits)
        hit = np.ones(len(key), dtype=bool)
        for h in (h1, h2):
            word = bits[(h >> np.uint64(6)).astype(np.int64)]
            hit &= (word >> (h & np.uint64(63))) & np.uint64(1) != 0
        t = t.filter(pa.array(hit))
        key = t.column("l_orderkey").to_numpy().astype(np.int64)
        price = t.column("l_extendedprice").to_numpy()
        disc = t.column("l_discount").to_numpy()
        cents = np.floor(price * (1 - disc) * 100).astype(np.int64)
        return pa.table({
            "key": pa.array(key),
            "o_orderpriority": pa.array([""] * len(t), type=pa.string()),
            "cents": pa.array(cents),
            "side": pa.array(np.ones(len(t), dtype=np.int8))})

    def bucket_join(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == 0][["key", "o_orderpriority"]]
        right = g[g["side"] == 1][["key", "cents"]]
        m = right.merge(left, on="key")    # exact: kills Bloom FPs
        return m.groupby("o_orderpriority", as_index=False).agg(
            revenue_cents=("cents", "sum"), n_lines=("cents", "size"))

    partial = bucket_map(
        [hv_orders.map_batches(tag_hv, batch_format="pyarrow"),
         items.map_batches(prefilter_items, batch_format="pyarrow")],
        "key", bucket_join)
    out = partial.groupby("o_orderpriority", as_index=False).agg(
        revenue_cents=("revenue_cents", "sum"),
        n_lines=("n_lines", "sum"))
    return out.astype({"revenue_cents": "int64", "n_lines": "int64"})


def q18_large_orders(sf_dir: str, qty_threshold: int = 250) -> pd.DataFrame:
    """TPC-H-Q18-ish aggregate semi-join: customers whose orders carry
    more than ``qty_threshold`` total quantity.

    Scale shape: lineitem is reduced FIRST — block-local partial sums,
    then a BUCKETED reduce (``orderkey % 64`` → ``map_groups`` running
    one C-level pandas sum per bucket) with the HAVING filter applied
    INSIDE the bucket, so only qualifying (orderkey → qty) survivors —
    a tiny, highly-selective set — ever reach the driver. (Ray's
    native sort-aggregate on the ~|orders|-cardinality key measured
    ~5× slower than the bucketed reduce at sf0.1.) Survivors and
    customer are broadcast via ``ray.put`` to filter/annotate orders
    map-side. No fact-fact shuffle at all."""
    items = read(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])

    def part_qty(t: pa.Table) -> pa.Table:
        key = t.column("l_orderkey").to_numpy().astype(np.int64)
        qty = t.column("l_quantity").to_numpy().astype(np.int64)
        ks, inv = np.unique(key, return_inverse=True)
        return pa.table({"l_orderkey": pa.array(ks),
                         "qty": pa.array(np.bincount(inv, weights=qty)
                                         .astype(np.int64))})

    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("l_orderkey", as_index=False)["qty"].sum()
        return s[s["qty"] > qty_threshold]

    big = (bucket_map(items.map_batches(part_qty, batch_format="pyarrow"),
                      "l_orderkey", reduce_bucket).sort_values("l_orderkey"))
    big_keys = big["l_orderkey"].to_numpy(np.int64)
    big_qty = big["qty"].to_numpy(np.int64)

    cust = (read(sf_dir, "customer", columns=["c_custkey", "c_name"])
            .to_pandas().sort_values("c_custkey"))
    cust_keys = cust["c_custkey"].to_numpy(np.int64)
    cust_names = cust["c_name"].to_numpy(object)
    ref = ray.put((big_keys, big_qty, cust_keys, cust_names))

    def pick(t: pa.Table) -> pa.Table:
        bk, bq, ck_keys, ck_names = ray.get(ref)
        key = t.column("o_orderkey").to_numpy().astype(np.int64)
        pos = np.searchsorted(bk, key)
        pos[pos >= len(bk)] = 0
        keep = (bk[pos] == key) if len(bk) else np.zeros(len(key), bool)
        t = t.filter(pa.array(keep))
        key = t.column("o_orderkey").to_numpy().astype(np.int64)
        ck = t.column("o_custkey").to_numpy().astype(np.int64)
        price = t.column("o_totalprice").to_numpy()
        od = t.column("o_orderdate").to_numpy().astype("datetime64[us]")
        return pa.table({
            "c_custkey": pa.array(ck),
            "c_name": pa.array(ck_names[np.searchsorted(ck_keys, ck)],
                               type=pa.string()),
            "o_orderkey": pa.array(key),
            "o_orderdate_us": pa.array(od.astype(np.int64)),
            "totalprice_cents": pa.array(
                np.floor(price * 100).astype(np.int64)),
            "sum_qty": pa.array(bq[np.searchsorted(bk, key)])})

    orders = read(sf_dir, "orders",
                  columns=["o_orderkey", "o_custkey", "o_totalprice",
                           "o_orderdate"])
    out = orders.map_batches(pick, batch_format="pyarrow").to_pandas()
    return out


def q17_small_qty_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H-Q17-ish correlated-aggregate filter: total revenue of
    lineitems whose quantity is below 20% of their part's average
    quantity.

    Two passes over lineitem, zero fact-fact shuffles: pass 1 is a
    per-part (sum, count) aggregate (block-level pre-combine, exchange
    moves one partial row per part per block); the per-part stats —
    |parts| rows, small relative to lines — are broadcast once with
    ``ray.put``; pass 2 filters map-side with the integer-exact
    predicate ``5·qty·cnt < sum`` (no float average materialized) and
    pre-sums revenue per block, so the final reduce sees one row per
    block. At 100 TB the part-stats table may exceed a broadcast; the
    fallback is the bucketed co-partition join used elsewhere in this
    module — the predicate and outputs are unchanged.
    """
    items = read(sf_dir, "lineitem",
                 columns=["l_partkey", "l_quantity"])

    def part_stats(t: pa.Table) -> pa.Table:
        key = t.column("l_partkey").to_numpy().astype(np.int64)
        qty = t.column("l_quantity").to_numpy().astype(np.int64)
        ks, inv = np.unique(key, return_inverse=True)
        return pa.table({
            "l_partkey": pa.array(ks),
            "s": pa.array(np.bincount(inv, weights=qty).astype(np.int64)),
            "c": pa.array(np.bincount(inv).astype(np.int64))})

    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("l_partkey", as_index=False).agg(
            s=("s", "sum"), c=("c", "sum"))

    # bucketed reduce instead of Ray's native sort-aggregate: the
    # |parts|-cardinality key made the sort exchange the dominant cost
    # (measured ~5x) — 64 buckets × one C-level pandas sum each.
    stats = bucket_map(items.map_batches(part_stats, batch_format="pyarrow"),
                       "l_partkey", reduce_bucket)
    pk = stats["l_partkey"].to_numpy(np.int64)
    lut_s = dense_lookup(pk, stats["s"].to_numpy(np.int64))
    lut_c = dense_lookup(pk, stats["c"].to_numpy(np.int64))
    ref = ray.put((lut_s, lut_c))

    def pick(t: pa.Table) -> pa.Table:
        lut_s_, lut_c_ = ray.get(ref)
        key = t.column("l_partkey").to_numpy().astype(np.int64)
        qty = t.column("l_quantity").to_numpy().astype(np.int64)
        keep = 5 * qty * lut_c_[key] < lut_s_[key]
        price = t.column("l_extendedprice").to_numpy()[keep]
        cents = np.floor(price * 100).astype(np.int64)
        return pa.table({
            "revenue_cents": pa.array([int(cents.sum())], type=pa.int64()),
            "n_lines": pa.array([int(keep.sum())], type=pa.int64())})

    full = read(sf_dir, "lineitem",
                columns=["l_partkey", "l_quantity", "l_extendedprice"])
    part = full.map_batches(pick, batch_format="pyarrow").to_pandas()
    return pd.DataFrame({"revenue_cents": [int(part["revenue_cents"].sum())],
                         "n_lines": [int(part["n_lines"].sum())]})


def q14_promo_revenue(sf_dir: str, year: int = 1996) -> pd.DataFrame:
    """TPC-H-Q14-ish promo-revenue ratio: of lineitems shipped in
    ``year``, what share of discounted revenue comes from PROMO-type
    parts. Broadcast shape: part is dimension-sized, so its
    (partkey → is_promo) bit goes out once as a dense numpy bitmap via
    ``ray.put``; lineitem is filtered on shipdate map-side (the read
    prunes to three columns) and each block emits ONE partial row —
    the final reduce sees |blocks| rows, no all-to-all at any width.
    Ratio reported in integer basis points so the DuckDB twin matches
    bit-for-bit."""
    part = (read(sf_dir, "part", columns=["p_partkey", "p_type"])
            .to_pandas())
    pk = part["p_partkey"].to_numpy(np.int64)
    promo = dense_lookup(
        pk, (part["p_type"].to_numpy(object) == "PROMO"), bool)
    ref = ray.put(promo)

    lo = np.datetime64(f"{year}-01-01", "us").astype(np.int64)
    hi = np.datetime64(f"{year + 1}-01-01", "us").astype(np.int64)

    items = read(sf_dir, "lineitem",
                 columns=["l_partkey", "l_extendedprice", "l_discount",
                          "l_shipdate"])

    def partial(t: pa.Table) -> pa.Table:
        is_promo = ray.get(ref)
        ship = t.column("l_shipdate").to_numpy() \
            .astype("datetime64[us]").astype(np.int64)
        m = (ship >= lo) & (ship < hi)
        key = t.column("l_partkey").to_numpy().astype(np.int64)[m]
        price = t.column("l_extendedprice").to_numpy()[m]
        disc = t.column("l_discount").to_numpy()[m]
        cents = np.floor(price * (1 - disc) * 100).astype(np.int64)
        p = is_promo[key]
        return pa.table({
            "promo_cents": pa.array([int(cents[p].sum())], pa.int64()),
            "total_cents": pa.array([int(cents.sum())], pa.int64())})

    agg = items.map_batches(partial, batch_format="pyarrow").to_pandas()
    promo_c = int(agg["promo_cents"].sum())
    total_c = int(agg["total_cents"].sum())
    return pd.DataFrame({
        "promo_cents": [promo_c], "total_cents": [total_c],
        "promo_bp": [promo_c * 10000 // total_c if total_c else 0]})


def q7_nation_volume(sf_dir: str, y0: int = 1996,
                     y1: int = 1997) -> pd.DataFrame:
    """TPC-H-Q7-ish nation-pair shipping volume: discounted revenue per
    (supplier nation, customer nation, ship-year) for cross-nation
    flows in [y0, y1].

    Scale shape: ONE fact-fact exchange — lineitem and orders are
    co-partitioned on ``orderkey % 64`` buckets and merged per bucket;
    supplier→nation and customer→nation are dimension-sized dense
    LUTs broadcast once via ``ray.put``. Each bucket pre-aggregates to
    (supp_nation, cust_nation, year) partials, so the second exchange
    moves ≤ |nations|² · years rows per bucket."""
    nation = read(sf_dir, "nation",
                  columns=["n_nationkey", "n_name"]).to_pandas()
    nk = nation["n_nationkey"].to_numpy(np.int64)
    nname = np.empty(nk.max() + 1, dtype=object)
    nname[nk] = nation["n_name"].to_numpy(object)

    supp = read(sf_dir, "supplier",
                columns=["s_suppkey", "s_nationkey"]).to_pandas()
    sk = supp["s_suppkey"].to_numpy(np.int64)
    s_nat = dense_lookup(sk, supp["s_nationkey"].to_numpy(np.int64))

    cust = read(sf_dir, "customer",
                columns=["c_custkey", "c_nationkey"]).to_pandas()
    ck = cust["c_custkey"].to_numpy(np.int64)
    c_nat = dense_lookup(ck, cust["c_nationkey"].to_numpy(np.int64))

    ref = ray.put((nname, s_nat, c_nat))
    lo = np.datetime64(f"{y0}-01-01", "us").astype(np.int64)
    hi = np.datetime64(f"{y1 + 1}-01-01", "us").astype(np.int64)

    items = read(sf_dir, "lineitem",
                 columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                          "l_discount", "l_shipdate"])
    orders = read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])

    def tag_items(t: pa.Table) -> pa.Table:
        ship = t.column("l_shipdate").to_numpy() \
            .astype("datetime64[us]").astype(np.int64)
        m = (ship >= lo) & (ship < hi)
        key = t.column("l_orderkey").to_numpy().astype(np.int64)[m]
        price = t.column("l_extendedprice").to_numpy()[m]
        disc = t.column("l_discount").to_numpy()[m]
        yr = (ship[m].astype("datetime64[us]").astype("datetime64[Y]")
              .astype(np.int64) + 1970)
        return pa.table({
            "key": pa.array(key),
            "aux": pa.array(t.column("l_suppkey").to_numpy()
                            .astype(np.int64)[m]),
            "cents": pa.array(np.floor(price * (1 - disc) * 100)
                              .astype(np.int64)),
            "year": pa.array(yr),
            "side": pa.array(np.ones(len(key), dtype=np.int8))})

    def tag_orders(t: pa.Table) -> pa.Table:
        key = t.column("o_orderkey").to_numpy().astype(np.int64)
        return pa.table({
            "key": pa.array(key),
            "aux": pa.array(t.column("o_custkey").to_numpy()
                            .astype(np.int64)),
            "cents": pa.array(np.full(len(key), -1, dtype=np.int64)),
            "year": pa.array(np.zeros(len(key), dtype=np.int64)),
            "side": pa.array(np.zeros(len(key), dtype=np.int8))})

    def bucket_join(g: pd.DataFrame) -> pd.DataFrame:
        nname_, s_nat_, c_nat_ = ray.get(ref)
        left = g[g["side"] == 0][["key", "aux"]] \
            .rename(columns={"aux": "custkey"})
        right = g[g["side"] == 1][["key", "aux", "cents", "year"]] \
            .rename(columns={"aux": "suppkey"})
        m = right.merge(left, on="key")
        if not len(m):
            return pd.DataFrame({"supp_nation": pd.Series([], dtype=object),
                                 "cust_nation": pd.Series([], dtype=object),
                                 "year": pd.Series([], dtype=np.int64),
                                 "revenue_cents": pd.Series([], dtype=np.int64)})
        sn = s_nat_[m["suppkey"].to_numpy(np.int64)]
        cn = c_nat_[m["custkey"].to_numpy(np.int64)]
        keep = sn != cn
        out = pd.DataFrame({
            "supp_nation": nname_[sn[keep]],
            "cust_nation": nname_[cn[keep]],
            "year": m["year"].to_numpy(np.int64)[keep],
            "cents": m["cents"].to_numpy(np.int64)[keep]})
        return (out.groupby(["supp_nation", "cust_nation", "year"],
                            as_index=False)
                .agg(revenue_cents=("cents", "sum")))

    part = bucket_map([orders.map_batches(tag_orders, batch_format="pyarrow"),
                       items.map_batches(tag_items, batch_format="pyarrow")],
                      "key", bucket_join)
    out = (part.groupby(["supp_nation", "cust_nation", "year"],
                        as_index=False)
           .agg(revenue_cents=("revenue_cents", "sum")))
    return out.astype({"year": "int64", "revenue_cents": "int64"})


def q19_bracket_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H-Q19-ish disjunctive bracket join: revenue of lineitems
    whose part matches one of three (brand, size-range, qty-range)
    brackets. Part attributes (brand id + size) broadcast once as dense
    LUTs; the disjunction is one vectorized boolean expression per
    block; each block emits a single partial row."""
    brackets = [("Brand#1", 1, 15, 1, 11),
                ("Brand#2", 1, 25, 10, 20),
                ("Brand#3", 1, 35, 20, 30)]

    part = (read(sf_dir, "part",
                 columns=["p_partkey", "p_brand", "p_size"]).to_pandas())
    pk = part["p_partkey"].to_numpy(np.int64)
    brands = part["p_brand"].to_numpy(object)
    size = dense_lookup(pk, part["p_size"].to_numpy(np.int64))
    bidx = np.full(pk.max() + 1, -1, dtype=np.int64)
    for i, (b, *_rest) in enumerate(brackets):
        bidx[pk[brands == b]] = i
    ref = ray.put((bidx, size))

    items = read(sf_dir, "lineitem",
                 columns=["l_partkey", "l_quantity", "l_extendedprice",
                          "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        bidx_, size_ = ray.get(ref)
        key = t.column("l_partkey").to_numpy().astype(np.int64)
        qty = t.column("l_quantity").to_numpy().astype(np.int64)
        b = bidx_[key]
        s = size_[key]
        keep = np.zeros(len(key), dtype=bool)
        for i, (_brand, s0, s1, q0, q1) in enumerate(brackets):
            keep |= ((b == i) & (s >= s0) & (s <= s1)
                     & (qty >= q0) & (qty <= q1))
        price = t.column("l_extendedprice").to_numpy()[keep]
        disc = t.column("l_discount").to_numpy()[keep]
        cents = np.floor(price * (1 - disc) * 100).astype(np.int64)
        return pa.table({
            "revenue_cents": pa.array([int(cents.sum())], pa.int64()),
            "n_lines": pa.array([int(keep.sum())], pa.int64())})

    agg = items.map_batches(partial, batch_format="pyarrow").to_pandas()
    return pd.DataFrame({
        "revenue_cents": [int(agg["revenue_cents"].sum())],
        "n_lines": [int(agg["n_lines"].sum())]})


def late_shipment_priority(sf_dir: str,
                           late_days: int = 90) -> pd.DataFrame:
    """TPC-H-Q12-ish late-shipment count: per order priority, how many
    lineitems shipped more than ``late_days`` after the order date
    (the testdata schema has no commit/receipt dates, so ship-lag vs
    orderdate is the analog). Same one-exchange bucketed co-partition
    join as ``order_priority_revenue``: both fact tables tagged with
    ``orderkey % 64``, merged per bucket, partials pre-aggregated so
    the final reduce sees ≤ |priorities| rows per bucket."""
    orders = read(sf_dir, "orders",
                  columns=["o_orderkey", "o_orderpriority", "o_orderdate"])
    items = read(sf_dir, "lineitem",
                 columns=["l_orderkey", "l_shipdate"])
    lag_us = np.int64(late_days) * 86_400_000_000

    def tag_orders(t: pa.Table) -> pa.Table:
        key = t.column("o_orderkey").to_numpy().astype(np.int64)
        od = t.column("o_orderdate").to_numpy() \
            .astype("datetime64[us]").astype(np.int64)
        return pa.table({
            "key": pa.array(key),
            "o_orderpriority": t.column("o_orderpriority"),
            "ts": pa.array(od),
            "side": pa.array(np.zeros(len(key), dtype=np.int8))})

    def tag_items(t: pa.Table) -> pa.Table:
        key = t.column("l_orderkey").to_numpy().astype(np.int64)
        sd = t.column("l_shipdate").to_numpy() \
            .astype("datetime64[us]").astype(np.int64)
        return pa.table({
            "key": pa.array(key),
            "o_orderpriority": pa.array([""] * len(key), type=pa.string()),
            "ts": pa.array(sd),
            "side": pa.array(np.ones(len(key), dtype=np.int8))})

    def bucket_join(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == 0][["key", "o_orderpriority", "ts"]] \
            .rename(columns={"ts": "od"})
        right = g[g["side"] == 1][["key", "ts"]]
        m = right.merge(left, on="key")
        m["late"] = (m["ts"] - m["od"] > lag_us).astype(np.int64)
        return (m.groupby("o_orderpriority", as_index=False)
                .agg(n_late=("late", "sum"), n_lines=("late", "size")))

    part = bucket_map([orders.map_batches(tag_orders, batch_format="pyarrow"),
                       items.map_batches(tag_items, batch_format="pyarrow")],
                      "key", bucket_join)
    out = (part.groupby("o_orderpriority", as_index=False)
           .agg(n_late=("n_late", "sum"), n_lines=("n_lines", "sum")))
    return out.astype({"n_late": "int64", "n_lines": "int64"})


def q22_idle_rich_customers(sf_dir: str) -> pd.DataFrame:
    """TPC-H-Q22-ish: customers whose balance exceeds the global
    average positive balance AND who have never placed an URGENT
    order (the synthetic data gives every customer >=1 order, so the
    anti-join side is restricted to ``o_orderpriority = '1-URGENT'``
    to keep the predicate non-degenerate).

    Three cheap passes, no all-to-all: (1) the global scalar (sum,
    count over positive balances) is a per-block partial reduce —
    blocks rows to the driver; (2) the distinct order-placing custkey
    set is per-block ``np.unique`` partials union'd on the driver and
    broadcast back sorted (at 10⁹ customers this becomes the Bloom
    prefilter of ``big_order_lines_bloom`` — same predicate, same
    outputs); (3) customer is filtered map-side against the scalar +
    the broadcast set."""
    cust = read(sf_dir, "customer", columns=["c_custkey", "c_acctbal"])

    def bal_partial(t: pa.Table) -> pa.Table:
        cents = np.floor(t.column("c_acctbal").to_numpy() * 100) \
            .astype(np.int64)
        pos = cents[cents > 0]
        return pa.table({"s": pa.array([int(pos.sum())], pa.int64()),
                         "n": pa.array([len(pos)], pa.int64())})

    bal = cust.map_batches(bal_partial, batch_format="pyarrow").to_pandas()
    avg_cents = int(bal["s"].sum()) // max(int(bal["n"].sum()), 1)

    orders = read(sf_dir, "orders",
                  columns=["o_custkey", "o_orderpriority"])

    def ck_partial(t: pa.Table) -> pa.Table:
        m = pc.equal(t.column("o_orderpriority"), "1-URGENT")
        ck = t.filter(m).column("o_custkey")
        u = np.unique(ck.to_numpy(zero_copy_only=False).astype(np.int64))
        return pa.table({"ck": pa.array(u)})

    have = (orders.map_batches(ck_partial, batch_format="pyarrow")
            .to_pandas())
    have_keys = np.unique(have["ck"].to_numpy(np.int64))
    ref = ray.put(have_keys)

    def pick(t: pa.Table) -> pa.Table:
        hk = ray.get(ref)
        ck = t.column("c_custkey").to_numpy().astype(np.int64)
        cents = np.floor(t.column("c_acctbal").to_numpy() * 100) \
            .astype(np.int64)
        pos = np.searchsorted(hk, ck)
        pos_c = np.clip(pos, 0, max(0, len(hk) - 1))
        has_order = (hk[pos_c] == ck) if len(hk) else \
            np.zeros(len(ck), bool)
        keep = (cents > avg_cents) & ~has_order
        return pa.table({"c_custkey": pa.array(ck[keep]),
                         "acctbal_cents": pa.array(cents[keep])})

    return cust.map_batches(pick, batch_format="pyarrow").to_pandas()


def q6_revenue_delta(sf_dir: str, year: int = 1996) -> pd.DataFrame:
    """TPC-H-Q6-ish forecast-revenue-change: pure filter + scalar
    aggregate on lineitem (ship-year window, discount band, small
    quantity) — the cheapest possible shape: map-side partials, one
    tiny driver reduce, no exchange at any scale. Revenue here is
    ``extendedprice * discount`` (the "what if we dropped the
    discount" delta), quantized to integer cents map-side."""
    lo = np.datetime64(f"{year}-01-01", "us").astype(np.int64)
    hi = np.datetime64(f"{year + 1}-01-01", "us").astype(np.int64)
    items = read(sf_dir, "lineitem",
                 columns=["l_shipdate", "l_discount", "l_quantity",
                          "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        ship = t.column("l_shipdate").to_numpy() \
            .astype("datetime64[us]").astype(np.int64)
        disc = t.column("l_discount").to_numpy()
        qty = t.column("l_quantity").to_numpy()
        m = ((ship >= lo) & (ship < hi)
             & (disc >= 0.05) & (disc <= 0.07) & (qty < 24))
        price = t.column("l_extendedprice").to_numpy()[m]
        cents = np.floor(price * disc[m] * 100).astype(np.int64)
        return pa.table({"revenue_cents": pa.array([int(cents.sum())],
                                                   pa.int64()),
                         "n_lines": pa.array([int(m.sum())], pa.int64())})

    agg = items.map_batches(partial, batch_format="pyarrow").to_pandas()
    return pd.DataFrame({"revenue_cents": [int(agg["revenue_cents"].sum())],
                         "n_lines": [int(agg["n_lines"].sum())]})


def q10_returned_revenue(sf_dir: str, year: int = 1996,
                         top: int = 20) -> pd.DataFrame:
    """TPC-H-Q10-ish returned-item report: top customers by discounted
    revenue of RETURNED lines on orders placed in ``year``.

    One fact-fact exchange: lineitem is pre-filtered map-side to
    returnflag='R' (and pre-projected to 2 columns), orders to the
    order-date window; both co-partition on ``orderkey % 64`` and each
    bucket merges then pre-aggregates to (custkey, cents) partials, so
    the second exchange moves ≤ |custkeys-per-bucket| rows. The top-k
    runs on the custkey aggregate (customer-dimension-sized); names
    attach from a broadcast LUT only for the k winners."""
    lo = np.datetime64(f"{year}-01-01", "us").astype(np.int64)
    hi = np.datetime64(f"{year + 1}-01-01", "us").astype(np.int64)

    items = read(sf_dir, "lineitem",
                 columns=["l_orderkey", "l_returnflag", "l_extendedprice",
                          "l_discount"])
    orders = read(sf_dir, "orders",
                  columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def tag_items(t: pa.Table) -> pa.Table:
        flag = t.column("l_returnflag").to_numpy(zero_copy_only=False)
        m = flag == "R"
        key = t.column("l_orderkey").to_numpy().astype(np.int64)[m]
        price = t.column("l_extendedprice").to_numpy()[m]
        disc = t.column("l_discount").to_numpy()[m]
        return pa.table({
            "key": pa.array(key),
            "aux": pa.array(np.full(len(key), -1, dtype=np.int64)),
            "cents": pa.array(np.floor(price * (1 - disc) * 100)
                              .astype(np.int64)),
            "side": pa.array(np.ones(len(key), dtype=np.int8))})

    def tag_orders(t: pa.Table) -> pa.Table:
        od = t.column("o_orderdate").to_numpy() \
            .astype("datetime64[us]").astype(np.int64)
        m = (od >= lo) & (od < hi)
        key = t.column("o_orderkey").to_numpy().astype(np.int64)[m]
        return pa.table({
            "key": pa.array(key),
            "aux": pa.array(t.column("o_custkey").to_numpy()
                            .astype(np.int64)[m]),
            "cents": pa.array(np.zeros(len(key), dtype=np.int64)),
            "side": pa.array(np.zeros(len(key), dtype=np.int8))})

    def bucket_join(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == 0][["key", "aux"]] \
            .rename(columns={"aux": "c_custkey"})
        right = g[g["side"] == 1][["key", "cents"]]
        m = right.merge(left, on="key")
        if not len(m):
            return pd.DataFrame({
                "c_custkey": pd.Series([], dtype=np.int64),
                "revenue_cents": pd.Series([], dtype=np.int64)})
        return (m.groupby("c_custkey", as_index=False)
                .agg(revenue_cents=("cents", "sum")))

    part = bucket_map([orders.map_batches(tag_orders, batch_format="pyarrow"),
                       items.map_batches(tag_items, batch_format="pyarrow")],
                      "key", bucket_join)
    agg = (part.groupby("c_custkey", as_index=False)
           .agg(revenue_cents=("revenue_cents", "sum")))
    agg = agg.sort_values(["revenue_cents", "c_custkey"],
                          ascending=[False, True],
                          kind="mergesort").head(top)

    cust = read(sf_dir, "customer",
                columns=["c_custkey", "c_name"]).to_pandas()
    out = agg.merge(cust, on="c_custkey")
    return (out[["c_custkey", "c_name", "revenue_cents"]]
            .astype({"c_custkey": "int64", "revenue_cents": "int64"})
            .reset_index(drop=True))


def q13_order_count_distribution(sf_dir: str) -> pd.DataFrame:
    """TPC-H-Q13-ish customer order-count distribution: how many
    customers placed exactly N orders, for every N (including 0).

    Two cascaded partial reduces, both exchange-light: (1) per-block
    ``np.bincount``-style custkey partials → distributed
    ``groupby(custkey)`` sum (the only width-|customers| step, fully
    distributed); (2) per-block value-counts of the counts → driver
    sum over ≤ max-orders-per-customer distinct values. Zero-order
    customers are |customer| − |custkeys seen|, computed from parquet
    row-count metadata (custkey is the PK) — no customer-table scan."""
    import pyarrow.parquet as pq_

    orders = read(sf_dir, "orders", columns=["o_custkey"])

    def ck_partial(t: pa.Table) -> pa.Table:
        ck, n = np.unique(t.column("o_custkey").to_numpy()
                          .astype(np.int64), return_counts=True)
        return pa.table({"c_custkey": pa.array(ck),
                         "n": pa.array(n.astype(np.int64))})

    def bucket_reduce(g: pd.DataFrame) -> pd.DataFrame:
        # custkey is high-cardinality: one C-level pandas sum per
        # bucket beats Ray's native sort-aggregate over the full key
        # width (same lesson as q17/q18's bucketed reduce), and the
        # count-distribution partial collapses to ≤ max-orders-per-
        # customer rows INSIDE the bucket — the driver never sees the
        # |customers|-wide table
        per = (g.groupby("c_custkey", as_index=False)
               .agg(n=("n", "sum")))
        c, n = np.unique(per["n"].to_numpy(np.int64), return_counts=True)
        return pd.DataFrame({"c_count": c,
                             "custdist": n.astype(np.int64)})

    dist = bucket_map(orders.map_batches(ck_partial, batch_format="pyarrow"),
                      "c_custkey", bucket_reduce)
    out = (dist.groupby("c_count", as_index=False)
           .agg(custdist=("custdist", "sum")))

    n_cust = pq_.ParquetFile(f"{sf_dir}/customer.parquet") \
        .metadata.num_rows
    n_zero = n_cust - int(out["custdist"].sum())
    if n_zero > 0:
        out = pd.concat([out, pd.DataFrame({"c_count": [0],
                                            "custdist": [n_zero]})],
                        ignore_index=True)
    return (out.sort_values("c_count", kind="mergesort")
            .reset_index(drop=True)
            .astype({"c_count": "int64", "custdist": "int64"}))


def q15_top_supplier(sf_dir: str, y: int = 1996,
                     q: int = 1) -> pd.DataFrame:
    """TPC-H-Q15-ish top supplier: supplier(s) with the maximum
    discounted revenue over one quarter. Map-side (suppkey, cents)
    partials → distributed ``groupby(suppkey)`` (supplier-dimension
    width) → driver max + equality filter (handles ties exactly like
    the SQL subquery) → names from the supplier dimension."""
    lo = np.datetime64(f"{y}-{3 * (q - 1) + 1:02d}-01", "us") \
        .astype(np.int64)
    hi_m = 3 * q + 1
    hi = (np.datetime64(f"{y + 1}-01-01", "us") if hi_m > 12 else
          np.datetime64(f"{y}-{hi_m:02d}-01", "us")).astype(np.int64)

    items = read(sf_dir, "lineitem",
                 columns=["l_suppkey", "l_extendedprice", "l_discount",
                          "l_shipdate"])

    def partial(t: pa.Table) -> pa.Table:
        ship = t.column("l_shipdate").to_numpy() \
            .astype("datetime64[us]").astype(np.int64)
        m = (ship >= lo) & (ship < hi)
        sk = t.column("l_suppkey").to_numpy().astype(np.int64)[m]
        price = t.column("l_extendedprice").to_numpy()[m]
        disc = t.column("l_discount").to_numpy()[m]
        cents = np.floor(price * (1 - disc) * 100).astype(np.int64)
        df = pd.DataFrame({"s_suppkey": sk, "cents": cents}) \
            .groupby("s_suppkey", as_index=False).agg(c=("cents", "sum"))
        return pa.table({"s_suppkey": pa.array(df["s_suppkey"]
                                               .to_numpy(np.int64)),
                         "c": pa.array(df["c"].to_numpy(np.int64))})

    rev = (items.map_batches(partial, batch_format="pyarrow")
           .groupby("s_suppkey")
           .aggregate(Sum("c", alias_name="total_revenue_cents"))
           .to_pandas())
    best = int(rev["total_revenue_cents"].max())
    win = rev[rev["total_revenue_cents"] == best]

    supp = read(sf_dir, "supplier",
                columns=["s_suppkey", "s_name"]).to_pandas()
    out = win.merge(supp, on="s_suppkey")
    return (out[["s_suppkey", "s_name", "total_revenue_cents"]]
            .sort_values("s_suppkey", kind="mergesort")
            .reset_index(drop=True)
            .astype({"s_suppkey": "int64",
                     "total_revenue_cents": "int64"}))


def q8_market_share(sf_dir: str, nation: str = "NATION_3",
                    region: str = "ASIA", p_type: str = "STANDARD",
                    y0: int = 1996, y1: int = 1997) -> pd.DataFrame:
    """TPC-H-Q8-ish national market share: of all ``p_type``-part
    revenue sold to customers in ``region`` during [y0, y1], the share
    (basis points) supplied from ``nation``, per order-year.

    Same single-exchange skeleton as :func:`q7_nation_volume` — the
    only fact-fact edge (lineitem ⨝ orders on orderkey) buckets on
    ``orderkey % 64``; everything dimension-sized (part-type bitmap,
    supplier→is-nation bitmap, customer→in-region bitmap) broadcasts
    once via ``ray.put`` and each bucket pre-aggregates to per-year
    (nation_cents, total_cents) partials, so the reduce sees
    |buckets| × |years| rows."""
    nat = read(sf_dir, "nation",
               columns=["n_nationkey", "n_name", "n_regionkey"]) \
        .to_pandas()
    reg = read(sf_dir, "region",
               columns=["r_regionkey", "r_name"]).to_pandas()
    rkey = reg.loc[reg["r_name"] == region, "r_regionkey"].iloc[0]
    nkey = nat.loc[nat["n_name"] == nation, "n_nationkey"].iloc[0]
    region_nations = set(
        nat.loc[nat["n_regionkey"] == rkey, "n_nationkey"].astype(int))

    part = read(sf_dir, "part",
                columns=["p_partkey", "p_type"]).to_pandas()
    pk = part["p_partkey"].to_numpy(np.int64)
    type_ok = dense_lookup(pk, part["p_type"].to_numpy(object) == p_type, bool)

    supp = read(sf_dir, "supplier",
                columns=["s_suppkey", "s_nationkey"]).to_pandas()
    sk = supp["s_suppkey"].to_numpy(np.int64)
    s_is_nation = dense_lookup(
        sk, supp["s_nationkey"].to_numpy(np.int64) == nkey, bool)

    cust = read(sf_dir, "customer",
                columns=["c_custkey", "c_nationkey"]).to_pandas()
    ck = cust["c_custkey"].to_numpy(np.int64)
    c_in_region = dense_lookup(
        ck, np.isin(cust["c_nationkey"].to_numpy(np.int64),
                    list(region_nations)), bool)

    ref = ray.put((type_ok, s_is_nation, c_in_region))
    lo = np.datetime64(f"{y0}-01-01", "us").astype(np.int64)
    hi = np.datetime64(f"{y1 + 1}-01-01", "us").astype(np.int64)

    items = read(sf_dir, "lineitem",
                 columns=["l_orderkey", "l_partkey", "l_suppkey",
                          "l_extendedprice", "l_discount"])
    orders = read(sf_dir, "orders",
                  columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def tag_items(t: pa.Table) -> pa.Table:
        type_ok_, s_is_nation_, _ = ray.get(ref)
        pkey = t.column("l_partkey").to_numpy().astype(np.int64)
        m = type_ok_[pkey]
        key = t.column("l_orderkey").to_numpy().astype(np.int64)[m]
        price = t.column("l_extendedprice").to_numpy()[m]
        disc = t.column("l_discount").to_numpy()[m]
        from_nation = s_is_nation_[
            t.column("l_suppkey").to_numpy().astype(np.int64)[m]]
        return pa.table({
            "key": pa.array(key),
            "cents": pa.array(np.floor(price * (1 - disc) * 100)
                              .astype(np.int64)),
            "frn": pa.array(from_nation),
            "year": pa.array(np.zeros(len(key), dtype=np.int64)),
            "side": pa.array(np.ones(len(key), dtype=np.int8))})

    def tag_orders(t: pa.Table) -> pa.Table:
        _, _, c_in_region_ = ray.get(ref)
        od = t.column("o_orderdate").to_numpy() \
            .astype("datetime64[us]").astype(np.int64)
        in_win = (od >= lo) & (od < hi)
        in_reg = c_in_region_[
            t.column("o_custkey").to_numpy().astype(np.int64)]
        m = in_win & in_reg
        key = t.column("o_orderkey").to_numpy().astype(np.int64)[m]
        yr = (od[m].astype("datetime64[us]").astype("datetime64[Y]")
              .astype(np.int64) + 1970)
        return pa.table({
            "key": pa.array(key),
            "cents": pa.array(np.zeros(len(key), dtype=np.int64)),
            "frn": pa.array(np.zeros(len(key), dtype=bool)),
            "year": pa.array(yr),
            "side": pa.array(np.zeros(len(key), dtype=np.int8))})

    def bucket_join(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == 0][["key", "year"]]
        right = g[g["side"] == 1][["key", "cents", "frn"]]
        m = right.merge(left, on="key")
        if not len(m):
            return pd.DataFrame({
                "year": pd.Series([], dtype=np.int64),
                "nation_cents": pd.Series([], dtype=np.int64),
                "total_cents": pd.Series([], dtype=np.int64)})
        cents = m["cents"].to_numpy(np.int64)
        df = pd.DataFrame({
            "year": m["year"].to_numpy(np.int64),
            "nation_cents": np.where(m["frn"].to_numpy(bool), cents, 0),
            "total_cents": cents})
        return (df.groupby("year", as_index=False)
                .agg(nation_cents=("nation_cents", "sum"),
                     total_cents=("total_cents", "sum")))

    partials = bucket_map(
        [orders.map_batches(tag_orders, batch_format="pyarrow"),
         items.map_batches(tag_items, batch_format="pyarrow")],
        "key", bucket_join)
    out = (partials.groupby("year", as_index=False)
           .agg(nation_cents=("nation_cents", "sum"),
                total_cents=("total_cents", "sum")))
    out["share_bp"] = (out["nation_cents"] * 10000
                       // out["total_cents"].where(out["total_cents"] != 0,
                                                   1))
    return (out.sort_values("year", kind="mergesort")
            .reset_index(drop=True)
            .astype({"year": "int64", "nation_cents": "int64",
                     "total_cents": "int64", "share_bp": "int64"}))


def q9_nation_year_revenue(sf_dir: str,
                           name_like: str = "widget") -> pd.DataFrame:
    """TPC-H-Q9-ish product profit (adapted: the synthetic schema has
    no partsupp/supplycost, so the measure is discounted revenue):
    revenue per (supplier nation, order year) over lineitems whose
    part NAME contains ``name_like``.

    One fact-fact exchange (lineitem ⨝ orders on ``orderkey % 64``
    buckets); part-name-match and supplier→nation broadcast as dense
    LUTs; buckets pre-aggregate to (nation, year) partials."""
    nat = read(sf_dir, "nation",
               columns=["n_nationkey", "n_name"]).to_pandas()
    nk = nat["n_nationkey"].to_numpy(np.int64)
    nname = np.empty(nk.max() + 1, dtype=object)
    nname[nk] = nat["n_name"].to_numpy(object)

    part = read(sf_dir, "part",
                columns=["p_partkey", "p_name"]).to_pandas()
    pk = part["p_partkey"].to_numpy(np.int64)
    name_ok = dense_lookup(
        pk, part["p_name"].str.contains(name_like,
                                        regex=False).to_numpy(), bool)

    supp = read(sf_dir, "supplier",
                columns=["s_suppkey", "s_nationkey"]).to_pandas()
    sk = supp["s_suppkey"].to_numpy(np.int64)
    s_nat = dense_lookup(sk, supp["s_nationkey"].to_numpy(np.int64))

    ref = ray.put((name_ok, s_nat, nname))

    items = read(sf_dir, "lineitem",
                 columns=["l_orderkey", "l_partkey", "l_suppkey",
                          "l_extendedprice", "l_discount"])
    orders = read(sf_dir, "orders",
                  columns=["o_orderkey", "o_orderdate"])

    def tag_items(t: pa.Table) -> pa.Table:
        name_ok_, s_nat_, _ = ray.get(ref)
        pkey = t.column("l_partkey").to_numpy().astype(np.int64)
        m = name_ok_[pkey]
        key = t.column("l_orderkey").to_numpy().astype(np.int64)[m]
        price = t.column("l_extendedprice").to_numpy()[m]
        disc = t.column("l_discount").to_numpy()[m]
        nid = s_nat_[t.column("l_suppkey").to_numpy()
                     .astype(np.int64)[m]]
        return pa.table({
            "key": pa.array(key),
            "cents": pa.array(np.floor(price * (1 - disc) * 100)
                              .astype(np.int64)),
            "nid": pa.array(nid),
            "side": pa.array(np.ones(len(key), dtype=np.int8))})

    def tag_orders(t: pa.Table) -> pa.Table:
        key = t.column("o_orderkey").to_numpy().astype(np.int64)
        od = t.column("o_orderdate").to_numpy() \
            .astype("datetime64[us]")
        yr = od.astype("datetime64[Y]").astype(np.int64) + 1970
        return pa.table({
            "key": pa.array(key),
            "cents": pa.array(yr),  # year rides the cents slot
            "nid": pa.array(np.full(len(key), -1, dtype=np.int64)),
            "side": pa.array(np.zeros(len(key), dtype=np.int8))})

    def bucket_join(g: pd.DataFrame) -> pd.DataFrame:
        _, _, nname_ = ray.get(ref)
        left = g[g["side"] == 0][["key", "cents"]] \
            .rename(columns={"cents": "year"})
        right = g[g["side"] == 1][["key", "cents", "nid"]]
        m = right.merge(left, on="key")
        if not len(m):
            return pd.DataFrame({
                "nation": pd.Series([], dtype=object),
                "year": pd.Series([], dtype=np.int64),
                "revenue_cents": pd.Series([], dtype=np.int64)})
        df = pd.DataFrame({
            "nation": nname_[m["nid"].to_numpy(np.int64)],
            "year": m["year"].to_numpy(np.int64),
            "cents": m["cents"].to_numpy(np.int64)})
        return (df.groupby(["nation", "year"], as_index=False)
                .agg(revenue_cents=("cents", "sum")))

    partials = bucket_map(
        [orders.map_batches(tag_orders, batch_format="pyarrow"),
         items.map_batches(tag_items, batch_format="pyarrow")],
        "key", bucket_join)
    out = (partials.groupby(["nation", "year"], as_index=False)
           .agg(revenue_cents=("revenue_cents", "sum")))
    return (out.sort_values(["nation", "year"], kind="mergesort")
            .reset_index(drop=True)
            .astype({"year": "int64", "revenue_cents": "int64"}))


def q2_min_cost_supplier(sf_dir: str, max_size: int = 10) -> pd.DataFrame:
    """TPC-H-Q2-ish min-cost-supplier lookup (the correlated-MIN
    subquery shape), adapted to these tables: lineitem stands in for
    partsupp, "cost" is the minimum observed line price. For each part
    with ``p_size <= max_size``, find the supplier offering the lowest
    price; ties break to the smallest suppkey (Q2 proper breaks on
    acctbal — same algebra, deterministic here).

    Ray shape: the part-size filter is a broadcast bitmap applied
    MAP-SIDE so filtered parts never enter the exchange; one bucketed
    ``groupby(partkey % B)`` then resolves BOTH aggregate levels — per
    (part, supplier) min, then per-part argmin — inside the bucket with
    C-level pandas kernels (the two-level collapse is why bucketing
    beats two native sort-aggregates here); supplier names come from a
    dimension broadcast at the end. No fact-fact shuffle, one exchange
    total."""
    part = read(sf_dir, "part", columns=["p_partkey", "p_size"]).to_pandas()
    pk = part["p_partkey"].to_numpy(np.int64)
    keep = dense_lookup(
        pk, part["p_size"].to_numpy(np.int64) <= max_size, bool)
    keep_ref = ray.put(keep)

    items = read(sf_dir, "lineitem",
                 columns=["l_partkey", "l_suppkey", "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        keep_ = ray.get(keep_ref)
        key = t.column("l_partkey").to_numpy().astype(np.int64)
        m = keep_[key]
        key = key[m]
        sup = t.column("l_suppkey").to_numpy().astype(np.int64)[m]
        cents = np.floor(
            t.column("l_extendedprice").to_numpy()[m] * 100).astype(np.int64)
        df = pd.DataFrame({"p": key, "s": sup, "c": cents})
        g = df.groupby(["p", "s"], as_index=False)["c"].min()
        return pa.table({
            "p": pa.array(g["p"].to_numpy(np.int64)),
            "s": pa.array(g["s"].to_numpy(np.int64)),
            "c": pa.array(g["c"].to_numpy(np.int64)),
        })

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        ps = g.groupby(["p", "s"], as_index=False)["c"].min()
        best = ps.groupby("p", as_index=False)["c"].min().rename(
            columns={"c": "mc"})
        m = ps.merge(best, on="p")
        m = m[m["c"] == m["mc"]]
        out = m.groupby("p", as_index=False).agg(s=("s", "min"),
                                                 c=("c", "min"))
        return out[["p", "s", "c"]]

    rows = bucket_map(items.map_batches(partial, batch_format="pyarrow"),
                      "p", resolve)

    sup = read(sf_dir, "supplier",
               columns=["s_suppkey", "s_name"]).to_pandas()
    names = np.empty(sup["s_suppkey"].to_numpy(np.int64).max() + 1,
                     dtype=object)
    names[sup["s_suppkey"].to_numpy(np.int64)] = \
        sup["s_name"].to_numpy(object)
    out = pd.DataFrame({
        "p_partkey": rows["p"].to_numpy(np.int64),
        "s_suppkey": rows["s"].to_numpy(np.int64),
        "s_name": names[rows["s"].to_numpy(np.int64)],
        "min_price_cents": rows["c"].to_numpy(np.int64)})
    return (out.sort_values("p_partkey", kind="mergesort")
            .reset_index(drop=True))


def q4_priority_with_bulk_line(sf_dir: str, year: int = 1997,
                               min_qty: int = 45) -> pd.DataFrame:
    """TPC-H-Q4-ish EXISTS semi-join: count orders placed in ``year``
    per priority that have AT LEAST ONE bulk line (quantity ≥
    ``min_qty`` — standing in for Q4's commit<receipt predicate, which
    these tables lack).

    Ray shape: the lineitem side is reduced MAP-SIDE to per-block
    DISTINCT matching orderkeys (so the exchange moves ≤ one row per
    matching order per block, never one per line); orders are filtered
    to the year map-side; one bucketed co-partition ``groupby`` then
    evaluates EXISTS per bucket with a vectorized ``isin`` — the
    semi-join never materializes matched pairs, at any scale."""
    lo = np.datetime64(f"{year}-01-01", "us").astype(np.int64)
    hi = np.datetime64(f"{year + 1}-01-01", "us").astype(np.int64)

    orders = read(sf_dir, "orders",
                  columns=["o_orderkey", "o_orderdate", "o_orderpriority"])
    items = read(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])

    def tag_orders(t: pa.Table) -> pa.Table:
        od = t.column("o_orderdate").to_numpy() \
            .astype("datetime64[us]").astype(np.int64)
        m = (od >= lo) & (od < hi)
        key = t.column("o_orderkey").to_numpy().astype(np.int64)[m]
        return pa.table({
            "key": pa.array(key),
            "pri": pc.array_filter(t.column("o_orderpriority"),
                                   pa.array(m)),
            "side": pa.array(np.zeros(len(key), dtype=np.int8))})

    def tag_items(t: pa.Table) -> pa.Table:
        qty = t.column("l_quantity").to_numpy()
        key = t.column("l_orderkey").to_numpy().astype(np.int64)
        key = np.unique(key[qty >= min_qty])
        return pa.table({
            "key": pa.array(key),
            "pri": pa.array([""] * len(key), type=pa.string()),
            "side": pa.array(np.ones(len(key), dtype=np.int8))})

    def bucket_semi(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == 0]
        hits = left[left["key"].isin(g.loc[g["side"] == 1, "key"])]
        return hits.groupby("pri", as_index=False).agg(
            n_orders=("key", "size"))

    part = bucket_map([orders.map_batches(tag_orders, batch_format="pyarrow"),
                       items.map_batches(tag_items, batch_format="pyarrow")],
                      "key", bucket_semi)
    out = part.groupby("pri", as_index=False).agg(
        n_orders=("n_orders", "sum")).rename(
            columns={"pri": "o_orderpriority"})
    return (out.sort_values("o_orderpriority", kind="mergesort")
            .reset_index(drop=True).astype({"n_orders": "int64"}))


def q11_important_parts(sf_dir: str, nationkey: int = 3,
                        share_ppm: int = 2000) -> pd.DataFrame:
    """TPC-H-Q11-ish share-of-global-total filter: value of each part
    supplied by nation ``nationkey``'s suppliers, keeping parts whose
    value exceeds ``share_ppm`` parts-per-million of the grand total —
    the group-vs-global-aggregate dependency Q11's HAVING subquery
    expresses.

    Ray shape: supplier→nation membership broadcasts as a dense bitmap
    (map-side filter); per-part value uses the bucketed reduce; the
    grand total is the (tiny) sum of the per-part rows already on the
    driver, so the HAVING comparison is integer arithmetic with no
    second pass over the fact table."""
    sup = read(sf_dir, "supplier",
               columns=["s_suppkey", "s_nationkey"]).to_pandas()
    sk = sup["s_suppkey"].to_numpy(np.int64)
    in_nation = dense_lookup(
        sk, sup["s_nationkey"].to_numpy(np.int64) == nationkey, bool)
    ref = ray.put(in_nation)

    items = read(sf_dir, "lineitem",
                 columns=["l_partkey", "l_suppkey", "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        in_n = ray.get(ref)
        supk = t.column("l_suppkey").to_numpy().astype(np.int64)
        m = in_n[supk]
        key = t.column("l_partkey").to_numpy().astype(np.int64)[m]
        cents = np.floor(
            t.column("l_extendedprice").to_numpy()[m] * 100).astype(np.int64)
        ks, inv = np.unique(key, return_inverse=True)
        return pa.table({
            "p": pa.array(ks),
            "v": pa.array(np.bincount(inv, weights=cents).astype(np.int64))})

    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("p", as_index=False).agg(v=("v", "sum"))

    vals = bucket_map(items.map_batches(partial, batch_format="pyarrow"),
                      "p", reduce_bucket)
    total = int(vals["v"].sum())
    keep = vals["v"].to_numpy(np.int64) * 1_000_000 > total * share_ppm
    out = pd.DataFrame({
        "p_partkey": vals["p"].to_numpy(np.int64)[keep],
        "value_cents": vals["v"].to_numpy(np.int64)[keep]})
    return (out.sort_values(["value_cents", "p_partkey"],
                            ascending=[False, True], kind="mergesort")
            .reset_index(drop=True))


def q12_shipmode_priority(sf_dir: str, year: int = 1996,
                          flags: tuple = ("A", "R")) -> pd.DataFrame:
    """TPC-H-Q12 high/low line-count split: lines shipped in ``year``
    whose returnflag is in ``flags`` (standing in for Q12's shipmode
    list — these tables carry no l_shipmode), joined to orders; per
    flag, count lines belonging to HIGH-priority orders
    (1-URGENT / 2-HIGH) vs all the rest. Completes the q1–q22 TPC-H
    shape set (order_priority_revenue covers the same join with a
    revenue aggregate; this is the conditional-count variant).

    Ray shape: both sides are fact-sized → bucketed co-partition join
    (one exchange). Orders reduce map-side to (orderkey, hi:int8);
    lineitem filters map-side by date + flag before anything moves, so
    the exchange carries one slim row per surviving line and one per
    order. Per bucket the priority bit joins to lines with one C-level
    hash reindex, and only B × |flags| partial rows reach the driver."""
    lo = np.datetime64(f"{year}-01-01", "us").astype(np.int64)
    hi = np.datetime64(f"{year + 1}-01-01", "us").astype(np.int64)
    flagset = list(flags)

    orders = read(sf_dir, "orders",
                  columns=["o_orderkey", "o_orderpriority"])
    items = read(sf_dir, "lineitem",
                 columns=["l_orderkey", "l_returnflag", "l_shipdate"])

    def tag_orders(t: pa.Table) -> pa.Table:
        key = t.column("o_orderkey").to_numpy().astype(np.int64)
        pri = t.column("o_orderpriority").to_numpy(zero_copy_only=False)
        is_hi = np.isin(pri, ("1-URGENT", "2-HIGH")).astype(np.int8)
        return pa.table({
            "key": pa.array(key),
            "flag": pa.array([""] * len(key), type=pa.string()),
            "hi": pa.array(is_hi),
            "side": pa.array(np.zeros(len(key), dtype=np.int8))})

    def tag_items(t: pa.Table) -> pa.Table:
        sd = t.column("l_shipdate").to_numpy() \
            .astype("datetime64[us]").astype(np.int64)
        fl = t.column("l_returnflag").to_numpy(zero_copy_only=False)
        m = (sd >= lo) & (sd < hi) & np.isin(fl, flagset)
        key = t.column("l_orderkey").to_numpy().astype(np.int64)[m]
        return pa.table({
            "key": pa.array(key),
            "flag": pa.array(fl[m]),
            "hi": pa.array(np.zeros(len(key), dtype=np.int8)),
            "side": pa.array(np.ones(len(key), dtype=np.int8))})

    def bucket_join(g: pd.DataFrame) -> pa.Table:
        lines = g[g["side"] == 1]
        if not len(lines):
            return pa.table({"flag": pa.array([], type=pa.string()),
                             "high": pa.array([], type=pa.int64),
                             "n": pa.array([], type=pa.int64)})
        o = g[g["side"] == 0]
        hi_of = pd.Series(o["hi"].to_numpy(np.int64),
                          index=o["key"].to_numpy(np.int64))
        line_hi = hi_of.reindex(
            lines["key"].to_numpy(np.int64)).fillna(0).to_numpy(np.int64)
        part = (pd.DataFrame({"flag": lines["flag"].to_numpy(),
                              "hi": line_hi})
                .groupby("flag", as_index=False)
                .agg(high=("hi", "sum"), n=("hi", "size")))
        return pa.Table.from_pandas(part.astype({"high": "int64",
                                                 "n": "int64"}),
                                    preserve_index=False)

    part = bucket_map([orders.map_batches(tag_orders, batch_format="pyarrow"),
                       items.map_batches(tag_items, batch_format="pyarrow")],
                      "key", bucket_join)
    out = part.groupby("flag", as_index=False).agg(
        high_line_count=("high", "sum"), n=("n", "sum"))
    out["low_line_count"] = out["n"] - out["high_line_count"]
    out = out.rename(columns={"flag": "l_returnflag"}) \
        .drop(columns=["n"]) \
        .astype({"high_line_count": "int64", "low_line_count": "int64"})
    return (out.sort_values("l_returnflag", kind="mergesort")
            .reset_index(drop=True)
            [["l_returnflag", "high_line_count", "low_line_count"]])


def q16_supplier_breadth(sf_dir: str) -> pd.DataFrame:
    """TPC-H-Q16-ish supplier breadth: per (p_brand, p_type), how many
    DISTINCT suppliers shipped that kind of part — excluding suppliers
    with negative account balance (standing in for Q16's
    complaints NOT IN subquery).

    Ray shape: both dimension lookups (partkey→brand/type codes,
    suppkey→excluded) broadcast as dense arrays, and the (brand, type)
    pair is INTEGER-CODED map-side (``code·2^32 + suppkey``), so the
    exchange carries per-block-distinct int64 keys instead of string
    triples; one bucketed ``groupby(key % B)`` finishes the distinct
    (each (code, supp) pair lands in exactly one bucket, so per-bucket
    distinct-counts partition the global count) and the strings are
    re-attached only to the ≤|brand×type| result rows on the driver.
    (The first cut used two native string-key sort aggregates and was
    6× slower — measured 9.6 s vs 1.5 s at sf0.1.)"""
    part = read(sf_dir, "part",
                columns=["p_partkey", "p_brand", "p_type"]).to_pandas()
    bt = (part["p_brand"].astype(str) + "\x1f" + part["p_type"]
          .astype(str))
    codes_s, uniq_bt = pd.factorize(bt, sort=True)
    pk = part["p_partkey"].to_numpy(np.int64)
    code_of_part = np.full(pk.max() + 1, -1, dtype=np.int64)
    code_of_part[pk] = codes_s.astype(np.int64)

    sup = read(sf_dir, "supplier",
               columns=["s_suppkey", "s_acctbal"]).to_pandas()
    sk = sup["s_suppkey"].to_numpy(np.int64)
    bad = dense_lookup(sk, sup["s_acctbal"].to_numpy() < 0, bool)
    ref = ray.put((code_of_part, bad))

    items = read(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"])

    def keys(t: pa.Table) -> pa.Table:
        code_, bad_ = ray.get(ref)
        supk = t.column("l_suppkey").to_numpy().astype(np.int64)
        m = ~bad_[supk]
        code = code_[t.column("l_partkey").to_numpy().astype(np.int64)[m]]
        key = np.unique((code << 32) | supk[m])
        return pa.table({
            "key": pa.array(key)})

    def count_bucket(g: pd.DataFrame) -> pd.DataFrame:
        key = np.unique(g["key"].to_numpy(np.int64))
        code, cnt = np.unique(key >> 32, return_counts=True)
        return pd.DataFrame({"code": code,
                             "supplier_cnt": cnt.astype(np.int64)})

    partial = bucket_map(items.map_batches(keys, batch_format="pyarrow"),
                         "key", count_bucket)
    agg = partial.groupby("code", as_index=False)["supplier_cnt"].sum()
    pair = uniq_bt[agg["code"].to_numpy(np.int64)].str.split("\x1f")
    out = pd.DataFrame({
        "p_brand": [p[0] for p in pair],
        "p_type": [p[1] for p in pair],
        "supplier_cnt": agg["supplier_cnt"].to_numpy(np.int64)})
    return (out.sort_values(["p_brand", "p_type"], kind="mergesort")
            .reset_index(drop=True).astype({"supplier_cnt": "int64"}))


def q20_dominant_suppliers(sf_dir: str) -> pd.DataFrame:
    """TPC-H-Q20-ish nested semi-join: suppliers who supplied more than
    20% of some part's total shipped quantity (Q20 proper compares a
    supplier's stock to half the part's demand — same
    correlated-threshold algebra on these tables; 20% because the
    synthetic data spreads each part over ~20 suppliers).

    Ray shape: one bucketed ``groupby(partkey % B)`` resolves the
    per-(part,supplier) sums AND the per-part total AND the >50%
    comparison inside each bucket; qualifying suppkeys are deduped in
    the same pass (per-bucket distinct), so the driver only ever sees
    ≤|suppliers| rows; names come from a dimension broadcast."""
    items = read(sf_dir, "lineitem",
                 columns=["l_partkey", "l_suppkey", "l_quantity"])

    def partial(t: pa.Table) -> pa.Table:
        key = t.column("l_partkey").to_numpy().astype(np.int64)
        sup = t.column("l_suppkey").to_numpy().astype(np.int64)
        qty = t.column("l_quantity").to_numpy().astype(np.int64)
        df = pd.DataFrame({"p": key, "s": sup, "q": qty})
        g = df.groupby(["p", "s"], as_index=False)["q"].sum()
        return pa.table({
            "p": pa.array(g["p"].to_numpy(np.int64)),
            "s": pa.array(g["s"].to_numpy(np.int64)),
            "q": pa.array(g["q"].to_numpy(np.int64)),
        })

    def dominant(g: pd.DataFrame) -> pd.DataFrame:
        ps = g.groupby(["p", "s"], as_index=False)["q"].sum()
        tot = ps.groupby("p", as_index=False)["q"].sum().rename(
            columns={"q": "tq"})
        m = ps.merge(tot, on="p")
        win = m.loc[5 * m["q"] > m["tq"], ["s"]].drop_duplicates()
        return win

    rows = bucket_map(items.map_batches(partial, batch_format="pyarrow"),
                      "p", dominant)
    if rows.empty or "s" not in rows.columns:
        # all buckets empty: Ray returns a schemaless empty frame
        return pd.DataFrame({"s_suppkey": pd.Series([], dtype=np.int64),
                             "s_name": pd.Series([], dtype=object)})
    supk = np.unique(rows["s"].to_numpy(np.int64))

    sup = read(sf_dir, "supplier",
               columns=["s_suppkey", "s_name"]).to_pandas()
    names = np.empty(sup["s_suppkey"].to_numpy(np.int64).max() + 1,
                     dtype=object)
    names[sup["s_suppkey"].to_numpy(np.int64)] = \
        sup["s_name"].to_numpy(object)
    return pd.DataFrame({"s_suppkey": supk, "s_name": names[supk]})


def q21_blocking_suppliers(sf_dir: str, topn: int = 20) -> pd.DataFrame:
    """TPC-H-Q21-ish "who's holding up the order": per supplier, the
    number of multi-supplier orders where THIS supplier's latest line
    shipped strictly after every other supplier's (Q21's
    EXISTS-other/NOT-EXISTS-other-late pair, expressed on shipdate
    since these tables carry no commit/receipt dates).

    Ray shape: map-side collapse to per-(order, supplier) max-shipdate
    partials (one row per pair per block), one bucketed
    ``groupby(orderkey % B)``; inside the bucket a vectorized
    two-level max + unique-argmax test emits (suppkey, 1) partials;
    the per-supplier count is a tiny final aggregate. The EXISTS /
    NOT-EXISTS pair never materializes a join — it is an order-local
    predicate, which is the whole trick."""
    items = read(sf_dir, "lineitem",
                 columns=["l_orderkey", "l_suppkey", "l_shipdate"])

    def partial(t: pa.Table) -> pa.Table:
        key = t.column("l_orderkey").to_numpy().astype(np.int64)
        sup = t.column("l_suppkey").to_numpy().astype(np.int64)
        ship = t.column("l_shipdate").to_numpy() \
            .astype("datetime64[us]").astype(np.int64)
        df = pd.DataFrame({"o": key, "s": sup, "ms": ship})
        g = df.groupby(["o", "s"], as_index=False)["ms"].max()
        return pa.table({
            "o": pa.array(g["o"].to_numpy(np.int64)),
            "s": pa.array(g["s"].to_numpy(np.int64)),
            "ms": pa.array(g["ms"].to_numpy(np.int64)),
        })

    def blockers(g: pd.DataFrame) -> pd.DataFrame:
        ps = g.groupby(["o", "s"], as_index=False)["ms"].max()
        agg = ps.groupby("o", as_index=False).agg(mx=("ms", "max"),
                                                  nsup=("s", "size"))
        m = ps.merge(agg, on="o")
        atmax = m[m["ms"] == m["mx"]]
        nmax = atmax.groupby("o")["s"].transform("size")
        win = atmax[(nmax == 1) & (atmax["nsup"] >= 2)]
        return win.groupby("s", as_index=False).agg(n_orders=("o", "size"))

    part = bucket_map(items.map_batches(partial, batch_format="pyarrow"),
                      "o", blockers)
    out = part.groupby("s", as_index=False).agg(
        n_orders=("n_orders", "sum"))

    sup = read(sf_dir, "supplier",
               columns=["s_suppkey", "s_name"]).to_pandas()
    names = np.empty(sup["s_suppkey"].to_numpy(np.int64).max() + 1,
                     dtype=object)
    names[sup["s_suppkey"].to_numpy(np.int64)] = \
        sup["s_name"].to_numpy(object)
    out = pd.DataFrame({"s_name": names[out["s"].to_numpy(np.int64)],
                        "n_orders": out["n_orders"].to_numpy(np.int64)})
    return (out.sort_values(["n_orders", "s_name"],
                            ascending=[False, True], kind="mergesort")
            .head(topn).reset_index(drop=True))


def crm_spend_reconciliation(sf_dir: str,
                             min_acctbal: float = 5000.0) -> pd.DataFrame:
    """FULL OUTER join (the reconciliation shape — every other join in
    this module is inner/semi/anti/left): the CRM's high-balance
    customer list against per-user observed spend, keeping orphans on
    BOTH sides with a status tag. Missing sides surface as -1 (not
    NULL) so the Arrow schema stays int64 end-to-end.

    Ray shape: the events side pre-aggregates to one row per user
    map-side+groupby (partials per block); both relations tag a side
    byte and union; ONE bucketed ``groupby(key % B)`` co-locates keys
    and a vectorized pandas ``merge(how="outer")`` per bucket emits
    matched rows and both orphan kinds — outer-ness is bucket-local
    because the bucket function is total on the key."""
    crm = read(sf_dir, "customer", columns=["c_custkey", "c_acctbal"])
    ev = read(sf_dir, "events", columns=["user_id", "value"])

    def tag_crm(t: pa.Table) -> pa.Table:
        bal = t.column("c_acctbal").to_numpy()
        m = bal >= min_acctbal
        key = t.column("c_custkey").to_numpy().astype(np.int64)[m]
        cents = np.floor(bal[m] * 100).astype(np.int64)
        return pa.table({
            "key": pa.array(key),
            "v": pa.array(cents),
            "side": pa.array(np.zeros(len(key), dtype=np.int8))})

    def tag_spend(t: pa.Table) -> pa.Table:
        key = t.column("user_id").to_numpy().astype(np.int64)
        cents = np.floor(t.column("value").to_numpy() * 100).astype(np.int64)
        ks, inv = np.unique(key, return_inverse=True)
        s = np.zeros(len(ks), dtype=np.int64)
        np.add.at(s, inv, cents)
        return pa.table({
            "key": pa.array(ks),
            "v": pa.array(s),
            "side": pa.array(np.ones(len(ks), dtype=np.int8))})

    def outer(g: pd.DataFrame) -> pd.DataFrame:
        crm_ = g[g["side"] == 0][["key", "v"]].rename(
            columns={"v": "acctbal_cents"})
        sp = (g[g["side"] == 1].groupby("key", as_index=False)["v"].sum()
              .rename(columns={"v": "spend_cents"}))
        m = crm_.merge(sp, on="key", how="outer")
        status = np.where(m["acctbal_cents"].isna(), "events_only",
                          np.where(m["spend_cents"].isna(), "crm_only",
                                   "both"))
        return pd.DataFrame({
            "key": m["key"].to_numpy(np.int64),
            "acctbal_cents": m["acctbal_cents"].fillna(-1)
            .to_numpy(np.int64),
            "spend_cents": m["spend_cents"].fillna(-1).to_numpy(np.int64),
            "status": status})

    out = bucket_map([crm.map_batches(tag_crm, batch_format="pyarrow"),
                      ev.map_batches(tag_spend, batch_format="pyarrow")],
                     "key", outer)
    return (out.sort_values("key", kind="mergesort")
            .reset_index(drop=True)
            .astype({"key": "int64", "acctbal_cents": "int64",
                     "spend_cents": "int64"}))


def orders_monthly_growth(sf_dir: str) -> pd.DataFrame:
    """Window-over-aggregate composition: monthly order revenue with
    month-over-month delta (the LAG-on-a-rollup shape every BI layer
    asks for). The rollup is one grouped aggregate (partials per
    block); the monthly series is tiny, so the LAG resolves on the
    driver — exactly where a series of |months| rows belongs at any
    data scale."""
    orders = read(sf_dir, "orders",
                  columns=["o_orderdate", "o_totalprice"])

    def derive(t: pa.Table) -> pa.Table:
        od = t.column("o_orderdate").to_numpy().astype("datetime64[M]")
        y = od.astype("datetime64[Y]").astype(np.int64) + 1970
        m = od.astype(np.int64) % 12 + 1
        cents = np.floor(t.column("o_totalprice").to_numpy()
                         * 100).astype(np.int64)
        return pa.table({"year": pa.array(y), "month": pa.array(m),
                         "cents": pa.array(cents)})

    agg = (orders.map_batches(derive, batch_format="pyarrow")
           .groupby(["year", "month"])
           .aggregate(Sum("cents", alias_name="revenue_cents"))
           .to_pandas()
           .sort_values(["year", "month"], kind="mergesort")
           .reset_index(drop=True))
    rev = agg["revenue_cents"].to_numpy(np.int64)
    prev = np.concatenate(([0], rev[:-1]))
    delta = np.where(np.arange(len(rev)) == 0, 0, rev - prev)
    return pd.DataFrame({
        "year": agg["year"].to_numpy(np.int64),
        "month": agg["month"].to_numpy(np.int64),
        "revenue_cents": rev,
        "mom_delta_cents": delta.astype(np.int64)})


def customer_rfm(sf_dir: str) -> pd.DataFrame:
    """RFM segmentation (recency / frequency / monetary — the classic
    customer-scoring rollup): per customer, days since last order
    (relative to the corpus max date), order count, and lifetime spend
    cents, each scored into deterministic quartiles. NTILE's tie
    handling is engine-defined, so quartiles use the explicit integer
    formula ``1 + (rownum-1)·4 // n`` over the (metric, custkey) total
    order — bit-identical in SQL and numpy.

    Ray shape: one bucketed per-customer rollup (the only exchange);
    the per-customer table is dimension-scale, so the three global
    rankings run on the driver with ``np.lexsort`` — at a scale where
    they don't fit, each becomes a distributed sort + per-block offset
    scan (same total order, same formula)."""
    orders = read(sf_dir, "orders",
                  columns=["o_custkey", "o_orderdate", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        ck = t.column("o_custkey").to_numpy().astype(np.int64)
        od = t.column("o_orderdate").to_numpy() \
            .astype("datetime64[D]").astype(np.int64)
        cents = np.floor(t.column("o_totalprice").to_numpy()
                         * 100).astype(np.int64)
        ks, inv = np.unique(ck, return_inverse=True)
        last = np.full(len(ks), np.iinfo(np.int64).min, dtype=np.int64)
        np.maximum.at(last, inv, od)
        spend = np.zeros(len(ks), dtype=np.int64)
        np.add.at(spend, inv, cents)
        return pa.table({
            "c": pa.array(ks),
            "last_day": pa.array(last),
            "n_orders": pa.array(np.bincount(inv).astype(np.int64)),
            "spend": pa.array(spend)})

    def reduce_c(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("c", as_index=False).agg(
            last_day=("last_day", "max"), n_orders=("n_orders", "sum"),
            spend=("spend", "sum"))

    cust = bucket_map(orders.map_batches(partial, batch_format="pyarrow"),
                      "c", reduce_c)
    ck = cust["c"].to_numpy(np.int64)
    n = len(cust)
    max_day = int(cust["last_day"].max())
    rec = max_day - cust["last_day"].to_numpy(np.int64)

    def quartile(metric: np.ndarray, asc: bool) -> np.ndarray:
        order = np.lexsort((ck, metric if asc else -metric))
        rn = np.empty(n, dtype=np.int64)
        rn[order] = np.arange(n, dtype=np.int64)
        return 1 + rn * 4 // n

    out = pd.DataFrame({
        "c_custkey": ck,
        "recency_days": rec,
        "n_orders": cust["n_orders"].to_numpy(np.int64),
        "spend_cents": cust["spend"].to_numpy(np.int64),
        # low recency is GOOD (quartile 4), high freq/monetary are good
        "r_q": quartile(rec, asc=False),
        "f_q": quartile(cust["n_orders"].to_numpy(np.int64), asc=True),
        "m_q": quartile(cust["spend"].to_numpy(np.int64), asc=True)})
    return (out.sort_values("c_custkey", kind="mergesort")
            .reset_index(drop=True))


def orders_retention_cohort(sf_dir: str) -> pd.DataFrame:
    """Cohort retention matrix: customers grouped by their FIRST order
    month; for each (cohort_month, months_since_first) the number of
    distinct customers who ordered. Two exchanges, both key-bounded:

    1. per-customer first month — groupby(o_custkey).min over
       map-side-reduced (custkey, min month) partials, so the exchange
       moves <= |customers ∩ block| rows per block;
    2. cohort fold — orders re-join their customer's cohort in a
       bucketed co-partition merge (custkey % 64, same pattern as the
       fact×fact joins above: no broadcast, both sides can be huge),
       emitting pre-deduped (cohort, delta, custkey) rows; the final
       distinct-count is the pair-dedup + tiny count shape from
       ``users_per_event_type``.

    Months are encoded as (year*12 + month_index) so 'months since
    first' is integer subtraction — identical arithmetic in the SQL
    twin."""
    ds = read(sf_dir, "orders", columns=["o_custkey", "o_orderdate"])

    def derive(t: pa.Table) -> pa.Table:
        ts = t.column("o_orderdate").cast(pa.int64()).to_numpy()
        days = ts // 86_400_000_000
        d = pd.to_datetime(days, unit="D")
        mon = (d.year.to_numpy() * 12 + d.month.to_numpy() - 1) \
            .astype(np.int64)
        cust = t.column("o_custkey").to_numpy().astype(np.int64)
        g = pd.DataFrame({"c": cust, "m": mon}).groupby(
            ["c", "m"], as_index=False).size()
        return pa.table({
            "c": pa.array(g["c"].to_numpy(np.int64)),
            "m": pa.array(g["m"].to_numpy(np.int64))})

    def cohort_fold(g: pd.DataFrame) -> pa.Table:
        # Arrow output — pandas blocks would put the next groupby on
        # Ray's pandas sort path (measured ~20× slower)
        first = g.groupby("c", as_index=False)["m"].min() \
            .rename(columns={"m": "m0"})
        j = g.merge(first, on="c")
        j["delta"] = j["m"] - j["m0"]
        out = j.drop_duplicates(["m0", "delta", "c"])
        out = (out.groupby(["m0", "delta"], as_index=False)
               .agg(n_customers=("c", "size")))
        return pa.Table.from_pandas(out, preserve_index=False)

    part = bucket_groups(ds.map_batches(derive, batch_format="pyarrow"),
                         "c", cohort_fold)
    out = (part.groupby(["m0", "delta"])
           .aggregate(Sum("n_customers", alias_name="n_customers"))
           .to_pandas()
           .rename(columns={"m0": "cohort_month",
                            "delta": "months_since"}))
    return (out.sort_values(["cohort_month", "months_since"],
                            kind="mergesort")
            .reset_index(drop=True)
            .astype({"cohort_month": "int64", "months_since": "int64",
                     "n_customers": "int64"}))


def part_pair_support(sf_dir: str, min_support: int = 2) -> pd.DataFrame:
    """Market-basket frequent 2-itemsets: pairs of parts that appear in
    the same order at least ``min_support`` times (A-priori's candidate
    step, the workhorse of co-purchase mining). Ray shape: dedupe
    (order, part) per block, one ``groupby(order % B)`` exchange to
    co-locate each order's lines, then VECTORIZED pair expansion per
    bucket — parts sorted within order, and for each offset d the pairs
    (p[i], p[i+d]) with both rows in the same order are emitted by one
    full-array compare, so the loop runs over the max lines-per-order
    (~7), never over rows. Pair counts are pre-aggregated inside the
    bucket, so the second exchange moves |distinct pairs ∩ bucket| rows.
    At 100 TB the basket-size bound keeps the pair blow-up linear in
    input (k lines → k(k-1)/2 ≤ 21 pairs); a pathological mega-basket
    would be capped or salted before expansion. SQL twin: distinct
    self-join on orderkey with a < b, GROUP BY HAVING."""
    ds = read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def derive(t: pa.Table) -> pa.Table:
        g = pd.DataFrame({
            "o": t.column("l_orderkey").to_numpy().astype(np.int64),
            "p": t.column("l_partkey").to_numpy().astype(np.int64),
        }).drop_duplicates()
        return pa.table({
            "o": pa.array(g["o"].to_numpy()),
            "p": pa.array(g["p"].to_numpy())})

    def pairs(g: pd.DataFrame) -> pa.Table:
        # returns an ARROW table: a pandas-block output feeding the next
        # groupby put the whole fold exchange on Ray's pandas sort path,
        # measured ~20× slower than the Arrow path on identical data
        g = (g.drop_duplicates(["o", "p"])
             .sort_values(["o", "p"], kind="mergesort"))
        o = g["o"].to_numpy()
        p = g["p"].to_numpy()
        a_parts, b_parts = [], []
        d = 1
        while d < len(o):
            m = o[:-d] == o[d:]
            if not m.any():
                break
            a_parts.append(p[:-d][m])
            b_parts.append(p[d:][m])
            d += 1
        if not a_parts:
            return pa.table({"pair": pa.array([], type=pa.int64()),
                             "n": pa.array([], type=pa.int64())})
        out = pd.DataFrame({"pair": np.concatenate(a_parts) * (1 << 32)
                            + np.concatenate(b_parts)})
        out = out.groupby("pair", as_index=False).size() \
            .rename(columns={"size": "n"})
        return pa.Table.from_pandas(out, preserve_index=False)

    def reduce_pairs(g: pd.DataFrame) -> pa.Table:
        out = g.groupby("pair", as_index=False)["n"].sum()
        return pa.Table.from_pandas(out, preserve_index=False)

    # single int64 pair key + bucketed reduce: Ray's multi-key
    # aggregate pays per GROUP, and distinct pairs are near
    # input-sized here — 64 map_groups with one vectorized pandas
    # reduce each fold the same data ~20× faster (same pattern as
    # dedup.ngram_top_pairs)
    part = bucket_map(
        bucket_groups(ds.map_batches(derive, batch_format="pyarrow"),
                      "o", pairs),
        "pair", reduce_pairs)
    out = part.rename(columns={"n": "support"})
    out = out[out["support"] >= min_support]
    pair = out["pair"].to_numpy(np.int64)
    out = pd.DataFrame({"part_a": pair >> 32,
                        "part_b": pair & ((1 << 32) - 1),
                        "support": out["support"].to_numpy(np.int64)})
    return (out.sort_values(["support", "part_a", "part_b"],
                            ascending=[False, True, True],
                            kind="mergesort")
            .reset_index(drop=True)
            .astype({"part_a": "int64", "part_b": "int64",
                     "support": "int64"}))


def customer_part_jaccard(sf_dir: str, topn: int = 50) -> pd.DataFrame:
    """Set-similarity self-join (Vernica et al., SIGMOD'10 shape): the
    ``topn`` customer pairs with the highest Jaccard similarity between
    their purchased-part sets. Three bounded stages:

    1. purchases — orders ⨝ lineitem on orderkey (bucketed co-partition
       merge, both sides fact-sized), deduped to (custkey, partkey);
    2. inverted index — bucket by partkey, VECTORIZED pair expansion
       per part (offset-d compare, same kernel as ``part_pair_support``)
       with per-bucket pre-aggregation, one groupby-sum to fold the
       intersection counts; at 100 TB a Zipf-hot part would be prefix-
       filtered (only each vector's rarest tokens index) or capped
       before expansion — the exchange then moves candidate pairs, not
       all-pairs;
    3. scoring — per-customer set sizes are dimension-sized, so they
       broadcast (``ray.put`` array indexed by custkey) into one
       vectorized map over the intersection table:
       jaccard = |A∩B| / (|A| + |B| - |A∩B|).

    Jaccard is ONE float64 division of exact int64 counts on both
    sides, so the SQL twin matches bit-exactly; tie-break
    (jaccard DESC, cust_a, cust_b) pins the top-n cut."""
    orders = read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    items = read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def tag_orders(t: pa.Table) -> pa.Table:
        key = t.column("o_orderkey").to_numpy().astype(np.int64)
        return pa.table({
            "key": pa.array(key),
            "val": pa.array(t.column("o_custkey").to_numpy()
                            .astype(np.int64)),
            "side": pa.array(np.zeros(len(t), dtype=np.int8))})

    def tag_items(t: pa.Table) -> pa.Table:
        key = t.column("l_orderkey").to_numpy().astype(np.int64)
        return pa.table({
            "key": pa.array(key),
            "val": pa.array(t.column("l_partkey").to_numpy()
                            .astype(np.int64)),
            "side": pa.array(np.ones(len(t), dtype=np.int8))})

    def purchase_join(g: pd.DataFrame) -> pa.Table:
        # Arrow output: pandas blocks into the next groupby put the
        # exchange on Ray's pandas sort path (measured ~20× slower)
        left = g[g["side"] == 0][["key", "val"]].rename(
            columns={"val": "c"})
        right = g[g["side"] == 1][["key", "val"]].rename(
            columns={"val": "p"})
        m = right.merge(left, on="key")[["c", "p"]].drop_duplicates()
        cp = (m["c"].to_numpy(np.int64) * (1 << 32)
              + m["p"].to_numpy(np.int64))
        return pa.table({
            "cp": pa.array(cp),
            "pbucket": pa.array((m["p"].to_numpy(np.int64)
                                 % BUCKETS).astype(np.int32))})

    def dedup_cp(g: pd.DataFrame) -> pa.Table:
        cp = np.unique(g["cp"].to_numpy(np.int64))
        return pa.table({"c": pa.array(cp >> 32),
                         "p": pa.array(cp & ((1 << 32) - 1)),
                         "pbucket": pa.array(
                             np.full(len(cp), int(g["pbucket"].iloc[0]),
                                     dtype=np.int32))})

    # a (c, p) pair repeats across ORDER buckets when the customer buys
    # the same part in different orders — the set semantics need one
    # global distinct. Packed single int64 key + bucketed np.unique
    # (distinct pairs are near input-sized; Ray's aggregate pays per
    # group). Bucketing by p co-locates each part's rows for the pair
    # expansion AND dedupes in the same exchange. Materialized: both
    # the pair expansion and the set-size fold consume it, and an
    # unmaterialized Dataset re-executes its whole upstream per
    # consumer.
    purchases = (bucket_groups(
        [orders.map_batches(tag_orders, batch_format="pyarrow"),
         items.map_batches(tag_items, batch_format="pyarrow")],
        "key", purchase_join)
        .groupby("pbucket").map_groups(dedup_cp, batch_format="pandas")
        .materialize())

    def cust_pairs(g: pd.DataFrame) -> pa.Table:
        g = (g.drop_duplicates(["p", "c"])
             .sort_values(["p", "c"], kind="mergesort"))
        p = g["p"].to_numpy()
        c = g["c"].to_numpy()
        a_c, b_c = [], []
        d = 1
        while d < len(p):
            m = p[:-d] == p[d:]
            if not m.any():
                break
            a_c.append(c[:-d][m])
            b_c.append(c[d:][m])
            d += 1
        if not a_c:
            return pa.table({"pair": pa.array([], type=pa.int64()),
                             "n": pa.array([], type=pa.int64())})
        out = pd.DataFrame({"pair": np.concatenate(a_c) * (1 << 32)
                            + np.concatenate(b_c)})
        out = out.groupby("pair", as_index=False).size() \
            .rename(columns={"size": "n"})
        return pa.Table.from_pandas(out, preserve_index=False)

    def reduce_pairs(g: pd.DataFrame) -> pa.Table:
        out = g.groupby("pair", as_index=False)["n"].sum() \
            .rename(columns={"n": "n_common"})
        return pa.Table.from_pandas(out, preserve_index=False)

    # single int64 pair key + bucketed reduce: distinct customer pairs
    # are near input-sized, and Ray's multi-key aggregate pays per
    # group — 64 vectorized pandas reduces fold the same data ~20×
    # faster (same pattern as dedup.ngram_top_pairs)
    inter = bucket_groups(
        purchases.groupby("pbucket").map_groups(cust_pairs,
                                                batch_format="pandas"),
        "pair", reduce_pairs)

    # Set sizes are customer-dimension-sized, so fold them as fixed-size
    # dense bincount partials (one vector per block, summed on the
    # driver) instead of a Ray groupby — the aggregate pays ~60 µs per
    # group, which is 3.7 s for 15k customers vs 0.2 s for this fold.
    n_cust = int(read(sf_dir, "customer", columns=["c_custkey"])
                 .max("c_custkey"))

    def size_partial(t: pa.Table) -> pa.Table:
        c = t.column("c").to_numpy().astype(np.int64)
        cnt = np.bincount(c, minlength=n_cust + 1).astype(np.int64)
        return pa.table({"v": pa.array([cnt.tobytes()],
                                       type=pa.large_binary())})

    sz = np.zeros(n_cust + 1, dtype=np.int64)
    for row in (purchases.map_batches(size_partial,
                                      batch_format="pyarrow")
                .take_all()):
        sz += np.frombuffer(row["v"], dtype=np.int64)
    sz_ref = ray.put(sz)

    def score_topn(t: pa.Table) -> pa.Table:
        # per-batch top-n prefilter under the full tie-break order —
        # the global top-n rows are each inside their batch's top-n, so
        # the driver merges ~topn × blocks rows instead of sorting the
        # whole 8.5M-pair intersection table
        s = ray.get(sz_ref)
        pair = t.column("pair").to_numpy().astype(np.int64)
        a = pair >> 32
        b = pair & ((1 << 32) - 1)
        i = t.column("n_common").to_numpy().astype(np.int64)
        jac = i.astype(np.float64) / (s[a] + s[b] - i)
        if len(jac) > topn:
            kth = np.partition(jac, len(jac) - topn)[len(jac) - topn]
            keep = jac >= kth  # keep boundary ties for the lexsort cut
            a, b, i, jac = a[keep], b[keep], i[keep], jac[keep]
        order = np.lexsort((b, a, -jac))[:topn]
        return pa.table({"cust_a": pa.array(a[order]),
                         "cust_b": pa.array(b[order]),
                         "n_common": pa.array(i[order]),
                         "jaccard": pa.array(jac[order])})

    scored = inter.map_batches(score_topn, batch_format="pyarrow") \
        .to_pandas()
    out = (scored.sort_values(["jaccard", "cust_a", "cust_b"],
                              ascending=[False, True, True],
                              kind="mergesort")
           .head(topn).reset_index(drop=True))
    return out.astype({"cust_a": "int64", "cust_b": "int64",
                       "n_common": "int64"})


def purchase_attribution(sf_dir: str, window_days: int = 7) -> pd.DataFrame:
    """Linear multi-touch attribution — the windowed many-to-many
    companion of :func:`purchase_click_asof` (which is last-touch): every
    ``purchase`` splits its value EQUALLY across the same user's
    ``click`` events in the preceding window ``[ts-W, ts)``. Shares are
    integer micros (``cents·10^6 // n_clicks``), so per-click sums are
    order-invariant and the DuckDB twin (windowed COUNT over the range
    join) matches bit-exactly.

    Cluster shape: ONE exchange (hash-bucket both streams by user), then
    per bucket both sides sort once by a packed (user, ts) int64 key,
    every purchase resolves its click range with two vectorized binary
    searches, and the per-click fold is a difference-array + cumsum —
    no per-purchase loop, per-bucket memory |events|/B. Skewed users
    salt like hot hosts in the politeness scheduler."""
    ev = read(sf_dir, "events",
              columns=["event_id", "ts", "user_id", "event_type",
                       "value"])
    W = window_days * 86_400_000_000

    def tag(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t.column("event_type"),
                        value_set=pa.array(["click", "purchase"]))
        t = t.filter(keep)
        uid = t.column("user_id").to_numpy().astype(np.int64)
        side = (np.asarray(t.column("event_type")) == "purchase").astype(
            np.int8)
        cents = np.floor(t.column("value").to_numpy() * 100).astype(
            np.int64)
        return pa.table({
            "event_id": t.column("event_id"),
            "ts_us": t.column("ts").cast(pa.int64()),
            "user_id": pa.array(uid),
            "side": pa.array(side),
            "cents": pa.array(cents)})

    def attrib(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "click_id": pd.Series([], dtype="int64"),
            "user_id": pd.Series([], dtype="int64"),
            "attributed_micros": pd.Series([], dtype="int64")})
        c = g[g["side"] == 0]
        p = g[g["side"] == 1]
        if c.empty or p.empty:
            return empty
        cu = c["user_id"].to_numpy(np.int64)
        cts = c["ts_us"].to_numpy(np.int64)
        cid = c["event_id"].to_numpy(np.int64)
        order = np.lexsort((cts, cu))
        cu, cts, cid = cu[order], cts[order], cid[order]
        pu = p["user_id"].to_numpy(np.int64)
        pts = p["ts_us"].to_numpy(np.int64)
        pcents = p["cents"].to_numpy(np.int64)
        tmin = min(int(cts.min()), int(pts.min()))
        span = max(int(cts.max()), int(pts.max())) - tmin
        assert span < (1 << 48), "ts span exceeds packed-key budget"
        ckey = (cu << 48) | (cts - tmin)
        lo = np.searchsorted(
            ckey, (pu << 48) | (np.maximum(pts - W, tmin) - tmin))
        hi = np.searchsorted(ckey, (pu << 48) | (pts - tmin))
        n = hi - lo
        m = n > 0
        if not m.any():
            return empty
        share = (pcents[m] * 1_000_000) // n[m]
        diff = np.zeros(len(ckey) + 1, dtype=np.int64)
        np.add.at(diff, lo[m], share)
        np.add.at(diff, hi[m], -share)
        att = np.cumsum(diff[:-1])
        keep = att > 0
        return pd.DataFrame({"click_id": cid[keep],
                             "user_id": cu[keep],
                             "attributed_micros": att[keep]})

    out = bucket_map(ev.map_batches(tag, batch_format="pyarrow"),
                     "user_id", attrib)
    return (out.sort_values("click_id", kind="mergesort")
            .reset_index(drop=True)
            .astype({"click_id": "int64", "user_id": "int64",
                     "attributed_micros": "int64"}))


def part_substitutes(sf_dir: str) -> pd.DataFrame:
    """Structured-blocking similarity self-join: candidate substitute
    part pairs share (p_type, p_size) and have retail prices within 10%
    of the cheaper one (exact integer cross-multiplication — ten times
    the absolute cent gap at most the smaller price). The blocking key
    bounds the quadratic step: ONE ``groupby(md5(type|size) % B)``
    exchange co-locates each block (deterministic digest — never
    Python's per-process ``hash``), and the in-bucket all-pairs
    expansion is a vectorized repeat kernel (each row pairs with every
    later row of its segment; pair count is Σ group², profiled max
    group ~88 rows here; a skewed block would salt or cap like the
    other self-joins document). Output: ordered pairs (p1 < p2 by
    partkey within the sorted segment) with both prices."""
    import hashlib

    ds = read(sf_dir, "part",
              columns=["p_partkey", "p_type", "p_size",
                       "p_retailprice"])

    def derive(t: pa.Table) -> pa.Table:
        types = t.column("p_type").to_pylist()
        sizes = t.column("p_size").to_numpy(zero_copy_only=False)
        blk = [f"{a}|{int(b)}" for a, b in zip(types, sizes)]
        cents = np.floor(t.column("p_retailprice").to_numpy() * 100) \
            .astype(np.int64)
        return pa.table({
            "p_partkey": t.column("p_partkey"),
            "blk": pa.array(blk),
            "cents": pa.array(cents)})

    def blk_hash(t: pa.Table) -> np.ndarray:
        return np.array([int.from_bytes(
            hashlib.md5(k.encode()).digest()[:8], "little") & ((1 << 62) - 1)
            for k in t.column("blk").to_pylist()], dtype=np.int64)

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"p1": pd.array([], dtype="int64"),
                              "p2": pd.array([], dtype="int64"),
                              "c1": pd.array([], dtype="int64"),
                              "c2": pd.array([], dtype="int64")})
        if not len(g):
            return empty
        codes, _ = pd.factorize(g["blk"].to_numpy(), sort=True)
        pk = g["p_partkey"].to_numpy(np.int64)
        c = g["cents"].to_numpy(np.int64)
        order = np.lexsort((pk, codes))
        codes, pk, c = codes[order], pk[order], c[order]
        first = run_starts(codes)
        idx = np.arange(len(codes))
        starts = np.flatnonzero(first)
        seg_len = np.diff(np.append(starts, len(codes)))
        seg_end = np.repeat(starts + seg_len, seg_len)  # exclusive
        rep = seg_end - idx - 1                          # pairs per row
        if int(rep.sum()) == 0:
            return empty
        a = np.repeat(idx, rep)
        run_off = np.concatenate(([0], np.cumsum(rep)))[:-1]
        b = np.arange(int(rep.sum())) - np.repeat(run_off, rep) \
            + a + 1
        ca, cb = c[a], c[b]
        keep = np.abs(ca - cb) * 10 <= np.minimum(ca, cb)
        return pd.DataFrame({"p1": pk[a][keep], "p2": pk[b][keep],
                             "c1": ca[keep], "c2": cb[keep]})

    out = bucket_map(ds.map_batches(derive, batch_format="pyarrow"),
                     blk_hash, pairs)
    return (out.sort_values(["p1", "p2"], kind="mergesort")
            .reset_index(drop=True)
            .astype({c: "int64" for c in out.columns}))


def part_triple_support(sf_dir: str, topn: int = 100) -> pd.DataFrame:
    """Frequent 3-itemsets (the A-priori step after
    ``part_pair_support``): the ``topn`` part triples co-occurring in
    the most orders, fully tie-broken by (support DESC, p1, p2, p3).
    Ray shape: dedupe (order, part) per block, ONE ``groupby(order %
    B)`` exchange co-locates each basket, then the triple expansion is
    vectorized over BASKET SIZES, not rows — np.unique on the packed
    (order, part) key delivers per-order sorted parts, and for each
    distinct basket size n (≤ ~17 here) one gather builds an (orders_n
    × n) matrix and one fancy-index applies the C(n,3) combination
    template to all of them at once. Triples pack into one int64
    (partkey < 2^21 per 21-bit lane — at larger key ranges widen to two
    lanes), are pre-counted per bucket, re-bucketed by triple hash for
    the exact count, and each reduce bucket ships only its local top-N
    under the FULL output order, so the driver merges ≤ B·topn rows.
    The k-basket bound keeps the blow-up linear: n lines → C(n,3) ≤ 680
    triples; a pathological mega-basket would be capped before
    expansion. SQL twin: distinct triple self-join, GROUP BY, LIMIT."""
    from itertools import combinations

    ds = read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def derive(t: pa.Table) -> pa.Table:
        o = t.column("l_orderkey").to_numpy().astype(np.int64)
        p = t.column("l_partkey").to_numpy().astype(np.int64)
        pk = np.unique(o * (1 << 21) + p)
        return pa.table({"pk": pa.array(pk)})

    def triples(g: pd.DataFrame) -> pa.Table:
        pk = np.unique(g["pk"].to_numpy(np.int64))  # cross-block dedup
        oo, pp = pk >> 21, pk & ((1 << 21) - 1)
        new = run_starts(oo)
        starts = np.flatnonzero(new)
        lens = np.append(starts[1:], len(pk)) - starts
        outs = []
        for n in np.unique(lens[lens >= 3]):
            sel = starts[lens == n]
            mat = pp[sel[:, None] + np.arange(int(n))]
            comb = np.array(list(combinations(range(int(n)), 3)))
            outs.append((mat[:, comb[:, 0]] * (1 << 42)
                         + mat[:, comb[:, 1]] * (1 << 21)
                         + mat[:, comb[:, 2]]).ravel())
        if not outs:
            return pa.table({"triple": pa.array([], type=pa.int64()),
                             "n": pa.array([], type=pa.int64())})
        tri, cnt = np.unique(np.concatenate(outs), return_counts=True)
        return pa.table({"triple": pa.array(tri),
                         "n": pa.array(cnt.astype(np.int64))})

    def reduce_top(g: pd.DataFrame) -> pa.Table:
        out = g.groupby("triple", as_index=False)["n"].sum()
        # local top-N under the EXACT global order (support desc, then
        # packed triple asc — the pack preserves (p1, p2, p3) order), so
        # the driver merge sees ≤ B·topn rows
        out = out.sort_values(["n", "triple"], ascending=[False, True],
                              kind="mergesort").head(topn)
        return pa.Table.from_pandas(out, preserve_index=False)

    out = bucket_map(
        bucket_groups(ds.map_batches(derive, batch_format="pyarrow"),
                      lambda t: t.column("pk").to_numpy() >> 21, triples),
        "triple", reduce_top)
    out = out.sort_values(["n", "triple"], ascending=[False, True],
                          kind="mergesort").head(topn)
    tri = out["triple"].to_numpy(np.int64)
    return pd.DataFrame({
        "p1": tri >> 42, "p2": (tri >> 21) & ((1 << 21) - 1),
        "p3": tri & ((1 << 21) - 1),
        "support": out["n"].to_numpy(np.int64)}).astype("int64")


def orders_open_backlog(sf_dir: str) -> pd.DataFrame:
    """Daily open-order backlog: for every day in the horizon, how many
    orders were placed but not yet fully shipped (orderdate ≤ day ≤
    last lineitem shipdate) — the operations-dashboard WIP curve, and
    an interval-overlap count that would be a quadratic day×order join
    done naively. Ray shape: per-block candidate partials collapse
    lineitem to (orderkey, max shipdate) — ≤1 row per order per block —
    then orders and the shipdate partials co-partition on ONE
    ``groupby(orderkey % B)`` exchange (side tag distinguishes them);
    each bucket resolves exact per-order [start_day, end_day] intervals
    with a packed-key unique + reduceat, and folds them into ±1 marks
    on a difference array over the global day grid, so the driver sums
    B fixed-width day vectors and one cumsum yields the curve. Day
    bounds come from a tiny metadata-sized partial pass. SQL twin:
    generate_series day spine LEFT JOIN BETWEEN."""
    items = read(sf_dir, "lineitem", columns=["l_orderkey", "l_shipdate"])
    orders = read(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"])
    DAY_US = 86_400_000_000

    def ship_part(t: pa.Table) -> pa.Table:
        o = t.column("l_orderkey").to_numpy().astype(np.int64)
        d = t.column("l_shipdate").cast(pa.int64()).to_numpy() // DAY_US
        uk, inv = np.unique(o, return_inverse=True)
        mx = np.full(len(uk), -1, dtype=np.int64)
        np.maximum.at(mx, inv, d)
        return pa.table({
            "ok": pa.array(uk), "day": pa.array(mx),
            "side": pa.array(np.zeros(len(uk), dtype=np.int8))})

    def order_part(t: pa.Table) -> pa.Table:
        o = t.column("o_orderkey").to_numpy().astype(np.int64)
        d = t.column("o_orderdate").cast(pa.int64()).to_numpy() // DAY_US
        return pa.table({
            "ok": pa.array(o), "day": pa.array(d),
            "side": pa.array(np.ones(len(o), dtype=np.int8))})

    both = (items.map_batches(ship_part, batch_format="pyarrow")
            .union(orders.map_batches(order_part, batch_format="pyarrow"))
            .materialize())

    mm = both.map_batches(
        lambda t: pa.table({
            "lo": pa.array([int(t.column("day").to_numpy().min())]),
            "hi": pa.array([int(t.column("day").to_numpy().max())])}),
        batch_format="pyarrow").to_pandas()
    day_lo, day_hi = int(mm["lo"].min()), int(mm["hi"].max())
    nd = day_hi - day_lo + 1

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        ok = g["ok"].to_numpy(np.int64)
        day = g["day"].to_numpy(np.int64)
        side = g["side"].to_numpy(np.int8)
        # exact per-order end = max over ship partials; start from the
        # (unique) orders row — orders without lines contribute no end
        # and are dropped (inner-join semantics, matches the SQL twin)
        uk, inv = np.unique(ok, return_inverse=True)
        end = np.full(len(uk), -1, dtype=np.int64)
        np.maximum.at(end, inv[side == 0], day[side == 0])
        start = np.full(len(uk), -1, dtype=np.int64)
        start[inv[side == 1]] = day[side == 1]
        m = (end >= 0) & (start >= 0) & (end >= start)
        diff = np.zeros(nd + 1, dtype=np.int64)
        np.add.at(diff, start[m] - day_lo, 1)
        np.add.at(diff, end[m] - day_lo + 1, -1)
        return pd.DataFrame({"day_off": np.arange(nd, dtype=np.int64),
                             "d": diff[:nd]})

    parts = bucket_map(both, "ok", fold)
    agg = parts.groupby("day_off", as_index=False)["d"].sum()
    return pd.DataFrame({
        "day_id": agg["day_off"].to_numpy(np.int64) + day_lo,
        "open_orders": np.cumsum(agg["d"].to_numpy(np.int64))
    }).astype("int64")


def orders_pivot_priority(sf_dir: str) -> pd.DataFrame:
    """Long→wide pivot (the inverse of ``lineitem_unpivot``): monthly
    order counts spread into one column per priority class plus the
    month's total revenue. The finest grain (year, month, priority) is
    ~60×5 cells, so per-block partials fold on the driver and the
    pivot itself is a constant-size reshape — no shuffle, no pivot
    operator needed at any scale because the OUTPUT is small by
    construction. SQL twin: conditional aggregation (the portable
    PIVOT encoding)."""
    ds = read(sf_dir, "orders",
              columns=["o_orderdate", "o_orderpriority",
                       "o_totalprice"])
    prios = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED",
             "5-LOW"]

    def partial(t: pa.Table) -> pa.Table:
        od = t.column("o_orderdate").to_numpy().astype("datetime64[M]")
        y = od.astype("datetime64[Y]").astype(np.int64) + 1970
        m = od.astype(np.int64) % 12 + 1
        cents = np.floor(t.column("o_totalprice").to_numpy()
                         * 100).astype(np.int64)
        df = pd.DataFrame({
            "year": y, "month": m,
            "prio": t.column("o_orderpriority").to_pandas(),
            "cents": cents})
        out = (df.groupby(["year", "month", "prio"], as_index=False)
               .agg(n=("cents", "size"), rev=("cents", "sum")))
        return pa.Table.from_pandas(out, preserve_index=False)

    cells = (ds.map_batches(partial, batch_format="pyarrow").to_pandas()
             .groupby(["year", "month", "prio"], as_index=False)
             .agg(n=("n", "sum"), rev=("rev", "sum")))
    wide = (cells.pivot_table(index=["year", "month"], columns="prio",
                              values="n", aggfunc="sum", fill_value=0)
            .reindex(columns=prios, fill_value=0))
    wide.columns = [f"n_p{i + 1}" for i in range(len(prios))]
    rev = cells.groupby(["year", "month"])["rev"].sum()
    wide["revenue_cents"] = rev
    return (wide.reset_index()
            .sort_values(["year", "month"], kind="mergesort")
            .reset_index(drop=True).astype("int64"))


def region_nation_rollup(sf_dir: str) -> pd.DataFrame:
    """Hierarchical ROLLUP grouping sets over the dimension chain
    region → nation: order revenue at (region, nation), (region, ALL)
    and (ALL, ALL) levels — the drill-down readout under every BI
    hierarchy. ONE co-partition exchange: orders ⨝ customer on
    ``custkey % B`` (both fact-shaped), with the bucket kernel
    pre-aggregating to (nationkey, cents) partials so the driver folds
    |nations|×|buckets| rows; the nation→region map is dimension-sized
    and the subtotal levels are derived from the 25-cell finest grain
    (same never-shuffle-for-subtotals rule as ``lineitem_cube``).
    SQL twin: GROUP BY ROLLUP + COALESCE."""
    import pyarrow.parquet as pq

    nat = pq.read_table(f"{sf_dir}/nation.parquet")
    reg = pq.read_table(f"{sf_dir}/region.parquet")
    rmap = dict(zip(reg.column("r_regionkey").to_numpy().tolist(),
                    reg.column("r_name").to_pylist()))
    nmap = {int(k): (rmap[int(rk)], nm)
            for k, rk, nm in zip(nat.column("n_nationkey").to_numpy(),
                                 nat.column("n_regionkey").to_numpy(),
                                 nat.column("n_name").to_pylist())}

    cust = read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    orders = read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def tag_cust(t: pa.Table) -> pa.Table:
        key = t.column("c_custkey").to_numpy().astype(np.int64)
        return pa.table({
            "key": pa.array(key),
            "val": pa.array(t.column("c_nationkey").to_numpy()
                            .astype(np.int64)),
            "side": pa.array(np.zeros(len(t), dtype=np.int8))})

    def tag_orders(t: pa.Table) -> pa.Table:
        key = t.column("o_custkey").to_numpy().astype(np.int64)
        cents = np.floor(t.column("o_totalprice").to_numpy()
                         * 100).astype(np.int64)
        return pa.table({
            "key": pa.array(key),
            "val": pa.array(cents),
            "side": pa.array(np.ones(len(t), dtype=np.int8))})

    def join_fold(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == 0][["key", "val"]].rename(
            columns={"val": "nat"})
        right = g[g["side"] == 1][["key", "val"]].rename(
            columns={"val": "cents"})
        m = right.merge(left, on="key")
        return (m.groupby("nat", as_index=False)
                .agg(revenue_cents=("cents", "sum"),
                     n_orders=("cents", "size")))

    parts = bucket_map(
        [cust.map_batches(tag_cust, batch_format="pyarrow"),
         orders.map_batches(tag_orders, batch_format="pyarrow")],
        "key", join_fold)
    fine = parts.groupby("nat", as_index=False).sum()
    fine["region"] = [nmap[int(k)][0] for k in fine["nat"]]
    fine["nation"] = [nmap[int(k)][1] for k in fine["nat"]]
    lvl0 = fine[["region", "nation", "revenue_cents", "n_orders"]]
    lvl1 = (fine.groupby("region", as_index=False)[
                ["revenue_cents", "n_orders"]].sum()
            .assign(nation="ALL"))
    lvl2 = (fine[["revenue_cents", "n_orders"]].sum().to_frame().T
            .assign(region="ALL", nation="ALL"))
    out = pd.concat([lvl0, lvl1, lvl2], ignore_index=True)[
        ["region", "nation", "revenue_cents", "n_orders"]]
    return (out.sort_values(["region", "nation"], kind="mergesort")
            .reset_index(drop=True)
            .astype({"revenue_cents": "int64", "n_orders": "int64"}))


def orders_dow_effect(sf_dir: str) -> pd.DataFrame:
    """Day-of-week seasonality effect on order revenue: per weekday
    (0 = Monday via the pure-integer ``(epoch_days + 3) % 7``
    arithmetic — no calendar library on either side), order count,
    revenue, revenue share and the lift vs a uniform week in exact
    basis points. Constant-size per-block partials (7 cells), zero
    shuffle. SQL twin: the same integer dow expression."""
    ds = read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        days = (t.column("o_orderdate").cast(pa.int64()).to_numpy()
                // 86_400_000_000)
        dow = (days + 3) % 7
        cents = np.floor(t.column("o_totalprice").to_numpy()
                         * 100).astype(np.int64)
        n = np.bincount(dow, minlength=7).astype(np.int64)
        rev = np.bincount(dow, weights=cents, minlength=7) \
            .astype(np.int64)
        return pa.table({"dow": pa.array(np.arange(7, dtype=np.int64)),
                         "n_orders": pa.array(n),
                         "revenue_cents": pa.array(rev)})

    agg = (ds.map_batches(partial, batch_format="pyarrow").to_pandas()
           .groupby("dow", as_index=False).sum())
    rev = agg["revenue_cents"].to_numpy(np.int64)
    tot = int(rev.sum())
    return pd.DataFrame({
        "dow": agg["dow"].to_numpy(np.int64),
        "n_orders": agg["n_orders"].to_numpy(np.int64),
        "revenue_cents": rev,
        "share_bps": rev * 10000 // tot,
        "lift_bps": rev * 7 * 10000 // tot}).astype("int64")


def order_flag_signature(sf_dir: str) -> pd.DataFrame:
    """Order shape mining: each order's return-flag SIGNATURE — the
    concatenation of its lines' ``l_returnflag`` chars under the
    deterministic (l_linenumber, l_returnflag) order — histogrammed
    across the table (the pattern-frequency readout sequence-mining
    jobs start from). The per-order string is never built row-wise:
    within each ``orderkey % 64`` bucket the flags are base-4 packed
    (digit 0 terminates, so no length ambiguity) into ONE int64 per
    order via segment-position arithmetic, uniqued to a
    pattern-cardinality partial (≤ 3^max_lines distinct), and only the
    driver decodes the bounded set of packed values back to strings.
    SQL twin: STRING_AGG(ORDER BY) + GROUP BY."""
    items = read(sf_dir, "lineitem",
                 columns=["l_orderkey", "l_linenumber", "l_returnflag"])
    flags = np.array(["A", "N", "R"])

    def derive(t: pa.Table) -> pa.Table:
        ok = t.column("l_orderkey").to_numpy().astype(np.int64)
        return pa.table({
            "ok": pa.array(ok),
            "ln": t.column("l_linenumber").cast(pa.int64()),
            "fl": t.column("l_returnflag")})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        ok = g["ok"].to_numpy(np.int64)
        ln = g["ln"].to_numpy(np.int64)
        fl = np.asarray(g["fl"].to_numpy(), dtype="U1")
        codes = np.searchsorted(flags, fl).astype(np.int64)
        order = np.lexsort((codes, ln, ok))
        oks, cs = ok[order], codes[order]
        new = run_starts(oks)
        seg = np.cumsum(new) - 1
        idx = np.arange(len(oks), dtype=np.int64)
        pos = idx - idx[new][seg]
        packed = np.zeros(int(seg[-1]) + 1, dtype=np.int64)
        np.add.at(packed, seg, (cs + 1) * (4 ** pos))
        u, c = np.unique(packed, return_counts=True)
        return pd.DataFrame({"packed": u, "n_orders": c.astype(np.int64)})

    parts = bucket_map(items.map_batches(derive, batch_format="pyarrow"),
                       "ok", fold)
    agg = parts.groupby("packed", as_index=False)["n_orders"].sum()

    def decode(p: int) -> str:
        out = []
        while p:
            out.append("ANR"[p % 4 - 1])
            p //= 4
        return "".join(out)

    sig = agg["packed"].map(decode)
    out = pd.DataFrame({
        "sig": sig,
        "n_lines": sig.str.len().astype("int64"),
        "n_orders": agg["n_orders"].astype("int64")})
    return (out.sort_values("sig", kind="mergesort")
            .reset_index(drop=True))


def nation_trade_balance(sf_dir: str) -> pd.DataFrame:
    """Trade-balance matrix rollup: per nation, EXPORT revenue (its
    suppliers' line revenue), IMPORT revenue (its customers' order-line
    revenue) and the net balance, exact cents — the economics readout
    over the full fact table (domestic flows count on both sides and
    cancel in the balance). Same scale shape as ``q7_nation_volume``:
    ONE lineitem⋈orders fact-fact exchange co-partitioned on
    ``orderkey % 64``; supplier→nation / customer→nation are
    dimension-sized dense LUTs broadcast once via ``ray.put``; each
    bucket emits ≤ 2·|nations| partial rows. Every nation appears
    (zero-filled), mirroring the twin's LEFT JOIN from the dimension."""
    nation = read(sf_dir, "nation",
                  columns=["n_nationkey", "n_name"]).to_pandas()
    nk = nation["n_nationkey"].to_numpy(np.int64)

    supp = read(sf_dir, "supplier",
                columns=["s_suppkey", "s_nationkey"]).to_pandas()
    sk = supp["s_suppkey"].to_numpy(np.int64)
    s_nat = dense_lookup(sk, supp["s_nationkey"].to_numpy(np.int64))

    cust = read(sf_dir, "customer",
                columns=["c_custkey", "c_nationkey"]).to_pandas()
    ck = cust["c_custkey"].to_numpy(np.int64)
    c_nat = dense_lookup(ck, cust["c_nationkey"].to_numpy(np.int64))

    ref = ray.put((s_nat, c_nat))

    items = read(sf_dir, "lineitem",
                 columns=["l_orderkey", "l_suppkey", "l_extendedprice"])
    orders = read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])

    def tag_items(t: pa.Table) -> pa.Table:
        key = t.column("l_orderkey").to_numpy().astype(np.int64)
        return pa.table({
            "key": pa.array(key),
            "aux": pa.array(t.column("l_suppkey").to_numpy()
                            .astype(np.int64)),
            "cents": pa.array(
                np.floor(t.column("l_extendedprice").to_numpy() * 100)
                .astype(np.int64)),
            "side": pa.array(np.ones(len(key), dtype=np.int8))})

    def tag_orders(t: pa.Table) -> pa.Table:
        key = t.column("o_orderkey").to_numpy().astype(np.int64)
        return pa.table({
            "key": pa.array(key),
            "aux": pa.array(t.column("o_custkey").to_numpy()
                            .astype(np.int64)),
            "cents": pa.array(np.zeros(len(key), dtype=np.int64)),
            "side": pa.array(np.zeros(len(key), dtype=np.int8))})

    nmax = int(nk.max()) + 1

    def bucket_join(g: pd.DataFrame) -> pd.DataFrame:
        s_nat_, c_nat_ = ray.get(ref)
        left = g[g["side"] == 0][["key", "aux"]] \
            .rename(columns={"aux": "custkey"})
        right = g[g["side"] == 1][["key", "aux", "cents"]] \
            .rename(columns={"aux": "suppkey"})
        m = right.merge(left, on="key")
        if not len(m):
            return pd.DataFrame({"nk": pd.Series([], dtype=np.int64),
                                 "ex": pd.Series([], dtype=np.int64),
                                 "im": pd.Series([], dtype=np.int64)})
        cents = m["cents"].to_numpy(np.int64)
        sn = s_nat_[m["suppkey"].to_numpy(np.int64)]
        cn = c_nat_[m["custkey"].to_numpy(np.int64)]
        return pd.DataFrame({
            "nk": np.arange(nmax, dtype=np.int64),
            "ex": np.bincount(sn, weights=cents, minlength=nmax)
            .astype(np.int64),
            "im": np.bincount(cn, weights=cents, minlength=nmax)
            .astype(np.int64)})

    part = bucket_map([orders.map_batches(tag_orders, batch_format="pyarrow"),
                       items.map_batches(tag_items, batch_format="pyarrow")],
                      "key", bucket_join)
    agg = part.groupby("nk", as_index=False).sum()
    ex = np.zeros(nmax, dtype=np.int64)
    im = np.zeros(nmax, dtype=np.int64)
    ex[agg["nk"].to_numpy(np.int64)] = agg["ex"].to_numpy(np.int64)
    im[agg["nk"].to_numpy(np.int64)] = agg["im"].to_numpy(np.int64)
    out = pd.DataFrame({
        "nation": nation["n_name"].to_numpy(object),
        "export_cents": ex[nk], "import_cents": im[nk],
        "balance_cents": ex[nk] - im[nk]})
    return (out.sort_values("nation", kind="mergesort")
            .reset_index(drop=True)
            .astype({"export_cents": "int64", "import_cents": "int64",
                     "balance_cents": "int64"}))


def customer_balance_deciles(sf_dir: str) -> pd.DataFrame:
    """Revenue by customer BALANCE DECILE — the value-segmentation
    report ('do rich-balance customers buy more'): customers are
    ranked by (acctbal cents, custkey) and cut into exact NTILE-rule
    deciles ``10·(rank−1) // n``, then order revenue rolls up per
    decile in exact cents with bps shares. The customer table is the
    DIMENSION side: deciles are computed once on the driver and
    broadcast as a dense custkey→decile LUT (at 100 TB the dimension
    is still millions, not billions); the orders fact side then needs
    only a 10-cell bincount per block — ZERO shuffle on the fact
    table."""
    cust = read(sf_dir, "customer",
                columns=["c_custkey", "c_acctbal"]).to_pandas()
    ck = cust["c_custkey"].to_numpy(np.int64)
    cents = np.floor(cust["c_acctbal"].to_numpy() * 100).astype(np.int64)
    n = len(ck)
    order = np.lexsort((ck, cents))
    dec = np.empty(n, dtype=np.int64)
    dec[order] = 10 * np.arange(n, dtype=np.int64) // n
    lut = dense_lookup(ck, dec)
    n_cust = np.bincount(dec, minlength=10).astype(np.int64)
    ref = ray.put(lut)

    orders = read(sf_dir, "orders",
                  columns=["o_custkey", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        lut_ = ray.get(ref)
        d = lut_[t.column("o_custkey").to_numpy().astype(np.int64)]
        rev = np.floor(t.column("o_totalprice").to_numpy() * 100) \
            .astype(np.int64)
        return pa.table({"rv": pa.array(
            [np.bincount(d, weights=rev, minlength=10)
             .astype(np.int64).tobytes()], type=pa.large_binary())})

    rows = orders.map_batches(partial, batch_format="pyarrow").take_all()
    rv = np.sum([np.frombuffer(r["rv"], dtype=np.int64) for r in rows],
                axis=0).astype(np.int64)
    tot = int(rv.sum())
    return pd.DataFrame({
        "decile": np.arange(10, dtype=np.int64), "n_customers": n_cust,
        "revenue_cents": rv,
        "share_bps": np.array([10_000 * int(v) // tot for v in rv],
                              dtype=np.int64)}).astype("int64")


def returns_by_ship_lag(sf_dir: str) -> pd.DataFrame:
    """Does slow fulfilment cause returns: returned-line share (bps)
    per ORDER-TO-SHIP lag day. Same scale shape as
    ``nation_trade_balance``: ONE lineitem⋈orders exchange
    co-partitioned on ``orderkey % 64``; each bucket emits per-lag
    (n, returned) partials — the lag grid is contract-bounded
    (~4 months in TPC-H-shaped data), so the driver fold is
    grid-sized at any volume."""
    items = read(sf_dir, "lineitem",
                 columns=["l_orderkey", "l_shipdate", "l_returnflag"])
    orders = read(sf_dir, "orders",
                  columns=["o_orderkey", "o_orderdate"])

    def tag_items(t: pa.Table) -> pa.Table:
        key = t.column("l_orderkey").to_numpy().astype(np.int64)
        sd = t.column("l_shipdate").cast(pa.int64()).to_numpy() \
            // 86_400_000_000
        r = (np.asarray(t.column("l_returnflag")) == "R") \
            .astype(np.int64)
        return pa.table({
            "key": pa.array(key), "aux": pa.array(sd),
            "ret": pa.array(r),
            "side": pa.array(np.ones(len(key), dtype=np.int8))})

    def tag_orders(t: pa.Table) -> pa.Table:
        key = t.column("o_orderkey").to_numpy().astype(np.int64)
        od = t.column("o_orderdate").cast(pa.int64()).to_numpy() \
            // 86_400_000_000
        return pa.table({
            "key": pa.array(key), "aux": pa.array(od),
            "ret": pa.array(np.zeros(len(key), dtype=np.int64)),
            "side": pa.array(np.zeros(len(key), dtype=np.int8))})

    def bucket_join(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == 0][["key", "aux"]] \
            .rename(columns={"aux": "od"})
        right = g[g["side"] == 1][["key", "aux", "ret"]] \
            .rename(columns={"aux": "sd"})
        m = right.merge(left, on="key")
        if not len(m):
            return pd.DataFrame({"lag": pd.Series([], dtype=np.int64),
                                 "n": pd.Series([], dtype=np.int64),
                                 "x": pd.Series([], dtype=np.int64)})
        lag = m["sd"].to_numpy(np.int64) - m["od"].to_numpy(np.int64)
        ret = m["ret"].to_numpy(np.int64)
        u, inv = np.unique(lag, return_inverse=True)
        return pd.DataFrame({
            "lag": u,
            "n": np.bincount(inv, minlength=len(u)).astype(np.int64),
            "x": np.bincount(inv, weights=ret, minlength=len(u))
            .astype(np.int64)})

    part = bucket_map([orders.map_batches(tag_orders, batch_format="pyarrow"),
                       items.map_batches(tag_items, batch_format="pyarrow")],
                      "key", bucket_join)
    agg = (part.groupby("lag", as_index=False).sum()
           .sort_values("lag", kind="mergesort").reset_index(drop=True))
    return pd.DataFrame({
        "lag_days": agg["lag"].to_numpy(np.int64),
        "n_lines": agg["n"].to_numpy(np.int64),
        "n_returned": agg["x"].to_numpy(np.int64),
        "return_bps": 10_000 * agg["x"].to_numpy(np.int64)
        // agg["n"].to_numpy(np.int64)}).astype("int64")


def order_total_reconciliation(sf_dir: str) -> pd.DataFrame:
    """Referential MONEY reconciliation: each order's header total vs
    the sum of its line charges (price·(1−disc)·(1+tax), exact cents),
    bucketed by mismatch direction and magnitude — the books-balance
    audit every warehouse runs nightly. Buckets: 0 exact, ±1 within
    $1, ±2 within $100, ±3 beyond. ONE lineitem⋈orders exchange
    co-partitioned on ``orderkey % 64``; per bucket the fold emits 7
    counter rows."""
    items = read(sf_dir, "lineitem",
                 columns=["l_orderkey", "l_extendedprice", "l_discount",
                          "l_tax"])
    orders = read(sf_dir, "orders",
                  columns=["o_orderkey", "o_totalprice"])

    def tag_items(t: pa.Table) -> pa.Table:
        key = t.column("l_orderkey").to_numpy().astype(np.int64)
        ep = t.column("l_extendedprice").to_numpy()
        d = t.column("l_discount").to_numpy()
        tx = t.column("l_tax").to_numpy()
        chg = np.floor(ep * (1 - d) * (1 + tx) * 100).astype(np.int64)
        return pa.table({
            "key": pa.array(key), "amt": pa.array(chg),
            "side": pa.array(np.ones(len(key), dtype=np.int8))})

    def tag_orders(t: pa.Table) -> pa.Table:
        key = t.column("o_orderkey").to_numpy().astype(np.int64)
        tp = np.floor(t.column("o_totalprice").to_numpy() * 100) \
            .astype(np.int64)
        return pa.table({
            "key": pa.array(key), "amt": pa.array(tp),
            "side": pa.array(np.zeros(len(key), dtype=np.int8))})

    def bucket_join(g: pd.DataFrame) -> pd.DataFrame:
        side = g["side"].to_numpy(np.int8)
        key = g["key"].to_numpy(np.int64)
        amt = g["amt"].to_numpy(np.int64)
        right = side == 1
        uk, inv = np.unique(key[right], return_inverse=True)
        chg = np.bincount(inv, weights=amt[right], minlength=len(uk)) \
            .astype(np.int64)
        lk = key[~right]
        tp = amt[~right]
        pos = np.searchsorted(uk, lk)
        pos_c = np.minimum(pos, max(len(uk) - 1, 0))
        has = (len(uk) > 0)
        m = np.zeros(len(lk), dtype=bool) if not has else uk[pos_c] == lk
        diff = tp[m] - chg[pos_c[m]]
        mag = np.abs(diff)
        cls = np.where(diff == 0, 0,
                       np.sign(diff) * np.where(mag <= 100, 1,
                                                np.where(mag <= 10_000,
                                                         2, 3)))
        u, inv2 = np.unique(cls, return_inverse=True)
        return pd.DataFrame({
            "mismatch_class": u.astype(np.int64),
            "n_orders": np.bincount(inv2, minlength=len(u))
            .astype(np.int64),
            "sum_abs_diff_cents": np.bincount(inv2, weights=mag,
                                              minlength=len(u))
            .astype(np.int64)})

    part = bucket_map([orders.map_batches(tag_orders, batch_format="pyarrow"),
                       items.map_batches(tag_items, batch_format="pyarrow")],
                      "key", bucket_join)
    return (part.groupby("mismatch_class", as_index=False).sum()
            .sort_values("mismatch_class", kind="mergesort")
            .reset_index(drop=True).astype("int64"))


def user_part_negatives(sf_dir: str, k: int = 4,
                        buffer: int = 8) -> pd.DataFrame:
    """NEGATIVE-SAMPLING generator (the recommender-training data op):
    for every purchasing customer, ``k`` deterministic negative part
    ids drawn as ``md5(cust_i) % max_part + 1`` with purchased parts
    excluded — reproducible negatives with no RNG state, so a resumed
    job regenerates identical training rows. Two exchanges: positives
    come from the ``orderkey % 64`` fact-fact join, then re-key by
    ``cust % 64`` so each bucket filters its customers' candidates
    against their positives via ONE packed-key searchsorted (never a
    per-customer loop). Duplicate candidates are kept by rule
    (identical on both sides). Output pins every assignment: per
    negative rank, the user count and partkey checksum."""
    part = read(sf_dir, "part", columns=["p_partkey"]).to_pandas()
    max_part = int(part["p_partkey"].max())

    items = read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])
    orders = read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])

    def join_pos(g: pd.DataFrame) -> pa.Table:
        # Arrow out: this stage feeds the second shuffle (pandas blocks
        # would put the exchange on Ray's ~20x slower sort path)
        left = g[g["side"] == 0][["key", "aux"]] \
            .rename(columns={"aux": "cust"})
        right = g[g["side"] == 1][["key", "aux"]] \
            .rename(columns={"aux": "pk"})
        m = right.merge(left, on="key")
        pair = np.unique(m["cust"].to_numpy(np.int64) * (1 << 24)
                         + m["pk"].to_numpy(np.int64))
        cust = pair >> 24
        return pa.table({"cust": pa.array(cust),
                         "pk": pa.array(pair & ((1 << 24) - 1))})

    def sample_neg(g: pd.DataFrame) -> pd.DataFrame:
        from ..functions.hashing import hash64_many

        pos = np.unique(g["cust"].to_numpy(np.int64) * (1 << 24)
                        + g["pk"].to_numpy(np.int64))
        custs = np.unique(g["cust"].to_numpy(np.int64))
        nc = len(custs)
        reps = np.repeat(custs, k + buffer)
        idx = np.tile(np.arange(1, k + buffer + 1, dtype=np.int64), nc)
        h = hash64_many(f"{c}_{i}" for c, i in zip(reps, idx))
        cand = (h % np.uint64(max_part)).astype(np.int64) + 1
        packed = reps * (1 << 24) + cand
        pos_hit = np.searchsorted(pos, packed)
        pos_hit = np.minimum(pos_hit, max(len(pos) - 1, 0))
        is_pos = pos[pos_hit] == packed if len(pos) else \
            np.zeros(len(packed), dtype=bool)
        keep = ~is_pos
        rc, ri, cd = reps[keep], idx[keep], cand[keep]
        # rank within customer in candidate-index order (already sorted)
        starts = np.flatnonzero(np.r_[True, rc[1:] != rc[:-1]])
        rank = np.arange(len(rc)) - np.repeat(starts, np.diff(
            np.r_[starts, len(rc)])) + 1
        km = rank <= k
        u, inv = np.unique(rank[km], return_inverse=True)
        return pd.DataFrame({
            "neg_rank": u.astype(np.int64),
            "n_users": np.bincount(inv, minlength=len(u))
            .astype(np.int64),
            "sum_partkey": np.bincount(inv, weights=cd[km],
                                       minlength=len(u))
            .astype(np.int64)})

    pos = bucket_groups(
        [orders.map_batches(tag_order_cust, batch_format="pyarrow"),
         items.map_batches(functools.partial(tag_lineitem, aux="l_partkey"),
                           batch_format="pyarrow")],
        "key", join_pos)
    neg = bucket_map(pos, "cust", sample_neg)
    return (neg.groupby("neg_rank", as_index=False).sum()
            .sort_values("neg_rank", kind="mergesort")
            .reset_index(drop=True).astype("int64"))


def part_supplier_redundancy(sf_dir: str) -> pd.DataFrame:
    """Supply-chain REDUNDANCY audit: parts binned by how many distinct
    suppliers actually shipped them (1 / 2 / 3 / 4+), with revenue at
    stake per class — the single-source-risk table. One
    ``part % 64`` bucket exchange over deduped (part, supplier) pairs
    plus per-part revenue; ≤ 4 partial rows per bucket."""
    ds = read(sf_dir, "lineitem",
              columns=["l_partkey", "l_suppkey", "l_extendedprice"])

    def derive(t: pa.Table) -> pa.Table:
        k = t.column("l_partkey").to_numpy().astype(np.int64)
        s = t.column("l_suppkey").to_numpy().astype(np.int64)
        rev = np.floor(t.column("l_extendedprice").to_numpy() * 100) \
            .astype(np.int64)
        return pa.table({"k": pa.array(k), "s": pa.array(s),
                         "rev": pa.array(rev)})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        k = g["k"].to_numpy(np.int64)
        s = g["s"].to_numpy(np.int64)
        rev = g["rev"].to_numpy(np.int64)
        uk, kinv = np.unique(k, return_inverse=True)
        krev = np.bincount(kinv, weights=rev, minlength=len(uk)) \
            .astype(np.int64)
        pair = np.unique(k * (1 << 24) + s)
        pk = pair >> 24
        nsupp = np.bincount(np.searchsorted(uk, pk),
                            minlength=len(uk)).astype(np.int64)
        cls = np.minimum(nsupp, 4) - 1  # 0..3 for 1/2/3/4+
        return pd.DataFrame({
            "cls": np.arange(4, dtype=np.int64),
            "n_parts": np.bincount(cls, minlength=4).astype(np.int64),
            "revenue_cents": np.bincount(cls, weights=krev,
                                         minlength=4)
            .astype(np.int64)})

    parts = bucket_map(ds.map_batches(derive, batch_format="pyarrow"),
                       "k", fold)
    agg = (parts.groupby("cls", as_index=False).sum()
           .sort_values("cls", kind="mergesort").reset_index(drop=True))
    agg = agg[agg["n_parts"] > 0].reset_index(drop=True)
    agg.insert(0, "n_suppliers_class",
               agg["cls"].to_numpy(np.int64) + 1)
    return agg.drop(columns=["cls"]).astype("int64")


def repeat_purchase_gaps(sf_dir: str, cap_weeks: int = 26) -> \
        pd.DataFrame:
    """REPLENISHMENT-CYCLE histogram: for every (customer, part) bought
    on more than one day, the gaps between consecutive purchase days,
    binned by week (capped) — the reorder-interval curve that drives
    subscription nudges and demand forecasts. Two exchanges: the
    ``orderkey % 64`` fact-fact join builds (cust, part, day) rows,
    then a ``cust % 64`` re-key dedupes per (cust, part, day) and
    takes consecutive-day gaps via lexsort + segment compares —
    partials are ≤ cap+1 counter rows per bucket."""
    items = read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])
    orders = read(sf_dir, "orders",
                  columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def tag_items(t: pa.Table) -> pa.Table:
        key = t.column("l_orderkey").to_numpy().astype(np.int64)
        return pa.table({
            "key": pa.array(key),
            "aux": pa.array(t.column("l_partkey").to_numpy()
                            .astype(np.int64)),
            "dy": pa.array(np.zeros(len(key), dtype=np.int64)),
            "side": pa.array(np.ones(len(key), dtype=np.int8))})

    def tag_orders(t: pa.Table) -> pa.Table:
        key = t.column("o_orderkey").to_numpy().astype(np.int64)
        dy = t.column("o_orderdate").cast(pa.int64()).to_numpy() \
            // 86_400_000_000
        return pa.table({
            "key": pa.array(key),
            "aux": pa.array(t.column("o_custkey").to_numpy()
                            .astype(np.int64)),
            "dy": pa.array(dy),
            "side": pa.array(np.zeros(len(key), dtype=np.int8))})

    def join_cpd(g: pd.DataFrame) -> pa.Table:
        left = g[g["side"] == 0][["key", "aux", "dy"]] \
            .rename(columns={"aux": "cust"})
        right = g[g["side"] == 1][["key", "aux"]] \
            .rename(columns={"aux": "pk"})
        m = right.merge(left, on="key")
        cust = m["cust"].to_numpy(np.int64)
        return pa.table({
            "cust": pa.array(cust), "pk": pa.array(m["pk"].to_numpy(
                np.int64)),
            "dy": pa.array(m["dy"].to_numpy(np.int64))})

    def gaps(g: pd.DataFrame) -> pd.DataFrame:
        c = g["cust"].to_numpy(np.int64)
        p = g["pk"].to_numpy(np.int64)
        d = g["dy"].to_numpy(np.int64)
        # dense cust recode keeps the packed key inside int64 at any
        # customer-id scale (code ≤ bucket custs, p < 2^25, day < 2^16)
        code = np.searchsorted(np.unique(c), c).astype(np.int64)
        pair = np.unique((code * (1 << 25) + p) * (1 << 16) + d)
        cp = pair >> 16
        dd = pair & ((1 << 16) - 1)
        same = ~run_starts(cp)
        gp = (dd[1:] - dd[:-1])[same[1:]]
        gw = np.minimum(gp // 7, cap_weeks)
        return pd.DataFrame({
            "gap_week": np.arange(cap_weeks + 1, dtype=np.int64),
            "n_gaps": np.bincount(gw, minlength=cap_weeks + 1)
            .astype(np.int64)})

    cpd = bucket_groups(
        [orders.map_batches(tag_orders, batch_format="pyarrow"),
         items.map_batches(tag_items, batch_format="pyarrow")],
        "key", join_cpd)
    out = bucket_map(cpd, "cust", gaps)
    agg = (out.groupby("gap_week", as_index=False)["n_gaps"].sum()
           .sort_values("gap_week", kind="mergesort")
           .reset_index(drop=True))
    return agg[agg["n_gaps"] > 0].reset_index(drop=True) \
        .astype("int64")


def ship_lag_quantiles_by_priority(sf_dir: str) -> pd.DataFrame:
    """Fulfilment-SLA percentiles: exact p25/p50/p75/p90 of the
    order→ship lag (days) PER ORDER PRIORITY — the per-class SLA table
    ops quotes. One ``orderkey % 64`` fact-fact exchange joins
    priority+orderdate to shipdates; each bucket emits
    (priority, lag, n) histogram partials (priority × lag-grid
    bounded), and the exact ceil-rank quantile rule runs on the driver
    grid — the same zero-sort discipline as ``events_hist_quantiles``."""
    items = read(sf_dir, "lineitem", columns=["l_orderkey", "l_shipdate"])
    orders = read(sf_dir, "orders",
                  columns=["o_orderkey", "o_orderdate",
                           "o_orderpriority"])

    def tag_items(t: pa.Table) -> pa.Table:
        key = t.column("l_orderkey").to_numpy().astype(np.int64)
        sd = t.column("l_shipdate").cast(pa.int64()).to_numpy() \
            // 86_400_000_000
        return pa.table({
            "key": pa.array(key), "dy": pa.array(sd),
            "pri": pa.array(np.empty(len(key), dtype=object),
                            type=pa.string()),
            "side": pa.array(np.ones(len(key), dtype=np.int8))})

    def tag_orders(t: pa.Table) -> pa.Table:
        key = t.column("o_orderkey").to_numpy().astype(np.int64)
        od = t.column("o_orderdate").cast(pa.int64()).to_numpy() \
            // 86_400_000_000
        return pa.table({
            "key": pa.array(key), "dy": pa.array(od),
            "pri": t.column("o_orderpriority"),
            "side": pa.array(np.zeros(len(key), dtype=np.int8))})

    def bucket_join(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == 0][["key", "dy", "pri"]] \
            .rename(columns={"dy": "od"})
        right = g[g["side"] == 1][["key", "dy"]] \
            .rename(columns={"dy": "sd"})
        m = right.merge(left, on="key")
        lag = m["sd"].to_numpy(np.int64) - m["od"].to_numpy(np.int64)
        code, uniq = pd.factorize(m["pri"].to_numpy(object))
        if not len(lag):
            return pd.DataFrame({"pri": np.array([], dtype=object),
                                 "lag": np.array([], dtype=np.int64),
                                 "n": np.array([], dtype=np.int64)})
        # lags can be NEGATIVE (early shipments) — offset before packing
        lmin = int(lag.min())
        span = int(lag.max()) - lmin + 1
        pack = code.astype(np.int64) * span + (lag - lmin)
        u, c = np.unique(pack, return_counts=True)
        return pd.DataFrame({
            "pri": np.asarray(uniq, dtype=object)[u // span],
            "lag": (u % span) + lmin,
            "n": c.astype(np.int64)})

    parts = bucket_map([orders.map_batches(tag_orders, batch_format="pyarrow"),
                        items.map_batches(tag_items, batch_format="pyarrow")],
                       "key", bucket_join)
    hist = parts.groupby(["pri", "lag"], as_index=False)["n"].sum()
    rows = []
    for pri, g in hist.groupby("pri"):
        g = g.sort_values("lag", kind="mergesort")
        cum = g["n"].to_numpy(np.int64).cumsum()
        lag = g["lag"].to_numpy(np.int64)
        n = int(cum[-1])
        qs = []
        for qn, qd in ((1, 4), (1, 2), (3, 4), (9, 10)):
            rank = -(-qn * n // qd)
            qs.append(int(lag[np.searchsorted(cum, rank)]))
        rows.append((str(pri), n, *qs))
    rows.sort()
    return pd.DataFrame(rows, columns=[
        "priority", "n_lines", "lag_p25", "lag_p50", "lag_p75",
        "lag_p90"]).astype({c: "int64" for c in
                            ["n_lines", "lag_p25", "lag_p50",
                             "lag_p75", "lag_p90"]})


def first_order_ltv_corr(sf_dir: str) -> pd.DataFrame:
    """Does the FIRST order predict lifetime value: per customer, the
    first order's cents (earliest orderdate, orderkey tiebreak) vs the
    customer's total cents, pooled into exact integer moments and one
    IEEE-order-matched correlation — the acquisition-quality number.
    One ``customer % 64`` bucket exchange; each fold resolves firsts
    via lexsort segment heads and emits a single 6-moment partial."""
    import math

    ds = read(sf_dir, "orders",
              columns=["o_custkey", "o_orderdate", "o_totalprice",
                       "o_orderkey"])

    def derive(t: pa.Table) -> pa.Table:
        c = t.column("o_custkey").to_numpy().astype(np.int64)
        return pa.table({
            "c": pa.array(c),
            "d": t.column("o_orderdate").cast(pa.int64()),
            "k": t.column("o_orderkey"),
            # whole DOLLARS: LTV² in cents overflows int64 moment partials
            "rev": pa.array(np.floor(t.column("o_totalprice")
                                     .to_numpy())
                            .astype(np.int64))})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        c = g["c"].to_numpy(np.int64)
        d = g["d"].to_numpy(np.int64)
        k = g["k"].to_numpy(np.int64)
        rev = g["rev"].to_numpy(np.int64)
        order = np.lexsort((k, d, c))
        cs, rs = c[order], rev[order]
        starts = np.flatnonzero(np.r_[True, cs[1:] != cs[:-1]])
        x = rs[starts]  # first-order dollars per customer
        y = np.bincount(
            np.searchsorted(cs[starts], c), weights=rev,
            minlength=len(starts)).astype(np.int64)  # total dollars
        # python-int squares: Σy² approaches int64 at scale
        return pd.DataFrame({
            "n": [len(x)], "sx": [int(x.sum())], "sy": [int(y.sum())],
            "sxx": [sum(int(v) * int(v) for v in x)],
            "syy": [sum(int(v) * int(v) for v in y)],
            "sxy": [sum(int(a) * int(b) for a, b in zip(x, y))]})

    m = bucket_map(ds.map_batches(derive, batch_format="pyarrow"), "c",
                   fold).sum()
    n, sx, sy = int(m["n"]), int(m["sx"]), int(m["sy"])
    sxx, syy, sxy = int(m["sxx"]), int(m["syy"]), int(m["sxy"])
    num = n * sxy - sx * sy
    d1 = n * sxx - sx * sx
    d2 = n * syy - sy * sy
    val = math.floor(float(num)
                     / (math.sqrt(float(d1)) * math.sqrt(float(d2)))
                     * 1000)
    return pd.DataFrame([(n, val)],
                        columns=["n_customers", "corr_milli"]) \
        .astype("int64")


def nation_flow_stdres(sf_dir: str) -> pd.DataFrame:
    """TRADE-FLOW residual diagnostics: which supplier-nation ->
    customer-nation lanes carry MORE line items than independent
    routing predicts — haberman standardized residuals over the full
    25 x 25 flow matrix. Scale shape is the q7 kernel
    (joins.py:795): ONE lineitem-x-orders fact-fact exchange on
    ``orderkey % 64`` with supplier->nation / customer->nation
    dimension LUTs broadcast once via ``ray.put``; each bucket emits
    matrix-sized (sn, cn) count partials. The driver builds the full
    margins grid (absent lanes at O = 0), keeps deviations
    N*O - r*c exact, floors each cell's independent IEEE-matched
    residual float to milli (never summed), and ranks top 15 by
    |stdres| with the (sn, cn) numeric tie rule."""
    import math


    supp = read(sf_dir, "supplier",
                columns=["s_suppkey", "s_nationkey"]).to_pandas()
    sk = supp["s_suppkey"].to_numpy(np.int64)
    s_nat = dense_lookup(sk, supp["s_nationkey"].to_numpy(np.int64))

    cust = read(sf_dir, "customer",
                columns=["c_custkey", "c_nationkey"]).to_pandas()
    ck = cust["c_custkey"].to_numpy(np.int64)
    c_nat = dense_lookup(ck, cust["c_nationkey"].to_numpy(np.int64))

    ref = ray.put((s_nat, c_nat))

    items = read(sf_dir, "lineitem",
                 columns=["l_orderkey", "l_suppkey"])
    orders = read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])

    obs = (bucket_map(
        [orders.map_batches(tag_order_cust, batch_format="pyarrow"),
         items.map_batches(functools.partial(tag_lineitem, aux="l_suppkey"),
                           batch_format="pyarrow")],
        "key", functools.partial(nation_flow_join, ref=ref))
           .groupby(["sn", "cn"], as_index=False)["o"]
           .sum())
    rtot = obs.groupby("sn")["o"].sum().to_dict()
    ctot = obs.groupby("cn")["o"].sum().to_dict()
    omap = {(int(r["sn"]), int(r["cn"])): int(r["o"])
            for _, r in obs.iterrows()}
    n = sum(int(v) for v in rtot.values())
    cells = []
    for sn in sorted(rtot):
        r = int(rtot[sn])
        for cn in sorted(ctot):
            c = int(ctot[cn])
            o = omap.get((int(sn), int(cn)), 0)
            dev = n * o - r * c
            sr = math.floor(
                (float(dev) / float(n))
                / math.sqrt(float(r * c) / float(n)
                            * (1.0 - float(r) / float(n))
                            * (1.0 - float(c) / float(n)))
                * 1000.0)
            cells.append((int(sn), int(cn), o, r, c, dev, sr))
    cells.sort(key=lambda x: (-abs(x[6]), x[0], x[1]))
    df = pd.DataFrame(cells[:15], columns=[
        "s_nationkey", "c_nationkey", "obs", "r_tot", "c_tot",
        "dev_num", "stdres_milli"])
    df["rk"] = np.arange(1, len(df) + 1, dtype=np.int64)
    return df.astype("int64")


def q6_sensitivity_grid(sf_dir: str) -> pd.DataFrame:
    """WHAT-IF GRID around the Q6 revenue predicate — the parameter
    sensitivity sweep an analyst runs before trusting a single-point
    answer: Q6-style discounted revenue over the 3x3 grid of
    discount windows (4-6 / 5-7 / 6-8 percent) x quantity caps
    (24 / 50 / 300), every cell an exact integer cents sum folded
    from ONE pass over the fact table (each block evaluates all nine
    vectorized predicates and emits one 9-cell partial — the grid
    costs one scan, not nine). NO float, ZERO shuffle."""
    ds = read(sf_dir, "lineitem",
              columns=["l_discount", "l_quantity", "l_extendedprice"])
    discs = ((4, 6), (5, 7), (6, 8))
    caps = (24, 50, 300)

    def partial(t: pa.Table) -> pa.Table:
        disc = np.floor(t.column("l_discount").to_numpy() * 100) \
            .astype(np.int64)
        qty = np.floor(t.column("l_quantity").to_numpy()) \
            .astype(np.int64)
        rev = np.floor(t.column("l_extendedprice").to_numpy()
                       * t.column("l_discount").to_numpy() * 100) \
            .astype(np.int64)
        cells, ns, sums = [], [], []
        i = 0
        for lo, hi in discs:
            for cap in caps:
                m = (disc >= lo) & (disc <= hi) & (qty < cap)
                cells.append(i)
                ns.append(int(m.sum()))
                sums.append(int(rev[m].sum()))
                i += 1
        return pa.table({
            "cell": pa.array(np.array(cells, dtype=np.int64)),
            "n": pa.array(np.array(ns, dtype=np.int64)),
            "s": pa.array(np.array(sums, dtype=np.int64))})

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .to_pandas().groupby("cell", as_index=False).sum()
           .sort_values("cell"))
    rows = []
    for i in range(9):
        lo, hi = discs[i // 3]
        cap = caps[i % 3]
        g = agg[agg["cell"] == i]
        rows.append((lo, hi, cap, int(g["n"].iloc[0]),
                     int(g["s"].iloc[0])))
    return pd.DataFrame(rows, columns=[
        "disc_lo_pct", "disc_hi_pct", "qty_cap", "n_lines",
        "revenue_cents"]).astype("int64")


def part_knapsack_greedy(sf_dir: str) -> pd.DataFrame:
    """GREEDY KNAPSACK assortment — fill 10% of the total shelf
    (sum of p_size) with parts in exact revenue-DENSITY order
    (integer key 10^6*rev//size, ties by partkey) and report how much
    revenue the prefix captures: the classic optimization primitive a
    curation engine reuses for budget-capped selection (pick docs by
    quality-per-token until the token budget). Per-part revenue folds
    map-side to a part-cardinality table; the greedy sweep is a
    driver sort + prefix cumsum (dimension-sized, never row-sized).
    The maximal-prefix rule (cumulative size <= capacity) is mirrored
    by the twin's window cumsum. Pure integers end to end."""
    items = read(sf_dir, "lineitem",
                 columns=["l_partkey", "l_extendedprice",
                          "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        pk = t.column("l_partkey").to_numpy().astype(np.int64)
        rev = np.floor(t.column("l_extendedprice").to_numpy()
                       * (1 - t.column("l_discount").to_numpy())
                       * 100).astype(np.int64)
        u, inv = np.unique(pk, return_inverse=True)
        return pa.table({
            "pk": pa.array(u),
            "rev": pa.array(np.bincount(inv, weights=rev,
                                        minlength=len(u))
                            .astype(np.int64))})

    rv = (items.map_batches(partial, batch_format="pyarrow")
          .to_pandas().groupby("pk", as_index=False).sum())
    pt = read(sf_dir, "part", columns=["p_partkey", "p_size"]) \
        .to_pandas().rename(columns={"p_partkey": "pk"})
    mg = pt.merge(rv, on="pk", how="left")
    rev = mg["rev"].fillna(0).to_numpy(np.int64)
    sz = mg["p_size"].to_numpy(np.int64)
    pk = mg["pk"].to_numpy(np.int64)
    key = 1_000_000 * rev // sz
    order = np.lexsort((pk, -key))
    cum = np.cumsum(sz[order])
    total_sz = int(sz.sum())
    total_rev = int(rev.sum())
    cap = total_sz // 10
    npick = int(np.searchsorted(cum, cap, side="right"))
    psz = int(cum[npick - 1]) if npick else 0
    prev = int(rev[order[:npick]].sum())
    last_key = int(key[order[npick - 1]]) if npick else -1
    return pd.DataFrame([(len(mg), cap, npick, psz, prev,
                          10000 * prev // total_rev, last_key)],
                        columns=["n_parts", "capacity", "n_picked",
                                 "picked_size", "picked_rev",
                                 "rev_share_bps", "last_key"]) \
        .astype("int64")


def trade_home_bias(sf_dir: str) -> pd.DataFrame:
    """HOME BIAS — do customers buy from suppliers in their OWN
    nation more than independent routing predicts? The gravity-model
    diagonal: observed same-nation line share vs the expectation
    sum_n(r_n*c_n)/T^2 from the margins, with the lift closed fully
    cross-multiplied as 1000*obs_same*T // sum_n(r_n*c_n) — Python
    bigints / HUGEINT, no rational ever formed. Scale shape is the
    q7 kernel: ONE lineitem-x-orders fact-fact exchange on
    ``orderkey % 64`` with supplier->nation / customer->nation LUTs
    broadcast once via ``ray.put``; buckets emit lane-matrix-sized
    count partials and the driver folds a 25x25 grid."""
    supp = read(sf_dir, "supplier",
                columns=["s_suppkey", "s_nationkey"]).to_pandas()
    sk = supp["s_suppkey"].to_numpy(np.int64)
    s_nat = dense_lookup(sk, supp["s_nationkey"].to_numpy(np.int64))
    cust = read(sf_dir, "customer",
                columns=["c_custkey", "c_nationkey"]).to_pandas()
    ck = cust["c_custkey"].to_numpy(np.int64)
    c_nat = dense_lookup(ck, cust["c_nationkey"].to_numpy(np.int64))
    ref = ray.put((s_nat, c_nat))

    items = read(sf_dir, "lineitem",
                 columns=["l_orderkey", "l_suppkey"])
    orders = read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])

    obs = (bucket_map(
        [orders.map_batches(tag_order_cust, batch_format="pyarrow"),
         items.map_batches(functools.partial(tag_lineitem, aux="l_suppkey"),
                           batch_format="pyarrow")],
        "key", functools.partial(nation_flow_join, ref=ref))
           .groupby(["sn", "cn"], as_index=False)["o"]
           .sum())
    rtot = {int(k): int(v)
            for k, v in obs.groupby("sn")["o"].sum().items()}
    ctot = {int(k): int(v)
            for k, v in obs.groupby("cn")["o"].sum().items()}
    t = int(obs["o"].sum())
    same = int(obs.loc[obs["sn"] == obs["cn"], "o"].sum())
    exp_num = sum(r * ctot[n] for n, r in rtot.items() if n in ctot)
    return pd.DataFrame(
        [(t, same, 10000 * same // t, exp_num,
          10000 * exp_num // (t * t),
          1000 * same * t // exp_num)],
        columns=["n_lines", "obs_same", "home_share_bps", "exp_num",
                 "exp_share_bps", "lift_milli"]).astype("int64")


def nation_ship_lag_median(sf_dir: str) -> pd.DataFrame:
    """FULFILLMENT SLA by customer nation — exact ceil-rank median
    and p90 of the order-to-ship lag, plus the truncating integer
    mean in milli-days: the per-geography latency report an ops team
    pages on. Scale shape is the q7 kernel: ONE lineitem-x-orders
    fact-fact exchange on ``orderkey % 64`` (the orders side carries
    its customer's nation via the broadcast LUT so the heavy side
    ships once); buckets emit (nation, lag-day) HISTOGRAM partials —
    nation x ~bounded-lag cells, never rows — and the quantile scan
    runs per nation on the driver grid. Pure integers."""
    cust = read(sf_dir, "customer",
                columns=["c_custkey", "c_nationkey"]).to_pandas()
    ck = cust["c_custkey"].to_numpy(np.int64)
    c_nat = dense_lookup(ck, cust["c_nationkey"].to_numpy(np.int64))
    ref = ray.put(c_nat)

    items = read(sf_dir, "lineitem",
                 columns=["l_orderkey", "l_shipdate"])
    orders = read(sf_dir, "orders",
                  columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def tag_items(t: pa.Table) -> pa.Table:
        key = t.column("l_orderkey").to_numpy().astype(np.int64)
        d = t.column("l_shipdate").cast(pa.int64()).to_numpy() \
            // 86_400_000_000
        return pa.table({
            "key": pa.array(key), "aux": pa.array(d),
            "side": pa.array(np.ones(len(key), dtype=np.int8))})

    def tag_orders(t: pa.Table) -> pa.Table:
        nat = ray.get(ref)
        key = t.column("o_orderkey").to_numpy().astype(np.int64)
        d = t.column("o_orderdate").cast(pa.int64()).to_numpy() \
            // 86_400_000_000
        ck_ = t.column("o_custkey").to_numpy().astype(np.int64)
        return pa.table({
            "key": pa.array(key),
            "aux": pa.array(nat[ck_] * 131072 + d),
            "side": pa.array(np.zeros(len(key), dtype=np.int8))})

    def bucket_join(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == 0][["key", "aux"]] \
            .rename(columns={"aux": "nd"})
        right = g[g["side"] == 1][["key", "aux"]] \
            .rename(columns={"aux": "ship"})
        m = right.merge(left, on="key")
        if not len(m):
            return pd.DataFrame({"nk": pd.Series([], dtype=np.int64),
                                 "lg": pd.Series([], dtype=np.int64),
                                 "c": pd.Series([], dtype=np.int64)})
        nd = m["nd"].to_numpy(np.int64)
        out = pd.DataFrame({"nk": nd // 131072,
                            "lg": m["ship"].to_numpy(np.int64)
                            - nd % 131072})
        return out.groupby(["nk", "lg"], as_index=False).size() \
            .rename(columns={"size": "c"})

    hist = (bucket_map(
        [orders.map_batches(tag_orders, batch_format="pyarrow"),
         items.map_batches(tag_items, batch_format="pyarrow")],
        "key", bucket_join).groupby(["nk", "lg"], as_index=False)["c"]
            .sum())
    rows = []
    for nk, g in hist.groupby("nk"):
        g = g.sort_values("lg")
        lg = g["lg"].to_numpy(np.int64)
        c = g["c"].to_numpy(np.int64)
        cum = np.cumsum(c)
        n = int(cum[-1])
        med = int(lg[np.searchsorted(cum, (n + 1) // 2)])
        p90 = int(lg[np.searchsorted(cum, (9 * n + 9) // 10)])
        # synthetic ship dates are not ordered after the order date,
        # so the lag sum can be negative: sign-normalize the floor so
        # it matches DuckDB's truncate-toward-zero `//`
        ws = int((lg * c).sum())
        sg = 1 if ws > 0 else (-1 if ws < 0 else 0)
        mean_milli = sg * (1000 * abs(ws) // n)
        rows.append((int(nk), n, med, p90, mean_milli))
    return pd.DataFrame(rows, columns=[
        "c_nationkey", "n_lines", "med_lag", "p90_lag",
        "mean_lag_milli"]).sort_values("c_nationkey") \
        .reset_index(drop=True).astype("int64")


def supplier_type_coverage(sf_dir: str) -> pd.DataFrame:
    """CATALOG COVERAGE by supplier nation — how much of the part-type
    catalog does each nation's supply base actually serve? The
    sourcing-diversification table: per supplier nation, suppliers,
    line volume, distinct part types served and coverage vs the full
    catalog in exact bps. BOTH dimensions broadcast as ``ray.put``
    LUTs (suppkey -> nation, partkey -> type code) so the fact table
    ships ZERO rows: each block emits distinct (nation, type) pairs
    plus per-nation line counts, and the driver folds a 25 x 150
    grid. Pure integers."""
    supp = read(sf_dir, "supplier",
                columns=["s_suppkey", "s_nationkey"]).to_pandas()
    sk = supp["s_suppkey"].to_numpy(np.int64)
    s_nat = dense_lookup(sk, supp["s_nationkey"].to_numpy(np.int64))
    n_supp = supp.groupby("s_nationkey").size().to_dict()

    part = read(sf_dir, "part",
                columns=["p_partkey", "p_type"]).to_pandas()
    tcode, tuniq = pd.factorize(part["p_type"], sort=True)
    pk = part["p_partkey"].to_numpy(np.int64)
    p_type = dense_lookup(pk, tcode)
    n_types = len(tuniq)
    ref = ray.put((s_nat, p_type))

    ds = read(sf_dir, "lineitem", columns=["l_suppkey", "l_partkey"])

    def partial(t: pa.Table) -> pa.Table:
        s_nat_, p_type_ = ray.get(ref)
        nk = s_nat_[t.column("l_suppkey").to_numpy().astype(np.int64)]
        tc = p_type_[t.column("l_partkey").to_numpy().astype(np.int64)]
        key = nk * 1024 + tc
        u, cnt = np.unique(key, return_counts=True)
        return pa.table({"key": pa.array(u),
                         "c": pa.array(cnt.astype(np.int64))})

    g = (ds.map_batches(partial, batch_format="pyarrow")
         .to_pandas().groupby("key", as_index=False).sum())
    nk = g["key"].to_numpy(np.int64) // 1024
    rows = []
    for n in np.unique(nk):
        sub = nk == n
        rows.append((int(n), int(n_supp.get(int(n), 0)),
                     int(g["c"].to_numpy(np.int64)[sub].sum()),
                     int(sub.sum()),
                     10000 * int(sub.sum()) // n_types))
    return pd.DataFrame(rows, columns=[
        "s_nationkey", "n_suppliers", "n_lines", "n_types_served",
        "coverage_bps"]).astype("int64")


def part_supply_resilience(sf_dir: str) -> pd.DataFrame:
    """SUPPLY-CHAIN RESILIENCE census — how many distinct supplier
    NATIONS back each part, and how much revenue rides on
    single-nation parts? The risk table a sourcing team reads after
    every geopolitical shock: parts band by nation-diversity
    (1 / 2 / 3 / 4+) with part counts, shares and revenue mass per
    band. The supplier dimension broadcasts as a LUT; each block
    emits per-(part, nation) revenue-cents partials (bounded by
    part x 25, never rows); the driver folds diversity per part.
    Pure integers end to end."""
    supp = read(sf_dir, "supplier",
                columns=["s_suppkey", "s_nationkey"]).to_pandas()
    sk = supp["s_suppkey"].to_numpy(np.int64)
    s_nat = dense_lookup(sk, supp["s_nationkey"].to_numpy(np.int64))
    ref = ray.put(s_nat)

    ds = read(sf_dir, "lineitem",
              columns=["l_partkey", "l_suppkey", "l_extendedprice",
                       "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        s_nat_ = ray.get(ref)
        pk = t.column("l_partkey").to_numpy().astype(np.int64)
        nk = s_nat_[t.column("l_suppkey").to_numpy().astype(np.int64)]
        rev = np.floor(t.column("l_extendedprice").to_numpy()
                       * (1 - t.column("l_discount").to_numpy())
                       * 100).astype(np.int64)
        key = pk * 32 + nk
        u, inv = np.unique(key, return_inverse=True)
        return pa.table({
            "key": pa.array(u),
            "rev": pa.array(np.bincount(inv, weights=rev,
                                        minlength=len(u))
                            .astype(np.int64))})

    g = (ds.map_batches(partial, batch_format="pyarrow")
         .to_pandas().groupby("key", as_index=False).sum())
    pk = g["key"].to_numpy(np.int64) // 32
    rev = g["rev"].to_numpy(np.int64)
    pu, pinv = np.unique(pk, return_inverse=True)
    nnat = np.bincount(pinv, minlength=len(pu)).astype(np.int64)
    prev = np.bincount(pinv, weights=rev, minlength=len(pu)) \
        .astype(np.int64)
    band = np.minimum(nnat, 4)
    n_parts = len(pu)
    tot_rev = int(prev.sum())
    rows = []
    for b in np.unique(band):
        m = band == b
        rows.append((int(b), int(m.sum()),
                     10000 * int(m.sum()) // n_parts,
                     int(prev[m].sum()),
                     10000 * int(prev[m].sum()) // tot_rev))
    return pd.DataFrame(rows, columns=[
        "n_nations_band", "n_parts", "part_share_bps", "rev_cents",
        "rev_share_bps"]).astype("int64")


def customer_brand_loyalty(sf_dir: str) -> pd.DataFrame:
    """BRAND LOYALTY — if you draw two purchases of the same
    customer, how often do they share a brand, and how much MORE
    often than the global brand mix predicts? The within-customer
    Simpson identity keeps everything exact: same-brand ordered
    pairs sum(c*(c-1)) over (customer, brand) cells vs all
    within-customer pairs sum(n*(n-1)), with the independence
    baseline sum(M_b*(M_b-1))/(M*(M-1)) and the lift fully
    cross-multiplied in Python bigints / HUGEINT. Scale shape is the
    q7 kernel (ONE orderkey exchange; part->brand LUT broadcast);
    buckets emit (customer, brand)-cell count partials bounded by
    customers x 25."""
    part = read(sf_dir, "part",
                columns=["p_partkey", "p_brand"]).to_pandas()
    bcode, buniq = pd.factorize(part["p_brand"], sort=True)
    pk = part["p_partkey"].to_numpy(np.int64)
    p_br = dense_lookup(pk, bcode)
    ref = ray.put(p_br)

    items = read(sf_dir, "lineitem",
                 columns=["l_orderkey", "l_partkey"])
    orders = read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])

    def bucket_join(g: pd.DataFrame) -> pd.DataFrame:
        p_br_ = ray.get(ref)
        left = g[g["side"] == 0][["key", "aux"]] \
            .rename(columns={"aux": "ck"})
        right = g[g["side"] == 1][["key", "aux"]] \
            .rename(columns={"aux": "pk"})
        m = right.merge(left, on="key")
        if not len(m):
            return pd.DataFrame({"cb": pd.Series([], dtype=np.int64),
                                 "c": pd.Series([], dtype=np.int64)})
        cb = m["ck"].to_numpy(np.int64) * 32 \
            + p_br_[m["pk"].to_numpy(np.int64)]
        u, cnt = np.unique(cb, return_counts=True)
        return pd.DataFrame({"cb": u, "c": cnt.astype(np.int64)})

    cells = (bucket_map(
        [orders.map_batches(tag_order_cust, batch_format="pyarrow"),
         items.map_batches(functools.partial(tag_lineitem, aux="l_partkey"),
                           batch_format="pyarrow")],
        "key", bucket_join).groupby("cb", as_index=False)["c"].sum())
    c = cells["c"].to_numpy(np.int64)
    ck = cells["cb"].to_numpy(np.int64) // 32
    br = cells["cb"].to_numpy(np.int64) % 32
    same = int((c * (c - 1)).sum())
    cu = pd.Series(c).groupby(ck).sum()
    nvals = cu.to_numpy(np.int64)
    pairs = int((nvals * (nvals - 1)).sum())
    nc = int((nvals >= 2).sum())
    mb = pd.Series(c).groupby(br).sum().to_numpy(np.int64)
    m_tot = int(mb.sum())
    gb = sum(int(x) * (int(x) - 1) for x in mb)
    return pd.DataFrame(
        [(nc, pairs, same, 10000 * same // pairs,
          10000 * gb // (m_tot * (m_tot - 1)),
          1000 * same * m_tot * (m_tot - 1) // (pairs * gb))],
        columns=["n_customers_multi", "n_pairs", "same_brand_pairs",
                 "rate_bps", "global_bps", "lift_milli"]) \
        .astype("int64")


def orders_size_slope(sf_dir: str) -> pd.DataFrame:
    """ORDER-SIZE pricing line — how much does each additional line
    item add to order value? Exact Cramer OLS of order total (cents)
    on line count: slope and the fitted one-line order value close
    as sign-normalized integer milli over the always-positive
    variance denominator, Python bigints / HUGEINT. Scale shape is
    the tagged-union orderkey exchange (lineitem ships only (key, 1)
    counts); each bucket joins its orders and emits ONE five-moment
    partial row. The marginal-basket economics number."""
    items = read(sf_dir, "lineitem", columns=["l_orderkey"])
    orders = read(sf_dir, "orders",
                  columns=["o_orderkey", "o_totalprice"])

    def tag_items(t: pa.Table) -> pa.Table:
        key = t.column("l_orderkey").to_numpy().astype(np.int64)
        u, cnt = np.unique(key, return_counts=True)
        return pa.table({
            "key": pa.array(u),
            "aux": pa.array(cnt.astype(np.int64)),
            "side": pa.array(np.ones(len(u), dtype=np.int8))})

    def tag_orders(t: pa.Table) -> pa.Table:
        key = t.column("o_orderkey").to_numpy().astype(np.int64)
        cents = np.floor(t.column("o_totalprice").to_numpy() * 100) \
            .astype(np.int64)
        return pa.table({
            "key": pa.array(key), "aux": pa.array(cents),
            "side": pa.array(np.zeros(len(key), dtype=np.int8))})

    def bucket_join(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == 0][["key", "aux"]] \
            .rename(columns={"aux": "y"})
        right = g[g["side"] == 1].groupby("key", as_index=False) \
            ["aux"].sum().rename(columns={"aux": "x"})
        m = right.merge(left, on="key")
        x = m["x"].to_numpy(np.int64)
        y = m["y"].to_numpy(np.int64)
        return pd.DataFrame([{
            "n": len(m), "sx": int(x.sum()), "sy": int(y.sum()),
            "sxx": int((x * x).sum()), "sxy": int((x * y).sum())}])

    m = (bucket_map([orders.map_batches(tag_orders, batch_format="pyarrow"),
                     items.map_batches(tag_items, batch_format="pyarrow")],
                    "key", bucket_join).sum())
    n, sx, sy = int(m["n"]), int(m["sx"]), int(m["sy"])
    sxx, sxy = int(m["sxx"]), int(m["sxy"])
    den = n * sxx - sx * sx
    nums = n * sxy - sx * sy
    numv = sy * sxx - sx * sxy + 1 * nums

    def sdiv(num):
        sgn = 1 if num > 0 else (-1 if num < 0 else 0)
        return sgn * (1000 * abs(num) // den)

    return pd.DataFrame([(n, sx, sy, sdiv(nums), sdiv(numv))],
                        columns=["n_orders", "sum_lines",
                                 "sum_cents", "slope_milli",
                                 "one_line_value_milli"]) \
        .astype("int64")


def region_share_shift(sf_dir: str) -> pd.DataFrame:
    """REGIONAL share shift — did revenue rotate between REGIONS from
    the first calendar half to the second? Per region: both halves'
    revenue, shares in exact bps, and the momentum fully
    cross-multiplied as 1000 * r2 * T1 // (r1 * T2) - 1000. The
    customer -> nation -> region chain broadcasts as ONE composed
    LUT (dimension tables are tiny); each block emits a regions x 2
    cents grid partial — ZERO row shuffle; a tiny span pre-pass
    anchors the halves. Pure integers."""
    nat = read(sf_dir, "nation",
               columns=["n_nationkey", "n_regionkey"]).to_pandas()
    n2r = dense_lookup(nat["n_nationkey"].to_numpy(np.int64),
                       nat["n_regionkey"].to_numpy(np.int64))
    reg = read(sf_dir, "region",
               columns=["r_regionkey", "r_name"]).to_pandas()
    rname = dict(zip(reg["r_regionkey"].astype(int),
                     reg["r_name"].astype(str)))
    cust = read(sf_dir, "customer",
                columns=["c_custkey", "c_nationkey"]).to_pandas()
    ck = cust["c_custkey"].to_numpy(np.int64)
    c2r = dense_lookup(ck, n2r[cust["c_nationkey"].to_numpy(np.int64)])
    ref = ray.put(c2r)

    ds = read(sf_dir, "orders",
              columns=["o_custkey", "o_orderdate", "o_totalprice"])

    sp = ds.map_batches(functools.partial(day_bounds, col="o_orderdate"),
                        batch_format="pyarrow").to_pandas()
    mid = (int(sp["lo"].min()) + int(sp["hi"].max())) // 2

    def partial(t: pa.Table) -> pa.Table:
        c2r_ = ray.get(ref)
        d = t.column("o_orderdate").cast(pa.int64()).to_numpy() \
            // 86_400_000_000
        rg = c2r_[t.column("o_custkey").to_numpy().astype(np.int64)]
        cents = np.floor(t.column("o_totalprice").to_numpy() * 100) \
            .astype(np.int64)
        cell = rg * 2 + (d > mid)
        u, inv = np.unique(cell, return_inverse=True)
        return pa.table({
            "cell": pa.array(u),
            "v": pa.array(np.bincount(inv, weights=cents,
                                      minlength=len(u))
                          .astype(np.int64))})

    g = (ds.map_batches(partial, batch_format="pyarrow")
         .to_pandas().groupby("cell", as_index=False).sum())
    cell = g["cell"].to_numpy(np.int64)
    v = g["v"].to_numpy(np.int64)
    grid = {}
    for c, x in zip(cell.tolist(), v.tolist()):
        grid[(c // 2, c % 2)] = x
    regions = sorted({c // 2 for c in cell.tolist()})
    t1 = sum(grid.get((r, 0), 0) for r in regions)
    t2 = sum(grid.get((r, 1), 0) for r in regions)
    rows = []
    for r in regions:
        a = grid.get((r, 0), 0)
        b = grid.get((r, 1), 0)
        shift = (1000 * b * t1 // (a * t2) - 1000
                 if a > 0 else -9999)
        rows.append((rname[r], a, b, 10000 * a // t1,
                     10000 * b // t2, shift))
    return pd.DataFrame(rows, columns=[
        "region", "h1_cents", "h2_cents", "h1_share_bps",
        "h2_share_bps", "shift_milli"]).sort_values("region") \
        .reset_index(drop=True).astype(
        {c: "int64" for c in ("h1_cents", "h2_cents",
                              "h1_share_bps", "h2_share_bps",
                              "shift_milli")})


def supplier_first_touch_share(sf_dir: str) -> pd.DataFrame:
    """FIRST-TOUCH logistics census per supplier nation: for every
    order, the line that ships FIRST (min shipdate, ties by suppkey
    then linenumber) names the first-touch supplier; a nation whose
    first-touch share beats its line share (lift > 1000) starts orders
    — its suppliers sit early in fulfilment chains — while a lift
    below 1000 marks a trailing nation whose lines close orders out.

    Shape: lineitem derives (orderkey, ship_day, suppkey, linenumber)
    → ONE ``orderkey % 64`` exchange → per bucket a lexsort +
    segment-first picks each order's first line; first-touch counts
    fold through the dimension-sized supplier->nation LUT (driver
    read, broadcast by closure); per-nation LINE totals come from a
    zero-shuffle partial pass. lift_milli is the exact cross-multiplied
    integer (n_first·total_lines·1000) // (n_lines·total_first) in
    Python bigints (HUGEINT in the twin)."""
    import pyarrow.parquet as pq

    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"])
    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"])
    sk = sup.column("s_suppkey").to_numpy().astype(np.int64)
    snk = sup.column("s_nationkey").to_numpy().astype(np.int64)
    order_lut = np.argsort(sk)
    sk, snk = sk[order_lut], snk[order_lut]
    names = dict(zip(nat.column("n_nationkey").to_numpy().astype(np.int64),
                     nat.column("n_name").to_pylist()))

    items = read(sf_dir, "lineitem",
                 columns=["l_orderkey", "l_shipdate", "l_suppkey",
                          "l_linenumber"])

    def derive(t: pa.Table) -> pa.Table:
        o = t.column("l_orderkey").to_numpy().astype(np.int64)
        return pa.table({
            "o": pa.array(o),
            "d": t.column("l_shipdate").cast(pa.int64()),
            "s": pa.array(t.column("l_suppkey").to_numpy()
                          .astype(np.int64)),
            "ln": pa.array(t.column("l_linenumber").to_numpy()
                           .astype(np.int64))})

    def first_fold(g: pd.DataFrame) -> pd.DataFrame:
        o = g["o"].to_numpy(np.int64)
        d = g["d"].to_numpy(np.int64)
        s = g["s"].to_numpy(np.int64)
        ln = g["ln"].to_numpy(np.int64)
        order = np.lexsort((ln, s, d, o))
        o, s = o[order], s[order]
        first = run_starts(o)
        fs = s[first]
        nk = snk[np.searchsorted(sk, fs)]
        u, c = np.unique(nk, return_counts=True)
        return pd.DataFrame({"nk": u, "n_first": c.astype(np.int64)})

    firsts = (bucket_map(items.map_batches(derive, batch_format="pyarrow"),
                         "o", first_fold).groupby("nk", as_index=False).sum())

    def line_part(t: pa.Table) -> pa.Table:
        s = t.column("l_suppkey").to_numpy().astype(np.int64)
        nk = snk[np.searchsorted(sk, s)]
        u, c = np.unique(nk, return_counts=True)
        return pa.table({"nk": pa.array(u),
                         "n_lines": pa.array(c.astype(np.int64))})

    lines = (read(sf_dir, "lineitem", columns=["l_suppkey"])
             .map_batches(line_part, batch_format="pyarrow")
             .to_pandas().groupby("nk", as_index=False).sum())

    m = firsts.merge(lines, on="nk", how="outer").fillna(0)
    tf = int(m["n_first"].sum())
    tl = int(m["n_lines"].sum())
    rows = []
    for _, r in m.iterrows():
        nf, nl = int(r["n_first"]), int(r["n_lines"])
        lift = (nf * tl * 1000) // (nl * tf) if nl and tf else 0
        rows.append((names[int(r["nk"])], nf, nl,
                     nf * 10000 // tf if tf else 0,
                     nl * 10000 // tl if tl else 0, lift))
    out = pd.DataFrame(rows, columns=[
        "n_name", "n_first", "n_lines", "first_share_bp",
        "line_share_bp", "lift_milli"])
    return (out.sort_values("n_name", kind="mergesort")
            .reset_index(drop=True)
            .astype({c: "int64" for c in out.columns if c != "n_name"}))


def order_ship_sync_census(sf_dir: str) -> pd.DataFrame:
    """Fulfilment SYNCHRONIZATION census: among all line PAIRS of an
    order, how many ship the very same day, banded by order line
    count — high sync means warehouses consolidate shipments (one box),
    low sync means dribbled fulfilment (m boxes, m shipping bills).
    Per band m: orders, total pairs C(m,2)·orders, same-day pairs, and
    the sync rate in basis points — pair counts computed WITHOUT
    materializing pairs (sum of C(r,2) over per-(order, day) run
    lengths, a reduceat over one lexsort per bucket).

    Shape: lineitem derives (orderkey, ship_day) → ONE orderkey % 64
    exchange → per bucket lexsort + two run-length passes emit one
    (m, n_orders, n_pairs, n_same_day) partial per band; the driver
    folds a handful of band rows."""
    items = read(sf_dir, "lineitem", columns=["l_orderkey", "l_shipdate"])
    DAY_US = 86_400_000_000

    def derive(t: pa.Table) -> pa.Table:
        o = t.column("l_orderkey").to_numpy().astype(np.int64)
        d = t.column("l_shipdate").cast(pa.int64()).to_numpy() // DAY_US
        return pa.table({"o": pa.array(o), "d": pa.array(d)})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        o = g["o"].to_numpy(np.int64)
        d = g["d"].to_numpy(np.int64)
        order = np.lexsort((d, o))
        o, d = o[order], d[order]
        newo = run_starts(o)
        ostarts = np.flatnonzero(newo)
        m = np.diff(np.append(ostarts, len(o)))
        newd = newo.copy()
        newd[1:] |= d[1:] != d[:-1]
        dstarts = np.flatnonzero(newd)
        r = np.diff(np.append(dstarts, len(o)))
        # same-day pairs per order = sum C(r,2) over its day runs
        sd_runs = r * (r - 1) // 2
        run_owner = np.searchsorted(ostarts, dstarts, side="right") - 1
        sd = np.bincount(run_owner, weights=sd_runs,
                         minlength=len(ostarts)).astype(np.int64)
        keep = m >= 2
        df = pd.DataFrame({"m": m[keep],
                           "pairs": (m[keep] * (m[keep] - 1) // 2),
                           "sd": sd[keep], "n": 1})
        out = df.groupby("m", as_index=False).sum()
        return pd.DataFrame({"m": out["m"], "n_orders": out["n"],
                             "n_pairs": out["pairs"],
                             "n_same_day": out["sd"]})

    g = (bucket_map(items.map_batches(derive, batch_format="pyarrow"),
                    "o", fold).groupby("m", as_index=False).sum())
    g["sync_bp"] = (g["n_same_day"] * 10000 // g["n_pairs"]).astype("int64")
    return (g.sort_values("m", kind="mergesort").reset_index(drop=True)
            .astype({c: "int64" for c in g.columns}))


def supplier_backlog_aging(sf_dir: str) -> pd.DataFrame:
    """WIP AGING report as of the corpus midpoint: at snapshot day D
    (the lower-median order day), every line already ORDERED but not
    yet SHIPPED is open WIP; bucket its age (D − order day) into
    0–7 / 8–30 / 31–90 / 90+ days per SUPPLIER NATION — the aging
    table an ops review reads top-to-bottom (old WIP in one nation =
    a stuck lane). Value carried as exact extended-price cents.

    Shape: D from a bounded day-grid bincount fold (zero shuffle);
    then ONE ``orderkey % 64`` tagged-union exchange co-partitions
    order days with line rows; the supplier→nation hop is a
    dimension LUT inside the fold; output is |nations|×4 rows."""
    import pyarrow.parquet as pq

    DAY_US = 86_400_000_000
    orders = read(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"])

    def day_part(t: pa.Table) -> pa.Table:
        d = t.column("o_orderdate").cast(pa.int64()).to_numpy() // DAY_US
        u, c = np.unique(d, return_counts=True)
        return pa.table({"day": pa.array(u),
                         "n": pa.array(c.astype(np.int64))})

    days = (orders.map_batches(day_part, batch_format="pyarrow")
            .to_pandas().groupby("day", as_index=False).sum()
            .sort_values("day"))
    total = int(days["n"].sum())
    target = (total + 1) // 2                    # lower median rank
    D = int(days["day"].to_numpy()[
        np.searchsorted(np.cumsum(days["n"].to_numpy()), target)])

    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"])
    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"])
    sk = sup.column("s_suppkey").to_numpy().astype(np.int64)
    snk = sup.column("s_nationkey").to_numpy().astype(np.int64)
    o_ = np.argsort(sk)
    sk, snk = sk[o_], snk[o_]
    names = dict(zip(nat.column("n_nationkey").to_numpy().astype(np.int64),
                     nat.column("n_name").to_pylist()))
    edges = np.array([8, 31, 91], np.int64)
    bnames = np.array(["0-7", "8-30", "31-90", "90+"])

    def o_rows(t: pa.Table) -> pa.Table:
        o = t.column("o_orderkey").to_numpy().astype(np.int64)
        d = t.column("o_orderdate").cast(pa.int64()).to_numpy() // DAY_US
        m = d <= D
        o, d = o[m], d[m]
        return pa.table({
            "okey": pa.array(o), "v": pa.array(d),
            "side": pa.array(np.zeros(len(o), np.int8)),
            "cents": pa.array(np.zeros(len(o), np.int64))})

    def l_rows(t: pa.Table) -> pa.Table:
        o = t.column("l_orderkey").to_numpy().astype(np.int64)
        d = t.column("l_shipdate").cast(pa.int64()).to_numpy() // DAY_US
        s = t.column("l_suppkey").to_numpy().astype(np.int64)
        cents = np.floor(t.column("l_extendedprice").to_numpy()
                         * 100.0).astype(np.int64)
        m = d > D
        o, s, cents = o[m], s[m], cents[m]
        return pa.table({
            "okey": pa.array(o), "v": pa.array(s),
            "side": pa.array(np.ones(len(o), np.int8)),
            "cents": pa.array(cents)})

    items = read(sf_dir, "lineitem",
                 columns=["l_orderkey", "l_shipdate", "l_suppkey",
                          "l_extendedprice"])

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        side = g["side"].to_numpy(np.int8)
        okey = g["okey"].to_numpy(np.int64)
        v = g["v"].to_numpy(np.int64)
        cents = g["cents"].to_numpy(np.int64)
        om = side == 0
        okeys = okey[om]
        odays = v[om]
        oorder = np.argsort(okeys)
        okeys, odays = okeys[oorder], odays[oorder]
        lm = np.flatnonzero(side == 1)
        if len(lm) and len(okeys):
            pos = np.minimum(np.searchsorted(okeys, okey[lm]),
                             len(okeys) - 1)
            hit = okeys[pos] == okey[lm]
            lm, pos = lm[hit], pos[hit]
        else:
            lm = lm[:0]
            pos = np.zeros(0, np.int64)
        if len(lm):
            age = D - odays[pos]
            band = np.searchsorted(edges, age, side="right")
            nk = snk[np.searchsorted(sk, v[lm])]
            df = pd.DataFrame({"nk": nk, "band": band,
                               "n": 1, "cents": cents[lm]})
            return df.groupby(["nk", "band"], as_index=False).sum()
        return pd.DataFrame({"nk": [], "band": [], "n": [],
                             "cents": []})

    g = bucket_map([orders.map_batches(o_rows, batch_format="pyarrow"),
                    items.map_batches(l_rows, batch_format="pyarrow")],
                   "okey", fold)
    if g.empty:
        return pd.DataFrame({"n_name": [], "age_band": [], "n_lines": [],
                             "value_cents": []})
    g = g.groupby(["nk", "band"], as_index=False).sum()
    out = pd.DataFrame({
        "n_name": [names[int(x)] for x in g["nk"]],
        "age_band": [str(bnames[int(b)]) for b in g["band"]],
        "n_lines": g["n"].astype(np.int64),
        "value_cents": g["cents"].astype(np.int64)})
    return (out.sort_values(["n_name", "age_band"], kind="mergesort")
            .reset_index(drop=True)
            .astype({"n_lines": "int64", "value_cents": "int64"}))


def order_brand_diversity_curve(sf_dir: str) -> pd.DataFrame:
    """COLLECTOR'S CURVE of basket variety: per order line count m, the
    exact mean number of DISTINCT part brands in the basket (milli) —
    a curve hugging y=x means big baskets add variety (range-seeking
    customers), a flat curve means they repeat one brand (case/bulk
    buying). Output per m: orders, mean distinct brands.

    Shape: the part→brand hop is a dimension LUT broadcast by closure
    (partkey-sorted arrays, one searchsorted per batch); ONE
    ``orderkey % 64`` exchange; per bucket a lexsort + run-length pass
    counts distinct brands per order without per-order Python."""
    import pyarrow.parquet as pq

    part_t = pq.read_table(f"{sf_dir}/part.parquet",
                           columns=["p_partkey", "p_brand"])
    pk = part_t.column("p_partkey").to_numpy().astype(np.int64)
    br = np.asarray(part_t.column("p_brand").to_pylist(), dtype=object)
    o_ = np.argsort(pk)
    pk, br = pk[o_], br[o_]
    codes = {b: i for i, b in enumerate(sorted(set(br.tolist())))}
    brc = np.array([codes[b] for b in br], dtype=np.int64)

    items = read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def derive(t: pa.Table) -> pa.Table:
        o = t.column("l_orderkey").to_numpy().astype(np.int64)
        p = t.column("l_partkey").to_numpy().astype(np.int64)
        b = brc[np.searchsorted(pk, p)]
        return pa.table({"o": pa.array(o), "b": pa.array(b)})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        o = g["o"].to_numpy(np.int64)
        b = g["b"].to_numpy(np.int64)
        order = np.lexsort((b, o))
        o, b = o[order], b[order]
        newo = run_starts(o)
        starts = np.flatnonzero(newo)
        m = np.diff(np.append(starts, len(o)))
        newb = newo.copy()
        newb[1:] |= b[1:] != b[:-1]
        grp = np.cumsum(newo) - 1
        nb = np.bincount(grp[newb], minlength=len(starts))
        df = pd.DataFrame({"m": m.astype(np.int64), "n": 1,
                           "sb": nb.astype(np.int64)})
        return df.groupby("m", as_index=False).sum()

    g = (bucket_map(items.map_batches(derive, batch_format="pyarrow"),
                    "o", fold).groupby("m", as_index=False).sum())
    g["mean_brands_milli"] = (g["sb"] * 1000 // g["n"]).astype("int64")
    out = g.rename(columns={"n": "n_orders",
                            "sb": "sum_distinct_brands"})
    return (out.sort_values("m", kind="mergesort")
            .reset_index(drop=True)
            .astype({c: "int64" for c in out.columns}))
