"""The operator catalog's shared per-block kernels, each written once.

What belongs here: a ``map_batches`` derive/partial, a ``bucket_map``
fold or key, or a small driver helper that two or more catalog queries
run unchanged. A kernel that reads a value from its query (a split
day, histogram bounds, a broadcast ``ObjectRef``) takes it as a
keyword argument and the query binds it with ``functools.partial``; a
kernel that differs between queries only in one constant (a column
name) takes that constant the same way. Also here: the preambles
that whole query families repeat, ``orders_daily_cents`` (the per-day
order revenue series), ``undirected_edges`` (the distinct undirected
part co-occurrence edges) and ``half_flags`` (per-key activity in each
half of a timeline, closed by ``churn_census``).

The statement blocks that query bodies repeat are here too, one
function per decision:

- ``run_starts(*keys)``: the run-boundary mask over sorted rows;
- ``dense_lookup(keys, values)``: a dense key -> value array;
- ``session_order(src, *extra)``: a group's or block's columns in the
  per-user ``(user_id, ts_us, event_id)`` event order;
- ``greedy_pack``/``pack_docs``: in-order sequence packing;
- ``pair_masses``/``gamma_milli``: concordant/discordant pair masses
  of a 2-D count grid and the Goodman-Kruskal gamma they close to.

Why a leaf module: Ray pickles a module-level function by reference,
and a worker imports the defining module the first time it runs one of
its kernels. A nested kernel was pickled by value and cost no import.
So this module imports only numpy, pyarrow, pandas, ``functions.*``
and ``exchange``, never a catalog module: the import a worker pays for
a hoisted kernel stays small, where ``analytics`` alone takes about
0.4 s to import.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..functions.hashing import hash64_many, mix64
from .exchange import bucket_groups, read

_DAY_US = 86_400_000_000


# ------------------------------------------------------ statement blocks
def run_starts(*keys: np.ndarray) -> np.ndarray:
    """Bool mask over rows sorted by ``keys``: True at row 0 and
    wherever any key differs from the row before. Empty input (or no
    key) gives an empty mask."""
    brk = np.zeros(len(keys[0]) if keys else 0, dtype=bool)
    brk[:1] = True
    for k in keys:
        brk[1:] |= k[1:] != k[:-1]
    return brk


def dense_lookup(keys: np.ndarray, values, dtype=np.int64) -> np.ndarray:
    """Dense key -> value array over ``0..keys.max()``; keys absent
    from ``keys`` map to zero (False for a bool ``dtype``)."""
    lut = np.zeros(keys.max() + 1, dtype=dtype)
    lut[keys] = values
    return lut


def session_order(src, *extra: str,
                  keys: tuple[str, str, str] = ("user_id", "ts_us",
                                                "event_id")) -> tuple:
    """The per-user event order of a group (pandas) or block (arrow):
    ``(user, ts, event, *extra)`` gathered by
    ``np.lexsort((event, ts, user))``, the three ``keys`` columns as
    int64 and each ``extra`` column as numpy reads it."""
    u, ts, e = (np.asarray(src[c]).astype(np.int64, copy=False)
                for c in keys)
    order = np.lexsort((e, ts, u))
    return (u[order], ts[order], e[order],
            *(np.asarray(src[c])[order] for c in extra))


def greedy_pack(lens: np.ndarray, budget: int) -> tuple[np.ndarray,
                                                        np.ndarray]:
    """Greedy in-order packing into sequences of at most ``budget``
    (an item over the budget opens a sequence of its own): per item
    its sequence index and its offset in that sequence."""
    seq = np.empty(len(lens), dtype=np.int64)
    off = np.empty(len(lens), dtype=np.int64)
    cur_seq, cur_off = 0, 0
    for i, ln in enumerate(lens):
        if cur_off > 0 and cur_off + ln > budget:
            cur_seq += 1
            cur_off = 0
        seq[i] = cur_seq
        off[i] = cur_off
        cur_off += ln
    return seq, off


def pair_masses(grid: np.ndarray) -> tuple[int, int]:
    """Concordant and discordant pair masses of a 2-D count grid
    (rows and columns both ordinal), exact, via 2-D suffix sums: pair
    counts are computed by grid algebra, never enumerated."""
    na, nb = grid.shape
    gt = np.zeros((na + 1, nb + 1), dtype=object)
    for i in range(na - 1, -1, -1):
        for j in range(nb - 1, -1, -1):
            gt[i][j] = (int(grid[i][j]) + gt[i + 1][j]
                        + gt[i][j + 1] - gt[i + 1][j + 1])
    conc = 0
    disc = 0
    for i, j in zip(*np.nonzero(grid)):
        nij = int(grid[i][j])
        conc += nij * int(gt[i + 1][j + 1])
        lower = gt[i + 1][0] - gt[i + 1][j] if j > 0 else 0
        disc += nij * int(lower)
    return conc, disc


def gamma_milli(conc: int, disc: int) -> int:
    """Goodman-Kruskal gamma in milli, ``sgn * 1000*|C-D| // (C+D)``;
    0 when there is no pair."""
    tot = conc + disc
    sgn = 1 if conc >= disc else -1
    return sgn * (1000 * abs(conc - disc) // tot) if tot > 0 else 0


# ------------------------------------------------------- spans and days
def day_span(t: pa.Table, col: str) -> pa.Table:
    d = t.column(col).cast(pa.int64()).to_numpy() // _DAY_US
    return pa.table({"mn": pa.array([int(d.min())]),
                     "mx": pa.array([int(d.max())])})


def day_bounds(t: pa.Table, col: str) -> pa.Table:
    d = t.column(col).cast(pa.int64()).to_numpy() // _DAY_US
    return pa.table({"lo": pa.array([np.int64(d.min())]),
                     "hi": pa.array([np.int64(d.max())])})


def id_span(t: pa.Table, col: str) -> pa.Table:
    i = t.column(col).to_numpy().astype(np.int64)
    return pa.table({"mn": pa.array([int(i.min())]),
                     "mx": pa.array([int(i.max())])})


def ts_max_day(t: pa.Table) -> pa.Table:
    d = t.column("ts").cast(pa.int64()).to_numpy() // _DAY_US
    return pa.table({"mx": pa.array([int(d.max())])})


def day_counts(t: pa.Table, col: str) -> pa.Table:
    d = t.column(col).cast(pa.int64()).to_numpy() // _DAY_US
    u, cnt = np.unique(d, return_counts=True)
    return pa.table({"dy": pa.array(u),
                     "c": pa.array(cnt.astype(np.int64))})


def events_daily_n(t: pa.Table) -> pa.Table:
    day = t.column("ts").cast(pa.int64()).to_numpy() // _DAY_US
    u, cnt = np.unique(day, return_counts=True)
    return pa.table({"day": pa.array(u),
                     "n": pa.array(cnt.astype(np.int64))})


def tdiv(a: int, b: int) -> int:
    # integer division truncating toward zero, as DuckDB's `//` does
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def median_of_counts(sub: pd.DataFrame, col: str) -> int:
    sub = sub.sort_values(col)
    n = int(sub["c"].sum())
    cum = sub["c"].cumsum().to_numpy(np.int64)
    rank = (50 * n + 99) // 100
    return int(sub[col].to_numpy(np.int64)[
        np.searchsorted(cum, rank)])


def unique_ids(g: pd.DataFrame, col: str) -> pd.DataFrame:
    return pd.DataFrame({col: np.unique(g[col].to_numpy(np.int64))})


# --------------------------------------------------------------- orders
def orders_cents_by_day(t: pa.Table) -> pa.Table:
    dy = t.column("o_orderdate").cast(pa.int64()).to_numpy() // _DAY_US
    rev = np.floor(t.column("o_totalprice").to_numpy() * 100) \
        .astype(np.int64)
    u, inv = np.unique(dy, return_inverse=True)
    return pa.table({
        "dy": pa.array(u),
        "rev": pa.array(np.bincount(inv, weights=rev, minlength=len(u))
                        .astype(np.int64))})


def orders_daily_cents(sf_dir: str) -> tuple[np.ndarray, np.ndarray]:
    """Order revenue per day: ``(days, cents)``, int64 arrays over the
    observed epoch days in ascending order, ``cents`` the sum of
    ``FLOOR(o_totalprice * 100)``. One pass of per-block partials, no
    shuffle; the per-day merge runs on the driver (calendar-bounded)."""
    ds = read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])
    parts = ds.map_batches(orders_cents_by_day,
                           batch_format="pyarrow").to_pandas()
    agg = parts.groupby("dy", as_index=False)["rev"].sum()
    return agg["dy"].to_numpy(np.int64), agg["rev"].to_numpy(np.int64)


def orders_per_customer(t: pa.Table) -> pa.Table:
    u, c = np.unique(t.column("o_custkey").to_numpy()
                     .astype(np.int64), return_counts=True)
    return pa.table({"k": pa.array(u),
                     "c": pa.array(c.astype(np.int64))})


def cents_per_customer(t: pa.Table, out: str) -> pa.Table:
    c = t.column("o_custkey").to_numpy().astype(np.int64)
    cents = np.floor(t.column("o_totalprice").to_numpy() * 100) \
        .astype(np.int64)
    u, inv = np.unique(c, return_inverse=True)
    return pa.table({
        "ck": pa.array(u),
        out: pa.array(np.bincount(inv, weights=cents, minlength=len(u))
                      .astype(np.int64))})


def orders_cust_day_key_cents(t: pa.Table) -> pa.Table:
    c = t.column("o_custkey").to_numpy().astype(np.int64)
    return pa.table({
        "c": pa.array(c),
        "d": pa.array(t.column("o_orderdate").cast(pa.int64())
                      .to_numpy() // _DAY_US),
        "k": t.column("o_orderkey").cast(pa.int64()),
        "v": pa.array(np.floor(t.column("o_totalprice")
                               .to_numpy() * 100)
                      .astype(np.int64))})


def key_halves(t: pa.Table, key: str, date: str, mid: int) -> pa.Table:
    k = t.column(key).to_numpy().astype(np.int64)
    d = t.column(date).cast(pa.int64()).to_numpy() // _DAY_US
    ku, inv = np.unique(k, return_inverse=True)
    h1 = np.zeros(len(ku), np.int64)
    np.maximum.at(h1, inv, (d <= mid).astype(np.int64))
    h2 = np.zeros(len(ku), np.int64)
    np.maximum.at(h2, inv, (d > mid).astype(np.int64))
    return pa.table({"k": pa.array(ku), "h1": pa.array(h1),
                     "h2": pa.array(h2)})


def half_flags(sf_dir: str, table: str, key: str,
               date: str) -> pd.DataFrame:
    """Split ``table``'s ``date`` timeline at its midpoint day and flag
    every ``key``: ``h1``/``h2`` is 1 when the key has a row in the
    first (``<= mid``)/second half. One min/max day pass, then
    per-block flag partials folded on the driver (keys are
    dimension-sized); indexed by key, ascending."""
    ds = read(sf_dir, table, columns=[key, date])
    sp = ds.map_batches(functools.partial(day_span, col=date),
                        batch_format="pyarrow").to_pandas()
    mid = (int(sp["mn"].min()) + int(sp["mx"].max())) // 2
    return (ds.map_batches(functools.partial(key_halves, key=key,
                                             date=date, mid=mid),
                           batch_format="pyarrow")
            .to_pandas().groupby("k")[["h1", "h2"]].max())


def churn_census(g: pd.DataFrame, columns: list[str]) -> pd.DataFrame:
    """One-row churn census over ``half_flags``: keys seen, active in
    both halves, first half only, second half only, and H1->H2
    retention in exact bps."""
    h1 = g["h1"].to_numpy(np.int64)
    h2 = g["h2"].to_numpy(np.int64)
    n_both = int((h1 & h2).sum())
    n_h1 = int(((h1 == 1) & (h2 == 0)).sum())
    n_h2 = int(((h1 == 0) & (h2 == 1)).sum())
    return pd.DataFrame(
        [(len(g), n_both, n_h1, n_h2,
          10000 * n_both // (n_both + n_h1))],
        columns=columns).astype("int64")


def orders_priority_month_status(t: pa.Table) -> pa.Table:
    mo = t.column("o_orderdate").to_numpy() \
        .astype("datetime64[M]").astype(np.int64)
    return pa.table({"pr": t.column("o_orderpriority"),
                     "mo": pa.array(mo),
                     "st": t.column("o_orderstatus")})


def status_day_stats(t: pa.Table, status: str, date: str) -> pa.Table:
    d = t.column(date).cast(pa.int64()).to_numpy() // _DAY_US
    df = pd.DataFrame({"st": t.column(status).to_pylist(), "d": d})
    g = df.groupby("st").agg(n=("d", "size"), mn=("d", "min"),
                             mx=("d", "max")).reset_index()
    return pa.Table.from_pandas(g, preserve_index=False)


def tag_order_cust(t: pa.Table) -> pa.Table:
    key = t.column("o_orderkey").to_numpy().astype(np.int64)
    return pa.table({
        "key": pa.array(key),
        "aux": pa.array(t.column("o_custkey").to_numpy()
                        .astype(np.int64)),
        "side": pa.array(np.zeros(len(key), dtype=np.int8))})


# ------------------------------------------- lineitem, part and supplier
def tag_lineitem(t: pa.Table, aux: str) -> pa.Table:
    key = t.column("l_orderkey").to_numpy().astype(np.int64)
    return pa.table({
        "key": pa.array(key),
        "aux": pa.array(t.column(aux).to_numpy().astype(np.int64)),
        "side": pa.array(np.ones(len(key), dtype=np.int8))})


def lineitem_key_pair(t: pa.Table, lhs: str) -> np.ndarray:
    return np.stack([t.column(lhs).to_numpy().astype(np.int64),
                     t.column("l_suppkey").to_numpy()
                     .astype(np.int64)], axis=1)


def lineitem_part_month(t: pa.Table) -> pa.Table:
    k = t.column("l_partkey").to_numpy().astype(np.int64)
    m = t.column("l_shipdate").to_numpy().astype("datetime64[M]") \
        .astype(np.int64)
    rev = np.floor(t.column("l_extendedprice").to_numpy() * 100) \
        .astype(np.int64)
    q = t.column("l_quantity").to_numpy().astype(np.int64)
    return pa.table({"k": pa.array(k), "m": pa.array(m),
                     "rev": pa.array(rev), "q": pa.array(q)})


def lineitem_flag_moments(t: pa.Table) -> pa.Table:
    df = pd.DataFrame({
        "flag": t.column("l_returnflag").to_pylist(),
        "x": np.floor(t.column("l_quantity").to_numpy())
        .astype(np.int64),
        "y": np.floor(t.column("l_extendedprice").to_numpy())
        .astype(np.int64)})
    df["xy"] = df["x"] * df["y"]
    df["xx"] = df["x"] * df["x"]
    df["yy"] = df["y"] * df["y"]
    df["n"] = 1
    g = df.groupby("flag", as_index=False).sum()
    return pa.Table.from_pandas(g, preserve_index=False)


def discount_level_qty(t: pa.Table) -> pa.Table:
    a = np.floor(t.column("l_discount").to_numpy() * 100) \
        .astype(np.int64)
    q = np.floor(t.column("l_quantity").to_numpy()) \
        .astype(np.int64)
    return pa.table({
        "lvl": pa.array(np.arange(11, dtype=np.int64)),
        "n": pa.array(np.bincount(a, minlength=11)
                      .astype(np.int64)),
        "sq": pa.array(np.bincount(a, weights=q, minlength=11)
                       .astype(np.int64))})


def supplier_line_counts(t: pa.Table) -> pa.Table:
    u, c = np.unique(t.column("l_suppkey").to_numpy()
                     .astype(np.int64), return_counts=True)
    return pa.table({"s": pa.array(u),
                     "c": pa.array(c.astype(np.int64))})


def part_unit_cents(t: pa.Table) -> pa.Table:
    p = t.column("l_partkey").to_numpy().astype(np.int64)
    uc = (np.floor(t.column("l_extendedprice").to_numpy() * 100)
          .astype(np.int64)
          // np.floor(t.column("l_quantity").to_numpy())
          .astype(np.int64))
    pu, inv = np.unique(p, return_inverse=True)
    s = np.zeros(len(pu), np.int64)
    np.add.at(s, inv, uc)
    c = np.bincount(inv, minlength=len(pu)).astype(np.int64)
    return pa.table({"p": pa.array(pu), "s": pa.array(s),
                     "c": pa.array(c)})


def distinct_parts(t: pa.Table) -> pa.Table:
    return pa.table({"p": pa.array(np.unique(
        t.column("l_partkey").to_numpy().astype(np.int64)))})


def brand_price_counts(t: pa.Table) -> pa.Table:
    df = pd.DataFrame({
        "br": np.asarray(t.column("p_brand")).astype(object),
        "v": np.floor(t.column("p_retailprice").to_numpy() * 100)
        .astype(np.int64)})
    g = df.groupby(["br", "v"], as_index=False).size()
    return pa.table({"br": pa.array(g["br"], type=pa.string()),
                     "v": pa.array(g["v"].to_numpy(np.int64)),
                     "c": pa.array(g["size"].to_numpy(np.int64))})


def supplier_lag_fold(g: pd.DataFrame) -> pd.DataFrame:
    o = g[g["s"] < 0][["k", "d"]].rename(columns={"d": "od"})
    l_ = g[g["s"] >= 0]
    m = l_.merge(o, on="k")
    lag = m["d"].to_numpy(np.int64) - m["od"].to_numpy(np.int64)
    su, inv = np.unique(m["s"].to_numpy(np.int64),
                        return_inverse=True)
    n = np.bincount(inv, minlength=len(su)).astype(np.int64)
    s = np.zeros(len(su), np.int64)
    np.add.at(s, inv, lag)
    return pd.DataFrame({"s": su, "n": n, "sum_lag": s})


def order_width_fold(g: pd.DataFrame, key: str) -> pd.DataFrame:
    o = g[g[key] >= 0][["k", key]]
    l_ = g[g[key] < 0].groupby("k", as_index=False)["c"].sum()
    m = o.merge(l_, on="k")
    out = m.groupby(key, as_index=False).agg(
        n_orders=("c", "size"), n_lines=("c", "sum"))
    return out


def nation_flow_join(g: pd.DataFrame, ref) -> pd.DataFrame:
    s_nat_, c_nat_ = ray.get(ref)
    left = g[g["side"] == 0][["key", "aux"]] \
        .rename(columns={"aux": "custkey"})
    right = g[g["side"] == 1][["key", "aux"]] \
        .rename(columns={"aux": "suppkey"})
    m = right.merge(left, on="key")
    if not len(m):
        return pd.DataFrame({"sn": pd.Series([], dtype=np.int64),
                             "cn": pd.Series([], dtype=np.int64),
                             "o": pd.Series([], dtype=np.int64)})
    out = pd.DataFrame({
        "sn": s_nat_[m["suppkey"].to_numpy(np.int64)],
        "cn": c_nat_[m["custkey"].to_numpy(np.int64)]})
    return out.groupby(["sn", "cn"], as_index=False).size() \
        .rename(columns={"size": "o"})


# --------------------------------------------------------------- events
def ev_user_ts_eid_cents(t: pa.Table) -> pa.Table:
    u = t.column("user_id").to_numpy().astype(np.int64)
    cents = np.floor(t.column("value").to_numpy() * 100) \
        .astype(np.int64)
    return pa.table({
        "user_id": pa.array(u),
        "ts_us": t.column("ts").cast(pa.int64()),
        "event_id": t.column("event_id"),
        "cents": pa.array(cents)})


def ev_eid_user_ts_cents(t: pa.Table) -> pa.Table:
    cents = np.floor(t.column("value").to_numpy() * 100).astype(np.int64)
    return pa.table({"event_id": t.column("event_id"),
                     "user_id": t.column("user_id"),
                     "ts_us": t.column("ts").cast(pa.int64()),
                     "cents": pa.array(cents)})


def ev_eid_uid_ts_cents(t: pa.Table) -> pa.Table:
    u = t.column("user_id").to_numpy().astype(np.int64)
    v = np.floor(t.column("value").to_numpy() * 100).astype(np.int64)
    return pa.table({
        "event_id": t.column("event_id"),
        "user_id": pa.array(u),
        "ts_us": t.column("ts").cast(pa.int64()),
        "cents": pa.array(v)})


def ev_user_ts_eid_type(t: pa.Table) -> pa.Table:
    u = t.column("user_id").to_numpy().astype(np.int64)
    return pa.table({
        "user_id": pa.array(u),
        "ts_us": t.column("ts").cast(pa.int64()),
        "event_id": t.column("event_id"),
        "event_type": t.column("event_type")})


def ev_u_tsus_eid_ty(t: pa.Table) -> pa.Table:
    u = t.column("user_id").to_numpy().astype(np.int64)
    return pa.table({
        "u": pa.array(u), "ts_us": t.column("ts").cast(pa.int64()),
        "event_id": t.column("event_id"),
        "ty": t.column("event_type")})


def ev_u_ts_eid_ty(t: pa.Table) -> pa.Table:
    u = t.column("user_id").to_numpy().astype(np.int64)
    return pa.table({
        "u": pa.array(u),
        "ts": t.column("ts").cast(pa.int64()),
        "eid": pa.array(t.column("event_id").to_numpy()
                        .astype(np.int64)),
        "ty": t.column("event_type")})


def ev_user_ts_eid(t: pa.Table, user: str) -> pa.Table:
    u = t.column("user_id").to_numpy().astype(np.int64)
    return pa.table({
        user: pa.array(u), "ts_us": t.column("ts").cast(pa.int64()),
        "event_id": t.column("event_id")})


def ev_user_ts(t: pa.Table) -> pa.Table:
    u = t.column("user_id").to_numpy().astype(np.int64)
    return pa.table({
        "user_id": pa.array(u),
        "ts_us": t.column("ts").cast(pa.int64())})


def ev_u_ty(t: pa.Table) -> pa.Table:
    u = t.column("user_id").to_numpy().astype(np.int64)
    return pa.table({"u": pa.array(u), "ty": t.column("event_type")})


def ev_cents_by(t: pa.Table, col: str) -> pa.Table:
    v = np.floor(t.column("value").to_numpy() * 100).astype(np.int64)
    return pa.table({col: t.column(col), "cents": pa.array(v)})


def click_purchase_rows(t: pa.Table, user: str) -> pa.Table:
    et = t.column("event_type").to_numpy(zero_copy_only=False)
    keep = (et == "click") | (et == "purchase")
    u = t.column("user_id").to_numpy().astype(np.int64)[keep]
    ts = t.column("ts").cast(pa.int64()).to_numpy()[keep]
    return pa.table({
        user: pa.array(u),
        "ts_us": pa.array(ts),
        "is_click": pa.array(et[keep] == "click")})


def click_purchase_cents(t: pa.Table) -> pa.Table:
    et = t.column("event_type")
    keep = pc.is_in(et, value_set=pa.array(["click", "purchase"]))
    t = t.filter(keep)
    a = pc.equal(t.column("event_type"), "click").to_numpy(
        zero_copy_only=False)
    cents = np.floor(t.column("value").to_numpy() * 100) \
        .astype(np.int64)
    pk = cents * 2 + (~a).astype(np.int64)     # side in the low bit
    uk, inv = np.unique(pk, return_inverse=True)
    n = np.bincount(inv).astype(np.int64)
    return pa.table({"pk": pa.array(uk), "n": pa.array(n)})


def users_with_bits(t: pa.Table, mx: int) -> pa.Table:
    m = ((t.column("mx").to_numpy() == mx)
         & (t.column("mn").to_numpy() == 1))
    return pa.table({"user_id": pa.array(
        t.column("user_id").to_numpy()[m].astype(np.int64))})


def cents_value_counts(t: pa.Table) -> pa.Table:
    v = np.floor(t.column("value").to_numpy() * 100).astype(np.int64)
    u, c = np.unique(v, return_counts=True)
    return pa.table({"cents": pa.array(u),
                     "n": pa.array(c.astype(np.int64))})


def cents_counts_sum(g: pd.DataFrame) -> pa.Table:
    out = g.groupby("cents", as_index=False)["n"].sum()
    return pa.Table.from_pandas(out, preserve_index=False)


def cents_min_max_n(t: pa.Table) -> pa.Table:
    v = t.column("cents").to_numpy()
    return pa.table({"lo": pa.array([int(v.min())], type=pa.int64()),
                     "hi": pa.array([int(v.max())], type=pa.int64()),
                     "n": pa.array([len(v)], type=pa.int64())})


def cents_histogram(t: pa.Table, lo: int, hi: int) -> pa.Table:
    v = t.column("cents").to_numpy()
    cnt = np.bincount(v - lo, minlength=hi - lo + 1).astype(np.int64)
    return pa.table({"v": pa.array([cnt.tobytes()],
                                   type=pa.large_binary())})


def user_day_cents(t: pa.Table) -> pa.Table:
    u = t.column("user_id").to_numpy().astype(np.int64)
    d = t.column("ts").cast(pa.int64()).to_numpy() // _DAY_US
    cents = np.floor(t.column("value").to_numpy() * 100) \
        .astype(np.int64)
    key = u * 32768 + (d % 32768)
    uk, inv = np.unique(key, return_inverse=True)
    s = np.zeros(len(uk), np.int64)
    np.add.at(s, inv, cents)
    return pa.table({"u": pa.array(uk // 32768),
                     "d": pa.array(uk % 32768),
                     "s": pa.array(s)})


def user_active_days(t: pa.Table) -> pa.Table:
    u = t.column("user_id").to_numpy().astype(np.int64)
    d = t.column("ts").cast(pa.int64()).to_numpy() // _DAY_US
    key = u * 32768 + (d % 32768)
    uk = np.unique(key)
    return pa.table({"u": pa.array(uk // 32768),
                     "d": pa.array(uk % 32768)})


def user_type_counts(t: pa.Table) -> pa.Table:
    df = pd.DataFrame({
        "user_id": t.column("user_id").to_numpy().astype(np.int64),
        "event_type": np.asarray(t.column("event_type"))
        .astype(object)})
    g = df.groupby(["user_id", "event_type"], as_index=False).size()
    uid = g["user_id"].to_numpy(np.int64)
    return pa.table({
        "user_id": pa.array(uid),
        "event_type": pa.array(g["event_type"].to_numpy(object),
                               type=pa.string()),
        "n": pa.array(g["size"].to_numpy(np.int64))})


def type_transition_fold(g: pd.DataFrame) -> pd.DataFrame:
    u, _, _, ty = session_order(g, "ty", keys=("u", "ts", "eid"))
    same = np.empty(len(u), dtype=bool)
    if len(u):
        same[:-1] = u[1:] == u[:-1]
        same[-1] = False
    i = np.flatnonzero(same)
    df = pd.DataFrame({"a": ty[i], "b": ty[i + 1], "n": 1})
    return df.groupby(["a", "b"], as_index=False).sum()


# ------------------------------------------------------- documents/text
def sampled_tokens(t: pa.Table) -> pa.Table:
    keep = (t.column("doc_id").to_numpy() % 199) == 0
    texts = np.asarray(t.column("text"), dtype=object)[keep]
    toks = sorted({w for s in texts for w in s.split()})
    return pa.table({"tok": pa.array(toks, type=pa.string())})


def source_token_counts(t: pa.Table) -> pa.Table:
    src = np.asarray(t.column("source")).astype(object)
    # RE2-vectorized tokenization: split on whitespace runs, drop
    # edge empties (same token stream as str.split())
    parts_ = pc.split_pattern_regex(t.column("text"), r"\s+") \
        .combine_chunks()
    counts = np.asarray(parts_.value_lengths(), dtype=np.int64)
    flat = parts_.flatten()
    keep = pc.utf8_length(flat).to_numpy(zero_copy_only=False) > 0
    toks = np.asarray(flat).astype(object)[keep]
    srcs = np.repeat(src, counts)[keep]
    h = hash64_many(toks).astype(np.int64)
    code, uniq = pd.factorize(srcs)
    # pre-count within block to shrink the exchange
    df = pd.DataFrame({"c": code.astype(np.int64), "h": h})
    cnt = df.groupby(["c", "h"], as_index=False).size()
    return pa.table({
        "source": pa.array(
            np.asarray(uniq, dtype=object)
            [cnt["c"].to_numpy(np.int64)].astype(str),
            type=pa.string()),
        "h": pa.array(cnt["h"].to_numpy(np.int64)),
        "n": pa.array(cnt["size"].to_numpy(np.int64))})


def token_hash_counts(t: pa.Table) -> pa.Table:
    toks = []
    for s in t.column("text").to_pylist():
        toks.extend(s.split())
    if not toks:
        return pa.table({"h": pa.array([], type=pa.int64()),
                         "n": pa.array([], type=pa.int64())})
    h = hash64_many(np.array(toks, dtype=object)).astype(np.int64)
    u, c = np.unique(h, return_counts=True)
    return pa.table({
        "h": pa.array(u), "n": pa.array(c.astype(np.int64))})


def shingle_explode(t: pa.Table, k: int) -> pa.Table:
    ids, shingles, nsh = [], [], []
    for doc_id, text in zip(t.column("doc_id").to_pylist(),
                            t.column("text").to_pylist()):
        toks = text.split()
        ss = {" ".join(toks[i:i + k]) for i in range(len(toks) - k + 1)}
        ids.extend([doc_id] * len(ss))
        shingles.extend(sorted(ss))
        nsh.extend([len(ss)] * len(ss))
    return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                     "shingle": pa.array(shingles, type=pa.string()),
                     "n_sh": pa.array(nsh, type=pa.int64())})


def bucket_pair_counts(g: pd.DataFrame) -> pa.Table:
    m = g[["shingle", "doc_id", "n_sh"]].merge(
        g[["shingle", "doc_id", "n_sh"]], on="shingle")
    m = m[m["doc_id_x"] < m["doc_id_y"]]
    out = (m.groupby(["doc_id_x", "doc_id_y"], as_index=False)
           .agg(inter_part=("shingle", "size"),
                na=("n_sh_x", "first"), nb=("n_sh_y", "first")))
    out = out.rename(columns={"doc_id_x": "a", "doc_id_y": "b"})
    # Arrow output: pandas blocks straight into the next groupby put
    # that exchange on Ray's pandas sort path (measured ~20× slower)
    return pa.Table.from_pandas(out, preserve_index=False)


def mixed_key(t: pa.Table, col: str) -> np.ndarray:
    return mix64(t.column(col).to_numpy().astype(np.uint64))


def tag_kept_docs(t: pa.Table, keep_ref, part_size: int) -> pa.Table:
    ks = ray.get(keep_ref)
    ids = t.column("doc_id").to_numpy().astype(np.int64)
    pos = np.clip(np.searchsorted(ks, ids), 0, max(0, len(ks) - 1))
    m = (len(ks) > 0) & (ks[pos] == ids)
    t = t.filter(pa.array(m))
    block = t.column("doc_id").to_numpy() // part_size
    return t.append_column("block", pa.array(block.astype(np.int64)))


def pack_docs(g: pd.DataFrame, budget: int) -> pd.DataFrame:
    """Pack one id-block of ``(doc_id, n_chars, block)`` rows in
    doc_id order: per doc its sequence id (``block << 20`` plus the
    local index) and its character offset in the sequence."""
    g = g.sort_values("doc_id", kind="mergesort")
    n = g["n_chars"].to_numpy()
    seq, off = greedy_pack(n, budget)
    base = int(g["block"].iloc[0]) << 20
    return pd.DataFrame({"doc_id": g["doc_id"].to_numpy(),
                         "seq_id": base + seq, "seq_off": off,
                         "n_chars": n})


def lead_pair_derive(t: pa.Table, el_ref) -> pa.Table:
    """Shared LEAD-rule pair-legs derive: for every eligible doc
    (doc_id % 5 == 0) emit, per pair membership, the distinct token
    hashes (exact-Jaccard leg, kind=0) and the 64 seeded MinHash
    signature values (estimate leg, kind=1). ``el_ref`` holds the
    sorted pair-boundary doc ids. Used by ``minhash_error_audit``,
    ``dedup_threshold_pr`` and ``fold_leakage_audit``."""
    elo = ray.get(el_ref)
    did = t.column("doc_id").to_numpy()
    texts = t.column("text").to_pylist()
    pair, kind, kk, side, val = [], [], [], [], []
    for i, s in enumerate(texts):
        d = int(did[i])
        if d % 5 != 0:
            continue
        j = int(np.searchsorted(elo, d))
        members = []
        if j < len(elo) - 1:
            members.append((j, 0))
        if j >= 1:
            members.append((j - 1, 1))
        if not members:
            continue
        toks = np.unique(np.array(s.split(), dtype=object))
        if not len(toks):
            continue
        h = hash64_many(toks).astype(np.int64)
        sig = np.empty(64, np.int64)
        tl = list(toks)
        for k in range(64):
            suf = f"#{k}"
            sig[k] = int(hash64_many(
                [w + suf for w in tl]).min().astype(np.int64))
        for pj, sd in members:
            pair.extend([pj] * (len(h) + 64))
            kind.extend([0] * len(h) + [1] * 64)
            kk.extend([-1] * len(h))
            kk.extend(range(64))
            side.extend([sd] * (len(h) + 64))
            val.extend(h.tolist())
            val.extend(sig.tolist())
    return pa.table({
        "pair": pa.array(pair, type=pa.int64()),
        "kind": pa.array(kind, type=pa.int8()),
        "k": pa.array(kk, type=pa.int32()),
        "side": pa.array(side, type=pa.int8()),
        "val": pa.array(val, type=pa.int64())})


# ---------------------------------------------------------------- graph
def _build_edges(sf_dir: str):
    """Directed weighted edges (src_part → dst_part): consecutive
    lineitems (by l_linenumber) within the same order contribute one
    unit of weight. One bucketed exchange (``orderkey % 64``); each
    bucket derives its orders' consecutive pairs with vectorized
    shifts and pre-aggregates (src, dst) weights."""
    items = read(sf_dir, "lineitem",
                 columns=["l_orderkey", "l_linenumber", "l_partkey"])

    def mk_edges(g: pd.DataFrame) -> pd.DataFrame:
        # l_partkey tiebreak: (orderkey, linenumber) is NOT unique in
        # the data, and without a total order the consecutive-pair set
        # would depend on Ray block arrival order (nondeterministic)
        g = g.sort_values(["l_orderkey", "l_linenumber", "l_partkey"],
                          kind="mergesort")
        ok = g["l_orderkey"].to_numpy(np.int64)
        pk = g["l_partkey"].to_numpy(np.int64)
        same = ok[1:] == ok[:-1]
        e = pd.DataFrame({"src": pk[:-1][same], "dst": pk[1:][same]})
        return (e.groupby(["src", "dst"], as_index=False)
                .size().rename(columns={"size": "w"}))

    def merge_edges(g: pd.DataFrame) -> pd.DataFrame:
        return (g.groupby(["src", "dst"], as_index=False)["w"].sum())

    # second bucketed reduce: the SAME (src, dst) pair appears in many
    # order-buckets; contributions use floor division, so weights must
    # be globally aggregated BEFORE the iteration or the per-fragment
    # floors lose 1 ppm each (measured vs the golden).
    return bucket_groups(bucket_groups(items, "l_orderkey", mk_edges),
                         "src", merge_edges).materialize()


def undirect(t: pa.Table) -> pa.Table:
    s = t.column("src").to_numpy().astype(np.int64)
    d = t.column("dst").to_numpy().astype(np.int64)
    m = s != d
    a = np.minimum(s[m], d[m])
    b = np.maximum(s[m], d[m])
    return pa.table({"a": pa.array(a), "b": pa.array(b)})


def distinct_ab(g: pd.DataFrame) -> pd.DataFrame:
    return g[["a", "b"]].drop_duplicates()


def undirected_edges(sf_dir: str) -> ray.data.Dataset:
    """The distinct undirected part co-occurrence edges ``(a, b)``,
    ``a < b``, self-loops dropped: ``_build_edges``, then one
    ``a % 64`` exchange that deduplicates. Left lazy; the caller
    materializes it or collects it."""
    edges = _build_edges(sf_dir)
    return bucket_groups(edges.map_batches(undirect, batch_format="pyarrow"),
                         "a", distinct_ab)


def pack_edges(t: pa.Table) -> pa.Table:
    a = t.column("a").to_numpy().astype(np.int64)
    b = t.column("b").to_numpy().astype(np.int64)
    return pa.table({"pk": pa.array(a * (1 << 21) + b)})


def adjacency(t: pa.Table) -> pa.Table:
    a = t.column("a").to_numpy().astype(np.int64)
    b = t.column("b").to_numpy().astype(np.int64)
    u = np.concatenate([a, b])
    v = np.concatenate([b, a])
    return pa.table({"u": pa.array(u), "v": pa.array(v)})
