"""Seeded synthetic tables for the ``query_mix`` workload.

Same ten tables, columns, types and value domains as the catalog's test
data described in TESTDATA.md (a TPC-H-like star schema plus ``events``,
``documents`` and ``embeddings``), generated from the workload seed into
the run directory, so the benchmark reads nothing outside its checkout.
Row counts scale with ``sf`` the way the test data's do.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
ADJ = ["blue", "cold", "hot", "large", "new", "old", "red", "small"]
NOUN = ["anvil", "bolt", "gear", "gizmo", "plate", "ring", "rod", "widget"]
PTYPES = ["ECONOMY", "LARGE", "MEDIUM", "PROMO", "SMALL", "STANDARD"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]
WORDS = ("a agg batch big column customer data fast filter group hash join "
         "key line merge order part query row scan slow small sort spark "
         "stream table the value vector window").split()
LANGS = ["en", "de", "es", "fr", "zh"]
LANG_P = [0.44, 0.14, 0.14, 0.14, 0.14]
EMB_DIM = 64

_DAY = np.timedelta64(1, "D")


def _cents(x: np.ndarray) -> np.ndarray:
    return np.round(x, 2)


def _days(rng, lo: str, hi: str, n: int) -> np.ndarray:
    a, b = np.datetime64(lo, "D"), np.datetime64(hi, "D")
    off = rng.integers(0, int((b - a) / _DAY) + 1, n)
    return (a + off * _DAY).astype("datetime64[us]")


def generate(out_dir: str, seed: int, sf: float) -> dict[str, int]:
    """Write ``<out_dir>/<table>.parquet`` for every table; return row
    counts."""
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)
    n_cust = int(150_000 * sf)
    n_supp = max(10, int(10_000 * sf))
    n_part = int(200_000 * sf)
    n_ord = int(1_500_000 * sf)
    n_line = int(6_000_000 * sf)
    n_evt = int(1_000_000 * sf)
    n_users = max(15, int(15_000 * sf))
    n_docs = max(500, int(50_000 * sf))
    n_emb = max(500, int(20_000 * sf))
    tables: dict[str, pa.Table] = {}

    tables["region"] = pa.table({
        "r_regionkey": pa.array(np.arange(5, dtype=np.int32)),
        "r_name": REGIONS})
    tables["nation"] = pa.table({
        "n_nationkey": pa.array(np.arange(25, dtype=np.int32)),
        "n_name": [f"NATION_{i}" for i in range(25)],
        "n_regionkey": pa.array(np.arange(25, dtype=np.int32) % 5)})
    tables["customer"] = pa.table({
        "c_custkey": np.arange(n_cust, dtype=np.int64),
        "c_name": [f"Customer#{i:09d}" for i in range(n_cust)],
        "c_nationkey": pa.array(rng.integers(0, 25, n_cust).astype(np.int32)),
        "c_acctbal": _cents(rng.uniform(-999.99, 9999.99, n_cust)),
        "c_mktsegment": pa.array(rng.choice(SEGMENTS, n_cust))})
    tables["supplier"] = pa.table({
        "s_suppkey": np.arange(n_supp, dtype=np.int64),
        "s_name": [f"Supplier#{i:09d}" for i in range(n_supp)],
        "s_nationkey": pa.array(rng.integers(0, 25, n_supp).astype(np.int32)),
        "s_acctbal": _cents(rng.uniform(-999.99, 9999.99, n_supp))})
    pk = np.arange(n_part, dtype=np.int64)
    tables["part"] = pa.table({
        "p_partkey": pk,
        "p_name": pa.array([f"{ADJ[a]} {NOUN[b]}" for a, b in zip(
            rng.integers(0, 8, n_part), rng.integers(0, 8, n_part))]),
        "p_brand": pa.array([f"Brand#{b}" for b in
                             rng.integers(1, 26, n_part)]),
        "p_type": pa.array(rng.choice(PTYPES, n_part)),
        "p_size": pa.array(rng.integers(1, 51, n_part).astype(np.int32)),
        "p_retailprice": np.round(900.0 + (pk % 1000) / 10.0, 1)})
    tables["orders"] = pa.table({
        "o_orderkey": np.arange(n_ord, dtype=np.int64),
        "o_custkey": rng.integers(0, n_cust, n_ord).astype(np.int64),
        "o_orderstatus": pa.array(rng.choice(["F", "O", "P"], n_ord)),
        "o_totalprice": _cents(rng.uniform(1000.0, 500000.0, n_ord)),
        "o_orderdate": _days(rng, "1995-01-01", "2001-08-01", n_ord),
        "o_orderpriority": pa.array(rng.choice(PRIORITIES, n_ord))})
    tables["lineitem"] = pa.table({
        "l_orderkey": rng.integers(0, n_ord, n_line).astype(np.int64),
        "l_partkey": rng.integers(0, n_part, n_line).astype(np.int64),
        "l_suppkey": rng.integers(0, n_supp, n_line).astype(np.int64),
        "l_linenumber": pa.array(rng.integers(1, 8, n_line).astype(np.int32)),
        "l_quantity": rng.integers(1, 51, n_line).astype(np.float64),
        "l_extendedprice": _cents(rng.uniform(900.0, 105000.0, n_line)),
        "l_discount": rng.integers(0, 11, n_line) / 100.0,
        "l_tax": rng.integers(0, 9, n_line) / 100.0,
        "l_returnflag": pa.array(rng.choice(["A", "N", "R"], n_line)),
        "l_linestatus": pa.array(rng.choice(["F", "O"], n_line)),
        "l_shipdate": _days(rng, "1995-01-02", "2001-11-04", n_line)})
    gaps = rng.exponential(30 * 86400 / n_evt, n_evt)
    ts = (np.datetime64("2024-01-01T00:00:00", "us")
          + (np.cumsum(gaps) * 1e6).astype(np.int64).astype("timedelta64[us]"))
    tables["events"] = pa.table({
        "event_id": np.arange(n_evt, dtype=np.int64),
        "ts": ts,
        "user_id": rng.integers(0, n_users, n_evt).astype(np.int64),
        "event_type": pa.array(rng.choice(EVENT_TYPES, n_evt)),
        "value": np.maximum(0.01, _cents(rng.exponential(50.0, n_evt))),
        "props": [f'{{"k": {k}}}' for k in rng.integers(0, 100, n_evt)]})
    texts = []
    for i in range(n_docs):
        if i >= 20 and rng.random() < 0.05:
            # near-duplicate of an earlier document
            texts.append(texts[int(rng.integers(0, i))] + " dup")
        else:
            n_words = int(rng.integers(10, 100))
            texts.append(" ".join(rng.choice(WORDS, n_words)))
    tables["documents"] = pa.table({
        "doc_id": np.arange(n_docs, dtype=np.int64),
        "text": texts,
        "lang": pa.array(rng.choice(LANGS, n_docs, p=LANG_P)),
        "source": [f"src{i % 20}" for i in range(n_docs)],
        "n_chars": np.array([len(t) for t in texts], dtype=np.int64)})
    labels = rng.integers(0, 10, n_emb)
    centers = rng.normal(0.0, 1.0, (10, EMB_DIM))
    vecs = centers[labels] * 0.15 + rng.normal(0.0, 1.0, (n_emb, EMB_DIM)) \
        / np.sqrt(EMB_DIM)
    vecs = (vecs / np.linalg.norm(vecs, axis=1, keepdims=True)).astype(
        np.float32)
    tables["embeddings"] = pa.table({
        "vec_id": np.arange(n_emb, dtype=np.int64),
        "embedding": pa.array(list(vecs), type=pa.list_(pa.float32())),
        "label": pa.array(labels.astype(np.int32))})

    for name, t in tables.items():
        pq.write_table(t, os.path.join(out_dir, f"{name}.parquet"))
    return {name: len(t) for name, t in tables.items()}
