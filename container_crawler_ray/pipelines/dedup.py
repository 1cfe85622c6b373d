"""Deduplication operators for a training-data pipeline (graft additions
beyond the reference — SURVEY.md §2.7 notes the reference has none):

- exact dedup → analytics.dedup_exact (groupby content, keep first)
- MinHash + LSH near-dup (shingle → minhash sketch per batch → band
  explode → groupby(band) buckets → verified Jaccard pairs → connected
  components by iterative min-label propagation)
- SimHash (64-bit, vectorized hamming buckets)
- n-gram Jaccard top pairs (exact, SQL-checkable)
- embedding-cosine near-dup pairs (SQL-checkable via list_cosine_similarity)

Scale notes live on each op: the LSH band groupby is the only all-to-all
exchange and moves one (band, hash, doc) row per band per doc, never the
text itself.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data
from ray.data.aggregate import Count

from ..functions.hashing import mix64
from .exchange import bucket_groups, bucket_map, read
from .kernels import (
    bucket_pair_counts, lead_pair_derive, mixed_key, run_starts,
    shingle_explode, unique_ids)

NUM_PERM = 64
BANDS = 16
ROWS_PER_BAND = NUM_PERM // BANDS
_P61 = np.uint64((1 << 61) - 1)


def _word_shingles(text: str, k: int) -> np.ndarray:
    from ..functions.hashing import hash64

    toks = text.split()
    if len(toks) < k:
        return (np.array([hash64(" ".join(toks))], dtype=np.uint64)
                if toks else np.array([], dtype=np.uint64))
    return np.unique(np.fromiter(
        (hash64(" ".join(toks[i:i + k])) for i in range(len(toks) - k + 1)),
        dtype=np.uint64, count=len(toks) - k + 1))


_MINHASH_COEF: dict[int, tuple] = {}


def _minhash_coefs():
    """Fixed universal-hash coefficients h_i(x) = (a_i*x + b_i) mod 2^61-1,
    derived once per worker process."""
    c = _MINHASH_COEF.get(NUM_PERM)
    if c is None:
        rng = np.random.RandomState(42)
        a = rng.randint(1, (1 << 61) - 1, size=NUM_PERM).astype(np.uint64)
        b = rng.randint(0, (1 << 61) - 1, size=NUM_PERM).astype(np.uint64)
        c = (a, b)
        _MINHASH_COEF[NUM_PERM] = c
    return c


def make_minhash_fn(k: int):
    """Per-batch minhash → band-hash rows. The per-doc sketch is a numpy
    matmul-shaped kernel over the doc's shingles; the band hashing runs
    ONCE for the whole batch on the stacked (docs × NUM_PERM) sketch
    matrix."""

    def minhash(t: pa.Table) -> pa.Table:
        a, b = _minhash_coefs()
        doc_ids = t.column("doc_id").to_numpy().astype(np.int64)
        texts = t.column("text").to_pylist()
        n = len(texts)
        sk = np.empty((n, NUM_PERM), dtype=np.uint64)
        maxu = np.iinfo(np.uint64).max
        with np.errstate(over="ignore"):
            for i, text in enumerate(texts):
                sh = _word_shingles(text, k)
                if len(sh) == 0:
                    sk[i] = maxu
                else:
                    sk[i] = ((sh[None, :] * a[:, None] + b[:, None])
                             % _P61).min(axis=1)
            # band hash: fold ROWS_PER_BAND sketch values per band,
            # vectorized over (docs × BANDS) at once
            bands = sk.reshape(n, BANDS, ROWS_PER_BAND)
            bh = mix64(bands[:, :, 0].copy())
            for j in range(1, ROWS_PER_BAND):
                bh = mix64(bh ^ bands[:, :, j])
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(doc_ids, BANDS)),
                "band": pa.array(np.tile(np.arange(BANDS, dtype=np.int32), n)),
                "band_hash": pa.array(bh.reshape(-1)),
            }
        )

    return minhash


def _shingle_explode_fn(k: int, cand_ref):
    """(doc_id, shingle_hash) rows for CANDIDATE docs only (broadcast id
    set, sorted for searchsorted membership)."""

    def explode(t: pa.Table) -> pa.Table:
        cand = ray.get(cand_ref)
        ids = t.column("doc_id").to_numpy().astype(np.int64)
        pos = np.clip(np.searchsorted(cand, ids), 0, len(cand) - 1)
        keep = np.flatnonzero(cand[pos] == ids)
        texts = t.column("text").to_pylist()
        out_ids, out_sh = [], []
        for i in keep:
            sh = _word_shingles(texts[i], k)
            out_ids.append(np.full(len(sh), ids[i], dtype=np.int64))
            out_sh.append(sh)
        if not out_ids:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "shingle_hash": pa.array([], type=pa.uint64())})
        return pa.table({"doc_id": pa.array(np.concatenate(out_ids)),
                         "shingle_hash": pa.array(np.concatenate(out_sh))})

    return explode


def _shingle_hash(t: pa.Table) -> np.ndarray:
    """Bucket key of a ``shingle`` string column."""
    from ..functions.hashing import hash64_many
    return hash64_many(t.column("shingle").to_pylist())


def _pair_key(t: pa.Table) -> np.ndarray:
    """Bucket key of an (a, b) doc pair."""
    return (t.column("a").to_numpy().astype(np.int64) * 1000003
            + t.column("b").to_numpy().astype(np.int64))


_CC_LOCAL_MAX = 100_000

# Driver-resident candidate-pair budget for the LSH pipelines. Below the
# cap the collision pair list collects to one pandas frame (the deduped
# web-corpus common case — pairs are bounded by the collision set).
# Past it — the boilerplate-corpus worst case where one shared band
# value makes every doc collide, growing pairs quadratically — the pair
# stream STAYS a Dataset: cross-band dedup runs as a bucketed exchange,
# verification consumes bounded chunks (one ray.put per chunk), and
# connected components take the Dataset path of
# ``_propagate_components``. A warning logs when the cap engages.
_PAIR_DRIVER_CAP = 2_000_000
_PAIR_CHUNK = 500_000

# Driver-resident label-map budget for the minhash join-back. Below the
# cap the (dup-doc → group) map broadcasts once via ray.put and each
# block joins against it in map_batches — bounded by the dup-doc count,
# the deduped-corpus common case. Past it — a MOSTLY-duplicates corpus
# (the CommonCrawl worst case near-dedup exists FOR), where nearly every
# doc is in some dup group — the labels STAY a Dataset and the join-back
# runs as one bucketed exchange (doc rows ∪ label rows co-located by
# id % 256), so the driver never holds the map. A warning logs when the
# cap engages.
_LABEL_DRIVER_CAP = 2_000_000

_LOG = __import__("logging").getLogger("container_crawler_ray.dedup")


def _local_components(edges: pd.DataFrame) -> pd.DataFrame:
    """Min-root union-find for the driver-resident small side — emits
    the same (node, label=min node of component) frame as the
    distributed rounds."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(edges["a"].to_numpy(np.int64),
                    edges["b"].to_numpy(np.int64)):
        a, b = int(a), int(b)
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    nodes = sorted(parent)
    return pd.DataFrame({
        "node": np.array(nodes, dtype=np.int64),
        "label": np.array([find(n) for n in nodes], dtype=np.int64)})


def _propagate_components(edges: "pd.DataFrame | ray.data.Dataset",
                          max_rounds: int = 8,
                          as_dataset: bool = False
                          ) -> "pd.DataFrame | ray.data.Dataset":
    """Distributed connected components by iterative min-label propagation
    (the 100 TB path — no driver union-find). Each round is two
    ONE hash-bucketed exchange per round: a node's label row, its
    out-edges (keyed by src) and its incoming messages (keyed by dst) all
    co-locate in bucket ``node % B``, so one vectorized group fn per
    bucket both min-reduces the incoming labels AND fans the updated
    label out along the node's edges for the next round.

    Bucketing (B = 64 groups) rather than per-node groups keeps the
    per-round work a handful of vectorized tasks; the driver sees only
    the per-round changed COUNT. Converges in O(component diameter) + 1
    rounds; near-dup components are dense (cliques from band
    collisions), so 3 rounds is typical.

    Small-side shortcut: a driver-resident DataFrame pair list (the
    bounded-candidate fast path) below ``_CC_LOCAL_MAX`` edges resolves
    through a local min-root union-find without paying per-round Ray
    orchestration (~0.4 s/round) on kilobyte inputs; the distributed
    rounds engage past the threshold. A ``ray.data.Dataset`` edge list
    (the spill path for uncapped collision sets — boilerplate-heavy
    corpora) NEVER lands on the driver: the mirrored edge rows and the
    initial label state are both derived with map_batches/groupby, and
    only the per-round changed count plus the final (node, label) frame
    — bounded by the dup-doc count, i.e. output-contract-shaped — come
    back."""
    if isinstance(edges, pd.DataFrame):
        if len(edges) <= _CC_LOCAL_MAX:
            loc = _local_components(edges)
            return (ray.data.from_arrow(
                pa.Table.from_pandas(loc, preserve_index=False))
                if as_dataset else loc)
        both = pd.DataFrame({
            "src": np.concatenate([edges["a"].to_numpy(),
                                   edges["b"].to_numpy()]),
            "dst": np.concatenate([edges["b"].to_numpy(),
                                   edges["a"].to_numpy()]),
        }).astype(np.int64)
        # rows: kind 0 = label (node,label), kind 1 = edge (node=src,
        # dst), kind 2 = message (node=dst, label). Edges re-enter
        # every round.
        ne = len(both)
        edges_ds = ray.data.from_arrow(pa.table({
            "node": pa.array(both["src"].to_numpy()),
            "label": pa.array(np.full(ne, -1, dtype=np.int64)),
            "dst": pa.array(both["dst"].to_numpy()),
            "kind": pa.array(np.ones(ne, dtype=np.int8)),
        })).materialize()
        nodes = np.unique(both["src"].to_numpy())
        state = ray.data.from_arrow(pa.table({
            "node": pa.array(nodes),
            "label": pa.array(nodes),
            "dst": pa.array(np.full(len(nodes), -1, dtype=np.int64)),
            "kind": pa.array(np.zeros(len(nodes), dtype=np.int8)),
        }))
    else:
        def mirror(t: pa.Table) -> pa.Table:
            a = t.column("a").to_numpy().astype(np.int64)
            b = t.column("b").to_numpy().astype(np.int64)
            src = np.concatenate([a, b])
            dst = np.concatenate([b, a])
            return pa.table({
                "node": pa.array(src),
                "label": pa.array(np.full(len(src), -1, dtype=np.int64)),
                "dst": pa.array(dst),
                "kind": pa.array(np.ones(len(src), dtype=np.int8)),
            })

        edges_ds = edges.map_batches(
            mirror, batch_format="pyarrow").materialize()

        def node_partial(t: pa.Table) -> pa.Table:
            return pa.table({
                "node": pa.array(np.unique(t.column("node").to_numpy()))})

        def node_fold(g: pd.DataFrame) -> pa.Table:
            u = np.unique(g["node"].to_numpy(np.int64))
            return pa.table({
                "node": pa.array(u),
                "label": pa.array(u),
                "dst": pa.array(np.full(len(u), -1, dtype=np.int64)),
                "kind": pa.array(np.zeros(len(u), dtype=np.int8)),
            })

        state = bucket_groups(
            edges_ds.map_batches(node_partial, batch_format="pyarrow"),
            "node", node_fold)

    def step(g: pd.DataFrame) -> pd.DataFrame:
        lab = g[g["kind"] == 0]
        edg = g[g["kind"] == 1]
        msg = g[g["kind"] == 2]
        # min-reduce: new label per node = min(old, incoming messages)
        old = lab.set_index("node")["label"]
        if len(msg):
            incoming = msg.groupby("node")["label"].min()
            new = pd.concat([old, incoming]).groupby(level=0).min()
            new = new.reindex(old.index)
        else:
            new = old
        changed = (new.to_numpy() < old.to_numpy())
        upd = pd.DataFrame({"node": old.index.to_numpy(),
                            "label": new.to_numpy()})
        # fan-out the updated labels along this node's out-edges
        m = edg[["node", "dst"]].merge(upd, on="node")
        out_node = np.concatenate([upd["node"].to_numpy(),
                                   m["dst"].to_numpy()])
        # return an Arrow block: pandas-ingested datasets are Arrow-backed
        # in Ray 2.49, and union requires homogeneous block types
        return pa.table({
            "node": pa.array(out_node),
            "label": pa.array(np.concatenate([upd["label"].to_numpy(),
                                              m["label"].to_numpy()])),
            "dst": pa.array(np.full(len(out_node), -1, dtype=np.int64)),
            "kind": pa.array(np.concatenate(
                [np.zeros(len(upd), dtype=np.int8),
                 np.full(len(m), 2, dtype=np.int8)])),
            "changed": pa.array(np.concatenate(
                [changed.astype(np.int64),
                 np.zeros(len(m), dtype=np.int64)])),
        })

    # run to CONVERGENCE (changed == 0): min-label propagation advances
    # the min one hop per round, so it needs O(component diameter)
    # rounds — an unconverged exit silently splits components.
    # ``max_rounds`` is a soft target; the hard cap below is a runaway
    # guard sized for near-dup graphs (dense collision cliques have
    # tiny diameters; a 64-hop chain of pairwise-similar docs is the
    # pathological end and gets a warning instead of wrong silence)
    hard_cap = max(max_rounds, 64)
    for rnd in range(hard_cap):
        new_state = bucket_groups([state, edges_ds], "node",
                                  step).materialize()
        changed = new_state.sum("changed")
        state = new_state.drop_columns(["changed"])
        if rnd > 0 and not changed:
            break
    else:
        _LOG.warning(
            "_propagate_components: labels still changing after %d "
            "rounds — emitted components may be split", hard_cap)
    if as_dataset:
        # labels stay in the object store: the caller consumes them as
        # a Dataset (mostly-duplicates join-back path) and the driver
        # never holds the (node, label) map
        def keep_labels(t: pa.Table) -> pa.Table:
            f = t.filter(pa.compute.equal(t.column("kind"), 0))
            return pa.table({"node": f.column("node").cast(pa.int64()),
                             "label": f.column("label").cast(pa.int64())})
        return state.map_batches(keep_labels,
                                 batch_format="pyarrow").materialize()
    out = state.to_pandas()
    out = out[out["kind"] == 0]
    return pd.DataFrame({"node": out["node"].astype(np.int64).to_numpy(),
                         "label": out["label"].astype(np.int64).to_numpy()})


def minhash_lsh_groups(sf_dir: str, k: int = 3, jaccard_tau: float = 0.5,
                       max_rounds: int = 8,
                       pair_driver_cap: int = _PAIR_DRIVER_CAP,
                       label_driver_cap: int = _LABEL_DRIVER_CAP
                       ) -> pd.DataFrame:
    """Near-dup groups: (doc_id, group_id) where group_id = min doc_id of
    the connected component over verified candidate pairs.

    Cluster-shaped end to end (nothing un-bounded touches the driver):

    1. minhash sketches + LSH band explode (map_batches) — the band
       groupby moves one (band, hash, doc) row per band per doc, never
       text;
    2. candidate pairs per bucket (``groupby(band, band_hash)``,
       vectorized triu expansion), dedup'd by a pair-key groupby — the
       pair LIST is bounded by the collision set and is the only thing
       the driver holds;
    3. exact-Jaccard verification WITHOUT raw text on the driver: shingle
       rows are exploded for candidate docs only (broadcast sorted id
       array), hash-bucketed 256 ways, self-merged per bucket restricted
       to the candidate pair set (broadcast pair-key array), then reduced
       to (a, b, inter) + per-doc shingle counts;
    4. connected components by distributed min-label propagation
       (``_propagate_components``) — no driver union-find;
    5. group ids join back to ALL docs via a broadcast (dup-docs-only)
       label map, default group_id = doc_id — or, past
       ``label_driver_cap`` dup docs (mostly-duplicates corpora), via
       a bucketed dataset exchange with the labels never landing on
       the driver.
    """
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])
    bands = docs.map_batches(make_minhash_fn(k), batch_format="pyarrow")

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # equal (band, band_hash) rows always co-bucket; detect collision
        # runs with one vectorized sort instead of per-(band,hash) groups
        g = g.sort_values(["band", "band_hash", "doc_id"])
        bh = g["band_hash"].to_numpy()
        bd = g["band"].to_numpy()
        new_run = run_starts(bh, bd)
        run_id = np.cumsum(new_run) - 1
        sizes = np.bincount(run_id)
        ids = g["doc_id"].to_numpy().astype(np.int64)
        out_a, out_b = [], []
        starts = np.cumsum(sizes) - sizes
        for r in np.flatnonzero(sizes >= 2):     # collision runs are rare
            run = np.unique(ids[starts[r]:starts[r] + sizes[r]])
            if len(run) < 2:
                continue
            ai, bi = np.triu_indices(len(run), 1)
            out_a.append(run[ai])
            out_b.append(run[bi])
        if not out_a:
            return pd.DataFrame({"a": np.array([], dtype=np.int64),
                                 "b": np.array([], dtype=np.int64)})
        return pd.DataFrame({"a": np.concatenate(out_a),
                             "b": np.concatenate(out_b)})

    # candidate-pair stream: below the driver cap it collects to one
    # pandas frame (bounded collision set — the deduped-corpus common
    # case); past the cap it STAYS a Dataset (boilerplate worst case)
    # and every later step consumes it in bounded chunks
    pairs_ds = bucket_groups(bands, "band_hash", bucket_pairs,
                             n=256).materialize()
    n_raw = pairs_ds.count()
    spill = n_raw > pair_driver_cap
    if not spill:
        pairs = pairs_ds.to_pandas().drop_duplicates(["a", "b"])
        chunk_iter = [pairs] if len(pairs) else []
        cand_ids = (np.unique(np.concatenate(
            [pairs["a"].to_numpy(np.int64), pairs["b"].to_numpy(np.int64)]))
            if len(pairs) else np.array([], dtype=np.int64))
    else:
        _LOG.warning(
            "minhash_lsh_groups: %d raw candidate pairs exceed the "
            "driver cap (%d) — engaging the spill path (distributed "
            "dedup, chunked verification, dataset-shaped components)",
            n_raw, pair_driver_cap)

        def pair_key(t: pa.Table) -> np.ndarray:
            a = t.column("a").to_numpy().astype(np.int64)
            b = t.column("b").to_numpy().astype(np.int64)
            return a * np.int64(1 << 32) + b

        def pair_dedup(g: pd.DataFrame) -> pd.DataFrame:
            return g.drop_duplicates(["a", "b"])[["a", "b"]]

        deduped = bucket_groups(pairs_ds, pair_key, pair_dedup,
                                n=256).materialize()
        chunk_iter = deduped.iter_batches(batch_size=_PAIR_CHUNK,
                                          batch_format="pandas")

        def endpoint_partial(t: pa.Table) -> pa.Table:
            u = np.unique(np.concatenate(
                [t.column("a").to_numpy().astype(np.int64),
                 t.column("b").to_numpy().astype(np.int64)]))
            return pa.table({"node": pa.array(u)})

        # candidate ids: one row per colliding doc — output-contract
        # bounded (never more rows than the result frame itself)
        cand_ids = np.sort(bucket_map(
            deduped.map_batches(endpoint_partial, batch_format="pyarrow"),
            "node", functools.partial(unique_ids, col="node"))
            ["node"].to_numpy(np.int64))

    def label_join_back(lbl_nodes: np.ndarray,
                        lbl_vals: np.ndarray) -> pd.DataFrame:
        """Stream group ids over ALL docs: the bounded (dup-docs-only)
        label map broadcasts once via ray.put and each block joins
        against it inside map_batches — no full-column ray.get / driver
        concat of the doc-id column."""
        order = np.argsort(lbl_nodes)
        lbl_ref = ray.put((lbl_nodes[order], lbl_vals[order]))

        def jb(t: pa.Table) -> pa.Table:
            ids = t.column("doc_id").to_numpy().astype(np.int64)
            ln, lv = ray.get(lbl_ref)
            group = ids.copy()
            if len(ln) and len(ids):
                pos = np.clip(np.searchsorted(ln, ids), 0, len(ln) - 1)
                hit = ln[pos] == ids
                group[hit] = lv[pos[hit]]
            return pa.table({"doc_id": pa.array(ids),
                             "group_id": pa.array(group)})

        out = (docs.select_columns(["doc_id"])
               .map_batches(jb, batch_format="pyarrow")
               .to_pandas().sort_values("doc_id")
               .reset_index(drop=True))
        return out.astype({"doc_id": "int64", "group_id": "int64"})

    def label_join_back_ds(comp_ds: "ray.data.Dataset") -> pd.DataFrame:
        """Mostly-duplicates path: the label map exceeds the driver cap,
        so it NEVER lands on the driver or in one broadcast object —
        doc-id rows and label rows co-locate in bucket ``id % 256`` via
        one exchange, and each bucket assigns group ids with a local
        searchsorted. Only the final (doc_id, group_id) output frame
        (the query's contract) comes back."""
        def doc_rows(t: pa.Table) -> pa.Table:
            ids = t.column("doc_id").to_numpy().astype(np.int64)
            return pa.table({
                "id": pa.array(ids),
                "lbl": pa.array(np.full(len(ids), -1, dtype=np.int64)),
                "kind": pa.array(np.zeros(len(ids), dtype=np.int8))})

        def lbl_rows(t: pa.Table) -> pa.Table:
            n = t.column("node").to_numpy().astype(np.int64)
            v = t.column("label").to_numpy().astype(np.int64)
            return pa.table({
                "id": pa.array(n),
                "lbl": pa.array(v),
                "kind": pa.array(np.ones(len(n), dtype=np.int8))})

        def assign(g: pd.DataFrame) -> pd.DataFrame:
            d = g[g["kind"] == 0]
            lb = g[g["kind"] == 1]
            ids = d["id"].to_numpy(np.int64)
            group = ids.copy()
            if len(lb) and len(ids):
                ln = lb["id"].to_numpy(np.int64)
                lv = lb["lbl"].to_numpy(np.int64)
                o = np.argsort(ln)
                ln, lv = ln[o], lv[o]
                pos = np.clip(np.searchsorted(ln, ids), 0, len(ln) - 1)
                hit = ln[pos] == ids
                group[hit] = lv[pos[hit]]
            return pd.DataFrame({"doc_id": ids, "group_id": group})

        out = (bucket_map(
            [docs.select_columns(["doc_id"])
             .map_batches(doc_rows, batch_format="pyarrow"),
             comp_ds.map_batches(lbl_rows, batch_format="pyarrow")],
            "id", assign, n=256)
            .sort_values("doc_id").reset_index(drop=True))
        return out.astype({"doc_id": "int64", "group_id": "int64"})

    if not len(cand_ids):
        return label_join_back(np.array([], dtype=np.int64),
                               np.array([], dtype=np.int64))

    # --- distributed exact-Jaccard verification -------------------------
    cand_ref = ray.put(cand_ids)

    # materialize ONCE: the shingle rows feed the per-doc size aggregate
    # and every verification chunk — without this the explode would
    # re-execute per consumer
    shingles = (docs.map_batches(_shingle_explode_fn(k, cand_ref),
                                 batch_format="pyarrow")
                .materialize())

    # per-doc shingle counts: partial np.unique per block, summed on the
    # driver (rows bounded by candidate docs × block count)
    def partial_sizes(t: pa.Table) -> pa.Table:
        u, c = np.unique(t.column("doc_id").to_numpy(), return_counts=True)
        return pa.table({"doc_id": pa.array(u.astype(np.int64)),
                         "n_sh": pa.array(c.astype(np.int64))})

    sizes = (shingles.map_batches(partial_sizes, batch_format="pyarrow")
             .to_pandas().groupby("doc_id", as_index=False)["n_sh"].sum())
    size_of = dict(zip(sizes["doc_id"].astype(np.int64),
                       sizes["n_sh"].astype(np.int64)))

    def verify_chunk(chunk: pd.DataFrame) -> pd.DataFrame:
        pa_arr = chunk["a"].to_numpy().astype(np.int64)
        pb_arr = chunk["b"].to_numpy().astype(np.int64)
        pair_keys = np.sort(pa_arr * np.int64(1 << 32) + pb_arr)
        pkey_ref = ray.put(pair_keys)

        def bucket_inter(g: pd.DataFrame) -> pd.DataFrame:
            pk = ray.get(pkey_ref)
            m = g[["shingle_hash", "doc_id"]].merge(
                g[["shingle_hash", "doc_id"]], on="shingle_hash")
            m = m[m["doc_id_x"] < m["doc_id_y"]]
            if not len(m):
                return pd.DataFrame(
                    {"a": np.array([], dtype=np.int64),
                     "b": np.array([], dtype=np.int64),
                     "inter_part": np.array([], dtype=np.int64)})
            key = (m["doc_id_x"].to_numpy().astype(np.int64)
                   * np.int64(1 << 32)
                   + m["doc_id_y"].to_numpy().astype(np.int64))
            pos = np.searchsorted(pk, key)
            pos[pos >= len(pk)] = len(pk) - 1
            m = m[pk[pos] == key]       # candidate pairs only
            out = m.groupby(["doc_id_x", "doc_id_y"]).size().reset_index(
                name="inter_part")
            return out.rename(columns={"doc_id_x": "a", "doc_id_y": "b"})

        # per-bucket partial (a, b, inter_part) rows are bounded by the
        # chunk pair set × bucket count — the sum is a vectorized reduce
        inter = bucket_map(shingles,
                           functools.partial(mixed_key, col="shingle_hash"),
                           bucket_inter, n=256)
        if not len(inter):
            return inter.reindex(columns=["a", "b"])
        inter = (inter.groupby(["a", "b"], as_index=False)["inter_part"]
                 .sum())
        na = inter["a"].map(size_of).to_numpy(dtype=np.int64)
        nb = inter["b"].map(size_of).to_numpy(dtype=np.int64)
        iv = inter["inter_part"].to_numpy(dtype=np.int64)
        union = na + nb - iv
        return inter.loc[(union > 0) & (iv / np.maximum(union, 1)
                                        >= jaccard_tau), ["a", "b"]]

    if not spill:
        verified: "pd.DataFrame | ray.data.Dataset" = (
            verify_chunk(chunk_iter[0]) if chunk_iter
            else pd.DataFrame({"a": [], "b": []}))
        n_verified = len(verified)
    else:
        # verified chunks go straight to the object store; the driver
        # holds one chunk frame at a time
        vparts = []
        for chunk in chunk_iter:
            v = verify_chunk(chunk)
            if len(v):
                vparts.append(ray.data.from_pandas(
                    v.reset_index(drop=True)))
        if vparts:
            verified = vparts[0]
            for x in vparts[1:]:
                verified = verified.union(x)
            verified = verified.materialize()
            n_verified = verified.count()
        else:
            verified = pd.DataFrame({"a": [], "b": []})
            n_verified = 0
    if not n_verified:
        return label_join_back(np.array([], dtype=np.int64),
                               np.array([], dtype=np.int64))

    # --- distributed components + label join back -----------------------
    # the label map is bounded by the dup-doc count <= |cand_ids|; past
    # the driver cap (mostly-duplicates corpus) labels stay a Dataset
    # end-to-end and join back through the bucketed exchange
    spill_labels = len(cand_ids) > label_driver_cap
    if spill_labels:
        _LOG.warning(
            "minhash_lsh_groups: %d candidate dup docs exceed the label "
            "driver cap (%d) — engaging the dataset join-back path",
            len(cand_ids), label_driver_cap)
        comp_ds = _propagate_components(verified, max_rounds=max_rounds,
                                        as_dataset=True)
        return label_join_back_ds(comp_ds)
    comp = _propagate_components(verified, max_rounds=max_rounds)
    return label_join_back(comp["node"].to_numpy(np.int64),
                           comp["label"].to_numpy(np.int64))


def simhash_batch(t: pa.Table) -> pa.Table:
    """64-bit SimHash over word unigrams. The bit-vote runs ONCE for the
    whole batch: hash every token of every doc, build one (tokens × 64)
    bit matrix, segment-sum per doc with ``np.add.reduceat`` — no per-doc
    or per-bit Python loop."""
    from ..functions.hashing import hash64_many

    texts = t.column("text").to_pylist()
    tok_lists = [s.split() for s in texts]
    counts = np.fromiter((len(x) for x in tok_lists), dtype=np.int64,
                         count=len(tok_lists))
    out = np.zeros(len(texts), dtype=np.uint64)
    nz = counts > 0
    if nz.any():
        all_toks = [w for toks in tok_lists for w in toks]
        hv = hash64_many(all_toks)
        shifts = np.arange(64, dtype=np.uint64)
        bits = ((hv[:, None] >> shifts[None, :]) & np.uint64(1)).astype(
            np.int64)
        starts = np.zeros(len(texts), dtype=np.int64)
        starts[1:] = np.cumsum(counts)[:-1]
        # reduceat needs strictly-valid segment starts: reduce only over
        # non-empty docs (empty docs keep simhash 0)
        seg = np.add.reduceat(bits, starts[nz], axis=0)
        pos = (2 * seg) > counts[nz, None]           # majority bit vote
        weights = np.uint64(1) << shifts
        out[nz] = (pos.astype(np.uint64) * weights[None, :]).sum(
            axis=1, dtype=np.uint64)
    return pa.table({"doc_id": t.column("doc_id"),
                     "simhash": pa.array(out)})


def simhash_docs(sf_dir: str) -> pd.DataFrame:
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    return ds.map_batches(simhash_batch, batch_format="pyarrow").to_pandas()


def ngram_top_pairs(sf_dir: str, k: int = 3, topn: int = 20) -> pd.DataFrame:
    """Exact n-gram Jaccard similarity, top-N pairs — fully SQL-checkable
    (distinct word k-gram shingles; inter/union as BIGINTs; jaccard in
    basis points so the comparison is integer-exact).

    Shape: explode (doc_id, shingle, n_sh) — each doc's distinct-shingle
    COUNT rides along with its rows, so no separate sizes shuffle and no
    doc-cardinality dict ever forms on the driver → groupby(shingle
    bucket) pair expansion → groupby(pair bucket) exact reduce, which
    finishes the jaccard locally (counts are in-row) and emits only its
    own top-N — the driver merges 64×topn candidate rows, nothing
    pair-cardinality-sized.
    """
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])

    sh = docs.map_batches(functools.partial(shingle_explode, k=k),
                          batch_format="pyarrow")

    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # every occurrence of a pair lands in THIS bucket, so the reduce
        # is exact here — finish the jaccard and keep only this bucket's
        # top-N (a pair outside every bucket top-N cannot be in the
        # global top-N)
        out = (g.groupby(["a", "b"], as_index=False)
               .agg(inter=("inter_part", "sum"), na=("na", "first"),
                    nb=("nb", "first")))
        out["union_n"] = out["na"] + out["nb"] - out["inter"]
        out["jaccard_bp"] = (out["inter"] * 10000
                             // out["union_n"]).astype("int64")
        out = out.sort_values(["jaccard_bp", "a", "b"],
                              ascending=[False, True, True]).head(topn)
        return out[["a", "b", "inter", "union_n", "jaccard_bp"]]

    # hash-partition shingles into a bounded number of buckets and do a
    # vectorized self-merge per bucket (equal shingles always co-bucket) —
    # per-group overhead of one task per *shingle* would dominate
    # otherwise; the second shuffle groups on a single int64 pair key
    # (Ray's multi-key aggregate over millions of tiny groups is far
    # slower than bucketed map_groups with a vectorized pandas reduce)
    pair_counts = bucket_map(
        bucket_groups(sh, _shingle_hash, bucket_pair_counts, n=256),
        _pair_key, reduce_bucket)
    if len(pair_counts) == 0:
        return pd.DataFrame({"a": [], "b": [], "inter": [], "union_n": [],
                             "jaccard_bp": []}).astype(
            {"a": "int64", "b": "int64", "inter": "int64",
             "union_n": "int64", "jaccard_bp": "int64"})
    pair_counts = pair_counts.sort_values(
        ["jaccard_bp", "a", "b"], ascending=[False, True, True]).head(topn)
    return pair_counts.reset_index(drop=True).astype(
        {"a": "int64", "b": "int64", "inter": "int64", "union_n": "int64",
         "jaccard_bp": "int64"})


def embedding_dup_pairs(sf_dir: str, tau_bp: int = 4000,
                        block_rows: int = 8192) -> pd.DataFrame:
    """Embedding-cosine near-dup pairs (a < b, sim >= tau). Cosine in
    float64 on both sides; similarity reported in basis points
    (floor(sim*10000)) for integer-exact oracle comparison.

    Ray shape — block × block tiling (the 100 TB path; nothing global is
    broadcast and the driver never holds a vector): the dataset is
    repartitioned into ~``block_rows``-row blocks, each block is
    normalized ONCE by a map_batches stage, and one raw Ray task per
    upper-triangle block pair computes its tile of the similarity matrix
    with a single matmul, emitting only the (a, b, sim_bp) hits. Raw
    tasks are used because a pairwise block cross-product is the one
    shape ``Dataset`` can't express without duplicating the data B times.
    O(B²/2) tiles is inherent to all-pairs similarity; at scale the same
    kernel runs per LSH/IVF bucket instead of per global tile."""
    import pyarrow.parquet as pq

    from ..functions.vectors import list_col_to_matrix, normalize_rows

    total = pq.ParquetFile(f"{sf_dir}/embeddings.parquet").metadata.num_rows
    # block count: ceil(total/block_rows) bounds per-tile memory, but keep
    # at least ~8 blocks (36 tiles) so small inputs still parallelize
    n_blocks = max((total + block_rows - 1) // block_rows,
                   min(8, (total + 255) // 256))
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    if n_blocks > 1:
        ds = ds.repartition(n_blocks)

    def norm_block(t: pa.Table) -> pa.Table:
        ids = t.column("vec_id").to_numpy().astype(np.int64)
        m = normalize_rows(list_col_to_matrix(t.column("embedding")))
        nvec = pa.FixedSizeListArray.from_arrays(
            pa.array(m.reshape(-1)), m.shape[1] if len(m) else 1)
        return pa.table({"vec_id": pa.array(ids), "nvec": nvec})

    # keep the normalized blocks as object-store refs and hand the refs
    # straight to tile.remote — no data block ever transits the driver
    # (the driver holds only the ref list); empty blocks are handled
    # inside the task, where the check is free
    block_refs = ds.map_batches(norm_block, batch_format="pyarrow",
                                batch_size=None).to_arrow_refs()

    @ray.remote
    def tile(ta: pa.Table, tb: pa.Table, same: bool) -> pa.Table:
        if len(ta) == 0 or len(tb) == 0:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64()),
                             "sim_bp": pa.array([], pa.int64())})
        ia = ta.column("vec_id").to_numpy().astype(np.int64)
        ib = tb.column("vec_id").to_numpy().astype(np.int64)
        ma = list_col_to_matrix(ta.column("nvec"))
        mb = list_col_to_matrix(tb.column("nvec"))
        bp = np.floor((ma @ mb.T) * 10000).astype(np.int64)
        ai, bj = np.nonzero(bp >= tau_bp)
        a, b = ia[ai], ib[bj]
        if same:
            # full within-block matrix holds both mirror images (and the
            # diagonal): a < b keeps exactly one copy of each pair
            keep = a < b
            a, b, s = a[keep], b[keep], bp[ai[keep], bj[keep]]
        else:
            # cross tile is computed once per unordered block pair; ids
            # are disjoint across blocks but not ordered by block, so
            # normalize each hit to (min, max) instead of filtering
            s = bp[ai, bj]
            a, b = np.minimum(a, b), np.maximum(a, b)
        return pa.table({"a": pa.array(a), "b": pa.array(b),
                         "sim_bp": pa.array(s)})

    futs = []
    for i in range(len(block_refs)):
        for j in range(i, len(block_refs)):
            futs.append(tile.remote(block_refs[i], block_refs[j], i == j))
    tiles = [t for t in ray.get(futs) if len(t)]
    if not tiles:
        return pd.DataFrame({"a": pd.Series(dtype=np.int64),
                             "b": pd.Series(dtype=np.int64),
                             "sim_bp": pd.Series(dtype=np.int64)})
    out = pa.concat_tables(tiles).to_pandas()
    return out.sort_values(["a", "b"]).reset_index(drop=True)


def simhash_dup_pairs(sf_dir: str, max_hamming: int = 3) -> pd.DataFrame:
    """Near-dup pairs with SimHash Hamming distance ≤ ``max_hamming``,
    found via 4×16-bit banding. Pigeonhole makes the banding EXACT for
    ``max_hamming ≤ 3``: at most 3 flipped bits leave at least one of
    the 4 bands untouched, so every qualifying pair shares an exact band
    key — the golden oracle recomputes all-pairs Hamming independently
    and must agree pair-for-pair.

    Shape: simhash per batch → explode 4 (bandkey, doc) rows per doc →
    hash-bucket the band keys into a bounded task count → one vectorized
    XOR+popcount per bucket over the run of each equal band key. The
    exchange moves four small integer rows per doc; document text never
    leaves the first map stage. A pathological run (thousands of exact
    dups sharing a band key) bounds at run², which a production config
    caps by pre-collapsing exact-equal simhashes first."""

    # small blocks: the simhash stage is CPU-bound per row and block
    # count is its parallelism
    docs = read(sf_dir, "documents", columns=["doc_id", "text"],
                rows_per_block=2048)
    sims = docs.map_batches(simhash_batch, batch_format="pyarrow")

    def explode(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy().astype(np.int64)
        h = t.column("simhash").to_numpy()
        n = len(ids)
        parts = []
        for band in range(4):
            key = ((h >> np.uint64(16 * band)) & np.uint64(0xFFFF))
            bandkey = (np.uint64(band) << np.uint64(16)) | key
            parts.append(pa.table({
                "doc_id": pa.array(ids),
                "simhash": pa.array(h),
                "bandkey": pa.array(bandkey.astype(np.int64)),
            }))
        return pa.concat_tables(parts) if n else parts[0]

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["bandkey", "doc_id"], kind="mergesort")
        ids = g["doc_id"].to_numpy()
        hs = g["simhash"].to_numpy().astype(np.uint64)
        keys = g["bandkey"].to_numpy()
        out_a, out_b, out_h = [], [], []
        starts = np.flatnonzero(np.concatenate(
            ([True], keys[1:] != keys[:-1], [True])))
        for s, e in zip(starts[:-1], starts[1:]):
            m = e - s
            if m < 2:
                continue
            ii, jj = np.triu_indices(m, k=1)
            x = np.bitwise_xor(hs[s + ii], hs[s + jj])
            ham = np.unpackbits(x.view(np.uint8)).reshape(len(x), 64).sum(
                axis=1)
            keep = ham <= max_hamming
            out_a.append(ids[s + ii[keep]])
            out_b.append(ids[s + jj[keep]])
            out_h.append(ham[keep].astype(np.int64))
        if not out_a:
            return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                                 "b": pd.Series([], dtype="int64"),
                                 "hamming": pd.Series([], dtype="int64")})
        df = pd.DataFrame({"a": np.concatenate(out_a),
                           "b": np.concatenate(out_b),
                           "hamming": np.concatenate(out_h)})
        # a<b is guaranteed by the doc_id sort; a pair seen in several
        # bands of the SAME bucket collapses here, cross-bucket repeats
        # collapse in the final (tiny) result set
        return df.drop_duplicates(["a", "b"])

    pairs = bucket_map(sims.map_batches(explode, batch_format="pyarrow"),
                       functools.partial(mixed_key, col="bandkey"),
                       bucket_pairs, n=128)
    pairs = pairs.drop_duplicates(["a", "b"]).sort_values(["a", "b"])
    return pairs.reset_index(drop=True).astype(
        {"a": "int64", "b": "int64", "hamming": "int64"})


def embedding_dup_groups(sf_dir: str, tau_bp: int = 4000,
                         max_rounds: int = 8) -> pd.DataFrame:
    """Embedding near-duplicate GROUPS: connected components over the
    cosine-similarity pair graph (``embedding_dup_pairs``), resolved by
    the same distributed min-label propagation the MinHash path uses —
    no driver union-find, no full-table materialization. Singleton
    vectors keep their own id as group_id. The golden oracle recomputes
    groups with an independent single-process union-find over a
    brute-force similarity matrix."""
    import pyarrow.parquet as pq

    pairs = embedding_dup_pairs(sf_dir, tau_bp=tau_bp)
    all_ids = np.sort(pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id"]).column("vec_id").to_numpy().astype(np.int64))
    if pairs.empty:
        return pd.DataFrame({"vec_id": all_ids, "group_id": all_ids})
    comp = _propagate_components(pairs[["a", "b"]], max_rounds=max_rounds)
    lbl_nodes = comp["node"].to_numpy()
    lbl_vals = comp["label"].to_numpy()
    order = np.argsort(lbl_nodes)
    lbl_nodes, lbl_vals = lbl_nodes[order], lbl_vals[order]
    group = all_ids.copy()
    pos = np.searchsorted(lbl_nodes, all_ids)
    pos_c = np.clip(pos, 0, max(0, len(lbl_nodes) - 1))
    hit = (len(lbl_nodes) > 0) & (lbl_nodes[pos_c] == all_ids)
    group[hit] = lbl_vals[pos_c[hit]]
    return pd.DataFrame({"vec_id": all_ids, "group_id": group})


def dup_ngram_spans(sf_dir: str, k: int = 3) -> pd.DataFrame:
    """Duplicated-window statistics — the exact-substring-dedup signal
    (à la "Deduplicating Training Data Makes Language Models Better"):
    a doc's k-token window is DUPLICATED when the same window text
    occurs in at least one other document. Output per doc: total
    windows and duplicated windows (the masking step would drop those
    spans).

    Shape: explode one (window-hash, doc) row per window position →
    pre-collapse per (doc, hash) with a position count → one
    ``groupby(hash)`` on 64-bit hashes to find multi-doc windows →
    per-doc re-aggregate. The exchange carries only hashes and counts;
    window text never leaves the map stage (at 100 TB the window hash
    IS the join key, exactly like the reference-scale suffix-array
    pipelines)."""

    docs = read(sf_dir, "documents", columns=["doc_id", "text"],
                rows_per_block=2048)

    def explode(t: pa.Table) -> pa.Table:
        from ..functions.hashing import hash64_many

        ids_out, hashes, counts = [], [], []
        for doc_id, text in zip(t.column("doc_id").to_pylist(),
                                t.column("text").to_pylist()):
            toks = text.split()
            wins = [" ".join(toks[i:i + k])
                    for i in range(len(toks) - k + 1)]
            if not wins:
                continue
            hv = hash64_many(wins)
            uniq, cnt = np.unique(hv, return_counts=True)
            ids_out.append(np.full(len(uniq), doc_id, dtype=np.int64))
            hashes.append(uniq)
            counts.append(cnt.astype(np.int64))
        if not ids_out:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "whash": pa.array([], type=pa.uint64()),
                             "n_pos": pa.array([], type=pa.int64())})
        return pa.table({"doc_id": pa.array(np.concatenate(ids_out)),
                         "whash": pa.array(np.concatenate(hashes)),
                         "n_pos": pa.array(np.concatenate(counts))})

    def flag_dups(g: pd.DataFrame) -> pd.DataFrame:
        # a window is duplicated when >= 2 rows (one per distinct doc,
        # thanks to the per-doc pre-collapse) share its hash; fully
        # vectorized per bucket
        ndocs = g.groupby("whash", sort=False)["doc_id"].transform("size")
        dup_pos = np.where(ndocs.to_numpy() > 1,
                           g["n_pos"].to_numpy(), 0)
        tmp = pd.DataFrame({"doc_id": g["doc_id"].to_numpy(),
                            "n_pos": g["n_pos"].to_numpy(),
                            "dup_pos": dup_pos})
        out = tmp.groupby("doc_id", sort=False, as_index=False).agg(
            n_windows=("n_pos", "sum"), n_dup_windows=("dup_pos", "sum"))
        return out

    out = bucket_map(docs.map_batches(explode, batch_format="pyarrow"),
                     "whash", flag_dups, n=128)
    # a doc's windows spread across hash buckets: final per-doc sum is a
    # tiny second aggregate (one row per (doc, bucket-with-hits))
    out = out.groupby("doc_id", as_index=False).agg(
        n_windows=("n_windows", "sum"),
        n_dup_windows=("n_dup_windows", "sum"))
    return out.astype({"n_windows": "int64", "n_dup_windows": "int64"})


def _lev_leq(a: str, b: str, k: int) -> int:
    """Banded Levenshtein: exact distance if ≤ k, else k+1. O(k·|a|)."""
    if abs(len(a) - len(b)) > k:
        return k + 1
    if len(a) > len(b):
        a, b = b, a
    prev = list(range(len(a) + 1))
    for j in range(1, len(b) + 1):
        cur = [j] + [0] * len(a)
        lo, hi = max(1, j - k), min(len(a), j + k)
        if lo > 1:
            cur[lo - 1] = k + 1
        for i in range(lo, hi + 1):
            cur[i] = min(prev[i] + 1, cur[i - 1] + 1,
                         prev[i - 1] + (a[i - 1] != b[j - 1]))
        if hi < len(a):
            cur[hi + 1:] = [k + 1] * (len(a) - hi)
        prev = cur
        if min(prev) > k:
            return k + 1
    return prev[len(a)]


def name_edit_near_pairs(sf_dir: str, max_d: int = 2) -> pd.DataFrame:
    """Exact string-similarity self-join: all pairs of DISTINCT part
    names within Levenshtein distance ``max_d`` (SymSpell-style
    deletion-neighborhood blocking, Garbe 2012 — public algorithm).

    Recall is exact, not probabilistic: if lev(a,b) ≤ d then deleting
    the ≤ d edited positions from each side yields a common
    subsequence, so a and b share a ≤ d-deletion variant — blocking on
    the hashed variant therefore covers every qualifying pair. Plan:
    distinct names (distributed groupby) → explode each name into its
    ≤ max_d-deletion variants (~1+L+L²/2 rows of (variant-hash, name))
    → ``groupby(variant)`` emits candidate pairs → pair-level dedup
    groupby → banded DP verification map-side. Only (hash, name) pairs
    move in the exchanges; at web scale the variant explode is the
    cost knob (shorten via length-bucketed prefixes)."""
    import hashlib

    names = ray.data.read_parquet(f"{sf_dir}/part.parquet",
                                  columns=["p_name"])

    def distinct_partial(t: pa.Table) -> pa.Table:
        u = np.unique(t.column("p_name").to_numpy(zero_copy_only=False))
        return pa.table({"p_name": pa.array(u, type=pa.string())})

    distinct = (names.map_batches(distinct_partial, batch_format="pyarrow")
                .groupby("p_name").aggregate(Count(alias_name="_n"))
                .drop_columns(["_n"]))

    def explode_variants(t: pa.Table) -> pa.Table:
        vh, nm = [], []
        for s in t.column("p_name").to_pylist():
            seen = {s}
            frontier = [s]
            for _ in range(max_d):
                nxt = []
                for v in frontier:
                    for i in range(len(v)):
                        w = v[:i] + v[i + 1:]
                        if w not in seen:
                            seen.add(w)
                            nxt.append(w)
                frontier = nxt
            for v in seen:
                vh.append(int.from_bytes(
                    hashlib.md5(v.encode()).digest()[:8], "little"))
                nm.append(s)
        return pa.table({"vh": pa.array(np.asarray(vh, dtype=np.uint64)),
                         "p_name": pa.array(nm, type=pa.string())})

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b = [], []
        for _, grp in g.groupby("vh", sort=False):
            ns = sorted(set(grp["p_name"]))
            for i in range(len(ns)):
                for j in range(i + 1, len(ns)):
                    out_a.append(ns[i])
                    out_b.append(ns[j])
        return pd.DataFrame({"name_a": pd.Series(out_a, dtype=object),
                             "name_b": pd.Series(out_b, dtype=object)})

    cands = (distinct.map_batches(explode_variants,
                                  batch_format="pyarrow")
             .groupby("vh").map_groups(bucket_pairs,
                                       batch_format="pandas"))

    def verify(t: pa.Table) -> pa.Table:
        a = t.column("name_a").to_pylist()
        b = t.column("name_b").to_pylist()
        d = np.fromiter((_lev_leq(x, y, max_d) for x, y in zip(a, b)),
                        dtype=np.int64, count=len(a))
        keep = d <= max_d
        return pa.table({
            "name_a": pa.array(np.asarray(a, dtype=object)[keep],
                               type=pa.string()),
            "name_b": pa.array(np.asarray(b, dtype=object)[keep],
                               type=pa.string()),
            "dist": pa.array(d[keep])})

    # a pair sharing k variants is verified k times (bounded, map-side);
    # the final dedup runs on the OUTPUT-sized verified set — cheaper
    # than a third pair-level exchange on the candidate multiset
    out = (cands.map_batches(verify, batch_format="pyarrow")
           .to_pandas().drop_duplicates(["name_a", "name_b"]))
    return (out.sort_values(["name_a", "name_b"], kind="mergesort")
            .reset_index(drop=True))


def strip_dup_windows(sf_dir: str, k: int = 3) -> pd.DataFrame:
    """The APPLY step of exact-substring dedup (Lee et al. 2022,
    "Deduplicating Training Data Makes Language Models Better" — public
    paper): ``dup_ngram_spans`` measures duplicated windows; this op
    actually MASKS them. Every k-token window whose text also occurs in
    another document marks its tokens; overlapping marks are merged by
    an interval-union kernel (difference-array + cumsum — no Python
    span loop) and the doc keeps the unmasked tokens.

    Two streaming passes: (1) the dup-ngram groupby finds window hashes
    with >1 distinct doc — only (hash, partial doc-count) rows move;
    the resulting dup-hash set broadcasts via ``ray.put`` (at 100 TB
    you'd ship it as a Bloom filter — one-sided error only ever masks a
    few extra windows); (2) map-side re-hash + mask per doc. Output per
    doc: token counts before/after and the number of maximal masked
    spans — the golden recomputes all of it independently."""
    from ..functions.hashing import hash64_many

    docs = read(sf_dir, "documents", columns=["doc_id", "text"],
                rows_per_block=2048)

    def whashes(text: str, k_: int):
        toks = text.split()
        if len(toks) < k_:
            return toks, np.array([], dtype=np.uint64)
        wins = [" ".join(toks[i:i + k_]) for i in range(len(toks) - k_ + 1)]
        return toks, hash64_many(wins)

    def partial(t: pa.Table) -> pa.Table:
        hs, ds_ = [], []
        for doc_id, text in zip(t.column("doc_id").to_pylist(),
                                t.column("text").to_pylist()):
            _, hv = whashes(text, k)
            u = np.unique(hv)
            hs.append(u)
            ds_.append(np.full(len(u), doc_id, dtype=np.int64))
        if not hs:
            return pa.table({"whash": pa.array([], type=pa.uint64()),
                             "n_docs": pa.array([], type=pa.int64())})
        df = pd.DataFrame({"whash": np.concatenate(hs),
                           "n_docs": np.ones(sum(map(len, hs)),
                                             dtype=np.int64)})
        g = df.groupby("whash", as_index=False)["n_docs"].sum()
        wh = g["whash"].to_numpy(np.uint64)
        return pa.table({"whash": pa.array(wh),
                         "n_docs": pa.array(g["n_docs"].to_numpy(np.int64))})

    def reduce_dup(g: pd.DataFrame) -> pa.Table:
        # window hashes are near token-cardinality, so a Ray aggregate
        # pays per group (millions of groups → ~7s); 64 bucketed
        # vectorized reduces fold the same rows in ~1s and emit ONLY
        # the >1-doc hashes (the broadcast set), not every hash
        wh = g["whash"].to_numpy(np.uint64)
        n = g["n_docs"].to_numpy(np.int64)
        order = np.argsort(wh, kind="mergesort")
        wh, n = wh[order], n[order]
        u, idx = np.unique(wh, return_index=True)
        tot = np.add.reduceat(n, idx)
        return pa.table({"whash": pa.array(u[tot > 1])})

    agg = bucket_map(docs.map_batches(partial, batch_format="pyarrow"),
                     "whash", reduce_dup)
    dup = np.sort(agg["whash"].to_numpy(np.uint64))
    ref = ray.put(dup)

    def mask(t: pa.Table) -> pa.Table:
        # Batch-vectorized interval-union masking: md5 window hashes are
        # per-doc (oracle parity), but membership is ONE searchsorted on
        # the whole batch (np.isin would re-sort the dup set per doc) and
        # the diff-array/cumsum kernel runs once over a concatenated
        # per-doc slot layout — each doc owns n_d+1 slots (its tokens +
        # one sentinel); every +1/-1 pair lands inside the owning doc's
        # slots, so the slot-wise running sum never leaks across docs.
        dup_ = ray.get(ref)
        ids_np = t.column("doc_id").to_numpy().astype(np.int64)
        texts = t.column("text").to_pylist()
        if not texts:
            z = pa.array([], type=pa.int64())
            return pa.table({"doc_id": z, "n_tokens": z,
                             "n_tokens_kept": z, "n_dup_spans": z})
        toks_hv = [whashes(s, k) for s in texts]
        n_tok = np.fromiter((len(tk) for tk, _ in toks_hv),
                            dtype=np.int64, count=len(texts))
        n_win = np.fromiter((len(hv) for _, hv in toks_hv),
                            dtype=np.int64, count=len(texts))
        all_hv = (np.concatenate([hv for _, hv in toks_hv])
                  if len(texts) else np.array([], dtype=np.uint64))
        ins = np.searchsorted(dup_, all_hv)
        isdup = np.zeros(len(all_hv), dtype=bool)
        inb = ins < len(dup_)
        isdup[inb] = dup_[ins[inb]] == all_hv[inb]
        slots = n_tok + 1                       # per-doc diff-array length
        doc_base = np.concatenate(([0], np.cumsum(slots)))[:-1]
        win_base = np.concatenate(([0], np.cumsum(n_win)))[:-1]
        # global window position -> owning doc and in-doc token offset
        wdoc = np.repeat(np.arange(len(texts)), n_win)
        wpos = np.arange(len(all_hv)) - win_base[wdoc]
        dpos = wpos[isdup]
        ddoc = wdoc[isdup]
        diff = np.zeros(int(slots.sum()) + 1, dtype=np.int64)
        np.add.at(diff, doc_base[ddoc] + dpos, 1)
        np.add.at(diff, doc_base[ddoc]
                  + np.minimum(dpos + k, n_tok[ddoc]), -1)
        run = np.cumsum(diff[:-1])
        m = run > 0
        # token slots only (drop each doc's sentinel slot)
        sent = doc_base + n_tok
        tok_mask = np.ones(len(m), dtype=bool)
        tok_mask[sent] = False
        prev = np.concatenate(([False], m[:-1]))
        prev[doc_base] = False                  # no carry across docs
        starts = (m & ~prev) & tok_mask
        masked = m & tok_mask
        seg = np.concatenate((doc_base, [len(m)]))
        n_spans_v = np.add.reduceat(
            starts.astype(np.int64), seg[:-1])[:len(texts)] \
            if len(texts) else np.array([], dtype=np.int64)
        n_masked_v = np.add.reduceat(
            masked.astype(np.int64), seg[:-1])[:len(texts)] \
            if len(texts) else np.array([], dtype=np.int64)
        return pa.table({
            "doc_id": pa.array(ids_np),
            "n_tokens": pa.array(n_tok),
            "n_tokens_kept": pa.array(n_tok - n_masked_v),
            "n_dup_spans": pa.array(n_spans_v)})

    out = (docs.map_batches(mask, batch_format="pyarrow")
           .sort("doc_id").to_pandas())
    return out.astype({c: "int64" for c in out.columns})


def docs_trigram_novelty(sf_dir: str) -> pd.DataFrame:
    """First-occurrence novelty score per document (the Lee-et-al-style
    "how much of this doc is new to the corpus" dedup signal): over the
    corpus's distinct (doc, char-trigram) pairs, a trigram belongs to
    the document with the smallest doc_id that contains it; each doc
    reports how many of its distinct trigrams it owns vs carries.
    Pipeline: distinct-trigram explode per doc (set-per-doc, the same
    shingle idiom as MinHash), ONE ``groupby(gram_hash % B)`` exchange
    co-locating every occurrence of a gram; in-bucket a vectorized sort
    resolves min-doc per gram AND folds per-doc (novel, total) partials
    in the same pass — no join back, no second exchange over the pairs;
    a final doc-keyed fold of bucket partials is |docs|×|buckets|
    rows. Grams are exchanged as 64-bit hashes (fixed-width keys;
    collision probability documented as the same md5-low64 contract
    the other dedup ops use)."""
    import hashlib

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def explode(t: pa.Table) -> pa.Table:
        dids, hs = [], []
        for did, text in zip(t.column("doc_id").to_pylist(),
                             t.column("text").to_pylist()):
            grams = {text[i:i + 3] for i in range(len(text) - 2)}
            for g in grams:
                hs.append(int.from_bytes(
                    hashlib.md5(g.encode()).digest()[:8], "little"))
            dids.extend([did] * len(grams))
        h = np.array(hs, dtype=np.uint64).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(np.array(dids, dtype=np.int64)),
            "gh": pa.array(h)})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        gh = g["gh"].to_numpy(np.int64)
        did = g["doc_id"].to_numpy(np.int64)
        order = np.lexsort((did, gh))
        ghs, dids = gh[order], did[order]
        first = run_starts(ghs)
        owner = dids[np.maximum.accumulate(
            np.where(first, np.arange(len(ghs)), 0))]
        novel = (dids == owner)
        uniq, inv = np.unique(dids, return_inverse=True)
        return pd.DataFrame({
            "doc_id": uniq,
            "novel_grams": np.bincount(inv, weights=novel)
            .astype(np.int64),
            "distinct_grams": np.bincount(inv).astype(np.int64)})

    parts = bucket_map(ds.map_batches(explode, batch_format="pyarrow"),
                       "gh", fold)
    out = parts.groupby("doc_id", as_index=False).sum()
    return (out.sort_values("doc_id", kind="mergesort")
            .reset_index(drop=True)
            .astype({c: "int64" for c in out.columns}))


def ngram_containment_pairs(sf_dir: str, k: int = 3,
                            topn: int = 20) -> pd.DataFrame:
    """Exact n-gram CONTAINMENT top pairs — Broder's asymmetric
    companion to :func:`ngram_top_pairs`: score =
    ``inter·10⁴ // min(|A|, |B|)``, which catches a small document
    quoted INSIDE a large one that Jaccard dilutes away (the
    quote/excerpt detector). Same cluster shape as the Jaccard op —
    per-doc counts ride with the exploded rows (no sizes shuffle, no
    doc-cardinality driver dict), the in-bucket reduce finishes the
    score locally and emits only its top-N; only the score formula
    differs."""
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])

    sh = docs.map_batches(functools.partial(shingle_explode, k=k),
                          batch_format="pyarrow")

    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby(["a", "b"], as_index=False)
               .agg(inter=("inter_part", "sum"), na=("na", "first"),
                    nb=("nb", "first")))
        out["min_n"] = np.minimum(out["na"], out["nb"])
        out["containment_bp"] = (out["inter"] * 10000
                                 // out["min_n"]).astype("int64")
        out = out.sort_values(["containment_bp", "a", "b"],
                              ascending=[False, True, True]).head(topn)
        return out[["a", "b", "inter", "min_n", "containment_bp"]]

    pc_ = bucket_map(
        bucket_groups(sh, _shingle_hash, bucket_pair_counts, n=256),
        _pair_key, reduce_bucket)
    if len(pc_) == 0:
        return pd.DataFrame(
            {"a": [], "b": [], "inter": [], "min_n": [],
             "containment_bp": []}).astype(
                 {"a": "int64", "b": "int64", "inter": "int64",
                  "min_n": "int64", "containment_bp": "int64"})
    pc_ = pc_.sort_values(["containment_bp", "a", "b"],
                          ascending=[False, True, True]).head(topn)
    return pc_.reset_index(drop=True).astype(
        {"a": "int64", "b": "int64", "inter": "int64",
         "min_n": "int64", "containment_bp": "int64"})


def _lead_pair_miu(g: pd.DataFrame):
    """Shared per-bucket fold for the LEAD-rule pair legs: returns
    (pair_ids, minhash_matches_of_64, exact_intersection,
    exact_union) as int64 arrays."""
    kd = g["kind"].to_numpy(np.int8)
    ex = g[kd == 0]
    p0 = ex["pair"].to_numpy(np.int64)
    v0 = ex["val"].to_numpy(np.int64)
    order = np.lexsort((v0, p0))
    p0, v0 = p0[order], v0[order]
    brk = run_starts(p0, v0)
    starts = np.flatnonzero(brk)
    runs = np.diff(np.append(starts, len(p0)))
    rp = p0[starts]
    pu, inv = np.unique(rp, return_inverse=True)
    u = np.bincount(inv).astype(np.int64)
    i_ = np.bincount(inv, weights=(runs == 2)).astype(np.int64)
    sg = g[kd == 1]
    p1 = sg["pair"].to_numpy(np.int64)
    k1 = sg["k"].to_numpy(np.int32)
    s1 = sg["side"].to_numpy(np.int8)
    v1 = sg["val"].to_numpy(np.int64)
    order = np.lexsort((s1, k1, p1))
    p1, v1 = p1[order], v1[order]
    eq = v1[0::2] == v1[1::2]
    pk = p1[0::2]
    pu1, inv1 = np.unique(pk, return_inverse=True)
    m = np.bincount(inv1, weights=eq).astype(np.int64)
    assert np.array_equal(pu, pu1)
    return pu, m, i_, u


def minhash_error_audit(sf_dir: str) -> pd.DataFrame:
    """MINHASH CALIBRATION audit — the number that justifies the LSH
    dedup stack's band/row settings: over deterministic LEAD-rule doc
    pairs (every 5th doc paired with the next eligible one), compare
    the 64-seed MinHash Jaccard estimate m/64 against the EXACT
    token-set Jaccard |A∩B|/|A∪B| and report mean/max absolute error
    in bps. Seeded hashes are md5(token || '#' || k) so the DuckDB
    twin reproduces every signature bit. One pass over the eligible
    docs emits, per pair membership, the distinct token hashes (exact
    leg) and the 64 signature values (estimate leg); ONE ``pair % 64``
    exchange folds both legs vectorized (strings never shuffle); the
    driver averages |pairs| integer rows. Eligible-id list is
    dimension-sized (at 100 TB the pairing rule becomes the same
    block-local LEAD used by ``embedding_triplet_audit``)."""
    ids = np.sort(ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"])
        .to_pandas()["doc_id"].to_numpy(np.int64))
    el = ids[ids % 5 == 0]
    n_pairs = len(el) - 1
    el_ref = ray.put(el)

    ds = read(sf_dir, "documents", columns=["doc_id", "text"],
              rows_per_block=512)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        pu, m, i_, u = _lead_pair_miu(g)
        est = 10_000 * m // 64
        exv = 10_000 * i_ // u
        return pd.DataFrame({"pid": pu, "est": est, "ex": exv})

    per = bucket_map(ds.map_batches(functools.partial(lead_pair_derive,
                                                      el_ref=el_ref),
                                    batch_format="pyarrow"),
                     "pair", fold)
    est = per["est"].to_numpy(np.int64)
    exv = per["ex"].to_numpy(np.int64)
    err = np.abs(est - exv)
    return pd.DataFrame(
        [(n_pairs, int(est.sum()) // n_pairs,
          int(exv.sum()) // n_pairs, int(err.sum()) // n_pairs,
          int(err.max()))],
        columns=["n_pairs", "mean_est_bps", "mean_exact_bps",
                 "mean_abs_err_bps", "max_abs_err_bps"]) \
        .astype("int64")


def dedup_threshold_pr(sf_dir: str) -> pd.DataFrame:
    """DEDUP-THRESHOLD precision/recall — the operating-point table a
    near-dup pass is tuned from: over the same deterministic LEAD-rule
    doc pairs as ``minhash_error_audit``, treat exact token-set
    Jaccard >= tau as ground truth and the 64-seed MinHash estimate
    >= tau as the prediction, for tau = 0.3 / 0.5 / 0.7, and report
    the confusion cells plus precision/recall in bps (-1 when a
    denominator is empty). Both legs fold through ONE ``pair % 64``
    exchange via the shared ``_lead_pair_miu`` kernel; thresholding is
    pure integer cross-multiplication (10·i >= tau10·u, 10·m >=
    64·tau10 — no float ever ranks a pair), so each bucket ships 3
    rows of 4 counters and the driver sums tiny grids."""

    ids = np.sort(ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"])
        .to_pandas()["doc_id"].to_numpy(np.int64))
    el = ids[ids % 5 == 0]
    el_ref = ray.put(el)

    ds = read(sf_dir, "documents", columns=["doc_id", "text"],
              rows_per_block=512)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        _, m, i_, u = _lead_pair_miu(g)
        rows = []
        for tau10 in (3, 5, 7):
            truth = 10 * i_ >= tau10 * u
            pred = 10 * m >= 64 * tau10
            rows.append((tau10,
                         int((truth & pred).sum()),
                         int((~truth & pred).sum()),
                         int((truth & ~pred).sum()),
                         int((~truth & ~pred).sum())))
        return pd.DataFrame(rows, columns=[
            "tau10", "tp", "fp", "fn", "tn"]).astype("int64")

    per = (bucket_map(ds.map_batches(functools.partial(lead_pair_derive,
                                                       el_ref=el_ref),
                                     batch_format="pyarrow"),
                      "pair", fold)
           .groupby("tau10", as_index=False).sum()
           .sort_values("tau10").reset_index(drop=True))
    tp = per["tp"].to_numpy(np.int64)
    fp = per["fp"].to_numpy(np.int64)
    fn = per["fn"].to_numpy(np.int64)
    per["precision_bps"] = np.where(
        tp + fp > 0, 10_000 * tp // np.maximum(tp + fp, 1), -1)
    per["recall_bps"] = np.where(
        tp + fn > 0, 10_000 * tp // np.maximum(tp + fn, 1), -1)
    return per.rename(columns={"tau10": "thresh_decis"}) \
        .astype("int64")


def fold_leakage_audit(sf_dir: str) -> pd.DataFrame:
    """TRAIN/VAL LEAKAGE audit: of the LEAD-rule doc pairs whose exact
    token-set Jaccard is >= 0.5 (true near-dups), how many SPAN k-fold
    boundaries under the map-side hash assignment fold =
    md5-64(doc_id) % 5 — a cross-fold near-dup is validation data the
    model has effectively seen in training. Pair legs fold through the
    shared ``_lead_pair_miu`` kernel (ONE pair exchange); fold ids are
    recomputed per pair from the broadcast eligible-id list, so the
    audit adds NO extra shuffle. Reports same-fold vs cross-fold dup
    counts, total pairs, and the leakage share of dups in bps."""
    ids = np.sort(ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"])
        .to_pandas()["doc_id"].to_numpy(np.int64))
    el = ids[ids % 5 == 0]
    el_ref = ray.put(el)
    from ..functions.hashing import int_keys_md5_u64
    folds = (int_keys_md5_u64(el) % np.uint64(5)).astype(np.int64)

    ds = read(sf_dir, "documents", columns=["doc_id", "text"],
              rows_per_block=512)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        pu, _, i_, u = _lead_pair_miu(g)
        dup = 2 * i_ >= u
        return pd.DataFrame({"pid": pu[dup]})

    per = bucket_map(ds.map_batches(functools.partial(lead_pair_derive,
                                                      el_ref=el_ref),
                                    batch_format="pyarrow"),
                     "pair", fold)
    pid = per["pid"].to_numpy(np.int64)
    fa, fb = folds[pid], folds[pid + 1]
    n_dup = len(pid)
    cross = int((fa != fb).sum())
    same = n_dup - cross
    n_pairs = len(el) - 1
    return pd.DataFrame(
        [(n_pairs, n_dup, same, cross,
          (10_000 * cross // n_dup) if n_dup else 0)],
        columns=["n_pairs", "n_dups", "same_fold", "cross_fold",
                 "leakage_bps"]).astype("int64")


def simhash_bit_bias_audit(sf_dir: str) -> pd.DataFrame:
    """BIT-BIAS audit of the SimHash family — a fingerprint whose bits
    drift from 50/50 wastes Hamming radius and skews every banded
    near-dup pass downstream: per bit position 0..63, how many docs
    set it (the batch-level majority vote of ``simhash_batch``,
    dedup.py:405, re-used verbatim), the set share, and the absolute
    deviation from a fair coin in exact bps 10000*|2*n_set - N| //
    (2N). Empty docs count in N with all bits clear, exactly like
    the kernel. Constant 64-cell per-block partials — ZERO shuffle,
    NO float; the twin recomputes the full token-majority SimHash in
    SQL from the same md5 bit lattice."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        sh = simhash_batch(t).column("simhash").to_numpy() \
            .astype(np.uint64)
        shifts = np.arange(64, dtype=np.uint64)
        bits = ((sh[:, None] >> shifts[None, :]) & np.uint64(1)) \
            .astype(np.int64)
        return pa.table({
            "bit": pa.array(np.arange(64, dtype=np.int64)),
            "n_set": pa.array(bits.sum(axis=0)),
            "n_docs": pa.array(np.full(64, len(sh), dtype=np.int64))})

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .to_pandas().groupby("bit", as_index=False).sum()
           .sort_values("bit"))
    ns = agg["n_set"].to_numpy(np.int64)
    n = int(agg["n_docs"].to_numpy(np.int64)[0])
    return pd.DataFrame({
        "bit": agg["bit"].to_numpy(np.int64),
        "n_set": ns,
        "set_share_bps": 10_000 * ns // n,
        "dev_bps": 10_000 * np.abs(2 * ns - n) // (2 * n)}) \
        .reset_index(drop=True).astype("int64")


def docs_rouge_pairs(sf_dir: str) -> pd.DataFrame:
    """ROUGE-1 overlap over the LEAD-rule doc pairs — the
    summarization-eval / near-dup metric the Jaccard kernels don't
    cover because it is MULTISET (clipped counts) and length-aware:
    for every 5th doc paired with the next eligible one, overlap =
    sum_tok min(c1, c2) and F1 closes EXACTLY as 2*ov/(l1+l2) — one
    integer milli floor per pair, no P/R rationals ever formed. One
    ``pair % 64`` exchange carries (pair, side, token, count) rows;
    the per-bucket fold is one hash merge per bucket; the driver
    reduces |pairs| integer rows to the one-row summary (pair count,
    total clipped overlap, mean/max F1 milli with per-pair floors,
    pairs above 0.5). Python-split tokenization == the twin's
    regexp_split + empty filter. Eligible-id list is dimension-sized
    (the 100 TB pairing rule becomes block-local LEAD)."""

    ids = np.sort(ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"])
        .to_pandas()["doc_id"].to_numpy(np.int64))
    el = ids[ids % 5 == 0]
    n_pairs = len(el) - 1
    el_ref = ray.put(el)

    ds = read(sf_dir, "documents", columns=["doc_id", "text"],
              rows_per_block=512)

    def derive(t: pa.Table) -> pa.Table:
        elo = ray.get(el_ref)
        did = t.column("doc_id").to_numpy()
        texts = t.column("text").to_pylist()
        pair, side, tok, cnt = [], [], [], []
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
            toks, cs = np.unique(np.array(s.split(), dtype=object),
                                 return_counts=True)
            for pj, sd in members:
                pair.extend([pj] * len(toks))
                side.extend([sd] * len(toks))
                tok.extend(toks.tolist())
                cnt.extend(cs.tolist())
        return pa.table({
            "pair": pa.array(pair, type=pa.int64()),
            "side": pa.array(side, type=pa.int8()),
            "tok": pa.array(tok, type=pa.string()),
            "cnt": pa.array(cnt, type=pa.int64())})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        sd = g["side"].to_numpy(np.int8)
        d0 = g[sd == 0][["pair", "tok", "cnt"]]
        d1 = g[sd == 1][["pair", "tok", "cnt"]]
        l1 = d0.groupby("pair")["cnt"].sum()
        l2 = d1.groupby("pair")["cnt"].sum()
        mg = d0.merge(d1, on=["pair", "tok"])
        ov = (mg.assign(m=np.minimum(mg["cnt_x"], mg["cnt_y"]))
              .groupby("pair")["m"].sum())
        out = pd.DataFrame({"pair": sorted(set(l1.index)
                                           | set(l2.index))})
        out["ov"] = out["pair"].map(ov).fillna(0).astype(np.int64)
        out["l1"] = out["pair"].map(l1).fillna(0).astype(np.int64)
        out["l2"] = out["pair"].map(l2).fillna(0).astype(np.int64)
        return out

    per = bucket_map(ds.map_batches(derive, batch_format="pyarrow"),
                     "pair", fold)
    tot = per["l1"].to_numpy(np.int64) + per["l2"].to_numpy(np.int64)
    f = np.where(tot > 0,
                 2000 * per["ov"].to_numpy(np.int64)
                 // np.maximum(tot, 1), -1)
    return pd.DataFrame([(n_pairs, int(per["ov"].sum()),
                          int(f.sum()) // n_pairs, int(f.max()),
                          int((f >= 500).sum()))],
                        columns=["n_pairs", "sum_overlap",
                                 "mean_f_milli", "max_f_milli",
                                 "hi500"]).astype("int64")


def docs_winnowing_density(sf_dir: str) -> pd.DataFrame:
    """WINNOWING fingerprint density — the MOSS plagiarism-detection
    selector: 5-gram md5 hashes, sliding window of 8, the window
    MINIMUM is the fingerprint, and the metric is distinct selected
    fingerprints per full window vs the theoretical 2/(w+1) density
    the winnowing paper guarantees. Distinct-VALUE counting (not
    positions) keeps both sides definitionally identical; every hash
    is md5(5-gram) so the twin reproduces each bit. Every 8th doc
    (doc_id % 8 == 0) carries the audit — the sampled calibration a
    100 TB near-dup pass runs before choosing w. Per-block partials
    are one row per doc — ZERO shuffle, pure integers."""
    import hashlib

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        did = t.column("doc_id").to_numpy().astype(np.int64)
        texts = t.column("text").to_pylist()
        n_docs = 0
        nw = 0
        ns = 0
        for i, s in enumerate(texts):
            if int(did[i]) % 8 != 0 or len(s) < 12:
                continue
            h = np.array([int(hashlib.md5(
                s[j:j + 5].encode("utf-8")).hexdigest()[:15], 16)
                for j in range(len(s) - 4)], dtype=np.int64)
            wins = np.lib.stride_tricks.sliding_window_view(h, 8) \
                .min(axis=1)
            n_docs += 1
            nw += len(wins)
            ns += len(np.unique(wins))
        return pa.table({"n_docs": pa.array([np.int64(n_docs)]),
                         "nw": pa.array([np.int64(nw)]),
                         "ns": pa.array([np.int64(ns)])})

    m = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    nw = int(m["nw"].sum())
    ns = int(m["ns"].sum())
    return pd.DataFrame([(int(m["n_docs"].sum()), nw, ns,
                          10000 * ns // nw, 20000 // 9)],
                        columns=["n_docs", "n_windows", "n_selected",
                                 "density_bps", "expected_bps"]) \
        .astype("int64")


def dedup_cross_source_census(sf_dir: str) -> pd.DataFrame:
    """DUPLICATE PROVENANCE census — exact-duplicate text groups
    (md5 identity) classified by whether they stay inside ONE source
    or span several: cross-source duplication is contamination /
    syndication (dedup before mixing), same-source duplication is a
    feed bug (fix upstream). One ``hash-bucket`` exchange of (md5,
    source) rows; each bucket folds its groups and emits one census
    partial (group size >= 2, distinct sources >= 2), so the driver
    sums bucket rows. The twin groups on the same md5. Pure
    integers."""
    import hashlib

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["text", "source"])

    def derive(t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pylist()
        hs = [hashlib.md5(s.encode("utf-8")).hexdigest()
              for s in texts]
        return pa.table({"h": pa.array(hs, type=pa.string()),
                         "source": t.column("source")})

    def first_byte(t: pa.Table) -> np.ndarray:
        return np.array([int(h[:2], 16) for h in t.column("h").to_pylist()],
                        dtype=np.int64)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        gr = g.groupby("h").agg(n=("source", "size"),
                                ns=("source", "nunique"))
        dup = gr[gr["n"] >= 2]
        return pd.DataFrame([{
            "n_docs": int(gr["n"].sum()),
            "n_groups_dup": len(dup),
            "n_docs_dup": int(dup["n"].sum()),
            "cross_groups": int((dup["ns"] >= 2).sum()),
            "cross_docs": int(dup.loc[dup["ns"] >= 2, "n"].sum())}])

    m = (bucket_map(ds.map_batches(derive, batch_format="pyarrow"),
                    first_byte, fold)
         .sum())
    gd = int(m["n_groups_dup"])
    return pd.DataFrame([(int(m["n_docs"]), gd, int(m["n_docs_dup"]),
                          int(m["cross_groups"]),
                          int(m["cross_docs"]),
                          10000 * int(m["cross_groups"]) // gd
                          if gd else -1)],
                        columns=["n_docs", "n_groups_dup",
                                 "n_docs_dup", "cross_groups",
                                 "cross_docs", "cross_share_bps"]) \
        .astype("int64")


def embedding_exact_dup_census(sf_dir: str) -> pd.DataFrame:
    """EXACT-DUPLICATE embedding census — bitwise-identical vectors
    are pipeline bugs (same item embedded twice, a collapsed encoder
    batch), distinct from the NEAR-dup semantics of
    ``semantic_dedup``: vectors group by their raw float32 payload
    (md5 of the coordinate bytes here, list equality in the twin),
    and the census reports dup groups, vectors in them and the
    biggest clone set. Per-block np.unique over the raw row bytes
    collapses to distinct vectors FIRST (md5 once per distinct
    vector), then one hash-bucket exchange of (digest-hi, digest-lo,
    count) rows with per-bucket census partials. Pure integers."""
    import hashlib

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["embedding"])

    def derive(t: pa.Table) -> pa.Table:
        empty = pa.table({"h1": pa.array([], type=pa.uint64()),
                          "h2": pa.array([], type=pa.uint64()),
                          "c": pa.array([], type=pa.int64())})
        arr = t.column("embedding").combine_chunks()
        if len(arr) == 0:
            return empty
        flat = arr.flatten().to_numpy(zero_copy_only=False)
        dim = len(flat) // len(arr)
        mat = np.ascontiguousarray(flat.reshape(-1, dim))
        # unique-FIRST: a void view over each row's raw bytes lets
        # np.unique collapse the block to DISTINCT vectors before any
        # hashing, so md5 runs once per distinct vector (not per row)
        # and multiplicity rides as an integer count. The digest stays
        # raw bytes → two uint64 halves (full 128 bits preserved), no
        # hexdigest/int(hex) detour.
        void = mat.view(np.dtype((np.void,
                                  mat.dtype.itemsize * dim))).reshape(-1)
        uniq, cnt = np.unique(void, return_counts=True)
        md5 = hashlib.md5
        dig = b"".join(md5(v.tobytes()).digest() for v in uniq)
        dg = (np.frombuffer(dig, dtype=np.dtype(">u8"))
              .astype(np.uint64).reshape(-1, 2))
        return pa.table({"h1": pa.array(dg[:, 0]),
                         "h2": pa.array(dg[:, 1]),
                         "c": pa.array(cnt.astype(np.int64))})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby(["h1", "h2"], sort=False)["c"].sum()
        dup = c[c >= 2]
        return pd.DataFrame([{
            "n_vecs": int(c.sum()),
            "n_groups_dup": len(dup),
            "n_dup_vecs": int(dup.sum()),
            "max_group": int(c.max()) if len(c) else 0}])

    m = bucket_map(ds.map_batches(derive, batch_format="pyarrow"),
                   lambda t: t.column("h1").to_numpy() >> np.uint64(56),
                   fold)
    return pd.DataFrame([(int(m["n_vecs"].sum()),
                          int(m["n_groups_dup"].sum()),
                          int(m["n_dup_vecs"].sum()),
                          int(m["max_group"].max()))],
                        columns=["n_vecs", "n_groups_dup",
                                 "n_dup_vecs", "max_group"]) \
        .astype("int64")
