"""Approximate-nearest-neighbor search over the ``embeddings`` table.

Three paths (SURVEY-mandated similarity-search component):

- ``knn_bruteforce``: exact cosine top-k — broadcast the (small) query
  matrix via ``ray.put`` once, one numpy matmul per batch against it,
  per-batch local top-k, tiny final merge. This is the correctness
  baseline and the SQL-checkable entry.
- ``knn_lsh``: random-hyperplane LSH buckets (signature = sign pattern of
  H projections); probe only same-bucket (plus multiprobe flip-≤F)
  candidates, one matmul per (bucket, probing-query-set). Recall measured
  against the brute-force baseline in tests.
- ``knn_ivf``: k-means coarse quantizer trained on a DETERMINISTIC hash
  sample of the vectors (never the full matrix on the driver — the
  100 TB path); each query scores only its ``nprobe`` nearest lists.

All scoring stages are plain task-mode ``map_batches`` functions: the
broadcast state is numpy arrays in the object store (``ray.put`` once),
and ``ray.get`` inside the task is a zero-copy local lookup — no actor
pool to warm up, and the stage autoscales to the cluster.

Similarity math is float64 end-to-end; reported as basis points
(floor(sim*10000)) for integer-exact oracle comparison.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from ..functions.vectors import list_col_to_matrix, normalize_rows
from .exchange import bucket_map
from .kernels import dense_lookup


def _load_queries(sf_dir: str, n_queries: int):
    tbl = pq.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    ids = tbl.column("vec_id").to_numpy().astype(np.int64)
    mat = list_col_to_matrix(tbl.column("embedding"))
    sel = ids < n_queries
    return ids[sel], normalize_rows(mat[sel])


def _read_embeddings(sf_dir: str):
    return ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                 columns=["vec_id", "embedding"])


def _global_topk(local: pd.DataFrame, k: int) -> pd.DataFrame:
    """Merge per-batch candidate lists into the global top-k per query with
    the deterministic (sim desc, neighbor asc) tie-break the SQL oracle
    uses."""
    out = (local.sort_values(["query_id", "sim_bp", "neighbor_id"],
                             ascending=[True, False, True])
           .groupby("query_id", as_index=False).head(k))
    return out.reset_index(drop=True)


def make_bruteforce_fn(qref, k: int):
    """Per-batch scoring: batch block × broadcast query matrix. Local top-k
    is taken in the SAME order as the global merge so boundary ties are
    pruned identically."""

    def score(t: pa.Table) -> pa.Table:
        qids, qmat = ray.get(qref)          # zero-copy plasma lookup
        ids = t.column("vec_id").to_numpy().astype(np.int64)
        m = normalize_rows(list_col_to_matrix(t.column("embedding")))
        sims = qmat @ m.T                   # (Q, batch)
        bp_all = np.floor(sims * 10000).astype(np.int64)
        kk = min(k, sims.shape[1])
        q_out, n_out, s_out = [], [], []
        for qi in range(sims.shape[0]):
            cand = np.flatnonzero(ids != qids[qi])   # exclude self
            if len(cand) == 0:
                continue
            bp = bp_all[qi][cand]
            order = np.lexsort((ids[cand], -bp))[:kk]
            top = cand[order]
            q_out.append(np.full(len(top), qids[qi], dtype=np.int64))
            n_out.append(ids[top])
            s_out.append(bp_all[qi][top])
        if not q_out:
            return pa.table({"query_id": pa.array([], type=pa.int64()),
                             "neighbor_id": pa.array([], type=pa.int64()),
                             "sim_bp": pa.array([], type=pa.int64())})
        return pa.table({"query_id": pa.array(np.concatenate(q_out)),
                         "neighbor_id": pa.array(np.concatenate(n_out)),
                         "sim_bp": pa.array(np.concatenate(s_out))})

    return score


def knn_bruteforce(sf_dir: str, n_queries: int = 10, k: int = 5) -> pd.DataFrame:
    qref = ray.put(_load_queries(sf_dir, n_queries))
    local = _read_embeddings(sf_dir).map_batches(
        make_bruteforce_fn(qref, k), batch_format="pyarrow").to_pandas()
    return _global_topk(local, k)


def knn_lsh(sf_dir: str, n_queries: int = 10, k: int = 5,
            n_planes: int = 5, max_flips: int = 3) -> pd.DataFrame:
    """LSH-bucketed ANN: bucket = sign-pattern of ``n_planes`` fixed random
    hyperplanes; multiprobe up to ``max_flips`` bit flips. The probed
    fraction of space is C(n_planes, ≤max_flips)/2^n_planes — the
    recall/cost dial (near-uniform vectors need generous multiprobe;
    clustered real embeddings can run far fewer probes)."""
    from itertools import combinations

    rng = np.random.RandomState(42)
    qids, qmat = _load_queries(sf_dir, n_queries)
    dim = qmat.shape[1]
    planes = rng.randn(n_planes, dim)

    def signature(m: np.ndarray) -> np.ndarray:
        return ((m @ planes.T) > 0).astype(np.uint32) @ (
            1 << np.arange(n_planes, dtype=np.uint32))

    qsig = signature(qmat)
    flip_masks = [0] + [
        sum(1 << b for b in combo)
        for r in range(1, max_flips + 1)
        for combo in combinations(range(n_planes), r)
    ]
    # bucket → sorted array of probing query indices (arrays, not sets —
    # the per-batch probe is one matmul per (bucket, query-set))
    probe_sets: dict[int, set[int]] = {}
    for qi, s in enumerate(qsig):
        for m_ in flip_masks:
            probe_sets.setdefault(int(s) ^ m_, set()).add(qi)
    probe = {b: np.fromiter(sorted(v), dtype=np.int64)
             for b, v in probe_sets.items()}
    qref = ray.put((qids, qmat, probe))

    def score(t: pa.Table) -> pa.Table:
        qids_, qmat_, probe_ = ray.get(qref)
        ids = t.column("vec_id").to_numpy().astype(np.int64)
        m = normalize_rows(list_col_to_matrix(t.column("embedding")))
        sig = signature(m)
        # group batch vectors by bucket: one matmul per occupied bucket
        order = np.argsort(sig, kind="stable")
        uniq, starts = np.unique(sig[order], return_index=True)
        bounds = np.append(starts, len(order))
        q_out, n_out, s_out = [], [], []
        for ui, b in enumerate(uniq):
            qis = probe_.get(int(b))
            if qis is None:
                continue
            rows = order[bounds[ui]:bounds[ui + 1]]
            sims = qmat_[qis] @ m[rows].T            # (|qis|, |rows|)
            bp = np.floor(sims * 10000).astype(np.int64)
            sub_ids = ids[rows]
            for row_i, qi in enumerate(qis):
                keep = sub_ids != qids_[qi]
                q_out.append(np.full(int(keep.sum()), qids_[qi],
                                     dtype=np.int64))
                n_out.append(sub_ids[keep])
                s_out.append(bp[row_i][keep])
        if not q_out:
            return pa.table({"query_id": pa.array([], type=pa.int64()),
                             "neighbor_id": pa.array([], type=pa.int64()),
                             "sim_bp": pa.array([], type=pa.int64())})
        return pa.table({"query_id": pa.array(np.concatenate(q_out)),
                         "neighbor_id": pa.array(np.concatenate(n_out)),
                         "sim_bp": pa.array(np.concatenate(s_out))})

    local = _read_embeddings(sf_dir).map_batches(
        score, batch_format="pyarrow").to_pandas()
    return _global_topk(local, k)


def _kmeans(mat: np.ndarray, k: int, iters: int = 8,
            seed: int = 42) -> np.ndarray:
    """Deterministic Lloyd k-means (numpy) for the IVF coarse quantizer —
    runs on the driver over the (bounded) training sample only."""
    rng = np.random.RandomState(seed)
    cent = mat[rng.choice(len(mat), size=min(k, len(mat)), replace=False)]
    for _ in range(iters):
        d = ((mat[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        for c in range(len(cent)):
            m = assign == c
            if m.any():
                cent[c] = mat[m].mean(axis=0)
    return cent


def _train_sample(sf_dir: str, target_rows: int = 4096) -> np.ndarray:
    """Deterministic distributed sample for quantizer training: keep rows
    with ``mix64(vec_id) % gap == 0`` inside map_batches, so only the
    ~``target_rows`` sampled vectors ever reach the driver (same plan at
    any data scale; hash sampling is reproducible, unlike
    ``random_sample``'s per-block RNG)."""
    from ..functions.hashing import mix64

    total = pq.ParquetFile(f"{sf_dir}/embeddings.parquet").metadata.num_rows
    gap = max(1, total // target_rows)

    def sample(t: pa.Table) -> pa.Table:
        ids = t.column("vec_id").to_numpy().astype(np.uint64)
        keep = (mix64(ids) % np.uint64(gap)) == 0
        return t.filter(pa.array(keep))

    tbls = ray.get(
        _read_embeddings(sf_dir)
        .map_batches(sample, batch_format="pyarrow").to_arrow_refs())
    tbls = [t for t in tbls if len(t)]
    if not tbls:
        return np.empty((0, 0), dtype=np.float64)
    mat = np.concatenate([list_col_to_matrix(t.column("embedding"))
                          for t in tbls])
    ids = np.concatenate([t.column("vec_id").to_numpy().astype(np.int64)
                          for t in tbls])
    # Ray Data does NOT guarantee block order across runs/parallelism;
    # the k-means init is row-order-dependent (rng.choice of row indices),
    # so pin the sample to vec_id order for run-invariant training.
    return mat[np.argsort(ids, kind="stable")]


def knn_ivf(sf_dir: str, n_queries: int = 10, k: int = 5,
            n_lists: int = 16, nprobe: int = 8) -> pd.DataFrame:
    """IVF ANN: vectors bucketed by nearest of ``n_lists`` k-means
    centroids (trained on a hash sample, broadcast); each query scores
    only vectors in its ``nprobe`` nearest lists. Same output
    shape/ordering as the brute-force baseline; recall measured in tests.
    """
    cent = _kmeans(_train_sample(sf_dir), n_lists)
    centn = normalize_rows(cent.copy())
    qids, qmat = _load_queries(sf_dir, n_queries)
    # query → probe lists (by centroid cosine); inverted to list → queries
    qc = qmat @ centn.T
    probe_lists = np.argsort(-qc, axis=1)[:, :nprobe]
    probe_of_list: dict[int, np.ndarray] = {}
    for li in np.unique(probe_lists):
        qis = np.flatnonzero((probe_lists == li).any(axis=1))
        probe_of_list[int(li)] = qis.astype(np.int64)
    ref = ray.put((qids, qmat, centn, probe_of_list))

    def score(t: pa.Table) -> pa.Table:
        qids_, qmat_, centn_, probe_ = ray.get(ref)
        ids = t.column("vec_id").to_numpy().astype(np.int64)
        m = normalize_rows(list_col_to_matrix(t.column("embedding")))
        lists = (m @ centn_.T).argmax(axis=1)
        q_out, n_out, s_out = [], [], []
        for li, qis in probe_.items():
            vm = lists == li
            if not vm.any():
                continue
            sub_ids = ids[vm]
            sims = qmat_[qis] @ m[vm].T
            bp = np.floor(sims * 10000).astype(np.int64)
            for row_i, qi in enumerate(qis):
                keep = sub_ids != qids_[qi]
                q_out.append(np.full(int(keep.sum()), qids_[qi],
                                     dtype=np.int64))
                n_out.append(sub_ids[keep])
                s_out.append(bp[row_i][keep])
        if not q_out:
            return pa.table({"query_id": pa.array([], type=pa.int64()),
                             "neighbor_id": pa.array([], type=pa.int64()),
                             "sim_bp": pa.array([], type=pa.int64())})
        return pa.table({"query_id": pa.array(np.concatenate(q_out)),
                         "neighbor_id": pa.array(np.concatenate(n_out)),
                         "sim_bp": pa.array(np.concatenate(s_out))})

    local = _read_embeddings(sf_dir).map_batches(
        score, batch_format="pyarrow").to_pandas()
    return _global_topk(local, k)


def _pq_train(sample: np.ndarray, m_sub: int, n_codes: int):
    """Per-subspace codebooks for product quantization, trained on the
    (bounded, driver-resident) hash sample. Vectors are normalized first
    so the additive inner-product decomposition approximates cosine."""
    sample = normalize_rows(sample.copy())
    d = sample.shape[1]
    dsub = d // m_sub
    return [_kmeans(np.ascontiguousarray(sample[:, mi * dsub:(mi + 1) * dsub]),
                    n_codes, seed=42 + mi) for mi in range(m_sub)]


def knn_ivfpq(sf_dir: str, n_queries: int = 10, k: int = 5,
              n_lists: int = 16, nprobe: int = 8,
              m_sub: int = 8, n_codes: int = 16,
              rerank: int = 8) -> pd.DataFrame:
    """IVF-PQ ANN (the published 100-TB ANN layout, e.g. FAISS/SPANN-style):
    coarse quantizer prunes to ``nprobe`` lists, then each candidate is
    scored by asymmetric distance computation (ADC) over ``m_sub``
    product-quantizer codes — sim(q, v) ≈ Σ_m lut[q, m, code_m(v)] where
    the per-query LUT holds the query-subvector · codeword inner
    products. A candidate's 64-float embedding collapses to ``m_sub``
    4-bit codes, so at scale the scan touches 4 bytes/vector instead of
    512 and the codes table fits in RAM where raw vectors cannot. The
    ADC shortlist (top ``k*rerank`` per query) is then RE-RANKED against
    the exact vectors in a second, candidate-filtered pass — the
    production pattern: the cheap compressed scan bounds how many raw
    vectors are ever touched (Q × k × rerank point lookups at scale).

    Both quantizers train on the deterministic hash sample; codebooks +
    LUTs broadcast once via ``ray.put``; encode + ADC scan are one
    task-mode ``map_batches`` (vectorized, no per-row Python in the
    argmin/gather path). Output quantized to basis points; golden-oracled
    (tools/make_goldens.py reimplements the spec single-process).
    """
    sample = _train_sample(sf_dir)
    centn = normalize_rows(_kmeans(sample, n_lists))
    books = _pq_train(sample, m_sub, n_codes)
    qids, qmat = _load_queries(sf_dir, n_queries)
    d = qmat.shape[1]
    dsub = d // m_sub
    # per-query ADC lookup tables: lut[m] is (Q, n_codes)
    lut = [qmat[:, mi * dsub:(mi + 1) * dsub] @ books[mi].T
           for mi in range(m_sub)]
    qc = qmat @ centn.T
    probe_lists = np.argsort(-qc, axis=1)[:, :nprobe]
    probe_of_list: dict[int, np.ndarray] = {}
    for li in np.unique(probe_lists):
        qis = np.flatnonzero((probe_lists == li).any(axis=1))
        probe_of_list[int(li)] = qis.astype(np.int64)
    ref = ray.put((qids, centn, books, lut, probe_of_list))

    def score(t: pa.Table) -> pa.Table:
        qids_, centn_, books_, lut_, probe_ = ray.get(ref)
        ids = t.column("vec_id").to_numpy().astype(np.int64)
        m = normalize_rows(list_col_to_matrix(t.column("embedding")))
        lists = (m @ centn_.T).argmax(axis=1)
        # PQ-encode the batch: one argmin per subspace (vectorized)
        codes = np.empty((len(ids), len(books_)), dtype=np.int64)
        for mi, cb in enumerate(books_):
            sub = m[:, mi * dsub:(mi + 1) * dsub]
            d2 = ((sub[:, None, :] - cb[None, :, :]) ** 2).sum(axis=2)
            codes[:, mi] = d2.argmin(axis=1)
        q_out, n_out, s_out = [], [], []
        for li, qis in probe_.items():
            vm = lists == li
            if not vm.any():
                continue
            sub_ids = ids[vm]
            c = codes[vm]
            # ADC: accumulate subspace LUT gathers in fixed m-order so the
            # float sum is bit-identical to the golden's
            scores = np.zeros((len(qis), len(sub_ids)), dtype=np.float64)
            for mi in range(len(books_)):
                scores += lut_[mi][qis][:, c[:, mi]]
            bp = np.floor(scores * 10000).astype(np.int64)
            for row_i, qi in enumerate(qis):
                keep = sub_ids != qids_[qi]
                q_out.append(np.full(int(keep.sum()), qids_[qi],
                                     dtype=np.int64))
                n_out.append(sub_ids[keep])
                s_out.append(bp[row_i][keep])
        if not q_out:
            return pa.table({"query_id": pa.array([], type=pa.int64()),
                             "neighbor_id": pa.array([], type=pa.int64()),
                             "sim_bp": pa.array([], type=pa.int64())})
        return pa.table({"query_id": pa.array(np.concatenate(q_out)),
                         "neighbor_id": pa.array(np.concatenate(n_out)),
                         "sim_bp": pa.array(np.concatenate(s_out))})

    local = _read_embeddings(sf_dir).map_batches(
        score, batch_format="pyarrow").to_pandas()
    shortlist = _global_topk(local, k * rerank)
    if shortlist.empty:
        return shortlist

    # Exact re-rank pass: only shortlisted ids are ever scored against the
    # raw vectors. The candidate pair set is tiny (Q * k * rerank rows).
    cand_ids = np.unique(shortlist["neighbor_id"].to_numpy())
    pair_key = set((int(q) << 32) | int(n) for q, n in
                   zip(shortlist["query_id"], shortlist["neighbor_id"]))
    rref = ray.put((qids, qmat, cand_ids, pair_key))

    def rescore(t: pa.Table) -> pa.Table:
        qids_, qmat_, cand_, pairs_ = ray.get(rref)
        ids = t.column("vec_id").to_numpy().astype(np.int64)
        vm = np.isin(ids, cand_)
        if not vm.any():
            return pa.table({"query_id": pa.array([], type=pa.int64()),
                             "neighbor_id": pa.array([], type=pa.int64()),
                             "sim_bp": pa.array([], type=pa.int64())})
        sub_ids = ids[vm]
        m = normalize_rows(list_col_to_matrix(t.column("embedding"))[vm])
        bp = np.floor((qmat_ @ m.T) * 10000).astype(np.int64)
        qq = np.repeat(qids_.astype(np.int64), len(sub_ids))
        nn = np.tile(sub_ids, len(qids_))
        keyv = (qq << 32) | nn
        keep = np.fromiter((int(kv) in pairs_ for kv in keyv),
                           dtype=bool, count=len(keyv))
        return pa.table({"query_id": pa.array(qq[keep]),
                         "neighbor_id": pa.array(nn[keep]),
                         "sim_bp": pa.array(bp.ravel()[keep])})

    exact = _read_embeddings(sf_dir).map_batches(
        rescore, batch_format="pyarrow").to_pandas()
    return _global_topk(exact, k)


def _rp_signs(d_in: int, d_out: int) -> np.ndarray:
    """Deterministic ±1 projection matrix (Achlioptas-style sign JL):
    sign(i,j) from the parity of mix64(i*1_000_003 + j) — no RNG state to
    ship, every task rebuilds the same (d_in × d_out) matrix locally."""
    from ..functions.hashing import mix64

    idx = (np.arange(d_in, dtype=np.uint64)[:, None]
           * np.uint64(1_000_003)
           + np.arange(d_out, dtype=np.uint64)[None, :])
    return np.where(mix64(idx) & np.uint64(1), 1.0, -1.0)


def embedding_rp(sf_dir: str, d_out: int = 16) -> pd.DataFrame:
    """Johnson–Lindenstrauss random projection of the embedding column to
    ``d_out`` dims: y = (x / ||x||) · S / sqrt(d_out) with hash-derived ±1
    signs. The go-to shrink step before LSH banding / coarse clustering at
    100 TB (512 B/vector → d_out·8 B) — one stateless vectorized
    ``map_batches``, no training, no broadcast state (the sign matrix is
    rebuilt from the hash inside each task). Output exploded to
    (vec_id, dim, val_fp) long format, val_fp = floor(y·2^20) fixed-point;
    golden-oracled (independent reimplementation in tools/make_goldens.py).
    """
    def project(t: pa.Table) -> pa.Table:
        ids = t.column("vec_id").to_numpy().astype(np.int64)
        m = normalize_rows(list_col_to_matrix(t.column("embedding")))
        s = _rp_signs(m.shape[1], d_out)
        y = (m @ s) / np.sqrt(float(d_out))
        fp = np.floor(y * (1 << 20)).astype(np.int64)
        n = len(ids)
        return pa.table({
            "vec_id": pa.array(np.repeat(ids, d_out)),
            "dim": pa.array(np.tile(np.arange(d_out, dtype=np.int64), n)),
            "val_fp": pa.array(fp.ravel()),
        })

    return _read_embeddings(sf_dir).map_batches(
        project, batch_format="pyarrow").to_pandas()


def embedding_quantize(sf_dir: str) -> pd.DataFrame:
    """Per-dimension int8-style scalar quantization of the embedding
    column (the vector-store compression primitive): code =
    clip(floor((v − dmin)/(dmax − dmin)·255), 0, 255) with dmin/dmax
    the corpus-wide per-dimension extremes. Pass 1 folds per-block
    binary-packed min/max vectors on the driver (dimension-sized, ZERO
    shuffle — the same all-reduce shape as ``embedding_dim_stats``);
    pass 2 broadcasts the two dim-length vectors in the task closure
    and emits (vec_id, dim, code) rows fully vectorized
    (repeat/tile + one clip). All float math is float64 from the exact
    float32 upcast in the SAME IEEE order as the SQL twin; a constant
    dimension (dmax == dmin) codes to 0 on both sides."""
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])

    def mm_partial(t: pa.Table) -> pa.Table:
        m = list_col_to_matrix(t.column("embedding"))
        return pa.table({
            "lo": pa.array([m.min(axis=0).tobytes()],
                           type=pa.large_binary()),
            "hi": pa.array([m.max(axis=0).tobytes()],
                           type=pa.large_binary())})

    rows = ds.map_batches(mm_partial, batch_format="pyarrow").take_all()
    dmin = np.min([np.frombuffer(r["lo"], dtype=np.float64)
                   for r in rows], axis=0)
    dmax = np.max([np.frombuffer(r["hi"], dtype=np.float64)
                   for r in rows], axis=0)
    rng = dmax - dmin
    safe = np.where(rng > 0, rng, 1.0)

    def quant(t: pa.Table) -> pa.Table:
        m = list_col_to_matrix(t.column("embedding"))
        code = np.clip(np.floor((m - dmin) / safe * 255.0), 0, 255) \
            .astype(np.int64)
        code[:, rng <= 0] = 0
        n, d = m.shape
        return pa.table({
            "vec_id": pa.array(np.repeat(
                t.column("vec_id").to_numpy().astype(np.int64), d)),
            "dim": pa.array(np.tile(np.arange(1, d + 1, dtype=np.int64),
                                    n)),
            "code": pa.array(code.reshape(-1))})

    out = ds.map_batches(quant, batch_format="pyarrow").to_pandas()
    return (out.sort_values(["vec_id", "dim"], kind="mergesort")
            .reset_index(drop=True)
            .astype({"vec_id": "int64", "dim": "int64", "code": "int64"}))


def embedding_sim_hist(sf_dir: str, mod: int = 17) -> pd.DataFrame:
    """Pairwise cosine similarities over a DETERMINISTIC sample of the
    embedding corpus (vec_id % mod == 0) — the threshold-calibration
    diagnostic every near-dup pipeline needs before picking its cosine
    cutoff. Components quantize to 1e-3 fixed point so dot products and
    norms are EXACT integers; the only float step is the final
    dot/(√na·√nb) in the SAME IEEE order as the SQL twin → bit-equal
    basis points. The sample filter is a pushed-down stateless map (the
    full corpus never leaves the scan); the sampled matrix is tiny by
    construction (documented contract: mod scales with corpus so the
    sample stays broadcast-sized), pairs come from one upper-triangle
    integer matmul. Output: one row per sampled pair."""
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])

    def keep(t: pa.Table) -> pa.Table:
        vid = t.column("vec_id").to_numpy().astype(np.int64)
        mask = (vid % mod) == 0
        m = list_col_to_matrix(t.column("embedding"))
        fp = np.floor(m[mask] * 1000.0).astype(np.int64)
        return pa.table({
            "vec_id": pa.array(vid[mask]),
            "fp": pa.array(list(fp), type=pa.list_(pa.int64()))})

    rows = ds.map_batches(keep, batch_format="pyarrow").to_pandas()
    order = np.argsort(rows["vec_id"].to_numpy(np.int64))
    vid = rows["vec_id"].to_numpy(np.int64)[order]
    fp = np.stack(rows["fp"].to_numpy()[order]).astype(np.int64)
    dots = fp @ fp.T
    nrm = np.sqrt(np.diag(dots).astype(np.float64))
    iu, ju = np.triu_indices(len(vid), k=1)
    bps = np.floor(dots[iu, ju].astype(np.float64)
                   / (nrm[iu] * nrm[ju]) * 10000.0).astype(np.int64)
    out = pd.DataFrame({"va": vid[iu], "vb": vid[ju], "sim_bps": bps})
    return (out.sort_values(["va", "vb"], kind="mergesort")
            .reset_index(drop=True)
            .astype({c: "int64" for c in out.columns}))


def embedding_triplet_audit(sf_dir: str) -> pd.DataFrame:
    """REPRESENTATION-QUALITY eval: deterministic triplets — anchor,
    next same-label vector (positive), next vector overall if
    differently-labeled (negative) — and the share where
    d²(a,p) < d²(a,n) in exact 1e-3 fixed point; the metric-learning
    'triplet accuracy' that says whether labels are even learnable
    from these embeddings. Triplet IDS are built from the 2-column
    (vec_id, label) projection (dimension-sized at any scale — the
    VECTORS never visit the driver); each embedding block then tags
    its vectors with their ≤3 triplet memberships via broadcast
    searchsorted and ships (triplet, role, packed-vector) rows through
    ONE ``triplet % 64`` exchange whose fold computes both distances."""
    meta = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                 columns=["vec_id", "label"]).to_pandas()
    ids = meta["vec_id"].to_numpy(np.int64)
    lab = meta["label"].to_numpy(np.int64)
    order = np.argsort(ids, kind="mergesort")
    ids, lab = ids[order], lab[order]
    # positive: next id within label; negative: next id overall when
    # its label differs (triplets needing both survive)
    pos = np.full(len(ids), -1, dtype=np.int64)
    for lb in np.unique(lab):
        m = np.flatnonzero(lab == lb)
        pos[m[:-1]] = ids[m[1:]]
    neg = np.full(len(ids), -1, dtype=np.int64)
    diff = lab[1:] != lab[:-1]
    neg[:-1][diff] = ids[1:][diff]
    keep = (pos >= 0) & (neg >= 0)
    a_ids, p_ids, n_ids = ids[keep], pos[keep], neg[keep]
    tid = np.arange(len(a_ids), dtype=np.int64)
    # membership lists per role, sorted by vec id for searchsorted
    roles = []
    for role, rid in enumerate((a_ids, p_ids, n_ids)):
        o = np.argsort(rid, kind="mergesort")
        roles.append((rid[o], tid[o]))
    ref = ray.put(roles)

    def tag(t: pa.Table) -> pa.Table:
        roles_ = ray.get(ref)
        vid = t.column("vec_id").to_numpy().astype(np.int64)
        arr = t.column("embedding").combine_chunks()
        flat = arr.flatten().to_numpy(zero_copy_only=False)
        dim = len(flat) // len(arr)
        vf = np.floor(flat.astype(np.float64) * 1000.0) \
            .astype(np.int64).reshape(-1, dim)
        out_tid, out_role, out_vec = [], [], []
        for role, (rid, rtid) in enumerate(roles_):
            pos_ = np.searchsorted(rid, vid)
            pos_ = np.minimum(pos_, max(len(rid) - 1, 0))
            hit = (len(rid) > 0) & (rid[pos_] == vid) \
                if len(rid) else np.zeros(len(vid), dtype=bool)
            for i in np.flatnonzero(hit):
                out_tid.append(int(rtid[pos_[i]]))
                out_role.append(role)
                out_vec.append(vf[i].tobytes())
        tids = np.array(out_tid, dtype=np.int64)
        return pa.table({
            "tid": pa.array(tids),
            "role": pa.array(np.array(out_role, dtype=np.int8)),
            "vec": pa.array(out_vec, type=pa.large_binary())})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        ok = tot = 0
        for _, grp in g.groupby("tid", sort=False):
            if len(grp) != 3:
                continue
            by_role = {int(r): np.frombuffer(v, dtype=np.int64)
                       for r, v in zip(grp["role"], grp["vec"])}
            if set(by_role) != {0, 1, 2}:
                continue
            dp = by_role[0] - by_role[1]
            dn = by_role[0] - by_role[2]
            tot += 1
            ok += int(int((dp * dp).sum()) < int((dn * dn).sum()))
        return pd.DataFrame({"tot": [tot], "ok": [ok]})

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    m = (bucket_map(ds.map_batches(tag, batch_format="pyarrow"),
                    "tid", fold).sum())
    tot, ok = int(m["tot"]), int(m["ok"])
    return pd.DataFrame([(tot, ok, 10_000 * ok // tot)],
                        columns=["n_triplets", "n_satisfied",
                                 "satisfied_bps"]).astype("int64")


def embedding_hubness_audit(sf_dir: str, k: int = 5,
                            stride: int = 4) -> pd.DataFrame:
    """HUBNESS audit of the kNN graph — the curse-of-dimensionality
    diagnostic an ANN deployment needs before trusting recall
    numbers: some vectors become "hubs" that appear in everyone's
    top-k while others are never retrieved. Every ``stride``-th
    vector queries the FULL corpus through the same broadcast
    brute-force kernel as ``knn_bruteforce`` (ann.py:96 — one
    matmul per block against the ray.put query matrix, identical
    (sim desc, id asc) tie rule), and the k-occurrence distribution
    reports as integer bands: never-retrieved count, 1-4, 5-9, 10+,
    plus the biggest hub (tie -> smallest id). ZERO extra shuffle on
    top of the scoring pass."""
    ids_all, _ = _load_queries(sf_dir, 10 ** 18)
    n_vectors = len(ids_all)
    tbl = pq.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    vids = tbl.column("vec_id").to_numpy().astype(np.int64)
    mat = list_col_to_matrix(tbl.column("embedding"))
    sel = vids % stride == 0
    qref = ray.put((vids[sel], normalize_rows(mat[sel])))
    local = _read_embeddings(sf_dir).map_batches(
        make_bruteforce_fn(qref, k), batch_format="pyarrow").to_pandas()
    top = _global_topk(local, k)
    occ = top.groupby("neighbor_id").size()
    n_queries = int(sel.sum())
    counts = occ.to_numpy(np.int64)
    n_zero = n_vectors - len(occ)
    n_low = int(((counts >= 1) & (counts <= 4)).sum())
    n_mid = int(((counts >= 5) & (counts <= 9)).sum())
    n_high = int((counts >= 10).sum())
    max_occ = int(counts.max()) if len(counts) else 0
    hub_vec = int(occ[occ == max_occ].index.min()) if len(occ) else -1
    return pd.DataFrame([(n_queries, n_vectors, k, n_zero, n_low,
                          n_mid, n_high, max_occ, hub_vec)],
                        columns=["n_queries", "n_vectors", "k",
                                 "n_zero_occ", "n_occ_1_4",
                                 "n_occ_5_9", "n_occ_10p", "max_occ",
                                 "hub_vec_id"]).astype("int64")


def embedding_knn_loo_accuracy(sf_dir: str, stride: int = 4) \
        -> pd.DataFrame:
    """1-NN LEAVE-ONE-OUT label accuracy — the oldest honest test of
    whether an embedding space separates its classes: every
    ``stride``-th vector queries the full corpus (self excluded)
    through the shared broadcast brute-force kernel, its single
    nearest neighbor under the exact (sim desc, id asc) tie rule
    votes a label, and accuracy reports in exact bps against the
    majority-class baseline (the lift a classifier must beat). Pure
    integer closing arithmetic; labels ride a driver-side dimension
    LUT, the scoring pass is the one documented matmul per block."""
    tbl = pq.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding", "label"])
    vids = tbl.column("vec_id").to_numpy().astype(np.int64)
    labels = tbl.column("label").to_numpy().astype(np.int64)
    lab = dense_lookup(vids, labels)
    mat = list_col_to_matrix(tbl.column("embedding"))
    sel = vids % stride == 0
    qref = ray.put((vids[sel], normalize_rows(mat[sel])))
    local = _read_embeddings(sf_dir).map_batches(
        make_bruteforce_fn(qref, 1), batch_format="pyarrow").to_pandas()
    top = _global_topk(local, 1)
    q_lab = lab[top["query_id"].to_numpy(np.int64)]
    n_lab = lab[top["neighbor_id"].to_numpy(np.int64)]
    n_q = len(top)
    correct = int((q_lab == n_lab).sum())
    u, c = np.unique(q_lab, return_counts=True)
    order = np.lexsort((u, -c))
    maj_label = int(u[order[0]])
    maj = int(c[order[0]])
    return pd.DataFrame([(n_q, correct, 10_000 * correct // n_q,
                          maj_label, 10_000 * maj // n_q)],
                        columns=["n_queries", "n_correct", "acc_bps",
                                 "majority_label",
                                 "majority_baseline_bps"]) \
        .astype("int64")


def embedding_knn_reciprocity(sf_dir: str, stride: int = 4,
                              k: int = 5) -> pd.DataFrame:
    """kNN-GRAPH RECIPROCITY — what share of directed nearest-neighbor
    edges are MUTUAL? The graph-quality number UMAP-style methods and
    hub-pruned ANN indexes key on (low reciprocity = hub pollution;
    see the companion ``embedding_hubness_audit``). Every
    ``stride``-th vector is both query and corpus; edges come from
    the shared broadcast brute-force kernel under the exact
    (sim desc, id asc) order, k per node; mutuality is one packed-key
    membership test on the driver's edge list (k*n rows — the
    k-bounded kNN graph, never the similarity matrix). Pure integer
    closing arithmetic."""
    tbl = pq.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    vids = tbl.column("vec_id").to_numpy().astype(np.int64)
    mat = list_col_to_matrix(tbl.column("embedding"))
    sel = vids % stride == 0
    qref = ray.put((vids[sel], normalize_rows(mat[sel])))

    def pick(t: pa.Table) -> pa.Table:
        v = t.column("vec_id").to_numpy().astype(np.int64)
        return t.filter(pa.array(v % stride == 0))

    local = (_read_embeddings(sf_dir)
             .map_batches(pick, batch_format="pyarrow")
             .map_batches(make_bruteforce_fn(qref, k),
                          batch_format="pyarrow").to_pandas())
    top = _global_topk(local, k)
    q = top["query_id"].to_numpy(np.int64)
    n = top["neighbor_id"].to_numpy(np.int64)
    fwd = q * (1 << 32) + n
    rev = n * (1 << 32) + q
    mutual = int(np.isin(fwd, rev).sum())
    n_edges = len(top)
    return pd.DataFrame([(int(sel.sum()), n_edges, mutual,
                          10000 * mutual // n_edges)],
                        columns=["n_nodes", "n_edges", "n_mutual",
                                 "recip_bps"]).astype("int64")


def embedding_knn_confusion(sf_dir: str, stride: int = 4) \
        -> pd.DataFrame:
    """1-NN CONFUSION MATRIX — the per-class detail behind
    ``embedding_knn_loo_accuracy``'s single number: every
    ``stride``-th vector's self-excluded nearest neighbor (the
    shared broadcast brute-force kernel, exact (sim desc, id asc)
    rule) votes, and the (true label, predicted label) grid shows
    WHICH classes bleed into which — the confusion structure that
    picks the next labeling budget. Row shares in exact bps. Pure
    integer closing arithmetic; labels ride the driver dimension
    LUT."""
    tbl = pq.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding", "label"])
    vids = tbl.column("vec_id").to_numpy().astype(np.int64)
    labels = tbl.column("label").to_numpy().astype(np.int64)
    lab = dense_lookup(vids, labels)
    mat = list_col_to_matrix(tbl.column("embedding"))
    sel = vids % stride == 0
    qref = ray.put((vids[sel], normalize_rows(mat[sel])))
    local = _read_embeddings(sf_dir).map_batches(
        make_bruteforce_fn(qref, 1), batch_format="pyarrow").to_pandas()
    top = _global_topk(local, 1)
    q_lab = lab[top["query_id"].to_numpy(np.int64)]
    n_lab = lab[top["neighbor_id"].to_numpy(np.int64)]
    df = pd.DataFrame({"t": q_lab, "p": n_lab})
    g = df.groupby(["t", "p"], as_index=False).size() \
        .rename(columns={"size": "n"})
    row_tot = g.groupby("t")["n"].sum().to_dict()
    g = g.sort_values(["t", "p"], kind="mergesort") \
        .reset_index(drop=True)
    g["row_bps"] = [10000 * int(r["n"]) // int(row_tot[r["t"]])
                    for _, r in g.iterrows()]
    return g.rename(columns={"t": "true_label",
                             "p": "pred_label"}).astype("int64")


def embedding_mmr_topk(sf_dir: str, k: int = 20, m_window: int = 256,
                       lam_milli: int = 700) -> pd.DataFrame:
    """Maximal-Marginal-Relevance retrieval (Carbonell & Goldstein 1998
    — public paper): the k results most relevant to the query vector
    (vec_id 0) while penalizing redundancy among themselves —
    diversity-aware retrieval, the dedup-at-query-time companion to the
    corpus-side near-dup ops. Spec (what the golden reimplements):
    candidates are the top ``m_window`` by query cosine (the rerank
    window every production reranker bounds itself to), then greedy
    selection by score = lam·sim_q − (1000−lam)·max_sim_to_selected,
    ALL in integer basis points (sims floored to bp first), ties by
    vec_id — so selection is integer-exact and order-free.

    Shape: one map_batches pass computes per-batch local top-M
    (same (−bp, id) order as the global merge, vectors carried along);
    the driver merges to the global M-window — M×d is all it ever
    holds — and runs the k-step greedy over an M×M bp matrix."""
    qids, qmat = _load_queries(sf_dir, 1)
    qref = ray.put(qmat[0])

    def local_top(t: pa.Table) -> pa.Table:
        q = ray.get(qref)
        ids = t.column("vec_id").to_numpy().astype(np.int64)
        m = normalize_rows(list_col_to_matrix(t.column("embedding")))
        bp = np.floor((m @ q) * 10000).astype(np.int64)
        cand = np.flatnonzero(ids != 0)           # exclude the query
        order = cand[np.lexsort((ids[cand], -bp[cand]))[:m_window]]
        sub = m[order]
        nvec = pa.FixedSizeListArray.from_arrays(
            pa.array(sub.reshape(-1)), sub.shape[1] if len(sub) else 1)
        return pa.table({"vec_id": pa.array(ids[order]),
                         "sim_bp": pa.array(bp[order]),
                         "nvec": nvec})

    local = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                  columns=["vec_id", "embedding"]) \
        .map_batches(local_top, batch_format="pyarrow").to_pandas()
    local = local.sort_values(["sim_bp", "vec_id"],
                              ascending=[False, True],
                              kind="mergesort").head(m_window)
    ids = local["vec_id"].to_numpy(np.int64)
    simq = local["sim_bp"].to_numpy(np.int64)
    V = np.asarray([np.asarray(v, dtype=np.float64)
                    for v in local["nvec"]])
    P = np.floor((V @ V.T) * 10000).astype(np.int64)

    lam, mu = lam_milli, 1000 - lam_milli
    avail = np.ones(len(ids), dtype=bool)
    maxsel = np.zeros(len(ids), dtype=np.int64)
    rows = []
    for rank in range(1, min(k, len(ids)) + 1):
        score = lam * simq - mu * maxsel
        cand = np.flatnonzero(avail)
        best = cand[np.lexsort((ids[cand], -score[cand]))[0]]
        rows.append((rank, int(ids[best]), int(simq[best]),
                     int(score[best])))
        avail[best] = False
        maxsel = np.maximum(maxsel, P[best])
    return pd.DataFrame(rows, columns=["rank", "vec_id", "sim_bp",
                                       "mmr_score"]) \
        .astype("int64")
