"""Corpus curation: the composed training-data pipeline (stats → quality
filter → near-dup removal → curated corpus). Each stage is one of the
already-tested operators; this module is the end-to-end composition a
100 TB text pipeline runs before tokenization.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Sum

from ..functions.hashing import int_keys_md5_u64
from ..functions.text import text_stats_batch
from .exchange import bucket_map, read
from .kernels import (
    pack_docs, run_starts, sampled_tokens, source_token_counts, tag_kept_docs,
    token_hash_counts)


def curate_docs(sf_dir: str, min_tokens: int = 10,
                max_punct: int = 40) -> pd.DataFrame:
    """Quality gate on integer text stats (SQL-checkable): keep documents
    with a sane token count and punctuation level. Returns the kept ids +
    the stats the decision used."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def gate(t: pa.Table) -> pa.Table:
        stats = text_stats_batch(t)
        keep = pc.and_(
            pc.greater_equal(stats.column("n_tokens"),
                             pa.scalar(min_tokens, type=pa.int64())),
            pc.less_equal(stats.column("n_punct"),
                          pa.scalar(max_punct, type=pa.int64())),
        )
        return stats.filter(keep).select(["doc_id", "n_tokens", "n_punct"])

    return ds.map_batches(gate, batch_format="pyarrow").to_pandas()


def curate_dedup(sf_dir: str, jaccard_tau: float = 0.5) -> pd.DataFrame:
    """Quality gate + MinHash-LSH near-dup removal keeping the smallest
    doc_id per group (rows-only: LSH grouping is not SQL-expressible)."""
    from .dedup import minhash_lsh_groups

    kept = set(curate_docs(sf_dir)["doc_id"])
    groups = minhash_lsh_groups(sf_dir, jaccard_tau=jaccard_tau)
    groups = groups[groups["doc_id"].isin(kept)]
    reps = groups.groupby("group_id", as_index=False)["doc_id"].min()
    out = reps.rename(columns={"doc_id": "keep_id"}).sort_values("keep_id")
    return out.reset_index(drop=True)


def curate_pack(sf_dir: str, budget: int = 2048,
                part_size: int = 256,
                jaccard_tau: float = 0.5) -> pd.DataFrame:
    """The full curation composition a training run consumes: quality
    gate → near-dup removal (group representatives) → sequence packing
    of the surviving docs. The survivor id set is dimension-sized
    relative to the corpus (it is one int per KEPT doc), so it
    broadcasts (``ray.put``) into a vectorized ``searchsorted``
    membership filter; packing then runs partition-local exactly like
    ``spans.pack_sequences``. Output: (doc_id, seq_id, seq_off,
    n_chars) for curated docs only."""
    keep = np.sort(curate_dedup(sf_dir, jaccard_tau=jaccard_tau)
                   ["keep_id"].to_numpy().astype(np.int64))
    keep_ref = ray.put(keep)

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "n_chars"])

    out = (ds.map_batches(functools.partial(tag_kept_docs,
                                            keep_ref=keep_ref,
                                            part_size=part_size),
                          batch_format="pyarrow")
           .groupby("block").map_groups(
               functools.partial(pack_docs, budget=budget),
               batch_format="pandas")
           .to_pandas())
    return out.astype({"seq_id": "int64", "seq_off": "int64",
                       "n_chars": "int64"})


def write_curated(sf_dir: str, out_dir: str, budget: int = 2048,
                  part_size: int = 256,
                  jaccard_tau: float = 0.5) -> pd.DataFrame:
    """Resumable partitioned output for the curation pipeline: each
    id-block writes its own ``block_NNNNNN.parquet`` atomically
    (tmp + rename) INSIDE the pack task, and blocks whose file already
    exists are skipped before any work runs — a failed run re-executes
    only the missing blocks (the batch analog of the crawl engine's
    idempotent per-pass fragment commits; never one giant file).
    Returns the manifest (block, n_docs, n_seqs, path, skipped)."""
    import os

    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    done = {f for f in os.listdir(out_dir) if f.endswith(".parquet")}
    done_ref = ray.put(done)

    keep = np.sort(curate_dedup(sf_dir, jaccard_tau=jaccard_tau)
                   ["keep_id"].to_numpy().astype(np.int64))
    keep_ref = ray.put(keep)
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text", "n_chars"])

    def pack_and_write(g: pd.DataFrame) -> pd.DataFrame:
        block = int(g["block"].iloc[0])
        fname = f"block_{block:06d}.parquet"
        path = os.path.join(out_dir, fname)
        if fname in ray.get(done_ref):
            return pd.DataFrame({"block": [block], "n_docs": [len(g)],
                                 "n_seqs": [-1], "path": [path],
                                 "skipped": [True]})
        g = g.sort_values("doc_id", kind="mergesort")
        n = g["n_chars"].to_numpy()
        seq = np.empty(len(n), dtype=np.int64)
        off = np.empty(len(n), dtype=np.int64)
        cur_seq, cur_off = 0, 0
        for i, ln in enumerate(n):
            if cur_off > 0 and cur_off + ln > budget:
                cur_seq += 1
                cur_off = 0
            seq[i] = cur_seq
            off[i] = cur_off
            cur_off += ln
        out = pa.table({
            "doc_id": pa.array(g["doc_id"].to_numpy()),
            "seq_id": pa.array((block << 20) + seq),
            "seq_off": pa.array(off),
            "text": pa.array(g["text"].tolist(), type=pa.string()),
        })
        tmp = path + ".tmp"
        pq.write_table(out, tmp)
        os.replace(tmp, path)
        return pd.DataFrame({"block": [block], "n_docs": [len(g)],
                             "n_seqs": [int(seq[-1]) + 1], "path": [path],
                             "skipped": [False]})

    manifest = (ds.map_batches(functools.partial(tag_kept_docs,
                                                 keep_ref=keep_ref,
                                                 part_size=part_size),
                               batch_format="pyarrow")
                .groupby("block").map_groups(pack_and_write,
                                             batch_format="pandas")
                .to_pandas())
    return manifest.sort_values("block").reset_index(drop=True)


def decontaminate_docs(sf_dir: str, k: int = 3,
                       benchmark_max_id: int = 20) -> pd.DataFrame:
    """Benchmark decontamination: flag training documents that share any
    k-token window with a benchmark/eval set, so they can be dropped
    before training. The benchmark side is eval-set-sized (tiny next to
    the corpus), so its window-hash set broadcasts once (``ray.put``)
    and each batch checks membership with one sorted ``np.searchsorted``
    — no shuffle at all; the corpus streams through a single map stage.
    Here the 'benchmark' is the docs with ``doc_id < benchmark_max_id``
    (stand-in for an external eval file). Benchmark docs themselves are
    excluded from the output. Output: (doc_id, n_windows,
    n_contaminated) for every non-benchmark doc with >= 1 window."""
    from ..functions.hashing import hash64_many

    import pyarrow.parquet as pq

    bench = pq.read_table(f"{sf_dir}/documents.parquet",
                          columns=["doc_id", "text"],
                          filters=[("doc_id", "<", benchmark_max_id)])
    bw = set()
    for text in bench.column("text").to_pylist():
        toks = text.split()
        wins = [" ".join(toks[i:i + k]) for i in range(len(toks) - k + 1)]
        if wins:
            bw.update(hash64_many(wins).tolist())
    bench_hashes = np.sort(np.fromiter(bw, dtype=np.uint64, count=len(bw)))
    bench_ref = ray.put(bench_hashes)

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def score(t: pa.Table) -> pa.Table:
        bh = ray.get(bench_ref)
        ids, n_w, n_c = [], [], []
        for doc_id, text in zip(t.column("doc_id").to_pylist(),
                                t.column("text").to_pylist()):
            if doc_id < benchmark_max_id:
                continue
            toks = text.split()
            wins = [" ".join(toks[i:i + k])
                    for i in range(len(toks) - k + 1)]
            if not wins:
                continue
            hv = hash64_many(wins)
            pos = np.clip(np.searchsorted(bh, hv), 0, max(0, len(bh) - 1))
            hits = int(((len(bh) > 0) & (bh[pos] == hv)).sum())
            ids.append(doc_id)
            n_w.append(len(wins))
            n_c.append(hits)
        import numpy as _np
        return pa.table({
            "doc_id": pa.array(_np.array(ids, dtype=_np.int64)),
            "n_windows": pa.array(_np.array(n_w, dtype=_np.int64)),
            "n_contaminated": pa.array(_np.array(n_c, dtype=_np.int64)),
        })

    return ds.map_batches(score, batch_format="pyarrow").to_pandas()


def docs_split_assign(sf_dir: str, train_pct: int = 90,
                      valid_pct: int = 5) -> pd.DataFrame:
    """Deterministic stratified train/valid/test split — the assignment
    every training run needs to be REPRODUCIBLE and shard-local: split =
    md5(doc_id) mod 100 against fixed thresholds, so any worker can
    recompute any document's split with no coordination, re-runs are
    stable, and adding documents never reassigns existing ones (the
    property a random split lacks). Pure map + per-block pre-aggregated
    partials folded on the driver (the (lang × split) result is
    constant-sized — no shuffle). Output: per (lang, split) doc and char
    counts, the sanity report a split job emits."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "lang", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy().astype(np.int64)
        h = int_keys_md5_u64(ids) >> np.uint64(4)
        r = (h % np.uint64(100)).astype(np.int64)
        split = np.where(r < train_pct, "train",
                         np.where(r < train_pct + valid_pct,
                                  "valid", "test"))
        df = pd.DataFrame({"lang": t.column("lang").to_pandas(),
                           "split": split,
                           "n_chars": t.column("n_chars").to_numpy()})
        g = df.groupby(["lang", "split"], as_index=False).agg(
            n_docs=("n_chars", "size"), sum_chars=("n_chars", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = (parts.groupby(["lang", "split"], as_index=False)
           .agg(n_docs=("n_docs", "sum"), sum_chars=("sum_chars", "sum"))
           .sort_values(["lang", "split"], kind="mergesort")
           .reset_index(drop=True))
    return out.astype({"n_docs": "int64", "sum_chars": "int64"})


def docs_mixture_sample(sf_dir: str, budget_chars: int = 4000) -> pd.DataFrame:
    """Domain-mixture sampling under a per-source token budget — the
    data-mixing step of corpus assembly: within each source, documents
    are taken in deterministic md5-rank order (a reproducible uniform
    shuffle that needs no RNG state) until the source's char budget is
    filled; a document is kept iff it fits entirely. One shuffle
    (bucket by source), then a vectorized per-source sort + prefix-sum.
    Sources are dimension-sized here; a source too big for one group
    would run the same prefix-sum as two linear passes (per-block
    partial sums → broadcast block offsets), never a global sort.
    Output per source: docs/chars kept vs available."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "source", "n_chars"])

    def tag(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy().astype(np.int64)
        h = (int_keys_md5_u64(ids) >> np.uint64(4)).astype(np.int64)
        return pa.table({"source": t.column("source"),
                         "doc_id": t.column("doc_id"),
                         "n_chars": t.column("n_chars"),
                         "hkey": pa.array(h)})

    def pick(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["source", "hkey", "doc_id"], kind="mergesort")
        nc = g["n_chars"].to_numpy(np.int64)
        # per-source running total (groupby.cumsum is C-level)
        run = g.groupby("source")["n_chars"].cumsum().to_numpy(np.int64)
        keep = run <= budget_chars
        out = pd.DataFrame({"source": g["source"].to_numpy(),
                            "keep": keep, "n_chars": nc,
                            "kc": np.where(keep, nc, 0)})
        agg = out.groupby("source", as_index=False).agg(
            n_docs_kept=("keep", "sum"),
            chars_kept=("kc", "sum"),
            n_docs_total=("keep", "size"),
            chars_total=("n_chars", "sum"))
        agg["n_docs_kept"] = agg["n_docs_kept"].astype(np.int64)
        return pa.Table.from_pandas(agg, preserve_index=False)

    out = (ds.map_batches(tag, batch_format="pyarrow")
           .groupby("source").map_groups(pick, batch_format="pandas")
           .to_pandas())
    return (out.sort_values("source", kind="mergesort")
            .reset_index(drop=True)
            .astype({"n_docs_kept": "int64", "chars_kept": "int64",
                     "n_docs_total": "int64", "chars_total": "int64"}))


def docs_chunk_windows(sf_dir: str, window: int = 120,
                       stride: int = 80) -> pd.DataFrame:
    """Overlapping fixed-size character windows per document (the RAG /
    context-window chunking primitive): starts 1, 1+stride, … while
    start ≤ n_chars; each chunk keeps its 1-based start, actual length
    (the tail chunk is shorter) and content md5 for downstream
    chunk-level dedup. Pure map — NO shuffle, no state: the operator
    streams block-by-block at any scale, and output is naturally
    partitioned by the input's doc ranges. Chunk starts are computed
    vectorized (np.arange per repeat-expanded doc index); the md5 per
    chunk is hashlib's C loop, same per-row-digest pattern as
    ``docs_mixture_sample``. Text here is ASCII so Python slicing and
    the SQL twin's character ``substring`` agree; non-ASCII corpora
    would pin both sides to code-point semantics (documented)."""
    import hashlib

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def chunk(t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pylist()
        did = t.column("doc_id").to_numpy().astype(np.int64)
        nch = np.array([len(s) for s in texts], dtype=np.int64)
        n_chunks = (nch - 1) // stride + 1          # starts 0..<nch step S
        doc_idx = np.repeat(np.arange(len(texts)), n_chunks)
        offs = np.concatenate(([0], np.cumsum(n_chunks)))[:-1]
        st = (np.arange(len(doc_idx)) - offs[doc_idx]) * stride
        chunks = [texts[d][s:s + window]
                  for d, s in zip(doc_idx.tolist(), st.tolist())]
        return pa.table({
            "doc_id": pa.array(did[doc_idx]),
            "chunk_idx": pa.array(st // stride),
            "start": pa.array(st + 1),
            "chunk_len": pa.array(
                np.minimum(nch[doc_idx] - st, window)),
            "chunk_md5": pa.array(
                [hashlib.md5(c.encode()).hexdigest() for c in chunks])})

    out = ds.map_batches(chunk, batch_format="pyarrow").to_pandas()
    return (out.sort_values(["doc_id", "start"], kind="mergesort")
            .reset_index(drop=True)
            .astype({"doc_id": "int64", "chunk_idx": "int64",
                     "start": "int64", "chunk_len": "int64"}))


def source_vocab_overlap(sf_dir: str) -> pd.DataFrame:
    """Vocabulary overlap matrix between document sources (the
    corpus-comparison table behind mixture design): for each ordered
    source pair (a ≤ b), how many distinct space-separated tokens
    appear in BOTH sources. Each block collapses to distinct
    (source, token) pairs; ONE ``groupby(token_hash % B)`` exchange
    folds each token's SOURCES into a bitmask over the (small,
    broadcast) global source list, and buckets emit mask counts —
    the pair expansion runs over 2^|sources| observed masks, never
    over tokens or documents (same popcount-combinatorics shape as
    ``event_type_overlap``). Empty tokens are dropped on both sides."""
    import hashlib


    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["source", "text"])
    srcs = sorted(
        ds.groupby("source").count().to_pandas()["source"].tolist())
    code = {s: i for i, s in enumerate(srcs)}

    def derive(t: pa.Table) -> pa.Table:
        pairs = set()
        for src, text in zip(t.column("source").to_pylist(),
                             t.column("text").to_pylist()):
            for tok in text.split(" "):
                if tok:
                    pairs.add((src, tok))
        toks, codes_l = [], []
        for src, tok in pairs:
            toks.append(tok)
            codes_l.append(code[src])
        return pa.table({
            "tok": pa.array(toks, type=pa.string()),
            "src_code": pa.array(np.array(codes_l, dtype=np.int64))})

    def tok_md5(t: pa.Table) -> np.ndarray:
        return np.array([int.from_bytes(
            hashlib.md5(tok.encode()).digest()[:8], "little")
            for tok in t.column("tok").to_pylist()], dtype=np.uint64)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        toks, inv = np.unique(g["tok"].to_numpy(), return_inverse=True)
        masks = np.zeros(len(toks), dtype=np.int64)
        np.bitwise_or.at(masks, inv,
                         np.int64(1) << g["src_code"].to_numpy(np.int64))
        mv, mc = np.unique(masks, return_counts=True)
        rows = []
        for m, cnt in zip(mv, mc):               # ≤2^|sources| masks
            present = [i for i in range(len(srcs)) if m >> i & 1]
            for i in present:
                for j in present:
                    if i <= j:
                        rows.append((srcs[i], srcs[j], int(cnt)))
        return pd.DataFrame(rows, columns=["src_a", "src_b", "n_common"])

    parts = bucket_map(ds.map_batches(derive, batch_format="pyarrow"),
                       tok_md5, fold)
    out = parts.groupby(["src_a", "src_b"], as_index=False)["n_common"] \
        .sum()
    return (out.sort_values(["src_a", "src_b"], kind="mergesort")
            .reset_index(drop=True).astype({"n_common": "int64"}))


def source_mixture_weights(sf_dir: str) -> pd.DataFrame:
    """Training-mixture planner: per source, its document/token counts,
    its share of the corpus, and the repeat factor (in exact basis
    points) that would equalize token contributions across sources —
    the table a data-mixing stage reads to upsample rare sources
    toward a uniform target. One streaming pass (token counts are one
    vectorized RE2 scan per block; partials are |sources|-sized), no
    shuffle. weight_bps = total_tokens·10⁴ // (n_sources·tokens_s).
    SQL twin: regexp token counts + share arithmetic."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["source", "text"])
    from ..functions.text import token_counts

    def partial(t: pa.Table) -> pa.Table:
        nt = token_counts(t.column("text"))
        df = pd.DataFrame({
            "source": t.column("source").to_pandas(),
            "n_tokens": nt.to_numpy(zero_copy_only=False)
            .astype(np.int64)})
        g = (df.groupby("source", as_index=False)
             .agg(n_docs=("n_tokens", "size"),
                  n_tokens=("n_tokens", "sum")))
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (ds.map_batches(partial, batch_format="pyarrow").to_pandas()
           .groupby("source", as_index=False)
           .agg(n_docs=("n_docs", "sum"), n_tokens=("n_tokens", "sum")))
    total = int(agg["n_tokens"].sum())
    k = len(agg)
    toks = agg["n_tokens"].to_numpy(np.int64)
    return (pd.DataFrame({
        "source": agg["source"],
        "n_docs": agg["n_docs"].to_numpy(np.int64),
        "n_tokens": toks,
        "share_bps": toks * 10000 // total,
        "weight_bps": total * 10000 // (k * toks)})
        .sort_values("source", kind="mergesort")
        .reset_index(drop=True)
        .astype({"n_docs": "int64", "n_tokens": "int64",
                 "share_bps": "int64", "weight_bps": "int64"}))


def docs_kfold_assign(sf_dir: str, k: int = 5) -> pd.DataFrame:
    """Deterministic stratified K-FOLD cross-validation assignment:
    within each language stratum, documents are ranked by
    ``(hash64(doc_id), doc_id)`` and dealt round-robin into k folds —
    EXACTLY balanced per stratum (fold sizes differ by ≤ 1, the property
    the threshold split ``docs_split_assign`` deliberately trades away
    for append-stability; this op is the complement for fixed-corpus
    eval). One groupby(lang) exchange (strata are few; at 100-TB a hot
    stratum would pre-rank via distributed sort and deal by global
    rank); output is the (lang × fold) audit: counts + id/char
    checksums, which pin every assignment because the rank order is a
    pure function of the ids."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "lang", "n_chars"])

    def derive(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy().astype(np.int64)
        h = int_keys_md5_u64(ids)
        return pa.table({"doc_id": pa.array(ids),
                         "lang": t.column("lang"),
                         "n_chars": t.column("n_chars"),
                         "h": pa.array(h.astype(np.int64))})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["doc_id"].to_numpy(np.int64)
        h = g["h"].to_numpy(np.int64).view(np.uint64)
        nch = g["n_chars"].to_numpy(np.int64)
        order = np.lexsort((ids, h))
        f = np.empty(len(ids), dtype=np.int64)
        f[order] = np.arange(len(ids), dtype=np.int64) % k
        out = pd.DataFrame({
            "lang": g["lang"].iloc[0], "fold": np.arange(k),
            "n_docs": np.bincount(f, minlength=k).astype(np.int64),
            "sum_doc_id": np.bincount(f, weights=ids, minlength=k)
            .astype(np.int64),
            "sum_chars": np.bincount(f, weights=nch, minlength=k)
            .astype(np.int64)})
        return out[out["n_docs"] > 0]  # tiny stratum: SQL emits no row

    out = (ds.map_batches(derive, batch_format="pyarrow")
           .groupby("lang").map_groups(fold, batch_format="pandas")
           .to_pandas()
           .sort_values(["lang", "fold"], kind="mergesort")
           .reset_index(drop=True))
    return out.astype({"fold": "int64", "n_docs": "int64",
                       "sum_doc_id": "int64", "sum_chars": "int64"})


def docs_boilerplate_prefix(sf_dir: str, prefix_len: int = 60,
                            topk: int = 20) -> pd.DataFrame:
    """Boilerplate/template detection: groups of documents that share
    the same first ``prefix_len`` characters — the cheap tripwire for
    scraped template farms and mirrored headers that full-text exact
    dedup misses (bodies differ, intros don't). One prefix-hash bucket
    exchange co-locates each prefix group, the fold aggregates
    (count, min_id, id-checksum) per prefix STRING (hash only routes —
    group identity is the exact prefix, so hash collisions cannot merge
    groups), and the driver ranks the n>1 groups under the
    deterministic (size desc, min_id asc) order. What flows is one row
    per distinct prefix per block — boilerplate-group-sized, not
    corpus-sized."""
    from ..functions.hashing import hash64_many

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def derive(t: pa.Table) -> pa.Table:
        pre = pc.utf8_slice_codeunits(t.column("text"), 0, prefix_len)
        return pa.table({"doc_id": t.column("doc_id"), "pre": pre})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("pre", sort=False).agg(
            n=("doc_id", "size"), mid=("doc_id", "min"),
            sid=("doc_id", "sum"))
        agg = agg[agg["n"] > 1]
        return pd.DataFrame({
            "n_docs": agg["n"].to_numpy(np.int64),
            "min_doc_id": agg["mid"].to_numpy(np.int64),
            "sum_doc_id": agg["sid"].to_numpy(np.int64)})

    parts = bucket_map(ds.map_batches(derive, batch_format="pyarrow"),
                       lambda t: hash64_many(t.column("pre").to_pylist()),
                       fold)
    order = np.lexsort((parts["min_doc_id"].to_numpy(np.int64),
                        -parts["n_docs"].to_numpy(np.int64)))[:topk]
    out = parts.iloc[order].reset_index(drop=True)
    out.insert(0, "rk", np.arange(1, len(out) + 1, dtype=np.int64))
    return out.astype("int64")


def docs_source_simpson(sf_dir: str) -> pd.DataFrame:
    """Corpus-diversity audit: SIMPSON'S INDEX of source concentration
    per language, ``λ = Σ nᵢ(nᵢ−1) / (N(N−1))`` in exact parts-per-
    million — the probability two random docs of a language share a
    source (1e6 = monoculture; the training-mixture red flag). Per-
    block (lang, source, n) unique partials — ZERO shuffle, the driver
    fold is (langs × sources)-sized at any corpus size."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["lang", "source"])

    def partial(t: pa.Table) -> pa.Table:
        lang = np.asarray(t.column("lang")).astype(object)
        src = np.asarray(t.column("source")).astype(object)
        lc, l_uniq = pd.factorize(lang)
        sc, s_uniq = pd.factorize(src)
        pack = lc.astype(np.int64) * len(s_uniq) + sc
        u, c = np.unique(pack, return_counts=True)
        return pa.table({
            "lang": pa.array(l_uniq.take(u // len(s_uniq)).astype(str),
                             type=pa.string()),
            "source": pa.array(s_uniq.take(u % len(s_uniq)).astype(str),
                               type=pa.string()),
            "n": pa.array(c.astype(np.int64))})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    agg = parts.groupby(["lang", "source"], as_index=False)["n"].sum()
    out = []
    for lang, grp in agg.groupby("lang"):
        ns = grp["n"].to_numpy(np.int64)
        N = int(ns.sum())
        num = int((ns * (ns - 1)).sum())
        out.append((str(lang), len(ns), N,
                    10**6 * num // (N * (N - 1))))
    out.sort()
    return pd.DataFrame(out, columns=["lang", "n_sources", "n_docs",
                                      "simpson_ppm"]) \
        .astype({"n_sources": "int64", "n_docs": "int64",
                 "simpson_ppm": "int64"})


def docs_punct_profile(sf_dir: str) -> pd.DataFrame:
    """Punctuation profile per language — sentence-terminator runs
    (``[.!?]+`` matches, the cheap sentence-count proxy), exclamation
    and question marks, and their per-kilochar densities — the text-
    quality signal set that feeds heuristic filters. Counting runs on
    RE2 on BOTH sides (pyarrow ``count_substring_regex`` here,
    ``regexp_extract_all`` in the twin) so the regex semantics match
    exactly; densities are integer permille. Per-block partials are
    one row per language — ZERO shuffle."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["lang", "text"])

    def partial(t: pa.Table) -> pa.Table:
        lang = np.asarray(t.column("lang")).astype(object)
        txt = t.column("text")
        runs = pc.count_substring_regex(txt, r"[.!?]+") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        excl = pc.count_substring(txt, "!") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        ques = pc.count_substring(txt, "?") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        chars = pc.utf8_length(txt) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        langs, o = [], []
        for lg in np.unique(lang.astype(str)):
            m = lang == lg
            langs.append(str(lg))
            o.append((int(m.sum()), int(chars[m].sum()),
                      int(runs[m].sum()), int(excl[m].sum()),
                      int(ques[m].sum())))
        arr = np.array(o, dtype=np.int64).reshape(len(langs), 5)
        return pa.table({
            "lang": pa.array(langs, type=pa.string()),
            "n_docs": pa.array(arr[:, 0]),
            "n_chars": pa.array(arr[:, 1]),
            "sent_runs": pa.array(arr[:, 2]),
            "n_exclaim": pa.array(arr[:, 3]),
            "n_question": pa.array(arr[:, 4])})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    agg = (parts.groupby("lang", as_index=False).sum()
           .sort_values("lang", kind="mergesort").reset_index(drop=True))
    ch = agg["n_chars"].to_numpy(np.int64)
    agg["exclaim_permille"] = 1000 * agg["n_exclaim"].to_numpy(
        np.int64) // ch
    agg["question_permille"] = 1000 * agg["n_question"].to_numpy(
        np.int64) // ch
    return agg.astype({c: "int64" for c in agg.columns if c != "lang"})


def docs_token_len_profile(sf_dir: str, cap: int = 20) -> pd.DataFrame:
    """TOKEN-LENGTH distribution per language (capped tail) — the
    tokenizer-sizing profile ('how long are words here, how much will
    BPE fragment'). Whitespace splitting runs on RE2 on BOTH sides
    (pyarrow ``split_pattern_regex`` vs ``regexp_split_to_array``) and
    edge empties are filtered identically; per-block partials are
    (langs × cap) count rows — ZERO shuffle."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["lang", "text"])

    def partial(t: pa.Table) -> pa.Table:
        lang = np.asarray(t.column("lang")).astype(object)
        toks = pc.split_pattern_regex(t.column("text"), r"\s+") \
            .combine_chunks()
        counts = np.asarray(toks.value_lengths(), dtype=np.int64)
        lens = pc.utf8_length(toks.flatten()) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        lg = np.repeat(lang, counts)
        keep = lens > 0
        lg, lens = lg[keep], np.minimum(lens[keep], cap)
        code, uniq = pd.factorize(lg)
        pack = code.astype(np.int64) * (cap + 1) + lens
        u, c = np.unique(pack, return_counts=True)
        return pa.table({
            "lang": pa.array(uniq.take(u // (cap + 1)).astype(str),
                             type=pa.string()),
            "tok_len": pa.array(u % (cap + 1)),
            "n_tokens": pa.array(c.astype(np.int64))})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return (parts.groupby(["lang", "tok_len"], as_index=False)
            ["n_tokens"].sum()
            .sort_values(["lang", "tok_len"], kind="mergesort")
            .reset_index(drop=True)
            .astype({"tok_len": "int64", "n_tokens": "int64"}))


def source_yield_funnel(sf_dir: str, min_tokens: int = 10,
                        max_punct: int = 40) -> pd.DataFrame:
    """Curation YIELD funnel per source: raw docs → docs passing the
    quality gate (the same token/punct rule as ``curate_docs``) →
    yield in bps — the per-provider acceptance report a data-sourcing
    team negotiates with. RE2 counts on both sides; per-block partials
    are one row per source — ZERO shuffle."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["source", "text"])

    def partial(t: pa.Table) -> pa.Table:
        src = np.asarray(t.column("source")).astype(object)
        toks = pc.count_substring_regex(t.column("text"), r"\S+") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        punct = pc.count_substring_regex(t.column("text"),
                                         r"[.!?,;:]") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        ok = ((toks >= min_tokens) & (punct <= max_punct)) \
            .astype(np.int64)
        code, uniq = pd.factorize(src)
        k = len(uniq)
        return pa.table({
            "source": pa.array(uniq.astype(str), type=pa.string()),
            "n_raw": pa.array(np.bincount(code, minlength=k)
                              .astype(np.int64)),
            "n_pass": pa.array(np.bincount(code, weights=ok,
                                           minlength=k)
                               .astype(np.int64))})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    agg = (parts.groupby("source", as_index=False).sum()
           .sort_values("source", kind="mergesort")
           .reset_index(drop=True))
    agg["yield_bps"] = 10_000 * agg["n_pass"].to_numpy(np.int64) \
        // agg["n_raw"].to_numpy(np.int64)
    return agg.astype({"n_raw": "int64", "n_pass": "int64",
                       "yield_bps": "int64"})


def source_hapax_ratio(sf_dir: str) -> pd.DataFrame:
    """Vocabulary-richness audit per source: the HAPAX ratio (share of
    the source's distinct tokens occurring exactly once, bps) — high
    hapax = diverse/natural text, low = templated boilerplate; the
    per-provider twin of ``trigram_spectrum``'s global curve. Tokens
    are md5-hashed before the ONE (source, hash)-routed exchange
    (strings never shuffle); per-bucket partials are one row per
    source."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["source", "text"])

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        # two-key C-level groupby (packing source×hash into one int64
        # would overflow: the hash already spans the full 64 bits)
        tot = g.groupby(["source", "h"], as_index=False)["n"].sum()
        out = tot.groupby("source", as_index=False).agg(
            nd=("n", "size"))
        out["nh"] = tot.assign(one=(tot["n"] == 1).astype(np.int64)) \
            .groupby("source")["one"].sum().to_numpy(np.int64)
        return out

    parts = bucket_map(ds.map_batches(source_token_counts,
                                      batch_format="pyarrow"),
                       "h", fold)
    agg = (parts.groupby("source", as_index=False).sum()
           .sort_values("source", kind="mergesort")
           .reset_index(drop=True))
    agg["hapax_bps"] = 10_000 * agg["nh"].to_numpy(np.int64) \
        // agg["nd"].to_numpy(np.int64)
    return agg.rename(columns={"nd": "n_distinct_tokens",
                               "nh": "n_hapax"}) \
        .astype({"n_distinct_tokens": "int64", "n_hapax": "int64",
                 "hapax_bps": "int64"})


def line_dedup_rate(sf_dir: str) -> pd.DataFrame:
    """C4-STYLE sub-document dedup audit: split every document into
    sentence-ish lines (``[.!?]+`` terminators, RE2 both sides), hash
    each trimmed non-empty line and measure how much of the corpus is
    REPEATED lines — the number that decides whether line-level dedup
    (the C4 cleanup) is worth a pass. Per-block (hash, n) partials →
    ONE ``hash % 64`` exchange (strings never shuffle); the fold emits
    instance/distinct/singleton counters, so the driver sees six ints
    per bucket."""
    from ..functions.hashing import hash64_many

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["text"])

    def derive(t: pa.Table) -> pa.Table:
        parts_ = pc.split_pattern_regex(t.column("text"), r"[.!?]+") \
            .combine_chunks()
        flat = pc.utf8_trim_whitespace(parts_.flatten())
        keep = pc.utf8_length(flat).to_numpy(zero_copy_only=False) > 0
        lines = np.asarray(flat).astype(object)[keep]
        if not len(lines):
            return pa.table({"h": pa.array([], type=pa.int64()),
                             "n": pa.array([], type=pa.int64())})
        h, c = np.unique(hash64_many(lines).astype(np.int64),
                         return_counts=True)
        return pa.table({"h": pa.array(h),
                         "n": pa.array(c.astype(np.int64))})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        h = g["h"].to_numpy(np.int64)
        n = g["n"].to_numpy(np.int64)
        _, inv = np.unique(h, return_inverse=True)
        tot = np.bincount(inv, weights=n).astype(np.int64)
        return pd.DataFrame({
            "inst": [int(tot.sum())], "dist": [len(tot)],
            "dup_inst": [int(tot[tot > 1].sum())]})

    m = (bucket_map(ds.map_batches(derive, batch_format="pyarrow"),
                    "h", fold).sum())
    inst, dist, dup = int(m["inst"]), int(m["dist"]), int(m["dup_inst"])
    return pd.DataFrame(
        [(inst, dist, dup, 10_000 * dup // inst,
          10_000 * (inst - dist) // inst)],
        columns=["n_lines", "n_distinct", "n_in_dup_groups",
                 "dup_group_share_bps", "removable_share_bps"]) \
        .astype("int64")


def vocab_growth_curve(sf_dir: str) -> pd.DataFrame:
    """HEAPS-LAW vocabulary growth: how many DISTINCT tokens the corpus
    has accumulated after 10%, 20%, …, 100% of the documents (in doc_id
    order) — the curve that tells a tokenizer team whether more data
    still buys new vocabulary. Tokens are whitespace runs (``str
    .split()``, the ``\\S+`` twin) identified by md5-64 like every
    hashing op here. Per batch: tokenize + per-token min doc_id partial;
    ONE ``hash % 64`` exchange folds the global min doc_id per token
    (strings never shuffle); each bucket then bins its tokens by the
    first checkpoint that includes them (searchsorted against the 10
    broadcast thresholds), so the driver sums 10 counters per bucket.
    Checkpoint thresholds come from the sorted doc_id list (document
    table is dimension-sized here; at 100 TB this becomes the
    distributed NTILE rank already implemented in ``events_ntile``)."""
    from ..functions.hashing import hash64_many

    ids = np.sort(ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"])
        .to_pandas()["doc_id"].to_numpy(np.int64))
    n = len(ids)
    cnts = np.array([(k * n) // 10 for k in range(1, 11)], np.int64)
    thr = ids[cnts - 1]

    ds = read(sf_dir, "documents", columns=["doc_id", "text"],
              rows_per_block=2048)

    def derive(t: pa.Table) -> pa.Table:
        did = t.column("doc_id").to_numpy()
        texts = t.column("text").to_pylist()
        toks, docs = [], []
        for i, s in enumerate(texts):
            w = s.split()
            toks.extend(w)
            docs.append(len(w))
        if not toks:
            return pa.table({"h": pa.array([], type=pa.int64()),
                             "mn": pa.array([], type=pa.int64())})
        doc_of = np.repeat(did, docs)
        h = hash64_many(np.array(toks, dtype=object)).astype(np.int64)
        order = np.lexsort((doc_of, h))
        h, doc_of = h[order], doc_of[order]
        brk = run_starts(h)
        return pa.table({
            "h": pa.array(h[brk]), "mn": pa.array(doc_of[brk])})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        h = g["h"].to_numpy(np.int64)
        mn = g["mn"].to_numpy(np.int64)
        order = np.lexsort((mn, h))
        h, mn = h[order], mn[order]
        brk = run_starts(h)
        first_bin = np.searchsorted(thr, mn[brk], side="left")
        return pd.DataFrame({
            "ck": np.arange(1, 11, dtype=np.int64),
            "v": np.bincount(first_bin, minlength=10)
            .astype(np.int64)})

    per = (bucket_map(ds.map_batches(derive, batch_format="pyarrow"),
                      "h", fold).groupby("ck", as_index=False).sum()
           .sort_values("ck"))
    vocab = np.cumsum(per["v"].to_numpy(np.int64))
    new = np.diff(np.concatenate(([0], vocab)))
    return pd.DataFrame({
        "checkpoint": np.arange(1, 11, dtype=np.int64),
        "n_docs": cnts, "vocab": vocab.astype(np.int64),
        "new_tokens": new.astype(np.int64)}).astype("int64")


def docs_readability(sf_dir: str) -> pd.DataFrame:
    """READABILITY profile per language: average sentence length in
    tokens and average token length in characters (milli-unit integer
    ratios) — the two numbers behind every Flesch-style readability
    screen a corpus-quality gate applies before training. Sentences
    are the ``[.!?]+``-terminated, whitespace-trimmed non-empty spans
    (same split the C4-style ``line_dedup_rate`` uses); tokens are
    whitespace runs. Per-batch counters grouped by lang (a handful of
    groups at any scale) → one tiny grouped sum; ratios on the
    driver."""

    ds = read(sf_dir, "documents", columns=["lang", "text"],
              rows_per_block=2048)

    import re

    sent_re = re.compile(r"[.!?]+")

    def partial(t: pa.Table) -> pa.Table:
        lang = np.asarray(t.column("lang"), dtype=object)
        texts = t.column("text").to_pylist()
        per_doc = np.array(
            [sum(1 for x in sent_re.split(s) if x.strip())
             for s in texts], np.int64)
        toks = np.array([len(s.split()) for s in texts], np.int64)
        tchars = np.array([sum(len(w) for w in s.split())
                           for s in texts], np.int64)
        ul, inv = np.unique(lang, return_inverse=True)
        return pa.table({
            "lang": pa.array(list(ul), type=pa.string()),
            "n_docs": pa.array(np.bincount(inv).astype(np.int64)),
            "n_sents": pa.array(np.bincount(inv, weights=per_doc)
                                .astype(np.int64)),
            "n_tokens": pa.array(np.bincount(inv, weights=toks)
                                 .astype(np.int64)),
            "n_token_chars": pa.array(np.bincount(inv, weights=tchars)
                                      .astype(np.int64))})

    g = (ds.map_batches(partial, batch_format="pyarrow")
         .groupby("lang")
         .aggregate(Sum("n_docs", alias_name="n_docs"),
                    Sum("n_sents", alias_name="n_sents"),
                    Sum("n_tokens", alias_name="n_tokens"),
                    Sum("n_token_chars", alias_name="n_token_chars"))
         .to_pandas().sort_values("lang").reset_index(drop=True))
    g["tokens_per_sent_milli"] = \
        (1000 * g["n_tokens"]) // g["n_sents"]
    g["chars_per_token_milli"] = \
        (1000 * g["n_token_chars"]) // g["n_tokens"]
    return g.astype({c: "int64" for c in g.columns if c != "lang"})


def boilerplate_overlap_matrix(sf_dir: str,
                               prefix_len: int = 40) -> pd.DataFrame:
    """CROSS-SOURCE boilerplate overlap: which source pairs share the
    same 40-char document prefixes (the planted-template signal a
    boilerplate stripper keys on) — shared-prefix count and prefix
    Jaccard per source pair. Per batch: distinct (md5-64 prefix hash,
    source-bit) pairs with a segment OR; ONE ``hash % 64`` exchange
    folds the global per-prefix source BITMASK (20 sources → one
    int64; prefixes never shuffle as strings); each bucket emits
    (mask, count) partials, so the driver expands only mask-cardinality
    rows (≤ 2^n_sources, realistically thousands at any scale) into
    the pair matrix."""
    from ..functions.hashing import hash64_many

    ds = read(sf_dir, "documents", columns=["source", "text"],
              rows_per_block=2048)

    def derive(t: pa.Table) -> pa.Table:
        src = np.asarray(t.column("source"), dtype=object)
        texts = t.column("text").to_pylist()
        h = hash64_many(
            np.array([s[:prefix_len] for s in texts], dtype=object)) \
            .astype(np.int64)
        bit = np.int64(1) << np.array([int(s[3:]) for s in src],
                                      np.int64)
        order = np.argsort(h, kind="mergesort")
        h, bit = h[order], bit[order]
        brk = run_starts(h)
        starts = np.flatnonzero(brk)
        m = np.bitwise_or.reduceat(bit, starts)
        hu = h[brk]
        return pa.table({
            "h": pa.array(hu), "m": pa.array(m)})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        h = g["h"].to_numpy(np.int64)
        m = g["m"].to_numpy(np.int64)
        order = np.argsort(h, kind="mergesort")
        h, m = h[order], m[order]
        brk = run_starts(h)
        gm = np.bitwise_or.reduceat(m, np.flatnonzero(brk))
        um, cnt = np.unique(gm, return_counts=True)
        return pd.DataFrame({"mask": um.astype(np.int64),
                             "n": cnt.astype(np.int64)})

    per = (bucket_map(ds.map_batches(derive, batch_format="pyarrow"),
                      "h", fold).groupby("mask", as_index=False).sum())
    masks = per["mask"].to_numpy(np.int64)
    cnts = per["n"].to_numpy(np.int64)
    n_src = 20
    tot = np.zeros(n_src, np.int64)
    pair = np.zeros((n_src, n_src), np.int64)
    for mk, n in zip(masks, cnts):
        bits = [b for b in range(n_src) if (int(mk) >> b) & 1]
        for b in bits:
            tot[b] += n
        for x in range(len(bits)):
            for y in range(x + 1, len(bits)):
                pair[bits[x], bits[y]] += n
    rows = []
    for a in range(n_src):
        for b in range(a + 1, n_src):
            sh = int(pair[a, b])
            if sh > 0:
                union = int(tot[a]) + int(tot[b]) - sh
                rows.append((a, b, sh, int(tot[a]), int(tot[b]),
                             10_000 * sh // union))
    return pd.DataFrame(rows, columns=[
        "src_a", "src_b", "shared", "a_prefixes", "b_prefixes",
        "jaccard_bps"]).astype("int64")


def token_coverage_curve(sf_dir: str) -> pd.DataFrame:
    """TOKENIZER coverage curve: what share of the corpus's token
    instances the top-K vocabulary entries cover, at K = 10 / 100 /
    1000 / 10000 — the number that decides a vocab-size budget.
    Tokens are whitespace runs identified by md5-64 (strings never
    shuffle); per-batch ``np.unique`` partials fold through ONE
    ``hash % 64`` exchange into global per-token frequencies; each
    bucket ships ONLY its frequency column (no hashes) to the driver,
    which sorts the vocab-cardinality int vector and reads cumulative
    sums at the checkpoints. Coverage at K is invariant to tie order
    (tied frequencies contribute equally), so no tie-break is
    needed on either side."""
    ds = read(sf_dir, "documents", columns=["text"],
              rows_per_block=2048)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        h = g["h"].to_numpy(np.int64)
        n = g["n"].to_numpy(np.int64)
        order = np.argsort(h, kind="mergesort")
        h, n = h[order], n[order]
        brk = run_starts(h)
        f = np.add.reduceat(n, np.flatnonzero(brk))
        return pd.DataFrame({"f": f.astype(np.int64)})

    f = (bucket_map(ds.map_batches(token_hash_counts, batch_format="pyarrow"),
                    "h", fold)["f"].to_numpy(np.int64))
    f = np.sort(f)[::-1]
    cum = np.cumsum(f)
    tot, vocab = int(cum[-1]), len(f)
    rows = []
    for k in (10, 100, 1000, 10000):
        used = min(k, vocab)
        cov = int(cum[used - 1])
        rows.append((k, used, cov, 10_000 * cov // tot))
    return pd.DataFrame(rows, columns=[
        "k_checkpoint", "tokens_used", "covered_tokens",
        "coverage_bps"]).astype("int64")


def zipf_slope_audit(sf_dir: str) -> pd.DataFrame:
    """ZIPF-LAW fit over the token frequency spectrum: OLS slope of
    ilog2(frequency) on ilog2(rank) across the whole vocabulary —
    the sanity number (≈ -1 for natural text) a corpus-quality gate
    reads before trusting token statistics. Frequencies fold through
    the same ONE ``hash % 64`` exchange as ``token_coverage_curve``
    (frequencies-only driver pull); ranks are dense 1..V on the
    descending sort, and because tied frequencies occupy consecutive
    ranks the (rank, freq) multiset — hence every moment — is
    tie-order invariant. ilog2 via ``np.frexp`` (exact integer
    exponents, no float-boundary risk); slope and r² are exact
    integer Cramer ratios in Python bigints, sign-normalized to
    milli/bps units."""
    ds = read(sf_dir, "documents", columns=["text"],
              rows_per_block=2048)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        h = g["h"].to_numpy(np.int64)
        n = g["n"].to_numpy(np.int64)
        order = np.argsort(h, kind="mergesort")
        n = n[order]
        brk = run_starts(h[order])
        f = np.add.reduceat(n, np.flatnonzero(brk))
        return pd.DataFrame({"f": f.astype(np.int64)})

    f = (bucket_map(ds.map_batches(token_hash_counts, batch_format="pyarrow"),
                    "h", fold)["f"].to_numpy(np.int64))
    f = np.sort(f)[::-1]
    v = len(f)
    rank = np.arange(1, v + 1, dtype=np.int64)
    x = (np.frexp(rank.astype(np.float64))[1] - 1).astype(np.int64)
    y = (np.frexp(f.astype(np.float64))[1] - 1).astype(np.int64)
    n = v
    sx, sy = int(x.sum()), int(y.sum())
    sxx = int((x * x).sum())
    syy = int((y * y).sum())
    sxy = int((x * y).sum())
    num = n * sxy - sx * sy
    den = n * sxx - sx * sx
    syy_c = n * syy - sy * sy
    sgn = (num > 0) - (num < 0)
    slope = sgn * ((1000 * abs(num)) // den) if den > 0 else 0
    r2 = ((10_000 * num * num) // (den * syy_c)
          if den > 0 and syy_c > 0 else 10_000)
    return pd.DataFrame(
        [(v, int(f.sum()), slope, r2)],
        columns=["vocab", "total_tokens", "slope_milli",
                 "r2_bps"]).astype("int64")


def kfold_balance_audit(sf_dir: str, k: int = 5) -> pd.DataFrame:
    """SPLIT-QUALITY audit for a pure hash k-fold assignment (fold =
    md5-64(doc_id) % k, the map-side-only rule that scales to any
    corpus): is each fold a fair sample of the source mix? Per fold we
    report the doc count, the exact integer chi-square contribution
    summed over sources (per-cell milli floor of (n·o − rt·ct)² /
    (n·rt·ct)) and the worst-balanced source. Observed cells fold as
    map-side bincounts over (fold, source) — a k×n_sources grid at
    any scale, NO exchange beyond the tiny grouped sum."""
    ds = read(sf_dir, "documents", columns=["doc_id", "source"])

    def partial(t: pa.Table) -> pa.Table:
        did = t.column("doc_id").to_numpy()
        src = np.asarray(t.column("source"), dtype=object)
        fold = (int_keys_md5_u64(did.astype(np.int64))
                % np.uint64(k)).astype(np.int64)
        us, inv = np.unique(src, return_inverse=True)
        cell = fold * len(us) + inv
        cnt = np.bincount(cell, minlength=k * len(us)).astype(np.int64)
        nz = np.flatnonzero(cnt)
        return pa.table({
            "fold": pa.array((nz // len(us)).astype(np.int64)),
            "source": pa.array([str(us[i]) for i in nz % len(us)],
                               type=pa.string()),
            "n": pa.array(cnt[nz])})

    g = (ds.map_batches(partial, batch_format="pyarrow")
         .groupby("fold").map_groups(
             lambda df: df.groupby(["fold", "source"],
                                   as_index=False)["n"].sum(),
             batch_format="pandas")
         .to_pandas())
    n = int(g["n"].sum())
    rt = g.groupby("fold")["n"].sum()
    ct = g.groupby("source")["n"].sum()
    rows = []
    for fold in sorted(rt.index):
        sub = g[g["fold"] == fold]
        best_src, best_c, chi2 = "", -1, 0
        for src in sorted(ct.index):
            o = int(sub[sub["source"] == src]["n"].sum())
            r_, c_ = int(rt[fold]), int(ct[src])
            dev = n * o - r_ * c_
            contrib = (1000 * dev * dev) // (n * r_ * c_)
            chi2 += contrib
            if contrib > best_c:
                best_c, best_src = contrib, src
        rows.append((int(fold), int(rt[fold]), chi2, best_src,
                     best_c))
    return pd.DataFrame(rows, columns=[
        "fold", "n_docs", "chi2_milli", "worst_source",
        "worst_cell_milli"]).astype(
        {"fold": "int64", "n_docs": "int64", "chi2_milli": "int64",
         "worst_cell_milli": "int64"})


def token_burstiness(sf_dir: str) -> pd.DataFrame:
    """CHURCH-GALE token burstiness for the top-20 collection-frequency
    tokens: cf / df (collection frequency over document frequency) in
    milli units — near-1000 means evenly spread (stopword-like),
    large means bursty/topical; the signal a stopword list or an IDF
    floor is tuned from. Per batch both counters partial per 60-bit
    md5 token hash (df adds once per containing doc, exact because a
    doc is never split across batches); ONE ``hash % 64`` exchange
    folds them, each bucket ships only its top-20 by (cf desc, hash
    asc), and the driver merges 64 tiny lists with the same total
    order the SQL window twin uses."""
    from ..functions.hashing import hash64_many

    ds = read(sf_dir, "documents", columns=["text"],
              rows_per_block=2048)

    def derive(t: pa.Table) -> pa.Table:
        hs, cfs, dfs = [], [], []
        agg = {}
        for s in t.column("text").to_pylist():
            w = s.split()
            if not w:
                continue
            h = (hash64_many(np.array(w, dtype=object))
                 >> np.uint64(4)).astype(np.int64)
            u, c = np.unique(h, return_counts=True)
            for hh, cc in zip(u, c):
                e = agg.get(hh)
                if e is None:
                    agg[hh] = [int(cc), 1]
                else:
                    e[0] += int(cc)
                    e[1] += 1
        if not agg:
            return pa.table({"h": pa.array([], type=pa.int64()),
                             "cf": pa.array([], type=pa.int64()),
                             "df": pa.array([], type=pa.int64())})
        h = np.fromiter(agg.keys(), np.int64, len(agg))
        cf = np.array([v[0] for v in agg.values()], np.int64)
        df = np.array([v[1] for v in agg.values()], np.int64)
        return pa.table({
            "h": pa.array(h), "cf": pa.array(cf), "df": pa.array(df)})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        h = g["h"].to_numpy(np.int64)
        cf = g["cf"].to_numpy(np.int64)
        df = g["df"].to_numpy(np.int64)
        order = np.argsort(h, kind="mergesort")
        h, cf, df = h[order], cf[order], df[order]
        brk = run_starts(h)
        starts = np.flatnonzero(brk)
        hu = h[brk]
        cfu = np.add.reduceat(cf, starts)
        dfu = np.add.reduceat(df, starts)
        top = np.lexsort((hu, -cfu))[:20]
        return pd.DataFrame({"h": hu[top], "cf": cfu[top],
                             "df": dfu[top]})

    per = bucket_map(ds.map_batches(derive, batch_format="pyarrow"), "h", fold)
    order = np.lexsort((per["h"].to_numpy(np.int64),
                        -per["cf"].to_numpy(np.int64)))[:20]
    out = per.iloc[order].reset_index(drop=True)
    out["rk"] = np.arange(1, len(out) + 1, dtype=np.int64)
    out["burstiness_milli"] = (1000 * out["cf"]) // out["df"]
    return out.rename(columns={"h": "tok_hash"})[
        ["rk", "tok_hash", "cf", "df", "burstiness_milli"]] \
        .astype("int64")


def cms_width_sweep(sf_dir: str) -> pd.DataFrame:
    """COUNT-MIN WIDTH tuning curve: the same depth-4 CMS built at
    widths 256 / 1024 / 4096 and probed with the distinct tokens of
    every 199th document — mean/max one-sided overestimate in bps and
    the share of probes answered exactly, per width. This is the
    table that sizes ``token_freq_cms``'s width for a target error.
    Cells are md5(tok '#' d) %% width (60-bit parse), so unlike the
    splitmix64 production sketch every cell is reproducible in SQL.
    Sketch build: per-batch bincount partials → ONE ``(width, cell)``
    grouped sum (≤ 21504 cells total regardless of corpus size);
    probe exact counts fold as probe-cardinality partials against the
    broadcast probe list."""
    from ..functions.hashing import hash64_many

    widths = (256, 1024, 4096)
    depth = 4

    ds = read(sf_dir, "documents", columns=["doc_id", "text"],
              rows_per_block=2048)

    probes = sorted(set(
        ds.map_batches(sampled_tokens, batch_format="pyarrow")
        .to_pandas()["tok"]))
    probe_ref = ray.put(probes)

    def cells(t: pa.Table) -> pa.Table:
        toks = np.array([w for s in t.column("text").to_pylist()
                         for w in s.split()], dtype=object)
        if not len(toks):
            return pa.table({"w": pa.array([], type=pa.int64()),
                             "cell": pa.array([], type=pa.int64()),
                             "n": pa.array([], type=pa.int64())})
        uniq, cnt = np.unique(toks, return_counts=True)
        cnt = cnt.astype(np.int64)
        ws, cs, ns = [], [], []
        for d in range(depth):
            suf = f"#{d}"
            hd = (hash64_many([x + suf for x in uniq])
                  >> np.uint64(4))
            for w in widths:
                cell = (hd % np.uint64(w)).astype(np.int64) + d * w
                bc = np.bincount(cell, weights=cnt,
                                 minlength=depth * w).astype(np.int64)
                nz = np.flatnonzero(bc)
                ws.extend([w] * len(nz))
                cs.extend(nz.tolist())
                ns.extend(bc[nz].tolist())
        return pa.table({"w": pa.array(ws, type=pa.int64()),
                         "cell": pa.array(cs, type=pa.int64()),
                         "n": pa.array(ns, type=pa.int64())})

    sk = (ds.map_batches(cells, batch_format="pyarrow")
          .groupby(["w", "cell"]).aggregate(Sum("n", alias_name="n"))
          .to_pandas())

    def exact(t: pa.Table) -> pa.Table:
        pset = set(ray.get(probe_ref))
        toks = [w for s in t.column("text").to_pylist()
                for w in s.split() if w in pset]
        if not toks:
            return pa.table({"tok": pa.array([], type=pa.string()),
                             "n": pa.array([], type=pa.int64())})
        u, c = np.unique(np.array(toks, dtype=object),
                         return_counts=True)
        return pa.table({"tok": pa.array(list(u), type=pa.string()),
                         "n": pa.array(c.astype(np.int64))})

    ex = (ds.map_batches(exact, batch_format="pyarrow")
          .groupby("tok").aggregate(Sum("n", alias_name="n"))
          .to_pandas().set_index("tok")["n"])

    hd_all = {d: (hash64_many([x + f"#{d}" for x in probes])
                  >> np.uint64(4)) for d in range(depth)}
    rows = []
    for w in widths:
        tbl = np.zeros(depth * w, np.int64)
        sub = sk[sk["w"] == w]
        tbl[sub["cell"].to_numpy(np.int64)] = \
            sub["n"].to_numpy(np.int64)
        sum_ex, sum_est, mx, hits = 0, 0, 0, 0
        for i, tok in enumerate(probes):
            e = int(ex[tok])
            est = min(int(tbl[d * w + int(hd_all[d][i]
                                          % np.uint64(w))])
                      for d in range(depth))
            sum_ex += e
            sum_est += est
            ov = 10_000 * (est - e) // e
            mx = max(mx, ov)
            hits += est == e
        rows.append((w, len(probes), sum_ex, sum_est,
                     10_000 * (sum_est - sum_ex) // sum_ex, mx,
                     10_000 * hits // len(probes)))
    return pd.DataFrame(rows, columns=[
        "width", "n_probes", "exact_total", "est_total",
        "mean_over_bps", "max_over_bps", "exact_hit_bps"]) \
        .astype("int64")


def vocab_richness_chao1(sf_dir: str) -> pd.DataFrame:
    """SPECIES-RICHNESS estimate of each source's vocabulary — the
    "how much vocabulary have we NOT crawled yet" curve: Chao1
    (bias-corrected, V + F1(F1-1)/(2(F2+1)) in exact integer milli
    units) plus the Good-Turing unseen-probability mass (F1/N in
    bps), from the counts-of-counts of the per-source token
    frequency table. Same md5-hashed-token (source, hash)-routed
    exchange as ``source_hapax_ratio`` — strings never shuffle,
    per-bucket partials are one row per source, and every estimator
    term (V, F1, F2, N) is an exact integer the SQL twin reproduces
    verbatim."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["source", "text"])

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby(["source", "h"], as_index=False)["n"].sum()
        nv = tot["n"].to_numpy(np.int64)
        out = tot.groupby("source", as_index=False).agg(
            nd=("n", "size"), ntok=("n", "sum"))
        grp = tot.assign(f1=(nv == 1).astype(np.int64),
                         f2=(nv == 2).astype(np.int64)) \
            .groupby("source")[["f1", "f2"]].sum()
        out["f1"] = grp["f1"].to_numpy(np.int64)
        out["f2"] = grp["f2"].to_numpy(np.int64)
        return out

    agg = (bucket_map(ds.map_batches(source_token_counts,
                                     batch_format="pyarrow"),
                      "h", fold)
           .groupby("source", as_index=False).sum()
           .sort_values("source", kind="mergesort")
           .reset_index(drop=True))
    nd = agg["nd"].to_numpy(np.int64)
    nt = agg["ntok"].to_numpy(np.int64)
    f1 = agg["f1"].to_numpy(np.int64)
    f2 = agg["f2"].to_numpy(np.int64)
    agg["chao1_milli"] = 1000 * nd + (1000 * f1 * (f1 - 1)) \
        // (2 * (f2 + 1))
    agg["unseen_mass_bps"] = 10_000 * f1 // np.maximum(nt, 1)
    return agg.rename(columns={
        "nd": "n_distinct", "ntok": "n_tokens"}).astype(
        {c: "int64" for c in ("n_distinct", "n_tokens", "f1", "f2",
                              "chao1_milli", "unseen_mass_bps")}) \
        [["source", "n_tokens", "n_distinct", "f1", "f2",
          "chao1_milli", "unseen_mass_bps"]]


def docs_menzerath(sf_dir: str) -> pd.DataFrame:
    """MENZERATH-ALTMANN profile — do longer documents use SHORTER
    words? Docs band by the EXACT bit-length of their token count
    (the frexp exponent here, length(printf('%b', n)) in the twin —
    the same integer-log2 lattice as the Zipf fit), and each band
    reports docs, tokens, characters and the mean token length as one
    integer milli floor. The corpus-linguistics law check doubles as
    a tokenizer-cost model (chars per token by document size class).
    RE2 whitespace splitting on BOTH sides, edge empties filtered
    identically; per-block partials are band-cardinality rows (~12) —
    ZERO shuffle, no float."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["text"])

    def partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(t.column("text"), r"\s+") \
            .combine_chunks()
        per_doc = np.asarray(toks.value_lengths(), dtype=np.int64)
        lens = pc.utf8_length(toks.flatten()) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        didx = np.repeat(np.arange(len(per_doc)), per_doc)
        keep = lens > 0
        ntok = np.bincount(didx[keep], minlength=len(per_doc)) \
            .astype(np.int64)
        chars = np.bincount(didx[keep], weights=lens[keep],
                            minlength=len(per_doc)).astype(np.int64)
        pos = ntok > 0
        band = np.frexp(ntok[pos].astype(np.float64))[1] \
            .astype(np.int64)
        k = int(band.max()) + 1 if len(band) else 1
        return pa.table({
            "band": pa.array(np.arange(k, dtype=np.int64)),
            "n_docs": pa.array(np.bincount(band, minlength=k)
                               .astype(np.int64)),
            "n_tokens": pa.array(np.bincount(band, weights=ntok[pos],
                                             minlength=k)
                                 .astype(np.int64)),
            "sum_chars": pa.array(np.bincount(band, weights=chars[pos],
                                              minlength=k)
                                  .astype(np.int64))})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("band", as_index=False).sum()
    g = g[g["n_docs"] > 0].sort_values("band", kind="mergesort") \
        .reset_index(drop=True)
    g["mean_tok_len_milli"] = 1000 * g["sum_chars"].to_numpy(np.int64) \
        // g["n_tokens"].to_numpy(np.int64)
    return g.astype("int64")


def docs_nchars_consistency(sf_dir: str) -> pd.DataFrame:
    """MATERIALIZED-COLUMN consistency audit — is the stored
    ``n_chars`` stat column stale or wrong vs the text it summarizes?
    The staleness check every pipeline with derived columns needs:
    per-doc |n_chars - utf8_length(text)| folded to match count,
    total and max absolute deviation, match share in exact bps.
    RE2-free (one Arrow utf8_length kernel); per-block partials are
    one row — ZERO shuffle, pure integers."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["n_chars", "text"])

    def partial(t: pa.Table) -> pa.Table:
        stored = t.column("n_chars").to_numpy().astype(np.int64)
        actual = pc.utf8_length(t.column("text")) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        dev = np.abs(stored - actual)
        return pa.table({
            "n": pa.array([np.int64(len(dev))]),
            "match": pa.array([np.int64((dev == 0).sum())]),
            "sumdev": pa.array([np.int64(dev.sum())]),
            "maxdev": pa.array([np.int64(dev.max()) if len(dev)
                                else np.int64(0)])})

    m = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    n = int(m["n"].sum())
    match = int(m["match"].sum())
    return pd.DataFrame([(n, match, 10000 * match // n,
                          int(m["sumdev"].sum()),
                          int(m["maxdev"].max()))],
                        columns=["n_docs", "n_match", "match_bps",
                                 "sum_absdev", "max_absdev"]) \
        .astype("int64")


def lang_source_lift(sf_dir: str) -> pd.DataFrame:
    """LANG x SOURCE affinity — which providers over-deliver which
    languages vs the corpus mix? Per-cell lift fully cross-multiplied
    as 1000 * n_ls * N // (n_l * n_s) (no share rational), the
    sourcing-contract sanity grid read next to
    ``source_mixture_weights``. Per-block (lang, source) count
    partials — grid-sized, ZERO shuffle, pure integers."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["lang", "source"])

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "lang": np.asarray(t.column("lang")).astype(object),
            "source": np.asarray(t.column("source")).astype(object)})
        g = df.groupby(["lang", "source"], as_index=False).size()
        return pa.table({
            "lang": pa.array(g["lang"], type=pa.string()),
            "source": pa.array(g["source"], type=pa.string()),
            "n": pa.array(g["size"].to_numpy(np.int64))})

    g = (ds.map_batches(partial, batch_format="pyarrow")
         .to_pandas().groupby(["lang", "source"], as_index=False)["n"]
         .sum())
    nl = g.groupby("lang")["n"].sum().to_dict()
    ns = g.groupby("source")["n"].sum().to_dict()
    n_tot = int(g["n"].sum())
    g = g.sort_values(["lang", "source"], kind="mergesort") \
        .reset_index(drop=True)
    g["lift_milli"] = [
        1000 * int(r["n"]) * n_tot
        // (int(nl[r["lang"]]) * int(ns[r["source"]]))
        for _, r in g.iterrows()]
    return g.astype({"n": "int64", "lift_milli": "int64"})


def vocab_gini(sf_dir: str) -> pd.DataFrame:
    """VOCABULARY GINI — one number for how unequal token usage is
    (the concentration summary under the Zipf fit): exact Gini over
    the corpus frequency table computed WITHOUT materializing it,
    from the counts-of-counts: a frequency level f spanning ranks
    (a, a+m] contributes f*m*(2a + m - n) to the sorted-rank sum —
    grouped, tie-free, pure integers — and Gini closes as one bps
    floor 10000*S // (n*T). Same hashed-token exchange as the
    hapax/Chao1 kernels (strings never shuffle); per-bucket partials
    are frequency-level rows."""
    from ..functions.hashing import hash64_many

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["text"])

    def derive(t: pa.Table) -> pa.Table:
        parts_ = pc.split_pattern_regex(t.column("text"), r"\s+") \
            .combine_chunks()
        flat = parts_.flatten()
        keep = pc.utf8_length(flat).to_numpy(zero_copy_only=False) > 0
        toks = np.asarray(flat).astype(object)[keep]
        h = hash64_many(toks).astype(np.int64)
        u, cnt = np.unique(h, return_counts=True)
        return pa.table({
            "h": pa.array(u),
            "n": pa.array(cnt.astype(np.int64))})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby("h", as_index=False)["n"].sum()
        f, m = np.unique(tot["n"].to_numpy(np.int64),
                         return_counts=True)
        return pd.DataFrame({"f": f, "m": m.astype(np.int64)})

    cc = (bucket_map(ds.map_batches(derive, batch_format="pyarrow"),
                     "h", fold).groupby("f", as_index=False)["m"].sum()
          .sort_values("f").reset_index(drop=True))
    f = cc["f"].to_numpy(np.int64)
    m = cc["m"].to_numpy(np.int64)
    n = int(m.sum())
    t = int((f * m).sum())
    a = np.concatenate(([0], np.cumsum(m)[:-1]))
    s = sum(int(fi) * int(mi) * (2 * int(ai) + int(mi) - n)
            for fi, mi, ai in zip(f, m, a))
    return pd.DataFrame([(n, t, 10000 * s // (n * t))],
                        columns=["n_types", "n_tokens", "gini_bps"]) \
        .astype("int64")


def docs_length_anova_by_source(sf_dir: str) -> pd.DataFrame:
    """DOC-LENGTH homogeneity across sources — integer one-way ANOVA
    of the stored n_chars column by source (the feed-normalization
    gate: a significant F means per-source truncation/padding rules
    differ and token budgets can't be shared): the
    ``orders_dow_anova`` milli-floored-mean discipline, SSB/SSW
    exact Python-bigint/HUGEINT (reported // 10^6), F and eta^2
    with NO float. Per-block per-source moment partials — ZERO
    shuffle."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["source", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        src = np.asarray(t.column("source")).astype(object)
        v = t.column("n_chars").to_numpy().astype(np.int64)
        code, uniq = pd.factorize(src)
        k = len(uniq)
        return pa.table({
            "source": pa.array(uniq.astype(str), type=pa.string()),
            "n": pa.array(np.bincount(code, minlength=k)
                          .astype(np.int64)),
            "s": pa.array(np.bincount(code, weights=v, minlength=k)
                          .astype(np.int64)),
            "q": pa.array(np.bincount(code, weights=v * v,
                                      minlength=k).astype(np.int64))})

    g = (ds.map_batches(partial, batch_format="pyarrow")
         .to_pandas().groupby("source", as_index=False).sum())
    n = int(g["n"].sum())
    k = len(g)
    mbar = 1000 * int(g["s"].sum()) // n
    ssb = 0
    ssw = 0
    for _, r in g.iterrows():
        n_i, s_i, q_i = int(r["n"]), int(r["s"]), int(r["q"])
        m_i = 1000 * s_i // n_i
        ssb += n_i * (m_i - mbar) * (m_i - mbar)
        ssw += 1_000_000 * q_i - 2 * m_i * 1000 * s_i \
            + n_i * m_i * m_i
    f_milli = 1000 * ssb * (n - k) // (ssw * (k - 1))
    return pd.DataFrame([(n, k, ssb // 1_000_000, ssw // 1_000_000,
                          f_milli, 10000 * ssb // (ssb + ssw))],
                        columns=["n_docs", "n_sources", "ssb_sc",
                                 "ssw_sc", "f_milli", "eta2_bps"]) \
        .astype("int64")


def docs_ttr_bands(sf_dir: str) -> pd.DataFrame:
    """LEXICAL-DENSITY census — docs banded by type-token ratio
    (distinct / total tokens): low TTR = repetitive boilerplate,
    high TTR = dense prose; the complement to the char-level
    Menzerath profile. Bands via cross-multiplied compares
    100*distinct < k*total (sparse < 10 tokens separate), shares in
    exact bps. Docs never span blocks, so the whole op is per-block
    census partials — ZERO shuffle; RE2 whitespace tokens on both
    sides."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["text"])

    def partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(t.column("text"), r"\s+") \
            .combine_chunks()
        per_doc = np.asarray(toks.value_lengths(), dtype=np.int64)
        flat = np.asarray(toks.flatten()).astype(object)
        lens = pc.utf8_length(toks.flatten()) \
            .to_numpy(zero_copy_only=False)
        didx = np.repeat(np.arange(len(per_doc)), per_doc)
        keep = lens > 0
        didx = didx[keep]
        flat = flat[keep]
        tot = np.bincount(didx, minlength=len(per_doc)) \
            .astype(np.int64)
        df = pd.DataFrame({"d": didx, "t": flat}).drop_duplicates()
        dis = np.bincount(df["d"].to_numpy(np.int64),
                          minlength=len(per_doc)).astype(np.int64)
        band = np.where(tot < 10, 0,
                        np.where(100 * dis < 40 * tot, 1,
                                 np.where(100 * dis < 60 * tot, 2,
                                          np.where(100 * dis
                                                   < 80 * tot, 3,
                                                   4))))
        h = np.bincount(band, minlength=5).astype(np.int64)
        return pa.table({"band": pa.array(np.arange(5,
                                                    dtype=np.int64)),
                         "n_docs": pa.array(h)})

    g = (ds.map_batches(partial, batch_format="pyarrow")
         .to_pandas().groupby("band", as_index=False).sum())
    tot = int(g["n_docs"].sum())
    g = g[g["n_docs"] > 0].sort_values("band").reset_index(drop=True)
    g["share_bps"] = 10000 * g["n_docs"].to_numpy(np.int64) // tot
    return g.astype("int64")


def docs_length_quantiles_by_source(sf_dir: str) -> pd.DataFrame:
    """LENGTH SLA per source — exact ceil-rank p50/p90/p99 of the
    stored n_chars column per source from bounded per-source
    histograms (the quantile scan never touches rows), plus the
    truncating mean in milli: the per-provider document-size profile
    that sizes chunking windows and batch padding. Per-block
    (source, n_chars) count partials — ZERO shuffle, pure
    integers."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["source", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        src = np.asarray(t.column("source")).astype(object)
        v = t.column("n_chars").to_numpy().astype(np.int64)
        df = pd.DataFrame({"s": src, "v": v})
        g = df.groupby(["s", "v"], as_index=False).size()
        return pa.table({
            "s": pa.array(g["s"], type=pa.string()),
            "v": pa.array(g["v"].to_numpy(np.int64)),
            "c": pa.array(g["size"].to_numpy(np.int64))})

    h = (ds.map_batches(partial, batch_format="pyarrow")
         .to_pandas().groupby(["s", "v"], as_index=False)["c"].sum())
    rows = []
    for s, g in h.groupby("s"):
        g = g.sort_values("v")
        v = g["v"].to_numpy(np.int64)
        c = g["c"].to_numpy(np.int64)
        cum = np.cumsum(c)
        n = int(cum[-1])
        q = {p: int(v[np.searchsorted(cum, (p * n + 99) // 100)])
             for p in (50, 90, 99)}
        tot = int((v * c).sum())
        rows.append((str(s), n, q[50], q[90], q[99],
                     1000 * tot // n))
    return pd.DataFrame(sorted(rows), columns=[
        "source", "n_docs", "p50", "p90", "p99", "mean_milli"]) \
        .astype({c: "int64" for c in ("n_docs", "p50", "p90", "p99",
                                      "mean_milli")})
