"""Rows-only text-analysis pipelines (heuristics with no SQL equivalent):
language-ID, quality scoring, winnowing fingerprints."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ..functions.text import lang_id, quality_scores, winnow_fingerprint
from .exchange import bucket_map


def text_analysis_batch(t: pa.Table) -> pa.Table:
    """All three heuristic columns in one pass over the batch. Task-mode
    ``map_batches`` (autoscales with the cluster); a real model-scoring
    stage would instead be a callable class loading the model once per
    actor in ``__init__`` — see ``media.MediaDecodeStage`` for that shape.
    """
    texts = t.column("text").to_pylist()
    quality = quality_scores(texts)
    return pa.table(
        {
            "doc_id": t.column("doc_id"),
            "lang_pred": pa.array(lang_id(texts), type=pa.string()),
            "quality_milli": pa.array(
                np.floor(quality * 1000).astype(np.int64)),
            "fingerprint": pa.array(winnow_fingerprint(texts)),
        }
    )


def text_analysis(sf_dir: str) -> pd.DataFrame:
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    return ds.map_batches(text_analysis_batch,
                          batch_format="pyarrow").to_pandas()


def _str_hash(t: pa.Table, col: str) -> np.ndarray:
    """Bucket key of a string column: its md5-based hash64."""
    from ..functions.hashing import hash64_many
    return hash64_many(t.column(col).to_pylist())


_GOPHER_STOPS = ("the", "a", "and", "of")


def gopher_quality_flags(sf_dir: str) -> pd.DataFrame:
    """Gopher-style composite quality gate (Rae et al. 2021, §A1.1 —
    public paper), integerized so the DuckDB twin matches bit-for-bit
    and adapted to rules that are non-degenerate on the synthetic
    corpus: word-count band, mean-word-length band, stopword-kind
    count, unique-token ratio. Emits per-rule columns plus the
    composite ``keep`` so downstream curation can re-weight rules
    without recomputing. Pure map-side (one pass, no exchange);
    at 100 TB this runs as a task-pool ``map_batches`` directly after
    the read with nothing to shuffle."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def flags(t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pylist()
        toks = [s.lower().split() for s in texts]
        n_words = np.fromiter((len(w) for w in toks), dtype=np.int64,
                              count=len(toks))
        nonspace = np.fromiter((sum(len(x) for x in w) for w in toks),
                               dtype=np.int64, count=len(toks))
        nw = np.maximum(n_words, 1)
        mean_x100 = nonspace * 100 // nw
        uniq = np.fromiter((len(set(w)) for w in toks), dtype=np.int64,
                           count=len(toks))
        uniq_bp = uniq * 10000 // nw
        stops = np.fromiter(
            (sum(1 for st in _GOPHER_STOPS if st in ws)
             for ws in (set(w) for w in toks)),
            dtype=np.int64, count=len(toks))
        keep = ((n_words >= 30) & (n_words <= 1000)
                & (mean_x100 >= 300) & (mean_x100 <= 600)
                & (stops >= 1) & (uniq_bp >= 3000)).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(t.column("doc_id").to_numpy()
                               .astype(np.int64)),
            "n_words": pa.array(n_words),
            "mean_wlen_x100": pa.array(
                np.where(n_words == 0, 0, mean_x100)),
            "n_stop_kinds": pa.array(stops),
            "uniq_bp": pa.array(np.where(n_words == 0, 0, uniq_bp)),
            "keep": pa.array(keep)})

    return ds.map_batches(flags, batch_format="pyarrow").to_pandas()


def lm_bigram_scores(sf_dir: str, min_count: int = 1) -> pd.DataFrame:
    """CCNet-style language-model quality scoring (Wenzek et al. 2020 —
    public paper — filters web text by LM perplexity): train a bigram
    count model over the corpus, then score every document by its mean
    per-token add-one-smoothed log-probability (in floor'd milli-nats,
    so the independent golden matches bit-for-bit).

    Distributed shape, both passes streaming:
    - TRAIN: each block emits per-block-deduped (bigram, count)
      partials (``np.unique`` — the exchange moves distinct pairs per
      block, not token occurrences); one ``groupby(pair)`` sum yields
      the model, which is dimension-sized and broadcast ONCE via
      ``ray.put``. At 100 TB the model is pruned map-side with
      ``min_count`` (exactly how CCNet ships a pruned KenLM instead of
      raw counts) and/or trained on a sample — the scoring pass is
      unchanged.
    - SCORE: pure map-side; per block the token stream is flattened
      once, both model lookups are C-level ``pd.Index.get_indexer``
      calls, and per-doc sums are one ``np.add.reduceat`` (sequential
      within each doc's segment, so per-doc float rounding is
      independent of block boundaries — that is what makes the golden
      reproducible).

    Determinism: counts are exact integers; log-probs are float64 from
    identical integers; per-doc summation touches only the doc's own
    segment. Empty docs are dropped (no positions to score).
    """
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    # SEP is a space: tokens come from str.split() so they can never
    # contain one (NB a NUL separator dies inside numpy — fixed-width
    # unicode coercion silently strips trailing NULs from the scalar).
    SEP = " "
    BOS = "\x02"  # not a corpus token: doc-start context

    def _flatten(texts):
        """(w1, w2, starts, lens) for the non-empty docs of a batch."""
        toks = [s.split() for s in texts]
        keep = [i for i, tk in enumerate(toks) if tk]
        lens = np.array([len(toks[i]) for i in keep], dtype=np.int64)
        if not keep:
            z = np.array([], dtype=object)
            return z, z, np.array([], dtype=np.int64), lens, keep
        w2 = np.concatenate([np.asarray(toks[i], dtype=object)
                             for i in keep])
        w1 = np.concatenate([np.asarray([BOS] + toks[i][:-1],
                                        dtype=object) for i in keep])
        starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        return w1, w2, starts, lens, keep

    def pairs(t: pa.Table) -> pa.Table:
        w1, w2, _, _, _ = _flatten(t.column("text").to_pylist())
        if len(w2) == 0:
            return pa.table({"pair": pa.array([], type=pa.string()),
                             "n": pa.array([], type=pa.int64())})
        key, counts = np.unique(w1 + SEP + w2, return_counts=True)
        return pa.table({"pair": pa.array(list(key), type=pa.string()),
                         "n": pa.array(counts.astype(np.int64))})

    model = (ds.map_batches(pairs, batch_format="pyarrow")
             .groupby("pair").aggregate(Sum("n", alias_name="n"))
             .to_pandas())
    model = model[model["n"] >= min_count]
    w1w2 = model["pair"].str.split(SEP, n=1, expand=True)
    vocab = int(w1w2[1].nunique())
    ctx = (pd.DataFrame({"w1": w1w2[0], "n": model["n"]})
           .groupby("w1", as_index=False)["n"].sum())
    big_idx = pd.Index(model["pair"])
    big_n = model["n"].to_numpy(np.int64)
    ctx_idx = pd.Index(ctx["w1"])
    ctx_n = ctx["n"].to_numpy(np.int64)
    ref = ray.put((big_idx, big_n, ctx_idx, ctx_n, vocab))

    def score(t: pa.Table) -> pa.Table:
        big_idx_, big_n_, ctx_idx_, ctx_n_, v = ray.get(ref)
        texts = t.column("text").to_pylist()
        w1, w2, starts, lens, keep = _flatten(texts)
        if len(keep) == 0:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "n_tokens": pa.array([], type=pa.int64()),
                             "score_milli": pa.array([], type=pa.int64())})
        bi = big_idx_.get_indexer(pd.Index(w1 + SEP + w2))
        bn = np.where(bi >= 0, big_n_[bi], 0)
        ci = ctx_idx_.get_indexer(pd.Index(w1))
        cn = np.where(ci >= 0, ctx_n_[ci], 0)
        lp = np.log(bn + 1.0) - np.log(cn + np.float64(v))
        sums = np.add.reduceat(lp, starts)
        milli = np.floor(1000.0 * sums / lens).astype(np.int64)
        doc_id = t.column("doc_id").to_numpy().astype(np.int64)[keep]
        return pa.table({"doc_id": pa.array(doc_id),
                         "n_tokens": pa.array(lens),
                         "score_milli": pa.array(milli)})

    out = (ds.map_batches(score, batch_format="pyarrow")
           .sort("doc_id").to_pandas())
    return out.astype({"doc_id": "int64", "n_tokens": "int64",
                       "score_milli": "int64"})


def bm25_scores(sf_dir: str, topn: int = 20, k1: float = 1.2,
                b: float = 0.75) -> pd.DataFrame:
    """BM25 retrieval scoring (Robertson & Zaragoza 2009 — public
    formula) of every document against a deterministic query: the
    distinct tokens of the lowest-doc_id document. Top-``topn`` docs by
    score (floor'd milli-nats; ties break on doc_id).

    Distributed shape: corpus statistics (N, total tokens, per-term
    document frequencies) come from ONE stats pass that emits a single
    fixed-width partial row per block (int64 counters — order-free
    merge on the driver); the scoring pass is pure map-side with the
    (tiny) stats broadcast, then a global top-k. The float math
    (idf · tf saturation) is per-doc from identical integers on both
    sides, so the independent golden matches exactly."""
    import pyarrow.parquet as pq_

    q_tbl = pq_.read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"],
                           filters=[("doc_id", "=", 0)])
    q_terms = np.asarray(sorted(set(q_tbl.column("text")[0].as_py()
                                    .split())), dtype=object)
    nq = len(q_terms)
    q_index = pd.Index(q_terms)

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def stats(t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pylist()
        df = np.zeros(nq, dtype=np.int64)
        n_toks = 0
        for s in texts:
            toks = s.split()
            n_toks += len(toks)
            hit = q_index.get_indexer(pd.Index(set(toks)))
            df[hit[hit >= 0]] += 1
        return pa.table({"n_docs": pa.array([len(texts)]),
                         "n_toks": pa.array([n_toks]),
                         "df": pa.array([df.tobytes()],
                                        type=pa.binary())})

    part = ds.map_batches(stats, batch_format="pyarrow").to_pandas()
    n_docs = int(part["n_docs"].sum())
    n_toks = int(part["n_toks"].sum())
    df = np.zeros(nq, dtype=np.int64)
    for bbytes in part["df"]:
        df += np.frombuffer(bbytes, dtype=np.int64)
    avgdl = np.float64(n_toks) / np.float64(n_docs)
    idf = np.log((np.float64(n_docs) - df + 0.5) / (df + 0.5) + 1.0)
    ref = ray.put((idf, avgdl))

    def score(t: pa.Table) -> pa.Table:
        idf_, avgdl_ = ray.get(ref)
        texts = t.column("text").to_pylist()
        out = np.empty(len(texts), dtype=np.int64)
        for i, s in enumerate(texts):
            toks = np.asarray(s.split(), dtype=object)
            dl = np.float64(len(toks))
            if len(toks) == 0:
                out[i] = 0
                continue
            ti = q_index.get_indexer(pd.Index(toks))
            tf = np.bincount(ti[ti >= 0], minlength=nq).astype(np.float64)
            sat = tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl_))
            out[i] = np.int64(np.floor(np.dot(idf_, sat) * 1000.0))
        return pa.table({
            "doc_id": pa.array(t.column("doc_id").to_numpy()
                               .astype(np.int64)),
            "score_milli": pa.array(out)})

    local = ds.map_batches(score, batch_format="pyarrow").to_pandas()
    out = (local.sort_values(["score_milli", "doc_id"],
                             ascending=[False, True], kind="mergesort")
           .head(topn).reset_index(drop=True))
    return out.astype({"doc_id": "int64", "score_milli": "int64"})


def docs_compression_ratio(sf_dir: str) -> pd.DataFrame:
    """Compression-ratio quality signal (used by FineWeb/Gopher-family
    curation recipes: highly repetitive or templated text compresses
    far below natural prose): per doc, ``len(zlib(text)) / len(text)``
    in milli units, plus both byte counts. Pure map-side (one pass, no
    exchange); zlib level 6 is pinned so the independent golden (same
    zlib, same level) matches bit-exactly. At 100 TB this is a
    task-pool ``map_batches`` directly after a pruned read — the
    canonical cheap-quality-gate shape."""
    import zlib

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def ratio(t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pylist()
        raw = np.fromiter((len(s.encode("utf-8")) for s in texts),
                          dtype=np.int64, count=len(texts))
        comp = np.fromiter(
            (len(zlib.compress(s.encode("utf-8"), 6)) for s in texts),
            dtype=np.int64, count=len(texts))
        milli = np.where(raw > 0, comp * 1000 // np.maximum(raw, 1), 0)
        return pa.table({
            "doc_id": pa.array(t.column("doc_id").to_numpy()
                               .astype(np.int64)),
            "n_bytes": pa.array(raw),
            "n_bytes_zlib": pa.array(comp),
            "ratio_milli": pa.array(milli.astype(np.int64))})

    out = (ds.map_batches(ratio, batch_format="pyarrow")
           .sort("doc_id").to_pandas())
    return out.astype({c: "int64" for c in out.columns})


# ------------------------------------------------- heavy hitters (MG sketch)
_MG_CAPACITY = 10_000


def _batch_trigram_mg(t: pa.Table, m: int) -> pa.Table:
    """Misra-Gries summary of one batch's word trigrams: exact counts
    via np.unique, then — if more than ``m`` distinct — subtract the
    (m+1)-th largest count from all and keep the positive remainder.
    The undercount per summary is <= n_batch/(m+1), and summing
    summaries preserves the bound (mergeable summaries, Agarwal et al.
    PODS'12), so a trigram with true frequency f has summed sketch
    count >= f - N/(m+1) no matter how Ray ordered the blocks. A
    sentinel row (g='', is_total=1) carries the batch's exact trigram
    instance count so the global N needs no second pass."""
    texts = t.column("text").to_pylist()
    grams = []
    for s in texts:
        w = s.split()
        grams.extend(" ".join(w[i:i + 3]) for i in range(len(w) - 2))
    total = len(grams)
    if total:
        g, n = np.unique(np.array(grams, dtype=object),
                         return_counts=True)
        if len(g) > m:
            cut = np.partition(n, len(n) - m - 1)[len(n) - m - 1]
            keep = n > cut
            g, n = g[keep], n[keep] - cut
    else:
        g = np.array([], dtype=object)
        n = np.array([], dtype=np.int64)
    return pa.table({
        "g": pa.array(list(g) + [""], type=pa.string()),
        "n": pa.array(np.concatenate([n.astype(np.int64), [total]])),
        "is_total": pa.array(
            np.concatenate([np.zeros(len(g), np.int8), [1]]))})


def heavy_hitter_trigrams(sf_dir: str,
                          theta: float = 2e-4) -> pd.DataFrame:
    """Frequent-item mining at corpus scale: word trigrams with
    frequency >= ceil(theta * N), computed sketch-first so the heavy
    exchange never carries the full n-gram vocabulary (the thing that
    kills an exact wordcount at 100 TB, where distinct n-grams are
    ~input-sized). Two stages:

    1. per-block Misra-Gries summaries (<= _MG_CAPACITY rows per block,
       vs unbounded distinct-per-block for exact) -> groupby-sum ->
       candidate trigrams with sketch count >= theta*N - N/(m+1). MG
       theory guarantees this candidate set contains EVERY truly
       theta-heavy trigram, so the sketch can only over-admit, never
       miss.
    2. exact counts for the candidate set only (broadcast sorted
       candidate array, per-batch np.unique + searchsorted membership,
       groupby-sum), then the exact HAVING >= ceil(theta*N) filter.

    Output is therefore EXACT (value-equal to the SQL twin's full
    GROUP BY ... HAVING), while both exchanges stay bounded: stage 1
    moves <= m rows per block, stage 2 moves <= |candidates| rows per
    block. Deterministic regardless of block order."""
    m = _MG_CAPACITY
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["text"])
    from ray.data.aggregate import Sum

    sketch = (ds.map_batches(lambda t: _batch_trigram_mg(t, m),
                             batch_format="pyarrow")
              .groupby("g")
              .aggregate(Sum("n", alias_name="n"),
                         Sum("is_total", alias_name="tot"))
              .to_pandas())
    n_total = int(sketch.loc[sketch["tot"] > 0, "n"].sum())
    thresh = int(np.ceil(n_total * theta))
    lo = thresh - (n_total // (m + 1))
    cand = np.sort(sketch.loc[(sketch["tot"] == 0)
                              & (sketch["n"] >= lo), "g"]
                   .to_numpy().astype(str))
    if len(cand) == 0:
        # nothing clears even the sketch lower bound — the exact result
        # is empty (an all-empty map output would lose its schema in
        # to_pandas)
        return pd.DataFrame({"g": pd.Series([], dtype=object),
                             "n": pd.Series([], dtype="int64")})
    cand_ref = ray.put(cand)

    def exact(t: pa.Table) -> pa.Table:
        c = ray.get(cand_ref)
        texts = t.column("text").to_pylist()
        grams = []
        for s in texts:
            w = s.split()
            grams.extend(" ".join(w[i:i + 3]) for i in range(len(w) - 2))
        if not grams or len(c) == 0:
            return pa.table({"g": pa.array([], type=pa.string()),
                             "n": pa.array([], type=pa.int64())})
        g, n = np.unique(np.array(grams, dtype=str), return_counts=True)
        pos = np.clip(np.searchsorted(c, g), 0, len(c) - 1)
        keep = c[pos] == g
        return pa.table({"g": pa.array(list(g[keep]), type=pa.string()),
                         "n": pa.array(n[keep].astype(np.int64))})

    out = (ds.map_batches(exact, batch_format="pyarrow")
           .groupby("g").aggregate(Sum("n", alias_name="n"))
           .to_pandas())
    out = out[out["n"] >= thresh]
    return (out.sort_values(["n", "g"], ascending=[False, True],
                            kind="mergesort")
            .reset_index(drop=True).astype({"n": "int64"}))


# ---------------------------------------------------- BPE merge training
_BPE_LOCAL_MAX = 100_000


def _bpe_pairs(syms: list[list[str]], cnt: np.ndarray) -> pd.DataFrame:
    """Weighted adjacent-pair counts over symbol sequences."""
    left, right, w = [], [], []
    for s, c in zip(syms, cnt):
        for i in range(len(s) - 1):
            left.append(s[i]); right.append(s[i + 1]); w.append(c)
    df = pd.DataFrame({"left": left, "right": right, "n": w})
    if df.empty:
        return df
    return df.groupby(["left", "right"], as_index=False)["n"].sum()


def _bpe_apply(syms: list[list[str]], a: str, b: str) -> list[list[str]]:
    """Replace every non-overlapping (a, b) adjacency left-to-right."""
    out = []
    for s in syms:
        r, i = [], 0
        while i < len(s):
            if i + 1 < len(s) and s[i] == a and s[i + 1] == b:
                r.append(a + b); i += 2
            else:
                r.append(s[i]); i += 1
        out.append(r)
    return out


def bpe_merges(sf_dir: str, n_merges: int = 12,
               local_max: int = _BPE_LOCAL_MAX) -> pd.DataFrame:
    """Byte-pair-encoding tokenizer training (Sennrich et al. 2016):
    learn the first ``n_merges`` merge rules from the corpus word
    frequencies. The CORPUS-SIZED work — the word-frequency count —
    is one pre-aggregated distributed exchange (np.unique partials →
    groupby-sum), exactly the wordcount shape that scales to 100 TB.
    The merge-learning loop then runs over the VOCABULARY (words ×
    counts), which is orders of magnitude smaller than the corpus:
    below ``local_max`` distinct words it folds on the driver (the
    same small-side shortcut as ``_local_components``); above, each
    round is a map_batches pair-count + groupby-sum + broadcast-rule
    apply over the distributed vocab table — same algebra, and the
    per-round exchange carries only (pair, partial-count) rows.
    Deterministic tie-break: highest count, then lexicographic
    (left, right). Output: one row per learned rule
    (rank, left, right, n = pair frequency when merged)."""
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["text"])

    def wc(t: pa.Table) -> pa.Table:
        toks = [w for s in t.column("text").to_pylist()
                for w in s.split()]
        if not toks:
            return pa.table({"word": pa.array([], type=pa.string()),
                             "n": pa.array([], type=pa.int64())})
        u, c = np.unique(np.array(toks, dtype=object),
                         return_counts=True)
        return pa.table({"word": pa.array(list(u), type=pa.string()),
                         "n": pa.array(c.astype(np.int64))})

    vocab_ds = (ds.map_batches(wc, batch_format="pyarrow")
                .groupby("word").aggregate(Sum("n", alias_name="n")))
    n_vocab = vocab_ds.count()

    rules = []
    if n_vocab <= local_max:
        v = vocab_ds.to_pandas()
        syms = [list(w) for w in v["word"]]
        cnt = v["n"].to_numpy(np.int64)
        for rank in range(n_merges):
            p = _bpe_pairs(syms, cnt)
            if p.empty or p["n"].max() < 2:
                break
            p = p.sort_values(["n", "left", "right"],
                              ascending=[False, True, True],
                              kind="mergesort")
            a, b, n = (p.iloc[0]["left"], p.iloc[0]["right"],
                       int(p.iloc[0]["n"]))
            rules.append((rank, a, b, n))
            syms = _bpe_apply(syms, a, b)
    else:
        cur = vocab_ds.map_batches(
            lambda t: pa.table({
                "syms": pa.array([list(w) for w in
                                  t.column("word").to_pylist()],
                                 type=pa.list_(pa.string())),
                "n": t.column("n")}),
            batch_format="pyarrow").materialize()
        for rank in range(n_merges):
            def pc_batch(t: pa.Table) -> pa.Table:
                d = _bpe_pairs(t.column("syms").to_pylist(),
                               t.column("n").to_numpy())
                if d.empty:
                    return pa.table({
                        "left": pa.array([], type=pa.string()),
                        "right": pa.array([], type=pa.string()),
                        "n": pa.array([], type=pa.int64())})
                return pa.Table.from_pandas(d, preserve_index=False)

            p = (cur.map_batches(pc_batch, batch_format="pyarrow")
                 .groupby(["left", "right"])
                 .aggregate(Sum("n", alias_name="n")).to_pandas())
            if p.empty or p["n"].max() < 2:
                break
            p = p.sort_values(["n", "left", "right"],
                              ascending=[False, True, True],
                              kind="mergesort")
            a, b, n = (p.iloc[0]["left"], p.iloc[0]["right"],
                       int(p.iloc[0]["n"]))
            rules.append((rank, a, b, n))

            def ap(t: pa.Table, _a=a, _b=b) -> pa.Table:
                return pa.table({
                    "syms": pa.array(
                        _bpe_apply(t.column("syms").to_pylist(), _a, _b),
                        type=pa.list_(pa.string())),
                    "n": t.column("n")})

            cur = cur.map_batches(ap, batch_format="pyarrow").materialize()

    return pd.DataFrame(rules, columns=["rank", "left", "right", "n"]) \
        .astype({"rank": "int64", "n": "int64"})


def pmi_bigrams(sf_dir: str, min_count: int = 10,
                topn: int = 50) -> pd.DataFrame:
    """Collocation mining: the ``topn`` word bigrams ranked by
    association lift — count(a,b) · N / (count(a) · count(b)), the
    monotone core of PMI (PMI = log lift), left unlogged so the score
    is one exact-integer product and ONE float64 division on both
    sides (bit-identical to the SQL twin; log would compare libm
    implementations instead of arithmetic). The corpus-sized work is a
    single pre-aggregated exchange: each batch emits np.unique'd
    (left, right, partial-n) rows for bigrams AND (w, '', n) sentinel
    rows for unigrams, one groupby-sum folds both. The lift join then
    runs over VOCABULARY-sized aggregates (pandas merge on the driver
    here; at 100 TB vocabulary outgrows the driver and the same merge
    becomes a word-bucketed co-partition join — the data-sized path is
    unchanged). ``min_count`` prunes the long tail before scoring, the
    standard PMI noise floor."""
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["text"])

    def counts(t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pylist()
        uni, bi = [], []
        for s in texts:
            w = s.split()
            uni.extend(w)
            bi.extend(f"{w[i]}\x1f{w[i+1]}" for i in range(len(w) - 1))
        lefts, rights, ns = [], [], []
        if uni:
            u, c = np.unique(np.array(uni, dtype=object),
                             return_counts=True)
            lefts.extend(u)
            rights.extend([""] * len(u))
            ns.extend(c)
        if bi:
            u, c = np.unique(np.array(bi, dtype=object),
                             return_counts=True)
            for pair, k in zip(u, c):
                a, b = pair.split("\x1f")
                lefts.append(a)
                rights.append(b)
                ns.append(k)
        return pa.table({"w1": pa.array(lefts, type=pa.string()),
                         "w2": pa.array(rights, type=pa.string()),
                         "n": pa.array(np.array(ns, dtype=np.int64))})

    agg = (ds.map_batches(counts, batch_format="pyarrow")
           .groupby(["w1", "w2"]).aggregate(Sum("n", alias_name="n"))
           .to_pandas())
    uni = agg[agg["w2"] == ""][["w1", "n"]].rename(
        columns={"n": "cu"})
    n_total = int(uni["cu"].sum())
    bi = agg[(agg["w2"] != "") & (agg["n"] >= min_count)].copy()
    bi = (bi.merge(uni.rename(columns={"w1": "w1k", "cu": "c1"}),
                   left_on="w1", right_on="w1k")
          .merge(uni.rename(columns={"w1": "w2k", "cu": "c2"}),
                 left_on="w2", right_on="w2k"))
    num = (bi["n"].to_numpy(np.int64) * n_total).astype(np.float64)
    den = bi["c1"].to_numpy(np.int64) * bi["c2"].to_numpy(np.int64)
    bi["lift"] = num / den
    out = (bi[["w1", "w2", "n", "lift"]]
           .rename(columns={"n": "n_pair"})
           .sort_values(["lift", "w1", "w2"],
                        ascending=[False, True, True], kind="mergesort")
           .head(topn).reset_index(drop=True))
    return out.astype({"n_pair": "int64"})


def trigram_spectrum(sf_dir: str, cap: int = 10) -> pd.DataFrame:
    """FREQUENCY-OF-FREQUENCIES spectrum of word trigrams (how many
    distinct trigrams occur exactly k times, tail lumped at 10+) — the
    Good–Turing input and the vocabulary-richness curve that predicts
    dedup and compression behavior. Grams are 64-bit md5-hashed before
    the exchange (the string never shuffles); ONE ``hash % 64`` bucket
    exchange merges per-block gram counts, each bucket emits ≤ cap
    spectrum counters. Same tokenizer as ``heavy_hitter_trigrams``
    (whitespace split), so the twin's regexp token stream matches."""
    from ..functions.hashing import hash64_many

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["text"])

    def derive(t: pa.Table) -> pa.Table:
        grams = []
        for s in t.column("text").to_pylist():
            w = s.split()
            grams.extend(" ".join(w[i:i + 3])
                         for i in range(len(w) - 2))
        if not grams:
            return pa.table({"h": pa.array([], type=pa.int64()),
                             "n": pa.array([], type=pa.int64())})
        g, n = np.unique(np.array(grams, dtype=object),
                         return_counts=True)
        h = hash64_many(g).astype(np.int64)
        return pa.table({"h": pa.array(h),
                         "n": pa.array(n.astype(np.int64))})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        h = g["h"].to_numpy(np.int64)
        n = g["n"].to_numpy(np.int64)
        _, inv = np.unique(h, return_inverse=True)
        tot = np.bincount(inv, weights=n).astype(np.int64)
        k = np.minimum(tot, cap)
        return pd.DataFrame({
            "occ": np.arange(1, cap + 1, dtype=np.int64),
            "n_grams": np.bincount(k, minlength=cap + 1)[1:]
            .astype(np.int64)})

    parts = bucket_map(ds.map_batches(derive, batch_format="pyarrow"),
                       "h", fold)
    out = (parts.groupby("occ", as_index=False)["n_grams"].sum()
           .sort_values("occ", kind="mergesort").reset_index(drop=True))
    return out[out["n_grams"] > 0].reset_index(drop=True) \
        .astype("int64")


def token_head_tail_ladder(sf_dir: str, levels: int = 4) -> pd.DataFrame:
    """HEAD/TAIL BREAKS ladder of the token frequency distribution —
    the heavy-tail clustering rule (Jiang): split the vocabulary at
    its mean frequency, keep the head, repeat. Four unrolled levels
    report the integer milli mean threshold, vocabulary count
    entering the level, head size, and the head's share of tokens
    and of mass in exact bps — all pure integer arithmetic (strict
    1000*f > thr cut so both sides agree on boundary tokens), with
    -1 sentinels once the head degenerates below two tokens. One
    frequencies-only vocabulary fold (the ``top_tokens`` exchange
    shape) — the ladder runs on the driver's vocab grid."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["text"])

    def counts(t: pa.Table) -> pa.Table:
        toks = []
        for s in t.column("text").to_pylist():
            toks.extend(s.split())
        u, c = np.unique(np.array(toks, dtype=object),
                         return_counts=True)
        return pa.table({"tok": pa.array(u, type=pa.string()),
                         "f": pa.array(c.astype(np.int64))})

    vocab = (ds.map_batches(counts, batch_format="pyarrow")
             .to_pandas().groupby("tok", as_index=False)["f"].sum())
    f = [int(x) for x in vocab["f"]]
    rows = []
    for lvl in range(1, levels + 1):
        cnt = len(f)
        if cnt == 0:
            rows.append((lvl, -1, 0, -1, -1, -1))
            continue
        mass = sum(f)
        thr = 1000 * mass // cnt
        head = [x for x in f if 1000 * x > thr]
        if cnt < 2:
            rows.append((lvl, -1, cnt, -1, -1, -1))
        else:
            rows.append((lvl, thr, cnt, len(head),
                         10_000 * len(head) // cnt,
                         10_000 * sum(head) // mass))
        f = head
    return pd.DataFrame(rows, columns=[
        "level", "thr_milli", "n_tokens_level", "n_head",
        "head_share_bps", "mass_share_bps"]).astype("int64")


def vocab_oov_transfer(sf_dir: str, k: int = 1000) -> pd.DataFrame:
    """HELD-OUT OOV TRANSFER audit — the question a tokenizer vocab
    actually has to answer: does the top-k vocabulary built on HALF
    the corpus (even doc_ids) still cover the other half? Phase 1
    folds train-token frequencies and fixes the vocab under the
    exact (freq desc, token asc) total order; phase 2 re-streams the
    odd-doc tokens against the broadcast vocab set and reports token
    and type coverage with OOV rates in exact bps — pure integers
    end to end, the two-phase split inherent to the held-out
    design."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def counts(parity: int):
        def fn(t: pa.Table) -> pa.Table:
            did = t.column("doc_id").to_numpy().astype(np.int64)
            toks = []
            for d, s in zip(did, t.column("text").to_pylist()):
                if d % 2 == parity:
                    toks.extend(s.split())
            if not toks:
                return pa.table({"tok": pa.array([], type=pa.string()),
                                 "f": pa.array([], type=pa.int64())})
            u, c = np.unique(np.array(toks, dtype=object),
                             return_counts=True)
            return pa.table({"tok": pa.array(u, type=pa.string()),
                             "f": pa.array(c.astype(np.int64))})
        return fn

    train = (ds.map_batches(counts(0), batch_format="pyarrow")
             .to_pandas().groupby("tok", as_index=False)["f"].sum())
    train = train.sort_values(["f", "tok"],
                              ascending=[False, True],
                              kind="mergesort").head(k)
    vocab = set(train["tok"])
    n_train = int(train["f"].sum())

    test = (ds.map_batches(counts(1), batch_format="pyarrow")
            .to_pandas().groupby("tok", as_index=False)["f"].sum())
    n_test = int(test["f"].sum())
    in_v = test["tok"].isin(vocab)
    covered = int(test.loc[in_v, "f"].sum())
    n_types = len(test)
    types_cov = int(in_v.sum())
    return pd.DataFrame([(len(vocab), n_train, n_test, covered,
                          10_000 * (n_test - covered) // n_test
                          if n_test else 0,
                          n_types, types_cov,
                          10_000 * (n_types - types_cov) // n_types
                          if n_types else 0)],
                        columns=["vocab_size", "n_train_tokens",
                                 "n_test_tokens", "covered_tokens",
                                 "token_oov_bps", "n_test_types",
                                 "covered_types", "type_oov_bps"]) \
        .astype("int64")


def docs_entropy_rate_by_source(sf_dir: str) -> pd.DataFrame:
    """Trigram conditional ENTROPY RATE per source — H(w3 | w1 w2) in
    micro-nats, the compressibility / repetitiveness proxy a mixture
    spec prices sources by (a low-entropy source is boilerplate; a
    high-entropy one is diverse text). Exact and order-independent by
    construction: H = (S_ctx - S_tri) // N where S = sum of
    floor(c*ln(c)*1e6) over group counts — the per-count terms are
    floored BEFORE summing (identically in the twin), so float addition
    order can never flip a bit, and ln comes from libm on both sides.

    Shape: per batch explode (source, ctx="w1 w2", trig="w1 w2 w3") →
    ONE exchange bucketed by hash(ctx)%64 (a trigram always co-buckets
    with its context, so both count families are complete in-bucket) →
    per bucket a pandas double-groupby emits one fixed-width partial
    row per source; the driver folds |sources| rows."""
    import math

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["source", "text"])

    def explode(t: pa.Table) -> pa.Table:
        srcs, ctxs, trigs = [], [], []
        for src, text in zip(t.column("source").to_pylist(),
                             t.column("text").to_pylist()):
            toks = text.split()
            for i in range(len(toks) - 2):
                ctxs.append(toks[i] + " " + toks[i + 1])
                trigs.append(ctxs[-1] + " " + toks[i + 2])
                srcs.append(src)
        return pa.table({"source": pa.array(srcs, type=pa.string()),
                         "ctx": pa.array(ctxs, type=pa.string()),
                         "trig": pa.array(trigs, type=pa.string())})

    def _s_of(counts: np.ndarray) -> int:
        # sum of floor(c*ln(c)*1e6) via a per-unique-count table: counts
        # repeat heavily and math.log is libm's ln (what DuckDB calls),
        # keeping both sides bit-identical
        u, n = np.unique(counts, return_counts=True)
        return int(sum(int(math.floor(int(c) * math.log(int(c)) * 1e6))
                       * int(k) for c, k in zip(u, n) if c > 1))

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for src, sub in g.groupby("source"):
            cc = sub.groupby("ctx").size().to_numpy()
            tc = sub.groupby("trig").size().to_numpy()
            rows.append((src, int(cc.sum()), len(cc), len(tc),
                         _s_of(cc), _s_of(tc)))
        return pd.DataFrame(rows, columns=[
            "source", "n", "n_ctx", "n_trig", "s_ctx", "s_tri"])

    parts = bucket_map(docs.map_batches(explode, batch_format="pyarrow"),
                       lambda t: _str_hash(t, "ctx"), fold)
    g = parts.groupby("source", as_index=False).sum()
    g["entropy_rate_micro_nats"] = [
        (int(sc) - int(st)) // int(n) if n else 0
        for sc, st, n in zip(g["s_ctx"], g["s_tri"], g["n"])]
    out = g.rename(columns={"n": "n_trigrams",
                            "n_ctx": "n_contexts",
                            "n_trig": "n_distinct_trigrams"})
    out = out[["source", "n_trigrams", "n_contexts",
               "n_distinct_trigrams", "entropy_rate_micro_nats"]]
    return (out.sort_values("source", kind="mergesort")
            .reset_index(drop=True)
            .astype({c: "int64" for c in out.columns if c != "source"}))


def source_js_divergence_matrix(sf_dir: str) -> pd.DataFrame:
    """Pairwise Jensen-Shannon divergence between the unigram
    distributions of every two sources — the source-redundancy matrix
    a mixture spec consults before weighting (a near-zero JS pair is
    the same corpus twice; a high-JS pair adds diversity). Integer-
    exact in micro-nats: every per-token log argument is an INTEGER
    (u = ca*Nb, v = cb*Na, so 2p/(p+q) = 2u/(u+v)), logs come from
    libm (``math.log`` here, ``ln`` in the twin — bit-identical), and
    each per-token term is floored BEFORE summing, so no float
    addition order can flip a bit:
    js = (S_a//Na + S_b//Nb) // 2,
    S_a = sum floor(1e6*ca*(ln(2u) - ln(u+v))) over tokens.

    Shape: per-source token totals from a zero-shuffle pre-pass
    (|sources| rows, captured by closure) → (source, token) explode →
    ONE hash(token)%64 exchange → per bucket a token×source count
    pivot and, per source pair, vectorized integer u/v with a
    libm-log table — emitting one (pair, S_a_part, S_b_part,
    n_common) partial; the driver folds 64×|pairs| rows."""
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["source", "text"])

    def tok_totals(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "source": t.column("source").to_pylist(),
            "n": [len(s.split()) for s in t.column("text").to_pylist()]})
        g = df.groupby("source", as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    totals = (docs.map_batches(tok_totals, batch_format="pyarrow")
              .to_pandas().groupby("source", as_index=False).sum())
    N = dict(zip(totals["source"], totals["n"].astype(np.int64)))
    sources = sorted(N)

    def explode(t: pa.Table) -> pa.Table:
        srcs, toks = [], []
        for src, text in zip(t.column("source").to_pylist(),
                             t.column("text").to_pylist()):
            ws = text.split()
            srcs.extend([src] * len(ws))
            toks.extend(ws)
        return pa.table({"source": pa.array(srcs, type=pa.string()),
                         "tok": pa.array(toks, type=pa.string())})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        import math as _math
        _libm_log = np.frompyfunc(_math.log, 1, 1)
        piv = (g.groupby(["tok", "source"]).size().unstack(fill_value=0)
               .reindex(columns=sources, fill_value=0))
        cnt = piv.to_numpy(np.int64)
        rows = []
        for i, a in enumerate(sources):
            for j in range(i + 1, len(sources)):
                b = sources[j]
                ca, cb = cnt[:, i], cnt[:, j]
                m = (ca > 0) | (cb > 0)
                ca, cb = ca[m], cb[m]
                u = ca * np.int64(N[b])
                v = cb * np.int64(N[a])
                luv = _libm_log((u + v).astype(np.float64)) \
                    .astype(np.float64)
                sa = sb = 0
                ma = ca > 0
                if ma.any():
                    l2u = _libm_log((2 * u[ma]).astype(np.float64)) \
                        .astype(np.float64)
                    sa = int(np.floor(
                        (1000000 * ca[ma]).astype(np.float64)
                        * (l2u - luv[ma])).sum())
                mb = cb > 0
                if mb.any():
                    l2v = _libm_log((2 * v[mb]).astype(np.float64)) \
                        .astype(np.float64)
                    sb = int(np.floor(
                        (1000000 * cb[mb]).astype(np.float64)
                        * (l2v - luv[mb])).sum())
                rows.append((a, b, int((ma & mb).sum()), sa, sb))
        return pd.DataFrame(rows, columns=["source_a", "source_b",
                                           "n_common", "s_a", "s_b"])

    parts = bucket_map(docs.map_batches(explode, batch_format="pyarrow"),
                       lambda t: _str_hash(t, "tok"), fold)
    g = parts.groupby(["source_a", "source_b"], as_index=False).sum()
    g["js_micro_nats"] = [
        (int(sa) // int(N[a]) + int(sb) // int(N[b])) // 2
        for a, b, sa, sb in zip(g["source_a"], g["source_b"],
                                g["s_a"], g["s_b"])]
    out = g[["source_a", "source_b", "n_common", "js_micro_nats"]]
    return (out.sort_values(["source_a", "source_b"], kind="mergesort")
            .reset_index(drop=True)
            .astype({"n_common": "int64", "js_micro_nats": "int64"}))


def source_length_ks_matrix(sf_dir: str) -> pd.DataFrame:
    """Pairwise Kolmogorov-Smirnov distance between the document-LENGTH
    distributions of every two sources — the structural companion to
    ``source_js_divergence_matrix``: two sources can share vocabulary
    (low JS) yet chunk completely differently (high KS on n_chars), and
    a mixture spec needs both axes. EXACT integers throughout — KS is
    max over the length grid of |cum_a*Nb - cum_b*Na|, reported as
    ks_micro = 1e6 * max_num // (Na*Nb); no floats anywhere.

    Shape: per-batch (source, n_chars) count collapse (bounded grid) →
    the driver folds a |sources| x |distinct lengths| table, builds
    per-source cumulative counts with one sort + cumsum, and takes the
    190 pairwise maxima vectorized."""
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["source", "n_chars"])

    def part(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "source": t.column("source").to_pylist(),
            "n_chars": t.column("n_chars").to_numpy()
            .astype(np.int64), "n": 1})
        return pa.Table.from_pandas(
            df.groupby(["source", "n_chars"], as_index=False).sum(),
            preserve_index=False)

    g = (docs.map_batches(part, batch_format="pyarrow").to_pandas()
         .groupby(["source", "n_chars"], as_index=False).sum())
    sources = sorted(g["source"].unique())
    grid = np.sort(g["n_chars"].unique())
    cum = {}
    tot = {}
    for srate in sources:
        sub = g[g["source"] == srate]
        c = np.zeros(len(grid), np.int64)
        c[np.searchsorted(grid, sub["n_chars"].to_numpy(np.int64))] \
            = sub["n"].to_numpy(np.int64)
        cum[srate] = np.cumsum(c)
        tot[srate] = int(cum[srate][-1])
    rows = []
    for i, a in enumerate(sources):
        for b in sources[i + 1:]:
            num = int(np.abs(cum[a] * tot[b]
                             - cum[b] * tot[a]).max())
            rows.append((a, b,
                         (1_000_000 * num) // (tot[a] * tot[b])))
    out = pd.DataFrame(rows, columns=["source_a", "source_b",
                                      "ks_micro"])
    return (out.sort_values(["source_a", "source_b"],
                            kind="mergesort")
            .reset_index(drop=True).astype({"ks_micro": "int64"}))


def lang_given_source_entropy(sf_dir: str) -> pd.DataFrame:
    """Conditional entropy H(lang | source) per source, in micro-nats —
    how much language routing a source still needs AFTER you know the
    source: zero means the source is monolingual (route by source tag
    alone), high means a per-document language-ID pass is mandatory.
    The proven fixed-point pattern: H_s = (floor-term sum over langs of
    c*ln(c)) subtracted from N_s*ln(N_s), divided by N_s — libm ln on
    INTEGER counts, floored before summing, bit-identical in the twin.

    Shape: per-batch (source, lang) count collapse → the driver folds a
    |sources|x|langs| grid — ZERO shuffle."""
    import math

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["source", "lang"])

    def part(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({"source": t.column("source").to_pylist(),
                           "lang": t.column("lang").to_pylist(),
                           "n": 1})
        return pa.Table.from_pandas(
            df.groupby(["source", "lang"], as_index=False).sum(),
            preserve_index=False)

    g = (docs.map_batches(part, batch_format="pyarrow").to_pandas()
         .groupby(["source", "lang"], as_index=False).sum())
    rows = []
    for src, sub in g.groupby("source"):
        c = sub["n"].to_numpy(np.int64)
        n = int(c.sum())
        s_l = sum(int(math.floor(int(x) * math.log(int(x)) * 1e6))
                  for x in c if int(x) > 1)
        s_n = int(math.floor(n * math.log(n) * 1e6)) if n > 1 else 0
        rows.append((src, n, len(c), (s_n - s_l) // n if n else 0))
    out = pd.DataFrame(rows, columns=["source", "n_docs", "n_langs",
                                      "h_micro_nats"])
    return (out.sort_values("source", kind="mergesort")
            .reset_index(drop=True)
            .astype({c: "int64" for c in out.columns
                     if c != "source"}))


def docs_chunk_straddle_loss(sf_dir: str,
                             windows: tuple = (128, 512)) -> pd.DataFrame:
    """CHUNK-BOUNDARY context loss: when documents are cut into fixed
    ``W``-char windows (the context-window prep every training pipeline
    runs), what share of TRIGRAM contexts straddles a boundary and is
    destroyed — the number that decides W against the corpus instead of
    by convention. Token i's char offset is the cumsum of
    ``len(token)+1`` (single-space joining); trigram (i..i+2) straddles
    W iff its first and last char land in different windows. Exact
    integer shares in bps per W.

    Shape: per-batch vectorized offsets (one cumsum per batch over the
    flattened token stream) → one fixed-width partial per (batch, W) —
    ZERO shuffle."""
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["text"])
    ws = list(windows)

    def part(t: pa.Table) -> pa.Table:
        tok_lists = [s.split() for s in t.column("text").to_pylist()]
        counts = np.fromiter((len(x) for x in tok_lists),
                             dtype=np.int64, count=len(tok_lists))
        total = int(counts.sum())
        if total == 0:
            z = np.zeros(len(ws) * 2 + 1, np.int64)
            return pa.table({"v": pa.array([z.tobytes()],
                                           pa.large_binary())})
        lens = np.fromiter((len(w) for toks in tok_lists for w in toks),
                           dtype=np.int64, count=total)
        cum = np.cumsum(lens + 1) - (lens + 1)   # char start, per doc?
        # restart offsets at each doc: subtract the doc's base
        starts = np.cumsum(counts) - counts
        base = np.repeat(cum[np.minimum(starts, total - 1)], counts)
        off = cum - base
        # trigram i spans tokens i..i+2 WITHIN a doc
        doc_id = np.repeat(np.arange(len(counts)), counts)
        ok3 = np.zeros(total, dtype=bool)
        ok3[:-2] = doc_id[:-2] == doc_id[2:]
        i3 = np.flatnonzero(ok3)
        s_char = off[i3]
        e_char = off[i3 + 2] + lens[i3 + 2] - 1
        out = [len(i3)]
        for W in ws:
            strad = int((s_char // W != e_char // W).sum())
            out.extend([strad, 0])
        return pa.table({"v": pa.array(
            [np.array(out, np.int64).tobytes()], pa.large_binary())})

    rows = docs.map_batches(part, batch_format="pyarrow").take_all()
    v = np.sum([np.frombuffer(r["v"], dtype=np.int64) for r in rows],
               axis=0)
    n_tri = int(v[0])
    out = []
    for idx, W in enumerate(ws):
        strad = int(v[1 + idx * 2])
        out.append((W, n_tri, strad,
                    strad * 10000 // n_tri if n_tri else 0))
    return pd.DataFrame(out, columns=["window_chars", "n_trigrams",
                                      "n_straddling", "loss_bp"]) \
        .astype("int64")


def token_position_drift(sf_dir: str, topn: int = 30) -> pd.DataFrame:
    """POSITIONAL bias of the head vocabulary: for each of the corpus's
    top-``topn`` tokens, its exact mean RELATIVE position within
    documents (milli: 0 = always opens the doc, 1000 = always closes
    it, ~500 = positionally neutral) — boilerplate headers and footers
    announce themselves here long before any template detector runs.
    relpos of occurrence i in an n-token doc (n >= 2) is
    floor(1000*i/(n-1)); single-token docs are excluded.

    Shape: pass 1 finds the top-N tokens (pre-aggregated wordcount,
    ties on token text); pass 2 broadcasts that set by closure and
    folds (sum_relpos, n) per head token per batch — ZERO shuffle in
    pass 2, |topn| output rows."""
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["text"])

    def wc(t: pa.Table) -> pa.Table:
        toks = np.array([w for s in t.column("text").to_pylist()
                         for w in s.split()], dtype=object)
        if len(toks) == 0:
            return pa.table({"tok": pa.array([], type=pa.string()),
                             "n": pa.array([], type=pa.int64())})
        u, c = np.unique(toks, return_counts=True)
        return pa.table({"tok": pa.array(list(u), type=pa.string()),
                         "n": pa.array(c.astype(np.int64))})

    agg = (docs.map_batches(wc, batch_format="pyarrow").to_pandas()
           .groupby("tok", as_index=False).sum()
           .sort_values(["n", "tok"], ascending=[False, True])
           .head(topn))
    head_sorted = np.sort(np.array(list(agg["tok"]), dtype=object))
    head_counts = dict(zip(agg["tok"], agg["n"].astype(np.int64)))

    def part(t: pa.Table) -> pa.Table:
        tok_lists = [x.split() for x in t.column("text").to_pylist()]
        counts = np.fromiter((len(x) for x in tok_lists),
                             dtype=np.int64, count=len(tok_lists))
        total = int(counts.sum())
        s = np.zeros(len(head_sorted), np.int64)
        c = np.zeros(len(head_sorted), np.int64)
        if total:
            flat = np.fromiter((w for ts_ in tok_lists for w in ts_),
                               dtype=object, count=total)
            base = np.repeat(np.cumsum(counts) - counts, counts)
            i = np.arange(total, dtype=np.int64) - base
            n_rep = np.repeat(counts, counts)
            m = (n_rep >= 2) & np.isin(flat, head_sorted)
            if m.any():
                idx = np.searchsorted(head_sorted, flat[m])
                rel = (1000 * i[m]) // (n_rep[m] - 1)
                np.add.at(s, idx, rel)
                np.add.at(c, idx, 1)
        return pa.table({"v": pa.array(
            [np.concatenate([s, c]).tobytes()], pa.large_binary())})

    rows = docs.map_batches(part, batch_format="pyarrow").take_all()
    v = np.sum([np.frombuffer(r["v"], dtype=np.int64) for r in rows],
               axis=0)
    s, c = v[:len(head_sorted)], v[len(head_sorted):]
    out = pd.DataFrame({
        "tok": list(head_sorted),
        "n_total": [int(head_counts[t]) for t in head_sorted],
        "n_positioned": c.astype(np.int64),
        "mean_relpos_milli": [int(si) // int(ci) if ci else 0
                              for si, ci in zip(s, c)]})
    return (out.sort_values("tok", kind="mergesort")
            .reset_index(drop=True)
            .astype({x: "int64" for x in out.columns if x != "tok"}))
