"""Span assembly over the testdata ``documents`` table — the flagship
``entry()`` pipeline (FIXTURES.md §6): deterministically span-ify each
document into the interleaved text+media shape mandated by BASELINE.json
``input_hint`` (doc_id:string, spans:list<struct<kind,text,media_ref,
offset>>).

Rule: split ``text`` on whitespace; token i becomes a media span when
``i % 4 == 3`` with ``media_ref = f"m://{doc_id}/{i}"``; ``offset`` is the
cumulative character length of prior span payloads. Both the nested and
the flattened (SQL-checkable) forms are produced by the same kernel.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import ray.data

from ..schemas import SPAN_STRUCT
from .kernels import greedy_pack, pack_docs


def assemble_spans_batch(t: pa.Table) -> pa.Table:
    """Batch-vectorized span assembly: tokenization is the only per-doc
    Python step; kinds/payloads/offsets are built as flat numpy/Arrow
    arrays and wrapped into the nested list<struct> column via
    ``ListArray.from_arrays`` — no per-token dict building."""
    doc_ids = [str(d) for d in t.column("doc_id").to_pylist()]
    texts = t.column("text").to_pylist()
    tok_lists = [s.split() for s in texts]
    counts = np.fromiter((len(x) for x in tok_lists), dtype=np.int64,
                         count=len(tok_lists))
    total = int(counts.sum())
    # flat per-span arrays
    idx = (np.arange(total, dtype=np.int64)
           - np.repeat(np.cumsum(counts) - counts, counts))
    is_media = (idx % 4) == 3
    flat_toks = np.fromiter((w for toks in tok_lists for w in toks),
                            dtype=object, count=total)
    span_text = np.where(is_media, "", flat_toks)
    refs = np.full(total, "", dtype=object)
    did_rep = np.repeat(np.asarray(doc_ids, dtype=object), counts)
    mpos = np.flatnonzero(is_media)
    if len(mpos):
        refs[mpos] = [f"m://{did_rep[i]}/{idx[i]}" for i in mpos]
    # offset = per-doc exclusive cumsum of payload lengths
    if total:
        lens = (np.frompyfunc(len, 1, 1)(span_text).astype(np.int64)
                + np.frompyfunc(len, 1, 1)(refs).astype(np.int64))
        cum = np.cumsum(lens) - lens
        starts = np.cumsum(counts) - counts
        doc_base = np.repeat(cum[np.minimum(starts, total - 1)], counts)
        offsets = cum - doc_base
    else:
        offsets = np.array([], dtype=np.int64)
    struct = pa.StructArray.from_arrays(
        [
            pa.array(np.where(is_media, "media", "text"), type=pa.string()),
            pa.array(span_text, type=pa.string()),
            pa.array(refs, type=pa.string()),
            pa.array(offsets.astype(np.int32)),
        ],
        fields=list(SPAN_STRUCT),
    )
    list_offsets = np.zeros(len(counts) + 1, dtype=np.int32)
    list_offsets[1:] = np.cumsum(counts)
    spans = pa.ListArray.from_arrays(pa.array(list_offsets), struct)
    return pa.table(
        {
            "doc_id": pa.array(doc_ids, type=pa.string()),
            "spans": spans.cast(pa.list_(SPAN_STRUCT)),
        }
    )


def flatten_spans_batch(t: pa.Table) -> pa.Table:
    """Nested spans → one row per span (the SQL-comparable projection)."""
    import pyarrow.compute as pc

    spans = t.column("spans")
    flat = pc.list_flatten(spans)
    parent = pc.list_parent_indices(spans)
    doc_id = pc.take(t.column("doc_id"), parent)
    # span_idx: position within each list
    lengths = pc.list_value_length(spans).to_numpy()
    idx = np.concatenate([np.arange(n, dtype=np.int64) for n in lengths]) \
        if len(lengths) else np.array([], dtype=np.int64)
    return pa.table(
        {
            "doc_id": doc_id,
            "span_idx": pa.array(idx),
            "kind": pc.struct_field(flat, "kind"),
            "text": pc.struct_field(flat, "text"),
            "media_ref": pc.struct_field(flat, "media_ref"),
            "offset": pc.struct_field(flat, "offset").cast(pa.int64()),
        }
    )


def spanify(sf_dir: str) -> ray.data.Dataset:
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    return ds.map_batches(assemble_spans_batch, batch_format="pyarrow")


def spans_flat(sf_dir: str):
    return spanify(sf_dir).map_batches(flatten_spans_batch,
                                       batch_format="pyarrow").to_pandas()


def pack_sequences(sf_dir: str, budget: int = 2048,
                   part_size: int = 256) -> "pd.DataFrame":
    """Sequence packing (the training-data step after span assembly):
    greedily pack documents into fixed-character-budget sequences.

    Packing is inherently order-dependent, so the scalable form is
    PARTITION-LOCAL packing: docs are grouped into bounded id-blocks
    (``doc_id // part_size``), packed greedily in doc_id order inside
    each block, and sequences never cross blocks — every block packs
    independently and in parallel, and a resumed run re-packs each block
    identically (no global sequential state). seq_id = block * 2^20 +
    local index is unique and deterministic. A doc longer than the
    budget gets a sequence of its own (never split — the span layer
    already bounds doc length upstream at 100 TB).

    Output: one row per doc — (doc_id, seq_id, seq_off, n_chars).
    Golden oracle: straight-line single-process packer."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "n_chars"])

    def tag(t: pa.Table) -> pa.Table:
        block = t.column("doc_id").to_numpy() // part_size
        return t.append_column("block", pa.array(block.astype(np.int64)))

    out = (ds.map_batches(tag, batch_format="pyarrow")
           .groupby("block").map_groups(
               functools.partial(pack_docs, budget=budget),
               batch_format="pandas")
           .to_pandas())
    return out.astype({"seq_id": "int64", "seq_off": "int64",
                       "n_chars": "int64"})


def interleaved_pack(sf_dir: str, budget: int = 2048,
                     part_size: int = 256,
                     media_cost: int = 16) -> "pd.DataFrame":
    """Flagship interleaved composition, end to end: span-assemble each
    document (text tokens + ``m://doc/i`` media spans per the entry()
    rule), charge media spans a fixed ``media_cost`` token budget,
    'decode' each media span with the deterministic md5 feature stub
    (the same honest fake as ``media.MediaFeatureStage``), and greedily
    pack whole documents into fixed-budget interleaved sequences.

    Scale shape mirrors ``pack_sequences``: per-doc derivation is one
    vectorized map over flat token arrays (no per-token Python in the
    hot path; md5 only over the 1-in-4 media spans, the honest stand-in
    for a decoder); packing is PARTITION-LOCAL (``doc_id // part_size``
    blocks, sequences never cross blocks) so every block packs
    independently, deterministically, resumably. One exchange total.

    Output: one row per sequence — (seq_id, n_docs, n_spans, n_media,
    n_text_chars, cost, media_sig) where media_sig is the XOR of the
    md5-stub features of every media span in the sequence
    (order-independent, so the reduce is exchange-safe).
    Golden oracle: straight-line single-process reimplementation."""
    import hashlib

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def derive(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy().astype(np.int64)
        toks = [s.split() for s in t.column("text").to_pylist()]
        n_tok = np.fromiter((len(x) for x in toks), dtype=np.int64,
                            count=len(toks))
        total = int(n_tok.sum())
        doc_rep = np.repeat(np.arange(len(ids), dtype=np.int64), n_tok)
        idx = (np.arange(total, dtype=np.int64)
               - np.repeat(np.cumsum(n_tok) - n_tok, n_tok))
        is_media = (idx % 4) == 3
        flat = np.fromiter((w for ws in toks for w in ws),
                           dtype=object, count=total)
        lens = np.frompyfunc(len, 1, 1)(flat).astype(np.int64)
        lens[is_media] = 0
        n_text_chars = np.bincount(doc_rep, weights=lens,
                                   minlength=len(ids)).astype(np.int64)
        n_media = n_tok // 4
        # md5 feature stub per media span, XOR-reduced per doc
        sig = np.zeros(len(ids), dtype=np.uint64)
        md5 = hashlib.md5
        fb = int.from_bytes
        for d, i in zip(doc_rep[is_media], idx[is_media]):
            ref = f"m://{ids[d]}/{i}"
            sig[d] ^= np.uint64(fb(md5(ref.encode()).digest()[:8], "big"))
        return pa.table({
            "doc_id": pa.array(ids),
            "n_spans": pa.array(n_tok),
            "n_media": pa.array(n_media),
            "n_text_chars": pa.array(n_text_chars),
            "cost": pa.array(n_text_chars + media_cost * n_media),
            "media_sig": pa.array(sig.view(np.int64)),
            "block": pa.array(ids // part_size)})

    def pack(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values("doc_id", kind="mergesort")
        seq, _ = greedy_pack(g["cost"].to_numpy(np.int64), budget)
        base = int(g["block"].iloc[0]) << 20
        g = g.assign(seq_id=base + seq)
        sig = g.groupby("seq_id")["media_sig"].apply(
            lambda s: np.bitwise_xor.reduce(s.to_numpy(np.int64)))
        out = g.groupby("seq_id", as_index=False).agg(
            n_docs=("doc_id", "size"), n_spans=("n_spans", "sum"),
            n_media=("n_media", "sum"),
            n_text_chars=("n_text_chars", "sum"), cost=("cost", "sum"))
        out["media_sig"] = sig.to_numpy(np.int64)
        return out

    out = (ds.map_batches(derive, batch_format="pyarrow")
           .groupby("block").map_groups(pack, batch_format="pandas")
           .to_pandas())
    return out.astype({c: "int64" for c in out.columns})


def spans_kind_transitions(sf_dir: str) -> "pd.DataFrame":
    """Interleaving-structure profile of the span stream: counts of each
    (from_kind -> to_kind) transition between CONSECUTIVE spans within a
    document, with the corpus share in basis points. The transition
    matrix is what a multimodal packer and the frame-sampling stages key
    on — a corpus whose media spans cluster back-to-back packs very
    differently from one that strictly alternates.

    Shape: the real assembly kernel runs per batch; transitions fold
    from the nested ListArray directly (flat kind codes, doc-boundary
    positions masked out of the pair stream, one bincount) into a
    4-cell partial per batch — ZERO shuffle, driver folds a 4-vector."""
    import pandas as pd

    ds = spanify(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        spans = t.column("spans")
        flat = pc.list_flatten(spans)
        kinds = pc.equal(pc.struct_field(flat, "kind"), "media") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        lens = pc.list_value_length(spans).to_numpy().astype(np.int64)
        total = int(lens.sum())
        if total == 0:
            return pa.table({"cells": pa.array(
                [np.zeros(4, np.int64).tobytes()], type=pa.binary())})
        # pair (i, i+1) is valid unless i is a doc's last span
        ends = np.cumsum(lens) - 1
        valid = np.ones(total, dtype=bool)
        valid[-1] = False
        valid[ends[ends < total]] = False
        a = kinds[:-1][valid[:-1]]
        b = kinds[1:][valid[:-1]]
        cells = np.bincount(a * 2 + b, minlength=4).astype(np.int64)
        return pa.table({"cells": pa.array([cells.tobytes()],
                                           type=pa.binary())})

    rows = ds.map_batches(partial, batch_format="pyarrow").take_all()
    cells = np.sum([np.frombuffer(r["cells"], dtype=np.int64)
                    for r in rows], axis=0) if rows \
        else np.zeros(4, np.int64)
    total = int(cells.sum())
    names = ["text", "media"]
    out = [(names[c // 2], names[c % 2], int(cells[c]),
            int(cells[c]) * 10000 // total if total else 0)
           for c in range(4) if cells[c] > 0]
    return pd.DataFrame(out, columns=["from_kind", "to_kind", "n_pairs",
                                      "share_bp"]) \
        .sort_values(["from_kind", "to_kind"]).reset_index(drop=True) \
        .astype({"n_pairs": "int64", "share_bp": "int64"})


def spans_media_density_by_lang(sf_dir: str) -> "pd.DataFrame":
    """Per-language multimodal mix of the assembled interleaved corpus:
    documents, spans, media spans and the media share in basis points,
    per ``lang`` — the first question a multimodal mixture spec asks
    (which languages are text-only, which carry media walls). Runs the
    REAL assembly kernel per batch, counts kinds straight off the
    nested ListArray, and folds a |langs|-sized pandas partial per
    batch — ZERO shuffle."""
    import pandas as pd
    import pyarrow.compute as pc

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text", "lang"])

    def partial(t: pa.Table) -> pa.Table:
        st = assemble_spans_batch(t.select(["doc_id", "text"]))
        spans = st.column("spans")
        flat = pc.list_flatten(spans)
        is_media = pc.equal(pc.struct_field(flat, "kind"), "media") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        lens = pc.list_value_length(spans).to_numpy().astype(np.int64)
        parent = np.repeat(np.arange(len(lens)), lens)
        media_per_doc = np.bincount(parent, weights=is_media,
                                    minlength=len(lens)).astype(np.int64)
        df = pd.DataFrame({
            "lang": t.column("lang").to_pylist(),
            "n_docs": 1, "n_spans": lens,
            "n_media": media_per_doc})
        g = df.groupby("lang", as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    g = (ds.map_batches(partial, batch_format="pyarrow").to_pandas()
         .groupby("lang", as_index=False).sum())
    g["media_share_bp"] = [
        int(m) * 10000 // int(s) if s else 0
        for m, s in zip(g["n_media"], g["n_spans"])]
    return (g.sort_values("lang", kind="mergesort")
            .reset_index(drop=True)
            .astype({c: "int64" for c in g.columns if c != "lang"}))
