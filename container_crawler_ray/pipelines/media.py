"""Multimodal column plumbing (SURVEY-mandated component).

Real image/audio codecs are not available in this container, so the
DECODE is a clearly-marked deterministic fake (metadata derived from an
md5 of the payload — even SQL-checkable), while everything Ray-side is
real and tested: opaque ``binary`` payload column, actor-pool decode
stage with per-actor setup, small batches for wide binary rows, typed
metadata output schema.

To use a real decoder, subclass ``MediaDecodeStage`` and override
``decode_one`` (e.g. PIL.Image.open) — the Ray plumbing is unchanged.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from .exchange import bucket_groups, bucket_map

MEDIA_META = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("n_bytes", pa.int64()),
        ("fmt", pa.string()),
        ("width", pa.int64()),
        ("height", pa.int64()),
    ]
)

_FORMATS = ("png", "jpeg", "webp")


class MediaDecodeStage:
    """Actor-pool decode: expensive codec init belongs in __init__ (here a
    stand-in); __call__ handles one Arrow batch of binary payloads."""

    def __init__(self):
        self._codec_ready = True  # real impl: load libjpeg/ffmpeg handles

    def decode_one(self, payload: bytes) -> dict:
        """Deterministic fake decode. A real decoder would be:
        ``img = PIL.Image.open(io.BytesIO(payload))`` — unavailable here:
        raise NotImplementedError in strict mode."""
        h = int(hashlib.md5(payload).hexdigest()[:15], 16)
        return {
            "fmt": _FORMATS[h % 3],
            "width": 64 + (h // 3) % 960,
            "height": 64 + (h // 7) % 540,
        }

    def __call__(self, t: pa.Table) -> pa.Table:
        payloads = t.column("payload").to_pylist()
        metas = [self.decode_one(p) for p in payloads]
        return pa.table(
            {
                "doc_id": t.column("doc_id").cast(pa.int64()),
                "n_bytes": pa.array([len(p) for p in payloads],
                                    type=pa.int64()),
                "fmt": pa.array([m["fmt"] for m in metas], type=pa.string()),
                "width": pa.array([m["width"] for m in metas],
                                  type=pa.int64()),
                "height": pa.array([m["height"] for m in metas],
                                   type=pa.int64()),
            },
            schema=MEDIA_META,
        )


def _payload_stage(sf_dir: str, stage) -> ray.data.Dataset:
    """Documents as binary payloads through the actor-pool ``stage``
    (a callable class), in small batches sized for binary columns.
    Left lazy."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    # autoscaling (1, 8) actor pool: a FIXED pool of N would deadlock on
    # hosts with fewer than N CPUs, and the min=1 floor lets the stage
    # start as soon as one actor is placed
    return ds.map_batches(_to_payload, batch_format="pyarrow").map_batches(
        stage, batch_format="pyarrow", batch_size=256, concurrency=(1, 8))


def _to_payload(t: pa.Table) -> pa.Table:
    """Treat document text as an opaque binary payload column (the
    testdata has no real media; the schema/flow is what's under test)."""
    payloads = [s.encode("utf-8") for s in t.column("text").to_pylist()]
    return pa.table({"doc_id": t.column("doc_id"),
                     "payload": pa.array(payloads, type=pa.binary())})


class MediaFeatureStage:
    """Actor-pool feature extractor: a real deployment loads a vision
    model in ``__init__`` and runs batched inference in ``__call__``;
    here the 'model' is a deterministic md5-derived projection so the
    Ray plumbing (actor pool, batch sizing, fixed-dim output schema) is
    real and the values are SQL-reproducible. Output: 8 int features
    f0..f7 (one md5 byte each) as scalar columns — the shape a
    downstream ANN/cluster stage consumes."""

    N_FEATURES = 8

    def __init__(self):
        self._model_ready = True   # real impl: load weights once here

    def __call__(self, t: pa.Table) -> pa.Table:
        payloads = t.column("payload").to_pylist()
        feats = np.empty((len(payloads), self.N_FEATURES), dtype=np.int64)
        for i, p in enumerate(payloads):
            d = hashlib.md5(p).digest()
            feats[i] = np.frombuffer(d[:self.N_FEATURES], dtype=np.uint8)
        cols = {"doc_id": t.column("doc_id").cast(pa.int64())}
        for j in range(self.N_FEATURES):
            cols[f"f{j}"] = pa.array(feats[:, j])
        return pa.table(cols)


class MediaFrameSampler:
    """Actor-pool frame sampler (video stand-in): payload → every
    ceil(n/4)-th frame index + byte offset. A real decoder seeks the
    container per sampled frame; the deterministic fake derives the
    frame count from the payload hash so the fan-out plumbing (one
    input row → K frame rows, list offsets, small batches for wide
    binary) is exercised end to end and SQL-checkable."""

    def __init__(self, sample_target: int = 4):
        self.sample_target = sample_target

    def __call__(self, t: pa.Table) -> pa.Table:
        payloads = t.column("payload").to_pylist()
        doc_ids = t.column("doc_id").to_numpy().astype(np.int64)
        n_frames = np.empty(len(payloads), dtype=np.int64)
        n_bytes = np.empty(len(payloads), dtype=np.int64)
        for i, p in enumerate(payloads):
            h = int(hashlib.md5(p).hexdigest()[:15], 16)
            n_frames[i] = 8 + h % 24
            n_bytes[i] = len(p)
        step = (n_frames + self.sample_target - 1) // self.sample_target
        counts = (n_frames + step - 1) // step     # sampled frames per doc
        total = int(counts.sum())
        idx = (np.arange(total, dtype=np.int64)
               - np.repeat(np.cumsum(counts) - counts, counts))
        frame_idx = idx * np.repeat(step, counts)
        frame_off = frame_idx * np.repeat(n_bytes // n_frames, counts)
        return pa.table({
            "doc_id": pa.array(np.repeat(doc_ids, counts)),
            "frame_idx": pa.array(frame_idx),
            "frame_off": pa.array(frame_off),
        })


def media_features(sf_dir: str) -> pd.DataFrame:
    return _payload_stage(sf_dir, MediaFeatureStage).to_pandas()


def media_frames(sf_dir: str) -> pd.DataFrame:
    return _payload_stage(sf_dir, MediaFrameSampler).to_pandas()


def media_metadata(sf_dir: str) -> pd.DataFrame:
    """documents → binary payloads → actor-pool decode → typed metadata.
    Small batch_size on purpose: binary payload batches must be sized to
    the worker heap (SURVEY.md 'Memory-aware')."""
    return _payload_stage(sf_dir, MediaDecodeStage).to_pandas()


class MediaResizeStage:
    """Actor-pool resize: fit each image into a ``box × box`` bounding
    box preserving aspect ratio. A real implementation decodes, resizes
    (PIL/cv2) and re-encodes in ``__call__``; here the decode is the
    same deterministic fake as ``MediaDecodeStage`` and the geometry is
    pure integer math (``out = dim * box // max(w, h)``) so the output
    is SQL-reproducible while the Ray plumbing — actor pool, small
    binary batches, typed output schema with an estimated output byte
    count for downstream memory budgeting — is real."""

    def __init__(self, box: int = 256):
        self.box = box
        self._codec_ready = True   # real impl: codec handles load once

    def __call__(self, t: pa.Table) -> pa.Table:
        payloads = t.column("payload").to_pylist()
        n = len(payloads)
        w = np.empty(n, dtype=np.int64)
        h = np.empty(n, dtype=np.int64)
        nb = np.empty(n, dtype=np.int64)
        for i, p in enumerate(payloads):
            x = int(hashlib.md5(p).hexdigest()[:15], 16)
            w[i] = 64 + (x // 3) % 960
            h[i] = 64 + (x // 7) % 540
            nb[i] = len(p)
        mx = np.maximum(w, h)
        big = mx > self.box
        ow, oh = w.copy(), h.copy()
        ow[big] = w[big] * self.box // mx[big]
        oh[big] = h[big] * self.box // mx[big]
        nb_est = nb * (ow * oh) // (w * h)
        return pa.table({
            "doc_id": t.column("doc_id").cast(pa.int64()),
            "width": pa.array(w), "height": pa.array(h),
            "out_width": pa.array(ow), "out_height": pa.array(oh),
            "n_bytes_est": pa.array(nb_est),
        })


def media_resized(sf_dir: str) -> pd.DataFrame:
    return _payload_stage(sf_dir, MediaResizeStage).to_pandas()


class MediaPhashStage:
    """Actor-pool perceptual-hash stage (image near-dup front end): a
    real deployment decodes + DCT-hashes in ``__call__`` (imagehash /
    pHash); here the 64-bit hash is md5-derived from the payload —
    deterministic, SQL-reproducible — while the Ray plumbing (actor
    pool, banding layout for LSH) is real. Emits the hash split into
    four 16-bit BANDS, the standard banded-Hamming blocking layout."""

    def __init__(self):
        self._hasher_ready = True  # real impl: DCT tables / model init

    def __call__(self, t: pa.Table) -> pa.Table:
        payloads = t.column("payload").to_pylist()
        n = len(payloads)
        bands = np.empty((n, 4), dtype=np.int64)
        for i, p in enumerate(payloads):
            hx = hashlib.md5(p).hexdigest()
            for j in range(4):
                bands[i, j] = int(hx[16 + 4 * j:20 + 4 * j], 16)
        cols = {"doc_id": t.column("doc_id").cast(pa.int64())}
        for j in range(4):
            cols[f"band{j}"] = pa.array(bands[:, j])
        return pa.table(cols)


def media_phash_bands(sf_dir: str) -> pd.DataFrame:
    """Banded-Hamming DEDUP INFRASTRUCTURE audit over the perceptual
    hashes: per 16-bit band, the number of occupied buckets, docs in
    collision buckets and candidate pairs the band would generate —
    exactly the numbers that size an image near-dup pass (candidate
    volume, skew) before running it. One packed (band, value) bucket
    exchange (collision groups must merge across blocks before
    c·(c−1)/2); partials per bucket are bounded by occupied buckets,
    not docs."""
    hashed = _payload_stage(sf_dir, MediaPhashStage)

    def derive(t: pa.Table) -> pa.Table:
        vals = np.concatenate(
            [t.column(f"band{j}").to_numpy().astype(np.int64)
             for j in range(4)])
        band = np.repeat(np.arange(4, dtype=np.int64),
                         t.num_rows)
        key = band * 65536 + vals
        u, c = np.unique(key, return_counts=True)
        return pa.table({"key": pa.array(u),
                         "n": pa.array(c.astype(np.int64))})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        key = g["key"].to_numpy(np.int64)
        n = g["n"].to_numpy(np.int64)
        uk, inv = np.unique(key, return_inverse=True)
        tot = np.bincount(inv, weights=n, minlength=len(uk)) \
            .astype(np.int64)
        band = uk // 65536
        out = pd.DataFrame({
            "band": band, "one": np.ones(len(uk), dtype=np.int64),
            "coll": np.where(tot > 1, tot, 0),
            "pairs": tot * (tot - 1) // 2})
        return out.groupby("band", as_index=False).sum()

    parts = bucket_map(hashed.map_batches(derive, batch_format="pyarrow"),
                       "key", fold)
    agg = (parts.groupby("band", as_index=False).sum()
           .sort_values("band", kind="mergesort").reset_index(drop=True))
    return pd.DataFrame({
        "band": agg["band"], "n_buckets": agg["one"],
        "n_docs_colliding": agg["coll"],
        "n_candidate_pairs": agg["pairs"]}).astype("int64")



def media_phash_near_pairs(sf_dir: str) -> pd.DataFrame:
    """PHASH NEAR-DUPLICATE verification — the step AFTER banding
    (``media_phash_bands``): candidate pairs colliding in ANY of the
    four 16-bit bands of the 64-bit perceptual hash (the actor-pool
    ``MediaPhashStage``, media.py:221 — deterministic md5 stand-in,
    real Ray plumbing) are verified by their EXACT Hamming distance
    on the full reassembled hash, deduped across bands, and the
    census reports distinct candidates, matches at radius 8/16, and
    the closest pair. Scale shape: one (band, bucket) exchange whose
    fold emits PAIR rows only for colliding buckets (birthday-small),
    then a SECOND slim exchange on the pair key dedups across bands
    and folds each bucket to one stats row — the pair set itself
    never lands on the driver (the boilerplate worst case where one
    shared payload makes every doc collide stays bounded: the driver
    reduces ≤64 stat rows). Pure integers; the twin reproduces each
    md5 band and bit_count(xor) verbatim."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    hashed = _payload_stage(sf_dir, MediaPhashStage)

    def derive(t: pa.Table) -> pa.Table:
        did = t.column("doc_id").to_numpy().astype(np.int64)
        b = [t.column(f"band{j}").to_numpy().astype(np.uint64)
             for j in range(4)]
        h64 = ((b[0] << np.uint64(48)) | (b[1] << np.uint64(32))
               | (b[2] << np.uint64(16)) | b[3]).view(np.int64)
        return pa.table({
            "band": pa.array(np.repeat(np.arange(4, dtype=np.int64),
                                       len(did))),
            "val": pa.array(np.concatenate(b).astype(np.int64)),
            "doc_id": pa.array(np.tile(did, 4)),
            "h64": pa.array(np.tile(h64, 4))})

    def pair_fold(g: pd.DataFrame) -> pd.DataFrame:
        d1s, d2s, hams = [], [], []
        for _, grp in g.groupby(["band", "val"]):
            if len(grp) < 2:
                continue
            ids = grp["doc_id"].to_numpy(np.int64)
            hs = grp["h64"].to_numpy(np.int64).view(np.uint64)
            order = np.argsort(ids, kind="mergesort")
            ids, hs = ids[order], hs[order]
            ai, bi = np.triu_indices(len(ids), 1)
            x = hs[ai] ^ hs[bi]
            ham = np.unpackbits(
                x.view(np.uint8).reshape(len(x), 8), axis=1) \
                .sum(axis=1).astype(np.int64)
            d1s.append(ids[ai])
            d2s.append(ids[bi])
            hams.append(ham)
        if not d1s:
            return pd.DataFrame({"d1": pd.Series([], dtype=np.int64),
                                 "d2": pd.Series([], dtype=np.int64),
                                 "ham": pd.Series([], dtype=np.int64)})
        return pd.DataFrame({"d1": np.concatenate(d1s),
                             "d2": np.concatenate(d2s),
                             "ham": np.concatenate(hams)}).astype(np.int64)

    def pair_key(t: pa.Table) -> np.ndarray:
        d1 = t.column("d1").to_numpy().astype(np.int64)
        d2 = t.column("d2").to_numpy().astype(np.int64)
        return d1 * np.int64(1 << 32) + d2

    def stats_fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["d1", "d2"])
        ham = g["ham"].to_numpy(np.int64)
        return pd.DataFrame({
            "n_pairs": [len(g)],
            "le8": [int((ham <= 8).sum())],
            "le16": [int((ham <= 16).sum())],
            "min_ham": [int(ham.min()) if len(ham) else (1 << 30)]})

    stats = bucket_map(
        bucket_groups(hashed.map_batches(derive, batch_format="pyarrow"),
                      "val", pair_fold),
        pair_key, stats_fold)
    n_docs = int(ds.count())
    if len(stats) and int(stats["n_pairs"].sum()):
        n_pairs = int(stats["n_pairs"].sum())
        le8 = int(stats["le8"].sum())
        le16 = int(stats["le16"].sum())
        min_ham = int(stats["min_ham"].min())
    else:
        n_pairs = le8 = le16 = 0
        min_ham = -1
    return pd.DataFrame([(n_docs, n_pairs, le8, le16, min_ham)],
                        columns=["n_docs", "n_candidate_pairs",
                                 "n_ham_le8", "n_ham_le16",
                                 "min_hamming"]).astype("int64")


def media_frame_coverage(sf_dir: str) -> pd.DataFrame:
    """FRAME-SAMPLING COVERAGE audit — what share of each video's
    frames the every-ceil(n/4)-th sampler actually touches, grouped
    by the clip's frame count: the sampled-frame counts come from
    the REAL actor-pool ``MediaFrameSampler`` output (one row per
    sampled frame), the per-doc frame totals re-derive from the same
    deterministic md5 the stage uses, and the census reports docs,
    per-doc sampled frames and coverage in exact bps per frame-count
    level — pure integers; the twin reproduces the md5 arithmetic
    verbatim."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    frames = _payload_stage(sf_dir, MediaFrameSampler)

    def count_rows(t: pa.Table) -> pa.Table:
        did = t.column("doc_id").to_numpy().astype(np.int64)
        u, c = np.unique(did, return_counts=True)
        return pa.table({"doc_id": pa.array(u),
                         "sampled": pa.array(c.astype(np.int64))})

    samp = (frames.map_batches(count_rows, batch_format="pyarrow")
            .to_pandas().groupby("doc_id", as_index=False)["sampled"]
            .sum())

    def nframes(t: pa.Table) -> pa.Table:
        did = t.column("doc_id").to_numpy().astype(np.int64)
        nf = np.array([8 + int(hashlib.md5(s.encode()).hexdigest()
                               [:15], 16) % 24
                       for s in t.column("text").to_pylist()],
                      dtype=np.int64)
        return pa.table({"doc_id": pa.array(did),
                         "nf": pa.array(nf)})

    tot = ds.map_batches(nframes, batch_format="pyarrow").to_pandas()
    j = samp.merge(tot, on="doc_id")
    rows = []
    for nf, g in j.groupby("nf"):
        n_docs = len(g)
        spd = int(g["sampled"].to_numpy(np.int64)[0])
        rows.append((int(nf), n_docs, spd,
                     10_000 * spd // int(nf)))
    rows.sort()
    return pd.DataFrame(rows, columns=[
        "n_frames", "n_docs", "sampled_per_doc", "coverage_bps"]) \
        .astype("int64")


class MediaSceneStage:
    """Actor-pool SCENE-CHANGE detector (video shot segmentation
    stand-in): a real deployment decodes the sampled frames and
    compares perceptual hashes of consecutive frames in ``__call__``;
    here each sampled frame's 60-bit hash is md5(payload||'#'||idx) —
    deterministic and SQL-reproducible — while the Ray plumbing
    (actor pool, per-payload frame fan-out, consecutive-frame
    Hamming) is real. Emits one row per doc: sampled-frame count and
    the number of cuts (consecutive-frame Hamming > 30 of 60 bits,
    the random-hash midpoint)."""

    def __init__(self, sample_target: int = 4, threshold: int = 30):
        self.sample_target = sample_target
        self.threshold = threshold

    def __call__(self, t: pa.Table) -> pa.Table:
        payloads = t.column("payload").to_pylist()
        doc_ids = t.column("doc_id").to_numpy().astype(np.int64)
        n_sampled = np.empty(len(payloads), dtype=np.int64)
        n_cuts = np.empty(len(payloads), dtype=np.int64)
        for i, p in enumerate(payloads):
            h = int(hashlib.md5(p).hexdigest()[:15], 16)
            nf = 8 + h % 24
            step = (nf + self.sample_target - 1) // self.sample_target
            idxs = list(range(0, nf, step))
            hs = [int(hashlib.md5(
                p + b"#" + str(ix).encode()).hexdigest()[:15], 16)
                for ix in idxs]
            cuts = sum(1 for a, b in zip(hs, hs[1:])
                       if bin(a ^ b).count("1") > self.threshold)
            n_sampled[i] = len(idxs)
            n_cuts[i] = cuts
        return pa.table({"doc_id": pa.array(doc_ids),
                         "n_sampled": pa.array(n_sampled),
                         "n_cuts": pa.array(n_cuts)})


def media_scene_changes(sf_dir: str) -> pd.DataFrame:
    """Shot-segmentation census over the REAL actor-pool scene stage:
    docs histogrammed by detected cut count with shares in exact bps
    — the output a video-curation pipeline keys sampling rates on
    (static clips vs rapid-cut clips). The twin reproduces the frame
    arithmetic and every md5 hash bit (bit_count(xor) on the same
    60-bit lattice). Small batches for wide binary; the histogram
    fold is cut-cardinality-sized — ZERO shuffle."""
    out = _payload_stage(sf_dir, MediaSceneStage).to_pandas()
    n = len(out)
    g = out.groupby("n_cuts", as_index=False).agg(
        n_docs=("doc_id", "size"), sum_frames=("n_sampled", "sum"))
    g["share_bps"] = 10000 * g["n_docs"].to_numpy(np.int64) // n
    return (g[["n_cuts", "n_docs", "share_bps", "sum_frames"]]
            .sort_values("n_cuts", kind="mergesort")
            .reset_index(drop=True).astype("int64"))


def media_aspect_census(sf_dir: str) -> pd.DataFrame:
    """ASPECT-RATIO census over the decode stand-in's geometry — the
    preprocessing-plan input (portrait vs landscape mix decides crop
    strategy and batch padding waste): the same deterministic
    md5-derived (w, h) as :class:`MediaResizeStage`, aspect =
    1000*w//h banded portrait (<900) / squarish / landscape / wide
    (>=1778), shares in exact bps. Stateless task-mode map with
    small binary batches; one 4-cell partial per batch — ZERO
    shuffle; the twin reproduces the md5 geometry bit for bit."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def census(t: pa.Table) -> pa.Table:
        payloads = t.column("payload").to_pylist()
        band = np.empty(len(payloads), dtype=np.int64)
        for i, p in enumerate(payloads):
            x = int(hashlib.md5(p).hexdigest()[:15], 16)
            w = 64 + (x // 3) % 960
            h = 64 + (x // 7) % 540
            r = 1000 * w // h
            band[i] = 0 if r < 900 else (1 if r < 1112 else
                                         (2 if r < 1778 else 3))
        c = np.bincount(band, minlength=4).astype(np.int64)
        return pa.table({"band": pa.array(np.arange(4,
                                                    dtype=np.int64)),
                         "n": pa.array(c)})

    g = (ds.map_batches(_to_payload, batch_format="pyarrow")
         .map_batches(census, batch_format="pyarrow", batch_size=256)
         .to_pandas().groupby("band", as_index=False).sum())
    tot = int(g["n"].sum())
    g = g[g["n"] > 0].sort_values("band").reset_index(drop=True)
    g["share_bps"] = 10000 * g["n"].to_numpy(np.int64) // tot
    names = np.array(["portrait", "squarish", "landscape", "wide"])
    g["shape"] = names[g["band"].to_numpy(np.int64)]
    return g[["band", "shape", "n", "share_bps"]].astype(
        {"band": "int64", "n": "int64", "share_bps": "int64"})
