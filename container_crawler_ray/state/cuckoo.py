"""Cuckoo filter with a bloom spill tier — the URL-seen set core.

Mandated by BASELINE.json north_star: "a sharded cuckoo-filter (with bloom
spill tier) URL-seen set keyed by canonicalized URL hash". The reference has
no seen set (Swift's container DB itself is the dedup); this is the graft's
replacement, pattern-informed by the partial-key cuckoo hashing literature
(Fan et al., CoNEXT'14; see also PAPERS.md SIGMOD'23 learned cuckoo filter).

Design:
- buckets × 4 slots of uint32 fingerprints (fp != 0). 32-bit fingerprints
  make the false-positive rate ≈ 8/2^32 ≈ 2e-9 per probe, negligible at
  test scale, so the engine's seen set agrees exactly with the oracle's
  exact set with overwhelming (and, given fixed hashing, deterministic)
  probability.
- alt index = i ^ mix(fp)  (partial-key cuckoo displacement);
- insertion eviction path is DERIVED FROM THE KEY (no RNG), so filter
  state is a pure function of the insert SEQUENCE. Mark-stage batches
  arrive in nondeterministic Ray block order, so bit-level state is not
  reproducible across re-runs — but MEMBERSHIP is (same key set in, same
  answers out), and membership-level determinism is what exact resume
  relies on;
- when an insert still fails after MAX_KICKS evictions, the key spills to a
  bloom filter tier (never loses a key; FP rate degrades gracefully instead
  of insert failure — the right trade for a crawl dedup at 10^10 scale).

All membership probes are numpy-vectorized over uint64 hash arrays, and so
are inserts (``add_many``) of *novel* keys (pre-filtered by a vectorized
contains pass): only the few keys whose two buckets are both full take the
per-key eviction walk in Python.
"""

from __future__ import annotations

import numpy as np

from ..functions.hashing import mix64

MAX_KICKS = 500
_U = np.uint64


def _next_pow2(x: int) -> int:
    n = 1
    while n < x:
        n <<= 1
    return n


def _fingerprints(hashes: np.ndarray) -> np.ndarray:
    fp = (hashes >> _U(32)).astype(np.uint32)
    fp[fp == 0] = 1
    return fp


class CuckooFilter:
    def __init__(self, capacity: int):
        self.nbuckets = _next_pow2(max(16, int(capacity / 4 / 0.90)))
        self.mask = _U(self.nbuckets - 1)
        self.slots = np.zeros((self.nbuckets, 4), dtype=np.uint32)
        self.count = 0
        # homeless fingerprints after a failed eviction walk: (bucket, fp)
        # pairs; tiny (eviction failure below the fill guard is rare), checked
        # by every probe so no entry is ever lost.
        self.stash: list[tuple[int, int]] = []

    # -------------------------------------------------------------- indexes
    def _i1(self, hashes: np.ndarray) -> np.ndarray:
        return (hashes & self.mask).astype(np.int64)

    def _i2(self, i1: np.ndarray, fp: np.ndarray) -> np.ndarray:
        return ((i1.astype(np.uint64) ^ mix64(fp.astype(np.uint64))) & self.mask).astype(np.int64)

    def contains_many(self, hashes: np.ndarray) -> np.ndarray:
        if len(hashes) == 0:
            return np.zeros(0, dtype=bool)
        fp = _fingerprints(hashes)
        i1 = self._i1(hashes)
        i2 = self._i2(i1, fp)
        fpc = fp[:, None]
        hit = ((self.slots[i1] == fpc).any(axis=1)
               | (self.slots[i2] == fpc).any(axis=1))
        for sb, sfp in self.stash:
            hit |= (fp == sfp) & ((i1 == sb) | (i2 == sb))
        return hit

    def add_many(self, hashes: np.ndarray) -> None:
        """Insert pre-hashed keys (no dup check, as ``add``) in vectorized
        rounds: every key takes a free slot of its i1 bucket, then the
        rest one of their i2 bucket; keys that hit the same bucket in a
        round are ranked by input order, the rank-th key taking the
        rank-th free slot. Only keys both buckets turn away go through
        ``add``'s eviction walk (and the stash), in input order, so the
        result is still a pure function of the insert sequence."""
        if len(hashes) == 0:
            return
        fp = _fingerprints(hashes)
        i1 = self._i1(hashes)
        pending = np.arange(len(hashes))
        for idx in (i1, self._i2(i1, fp)):
            b = idx[pending]
            order = np.argsort(b, kind="stable")
            bs = b[order]
            pos = np.arange(len(bs))
            new_grp = np.ones(len(bs), dtype=bool)
            new_grp[1:] = bs[1:] != bs[:-1]
            rank = pos - np.maximum.accumulate(np.where(new_grp, pos, 0))
            empty = self.slots[bs] == 0
            fits = rank < empty.sum(axis=1)
            # the (rank+1)-th free slot of the bucket
            slot = np.argmax(empty & (np.cumsum(empty, axis=1)
                                      == (rank + 1)[:, None]), axis=1)
            self.slots[bs[fits], slot[fits]] = fp[pending[order[fits]]]
            self.count += int(fits.sum())
            placed = np.zeros(len(pending), dtype=bool)
            placed[order[fits]] = True
            pending = pending[~placed]
            if len(pending) == 0:
                return
        for h in hashes[pending].tolist():
            self.add(h)

    def add(self, h: int) -> bool:
        """Insert one pre-hashed key; always succeeds (a failed eviction walk
        parks the displaced fingerprint in the stash, which probes check).
        Assumes the caller already checked contains (no dup check here).
        Returns False only when the stash had to absorb an entry — the
        caller uses that as the signal to start spilling to the bloom tier.
        """
        harr = np.array([h], dtype=np.uint64)
        fp = int(_fingerprints(harr)[0])
        i1 = int(self._i1(harr)[0])
        i2 = int(self._i2(np.array([i1]), np.array([fp], dtype=np.uint32))[0])
        for i in (i1, i2):
            row = self.slots[i]
            empt = np.flatnonzero(row == 0)
            if len(empt):
                row[empt[0]] = fp
                self.count += 1
                return True
        # deterministic eviction walk: slot choice and path derived from key
        i = i2 if (h >> 1) & 1 else i1
        cur = fp
        for kick in range(MAX_KICKS):
            slot = int((cur + kick) % 4)
            cur, self.slots[i, slot] = int(self.slots[i, slot]), cur
            i = int((np.uint64(i) ^ mix64(np.array([cur], dtype=np.uint64))[0]) & self.mask)
            row = self.slots[i]
            empt = np.flatnonzero(row == 0)
            if len(empt):
                row[empt[0]] = cur
                self.count += 1
                return True
        # walk failed: `cur` (some displaced fingerprint, original key
        # unknown under partial-key hashing) is parked in the stash at its
        # current bucket so it stays findable. The NEW key itself landed in
        # the table during the walk.
        self.stash.append((i, cur))
        self.count += 1
        return False

    def remove_many(self, hashes: np.ndarray) -> np.ndarray:
        """Delete pre-hashed keys (torn-pass mark rollback). Clears the
        first slot matching the key's fingerprint in either candidate
        bucket (then the stash). Standard cuckoo-deletion caveat applies:
        under partial-key hashing a DIFFERENT key colliding on (bucket,
        fingerprint) may lose its entry instead — the caller only ever
        deletes keys it itself inserted, so a collision casualty merely
        re-permits one duplicate fetch (at-least-once), never data loss.
        Returns which keys found (and cleared) an entry."""
        out = np.zeros(len(hashes), dtype=bool)
        if len(hashes) == 0:
            return out
        fps = _fingerprints(hashes)
        i1s = self._i1(hashes)
        i2s = self._i2(i1s, fps)
        for j in range(len(hashes)):
            fp, i1, i2 = int(fps[j]), int(i1s[j]), int(i2s[j])
            done = False
            for i in (i1, i2):
                row = self.slots[i]
                hit = np.flatnonzero(row == fp)
                if len(hit):
                    row[hit[0]] = 0
                    self.count -= 1
                    done = True
                    break
            if not done:
                for si, (sb, sfp) in enumerate(self.stash):
                    if sfp == fp and sb in (i1, i2):
                        del self.stash[si]
                        self.count -= 1
                        done = True
                        break
            out[j] = done
        return out

    # -------------------------------------------------------- serialization
    def to_state(self) -> dict:
        return {"kind": "cuckoo", "nbuckets": self.nbuckets,
                "bits": self.slots.tobytes(), "count": self.count,
                "stash": list(self.stash)}

    @classmethod
    def from_state(cls, st: dict) -> "CuckooFilter":
        f = cls.__new__(cls)
        f.nbuckets = st["nbuckets"]
        f.mask = _U(f.nbuckets - 1)
        f.slots = np.frombuffer(st["bits"], dtype=np.uint32).reshape(f.nbuckets, 4).copy()
        f.count = st["count"]
        f.stash = [tuple(x) for x in st.get("stash", [])]
        return f


class BloomFilter:
    """k-probe bloom over a uint64-word bit array; probe seeds derived from
    the key hash (double hashing h1 + i*h2)."""

    K = 7

    def __init__(self, nbits: int):
        self.nbits = _next_pow2(nbits)
        self.maskb = _U(self.nbits - 1)
        self.words = np.zeros(self.nbits // 64, dtype=np.uint64)
        self.count = 0

    def _positions(self, hashes: np.ndarray) -> np.ndarray:
        h1 = hashes.astype(np.uint64)
        h2 = mix64(h1) | _U(1)
        ks = np.arange(self.K, dtype=np.uint64)[None, :]
        with np.errstate(over="ignore"):
            pos = (h1[:, None] + ks * h2[:, None]) & self.maskb
        return pos

    def contains_many(self, hashes: np.ndarray) -> np.ndarray:
        if len(hashes) == 0:
            return np.zeros(0, dtype=bool)
        pos = self._positions(hashes)
        word = (pos >> _U(6)).astype(np.int64)
        bit = _U(1) << (pos & _U(63))
        return ((self.words[word] & bit) != 0).all(axis=1)

    def add_many(self, hashes: np.ndarray) -> None:
        if len(hashes) == 0:
            return
        pos = self._positions(hashes)
        word = (pos >> _U(6)).astype(np.int64).ravel()
        bit = (_U(1) << (pos & _U(63))).ravel()
        np.bitwise_or.at(self.words, word, bit)
        self.count += len(hashes)

    def to_state(self) -> dict:
        return {"kind": "bloom", "nbits": self.nbits,
                "bits": self.words.tobytes(), "count": self.count}

    @classmethod
    def from_state(cls, st: dict) -> "BloomFilter":
        f = cls.__new__(cls)
        f.nbits = st["nbits"]
        f.maskb = _U(f.nbits - 1)
        f.words = np.frombuffer(st["bits"], dtype=np.uint64).copy()
        f.count = st["count"]
        return f


class SpillFilter:
    """Cuckoo primary + bloom spill tier. The public seen-set API."""

    def __init__(self, cuckoo_capacity: int, bloom_bits: int):
        self.cuckoo = CuckooFilter(cuckoo_capacity)
        self.bloom = BloomFilter(bloom_bits)
        self.spilled = 0

    def contains_many(self, hashes: np.ndarray) -> np.ndarray:
        hit = self.cuckoo.contains_many(hashes)
        if self.bloom.count and not hit.all():
            miss = ~hit
            hit[miss] = self.bloom.contains_many(hashes[miss])
        return hit

    def add_novel(self, hashes: np.ndarray) -> None:
        """Insert keys ALREADY KNOWN to be novel (caller did contains)."""
        # fill-factor guard: the keys past ~95% cuckoo fill spill wholesale
        # (every cuckoo insert, stash included, counts one)
        room = max(0, int(self.cuckoo.nbuckets * 4 * 0.95) - self.cuckoo.count)
        self.cuckoo.add_many(hashes[:room])
        spill = hashes[room:]
        if len(spill):
            self.bloom.add_many(spill)
            self.spilled += len(spill)

    def contains_add_many(self, hashes: np.ndarray) -> np.ndarray:
        """Returns was_novel mask; novel keys are inserted. Duplicate keys
        *within* the input batch: only the first occurrence reports novel."""
        uniq, first_idx, inverse = np.unique(hashes, return_index=True,
                                             return_inverse=True)
        seen = self.contains_many(uniq)
        novel_mask_uniq = ~seen
        self.add_novel(uniq[novel_mask_uniq])
        was_novel = np.zeros(len(hashes), dtype=bool)
        # first occurrence position of each unique value gets its novelty
        was_novel[first_idx] = novel_mask_uniq
        return was_novel

    def remove_many(self, hashes: np.ndarray) -> tuple[int, int]:
        """Best-effort delete (torn-pass mark rollback): cuckoo entries
        are cleared; keys that spilled to the bloom tier CANNOT be
        deleted (bloom has no removal) and stay as a residual — returns
        (removed, residual) counts so the caller can log the exposure.
        The residual is nonzero only when the shard overflowed its
        cuckoo capacity during the torn window."""
        if len(hashes) == 0:
            return 0, 0
        uniq = np.unique(np.asarray(hashes, dtype=np.uint64))
        gone = self.cuckoo.remove_many(uniq)
        residual = 0
        if self.bloom.count and not gone.all():
            residual = int(self.bloom.contains_many(uniq[~gone]).sum())
        return int(gone.sum()), residual

    @property
    def num_items(self) -> int:
        return self.cuckoo.count + self.spilled

    def to_state(self) -> dict:
        return {"cuckoo": self.cuckoo.to_state(), "bloom": self.bloom.to_state(),
                "spilled": self.spilled}

    @classmethod
    def from_state(cls, st: dict) -> "SpillFilter":
        f = cls.__new__(cls)
        f.cuckoo = CuckooFilter.from_state(st["cuckoo"])
        f.bloom = BloomFilter.from_state(st["bloom"])
        f.spilled = st["spilled"]
        return f
