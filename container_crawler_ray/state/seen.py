"""Sharded URL-seen set as named Ray actors (SURVEY.md §4.3, T5/J1).

The seen-set shards are standalone named actors (``seen-<run>-<i>`` in the
``ccrawl`` namespace), so every engine of a run resolves the same set.
Every probe and mark is a driver call from ``run_pass``: one batched RPC
per shard per call (keys grouped by ``url_hash % S`` first — never one RPC
per row), once for the pass's candidates, once for the scheduled marks and
once for the discovered links. S scales the shard memory, the aggregate
probe throughput and the checkpoint fan-out.

A shard checkpoints its filter as ``SpillFilter.to_state()``; the one row
codec between that state and the ``seen_shards`` table is
``SeenSet.snapshot_table`` / ``restore_from_table``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from ..schemas import SEEN_SHARDS
from .cuckoo import SpillFilter

NAMESPACE = "ccrawl"


@ray.remote(num_cpus=0)
class SeenShard:
    """One shard of the URL-seen set: a cuckoo filter with bloom spill."""

    def __init__(self, cuckoo_capacity: int, bloom_bits: int):
        self.filter = SpillFilter(cuckoo_capacity, bloom_bits)

    def contains(self, hashes: np.ndarray) -> np.ndarray:
        return self.filter.contains_many(hashes)

    def contains_add(self, hashes: np.ndarray) -> np.ndarray:
        return self.filter.contains_add_many(hashes)

    def num_items(self) -> int:
        return self.filter.num_items

    def remove(self, hashes: np.ndarray) -> list[int]:
        """Torn-pass mark rollback; [removed, bloom-residual] counts
        (a list so the scatter-gather path can carry it as a result)."""
        removed, residual = self.filter.remove_many(hashes)
        return [removed, residual]

    def snapshot(self) -> dict:
        return self.filter.to_state()

    def restore(self, st: dict) -> None:
        self.filter = SpillFilter.from_state(st)


class SeenSet:
    """Driver-side client handle over the S shard actors (resolved by
    name, so another engine's handle reaches the same shards)."""

    def __init__(self, run_id: str, num_shards: int,
                 cuckoo_capacity: int = 1 << 17, bloom_bits: int = 1 << 22):
        self.run_id = run_id
        self.num_shards = num_shards
        self.cuckoo_capacity = cuckoo_capacity
        self.bloom_bits = bloom_bits
        self._actors: list | None = None

    def shard_name(self, i: int) -> str:
        """The actor name of shard *i* (every engine of the run resolves
        the same one)."""
        return f"seen-{self.run_id}-{i}"

    @property
    def actors(self) -> list:
        if self._actors is None:
            # detached: a non-detached actor is OWNED by the worker that
            # created it, so the whole shared seen set would die with the
            # one engine that happened to create it (multi-engine crash =
            # global state loss). Detached shards outlive any engine and
            # are reclaimed only by the explicit teardown() kill.
            self._actors = [
                SeenShard.options(
                    name=self.shard_name(i), namespace=NAMESPACE,
                    get_if_exists=True, lifetime="detached",
                ).remote(self.cuckoo_capacity, self.bloom_bits)
                for i in range(self.num_shards)
            ]
        return self._actors

    def _scatter(self, hashes: np.ndarray, method: str) -> list[tuple]:
        """Group keys by shard (``url_hash % S``), one RPC per shard;
        returns (key mask, shard result) per shard called. Retries
        transient actor unavailability — every shard op here is safe to
        re-send (contains is read-only; adds are set-idempotent and their
        return mask is not consumed by the engine; a re-sent remove is
        the fingerprint-collision hazard ``crawl.resume_run`` accepts)."""
        shard = (hashes % np.uint64(self.num_shards)).astype(np.int64)
        last_err = None
        for attempt in range(4):
            try:
                refs, masks = [], []
                for i in range(self.num_shards):
                    m = shard == i
                    if m.any():
                        refs.append(
                            getattr(self.actors[i], method).remote(hashes[m]))
                        masks.append(m)
                return list(zip(masks, ray.get(refs)))
            except ray.exceptions.ActorUnavailableError as e:
                last_err = e
                import time as _time
                _time.sleep(0.5 * (attempt + 1))
        raise last_err

    def _scatter_gather(self, hashes: np.ndarray, method: str) -> np.ndarray:
        """The per-key result masks of ``_scatter``, in key order."""
        hashes = np.asarray(hashes, dtype=np.uint64)
        out = np.zeros(len(hashes), dtype=bool)
        for m, res in self._scatter(hashes, method):
            out[m] = res
        return out

    def contains(self, hashes: np.ndarray) -> np.ndarray:
        return self._scatter_gather(hashes, "contains")

    def contains_add(self, hashes: np.ndarray) -> np.ndarray:
        """was_novel mask; novel keys become members atomically per shard."""
        return self._scatter_gather(hashes, "contains_add")

    def remove(self, hashes: np.ndarray) -> tuple[int, int]:
        """Delete keys from their shards (torn-pass mark rollback). The
        multi-engine resume path deletes a crashed engine's WAL-logged
        uncommitted marks from ALL shards — live shards hold the torn
        marks directly, and freshly-restored foreign snapshots may also
        contain them (a foreign commit can postdate the torn marks). That
        is safe because the caller first subtracts hashes present in
        other engines' retained mark-WALs (the auto-salt dup-mark guard
        in ``crawl.resume_run``); snapshot restore only hydrates shards
        whose actors are empty/fresh. Returns total (removed,
        bloom_residual)."""
        counts = [res for _, res in self._scatter(
            np.asarray(hashes, dtype=np.uint64), "remove")]
        return (sum(r for r, _ in counts), sum(b for _, b in counts))

    # ---------------------------------------------------------- checkpoint
    def snapshot_table(self, shard_ids: list[int] | None = None) -> pa.Table:
        """Checkpoint rows of the given shards (default: all), four per
        shard: an int64 header (cuckoo buckets, cuckoo count, bloom bits,
        bloom count, spilled), the cuckoo slots, the stash as flat uint64
        (bucket, fingerprint) pairs and the bloom words."""
        ids = list(range(self.num_shards)) if shard_ids is None else shard_ids
        states = ray.get([self.actors[i].snapshot.remote() for i in ids])
        rows = {"shard_id": [], "kind": [], "bits": [], "num_items": []}
        for sid, st in zip(ids, states):
            ck, bl = st["cuckoo"], st["bloom"]
            hdr = np.array([ck["nbuckets"], ck["count"], bl["nbits"],
                            bl["count"], st["spilled"]], dtype=np.int64)
            stash = np.array(ck["stash"], dtype=np.uint64).reshape(-1)
            for kind, bits, n in (("header", hdr.tobytes(), 0),
                                  ("cuckoo", ck["bits"], ck["count"]),
                                  ("stash", stash.tobytes(), len(ck["stash"])),
                                  ("bloom", bl["bits"], bl["count"])):
                rows["shard_id"].append(sid)
                rows["kind"].append(kind)
                rows["bits"].append(bits)
                rows["num_items"].append(n)
        return pa.table(rows, schema=SEEN_SHARDS)

    def items_per_shard(self) -> list[int]:
        return ray.get([a.num_items.remote() for a in self.actors])

    def restore_from_table(self, table: pa.Table,
                           only_shards: set[int] | None = None) -> None:
        """Restore shard filters from a ``snapshot_table`` fragment.
        *only_shards* restricts which shard ids are touched — multi-engine
        resume uses it to avoid rolling back LIVE shards another engine is
        actively marking (restoring a live shard would erase its in-flight
        seen marks and permit duplicate fetches)."""
        by_shard: dict[int, dict[str, bytes]] = {}
        for row in table.select(["shard_id", "kind", "bits"]).to_pylist():
            if only_shards is None or row["shard_id"] in only_shards:
                by_shard.setdefault(row["shard_id"], {})[row["kind"]] = \
                    row["bits"]
        refs = []
        for sid, parts in by_shard.items():
            nbuckets, ccount, nbits, bcount, spilled = np.frombuffer(
                parts["header"], dtype=np.int64).tolist()
            stash = np.frombuffer(parts["stash"], dtype=np.uint64)
            refs.append(self.actors[sid].restore.remote({
                "cuckoo": {"nbuckets": nbuckets, "bits": parts["cuckoo"],
                           "count": ccount,
                           "stash": stash.reshape(-1, 2).tolist()},
                "bloom": {"nbits": nbits, "bits": parts["bloom"],
                          "count": bcount},
                "spilled": spilled,
            }))
        ray.get(refs)

    def teardown(self) -> None:
        for a in self.actors:
            ray.kill(a)
        self._actors = None
