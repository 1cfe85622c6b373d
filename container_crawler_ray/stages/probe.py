"""Seen-set probe stage (J1 in SURVEY.md §2) — approximate anti-join
against the sharded cuckoo filter.

``make_probe_fn`` is the candidate probe of ``run_pass``: a read-only
``contains`` that appends a ``seen`` column, run BEFORE politeness so budget
is not wasted on duplicates (read-only → no ordering race between
concurrent batches). Seen marks are not a stage: ``run_pass``
write-ahead-logs the scheduled hashes and applies them from a driver
thread, and it probes the pass's discovered links on the driver, once per
pass.

The verification branch (M4, reference verify_items [recon:
``container_crawler/__init__.py:≈265–275``]): rows NOT owned by this
virtual node are only membership-probed; a miss counts as an error for
watermark gating, mirroring verify failures in the reference.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

from ..state.seen import SeenSet

# Worker-process-level client cache: the mapped function resolves its
# SeenSet once per (run, worker process) and Ray's long-lived worker pool
# amortizes it across passes — no per-pass actor-pool spin-up.
_CLIENTS: dict[tuple, SeenSet] = {}


def _client(seen_args: tuple) -> SeenSet:
    c = _CLIENTS.get(seen_args)
    if c is None:
        c = SeenSet(*seen_args)
        _CLIENTS[seen_args] = c
    return c


def _probe(seen_args: tuple, t: pa.Table) -> pa.Table:
    hashes = t.column("url_hash").to_numpy().astype(np.uint64)
    seen = _client(seen_args).contains(hashes)
    return t.append_column("seen", pa.array(seen))


def make_probe_fn(seen_args: tuple):
    # a partial over a module-level function pickles by reference, so
    # every task in a worker process shares the module's _CLIENTS
    return functools.partial(_probe, seen_args)
