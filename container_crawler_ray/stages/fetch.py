"""Fetch stage: task map_batches with the pluggable handler protocol
(T1/M2/M3 and the §2.10 user-extension surface).

Reference shape [recon: ``container_crawler/base_sync.py:≈10–100``,
``__init__.py:≈260–310``]: a handler object constructed per (container,
pass) with ``handle(row_or_rows, client)``; ``bulk_process=True`` sends the
whole chunk in one call, else each row is queued to a worker pool;
``RetryError`` / exceptions mark the chunk for retry.

Ray-Data re-expression:
- ``make_fetch_fn`` maps stateless tasks over the scheduled rows. The
  handler travels as one ``ray.put`` ref per pass; each worker process
  fetches it and calls ``setup(ctx)`` once, then reuses it from a
  per-process cache for the rest of the pass.
- ``batch_size=None`` in both modes: each driver slice of the scheduled
  rows is one block, one task and one ``documents`` part, so the slice
  count ``run_pass`` picks (≥ 2 per worker) is the task count. Bulk mode
  makes one all-or-nothing ``handle_batch`` per block, so bigger fetch
  blocks are bigger retry units; per-row mode loops over the block with
  PER-ROW error capture into an ``error`` column (exceptions never kill
  the task, mirroring the reference's error list).
- ``apply_fetch`` appends ok/error/doc_id/spans/links to the input batch.
  Every row it receives is fetched: ``run_pass`` dispatches only the rows
  tagged ``scheduled``. In a pass the task then writes its documents part
  and nests its enriched links (``PassOutputs``), so the document payload
  never leaves the task and this map is the pass's one Ray execution.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..schemas import DOCUMENTS, SPAN_STRUCT
from ..sources import synth
from ..storage import TableStore
from .links import pack_link_rows


class RetryError(Exception):
    """Handler-raised: row must be retried next pass (reference
    ``container_crawler/exceptions.py:≈1–10`` [recon])."""


class SkipContainer(Exception):
    """Handler-raised at construction: skip this partition/host this pass."""


class FetchHandler:
    """User-extension surface. Subclass and override."""

    def setup(self, ctx: dict) -> None:  # once per worker per pass
        self.ctx = ctx

    def handle_row(self, row: dict) -> dict:
        """Per-row mode: return {spans, links, size}; raise RetryError to
        send the row to the retry queue."""
        raise NotImplementedError

    def handle_batch(self, rows: list[dict]) -> list[dict]:
        """Bulk mode default: loop handle_row but fail the whole chunk on
        first error (the reference's bulk handle(rows) is all-or-nothing)."""
        return [self.handle_row(r) for r in rows]


class SimulatedFetchHandler(FetchHandler):
    """Deterministic closed-world fetcher (FIXTURES.md §3/§5): spans, links
    and transient first-attempt failures are pure functions of the
    canonical URL. ``parse_cost_bytes`` adds realistic CPU per fetch (an
    md5 seeded with the URL over a shared read-only buffer) so benches
    measure compute, not overhead. The buffer is allocated ONCE per
    worker (``setup``), not per URL — per-row multi-MiB allocations are
    memory-bandwidth-bound and would make the cost model measure the
    allocator instead of the hash."""

    def __init__(self, n_hosts: int, n_paths: int, fail_mod: int,
                 parse_cost_bytes: int = 0):
        self.n_hosts = n_hosts
        self.n_paths = n_paths
        self.fail_mod = fail_mod
        self.parse_cost_bytes = parse_cost_bytes
        self._buf: bytes | None = None

    def setup(self, ctx: dict) -> None:
        super().setup(ctx)
        if self.parse_cost_bytes:
            self._buf = b"\xa5" * self.parse_cost_bytes

    def handle_row(self, row: dict) -> dict:
        url = row["canonical_url"]
        if row["attempts"] == 0 and synth.fails_first_attempt(url, self.fail_mod):
            raise RetryError(f"transient fetch error: {url}")
        if self.parse_cost_bytes:
            import hashlib
            if self._buf is None:       # driver-side / un-setup use
                self._buf = b"\xa5" * self.parse_cost_bytes
            h = hashlib.md5(url.encode())
            h.update(self._buf)
            h.digest()
        return {
            "spans": synth.make_spans(url),
            "links": synth.out_links(url, self.n_hosts, self.n_paths),
        }


def apply_fetch(handler: FetchHandler, bulk: bool, t: pa.Table) -> pa.Table:
    """The fetch kernel: fetch every row of *t* (the pass dispatches only
    its scheduled rows), per-row (errors captured per row) or bulk (one
    handle_batch per chunk, all-or-nothing)."""
    n = len(t)
    rows = t.to_pylist()
    ok = np.zeros(n, dtype=bool)
    err = [""] * n
    spans: list = [None] * n
    links: list = [None] * n
    if bulk:
        try:
            for i, r in enumerate(handler.handle_batch(rows)):
                ok[i] = True
                spans[i] = r["spans"]
                links[i] = r["links"]
        except Exception as e:  # noqa: BLE001 — incl. RetryError
            err = [f"{type(e).__name__}: {e}"] * n
    else:
        for i, row in enumerate(rows):
            try:
                r = handler.handle_row(row)
                ok[i] = True
                spans[i] = r["spans"]
                links[i] = r["links"]
            except Exception as e:  # noqa: BLE001
                err[i] = f"{type(e).__name__}: {e}"
    uh = t.column("url_hash").to_numpy()
    doc_id = [f"{int(h):016x}" if ok[i] else "" for i, h in enumerate(uh)]
    t = t.append_column("ok", pa.array(ok))
    t = t.append_column("error", pa.array(err, type=pa.string()))
    t = t.append_column("doc_id", pa.array(doc_id, type=pa.string()))
    t = t.append_column("spans", pa.array(spans, type=pa.list_(SPAN_STRUCT)))
    t = t.append_column("links", pa.array(links, type=pa.list_(pa.string())))
    return t


@dataclass(frozen=True)
class PassOutputs:
    """A pass's fetch task, after the fetch: writes the ok rows'
    ``documents`` part into *docs_dir*, named by the batch's smallest
    ``url_hash`` (a pass fetches a URL once), so a retried task overwrites
    its part; then swaps ``spans``/``links`` for the nested ``link_rows``."""

    store: TableStore
    docs_dir: str
    pass_id: int
    enrich: Callable            # stages.links.make_link_enrich(...)

    def __call__(self, t: pa.Table) -> pa.Table:
        ok = t.filter(t.column("ok"))
        if len(ok):
            self.store.write_part(pa.table({
                "doc_id": ok.column("doc_id"),
                "url": ok.column("canonical_url"),
                "host": ok.column("host"),
                "pass_id": pa.array(np.full(len(ok), self.pass_id,
                                            dtype=np.int64)),
                "spans": ok.column("spans"),
            }, schema=DOCUMENTS), self.docs_dir,
                f"part-{pc.min(t.column('url_hash')).as_py():016x}")
        return (t.drop_columns(["spans", "links"])
                .append_column("link_rows", pack_link_rows(t, self.enrich)))


# Stateless elastic tasks with a per-worker-process handler cache: the
# handler is built and ``setup`` once per worker per pass, and tasks soak
# up whatever CPUs the other stages leave free, with no pool to size or
# start.
_HANDLERS: dict = {}


def _fetch(handler_ref, bulk: bool, outputs: PassOutputs,
           t: pa.Table) -> pa.Table:
    key = handler_ref.hex()
    h = _HANDLERS.get(key)
    if h is None:
        h = ray.get(handler_ref)
        h.setup({})
        if len(_HANDLERS) > 8:
            _HANDLERS.clear()
        _HANDLERS[key] = h
    return outputs(apply_fetch(h, bulk, t))


def make_fetch_fn(handler_ref, bulk: bool, outputs: PassOutputs):
    # a partial over a module-level function pickles by reference (a
    # closure would carry its own copy of _HANDLERS into every task)
    return functools.partial(_fetch, handler_ref, bulk, outputs)
