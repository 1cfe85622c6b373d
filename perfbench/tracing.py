"""In-memory spans around the calls the benchmark makes into each layer.

A span has a name, a start, an end and a parent. Spans stay in memory
until the run ends. Self time of a span is its duration minus the part of
it that its children cover (children may overlap: the engine marks the
seen set on a driver thread while the fetch runs).

Tracing is switched on only in the traced run. It patches the public
driver-side entry points from outside: ``crawl.run_pass`` (module
attribute, so ``run_crawl`` inside catalog queries is traced too), the
``TableStore`` and ``SeenSet`` methods the driver calls, and it records
the stage ``timings`` and stats ``run_pass`` already returns.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        # a span opened on a helper thread hangs under whatever the main
        # thread is inside (the engine's mark thread runs within run_pass)
        parent = (stack[-1] if stack
                  else self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            sp = Span(len(self.spans), name, time.perf_counter(),
                      parent=parent.id if parent else None, attrs=attrs)
            self.spans.append(sp)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()

    # ---------------------------------------------------------- reporting
    def self_times(self) -> dict[str, float]:
        """Sum of self time per span name."""
        kids: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(s)
        out: dict[str, float] = {}
        for s in self.spans:
            covered = _union_len([(max(c.start, s.start), min(c.end, s.end))
                                  for c in kids.get(s.id, [])])
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - covered
        return out

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def attr_sum(self, name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in self.spans if s.name == name)


def _union_len(iv: list[tuple[float, float]]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(x for x in iv if x[1] > x[0]):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


@contextmanager
def instrument(tracer: Tracer):
    """Patch the driver-side layer entry points for the duration."""
    from container_crawler_ray.pipelines import crawl as crawl_mod
    from container_crawler_ray.state.seen import SeenSet
    from container_crawler_ray.storage import TableStore

    patches = []

    def patch(owner, name, make):
        orig = getattr(owner, name)
        patches.append((owner, name, orig))
        setattr(owner, name, make(orig))

    def run_pass_w(orig):
        def run_pass(*a, **kw):
            with tracer.span("pipelines.crawl.run_pass") as sp:
                stats = orig(*a, **kw)
            sp.attrs.update({k: stats[k] for k in (
                "candidates", "scheduled", "fetched", "deferred",
                "new_frontier_rows", "retry_size")})
            for k, v in (stats.get("timings") or {}).items():
                sp.attrs[f"stage.{k}"] = v
            return stats
        return run_pass

    def contains_add_w(orig):
        def contains_add(self, hashes):
            with tracer.span("state.seen.contains_add", keys=len(hashes)):
                return orig(self, hashes)
        return contains_add

    def simple_w(name):
        def make(orig):
            def wrapped(*a, **kw):
                with tracer.span(name):
                    return orig(*a, **kw)
            return wrapped
        return make

    def append_w(orig):
        def append_fragment(self, *a, **kw):
            with tracer.span("storage.append_fragment") as sp:
                path = orig(self, *a, **kw)
            try:
                sp.attrs["bytes"] = os.path.getsize(path)
            except (OSError, TypeError):
                pass
            return path
        return append_fragment

    patch(crawl_mod, "run_pass", run_pass_w)
    patch(SeenSet, "contains_add", contains_add_w)
    patch(SeenSet, "snapshot_table", simple_w("state.seen.snapshot_table"))
    patch(SeenSet, "restore_from_table",
          simple_w("state.seen.restore_from_table"))
    patch(TableStore, "append_fragment", append_w)
    patch(TableStore, "write_meta", simple_w("storage.write_meta"))
    try:
        yield tracer
    finally:
        for owner, name, orig in reversed(patches):
            setattr(owner, name, orig)
