"""container_crawler_ray — a Ray-Data-native crawl/frontier data engine.

A from-scratch re-expression of the semantics of
``thiagodasilva/container-crawler`` (an OpenStack Swift container-DB
change-scan daemon; see SURVEY.md — the local reference checkout is empty so
citations are spec-level, e.g. ``container_crawler/__init__.py:≈250–270``
[recon]) as an idiomatic Ray Data engine:

- incremental per-partition watermark scans (``last_row`` ROWID analog),
- deterministic partition-parallel ownership (``rowid % R == node_id``),
- bulk vs per-row handler modes,
- retry / error verification queue with watermark gating (all-or-nothing
  per chunk),
- a sharded cuckoo-filter URL-seen set with a bloom spill tier,
- per-host politeness (token bucket + robots rules) scheduled on the
  driver over each pass's bounded, host-sorted candidate table,
- streaming ``map_batches`` fetch stages over zero-copy Arrow,
- checkpoint/resume from atomic parquet tables (Lance-compatible layout).

Nothing here calls ``ray.init()``; the caller owns the Ray session.
"""

__version__ = "0.1.0"


def _defuse_fsspec_http_import_race() -> None:
    """Make concurrent ``ray.data.read_parquet`` calls thread-safe when
    ``aiohttp`` is absent. Ray's path resolution does ``from
    fsspec.implementations.http import HTTPFileSystem`` per dataset and
    catches only ModuleNotFoundError; when two driver threads create
    datasets at once, the loser of the import race sees the OTHER
    thread's partially-initialized module and gets a bare ImportError
    ("cannot import name 'HTTPFileSystem'"), which escapes. Importing
    once here — and, only if that import fails, pinning a stub module
    with a sentinel HTTPFileSystem class into sys.modules — makes every
    later import race-free; Ray's isinstance check against the sentinel
    is simply never true (this engine reads local files only).

    Scoping, for co-resident code: when the real module imports, this
    is a pure pre-import (no stub). The stub only exists when aiohttp
    is genuinely absent, is marked ``__container_crawler_ray_stub__``,
    and is deliberately NON-SILENT — instantiating the sentinel or
    touching any other module attribute raises a descriptive
    ImportError pointing at the missing aiohttp, so code that would
    have relied on the ImportError fallback fails loudly at first use
    instead of misbehaving."""
    import sys
    import types

    try:
        import fsspec.implementations.http  # noqa: F401
    except ImportError:
        try:
            import fsspec.implementations
        except ImportError:
            return  # no fsspec at all: Ray's except path handles it

        _msg = ("fsspec.implementations.http is unavailable (aiohttp is "
                "not installed); this module is a thread-safety stub "
                "pinned by container_crawler_ray — install aiohttp for "
                "a functional HTTPFileSystem")

        def _raise(self, *a, **k):
            raise ImportError(_msg)

        stub = types.ModuleType("fsspec.implementations.http")
        stub.__container_crawler_ray_stub__ = True
        stub.HTTPFileSystem = type(
            "HTTPFileSystem", (),
            {"__init__": _raise, "__doc__": _msg,
             "__container_crawler_ray_stub__": True})
        # AttributeError (not ImportError) keeps the module protocol:
        # hasattr() probes stay false-y, and `from ... import X` still
        # surfaces as ImportError via the import machinery
        stub.__getattr__ = lambda name: (_ for _ in ()).throw(
            AttributeError(f"{_msg} (attribute {name!r})"))
        sys.modules["fsspec.implementations.http"] = stub
        fsspec.implementations.http = stub


_defuse_fsspec_http_import_race()
