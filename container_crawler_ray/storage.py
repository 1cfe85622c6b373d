"""Pluggable table storage (SURVEY.md §1.2): parquet backend with a
Lance-compatible one-directory-per-table layout and atomic replace.

The reference's durable state was one JSON watermark file per container,
written in place [recon: ``container_crawler/base_sync.py:≈40–95``]. Here
every table is a directory of fragment files plus a small JSON manifest;
"atomic replace" tables (checkpoints, retry, seen_shards, buckets) are
committed by write-tmp + ``os.replace`` so a kill at any point leaves either
the old or the new version — never a torn one. Append tables (frontier,
documents, metrics, lineage) gain one fragment per pass, named by pass id so
a re-run of an uncommitted pass overwrites its own fragments idempotently
(this is what makes kill/resume exact).

``north_rule`` asks for Lance. The backend is a pluggable seam: pick with
``TableStore(root, backend=...)`` or the ``GRAFT_STORAGE_BACKEND`` env
var (default ``parquet``). The ``lance`` backend is registered and
becomes live the moment the ``lance`` package is installable (it is not
in this sandbox — no network), at which point the swap is a config
change, not a code change. Custom backends register via
``register_backend``.
"""

from __future__ import annotations

import glob
import json
import os
import re
import shutil
from contextlib import contextmanager
from typing import NamedTuple

import pyarrow as pa
import pyarrow.parquet as pq


_FRAGMENT = re.compile(r"(.+)_(?:(\d{6})x)?(\d{6})(?:\.\w+)?")


class FragmentName(NamedTuple):
    tag: str
    lo: int | None      # first pass of a ``LOxHI`` compaction segment
    # the pass that governs commit visibility: a segment's last pass (it
    # only ever covers committed passes, so HI is the orphan-filter bound)
    hi: int


def fragment_name(tag: str, pass_id: int, ext: str | None = None,
                  lo: int | None = None) -> str:
    """``<tag>_<pass:06d>[.<ext>]``: a pass's fragment file (with *ext*)
    or per-pass directory; with *lo*, the segment of passes lo..pass."""
    seg = "" if lo is None else f"{lo:06d}x"
    name = f"{tag}_{seg}{pass_id:06d}"
    return name if ext is None else f"{name}.{ext}"


def parse_fragment_name(name: str) -> FragmentName | None:
    """The inverse of ``fragment_name``; None for any other file name
    (parts inside a pass directory, sidecars, tmp files, manifests)."""
    m = _FRAGMENT.fullmatch(name)
    if m is None:
        return None
    tag, lo, hi = m.groups()
    return FragmentName(tag, None if lo is None else int(lo), int(hi))


@contextmanager
def _atomic(path: str):
    """Yield a tmp path to write, then ``os.replace`` it onto *path*: a
    kill leaves the old file or the new one. The dot-prefixed tmp name is
    invisible to the fragment globs and to pyarrow directory reads."""
    d, base = os.path.split(path)
    tmp = os.path.join(d, f".{base}.tmp")
    yield tmp
    os.replace(tmp, path)


def _write_json(path: str, obj: dict, indent: int | None = None) -> None:
    with _atomic(path) as tmp, open(tmp, "w") as f:
        json.dump(obj, f, indent=indent)


class ParquetBackend:
    """Default file backend: one parquet file per fragment."""

    ext = "parquet"

    def write(self, table: pa.Table, path: str) -> None:
        # modest row groups so read_parquet can split one fragment into
        # many parallel read tasks (a single-row-group file reads serially)
        pq.write_table(table, path, row_group_size=32 * 1024)

    def read(self, path: str) -> pa.Table:
        return pq.read_table(path)

    def read_where(self, files: list[str], filter) -> pa.Table:
        """In-process scan over fragment files with predicate pushdown:
        row groups whose statistics cannot match are skipped, and only
        the matching rows are materialized."""
        import pyarrow.dataset as pads
        return pads.dataset(files, format="parquet").to_table(filter=filter)


class LanceBackend:
    """Lance file backend (north_rule target). Requires the ``lance``
    package; raises with a clear message where it is not installed so the
    parquet default keeps working everywhere else."""

    ext = "lance"

    def __init__(self):
        try:
            import lance  # noqa: F401
            self._lance = lance
        except ImportError as e:  # pragma: no cover - env-dependent
            raise ImportError(
                "GRAFT_STORAGE_BACKEND=lance but the 'lance' package is "
                "not installed; install pylance or use the parquet "
                "backend") from e

    def write(self, table: pa.Table, path: str) -> None:  # pragma: no cover
        self._lance.write_dataset(table, path, mode="overwrite")

    def read(self, path: str) -> pa.Table:  # pragma: no cover
        return self._lance.dataset(path).to_table()

    def read_where(self, files: list[str], filter) -> pa.Table:  # pragma: no cover
        return pa.concat_tables(
            [self._lance.dataset(f).to_table(filter=filter) for f in files])


_BACKENDS: dict[str, type] = {
    "parquet": ParquetBackend,
    "lance": LanceBackend,
}


def register_backend(name: str, cls: type) -> None:
    """Register a custom storage backend class (must provide ``ext``,
    ``write(table, path)`` and ``read(path) -> Table``; a crawl also needs
    ``read_where(files, filter) -> Table``, its scan)."""
    _BACKENDS[name] = cls


def resolve_backend(name: str | None = None):
    name = name or os.environ.get("GRAFT_STORAGE_BACKEND", "parquet")
    try:
        return _BACKENDS[name]()
    except KeyError:
        raise ValueError(
            f"unknown storage backend {name!r}; "
            f"registered: {sorted(_BACKENDS)}") from None


class TableStore:
    """Directory-of-tables store rooted at *root* (e.g. a crawl run dir)."""

    def __init__(self, root: str, backend=None):
        self.root = root
        self._backend = backend if backend is not None else resolve_backend()
        os.makedirs(os.path.join(root, "tables"), exist_ok=True)

    def _write_file(self, table: pa.Table, path: str) -> None:
        with _atomic(path) as tmp:
            self._backend.write(table, tmp)

    def _read_file(self, path: str) -> pa.Table:
        return self._backend.read(path)

    @property
    def _ext(self) -> str:
        return self._backend.ext

    def read_where(self, files: list[str], filter) -> pa.Table:
        """Backend-dispatched driver read of the rows of *files* that
        match the ``pyarrow.compute`` expression *filter* (pushed into
        the read)."""
        return self._backend.read_where(files, filter)

    def write_part(self, table: pa.Table, d: str, part: str) -> str:
        """Write *table* as file *part* of directory *d* (e.g. a
        ``pass_dir``): tmp + ``os.replace``, so a writer that is retried
        with the same *part* overwrites its file instead of adding one."""
        path = os.path.join(d, f"{part}.{self._ext}")
        self._write_file(table, path)
        return path

    # ------------------------------------------------------------------ paths
    def table_dir(self, name: str) -> str:
        d = os.path.join(self.root, "tables", name)
        os.makedirs(d, exist_ok=True)
        return d

    def _fragment_path(self, name: str, tag: str, pass_id: int,
                       is_dir: bool = False) -> str:
        """Path of *tag*'s pass-*pass_id* fragment file (or per-pass
        directory) in table *name*."""
        return os.path.join(self.table_dir(name), fragment_name(
            tag, pass_id, None if is_dir else self._ext))

    # ------------------------------------------------------ atomic singletons
    def write_current(self, name: str, table: pa.Table) -> None:
        """Atomically replace the single-fragment table *name*."""
        self._write_file(table, os.path.join(self.table_dir(name),
                                              f"current.{self._ext}"))

    def read_current(self, name: str) -> pa.Table | None:
        p = os.path.join(self.table_dir(name), f"current.{self._ext}")
        return self._read_file(p) if os.path.exists(p) else None

    # --------------------------------------------------------------- appends
    def append_fragment(self, name: str, table: pa.Table, pass_id: int,
                        tag: str = "append", meta: dict | None = None) -> str:
        """Write one fragment for *pass_id*. Overwrites (idempotent) if the
        pass is re-run after a mid-pass kill. Optional *meta* (e.g. rowid
        ranges for scan pruning) lands in the per-fragment sidecar manifest.
        """
        frag = self._fragment_path(name, tag, pass_id)
        self._write_file(table, frag)
        if meta is not None:
            _write_json(frag + ".json", meta)
        return frag

    def remove_fragment(self, name: str, tag: str, pass_id: int) -> None:
        """Delete a fragment (and its sidecar) if present. Used by the
        torn-pass purge: a crashed attempt at pass N may leave fragments
        that the re-run won't overwrite (conditional appends are only
        written when non-empty), and once pass N commits those orphans
        would be read back as committed data."""
        frag = self._fragment_path(name, tag, pass_id)
        for p in (frag, frag + ".json"):
            if os.path.exists(p):
                os.remove(p)

    def remove_pass_dir(self, name: str, pass_id: int,
                        tag: str = "pass") -> None:
        """Delete a per-pass streaming-write directory if present (torn-pass
        purge twin of remove_fragment for ``pass_dir`` sinks)."""
        d = self._fragment_path(name, tag, pass_id, is_dir=True)
        if os.path.exists(d):
            shutil.rmtree(d)

    def fragments(self, name: str, committed_passes: int | None = None) -> list[str]:
        """All fragment files of *name* (flat files and per-pass dirs),
        sorted. If *committed_passes* is given, fragments from later
        (uncommitted, possibly torn) passes are excluded — the resume path
        uses this to ignore orphans.

        Compaction awareness: originals listed as covered in
        ``compaction.json`` are skipped even if still on disk (the window
        between manifest commit and original deletion), and ``LOxHI``
        segment files are admitted only when the manifest lists them (a
        segment without a manifest entry is a torn compaction — ignored
        and overwritten by the retry)."""
        d = self.table_dir(name)
        files = sorted(
            glob.glob(os.path.join(d, f"*.{self._ext}"))
            + glob.glob(os.path.join(d, "*", f"*.{self._ext}"))
        )
        man = self._compaction_manifest(name)
        covered: set[str] = set()
        segments: set[str] = set()
        for ent in man.get("covered", []):
            segments.add(ent["segment"])
            covered.update(ent["originals"])
        kept = []
        for f in files:
            base = os.path.basename(f)
            if base in covered:
                continue
            frag = parse_fragment_name(base)
            if frag is not None and frag.lo is not None \
                    and base not in segments:
                continue
            kept.append(f)
        files = kept
        if committed_passes is None:
            return files
        out = []
        for f in files:
            # a pass dir's parts are governed by the dir's name
            frag = parse_fragment_name(os.path.relpath(f, d).split(os.sep)[0])
            if frag is None or frag.hi <= committed_passes:
                out.append(f)
        return out

    # ------------------------------------------------------------ compaction
    def _compaction_manifest(self, name: str) -> dict:
        p = os.path.join(self.table_dir(name), "compaction.json")
        if not os.path.exists(p):
            return {"covered": []}
        with open(p) as f:
            return json.load(f)

    def compact(self, name: str, tag: str = "append",
                upto_pass: int | None = None) -> str | None:
        """Merge the flat ``<tag>_NNNNNN`` fragments (all of them, or
        those with pass ≤ *upto_pass*) into one ``<tag>_LOxHI`` segment —
        the small-file compaction every long-running append store needs
        (at one fragment per pass, a month of 5-minute passes is ~9k
        files; scan planning and sidecar pruning pay per file).

        Crash-safe by manifest ordering: (1) segment written tmp+replace,
        (2) ``compaction.json`` atomically updated to map the segment to
        its covered originals, (3) originals deleted. A crash after (1)
        leaves an unlisted segment that ``fragments()`` ignores; after
        (2), ``fragments()`` serves the segment and skips the originals
        whether or not deletion finished — no state double-reads rows.
        Sidecar manifests (rowid scan pruning) are merged, so the S1
        delta-scan pruning keeps working on the segment. Call only for
        passes already committed (``meta.json``); re-running an
        UNcommitted pass may legitimately rewrite its fragment, which a
        segment must never absorb."""
        d = self.table_dir(name)
        man = self._compaction_manifest(name)
        covered = {o for e in man["covered"] for o in e["originals"]}
        picks = [(p, self._fragment_path(name, tag, p))
                 for p in self.list_fragment_passes(name, tag)
                 if (upto_pass is None or p <= upto_pass)
                 and fragment_name(tag, p, self._ext) not in covered]
        if len(picks) < 2:
            return None
        lo, hi = picks[0][0], picks[-1][0]
        merged = pa.concat_tables([self._read_file(f) for _, f in picks],
                                  promote_options="default")
        metas = [self.fragment_meta(f) for _, f in picks]
        side = None
        if all(m is not None for m in metas):
            per: dict[str, int] = {}
            for m in metas:
                for pid, mx in (m.get("per_partition_max") or {}).items():
                    per[pid] = max(per.get(pid, -1), int(mx))
            side = {"max_rowid": max(m.get("max_rowid", -1) for m in metas),
                    "per_partition_max": per}
        seg_base = fragment_name(tag, hi, self._ext, lo=lo)
        seg = os.path.join(d, seg_base)
        self._write_file(merged, seg)
        if side is not None:
            _write_json(seg + ".json", side)
        man["covered"].append({
            "segment": seg_base,
            "originals": [os.path.basename(f) for _, f in picks]})
        _write_json(os.path.join(d, "compaction.json"), man, indent=1)
        for _, f in picks:
            for p_ in (f, f + ".json"):
                if os.path.exists(p_):
                    os.remove(p_)
        return seg

    def pass_dir(self, name: str, pass_id: int, tag: str = "pass") -> str:
        """Directory for a per-pass table written in parts
        (``write_part``). Cleared first so a re-run of an uncommitted pass
        is idempotent."""
        d = self._fragment_path(name, tag, pass_id, is_dir=True)
        if os.path.exists(d):
            shutil.rmtree(d)
        os.makedirs(d)
        return d

    def read_fragment(self, name: str, tag: str, pass_id: int) -> pa.Table | None:
        p = self._fragment_path(name, tag, pass_id)
        return self._read_file(p) if os.path.exists(p) else None

    def list_fragment_passes(self, name: str, tag: str) -> list[int]:
        """Pass ids of every retained single-pass fragment for ``tag``,
        ascending. Used by the torn-pass rollback guard to scan ALL of a
        foreign engine's retained mark-WALs (retention is pinned by the
        slowest engine's commit frontier, so a fragment can be older than
        that engine's own ``pass_id - _MARK_WAL_KEEP``)."""
        out = []
        for f in glob.glob(os.path.join(self.table_dir(name),
                                        f"{tag}_*.{self._ext}")):
            frag = parse_fragment_name(os.path.basename(f))
            if frag is not None and frag.tag == tag and frag.lo is None:
                out.append(frag.hi)
        return sorted(out)

    def gc_state_fragments(self, name: str, tag: str, keep_from_pass: int) -> None:
        for p in self.list_fragment_passes(name, tag):
            if p < keep_from_pass:
                self.remove_fragment(name, tag, p)

    def fragment_meta(self, frag_path: str) -> dict | None:
        p = frag_path + ".json"
        if os.path.exists(p):
            with open(p) as f:
                return json.load(f)
        return None

    def read_all(self, name: str, committed_passes: int | None = None) -> pa.Table | None:
        files = self.fragments(name, committed_passes)
        if not files:
            return None
        tables = [self._read_file(f) for f in files]
        return pa.concat_tables(tables, promote_options="default")

    # ----------------------------------------------------------------- meta
    def write_meta(self, meta: dict, name: str = "meta.json") -> None:
        """The commit record for a pass: written LAST. ``os.replace`` makes
        it the atomic commit point for the whole pass. Multi-engine runs
        use one meta file per engine (``meta-e<k>.json``)."""
        _write_json(os.path.join(self.root, name), meta, indent=1)

    def read_meta(self, name: str = "meta.json") -> dict | None:
        p = os.path.join(self.root, name)
        if not os.path.exists(p):
            return None
        with open(p) as f:
            return json.load(f)
