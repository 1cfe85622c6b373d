"""Engine configuration (the reference's conf dict, as a dataclass).

Reference defaults [recon: ``container_crawler/__init__.py:≈40–100``]:
``items_chunk=1000, workers=10, poll_interval=5, bulk_process=False``.
We keep the same names/semantics where the concept survives, and add the
graft-mandated knobs (seen-set shards, politeness, partitions).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CrawlConfig:
    # --- reference-equivalent knobs -------------------------------------
    items_chunk: int = 1000          # max rows scanned per partition per pass
    workers: int = 4                 # fetch parallelism: >= 2*workers tasks (reference: thread pool)
    bulk_process: bool = False       # bulk (one handle(rows) per block) vs per-row mode
    num_nodes: int = 1               # replica count R for mod-ownership (ring analog)
    node_id: int = 0                 # this engine's virtual node index (< num_nodes)
    max_attempts: int = 3            # retry-queue cap (attempts >= cap → dead-lettered)

    # partition-level placement (the ring "is this node in the replica set"
    # analog [recon: container_crawler/__init__.py:≈160–180]): this engine
    # instance scans only partitions with partition_id % num_engines ==
    # engine_index. Multi-engine = shared-nothing, like the reference.
    num_engines: int = 1
    engine_index: int = 0
    skip_partitions: tuple = ()      # SkipContainer analog (partition level)

    # --- graft knobs ----------------------------------------------------
    num_partitions: int = 16         # P; partition_id = host_hash % P
    seen_shards: int = 8             # S; shard_id = url_hash % S (named actors)
    cuckoo_capacity: int = 1 << 17   # per-shard cuckoo capacity before bloom spill
    bloom_bits: int = 1 << 22        # per-shard bloom spill tier size (bits)
    pass_time_ms: int = 1000         # virtual wall-time per pass for token buckets
    bucket_capacity_factor: float = 2.0
    fetch_mode: str = "tasks"        # the only fetch mode; kept for old configs
    max_passes: int = 100            # driver-loop bound
    fail_mod: int = 97               # synthetic transient-failure injector (0 = off)
    parse_cost_bytes: int = 0        # simulated per-fetch parse CPU (bench)
    salted_hosts: tuple = ()         # hot hosts spread across partitions by url_hash
    # auto-salt emergent hot hosts (SURVEY.md §4.1): when one host exceeds
    # this share (in thousandths) of a pass's appended frontier rows (and
    # at least auto_salt_min_rows of them), it joins the salted set for
    # every later pass, persisted in meta so resume keeps it. 0 = off.
    auto_salt_share_milli: int = 0
    auto_salt_min_rows: int = 64

    # --- world shape (synthetic closed world) ---------------------------
    n_hosts: int = 200
    n_paths: int = 1000              # closed-world path-id space

    def __post_init__(self):
        assert 0 <= self.node_id < self.num_nodes
        assert self.num_partitions > 0 and self.seen_shards > 0
        if self.fetch_mode != "tasks":
            raise ValueError(f"fetch_mode={self.fetch_mode!r}: the fetch "
                             "stage runs as tasks only")
