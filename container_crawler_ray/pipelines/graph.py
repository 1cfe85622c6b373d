"""Iterative graph algorithms over testdata-derived graphs.

Beyond the label-propagation connected components in ``dedup.py``, this
module adds a power-iteration PageRank — the canonical "iterate until
fixpoint over an edge exchange" shape a data engine needs for link
analysis (host ranking in a crawl frontier is the reference-adjacent
use: rank hosts by who links to whom; here the deterministic stand-in
graph is parts co-occurring consecutively within an order).

Everything is INTEGER arithmetic (ranks in parts-per-million,
contributions via floor division) so the result is bit-exact
reproducible regardless of block order or parallelism — integer sums
are associative/commutative where float sums are not. The golden
oracle is a straight-line single-process reimplementation.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from .exchange import bucket_groups, bucket_map, read
from .kernels import _build_edges, adjacency, pack_edges, undirected_edges


def pagerank_parts(sf_dir: str, iters: int = 10,
                   damp_pct: int = 85) -> pd.DataFrame:
    """Integer power-iteration PageRank over the part co-occurrence
    graph. Rank is parts-per-million; each iteration a node u with
    rank r and total out-weight W sends ``(r * damp // 100) * w // W``
    along each out-edge of weight w; a node's new rank is the teleport
    share plus the integer sum of incoming contributions (dangling
    mass is dropped — deterministic and standard).

    Scale shape: edges stay DISTRIBUTED (built once, materialized,
    re-scanned each round); the rank vector is dimension-sized (the
    part catalog — the same class of object every broadcast-LUT join
    in ``joins.py`` ships), broadcast per round via ``ray.put``. Each
    round is one ``map_batches`` over edge blocks emitting per-block
    pre-summed (dst, contribution) partials — the driver reduce is
    |touched parts| × |blocks| rows. At a 10⁹-node catalog the rank
    vector outgrows a broadcast; the fallback is ranks-as-dataset with
    the bucketed co-partition join, same integer semantics.

    Output: (p_partkey, rank_ppm) for every part in the catalog."""
    part = read(sf_dir, "part", columns=["p_partkey"]).to_pandas()
    pk = np.sort(part["p_partkey"].to_numpy(np.int64))
    n_max = int(pk.max()) + 1

    edges = _build_edges(sf_dir)

    # total out-weight per src (one pass, driver-reduced like the LUTs)
    def out_partial(t: pa.Table) -> pa.Table:
        src = t.column("src").to_numpy().astype(np.int64)
        w = t.column("w").to_numpy().astype(np.int64)
        u, inv = np.unique(src, return_inverse=True)
        return pa.table({"src": pa.array(u),
                         "w": pa.array(np.bincount(inv, weights=w)
                                       .astype(np.int64))})

    ow = (edges.map_batches(out_partial, batch_format="pyarrow")
          .to_pandas().groupby("src", as_index=False)["w"].sum())
    W = np.zeros(n_max, dtype=np.int64)
    W[ow["src"].to_numpy(np.int64)] = ow["w"].to_numpy(np.int64)

    teleport = np.int64((100 - damp_pct) * 10_000)   # ppm
    ranks = np.full(n_max, 1_000_000, dtype=np.int64)
    in_cat = np.zeros(n_max, dtype=bool)
    in_cat[pk] = True
    w_ref = ray.put(W)

    for _ in range(iters):
        r_ref = ray.put(ranks)

        def contrib(t: pa.Table, _r=r_ref, _w=w_ref) -> pa.Table:
            r = ray.get(_r)
            w_tot = ray.get(_w)
            src = t.column("src").to_numpy().astype(np.int64)
            dst = t.column("dst").to_numpy().astype(np.int64)
            w = t.column("w").to_numpy().astype(np.int64)
            c = (r[src] * damp_pct // 100) * w // w_tot[src]
            u, inv = np.unique(dst, return_inverse=True)
            return pa.table({"dst": pa.array(u),
                             "c": pa.array(np.bincount(inv, weights=c)
                                           .astype(np.int64))})

        p = (edges.map_batches(contrib, batch_format="pyarrow")
             .to_pandas().groupby("dst", as_index=False)["c"].sum())
        ranks = np.full(n_max, teleport, dtype=np.int64)
        ranks[p["dst"].to_numpy(np.int64)] += p["c"].to_numpy(np.int64)
        ranks[~in_cat] = 0

    return pd.DataFrame({"p_partkey": pk, "rank_ppm": ranks[pk]})


def triangle_count_parts(sf_dir: str) -> pd.DataFrame:
    """Distributed triangle count over the UNDIRECTED part
    co-occurrence graph (same edge derivation as
    :func:`pagerank_parts`; weights dropped, self-loops removed,
    (a<b) canonical form deduplicated).

    Classic degree-ordered node-iterator (Schank 2007, public
    algorithm): orient every edge from the (degree, id)-smaller
    endpoint to the larger, so each out-adjacency is O(√m)-bounded;
    per source node emit its out-neighbor pairs as wedge candidates;
    a triangle exists iff the closing (min,max) pair is itself an
    edge — checked with one bucketed co-partition merge, counted
    map-side. Exchanges move only integer id pairs. The degree table
    is part-dimension-sized and broadcast via ``ray.put``; at web
    scale it would join distributed on the same bucket key instead."""
    und = undirected_edges(sf_dir).materialize()

    # degree over the distinct undirected edge set — dense bincount
    # partials (fixed catalog-sized vectors, no shuffle), same fold as
    # part_kcore: a Ray groupby here pays per node group (~1.2s)
    nd_max = int(read(sf_dir, "part", columns=["p_partkey"])
                 .max("p_partkey"))

    def deg_partial(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy().astype(np.int64)
        b = t.column("b").to_numpy().astype(np.int64)
        cnt = (np.bincount(a, minlength=nd_max + 1)
               + np.bincount(b, minlength=nd_max + 1))
        return pa.table({"v": pa.array([cnt.astype(np.int64).tobytes()],
                                       type=pa.large_binary())})

    dlut = np.zeros(nd_max + 1, dtype=np.int64)
    for row in (und.map_batches(deg_partial, batch_format="pyarrow")
                .take_all()):
        dlut += np.frombuffer(row["v"], dtype=np.int64)
    n_nodes = int((dlut > 0).sum())
    dref = ray.put(dlut)

    # orient low→high by (degree, id); tag for the wedge grouping
    def orient(t: pa.Table) -> pa.Table:
        dl = ray.get(dref)
        a = t.column("a").to_numpy().astype(np.int64)
        b = t.column("b").to_numpy().astype(np.int64)
        a_first = (dlt := dl[a] < dl[b]) | ((dl[a] == dl[b]) & (a < b))
        del dlt
        u = np.where(a_first, a, b)
        v = np.where(a_first, b, a)
        return pa.table({"u": pa.array(u), "v": pa.array(v)})

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized within-group pair expansion (no per-u Python
        # loop): sort by (u, v), then for each row emit pairs with the
        # `rem` rows after it in its u-group via repeat + running index
        u = g["u"].to_numpy(np.int64)
        v = g["v"].to_numpy(np.int64)
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        if len(u) < 2:
            return pd.DataFrame({"a": pd.Series([], dtype=np.int64),
                                 "b": pd.Series([], dtype=np.int64),
                                 "side": pd.Series([], dtype=np.int8)})
        change = np.flatnonzero(u[1:] != u[:-1]) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [len(u)]))
        counts = ends - starts
        gi = np.repeat(np.arange(len(starts)), counts)
        pos = np.arange(len(u)) - starts[gi]
        rem = counts[gi] - pos - 1          # partners after this row
        total = int(rem.sum())
        if total == 0:
            return pd.DataFrame({"a": pd.Series([], dtype=np.int64),
                                 "b": pd.Series([], dtype=np.int64),
                                 "side": pd.Series([], dtype=np.int8)})
        A = np.repeat(np.arange(len(u)), rem)
        offs = np.concatenate(([0], np.cumsum(rem)))
        B = A + 1 + (np.arange(total) - offs[A])
        # v ascending within each u-group → v[A] < v[B] (canonical)
        return pd.DataFrame({"a": v[A], "b": v[B], "side": np.int8(1)})

    wedge_ds = bucket_groups(und.map_batches(orient, batch_format="pyarrow"),
                             "u", wedges)

    def edge_side(t: pa.Table) -> pa.Table:
        return pa.table({"a": t.column("a"), "b": t.column("b"),
                         "side": pa.array(
                             np.zeros(len(t), dtype=np.int8))})

    def pair_key(t: pa.Table) -> np.ndarray:
        a = t.column("a").to_numpy().astype(np.int64)
        b = t.column("b").to_numpy().astype(np.int64)
        return a * 1315423911 + b

    def close_count(g: pd.DataFrame) -> pd.DataFrame:
        e = g[g["side"] == 0][["a", "b"]].drop_duplicates()
        w = g[g["side"] == 1][["a", "b"]]
        n = len(w.merge(e, on=["a", "b"]))
        return pd.DataFrame({"n_triangles": [n]})

    tri = bucket_map([und.map_batches(edge_side, batch_format="pyarrow"),
                      wedge_ds], pair_key, close_count)

    n_edges = int(und.count())
    return pd.DataFrame({"n_nodes": [int(n_nodes)],
                         "n_edges": [n_edges],
                         "n_triangles": [int(tri["n_triangles"].sum())]})


def part_components(sf_dir: str) -> pd.DataFrame:
    """Connected components over the (undirected) part co-occurrence
    graph by distributed min-label propagation to fixpoint — the
    standalone form of the label propagation inside
    ``dedup.embedding_dup_groups``, exposed as a first-class graph op.

    Each round: broadcast the label array (node→current min label),
    every edge bucket emits per-bucket pre-reduced (node, min neighbor
    label) partials (``np.minimum.at`` — min is commutative, so
    partials merge exactly regardless of block order), the driver folds
    them in and stops when no label changed. Rounds ≤ graph diameter.
    The label vector here is dimension-sized (parts); at a scale where
    it is not, labels become a keyed table co-partitioned with the
    edges and the fold becomes a ``groupby(node).min`` — same algebra.
    Output: one row per node with its component id (= the component's
    minimum partkey) plus the component size, sorted by part."""
    edges = _build_edges(sf_dir)

    n_max = int(read(sf_dir, "part", columns=["p_partkey"])
                .to_pandas()["p_partkey"].max())
    labels = np.arange(n_max + 1, dtype=np.int64)

    while True:
        ref = ray.put(labels)

        def props(t: pa.Table) -> pa.Table:
            lab = ray.get(ref)
            src = t.column("src").to_numpy().astype(np.int64)
            dst = t.column("dst").to_numpy().astype(np.int64)
            m = np.minimum(lab[src], lab[dst])
            nodes = np.concatenate([src, dst])
            vals = np.concatenate([m, m])
            uniq, inv = np.unique(nodes, return_inverse=True)
            best = np.full(len(uniq), np.iinfo(np.int64).max,
                           dtype=np.int64)
            np.minimum.at(best, inv, vals)
            return pa.table({"node": pa.array(uniq),
                             "lab": pa.array(best)})

        part = edges.map_batches(props, batch_format="pyarrow").to_pandas()
        agg = part.groupby("node", as_index=False)["lab"].min()
        new = labels.copy()
        idx = agg["node"].to_numpy(np.int64)
        np.minimum.at(new, idx, agg["lab"].to_numpy(np.int64))
        if (new == labels).all():
            break
        labels = new

    # only nodes that appear in at least one edge are graph members
    e = edges.to_pandas()
    nodes = np.unique(np.concatenate([e["src"].to_numpy(np.int64),
                                      e["dst"].to_numpy(np.int64)]))
    comp = labels[nodes]
    sizes = pd.Series(comp).map(pd.Series(comp).value_counts()).to_numpy()
    out = pd.DataFrame({"p_partkey": nodes, "component": comp,
                        "component_size": sizes.astype(np.int64)})
    return out.sort_values("p_partkey").reset_index(drop=True)


def part_bfs_hops(sf_dir: str, max_hops: int = 3) -> pd.DataFrame:
    """Single-source BFS (min-hop distances) over the undirected part
    co-occurrence graph, from the smallest part key present in any
    edge — the frontier-expansion primitive under reachability,
    shortest-path and crawl-depth queries. Each round broadcasts the
    CURRENT FRONTIER only (never the visited set's payload): edge
    blocks emit their frontier-adjacent neighbors pre-deduped per
    block (np.unique), the driver folds the dimension-sized distance
    array and advances. Rounds = min(max_hops, eccentricity); per
    round the exchange moves <= |new frontier| rows per block. At a
    scale where the distance array outgrows the driver, dist becomes
    a keyed table co-partitioned with edges and the fold a
    groupby(node).min — the same algebra as ``part_components``.
    Oracle: DuckDB WITH RECURSIVE over the identical edge derivation
    (LEAD window with the same (l_linenumber, l_partkey) tie-break).
    """
    edges = _build_edges(sf_dir)

    n_max = int(read(sf_dir, "part", columns=["p_partkey"])
                .to_pandas()["p_partkey"].max())
    inf = np.iinfo(np.int64).max
    dist = np.full(n_max + 1, inf, dtype=np.int64)

    # source = min node over the edge set (src ∪ dst)
    lo = edges.map_batches(
        lambda t: pa.table({"m": pa.array([min(
            int(pc.min(t.column("src")).as_py()),
            int(pc.min(t.column("dst")).as_py()))])}),
        batch_format="pyarrow").to_pandas()
    src0 = int(lo["m"].min())
    dist[src0] = 0
    frontier = np.array([src0], dtype=np.int64)

    for h in range(1, max_hops + 1):
        ref = ray.put(np.sort(frontier))

        def neigh(t: pa.Table, _ref=ref) -> pa.Table:
            f = ray.get(_ref)
            src = t.column("src").to_numpy().astype(np.int64)
            dst = t.column("dst").to_numpy().astype(np.int64)

            def hits(a, b):
                pos = np.clip(np.searchsorted(f, a), 0, len(f) - 1)
                return b[f[pos] == a]

            out = np.unique(np.concatenate(
                [hits(src, dst), hits(dst, src)]))
            return pa.table({"node": pa.array(out)})

        seen = (edges.map_batches(neigh, batch_format="pyarrow")
                .to_pandas()["node"].unique())
        nxt = seen[dist[seen] == inf]
        if len(nxt) == 0:
            break
        dist[nxt] = h
        frontier = nxt

    nodes = np.flatnonzero(dist != inf)
    return pd.DataFrame({"p_partkey": nodes.astype(np.int64),
                         "hops": dist[nodes]})


def part_kcore(sf_dir: str, k: int = 30) -> pd.DataFrame:
    """k-core decomposition (k=30 — chosen so peeling actually cascades
    on the dense co-occurrence graph) of the undirected part
    graph by iterative peeling: repeatedly delete every node with
    degree < k until fixpoint — the dense-subgraph filter under spam
    farms and community kernels. The k-core is ORDER-INDEPENDENT (the
    maximal subgraph with min degree ≥ k is unique), so distributed
    rounds match any sequential peeling exactly. Cluster shape per
    round: one map_batches over the DISTRIBUTED edge set emits
    per-block dense bincount partials (fixed catalog-sized int64
    vectors — no shuffle; summed on the driver like a gradient
    all-reduce), the fold picks the victims, and the shrinking alive-mask
    broadcasts back (``ray.put`` bitmask over the part catalog — the
    same class of broadcast as the PageRank rank vector; at a 10⁹-node
    catalog the mask becomes a keyed table co-partitioned with edges).
    Edges are re-filtered lazily; rounds = peeling depth (typically
    ≤ tens). Golden-oracled against a single-process peel."""
    und = undirected_edges(sf_dir).materialize()

    n_max = int(read(sf_dir, "part", columns=["p_partkey"])
                .to_pandas()["p_partkey"].max())
    alive = np.ones(n_max + 1, dtype=bool)

    while True:
        aref = ray.put(alive)

        def deg_partial(t: pa.Table, _aref=aref) -> pa.Table:
            # fixed-size dense bincount partial per block: the node
            # dimension is catalog-sized, so the degree fold needs NO
            # shuffle — a Ray groupby here pays ~60 µs × 20k groups
            # PER PEELING ROUND (measured 21.8 s total at sf0.1 vs
            # ~2 s for this fold)
            al = ray.get(_aref)
            a = t.column("a").to_numpy().astype(np.int64)
            b = t.column("b").to_numpy().astype(np.int64)
            m = al[a] & al[b]
            cnt = (np.bincount(a[m], minlength=len(al))
                   + np.bincount(b[m], minlength=len(al)))
            return pa.table({"v": pa.array([cnt.astype(np.int64)
                                            .tobytes()],
                                           type=pa.large_binary())})

        total = np.zeros(n_max + 1, dtype=np.int64)
        for row in (und.map_batches(deg_partial, batch_format="pyarrow")
                    .take_all()):
            total += np.frombuffer(row["v"], dtype=np.int64)
        nodes = np.flatnonzero(total)
        degs = total[nodes]
        victims = nodes[degs < k]
        # also peel alive nodes that lost ALL edges this round
        isolated = np.flatnonzero(alive)
        isolated = isolated[~np.isin(isolated, nodes)]
        if len(victims) == 0 and len(isolated) == 0:
            final = pd.DataFrame({"p_partkey": nodes, "core_deg": degs})
            return (final.sort_values("p_partkey", kind="mergesort")
                    .reset_index(drop=True)
                    .astype({"p_partkey": "int64", "core_deg": "int64"}))
        alive[victims] = False
        alive[isolated] = False
        if not alive.any():
            return pd.DataFrame({
                "p_partkey": pd.Series([], dtype="int64"),
                "core_deg": pd.Series([], dtype="int64")})


def part_link_prediction(sf_dir: str, topn: int = 100) -> pd.DataFrame:
    """Common-neighbors link prediction over the undirected part
    co-occurrence graph (the classic Liben-Nowell & Kleinberg '03
    baseline): the ``topn`` NON-adjacent part pairs sharing the most
    neighbors, fully tie-broken by (cn DESC, p1, p2). Same edge
    derivation as :func:`triangle_count_parts`; the difference from
    triangle counting is that wedges are enumerated at EVERY center
    (full adjacency, both directions) because the pair (x, y) must be
    credited once per shared neighbor, not once per oriented edge.
    Shape: one ``groupby(center % B)`` exchange, the repeat+running-
    index pair expansion per center (no per-node loop), per-bucket
    pre-counted packed pairs (partkey < 2^21 per lane — widen at
    larger catalogs), one re-bucket by pair hash for exact counts,
    existing edges removed by a broadcast sorted-array searchsorted
    (edge set is part-dimension-sized here; at web scale it would
    co-partition on the same pair hash instead), and each reduce
    bucket ships only its local top-N under the full output order.
    Wedge blow-up is Σ C(deg, 2) — a hub cap/salt would bound it on a
    power-law graph. SQL twin: adjacency self-join + anti-join."""
    und = undirected_edges(sf_dir).materialize()

    # broadcast the packed edge set for the non-edge filter
    epk = np.sort(np.concatenate(
        [b.column("pk").to_numpy() for b in
         und.map_batches(pack_edges, batch_format="pyarrow")
         .iter_batches(batch_format="pyarrow", batch_size=None)]
        or [np.array([], dtype=np.int64)]))
    eref = ray.put(epk)

    def wedge_counts(g: pd.DataFrame) -> pa.Table:
        u = g["u"].to_numpy(np.int64)
        v = g["v"].to_numpy(np.int64)
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        empty = pa.table({"pair": pa.array([], type=pa.int64()),
                          "n": pa.array([], type=pa.int64())})
        if len(u) < 2:
            return empty
        change = np.flatnonzero(u[1:] != u[:-1]) + 1
        starts = np.concatenate(([0], change))
        counts = np.concatenate((change, [len(u)])) - starts
        gi = np.repeat(np.arange(len(starts)), counts)
        rem = counts[gi] - (np.arange(len(u)) - starts[gi]) - 1
        total = int(rem.sum())
        if total == 0:
            return empty
        A = np.repeat(np.arange(len(u)), rem)
        offs = np.concatenate(([0], np.cumsum(rem)))
        B = A + 1 + (np.arange(total) - offs[A])
        pk = v[A] * (1 << 21) + v[B]       # v sorted per center → a < b
        uk, cnt = np.unique(pk, return_counts=True)
        return pa.table({"pair": pa.array(uk),
                         "n": pa.array(cnt.astype(np.int64))})

    def reduce_top(g: pd.DataFrame) -> pa.Table:
        out = g.groupby("pair", as_index=False)["n"].sum()
        pk = out["pair"].to_numpy(np.int64)
        ed = ray.get(eref)
        pos = np.searchsorted(ed, pk)
        is_edge = (pos < len(ed)) & (ed[np.minimum(pos, len(ed) - 1)]
                                     == pk)
        out = out[~is_edge]
        out = out.sort_values(["n", "pair"], ascending=[False, True],
                              kind="mergesort").head(topn)
        return pa.Table.from_pandas(out, preserve_index=False)

    out = bucket_map(
        bucket_groups(und.map_batches(adjacency, batch_format="pyarrow"),
                      "u", wedge_counts),
        "pair", reduce_top)
    out = out.sort_values(["n", "pair"], ascending=[False, True],
                          kind="mergesort").head(topn)
    pk = out["pair"].to_numpy(np.int64)
    return pd.DataFrame({
        "p1": pk >> 21, "p2": pk & ((1 << 21) - 1),
        "cn": out["n"].to_numpy(np.int64)}).astype("int64")


def part_neighbor_jaccard(sf_dir: str, topn: int = 100) -> pd.DataFrame:
    """Edge-level neighborhood similarity: for each EXISTING edge
    (a, b) of the undirected part co-occurrence graph, the Jaccard
    similarity of the two endpoints' neighbor sets in exact basis
    points — cn·10⁴ // (deg_a + deg_b − cn) — ranked (jacc DESC, a, b),
    top ``topn``. The local-structure score tiered crawlers use to
    find redundant link neighborhoods. Same wedge enumeration as
    :func:`part_link_prediction` (an edge's common-neighbor count is
    its triangle count), but the anti-filter flips: only pairs that
    ARE edges survive. Degrees come from one dense bincount over the
    distinct edge set and are broadcast once (part-dimension-sized; at
    web scale the deg lookup co-partitions by node on the same hash
    instead). Edges with zero common neighbors score 0 and are
    excluded on both sides (the wedge join never produces them).
    SQL twin: adjacency self-join + degree join."""
    und = undirected_edges(sf_dir).materialize()

    epk = np.sort(np.concatenate(
        [blk.column("pk").to_numpy() for blk in
         und.map_batches(pack_edges, batch_format="pyarrow")
         .iter_batches(batch_format="pyarrow", batch_size=None)]
        or [np.array([], dtype=np.int64)]))
    nodes = np.concatenate([epk >> 21, epk & ((1 << 21) - 1)])
    deg = np.bincount(nodes) if len(nodes) else np.zeros(1, np.int64)
    eref = ray.put(epk)
    dref = ray.put(deg.astype(np.int64))

    def wedge_counts(g: pd.DataFrame) -> pa.Table:
        u = g["u"].to_numpy(np.int64)
        v = g["v"].to_numpy(np.int64)
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        empty = pa.table({"pair": pa.array([], type=pa.int64()),
                          "n": pa.array([], type=pa.int64())})
        if len(u) < 2:
            return empty
        change = np.flatnonzero(u[1:] != u[:-1]) + 1
        starts = np.concatenate(([0], change))
        counts = np.concatenate((change, [len(u)])) - starts
        gi = np.repeat(np.arange(len(starts)), counts)
        rem = counts[gi] - (np.arange(len(u)) - starts[gi]) - 1
        total = int(rem.sum())
        if total == 0:
            return empty
        A = np.repeat(np.arange(len(u)), rem)
        offs = np.concatenate(([0], np.cumsum(rem)))
        B = A + 1 + (np.arange(total) - offs[A])
        pk = v[A] * (1 << 21) + v[B]
        # only pairs that ARE edges can survive downstream — probe the
        # broadcast sorted edge set BEFORE the unique+exchange (cuts the
        # wedge stream by the non-edge share, typically ~100x)
        ed = ray.get(eref)
        if len(ed):
            pos = np.searchsorted(ed, pk)
            pk = pk[(pos < len(ed))
                    & (ed[np.minimum(pos, len(ed) - 1)] == pk)]
        if not len(pk):
            return empty
        uk, cnt = np.unique(pk, return_counts=True)
        return pa.table({"pair": pa.array(uk),
                         "n": pa.array(cnt.astype(np.int64))})

    def reduce_top(g: pd.DataFrame) -> pa.Table:
        out = g.groupby("pair", as_index=False)["n"].sum()
        pk = out["pair"].to_numpy(np.int64)
        ed = ray.get(eref)
        pos = np.searchsorted(ed, pk)
        is_edge = (pos < len(ed)) & (ed[np.minimum(pos, len(ed) - 1)]
                                     == pk)
        out = out[is_edge]
        if not len(out):
            return pa.table({"pair": pa.array([], type=pa.int64()),
                             "cn": pa.array([], type=pa.int64()),
                             "deg_a": pa.array([], type=pa.int64()),
                             "deg_b": pa.array([], type=pa.int64()),
                             "jacc_bps": pa.array([], type=pa.int64())})
        dg = ray.get(dref)
        pk = out["pair"].to_numpy(np.int64)
        cn = out["n"].to_numpy(np.int64)
        da = dg[pk >> 21]
        db = dg[pk & ((1 << 21) - 1)]
        jb = cn * 10000 // (da + db - cn)
        loc = pd.DataFrame({"pair": pk, "cn": cn, "deg_a": da,
                            "deg_b": db, "jacc_bps": jb})
        loc = loc.sort_values(["jacc_bps", "pair"],
                              ascending=[False, True],
                              kind="mergesort").head(topn)
        return pa.Table.from_pandas(loc, preserve_index=False)

    out = bucket_map(
        bucket_groups(und.map_batches(adjacency, batch_format="pyarrow"),
                      "u", wedge_counts),
        "pair", reduce_top)
    out = out.sort_values(["jacc_bps", "pair"], ascending=[False, True],
                          kind="mergesort").head(topn)
    pk = out["pair"].to_numpy(np.int64)
    return pd.DataFrame({
        "p1": pk >> 21, "p2": pk & ((1 << 21) - 1),
        "cn": out["cn"].to_numpy(np.int64),
        "deg_a": out["deg_a"].to_numpy(np.int64),
        "deg_b": out["deg_b"].to_numpy(np.int64),
        "jacc_bps": out["jacc_bps"].to_numpy(np.int64)}).astype("int64")


def part_clustering_coeff(sf_dir: str) -> pd.DataFrame:
    """Local clustering coefficient per node in exact basis points:
    cc_bps = closed_wedges·10⁴ // C(deg, 2) for every part with
    degree ≥ 2 — the how-clique-is-my-neighborhood score. One bucketed
    exchange: adjacency groups by center, each bucket enumerates the
    center's neighbor pairs (the :func:`part_link_prediction` repeat +
    running-index expansion), tests closure against the broadcast
    sorted edge array with ONE searchsorted, and reduceats closed
    counts per center — per-center results never leave their bucket,
    so no second exchange. Degrees come from the dense bincount over
    the distinct edge set (part-dimension-sized on the driver; at web
    scale the zero-closed tail would be emitted from a co-partitioned
    degree table instead). SQL twin: wedge join + edge join + degree
    anti-fill."""
    und = undirected_edges(sf_dir).materialize()

    epk = np.sort(np.concatenate(
        [blk.column("pk").to_numpy() for blk in
         und.map_batches(pack_edges, batch_format="pyarrow")
         .iter_batches(batch_format="pyarrow", batch_size=None)]
        or [np.array([], dtype=np.int64)]))
    nodes = np.concatenate([epk >> 21, epk & ((1 << 21) - 1)])
    deg = (np.bincount(nodes).astype(np.int64) if len(nodes)
           else np.zeros(1, np.int64))
    eref = ray.put(epk)

    def closed_per_center(g: pd.DataFrame) -> pa.Table:
        u = g["u"].to_numpy(np.int64)
        v = g["v"].to_numpy(np.int64)
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        empty = pa.table({"p_partkey": pa.array([], type=pa.int64()),
                          "n_closed": pa.array([], type=pa.int64())})
        if len(u) < 2:
            return empty
        change = np.flatnonzero(u[1:] != u[:-1]) + 1
        starts = np.concatenate(([0], change))
        counts = np.concatenate((change, [len(u)])) - starts
        gi = np.repeat(np.arange(len(starts)), counts)
        rem = counts[gi] - (np.arange(len(u)) - starts[gi]) - 1
        total = int(rem.sum())
        if total == 0:
            return empty
        A = np.repeat(np.arange(len(u)), rem)
        offs = np.concatenate(([0], np.cumsum(rem)))
        B = A + 1 + (np.arange(total) - offs[A])
        pk = v[A] * (1 << 21) + v[B]       # v sorted per center → a < b
        ed = ray.get(eref)
        pos = np.searchsorted(ed, pk)
        closed = ((pos < len(ed))
                  & (ed[np.minimum(pos, len(ed) - 1)] == pk))
        # wedges of one center are contiguous in A's ascending order;
        # center g owns exactly C(counts[g], 2) of them starting at the
        # cumsum of the previous centers' wedge counts (centers with
        # zero wedges must be EXCLUDED from the reduceat index list —
        # a duplicated index would hand them the next center's first
        # wedge)
        wc = counts * (counts - 1) // 2
        wstart = np.concatenate(([0], np.cumsum(wc)))[:-1]
        keep = wc > 0
        cnt = np.add.reduceat(closed.astype(np.int64), wstart[keep])
        return pa.table({"p_partkey": pa.array(u[starts[keep]]),
                         "n_closed": pa.array(cnt)})

    got = bucket_map(und.map_batches(adjacency, batch_format="pyarrow"),
                     "u", closed_per_center)
    # every node with deg >= 2, zero-filled where no wedge closed
    keys = np.flatnonzero(deg >= 2).astype(np.int64)
    closed = np.zeros(len(deg), dtype=np.int64)
    if len(got):
        closed[got["p_partkey"].to_numpy(np.int64)] = \
            got["n_closed"].to_numpy(np.int64)
    d = deg[keys]
    return pd.DataFrame({
        "p_partkey": keys, "deg": d, "n_closed": closed[keys],
        "cc_bps": closed[keys] * 10000 // (d * (d - 1) // 2)}) \
        .astype("int64")


def part_assortativity(sf_dir: str) -> pd.DataFrame:
    """Degree assortativity of the part graph: Pearson correlation of
    endpoint degrees over all directed edge orientations (the Newman
    2002 convention) — positive means hubs link to hubs. Exact int64
    moment sums (m, Σx, Σy, Σxy, Σx², Σy²) accumulate per block
    against the broadcast degree array (zero shuffle — the edge set is
    already distinct), and the closed form is evaluated in float64
    with the SAME operation order as the SQL twin (the
    ``lineitem_corr`` IEEE-matching discipline). r_milli =
    floor(1000·r)."""
    und = undirected_edges(sf_dir).materialize()
    ab = und.to_pandas()
    a = ab["a"].to_numpy(np.int64)
    b = ab["b"].to_numpy(np.int64)
    deg = np.bincount(np.concatenate([a, b])).astype(np.int64)
    dref = ray.put(deg)

    def moments(t: pa.Table) -> pa.Table:
        dg = ray.get(dref)
        aa = t.column("a").to_numpy().astype(np.int64)
        bb = t.column("b").to_numpy().astype(np.int64)
        x = np.concatenate([dg[aa], dg[bb]])    # both orientations
        y = np.concatenate([dg[bb], dg[aa]])
        return pa.table({
            "m": pa.array([len(x)]),
            "sx": pa.array([int(x.sum())]),
            "sy": pa.array([int(y.sum())]),
            "sxy": pa.array([int((x * y).sum())]),
            "sxx": pa.array([int((x * x).sum())]),
            "syy": pa.array([int((y * y).sum())])})

    p = und.map_batches(moments, batch_format="pyarrow").to_pandas()
    m = float(p["m"].sum())
    sx, sy = float(p["sx"].sum()), float(p["sy"].sum())
    sxy = float(p["sxy"].sum())
    sxx, syy = float(p["sxx"].sum()), float(p["syy"].sum())
    num = m * sxy - sx * sy
    r_milli = int(np.floor(num / (np.sqrt(m * sxx - sx * sx)
                                  * np.sqrt(m * syy - sy * sy))
                           * 1000.0))
    return pd.DataFrame({"n_edges": [len(a)],
                         "m_oriented": [int(p["m"].sum())],
                         "r_milli": [r_milli]}).astype("int64")


def part_rich_club(sf_dir: str) -> pd.DataFrame:
    """RICH-CLUB coefficient of the part co-purchase graph — do the
    highest-degree parts preferentially link to EACH OTHER (a hub
    oligarchy the assortativity scalar can miss): the distributed
    edge builder (`kernels._build_edges`) feeds an undirected
    distinct edge set; the club at p90/p99 is the top ceil(N/10) /
    ceil(N/100) nodes by the total order (degree desc, partkey), and
    each club's internal density reports as the exact integer
    phi_bps = 10000 * 2 * E_club // (Nc * (Nc - 1)) alongside the
    whole-graph density and the rich-club lift in bps (cross-
    multiplied, -1 when degenerate). The degree/rank sweep runs on
    the catalog-sized driver grid — the same documented assumption
    as every part-graph op. Pure integers; LIVE SQL twin via the
    LAG-pair edge derivation."""
    edges = _build_edges(sf_dir).to_pandas()
    a = np.minimum(edges["src"].to_numpy(np.int64),
                   edges["dst"].to_numpy(np.int64))
    b = np.maximum(edges["src"].to_numpy(np.int64),
                   edges["dst"].to_numpy(np.int64))
    keep = a != b
    und = pd.DataFrame({"a": a[keep], "b": b[keep]}) \
        .drop_duplicates(["a", "b"])
    deg = pd.concat([und["a"], und["b"]]).value_counts().sort_index()
    nodes = deg.index.to_numpy(np.int64)
    d = deg.to_numpy(np.int64)
    n = len(nodes)
    m = len(und)
    order = np.lexsort((nodes, -d))
    rows = []
    g_dens = 10_000 * 2 * m // (n * (n - 1)) if n > 1 else -1
    for label, den in (("p90", 10), ("p99", 100)):
        nc = -(-n // den)
        club = set(nodes[order[:nc]].tolist())
        ec = int((und["a"].isin(club) & und["b"].isin(club)).sum())
        if nc > 1:
            phi = 10_000 * 2 * ec // (nc * (nc - 1))
            lift = 10_000 * phi // g_dens if g_dens > 0 else -1
        else:
            phi, lift = -1, -1
        rows.append((label, n, m, nc, ec, phi, g_dens, lift))
    return pd.DataFrame(rows, columns=[
        "club", "n_nodes", "n_edges", "club_size", "club_edges",
        "phi_bps", "graph_density_bps", "lift_bps"]).astype(
        {c: "int64" for c in ("n_nodes", "n_edges", "club_size",
                              "club_edges", "phi_bps",
                              "graph_density_bps", "lift_bps")})


def part_graph_modularity(sf_dir: str) -> pd.DataFrame:
    """NEWMAN MODULARITY of the brand partition on the co-purchase
    graph — "do parts of the same brand ride in the same orders?" —
    kept EXACT by the cleared-denominator identity 4m^2*Q =
    sum_c (4m*L_c - D_c^2): per-brand within-community edges L_c and
    degree mass D_c are plain integers, so each community's signed
    contribution (positive = denser than the configuration-model
    expectation) closes with NO float and NO rational ever formed.
    Edges come from the shared distributed builder
    (:func:`_build_edges`, one orderkey exchange) + the undirect/
    distinct exchange; brands are a broadcast part-dimension lookup.
    The per-brand fold is community-cardinality-sized (25 brands)."""
    und = undirected_edges(sf_dir).to_pandas()
    a = und["a"].to_numpy(np.int64)
    b = und["b"].to_numpy(np.int64)
    m = len(a)
    pt = read(sf_dir, "part", columns=["p_partkey", "p_brand"]) \
        .to_pandas()
    codes, uniq = pd.factorize(pt["p_brand"], sort=True)
    lut = np.full(int(pt["p_partkey"].max()) + 1, -1, np.int64)
    lut[pt["p_partkey"].to_numpy(np.int64)] = codes
    k = len(uniq)
    ca, cb = lut[a], lut[b]
    l_in = np.bincount(ca[ca == cb], minlength=k).astype(np.int64)
    deg = np.bincount(np.concatenate([a, b]),
                      minlength=len(lut)).astype(np.int64)
    nodes = np.flatnonzero(deg > 0)
    cn = lut[nodes]
    n_nodes = np.bincount(cn, minlength=k).astype(np.int64)
    d_sum = np.bincount(cn, weights=deg[nodes],
                        minlength=k).astype(np.int64)
    keep = np.flatnonzero(n_nodes > 0)
    contrib = [4 * m * int(l_in[c]) - int(d_sum[c]) ** 2 for c in keep]
    return pd.DataFrame({
        "brand": [str(uniq[c]) for c in keep],
        "n_nodes": n_nodes[keep], "l_in": l_in[keep],
        "d_sum": d_sum[keep], "contrib": contrib,
        "m_edges": m}).astype(
        {c: "int64" for c in ("n_nodes", "l_in", "d_sum", "contrib",
                              "m_edges")}) \
        .sort_values("brand", kind="mergesort").reset_index(drop=True)


def part_degree_ccdf(sf_dir: str) -> pd.DataFrame:
    """DEGREE-DISTRIBUTION ladder of the co-purchase graph — the
    is-it-scale-free readout that decides hub-aware partitioning at
    100 TB: node degrees from the shared distributed edge builder
    band by exact BIT-LENGTH (the frexp exponent here,
    length(printf('%b', d)) in the twin — the integer-log2 lattice),
    and each band reports node count, edge-endpoint mass, the
    CCDF tail (nodes at or above the band) and its share in exact
    bps. A straight ccdf_bps ladder on this log scale = power law;
    a cliff = bounded degrees. Degrees come from the same
    undirect/distinct exchange as the clustering ops; the band fold
    is ~12 rows. Pure integers, zero float."""
    und = undirected_edges(sf_dir).to_pandas()
    nodes = np.concatenate([und["a"].to_numpy(np.int64),
                            und["b"].to_numpy(np.int64)])
    deg = np.bincount(nodes).astype(np.int64)
    deg = deg[deg > 0]
    n = len(deg)
    band = np.frexp(deg.astype(np.float64))[1].astype(np.int64)
    k = int(band.max()) + 1
    n_nodes = np.bincount(band, minlength=k).astype(np.int64)
    mass = np.bincount(band, weights=deg, minlength=k).astype(np.int64)
    keep = np.flatnonzero(n_nodes > 0)
    ccdf = np.cumsum(n_nodes[::-1])[::-1]
    return pd.DataFrame({
        "band": keep, "n_nodes": n_nodes[keep],
        "deg_mass": mass[keep], "ccdf_nodes": ccdf[keep],
        "ccdf_bps": 10000 * ccdf[keep] // n}).astype("int64")


def part_walk_centrality(sf_dir: str) -> pd.DataFrame:
    """TWO-STEP WALK centrality on the co-purchase graph — the Katz
    truncation that separates "hub" from "next to hubs": score(u) =
    deg(u) + walks2(u) where walks2(u) = sum of deg(v) over u's
    neighbors (2-step walk count, backtracks included, the exact
    A^2 row sum). Degrees and the neighbor-sum both come from the
    shared undirect/distinct edge exchange; the neighbor fold is one
    vectorized take over the part-dimension degree array — no second
    exchange. Top 20 under the (score desc, partkey asc) total
    order. Pure integers; the two-hop influence ranking a frontier
    scheduler uses to pre-warm hot neighborhoods."""
    und = undirected_edges(sf_dir).to_pandas()
    a = und["a"].to_numpy(np.int64)
    b = und["b"].to_numpy(np.int64)
    deg = np.bincount(np.concatenate([a, b])).astype(np.int64)
    w2 = np.zeros_like(deg)
    np.add.at(w2, a, deg[b])
    np.add.at(w2, b, deg[a])
    nodes = np.flatnonzero(deg > 0)
    score = deg[nodes] + w2[nodes]
    order = np.lexsort((nodes, -score))[:20]
    pick = nodes[order]
    return pd.DataFrame({
        "p_partkey": pick, "deg": deg[pick], "walks2": w2[pick],
        "score": deg[pick] + w2[pick],
        "rk": np.arange(1, len(pick) + 1, dtype=np.int64)}) \
        .astype("int64")


def brand_edge_affinity(sf_dir: str) -> pd.DataFrame:
    """CROSS-BRAND affinity edges — the mixing-matrix detail behind
    :func:`part_graph_modularity`: which UNORDERED brand pairs carry
    the most co-purchase edges, and how far above the
    degree-product expectation? Lift fully cross-multiplied as
    1000 * e_ab * 2 * m // (d_a * d_b) (configuration-model null,
    a != b so no self-pair halving), top 10 under the (edges desc,
    brand_a, brand_b) order. Edges from the shared distributed
    builder + undirect/distinct exchange; brands via the broadcast
    part LUT; the pair fold is 25x25. Pure integers."""
    und = undirected_edges(sf_dir).to_pandas()
    a = und["a"].to_numpy(np.int64)
    b = und["b"].to_numpy(np.int64)
    m = len(a)
    pt = read(sf_dir, "part", columns=["p_partkey", "p_brand"]) \
        .to_pandas()
    codes, uniq = pd.factorize(pt["p_brand"], sort=True)
    lut = np.full(int(pt["p_partkey"].max()) + 1, -1, np.int64)
    lut[pt["p_partkey"].to_numpy(np.int64)] = codes
    k = len(uniq)
    ca, cb = lut[a], lut[b]
    lo = np.minimum(ca, cb)
    hi = np.maximum(ca, cb)
    deg = np.bincount(np.concatenate([ca, cb]), minlength=k) \
        .astype(np.int64)
    mask = lo != hi
    pair = lo[mask] * k + hi[mask]
    u, cnt = np.unique(pair, return_counts=True)
    rows = []
    for key, e in zip(u.tolist(), cnt.tolist()):
        ba, bb = key // k, key % k
        rows.append((str(uniq[ba]), str(uniq[bb]), int(e),
                     int(deg[ba]), int(deg[bb]),
                     1000 * int(e) * 2 * m
                     // (int(deg[ba]) * int(deg[bb]))))
    rows.sort(key=lambda r: (-r[2], r[0], r[1]))
    df = pd.DataFrame(rows[:10], columns=[
        "brand_a", "brand_b", "n_edges", "deg_a", "deg_b",
        "lift_milli"])
    df["rk"] = np.arange(1, len(df) + 1, dtype=np.int64)
    return df.astype({c: "int64" for c in ("n_edges", "deg_a",
                                           "deg_b", "lift_milli",
                                           "rk")})
