"""Distributed connected components over candidate-pair edges + the
dedup-apply step (near-dup CLUSTERS -> keep one canonical doc).

The pair generators (minhash/simhash/charset-Jaccard/embedding LSH) emit
verified near-dup EDGES; a real dedup pipeline must then (1) close the
edges into clusters and (2) drop every non-canonical member.  The
reference's paragraph dedup only needs exact-hash grouping (the seen-set
in kb/process_wiki.py), but at 100 TB near-dup dedup is cluster-shaped:
A~B and B~C must collapse to ONE survivor even when A~C was never
emitted.

TWO plans, chosen on measured edge bytes by the repo's one broadcast
rule (``partitioning.fits_broadcast``):

* driver union-find (path halving) when the verified-pair set fits on
  the driver — near-dup edge sets are a small fraction of the corpus,
  and per-round Ray shuffle fixed costs dwarf O(E a(E)) sequential work
  below hundreds of MB of edges;
* distributed hash-min label propagation (the standard MapReduce
  connected components; cf. Rastogi et al. 2013, "Finding Connected
  Components in Map-Reduce in Logarithmic Rounds" — the simple variant,
  converging in graph-diameter rounds) when they don't.  Near-dup
  graphs are LSH cliques minus dropped edges, so the diameter is tiny
  (2-4); ``max_rounds`` guards pathological chains and RAISES rather
  than returning a partially converged labelling (which would silently
  keep duplicates).

Scale shape per round: TWO bucketed shuffles (labels->edge-sources to
emit neighbour candidates; candidates+old labels->per-node min), both on
``hash(node) % default_buckets()`` with vectorized in-bucket pandas
merges; the label frontier is materialized each round (2 int64 columns
over dup-candidate NODES only — the corpus itself never enters the
loop).  Convergence is detected from a ``changed`` flag computed inside
the min-reduce — no extra diff join.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from . import partitioning
from .partitioning import bucket_array

DAMPING = 0.85  # pagerank's d


def _check_nonneg_ids(*arrays: np.ndarray) -> None:
    """The distributed loops use dst = -1 as the label/rank sentinel row
    inside the message unions; negative node ids would be silently
    misclassified as labels, so the public entry points reject them."""
    for arr in arrays:
        if len(arr) and int(arr.min()) < 0:
            raise ValueError(
                "components/pagerank require non-negative int64 node ids "
                "(-1 is the internal message sentinel)")


def _union_find_components(pdf: pd.DataFrame) -> pd.DataFrame:
    """Driver-side union-find with path halving; component = min node id
    of the set (matches the distributed hash-min labelling exactly)."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    for a, b in zip(pdf["doc_a"].to_numpy(np.int64),
                    pdf["doc_b"].to_numpy(np.int64)):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            # union by min keeps roots canonical-ish; exact min is
            # computed in the relabel pass below either way
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra
    comp: dict[int, int] = {}
    for node in list(parent):
        r = find(node)
        comp[r] = min(comp.get(r, node), node)
    nodes = np.fromiter(parent.keys(), dtype=np.int64, count=len(parent))
    labels = np.fromiter((comp[find(int(n))] for n in nodes),
                         dtype=np.int64, count=len(nodes))
    order = np.argsort(nodes)
    return pd.DataFrame({"node": nodes[order], "component": labels[order]})


def components_from_pairs(pairs_ds, max_rounds: int = 20):
    """Dataset(doc_a, doc_b, ...) undirected edges -> Dataset(node,
    component) where ``component`` is the smallest node id reachable.

    Plan auto-selection on measured edge bytes: an edge set that
    ``partitioning.fits_broadcast`` closes on the driver via union-find
    (O(E a(E)), no per-round shuffle fixed costs); a larger one runs the
    distributed hash-min loop, whose per-worker memory does not grow
    with the edge count.  Raises ``RuntimeError`` if the loop has not
    converged within ``max_rounds``.
    """
    import ray.data as rd

    nb = partitioning.default_buckets()
    # Pairs feed two branches (edges + initial labels); materialize so an
    # expensive upstream generator (LSH verify) runs ONCE.  Bounded:
    # verified pairs only, never the corpus.
    pairs_ds = pairs_ds.select_columns(["doc_a", "doc_b"]).materialize()
    if pairs_ds.count() == 0:
        # no edges -> no components (empty blocks can drop their column
        # schema through pandas round-trips, so don't fall through)
        return rd.from_arrow(pa.table({
            "node": pa.array([], pa.int64()),
            "component": pa.array([], pa.int64()),
        }))
    if partitioning.fits_broadcast(pairs_ds.size_bytes()):
        comp = _union_find_components(pairs_ds.to_pandas())
        return rd.from_arrow(pa.table({
            "node": pa.array(comp["node"].to_numpy(np.int64), pa.int64()),
            "component": pa.array(comp["component"].to_numpy(np.int64),
                                  pa.int64()),
        }))

    # Edges in both orientations, bucketed by src: static for all rounds.
    def orient(t: pa.Table) -> pa.Table:
        a = np.asarray(t["doc_a"].to_numpy(zero_copy_only=False), np.int64)
        b = np.asarray(t["doc_b"].to_numpy(zero_copy_only=False), np.int64)
        _check_nonneg_ids(a, b)
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        return pa.table({
            "src": pa.array(src, pa.int64()),
            "dst": pa.array(dst, pa.int64()),
            "__b": pa.array(bucket_array(src, nb), pa.int32()),
        })

    # Initial labels: every endpoint labelled with itself (per-batch
    # unique; cross-batch dedup happens in the first min-reduce).
    def init(t: pa.Table) -> pa.Table:
        nodes = np.unique(np.concatenate([
            np.asarray(t["doc_a"].to_numpy(zero_copy_only=False), np.int64),
            np.asarray(t["doc_b"].to_numpy(zero_copy_only=False), np.int64)]))
        return pa.table({
            "node": pa.array(nodes, pa.int64()),
            "label": pa.array(nodes, pa.int64()),
            "__b": pa.array(bucket_array(nodes, nb), pa.int32()),
        })

    def dedup_init(g: pd.DataFrame) -> pd.DataFrame:
        out = g.drop_duplicates("node")
        return out[["node", "label", "__b"]].astype(
            {"node": np.int64, "label": np.int64, "__b": np.int32})

    # Labels ride the msgs union as (src=node, dst=-1) sentinel rows so
    # one bucketed shuffle co-locates them with the edges keyed on src.
    def tag_labels(t: pa.Table) -> pa.Table:
        return pa.table({
            "src": t["node"],
            "dst": pa.array(np.full(t.num_rows, -1, np.int64), pa.int64()),
            "__b": t["__b"],
            "label": t["label"],
        })

    def tag_edges(t: pa.Table) -> pa.Table:
        return t.append_column(
            "label", pa.array(np.zeros(t.num_rows, np.int64), pa.int64()))

    def emit_candidates(g: pd.DataFrame) -> pa.Table:
        """One src-bucket: map src -> label, emit (node=dst, cand).
        Returns ARROW (this stream unions with the Arrow tag_old blocks;
        Ray refuses mixed block types in a union)."""
        lab = g[g["dst"] == -1][["src", "label"]]
        edg = g[g["dst"] != -1][["src", "dst"]]
        m = edg.merge(lab, on="src", how="inner")
        node = m["dst"].to_numpy(np.int64)
        return pa.table({
            "node": pa.array(node, pa.int64()),
            "label": pa.array(m["label"].to_numpy(np.int64), pa.int64()),
            "kind": pa.array(np.ones(len(m), np.int8)),
            "__b": pa.array(bucket_array(node, nb), pa.int32()),
        })

    def tag_old(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": t["node"],
            "label": t["label"],
            "kind": pa.array(np.zeros(t.num_rows, np.int8)),
            "__b": t["__b"],
        })

    def min_reduce(g: pd.DataFrame) -> pd.DataFrame:
        new = g.groupby("node", as_index=False)["label"].min()
        old = g[g["kind"] == 0][["node", "label"]].rename(
            columns={"label": "old"})
        m = new.merge(old, on="node", how="left")
        # every node got an old label at init; guard the degenerate case
        m["old"] = m["old"].fillna(m["label"])
        lab = m["label"].to_numpy(np.int64)
        return pd.DataFrame({
            "node": m["node"].to_numpy(np.int64),
            "label": lab,
            "changed": (lab < m["old"].to_numpy(np.int64)).astype(np.int64),
            "__b": np.full(len(m), int(g["__b"].iloc[0]), np.int32),
        })

    edges = (pairs_ds.map_batches(orient, batch_format="pyarrow")
             .map_batches(tag_edges, batch_format="pyarrow")
             .materialize())
    labels = (pairs_ds.map_batches(init, batch_format="pyarrow")
              .groupby("__b")
              .map_groups(dedup_init, batch_format="pandas")
              .materialize())

    for _round in range(max_rounds):
        msgs = (edges.union(labels.map_batches(tag_labels,
                                               batch_format="pyarrow"))
                .groupby("__b")
                .map_groups(emit_candidates, batch_format="pandas"))
        reduced = (msgs.union(labels.map_batches(tag_old,
                                                 batch_format="pyarrow"))
                   .groupby("__b")
                   .map_groups(min_reduce, batch_format="pandas")
                   .materialize())
        changed = int(reduced.sum("changed") or 0)
        labels = reduced.drop_columns(["changed"]).materialize()
        if changed == 0:
            return labels.map_batches(
                lambda t: pa.table({"node": t["node"],
                                    "component": t["label"]}),
                batch_format="pyarrow")
    raise RuntimeError(
        f"components_from_pairs: not converged after {max_rounds} rounds "
        "(graph diameter exceeds the bound - raise max_rounds)")


def near_dup_keep(docs_ds, pairs_ds):
    """Dedup-apply: drop every doc that belongs to a near-dup component
    and is not its canonical (minimum-id) member; non-members pass
    through untouched.  One bucketed anti-join of the docs against the
    drop-set (component members with node != component) — exact: a Bloom
    prefilter is unsound for ANTI semantics (joins.py)."""
    from .joins import semi_join

    comps = components_from_pairs(pairs_ds)

    def drops(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.not_equal(t["node"], t["component"]))

    dropped = comps.map_batches(drops, batch_format="pyarrow")
    return semi_join(docs_ds, dropped, on="doc_id", right_on="node",
                     anti=True)


def pagerank(edges_ds, n_iters: int = 10):
    """Distributed PageRank over a directed edge list (the classic
    power iteration; Page et al. 1999) — entity-importance ranking for
    the materialized triple graph (subj -> obj edges).

    Semantics (pinned by the pytest straight-line reference):

    * N = count of distinct nodes appearing as src or dst;
    * rank_0(v) = 1/N;
    * rank_{t+1}(v) = (1-d)/N + d * (sum over in-edges u->v of
      rank_t(u)/outdeg(u) + dangling_mass/N), where dangling_mass is
      the total rank of nodes with no out-edges (standard redistribution
      so the ranks keep summing to 1);
    * fixed ``n_iters`` iterations (deterministic — no float tolerance).

    Plans, auto-selected on measured edge bytes exactly like
    ``components_from_pairs``: small graphs run the numpy power
    iteration on the driver; large ones run the bucketed message loop
    (per round: ONE shuffle of contributions keyed on hash(dst) — the
    static edge table is pre-bucketed once and re-grouped with the
    rank frontier, which is 2 fixed-width columns over nodes).

    Returns Dataset(node, rank: float64).
    """
    import ray.data as rd

    nb = partitioning.default_buckets()
    edges = edges_ds.select_columns(["src", "dst"]).materialize()
    if partitioning.fits_broadcast(edges.size_bytes()):
        pdf = edges.to_pandas()
        if not len(pdf):
            return rd.from_arrow(pa.table({
                "node": pa.array([], pa.int64()),
                "rank": pa.array([], pa.float64())}))
        src = pdf["src"].to_numpy(np.int64)
        dst = pdf["dst"].to_numpy(np.int64)
        nodes = np.unique(np.concatenate([src, dst]))
        idx = {int(n): i for i, n in enumerate(nodes)}
        si = np.fromiter((idx[int(x)] for x in src), np.int64, len(src))
        di = np.fromiter((idx[int(x)] for x in dst), np.int64, len(dst))
        n = len(nodes)
        outdeg = np.bincount(si, minlength=n)
        rank = np.full(n, 1.0 / n)
        for _ in range(n_iters):
            contrib = np.zeros(n)
            w = rank[si] / outdeg[si]          # outdeg>0 where si occurs
            np.add.at(contrib, di, w)
            dangling = rank[outdeg == 0].sum()
            rank = ((1.0 - DAMPING) / n
                    + DAMPING * (contrib + dangling / n))
        return rd.from_arrow(pa.table({
            "node": pa.array(nodes, pa.int64()),
            "rank": pa.array(rank, pa.float64())}))

    # ---- distributed message loop ------------------------------------
    def orient(t: pa.Table) -> pa.Table:
        s = np.asarray(t["src"].to_numpy(zero_copy_only=False), np.int64)
        d = np.asarray(t["dst"].to_numpy(zero_copy_only=False), np.int64)
        _check_nonneg_ids(s, d)
        return pa.table({
            "src": pa.array(s, pa.int64()),
            "dst": pa.array(d, pa.int64()),
            "__b": pa.array(bucket_array(s, nb), pa.int32()),
        })

    e = edges.map_batches(orient, batch_format="pyarrow").materialize()

    # node table with out-degrees (bucketed on node hash)
    def node_rows(t: pa.Table) -> pa.Table:
        s = np.asarray(t["src"].to_numpy(zero_copy_only=False), np.int64)
        d = np.asarray(t["dst"].to_numpy(zero_copy_only=False), np.int64)
        nodes, counts = np.unique(s, return_counts=True)
        allnodes = np.concatenate([nodes, np.setdiff1d(np.unique(d), nodes)])
        deg = np.concatenate([counts,
                              np.zeros(len(allnodes) - len(nodes), np.int64)])
        return pa.table({
            "node": pa.array(allnodes, pa.int64()),
            "outdeg": pa.array(deg, pa.int64()),
            "__b": pa.array(bucket_array(allnodes, nb), pa.int32()),
        })

    def merge_nodes(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("node", as_index=False).agg(
            outdeg=("outdeg", "sum"), __b=("__b", "first"))
        return out.astype({"node": np.int64, "outdeg": np.int64,
                           "__b": np.int32})

    node_tbl = (e.map_batches(node_rows, batch_format="pyarrow")
                .groupby("__b")
                .map_groups(merge_nodes, batch_format="pandas")
                .materialize())
    n_nodes = node_tbl.count()

    # ranks start uniform; each round: (a) co-group ranks with edges on
    # the SRC bucket and emit rank/outdeg per edge keyed on dst; (b)
    # co-group contributions with the node table on the NODE bucket and
    # apply the damping update.  Dangling mass is a bounded driver-side
    # scalar (sum over outdeg==0 ranks).
    ranks = node_tbl.map_batches(
        lambda t: pa.table({
            "node": t["node"], "outdeg": t["outdeg"], "__b": t["__b"],
            "rank": pa.array(np.full(t.num_rows, 1.0 / n_nodes),
                             pa.float64())}),
        batch_format="pyarrow").materialize()

    def src_key(t: pa.Table) -> pa.Table:
        return pa.table({
            "src": t["node"], "dst": pa.array(
                np.full(t.num_rows, -1, np.int64), pa.int64()),
            "__b": pa.array(bucket_array(t["node"], nb), pa.int32()),
            "rank": t["rank"],
            "outdeg": t["outdeg"],
        })

    def edge_key(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({
            "src": t["src"], "dst": t["dst"], "__b": t["__b"],
            "rank": pa.array(np.zeros(n), pa.float64()),
            "outdeg": pa.array(np.zeros(n, np.int64), pa.int64()),
        })

    def emit_contribs(g: pd.DataFrame) -> pa.Table:
        lab = g[g["dst"] == -1][["src", "rank", "outdeg"]]
        lab = lab[lab["outdeg"] > 0]
        edg = g[g["dst"] != -1][["src", "dst"]]
        m = edg.merge(lab, on="src", how="inner")
        dst = m["dst"].to_numpy(np.int64)
        w = (m["rank"] / m["outdeg"]).to_numpy(np.float64)
        return pa.table({
            "node": pa.array(dst, pa.int64()),
            "contrib": pa.array(w, pa.float64()),
            "__b": pa.array(bucket_array(dst, nb), pa.int32()),
        })

    def dangling_partial(t: pa.Table) -> pa.Table:
        deg = np.asarray(t["outdeg"].to_numpy(zero_copy_only=False))
        rk = np.asarray(t["rank"].to_numpy(zero_copy_only=False))
        return pa.table({"d": pa.array([float(rk[deg == 0].sum())],
                                       pa.float64())})

    for _ in range(n_iters):
        dangling = float(
            ranks.map_batches(dangling_partial,
                              batch_format="pyarrow").sum("d") or 0.0)
        msgs = (e.map_batches(edge_key, batch_format="pyarrow")
                .union(ranks.map_batches(src_key, batch_format="pyarrow"))
                .groupby("__b")
                .map_groups(emit_contribs, batch_format="pandas"))

        def contrib_rows(t: pa.Table) -> pa.Table:
            return pa.table({
                "node": t["node"], "outdeg": pa.array(
                    np.full(t.num_rows, -1, np.int64), pa.int64()),
                "val": t["contrib"], "__b": t["__b"],
            })

        def rank_rows(t: pa.Table) -> pa.Table:
            return pa.table({
                "node": t["node"], "outdeg": t["outdeg"],
                "val": pa.array(np.zeros(t.num_rows), pa.float64()),
                "__b": t["__b"],
            })

        base = (1.0 - DAMPING) / n_nodes + DAMPING * dangling / n_nodes

        def apply_update(g: pd.DataFrame) -> pd.DataFrame:
            deg = g[g["outdeg"] >= 0][["node", "outdeg"]]
            s = (g[g["outdeg"] < 0].groupby("node")["val"].sum()
                 if (g["outdeg"] < 0).any() else None)
            out = deg.copy()
            c = (out["node"].map(s).fillna(0.0).to_numpy(np.float64)
                 if s is not None else np.zeros(len(out)))
            out["rank"] = base + DAMPING * c
            out["__b"] = np.full(len(out), int(g["__b"].iloc[0]), np.int32)
            return out.astype({"node": np.int64, "outdeg": np.int64,
                               "__b": np.int32})

        ranks = (msgs.map_batches(contrib_rows, batch_format="pyarrow")
                 .union(ranks.map_batches(rank_rows,
                                          batch_format="pyarrow"))
                 .groupby("__b")
                 .map_groups(apply_update, batch_format="pandas")
                 .materialize())

    return ranks.map_batches(
        lambda t: pa.table({"node": t["node"], "rank": t["rank"]}),
        batch_format="pyarrow")


# ---- triangle counting (near-dup graph density) ------------------------------


def _triangle_counts_driver(ea: np.ndarray, eb: np.ndarray) -> dict:
    """Driver-plan triangle counting: degree-ordered orientation, wedges
    enumerated per low-rank node, closure via sorted-key searchsorted —
    the SAME algorithm as the distributed plan, one process."""
    nodes, inv = np.unique(np.concatenate([ea, eb]), return_inverse=True)
    deg = np.bincount(inv, minlength=len(nodes))
    a, b = inv[:len(ea)], inv[len(ea):]
    # rank = (deg, node-index); orient low -> high
    a_low = (deg[a] < deg[b]) | ((deg[a] == deg[b]) & (a < b))
    u = np.where(a_low, a, b)
    v = np.where(a_low, b, a)
    # unordered closure keys, sorted for searchsorted membership
    m = len(nodes)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    ekeys = np.sort(lo.astype(np.int64) * m + hi)
    order = np.argsort(u, kind="stable")
    us, vs = u[order], v[order]
    starts = np.searchsorted(us, np.arange(m))
    ends = np.searchsorted(us, np.arange(m) + 1)
    counts = np.zeros(m, np.int64)
    for w in np.flatnonzero(ends - starts >= 2):
        nbr = np.unique(vs[starts[w]:ends[w]])
        i, j = np.triu_indices(len(nbr), k=1)
        x, y = nbr[i], nbr[j]
        keys = np.minimum(x, y).astype(np.int64) * m + np.maximum(x, y)
        pos = np.searchsorted(ekeys, keys)
        pos = np.minimum(pos, len(ekeys) - 1)
        closed = ekeys[pos] == keys
        if not closed.any():
            continue
        counts[w] += int(closed.sum())
        np.add.at(counts, x[closed], 1)
        np.add.at(counts, y[closed], 1)
    nz = np.flatnonzero(counts)
    return {"node": nodes[nz], "c": counts[nz]}


def triangle_counts(pairs_ds):
    """Per-node triangle counts over an undirected simple edge list —
    the degree-ordered node-iterator (Suri & Vassilvitskii 2011,
    "Counting triangles and the curse of the last reducer"): orient
    every edge from lower to higher (degree, node) rank, enumerate
    wedges only at each edge's LOW-rank endpoint (out-degree is
    O(sqrt(m))-bounded under this orientation — the hub node that would
    serialize a naive node-iterator never owns its wedges), and close
    wedges against the oriented edge set in hash(x, y) buckets.

    Exchanges: one degree aggregation, two bucketed rank joins, one
    wedge/edge co-shuffle, one per-node count shuffle — every stage
    fixed-width (ints only).  When the measured edge bytes pass
    ``partitioning.fits_broadcast`` the same degree-ordered algorithm
    runs as ONE vectorized driver pass — the components_from_pairs plan-gate
    discipline: a verified near-dup pair list is tiny next to its
    corpus, so five sequential shuffle barriers are pure latency there.
    Returns Dataset(doc_id, n_triangles) for nodes in >= 1 triangle."""
    import pandas as pd
    import ray.data as rd

    from .partitioning import bucket_exchange, co_partition

    nb = partitioning.default_buckets()
    edges = pairs_ds.select_columns(["doc_a", "doc_b"]).materialize()
    if edges.count() == 0:
        return rd.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "n_triangles": pa.array([], pa.int64())}))
    if partitioning.fits_broadcast(edges.size_bytes()):
        pdf = edges.to_pandas()
        out = _triangle_counts_driver(
            pdf["doc_a"].to_numpy(np.int64), pdf["doc_b"].to_numpy(np.int64))
        return rd.from_arrow(pa.table({
            "doc_id": pa.array(out["node"], pa.int64()),
            "n_triangles": pa.array(out["c"], pa.int64())}))

    def deg_partial(t: pa.Table) -> pa.Table:
        n = np.concatenate([t["doc_a"].to_numpy(), t["doc_b"].to_numpy()])
        u, c = np.unique(n, return_counts=True)
        return pa.table({"node": pa.array(u.astype(np.int64)),
                         "c": pa.array(c.astype(np.int64))})

    def deg_final(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("node", as_index=False)["c"].sum()
        return out.rename(columns={"c": "deg"})

    deg = bucket_exchange(edges, ["node"], deg_final, prep=deg_partial,
                          n_buckets=nb).materialize()

    # rank join: edge rows meet their endpoint's degree row in one
    # co-partitioned bucket.  deg and each join's output are materialized:
    # co_partition reads both sides' schemas up front, which on a lazy
    # shuffle output would run that shuffle twice.
    def _rank_join(edge_ds, key: str, out_name: str):
        def join(lt: pa.Table, rt: pa.Table) -> pd.DataFrame:
            dsub = (rt.to_pandas().drop_duplicates("node")
                    .rename(columns={"node": key, "deg": out_name}))
            out = lt.to_pandas().merge(dsub, on=key, how="left")
            return out.astype({c: np.int64 for c in out.columns})

        return co_partition(edge_ds, deg, ([key], ["node"]), join,
                            n_buckets=nb).materialize()

    with_da = _rank_join(edges, "doc_a", "deg_a")
    oriented_in = _rank_join(with_da, "doc_b", "deg_b")

    def orient(t: pa.Table) -> pa.Table:
        a = t["doc_a"].to_numpy().astype(np.int64)
        b = t["doc_b"].to_numpy().astype(np.int64)
        da = t["deg_a"].to_numpy().astype(np.int64)
        db = t["deg_b"].to_numpy().astype(np.int64)
        a_low = (da < db) | ((da == db) & (a < b))
        u = np.where(a_low, a, b)
        v = np.where(a_low, b, a)
        return pa.table({"u": pa.array(u), "v": pa.array(v)})

    oriented = oriented_in.map_batches(orient, batch_format="pyarrow") \
        .materialize()

    # wedge generation at the low-rank endpoint, keyed by the closing
    # (x, y) pair; edge rows ride the same shuffle (wedge_u = -1 marker)
    def wedge_rows(g: pd.DataFrame) -> pd.DataFrame:
        xs, ys, us = [], [], []
        for u, grp in g.groupby("u", sort=False):
            nbr = np.unique(grp["v"].to_numpy(np.int64))
            if len(nbr) < 2:
                continue
            i, j = np.triu_indices(len(nbr), k=1)
            xs.append(nbr[i])
            ys.append(nbr[j])
            us.append(np.full(len(i), u, np.int64))
        if not xs:
            return pd.DataFrame({"x": np.array([], np.int64),
                                 "y": np.array([], np.int64),
                                 "wu": np.array([], np.int64)})
        return pd.DataFrame({"x": np.concatenate(xs),
                             "y": np.concatenate(ys),
                             "wu": np.concatenate(us)})

    wedges = bucket_exchange(oriented, ["u"], wedge_rows, n_buckets=nb)

    # the closing edge (x, y) is oriented min-rank -> max-rank like every
    # edge, but rank order is unknown here, so key the shuffle on the
    # UNORDERED pair and match either orientation in-bucket
    def tag_pair(t: pa.Table, is_edge: bool) -> pa.Table:
        if is_edge:
            x, y = t["u"].to_numpy(), t["v"].to_numpy()
            wu = np.full(len(x), -1, np.int64)
        else:
            x, y = t["x"].to_numpy(), t["y"].to_numpy()
            wu = t["wu"].to_numpy().astype(np.int64)
        return pa.table({"x": pa.array(np.minimum(x, y).astype(np.int64)),
                         "y": pa.array(np.maximum(x, y).astype(np.int64)),
                         "wu": pa.array(wu)})

    paired = (wedges.map_batches(tag_pair, fn_kwargs={"is_edge": False},
                                 batch_format="pyarrow")
              .union(oriented.map_batches(tag_pair,
                                          fn_kwargs={"is_edge": True},
                                          batch_format="pyarrow")))

    def close(g: pd.DataFrame) -> pd.DataFrame:
        e = g[g["wu"] < 0][["x", "y"]].drop_duplicates()
        w = g[g["wu"] >= 0]
        tri = w.merge(e, on=["x", "y"], how="inner")
        if not len(tri):
            return pd.DataFrame({"node": np.array([], np.int64),
                                 "c": np.array([], np.int64)})
        nodes = np.concatenate([tri["x"].to_numpy(np.int64),
                                tri["y"].to_numpy(np.int64),
                                tri["wu"].to_numpy(np.int64)])
        u, c = np.unique(nodes, return_counts=True)
        return pd.DataFrame({"node": u, "c": c.astype(np.int64)})

    closed = bucket_exchange(paired, ["x", "y"], close, n_buckets=nb)

    def cnt_final(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("node", as_index=False)["c"].sum()
        return pd.DataFrame({"doc_id": out["node"].to_numpy(np.int64),
                             "n_triangles": out["c"].to_numpy(np.int64)})

    return bucket_exchange(closed, ["node"], cnt_final, n_buckets=nb)
