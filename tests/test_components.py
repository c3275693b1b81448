"""Connected components + dedup-apply (stages/components.py)."""

import contextlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

from kb_ner_ray.stages.components import (
    components_from_pairs,
    near_dup_keep,
)


def _pairs_ds(edges):
    a, b = zip(*edges)
    return ray.data.from_arrow(pa.table({
        "doc_a": pa.array(a, pa.int64()),
        "doc_b": pa.array(b, pa.int64()),
    }))


# chain (diameter 4), clique, isolated pair — the planted ground truth
EDGES = [(0, 1), (1, 2), (2, 3), (3, 4),
         (10, 11), (10, 12), (10, 13), (11, 12),
         (20, 21)]
WANT = {0: 0, 1: 0, 2: 0, 3: 0, 4: 0,
        10: 10, 11: 10, 12: 10, 13: 10,
        20: 20, 21: 20}


def test_components_driver_plan(ray_session):
    got = components_from_pairs(_pairs_ds(EDGES)).to_pandas()
    assert dict(zip(got["node"], got["component"])) == WANT


def test_components_distributed_plan_parity(ray_session,
                                            over_broadcast_limit):
    """Over the broadcast limit the hash-min loop runs; identical
    labelling to the union-find plan, incl. the diameter-4 chain."""
    with over_broadcast_limit():
        got = components_from_pairs(_pairs_ds(EDGES),
                                    n_buckets=4).to_pandas()
    assert dict(zip(got["node"], got["component"])) == WANT


def test_components_unconverged_raises(ray_session, over_broadcast_limit):
    """A partially-converged labelling must never be returned silently."""
    chain = [(i, i + 1) for i in range(12)]
    with over_broadcast_limit(), pytest.raises(RuntimeError,
                                               match="not converged"):
        components_from_pairs(_pairs_ds(chain), n_buckets=4, max_rounds=2)


def test_components_randomized_parity(ray_session):
    """Random sparse graph: the union-find plan == a reference BFS
    closure (the distributed plan's parity with union-find is pinned by
    the planted-graph test above; running the loop here too would only
    re-pay ~10 shuffle fixed-costs)."""
    rng = np.random.RandomState(13)
    edges = [(int(a), int(b))
             for a, b in rng.randint(0, 60, size=(80, 2)) if a != b]
    # reference: BFS from every node over an adjacency map
    adj: dict[int, set] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    want = {}
    for start in adj:
        seen, stack = {start}, [start]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        want[start] = min(seen)
    driver = components_from_pairs(_pairs_ds(edges)).to_pandas()
    assert dict(zip(driver["node"], driver["component"])) == want


def test_near_dup_keep_planted(ray_session):
    big = (1 << 55) + 1  # above float64's 2^53 integer precision
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(list(range(10)), pa.int64()),
        "text": pa.array([f"doc {i}" for i in range(10)], pa.string()),
        "n_chars": pa.array([big + i for i in range(10)], pa.int64()),
    }))
    pairs = _pairs_ds([(1, 2), (2, 3), (5, 6)])
    # n_buckets=1 forces every kept doc to share its bucket with null-
    # widened R rows — the exact condition that rounded int64 through
    # float64 before the filter went Arrow-native
    kept = (near_dup_keep(docs, pairs, n_buckets=1).to_pandas()
            .sort_values("doc_id").reset_index(drop=True))
    # components {1,2,3} -> keep 1, {5,6} -> keep 5; others untouched
    assert kept["doc_id"].tolist() == [0, 1, 4, 5, 7, 8, 9]
    assert list(kept.columns) == ["doc_id", "text", "n_chars"]
    assert kept.loc[kept["doc_id"] == 5, "text"].iloc[0] == "doc 5"
    # EVERY integer column keeps its dtype + exact value through the
    # null-widened anti-join (round-3 advice: n_chars came out float64)
    assert kept["n_chars"].dtype == np.int64
    assert kept.loc[kept["doc_id"] == 9, "n_chars"].iloc[0] == big + 9


def _pagerank_reference(edges, n_iters=10, d=0.85):
    """Straight-line numpy power iteration (the pinned semantics)."""
    import numpy as np

    src = np.array([a for a, _ in edges], np.int64)
    dst = np.array([b for _, b in edges], np.int64)
    nodes = np.unique(np.concatenate([src, dst]))
    idx = {int(n): i for i, n in enumerate(nodes)}
    si = np.array([idx[int(x)] for x in src])
    di = np.array([idx[int(x)] for x in dst])
    n = len(nodes)
    outdeg = np.bincount(si, minlength=n)
    rank = np.full(n, 1.0 / n)
    for _ in range(n_iters):
        contrib = np.zeros(n)
        np.add.at(contrib, di, rank[si] / outdeg[si])
        dang = rank[outdeg == 0].sum()
        rank = (1 - d) / n + d * (contrib + dang / n)
    return {int(nodes[i]): rank[i] for i in range(n)}


def _edges_ds(edges):
    import pyarrow as pa
    import ray as _ray

    return _ray.data.from_arrow(pa.table({
        "src": pa.array([a for a, _ in edges], pa.int64()),
        "dst": pa.array([b for _, b in edges], pa.int64()),
    }))


def test_pagerank_plans_match_reference(ray_session, over_broadcast_limit):
    """Driver and distributed PageRank plans both reproduce the numpy
    power iteration on a random graph with dangling nodes; the star
    center out-ranks its leaves."""
    import random

    import numpy as np

    from kb_ner_ray.stages.components import pagerank

    rng = random.Random(23)
    edges = list({(rng.randint(0, 25), rng.randint(0, 25))
                  for _ in range(80)})
    edges += [(i, 99) for i in range(6)]         # star onto node 99
    want = _pagerank_reference(edges, n_iters=4)

    # driver plan, then the distributed plan over the broadcast limit
    for plan in (contextlib.nullcontext, over_broadcast_limit):
        with plan():
            got = (pagerank(_edges_ds(edges), n_buckets=4, n_iters=4)
                   .to_pandas().set_index("node")["rank"].to_dict())
        assert set(got) == set(want)
        for k, v in want.items():
            assert abs(got[k] - v) < 1e-9, (plan, k, got[k], v)
    # the 6-in-edge star node beats the uniform baseline
    assert want[99] > 1.0 / len(want)


def test_triangle_counts_random_parity(ray_session, over_broadcast_limit):
    """Degree-ordered distributed triangle counts == brute-force numpy
    enumeration on a random graph with a planted hub (the 'last
    reducer' shape the orientation exists to kill)."""
    import itertools

    import numpy as np
    import pyarrow as pa
    import ray

    from kb_ner_ray.stages.components import triangle_counts

    rng = np.random.default_rng(11)
    n = 40
    edges = set()
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < 0.12:
            edges.add((a, b))
    for v in range(1, 25):  # hub 0 connects to most of the graph
        edges.add((0, v))
    ea = np.array([a for a, _ in edges], np.int64)
    eb = np.array([b for _, b in edges], np.int64)

    # brute force per-node counts
    adj = np.zeros((n, n), bool)
    adj[ea, eb] = adj[eb, ea] = True
    want = {}
    for u, v, w in itertools.combinations(range(n), 3):
        if adj[u, v] and adj[v, w] and adj[u, w]:
            for x in (u, v, w):
                want[x] = want.get(x, 0) + 1

    pairs = ray.data.from_arrow(pa.table({
        "doc_a": pa.array(ea), "doc_b": pa.array(eb)})).repartition(3)
    # byte-gated driver plan AND the distributed plan over the limit
    got = (triangle_counts(pairs, n_buckets=4).to_pandas()
           .set_index("doc_id")["n_triangles"].to_dict())
    with over_broadcast_limit():
        dist = (triangle_counts(pairs, n_buckets=4)
                .to_pandas().set_index("doc_id")["n_triangles"].to_dict())
    assert got == want and dist == want
    assert sum(want.values()) % 3 == 0
