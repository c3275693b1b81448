"""Similarity search over an embedding column (list<float>).

* ``knn_bruteforce`` — exact cosine top-k: per batch, numpy matmul of the
  batch's (normalized) vectors against a BROADCAST query matrix
  (``ray.put`` once), emitting per-batch partial top-k; a vocabulary-sized
  groupby merges partials into the global top-k. The classic
  distributed-top-k shape: no stage ever holds more than (batch x k).
* ``ivf_knn`` — the scale path: a deterministic coarse quantizer
  (``train_ivf_centroids``) assigns every vector to a centroid bucket;
  queries probe the ``nprobe`` nearest buckets only.  Recall vs brute force
  is asserted in tests.
* ``near_dup_pairs_lsh`` / ``cosine_pairs_blocked`` — embedding-cosine
  near-duplicate pairs: hyperplane-sign banding (high thresholds), or the
  exhaustive triangle-blocked plan (any threshold).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from . import partitioning
from .partitioning import resolve, worker_state


def _matrix(batch_col) -> np.ndarray:
    return np.array(batch_col.to_pylist(), dtype=np.float64)


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


# Per-consumer worker-state slots (partitioning.worker_state): each holds
# the state one consumer builds from its broadcast ref.
_TOPK_STATE: dict = {}
_IVF_STATE: dict = {}
_SEEDS_STATE: dict = {}
_CENTROIDS_STATE: dict = {}
_PLANES_STATE: dict = {}


def batch_topk(batch: pa.Table, queries_ref=None, k: int = 5) -> pa.Table:
    """Per-batch partial cosine top-k against the broadcast query matrix."""
    def build():
        qids, qmat = resolve(queries_ref)
        return qids, _normalize(qmat), set(qids)

    qids, qnorm, exclude = worker_state(_TOPK_STATE, queries_ref, build)
    vids = np.array(batch.column("vec_id").to_pylist(), dtype=np.int64)
    keep = ~np.isin(vids, list(exclude))
    vids = vids[keep]
    if len(vids) == 0:
        return pa.table({"qid": pa.array([], pa.int64()),
                         "nid": pa.array([], pa.int64()),
                         "sim": pa.array([], pa.float64())})
    m = _normalize(_matrix(batch.column("embedding"))[keep])
    sims = qnorm @ m.T  # (n_queries, n_batch)
    k = min(k, sims.shape[1])
    qout, nout, sout = [], [], []
    for i, qid in enumerate(qids):
        # ties broken by vec_id asc for determinism vs the SQL oracle
        order = np.lexsort((vids, -sims[i]))[:k]
        qout.extend([qid] * len(order))
        nout.extend(vids[order])
        sout.extend(sims[i][order])
    return pa.table({"qid": pa.array(qout, pa.int64()),
                     "nid": pa.array(nout, pa.int64()),
                     "sim": pa.array(sout, pa.float64())})


def _driver_final_topk(pdf: pd.DataFrame, k: int) -> pd.DataFrame:
    """Merge per-block partial top-ks on the driver — the stream is bounded
    by n_blocks x n_queries x k, never by the corpus."""
    pdf = pdf.sort_values(["qid", "sim", "nid"],
                          ascending=[True, False, True])
    out = pdf.groupby("qid", sort=False).head(k).copy()
    out["rank"] = (out.groupby("qid").cumcount() + 1).astype(np.int64)
    return out.reset_index(drop=True)


def knn_bruteforce(emb_ds, queries: tuple[list[int], np.ndarray], k: int = 5):
    """Dataset(vec_id, embedding) -> (qid, nid, sim, rank) global top-k
    (pandas DataFrame: partial top-k per block, driver-final merge)."""
    qref = ray.put(queries)
    partial = emb_ds.map_batches(
        batch_topk, fn_kwargs={"queries_ref": qref, "k": k},
        batch_format="pyarrow")
    return _driver_final_topk(partial.to_pandas(), k)


def load_queries(parquet_path: str, n_queries: int = 5):
    """Deterministic query set: the first n vec_ids."""
    import pyarrow.parquet as pq

    t = pq.read_table(parquet_path, columns=["vec_id", "embedding"])
    df = t.to_pandas().sort_values("vec_id").head(n_queries)
    qids = df["vec_id"].tolist()
    qmat = np.array(df["embedding"].tolist(), dtype=np.float64)
    return qids, qmat


# ---- IVF (coarse-quantized) variant ----------------------------------------


IVF_TRAIN_ITERS = 5
IVF_TRAIN_SAMPLE = 4096


def train_ivf_centroids(parquet_path: str,
                        n_centroids: int = 16) -> np.ndarray:
    """Deterministic k-means coarse quantizer training (replaces the
    round-1 "first-n vectors" stand-in).

    Strided driver-side sample (bounded regardless of corpus size — the
    standard IVF recipe trains on a sample), farthest-point init from the
    first vector (deterministic k-means++ flavor), ``IVF_TRAIN_ITERS``
    Lloyd rounds
    on the unit sphere (spherical k-means: assign by max cosine, update by
    renormalized mean; an emptied cluster keeps its previous centroid)."""
    import pyarrow.parquet as pq

    t = pq.read_table(parquet_path, columns=["vec_id", "embedding"])
    df = t.to_pandas().sort_values("vec_id")
    stride = max(1, len(df) // IVF_TRAIN_SAMPLE)
    X = _normalize(np.array(df["embedding"].iloc[::stride].tolist(),
                            dtype=np.float64))
    n_centroids = min(n_centroids, len(X))
    # farthest-point init
    cents = [X[0]]
    sims_to_c = X @ X[0]
    for _ in range(n_centroids - 1):
        nxt = int(np.argmin(sims_to_c))  # farthest = least similar
        cents.append(X[nxt])
        sims_to_c = np.maximum(sims_to_c, X @ X[nxt])
    C = np.stack(cents)
    for _ in range(IVF_TRAIN_ITERS):
        assign = np.argmax(X @ C.T, axis=1)
        for ci in range(n_centroids):
            members = X[assign == ci]
            if len(members):
                C[ci] = members.mean(axis=0)
        C = _normalize(C)
    return C


def ivf_assign_topk(batch: pa.Table, state_ref=None, k: int = 5,
                    nprobe: int = 4) -> pa.Table:
    """Assign batch vectors to centroid buckets; score only vectors whose
    bucket is among each query's nprobe probed buckets."""
    def build():
        (qids, qmat), cents = resolve(state_ref)
        qnorm = _normalize(qmat)
        sims = qnorm @ cents.T
        probe = [set(np.argsort(-sims[i])[:nprobe].tolist())
                 for i in range(len(qids))]
        return qids, qnorm, cents, probe, set(qids)

    qids, qnorm, cents, probe, exclude = worker_state(
        _IVF_STATE, (state_ref, nprobe), build)
    vids = np.array(batch.column("vec_id").to_pylist(), dtype=np.int64)
    keep = ~np.isin(vids, list(exclude))
    vids = vids[keep]
    qout, nout, sout = [], [], []
    if len(vids):
        m = _normalize(_matrix(batch.column("embedding"))[keep])
        buckets = np.argmax(m @ cents.T, axis=1)
        sims = qnorm @ m.T
        for i, qid in enumerate(qids):
            mask = np.isin(buckets, list(probe[i]))
            if not mask.any():
                continue
            sub_ids, sub_sims = vids[mask], sims[i][mask]
            order = np.lexsort((sub_ids, -sub_sims))[:min(k, len(sub_ids))]
            qout.extend([qid] * len(order))
            nout.extend(sub_ids[order])
            sout.extend(sub_sims[order])
    return pa.table({"qid": pa.array(qout, pa.int64()),
                     "nid": pa.array(nout, pa.int64()),
                     "sim": pa.array(sout, pa.float64())})


def ivf_knn(emb_ds, queries, centroids, k: int = 5, nprobe: int = 4):
    sref = ray.put((queries, centroids))
    partial = emb_ds.map_batches(
        ivf_assign_topk, fn_kwargs={"state_ref": sref, "k": k,
                                    "nprobe": nprobe},
        batch_format="pyarrow")
    return _driver_final_topk(partial.to_pandas(), k)


# ---- hyperplane-LSH near-dup (the scale path) -------------------------------

LSH_PLANES = 64
LSH_BANDS = 16
LSH_ROWS = LSH_PLANES // LSH_BANDS  # sign bits per band
_PLANES_SEED = 11


def _planes(dim: int) -> np.ndarray:
    """Deterministic random hyperplanes (seeded); every process
    regenerates the same matrix, so no broadcast is needed."""
    return worker_state(
        _PLANES_STATE, dim,
        lambda: np.random.RandomState(_PLANES_SEED).randn(LSH_PLANES, dim))


def _sign_bands(m: np.ndarray) -> np.ndarray:
    """(n, dim) -> (n, LSH_BANDS) int band keys from hyperplane sign bits.

    P(plane separates a pair) = angle/pi, so a cosine-0.95 pair agrees on
    a 4-bit band with prob (1 - 0.101)^4 ~= 0.65 and escapes ALL 16 bands
    with prob ~5e-8 — misses are negligible and deterministic (fixed
    seed).  (Charikar 2002, similarity estimation via random
    hyperplanes.)"""
    bits = (m @ _planes(m.shape[1]).T) >= 0  # (n, LSH_PLANES)
    weights = (1 << np.arange(LSH_ROWS)).astype(np.int64)
    return bits.reshape(len(m), LSH_BANDS, LSH_ROWS) @ weights


def _lsh_band_rows(batch: pa.Table, P: int) -> pa.Table:
    """(vec_id, embedding) -> one row per band: (band_id, band_key,
    doc_id, emb bytes) in the banded_pairs_overflow row contract.  The
    embedding rides along (LSH_BANDS x 8*dim bytes through the shuffle)
    so exact verification AND global pair dedup happen inside the band
    group — same shape as the in-band MinHash plan.  ``band_grp`` is the
    cluster-scaled shuffle key, P sub-groups per band."""
    vids = np.array(batch.column("vec_id").to_pylist(), dtype=np.int64)
    m = _normalize(_matrix(batch.column("embedding")))
    keys = _sign_bands(m)
    n = len(vids)
    band_ids = np.tile(np.arange(LSH_BANDS, dtype=np.int64), n)
    flat_keys = keys.reshape(-1)
    return pa.table({
        "band_grp": pa.array((band_ids * P + flat_keys % P).astype(np.int32)),
        "band_id": pa.array(band_ids.astype(np.int32)),
        "band_key": pa.array(flat_keys, pa.int64()),
        "doc_id": pa.array(np.repeat(vids, LSH_BANDS), pa.int64()),
        "emb": pa.array([m[i].tobytes() for i in range(n)
                         for _ in range(LSH_BANDS)], pa.binary()),
    })


def _lsh_pair_fn(threshold: float):
    """pair_fn for banded_pairs_overflow: exact-cosine-verified pairs,
    emitted globally once (only from the pair's first colliding band,
    recomputed locally from the carried embeddings)."""

    def fn(left: pd.DataFrame, right: pd.DataFrame | None) -> pd.DataFrame:
        band_id = int(left["band_id"].iloc[0])
        ids_a = left["doc_id"].to_numpy(np.int64)
        m_a = np.stack([np.frombuffer(e, dtype=np.float64)
                        for e in left["emb"]])
        if right is None:
            ids_b, m_b = ids_a, m_a
            pi, pj = np.triu_indices(len(ids_a), k=1)
        else:
            ids_b = right["doc_id"].to_numpy(np.int64)
            m_b = np.stack([np.frombuffer(e, dtype=np.float64)
                            for e in right["emb"]])
            pi = np.repeat(np.arange(len(ids_a)), len(ids_b))
            pj = np.tile(np.arange(len(ids_b)), len(ids_a))
        sims = m_a @ m_b.T
        keys_a = _sign_bands(m_a)
        keys_b = keys_a if right is None else _sign_bands(m_b)
        # vectorized: threshold filter, then first-colliding-band ownership
        ok = sims[pi, pj] >= threshold
        pi, pj = pi[ok], pj[ok]
        band_eq = keys_a[pi] == keys_b[pj]          # [npairs, LSH_BANDS]
        first = np.where(band_eq.any(axis=1), band_eq.argmax(axis=1), band_id)
        keep = first == band_id
        ia, ib = ids_a[pi[keep]], ids_b[pj[keep]]
        # explicit dtypes: empty object frames trip Ray's size estimator
        return pd.DataFrame({"doc_a": np.minimum(ia, ib).astype(np.int64),
                             "doc_b": np.maximum(ia, ib).astype(np.int64),
                             "sim": sims[pi[keep], pj[keep]].astype(
                                 np.float64)})

    return fn


def near_dup_pairs_lsh(emb_ds, threshold: float = 0.95):
    """Pairs (a < b) with cosine >= threshold via hyperplane-sign banding
    (no broadcast): in-band exact cosine verification, first-colliding-
    band emission, hot buckets triangle-redistributed (no truncation,
    see dedup.banded_pairs_overflow).  Per-worker memory is bounded by
    the band group / triangle cell, never the corpus.

    RECALL is the banding probability, NOT 1: with 16 bands x 4 sign
    bits, a qualifying pair at cosine c escapes every band with
    probability (1 - (1 - arccos(c)/pi)^4)^16 — ~5e-8 at c=0.95 but
    ~2-4% at c=0.45.  This is the high-threshold near-dup scale path;
    for an exhaustive low-threshold pair join use the exact
    ``cosine_pairs_blocked`` plan instead."""
    from .dedup import band_groups, banded_pairs_overflow

    rows = emb_ds.map_batches(_lsh_band_rows,
                              fn_kwargs={"P": band_groups(LSH_BANDS)},
                              batch_format="pyarrow")
    out = banded_pairs_overflow(
        rows, key_col="band_key", payload_cols=["emb"],
        pair_fn=_lsh_pair_fn(threshold),
        pair_schema={"sim": np.float64},
        max_group=partitioning.overflow_rows("lsh"))

    def rename(t: pa.Table) -> pa.Table:
        return t.rename_columns(["vec_a", "vec_b", "sim"])

    return out.map_batches(rename, batch_format="pyarrow")


# ---- exact blocked cosine pair join (triangle decomposition) ----------------


def _tri_cell_tables(S: int):
    """Per-part cell tables for the triangle decomposition: part p joins
    EXACTLY S cells (the (i, j), i<=j pairs containing p), so the explode
    vectorizes as a np.repeat + table lookup instead of a per-row loop."""
    cells = np.zeros((S, S), np.int64)
    gis = np.zeros((S, S), np.int32)
    gjs = np.zeros((S, S), np.int32)
    for part in range(S):
        k = 0
        for i in range(S):
            for j in range(i, S):
                if part != i and part != j:
                    continue
                cells[part, k] = i * S + j
                gis[part, k] = i
                gjs[part, k] = j
                k += 1
        assert k == S
    return cells, gis, gjs


def _cosine_tri_rows(batch: pa.Table, S: int) -> pa.Table:
    """Explode each vector into its triangle-decomposition groups (same
    scheme as the hot-bucket split of dedup.banded_pairs_overflow): part
    p = hash(vec_id) % S; the vector joins every cell (i, j), i<=j, with
    p in {i, j} — S rows per vector, each unordered pair of vectors meets
    in EXACTLY one cell.
    Fully vectorized (round-5): np.repeat + per-part cell-table lookup."""
    vids = np.array(batch.column("vec_id").to_pylist(), dtype=np.int64)
    m = _normalize(_matrix(batch.column("embedding")))
    parts = ((vids * 2654435761) % (1 << 32) % S).astype(np.int32)
    cells_t, gis_t, gjs_t = _tri_cell_tables(S)
    embs = np.array([row.tobytes() for row in m], dtype=object)
    return pa.table({
        "cell": pa.array(cells_t[parts].reshape(-1).astype(np.int32)),
        "gi": pa.array(gis_t[parts].reshape(-1)),
        "gj": pa.array(gjs_t[parts].reshape(-1)),
        "part": pa.array(np.repeat(parts, S)),
        "vec_id": pa.array(np.repeat(vids, S)),
        "emb": pa.array(np.repeat(embs, S), pa.binary()),
    })


def _cosine_pairs_in_cell(group: pd.DataFrame,
                          threshold: float) -> pd.DataFrame:
    empty = pd.DataFrame({"vec_a": np.array([], np.int64),
                          "vec_b": np.array([], np.int64),
                          "sim": np.array([], np.float64)})
    if not len(group):
        return empty
    gi = int(group["gi"].iloc[0])
    gj = int(group["gj"].iloc[0])
    g = group.drop_duplicates("vec_id")

    def unpack(sub):
        return (sub["vec_id"].to_numpy(np.int64),
                np.stack([np.frombuffer(e, dtype=np.float64)
                          for e in sub["emb"]]))

    if gi == gj:
        sub = g[g["part"] == gi].sort_values("vec_id")
        if len(sub) < 2:
            return empty
        ids, m = unpack(sub)
        sims = m @ m.T
        i, j = np.triu_indices(len(ids), k=1)
        keep = sims[i, j] >= threshold
        a, b, s = ids[i[keep]], ids[j[keep]], sims[i[keep], j[keep]]
    else:
        left = g[g["part"] == gi]
        right = g[g["part"] == gj]
        if not len(left) or not len(right):
            return empty
        la, ma = unpack(left)
        rb, mb = unpack(right)
        sims = ma @ mb.T
        i, j = np.nonzero(sims >= threshold)
        a, b = la[i], rb[j]
        a, b = np.minimum(a, b), np.maximum(a, b)
        s = sims[i, j]
    return pd.DataFrame({"vec_a": a.astype(np.int64),
                         "vec_b": b.astype(np.int64),
                         "sim": s.astype(np.float64)})


def cosine_pairs_blocked(emb_ds, threshold: float):
    """EXACT cosine pair join (a < b, cos >= threshold) via the triangle
    self-join decomposition: S*(S+1)/2 cells, each vector replicated into
    S cells, every unordered pair verified by matmul in exactly one cell.

    This is the exhaustive plan: recall 1 by construction at ANY
    threshold (an exact low-threshold similarity join is inherently
    O(n^2) compute — no banding scheme prunes it without recall loss; cf.
    the recall note on near_dup_pairs_lsh).  The O(n^2) work is what gets
    distributed: per-cell memory/compute is (2n/S)^2-bounded, nothing is
    broadcast, the only shuffle carries S x (8*dim)-byte rows.  S is
    ``partitioning.triangle_split()``: ~one cell per shuffle reducer."""
    S = partitioning.triangle_split()
    return (emb_ds.map_batches(_cosine_tri_rows, fn_kwargs={"S": S},
                               batch_format="pyarrow")
            .groupby("cell")
            .map_groups(_cosine_pairs_in_cell, batch_format="pandas",
                        fn_kwargs={"threshold": threshold}))


def _emb_matrix_fast(col) -> np.ndarray:
    """Zero-copy-ish (vec_count, dim) float64 matrix from a list<float>
    column (flatten the Arrow list buffer instead of to_pylist)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    flat = arr.flatten().to_numpy(zero_copy_only=False)
    return flat.astype(np.float64).reshape(len(arr), -1)


def label_centroids(emb_ds) -> pd.DataFrame:
    """Per-label mean vector via bounded per-batch partials.

    Each batch emits one (label, count, dim-sums) row per label present —
    bounded by |labels| x dim fixed-width floats (labels are a CLASS
    space, not a corpus-growing key; callers with unbounded keys need a
    bucketed groupby instead).  Driver combine under the bounded-combiner
    contract.  Returns pandas (label, n, c_0..c_{dim-1})."""

    def partial(t: pa.Table) -> pa.Table:
        m = _emb_matrix_fast(t["embedding"])
        lab = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, inv = np.unique(lab, return_inverse=True)
        sums = np.zeros((len(uniq), m.shape[1]), np.float64)
        np.add.at(sums, inv, m)
        cnt = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        cols = {"label": pa.array(uniq, pa.int64()),
                "n": pa.array(cnt, pa.int64())}
        for d in range(m.shape[1]):
            cols[f"c_{d}"] = pa.array(sums[:, d], pa.float64())
        return pa.table(cols)

    parts = emb_ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    agg = parts.groupby("label", as_index=False).sum()
    dims = [c for c in agg.columns if c.startswith("c_")]
    agg[dims] = agg[dims].div(agg["n"], axis=0)
    return agg


def embed_outliers(emb_ds):
    """Embedding-space outlier scoring for data cleaning: cosine of every
    vector to its LABEL CENTROID, quantized to int64 basis points (repo
    float policy).  A low score marks a vector that disagrees with its
    class — the standard mislabeled/noisy-sample signal (cf. prototype /
    nearest-centroid classifiers).

    Two streaming passes, ZERO shuffles: pass 1 reduces to per-label
    dim-sums (bounded partials, see label_centroids); the centroid matrix
    broadcasts via ray.put; pass 2 scores each batch with one matmul row
    lookup.  Returns Dataset(vec_id, label, cos_bp)."""
    cent = label_centroids(emb_ds)
    labels = cent["label"].to_numpy(np.int64)
    dims = [c for c in cent.columns if c.startswith("c_")]
    C = cent[dims].to_numpy(np.float64)
    cnorm = np.linalg.norm(C, axis=1)
    cnorm[cnorm == 0] = 1.0
    lab_row = {int(l): i for i, l in enumerate(labels)}
    ref = ray.put((lab_row, C, cnorm))

    def score(t: pa.Table) -> pa.Table:
        lr, cm, cn = ray.get(ref)
        m = _emb_matrix_fast(t["embedding"])
        lab = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        rows = np.array([lr[int(x)] for x in lab], np.int64)
        dot = np.einsum("ij,ij->i", m, cm[rows])
        vn = np.linalg.norm(m, axis=1)
        vn[vn == 0] = 1.0
        cos = dot / (vn * cn[rows])
        return pa.table({
            "vec_id": t["vec_id"],
            "label": t["label"],
            "cos_bp": pa.array(np.floor(cos * 10_000 + 0.5)
                               .astype(np.int64)),
        })

    return emb_ds.map_batches(score, batch_format="pyarrow")


# ---- SemDeDup (semantic dedup inside coarse clusters) -----------------------


def _sorted_seeds(seeds_ref) -> tuple[np.ndarray, np.ndarray]:
    """The worker's (seed ids asc, normalized seed matrix in that order)."""
    def build():
        qids, qmat = resolve(seeds_ref)
        order = np.argsort(np.asarray(qids, dtype=np.int64))
        return (np.asarray(qids, dtype=np.int64)[order],
                _normalize(qmat)[order])

    return worker_state(_SEEDS_STATE, seeds_ref, build)


def _semdedup_rows(batch: pa.Table, seeds_ref, S: int) -> pa.Table:
    """Assign each vector to its nearest seed (argmax quantized cosine,
    lowest seed id on ties — the SQL `ORDER BY q DESC, sid` contract),
    then explode it into the CLUSTER-LOCAL triangle cells so the
    intra-cluster pairwise verify distributes even when one cluster holds
    most of the corpus (hot-cluster skew — same engine as
    cosine_pairs_blocked, cell key extended to cluster * S^2 + i*S + j)."""
    sids, seeds = _sorted_seeds(seeds_ref)
    vids = np.array(batch.column("vec_id").to_pylist(), dtype=np.int64)
    m = _normalize(_matrix(batch.column("embedding")))
    q = np.floor((m @ seeds.T) * 10_000 + 0.5).astype(np.int64)
    cl = sids[np.argmax(q, axis=1)]  # first max == lowest sid on ties
    parts = ((vids * 2654435761) % (1 << 32) % S).astype(np.int32)
    cells_t, gis_t, gjs_t = _tri_cell_tables(S)
    embs = np.array([row.tobytes() for row in m], dtype=object)
    cl_rep = np.repeat(cl.astype(np.int64), S)
    return pa.table({
        "cell": pa.array(cl_rep * S * S
                         + cells_t[parts].reshape(-1)),
        "gi": pa.array(gis_t[parts].reshape(-1)),
        "gj": pa.array(gjs_t[parts].reshape(-1)),
        "part": pa.array(np.repeat(parts, S)),
        "vec_id": pa.array(np.repeat(vids, S)),
        "cluster": pa.array(cl_rep),
        "emb": pa.array(np.repeat(embs, S), pa.binary()),
    })


def semdedup(emb_ds, seeds, threshold: float):
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): coarse-cluster the
    embedding space, then drop every vector that has a strictly-lower-id
    neighbor above ``threshold`` cosine INSIDE its cluster.  Returns a
    Dataset of (vec_id, cluster, keep).

    Plan (three fixed-width exchanges, nothing broadcast but the seeds):
      1. assignment pass — seeds broadcast once via ray.put, per-batch
         argmax matmul; emits (vec_id, cluster, dup=0) marker rows;
      2. intra-cluster pair verify — cluster-local triangle explode
         (S rows/vector) -> groupby(cell) matmul; emits (vec_id, cluster,
         dup=1) for every pair loser; a giant cluster spreads over
         S*(S+1)/2 cells instead of serializing one reducer;
      3. keep resolution — ONE hash(vec_id) bucket shuffle over the
         3-int marker rows; keep = no dup marker for the id.

    At real scale the seed set comes from train_ivf_centroids (sampled
    k-means); the driver-table query seeds on vec_id order so the DuckDB
    oracle can reproduce the assignment exactly.  The pairwise verify is
    cluster-bounded — SemDeDup's core trick: O(sum_c n_c^2), not O(n^2).
    S is ``partitioning.triangle_split()``."""
    from .partitioning import bucket_exchange

    S = partitioning.triangle_split()
    seeds_ref = ray.put(seeds)

    def assign_rows(t: pa.Table) -> pa.Table:
        sids, sm = _sorted_seeds(seeds_ref)
        m = _normalize(_matrix(t.column("embedding")))
        q = np.floor((m @ sm.T) * 10_000 + 0.5).astype(np.int64)
        cl = sids[np.argmax(q, axis=1)]
        return pa.table({
            "vec_id": t.column("vec_id"),
            "cluster": pa.array(cl, pa.int64()),
            "dup": pa.array(np.zeros(len(t), np.int8)),
        })

    def cell_pairs(group: pd.DataFrame) -> pd.DataFrame:
        pairs = _cosine_pairs_in_cell(group, threshold)
        if not len(pairs):
            return pd.DataFrame({"vec_id": np.array([], np.int64),
                                 "cluster": np.array([], np.int64),
                                 "dup": np.array([], np.int8)})
        cl = int(group["cluster"].iloc[0])
        b = np.unique(pairs["vec_b"].to_numpy(np.int64))
        return pd.DataFrame({"vec_id": b,
                             "cluster": np.full(len(b), cl, np.int64),
                             "dup": np.ones(len(b), np.int8)})

    dups = (emb_ds.map_batches(_semdedup_rows,
                               fn_kwargs={"seeds_ref": seeds_ref, "S": S},
                               batch_format="pyarrow")
            .groupby("cell")
            .map_groups(cell_pairs, batch_format="pandas"))
    markers = emb_ds.map_batches(assign_rows, batch_format="pyarrow") \
        .union(dups)

    def keep_flags(g: pd.DataFrame) -> pa.Table:
        agg = g.groupby("vec_id", as_index=False).agg(
            cluster=("cluster", "max"), ndup=("dup", "sum"))
        return pa.table({
            "vec_id": pa.array(agg["vec_id"].to_numpy(np.int64)),
            "cluster": pa.array(agg["cluster"].to_numpy(np.int64)),
            "keep": pa.array((agg["ndup"].to_numpy() == 0)
                             .astype(np.int64)),
        })

    return bucket_exchange(markers, ["vec_id"], keep_flags)


# ---- distributed Lloyd's k-means over the FULL embedding corpus ------------


def _centroids(cref) -> np.ndarray:
    """This worker's copy of the broadcast centroid matrix."""
    return worker_state(_CENTROIDS_STATE, cref, lambda: resolve(cref))


def kmeans_embeddings(emb_ds, k: int = 16, iters: int = 5):
    """Spherical k-means (Lloyd's) over the whole embedding Dataset —
    the trained coarse quantizer behind IVF / SemDeDup at deployment
    scale (train_ivf_centroids trains on a driver-side SAMPLE; this is
    the full-corpus refinement loop).

    Each iteration is ONE streaming pass: per-batch partials are the
    (k, dim) cluster sums + k counts (np.add.at — bounded by the model
    size, never the batch), the driver combine is k rows, and the new
    centroids re-broadcast via ray.put.  No shuffle at any point; at
    10^12 docs the per-iteration exchange is k x dim floats per block.
    Deterministic: init = first-k vec_ids,
    argmax cosine with lowest-cluster tie-break, empty clusters keep
    their previous centroid.  Returns (assignments Dataset(vec_id,
    cluster), centroids ndarray)."""
    import ray.data  # noqa: F401  (Dataset comes in, Dataset goes out)

    # deterministic first-k-by-vec_id init WITHOUT a global sort:
    # per-batch min-k partials (k rows each), driver head-k merge — the
    # driver sees n_blocks x k rows, never the corpus
    def min_k(t: pa.Table) -> pa.Table:
        df = (t.select(["vec_id", "embedding"]).to_pandas()
              .sort_values("vec_id").head(k))
        return pa.Table.from_pandas(df, preserve_index=False)

    sub = (emb_ds.map_batches(min_k, batch_format="pyarrow")
           .to_pandas().sort_values("vec_id").head(k))
    cents = _normalize(np.array(sub["embedding"].tolist(), dtype=np.float64))

    def partial(t: pa.Table, cref=None) -> pa.Table:
        c = _centroids(cref)
        m = _normalize(_matrix(t.column("embedding")))
        a = np.argmax(m @ c.T, axis=1)
        kk, dim = c.shape
        sums = np.zeros((kk, dim), np.float64)
        np.add.at(sums, a, m)
        cnt = np.bincount(a, minlength=kk).astype(np.int64)
        return pa.table({
            "cluster": pa.array(np.arange(kk, dtype=np.int64)),
            "n": pa.array(cnt),
            "vec": pa.array([row.tobytes() for row in sums], pa.binary()),
        })

    def combine_partials(t: pa.Table) -> pa.Table:
        # in-stream combine: collapse each incoming batch of (k x blocks)
        # partial rows into one k-row model before the driver sees it
        df = t.to_pandas()
        rows_c, rows_n, rows_v = [], [], []
        for cl, grp in df.groupby("cluster"):
            acc = None
            for vb in grp["vec"]:
                arr = np.frombuffer(vb, np.float64)
                acc = arr.copy() if acc is None else acc + arr
            rows_c.append(int(cl))
            rows_n.append(int(grp["n"].sum()))
            rows_v.append(acc.tobytes())
        return pa.table({"cluster": pa.array(rows_c, pa.int64()),
                         "n": pa.array(rows_n, pa.int64()),
                         "vec": pa.array(rows_v, pa.binary())})

    for _ in range(int(iters)):
        cref = ray.put(cents)
        pdf = (emb_ds.map_batches(
            partial, fn_kwargs={"cref": cref},
            batch_format="pyarrow")
            .map_batches(combine_partials, batch_format="pyarrow",
                         batch_size=64 * k)
            .to_pandas())
        dim = cents.shape[1]
        sums = np.zeros((k, dim), np.float64)
        cnts = np.zeros(k, np.int64)
        for cl, n, vb in zip(pdf["cluster"], pdf["n"], pdf["vec"]):
            sums[cl] += np.frombuffer(vb, np.float64)
            cnts[cl] += n
        nxt = cents.copy()
        nz = cnts > 0
        nxt[nz] = sums[nz] / cnts[nz, None]
        cents = _normalize(nxt)

    cref = ray.put(cents)

    def assign(t: pa.Table) -> pa.Table:
        c = _centroids(cref)
        m = _normalize(_matrix(t.column("embedding")))
        a = np.argmax(m @ c.T, axis=1).astype(np.int64)
        return pa.table({"vec_id": t["vec_id"],
                         "cluster": pa.array(a)})

    return emb_ds.map_batches(assign, batch_format="pyarrow"), cents
