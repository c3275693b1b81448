"""Queries over the ``embeddings`` table (similarity search, near-dup,
clustering, outliers) and the synthetic multimodal featurization
payloads."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from ...stages.partitioning import resolve, worker_state
from ._common import _cents, _read


KNN_K = 5
N_QUERIES = 5


def q_knn_bruteforce(sf_dir: str):
    from ...stages.similarity import knn_bruteforce, load_queries

    queries = load_queries(f"{sf_dir}/embeddings.parquet", N_QUERIES)
    df = knn_bruteforce(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
        queries, k=KNN_K)
    return df[["qid", "nid", "rank"]].astype(np.int64)


SQL_KNN = f"""
WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings
           WHERE vec_id IN (SELECT vec_id FROM embeddings ORDER BY vec_id
                            LIMIT {N_QUERIES})),
     c AS (SELECT q.qid, e.vec_id AS nid,
                  list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                         CAST(e.embedding AS DOUBLE[])) AS sim
           FROM q, embeddings e
           WHERE e.vec_id NOT IN (SELECT qid FROM q))
SELECT qid, nid, rank FROM (
  SELECT qid, nid,
         row_number() OVER (PARTITION BY qid ORDER BY sim DESC, nid) AS rank
  FROM c)
WHERE rank <= {KNN_K}
"""


def q_ivf_knn(sf_dir: str):
    """IVF ANN with a TRAINED coarse quantizer (deterministic spherical
    k-means on a strided sample; round 1 used first-n vectors)."""
    from ...stages.similarity import ivf_knn, load_queries, train_ivf_centroids

    path = f"{sf_dir}/embeddings.parquet"
    df = ivf_knn(_read(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
                 load_queries(path, N_QUERIES), train_ivf_centroids(path),
                 k=KNN_K, nprobe=4)
    return df[["qid", "nid", "rank"]].astype(np.int64)


NEAR_DUP_COSINE = 0.45  # chosen so the driver tables yield non-trivial pairs


def q_embed_near_dup(sf_dir: str):
    """Embedding-cosine pair join, EXACT at any threshold: triangle-
    blocked all-pairs (stages/similarity.cosine_pairs_blocked) — every
    unordered pair matmul-verified in exactly one of S*(S+1)/2 cells, no
    broadcast, recall 1 by construction.

    Round-2 advice: the LSH-banded plan misses ~2-4% of pairs at the
    query's 0.45 threshold (banding recall ~1 only near cosine 1), so it
    cannot sit behind an exact SQL oracle at this threshold.  The banded
    plan remains the high-threshold scale path as the rows-only
    ``embed_near_dup_lsh`` query + planted-duplicate recall test."""
    from ...stages.similarity import cosine_pairs_blocked

    df = cosine_pairs_blocked(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
        threshold=NEAR_DUP_COSINE).to_pandas()
    if df.empty:
        df = pd.DataFrame({"vec_a": [], "vec_b": [], "sim": []})
    df["sim_bp"] = _cents(df["sim"], 10000)
    return df[["vec_a", "vec_b", "sim_bp"]].astype(np.int64)


def q_embed_near_dup_lsh(sf_dir: str):
    """The banded scale path (hyperplane-LSH, in-band exact verify,
    first-colliding-band emission, hot buckets triangle-redistributed).
    Rows-only: banding recall at this low threshold is ~0.96-0.98, so no
    exact oracle (recall -> 1 as cosine -> 1; a planted-duplicate pytest
    pins full recall at 0.95)."""
    from ...stages.similarity import near_dup_pairs_lsh

    df = near_dup_pairs_lsh(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
        threshold=NEAR_DUP_COSINE).to_pandas()
    if df.empty:
        df = pd.DataFrame({"vec_a": [], "vec_b": [], "sim": []})
    df["sim_bp"] = _cents(df["sim"], 10000)
    return (df[["vec_a", "vec_b", "sim_bp"]].astype(np.int64)
            .sort_values(["vec_a", "vec_b"]).reset_index(drop=True))


SQL_EMBED_NEAR_DUP = f"""
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
       CAST(FLOOR(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                         CAST(b.embedding AS DOUBLE[]))
                  * 10000 + 0.5) AS BIGINT) AS sim_bp
FROM embeddings a, embeddings b
WHERE a.vec_id < b.vec_id
  AND list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                             CAST(b.embedding AS DOUBLE[])) >= {NEAR_DUP_COSINE}
"""


def q_multimodal_image_features(sf_dir: str):
    """Multimodal plumbing: binary image column -> decode(stubbed fake) ->
    features, sized for large binary payloads (batch_size=64)."""
    from ...data.synth import sf_dir_to_sf
    from ...stages.multimodal import image_feature_pipeline, make_fake_images

    n = max(64, int(2560 * sf_dir_to_sf(sf_dir)))
    return image_feature_pipeline(
        rd.from_arrow(make_fake_images(n)), allow_fake=True)


def q_embed_outliers(sf_dir: str):
    """Embedding-space outlier scoring (stages/similarity.py
    embed_outliers): cosine of every vector to its label centroid —
    the mislabeled/noisy-sample cleaning signal.  Two streaming passes,
    zero shuffles (per-label dim-sum partials are bounded by the class
    space x dim); scores quantized to int64 basis points."""
    from ...stages.similarity import embed_outliers

    return embed_outliers(_read(sf_dir, "embeddings",
                                columns=["vec_id", "embedding", "label"]))


SQL_EMBED_OUTLIERS = r"""
WITH dims AS (
  SELECT vec_id, label, i AS dim, CAST(embedding[i] AS DOUBLE) AS x
  FROM embeddings,
       unnest(generate_series(1, array_length(embedding))) AS g(i)),
cent AS (SELECT label, dim, avg(x) AS c FROM dims GROUP BY label, dim),
cn AS (SELECT label, sqrt(sum(c * c)) AS cnorm FROM cent GROUP BY label),
dots AS (SELECT d.vec_id, d.label,
                sum(d.x * c.c) AS dot, sqrt(sum(d.x * d.x)) AS vnorm
         FROM dims d JOIN cent c ON c.label = d.label AND c.dim = d.dim
         GROUP BY d.vec_id, d.label)
SELECT dots.vec_id, dots.label,
       -- zero-norm guard mirrors the engine (similarity.embed_outliers
       -- substitutes norm 1.0, so an all-zero vector/centroid scores
       -- cos_bp 0 on BOTH sides instead of diverging — ADVICE r4)
       CAST(FLOOR(dot / (COALESCE(NULLIF(vnorm, 0), 1)
                         * COALESCE(NULLIF(cnorm, 0), 1))
                  * 10000 + 0.5) AS BIGINT) AS cos_bp
FROM dots JOIN cn ON cn.label = dots.label
"""


def q_multimodal_audio_features(sf_dir: str):
    """Audio featurization plumbing (decode honestly stubbed): binary
    audio rows -> rms / zero-crossing / band-energy vectors."""
    from ...data.synth import sf_dir_to_sf
    from ...stages.multimodal import audio_feature_pipeline, make_fake_audio

    n = max(64, int(2560 * sf_dir_to_sf(sf_dir)))
    return audio_feature_pipeline(
        rd.from_arrow(make_fake_audio(n)), allow_fake=True)


def q_multimodal_video_frames(sf_dir: str):
    """Video frame-sample plumbing (decode honestly stubbed): binary video
    rows -> k evenly-sampled frames -> per-frame stats."""
    from ...data.synth import sf_dir_to_sf
    from ...stages.multimodal import make_fake_videos, video_frame_pipeline

    n = max(32, int(1280 * sf_dir_to_sf(sf_dir)))
    return video_frame_pipeline(
        rd.from_arrow(make_fake_videos(n)), k=4, allow_fake=True)


RANGE_SEARCH_COSINE = 0.35


_RANGE_STATE: dict = {}  # _range_match's slot: qref -> queries


def _range_match(t: pa.Table, qref=None) -> pa.Table:
    """(qid, nid, sim_bp) for every batch vector within the cosine radius
    of a broadcast query (the queries themselves excluded)."""
    from ...stages.similarity import _matrix, _normalize

    def build():
        qids, qmat = resolve(qref)
        return np.asarray(qids, np.int64), _normalize(qmat), set(qids)

    qids, qnorm, exclude = worker_state(_RANGE_STATE, qref, build)
    vids = t["vec_id"].to_numpy()
    keep = ~np.isin(vids, list(exclude))
    vids = vids[keep]
    if not len(vids):
        return pa.table({"qid": pa.array([], pa.int64()),
                         "nid": pa.array([], pa.int64()),
                         "sim_bp": pa.array([], pa.int64())})
    m = _normalize(_matrix(t.column("embedding"))[keep])
    sims = qnorm @ m.T
    qi, vi = np.nonzero(sims >= RANGE_SEARCH_COSINE)
    return pa.table({
        "qid": pa.array(qids[qi]),
        "nid": pa.array(vids[vi].astype(np.int64)),
        "sim_bp": pa.array(_cents(sims[qi, vi], 10000)),
    })


def q_range_search(sf_dir: str):
    """Cosine RADIUS (range) search — the retrieval seat next to top-k
    kNN: every corpus vector within the query's cosine radius, not a
    fixed k.  Query matrix broadcast once via ray.put, per-batch matmul
    + threshold mask, zero shuffles, output streams (no driver top-k
    merge needed — the radius bounds the result, not a rank cut)."""
    from ...stages.similarity import load_queries

    qref = ray.put(load_queries(f"{sf_dir}/embeddings.parquet", N_QUERIES))
    return _read(sf_dir, "embeddings",
                 columns=["vec_id", "embedding"]) \
        .map_batches(_range_match, fn_kwargs={"qref": qref},
                     batch_format="pyarrow")


SQL_RANGE_SEARCH = f"""
WITH q AS (SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qe
           FROM embeddings
           WHERE vec_id IN (SELECT vec_id FROM embeddings
                            ORDER BY vec_id LIMIT {N_QUERIES}))
SELECT q.qid, e.vec_id AS nid,
       CAST(FLOOR(list_cosine_similarity(qe,
                    CAST(e.embedding AS DOUBLE[])) * 10000 + 0.5)
            AS BIGINT) AS sim_bp
FROM q, embeddings e
WHERE e.vec_id NOT IN (SELECT qid FROM q)
  AND list_cosine_similarity(qe, CAST(e.embedding AS DOUBLE[]))
      >= {RANGE_SEARCH_COSINE}
"""


def q_semdedup_trained(sf_dir: str):
    """SemDeDup with a TRAINED coarse quantizer — the published form
    (Abbas et al. 2023 cluster with k-means, not seeds): full-corpus
    Lloyd k-means (kmeans_embeddings, model-only exchange) feeds its
    centroids into the cluster-local pairwise dedup.  Rows-only (the
    seeded variant holds the exact oracle); machinery pinned by the
    semdedup + kmeans pytests."""
    from ...stages.similarity import kmeans_embeddings, semdedup

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    _assign, cents = kmeans_embeddings(emb, k=16, iters=3)
    seeds = (list(range(len(cents))), cents)
    return semdedup(emb, seeds, threshold=NEAR_DUP_COSINE)


def q_kmeans_embed(sf_dir: str):
    """Full-corpus spherical k-means (stages/similarity.kmeans_embeddings,
    5 Lloyd iterations): per-iteration exchange is the (k x dim) model
    only — no shuffle ever.  Rows-only (iterative, not SQL-expressible);
    semantics pinned by tests/test_new_ops.py numpy parity."""
    from ...stages.similarity import kmeans_embeddings

    ds, _cents = kmeans_embeddings(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
        k=16, iters=5)
    return (ds.to_pandas().astype(np.int64)
            .sort_values("vec_id").reset_index(drop=True))


SEMDEDUP_SEEDS = 8


def q_semdedup(sf_dir: str):
    """SemDeDup (stages/similarity.semdedup; Abbas et al. 2023): coarse
    cluster assignment against broadcast seeds, cluster-LOCAL triangle
    pairwise verify (hot-cluster skew spreads over S*(S+1)/2 cells), one
    hash(vec_id) marker shuffle for keep resolution.  Seeds are the
    first-k vec_ids so the DuckDB oracle reproduces the assignment;
    at deployment scale they come from train_ivf_centroids."""
    from ...stages.similarity import load_queries, semdedup

    seeds = load_queries(f"{sf_dir}/embeddings.parquet", SEMDEDUP_SEEDS)
    return semdedup(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
        seeds, threshold=NEAR_DUP_COSINE)


SQL_SEMDEDUP = f"""
WITH seeds AS (
  SELECT vec_id AS sid, CAST(embedding AS DOUBLE[]) AS se
  FROM embeddings WHERE vec_id < {SEMDEDUP_SEEDS}),
sim AS (
  SELECT e.vec_id, s.sid,
         CAST(FLOOR(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                                           s.se) * 10000 + 0.5) AS BIGINT)
           AS q
  FROM embeddings e, seeds s),
assign AS (
  SELECT vec_id, sid AS cluster FROM (
    SELECT vec_id, sid,
           row_number() OVER (PARTITION BY vec_id
                              ORDER BY q DESC, sid) AS rn
    FROM sim) WHERE rn = 1),
dups AS (
  SELECT DISTINCT b.vec_id
  FROM assign a
  JOIN assign b ON a.cluster = b.cluster AND a.vec_id < b.vec_id
  JOIN embeddings ea ON ea.vec_id = a.vec_id
  JOIN embeddings eb ON eb.vec_id = b.vec_id
  WHERE list_cosine_similarity(CAST(ea.embedding AS DOUBLE[]),
                               CAST(eb.embedding AS DOUBLE[]))
        >= {NEAR_DUP_COSINE})
SELECT a.vec_id, a.cluster,
       CASE WHEN d.vec_id IS NULL THEN 1 ELSE 0 END AS keep
FROM assign a LEFT JOIN dups d USING (vec_id)
"""
