"""DSIR — Data Selection with Importance Resampling (Xie et al. 2023,
arXiv:2302.03169): score every raw-pool document by the log-likelihood
ratio of a TARGET-distribution hashed-n-gram LM over a SOURCE (raw pool)
LM.  The published recipe hashes n-grams into a fixed bucket space
(10^4), fits two multinomials over buckets, and resamples by the ratio —
the selection engine behind "train on Wikipedia-like web text".

Ray plan (two streaming passes, ZERO shuffles):

  pass 1 — per-batch hashed-bigram bucket counts for source (all docs)
           and target (``target_lang`` docs), pre-reduced to at most
           ``DSIR_BUCKETS`` partial rows per batch (np.bincount); the
           driver combine is bounded by the FIXED bucket space — the
           _tree_agg contract, valid here by construction;
  pass 2 — the (DSIR_BUCKETS,)-float weight vector broadcasts once via
           ray.put; per-doc scores are bincount-weighted sums.

Bucket ids are md5-derived (first 8 hex chars mod DSIR_BUCKETS) so the
DuckDB oracle reproduces them bit-for-bit; md5 runs once per DISTINCT
gram per batch (vocab-bounded, not token-bounded).  A deployment at
10^12 docs swaps md5 for a vectorized 64-bit multiplicative hash — the
plan shape is unchanged.

Ref seat: the reference selects KB sentences for retrieval contexts by
BM25 relevance (kb/build_kb.py); DSIR is the corpus-level analogue every
LLM pretraining pipeline runs over Common-Crawl pools.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from .partitioning import resolve

DSIR_BUCKETS = 4096


def _bigram_buckets(toks: np.ndarray, di: np.ndarray, n_buckets: int):
    """(bucket_id, doc_index) per consecutive same-doc token pair.
    md5 evaluated once per distinct gram in the batch."""
    if len(toks) < 2:
        return (np.array([], np.int64), np.array([], np.int64))
    same = di[:-1] == di[1:]
    a, b, d = toks[:-1][same], toks[1:][same], di[:-1][same]
    if not len(a):
        return (np.array([], np.int64), np.array([], np.int64))
    grams = (pd.Series(a, dtype=object) + " "
             + pd.Series(b, dtype=object)).to_numpy(object)
    uniq, inv = np.unique(grams, return_inverse=True)
    hb = np.fromiter(
        (int(hashlib.md5(g.encode("utf-8")).hexdigest()[:8], 16) % n_buckets
         for g in uniq), np.int64, len(uniq))
    return hb[inv], d


def dsir_weights(docs_ds, *, target_lang: str = "en"):
    """Dataset(doc_id, text, lang) -> Dataset(doc_id, n_bigrams, dsir_bp)
    where dsir_bp = basis-point-quantized
    sum_g [ ln((tgt[h(g)]+1)/(T+B)) - ln((src[h(g)]+1)/(S+B)) ]
    (add-one-smoothed multinomials over the hashed-bigram buckets)."""
    from .sparse import _tokenize_batch

    B = DSIR_BUCKETS

    def count_partial(t: pa.Table) -> pa.Table:
        flat, di, _len = _tokenize_batch(t, "text")
        toks = flat.to_numpy(zero_copy_only=False)
        hb, d = _bigram_buckets(toks, di, B)
        if not len(hb):
            return pa.table({"b": pa.array([], pa.int64()),
                             "src_c": pa.array([], pa.int64()),
                             "tgt_c": pa.array([], pa.int64())})
        is_tgt = (np.asarray(t["lang"].to_pylist(), dtype=object)
                  == target_lang)[d]
        src = np.bincount(hb, minlength=B)
        tgt = np.bincount(hb[is_tgt], minlength=B)
        nz = np.flatnonzero(src)
        return pa.table({"b": pa.array(nz.astype(np.int64)),
                         "src_c": pa.array(src[nz].astype(np.int64)),
                         "tgt_c": pa.array(tgt[nz].astype(np.int64))})

    def combine_counts(t: pa.Table) -> pa.Table:
        # in-stream combine level: the driver sees n_blocks/64 bounded
        # rows, not n_blocks x B partial rows
        df = (t.to_pandas().groupby("b", as_index=False)
              [["src_c", "tgt_c"]].sum())
        return pa.Table.from_pandas(df, preserve_index=False)

    pdf = (docs_ds.map_batches(count_partial, batch_format="pyarrow")
           .map_batches(combine_counts, batch_format="pyarrow",
                        batch_size=64 * B)
           .to_pandas())
    src = np.zeros(B, np.int64)
    tgt = np.zeros(B, np.int64)
    if len(pdf):
        agg = pdf.groupby("b", as_index=False)[["src_c", "tgt_c"]].sum()
        src[agg["b"].to_numpy(np.int64)] = agg["src_c"].to_numpy(np.int64)
        tgt[agg["b"].to_numpy(np.int64)] = agg["tgt_c"].to_numpy(np.int64)
    S, T = int(src.sum()), int(tgt.sum())
    lw = (np.log((tgt + 1.0) / (T + float(B)))
          - np.log((src + 1.0) / (S + float(B))))
    lw_ref = ray.put(lw)

    def score(t: pa.Table) -> pa.Table:
        w = resolve(lw_ref)
        flat, di, _len = _tokenize_batch(t, "text")
        toks = flat.to_numpy(zero_copy_only=False)
        hb, d = _bigram_buckets(toks, di, B)
        n = len(t)
        sums = np.zeros(n, np.float64)
        cnts = np.zeros(n, np.int64)
        if len(hb):
            sums = np.bincount(d, weights=w[hb], minlength=n)
            cnts = np.bincount(d, minlength=n).astype(np.int64)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_bigrams": pa.array(cnts),
            "dsir_bp": pa.array(np.floor(sums * 10_000 + 0.5)
                                .astype(np.int64)),
        })

    return docs_ds.map_batches(score, batch_format="pyarrow")
