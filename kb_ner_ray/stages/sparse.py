"""Corpus-scale sparse BM25 retrieval — the S5/T4 retrieval seat with the
sides INVERTED.

The in-actor index (state/bm25.py) covers the reference's deployment: the
KB is the small broadcast side and every corpus sentence is a query
(kb/generate_data.py:33-68 ``_msearch``).  This stage covers the opposite
regime a 100-TB engine also needs: the *searched* collection is the huge
corpus itself and the query workload is small (eval sets, dictionary
probes, decontamination-style audits).  Broadcasting the corpus is
impossible, so the plan inverts:

* the QUERY TERM TABLE is the broadcast small side (``ray.put`` once);
* pass 1 streams the corpus and emits BOUNDED per-batch partials —
  doc count, total token count, and per-query-term document frequency
  (≤ |query vocab| + 1 rows per batch) — combined driver-side under the
  same bounded-key combiner contract as ``_tree_agg``;
* pass 2 streams the corpus again and scores fully WITHIN each batch: a
  document's tokens all live in its own row, so per-(query, doc) BM25
  sums complete locally and only the per-batch top-k per query
  (Q × k fixed-width rows) leaves the task.  ZERO shuffles; the text
  never moves.

Scores are Lucene-flavoured Okapi BM25 (k1=1.2, b=0.75,
idf = ln(1 + (N - df + 0.5)/(df + 0.5))) — identical to state/bm25.py so
both regimes rank identically.  Ranking uses the repo float policy:
scores quantized to int64 basis points via floor(x*1e4 + 0.5) before the
(score desc, doc_id asc) order, so summation-order ulps can't flip a
rank against the SQL oracle.

Tokenization matches SQL_TOKEN_POSTINGS' oracle contract exactly:
whitespace split of the trimmed text, with an empty text yielding the
single token '' (DuckDB ``regexp_split_to_array('', '\\s+')`` = ['']).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

K1 = 1.2
B = 0.75
SCORE_SCALE = 10_000  # basis-point quantization (repo float policy)


def _tokenize_batch(t: pa.Table, text_col: str):
    """(flat_tokens, doc_index, doc_lengths) for one Arrow batch.

    Vectorized: utf8_trim_whitespace + utf8_split_whitespace (no Python
    loop over rows).  Empty texts get dl=1 and one synthetic '' token for
    DuckDB regexp_split parity."""
    s = pc.utf8_trim_whitespace(t[text_col])
    lists = pa.chunked_array([s]).combine_chunks() if isinstance(
        s, pa.Array) else s.combine_chunks()
    lists = pc.utf8_split_whitespace(lists)
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    lengths = pc.list_value_length(lists).to_numpy().astype(np.int64)
    flat = lists.flatten()
    doc_idx = np.repeat(np.arange(len(t), dtype=np.int64), lengths)
    empty = np.flatnonzero(lengths == 0)
    if len(empty):
        flat = pa.concat_arrays(
            [flat, pa.array([""] * len(empty), pa.string())])
        doc_idx = np.concatenate([doc_idx, empty])
        lengths = np.maximum(lengths, 1)
    return flat, doc_idx, lengths


def corpus_bm25_stats(docs_ds, qterms: list[str], *, text_col: str = "text"
                      ) -> tuple[int, float, pd.DataFrame]:
    """Pass 1: (N, avgdl, per-term df) for the query vocabulary only.

    Per-batch partial: one row per query term present in the batch
    (df partial = distinct docs containing it) plus one sentinel row
    (tok=None) carrying (n_docs, sum_dl).  Partial volume is bounded by
    (|qterms| + 1) x n_blocks fixed-width rows — the bounded-combiner
    contract — so the driver combine never grows with corpus size."""
    qset_ref = ray.put(pa.array(sorted(set(qterms)), pa.string()))

    def partial(t: pa.Table) -> pa.Table:
        qarr = ray.get(qset_ref)
        flat, doc_idx, lengths = _tokenize_batch(t, text_col)
        mask = pc.is_in(flat, value_set=qarr).to_numpy(zero_copy_only=False)
        hit = pd.DataFrame({"tok": flat.to_numpy(zero_copy_only=False)[mask],
                            "di": doc_idx[mask]})
        df = (hit.drop_duplicates().groupby("tok", sort=False).size()
              if len(hit) else pd.Series(dtype=np.int64))
        toks = [None] + list(df.index)
        return pa.table({
            "tok": pa.array(toks, pa.string()),
            "df": pa.array([0] + list(df.to_numpy(np.int64)), pa.int64()),
            "n_docs": pa.array([len(t)] + [0] * len(df), pa.int64()),
            "sum_dl": pa.array([int(lengths.sum())] + [0] * len(df),
                               pa.int64()),
        })

    parts = (docs_ds.map_batches(partial, batch_format="pyarrow")
             .to_pandas())
    stats = parts[parts["tok"].isna()]
    n_docs = int(stats["n_docs"].sum())
    avgdl = float(stats["sum_dl"].sum()) / max(n_docs, 1)
    df = (parts[parts["tok"].notna()]
          .groupby("tok", as_index=False)["df"].sum())
    return n_docs, avgdl, df


def bm25_search_corpus(docs_ds, queries: dict[int, list[str]], *, k: int = 10,
                       text_col: str = "text", id_col: str = "doc_id",
                       k1: float = K1, b: float = B) -> pd.DataFrame:
    """Top-k BM25 search of a small query set against the full corpus.

    ``queries`` maps qid -> token list (duplicates collapse: the query is
    a term SET, documented divergence from Lucene's per-occurrence sum —
    the SQL oracle uses SELECT DISTINCT the same way).  Returns pandas
    (qid, doc_id, rank) with rank 1..k per qid ordered by
    (quantized score desc, doc_id asc)."""
    qmap = pd.DataFrame(
        [(int(q), t) for q, toks in queries.items() for t in set(toks)],
        columns=["qid", "tok"])
    n_docs, avgdl, df = corpus_bm25_stats(
        docs_ds, qmap["tok"].tolist(), text_col=text_col)
    df = df.set_index("tok")["df"]
    # idf per query term; terms absent from the corpus score 0 everywhere
    # and are dropped from the probe set entirely.
    qmap = qmap[qmap["tok"].isin(df.index)].copy()
    dfv = df.loc[qmap["tok"]].to_numpy(np.float64)
    qmap["idf"] = np.log(1.0 + (n_docs - dfv + 0.5) / (dfv + 0.5))
    term_info = qmap.groupby("tok").agg(idf=("idf", "first")).reset_index()
    bc = ray.put((term_info, qmap[["qid", "tok"]], float(avgdl)))

    def score(t: pa.Table) -> pa.Table:
        terms, q2t, av = ray.get(bc)
        empty = pa.table({"qid": pa.array([], pa.int64()),
                          "doc_id": pa.array([], pa.int64()),
                          "score_q": pa.array([], pa.int64())})
        if not len(terms):
            return empty
        flat, doc_idx, lengths = _tokenize_batch(t, text_col)
        mask = pc.is_in(flat, value_set=pa.array(terms["tok"])) \
            .to_numpy(zero_copy_only=False)
        if not mask.any():
            return empty
        hit = pd.DataFrame({"tok": flat.to_numpy(zero_copy_only=False)[mask],
                            "di": doc_idx[mask]})
        tf = hit.groupby(["di", "tok"], sort=False).size().reset_index(
            name="tf")
        # merge FIRST, then derive tf/dl from the merged frame: alignment
        # is structural, not reliant on the inner merge preserving left
        # row order / losing no rows (true today only because hits are
        # masked to terms and terms is unique — ADVICE r4)
        tf = tf.merge(terms, on="tok")
        tfv = tf["tf"].to_numpy(np.float64)
        dl = lengths[tf["di"].to_numpy(np.int64)].astype(np.float64)
        tf["contrib"] = (tf["idf"].to_numpy(np.float64) * tfv * (k1 + 1.0)
                         / (tfv + k1 * (1.0 - b + b * dl / av)))
        scored = (tf.merge(q2t, on="tok")
                  .groupby(["qid", "di"], sort=False)["contrib"].sum()
                  .reset_index(name="s"))
        ids = t[id_col].to_numpy(zero_copy_only=False)
        scored["doc_id"] = ids[scored["di"].to_numpy(np.int64)]
        scored["score_q"] = np.floor(
            scored["s"].to_numpy(np.float64) * SCORE_SCALE + 0.5
        ).astype(np.int64)
        top = (scored.sort_values(["qid", "score_q", "doc_id"],
                                  ascending=[True, False, True])
               .groupby("qid", sort=False).head(k))
        return pa.table({
            "qid": pa.array(top["qid"].to_numpy(np.int64)),
            "doc_id": pa.array(top["doc_id"].to_numpy(np.int64)),
            "score_q": pa.array(top["score_q"].to_numpy(np.int64)),
        })

    # top-k of a union == top-k over per-part top-ks, so the driver sees
    # at most n_blocks x Q x k fixed-width rows (Q, k are constants).
    parts = (docs_ds.map_batches(score, batch_format="pyarrow")
             .to_pandas())
    if not len(parts):
        return pd.DataFrame({"qid": pd.Series(dtype=np.int64),
                             "doc_id": pd.Series(dtype=np.int64),
                             "rank": pd.Series(dtype=np.int64)})
    top = (parts.sort_values(["qid", "score_q", "doc_id"],
                             ascending=[True, False, True])
           .groupby("qid", sort=False).head(k).reset_index(drop=True))
    top["rank"] = top.groupby("qid", sort=False).cumcount() + 1
    return top[["qid", "doc_id", "rank"]].astype(np.int64)


def tfidf_keywords(docs_ds, *, k: int = 5, text_col: str = "text",
                   id_col: str = "doc_id",
                   row_cap: int | None = None,
                   n_salts: int | None = None):
    """Per-document top-k TF-IDF keywords — corpus-wide statistics joined
    back to every document (keyword extraction / doc summarization).

    score(d, t) = tf(d,t) * ln(N / df(t)), quantized to int64 basis
    points; top-k per doc by (score desc, token asc).

    Round-5 plan (round-4 verdict: the old shuffle-1 reducer held a
    token's FULL posting to compute df — a Zipf-head token serializes
    one reducer with ~n_docs rows).  df is additive over disjoint doc
    sets, so it now comes from a two-phase SALTED reduce, and the
    posting never has to co-locate:

    * N (total docs) from ``docs_ds.count()`` (parquet metadata);
    * df table: per-batch per-token distinct-doc counts (one partial
      row per token per batch) through the salted mode of
      ``bucket_exchange``: one salt per batch, phase-1 (bucket, salt)
      sums, phase-2 hash(tok) final sums.  A hot token's largest
      phase-1 group holds ~n_batches/n_salts partial rows;
    * the df table is measured (``size_bytes`` after materialize) and
      BYTE-GATED like unigram_ppl's vocabulary: when it passes
      ``partitioning.fits_broadcast`` it broadcasts (``ray.put`` once)
      and scoring is a single stateless pass — ONE shuffle total (the
      per-doc top-k);
    * above the limit: salted replicated hash join — probe (doc, tok,
      tf) rows key on hash(tok) x hash(doc) % n_salts, df build rows
      replicate x n_salts, so a hot token's probe rows split across n_salts
      reducer groups while every probe row still meets its df row;
    * final shuffle on hash(doc): reducers hold complete docs and cut
      the top-k (per-doc output bounded by k).

    This is the general shape for corpus-global-statistic joins whose
    key space is UNBOUNDED (token vocab) — contrast bm25_search, where
    only the small query vocabulary matters and df partials fit the
    bounded-combiner contract."""
    from . import partitioning
    from .partitioning import (bucket_exchange, check_group_cap,
                               co_partition, default_buckets, default_salts)

    nb = default_buckets()
    ns = n_salts or default_salts()

    # count() answers from parquet metadata on a bare read — no text
    # bytes move just to learn N (review finding: the previous dedicated
    # map_batches pass re-read the whole corpus)
    n_docs = int(docs_ds.count())

    # ---- df table: salted two-phase distinct-doc counts per token ----
    def df_partial(t: pa.Table) -> pa.Table:
        flat, di, _len = _tokenize_batch(t, text_col)
        cnt = (pd.DataFrame({"tok": flat.to_numpy(zero_copy_only=False),
                             "di": di})
               .drop_duplicates(["tok", "di"])
               .groupby("tok", sort=False).size())
        return pa.table({"tok": pa.array(cnt.index.to_numpy(object),
                                         pa.string()),
                         "dfp": pa.array(cnt.to_numpy(np.int64))})

    def df_phase1(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("tok", as_index=False)["dfp"].sum().astype(
            {"dfp": np.int64})

    def df_phase2(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("tok", as_index=False)["dfp"].sum()
        return out.rename(columns={"dfp": "df"}).astype({"df": np.int64})

    df_ds = bucket_exchange(docs_ds, ["tok"], df_phase2, prep=df_partial,
                            combine=df_phase1, n_salts=ns, row_cap=row_cap,
                            n_buckets=nb).materialize()

    def tf_rows(t: pa.Table) -> pd.DataFrame:
        flat, di, _len = _tokenize_batch(t, text_col)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        return (pd.DataFrame({"doc_id": ids[di],
                              "tok": flat.to_numpy(zero_copy_only=False)})
                .groupby(["doc_id", "tok"], sort=False)
                .size().reset_index(name="tf"))

    def topk_bucket(g: pd.DataFrame) -> pd.DataFrame:
        top = (g.sort_values(["doc_id", "score_bp", "tok"],
                             ascending=[True, False, True])
               .groupby("doc_id", sort=False).head(k).copy())
        top["rank"] = top.groupby("doc_id", sort=False).cumcount() + 1
        return top[["doc_id", "tok", "score_bp", "rank"]].astype(
            {"rank": np.int64})

    if partitioning.fits_broadcast(df_ds.size_bytes()):
        dfp = df_ds.to_pandas()
        lookup = pd.Series(
            np.log(n_docs / dfp["df"].to_numpy(np.float64)),
            index=dfp["tok"])
        ref = ray.put(lookup)

        def score_map(t: pa.Table) -> pd.DataFrame:
            idf = ray.get(ref)
            tf = tf_rows(t)
            s = tf["tf"].to_numpy(np.float64) * tf["tok"].map(idf).to_numpy(
                np.float64)
            return pd.DataFrame({
                "doc_id": tf["doc_id"].to_numpy(np.int64),
                "tok": tf["tok"].to_numpy(object),
                "score_bp": np.floor(s * SCORE_SCALE + 0.5).astype(np.int64),
            })

        return bucket_exchange(
            docs_ds.map_batches(score_map, batch_format="pyarrow"),
            ["doc_id"], topk_bucket, n_buckets=nb)

    # join plan: probe rows salt on hash(doc) % ns, df rows replicate x ns
    def score_join(prb: pa.Table, bld: pa.Table) -> pd.DataFrame:
        check_group_cap(len(prb) + len(bld), row_cap, "tfidf.score_join")
        prb, bld = prb.to_pandas(), bld.to_pandas()
        idf = pd.Series(np.log(n_docs / bld["df"].to_numpy(np.float64)),
                        index=bld["tok"])
        s = prb["tf"].to_numpy(np.float64) * prb["tok"].map(idf).to_numpy(
            np.float64)
        return pd.DataFrame({
            "doc_id": prb["doc_id"].to_numpy(np.int64),
            "tok": prb["tok"].to_numpy(object),
            "score_bp": np.floor(s * SCORE_SCALE + 0.5).astype(np.int64),
        })

    probe = docs_ds.map_batches(tf_rows, batch_format="pyarrow")
    return bucket_exchange(
        co_partition(probe, df_ds, (["tok"], ["tok"]), score_join,
                     n_buckets=nb, salt=("doc_id", ns)),
        ["doc_id"], topk_bucket, n_buckets=nb)
