"""Planted hot-token tests for the salted two-phase token-keyed reducers
(round-4 verdict #1): a Zipf-head token that appears in >=50% of docs must
NOT serialize one reducer group.  Each test plants such a token, runs the
salted plan under a reducer-group row cap (``check_group_cap``), verifies
the output is still EXACT, and shows the unsalted plan (n_salts=1) blows
the same cap — i.e. the salt is what bounds the group, not luck.

Reference seat: the ES inverted index these dataflows materialize
(kb/build_kb.py:41-86); the salting itself is the standard Spark/Flink
skew-mitigation pattern (split hot keys by a secondary hash, merge
partials), applied to additive/mergeable aggregates so exactness holds.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

N_DOCS = 2000  # hot token "the" in EVERY doc; w{i} unique per doc
CAP = 1000     # unsalted: hot group >= N_DOCS rows; salted (ns=8): ~N/8


@pytest.fixture(scope="module")
def hot_sf_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("hot_sf")
    langs = ["en", "zh", "de", "fr"]
    t = pa.table({
        "doc_id": pa.array(range(N_DOCS), pa.int64()),
        "text": [f"the w{i}" for i in range(N_DOCS)],
        "lang": pa.array([langs[i % 4] for i in range(N_DOCS)]),
    })
    pq.write_table(t, d / "documents.parquet", row_group_size=256)
    return str(d)


def test_token_postings_salted_hot_token(ray_session, hot_sf_dir):
    from kb_ner_ray.pipelines.queries import q_token_postings

    out = (q_token_postings(hot_sf_dir, row_cap=CAP, n_salts=8)
           .to_pandas().sort_values("tok").reset_index(drop=True))
    assert len(out) == N_DOCS + 1  # "the" + N unique tokens
    hot = out[out["tok"] == "the"].iloc[0]
    assert hot["df"] == N_DOCS
    assert hot["postings"] == ",".join(str(i) for i in range(10))
    uniq = out[out["tok"] != "the"]
    assert (uniq["df"] == 1).all()
    # each unique token's posting is exactly its own doc id
    assert (uniq["postings"] == uniq["tok"].str[1:]).all()

    with pytest.raises(Exception, match="salting failed to spread"):
        q_token_postings(hot_sf_dir, row_cap=CAP, n_salts=1).materialize()


def test_corpus_lang_stats_salted_hot_token(ray_session, hot_sf_dir):
    from kb_ner_ray.pipelines.queries import q_corpus_lang_stats

    out = (q_corpus_lang_stats(hot_sf_dir, row_cap=CAP, n_salts=8)
           .sort_values("lang").reset_index(drop=True))
    per = N_DOCS // 4
    assert (out["n_docs"] == per).all()
    assert (out["n_tokens"] == 2 * per).all()
    # per lang: "the" + the lang's unique tokens; all unique toks hapax
    assert (out["vocab"] == per + 1).all()
    assert (out["hapax"] == per).all()

    # The salt count is a partitioning knob, never a semantics one.  (At
    # this scale the ns=1 phase-1 group is dominated by the bucket's
    # unique-token rows, not the hot token's per-batch partials — the
    # hot-group blowup for PRE-AGGREGATED partials only materializes
    # with many batches.  The per-batch salt bounds it there: a hot
    # token's one partial per (lang, batch) spreads over n_salts
    # groups, ~n_batches/n_salts batches' partials per group.)
    unsalted = (q_corpus_lang_stats(hot_sf_dir, n_salts=1)
                .sort_values("lang").reset_index(drop=True))
    assert out.equals(unsalted)


def test_tfidf_join_plan_salted_hot_token(ray_session, hot_sf_dir,
                                          over_broadcast_limit):
    """Above the broadcast limit tfidf falls back to the salted
    replicated hash join; the hot token's probe rows must split across
    salts, and the join plan must match the broadcast plan exactly."""
    from kb_ner_ray.stages.sparse import tfidf_keywords

    ds = ray.data.read_parquet(f"{hot_sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    a = (tfidf_keywords(ds, k=2)
         .to_pandas().sort_values(["doc_id", "rank"])
         .reset_index(drop=True))
    with over_broadcast_limit():
        b = (tfidf_keywords(ds, k=2, row_cap=CAP, n_salts=8)
             .to_pandas().sort_values(["doc_id", "rank"])
             .reset_index(drop=True))
    assert a.equals(b)
    # per doc: unique token ranks first (idf ln(N/1) > ln(N/N)=0)
    r1 = a[a["rank"] == 1]
    assert (r1["tok"] != "the").all()

    with over_broadcast_limit(), pytest.raises(
            Exception, match="salting failed to spread"):
        tfidf_keywords(ds, k=2, row_cap=CAP, n_salts=1).materialize()


def test_tfidf_over_limit_falls_back_to_join(ray_session, hot_sf_dir,
                                             over_broadcast_limit):
    from kb_ner_ray.stages.sparse import tfidf_keywords

    ds = ray.data.read_parquet(f"{hot_sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    # over the limit the df table silently takes the join plan and stays
    # exact
    with over_broadcast_limit() as asked:
        a = (tfidf_keywords(ds, k=2)
             .to_pandas().sort_values(["doc_id", "rank"])
             .reset_index(drop=True))
    assert asked
    b = (tfidf_keywords(ds, k=2)
         .to_pandas().sort_values(["doc_id", "rank"])
         .reset_index(drop=True))
    assert a.equals(b)


def test_unigram_join_salted_hot_token(ray_session, hot_sf_dir,
                                       over_broadcast_limit):
    """The unigram_ppl join plan's merge groups on hash(tok) x
    (hash(doc) % n_salts): the hot token's per-(doc, tok) probe rows
    spread across salts while every probe row still meets its
    (replicated) count row, so the scores are exact."""
    from kb_ner_ray.stages.textstats import unigram_ppl

    ds = ray.data.read_parquet(f"{hot_sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    a = (unigram_ppl(ds)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    with over_broadcast_limit():
        b = (unigram_ppl(ds, row_cap=CAP, n_salts=8)
             .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert a[["doc_id", "n_tokens", "nll_bp"]].equals(
        b[["doc_id", "n_tokens", "nll_bp"]])

    with over_broadcast_limit(), pytest.raises(
            Exception, match="salting failed to spread"):
        unigram_ppl(ds, row_cap=CAP, n_salts=1).materialize()


def test_salt_spread_uniformity():
    """hash(doc) % n_salts must spread sequential doc ids near-uniformly
    (the salt is only as good as its hash)."""
    from kb_ner_ray.stages.partitioning import bucket_array

    s = bucket_array(np.arange(100_000, dtype=np.int64), 8)
    counts = np.bincount(s, minlength=8)
    assert counts.min() > 0.8 * 100_000 / 8
    assert counts.max() < 1.2 * 100_000 / 8


def test_line_dedup_salted_hot_line(ray_session, hot_sf_dir):
    """A boilerplate line repeated in EVERY doc (the C4 'Home' case) must
    not serialize one line-hash reducer: phase-1 groups stay under the
    cap with n_salts=8, the unsalted plan blows it, and the rewrite is
    still exact (first doc keeps the hot line, all others drop it)."""
    import pyarrow.parquet as pq_

    from kb_ner_ray.stages.dedup import line_dedup

    t = pq_.read_table(hot_sf_dir + "/documents.parquet")
    # rewrite each doc as two lines: the shared boilerplate + its unique
    docs = pa.table({
        "doc_id": t["doc_id"],
        "text": pa.array([f"boiler plate line\nunique w{i}"
                          for i in range(N_DOCS)], pa.string()),
    })
    ds = ray.data.from_arrow(docs).repartition(8)
    out = (line_dedup(ds, row_cap=CAP, n_salts=8)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert len(out) == N_DOCS
    assert out.loc[0, "text"] == "boiler plate line\nunique w0"
    assert (out.loc[1:, "text"]
            == [f"unique w{i}" for i in range(1, N_DOCS)]).all()
    assert out.loc[0, "n_lines_removed"] == 0
    assert (out.loc[1:, "n_lines_removed"] == 1).all()
    assert (out["n_lines"] == 2).all()

    with pytest.raises(Exception, match="salting failed to spread"):
        line_dedup(ds, row_cap=CAP, n_salts=1).materialize()


def test_line_dedup_randomized_brute_force_parity(ray_session):
    """Randomized corpora (dup-heavy line pool, empty/whitespace lines,
    within-doc repeats, empty docs) against a straight-line reference."""
    rng = np.random.default_rng(17)
    pool = [f"line {i}" for i in range(12)] + ["", "   ", "\t"]
    texts = []
    for _ in range(40):
        k = int(rng.integers(0, 6))
        texts.append("\n".join(rng.choice(pool, size=k)) if k else "")

    def brute(texts):
        seen = set()
        out = []
        for did, tx in enumerate(texts):
            kept, n_nz, rem = [], 0, 0
            for ln in tx.split("\n"):
                ln = ln.strip()
                if not ln:
                    continue
                n_nz += 1
                if ln in seen:
                    rem += 1
                else:
                    seen.add(ln)
                    kept.append(ln)
            out.append((did, "\n".join(kept), n_nz, rem))
        return out

    from kb_ner_ray.stages.dedup import line_dedup

    docs = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    got = (line_dedup(ray.data.from_arrow(docs).repartition(5),
                      n_buckets=16, n_salts=4)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    want = brute(texts)
    assert list(map(tuple, got[["doc_id", "text", "n_lines",
                                "n_lines_removed"]]
                    .itertuples(index=False))) == want
