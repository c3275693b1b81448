"""Corpus-scale sparse BM25 retrieval (stages/sparse.py): planted-corpus
ranking checks + randomized parity against a straight-line Python BM25."""

import math

import numpy as np
import pyarrow as pa
import ray

from kb_ner_ray.stages.sparse import (bm25_search_corpus, corpus_bm25_stats)


def _docs_ds(texts, n_blocks=3):
    t = pa.table({
        "doc_id": pa.array(list(range(len(texts))), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    return ray.data.from_arrow(t).repartition(n_blocks)


def _brute_bm25(texts, queries, k=10, k1=1.2, b=0.75):
    """Straight-line oracle: whitespace tokens, empty text -> [''],
    query as a term set, quantized (score desc, doc_id asc) ranking."""
    toks = [(t.strip().split() or [""]) for t in texts]
    n = len(toks)
    avgdl = sum(len(ts) for ts in toks) / max(n, 1)
    out = []
    for qid, qtoks in queries.items():
        scored = []
        for d, ts in enumerate(toks):
            s = 0.0
            for term in set(qtoks):
                tf = ts.count(term)
                if not tf:
                    continue
                df = sum(term in set(x) for x in toks)
                idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
                s += idf * tf * (k1 + 1) / (
                    tf + k1 * (1 - b + b * len(ts) / avgdl))
            if s > 0 or any(term in ts for term in set(qtoks)):
                scored.append((d, int(np.floor(s * 10_000 + 0.5))))
        scored.sort(key=lambda x: (-x[1], x[0]))
        out.extend((qid, d, r + 1) for r, (d, _) in enumerate(scored[:k]))
    return sorted(out)


def test_bm25_stats_bounded_partials(ray_session):
    ds = _docs_ds(["a b c", "a a d", "", "b b b b"])
    n, avgdl, df = corpus_bm25_stats(ds, ["a", "b", "zz"])
    assert n == 4
    # dl: 3, 3, 1 (empty -> one '' token), 4 -> avg 11/4
    assert avgdl == 11 / 4
    got = df.set_index("tok")["df"].to_dict()
    assert got == {"a": 2, "b": 2}  # 'zz' absent from the corpus


def test_bm25_search_planted(ray_session):
    """Term 'x' is rarest -> doc containing it most densely wins."""
    texts = ["x y", "x x x y y y", "y y y y", "z z", "x"]
    ds = _docs_ds(texts)
    got = bm25_search_corpus(ds, {7: ["x"]}, k=3)
    # df(x)=3; shortest pure-x doc (doc 4, dl=1) beats doc 1 (tf=3, dl=6)
    # and doc 0 (tf=1, dl=2) under length normalization.
    assert got["qid"].tolist() == [7, 7, 7]
    assert got["doc_id"].tolist()[0] == 4
    assert set(got["doc_id"]) == {0, 1, 4}
    assert got["rank"].tolist() == [1, 2, 3]


def test_bm25_search_randomized_parity(ray_session):
    rng = np.random.default_rng(42)
    vocab = [f"w{i}" for i in range(30)]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(1, 25)))
             for _ in range(60)] + ["", "   "]
    queries = {100: list(rng.choice(vocab, size=4)),
               200: list(rng.choice(vocab, size=2)) + ["missing"],
               300: ["missing", "also_missing"]}
    got = bm25_search_corpus(_docs_ds(texts, n_blocks=5), queries, k=7)
    want = _brute_bm25(texts, queries, k=7)
    assert sorted(map(tuple, got.itertuples(index=False))) == want


def test_bm25_search_empty_corpus_and_no_hits(ray_session):
    got = bm25_search_corpus(_docs_ds(["a b", "c d"]), {1: ["zzz"]}, k=5)
    assert len(got) == 0
    assert list(got.columns) == ["qid", "doc_id", "rank"]


# --- embedding outlier scoring (stages/similarity.py embed_outliers) ------


def _emb_ds(vecs, labels, n_blocks=3):
    import pyarrow as pa
    import ray

    t = pa.table({
        "vec_id": pa.array(list(range(len(vecs))), pa.int64()),
        "embedding": pa.array([[float(x) for x in v] for v in vecs],
                              pa.list_(pa.float32())),
        "label": pa.array(labels, pa.int32()),
    })
    return ray.data.from_arrow(t).repartition(n_blocks)


def test_embed_outliers_planted(ray_session):
    from kb_ner_ray.stages.similarity import embed_outliers

    # label 0: three vectors near +x, one near -x (the planted outlier)
    vecs = [[1, 0], [0.9, 0.1], [1, 0.05], [-1, 0],
            [0, 1], [0.1, 0.9]]               # label 1: coherent
    labels = [0, 0, 0, 0, 1, 1]
    out = (embed_outliers(_emb_ds(vecs, labels)).to_pandas()
           .sort_values("vec_id").reset_index(drop=True))
    assert len(out) == 6
    # the planted outlier has the lowest centroid-cosine of label 0
    lab0 = out[out["label"] == 0]
    assert lab0.loc[lab0["cos_bp"].idxmin(), "vec_id"] == 3
    # coherent label-1 vectors both score high
    assert (out.loc[out["label"] == 1, "cos_bp"] > 9000).all()


def test_embed_outliers_matches_numpy(ray_session):
    import numpy as np

    from kb_ner_ray.stages.similarity import embed_outliers

    rng = np.random.default_rng(11)
    vecs = rng.normal(size=(50, 8)).astype(np.float32)
    labels = (rng.integers(0, 3, size=50)).astype(np.int32)
    out = (embed_outliers(_emb_ds(vecs, labels, n_blocks=5)).to_pandas()
           .sort_values("vec_id").reset_index(drop=True))
    m = vecs.astype(np.float64)
    for lab in np.unique(labels):
        c = m[labels == lab].mean(axis=0)
        cos = (m @ c) / (np.linalg.norm(m, axis=1) * np.linalg.norm(c))
        want = np.floor(cos * 10_000 + 0.5).astype(np.int64)
        got = out.loc[out["label"] == lab, "cos_bp"].to_numpy()
        assert (got == want[labels == lab]).all()


def test_embed_outliers_zero_norm_matches_oracle(ray_session):
    """A zero vector (and a label whose centroid is zero) must score
    cos_bp 0 on BOTH the engine and the SQL oracle (ADVICE r4: the
    engine substituted norm 1.0 while the oracle divided by zero)."""
    import duckdb
    import numpy as np
    import pyarrow.parquet as pq

    from kb_ner_ray.pipelines.queries.embeddings import SQL_EMBED_OUTLIERS
    from kb_ner_ray.stages.similarity import embed_outliers

    # label 0: one zero vector among normal ones; label 1: vectors that
    # cancel to a ZERO centroid
    vecs = [[1.0, 0.0], [0.0, 0.0], [0.5, 0.5],
            [1.0, 1.0], [-1.0, -1.0]]
    labels = [0, 0, 0, 1, 1]
    ds = _emb_ds(vecs, labels)
    got = (embed_outliers(ds).to_pandas()
           .sort_values("vec_id").reset_index(drop=True))
    assert got.loc[got["vec_id"] == 1, "cos_bp"].item() == 0  # zero vec
    assert (got.loc[got["label"] == 1, "cos_bp"] == 0).all()  # zero cent

    import tempfile

    import pyarrow as pa

    with tempfile.TemporaryDirectory() as td:
        pq.write_table(pa.table({
            "vec_id": pa.array(range(5), pa.int64()),
            "embedding": pa.array([[float(x) for x in v] for v in vecs],
                                  pa.list_(pa.float32())),
            "label": pa.array(labels, pa.int32()),
        }), td + "/embeddings.parquet")
        con = duckdb.connect()
        con.sql(f"CREATE VIEW embeddings AS SELECT * FROM "
                f"read_parquet('{td}/embeddings.parquet')")
        want = (con.sql(SQL_EMBED_OUTLIERS).df()
                .sort_values("vec_id").reset_index(drop=True))
    assert (got["cos_bp"].to_numpy()
            == want["cos_bp"].to_numpy()).all()


# --- TF-IDF keyword extraction (stages/sparse.py tfidf_keywords) -----------


def test_tfidf_keywords_planted(ray_session):
    from kb_ner_ray.stages.sparse import tfidf_keywords

    # 'rare' appears only in doc 0 -> top keyword there; 'common' is in
    # every doc -> idf = ln(1) = 0, never ranked above anything positive
    texts = ["rare common common", "common x", "common y"]
    out = (tfidf_keywords(_docs_ds(texts), k=2).to_pandas()
           .sort_values(["doc_id", "rank"]).reset_index(drop=True))
    d0 = out[out["doc_id"] == 0]
    assert d0.iloc[0]["tok"] == "rare" and d0.iloc[0]["rank"] == 1
    assert (out.groupby("doc_id")["rank"].max() <= 2).all()
    # common scores 0 everywhere (ln(3/3) = 0)
    assert (out.loc[out["tok"] == "common", "score_bp"] == 0).all()


def test_tfidf_keywords_matches_brute(ray_session):
    import math

    import numpy as np

    from kb_ner_ray.stages.sparse import tfidf_keywords

    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(15)]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(1, 12)))
             for _ in range(25)] + [""]
    got = (tfidf_keywords(_docs_ds(texts, n_blocks=4), k=3).to_pandas())
    got_rows = sorted(map(tuple, got[["doc_id", "tok", "score_bp",
                                      "rank"]].itertuples(index=False)))

    toks = [(t.strip().split() or [""]) for t in texts]
    n = float(len(toks))
    df: dict[str, int] = {}
    for ts in toks:
        for w in set(ts):
            df[w] = df.get(w, 0) + 1
    want = []
    for d, ts in enumerate(toks):
        scored = sorted(
            ((int(np.floor(ts.count(w) * math.log(n / df[w]) * 10_000
                           + 0.5)), w) for w in set(ts)),
            key=lambda x: (-x[0], x[1]))
        want.extend((d, w, s, r + 1)
                    for r, (s, w) in enumerate(scored[:3]))
    assert got_rows == sorted(want)
