"""Dedup / similarity / textstats / ensemble / multimodal operator tests
with straight-line Python oracles on small inputs."""

import logging

import numpy as np
import pyarrow as pa
import pytest
import ray

from kb_ner_ray.stages.dedup import (
    exact_dedup,
    minhash_lsh_pairs,
    minhash_signature,
    shingles,
    simhash64,
    simhash_near_dups,
)
from kb_ner_ray.stages.ensemble import ensemble_mentions
from kb_ner_ray.stages.multimodal import (
    _decode_image,
    image_feature_pipeline,
    image_features,
    make_fake_images,
)
from kb_ner_ray.stages.similarity import ivf_knn, knn_bruteforce
from kb_ner_ray.stages.textstats import detect_lang, fingerprint


def _docs_ds(texts):
    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))


def test_exact_dedup():
    ds = exact_dedup(_docs_ds(["aaa", "bbb", "aaa", "ccc", "aaa"]))
    df = ds.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert df["doc_id"].tolist() == [0, 1, 3]
    assert df.loc[0, "n_dups"] == 3


def test_minhash_jaccard_estimate():
    a = shingles("the quick brown fox jumps over the lazy dog " * 5)
    b = shingles("the quick brown fox leaps over the lazy dog " * 5)
    true_j = len(a & b) / len(a | b)
    est = float(np.mean(minhash_signature(a) == minhash_signature(b)))
    assert abs(est - true_j) < 0.25  # 64 hashes -> coarse but unbiased


def test_minhash_lsh_finds_planted_dups():
    """Both verification plans (in-band and join) find the planted dups
    and agree exactly — neither broadcasts corpus text."""
    from kb_ner_ray.stages.dedup import minhash_lsh_pairs_inband

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 4
    texts = [base, base + "lambda", "totally different words here entirely",
             base]  # 0,1,3 near-dups
    for fn in (minhash_lsh_pairs_inband, minhash_lsh_pairs):
        df = fn(_docs_ds(texts), threshold=0.6).to_pandas()
        pairs = set(map(tuple,
                        df[["doc_a", "doc_b"]].itertuples(index=False)))
        assert (0, 3) in pairs and (0, 1) in pairs, fn.__name__
        assert not any(2 in p for p in pairs), fn.__name__


def test_minhash_plans_agree(ray_session):
    """In-band and join verification produce identical (pair, jaccard)
    sets on a corpus with graded overlap."""
    from kb_ner_ray.stages.dedup import minhash_lsh_pairs_inband

    words = [f"tok{i}" for i in range(60)]
    texts = [" ".join(words),
             " ".join(words[:55] + ["a", "b", "c", "d", "e"]),
             " ".join(words[:30] + [f"z{i}" for i in range(30)]),
             " ".join(words)]
    a = (minhash_lsh_pairs_inband(_docs_ds(texts), threshold=0.5)
         .to_pandas().sort_values(["doc_a", "doc_b"]).reset_index(drop=True))
    b = (minhash_lsh_pairs(_docs_ds(texts), threshold=0.5)
         .to_pandas().sort_values(["doc_a", "doc_b"]).reset_index(drop=True))
    import pandas as pd

    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_simhash_near_dups():
    base = " ".join(f"w{i}" for i in range(80))
    texts = [base, base + " extra", " ".join(f"x{i}" for i in range(80))]
    assert simhash64(texts[0]) == simhash64(texts[0])  # deterministic
    df = simhash_near_dups(_docs_ds(texts), max_dist=6).to_pandas()
    pairs = set(map(tuple, df[["doc_a", "doc_b"]].itertuples(index=False)))
    assert (0, 1) in pairs and not any(2 in p for p in pairs)


def test_simhash_interleaved_banding_recall_parity():
    """The bit-interleaved banding must find EXACTLY the brute-force
    Hamming<=3 pairs (the disjoint-bit-subset pigeonhole guarantee is
    layout-independent), each pair exactly once."""
    from kb_ner_ray.stages.dedup import _popcount64, simhash64

    rng = np.random.default_rng(5)
    vocab = [f"v{i}" for i in range(300)]
    texts = []
    for i in range(60):
        ws = list(rng.choice(vocab, size=40, replace=False))
        texts.append(" ".join(ws))
        if i % 3 == 0:  # plant near-dups: 1-2 word edits
            ws2 = list(ws)
            ws2[0] = "edited"
            texts.append(" ".join(ws2))
    hs = np.array([simhash64(t) for t in texts], dtype=np.uint64)
    pi, pj = np.triu_indices(len(hs), k=1)
    d = _popcount64(hs[pi] ^ hs[pj])
    want = sorted((int(min(a, b)), int(max(a, b)))
                  for a, b in zip(pi[d <= 3], pj[d <= 3]))
    got = (simhash_near_dups(_docs_ds(texts), max_dist=3)
           .to_pandas())
    got_pairs = sorted(map(tuple, got[["doc_a", "doc_b"]]
                           .itertuples(index=False)))
    assert got_pairs == want and len(got_pairs) == len(set(got_pairs))
    assert len(want) >= 8  # the planting actually produced near-dups


def _emb_ds(mat):
    return ray.data.from_arrow(pa.table({
        "vec_id": pa.array(range(len(mat)), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in mat],
                              pa.list_(pa.float32())),
    }))


def _cosine_pairs(mat, threshold):
    """Brute-force baseline: every pair (a < b) of ``_emb_ds(mat)``'s
    float32 vectors with cosine >= threshold."""
    import pandas as pd

    m = mat.astype(np.float32).astype(np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = m @ m.T
    a, b = np.nonzero(np.triu(sims >= threshold, k=1))
    return pd.DataFrame({"vec_a": a, "vec_b": b, "sim": sims[a, b]})


def test_knn_bruteforce_matches_numpy_oracle():
    rng = np.random.RandomState(3)
    mat = rng.randn(50, 16)
    qids = [0, 1]
    df = knn_bruteforce(_emb_ds(mat), (qids, mat[qids]), k=4)
    norm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = norm[qids] @ norm.T
    for qi, qid in enumerate(qids):
        order = [i for i in np.argsort(-sims[qi]) if i not in qids][:4]
        got = df[df.qid == qid].sort_values("rank")["nid"].tolist()
        assert got == order


def test_ivf_recall_vs_bruteforce():
    rng = np.random.RandomState(5)
    mat = rng.randn(200, 16)
    qids = [0, 1, 2]
    queries = (qids, mat[qids])
    cents = mat[:8] / np.linalg.norm(mat[:8], axis=1, keepdims=True)
    bf = knn_bruteforce(_emb_ds(mat), queries, k=5)
    ivf = ivf_knn(_emb_ds(mat), queries, cents, k=5, nprobe=4)
    recalls = []
    for qid in qids:
        want = set(bf[bf.qid == qid]["nid"])
        got = set(ivf[ivf.qid == qid]["nid"])
        recalls.append(len(want & got) / len(want))
    assert np.mean(recalls) >= 0.5  # nprobe=4 of 8 buckets


def test_near_dup_pairs_symmetric_once():
    from kb_ner_ray.stages.similarity import cosine_pairs_blocked

    mat = np.array([[1.0, 0.0], [1.0, 0.01], [0.0, 1.0]])
    df = cosine_pairs_blocked(_emb_ds(mat), threshold=0.99).to_pandas()
    assert list(map(tuple, df[["vec_a", "vec_b"]].itertuples(index=False))) == [(0, 1)]


def test_near_dup_lsh_matches_broadcast():
    """The one-shuffle hyperplane-LSH plan finds exactly the pairs the
    brute-force baseline finds (planted near-dups + random noise)."""
    from kb_ner_ray.stages.similarity import near_dup_pairs_lsh

    rng = np.random.RandomState(5)
    base = rng.randn(40, 64)
    # plant near-dups: rows 40..49 are tiny perturbations of rows 0..9
    dups = base[:10] + 0.01 * rng.randn(10, 64)
    mat = np.vstack([base, dups])
    want = _cosine_pairs(mat, 0.95)
    got = (near_dup_pairs_lsh(_emb_ds(mat), threshold=0.95).to_pandas()
           .sort_values(["vec_a", "vec_b"]).reset_index(drop=True))
    assert len(want) >= 10
    import pandas as pd

    pd.testing.assert_frame_equal(
        got[["vec_a", "vec_b"]], want[["vec_a", "vec_b"]],
        check_dtype=False)
    assert np.allclose(got["sim"], want["sim"])


def test_fingerprint_normalizes_whitespace_and_case():
    assert fingerprint("A  b\tc") == fingerprint("a b c")
    assert fingerprint("a b c") != fingerprint("a b d")


def test_detect_lang():
    assert detect_lang("the cat is in the house and it is warm") == "en"
    assert detect_lang("der hund ist nicht mit der katze") == "de"
    assert detect_lang("你好世界") == "zh"
    assert detect_lang("zzz qqq") == "und"


def test_ensemble_majority_vote(tiny_corpus):
    import pyarrow.compute as pc

    sents = ray.data.from_arrow(
        pa.table({
            "url": tiny_corpus["sentences"].column("url"),
            "sent_id": tiny_corpus["sentences"].column("sent_id"),
            "text": tiny_corpus["sentences"].column("text"),
        }).filter(pc.equal(tiny_corpus["sentences"].column("lang"), "en"))
    ).limit(200)
    gaz_ref = ray.put(tiny_corpus["gazetteer"].to_pylist())
    out = ensemble_mentions(sents, gaz_ref, n_models=3).to_pandas()
    # every kept span was voted by >= 2 of 3 variants
    assert (out["votes"] >= 2).all()
    # ensembled spans are a subset of the full-gazetteer spans and majority
    # agreement recovers most of them
    from kb_ner_ray.state.gazetteer import Gazetteer

    gaz = Gazetteer(tiny_corpus["gazetteer"].to_pylist())
    text_of = {}
    for r in sents.to_pandas().itertuples():
        text_of[(r.url, r.sent_id)] = r.text
    full = set()
    for (url, sid), text in text_of.items():
        for s, e, lab, _ in gaz.mentions_via_codec(text.split()):
            full.add((url, sid, s, e, lab))
    got = set(map(tuple, out[["url", "sent_id", "start_tok", "end_tok",
                              "label"]].itertuples(index=False)))
    assert got <= full
    assert len(got) >= 0.5 * len(full)


def test_multimodal_decode_gated():
    imgs = make_fake_images(4)
    with pytest.raises(NotImplementedError):
        _decode_image(imgs.column("content")[0].as_py(), allow_fake=False)
    feats = image_features(imgs, allow_fake=True)
    assert feats.num_rows == 4
    assert all(len(h) == 8 for h in feats.column("hist").to_pylist())


def test_multimodal_pipeline():
    ds = ray.data.from_arrow(make_fake_images(16))
    feats = image_feature_pipeline(ds, allow_fake=True).to_pandas()
    assert len(feats) == 16 and {"media_id", "mean_px", "std_px",
                                 "hist"} <= set(feats.columns)


def test_audio_plumbing(ray_session):
    from kb_ner_ray.stages.multimodal import (
        _decode_audio,
        audio_feature_pipeline,
        make_fake_audio,
    )

    t = make_fake_audio(24)
    with pytest.raises(NotImplementedError):
        _decode_audio(t.column("content")[0].as_py())
    df = audio_feature_pipeline(ray.data.from_arrow(t),
                                allow_fake=True).to_pandas()
    assert len(df) == 24
    assert (df["rms"] > 0).all()
    for bands in df["band_energy"]:
        assert len(bands) == 8
        assert abs(sum(bands) - 1.0) < 1e-9


def test_video_frame_sample(ray_session):
    from kb_ner_ray.stages.multimodal import (
        _decode_video,
        make_fake_videos,
        video_frame_pipeline,
    )

    t = make_fake_videos(8)
    with pytest.raises(NotImplementedError):
        _decode_video(t.column("content")[0].as_py())
    df = video_frame_pipeline(ray.data.from_arrow(t), k=4,
                              allow_fake=True).to_pandas()
    # k frames per video (every fake video has >= 8 frames)
    assert len(df) == 8 * 4
    counts = df.groupby("media_id")["frame_idx"].nunique()
    assert (counts == 4).all()
    assert (df.groupby("media_id")["frame_idx"].min() == 0).all()


def test_trained_ivf_beats_firstn_centroids(tmp_path, ray_session):
    """The spherical-k-means quantizer gives recall >= the first-n
    stand-in on clustered data (and is deterministic)."""
    import pyarrow.parquet as pq

    from kb_ner_ray.stages.similarity import ivf_knn, train_ivf_centroids

    rng = np.random.RandomState(11)
    centers = rng.randn(8, 16) * 4
    mat = np.vstack([c + rng.randn(40, 16) for c in centers])
    path = str(tmp_path / "emb.parquet")
    pq.write_table(pa.table({
        "vec_id": pa.array(range(len(mat)), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in mat],
                              pa.list_(pa.float32())),
    }), path)
    mat32 = np.array([list(map(float, np.float32(r))) for r in mat])
    qids = [0, 45, 90]
    queries = (qids, mat32[qids])
    trained = train_ivf_centroids(path, n_centroids=8)
    assert np.allclose(trained, train_ivf_centroids(path, n_centroids=8))
    firstn = mat32[:8] / np.linalg.norm(mat32[:8], axis=1, keepdims=True)
    bf = knn_bruteforce(_emb_ds(mat32), queries, k=5)

    def recall(cents):
        got = ivf_knn(_emb_ds(mat32), queries, cents, k=5, nprobe=2)
        rs = []
        for qid in qids:
            want = set(bf[bf.qid == qid]["nid"])
            rs.append(len(want & set(got[got.qid == qid]["nid"]))
                      / len(want))
        return np.mean(rs)

    r_trained, r_firstn = recall(trained), recall(firstn)
    assert r_trained >= r_firstn
    assert r_trained >= 0.9


def test_repeated_ngrams_finds_planted_passage(ray_session):
    from kb_ner_ray.stages.dedup import _ngram_hashes, repeated_ngrams

    passage = "the quick brown fox jumps over the lazy dog again today"
    uniq = ["completely different sentence number %d with words %s" %
            (i, " ".join(f"u{i}x{j}" for j in range(12))) for i in range(6)]
    texts = [passage + " extra tail one",
             "prefix words here " + passage,
             passage] + uniq
    df = repeated_ngrams(_docs_ds(texts), n=10, min_docs=2).to_pandas()
    planted = set(_ngram_hashes(passage, 10))
    found = set(df["gram"])
    assert planted <= found  # every 10-gram of the passage repeats
    assert (df["n_docs"] >= 2).all()
    # unique docs contribute nothing
    for u in uniq:
        assert not (set(_ngram_hashes(u, 10)) & found)
    row = df[df["gram"] == _ngram_hashes(passage, 10)[0]].iloc[0]
    assert row["n_docs"] == 3 and row["n_occurrences"] == 3

def test_remove_repeated_passages_apply(ray_session):
    """ExactSubstr APPLY semantics: a shared 12-word passage survives
    only in the earliest doc; other docs lose exactly the passage words;
    docs without repeated n-grams pass through byte-identical."""
    from kb_ner_ray.stages.dedup import remove_repeated_passages

    passage = ("alpha beta gamma delta epsilon zeta eta theta iota "
               "kappa lambda mu")  # 12 words
    uniq = [f"unique doc {i} " + " ".join(f"w{i}q{j}" for j in range(15))
            for i in range(3)]
    texts = [
        "start0 start1 start2 " + passage + " end0 end1",     # keeper
        "other lead words here " + passage + " trailing bits",
        passage,
    ] + uniq
    out = (remove_repeated_passages(_docs_ds(texts), n=5, min_docs=2)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert len(out) == len(texts)
    assert list(out["n_words"]) == [len(t.split()) for t in texts]
    # keeper (min doc_id) untouched
    assert out.loc[0, "text"] == texts[0]
    assert out.loc[0, "n_words_removed"] == 0
    # later docs lose exactly the 12 passage words
    for i in (1, 2):
        assert out.loc[i, "n_words_removed"] == 12
        assert "gamma" not in out.loc[i, "text"]
    assert out.loc[1, "text"] == "other lead words here trailing bits"
    assert out.loc[2, "text"] == ""
    # unique docs byte-identical
    for i in range(3, 6):
        assert out.loc[i, "text"] == texts[i]
        assert out.loc[i, "n_words_removed"] == 0


def test_remove_repeated_passages_matches_bruteforce(ray_session):
    """Randomized corpus (small vocab => plenty of accidental repeats):
    the distributed rewrite must equal a straight-line reference that
    elects per-gram keepers globally and cuts interval unions."""
    import numpy as np

    from kb_ner_ray.stages.dedup import (_ngram_hashes,
                                         remove_repeated_passages)

    rng = np.random.RandomState(17)
    vocab = [f"w{i}" for i in range(12)]
    texts = [" ".join(rng.choice(vocab, size=rng.randint(0, 30)))
             for _ in range(40)]
    n, min_docs = 4, 2

    # brute-force reference
    occ: dict[int, list[tuple[int, int]]] = {}
    for d, text in enumerate(texts):
        for p, g in enumerate(_ngram_hashes(text, n)):
            occ.setdefault(g, []).append((d, p))
    cuts: dict[int, list[int]] = {}
    for g, lst in occ.items():
        if len({d for d, _ in lst}) < min_docs:
            continue
        for d, p in sorted(lst)[1:]:
            cuts.setdefault(d, []).append(p)
    want = []
    for d, text in enumerate(texts):
        words = text.split()
        covered = np.zeros(len(words), bool)
        for p in cuts.get(d, []):
            covered[p:p + n] = True
        want.append((d, " ".join(w for w, c in zip(words, covered)
                                 if not c),
                     len(words), int(covered.sum())))

    got = (remove_repeated_passages(_docs_ds(texts), n=n,
                                    min_docs=min_docs)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert [tuple(r) for r in got[["doc_id", "text", "n_words",
                                   "n_words_removed"]]
            .itertuples(index=False)] == want


def _pairs_set(df):
    return set(map(tuple, df[["doc_a", "doc_b"]].itertuples(index=False)))


def _with_overflow(fanout, caplog, overflow, run):
    """(``run()`` as pandas, whether its banded plan redistributed a hot
    bucket) with the overflow threshold served as ``overflow``; the plan
    logs the redistribution on the driver."""
    caplog.clear()
    with fanout(overflow=overflow) as served, caplog.at_level(
            logging.INFO, logger="kb_ner_ray.stages.dedup"):
        out = run().to_pandas()
    assert served["overflow"] == [overflow]
    return out, any("redistributed over triangle cells" in r.getMessage()
                    for r in caplog.records)


def test_hot_bucket_overflow_no_pair_loss(ray_session, fanout, caplog):
    """Round-2 verdict/advice: hot LSH buckets must triangle-redistribute,
    not truncate.  A planted 60-identical-doc bucket forced through an
    overflow threshold of 10 (S=6 triangle cells) yields EXACTLY the same
    pairs as the no-overflow run — all C(60,2), each emitted once."""
    from kb_ner_ray.stages.dedup import minhash_lsh_pairs_inband

    n_dup = 60
    texts = (["same words repeated for every planted duplicate doc " * 3]
             * n_dup
             + [f"unique filler document number {i} with words {i * 7}"
                for i in range(20)])
    def run():
        return minhash_lsh_pairs_inband(_docs_ds(texts), threshold=0.9)

    small, redistributed = _with_overflow(fanout, caplog, 10, run)
    assert redistributed
    big, redistributed = _with_overflow(fanout, caplog, 1000, run)
    assert not redistributed
    want = {(i, j) for i in range(n_dup) for j in range(i + 1, n_dup)}
    assert _pairs_set(big) >= want
    assert _pairs_set(small) == _pairs_set(big)
    # each pair exactly once (first-colliding-band emission survives
    # redistribution)
    assert len(small) == len(small.drop_duplicates(["doc_a", "doc_b"]))


def test_simhash_overflow_no_pair_loss(ray_session, fanout, caplog):
    texts = (["identical body for the simhash hot bucket test " * 4] * 40
             + [f"distinct text {i} " + " ".join(f"q{i}{k}" for k in range(30))
                for i in range(10)])

    def run():
        return simhash_near_dups(_docs_ds(texts), max_dist=3)

    small, redistributed = _with_overflow(fanout, caplog, 8, run)
    assert redistributed
    big, redistributed = _with_overflow(fanout, caplog, 1000, run)
    assert not redistributed
    want = {(i, j) for i in range(40) for j in range(i + 1, 40)}
    assert _pairs_set(big) >= want
    assert _pairs_set(small) == _pairs_set(big)
    assert len(small) == len(small.drop_duplicates(["doc_a", "doc_b"]))


def test_simhash_overflow_blocks_have_hashable_schemas(ray_session, fanout):
    """The overflow plan's output blocks are Arrow tables without pandas
    metadata: that dict makes a schema unhashable, and Ray Data then logs
    "Failed to hash the schemas" for every block."""
    texts = (["identical body for the simhash hot bucket test " * 4] * 40
             + [f"distinct text {i} " + " ".join(f"q{i}{k}" for k in range(30))
                for i in range(10)])
    with fanout(overflow=8) as served:
        ds = simhash_near_dups(_docs_ds(texts), max_dist=3).materialize()
    assert served["overflow"] == [8]
    blocks = [ray.get(ref) for ref in ds.to_arrow_refs()]
    assert sum(b.num_rows for b in blocks) == ds.count() > 0
    for b in blocks:
        assert isinstance(b, pa.Table)
        assert b.schema.metadata is None
        hash(b.schema)


def test_lsh_embed_overflow_no_pair_loss(ray_session, fanout, caplog):
    from kb_ner_ray.stages.similarity import near_dup_pairs_lsh

    rng = np.random.RandomState(7)
    dup = rng.randn(64)
    mat = np.vstack([np.tile(dup, (30, 1)) + 0.001 * rng.randn(30, 64),
                     rng.randn(20, 64)])
    def run():
        return near_dup_pairs_lsh(_emb_ds(mat), threshold=0.95)

    small, redistributed = _with_overflow(fanout, caplog, 6, run)
    assert redistributed
    big, redistributed = _with_overflow(fanout, caplog, 1000, run)
    assert not redistributed

    def vpairs(df):
        return set(map(tuple, df[["vec_a", "vec_b"]].itertuples(index=False)))

    want = {(i, j) for i in range(30) for j in range(i + 1, 30)}
    assert vpairs(big) >= want
    assert vpairs(small) == vpairs(big)
    assert len(small) == len(small.drop_duplicates(["vec_a", "vec_b"]))


def test_cosine_pairs_blocked_matches_broadcast_exactly(ray_session, fanout):
    """The triangle-blocked exact plan == the brute-force baseline at a LOW
    threshold (0.45) where LSH banding loses ~2-4% of pairs — this plan
    is what sits behind the exact SQL oracle."""
    import pandas as pd

    from kb_ner_ray.stages.similarity import cosine_pairs_blocked

    rng = np.random.RandomState(11)
    mat = rng.randn(80, 32)
    want = _cosine_pairs(mat, 0.45)
    for buckets in (2, 12):  # triangle_split() S = 2, 5
        with fanout(buckets=buckets) as served:
            got = (cosine_pairs_blocked(_emb_ds(mat), threshold=0.45)
                   .to_pandas()
                   .sort_values(["vec_a", "vec_b"]).reset_index(drop=True))
        assert served["buckets"] == [buckets]
        assert len(want) > 5  # non-trivial pair count at 0.45
        pd.testing.assert_frame_equal(
            got[["vec_a", "vec_b"]], want[["vec_a", "vec_b"]],
            check_dtype=False)
        assert np.allclose(got["sim"], want["sim"])


def test_decontaminate_planted_overlap(ray_session, over_broadcast_limit):
    """A train doc containing a benchmark 8-gram is flagged; clean docs
    are not; the benchmark-too-big guard raises instead of broadcasting."""
    import pytest as _pytest

    from kb_ner_ray.stages.dedup import decontaminate

    bench_passage = " ".join(f"b{i}" for i in range(8))
    docs = _docs_ds(["clean words " + " ".join(f"c{i}" for i in range(10)),
                     "prefix " + bench_passage + " suffix",
                     "short"])
    bench = _docs_ds(["some eval question " + bench_passage])
    out = (decontaminate(docs, bench, n=8).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert list(out["contaminated"]) == [0, 1, 0]
    assert out.loc[1, "n_overlap"] == 1
    with over_broadcast_limit(), _pytest.raises(ValueError, match="SMALL"):
        decontaminate(docs, bench, n=8)
