"""Pins for the second operator batch: charset Jaccard dedup, distant
supervision, semi/anti broadcast joins, window top-N."""

import numpy as np
import pyarrow as pa
import pytest
import ray

from kb_ner_ray.stages.dedup import charset_jaccard, ngram_jaccard_pairs
from kb_ner_ray.stages.tagger import kernel_rows


def test_charset_jaccard_matches_duckdb():
    import duckdb

    con = duckdb.connect()
    # (duckdb's jaccard() raises on empty strings; our kernel returns 1.0
    # for two empties — only non-empty inputs are oracle-checked)
    cases = [("hello world", "hello word"), ("abc", "cba"),
             ("aab", "ab"), ("xyz", "abc")]
    for a, b in cases:
        want = con.sql("SELECT jaccard(?, ?)", params=[a, b]).fetchone()[0]
        assert abs(charset_jaccard(set(a), set(b)) - want) < 1e-12, (a, b)


def test_ngram_jaccard_pairs_blocked(ray_session):
    docs = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        # 1 and 2: same token count, same char set -> jaccard 1.0
        # 3: same count, disjoint chars; 4: different token count
        "text": ["abc def", "fed cba", "xyz qqq", "one two three"],
    })
    ds = ray.data.from_arrow(docs)
    df = ngram_jaccard_pairs(ds, threshold=0.9).to_pandas()
    pairs = set(zip(df["doc_a"], df["doc_b"]))
    assert (1, 2) in pairs
    assert all(a < b for a, b in pairs)
    assert not any(3 in p or 4 in p for p in pairs)


def test_distant_supervision_projects_surfaces(tiny_corpus):
    """Every emitted weak label must be an exact token-span match of a
    detected sentence surface inside the named KB sentence (M18)."""
    kb = tiny_corpus["kb"].to_pylist()
    gaz = tiny_corpus["gazetteer"].to_pylist()
    batch = pa.table({
        "url": pa.array(["u1"], pa.string()),
        "sent_id": pa.array([0], pa.int32()),
        "text": [kb[0]["sentence"]],  # KB sentence retrieves itself
    })
    out = kernel_rows(batch, kb_ref=kb, gaz_ref=gaz, mode="distant")
    assert out.num_rows > 0
    kb_by_id = {r["kb_id"]: r for r in kb}
    for row in out.to_pylist():
        ctx_tokens = kb_by_id[row["kb_id"]]["sentence"].split()
        span = " ".join(ctx_tokens[row["ctx_start"]:row["ctx_end"]])
        assert span == row["surface"]


def test_topn_partial_merge_is_exact():
    """top-N of per-block top-Ns == global top-N (the q_events_topn basis)."""
    rng = np.random.RandomState(0)
    vals = rng.rand(1000)
    ids = np.arange(1000)
    order = np.lexsort((ids, -vals))
    want = set(ids[order][:3])
    blocks = np.array_split(np.arange(1000), 7)
    cand_ids, cand_vals = [], []
    for blk in blocks:
        o = np.lexsort((ids[blk], -vals[blk]))[:3]
        cand_ids.extend(ids[blk][o])
        cand_vals.extend(vals[blk][o])
    cand_ids, cand_vals = np.array(cand_ids), np.array(cand_vals)
    o = np.lexsort((cand_ids, -cand_vals))[:3]
    assert set(cand_ids[o]) == want


def test_entity_boost_promotes_title_match(tiny_corpus, ray_session):
    """--with_entity semantics: a boosted title clause must rank the named
    entity's KB sentences above a pure-text match (kb/generate_data.py:52-55)."""
    from kb_ner_ray.state.bm25 import KBIndex

    kb = tiny_corpus["kb"].to_pylist()
    idx = KBIndex(kb)
    ent = kb[0]["title"]
    query = kb[0]["sentence"]
    plain = idx.search(query, k=10)
    boosted = idx.search(query, entity=ent, k=10)
    title_rows = {i for i, r in enumerate(kb) if r["title"] == ent}

    def best_rank(hits):
        for rank, (row_i, _s) in enumerate(hits):
            if row_i in title_rows:
                return rank
        return len(hits)

    assert best_rank(boosted) <= best_rank(plain)
    # boosted scores for the entity's rows strictly increase
    plain_scores = dict(plain)
    for row_i, score in boosted:
        if row_i in title_rows and row_i in plain_scores:
            assert score > plain_scores[row_i]


def test_retriever_entity_stage(tiny_corpus):
    from kb_ner_ray.stages.tagger import SentenceKernel

    kb = tiny_corpus["kb"].to_pylist()
    kernel = SentenceKernel(tiny_corpus["gazetteer"].to_pylist(), kb)
    text = next(s for s in tiny_corpus["sentences"].column("text").to_pylist()
                if kernel.gaz.mentions_via_codec(s.split()))
    batch = pa.table({
        "url": pa.array(["u"], pa.string()),
        "sent_id": pa.array([0], pa.int32()),
        "text": [text],
    })
    out = kernel.emit(batch, "entity_contexts")
    assert out.num_rows > 0
    tokens = text.split()
    detected = [" ".join(tokens[s:e])
                for s, e, _l, _sc in kernel.gaz.mentions_via_codec(tokens)]
    ents = out.column("entity").to_pylist()
    assert set(ents) <= set(detected)
    ranks = out.column("rank").to_pylist()
    kb_ids = out.column("kb_id").to_pylist()
    for ent in set(ents):
        # one title-boosted BM25 top-k per detected entity, rank-ordered
        want = kernel.index.search(text, entity=ent, k=10, title_boost=2.0)
        mine = [(r, k) for e, r, k in zip(ents, ranks, kb_ids) if e == ent]
        assert mine == [(r, kb[i]["kb_id"]) for r, (i, _s) in enumerate(want)]


def test_span_prf_distributed_matches_pure(tiny_corpus, ray_session):
    """Distributed partial-count metric == pure span_prf on the same data."""
    import ray as _ray

    from kb_ner_ray.data.oracle import run_oracle
    from kb_ner_ray.functions.spans import span_prf
    from kb_ner_ray.stages.metrics import span_prf_distributed

    out = run_oracle(tiny_corpus["pages"], tiny_corpus["kb"],
                     tiny_corpus["gazetteer"])
    gold = out["mentions"].to_pylist()
    # predictions = gold with the first 5 rows dropped and 3 rows forged
    pred_rows = gold[5:] + [dict(gold[0], start_tok=97, end_tok=99)
                            for _ in range(3)]
    pred_t = pa.Table.from_pylist(pred_rows)
    df = span_prf_distributed(_ray.data.from_arrow(pred_t), gold)
    micro = df[df.label == "__micro__"].iloc[0]

    key = lambda r: (r["url"], r["sent_id"], r["start_tok"], r["end_tok"],
                     r["label"])
    p, r, f1, tp, fp, fn = span_prf([key(g) for g in gold],
                                    [key(x) for x in pred_rows])
    assert (micro.tp, micro.fp, micro.fn) == (tp, fp, fn)
    assert abs(micro.precision - p) < 1e-12
    assert abs(micro.recall - r) < 1e-12


def test_dedup_contexts_a6(tiny_corpus, ray_session):
    import ray as _ray

    from kb_ner_ray.stages.retriever import dedup_contexts

    t = pa.table({
        "url": ["u"] * 4 + ["u"] * 2,
        "sent_id": pa.array([0, 0, 0, 0, 1, 1], pa.int32()),
        "rank": pa.array([0, 1, 2, 3, 0, 1], pa.int32()),
        "kb_id": pa.array([10, 11, 12, 13, 10, 11], pa.int64()),
        "score": pa.array([9.0, 8.0, 7.0, 6.0, 5.0, 4.0], pa.float32()),
        "kb_sentence": ["a", "b", "a", "c", "x", "x"],
        "kb_title": ["A", "B", "A", "C", "X", "X"],
    })
    df = dedup_contexts(_ray.data.from_arrow(t)).to_pandas()
    s0 = df[df.sent_id == 0].sort_values("rank")
    assert s0["kb_sentence"].tolist() == ["a", "b", "c"]  # dup 'a' dropped
    assert s0["rank"].tolist() == [0, 1, 2]               # re-ranked dense
    assert s0["few_results"].all()                        # 3 < 6
    s1 = df[df.sent_id == 1]
    assert s1["kb_sentence"].tolist() == ["x"]


def test_hash_join_matches_pandas(ray_session):
    import pandas as pd
    import ray as _ray

    from kb_ner_ray.stages.joins import hash_join

    left = pa.table({"k": pa.array([1, 2, 2, 3, 5], pa.int64()),
                     "lv": ["a", "b", "c", "d", "e"]})
    # int64 above 2^53: exact only if no side is floated on the way
    right = pa.table({"k": pa.array([2, 3, 3, 4], pa.int64()),
                      "rv": pa.array([20, 30, 31, 40], pa.int64()),
                      "big": pa.array([2**53 + 1, 2**53 + 3, 2**53 + 1, 7],
                                      pa.int64())})
    got = hash_join(_ray.data.from_arrow(left), _ray.data.from_arrow(right),
                    on="k").to_pandas()
    want = left.to_pandas().merge(right.to_pandas(), on="k", how="inner")
    key = ["k", "lv", "rv", "big"]
    got = got[key].sort_values(key).reset_index(drop=True)
    want = want[key].sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)


def test_hash_join_fanout_extremes_and_chunked_merge(ray_session,
                                                     monkeypatch, fanout):
    """Round-2 verdict done-criterion: the bucketed join stays exact with
    the fan-out forced tiny (8 — giant buckets, exercises the chunked
    probe-side merge) and huge (4096 — mostly-empty buckets), now that
    default_buckets has no hi=1024 clamp."""
    import pandas as pd
    import ray as _ray

    from kb_ner_ray.stages import joins

    rng = np.random.RandomState(3)
    left = pa.table({"k": pa.array(rng.randint(0, 40, 3000), pa.int64()),
                     "lv": pa.array(rng.randint(0, 99, 3000), pa.int64())})
    right = pa.table({"k": pa.array(rng.randint(0, 50, 400), pa.int64()),
                      "rv": pa.array(rng.randint(0, 99, 400), pa.int64())})
    want = (left.to_pandas().merge(right.to_pandas(), on="k", how="inner")
            .sort_values(["k", "lv", "rv"]).reset_index(drop=True))
    monkeypatch.setattr(joins, "MERGE_CHUNK_ROWS", 100)  # force chunk path
    for nb in (8, 4096):
        with fanout(buckets=nb) as served:
            got = (joins.hash_join(_ray.data.from_arrow(left),
                                   _ray.data.from_arrow(right),
                                   on="k").to_pandas()
                   [["k", "lv", "rv"]]
                   .sort_values(["k", "lv", "rv"]).reset_index(drop=True))
        assert served["buckets"] == [nb]
        pd.testing.assert_frame_equal(got, want)


def test_default_buckets_scales_past_old_clamp():
    from kb_ner_ray.stages.partitioning import default_buckets

    # the fan-out must keep growing with the cluster (no 1024 ceiling),
    # as computed from CPUs: simulate by the pure arithmetic contract
    assert default_buckets(per_cpu=2) >= 16
    assert default_buckets(per_cpu=1024, lo=16) > 1024    # no implicit cap


def test_hash_join_rejects_column_collision(ray_session):
    import ray as _ray

    import pytest as _pytest

    from kb_ner_ray.stages.joins import hash_join

    t = pa.table({"k": pa.array([1], pa.int64()), "v": ["x"]})
    with _pytest.raises(ValueError, match="collision"):
        hash_join(_ray.data.from_arrow(t), _ray.data.from_arrow(t), on="k")


def test_salted_grouped_sum_hot_key(ray_session, fanout):
    """Salted two-phase sum == plain sum, with one key owning 50% of rows."""
    import numpy as np
    import ray as _ray

    rng = np.random.RandomState(11)
    n = 20_000
    keys = np.where(rng.rand(n) < 0.5, "hot.example.com",
                    np.char.add("site", rng.randint(0, 50, n).astype(str)))
    vals = rng.randint(0, 100, n)
    t = pa.table({"domain": pa.array(keys.tolist(), pa.string()),
                  "v": pa.array(vals.tolist(), pa.int64())})
    from kb_ner_ray.stages.skew import salted_grouped_sum

    with fanout(salts=8) as served:
        got = (salted_grouped_sum(_ray.data.from_arrow(t), "domain", "v")
               .to_pandas().sort_values("domain").reset_index(drop=True))
    assert served["salts"] == [8]
    import pandas as pd

    want = (t.to_pandas().groupby("domain", as_index=False)
            .agg(sum=("v", "sum"), n_rows=("v", "size"))
            .sort_values("domain").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_asof_join_matches_merge_asof(ray_session, fanout):
    """Bucketed as-of join == global pandas merge_asof, including by-keys
    with no right-side rows (nulls) and duplicate right timestamps."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray as _ray

    from kb_ner_ray.stages.joins import asof_join

    rng = np.random.RandomState(3)
    left = pd.DataFrame({
        "eid": np.arange(200),
        "uid": rng.randint(0, 12, 200),
        "ts": pd.to_datetime("2024-01-01")
        + pd.to_timedelta(rng.randint(0, 10_000, 200), unit="m"),
    })
    right = pd.DataFrame({
        "ouid": rng.randint(0, 10, 80),  # uids 10,11 have NO right rows
        "odate": pd.to_datetime("2024-01-01")
        + pd.to_timedelta(rng.randint(0, 10_000, 80), unit="m"),
    })
    # int64 above 2^53 on both sides, a function of the row's key so the
    # expected value is known whichever duplicate-ts right row wins
    left["lbig"] = 2**53 + 1 + 2 * (left["eid"] % 2)
    right["rbig"] = 2**53 + 1 + 2 * (right["ouid"] % 2)
    with fanout(buckets=4) as served:
        out = asof_join(
            _ray.data.from_arrow(pa.Table.from_pandas(left)),
            _ray.data.from_arrow(pa.Table.from_pandas(right)),
            left_ts="ts", right_ts="odate", left_by="uid", right_by="ouid",
        ).materialize()
    assert served["buckets"] == [4]
    rows = out.take_all()  # Arrow values: rbig holds nulls
    assert all(r["lbig"] == 2**53 + 1 + 2 * (r["eid"] % 2) for r in rows)
    matched = [r for r in rows if r["odate"] is not None]
    assert matched and all(r["rbig"] == 2**53 + 1 + 2 * (r["uid"] % 2)
                           for r in matched)
    got = out.to_pandas().sort_values("eid").reset_index(drop=True)
    want = pd.merge_asof(
        left.sort_values("ts"), right.sort_values("odate"),
        left_on="ts", right_on="odate", left_by="uid", right_by="ouid",
        direction="backward",
    ).sort_values("eid").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["eid", "uid", "ts", "odate"]],
        want[["eid", "uid", "ts", "odate"]], check_dtype=False)


def test_semi_and_anti_join(ray_session, fanout):
    import pandas as pd
    import pyarrow as pa
    import ray as _ray

    from kb_ner_ray.stages.joins import semi_join

    big = [2**53 + 1, 2**53 + 3, 2**53 + 1, 2**53 + 3, 5]
    left = pa.table({"k": [1, 2, 3, 4, 5], "v": list("abcde"),
                     "big": pa.array(big, pa.int64())})
    right = pa.table({"rk": [2, 4, 4, 9]})
    l_ds = _ray.data.from_arrow(left)
    r_ds = _ray.data.from_arrow(right)
    with fanout(buckets=3) as served:
        semi = (semi_join(l_ds, r_ds, on="k", right_on="rk")
                .to_pandas().sort_values("k"))
        anti = (semi_join(l_ds, r_ds, on="k", right_on="rk",
                          anti=True).to_pandas().sort_values("k"))
    assert served["buckets"] == [3, 3]
    assert semi["k"].tolist() == [2, 4]
    assert semi["v"].tolist() == ["b", "d"]
    assert semi["big"].tolist() == [big[1], big[3]]
    assert anti["k"].tolist() == [1, 3, 5]
    assert anti["big"].tolist() == [big[0], big[2], big[4]]


def test_bucket_array_deterministic_and_balanced():
    import numpy as np

    from kb_ner_ray.stages.partitioning import bucket_array

    ints = np.arange(10_000)
    b1 = bucket_array(ints, 32)
    b2 = bucket_array(ints, 32)
    assert (b1 == b2).all()
    counts = np.bincount(b1, minlength=32)
    assert counts.min() > 150  # roughly balanced
    strs = np.array([f"url-{i}" for i in range(1000)], dtype=object)
    bs = bucket_array(strs, 8)
    assert bs.min() >= 0 and bs.max() < 8


def test_plan_auto_selection_forced_bucketed(ray_session,
                                            over_broadcast_limit):
    """Force every size-gated plan onto its co-partitioned path (the
    broadcast predicate answers False) and assert identical results to
    the broadcast path — the guard that the auto-selection switch is
    safe to flip at scale.  Each query must have asked the predicate,
    so the forced run provably took the other plan."""
    import pandas as pd

    from kb_ner_ray.pipelines import queries as Q

    sf = "/root/testdata/sf0.001"
    names = ["events_asof_orders", "customers_with_orders",
             "customers_no_urgent_orders", "orders_lineitem_join",
             "revenue_by_nation", "minhash_dedup",
             "local_supplier_revenue"]
    reg = Q.queries_registry()

    def run(n):
        r = reg[n](sf)
        df = r.to_pandas() if hasattr(r, "to_pandas") else r
        return (df[sorted(df.columns)]
                .sort_values(sorted(df.columns))
                .reset_index(drop=True))

    for n in names:
        normal = run(n)
        with over_broadcast_limit() as asked:
            forced = run(n)
        assert asked, f"{n} never consulted fits_broadcast"
        pd.testing.assert_frame_equal(forced, normal, check_dtype=False)


def test_bloom_filter_laws():
    import numpy as np

    from kb_ner_ray.stages.partitioning import BloomFilter

    bf = BloomFilter(n_bits=1 << 16)
    present = np.arange(0, 2000)
    bf.add_many(present)
    # no false negatives
    assert bf.contains_many(present).all()
    absent = np.arange(10_000, 30_000)
    fp = bf.contains_many(absent).mean()
    assert fp < 0.05  # 2000 keys / 64k bits, k=4 -> tiny FP rate
    # merge == union
    a, b = BloomFilter(1 << 16), BloomFilter(1 << 16)
    a.add_many(np.arange(100))
    b.add_many(np.arange(100, 200))
    m = a.merge(b)
    assert m.contains_many(np.arange(200)).all()
    # strings too
    s = BloomFilter(1 << 16)
    s.add_many(np.array(["x", "y"], dtype=object))
    assert s.contains_many(np.array(["x", "y"], dtype=object)).all()


# the flagship chain and the queries chosen for the driver's window
FLAGSHIP = {"kg_triples", "kg_mentions", "kg_mentions_viterbi",
            "kg_mentions_iter2", "kg_ensemble", "kg_extract_docs",
            "kg_sentences", "kg_contexts", "corpus_prep", "doc_splits"}
WINDOW = FLAGSHIP | {
    "kg_augment_conll", "token_postings", "corpus_lang_stats",
    "doc_line_dedup", "doc_pii_redact", "semdedup", "dsir_weights",
    "events_funnel", "snapshot_delta", "dup_graph_triangles",
    "quality_classifier", "doc_keywords", "doc_passage_dedup",
    "kg_entity_pagerank", "corpus_shuffle", "doc_pmi",
    "doc_contamination_frac", "events_winsorized_stats", "corpus_export",
    "source_reputation_filter", "pricing_correlation",
    "temperature_sample", "doc_token_entropy", "bm25_search",
    "pack_sequences", "pricing_cube", "doc_bigram_ppl",
    "ngram_jaccard_components", "events_burst_dedup",
    "embed_near_dup_lsh", "ivf_knn", "approx_distinct_users",
    "heavy_hitters_events", "approx_quantiles_value", "doc_langid",
    "doc_repeated_ngrams", "kg_contexts_entity", "kg_contexts_reranked",
    "kg_distant_supervision", "kg_ensemble_multirun"}


def test_registry_window_carries_full_signal():
    """The correctness driver checks only the FIRST 50 registry rows, so
    the flagship kg_* chain and the window's chosen queries sit there.
    The rows are a tuple, so a repeated name would silently shadow its
    twin in the derived dicts: no name appears twice."""
    from kb_ner_ray.pipelines.queries import (ROWS, oracle_registry,
                                              queries_registry)

    names = [name for name, _fn, _sql in ROWS]
    assert len(names) == len(set(names)), sorted(
        n for n in set(names) if names.count(n) > 1)
    assert len(queries_registry()) == 123
    assert len(oracle_registry()) == 92
    assert FLAGSHIP <= set(names[:50]), FLAGSHIP - set(names[:50])
    assert set(names[:50]) == WINDOW, set(names[:50]) ^ WINDOW


def test_unigram_ppl_join_plan_matches_broadcast(ray_session,
                                                 over_broadcast_limit):
    """The bucketed-join fallback (vocab over the broadcast limit) must
    produce the same (doc_id, n_tokens, nll_bp) as the gated broadcast
    plan — plan choice is a memory decision, never a semantics one."""
    from kb_ner_ray.stages.textstats import unigram_ppl

    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(40)]
    texts = [" ".join(rng.choice(vocab, size=int(rng.integers(5, 30))))
             for _ in range(50)]
    # plant singletons so min_count pruning + the OOV floor are exercised
    texts[0] += " zzunique1"
    texts[1] += " zzunique2 zzunique2x"
    docs = pa.table({"doc_id": pa.array(range(50), pa.int64()),
                     "text": texts})
    a = (unigram_ppl(ray.data.from_arrow(docs))
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    with over_broadcast_limit():
        b = (unigram_ppl(ray.data.from_arrow(docs))
             .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert a[["doc_id", "n_tokens", "nll_bp"]].equals(
        b[["doc_id", "n_tokens", "nll_bp"]])
    # pruned singletons exist -> docs holding them score the OOV floor,
    # which differs from an unpruned model
    c = (unigram_ppl(ray.data.from_arrow(docs), min_count=1)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert not a["nll_bp"].equals(c["nll_bp"])


def test_unigram_ppl_over_limit_falls_back_to_join(ray_session,
                                                   over_broadcast_limit):
    """A vocabulary over the broadcast limit must fall back to the join
    plan, with the broadcast plan's scores."""
    from kb_ner_ray.stages.textstats import unigram_ppl

    docs = pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": ["a a b b c c", "b b c c d d"],
    })
    ds = ray.data.from_arrow(docs)
    with over_broadcast_limit() as asked:
        out = (unigram_ppl(ds)
               .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert asked
    want = (unigram_ppl(ds)
            .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert out[["doc_id", "n_tokens", "nll_bp"]].equals(
        want[["doc_id", "n_tokens", "nll_bp"]])


def test_banding_candidate_stats_planted(ray_session):
    """Per-band candidate volumes on a hand-checkable banding: band 0 has
    buckets {k1: 3 docs, k2: 2 docs} -> C(3,2)+C(2,2) = 4 pairs; band 1
    has one 4-doc bucket -> 6 pairs."""
    import pandas as pd

    from kb_ner_ray.stages.dedup import banding_candidate_stats

    rows = pa.table({
        "band_id": pa.array([0, 0, 0, 0, 0, 1, 1, 1, 1], pa.int32()),
        "band_val": pa.array(["k1", "k1", "k1", "k2", "k2",
                              "q", "q", "q", "q"], pa.string()),
        "doc_id": pa.array(list(range(9)), pa.int64()),
    })
    st = banding_candidate_stats(ray.data.from_arrow(rows), "band_val")
    assert st["band_id"].tolist() == [0, 1]
    assert st["cand_pairs"].tolist() == [4, 6]
    assert st["n_buckets"].tolist() == [2, 1]
    assert st["n_rows"].tolist() == [5, 4]


def test_stratified_rebalance_balances_langs(ray_session):
    """Skewed langs are downsampled toward the rarest lang's volume with
    a deterministic keep rule (identical output across runs)."""
    from kb_ner_ray.pipelines.queries.documents import q_stratified_rebalance

    out = q_stratified_rebalance("/root/testdata/sf0.01").to_pandas()
    again = q_stratified_rebalance("/root/testdata/sf0.01").to_pandas()
    assert out.sort_values("doc_id").reset_index(drop=True).equals(
        again.sort_values("doc_id").reset_index(drop=True))
    kept = out.groupby("lang").size()
    # input: en=218, zh=75, es=73, de=70, fr=64 -> every lang lands
    # within a loose band of the min (rate sampling, not exact-k)
    assert kept.max() <= 2 * kept.min()
    assert len(out) < 500  # the dominant lang actually got downsampled


def test_hash_join_outer_matches_pandas(ray_session, fanout):
    """FULL OUTER: left-only, matched, and right-only keys all survive,
    including through the chunked-probe path (MERGE_CHUNK_ROWS=1 via a
    planted oversized bucket is covered by the chunk tests; here n is
    small so the direct path runs — semantics are identical)."""
    import pandas as pd
    import ray as _ray

    from kb_ner_ray.stages.joins import hash_join

    left = pa.table({"k": pa.array([1, 2, 2, 3], pa.int64()),
                     "lv": ["a", "b", "c", "d"],
                     "big": pa.array([2**53 + 1, 2**53 + 3, 2**53 + 1,
                                      2**53 + 3], pa.int64())})
    right = pa.table({"k": pa.array([2, 4, 4, 5], pa.int64()),
                      "rv": pa.array([20, 40, 41, 50], pa.int64())})
    with fanout(buckets=3) as served:
        out = hash_join(_ray.data.from_arrow(left),
                        _ray.data.from_arrow(right),
                        on="k", how="outer").materialize()
    assert served["buckets"] == [3]
    got = out.to_pandas()
    want = left.to_pandas().merge(right.to_pandas(), on="k", how="outer")
    # rows whose left side matched keep their int64 above 2^53 exactly
    # (rows are compared as Arrow values: a pandas view of a nullable
    # int64 column would float it)
    big = dict(zip(left["lv"].to_pylist(), left["big"].to_pylist()))
    assert sorted((r["lv"], r["big"]) for r in out.take_all()
                  if r["lv"] in big) == sorted(big.items())
    key = ["k", "lv", "rv"]

    def norm(df):
        df = df[key].copy()
        for c in key:
            df[c] = df[c].astype(object).where(df[c].notna(), None)
        return sorted(map(tuple, df.itertuples(index=False)),
                      key=lambda t: tuple((x is None, x) for x in t))

    assert norm(got) == norm(want)
    # unsupported modes still raise
    import pytest

    with pytest.raises(Exception):
        hash_join(_ray.data.from_arrow(left), _ray.data.from_arrow(right),
                  on="k", how="right").to_pandas()


def test_bigram_ppl_planted(ray_session):
    """Hand-checkable bigram model over one doc 'b x b x b y' (+ a
    1-token doc): bigrams (b,x)x2 kept, (x,b)x2 kept, (b,y)x1 pruned.
    c1(b)=3, c1(x)=2 -> kept (b,x): -ln(2/3); (x,b): -ln(2/2)=0;
    b's floor (pruned mass 1): -ln(1/3)."""
    import math

    from kb_ner_ray.stages.textstats import bigram_ppl

    docs = pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array(["b x b x b y", "z"], pa.string()),
    })
    out = (bigram_ppl(ray.data.from_arrow(docs).repartition(2))
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert out["n_bigrams"].tolist() == [5, 0]
    assert out.loc[1, "nll_bp"] == 0
    # positions: (b,x), (x,b), (b,x), (x,b), (b,y)
    want = (-math.log(2 / 3) + 0 - math.log(2 / 3) + 0
            - math.log(1 / 3)) / 5
    assert out.loc[0, "nll_bp"] == int(np.floor(want * 10_000 + 0.5))


def test_bigram_ppl_join_plan_matches_broadcast(ray_session,
                                                over_broadcast_limit):
    """The above-limit bucketed-join scoring plan produces the exact
    broadcast-plan result, including the zero-bigram doc row."""
    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(9)]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(1, 12)))
             for _ in range(30)] + ["solo", "", " "]
    docs = pa.table({
        "doc_id": pa.array(list(range(len(texts))), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    from kb_ner_ray.stages.textstats import bigram_ppl

    ds = ray.data.from_arrow(docs).repartition(4)
    want = (bigram_ppl(ds)
            .to_pandas().sort_values("doc_id").reset_index(drop=True))
    with over_broadcast_limit():
        got = (bigram_ppl(ds)
               .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert got[["doc_id", "n_bigrams", "nll_bp"]].equals(
        want[["doc_id", "n_bigrams", "nll_bp"]])
    assert (got.loc[got["doc_id"] >= 30, "n_bigrams"] == 0).all()


def test_bigram_ppl_join_plan_hot_context_capped(ray_session,
                                                 over_broadcast_limit,
                                                 fanout):
    """A Zipf-head context ('the' starts a bigram in every doc) must not
    serialize one merge reducer: with 4 salts the probe mass spreads
    by doc hash, so no group exceeds the planted cap."""
    texts = [f"the t{i} the t{(i * 7) % 13}" for i in range(200)]
    docs = pa.table({
        "doc_id": pa.array(list(range(len(texts))), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    from kb_ner_ray.stages.textstats import bigram_ppl

    ds = ray.data.from_arrow(docs).repartition(4)
    want = (bigram_ppl(ds)
            .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # 200 docs x up to 3 probe rows; unsalted, 'the'-context rows land in
    # ONE group (~400+ rows). 4 salts bound every group; the model
    # replicates x4 but is tiny/fixed-width.
    with over_broadcast_limit(), \
            fanout(salts=4, buckets=8, row_cap=220) as served:
        got = (bigram_ppl(ds)
               .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert served["salts"] and served["buckets"] and 220 in served["row_cap"]
    assert got[["doc_id", "n_bigrams", "nll_bp"]].equals(
        want[["doc_id", "n_bigrams", "nll_bp"]])


def test_deterministic_shuffle(ray_session):
    """corpus_shuffle invariants: pure function of the id (two runs
    identical), pos contiguous 0..k-1 per shard, every id present once,
    and the md5 ordering actually scrambles doc_id order."""
    from kb_ner_ray.stages.partitioning import deterministic_shuffle

    docs = pa.table({"doc_id": pa.array(range(200), pa.int64())})
    ds = ray.data.from_arrow(docs).repartition(4)
    a = (deterministic_shuffle(ds, n_shards=8).to_pandas()
         .sort_values(["shard", "pos"]).reset_index(drop=True))
    b = (deterministic_shuffle(ds, n_shards=8).to_pandas()
         .sort_values(["shard", "pos"]).reset_index(drop=True))
    assert a.equals(b)
    assert sorted(a["doc_id"]) == list(range(200))
    for _s, g in a.groupby("shard"):
        assert g["pos"].tolist() == list(range(len(g)))
        # not in id order within the shard (the whole point)
    assert not a["doc_id"].is_monotonic_increasing


def test_temperature_sample_flattens_mix(ray_session):
    """alpha=0.3 keeps the rarest language whole and flattens the head:
    kept counts ordered like the input counts but with ratios pulled
    toward 1 (kept_max/kept_min << n_max/n_min), and a rerun is
    identical (deterministic value-hash rule)."""
    from kb_ner_ray.pipelines.queries.documents import q_temperature_sample

    a = q_temperature_sample("/root/testdata/sf0.01").to_pandas()
    b = q_temperature_sample("/root/testdata/sf0.01").to_pandas()
    assert a.sort_values("doc_id").reset_index(drop=True).equals(
        b.sort_values("doc_id").reset_index(drop=True))
    import pyarrow.parquet as pq_

    full = (pq_.read_table("/root/testdata/sf0.01/documents.parquet",
                           columns=["lang"]).to_pandas()
            .groupby("lang").size())
    kept = a.groupby("lang").size()
    assert set(kept.index) == set(full.index)  # no language erased
    # head flattened: kept ratio strictly tighter than the input ratio
    assert (kept.max() / kept.min()) < (full.max() / full.min())
    # rarest language kept (approximately) whole: rate 1 up to hash noise
    rare = full.idxmin()
    assert kept[rare] >= 0.9 * full[rare]


def test_pack_training_sequences_invariants(ray_session):
    """Packing invariants on a planted corpus: every token of every
    non-empty doc is covered exactly once, every sequence except each
    shard's tail is filled to exactly seq_len, spans are contiguous in
    both doc and sequence coordinates, empty docs emit nothing."""
    from kb_ner_ray.stages.packing import pack_training_sequences

    texts = {0: "a b c d e", 1: "", 2: " ".join(f"w{i}" for i in range(23)),
             3: "x", 4: "p q r s t u v", 5: "   "}
    docs = pa.table({
        "doc_id": pa.array(sorted(texts), pa.int64()),
        "text": pa.array([texts[i] for i in sorted(texts)], pa.string()),
    })
    L = 8
    out = (pack_training_sequences(
        ray.data.from_arrow(docs).repartition(3), seq_len=L, n_shards=2)
        .to_pandas().sort_values(["shard", "seq_id", "seq_offset"])
        .reset_index(drop=True))
    n_tok = {i: len(t.split()) for i, t in texts.items()}
    # per-doc coverage: contiguous [0, n_tok) in doc coordinates
    for did, g in out.groupby("doc_id"):
        g = g.sort_values("doc_offset")
        assert g["doc_offset"].iloc[0] == 0
        assert (g["doc_offset"] + g["n_tokens"]).iloc[-1] == n_tok[did]
        assert (g["doc_offset"].to_numpy()[1:]
                == (g["doc_offset"] + g["n_tokens"]).to_numpy()[:-1]).all()
    assert set(out["doc_id"]) == {i for i, n in n_tok.items() if n > 0}
    # per-sequence fill: contiguous from 0; all but the shard tail == L
    for (sh, sq), g in out.groupby(["shard", "seq_id"]):
        g = g.sort_values("seq_offset")
        assert g["seq_offset"].iloc[0] == 0
        fill = int(g["n_tokens"].sum())
        assert (g["seq_offset"].to_numpy()[1:]
                == (g["seq_offset"] + g["n_tokens"]).to_numpy()[:-1]).all()
        if sq < out[out["shard"] == sh]["seq_id"].max():
            assert fill == L
        else:
            assert 0 < fill <= L
    # total conservation
    assert int(out["n_tokens"].sum()) == sum(n_tok.values())


def test_pack_sequences_subtoken_counter(ray_session):
    """The packing index accepts the T1 subtoken counter (the real-BPE
    budget seam): totals equal the counter's own sums and every
    non-tail sequence fills to exactly seq_len."""
    from kb_ner_ray.functions.tokenizer import subtoken_count
    from kb_ner_ray.stages.packing import pack_training_sequences

    texts = ["hello world piece", "internationalization",
             "a b c d e f g h", ""]
    docs = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    out = (pack_training_sequences(
        ray.data.from_arrow(docs), seq_len=4, n_shards=1,
        token_counter=subtoken_count).to_pandas())
    want_total = sum(subtoken_count(x) for x in texts)
    assert int(out["n_tokens"].sum()) == want_total
    per_doc = out.groupby("doc_id")["n_tokens"].sum().to_dict()
    for i, x in enumerate(texts):
        assert per_doc.get(i, 0) == subtoken_count(x) or (
            subtoken_count(x) == 0 and i not in per_doc)


def test_round5_ops_fanout_extremes(ray_session, fanout):
    """Fan-out is a tuning knob, never a semantics knob: line_dedup and
    pack_sequences produce identical results at tiny and huge bucket /
    salt fan-outs."""
    from kb_ner_ray.stages.dedup import line_dedup
    from kb_ner_ray.stages.packing import pack_training_sequences

    texts = [f"shared line\nuniq {i}\nshared line" for i in range(30)] + \
        ["", "solo"]
    docs = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    ds = ray.data.from_arrow(docs).repartition(3)

    def norm(df):
        return df.sort_values("doc_id").reset_index(drop=True)

    with fanout(buckets=2, salts=1) as tiny:
        a = norm(line_dedup(ds).to_pandas())
    with fanout(buckets=512, salts=64) as huge:
        b = norm(line_dedup(ds).to_pandas())
    assert tiny["buckets"] and tiny["salts"] == [1]
    assert huge["buckets"] and huge["salts"] == [64]
    assert a.equals(b)
    assert a.loc[0, "text"] == "shared line\nuniq 0"  # within-doc dup too

    cols = ["shard", "seq_id", "doc_id", "doc_offset", "seq_offset",
            "n_tokens"]
    p1 = (pack_training_sequences(ds, seq_len=5, n_shards=1)
          .to_pandas()[cols])
    p64 = (pack_training_sequences(ds, seq_len=5, n_shards=64)
           .to_pandas()[cols])
    # different shard layouts, same conserved token volume per doc
    assert (p1.groupby("doc_id")["n_tokens"].sum().to_dict()
            == p64.groupby("doc_id")["n_tokens"].sum().to_dict())


def test_pii_redact_patterns():
    """PII scrub: counts and replacement tokens on hand-built texts; the
    injected synthetic PII is derived from doc_id on both engines."""
    from kb_ner_ray.stages.textstats import inject_synthetic_pii, pii_redact

    t = pa.table({
        "doc_id": pa.array([100, 200], pa.int64()),
        "text": pa.array([
            "write bob.smith+x@ex-ample.co.uk or ping 10.0.255.1 ok",
            "call (555) 014-2233 and 555-014-2233; host 192.168.1.255",
        ]),
    })
    out = pii_redact(t).to_pandas()
    assert out.loc[0, "n_emails"] == 1 and out.loc[0, "n_ips"] == 1
    assert out.loc[1, "n_phones"] == 2 and out.loc[1, "n_ips"] == 1
    assert "<EMAIL>" in out.loc[0, "redacted"]
    assert "@" not in out.loc[0, "redacted"]
    assert out.loc[1, "redacted"].count("<PHONE>") == 2
    assert "<IP>" in out.loc[1, "redacted"]

    # injection is deterministic in doc_id: 100%3!=0 -> no email;
    # 200%4==0 -> no phone; 200%5==0 -> no ip; 100%5==0 -> no ip
    inj = inject_synthetic_pii(pa.table({
        "doc_id": pa.array([99, 100], pa.int64()),
        "text": pa.array(["alpha", "beta"]),
    })).column("text").to_pylist()
    assert inj[0] == "alpha user99@example.org"  # 99%3==0, %4=3, %5=4
    assert inj[1] == "beta"  # 100 hits none of the three residue classes


def test_semdedup_planted_and_fanout(ray_session, fanout):
    """SemDeDup: a planted same-cluster near-duplicate is dropped (higher
    id loses), a lone-cluster vector survives, and the bucket fan-out
    (and the triangle split S that follows it) is a tuning knob only."""
    import numpy as np

    from kb_ner_ray.stages.similarity import semdedup

    rng = np.random.default_rng(7)
    dim = 16
    base = rng.normal(size=(40, dim))
    base[5] = base[3] + rng.normal(scale=1e-3, size=dim)  # near-dup of 3
    seeds = ([0, 1, 2, 3], np.asarray(base[:4], dtype=np.float64))
    t = pa.table({
        "vec_id": pa.array(range(40), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in base],
                              pa.list_(pa.float32())),
    })
    ds = ray.data.from_arrow(t).repartition(3)

    def run(data, threshold, buckets):
        """semdedup at ``buckets`` (S = triangle_split() of them)."""
        with fanout(buckets=buckets) as served:
            out = (semdedup(data, seeds, threshold=threshold).to_pandas()
                   .sort_values("vec_id").reset_index(drop=True))
        assert served["buckets"] and set(served["buckets"]) == {buckets}
        return out

    out = run(ds, 0.95, 2)          # S = 2
    assert len(out) == 40
    assert out.loc[3, "keep"] == 1 and out.loc[5, "keep"] == 0
    assert out.loc[3, "cluster"] == out.loc[5, "cluster"]
    # seed vectors are their own clusters' anchors (sim 1.0 to self)
    assert (out.loc[:3, "cluster"].to_numpy() == np.arange(4)).all()
    big = run(ds, 0.95, 12)         # S = 5
    assert out.equals(big)

    # hot-cluster skew: EVERY vector lands in seed 0's cluster; the
    # cluster-local triangle split must still find the planted dup and
    # stay S-invariant (one cluster == the whole corpus is the
    # worst-case reducer shape the cell decomposition exists for)
    hot = np.tile(base[0], (30, 1)) + rng.normal(scale=0.01, size=(30, dim))
    hot[9] = hot[4] + rng.normal(scale=1e-4, size=dim)
    th = pa.table({
        "vec_id": pa.array(range(30), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in hot],
                              pa.list_(pa.float32())),
    })
    hds = ray.data.from_arrow(th).repartition(3)
    a = run(hds, 0.9999, 2)         # S = 2
    b = run(hds, 0.9999, 18)        # S = 6
    assert a.equals(b)
    assert (a["cluster"] == 0).all()
    assert a.loc[9, "keep"] == 0 and a.loc[4, "keep"] == 1


def test_dsir_weights_orders_target_like_docs(ray_session):
    """DSIR: a doc built from target-language bigrams outscores a doc of
    pool-only bigrams; <2-token docs emit n_bigrams=0, dsir_bp=0."""
    from kb_ner_ray.stages.dsir import dsir_weights

    en = "good clean wiki prose " * 10
    xx = "zz1 zz2 zz3 zz4 " * 10
    t = pa.table({
        "doc_id": pa.array(range(6), pa.int64()),
        "text": pa.array([en, en, xx, xx, en, "solo"]),
        "lang": pa.array(["en", "en", "xx", "xx", "xx", "xx"]),
    })
    out = (dsir_weights(ray.data.from_arrow(t).repartition(2))
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # doc 4 repeats the target's bigrams, doc 3 the pool-only ones
    assert out.loc[4, "dsir_bp"] > out.loc[3, "dsir_bp"]
    assert out.loc[5, "n_bigrams"] == 0 and out.loc[5, "dsir_bp"] == 0
    # absolute sign is smoothing-dominated at toy scale; ORDER is the
    # contract: target-like docs above pool-only docs
    assert (out.loc[[0, 1], "dsir_bp"].min()
            > out.loc[[2, 3], "dsir_bp"].max())


def test_events_funnel_ordering_semantics(ray_session, tmp_path):
    """Funnel: a click BEFORE the first view does not convert; equal
    timestamps do (>= gate); durations sum as integer microseconds."""
    import datetime as dt

    import pandas as pd

    from kb_ner_ray.pipelines.queries.events import q_events_funnel

    t0 = dt.datetime(2026, 1, 1)
    rows = [
        # user 1: full ordered funnel, 10s then 20s after the view
        (1, "view", t0), (1, "click", t0 + dt.timedelta(seconds=10)),
        (1, "purchase", t0 + dt.timedelta(seconds=30)),
        # user 2: click precedes its only view -> stops at stage 1
        (2, "click", t0), (2, "view", t0 + dt.timedelta(seconds=5)),
        # user 3: click at the SAME instant as the view -> converts
        (3, "view", t0), (3, "click", t0),
        # user 4: never views -> not even stage 1
        (4, "purchase", t0),
    ]
    df = pd.DataFrame(rows, columns=["user_id", "event_type", "ts"])
    df["ts"] = pd.to_datetime(df["ts"])
    sf = str(tmp_path)
    df.to_parquet(f"{sf}/events.parquet", index=False)
    out = q_events_funnel(sf).set_index("stage")
    assert out.loc[1, "n_users"] == 3
    assert out.loc[2, "n_users"] == 2          # users 1 and 3
    assert out.loc[3, "n_users"] == 1          # user 1
    assert out.loc[2, "sum_usecs"] == 10_000_000
    assert out.loc[3, "sum_usecs"] == 30_000_000


def test_snapshot_delta_dedup_semantics(ray_session, fanout):
    """Incremental dedup: old-snapshot hits drop, fresh docs keep with
    within-new multiplicity, min doc_id wins; bloom fan-out is a knob."""
    from kb_ner_ray.stages.dedup import snapshot_delta_dedup

    old = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array(["seen before", "ancient prose"]),
    }))
    new = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([10, 11, 12, 13], pa.int64()),
        "text": pa.array(["seen before",      # in snapshot -> drop
                          "fresh one",        # new, unique
                          "fresh two",        # new, dup'd below
                          "fresh two"]),
    })).repartition(2)
    with fanout(buckets=3) as served:
        out = (snapshot_delta_dedup(old, new, bloom_bits=1 << 12)
               .to_pandas().sort_values("doc_id").reset_index(drop=True))
        tiny = (snapshot_delta_dedup(old, new, bloom_bits=64)
                .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert served["buckets"]
    assert out["doc_id"].tolist() == [11, 12]
    assert out.set_index("doc_id").loc[12, "n_dups"] == 2
    # tiny bloom (high FP rate) must not change the answer
    assert tiny.equals(out)


def test_kmeans_embeddings_numpy_parity(ray_session):
    """Distributed Lloyd's == straight-line numpy on the same init:
    identical centroids and assignments after 4 iterations, invariant to
    block layout."""
    import numpy as np

    from kb_ner_ray.stages.similarity import kmeans_embeddings

    rng = np.random.default_rng(3)
    k, dim, n = 4, 8, 120
    m = rng.normal(size=(n, dim))
    t = pa.table({
        "vec_id": pa.array(range(n), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in m],
                              pa.list_(pa.float32())),
    })
    # float32 storage: parity baseline must read back the same dtype
    m64 = np.array(t["embedding"].to_pylist(), dtype=np.float64)

    def norm(x):
        nn = np.linalg.norm(x, axis=1, keepdims=True)
        nn[nn == 0] = 1
        return x / nn

    cents = norm(m64[:k].copy())
    mn = norm(m64)
    for _ in range(4):
        a = np.argmax(mn @ cents.T, axis=1)
        nxt = cents.copy()
        for c in range(k):
            if (a == c).any():
                nxt[c] = mn[a == c].mean(axis=0)
        cents = norm(nxt)
    want = np.argmax(mn @ cents.T, axis=1)

    for parts in (2, 7):
        ds = ray.data.from_arrow(t).repartition(parts)
        got_ds, got_c = kmeans_embeddings(ds, k=k, iters=4)
        got = (got_ds.to_pandas().sort_values("vec_id")["cluster"]
               .to_numpy(np.int64))
        assert np.allclose(got_c, cents, atol=1e-12)
        assert (got == want).all()


def test_fuzzy_decontaminate_planted_leak(ray_session, over_broadcast_limit):
    """A verbatim benchmark copy and a one-token paraphrase are both
    flagged; unrelated docs are not, and never even reach verification
    (zero candidates).  A benchmark side over the broadcast limit
    raises instead of broadcasting."""
    from kb_ner_ray.stages.dedup import fuzzy_decontaminate

    bench_text = ("the quick brown fox jumps over the lazy dog "
                  "and then runs far away into the deep green woods")
    edited = bench_text.replace("lazy", "sleepy")
    corpus = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array([
            bench_text,                       # verbatim leak
            edited,                           # paraphrased leak
            "completely unrelated words " * 6,
            "zz yy xx ww vv uu tt ss rr qq",
        ]),
    })).repartition(2)
    bench = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([100], pa.int64()),
        "text": pa.array([bench_text]),
    }))
    out = (fuzzy_decontaminate(corpus, bench, threshold=0.6)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert out.loc[0, "contaminated"] == 1
    assert out.loc[0, "jac_bp"] == 10_000 and out.loc[0, "bench_id"] == 100
    assert out.loc[1, "contaminated"] == 1 and out.loc[1, "jac_bp"] < 10_000
    assert (out.loc[[2, 3], "contaminated"] == 0).all()
    assert (out.loc[[2, 3], "n_candidates"] == 0).all()
    with over_broadcast_limit(), pytest.raises(ValueError, match="SMALL"):
        fuzzy_decontaminate(corpus, bench, threshold=0.6)


def test_source_reputation_filter_gate_raises(ray_session, tmp_path,
                                              over_broadcast_limit):
    """A good-source set over the broadcast limit raises rather than
    broadcasting (the filter has no distributed keep pass)."""
    import pyarrow.parquet as pq

    from kb_ner_ray.pipelines.queries.documents import (
        q_source_reputation_filter)

    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": ["a plain sentence of several words here"] * 2,
        "source": ["a.example", "b.example"],
    }), tmp_path / "documents.parquet")
    with over_broadcast_limit(), pytest.raises(
            ValueError, match="over the broadcast limit"):
        q_source_reputation_filter(str(tmp_path))


def test_events_burst_dedup_semantics(ray_session, tmp_path):
    """Burst dedup: a same-key retry inside the gap drops, the next fire
    past the gap keeps, different keys never interact."""
    import datetime as dt

    import pandas as pd

    from kb_ner_ray.pipelines.queries.events import q_events_burst_dedup

    t0 = dt.datetime(2026, 1, 1)
    rows = [
        (1, 7, "click", t0),
        (2, 7, "click", t0 + dt.timedelta(minutes=5)),   # burst -> drop
        (3, 7, "click", t0 + dt.timedelta(minutes=16)),  # past gap -> keep
        (4, 7, "view", t0 + dt.timedelta(minutes=5)),    # other key
        (5, 8, "click", t0 + dt.timedelta(minutes=5)),   # other user
    ]
    df = pd.DataFrame(rows, columns=["event_id", "user_id",
                                     "event_type", "ts"])
    df["ts"] = pd.to_datetime(df["ts"])
    sf = str(tmp_path)
    df.to_parquet(f"{sf}/events.parquet", index=False)
    out = q_events_burst_dedup(sf).to_pandas()
    assert sorted(out["event_id"]) == [1, 3, 4, 5]


def test_events_transitions_semantics(ray_session, tmp_path):
    """Transition matrix: pairs are consecutive WITHIN a user's
    time-ordered stream only; prob_bp rows per from_type sum to ~1e4;
    equal-ts order falls back to event_id (the oracle's ORDER BY)."""
    import datetime as dt

    import pandas as pd

    from kb_ner_ray.pipelines.queries.events import q_events_transitions

    t0 = dt.datetime(2026, 1, 1)
    rows = [
        # user 1: view -> click -> view  (2 pairs)
        (1, 1, "view", t0),
        (2, 1, "click", t0 + dt.timedelta(seconds=1)),
        (3, 1, "view", t0 + dt.timedelta(seconds=2)),
        # user 2: view -> view (1 pair); no cross-user pair with user 1
        (4, 2, "view", t0),
        (5, 2, "view", t0 + dt.timedelta(seconds=1)),
        # user 3: two events at the SAME ts -> event_id breaks the tie
        (6, 3, "click", t0), (7, 3, "purchase", t0),
        # user 4: single event -> no pair
        (8, 4, "view", t0),
    ]
    df = pd.DataFrame(rows, columns=["event_id", "user_id",
                                     "event_type", "ts"])
    df["ts"] = pd.to_datetime(df["ts"])
    sf = str(tmp_path)
    df.to_parquet(f"{sf}/events.parquet", index=False)
    out = q_events_transitions(sf).set_index(["from_type", "to_type"])
    assert out.loc[("view", "click"), "n_pairs"] == 1
    assert out.loc[("view", "view"), "n_pairs"] == 1
    assert out.loc[("click", "view"), "n_pairs"] == 1
    assert out.loc[("click", "purchase"), "n_pairs"] == 1
    assert int(out["n_pairs"].sum()) == 4
    # per-from_type probabilities rebuild the whole distribution
    sums = out.reset_index().groupby("from_type")["prob_bp"].sum()
    assert ((sums - 10_000).abs() <= 1).all()


def test_events_retention_semantics(ray_session, tmp_path):
    """Retention: cohort = first active day; same-day repeats collapse;
    every cohort has an offset-0 row counting its full size."""
    import datetime as dt

    import pandas as pd

    from kb_ner_ray.pipelines.queries.events import q_events_retention

    d0 = dt.datetime(2026, 1, 1, 9, 30)
    day = dt.timedelta(days=1)
    rows = [
        (1, d0), (1, d0 + dt.timedelta(hours=2)),   # day 0 twice
        (1, d0 + day),                               # day 1
        (2, d0),                                     # day 0 only
        (3, d0 + day), (3, d0 + 3 * day),            # cohort day 1
    ]
    df = pd.DataFrame(rows, columns=["user_id", "ts"])
    df["ts"] = pd.to_datetime(df["ts"])
    sf = str(tmp_path)
    df.to_parquet(f"{sf}/events.parquet", index=False)
    out = q_events_retention(sf).to_pandas()
    out["cohort_day"] = pd.to_datetime(out["cohort_day"])
    c0 = pd.Timestamp(2026, 1, 1)
    c1 = pd.Timestamp(2026, 1, 2)
    idx = out.set_index(["cohort_day", "day_offset"])["n_users"]
    assert idx[(c0, 0)] == 2          # users 1 and 2
    assert idx[(c0, 1)] == 1          # user 1 returns
    assert idx[(c1, 0)] == 1          # user 3's cohort
    assert idx[(c1, 2)] == 1          # user 3 returns 2 days later
    assert int(out["n_users"].sum()) == 5  # distinct (user, day) pairs


def test_events_decay_score_semantics(ray_session, tmp_path):
    """Decay score: an event exactly one half-life before t_max carries
    half the weight of one at t_max; per-user sums are independent."""
    import datetime as dt

    import pandas as pd

    from kb_ner_ray.pipelines.queries.events import (DECAY_HALF_LIFE_US,
                                                     q_events_decay_score)

    tmax = dt.datetime(2026, 6, 1)
    half = dt.timedelta(microseconds=DECAY_HALF_LIFE_US)
    rows = [
        (1, tmax, 10.0),              # weight 1.0   -> 100000 bp
        (2, tmax - half, 10.0),       # weight 0.5   -> 50000 bp
        (3, tmax - 2 * half, 10.0),   # weight 0.25  -> 25000 bp
        (4, tmax, 1.0), (4, tmax - half, 2.0),  # 1.0 + 1.0 = 2.0
    ]
    df = pd.DataFrame(rows, columns=["user_id", "ts", "value"])
    df["ts"] = pd.to_datetime(df["ts"])
    sf = str(tmp_path)
    df.to_parquet(f"{sf}/events.parquet", index=False)
    out = q_events_decay_score(sf).to_pandas().set_index("user_id")
    assert out.loc[1, "score_bp"] == 100_000
    assert out.loc[2, "score_bp"] == 50_000
    assert out.loc[3, "score_bp"] == 25_000
    assert out.loc[4, "score_bp"] == 20_000


def test_events_user_mode_tiebreak(ray_session, tmp_path):
    """Mode: highest count wins; ties break on the LEXICALLY SMALLER
    type (the oracle's ORDER BY n DESC, event_type)."""

    import pandas as pd

    from kb_ner_ray.pipelines.queries.events import q_events_user_mode

    rows = ([(1, "view")] * 3 + [(1, "click")] * 2
            + [(2, "view"), (2, "click")]          # tie -> 'click'
            + [(3, "purchase")])
    df = pd.DataFrame(rows, columns=["user_id", "event_type"])
    sf = str(tmp_path)
    df.to_parquet(f"{sf}/events.parquet", index=False)
    out = q_events_user_mode(sf).to_pandas().set_index("user_id")
    assert out.loc[1, "mode_type"] == "view" and out.loc[1, "n_events"] == 3
    assert out.loc[2, "mode_type"] == "click" and out.loc[2, "n_events"] == 1
    assert out.loc[3, "mode_type"] == "purchase"


def test_dup_graph_degrees_handshake(ray_session):
    """Degree histogram obeys the handshake lemma against the pair list:
    sum(degree * n_nodes) == 2 * |pairs| on the same corpus."""
    from kb_ner_ray.pipelines.queries.documents import (q_dup_graph_degrees,
                                                        q_ngram_jaccard)

    sf = "/root/testdata/sf0.001"
    hist = q_dup_graph_degrees(sf)
    n_pairs = len(q_ngram_jaccard(sf))
    assert int((hist["degree"] * hist["n_nodes"]).sum()) == 2 * n_pairs
    assert (hist["degree"] > 0).all() and (hist["n_nodes"] > 0).all()


def test_events_session_stats_semantics(ray_session, tmp_path):
    """Session stats: 30-min gap splits sessions; dwell is the in-session
    span only; per-user rollup matches hand counts."""
    import datetime as dt

    import pandas as pd

    from kb_ner_ray.pipelines.queries.events import q_events_session_stats

    t0 = dt.datetime(2026, 1, 1)
    m = dt.timedelta(minutes=1)
    rows = [
        # user 1: session A = 3 events over 10 min; 40-min gap;
        # session B = 1 event (zero dwell)
        (1, 1, t0), (2, 1, t0 + 5 * m), (3, 1, t0 + 10 * m),
        (4, 1, t0 + 50 * m),
        # user 2: exactly 30-min gap -> SAME session (gap must EXCEED)
        (5, 2, t0), (6, 2, t0 + 30 * m),
    ]
    df = pd.DataFrame(rows, columns=["event_id", "user_id", "ts"])
    df["ts"] = pd.to_datetime(df["ts"])
    sf = str(tmp_path)
    df.to_parquet(f"{sf}/events.parquet", index=False)
    out = (q_events_session_stats(sf).to_pandas()
           .set_index("user_id"))
    assert out.loc[1, "n_sessions"] == 2
    assert out.loc[1, "n_events"] == 4
    assert out.loc[1, "max_session_events"] == 3
    assert out.loc[1, "sum_dwell_usecs"] == 10 * 60_000_000
    assert out.loc[2, "n_sessions"] == 1
    assert out.loc[2, "sum_dwell_usecs"] == 30 * 60_000_000


def test_events_attribution_last_touch(ray_session, tmp_path):
    """Attribution: purchase credits the LAST non-purchase touch before
    it (same-user only); a leading purchase with no touch is dropped;
    purchases between touches don't break the chain."""
    import datetime as dt

    import pandas as pd

    from kb_ner_ray.pipelines.queries.events import q_events_attribution

    t0 = dt.datetime(2026, 1, 1)
    s = dt.timedelta(seconds=1)
    rows = [
        # user 1: view -> click -> purchase(10) -> purchase(5)
        # both purchases credit 'click' (last non-purchase touch)
        (1, 1, "view", t0, 0.0), (2, 1, "click", t0 + s, 0.0),
        (3, 1, "purchase", t0 + 2 * s, 10.0),
        (4, 1, "purchase", t0 + 3 * s, 5.0),
        # user 2: purchase with NO prior touch -> unattributed, dropped
        (5, 2, "purchase", t0, 99.0),
        # user 3: view -> purchase(2); user 1's click must not leak
        (6, 3, "view", t0, 0.0), (7, 3, "purchase", t0 + s, 2.0),
    ]
    df = pd.DataFrame(rows, columns=["event_id", "user_id",
                                     "event_type", "ts", "value"])
    df["ts"] = pd.to_datetime(df["ts"])
    sf = str(tmp_path)
    df.to_parquet(f"{sf}/events.parquet", index=False)
    out = q_events_attribution(sf).set_index("source_type")
    assert out.loc["click", "n_purchases"] == 2
    assert out.loc["click", "revenue_cents"] == 1500
    assert out.loc["view", "n_purchases"] == 1
    assert out.loc["view", "revenue_cents"] == 200
    assert int(out["n_purchases"].sum()) == 3  # user 2's is dropped


def test_events_anomaly_p99_threshold(ray_session, tmp_path):
    """Anomaly filter: only values STRICTLY above the type's exact p99
    survive, and the reported threshold is that p99."""
    import datetime as dt

    import numpy as np
    import pandas as pd

    from kb_ner_ray.pipelines.queries.events import q_events_anomaly_p99

    n = 200
    vals = np.arange(1, n + 1, dtype=np.float64)  # cents = 100..20000
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "ts": pd.to_datetime([dt.datetime(2026, 1, 1)] * n),
        "event_type": ["click"] * n,
        "value": vals,
    })
    sf = str(tmp_path)
    df.to_parquet(f"{sf}/events.parquet", index=False)
    out = q_events_anomaly_p99(sf).to_pandas()
    # p99 rank = ceil(200 * .99) = 198 -> threshold 19800 cents;
    # survivors are the two events above it
    assert sorted(out["value_cents"]) == [19_900, 20_000]
    assert (out["p99_cents"] == 19_800).all()


def test_dup_graph_cluster_sizes_consistency(ray_session):
    """Cluster-size histogram re-aggregates the components output:
    sum(size * n_components) == |component rows| on the same corpus."""
    from kb_ner_ray.pipelines.queries.documents import (
        q_dup_graph_cluster_sizes, q_ngram_jaccard_components)

    sf = "/root/testdata/sf0.001"
    hist = q_dup_graph_cluster_sizes(sf)
    n_nodes = len(q_ngram_jaccard_components(sf))
    assert int((hist["size"] * hist["n_components"]).sum()) == n_nodes
    assert (hist["size"] >= 2).all()  # singletons never enter the graph


def test_doc_source_overlap_planted(ray_session, tmp_path):
    """Cross-source dup matrix: planted duplicate groups produce exact
    n*m cross counts and n*(n-1)/2 within counts; unique docs never
    pair."""

    import pandas as pd

    from kb_ner_ray.pipelines.queries.documents import q_doc_source_overlap

    rows = [
        # "alpha" appears 2x in s0 and 1x in s1:
        #   (s0, s0) += 1, (s0, s1) += 2
        (0, "alpha text", "s0"), (1, "alpha text", "s0"),
        (2, "alpha text", "s1"),
        # "beta" appears once per source -> cross only
        (3, "beta body", "s0"), (4, "beta body", "s1"),
        # unique doc -> contributes nothing
        (5, "gamma solo", "s1"),
    ]
    df = pd.DataFrame(rows, columns=["doc_id", "text", "source"])
    sf = str(tmp_path)
    df.to_parquet(f"{sf}/documents.parquet", index=False)
    out = (q_doc_source_overlap(sf)
           .set_index(["source_a", "source_b"])["n_pairs"])
    assert out[("s0", "s0")] == 1
    assert out[("s0", "s1")] == 3   # 2x1 (alpha) + 1x1 (beta)
    assert len(out) == 2


def test_doc_length_hist_bins(ray_session, tmp_path):
    """Length histogram: bin = n_tokens // 32; empty text counts one
    token (the regexp_split oracle contract)."""

    import pandas as pd

    from kb_ner_ray.pipelines.queries.documents import (LENGTH_HIST_WIDTH,
                                                        q_doc_length_hist)

    rows = [
        (0, " ".join(["w"] * 5), "en"),     # bin 0
        (1, " ".join(["w"] * 31), "en"),    # bin 0
        (2, " ".join(["w"] * 32), "en"),    # bin 1
        (3, "", "de"),                       # 1 token -> bin 0
        (4, " ".join(["w"] * 64), "de"),    # bin 2
    ]
    df = pd.DataFrame(rows, columns=["doc_id", "text", "lang"])
    sf = str(tmp_path)
    df.to_parquet(f"{sf}/documents.parquet", index=False)
    assert LENGTH_HIST_WIDTH == 32
    out = (q_doc_length_hist(sf).to_pandas()
           .set_index(["lang", "bin"])["n_docs"])
    assert out[("en", 0)] == 2 and out[("en", 1)] == 1
    assert out[("de", 0)] == 1 and out[("de", 2)] == 1


def test_doc_top_bigrams_ordering(ray_session, tmp_path):
    """Collocations: counts are corpus-global, rank order is
    (count desc, a asc, b asc), cross-document token pairs never form."""

    import pandas as pd

    from kb_ner_ray.pipelines.queries.documents import q_doc_top_bigrams

    rows = [
        (0, "x y x y x y"),      # (x,y)*3 (y,x)*2
        (1, "x y"),              # (x,y) -> 4 total
        (2, "a b"), (3, "a b"),  # (a,b)*2 -- ties (y,x) at 2
        (4, "z"),                # single token: no pair
        (5, ""),                 # empty: no pair
    ]
    df = pd.DataFrame(rows, columns=["doc_id", "text"])
    sf = str(tmp_path)
    df.to_parquet(f"{sf}/documents.parquet", index=False)
    out = q_doc_top_bigrams(sf)
    assert list(out.loc[0, ["a", "b", "n_occurrences", "rnk"]]) == [
        "x", "y", 4, 1]
    # tie at count 2: ('a','b') sorts before ('y','x')
    assert list(out.loc[1, ["a", "b"]]) == ["a", "b"]
    assert list(out.loc[2, ["a", "b"]]) == ["y", "x"]
    assert len(out) == 3


def test_event_user_ops_under_planted_skew(ray_session, tmp_path):
    """A HOT user holding 60% of all events (the coarse user-hash bucket
    plan co-locates each user) must not change correctness: transitions,
    session stats, and mode all match a single-process pandas
    recomputation on the same skewed stream."""

    import numpy as np
    import pandas as pd

    from kb_ner_ray.pipelines.queries.events import (SESSION_GAP_MIN,
                                                     q_events_session_stats,
                                                     q_events_transitions,
                                                     q_events_user_mode)

    rng = np.random.default_rng(7)
    n = 2_000
    uid = np.where(rng.random(n) < 0.6, 1,
                   rng.integers(2, 40, size=n)).astype(np.int64)
    ts = (pd.Timestamp("2026-01-01")
          + pd.to_timedelta(np.sort(rng.integers(0, 5_000_000, size=n)),
                            unit="s"))
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": uid,
        "ts": ts,
        "event_type": rng.choice(["view", "click", "purchase"], size=n),
    })
    sf = str(tmp_path)
    df.to_parquet(f"{sf}/events.parquet", index=False)

    # --- single-process references -------------------------------------
    g = df.sort_values(["user_id", "ts", "event_id"])
    same = g["user_id"].eq(g["user_id"].shift(-1)).to_numpy()[:-1]
    ty = g["event_type"].to_numpy(object)
    want_pairs = (pd.DataFrame({"f": ty[:-1][same], "t": ty[1:][same]})
                  .groupby(["f", "t"]).size())
    got = q_events_transitions(sf).set_index(["from_type", "to_type"])
    assert got["n_pairs"].to_dict() == want_pairs.to_dict()

    us = g["ts"].to_numpy("datetime64[us]").astype(np.int64)
    new_user = np.r_[True, g["user_id"].to_numpy()[1:]
                     != g["user_id"].to_numpy()[:-1]]
    gap = np.r_[0, us[1:] - us[:-1]]
    sid = np.cumsum(new_user | (gap > SESSION_GAP_MIN * 60_000_000))
    sess = (pd.DataFrame({"u": g["user_id"].to_numpy(), "sid": sid})
            .groupby("u")["sid"].nunique())
    stats = q_events_session_stats(sf).to_pandas().set_index("user_id")
    assert stats["n_sessions"].to_dict() == sess.to_dict()
    assert int(stats["n_events"].sum()) == n

    want_mode = (df.groupby(["user_id", "event_type"]).size()
                 .reset_index(name="n")
                 .sort_values(["user_id", "n", "event_type"],
                              ascending=[True, False, True])
                 .drop_duplicates("user_id").set_index("user_id"))
    mode = q_events_user_mode(sf).to_pandas().set_index("user_id")
    assert mode["mode_type"].to_dict() == want_mode["event_type"].to_dict()


def test_local_supplier_revenue_plan_parity(ray_session):
    """Q5: the bucketed 3-hash-join plan returns exactly the broadcast
    plan's rows (the above-limit path must not change semantics)."""
    import pandas as pd

    from kb_ner_ray.pipelines.queries.tpch import (
        q_local_supplier_revenue, q_local_supplier_revenue_bucketed)

    sf = "/root/testdata/sf0.001"
    a = q_local_supplier_revenue(sf)
    b = q_local_supplier_revenue_bucketed(sf)
    pd.testing.assert_frame_equal(a.reset_index(drop=True),
                                  b.reset_index(drop=True))
    assert len(a) >= 1 and (a["revenue_cents"] > 0).all()
