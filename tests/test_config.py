"""PipelineConfig / stage-registry tests (§2.10 user-extension seat)."""

import pytest

from kb_ner_ray.pipelines.config import (
    PipelineConfig, StageConfig, build_pipeline, register, run_pipeline)


@pytest.fixture(scope="module")
def corpus_dir_small(tmp_path_factory, tiny_corpus):
    import pyarrow.parquet as pq

    d = tmp_path_factory.mktemp("cfg_corpus")
    for name in ("pages", "kb", "gazetteer"):
        (d / name).mkdir()
        pq.write_table(tiny_corpus[name], str(d / name / "part0.parquet"))
    return str(d)


def test_yaml_round_trip(tmp_path, corpus_dir_small):
    y = tmp_path / "p.yaml"
    y.write_text(f"""
input: {corpus_dir_small}/pages
corpus: {corpus_dir_small}
stages:
  - name: extract
  - name: explode
  - name: filter_length
    params: {{max_tokens: 510}}
output:
""", encoding="utf-8")
    cfg = PipelineConfig.from_yaml(str(y))
    assert [s.name for s in cfg.stages] == ["extract", "explode",
                                            "filter_length"]
    assert cfg.stages[2].params == {"max_tokens": 510}


def test_config_pipeline_matches_kg(ray_session, corpus_dir_small):
    from kb_ner_ray.pipelines.kg import kg_triples

    cfg = PipelineConfig(
        input_path=corpus_dir_small + "/pages",
        corpus=corpus_dir_small,
        stages=[StageConfig("extract"), StageConfig("explode"),
                StageConfig("triples"), StageConfig("canonicalize")],
    )
    n_cfg = run_pipeline(cfg)
    n_kg = kg_triples(corpus_dir_small).count()
    assert n_cfg == n_kg > 0


def test_unknown_stage_raises(corpus_dir_small):
    cfg = PipelineConfig(input_path=corpus_dir_small + "/pages",
                         stages=[StageConfig("nope")])
    with pytest.raises(KeyError, match="unknown stage"):
        build_pipeline(cfg)


def test_stages_reject_unknown_params(corpus_dir_small):
    """A stage takes only the params it declares: a stray YAML param (a
    typo, an option since removed) raises instead of being dropped."""
    for name in ("extract", "explode", "canonicalize", "langid",
                 "dedup_exact", "quality_filter", "pii_scrub"):
        cfg = PipelineConfig(input_path=corpus_dir_small + "/pages",
                             corpus=corpus_dir_small,
                             stages=[StageConfig(name, {"stray": 1})])
        with pytest.raises(TypeError, match="stray"):
            build_pipeline(cfg)


def test_register_custom_stage(ray_session, corpus_dir_small):
    @register("take3")
    def _take3(ds, ctx, **_):
        return ds.limit(3)

    cfg = PipelineConfig(input_path=corpus_dir_small + "/pages",
                         stages=[StageConfig("take3")])
    assert build_pipeline(cfg).count() == 3


def test_config_mentions_backends(tmp_path, ray_session):
    """The mentions stage exposes trie/viterbi/iter2 backends; trie and
    viterbi agree exactly through the YAML-built pipeline."""
    from kb_ner_ray.data.synth import corpus_dir
    from kb_ner_ray.pipelines.config import PipelineConfig, build_pipeline

    corpus = corpus_dir(0.001)

    def build(backend):
        cfg = PipelineConfig.from_dict({
            "input": corpus + "/pages",
            "corpus": corpus,
            "stages": [
                {"name": "extract"},
                {"name": "explode"},
                {"name": "mentions", "params": {"backend": backend}},
            ],
        })
        return build_pipeline(cfg).to_pandas()

    trie = build("trie")
    vit = build("viterbi")
    key = ["url", "sent_id", "start_tok", "end_tok", "label", "ent_id"]
    a = trie[key].sort_values(key).reset_index(drop=True)
    b = vit[key].sort_values(key).reset_index(drop=True)
    assert len(a) > 0 and a.equals(b)
    it2 = build("iter2")
    assert len(it2) > 0


def test_config_rerank_stage(ray_session):
    from kb_ner_ray.data.synth import corpus_dir
    from kb_ner_ray.pipelines.config import PipelineConfig, build_pipeline

    corpus = corpus_dir(0.001)
    cfg = PipelineConfig.from_dict({
        "input": corpus + "/pages",
        "corpus": corpus,
        "stages": [
            {"name": "extract"},
            {"name": "explode"},
            {"name": "rerank_contexts", "params": {"k": 5, "fetch_k": 15}},
        ],
    })
    df = build_pipeline(cfg).to_pandas()
    assert len(df) > 0
    assert df.groupby(["url", "sent_id"])["rank"].max().max() <= 4


def test_config_corpus_ops_stages(ray_session, tmp_path):
    """Round-3 data-op stages compose from YAML-shaped configs:
    quality_filter -> passage_dedup chains, and near_dup_keep drops
    non-canonical cluster members while keeping the min doc_id."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    base = " ".join(f"tok{i}" for i in range(60))
    passage = " ".join(f"p{i}" for i in range(12))
    texts = [base + " " + passage,
             "lead words here " + passage + " " + base,
             # same token count as doc 0 (length blocking pairs them)
             base.replace("tok59", "zzz59") + " " + passage]
    d = tmp_path / "docs"
    d.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                  "text": pa.array(texts, pa.string())}),
        str(d / "p.parquet"))

    cfg = PipelineConfig(
        input_path=str(d),
        stages=[StageConfig("quality_filter"),
                StageConfig("passage_dedup",
                            {"n": 5, "min_docs": 2})])
    out = (build_pipeline(cfg).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert len(out) == 3            # all pass the Gopher rules
    assert out.loc[0, "n_words_removed"] == 0     # canonical doc intact
    assert (out["n_words_removed"] > 0).any()     # dupes got cut

    cfg2 = PipelineConfig(
        input_path=str(d),
        stages=[StageConfig("near_dup_keep",
                            {"method": "jaccard", "threshold": 0.5})])
    kept = build_pipeline(cfg2).to_pandas()
    assert 0 in set(kept["doc_id"])  # min-id member always survives
    assert len(kept) < 3             # at least one near-dup dropped


def test_config_quality_buckets_stage(ray_session, tmp_path):
    """quality_buckets labels docs by exact perplexity tertiles; with
    keep= it semi-join-filters the doc stream to those buckets."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    # 9 docs: common tokens -> low nll (head), rare tokens -> high (tail)
    texts = (["common words shared " * 3] * 3
             + ["common words shared rare%d" % i for i in range(3)]
             + ["uniq%d only%d stuff%d" % (i, i, i) for i in range(3)])
    d = tmp_path / "docs"
    d.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(list(range(9)), pa.int64()),
                  "text": pa.array(texts, pa.string())}),
        str(d / "p.parquet"))

    labeled = (build_pipeline(PipelineConfig(
        input_path=str(d),
        stages=[StageConfig("quality_buckets")])).to_pandas()
        .sort_values("doc_id").reset_index(drop=True))
    assert list(labeled.columns) == ["doc_id", "nll_bp", "bucket"]
    assert set(labeled["bucket"]) <= {"head", "middle", "tail"}
    # identical lowest-nll docs 0-2 must all be head (value-based ties)
    assert (labeled.loc[:2, "bucket"] == "head").all()

    kept = (build_pipeline(PipelineConfig(
        input_path=str(d),
        stages=[StageConfig("quality_buckets",
                            {"keep": "head,middle"})])).to_pandas())
    want = set(labeled.loc[labeled["bucket"] != "tail", "doc_id"])
    assert set(kept["doc_id"]) == want
    assert "text" in kept.columns   # the DOC stream survives, labeled out


def test_config_full_cleaning_chain(ray_session, tmp_path):
    """A realistic cleaning recipe composes from YAML alone:
    gopher filter -> CCNet quality keep -> near-dup drop — each stage
    consumes the previous stage's doc stream."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    base = " ".join(f"word{i}" for i in range(60))
    texts = [base,                            # canonical
             base.replace("word59", "zzzz59"),  # near-dup of base
             " ".join(f"item{i}" for i in range(55)),  # distinct, passes
             "#### #### ####"]                # fails gopher r_words/symbol
    d = tmp_path / "docs"
    d.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                  "text": pa.array(texts, pa.string())}),
        str(d / "p.parquet"))

    cfg = PipelineConfig(
        input_path=str(d),
        stages=[StageConfig("quality_filter"),
                StageConfig("quality_buckets",
                            {"keep": "head,middle,tail"}),  # label+pass
                StageConfig("near_dup_keep",
                            {"method": "jaccard", "threshold": 0.5})])
    kept = (build_pipeline(cfg).to_pandas()
            .sort_values("doc_id").reset_index(drop=True))
    # 3 dies at the gopher gate, 1 dies as a near-dup of 0
    assert kept["doc_id"].tolist() == [0, 2]
    assert "text" in kept.columns


def test_config_training_data_stages(ray_session, tmp_path):
    """Round-5 training-data stages compose from YAML-shaped configs:
    line_dedup rewrites duplicates away, pack_sequences chains on the
    rewritten docs, temperature_sample flattens a skewed group mix, and
    shuffle_index emits the deterministic training order."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = tmp_path / "docs"
    d.mkdir()
    texts = ["shared boilerplate\nunique zero", "shared boilerplate\nuno",
             "shared boilerplate\ndos words here"]
    pq.write_table(
        pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                  "text": pa.array(texts, pa.string()),
                  "lang": pa.array(["en", "en", "de"], pa.string())}),
        str(d / "p.parquet"))

    cfg = PipelineConfig(
        input_path=str(d),
        stages=[StageConfig("line_dedup"),
                StageConfig("pack_sequences",
                            {"seq_len": 4, "n_shards": 1})])
    packed = build_pipeline(cfg).to_pandas()
    # doc 0 keeps both lines (4 tokens), docs 1/2 lose the boilerplate
    # (1 + 3 tokens) -> 8 tokens total -> exactly two full 4-seqs
    assert int(packed["n_tokens"].sum()) == 8
    assert set(packed["seq_id"]) == {0, 1}

    cfg2 = PipelineConfig(
        input_path=str(d),
        stages=[StageConfig("temperature_sample", {"alpha": 0.3})])
    kept = build_pipeline(cfg2).to_pandas()
    assert "de" in set(kept["lang"])  # rarest group kept

    cfg3 = PipelineConfig(
        input_path=str(d),
        stages=[StageConfig("shuffle_index", {"n_shards": 2})])
    idx = build_pipeline(cfg3).to_pandas()
    assert sorted(idx["doc_id"]) == [0, 1, 2]
    assert set(idx.columns) == {"doc_id", "shard", "pos"}


def test_config_second_batch_stages(ray_session, tmp_path):
    """Round-5 second-batch stages compose from YAML-shaped configs:
    pii_scrub redacts in place and counts, quality_classifier filters by
    model score, dsir_weights scores language affinity, snapshot_dedup
    drops previously-crawled docs."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = tmp_path / "docs"
    d.mkdir()
    texts = ["mail me bob@x.io now", "clean text here", "seen before"]
    pq.write_table(
        pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                  "text": pa.array(texts, pa.string()),
                  "lang": pa.array(["en", "en", "de"], pa.string())}),
        str(d / "p.parquet"))
    snap = tmp_path / "snap.parquet"
    pq.write_table(
        pa.table({"doc_id": pa.array([900], pa.int64()),
                  "text": pa.array(["seen before"], pa.string())}),
        str(snap))

    out = build_pipeline(PipelineConfig(
        input_path=str(d),
        stages=[StageConfig("pii_scrub")])).to_pandas()
    assert "@" not in " ".join(out["text"])
    assert out.set_index("doc_id").loc[0, "n_emails"] == 1

    chain = build_pipeline(PipelineConfig(
        input_path=str(d),
        stages=[StageConfig("pii_scrub"),
                StageConfig("snapshot_dedup",
                            {"snapshot": str(snap)})])).to_pandas()
    assert sorted(chain["doc_id"]) == [0, 1]  # 'seen before' dropped

    clf = build_pipeline(PipelineConfig(
        input_path=str(d),
        stages=[StageConfig("quality_classifier",
                            {"min_bp": 0})])).to_pandas()
    assert len(clf) == 3  # min_bp=0 keeps all; the stage runs end-to-end

    w = build_pipeline(PipelineConfig(
        input_path=str(d),
        stages=[StageConfig("dsir_weights",
                            {"target_lang": "en"})])).to_pandas()
    assert set(w.columns) == {"doc_id", "n_bigrams", "dsir_bp"}
