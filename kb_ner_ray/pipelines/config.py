"""Typed pipeline configuration + stage registry (reference §2.10 seat:
YAML config -> pipeline, train.py:81 / flair/config_parser.py:27-234 —
there, corpora/embeddings/model are resolved by reflection from YAML; here,
a small explicit registry keyed by stage name builds a Dataset chain).

Example YAML::

    input: /tmp/corpus/pages
    corpus: /tmp/corpus            # broadcast sides (kb/, gazetteer/)
    stages:
      - name: extract
      - name: explode
      - name: filter_length
        params: {max_tokens: 510}
      - name: triples               # fused retrieve+tag+link+emit
      - name: canonicalize
    output: /tmp/out/triples        # optional write_parquet target

Stages are pure functions ``(ds, ctx, **params) -> ds`` where ``ctx``
carries the broadcast refs; new stages register with ``@register``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class StageConfig:
    name: str
    params: dict = field(default_factory=dict)


@dataclass
class PipelineConfig:
    input_path: str
    corpus: str | None = None
    stages: list[StageConfig] = field(default_factory=list)
    output_path: str | None = None
    resumable: bool = False      # checkpointed per-partition KG run
    n_partitions: int = 8        # (pipelines/run.py run_resumable)

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        return cls(
            input_path=d["input"],
            corpus=d.get("corpus"),
            stages=[StageConfig(s["name"], s.get("params", {}))
                    for s in d.get("stages", [])],
            output_path=d.get("output"),
            resumable=bool(d.get("resumable", False)),
            n_partitions=int(d.get("n_partitions", 8)),
        )

    @classmethod
    def from_yaml(cls, path: str) -> "PipelineConfig":
        import yaml

        with open(path, encoding="utf-8") as f:
            return cls.from_dict(yaml.safe_load(f))


@dataclass
class PipelineContext:
    """Broadcast sides, resolved lazily from the corpus directory."""

    corpus: str | None = None
    _refs: tuple | None = None

    def refs(self):
        if self._refs is None:
            from .kg import load_corpus_refs

            assert self.corpus, "stage needs `corpus:` for broadcast sides"
            self._refs = load_corpus_refs(self.corpus)
        return self._refs


STAGE_REGISTRY: dict = {}


def register(name: str):
    def deco(fn):
        STAGE_REGISTRY[name] = fn
        return fn
    return deco


@register("extract")
def _stage_extract(ds, ctx):
    from ..stages.extract import extract_pages

    return ds.map_batches(extract_pages, batch_format="pyarrow")


@register("explode")
def _stage_explode(ds, ctx):
    from ..stages.sentences import explode_sentences

    return ds.map_batches(explode_sentences, batch_format="pyarrow")


@register("filter_length")
def _stage_filter_length(ds, ctx, max_tokens: int = 510, train: bool = True,
                         mode: str = "drop"):
    from ..stages.sentences import filter_by_length

    return filter_by_length(ds, max_tokens=max_tokens, train=train,
                            mode=mode)


@register("retrieve_attach")
def _stage_retrieve_attach(ds, ctx, min_rank: int = 0,
                           max_rank: int | None = None):
    from .kg import _kernel_map

    ctx.refs()  # fails early without `corpus:`
    return _kernel_map(ds, ctx.corpus, mode="aug", min_rank=min_rank,
                       max_rank=max_rank)


@register("mentions")
def _stage_mentions(ds, ctx, backend: str = "trie"):
    """Fused retrieve+tag+link mentions; ``backend``: trie | viterbi |
    iter2 (entity-boosted second retrieval pass)."""
    from .kg import _kernel_map

    if backend not in ("trie", "viterbi", "iter2"):
        raise KeyError(f"unknown mentions backend {backend!r}")
    ctx.refs()
    return _kernel_map(ds, ctx.corpus, mode="mentions", backend=backend)


@register("rerank_contexts")
def _stage_rerank_contexts(ds, ctx, k: int = 10, fetch_k: int = 30):
    """Retrieve-then-rerank contexts: the kernel's ``reranked`` emitter."""
    from .kg import _kernel_map

    ctx.refs()
    return _kernel_map(ds, ctx.corpus, mode="reranked", k=k,
                       fetch_k=fetch_k)


@register("triples")
def _stage_triples(ds, ctx):
    from .kg import raw_triples

    ctx.refs()
    return raw_triples(ds, ctx.corpus)


@register("canonicalize")
def _stage_canonicalize(ds, ctx):
    from .kg import canonical_triples

    _kb_ref, _gaz_ref, ent_title = ctx.refs()
    return canonical_triples(ds, ent_title)


@register("langid")
def _stage_langid(ds, ctx):
    from ..stages.textstats import doc_langid

    return ds.map_batches(doc_langid, batch_format="pyarrow")


@register("dedup_exact")
def _stage_dedup_exact(ds, ctx):
    from ..stages.dedup import exact_dedup

    return exact_dedup(ds)


@register("quality_filter")
def _stage_quality_filter(ds, ctx):
    """Keep only docs passing the Gopher rule set (textstats
    doc_gopher_rules `keep`); output keeps the input schema."""
    import pyarrow.compute as pc

    from ..stages.textstats import doc_gopher_rules

    def keep(t):
        flags = doc_gopher_rules(t.select(["doc_id", "text"]))
        return t.filter(pc.equal(flags["keep"], 1))

    return ds.map_batches(keep, batch_format="pyarrow")


@register("quality_buckets")
def _stage_quality_buckets(ds, ctx, keep: str = ""):
    """CCNet head/middle/tail partitioning by exact perplexity tertiles
    (stages/selection.py).  With ``keep`` set (e.g. "head" or
    "head,middle") the stage FILTERS the doc stream to those buckets —
    the CCNet use: train on the head; otherwise it returns the labeled
    (doc_id, nll_bp, bucket) table."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.selection import quality_buckets
    from ..stages.textstats import unigram_ppl

    labeled = quality_buckets(unigram_ppl(ds.select_columns(
        ["doc_id", "text"])), "nll_bp")
    if not keep:
        return labeled
    wanted = pa.array([s.strip() for s in keep.split(",") if s.strip()],
                      pa.string())

    def in_buckets(t):
        return t.filter(pc.is_in(t["bucket"], value_set=wanted))

    good = labeled.map_batches(in_buckets, batch_format="pyarrow")
    # the kept-id set grows WITH the corpus (it is ~|corpus|*2/3 ids), so
    # it must not be broadcast: bucketed semi-join on doc_id instead
    from ..stages.joins import semi_join

    return semi_join(ds, good.select_columns(["doc_id"]), on="doc_id")


@register("passage_dedup")
def _stage_passage_dedup(ds, ctx, n: int = 10, min_docs: int = 2):
    """ExactSubstr apply: cut non-canonical repeated-passage occurrences
    (Lee et al. 2022); input needs (doc_id, text)."""
    from ..stages.dedup import remove_repeated_passages

    return remove_repeated_passages(ds, n=n, min_docs=min_docs)


@register("near_dup_keep")
def _stage_near_dup_keep(ds, ctx, method: str = "jaccard",
                         threshold: float | None = None,
                         max_dist: int = 3):
    """Near-dup dedup-apply: pair generation (``method``: jaccard |
    minhash | simhash) -> connected components -> drop every
    non-canonical cluster member.  ``threshold`` applies to the
    similarity methods (jaccard/minhash); simhash is Hamming-bounded and
    takes ``max_dist`` instead — passing ``threshold`` with simhash
    raises rather than being silently ignored."""
    from ..stages.components import near_dup_keep
    from ..stages.dedup import (minhash_lsh_pairs_inband,
                                ngram_jaccard_pairs, simhash_near_dups)

    docs = ds.materialize()  # feeds both the pair generator and the keep
    if method == "jaccard":
        pairs = ngram_jaccard_pairs(
            docs, threshold=0.75 if threshold is None else threshold)
    elif method == "minhash":
        pairs = minhash_lsh_pairs_inband(
            docs, threshold=0.8 if threshold is None else threshold)
    elif method == "simhash":
        if threshold is not None:
            raise ValueError(
                "near_dup_keep(method='simhash') is Hamming-bounded: "
                "use max_dist, not threshold")
        pairs = simhash_near_dups(docs, max_dist=max_dist)
    else:
        raise ValueError(f"unknown near-dup method {method!r}")
    return near_dup_keep(docs, pairs)


@register("decontaminate")
def _stage_decontaminate(ds, ctx, benchmark: str = "", n: int = 8):
    """Flag docs overlapping a benchmark parquet (path in ``benchmark``)
    by word n-gram; broadcast-small-side plan (see dedup.decontaminate)."""
    import ray.data as rd

    from ..stages.dedup import decontaminate

    assert benchmark, "decontaminate stage needs `benchmark:` parquet path"
    return decontaminate(ds, rd.read_parquet(benchmark), n=n)


@register("line_dedup")
def _stage_line_dedup(ds, ctx):
    """C4-style cross-document line dedup with first-occurrence rewrite
    (round 5); input needs (doc_id, text)."""
    from ..stages.dedup import line_dedup

    return line_dedup(ds)


@register("temperature_sample")
def _stage_temperature_sample(ds, ctx, alpha: float = 0.3,
                              group_col: str = "lang",
                              id_col: str = "doc_id"):
    """mBERT/XLM-R temperature resampling over any group column:
    deterministic downsample-only rates (n_min/n_g)^(1-alpha)
    (stages/selection.py temperature_sample)."""
    from ..stages.selection import temperature_sample

    return temperature_sample(ds, alpha, group_col, id_col)


@register("pack_sequences")
def _stage_pack_sequences(ds, ctx, seq_len: int = 2048,
                          n_shards: int | None = None):
    """GPT/T5 concat-and-chunk packing index over (doc_id, text)."""
    from ..stages.packing import pack_training_sequences

    return pack_training_sequences(ds, seq_len=seq_len, n_shards=n_shards)


@register("shuffle_index")
def _stage_shuffle_index(ds, ctx, id_col: str = "doc_id",
                         n_shards: int | None = None):
    """Deterministic training-order (shard, pos) index (round 5)."""
    from ..stages.partitioning import deterministic_shuffle

    return deterministic_shuffle(ds, id_col=id_col, n_shards=n_shards)


@register("pii_scrub")
def _stage_pii_scrub(ds, ctx):
    """Redact emails/phones/IPv4 in `text` (C4/Dolma privacy pass):
    vectorized RE2 kernels, zero shuffles; keeps all input columns and
    per-doc PII counts (round 5)."""
    import pyarrow as pa

    from ..stages.textstats import pii_redact

    def scrub(t: pa.Table) -> pa.Table:
        red = pii_redact(t)
        out = t.set_column(t.schema.get_field_index("text"), "text",
                           red["redacted"])
        for c in ("n_emails", "n_phones", "n_ips"):
            out = out.append_column(c, red[c])
        return out

    return ds.map_batches(scrub, batch_format="pyarrow")


@register("quality_classifier")
def _stage_quality_classifier(ds, ctx, min_bp: int = 5000):
    """Frozen linear quality-model filter: keep docs with clf_bp >=
    min_bp (fastText/CCNet inference dataflow, round 5)."""
    import pyarrow as pa

    from ..stages.textstats import quality_classifier

    def keep(t: pa.Table) -> pa.Table:
        clf = quality_classifier(t)
        import pyarrow.compute as _pc

        return t.filter(_pc.greater_equal(clf["clf_bp"], min_bp))

    return ds.map_batches(keep, batch_format="pyarrow")


@register("dsir_weights")
def _stage_dsir_weights(ds, ctx, target_lang: str = "en"):
    """DSIR hashed-bigram importance weights over (doc_id, text, lang)
    (round 5)."""
    from ..stages.dsir import dsir_weights

    return dsir_weights(ds, target_lang=target_lang)


@register("snapshot_dedup")
def _stage_snapshot_dedup(ds, ctx, snapshot: str = "",
                          bloom_bits: int = 1 << 20):
    """Bloom-gated incremental dedup of the incoming dataset against a
    prior-snapshot parquet of (doc_id, text) (round 5)."""
    import ray.data as rd

    from ..stages.dedup import snapshot_delta_dedup

    assert snapshot, "snapshot_dedup stage needs `snapshot:` parquet path"
    return snapshot_delta_dedup(rd.read_parquet(snapshot), ds,
                                bloom_bits=bloom_bits)


@register("doc_context")
def _stage_doc_context(ds, ctx, doc_col: str = "url",
                       order_col: str = "sent_id", text_col: str = "text",
                       budget: int | None = None,
                       pre_grouped: bool = False):
    """FLERT-style document-context attach over a sentences dataset."""
    from ..stages.doccontext import DOC_CONTEXT_BUDGET, \
        attach_document_context

    return attach_document_context(
        ds, doc_col=doc_col, order_col=order_col, text_col=text_col,
        budget=budget or DOC_CONTEXT_BUDGET, pre_grouped=pre_grouped)


def build_pipeline(cfg: PipelineConfig):
    """Config -> lazy Dataset (caller consumes / writes).  The input read
    is the plan's root, run at the width the cluster gives it
    (``partitioning.run_at_width``)."""
    import ray.data as rd

    from ..stages.partitioning import run_at_width

    ctx = PipelineContext(corpus=cfg.corpus)
    ds = run_at_width(rd.read_parquet(cfg.input_path))
    for sc in cfg.stages:
        if sc.name not in STAGE_REGISTRY:
            raise KeyError(
                f"unknown stage {sc.name!r}; known: "
                f"{sorted(STAGE_REGISTRY)}")
        ds = STAGE_REGISTRY[sc.name](ds, ctx, **sc.params)
    return ds


def run_pipeline(cfg: PipelineConfig) -> int:
    """Build, optionally write, and return the row count.

    ``resumable: true`` routes to the checkpointed per-partition KG run
    (manifest/lineage, skip-finished-partitions) instead of the stage chain.
    """
    if cfg.resumable:
        from .run import run_resumable

        assert cfg.corpus and cfg.output_path, \
            "resumable runs need `corpus:` and `output:`"
        res = run_resumable(cfg.corpus, cfg.output_path,
                            n_partitions=cfg.n_partitions)
        return res["n_triples"]
    ds = build_pipeline(cfg)
    if cfg.output_path:
        ds.write_parquet(cfg.output_path)
        import glob

        import pyarrow.parquet as pq

        return sum(pq.ParquetFile(f).metadata.num_rows
                   for f in glob.glob(cfg.output_path + "/*.parquet"))
    return ds.count()
