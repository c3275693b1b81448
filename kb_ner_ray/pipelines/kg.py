"""The flagship pages -> triples pipeline (SURVEY.md §3 E1-E3 re-expressed
Ray-Data-first; north-star stages 1-4).

Dataflow (one streaming pass, ZERO shuffles — the canonicalization combine
is vocabulary-sized and finishes on the driver):

    read_parquet(pages, columns pruned)
      -> map_batches(extract_pages)             stateless, drops html
      -> map_batches(explode_sentences)         stateless flat-map
      -> map_batches(retrieve_tag_triples_...)  FUSED retrieve+attach+tag+
                                                link+triple-emit as plain
                                                tasks with worker-local
                                                cached state; KB/gazetteer
                                                broadcast; memoized over
                                                duplicate (text, lang)
      -> [materialize raw triples — output-sized, consumed twice]
      -> canonicalize (per-batch partial counts -> driver combine -> map)
      -> map_batches(apply_canonical)           plain tasks, broadcast dict

The KB/gazetteer are ``ray.put`` ONCE per corpus per driver session and
resolved once per worker (broadcast join, never re-shipped per batch).
``raw_triples`` is the one sentences -> raw-triples stage: ``kg_triples``,
``run_resumable`` (pipelines/run.py) and the config ``triples`` stage all
build on it.  ``kernel_dataset`` runs the same kernel's other emitters for
the kg_contexts / kg_mentions inspection queries.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..data.synth import corpus_dir, sf_dir_to_sf
from ..stages.canonicalize import apply_canonical, compute_canonical_map
from ..stages.extract import extract_pages
from ..stages.sentences import explode_sentences
from ..stages.tagger import kernel_rows, retrieve_tag_triples_shared


def _read_table_dir(path: str):
    import glob

    files = sorted(glob.glob(path + "/*.parquet"))
    return pa.concat_tables([pq.read_table(f) for f in files])


_REFS_CACHE: dict = {}  # corpus path -> (kb_ref, gaz_ref, ent_title)


def load_corpus_refs(corpus: str):
    """Read the small (broadcast) sides and ray.put them ONCE per driver
    session — repeated pipeline runs reuse the same ObjectRefs, so worker-
    side caches keyed on the ref stay hot across runs."""
    hit = _REFS_CACHE.get(corpus)
    if hit is not None:
        return hit
    kb_rows = _read_table_dir(corpus + "/kb").to_pylist()
    gaz_rows = _read_table_dir(corpus + "/gazetteer").to_pylist()
    ent_title = {r["ent_id"]: r["title"] for r in kb_rows}
    out = (ray.put(kb_rows), ray.put(gaz_rows), ent_title)
    _REFS_CACHE[corpus] = out
    return out


def _sentences_batch_size(corpus: str) -> int:
    """batch_size for the fused read->extract->explode->heavy chain.

    Two distinct effects (both verified empirically):

    * TASK GRANULARITY - input-block BUNDLING counts the fused chain's
      INPUT rows (pages): tasks get ~batch_size pages each.  This is the
      dominant knob: ``ds.stats()`` at sf2.0/16cpu showed a 52-task run
      (3.2 waves) losing ~20% wall to the last-wave straggler tail.
    * SLICING - each inner map re-batches its own input rows (sentences
      after explode), so per-batch overhead inside a task also follows
      this value.

    Target ~12 page-bundles per CPU, clamped: the floor keeps tiny corpora
    from over-fragmenting (sf0.1/32cpu A/B: 256 pages 3.9s vs 93 pages
    4.2s vs 843 4.8s); the ceiling keeps per-task work bounded on small
    clusters (sf2.0/4cpu: 2048 pages 127.5s vs 4096+ 137-155s).  Parquet
    metadata gives page counts without reading data."""
    import glob

    try:
        total = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        total = 8
    n_pages = 0
    for f in glob.glob(corpus + "/pages/*.parquet"):
        n_pages += pq.ParquetFile(f).metadata.num_rows
    return int(max(256, min(2048, n_pages // (total * 12))))


def _label_pages(batch: pa.Table, labels: dict) -> pa.Table:
    """The ``path`` column of a page batch -> its file's ``part`` label."""
    idx = pc.index_in(batch["path"], value_set=pa.array(list(labels)))
    if idx.null_count:  # an unlabelled row would land in no partition
        raise ValueError(f"page path not in the partition labels: "
                         f"{batch['path'].filter(idx.is_null())[0]}")
    return batch.drop_columns(["path"]).append_column(
        "part", pa.array(list(labels.values()), pa.string()).take(idx))


def sentences_dataset(pages):
    """pages -> sentences Dataset (url, sent_id, text, lang[, part]).

    ``pages`` is a corpus directory (all of its pages/), a list of page
    Parquet files, or a dict of page file -> partition label.  Given a
    dict, the files are read once and every sentence row carries its
    file's label as a ``part`` string column, which extract, explode and
    the kernel pass through (``run_resumable``'s one job over all of its
    missing partitions)."""
    paths = pages + "/pages" if isinstance(pages, str) else list(pages)
    labels = pages if isinstance(pages, dict) else None
    ds = ray.data.read_parquet(paths,
                               columns=["url", "warc_ts", "html", "lang"],
                               include_paths=labels is not None)
    if labels is not None:
        ds = ds.map_batches(_label_pages, fn_kwargs={"labels": labels},
                            batch_format="pyarrow")
    return (
        ds.map_batches(extract_pages, batch_format="pyarrow")
        .map_batches(explode_sentences, batch_format="pyarrow")
    )


def _kernel_map(sents, corpus: str, fn, **kw):
    # batch_size bundles input pages into tasks and slices the inner
    # sentence stream (see _sentences_batch_size)
    kb_ref, gaz_ref, _ = load_corpus_refs(corpus)
    return sents.map_batches(
        fn, fn_kwargs={"gaz_ref": gaz_ref, "kb_ref": kb_ref, **kw},
        batch_format="pyarrow", batch_size=_sentences_batch_size(corpus))


def raw_triples(sents, corpus: str):
    """sentences -> RAW triples: the fused retrieve+attach+tag+link+emit
    kernel (stages/tagger.py) as plain tasks with worker-local state, so
    the heavy aug_text intermediate never enters the object store."""
    return _kernel_map(sents, corpus, retrieve_tag_triples_shared)


def kernel_dataset(corpus: str, mode: str, **kw):
    """The corpus sentences through one emitter of the same kernel
    (contexts | entity_contexts | mentions; see stages/tagger.py)."""
    return _kernel_map(sentences_dataset(corpus), corpus, kernel_rows,
                       mode=mode, **kw)


def canonical_triples(raw, ent_title: dict):
    """raw triples -> canonical triples: the driver-combined canonical
    map broadcast once, applied by plain tasks.  ``kg_triples`` and the
    config ``canonicalize`` stage both end here."""
    # raw triples are output-sized with two consumers (counts + apply):
    # object-store materialize (bounded at bench scale, fastest);
    # run_resumable is the path that checkpoints them to Parquet
    raw = raw.materialize()
    canon = compute_canonical_map(raw, ent_title)
    return raw.map_batches(
        apply_canonical,
        fn_kwargs={"canon_ref": ray.put(canon)},
        batch_format="pyarrow",
        batch_size=32768,  # re-bundle the many small materialized blocks
    )


def kg_triples(corpus: str):
    """Full pipeline; returns the final triples Dataset."""
    _kb_ref, _gaz_ref, ent_title = load_corpus_refs(corpus)
    return canonical_triples(
        raw_triples(sentences_dataset(corpus), corpus), ent_title)


def kg_triples_for_sf_dir(sf_dir: str, **kw):
    """Driver-facing wrapper: map an sf dir to the cached synthetic corpus."""
    return kg_triples(corpus_dir(sf_dir_to_sf(sf_dir)), **kw)
