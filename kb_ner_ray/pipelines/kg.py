"""The flagship pages -> triples pipeline (SURVEY.md §3 E1-E3 re-expressed
Ray-Data-first; north-star stages 1-4).

Dataflow: ONE fused Ray Data operator, then a driver combine, then plain
tasks, with ZERO shuffles (the canonicalization combine is
vocabulary-sized and finishes on the driver):

    read_parquet(pages, columns pruned)        -+
      -> [map_batches(_label_pages)]            |  one fused operator:
      -> map_batches(extract_pages)             |  one task and one
      -> map_batches(explode_sentences)         |  kernel call per read
      -> map_batches(retrieve_tag_triples_...) -+  block
           retrieve+attach+tag+link+triple-emit with worker-local cached
           state; KB/gazetteer broadcast; memoized over duplicate
           (text, lang)
      -> [materialize raw triples -- output-sized, consumed twice]
      -> partial link counts (plain tasks) -> combine -> canonical map
                                                (on the driver)
      -> apply_canonical                        one plain task per raw
                                                block, map broadcast

Scheduling: the page read is the root of the fused operator's plan, and
``partitioning.run_at_width`` turns Ray Data's per-operator resource
reservation off on its context (the scheduling rule stated in
stages/partitioning.py).  With the reservation on, the operator's
first-estimate output budget admitted one kernel task at a time; without
it the operator runs a task per logical CPU.

The KB/gazetteer are ``ray.put`` ONCE per version of their files per
driver session and resolved once per worker (broadcast join, never
re-shipped per batch).
``raw_triples`` is the one sentences -> raw-triples stage: ``kg_triples``,
``run_resumable`` (pipelines/run.py) and the config ``triples`` stage all
build on it.  ``_kernel_map`` is the one map of a Dataset through the
kernel: the triples, the config kernel stages, the CoNLL augment and,
through ``kernel_dataset``, the kg_contexts / kg_mentions /
kg_contexts_reranked / kg_distant_supervision queries all go through it.
"""

from __future__ import annotations

import glob
import os
from functools import partial

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..data.synth import corpus_dir, sf_dir_to_sf
from ..stages.canonicalize import apply_canonical, compute_canonical_map
from ..stages.extract import extract_pages
from ..stages.partitioning import run_at_width
from ..stages.sentences import explode_sentences
from ..stages.tagger import kernel_rows, retrieve_tag_triples_shared
from ..state.manifest import input_fingerprint


def _read_table_dir(path: str):
    files = sorted(glob.glob(path + "/*.parquet"))
    return pa.concat_tables([pq.read_table(f) for f in files])


def sides_fingerprint(corpus: str) -> str:
    """Fingerprint of the corpus's broadcast sides, its kb/ and gazetteer/
    files.  Every output built from a corpus depends on them as well as
    on its pages: ``load_corpus_refs`` keys its refs on this, and the
    resumable run and the checkpoint runs mix it into the fingerprints
    of what they store."""
    return input_fingerprint([f for sub in ("kb", "gazetteer")
                              for f in glob.glob(os.path.join(
                                  corpus, sub, "*.parquet"))])


_REFS_CACHE: dict = {}  # sides_fingerprint -> (kb_ref, gaz_ref, ent_title)


def load_corpus_refs(corpus: str):
    """Read the small (broadcast) sides and ray.put them ONCE per driver
    session and version of their files — repeated pipeline runs reuse the
    same ObjectRefs, so worker-side caches keyed on the ref stay hot
    across runs, and a rewritten kb/ or gazetteer/ file is read afresh."""
    key = sides_fingerprint(corpus)
    hit = _REFS_CACHE.get(key)
    if hit is not None:
        return hit
    kb_rows = _read_table_dir(corpus + "/kb").to_pylist()
    gaz_rows = _read_table_dir(corpus + "/gazetteer").to_pylist()
    ent_title = {r["ent_id"]: r["title"] for r in kb_rows}
    out = (ray.put(kb_rows), ray.put(gaz_rows), ent_title)
    _REFS_CACHE[key] = out
    return out


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
    ds = run_at_width(ray.data.read_parquet(
        paths, columns=["url", "warc_ts", "html", "lang"],
        include_paths=labels is not None))
    if labels is not None:
        ds = ds.map_batches(_label_pages, fn_kwargs={"labels": labels},
                            batch_format="pyarrow")
    return (
        ds.map_batches(extract_pages, batch_format="pyarrow")
        .map_batches(explode_sentences, batch_format="pyarrow")
    )


def _kernel_map(sents, corpus: str, fn=kernel_rows, **kw):
    """``sents`` through ``fn``, the worker's kernel for ``corpus``'s
    broadcast sides (``kw``: the emitter's mode and its kwargs)."""
    # no batch_size: a minimum bundle size would keep Ray Data from fusing
    # the read into this operator, so each read block is one kernel call
    kb_ref, gaz_ref, _ = load_corpus_refs(corpus)
    return sents.map_batches(
        fn, fn_kwargs={"gaz_ref": gaz_ref, "kb_ref": kb_ref, **kw},
        batch_format="pyarrow")


def raw_triples(sents, corpus: str):
    """sentences -> RAW triples: the fused retrieve+attach+tag+link+emit
    kernel (stages/tagger.py) as plain tasks with worker-local state, so
    the heavy aug_text intermediate never enters the object store."""
    return _kernel_map(sents, corpus, retrieve_tag_triples_shared)


def kernel_dataset(corpus: str, mode: str, **kw):
    """The corpus sentences through one emitter of the same kernel
    (see ``SCHEMAS`` in stages/tagger.py)."""
    return _kernel_map(sentences_dataset(corpus), corpus, mode=mode, **kw)


@ray.remote
def _apply_block(apply, block: pa.Table) -> pa.Table:
    return apply(block)


def canonical_triples(raw, ent_title: dict):
    """raw triples -> canonical triples: the driver-combined canonical
    map broadcast once, applied by plain tasks.  ``kg_triples`` and the
    config ``canonicalize`` stage both end here."""
    # the raw triples have two consumers (the link counts, then the
    # apply), so they are materialized in the object store once, and one
    # plain task maps each of their blocks.  ``apply_canonical`` is looked
    # up per call and shipped to the tasks, so a wrapped apply (the traced
    # benchmark's) is the one they run
    raw = raw.materialize()
    canon_ref = ray.put(compute_canonical_map(raw, ent_title))
    apply = partial(apply_canonical, canon_ref=canon_ref)
    return ray.data.from_arrow_refs(
        [_apply_block.remote(apply, b) for b in raw.to_arrow_refs()])


def kg_triples(corpus: str):
    """Full pipeline; returns the final triples Dataset."""
    _kb_ref, _gaz_ref, ent_title = load_corpus_refs(corpus)
    return canonical_triples(
        raw_triples(sentences_dataset(corpus), corpus), ent_title)


def kg_triples_for_sf_dir(sf_dir: str):
    """Driver-facing wrapper: map an sf dir to the cached synthetic corpus."""
    return kg_triples(corpus_dir(sf_dir_to_sf(sf_dir)))
