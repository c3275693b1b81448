"""Per-layer spans and counters for the traced benchmark run.

The program is not instrumented.  Each flagship layer is timed from outside
by wrapping the public function the pipeline calls into it:

    extract       stages.extract.extract_pages
    explode       stages.sentences.explode_sentences
    tagger        stages.tagger.retrieve_tag_triples_shared (kg_triples)
                  and stages.tagger.RetrieveTagTriples (run_resumable)
    bm25          state.bm25.MultiLangKBIndex.search
    attach        data.oracle.attach_contexts_cached
    gazetteer     state.gazetteer.Gazetteer.mentions_via_codec
    link          data.oracle.link_mention
    canonicalize  stages.canonicalize partial_link_counts,
                  compute_canonical_map and apply_canonical
    manifest      state.manifest.write_partition_streamed

Span times are CPU seconds of the calling thread (``time.thread_time``):
the worker processes share the cores, so a wall-clock span would also count
the time another process held the core.  A span's self time excludes the
spans opened inside it.  Driver-side spans also exclude the Ray jobs they
block on (``ray.job``), whose work the worker-side spans count.

``patch_driver`` routes the pipeline's calls through the wrappers below;
they are pickled by reference, so each worker imports this module and
``install`` patches the kernels there.  Every process keeps its own ledger
and rewrites it to ``$PERFBENCH_TRACE_DIR/<pid>.json`` after each batch;
``snapshot`` sums the files, and the driver takes the difference of two
snapshots around a job.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from kb_ner_ray.data import oracle
from kb_ner_ray.pipelines import kg, run
from kb_ner_ray.stages import canonicalize, tagger
from kb_ner_ray.stages.extract import extract_pages as _extract
from kb_ner_ray.stages.sentences import explode_sentences as _explode
from kb_ner_ray.state import manifest
from kb_ner_ray.state.bm25 import MultiLangKBIndex
from kb_ner_ray.state.gazetteer import Gazetteer

TRACE_ENV = "PERFBENCH_TRACE_DIR"
KINDS = ("self", "busy", "count")

# The originals, bound when this module is first imported in a process,
# before any patching.
_tag_shared = tagger.retrieve_tag_triples_shared
_partial = canonicalize.partial_link_counts
_canon_map = canonicalize.compute_canonical_map
_apply = canonicalize.apply_canonical
_write_part = manifest.write_partition_streamed
_partition_done = manifest.partition_done
_search = MultiLangKBIndex.search
_mentions = Gazetteer.mentions_via_codec
_attach = oracle.attach_contexts_cached
_link = oracle.link_mention
_tagger_init = tagger.RetrieveTagTriples.__init__
_sentence_triples = tagger.RetrieveTagTriples._sentence_triples

# Per-process ledger.  It is module state on purpose: each Ray worker is a
# separate process, and the wrappers run there with no handle to pass.
_SELF: dict = defaultdict(float)
_BUSY: dict = defaultdict(float)
_COUNT: dict = defaultdict(int)
_OPEN: list = []  # CPU time of the child spans of each open span
_INSTALLED = False


def _timed(name: str, fn, *args, **kwargs):
    _OPEN.append(0.0)
    t0 = time.thread_time()
    try:
        return fn(*args, **kwargs)
    finally:
        dt = time.thread_time() - t0
        _BUSY[name] += dt
        _SELF[name] += dt - _OPEN.pop()
        if _OPEN:
            _OPEN[-1] += dt


def _flush() -> None:
    d = os.environ.get(TRACE_ENV)
    if not d:
        return
    path = os.path.join(d, f"{os.getpid()}.json")
    with open(path + ".tmp", "w") as f:
        json.dump({"self": _SELF, "busy": _BUSY, "count": _COUNT}, f)
    os.replace(path + ".tmp", path)


def snapshot(trace_dir: str) -> dict:
    """The ledgers of every traced process, summed."""
    tot = {k: defaultdict(float) for k in KINDS}
    for name in os.listdir(trace_dir):
        if name.endswith(".json"):
            with open(os.path.join(trace_dir, name)) as f:
                led = json.load(f)
            for kind in KINDS:
                for key, v in led[kind].items():
                    tot[kind][key] += v
    return tot


def diff(after: dict, before: dict) -> dict:
    return {kind: {key: v - before[kind].get(key, 0)
                   for key, v in after[kind].items()} for kind in KINDS}


# ---- kernels, patched inside the worker processes ------------------------

def _traced_search(self, *args, **kwargs):
    hits = _timed("bm25", _search, self, *args, **kwargs)
    _COUNT["bm25.queries"] += 1
    if not hits:
        _COUNT["bm25.zero_hit"] += 1
    return hits


def _traced_attach(sentence, hits_pre, *args, **kwargs):
    aug, n = _timed("attach", _attach, sentence, hits_pre, *args, **kwargs)
    _COUNT["attach.contexts"] += n
    _COUNT["attach.aug_tokens"] += len(aug.split())
    return aug, n


def _traced_mentions(self, tokens, *args, **kwargs):
    spans = _timed("gazetteer", _mentions, self, tokens, *args, **kwargs)
    # the sentence is the part of the augmented tokens before "<EOS>"
    n_sent = tokens.index("<EOS>") if "<EOS>" in tokens else len(tokens)
    _COUNT["gazetteer.tokens_scanned"] += len(tokens)
    _COUNT["gazetteer.mentions"] += sum(1 for s in spans if s[1] <= n_sent)
    return spans


def _traced_link(surface_tokens, sent_tokens, gaz, *args, **kwargs):
    ent = _timed("link", _link, surface_tokens, sent_tokens, gaz,
                 *args, **kwargs)
    _COUNT["link.linked" if ent >= 0 else "link.nil"] += 1
    if len(gaz.candidates.get(tuple(surface_tokens), ())) > 1:
        _COUNT["link.ambiguous"] += 1
    return ent


def _traced_tagger_init(self, *args, **kwargs):
    _timed("tagger.state_build", _tagger_init, self, *args, **kwargs)


def _traced_sentence_triples(self, *args, **kwargs):
    _COUNT["tagger.memo_misses"] += 1
    return _sentence_triples(self, *args, **kwargs)


def install() -> None:
    """Patch the per-sentence kernels in this process (idempotent)."""
    global _INSTALLED
    if _INSTALLED:
        return
    _INSTALLED = True
    MultiLangKBIndex.search = _traced_search
    Gazetteer.mentions_via_codec = _traced_mentions
    tagger.attach_contexts_cached = _traced_attach
    tagger.link_mention = _traced_link
    tagger.RetrieveTagTriples.__init__ = _traced_tagger_init
    tagger.RetrieveTagTriples._sentence_triples = _traced_sentence_triples


# ---- layer entry points, called by the pipeline --------------------------

def _memo_hits(batch: pa.Table, memo: dict, cap: int) -> int:
    """Rows the tagger's per-worker memo will serve: keys memoized before
    the batch, plus repeats of a new key while the memo has room (it
    freezes when full).  Counted from outside, so that ``hits + misses ==
    sentences`` checks the memo rather than restating it."""
    texts = batch.column("text").to_pylist()
    langs = (batch.column("lang").to_pylist()
             if "lang" in batch.column_names else [None] * len(texts))
    room = cap - len(memo)
    new: set = set()
    hits = 0
    for key in zip(texts, langs):
        if key in memo or key in new:
            hits += 1
        elif room > 0:
            new.add(key)
            room -= 1
    return hits


def _count_tagger(batch: pa.Table, hits: int, out: pa.Table) -> None:
    _COUNT["tagger.sentences"] += batch.num_rows
    _COUNT["tagger.memo_hits"] += hits
    _COUNT["tagger.triples"] += out.num_rows
    _flush()


def extract_pages(batch: pa.Table) -> pa.Table:
    install()
    out = _timed("extract", _extract, batch)
    _COUNT["extract.pages"] += batch.num_rows
    _COUNT["extract.html_bytes"] += int(
        pc.sum(pc.binary_length(batch["html"])).as_py() or 0)
    empty = pc.equal(pc.utf8_trim_whitespace(out["text"]), "")
    _COUNT["extract.empty_pages"] += int(
        pc.sum(pc.cast(empty, "int64")).as_py() or 0)
    _flush()
    return out


def explode_sentences(batch: pa.Table) -> pa.Table:
    install()
    out = _timed("explode", _explode, batch)
    _COUNT["explode.sentences"] += out.num_rows
    _flush()
    return out


def retrieve_tag_triples_shared(batch: pa.Table, kb_ref=None, gaz_ref=None,
                                shards=None) -> pa.Table:
    install()
    st = tagger._TASK_STATE.get((kb_ref, gaz_ref))
    if st is None:
        memo = {}
        cap = int(os.environ.get("GRAFT_MEMO_CAP")
                  or tagger.RetrieveTagTriples.MEMO_CAP)
    else:
        memo, cap = st._memo, st.MEMO_CAP
    hits = _memo_hits(batch, memo, cap)
    out = _timed("tagger", _tag_shared, batch, kb_ref=kb_ref,
                 gaz_ref=gaz_ref, shards=shards)
    _count_tagger(batch, hits, out)
    return out


class RetrieveTagTriples(tagger.RetrieveTagTriples):
    """The actor-pool tagger of ``run_resumable``, traced."""

    def __init__(self, gaz_ref, kb_ref):
        install()
        super().__init__(gaz_ref, kb_ref)
        _flush()

    def __call__(self, batch: pa.Table) -> pa.Table:
        hits = _memo_hits(batch, self._memo, self.MEMO_CAP)
        out = _timed("tagger", super().__call__, batch)
        _count_tagger(batch, hits, out)
        return out


def partial_link_counts(batch: pa.Table) -> pa.Table:
    out = _timed("canonicalize.partial", _partial, batch)
    _COUNT["canonicalize.partial_rows"] += out.num_rows
    _flush()
    return out


def apply_canonical(batch: pa.Table, canon_ref=None) -> pa.Table:
    out = _timed("canonicalize.apply", _apply, batch, canon_ref=canon_ref)
    _flush()
    return out


def compute_canonical_map(raw_triples, ent_title: dict) -> dict:
    canon = _timed("canonicalize.map", _canon_map, raw_triples, ent_title)
    _COUNT["canonicalize.map_size"] += len(canon)
    _flush()
    return canon


def write_partition_streamed(out_dir: str, part_id: int, ds,
                             fingerprint: str) -> dict:
    counters = _timed("manifest.write", _write_part, out_dir, part_id, ds,
                      fingerprint)
    final = os.path.join(out_dir, f"part={part_id:04d}")
    _COUNT["manifest.partitions_written"] += 1
    _COUNT["manifest.bytes_written"] += sum(
        os.path.getsize(os.path.join(final, f)) for f in os.listdir(final))
    _flush()
    return counters


def partition_done(out_dir: str, part_id: int, fingerprint: str) -> bool:
    done = _partition_done(out_dir, part_id, fingerprint)
    if done:
        _COUNT["manifest.partitions_skipped"] += 1
    return done


def _job(method):
    def traced(self, *args, **kwargs):
        return _timed("ray.job", method, self, *args, **kwargs)
    return traced


def patch_driver():
    """Route the pipeline's calls into each layer through the wrappers
    above.  Returns a function that restores the originals."""
    targets = [
        (kg, "extract_pages", extract_pages),
        (kg, "explode_sentences", explode_sentences),
        (kg, "retrieve_tag_triples_shared", retrieve_tag_triples_shared),
        (kg, "compute_canonical_map", compute_canonical_map),
        (kg, "apply_canonical", apply_canonical),
        (run, "extract_pages", extract_pages),
        (run, "explode_sentences", explode_sentences),
        (run, "RetrieveTagTriples", RetrieveTagTriples),
        (run, "compute_canonical_map", compute_canonical_map),
        (run, "apply_canonical", apply_canonical),
        (run, "write_partition_streamed", write_partition_streamed),
        (run, "partition_done", partition_done),
        (canonicalize, "partial_link_counts", partial_link_counts),
    ]
    targets += [(Dataset, m, _job(getattr(Dataset, m)))
                for m in ("materialize", "to_pandas", "write_parquet")]
    saved = [(obj, name, getattr(obj, name)) for obj, name, _ in targets]
    for obj, name, fn in targets:
        setattr(obj, name, fn)

    def restore() -> None:
        for obj, name, fn in saved:
            setattr(obj, name, fn)
    return restore
