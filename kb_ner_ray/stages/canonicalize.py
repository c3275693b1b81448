"""Distributed entity canonicalization (north-star stage 4; SURVEY.md §7.9).

Three phases, shuffle-light by construction:

1. **Partial count** (plain tasks, no shuffle): per block, pre-aggregate
   (normalized_surface, ent_id) link counts from the raw-triple sides — the
   combiner pattern from the Ray guide, so the combine only ever sees one
   row per (surface, ent) per task, not one per mention.  Arrow groups the
   raw (surface, ent) pairs first, so ``normalize_surface`` runs once per
   distinct pair (a block holds a few hundred against thousands of
   sides), and the normalized keys are grouped again.
2. **Global count** (``combine_link_counts``, on the driver): group and sum
   the tiny partials; result size is bounded by the entity vocabulary, NOT
   the corpus, so collecting it on the driver is safe at any corpus scale.
   Surface-key skew ("hot surfaces", north rule) is absorbed by phase 1:
   a hot surface contributes at most one row per task.  ``run_resumable``
   keeps each partition's combined counts beside its manifest, so its
   global count is one more combine over those, with no raw-triple rescan.
3. **Apply** (no shuffle): broadcast the surface->canonical dict
   (functions/canon.py kernel) via ``ray.put`` and map both triple sides,
   one plain task per raw-triple block (``kg.canonical_triples``) or per
   raw-triple file (``run_resumable``, whose tasks write their result).
   Each side is dictionary-encoded, only its distinct surfaces are named,
   and the names are taken back to the rows.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..functions.canon import build_canonical_map
from ..functions.text import normalize_surface
from .partitioning import default_buckets, resolve, worker_state

# the raw-triple columns the link counts are read from, and their schema
SIDE_COLUMNS = ["subj_surface", "subj_ent", "obj_surface", "obj_ent"]
LINK_COUNTS_SCHEMA = pa.schema([("surface", pa.string()),
                                ("ent_id", pa.int64()), ("cnt", pa.int64())])


def partial_link_counts(batch: pa.Table) -> pa.Table:
    """Raw triples batch -> distinct (surface, ent, cnt) partial counts of
    its linked sides (ent >= 0), surfaces normalized."""
    sides = pa.concat_tables([
        pa.table({"surface": batch[surf], "ent_id": batch[ent]})
        for surf, ent in (("subj_surface", "subj_ent"),
                          ("obj_surface", "obj_ent"))])
    sides = sides.filter(pc.greater_equal(sides["ent_id"], 0))
    raw = sides.group_by(["surface", "ent_id"], use_threads=False).aggregate(
        [("ent_id", "count")])
    norm = pa.array(map(normalize_surface, raw["surface"].to_pylist()),
                    pa.string())
    return combine_link_counts([pa.table(
        [norm, raw["ent_id"], raw["ent_id_count"]],
        schema=LINK_COUNTS_SCHEMA)])


def combine_link_counts(partials: list[pa.Table]) -> pa.Table:
    """Partial (surface, ent, cnt) tables -> one row per (surface, ent)
    with the summed count: the global combine, vocabulary-sized."""
    t = (pa.concat_tables(partials) if partials
         else LINK_COUNTS_SCHEMA.empty_table())
    agg = t.group_by(["surface", "ent_id"]).aggregate([("cnt", "sum")])
    return pa.table([agg["surface"], agg["ent_id"], agg["cnt_sum"]],
                    schema=LINK_COUNTS_SCHEMA)


def file_link_counts(files: list[str]) -> pa.Table:
    """The link counts of raw-triple Parquet files, combined."""
    return combine_link_counts([
        partial_link_counts(pq.read_table(f, columns=SIDE_COLUMNS))
        for f in files])


def canonical_map(partials: list[pa.Table],
                  ent_title: dict[int, str]) -> dict[str, str]:
    """Phase 2: partial link counts -> surface->canonical dict."""
    counts = combine_link_counts(partials)
    link_counts = {(s, e): n for s, e, n in zip(
        counts["surface"].to_pylist(), counts["ent_id"].to_pylist(),
        counts["cnt"].to_pylist())}
    return build_canonical_map(link_counts, ent_title)


@ray.remote
def _task_link_counts(count, *blocks: pa.Table) -> pa.Table:
    """One task's link counts: ``count`` over each block, combined."""
    return combine_link_counts([count(b) for b in blocks])


def compute_canonical_map(raw_triples, ent_title: dict[int, str]) -> dict[str, str]:
    """Phases 1+2: Dataset of raw triples -> surface->canonical dict.

    Plain tasks count the links of the Dataset's blocks, about one task
    per CPU, and the final combine runs on the driver: the partials are
    bounded by the entity vocabulary, NOT the corpus, so collecting them
    replaces a full Ray sort-shuffle whose fixed cost dwarfs the few
    thousand rows it would move.  ``partial_link_counts`` is looked up
    per call and shipped to the tasks, so a wrapped counter (the traced
    benchmark's) is the one they run."""
    refs = raw_triples.to_arrow_refs()
    n = min(len(refs), default_buckets(per_cpu=1, lo=1))
    return canonical_map(ray.get([
        _task_link_counts.remote(partial_link_counts, *refs[i::n])
        for i in range(n)]), ent_title)


# the raw-triple columns apply_canonical reads
APPLY_COLUMNS = ["subj_surface", "pred", "obj_surface", "url", "sent_id"]
_CANON_STATE: dict = {}  # apply_canonical's slot: canon_ref -> dict


def apply_canonical(batch: pa.Table, canon_ref=None) -> pa.Table:
    """Raw triples -> final (subj, pred, obj, url, sent_id, score).

    A plain task fn: the broadcast canonical map is fetched from the local
    object store once per worker process and kept in its own slot, so the
    kernel's state on the same worker is never evicted by it."""
    canon = worker_state(_CANON_STATE, canon_ref,
                         lambda: resolve(canon_ref))

    def names(col) -> pa.Array:
        codes = col.combine_chunks().dictionary_encode()
        return pa.array(
            [canon.get(n, n) for n in map(normalize_surface,
                                          codes.dictionary.to_pylist())],
            pa.string()).take(codes.indices)

    return pa.table(
        {
            "subj": names(batch.column("subj_surface")),
            "pred": batch.column("pred"),
            "obj": names(batch.column("obj_surface")),
            "url": batch.column("url"),
            "sent_id": batch.column("sent_id"),
            "score": pa.repeat(pa.scalar(1.0, pa.float32()), batch.num_rows),
        }
    )
