"""Resumable end-to-end run: pages -> per-partition raw triples (checkpointed
with lineage manifests) -> global canonicalization -> final triples Parquet.

Split of labour (see state/manifest.py):

* the HEAVY, corpus-sized work (extract/explode/retrieve/tag/link) is
  checkpointed per input partition — a rerun anti-joins manifests vs input
  fingerprints (the partition's page files and the corpus's kb/ and
  gazetteer/ files, ``kg.sides_fingerprint``) and recomputes only
  missing/stale partitions;
* the LIGHT, vocabulary-sized canonicalization + final write is recomputed
  every run (it depends on corpus-wide link counts): the canonical map is
  combined on the driver, and one plain Ray task per raw file of the
  current split applies it and writes that file's final triples, so a
  rerun that computes nothing runs no Ray Data job.

One Ray Data job computes every missing partition: the pages of all of
them are read once, each row labelled with its partition in a ``part``
column that extract, explode and the kernel pass through, and the raw
triples are written once, hive-partitioned by ``part``, into this process's
staging dir ``raw/_staging.<pid>``, which the raw-triples glob does not
match.  One Ray task per partition counts its staged files' links.  Then
each partition lands on its own: its staged files move into a tmp dir, its
counters and link counts are written beside them, then its manifest, then
one rename publishes it.

Crash trade-off: a crash during the job recomputes, on the next run, every
partition that job had not landed yet (not only the one being written);
partitions landed by earlier runs are still skipped.

Each partition manifest records its row count and two counters recovered
from the written files, ``n_raw_triples`` and ``n_linked_sides``.  The
partition's combined link counts (``manifest.LINK_COUNTS``) sum to
``n_linked_sides``; the canonical map is one combine of those tables, so
no run rescans the raw triples to build it.  A partition landed without
that file (an older layout) is recomputed.  The canonical map and the final
output read only the partitions of the current split: a ``part=NNNN`` dir
left by an earlier run with more partitions duplicates pages the current
ones cover, and is ignored.
"""

from __future__ import annotations

import glob
import os
import shutil
from functools import partial

import pyarrow as pa
import pyarrow.parquet as pq
import ray

from ..data.schemas import TRIPLES
from ..stages.canonicalize import (
    APPLY_COLUMNS,
    apply_canonical,
    canonical_map,
    file_link_counts,
)
# unused here; perfbench/layers.py patch_driver reads and patches these
# names (the pages are read through kg.sentences_dataset, the partitions
# land through manifest.land_raw_partition)
from ..stages.canonicalize import compute_canonical_map  # noqa: F401
from ..stages.extract import extract_pages  # noqa: F401
from ..stages.sentences import explode_sentences  # noqa: F401
from ..stages.tagger import RetrieveTagTriples  # noqa: F401
from ..state.manifest import (
    LINK_COUNTS,
    input_fingerprint,
    land_raw_partition,
    partition_done,
    read_link_counts,
    write_partition_streamed,  # noqa: F401
)
from .kg import (load_corpus_refs, raw_triples, sentences_dataset,
                 sides_fingerprint)

_count_links = ray.remote(file_link_counts)


@ray.remote
def _write_final(apply, src: str, dst: str) -> int:
    """One raw-triples file -> its final triples file at ``dst``, a fixed
    name, so a retried task overwrites its file and never adds a second
    one.  Returns the row count."""
    final = apply(pq.read_table(src, columns=APPLY_COLUMNS))
    pq.write_table(final, dst)
    return final.num_rows


def _partition_files(corpus: str, n_partitions: int) -> list[list[str]]:
    files = sorted(glob.glob(corpus + "/pages/*.parquet"))
    n_partitions = min(n_partitions, len(files))
    groups: list[list[str]] = [[] for _ in range(n_partitions)]
    for i, f in enumerate(files):
        groups[i % n_partitions].append(f)
    return groups


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def _staging_dir(raw_dir: str) -> str:
    """This process's staging dir, emptied; staging dirs of processes that
    are gone (crashed runs) are dropped.  Per process, like
    ``manifest._tmp_dir``: a concurrent run over the same out_dir never
    deletes this run's staged files, so a partition with no staged dir is
    one the job wrote no rows for."""
    for d in glob.glob(os.path.join(raw_dir, "_staging.*")):
        pid = d.rsplit(".", 1)[1]
        if pid.isdigit() and not _alive(int(pid)):
            shutil.rmtree(d, ignore_errors=True)
    mine = os.path.join(raw_dir, f"_staging.{os.getpid()}")
    shutil.rmtree(mine, ignore_errors=True)
    return mine


def _move_files(files: list[str]):
    """A ``write(tmp)`` for the landing: move the staged files of one
    partition (none when it produced no triples) into its tmp dir."""
    def write(tmp: str) -> None:
        for f in files:
            os.replace(f, os.path.join(tmp, os.path.basename(f)))
    return write


def run_resumable(corpus: str, out_dir: str, n_partitions: int = 8) -> dict:
    """Returns {'computed': [...], 'skipped': [...], 'n_triples': int}."""
    _kb_ref, _gaz_ref, ent_title = load_corpus_refs(corpus)
    raw_dir = os.path.join(out_dir, "raw")
    os.makedirs(raw_dir, exist_ok=True)

    computed, skipped, fps, labels = [], [], {}, {}
    groups = _partition_files(corpus, n_partitions)
    # a partition's triples depend on its pages and on the broadcast sides
    sides = sides_fingerprint(corpus)
    for part_id, files in enumerate(groups):
        fp = f"{input_fingerprint(files)}:{sides}"
        if partition_done(raw_dir, part_id, fp) and os.path.exists(
                os.path.join(raw_dir, f"part={part_id:04d}", LINK_COUNTS)):
            skipped.append(part_id)
            continue
        computed.append(part_id)
        fps[part_id] = fp
        labels.update((f, f"{part_id:04d}") for f in files)

    if computed:
        # one job for every missing partition
        staging = _staging_dir(raw_dir)
        raw_triples(sentences_dataset(labels), corpus).write_parquet(
            staging, partition_cols=["part"])
        staged = {p: sorted(glob.glob(os.path.join(
            staging, f"part={p:04d}", "*.parquet"))) for p in computed}
        counts = {p: _count_links.remote(staged[p]) for p in computed}
        for part_id in computed:
            land_raw_partition(raw_dir, part_id, fps[part_id],
                               _move_files(staged[part_id]),
                               ray.get(counts[part_id]))
        # a job that wrote no rows at all leaves no staging dir behind
        shutil.rmtree(staging, ignore_errors=True)

    # global canonicalization: one combine of the partitions' link counts
    parts = [os.path.join(raw_dir, f"part={p:04d}")
             for p in range(len(groups))]
    canon = canonical_map([read_link_counts(d) for d in parts], ent_title)
    # final write: build fresh (a rerun must not append to last run's
    # files), move the previous output aside, swap the new one in, then
    # drop the old one.  A crash at any point leaves one complete output:
    # triples/, or triples.old/ between the two renames
    final_dir = os.path.join(out_dir, "triples")
    tmp_dir, old_dir = final_dir + ".tmp", final_dir + ".old"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    os.makedirs(tmp_dir, exist_ok=True)
    # one plain task per raw file.  ``apply_canonical`` is looked up per
    # call and shipped to the tasks, so a wrapped apply (the traced
    # benchmark's) is the one they run
    apply = partial(apply_canonical, canon_ref=ray.put(canon))
    raw_files = sorted(f for d in parts
                       for f in glob.glob(os.path.join(d, "*.parquet")))
    n = sum(ray.get([
        _write_final.remote(apply, f, os.path.join(
            tmp_dir, f"part-{i:05d}.parquet"))
        for i, f in enumerate(raw_files)]))
    if os.path.isdir(final_dir):
        shutil.rmtree(old_dir, ignore_errors=True)
        os.rename(final_dir, old_dir)
    os.replace(tmp_dir, final_dir)
    shutil.rmtree(old_dir, ignore_errors=True)
    return {"computed": computed, "skipped": skipped, "n_triples": n}


def load_final_triples(out_dir: str) -> pa.Table:
    """The last complete final output: triples/, or triples.old/ when a
    run crashed between moving it aside and swapping the new one in."""
    final_dir = os.path.join(out_dir, "triples")
    if not os.path.isdir(final_dir):
        final_dir += ".old"
    files = sorted(glob.glob(os.path.join(final_dir, "*.parquet")))
    if not files:  # a corpus that yields no triples
        return TRIPLES.empty_table()
    return pa.concat_tables([pq.read_table(f) for f in files])
