"""Resumable end-to-end run: pages -> per-partition raw triples (checkpointed
with lineage manifests) -> global canonicalization -> final triples Parquet.

Split of labour (see state/manifest.py):

* the HEAVY, corpus-sized work (extract/explode/retrieve/tag/link) is
  checkpointed per input partition — a rerun anti-joins manifests vs input
  fingerprints and recomputes only missing/stale partitions;
* the LIGHT, vocabulary-sized canonicalization + final write is recomputed
  every run (it depends on corpus-wide link counts, and costs seconds).

Each partition manifest records its row count and two counters recovered
from the written files, ``n_raw_triples`` and ``n_linked_sides``.
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray

from ..stages.canonicalize import apply_canonical, compute_canonical_map
# unused here; perfbench/layers.py patch_driver reads and patches these
# names (the pages are read through kg.sentences_dataset)
from ..stages.extract import extract_pages  # noqa: F401
from ..stages.sentences import explode_sentences  # noqa: F401
from ..stages.tagger import RetrieveTagTriples  # noqa: F401
from ..state.manifest import (
    input_fingerprint,
    partition_done,
    read_manifests,
    write_partition_streamed,
)
from .kg import load_corpus_refs, raw_triples, sentences_dataset


def _partition_files(corpus: str, n_partitions: int) -> list[list[str]]:
    files = sorted(glob.glob(corpus + "/pages/*.parquet"))
    n_partitions = min(n_partitions, len(files))
    groups: list[list[str]] = [[] for _ in range(n_partitions)]
    for i, f in enumerate(files):
        groups[i % n_partitions].append(f)
    return groups


def run_resumable(corpus: str, out_dir: str, n_partitions: int = 8) -> dict:
    """Returns {'computed': [...], 'skipped': [...], 'n_triples': int}."""
    _kb_ref, _gaz_ref, ent_title = load_corpus_refs(corpus)
    raw_dir = os.path.join(out_dir, "raw")
    os.makedirs(raw_dir, exist_ok=True)

    computed, skipped = [], []
    for part_id, files in enumerate(_partition_files(corpus, n_partitions)):
        fp = input_fingerprint(files)
        if partition_done(raw_dir, part_id, fp):
            skipped.append(part_id)
            continue
        # lazy: a partition's triples stream into the writer and never
        # ride through the driver
        ds = raw_triples(sentences_dataset(files), corpus)
        write_partition_streamed(raw_dir, part_id, ds, fp)
        computed.append(part_id)

    # global canonicalization over all checkpointed raw triples
    raw_ds = ray.data.read_parquet(
        sorted(glob.glob(raw_dir + "/part=*/*.parquet")))
    canon = compute_canonical_map(raw_ds, ent_title)
    final = raw_ds.map_batches(
        apply_canonical, fn_kwargs={"canon_ref": ray.put(canon)},
        batch_format="pyarrow")
    # final write: build fresh (a rerun must not append to last run's
    # files), move the previous output aside, swap the new one in, then
    # drop the old one.  A crash at any point leaves one complete output:
    # triples/, or triples.old/ between the two renames
    final_dir = os.path.join(out_dir, "triples")
    tmp_dir, old_dir = final_dir + ".tmp", final_dir + ".old"
    import shutil

    shutil.rmtree(tmp_dir, ignore_errors=True)
    os.makedirs(tmp_dir, exist_ok=True)
    final.write_parquet(tmp_dir)
    if os.path.isdir(final_dir):
        shutil.rmtree(old_dir, ignore_errors=True)
        os.rename(final_dir, old_dir)
    os.replace(tmp_dir, final_dir)
    shutil.rmtree(old_dir, ignore_errors=True)
    n = sum(m["n_rows"] for m in read_manifests(raw_dir))
    return {"computed": computed, "skipped": skipped, "n_triples": n}


def load_final_triples(out_dir: str) -> pa.Table:
    """The last complete final output: triples/, or triples.old/ when a
    run crashed between moving it aside and swapping the new one in."""
    final_dir = os.path.join(out_dir, "triples")
    if not os.path.isdir(final_dir):
        final_dir += ".old"
    files = sorted(glob.glob(os.path.join(final_dir, "*.parquet")))
    return pa.concat_tables([pq.read_table(f) for f in files])
