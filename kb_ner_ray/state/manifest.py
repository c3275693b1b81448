"""Resumable partitioned-Parquet sink with per-partition lineage manifests
(north-rule requirement; generalizes the reference's intermediate-files-as-
checkpoints virtue, SURVEY.md §4 checkpoint row).

Layout:

    out_dir/
      part=<NNNN>/*.parquet           one directory per input partition
      part=<NNNN>/_MANIFEST.json      {partition, input_fingerprint,
                                       n_rows, counters, lineage,
                                       schema_version}
      part=<NNNN>/_LINK_COUNTS.arrow  raw-triples partitions only: the
                                       partition's (surface, ent_id, cnt)
                                       link counts, combined
      _scratch.<host>.<pid>/          a process's working dir

    triples/                          an output built from every partition
                                       (``run_resumable``'s, beside raw/)
      *.parquet
      _MANIFEST.json                  {input_fingerprint, n_rows, files,
                                       schema_version}

A partition's ``lineage`` names what it was computed from: ``inputs``, its
files (``path``, ``size``, ``mtime_ns``), and ``sides``, the fingerprint
of the broadcast sides it was computed against.  An output's
``input_fingerprint`` is ``digest`` of its partitions' fingerprints, and
``files`` the names of its data files.

This module is the only one that knows these names.  Every output lands
in two steps:

* ``scratch(parent)``: this process's working dir under ``parent``,
  created empty.  First it removes the scratch dirs that dead processes of
  this host left there; another host's are never touched, since a pid says
  nothing about another node's processes on shared storage.
* ``publish``: the manifest (and a raw partition's link counts) is written
  into a finished dir, and one rename (``swap_in``) makes it
  ``part=NNNN``.  ``publish_output`` lands an output built from every
  partition the same way.  ``swap_in`` moves an existing output aside to
  ``<name>.old`` first and drops it after, so a crash at any point leaves
  one complete output, which ``current`` finds.

Resume = re-list input partitions, skip those whose manifest exists AND
matches the input fingerprint (anti-join of manifests vs inputs); an
output whose manifest matches the digest of them all (``output_done``)
is not rebuilt.  A crashed write leaves only a scratch dir, which no
reader lists.
Fingerprints are taken from the input files' names, sizes and modification
times (never the clock at run time), so a rerun over unchanged inputs is
deterministic.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import re
import shutil
import socket

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.feather as feather
import pyarrow.parquet as pq

SCHEMA_VERSION = 1
MANIFEST = "_MANIFEST.json"
# a raw-triples partition's combined (surface, ent_id, cnt) link counts, an
# Arrow file: the raw-triples glob ``*.parquet`` does not match it
LINK_COUNTS = "_LINK_COUNTS.arrow"
_SCRATCH = "_scratch"


def label(part_id: int) -> str:
    """Partition ``part_id``'s label.  A Dataset whose rows carry it in a
    ``part`` column, written with ``partition_cols=["part"]``, leaves each
    partition's files in ``part_dir(<write dir>, part_id)``."""
    return f"{part_id:04d}"


def part_dir(parent: str, part_id: int) -> str:
    return os.path.join(parent, f"part={label(part_id)}")


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def scratch(parent: str) -> str:
    """This process's scratch dir under ``parent``, created empty, after
    the scratch dirs of this host's dead processes are removed.  A live
    process's dir is never touched, so concurrent runs over one ``parent``
    write disjoint dirs.  One landing at a time uses it."""
    host = socket.gethostname()
    os.makedirs(parent, exist_ok=True)
    for name in os.listdir(parent):
        kind, _, owner = name.partition(".")
        owner_host, _, pid = owner.rpartition(".")
        if (kind == _SCRATCH and owner_host == host and pid.isdigit()
                and not _alive(int(pid))):
            shutil.rmtree(os.path.join(parent, name), ignore_errors=True)
    mine = os.path.join(parent, f"{_SCRATCH}.{host}.{os.getpid()}")
    shutil.rmtree(mine, ignore_errors=True)
    os.makedirs(mine)
    return mine


def swap_in(src: str, final: str) -> None:
    """Rename the finished dir ``src`` to ``final``.  An existing ``final``
    moves aside to ``final.old`` first and is dropped after the rename, so
    a crash at any point leaves ``final`` or ``final.old`` complete."""
    old = final + ".old"
    if os.path.isdir(final):
        shutil.rmtree(old, ignore_errors=True)
        os.rename(final, old)
    os.replace(src, final)
    shutil.rmtree(old, ignore_errors=True)


def current(final: str) -> str:
    """The last complete output ``swap_in`` placed at ``final``: ``final``,
    or ``final.old`` when a run crashed between its two renames."""
    return final if os.path.isdir(final) else final + ".old"


def publish_file(src: str, path: str) -> None:
    """Move the finished file ``src`` of a scratch dir to ``path`` (one
    rename) and drop the scratch dir."""
    os.replace(src, path)
    shutil.rmtree(os.path.dirname(src), ignore_errors=True)


def input_fingerprint(paths: list[str]) -> str:
    """Fingerprint of an input partition: file names, sizes and
    modification times in ns (cheap, deterministic; a rename, or a rewrite
    even at the same size, invalidates the partition)."""
    h = hashlib.blake2b(digest_size=16)
    for p in sorted(paths):
        st = os.stat(p)
        h.update(p.encode())
        h.update(f"{st.st_size}:{st.st_mtime_ns}".encode())
    return h.hexdigest()


def lineage_of(paths: list[str], sides: str) -> dict:
    """What a partition is computed from: its input files, each with the
    size and modification time its fingerprint took, and ``sides``, the
    fingerprint of the broadcast sides."""
    inputs = []
    for p in paths:
        st = os.stat(p)
        inputs.append({"path": p, "size": st.st_size,
                       "mtime_ns": st.st_mtime_ns})
    return {"inputs": inputs, "sides": sides}


def digest(fingerprints: list[str]) -> str:
    """The fingerprint of an output built from partitions with these
    fingerprints, in partition order, under this ``SCHEMA_VERSION``."""
    h = hashlib.blake2b(digest_size=16)
    h.update(f"{SCHEMA_VERSION}".encode())
    for fp in fingerprints:
        h.update(f"\n{fp}".encode())
    return h.hexdigest()


def _manifest(d: str, fingerprint: str) -> dict | None:
    """The manifest of the dir ``d`` when it was written for
    ``fingerprint`` under this ``SCHEMA_VERSION``; None when it is
    missing, unreadable or stale."""
    try:
        with open(os.path.join(d, MANIFEST)) as f:
            m = json.load(f)
    except (OSError, json.JSONDecodeError):
        return None
    if (m.get("input_fingerprint") == fingerprint
            and m.get("schema_version") == SCHEMA_VERSION):
        return m
    return None


def _write_manifest(d: str, **fields) -> None:
    with open(os.path.join(d, MANIFEST), "w") as f:
        json.dump(dict(fields, schema_version=SCHEMA_VERSION), f,
                  sort_keys=True)


def partition_done(out_dir: str, part_id: int, fingerprint: str) -> bool:
    return _manifest(part_dir(out_dir, part_id), fingerprint) is not None


def output_done(final: str, fingerprint: str) -> dict | None:
    """The manifest of the output ``publish_output`` placed at ``final``
    (never ``final.old``), when it was built for ``fingerprint`` and
    every file it names exists; else None."""
    m = _manifest(final, fingerprint)
    files = m and m.get("files")
    if files is None or not all(os.path.exists(os.path.join(final, f))
                                for f in files):
        return None
    return m


def publish_output(src: str, final: str, fingerprint: str,
                   n_rows: int) -> None:
    """Land the finished dir ``src`` as the output ``final``: its manifest
    (``fingerprint``, ``n_rows`` and the names of its Parquet files) is
    written into it, then ``swap_in`` renames it, manifest and all."""
    files = sorted(f for f in os.listdir(src) if f.endswith(".parquet"))
    _write_manifest(src, input_fingerprint=fingerprint, n_rows=n_rows,
                    files=files)
    swap_in(src, final)


def publish(out_dir: str, part_id: int, src: str, fingerprint: str,
            counters: dict | None = None,
            link_counts: pa.Table | None = None,
            lineage: dict | None = None) -> dict:
    """Land the finished dir ``src`` (its Parquet files as they are; a
    missing ``src`` is a partition with no rows) as partition ``part_id``
    of ``out_dir``.  The counters get ``n_rows`` from the Parquet footers
    and, given a raw partition's ``link_counts``, ``n_linked_sides``, their
    sum; the counts are written beside the data as ``LINK_COUNTS``.  The
    manifest, with the partition's ``lineage`` when given, lands last, then
    ``swap_in`` publishes the dir.  Returns the counters."""
    os.makedirs(src, exist_ok=True)
    n_rows = sum(pq.ParquetFile(f).metadata.num_rows
                 for f in glob.glob(os.path.join(src, "*.parquet")))
    counters = dict(counters or {}, n_rows=n_rows)
    if link_counts is not None:
        feather.write_feather(link_counts, os.path.join(src, LINK_COUNTS))
        counters["n_linked_sides"] = int(
            pc.sum(link_counts["cnt"]).as_py() or 0)
    _write_manifest(src, partition=part_id, input_fingerprint=fingerprint,
                    n_rows=n_rows, counters=counters, lineage=lineage)
    swap_in(src, part_dir(out_dir, part_id))
    return counters


def write_partition(out_dir: str, part_id: int, data, fingerprint: str,
                    counters: dict | None = None) -> dict:
    """Partition write of a Dataset or an Arrow table.

    A Dataset streams its blocks into the scratch dir (``write_parquet``),
    never through the driver.  A table is written where it is held: a
    reducer that materializes its partition anyway (e.g. a shard group
    inside ``groupby().map_groups``) writes its own rows, with no Dataset
    job per partition."""
    tmp = scratch(out_dir)
    if isinstance(data, pa.Table):
        pq.write_table(data, os.path.join(tmp, "data.parquet"))
    else:
        data.write_parquet(tmp)
    return publish(out_dir, part_id, tmp, fingerprint, counters)


def write_partition_streamed(out_dir: str, part_id: int, ds,
                             fingerprint: str) -> dict:
    """STREAMING write of one raw-triples partition Dataset:
    ``ds.write_parquet`` lands its blocks directly in the scratch dir (no
    driver-side concat), and its link counts are computed from the written
    files.  Returns the counters."""
    from ..stages.canonicalize import file_link_counts

    tmp = scratch(out_dir)
    ds.write_parquet(tmp)
    files = sorted(glob.glob(os.path.join(tmp, "*.parquet")))
    return publish(out_dir, part_id, tmp, fingerprint,
                   link_counts=file_link_counts(files))


def landed_dirs(out_dir: str) -> list[str]:
    """The published partition directories, in partition order; each holds
    its manifest.  A scratch dir, or a partition moved aside by a crashed
    ``swap_in``, is not one."""
    if not os.path.isdir(out_dir):
        return []
    return [os.path.join(out_dir, d) for d in sorted(os.listdir(out_dir))
            if re.fullmatch(r"part=\d+", d)]


def read_link_counts(landed: str) -> pa.Table:
    """A landed raw-triples partition's combined link counts."""
    return feather.read_table(os.path.join(landed, LINK_COUNTS))
