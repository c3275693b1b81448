"""Training-corpus EXPORT: materialize the deterministic training order
as resumable, manifest-tracked parquet shards — the step that turns the
round-5 index ops (partitioning.deterministic_shuffle order,
packing.pack_training_sequences layout) into bytes a trainer reads.

Layout: the repo's standard resumable sink (state/manifest.py), one
partition per shard, its rows sorted by the md5 training order
(order_key), plus an ``_DONE`` file written once every shard landed.

100-TB shape: ONE bucketed shuffle routes each doc (text travels once)
to its md5-derived shard, and each shard REDUCER writes its own
partition where it already holds the rows (state/manifest.write_partition:
scratch dir, then one rename — no per-shard Dataset job, no
driver concat; an earlier revision launched one sequential filter+sort
job per shard, which is n_shards full passes).  Docs of already-done
shards are dropped at the hash pass, so a resume moves only the
missing shards' bytes.  Cluster-scale ``n_shards`` so one shard
(corpus/n_shards) fits a reducer — the standard bucketed-op contract.
The order key stays in the rows: parquet file order inside a
partition is writer-dependent, so the training order must be
recoverable from the data itself.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa

from ..state.manifest import (
    input_fingerprint,
    landed_dirs,
    partition_done,
    write_partition,
)


def export_training_shards(docs_ds, out_dir: str, *,
                           input_files: list[str],
                           n_shards: int = 8,
                           id_col: str = "doc_id") -> dict:
    """Write ``docs_ds`` as ``n_shards`` manifest-tracked parquet shards
    in deterministic training order; returns {"computed": [...],
    "skipped": [...]} shard ids.

    ``input_files``: the source files backing docs_ds.  Their names,
    sizes and modification times fingerprint each shard, so a shard
    already in ``out_dir`` is skipped only when it was exported from the
    same files."""
    fp_src = input_fingerprint(input_files)

    def fp(shard: int) -> str:
        return f"{fp_src}:{shard}:{n_shards}"

    os.makedirs(out_dir, exist_ok=True)
    pending = [s for s in range(n_shards)
               if not partition_done(out_dir, s, fp(s))]
    skipped = [s for s in range(n_shards) if s not in set(pending)]
    if not pending:
        with open(os.path.join(out_dir, "_DONE"), "w") as f:
            f.write(f"{n_shards}\n")
        return {"computed": [], "skipped": skipped}

    pend = set(pending)

    def hash_batch(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        hx = [hashlib.md5(str(int(i)).encode()).hexdigest() for i in ids]
        shard = np.array([int(h[:8], 16) % n_shards for h in hx], np.int64)
        keep = np.array([s in pend for s in shard])
        t = (t.append_column("order_shard", pa.array(shard))
             .append_column("order_key", pa.array(hx, pa.string())))
        return t.filter(pa.array(keep))

    def write_shard(g: pd.DataFrame) -> pa.Table:
        shard = int(g["order_shard"].iloc[0])
        g = g.sort_values(["order_key", id_col], kind="mergesort") \
            .drop(columns=["order_shard"])
        write_partition(out_dir, shard,
                        pa.Table.from_pandas(g, preserve_index=False),
                        fp(shard))
        return pa.table({"shard": pa.array([shard], pa.int64()),
                         "n_rows": pa.array([len(g)], pa.int64())})

    stats = (docs_ds.map_batches(hash_batch, batch_format="pyarrow")
             .groupby("order_shard")
             .map_groups(write_shard, batch_format="pandas")
             .to_pandas())
    written = set(stats["shard"]) if len(stats) else set()
    # a pending shard with NO rows still needs its (empty) manifest so
    # resume doesn't recompute it forever
    for s in pend - written:
        write_partition(
            out_dir, s,
            pa.table({id_col: pa.array([], pa.int64()),
                      "order_key": pa.array([], pa.string())}),
            fp(s))
    with open(os.path.join(out_dir, "_DONE"), "w") as f:
        f.write(f"{n_shards}\n")
    return {"computed": sorted(pend), "skipped": skipped}


def read_training_order(out_dir: str) -> pa.Table:
    """Concatenate the shards back in (shard, order_key) order — the
    exact sequence a single-reader trainer would consume."""
    import glob

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    parts = []
    for d in landed_dirs(out_dir):
        files = sorted(glob.glob(os.path.join(d, "*.parquet")))
        if not files:
            continue
        t = pa.concat_tables([pq.read_table(f) for f in files])
        if t.num_rows:
            parts.append(t.take(pc.sort_indices(t["order_key"])))
    return pa.concat_tables(parts) if parts else pa.table({})