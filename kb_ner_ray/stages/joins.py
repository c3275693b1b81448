"""Generic bucketed joins — the scale path behind every
"broadcast-small-side" join in this repo (SURVEY.md §2.4).

When neither side fits in a broadcast, both sides co-partition on
``hash(key) % default_buckets()`` through ``partitioning.co_partition``
(the one two-input exchange: ONE all-to-all on the coarse bucket key) and
each bucket finishes locally — a vectorized pandas merge / ``merge_asof``
or an Arrow ``is_in`` filter.  Every side arrives with its own exact Arrow
schema; pandas views keep integer columns nullable (``_frame``), so an
unmatched row never floats an int64 column.

The broadcast joins stay the right choice when one side is
vocabulary-sized; these operators are the documented fallback, exact-
oracled through the registered queries that reach them
(revenue_by_nation, customer_activity_left, activity_reconcile_outer,
customers_with_orders, near_dup_keep, ...).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from .partitioning import co_partition

# Probe-side chunk size for the in-bucket merge (see merge_bucket): bounds
# the pandas hash-merge intermediate when a bucket is oversized.
MERGE_CHUNK_ROWS = 1 << 18

_NULLABLE_INT = {pa.int8(): pd.Int8Dtype(), pa.int16(): pd.Int16Dtype(),
                 pa.int32(): pd.Int32Dtype(), pa.int64(): pd.Int64Dtype()}


def _frame(t: pa.Table) -> pd.DataFrame:
    """pandas view of one co-partition side, integer columns as nullable
    extension dtypes: a merge's unmatched rows then hold <NA>, never a
    NaN that floats (and above 2^53 rounds) the whole column."""
    return t.to_pandas(types_mapper=_NULLABLE_INT.get)


def _table(df: pd.DataFrame, fields) -> pa.Table:
    """Arrow table of ``df`` with exactly ``fields``, minus the pandas
    metadata (it would turn the nullable dtypes back on downstream)."""
    schema = pa.schema(fields)
    return pa.Table.from_pandas(df[schema.names], schema=schema,
                                preserve_index=False).replace_schema_metadata()


def hash_join(left_ds, right_ds, on: str, how: str = "inner"):
    """Dataset x Dataset equi-join on ``on``.

    Non-key column names must be disjoint between the sides (no suffixing —
    keep the dataflow explicit).  Returns a Dataset with L ∪ R columns,
    each with its input Arrow type (nullable where ``how`` leaves a side
    unmatched).
    """
    if how not in ("inner", "left", "outer"):
        raise ValueError(f"unsupported how={how!r} (inner/left/outer only)")
    overlap = (set(left_ds.schema().names)
               & set(right_ds.schema().names)) - {on}
    if overlap:
        raise ValueError(f"non-key column collision: {sorted(overlap)}")
    lhow = "left" if how == "outer" else how

    def merge_bucket(lt: pa.Table, rt: pa.Table) -> pa.Table:
        lg, rg = _frame(lt), _frame(rt)
        # Sub-batch the probe side: a bucket is ~corpus/fan-out rows, and
        # pandas' hash merge spikes to build-table + full-output at once.
        # Chunking the left (probe) frame bounds the per-merge working set
        # so an oversized bucket degrades gracefully instead of OOMing the
        # reducer.  Sound because each probe row joins independently;
        # 'outer' decomposes into the chunk-safe left join plus the
        # right rows whose key appears in NO left row (computed once per
        # bucket with a vectorized isin — co-partitioning guarantees a
        # key's rows are all in this bucket).
        if len(lg) <= MERGE_CHUNK_ROWS:
            joined = lg.merge(rg, on=on, how=lhow)
        else:
            joined = pd.concat(
                [lg.iloc[i:i + MERGE_CHUNK_ROWS].merge(rg, on=on, how=lhow)
                 for i in range(0, len(lg), MERGE_CHUNK_ROWS)],
                ignore_index=True)
        if how == "outer":
            r_only = rg[~rg[on].isin(lg[on])]
            if len(r_only):
                joined = pd.concat([joined, r_only], ignore_index=True)
        return _table(joined, list(lt.schema)
                      + [f for f in rt.schema if f.name != on])

    return co_partition(left_ds, right_ds, ([on], [on]), merge_bucket)


def asof_join(left_ds, right_ds, left_ts: str, right_ts: str,
              left_by: str, right_by: str):
    """Bucketed as-of join — the scale path for "latest right row at or
    before each left row's timestamp, matched on a by-key".

    Both sides are co-partitioned on ``hash(by_key) %
    default_buckets()`` (every left row and all its candidate right rows
    land in the same bucket, so the per-bucket ``merge_asof`` is exact),
    and each bucket runs ONE vectorized ``pd.merge_asof`` after an
    in-bucket sort.  One all-to-all on the coarse bucket key; no side is
    broadcast — this replaces the full-right-frame broadcast that round 1
    flagged as un-broadcastable at 100 TB.

    Output: left columns + right's non-by columns (``right_ts`` included,
    typed like ``left_ts``).  Non-key column names must be disjoint.
    """
    overlap = set(left_ds.schema().names) & set(right_ds.schema().names)
    if overlap:
        raise ValueError(f"column collision: {sorted(overlap)}")

    def merge_bucket(lt: pa.Table, rt: pa.Table) -> pa.Table:
        lg = _frame(lt).sort_values(left_ts)
        rg = _frame(rt)
        rg[right_ts] = rg[right_ts].astype(lg[left_ts].dtype)
        rg[right_by] = rg[right_by].astype(lg[left_by].dtype)
        merged = pd.merge_asof(lg, rg.sort_values(right_ts),
                               left_on=left_ts, right_on=right_ts,
                               left_by=left_by, right_by=right_by,
                               direction="backward")
        ts_type = lt.schema.field(left_ts).type
        return _table(merged, list(lt.schema) + [
            pa.field(f.name, ts_type) if f.name == right_ts else f
            for f in rt.schema if f.name != right_by])

    return co_partition(left_ds, right_ds, ([left_by], [right_by]),
                        merge_bucket)


def _build_bloom(keys_ds, col: str, n_bits: int):
    """Distributed Bloom build: per-batch partial filters, an in-stream
    OR-combine level (every worker batch of partial blobs collapses to
    ONE blob — the driver never holds the n_blocks x n_bits/8 partial
    stream), then a STREAMING driver OR over the combined rows
    (iter_batches: O(1) driver memory regardless of block count)."""
    import numpy as np

    from .partitioning import BloomFilter

    def partial(t: pa.Table) -> pa.Table:
        bf = BloomFilter(n_bits)
        bf.add_many(t[col])
        return pa.table({"bits": pa.array([bf.bits.tobytes()], pa.binary())})

    def or_combine(t: pa.Table) -> pa.Table:
        acc = None
        for b in t["bits"].to_pylist():
            arr = np.frombuffer(b, dtype=np.uint8)
            acc = arr.copy() if acc is None else acc | arr
        if acc is None:
            return pa.table({"bits": pa.array([], pa.binary())})
        return pa.table({"bits": pa.array([acc.tobytes()], pa.binary())})

    combined = (keys_ds.map_batches(partial, batch_format="pyarrow")
                .map_batches(or_combine, batch_format="pyarrow",
                             batch_size=64))
    bits = None
    for batch in combined.iter_batches(batch_format="pyarrow"):
        for b in batch["bits"].to_pylist():
            arr = np.frombuffer(b, dtype=np.uint8)
            bits = arr.copy() if bits is None else bits | arr
    return BloomFilter(n_bits, bits if bits is not None else None)


def semi_join(left_ds, right_ds, on: str, right_on: str | None = None,
              anti: bool = False):
    """Bucketed SEMI (or ANTI) join: keep left rows whose key does (not)
    appear on the right.  Right side is projected to its key column, both
    sides co-partitioned on ``hash(key) % default_buckets()``, per-bucket
    filter is one Arrow ``is_in``.  The scale path for the broadcast
    key-set semi joins (key sets stop being broadcastable when the right
    side is a fact table)."""
    right_on = right_on or on

    def filter_bucket(lt: pa.Table, rt: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keys = rt[right_on].cast(lt.schema.field(on).type)
        keep = pc.is_in(lt[on], value_set=keys.combine_chunks().unique())
        return lt.filter(pc.invert(keep) if anti else keep)

    return co_partition(left_ds, right_ds.select_columns([right_on]),
                        ([on], [right_on]), filter_bucket)
