"""Helpers shared by the query families: the sf-table read, money
rounding, the bounded-key combiner, sorted-key probes and the broadcast
size measure."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ...stages.partitioning import run_at_width


def _cents(arr, scale: int = 100):
    """floor(x*scale + 0.5) as int64 — ulp-stable money/ratio rounding."""
    a = np.asarray(arr, dtype=np.float64)
    return np.floor(a * scale + 0.5).astype(np.int64)


def _probe_sorted(keys_sorted: np.ndarray, probe: np.ndarray):
    """Inner-join probe into a sorted key array: (idx, valid) where ``valid``
    marks probes that matched exactly.  A raw ``searchsorted`` probe would
    raise IndexError for a probe beyond max(key) and silently hit the NEXT
    key's group for a missing in-range key — safe only under FK integrity,
    which a general join pattern must not assume."""
    n = len(keys_sorted)
    idx = np.searchsorted(keys_sorted, probe)
    if n == 0:
        return idx, np.zeros(len(probe), dtype=bool)
    idx = np.minimum(idx, n - 1)
    valid = keys_sorted[idx] == probe
    return idx, valid


def _revenue_partial(code: np.ndarray, rev: np.ndarray,
                     n_codes: int) -> pa.Table:
    """Per-code revenue sum and row count over codes 0..n_codes-1."""
    return pa.table({
        "code": pa.array(np.arange(n_codes), pa.int64()),
        "revenue_sum": pa.array(
            np.bincount(code, weights=rev, minlength=n_codes), pa.float64()),
        "revenue_count": pa.array(
            np.bincount(code, minlength=n_codes).astype(np.int64),
            pa.int64()),
    })


def _read(sf_dir: str, table: str, columns=None, **kw):
    """read_parquet with an explicit metadata-free schema, run at the
    width the cluster gives it (``partitioning.run_at_width``): this read
    is the root of every registry query over the sf tables.

    Parquet written via pandas carries b'pandas' schema metadata; a
    pa.Schema with metadata is unhashable (``hash(schema)`` raises
    "unhashable type: 'dict'"), so block-schema dedup inside the read split
    and every downstream groupby/sort reduce logs `Failed to hash the
    schemas (for deduplication)`.  Passing a stripped ``schema=`` kills the
    noise at the source (metadata-only, zero-copy)."""
    path = f"{sf_dir}/{table}.parquet"
    if "schema" not in kw:
        import pyarrow.parquet as _pq

        sch = _pq.read_schema(path)
        names = columns if columns is not None else sch.names
        kw["schema"] = pa.schema([sch.field(n) for n in names])
    return run_at_width(rd.read_parquet(path, columns=columns, **kw))


def _tree_agg(ds, keys: list[str], partial_fn, final_spec: dict):
    """Combiner-pattern grouped aggregate for BOUNDED group cardinality.

    ``partial_fn``: pyarrow batch -> per-batch partial aggregate table
    (one row per group per batch).  The partial stream is at most
    (n_blocks x n_groups) rows, so the final combine is a driver-side pandas
    groupby over a tiny frame — no all-to-all shuffle ever touches the full
    data.  ``final_spec``: {partial_col: "sum"}.  Valid ONLY when the group
    key space is FIXED-cardinality (return flags, priorities, nation keys,
    event types); keys that grow with the data — ids, AND time-derived
    columns like hour/window_start whose cardinality grows with the
    stream's span — go through ``bucket_exchange`` with the combiner as
    its ``prep`` (the bucketed final keeps the driver to final rows) or
    the Ray groupby path (see q_top_orders)."""
    pdf = ds.map_batches(partial_fn, batch_format="pyarrow").to_pandas()
    return pdf.groupby(keys, as_index=False).agg(final_spec)


def _table_bytes(sf_dir: str, table: str) -> int:
    """On-disk parquet size: what the broadcast-vs-co-partition gates
    measure a table by (``partitioning.fits_broadcast``)."""
    import os

    return os.path.getsize(f"{sf_dir}/{table}.parquet")


def _keep_keys(t: pa.Table, col: str = "", keys_ref=None) -> pa.Table:
    """Rows of ``t`` whose int64 ``col`` is in the broadcast key array: a
    plain task with the ref in ``fn_kwargs`` (an actor pool holding the
    ref makes Ray core log its object-store constructor-argument error)."""
    return t.filter(pc.is_in(t[col].cast(pa.int64()),
                             value_set=ray.get(keys_ref)))
