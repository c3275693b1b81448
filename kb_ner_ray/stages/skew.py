"""Salted two-phase grouped aggregation — explicit hot-key skew handling
(north rule: "skew from hot domains ... salted groupby keys for the
canonicalization shuffle").

A single hot key (one domain with 20% of all rows — the synthetic corpus
plants exactly this) lands on one reducer in a naive groupby.  Each
batch pre-aggregates to one partial row per key, and the salted mode of
``partitioning.bucket_exchange`` gives every batch ONE salt, so the hot
key's partials (one per batch) spread over ``default_salts()`` phase-1
groups; phase 2 merges the <= salts per-group partials of each key.  The
flagship pipeline's canonicalization avoids the wide exchange entirely
(per-batch combiner + vocabulary-sized driver combine); this operator
is the general fallback for aggregates whose key cardinality is too
large to combine on the driver but whose key distribution is skewed.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa


def salted_grouped_sum(ds, key: str, value: str):
    """Dataset -> Dataset(key, sum, n_rows) via per-batch partial ->
    salted merge -> final.

    Every batch emits one (key, sum, count) partial per key, salted per
    batch over ``default_salts()`` salts, so a hot key's largest phase-1
    group holds ~n_batches/salts of its partials and salting never adds
    partial rows.
    """
    from .partitioning import bucket_exchange

    def partial(t: pa.Table) -> pa.Table:
        return (pa.table({key: t[key], value: t[value]})
                .group_by(key)
                .aggregate([(value, "sum"), (value, "count")]))

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(key, as_index=False)[
            [f"{value}_sum", f"{value}_count"]].sum()

    def unsalt(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(key, as_index=False).agg(
            **{"sum": (f"{value}_sum", "sum"),
               "n_rows": (f"{value}_count", "sum")})

    return bucket_exchange(ds, [key], unsalt, prep=partial, combine=merge)

