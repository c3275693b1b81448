"""Distributed EXACT order statistics (kth-smallest selection) and the
CCNet quality-bucket assignment built on them.

``approx_quantiles`` (stages/sketch.py) answers percentile questions with
a mergeable sketch; this module answers them EXACTLY, which the oracle
gate needs and which cutoff-based corpus partitioning (CCNet head /
middle / tail, Wenzek et al. 2020 §4.4) wants: a bucket boundary that is
a real data value, reproducible bit-for-bit across runs and engines.

The algorithm is iterative histogram refinement (classic distributed
selection; see e.g. Blum et al.'s selection lower bounds for why a
constant number of passes needs counting, and MapReduce folklore for the
histogram form):

* one stats pass gets (min, max, count);
* each refinement pass histograms the column into <= ``BINS`` equal-width
  integer bins over the still-candidate range and the driver keeps ONLY
  the combined bin counts (fixed-width, <= bins x n_blocks partial rows
  -> the bounded-combiner contract) before narrowing to the bin that
  contains the target rank;
* terminates when the bin width reaches 1, i.e. after
  ceil(log_bins(range)) passes — 2 passes for any 32-bit-ish value range,
  never more than 6 for int64.  Driver memory never exceeds the
  histogram; no value row ever leaves the workers.

Multiple ranks share every pass (one histogram per still-unresolved
rank's range, emitted from the same map_batches), so tertile cutoffs
cost the same scans as one median.

Values must be integers (the engine's float policy quantizes score-like
floats to int64 basis points anyway — see the pipelines.queries docstring).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

BINS = 4096


def _col_stats(ds, col: str) -> tuple[int, int, int]:
    """(min, max, count) in one pass of fixed-width per-batch partials."""

    def partial(t: pa.Table) -> pa.Table:
        v = t[col].to_numpy(zero_copy_only=False)
        if len(v) == 0:
            return pa.table({"lo": pa.array([], pa.int64()),
                             "hi": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        return pa.table({"lo": [int(v.min())], "hi": [int(v.max())],
                         "n": [len(v)]})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    if not len(parts) or parts["n"].sum() == 0:
        raise ValueError("exact selection over an empty column")
    return int(parts["lo"].min()), int(parts["hi"].max()), \
        int(parts["n"].sum())


def _advance(h: pd.DataFrame, lo: int, hi: int, w: int, rem: int):
    """One refinement step of the rank walk, shared by the global and
    grouped selectors: given this range's combined (bin, cnt) histogram,
    locate the bin containing the rem-th smallest value.  Returns
    (True, value) when the bin width is 1 (resolved), else
    (False, (new_lo, new_hi, new_rem))."""
    h = h.sort_values("bin")
    cum = h["cnt"].cumsum().to_numpy()
    j = int(np.searchsorted(cum, rem))
    b = int(h["bin"].iloc[j])
    rem2 = rem - (int(cum[j - 1]) if j else 0)
    blo = lo + b * w
    bhi = min(hi, blo + w - 1)
    if w == 1 or blo == bhi:
        return True, blo
    return False, (blo, bhi, rem2)


def exact_kth_smallest(ds, col: str, ks: list[int]) -> dict[int, int]:
    """Exact k-th smallest values (1-indexed ranks) of an int64 column.

    All requested ranks are refined in the SAME passes.  Returns
    {k: value}.  Raises on an empty column or out-of-range k."""
    lo0, hi0, n = _col_stats(ds, col)
    for k in ks:
        if not 1 <= k <= n:
            raise ValueError(f"rank {k} out of [1, {n}]")
    # state per rank: (lo, hi, remaining_rank) — remaining_rank counts
    # within [lo, hi] only (values below lo are already accounted for)
    state: dict[int, tuple[int, int, int]] = {k: (lo0, hi0, k) for k in ks}
    resolved: dict[int, int] = {}
    while state:
        ranges = sorted({(lo, hi) for lo, hi, _ in state.values()})
        widths = [max(1, -(-(hi - lo + 1) // BINS)) for lo, hi in ranges]
        rng_ref = ray.put((ranges, widths))

        def hist(t: pa.Table) -> pa.Table:
            rgs, ws = ray.get(rng_ref)
            v = t[col].to_numpy(zero_copy_only=False).astype(np.int64)
            rid, bn, ct = [], [], []
            for i, ((lo, hi), w) in enumerate(zip(rgs, ws)):
                m = v[(v >= lo) & (v <= hi)]
                if len(m) == 0:
                    continue
                c = np.bincount((m - lo) // w)
                nz = np.flatnonzero(c)
                rid.extend([i] * len(nz))
                bn.extend(nz.tolist())
                ct.extend(c[nz].tolist())
            return pa.table({"rid": pa.array(rid, pa.int32()),
                             "bin": pa.array(bn, pa.int64()),
                             "cnt": pa.array(ct, pa.int64())})

        parts = (ds.map_batches(hist, batch_format="pyarrow").to_pandas()
                 .groupby(["rid", "bin"], as_index=False)["cnt"].sum())
        nxt: dict[int, tuple[int, int, int]] = {}
        for k, (lo, hi, rem) in state.items():
            i = ranges.index((lo, hi))
            done, res = _advance(parts[parts["rid"] == i],
                                 lo, hi, widths[i], rem)
            if done:
                resolved[k] = res
            else:
                nxt[k] = res
        state = nxt
    return resolved


def quality_buckets(scored_ds, col: str = "nll_bp"):
    """CCNet head/middle/tail assignment by EXACT score tertile cutoffs.

    ``scored_ds`` is a per-doc quality table (e.g. unigram_ppl's
    (doc_id, n_tokens, nll_bp)); lower score = better.  Cutoffs are the
    ceil(n/3)-th and ceil(2n/3)-th smallest VALUES, and assignment is
    value-based (score <= cutoff), so ties land deterministically in the
    better bucket on every engine — rank-based NTILE would split equal
    scores arbitrarily.  The input is materialized once: it is the
    REDUCED fixed-width table (not the corpus), read by the stats pass,
    each refinement pass, and the final labeling map; a 100-TB
    deployment checkpoints it to parquet for the same reason (resume).

    Returns Dataset(doc_id, <col>, bucket)."""
    scored_ds = scored_ds.materialize()
    n = scored_ds.count()
    k1, k2 = -(-n // 3), -(-2 * n // 3)
    cuts = exact_kth_smallest(scored_ds, col, [k1, k2])
    c1, c2 = cuts[k1], cuts[k2]

    def label(t: pa.Table) -> pa.Table:
        v = t[col].to_numpy(zero_copy_only=False)
        b = np.where(v <= c1, "head", np.where(v <= c2, "middle", "tail"))
        return pa.table({"doc_id": t["doc_id"], col: t[col],
                         "bucket": pa.array(b, pa.string())})

    return scored_ds.map_batches(label, batch_format="pyarrow")


def grouped_exact_kth(ds, group_col: str, value_col: str,
                      ranks: dict) -> dict:
    """Exact k-th smallest values PER GROUP of an int64 column.

    ``ranks`` maps group -> list of 1-indexed ranks.  Every (group, rank)
    target shares the same refinement passes: the per-batch histogram is
    computed for ALL still-active targets at once (rows merge with the
    broadcast state table on the group key, <= len(ranks-per-group) state
    rows per data row), so a thousand groups cost the same number of
    corpus scans as one — ceil(log_bins(range)) after a stats pass.
    Driver state stays (active targets x bins) counts; values never
    leave the workers.  Group cardinality must be bounded (class/type
    keys), matching the ``_tree_agg`` contract the stats pass uses.

    Returns {(group, k): value}."""

    def stats_partial(t: pa.Table) -> pa.Table:
        g = pd.DataFrame({
            "g": t[group_col].to_numpy(zero_copy_only=False),
            "v": t[value_col].to_numpy(zero_copy_only=False),
        }).groupby("g")["v"].agg(["min", "max", "count"]).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    st = (ds.map_batches(stats_partial, batch_format="pyarrow").to_pandas()
          .groupby("g").agg(lo=("min", "min"), hi=("max", "max"),
                            n=("count", "sum")))
    state: dict[tuple, tuple[int, int, int]] = {}
    for grp, ks in ranks.items():
        if grp not in st.index:
            raise ValueError(f"group {grp!r} not present")
        row = st.loc[grp]
        for k in ks:
            if not 1 <= k <= int(row["n"]):
                raise ValueError(f"rank {k} out of [1, {int(row['n'])}] "
                                 f"for group {grp!r}")
            state[(grp, k)] = (int(row["lo"]), int(row["hi"]), int(k))
    resolved: dict[tuple, int] = {}
    while state:
        targets = pd.DataFrame(
            [(i, grp, lo, hi, max(1, -(-(hi - lo + 1) // BINS)))
             for i, ((grp, _k), (lo, hi, _r)) in enumerate(state.items())],
            columns=["sid", "g", "lo", "hi", "w"]).drop_duplicates(
                ["g", "lo", "hi", "w"])
        tref = ray.put(targets)

        def hist(t: pa.Table) -> pa.Table:
            tg = ray.get(tref)
            df = pd.DataFrame({
                "g": t[group_col].to_numpy(zero_copy_only=False),
                "v": t[value_col].to_numpy(zero_copy_only=False),
            }).merge(tg, on="g")
            df = df[(df["v"] >= df["lo"]) & (df["v"] <= df["hi"])]
            if not len(df):
                return pa.table({"sid": pa.array([], pa.int64()),
                                 "bin": pa.array([], pa.int64()),
                                 "cnt": pa.array([], pa.int64())})
            b = ((df["v"] - df["lo"]) // df["w"]).astype(np.int64)
            out = (df.assign(bin=b).groupby(["sid", "bin"])
                   .size().reset_index(name="cnt"))
            return pa.Table.from_pandas(out, preserve_index=False)

        parts = (ds.map_batches(hist, batch_format="pyarrow").to_pandas()
                 .groupby(["sid", "bin"], as_index=False)["cnt"].sum())
        key_by_range = {(r.g, r.lo, r.hi): (r.sid, r.w)
                        for r in targets.itertuples()}
        nxt: dict[tuple, tuple[int, int, int]] = {}
        for (grp, k), (lo, hi, rem) in state.items():
            sid, w = key_by_range[(grp, lo, hi)]
            done, res = _advance(parts[parts["sid"] == sid],
                                 lo, hi, w, rem)
            if done:
                resolved[(grp, k)] = res
            else:
                nxt[(grp, k)] = res
        state = nxt
    return resolved


def temperature_sample(ds, alpha: float, group_col: str, id_col: str):
    """mBERT/XLM-R temperature resampling over ``group_col`` (Conneau et
    al. 2020 §3.1: sample groups proportional to p_g^alpha, flattening
    the head without erasing it).  Downsample-only rates: rate_g =
    (n_min / n_g)^(1-alpha), so the rarest group keeps everything.

    One counting pass (per-batch group counts, bounded by the group
    space, combined on the driver), then ZERO shuffles: the rates
    broadcast as integer thresholds, and a row is kept when the
    full-cycle value hash ``(id * 48271 + 7) % 99991`` of its
    ``id_col`` falls under its group's threshold.  Thresholds are
    integer-quantized so the SQL oracle hash-matches.  Keeps every
    input column."""
    def partial(t: pa.Table) -> pa.Table:
        return (t.select([group_col, id_col]).group_by(group_col)
                .aggregate([(id_col, "count")])
                .rename_columns([group_col, "c"]))

    cnt = (ds.map_batches(partial, batch_format="pyarrow").to_pandas()
           .groupby(group_col, as_index=False)["c"].sum())
    mn = float(cnt["c"].min())
    thr = {g: int(np.floor(99_991 * (mn / float(c)) ** (1 - alpha) + 0.5))
           for g, c in zip(cnt[group_col], cnt["c"])}
    rref = ray.put(thr)

    def keep(t: pa.Table) -> pa.Table:
        r = ray.get(rref)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        th = np.array([r[g] for g in t[group_col].to_pylist()], np.int64)
        return t.filter(pa.array((ids * 48_271 + 7) % 99_991 < th))

    return ds.map_batches(keep, batch_format="pyarrow")
