"""Local harness mimicking the driver's correctness gate: run every
queries() entry at a given sf dir and diff against oracle_sql() via DuckDB
(row count + sorted-column value comparison). Usage:

    python tools/check_queries.py [sf_dir] [name ...]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import pandas as pd
import ray

# this checkout's package, wherever the checkout is
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def to_df(res) -> pd.DataFrame:
    if isinstance(res, pd.DataFrame):
        return res
    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    raise TypeError(type(res))


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def main() -> None:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    ray.init(address="local", num_cpus=8, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)

    import __ray_entry__ as entry

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{sf_dir}/{t}.parquet')")

    qs, oracles = entry.queries(), entry.oracle_sql()
    n_pass = n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = normalize(to_df(fn(sf_dir)))
        except Exception as e:
            print(f"FAIL {name}: engine raised {type(e).__name__}: {e}")
            n_fail += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok   {name}: rows={len(got)} ({dt:.1f}s, rows-only)")
            n_pass += 1
            continue
        want = normalize(con.sql(oracles[name]).df())
        if len(got) != len(want):
            print(f"FAIL {name}: rows {len(got)} != {len(want)} ({dt:.1f}s)")
            n_fail += 1
            continue
        if list(got.columns) != list(want.columns):
            print(f"FAIL {name}: cols {list(got.columns)} != {list(want.columns)}")
            n_fail += 1
            continue
        try:
            pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                          check_exact=True)
            print(f"ok   {name}: rows={len(got)} ({dt:.1f}s, exact match)")
            n_pass += 1
        except AssertionError as e:
            print(f"FAIL {name}: value mismatch ({dt:.1f}s)")
            print(str(e).split("\n")[0:6])
            n_fail += 1
    print(f"\n{n_pass} pass, {n_fail} fail")
    ray.shutdown()
    sys.exit(1 if n_fail else 0)


if __name__ == "__main__":
    main()
