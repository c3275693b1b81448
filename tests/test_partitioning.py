"""bucket_exchange: the one single-input hash-bucket exchange that every
bucketed operator routes through."""

import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray

from kb_ner_ray.stages.partitioning import bucket_exchange, bucket_multi

N_ROWS = 240


def _table() -> pa.Table:
    rng = np.random.default_rng(7)
    ts = (np.datetime64("2024-01-01T00:00:00", "us")
          + rng.integers(0, 5 * 86_400_000_000, N_ROWS)
          .astype("timedelta64[us]"))
    return pa.table({
        "rid": pa.array(np.arange(N_ROWS), pa.int64()),
        "uid": pa.array(rng.integers(0, 37, N_ROWS), pa.int64()),
        "name": pa.array([f"n{i}" for i in rng.integers(0, 23, N_ROWS)],
                         pa.string()),
        "ts": pa.array(ts, pa.timestamp("us")),
    })


def _add_day():
    def add_day(t: pa.Table) -> pa.Table:
        return t.append_column("day",
                               pc.floor_temporal(t["ts"], unit="day"))
    return add_day


# key columns, optional prep factory
CASES = {
    "int": (["uid"], None),
    "str": (["name"], None),
    "str_datetime": (["name", "day"], _add_day),
}


def _tag_call():
    """per_bucket that emits one row per input row, tagged with this
    call's id and the ``__b`` the exchange assigned.  Built in a factory
    so workers receive it by value (this module is not importable
    there)."""
    def tag(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"rid": g["rid"].to_numpy(np.int64),
                             "b": g["__b"].to_numpy(np.int64),
                             "call": uuid.uuid4().hex})
    return tag


def _blocks(t: pa.Table) -> "ray.data.Dataset":
    # several input blocks, so a key's rows start out spread across them
    return ray.data.from_arrow([t.slice(i, 60) for i in range(0, len(t), 60)])


@pytest.mark.parametrize("n_buckets", [1, 3, 16])
@pytest.mark.parametrize("case", sorted(CASES))
def test_bucket_exchange_colocates_every_key(case, n_buckets):
    keys, make_prep = CASES[case]
    prep = make_prep() if make_prep else None
    t = _table()
    got = (bucket_exchange(_blocks(t), keys, _tag_call(), prep=prep,
                           n_buckets=n_buckets)
           .to_pandas().sort_values("rid", ignore_index=True))
    # every row reaches exactly one per_bucket call
    assert got["rid"].tolist() == list(range(N_ROWS))
    full = prep(t) if prep else t
    want_b = bucket_multi([full[k] for k in keys], n_buckets)
    assert got["b"].tolist() == want_b.tolist()
    assert got["b"].between(0, n_buckets - 1).all()
    # one call per bucket, and all of a key's rows land in one call
    assert (got.groupby("call")["b"].nunique() == 1).all()
    assert (got.groupby("b")["call"].nunique() == 1).all()
    by_key = full.select(keys).to_pandas().assign(call=got["call"])
    assert (by_key.groupby(keys)["call"].nunique() == 1).all()


def test_bucket_exchange_empty_input():
    empty = ray.data.from_arrow(_table().slice(0, 0))
    out = bucket_exchange(empty, ["uid"], _tag_call(), n_buckets=3)
    assert out.count() == 0


def test_bucket_exchange_prep_drops_every_row():
    def drop_all(t: pa.Table) -> pa.Table:
        return t.filter(pc.less(t["uid"], -1))

    out = bucket_exchange(_blocks(_table()), ["name"], _tag_call(),
                          prep=drop_all, n_buckets=3)
    assert out.count() == 0
