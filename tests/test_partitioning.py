"""bucket_exchange and co_partition: the single-input and the two-input
hash-bucket exchanges that every bucketed operator routes through."""

import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray

from kb_ner_ray.stages.partitioning import (
    bucket_exchange,
    bucket_multi,
    co_partition,
)

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
    # (an empty table stays one empty block)
    return ray.data.from_arrow([t.slice(i, 60)
                                for i in range(0, max(len(t), 1), 60)])


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


# ---- co_partition: the one two-input exchange -------------------------------

# left keys, right keys: the names differ on purpose
CO_KEYS = {
    "int": (["uid"], ["user"]),
    "str": (["name"], ["label"]),
}


def _right() -> pa.Table:
    """Right side: ``rid`` shares a left column name and type, ``name``
    shares a left column name with another type (int64 above 2^53)."""
    rng = np.random.default_rng(11)
    n = 90
    user = rng.integers(20, 50, n)  # overlaps the left uids 20..36
    return pa.table({
        "rid": pa.array(np.arange(n), pa.int64()),
        "user": pa.array(user, pa.int64()),
        "label": pa.array([f"n{i}" for i in rng.integers(10, 40, n)],
                          pa.string()),
        "name": pa.array(2**53 + 1 + 2 * (user % 2), pa.int64()),
    })


def _pair_call(keys, l_schema: pa.Schema, r_schema: pa.Schema):
    """per_bucket for co_partition: one row per input row of either side,
    tagged with the side, the row's key, this call's id, and whether both
    sides arrived with exactly their own schema and values."""
    def call(lt: pa.Table, rt: pa.Table) -> pa.Table:
        big = [2**53 + 1 + 2 * (u % 2) for u in rt["user"].to_pylist()]
        ok = (lt.schema.equals(l_schema) and rt.schema.equals(r_schema)
              and rt["name"].to_pylist() == big)

        def key(t, ks):
            return [repr(tuple(r.values())) for r in t.select(ks).to_pylist()]

        n = len(lt) + len(rt)
        return pa.table({
            "side": ["L"] * len(lt) + ["R"] * len(rt),
            "rid": lt["rid"].to_pylist() + rt["rid"].to_pylist(),
            "key": key(lt, keys[0]) + key(rt, keys[1]),
            "call": [uuid.uuid4().hex] * n,
            "ok": [ok] * n,
        })
    return call


def _co(left: pa.Table, right: pa.Table, case: str, **kw) -> pd.DataFrame:
    keys = CO_KEYS[case]
    out = co_partition(_blocks(left), _blocks(right), keys,
                       _pair_call(keys, left.schema, right.schema), **kw)
    return out.to_pandas()


@pytest.mark.parametrize("n_buckets", [1, 3, 16])
@pytest.mark.parametrize("case", sorted(CO_KEYS))
def test_co_partition_colocates_both_sides(case, n_buckets):
    left, right = _table(), _right()
    got = _co(left, right, case, n_buckets=n_buckets)
    assert got["ok"].all()
    # every row of each side reaches exactly one per_bucket call
    for side, t in (("L", left), ("R", right)):
        rids = sorted(got.loc[got["side"] == side, "rid"])
        assert rids == list(range(len(t)))
    # a key's left and right rows meet in the same call
    assert (got.groupby("key")["call"].nunique() == 1).all()
    both = set(got.loc[got["side"] == "L", "key"]) & set(
        got.loc[got["side"] == "R", "key"])
    assert both  # the fixture keys overlap, so some calls see both sides


@pytest.mark.parametrize("empty", ["left", "right", "both"])
def test_co_partition_empty_sides(empty):
    left, right = _table(), _right()
    if empty in ("left", "both"):
        left = left.slice(0, 0)
    if empty in ("right", "both"):
        right = right.slice(0, 0)
    got = _co(left, right, "int", n_buckets=3)
    # the empty side still arrives with its own (correct) schema; with
    # both sides empty there is no bucket and no call
    assert got.empty or got["ok"].all()
    sides = got["side"].tolist() if len(got) else []
    assert sides.count("L") == len(left)
    assert sides.count("R") == len(right)


@pytest.mark.parametrize("n_salts", [1, 4])
def test_co_partition_salt_replicates_right(n_salts):
    left, right = _table(), _right()
    got = _co(left, right, "int", n_buckets=3, salt=("rid", n_salts))
    assert got["ok"].all()
    lg, rg = got[got["side"] == "L"], got[got["side"] == "R"]
    # each left row exactly once; each right row once per salt, each
    # copy in a different group
    assert sorted(lg["rid"]) == list(range(len(left)))
    assert (rg.groupby("rid").size() == n_salts).all()
    assert (rg.groupby("rid")["call"].nunique() == n_salts).all()
    assert rg["rid"].nunique() == len(right)
    # every left row's call holds all of its key's right rows
    r_calls = rg.groupby("key")["call"].apply(set)
    for key, call in zip(lg["key"], lg["call"]):
        if key in r_calls.index:
            assert call in r_calls[key]
            assert (rg[rg["call"] == call].groupby("key").size()
                    .get(key) == (rg["key"] == key).sum() / n_salts)
