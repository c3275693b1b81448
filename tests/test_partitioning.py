"""bucket_exchange and co_partition: the single-input and the two-input
hash-bucket exchanges that every bucketed operator routes through."""

import ast
import pathlib
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray

from kb_ner_ray.stages.partitioning import (
    bucket_array,
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


# ---- bucket_exchange, salted two-phase mode ---------------------------------


def _phase1_tag():
    """combine that passes every row on, tagged with its phase-1 group id
    and this call's id."""
    def tag(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"rid": g["rid"].to_numpy(np.int64),
                             "uid": g["uid"].to_numpy(np.int64),
                             "g1": g["__b"].to_numpy(np.int64),
                             "call1": uuid.uuid4().hex})
    return tag


def _phase2_tag():
    def tag(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop(columns=["__b"]).assign(call2=uuid.uuid4().hex)
    return tag


@pytest.mark.parametrize("n_salts", [1, 4])
def test_salted_exchange_routes_rows_through_both_phases(n_salts):
    nb, t = 3, _table()
    got = (bucket_exchange(_blocks(t), ["uid"], _phase2_tag(),
                           combine=_phase1_tag(), n_salts=n_salts,
                           salt_col="rid", n_buckets=nb)
           .to_pandas().sort_values("rid", ignore_index=True))
    # every row reaches exactly one phase-1 call
    assert got["rid"].tolist() == list(range(N_ROWS))
    # the phase-1 group id is bucket * ns + salt, one call per group
    want = (bucket_multi([t["uid"]], nb).astype(np.int64) * n_salts
            + bucket_array(t["rid"], n_salts))
    assert got["g1"].tolist() == want.tolist()
    assert (got.groupby("g1")["call1"].nunique() == 1).all()
    assert (got.groupby("call1")["g1"].nunique() == 1).all()
    # phase 2 sees every partial row of a key in one call
    assert (got.groupby("uid")["call2"].nunique() == 1).all()
    if n_salts > 1:  # the salt really split some key over groups
        assert (got.groupby("uid")["g1"].nunique() > 1).any()


def _sum_rid():
    def f(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("uid", as_index=False)["rid"].sum()
    return f


def test_salted_exchange_one_salt_equals_plain():
    plain = bucket_exchange(_blocks(_table()), ["uid"], _sum_rid(),
                            n_buckets=3)
    salted = bucket_exchange(_blocks(_table()), ["uid"], _sum_rid(),
                             combine=_sum_rid(), n_salts=1, n_buckets=3)
    a, b = (ds.to_pandas().sort_values("uid", ignore_index=True)
            for ds in (plain, salted))
    pd.testing.assert_frame_equal(a, b)


def test_salted_exchange_empty_input():
    empty = ray.data.from_arrow(_table().slice(0, 0))
    out = bucket_exchange(empty, ["uid"], _phase2_tag(),
                          combine=_phase1_tag(), n_salts=4, n_buckets=3)
    assert out.count() == 0


def test_salted_exchange_prep_drops_every_row():
    def drop_all(t: pa.Table) -> pa.Table:
        return t.filter(pc.less(t["uid"], -1))

    out = bucket_exchange(_blocks(_table()), ["uid"], _phase2_tag(),
                          prep=drop_all, combine=_phase1_tag(), n_salts=4,
                          n_buckets=3)
    assert out.count() == 0


N_BATCHES = 64


def _hot_blocks() -> tuple:
    """N_BATCHES blocks; in each, half the rows carry the key "hot" and
    the rest keys unique to the block."""
    rng = np.random.default_rng(3)
    blocks = []
    for b in range(N_BATCHES):
        n = 40
        keys = ["hot" if i % 2 else f"k{b}_{i}" for i in range(n)]
        blocks.append(pa.table({
            "doc_id": pa.array(np.arange(b * n, (b + 1) * n), pa.int64()),
            "key": pa.array(keys, pa.string()),
            "v": pa.array(rng.integers(0, 100, n), pa.int64()),
        }))
    return ray.data.from_arrow(blocks), sum(
        int(pc.sum(t.filter(pc.equal(t["key"], "hot"))["v"]).as_py())
        for t in blocks)


def _pre_agg():
    """the per-batch combiner: ONE partial row per key per batch"""
    def pre(t: pa.Table) -> pa.Table:
        return (t.select(["key", "v"]).group_by("key")
                .aggregate([("v", "sum"), ("v", "count")]))
    return pre


def _merge_counting():
    """combine: merge a phase-1 group's partials per key and record how
    many partial rows each key had there."""
    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("key", as_index=False).agg(
            v_sum=("v_sum", "sum"), n_partials=("v_sum", "size"))
    return merge


def _hot_phase1_groups(n_salts: int) -> pd.DataFrame:
    """One row per phase-1 group holding the hot key: its partial-row
    count and merged sum (phase 2 passes the merged partials on)."""
    ds, want = _hot_blocks()
    got = bucket_exchange(
        ds, ["key"], lambda g: g.drop(columns=["__b"]), prep=_pre_agg(),
        combine=_merge_counting(), n_salts=n_salts, n_buckets=4
    ).to_pandas()
    hot = got[got["key"] == "hot"]
    assert hot["v_sum"].sum() == want
    return hot


def test_salted_exchange_spreads_hot_partials_per_batch():
    """Pre-aggregated partials take one salt per batch: salting adds no
    partial rows, and the hot key's largest phase-1 group holds at most
    twice its fair share of them."""
    ns = 4
    unsalted = _hot_phase1_groups(1)
    assert unsalted["n_partials"].tolist() == [N_BATCHES]
    salted = _hot_phase1_groups(ns)
    assert salted["n_partials"].sum() == N_BATCHES
    assert salted["n_partials"].max() <= 2 * N_BATCHES / ns


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


# ---- structural guard: no hand-rolled bucket shuffles -----------------------

PKG = pathlib.Path(__file__).resolve().parent.parent / "kb_ner_ray"

# (module, top-level function) -> why it keeps its own ``__b`` groupby
HAND_ROLLED_OK = {
    ("stages/components.py", "components_from_pairs"):
        "iterative label propagation: the static edge set is tagged with "
        "__b once and every round's labels carry their __b forward, so "
        "rounds co-group without rehashing",
    ("stages/components.py", "pagerank"):
        "iterative rank updates: edges, out-degrees and ranks carry __b "
        "across rounds, so each round co-groups without rehashing",
}


def test_no_hand_rolled_bucket_groupby():
    """A ``.groupby("__...")`` on a hand-built bucket column outside
    partitioning.py is a shuffle that should go through bucket_exchange
    or co_partition; only the allowlisted iterative loops keep theirs."""
    found = set()
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        if rel == "stages/partitioning.py":
            continue
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "groupby" and node.args
                        and isinstance(node.args[0], ast.Constant)
                        and str(node.args[0].value).startswith("__")):
                    found.add((rel, getattr(top, "name", "<module>")))
    assert found <= set(HAND_ROLLED_OK), sorted(found - set(HAND_ROLLED_OK))
    # the allowlist shrinks with the code: no stale entries
    assert found == set(HAND_ROLLED_OK)


def test_fits_broadcast_limit():
    from kb_ner_ray.stages.partitioning import (BROADCAST_MAX_BYTES,
                                                fits_broadcast)

    assert fits_broadcast(None) and fits_broadcast(0)
    assert fits_broadcast(BROADCAST_MAX_BYTES)
    assert not fits_broadcast(BROADCAST_MAX_BYTES + 1)


_SIZE_CALLS = ("size_bytes", "_table_bytes")


def _measures_size(node) -> bool:
    return any(isinstance(n, ast.Call)
               and getattr(n.func, "attr", getattr(n.func, "id", None))
               in _SIZE_CALLS for n in ast.walk(node))


def test_one_broadcast_rule():
    """Every driver-side size decision asks partitioning.fits_broadcast.
    Outside partitioning.py no function takes a ``plan`` or ``*_bytes``
    parameter (a per-operator knob forks the rule), and no
    ``size_bytes()`` / ``_table_bytes(...)`` result is compared, directly
    or through a local name it was assigned to."""
    knobs, compares = [], []
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        if rel == "stages/partitioning.py":
            continue
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                continue
            a = fn.args
            for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs,
                        a.vararg, a.kwarg]:
                if arg and (arg.arg == "plan" or arg.arg.endswith("_bytes")):
                    knobs.append(f"{rel}:{fn.lineno} {arg.arg}")
        sized = {t.id for n in ast.walk(tree) if isinstance(n, ast.Assign)
                 and _measures_size(n.value)
                 for t in n.targets if isinstance(t, ast.Name)}
        for n in ast.walk(tree):
            if isinstance(n, ast.Compare) and any(
                    _measures_size(side) or any(
                        isinstance(x, ast.Name) and x.id in sized
                        for x in ast.walk(side))
                    for side in [n.left, *n.comparators]):
                compares.append(f"{rel}:{n.lineno}")
    assert not knobs, knobs
    assert not compares, compares
