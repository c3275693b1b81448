"""bucket_exchange and co_partition: the single-input and the two-input
hash-bucket exchanges that every bucketed operator routes through; the
worker-state helpers; and the structural guards that keep every operator
on these shared helpers."""

import ast
import gc
import pathlib
import re
import uuid
import weakref

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


# ---- one fan-out rule, read on the driver --------------------------------

_FANOUT_KNOBS = ("n_buckets", "n_salts", "row_cap", "max_group")

# what a worker must not call: the rule's readers and the cluster query
_FANOUT_READS = {"default_buckets", "default_salts", "triangle_split",
                 "group_row_cap", "overflow_rows", "cluster_resources"}


def _defaulted_args(fn):
    a = fn.args
    pos = [*a.posonlyargs, *a.args]
    yield from pos[len(pos) - len(a.defaults):]
    yield from (arg for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                if d is not None)


def _map_fn_name(call: ast.Call):
    """Name of the module-level function a map_batches / map_groups call
    runs (``fn``, ``functools.partial(fn, ...)`` or ``module.fn``)."""
    fn = call.args[0] if call.args else next(
        (k.value for k in call.keywords if k.arg == "fn"), None)
    if isinstance(fn, ast.Call) and _func_name(fn) == "partial" and fn.args:
        fn = fn.args[0]
    return getattr(fn, "attr", getattr(fn, "id", None))


def test_one_fanout_rule():
    """Every bucketed operator reads the fan-out rule
    (``partitioning.default_buckets``/``default_salts``/``triangle_split``/
    ``group_row_cap``/``overflow_rows``) on the driver.  Outside
    partitioning.py: no function has a defaulted ``n_buckets``,
    ``n_salts``, ``row_cap`` or ``max_group`` parameter (a per-operator
    option forks the rule), and
    no module-level function that ``map_batches``/``map_groups`` runs
    reaches, through the package's module-level functions, a call to the
    rule or to ``ray.cluster_resources`` (a worker would ask the cluster
    per batch, and its fan-out would follow the cluster size at that
    moment, not at plan time)."""
    knobs, trees = [], {}
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        if rel != "stages/partitioning.py":
            trees[rel] = ast.parse(path.read_text())
    calls: dict = {}  # module-level function name -> names it calls
    for rel, tree in trees.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                knobs += [f"{rel}:{fn.lineno} {fn.name}({arg.arg})"
                          for arg in _defaulted_args(fn)
                          if arg.arg in _FANOUT_KNOBS]
        for fn in tree.body:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls.setdefault(fn.name, set()).update(
                    _func_name(n) for n in ast.walk(fn)
                    if isinstance(n, ast.Call))
    reads = set(_FANOUT_READS)
    while True:
        more = {f for f, called in calls.items() if called & reads} - reads
        if not more:
            break
        reads |= more
    in_workers = [f"{rel}:{n.lineno} {_map_fn_name(n)}"
                  for rel, tree in trees.items() for n in ast.walk(tree)
                  if isinstance(n, ast.Call)
                  and _func_name(n) in ("map_batches", "map_groups")
                  and _map_fn_name(n) in calls
                  and _map_fn_name(n) in reads]
    assert not knobs, knobs
    assert not in_workers, in_workers


# ---- one scheduling rule, on the Dataset's own context ------------------

# (module, field) pairs that may set a DataContext field, and where
SCHEDULING_SET_OK = {
    ("__main__.py", "enable_progress_bars"):
        "the CLI's own session turns progress bars off; not scheduling",
    ("stages/partitioning.py", "op_resource_reservation_enabled"):
        "run_at_width, the scheduling rule's one setter",
}


def _context_fields() -> set:
    import dataclasses

    from ray.data import DataContext

    return ({f.name for f in dataclasses.fields(DataContext)}
            | {n for n, v in vars(DataContext).items()
               if isinstance(v, property)})


def _context_sets(tree: ast.Module, fields: set):
    """(node, field, source) of every set of a DataContext field in
    ``tree``: an assignment whose target's attribute chain names a
    DataContext field, a Dataset's ``.context`` or ``get_current()``, or a
    ``setattr`` of a field by name."""
    def on_context(t):
        return any((isinstance(sub, ast.Attribute)
                    and (sub.attr in fields or sub.attr == "context"))
                   or (isinstance(sub, ast.Call)
                       and _func_name(sub) == "get_current")
                   for sub in ast.walk(t))

    for n in ast.walk(tree):
        if isinstance(n, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            for t in (n.targets if isinstance(n, ast.Assign)
                      else [n.target]):
                if isinstance(t, ast.Attribute) and on_context(t):
                    yield n, t.attr, ast.unparse(t)
        elif (isinstance(n, ast.Call) and _func_name(n) == "setattr"
              and len(n.args) >= 2 and isinstance(n.args[1], ast.Constant)
              and n.args[1].value in fields):
            yield n, n.args[1].value, ast.unparse(n)


def test_one_scheduling_rule():
    """Outside ``partitioning.run_at_width`` no module under kb_ner_ray/
    sets a ``DataContext`` field, on a Dataset's ``.context`` or on
    ``DataContext.get_current()``.  A second setter would fork the
    scheduling rule, and one on the process-wide context would reach a
    caller's own Datasets.  SCHEDULING_SET_OK lists the two allowed
    sets."""
    fields = _context_fields()
    sets = []
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        tree = ast.parse(path.read_text())
        in_fn = {id(n): top.name for top in tree.body
                 if isinstance(top, ast.FunctionDef) for n in ast.walk(top)}
        for n, field, text in _context_sets(tree, fields):
            if (rel, field) not in SCHEDULING_SET_OK or (
                    rel == "stages/partitioning.py"
                    and in_fn.get(id(n)) != "run_at_width"):
                sets.append(f"{rel}:{n.lineno} {text}")
    assert not sets, sets


# ---- one kernel on the KB side -------------------------------------------

# (module, class or None for module level) allowed to construct a BM25 index
INDEX_BUILD_OK = {
    ("stages/tagger.py", "SentenceKernel"):
        "the one per-worker KB-side state",
    ("data/oracle.py", None):
        "the single-process reference the kernel is checked against",
    ("state/bm25.py", "MultiLangKBIndex"):
        "the index's own module: one KBIndex per language and the "
        "all-languages view",
}


def test_one_kb_side_kernel():
    """Only ``pipelines/kg.py`` (its ``_kernel_map``) passes a function of
    ``stages/tagger.py`` to ``map_batches``, and only ``SentenceKernel``
    and ``data/oracle.py`` construct a ``MultiLangKBIndex``/``KBIndex``
    (INDEX_BUILD_OK).  A second map through the kernel would fork its
    batching, and a second index builder a second per-worker copy of the
    KB."""
    tagger_defs = {n.name for n in ast.parse(
        (PKG / "stages/tagger.py").read_text()).body
        if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    maps, builds = [], []
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        tree = ast.parse(path.read_text())
        from_tagger = {a.asname or a.name for n in ast.walk(tree)
                       if isinstance(n, ast.ImportFrom)
                       and (n.module or "").split(".")[-1] == "tagger"
                       for a in n.names}
        owner = {id(n): top.name for top in tree.body
                 if isinstance(top, ast.ClassDef) for n in ast.walk(top)}
        for n in ast.walk(tree):
            if not isinstance(n, ast.Call):
                continue
            name = _func_name(n)
            fn = (n.args[:1] or [k.value for k in n.keywords
                                 if k.arg == "fn"] or [None])[0]
            if name == "map_batches" and rel != "pipelines/kg.py" and (
                    (isinstance(fn, ast.Name) and fn.id in from_tagger)
                    or (isinstance(fn, ast.Attribute)
                        and fn.attr in tagger_defs)):
                maps.append(f"{rel}:{n.lineno} {ast.unparse(fn)}")
            if (name in ("MultiLangKBIndex", "KBIndex")
                    and (rel, owner.get(id(n))) not in INDEX_BUILD_OK):
                builds.append(f"{rel}:{n.lineno} {name}")
    assert not maps, maps
    assert not builds, builds


# ---- one worker-state helper, no actors ---------------------------------

_SLOT_NAME = re.compile(r"_\w+_(STATE|CACHE)")

# module-level ``_*_STATE``/``_*_CACHE`` dicts that are not worker_state slots
STATE_DICT_OK = {
    ("pipelines/kg.py", "_REFS_CACHE"):
        "the driver-side ray.put memo: one set of broadcast refs per "
        "version of a corpus's kb/ and gazetteer/ files, so repeated runs "
        "reuse the refs (and every worker state keyed by them); no worker "
        "reads it",
}


def _func_name(call: ast.Call):
    return getattr(call.func, "attr", getattr(call.func, "id", None))


def _nested_nodes(tree: ast.Module) -> set:
    """ids of the nodes inside a function or lambda nested in another
    function.  Ray ships such a function by value, with a fresh copy of
    every module dict it names, so a slot read there never caches."""
    out = set()

    def visit(node, depth):
        for child in ast.iter_child_nodes(node):
            d = depth + isinstance(child, (ast.FunctionDef,
                                           ast.AsyncFunctionDef, ast.Lambda))
            if d >= 2:
                out.add(id(child))
            visit(child, d)

    visit(tree, 0)
    return out


def test_one_worker_state_helper():
    """Outside partitioning.py, in kb_ner_ray/: no ``isinstance(...,
    ray.ObjectRef)`` (resolve through ``partitioning.resolve``); no
    ``map_batches`` with ``fn_constructor_kwargs`` or ``concurrency=``
    (an actor pool; stateful stages are plain tasks that keep their state
    through ``partitioning.worker_state``); and no module-level
    ``_*_STATE``/``_*_CACHE`` dict used other than as worker_state's slot
    argument in a module-level function; and no Ray actor class (a class
    under a ``ray.remote`` decorator or passed to ``ray.remote(...)``):
    the package keeps no state in actors."""
    resolves, pools, caches, actors = [], [], [], []
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        if rel == "stages/partitioning.py":
            continue
        tree = ast.parse(path.read_text())
        slots = {t.id for top in tree.body
                 if isinstance(top, (ast.Assign, ast.AnnAssign))
                 and isinstance(top.value, (ast.Dict, ast.Call))
                 for t in (top.targets if isinstance(top, ast.Assign)
                           else [top.target])
                 if isinstance(t, ast.Name) and _SLOT_NAME.fullmatch(t.id)
                 and (rel, t.id) not in STATE_DICT_OK}
        classes = {n.name for n in ast.walk(tree)
                   if isinstance(n, ast.ClassDef)}
        actors += [f"{rel}:{n.lineno} {n.name}" for n in ast.walk(tree)
                   if isinstance(n, ast.ClassDef)
                   and any(_is_remote(d) for d in n.decorator_list)]
        actors += [f"{rel}:{n.lineno} {n.args[0].id}"
                   for n in ast.walk(tree)
                   if isinstance(n, ast.Call) and _is_remote(n.func)
                   and n.args and isinstance(n.args[0], ast.Name)
                   and n.args[0].id in classes]
        as_slot, nested = set(), _nested_nodes(tree)
        for n in ast.walk(tree):
            if not isinstance(n, ast.Call):
                continue
            name = _func_name(n)
            if (name == "isinstance" and len(n.args) == 2
                    and "ObjectRef" in ast.unparse(n.args[1])):
                resolves.append(f"{rel}:{n.lineno}")
            if name == "map_batches" and any(
                    k.arg in ("fn_constructor_kwargs", "concurrency")
                    for k in n.keywords):
                pools.append(f"{rel}:{n.lineno}")
            if name == "worker_state" and n.args:
                as_slot.add(id(n.args[0]))
        for n in ast.walk(tree):
            used = (n.id in slots and isinstance(n.ctx, ast.Load)
                    if isinstance(n, ast.Name) else
                    isinstance(n, ast.Attribute)
                    and bool(_SLOT_NAME.fullmatch(n.attr)))
            if used and (id(n) not in as_slot or id(n) in nested):
                caches.append(f"{rel}:{n.lineno}")
    assert not resolves, resolves
    assert not pools, pools
    assert not caches, caches
    assert not actors, actors


def _is_remote(node) -> bool:
    """``remote`` / ``ray.remote``, bare or called with options."""
    if isinstance(node, ast.Call):
        node = node.func
    return getattr(node, "attr", getattr(node, "id", None)) == "remote"


class _State:
    """Worker state that weakrefs can watch; ``cyclic`` gives it a
    reference cycle, which only the cyclic collector frees."""

    def __init__(self, cyclic=False):
        self.me = self if cyclic else None


def test_worker_state_slots():
    """The factory runs once per key; a new key replaces only its own
    slot's state; two slots stay independent; an unhashable key (an
    in-process value) builds afresh and keeps nothing.  Kept state goes
    to the collector's permanent generation, so a full collection does
    not walk it, and replaced state does not stay frozen: it is freed at
    once, or, if it holds a cycle, by a collection while the new state
    builds."""
    from kb_ner_ray.stages.partitioning import worker_state

    built = []

    def make(tag):
        def factory():
            built.append(tag)
            return [tag]
        return factory

    a, b = {}, {}
    a1 = worker_state(a, "k1", make("a1"))
    assert worker_state(a, "k1", make("again")) is a1
    b1 = worker_state(b, "k1", make("b1"))
    assert b1 is not a1
    a2 = worker_state(a, "k2", make("a2"))
    assert a2 == ["a2"] and list(a) == ["k2"]
    assert worker_state(b, "k1", make("again")) is b1
    assert built == ["a1", "b1", "a2"]
    rows = [{"x": 1}]
    assert worker_state(a, (rows,), lambda: len(rows)) == 1
    assert list(a) == ["k2"]

    slot = {}
    frozen = gc.get_freeze_count()
    st = worker_state(slot, "k1", _State)
    assert gc.get_freeze_count() > frozen
    assert id(st) not in {id(o) for o in gc.get_objects()}
    old = weakref.ref(st)
    del st
    worker_state(slot, "k2", lambda: _State(cyclic=True))
    assert old() is None
    old = weakref.ref(slot["k2"])

    def collected_then_built():
        gc.collect()
        return _State()

    worker_state(slot, "k3", collected_then_built)
    assert old() is None
    assert list(slot) == ["k3"]


_GC_POLICY = {"freeze", "unfreeze", "disable", "collect"}


def test_gc_policy_in_one_place():
    """In kb_ner_ray/, ``gc.freeze``, ``gc.unfreeze``, ``gc.disable`` and
    ``gc.collect`` appear only inside ``partitioning.worker_state``: one
    place decides what the cyclic collector walks."""
    found = []
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        tree = ast.parse(path.read_text())
        allowed = set()
        if rel == "stages/partitioning.py":
            allowed = {id(n) for top in tree.body
                       if isinstance(top, ast.FunctionDef)
                       and top.name == "worker_state"
                       for n in ast.walk(top)}
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and n.module == "gc" and any(
                    a.name in _GC_POLICY for a in n.names):
                found.append(f"{rel}:{n.lineno}")
            elif (isinstance(n, ast.Attribute) and n.attr in _GC_POLICY
                  and isinstance(n.value, ast.Name) and n.value.id == "gc"
                  and id(n) not in allowed):
                found.append(f"{rel}:{n.lineno}")
    assert not found, found


# ---- nothing in the package that only tests reach -----------------------

# public module-level names of kb_ner_ray/ that no code outside tests/
# names, and why each stays
SEAMS = {
    "set_subtoken_backend": "model seam: the T1 tokenizer swap",
    "reset_subtoken_backend": "model seam: undoes set_subtoken_backend",
    "set_splitter_backend": "model seam: the M2 sentence-splitter swap",
    "reset_splitter_backend": "model seam: undoes set_splitter_backend",
    "clean_space": "M4, the only implementation (also the reference's "
                   "replace_ZH)",
    "replace_zh_space": "M5, the only implementation",
    "split_keyword": "M6 (of M4-M6), the only implementation",
    "gen_chinese_search_query": "M8, the only implementation",
    "bioes_to_bio": "M13 BIOES->BIO converter, the only implementation",
    "label2mention": "M14, the only implementation",
    "remap_to_four_class": "M20, the only implementation",
    "pack_by_length": "T5/O1 batch packer, the only implementation",
    "viterbi_decode_masked": "T3 remove_x (S-X masking) decode, the only "
                             "implementation",
    "score_edit_pairs": "T7 reference edit-distance scorer, the only "
                        "implementation",
    "dedup_contexts": "A6, the only implementation",
    "augment_conll_file": "E2 product: the one call that turns a CoNLL "
                          "file into an augmented CoNLL file",
    "span_prf": "A2: the reference span P/R/F1 that tests compare "
                "span_prf_distributed against",
    "spans_to_bioes": "A2: the reference encoder that tests compare the "
                      "span codec against",
    "detect_lang": "the scalar language-ID reference that tests compare "
                   "doc_langid against",
}

ROOT = PKG.parent
_NAMED_IN = [*PKG.rglob("*.py"), *(ROOT / "perfbench").rglob("*.py"),
             *(ROOT / "tools").rglob("*.py"), ROOT / "bench.py",
             ROOT / "__ray_entry__.py"]


def test_no_test_only_code():
    """Every public module-level function or class defined under
    kb_ner_ray/ is named by code outside tests/ (kb_ner_ray/, perfbench/,
    tools/, bench.py, __ray_entry__.py; a test_*.py file there does not
    count, nor prose, nor the definition's own body), or sits in SEAMS
    with its reason.  A second implementation that only tests run is not
    kept."""
    defs, used = [], set()
    for path in _NAMED_IN:
        if path.name.startswith("test_"):
            continue
        tree = ast.parse(path.read_text())
        tops = [t for t in tree.body
                if isinstance(t, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))]
        own = {id(n) for t in tops for n in ast.walk(t)
               if getattr(n, "id", getattr(n, "attr", None)) == t.name}
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and id(n) not in own:
                used.add(n.id)
            elif isinstance(n, ast.Attribute) and id(n) not in own:
                used.add(n.attr)
            elif isinstance(n, ast.alias):
                used.add(n.name.rsplit(".", 1)[-1])
        if PKG in path.parents:
            rel = path.relative_to(PKG).as_posix()
            defs += [(rel, t.lineno, t.name) for t in tops
                     if not t.name.startswith("_")]
    unused = [f"{rel}:{line} {name}" for rel, line, name in defs
              if name not in used and name not in SEAMS]
    assert not unused, unused
    stale = sorted((set(SEAMS) - {name for _, _, name in defs})
                   | (set(SEAMS) & used))
    assert not stale, stale


def test_resolve_reads_refs_and_passes_values():
    from kb_ner_ray.stages.partitioning import resolve

    value = {"x": [1, 2]}
    assert resolve(value) is value
    assert resolve(None) is None
    assert resolve(ray.put(value)) == value
