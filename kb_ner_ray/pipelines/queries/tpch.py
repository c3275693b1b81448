"""Queries over the TPC-H relational tables (lineitem, orders, customer,
nation, region, supplier, part): grouped aggregates, grouping sets,
the join matrix and the Q5 star join."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data.aggregate import Sum

from ...stages import partitioning
from ...stages.partitioning import resolve, worker_state
from ._common import (_cents, _keep_keys, _probe_sorted, _read,
                      _revenue_partial, _table_bytes, _tree_agg)


def q_pricing_summary(sf_dir: str):
    """TPC-H Q1-shaped grouped aggregate: per-batch pyarrow group_by partials
    (the combiner), tiny driver-side final — the groups are the 3x2 flag/
    status space, so no shuffle of the 600k-row stream is ever needed."""
    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_linestatus", "l_quantity",
                        "l_extendedprice", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        t = t.append_column("revenue", rev)
        return t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("l_quantity", "sum"), ("l_extendedprice", "sum"),
             ("revenue", "sum"), ("l_discount", "sum"),
             ("l_discount", "count")])

    df = _tree_agg(ds, ["l_returnflag", "l_linestatus"], partial,
                   {"l_quantity_sum": "sum", "l_extendedprice_sum": "sum",
                    "revenue_sum": "sum", "l_discount_sum": "sum",
                    "l_discount_count": "sum"})
    out = df[["l_returnflag", "l_linestatus"]].copy()
    out["sum_qty"] = _cents(df["l_quantity_sum"])
    out["sum_base"] = _cents(df["l_extendedprice_sum"])
    out["sum_disc_price"] = _cents(df["revenue_sum"])
    out["avg_disc"] = _cents(df["l_discount_sum"] / df["l_discount_count"],
                             10000)
    out["n_rows"] = df["l_discount_count"].astype(np.int64)
    return out


SQL_PRICING = """
SELECT l_returnflag, l_linestatus,
       CAST(FLOOR(sum(l_quantity) * 100 + 0.5) AS BIGINT) AS sum_qty,
       CAST(FLOOR(sum(l_extendedprice) * 100 + 0.5) AS BIGINT) AS sum_base,
       CAST(FLOOR(sum(l_extendedprice * (1 - l_discount)) * 100 + 0.5) AS BIGINT)
           AS sum_disc_price,
       CAST(FLOOR(avg(l_discount) * 10000 + 0.5) AS BIGINT) AS avg_disc,
       count(*) AS n_rows
FROM lineitem GROUP BY l_returnflag, l_linestatus
"""


def q_top_orders(sf_dir: str):
    """Grouped revenue + global top-10 (sort/limit after a pre-aggregated
    groupby; ties broken by orderkey)."""
    ds = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def add_revenue(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"l_orderkey": t["l_orderkey"], "revenue": rev})

    top = (
        ds.map_batches(add_revenue, batch_format="pyarrow")
        .groupby("l_orderkey").aggregate(Sum("revenue", alias_name="revenue"))
        .sort(["revenue", "l_orderkey"], descending=[True, False])
        .limit(10)
    )
    df = top.to_pandas()
    df["revenue"] = _cents(df["revenue"])
    return df


SQL_TOP_ORDERS = """
SELECT l_orderkey,
       CAST(FLOOR(sum(l_extendedprice * (1 - l_discount)) * 100 + 0.5) AS BIGINT)
           AS revenue
FROM lineitem GROUP BY l_orderkey
ORDER BY sum(l_extendedprice * (1 - l_discount)) DESC, l_orderkey LIMIT 10
"""


_DIMS_STATE: dict = {}  # _attach_dims' slot: n_ref -> dimension arrays


def _attach_dims(t: pa.Table, n_ref=None) -> pa.Table:
    """customer rows -> (r_name, n_name, c_acctbal) through the broadcast
    sorted nation keys and their name arrays (inner join)."""
    keys, n_names, r_names = worker_state(_DIMS_STATE, n_ref,
                                          lambda: resolve(n_ref))
    idx, valid = _probe_sorted(keys, t["c_nationkey"].to_numpy())
    t = t.filter(pa.array(valid))  # inner join: drop unknown keys
    take = pa.array(idx[valid], pa.int64())
    return pa.table({
        "r_name": r_names.take(take),
        "n_name": n_names.take(take),
        "c_acctbal": t["c_acctbal"],
    })


def q_customer_rollup(sf_dir: str):
    """customer x nation x region via BROADCAST dict lookups (dimension
    tables are the small side; no shuffle join), then grouped agg."""
    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet").to_pylist()
    region = pq.read_table(f"{sf_dir}/region.parquet").to_pylist()
    r_name = {r["r_regionkey"]: r["r_name"] for r in region}
    n_map = {n["n_nationkey"]: (n["n_name"], r_name[n["n_regionkey"]])
             for n in nation}
    # sorted-key + value-array broadcast: the batch lookup is a vectorized
    # searchsorted + take, not a per-row dict probe
    nk = sorted(n_map)
    n_ref = ray.put((np.array(nk, dtype=np.int64),
                     pa.array([n_map[k][0] for k in nk], pa.string()),
                     pa.array([n_map[k][1] for k in nk], pa.string())))

    def partial(t: pa.Table) -> pa.Table:
        return t.group_by(["r_name", "n_name"]).aggregate(
            [("c_acctbal", "sum"), ("c_acctbal", "count")])

    pdf = (
        _read(sf_dir, "customer", columns=["c_nationkey", "c_acctbal"])
        .map_batches(_attach_dims, fn_kwargs={"n_ref": n_ref},
                     batch_format="pyarrow")
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()  # nation-cardinality partials
    )
    df = pdf.groupby(["r_name", "n_name"], as_index=False).agg(
        {"c_acctbal_sum": "sum", "c_acctbal_count": "sum"})
    df["sum_acctbal"] = _cents(df["c_acctbal_sum"])
    df["n_customers"] = df["c_acctbal_count"].astype(np.int64)
    return df[["r_name", "n_name", "n_customers", "sum_acctbal"]]


SQL_CUSTOMER_ROLLUP = """
SELECT r.r_name, n.n_name, count(*) AS n_customers,
       CAST(FLOOR(sum(c.c_acctbal) * 100 + 0.5) AS BIGINT) AS sum_acctbal
FROM customer c JOIN nation n ON c.c_nationkey = n.n_nationkey
JOIN region r ON n.n_regionkey = r.r_regionkey
GROUP BY r.r_name, n.n_name
"""


_CODES_STATE: dict = {}  # _code_revenue's slot: ref -> (orderkeys, codes)


def _code_revenue(t: pa.Table, ref=None, n_codes: int = 0) -> pa.Table:
    """lineitem batch -> per-code revenue partials, probing the broadcast
    (sorted orderkeys, code of each) arrays (inner join)."""
    ok_s, codes = worker_state(_CODES_STATE, ref, lambda: resolve(ref))
    idx, valid = _probe_sorted(ok_s, t["l_orderkey"].to_numpy())
    rev = (t["l_extendedprice"].to_numpy()
           * (1.0 - t["l_discount"].to_numpy()))[valid]
    return _revenue_partial(codes[idx[valid]], rev, n_codes)


def q_orders_lineitem_join(sf_dir: str):
    """Large-side join orders x lineitem -> per-orderpriority stats via the
    sorted-array broadcast (orderkey array + priority-code array, zero-copy
    numpy; searchsorted probe + bincount partials).  AUTO-SELECTED: the
    co-partitioned plan (q_orders_lineitem_bucketed) runs when the orders
    side fails ``partitioning.fits_broadcast``."""
    import pyarrow.parquet as pq

    if not partitioning.fits_broadcast(_table_bytes(sf_dir, "orders")):
        return q_orders_lineitem_bucketed(sf_dir)

    orders = pq.read_table(f"{sf_dir}/orders.parquet",
                           columns=["o_orderkey", "o_orderpriority"])
    o_keys = orders.column("o_orderkey").to_numpy()
    prios = orders.column("o_orderpriority").to_pylist()
    prio_names = sorted(set(prios))
    prio_idx = {p: i for i, p in enumerate(prio_names)}
    order = np.argsort(o_keys)
    ok_sorted = o_keys[order]
    codes = np.array([prio_idx[prios[i]] for i in order], dtype=np.int64)
    ref = ray.put((ok_sorted, codes))
    pdf = (_read(sf_dir, "lineitem",
                 columns=["l_orderkey", "l_extendedprice", "l_discount"])
           .map_batches(_code_revenue,
                        fn_kwargs={"ref": ref, "n_codes": len(prio_names)},
                        batch_format="pyarrow")
           .to_pandas())
    df = pdf.groupby("code", as_index=False).agg(
        {"revenue_sum": "sum", "revenue_count": "sum"})
    df = df[df["revenue_count"] > 0].copy()
    df["o_orderpriority"] = [prio_names[int(c)] for c in df["code"]]
    df["revenue"] = _cents(df["revenue_sum"])
    df["n_items"] = df["revenue_count"].astype(np.int64)
    return df[["o_orderpriority", "n_items", "revenue"]]


SQL_ORDERS_LINEITEM = """
SELECT o.o_orderpriority, count(*) AS n_items,
       CAST(FLOOR(sum(l.l_extendedprice * (1 - l.l_discount)) * 100 + 0.5)
            AS BIGINT) AS revenue
FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
GROUP BY o.o_orderpriority
"""


def q_orders_lineitem_bucketed(sf_dir: str):
    """Same result as orders_lineitem_join but via the GENERIC bucketed
    hash join (stages/joins.py) — the documented fallback when neither side
    fits in a broadcast.  One all-to-all on hash(l_orderkey) over a cluster-sized bucket count."""
    from ...stages.joins import hash_join

    lineitem = _read(sf_dir, "lineitem",
                     columns=["l_orderkey", "l_extendedprice", "l_discount"])
    orders = (_read(sf_dir, "orders",
                    columns=["o_orderkey", "o_orderpriority"])
              .map_batches(lambda t: t.rename_columns(
                  ["l_orderkey", "o_orderpriority"]),
                  batch_format="pyarrow"))
    joined = hash_join(lineitem, orders, on="l_orderkey")

    def partial(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"o_orderpriority": t["o_orderpriority"],
                         "revenue": rev}).group_by(
            "o_orderpriority").aggregate(
            [("revenue", "sum"), ("revenue", "count")])

    pdf = joined.map_batches(partial, batch_format="pyarrow").to_pandas()
    df = pdf.groupby("o_orderpriority", as_index=False).agg(
        {"revenue_sum": "sum", "revenue_count": "sum"})
    df["revenue"] = _cents(df["revenue_sum"])
    df["n_items"] = df["revenue_count"].astype(np.int64)
    return df[["o_orderpriority", "n_items", "revenue"]]


def q_revenue_by_nation_bucketed(sf_dir: str):
    """revenue_by_nation via co-partitioned hash joins (stages/joins.py):
    lineitem ⋈ orders on orderkey, then ⋈ customer on custkey — no fact
    table is ever broadcast; only the 25-row nation map rides the driver.
    Per-batch bincount partials keep the final combine vocabulary-sized.
    Same oracle as revenue_by_nation."""
    import pyarrow.parquet as pq

    from ...stages.joins import hash_join

    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    nation_name = dict(zip(nation.column("n_nationkey").to_pylist(),
                           nation.column("n_name").to_pylist()))

    lineitem = _read(sf_dir, "lineitem",
                     columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def orders_rekey(t: pa.Table) -> pa.Table:
        return pa.table({"l_orderkey": t["o_orderkey"],
                         "o_custkey": t["o_custkey"]})

    orders = (_read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
              .map_batches(orders_rekey, batch_format="pyarrow"))

    def cust_rekey(t: pa.Table) -> pa.Table:
        return pa.table({"o_custkey": t["c_custkey"],
                         "c_nationkey": t["c_nationkey"]})

    customer = (_read(sf_dir, "customer",
                      columns=["c_custkey", "c_nationkey"])
                .map_batches(cust_rekey, batch_format="pyarrow"))

    joined = hash_join(hash_join(lineitem, orders, on="l_orderkey"),
                       customer, on="o_custkey")

    def partial(t: pa.Table) -> pa.Table:
        rev = (t["l_extendedprice"].to_numpy()
               * (1.0 - t["l_discount"].to_numpy()))
        code = t["c_nationkey"].to_numpy().astype(np.int64)
        return _revenue_partial(code, rev,
                                int(code.max()) + 1 if len(code) else 1)

    pdf = joined.map_batches(partial, batch_format="pyarrow").to_pandas()
    df = pdf.groupby("code", as_index=False).agg(
        {"revenue_sum": "sum", "revenue_count": "sum"})
    df = df[df["revenue_count"] > 0].copy()
    df["n_name"] = df["code"].map(nation_name)
    df["revenue"] = _cents(df["revenue_sum"])
    df["n_items"] = df["revenue_count"].astype(np.int64)
    return df[["n_name", "n_items", "revenue"]]


def q_revenue_by_nation(sf_dir: str):
    """3-hop join lineitem -> orders -> customer -> nation, fully
    vectorized: the dimension chain is composed driver-side into a SORTED
    orderkey array + nation-code array (zero-copy numpy broadcast -- no
    per-worker dict deserialization), and the fact scan probes it with
    searchsorted and pre-aggregates per nation code with bincount.
    AUTO-SELECTED plan: the broadcast probe requires the dimension chain
    (orders+customer) to pass ``partitioning.fits_broadcast``; above the
    limit the co-partitioned hash-join plan runs instead."""
    import pyarrow.parquet as pq

    if not partitioning.fits_broadcast(_table_bytes(sf_dir, "orders")
                                       + _table_bytes(sf_dir, "customer")):
        return q_revenue_by_nation_bucketed(sf_dir)

    orders = pq.read_table(f"{sf_dir}/orders.parquet",
                           columns=["o_orderkey", "o_custkey"])
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"])
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    n_keys = nation.column("n_nationkey").to_numpy()
    names = nation.column("n_name").to_pylist()
    n_order = np.argsort(n_keys)
    sorted_names = [names[i] for i in n_order]
    # customer: custkey(sorted) -> dense nation code
    c_keys = cust.column("c_custkey").to_numpy()
    c_order = np.argsort(c_keys)
    c_keys_sorted = c_keys[c_order]
    n_idx, n_valid = _probe_sorted(
        n_keys[n_order], cust.column("c_nationkey").to_numpy()[c_order])
    c_keys_sorted = c_keys_sorted[n_valid]  # inner join: drop nation-less
    nat_code_of_cust = n_idx[n_valid]
    # orders: orderkey(sorted) -> nation code
    o_keys = orders.column("o_orderkey").to_numpy()
    o_order = np.argsort(o_keys)
    ok_sorted = o_keys[o_order]
    o_cust = orders.column("o_custkey").to_numpy()[o_order]
    c_idx, c_valid = _probe_sorted(c_keys_sorted, o_cust)
    ok_sorted = ok_sorted[c_valid]  # inner join: drop customer-less orders
    o_code = nat_code_of_cust[c_idx[c_valid]]
    ref = ray.put((ok_sorted, o_code.astype(np.int64)))
    pdf = (_read(sf_dir, "lineitem",
                 columns=["l_orderkey", "l_extendedprice", "l_discount"])
           .map_batches(_code_revenue,
                        fn_kwargs={"ref": ref, "n_codes": len(names)},
                        batch_format="pyarrow")
           .to_pandas())
    df = pdf.groupby("code", as_index=False).agg(
        {"revenue_sum": "sum", "revenue_count": "sum"})
    df = df[df["revenue_count"] > 0].copy()
    df["n_name"] = [sorted_names[int(c)] for c in df["code"]]
    df["revenue"] = _cents(df["revenue_sum"])
    df["n_items"] = df["revenue_count"].astype(np.int64)
    return df[["n_name", "n_items", "revenue"]]


SQL_REVENUE_BY_NATION = """
SELECT n.n_name, count(*) AS n_items,
       CAST(FLOOR(sum(l.l_extendedprice * (1 - l.l_discount)) * 100 + 0.5)
            AS BIGINT) AS revenue
FROM lineitem l
JOIN orders o ON l.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
GROUP BY n.n_name
"""


def q_part_filter_topk(sf_dir: str):
    """Filter pushdown at the parquet read + global sort/limit."""
    ds = _read(
        sf_dir, "part",
        columns=["p_partkey", "p_name", "p_retailprice", "p_size"],
        filter=(pc.field("p_size") >= 40),
    )
    df = (ds.sort(["p_retailprice", "p_partkey"], descending=[True, False])
          .limit(20).to_pandas())
    df["p_retailprice"] = _cents(df["p_retailprice"])
    return df[["p_partkey", "p_name", "p_retailprice", "p_size"]]


SQL_PART_TOPK = """
SELECT p_partkey, p_name,
       CAST(FLOOR(p_retailprice * 100 + 0.5) AS BIGINT) AS p_retailprice,
       p_size
FROM part WHERE p_size >= 40
ORDER BY p_retailprice DESC, p_partkey LIMIT 20
"""


def q_nation_median_acctbal(sf_dir: str):
    """Grouped HOLISTIC aggregate (exact median) — not combiner-friendly,
    so the plan is groupby(key).map_groups with an in-group vectorized
    quantile; group count (25 nations) bounds the reduce.  For a
    high-cardinality key this becomes the salted two-phase plan in
    stages/skew.py with a t-digest-style partial — exact median needs the
    group co-located."""
    ds = _read(sf_dir, "customer", columns=["c_nationkey", "c_acctbal"])

    def med(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "c_nationkey": [np.int64(g["c_nationkey"].iloc[0])],
            "median_acctbal": _cents([g["c_acctbal"].median()]),
            # pandas 'linear' interpolation == DuckDB quantile_cont
            "p95_acctbal": _cents([g["c_acctbal"].quantile(0.95)]),
            "n_customers": [np.int64(len(g))],
        })

    return (ds.groupby("c_nationkey")
            .map_groups(med, batch_format="pandas"))


SQL_NATION_MEDIAN = """
SELECT c_nationkey,
       CAST(FLOOR(median(c_acctbal) * 100 + 0.5) AS BIGINT)
           AS median_acctbal,
       CAST(FLOOR(quantile_cont(c_acctbal, 0.95) * 100 + 0.5) AS BIGINT)
           AS p95_acctbal,
       count(*) AS n_customers
FROM customer GROUP BY c_nationkey
"""


def q_nation_top3_names(sf_dir: str):
    """Ordered string aggregation: per nation, the top-3 customer names by
    (acctbal desc, custkey asc) comma-joined — grouped sort + head + join
    inside map_groups vs the SQL window + string_agg oracle."""
    ds = _read(sf_dir, "customer",
               columns=["c_nationkey", "c_name", "c_acctbal"])

    def top3(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["c_acctbal", "c_name"],
                          ascending=[False, True]).head(3)
        return pd.DataFrame({
            "c_nationkey": [np.int64(g["c_nationkey"].iloc[0])],
            "top_names": [",".join(g["c_name"])],
        })

    return (ds.groupby("c_nationkey")
            .map_groups(top3, batch_format="pandas"))


SQL_NATION_TOP3_NAMES = """
SELECT c_nationkey,
       string_agg(c_name, ',' ORDER BY c_acctbal DESC, c_name) AS top_names
FROM (
  SELECT c_nationkey, c_name, c_acctbal,
         row_number() OVER (PARTITION BY c_nationkey
                            ORDER BY c_acctbal DESC, c_name) AS rn
  FROM customer
) WHERE rn <= 3
GROUP BY c_nationkey
"""


def _custkeys_with_orders(sf_dir: str):
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/orders.parquet", columns=["o_custkey"])
    return set(t.column("o_custkey").to_pylist())


def q_customers_semi_bucketed(sf_dir: str):
    """SEMI join via the co-partitioned path (stages/joins.py semi_join):
    no key-set broadcast — the scale path when the right side is a fact
    table.  Same oracle as customers_with_orders."""
    from ...stages.joins import semi_join

    cust = _read(sf_dir, "customer",
                 columns=["c_custkey", "c_name", "c_nationkey"])
    orders = _read(sf_dir, "orders", columns=["o_custkey"])
    return semi_join(cust, orders, on="c_custkey", right_on="o_custkey")


def q_customers_with_orders(sf_dir: str):
    """SEMI join customer ⋉ orders via broadcast key set (no shuffle; the
    key set is the small side, as the reference's J1 keyword dict).
    AUTO-SELECTED: falls over to the co-partitioned semi_join when the
    orders side measures large.  Membership test is a vectorized
    ``pc.is_in`` against the broadcast key array, not per-row Python."""
    if not partitioning.fits_broadcast(_table_bytes(sf_dir, "orders")):
        return q_customers_semi_bucketed(sf_dir)
    keys = ray.put(pa.array(sorted(_custkeys_with_orders(sf_dir)),
                            pa.int64()))
    return (_read(sf_dir, "customer",
                  columns=["c_custkey", "c_name", "c_nationkey"])
            .map_batches(_keep_keys, batch_format="pyarrow",
                         fn_kwargs={"col": "c_custkey", "keys_ref": keys}))


SQL_SEMI_JOIN = """
SELECT c_custkey, c_name, c_nationkey FROM customer
WHERE c_custkey IN (SELECT o_custkey FROM orders)
"""


def q_customers_anti_bucketed(sf_dir: str):
    """ANTI join via the co-partitioned path.  Same oracle as
    customers_no_urgent_orders."""
    from ...stages.joins import semi_join

    cust = _read(sf_dir, "customer",
                 columns=["c_custkey", "c_name", "c_nationkey"])
    urgent = _read(sf_dir, "orders",
                   columns=["o_custkey", "o_orderpriority"],
                   filter=(pc.field("o_orderpriority") == "1-URGENT"))
    return semi_join(cust, urgent, on="c_custkey", right_on="o_custkey",
                     anti=True)


_ANTI_STATE: dict = {}  # _drop_keys' slot: keys ref -> value set


def _drop_keys(t: pa.Table, keys=None) -> pa.Table:
    """customer rows whose c_custkey is NOT in the broadcast key set."""
    value_set = worker_state(_ANTI_STATE, keys, lambda: resolve(keys))
    return t.filter(pc.invert(pc.is_in(t["c_custkey"], value_set=value_set)))


def q_customers_no_urgent_orders(sf_dir: str):
    """ANTI join (the reference's failed-keyword collection seat, J1):
    broadcast key set of urgent-order custkeys, inverted vectorized
    ``pc.is_in`` mask.  AUTO-SELECTED: co-partitioned anti join when the
    orders side measures large."""
    import pyarrow.parquet as pq

    if not partitioning.fits_broadcast(_table_bytes(sf_dir, "orders")):
        return q_customers_anti_bucketed(sf_dir)
    t = pq.read_table(f"{sf_dir}/orders.parquet",
                      columns=["o_custkey", "o_orderpriority"])
    t = t.filter(pc.equal(t["o_orderpriority"], "1-URGENT"))
    keys = ray.put(pa.array(sorted(set(t.column("o_custkey").to_pylist())),
                            pa.int64()))

    return (_read(sf_dir, "customer",
                  columns=["c_custkey", "c_name", "c_nationkey"])
            .map_batches(_drop_keys, fn_kwargs={"keys": keys},
                         batch_format="pyarrow"))


SQL_ANTI_JOIN = """
SELECT c_custkey, c_name, c_nationkey FROM customer
WHERE c_custkey NOT IN (SELECT o_custkey FROM orders
                        WHERE o_orderpriority = '1-URGENT')
"""


def q_nation_acctbal_minmax(sf_dir: str):
    """Grouped min/max/count via per-batch pyarrow partials (combiner) +
    driver-final — min/max compose associatively."""
    ds = _read(sf_dir, "customer", columns=["c_nationkey", "c_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        return t.group_by("c_nationkey").aggregate(
            [("c_acctbal", "min"), ("c_acctbal", "max"),
             ("c_acctbal", "count")])

    df = _tree_agg(ds, ["c_nationkey"], partial,
                   {"c_acctbal_min": "min", "c_acctbal_max": "max",
                    "c_acctbal_count": "sum"})
    out = df[["c_nationkey"]].copy()
    out["min_bal"] = _cents(df["c_acctbal_min"])
    out["max_bal"] = _cents(df["c_acctbal_max"])
    out["n_customers"] = df["c_acctbal_count"].astype(np.int64)
    return out


SQL_MINMAX = """
SELECT c_nationkey,
       CAST(FLOOR(min(c_acctbal) * 100 + 0.5) AS BIGINT) AS min_bal,
       CAST(FLOOR(max(c_acctbal) * 100 + 0.5) AS BIGINT) AS max_bal,
       count(*) AS n_customers
FROM customer GROUP BY c_nationkey
"""


def q_union_sample(sf_dir: str):
    """UNION ALL of two filtered streams + deterministic modulo sample
    (the seeded-sampling seat O5 made reproducible: hash/modulo instead of
    RNG so the oracle can reproduce it)."""
    def part(prio: str):
        return _read(sf_dir, "orders",
                     columns=["o_orderkey", "o_orderpriority"]).filter(
            expr=f"o_orderpriority == '{prio}'")

    ds = part("1-URGENT").union(part("2-HIGH"))

    def sample(t: pa.Table) -> pa.Table:
        keep = pc.equal(pc.bit_wise_and(t["o_orderkey"], 7), 0)
        return t.filter(keep)

    return ds.map_batches(sample, batch_format="pyarrow")


SQL_UNION_SAMPLE = """
SELECT o_orderkey, o_orderpriority FROM orders
WHERE o_orderpriority = '1-URGENT' AND o_orderkey % 8 = 0
UNION ALL
SELECT o_orderkey, o_orderpriority FROM orders
WHERE o_orderpriority = '2-HIGH' AND o_orderkey % 8 = 0
"""


_EXISTS_STATE: dict = {}  # _exists_count's slot: keyset ref -> value set


def _exists_count(t: pa.Table, keyset=None) -> pa.Table:
    """Per-priority counts of the orders whose key is in the broadcast
    key set."""
    value_set = worker_state(_EXISTS_STATE, keyset, lambda: resolve(keyset))
    t = t.filter(pc.is_in(t["o_orderkey"], value_set=value_set))
    return t.group_by("o_orderpriority").aggregate([("o_orderkey", "count")])


def q_order_priority_exists(sf_dir: str):
    """TPC-H-Q4-shaped EXISTS semi-join with date predicates on both sides:
    orders from 1996Q1 having >=1 late-shipped lineitem, counted per
    priority.  Dataflow: filtered lineitem scan -> per-batch DISTINCT
    orderkeys (combiner) -> broadcast key set -> filtered orders scan ->
    per-batch priority counts -> driver-final.  No shuffle; at scale the
    key set becomes a bucketed semi-join on l_orderkey."""
    from datetime import datetime

    lo = datetime(1996, 1, 1)
    hi = datetime(1996, 4, 1)
    ship = datetime(1996, 6, 1)

    def distinct_keys(t: pa.Table) -> pa.Table:
        return t.group_by("l_orderkey").aggregate([])

    keys_df = (
        _read(sf_dir, "lineitem",
              columns=["l_orderkey", "l_shipdate"],
              filter=(pc.field("l_shipdate") >= pa.scalar(ship)))
        .map_batches(distinct_keys, batch_format="pyarrow")
        .to_pandas()
    )
    keyset = ray.put(pa.array(sorted(keys_df["l_orderkey"].tolist()),
                              pa.int64()))

    pdf = (
        _read(
            sf_dir, "orders",
            columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
            filter=((pc.field("o_orderdate") >= pa.scalar(lo))
                    & (pc.field("o_orderdate") < pa.scalar(hi))))
        .map_batches(_exists_count, fn_kwargs={"keyset": keyset},
                     batch_format="pyarrow")
        .to_pandas()
    )
    df = pdf.groupby("o_orderpriority", as_index=False).agg(
        n_orders=("o_orderkey_count", "sum"))
    df["n_orders"] = df["n_orders"].astype(np.int64)
    return df


SQL_ORDER_PRIORITY_EXISTS = """
SELECT o.o_orderpriority, count(*) AS n_orders
FROM orders o
WHERE o.o_orderdate >= TIMESTAMP '1996-01-01'
  AND o.o_orderdate < TIMESTAMP '1996-04-01'
  AND EXISTS (SELECT 1 FROM lineitem l
              WHERE l.l_orderkey = o.o_orderkey
                AND l.l_shipdate >= TIMESTAMP '1996-06-01')
GROUP BY o.o_orderpriority
"""


def _pricing_sets(sf_dir: str, dims: list) -> pd.DataFrame:
    """Grouping sets over (returnflag, linestatus): price/count at the
    finest level, at each single dimension in ``dims`` (the other rolled
    up to the 'ALL' sentinel) and the grand total.  The finest level is a
    bounded 3x2 key space, so per-batch combiners + driver final suffice
    (_tree_agg contract); every coarser level re-aggregates the FINAL
    bounded rows — one corpus pass however many levels it emits.
    (Unbounded-dim grouping sets would instead derive levels through
    bucket_exchange chains.)"""
    keys = ["l_returnflag", "l_linestatus"]
    ds = _read(sf_dir, "lineitem", columns=[*keys, "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        c = pa.array(_cents(t["l_extendedprice"].to_numpy(
            zero_copy_only=False)), pa.int64())
        return (t.append_column("c", c)
                .group_by(keys)
                .aggregate([("c", "sum"), ("c", "count")])
                .rename_columns([*keys, "price_cents", "n"]))

    fine = _tree_agg(ds, keys, partial, {"price_cents": "sum", "n": "sum"})
    levels = [fine]
    for dim in dims:
        lvl = fine.groupby(dim, as_index=False)[["price_cents", "n"]].sum()
        lvl[next(k for k in keys if k != dim)] = "ALL"
        levels.append(lvl)
    levels.append(pd.DataFrame({
        "l_returnflag": ["ALL"], "l_linestatus": ["ALL"],
        "price_cents": [fine["price_cents"].sum()], "n": [fine["n"].sum()]}))
    cols = [*keys, "price_cents", "n"]
    out = pd.concat([lvl[cols] for lvl in levels], ignore_index=True)
    return out.astype({"price_cents": np.int64, "n": np.int64})


def q_pricing_rollup(sf_dir: str):
    """ROLLUP grouping sets (OLAP subtotals): price/count by
    (returnflag, linestatus), by returnflag, and grand total."""
    return _pricing_sets(sf_dir, ["l_returnflag"])


SQL_PRICING_ROLLUP = """
SELECT CASE WHEN GROUPING(l_returnflag) = 1 THEN 'ALL'
            ELSE l_returnflag END AS l_returnflag,
       CASE WHEN GROUPING(l_linestatus) = 1 THEN 'ALL'
            ELSE l_linestatus END AS l_linestatus,
       CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT))
            AS BIGINT) AS price_cents,
       CAST(count(*) AS BIGINT) AS n
FROM lineitem
GROUP BY ROLLUP(l_returnflag, l_linestatus)
"""


def q_pricing_cube(sf_dir: str):
    """CUBE grouping sets — completes the grouping-sets family next to
    ROLLUP (q_pricing_rollup): all four levels of (returnflag,
    linestatus) subtotals."""
    return _pricing_sets(sf_dir, ["l_returnflag", "l_linestatus"])


SQL_PRICING_CUBE = SQL_PRICING_ROLLUP.replace("ROLLUP", "CUBE")


def q_pricing_correlation(sf_dir: str):
    """Grouped Pearson correlation with INTEGER-EXACT sufficient
    statistics: corr(l_quantity, floor(l_extendedprice)) per returnflag
    (whole-dollar y keeps every sum-of-squares inside int64 at any
    scale — corr is scale-invariant, so the metric is unchanged).
    Per-batch (n, Sx, Sy, Sxy, Sxx, Syy) partials, bounded-key
    combiner; the ONLY float op is the final formula, written as the
    identical double expression in the oracle.  Quantized to bp."""
    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_quantity", "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        x = t["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
        y = np.floor(t["l_extendedprice"].to_numpy(
            zero_copy_only=False)).astype(np.int64)
        df = pd.DataFrame({
            "l_returnflag": t["l_returnflag"].to_pylist(),
            "n": np.ones(len(t), np.int64),
            "sx": x, "sy": y, "sxy": x * y, "sxx": x * x, "syy": y * y,
        }).groupby("l_returnflag", as_index=False).sum()
        return pa.Table.from_pandas(df, preserve_index=False)

    agg = _tree_agg(ds, ["l_returnflag"], partial,
                    {"n": "sum", "sx": "sum", "sy": "sum", "sxy": "sum",
                     "sxx": "sum", "syy": "sum"})
    n = agg["n"].to_numpy(np.float64)
    sx = agg["sx"].to_numpy(np.float64)
    sy = agg["sy"].to_numpy(np.float64)
    num = n * agg["sxy"].to_numpy(np.float64) - sx * sy
    den = np.sqrt((n * agg["sxx"].to_numpy(np.float64) - sx * sx)
                  * (n * agg["syy"].to_numpy(np.float64) - sy * sy))
    corr = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
    return pd.DataFrame({
        "l_returnflag": agg["l_returnflag"],
        "corr_bp": np.floor(corr * 10_000 + 0.5).astype(np.int64),
        "n": agg["n"].to_numpy(np.int64),
    })


SQL_PRICING_CORRELATION = """
WITH v AS (SELECT l_returnflag,
                  CAST(l_quantity AS BIGINT) AS x,
                  CAST(floor(l_extendedprice) AS BIGINT) AS y
           FROM lineitem),
s AS (SELECT l_returnflag, count(*) AS n, sum(x) AS sx, sum(y) AS sy,
             sum(x * y) AS sxy, sum(x * x) AS sxx, sum(y * y) AS syy
      FROM v GROUP BY l_returnflag)
SELECT l_returnflag,
       CAST(FLOOR(CASE WHEN (CAST(n AS DOUBLE) * sxx
                             - CAST(sx AS DOUBLE) * sx)
                           * (CAST(n AS DOUBLE) * syy
                              - CAST(sy AS DOUBLE) * sy) > 0
            THEN (CAST(n AS DOUBLE) * sxy - CAST(sx AS DOUBLE) * sy)
                 / sqrt((CAST(n AS DOUBLE) * sxx
                         - CAST(sx AS DOUBLE) * sx)
                        * (CAST(n AS DOUBLE) * syy
                           - CAST(sy AS DOUBLE) * sy))
            ELSE 0 END * 10000 + 0.5) AS BIGINT) AS corr_bp,
       CAST(n AS BIGINT) AS n
FROM s
"""


Q5_REGION = "ASIA"


def _q5_region_nations(sf_dir: str):
    """(sorted nationkeys, names in that order) for Q5_REGION — the tiny
    driver-side dimension head shared by both Q5 plans."""
    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    region = pq.read_table(f"{sf_dir}/region.parquet")
    rk = dict(zip(region.column("r_regionkey").to_pylist(),
                  region.column("r_name").to_pylist()))
    nk = nation.column("n_nationkey").to_numpy()
    nr = nation.column("n_regionkey").to_pylist()
    names = nation.column("n_name").to_pylist()
    keep = np.array([rk.get(r) == Q5_REGION for r in nr], bool)
    kept_keys = nk[keep]
    kept_names = [names[i] for i in np.flatnonzero(keep)]
    order = np.argsort(kept_keys)
    return kept_keys[order], [kept_names[i] for i in order]


def _q5_finalize(pdf: pd.DataFrame, nat_names: list) -> pd.DataFrame:
    agg = pdf.groupby("code", as_index=False).agg(
        revenue_sum=("revenue_sum", "sum"), n=("revenue_count", "sum"))
    agg = agg[agg["n"] > 0]
    return (pd.DataFrame({
        "n_name": [nat_names[int(c)] for c in agg["code"]],
        "n_local_lineitems": agg["n"].to_numpy(np.int64),
        "revenue_cents": _cents(agg["revenue_sum"]),
    }).sort_values("n_name").reset_index(drop=True))


_SUPPLIER_STATE: dict = {}  # _local_supplier_revenue's slot: ref -> arrays


def _local_supplier_revenue(t: pa.Table, ref=None,
                            n_codes: int = 0) -> pa.Table:
    """lineitem batch -> per-nation revenue partials of the rows whose
    customer and supplier nation codes (probed in the broadcast sorted
    orderkey and suppkey arrays) are equal."""
    oks, ocode, sks, scode = worker_state(_SUPPLIER_STATE, ref,
                                          lambda: resolve(ref))
    i1, v1 = _probe_sorted(oks, t["l_orderkey"].to_numpy())
    i2, v2 = _probe_sorted(sks, t["l_suppkey"].to_numpy())
    valid = v1 & v2
    cc = ocode[i1[valid]]
    same = cc == scode[i2[valid]]
    rev = (t["l_extendedprice"].to_numpy()
           * (1.0 - t["l_discount"].to_numpy()))[valid][same]
    return _revenue_partial(cc[same], rev, n_codes)


def q_local_supplier_revenue(sf_dir: str):
    """TPC-H Q5-shaped LOCAL-SUPPLIER revenue: lineitems whose CUSTOMER
    (via orders) and SUPPLIER sit in the SAME nation of one region — the
    classic 6-table star join (region/nation/customer/orders/supplier
    dims around the lineitem fact).  AUTO-SELECTED plan:

    * broadcast (orders+customer+supplier pass
      ``partitioning.fits_broadcast``):
      both dimension chains compose driver-side into sorted key arrays +
      dense nation codes (orderkey -> customer nation; suppkey ->
      supplier nation), ``ray.put`` once, and the single fact scan probes
      both with searchsorted, keeps code-equal rows and pre-aggregates
      with bincount — ZERO shuffles, nation-bounded partials;
    * bucketed (above the limit): three co-partitioned
      hash joins (orders x customer on custkey, lineitem x that on
      orderkey, x supplier on suppkey) with the region filter pushed into
      the dimension reads, then the same nation-code partial combine.
      Plan parity is pinned by pytest."""
    if not partitioning.fits_broadcast(_table_bytes(sf_dir, "orders")
                                       + _table_bytes(sf_dir, "customer")
                                       + _table_bytes(sf_dir, "supplier")):
        return q_local_supplier_revenue_bucketed(sf_dir)
    import pyarrow.parquet as pq

    nat_sorted, nat_names = _q5_region_nations(sf_dir)
    n_codes = len(nat_sorted)
    # customer chain: custkey(sorted) -> region nation code (inner)
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"])
    ck = cust.column("c_custkey").to_numpy()
    co = np.argsort(ck)
    ci, cv = _probe_sorted(nat_sorted,
                           cust.column("c_nationkey").to_numpy()[co])
    ck_sorted = ck[co][cv]
    c_code = ci[cv]
    # orders chain: orderkey(sorted) -> customer nation code
    orders = pq.read_table(f"{sf_dir}/orders.parquet",
                           columns=["o_orderkey", "o_custkey"])
    ok = orders.column("o_orderkey").to_numpy()
    oo = np.argsort(ok)
    oi, ov = _probe_sorted(ck_sorted,
                           orders.column("o_custkey").to_numpy()[oo])
    ok_sorted = ok[oo][ov]
    o_code = c_code[oi[ov]]
    # supplier chain: suppkey(sorted) -> region nation code
    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"])
    sk = sup.column("s_suppkey").to_numpy()
    so = np.argsort(sk)
    si, sv = _probe_sorted(nat_sorted,
                           sup.column("s_nationkey").to_numpy()[so])
    sk_sorted = sk[so][sv]
    s_code = si[sv]
    ref = ray.put((ok_sorted, o_code.astype(np.int64),
                   sk_sorted, s_code.astype(np.int64)))

    pdf = (_read(sf_dir, "lineitem",
                 columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                          "l_discount"])
           .map_batches(_local_supplier_revenue,
                        fn_kwargs={"ref": ref, "n_codes": n_codes},
                        batch_format="pyarrow")
           .to_pandas())
    return _q5_finalize(pdf, nat_names)


def q_local_supplier_revenue_bucketed(sf_dir: str):
    """Q5 above the broadcast gate: three co-partitioned hash joins (the
    general plan when no dimension chain fits a worker).  Region filter
    pushed into the customer/supplier reads; join payloads are key +
    nation-code ints only; the post-join scan emits nation-bounded
    bincount partials."""
    from ...stages.joins import hash_join

    nat_sorted, nat_names = _q5_region_nations(sf_dir)
    n_codes = len(nat_sorted)
    nref = ray.put(nat_sorted)

    def cust_prep(t: pa.Table) -> pa.Table:
        ns = ray.get(nref)
        i, v = _probe_sorted(ns, t["c_nationkey"].to_numpy())
        return pa.table({
            "o_custkey": pa.array(t["c_custkey"].to_numpy()[v]),
            "cust_code": pa.array(i[v].astype(np.int64)),
        })

    def sup_prep(t: pa.Table) -> pa.Table:
        ns = ray.get(nref)
        i, v = _probe_sorted(ns, t["s_nationkey"].to_numpy())
        return pa.table({
            "l_suppkey": pa.array(t["s_suppkey"].to_numpy()[v]),
            "supp_code": pa.array(i[v].astype(np.int64)),
        })

    cust = (_read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
            .map_batches(cust_prep, batch_format="pyarrow"))
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    j1 = hash_join(orders, cust, on="o_custkey").map_batches(
        lambda t: t.select(["o_orderkey", "cust_code"]),
        batch_format="pyarrow")

    def line_prep(t: pa.Table) -> pa.Table:
        rev = (t["l_extendedprice"].to_numpy()
               * (1.0 - t["l_discount"].to_numpy()))
        return pa.table({
            "o_orderkey": t["l_orderkey"],
            "l_suppkey": t["l_suppkey"],
            "rev": pa.array(rev, pa.float64()),
        })

    line = (_read(sf_dir, "lineitem",
                  columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                           "l_discount"])
            .map_batches(line_prep, batch_format="pyarrow"))
    j2 = hash_join(line, j1, on="o_orderkey").map_batches(
        lambda t: t.select(["l_suppkey", "cust_code", "rev"]),
        batch_format="pyarrow")
    sup = (_read(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
           .map_batches(sup_prep, batch_format="pyarrow"))
    j3 = hash_join(j2, sup, on="l_suppkey")

    def partial(t: pa.Table) -> pa.Table:
        cc = t["cust_code"].to_numpy(zero_copy_only=False)
        sc = t["supp_code"].to_numpy(zero_copy_only=False)
        same = cc == sc
        rev = t["rev"].to_numpy(zero_copy_only=False)[same]
        return _revenue_partial(cc[same].astype(np.int64), rev, n_codes)

    pdf = (j3.map_batches(partial, batch_format="pyarrow").to_pandas())
    return _q5_finalize(pdf, nat_names)


SQL_LOCAL_SUPPLIER_REVENUE = f"""
SELECT n.n_name,
       count(*) AS n_local_lineitems,
       CAST(FLOOR(sum(l.l_extendedprice * (1 - l.l_discount)) * 100 + 0.5)
            AS BIGINT) AS revenue_cents
FROM lineitem l
JOIN orders o ON l.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN supplier s ON l.l_suppkey = s.s_suppkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
             AND s.s_nationkey = n.n_nationkey
JOIN region r ON n.n_regionkey = r.r_regionkey
WHERE r.r_name = '{Q5_REGION}'
GROUP BY n.n_name
"""
