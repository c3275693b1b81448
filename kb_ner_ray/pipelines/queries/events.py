"""Queries over the ``events`` stream: time windows, sessions, funnels,
exact and approximate order statistics, and its joins to the TPC-H
tables."""

from __future__ import annotations

import json

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ...stages import partitioning
from ...stages.partitioning import bucket_exchange, resolve, worker_state
from ._common import _cents, _read, _table_bytes, _tree_agg


def _window_final(key2: str):
    """Shared bucketed-final for the time-window aggregates: combine
    partials to final (n_events, sum_value) rows inside the reducer."""
    def final(g: pd.DataFrame) -> pa.Table:
        agg = g.groupby(["event_type", key2], as_index=False).agg(
            value_sum=("value_sum", "sum"), n_events=("value_count", "sum"))
        return pa.table({
            "event_type": pa.array(agg["event_type"].astype(str)),
            key2: pa.array(agg[key2].to_numpy().astype("datetime64[us]")),
            "n_events": pa.array(agg["n_events"].to_numpy(np.int64)),
            "sum_value": pa.array(_cents(agg["value_sum"])),
        })
    return final


def q_events_hourly(sf_dir: str):
    """Tumbling hourly windows: per-batch combiner + ONE hash((type,
    hour)) bucket shuffle of PARTIAL rows, final combine in reducers —
    hour cardinality grows with the stream's time span, so the driver
    must only ever see final rows (round-3 verdict #2)."""
    ds = _read(sf_dir, "events", columns=["event_type", "ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(t["ts"], unit="hour")
        return pa.table({"event_type": t["event_type"], "hour": hour,
                         "value": t["value"]}).group_by(
            ["event_type", "hour"]).aggregate(
            [("value", "sum"), ("value", "count")])

    return bucket_exchange(ds, ["event_type", "hour"],
                           _window_final("hour"), prep=partial)


SQL_EVENTS_HOURLY = """
SELECT event_type, date_trunc('hour', ts) AS hour, count(*) AS n_events,
       CAST(FLOOR(sum(value) * 100 + 0.5) AS BIGINT) AS sum_value
FROM events GROUP BY event_type, date_trunc('hour', ts)
"""

def q_events_hopping(sf_dir: str):
    """HOPPING (sliding) event-time windows: 1-hour windows every 15
    minutes, so each event lands in 4 overlapping windows.  Per-batch
    window-key explode (4 fixed offsets) + the same bucketed combiner
    plan as events_hourly — window_start cardinality grows with the
    stream's span, so partials combine inside hash((type, window))
    reducers and only final rows reach the consumer."""
    ds = _read(sf_dir, "events", columns=["event_type", "ts", "value"])
    hops = [pa.scalar(15 * k * 60_000_000, pa.duration("us"))
            for k in range(4)]

    def partial(t: pa.Table) -> pa.Table:
        base = pc.floor_temporal(t["ts"], multiple=15, unit="minute")
        parts = []
        for off in hops:
            ws = pc.subtract(base, off)
            parts.append(pa.table({
                "event_type": t["event_type"], "window_start": ws,
                "value": t["value"]}))
        return pa.concat_tables(parts).group_by(
            ["event_type", "window_start"]).aggregate(
            [("value", "sum"), ("value", "count")])

    return bucket_exchange(ds, ["event_type", "window_start"],
                           _window_final("window_start"), prep=partial)


SQL_EVENTS_HOPPING = """
SELECT event_type,
       date_trunc('hour', ts)
         + (CAST(extract(minute FROM ts) AS BIGINT) // 15)
           * INTERVAL '15 minutes'
         - CAST(i AS BIGINT) * INTERVAL '15 minutes' AS window_start,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(FLOOR(sum(value) * 100 + 0.5) AS BIGINT) AS sum_value
FROM events CROSS JOIN unnest([0, 1, 2, 3]) AS u(i)
GROUP BY event_type, window_start
"""


def q_events_lead_lag(sf_dir: str):
    """Per-user lead/lag window: seconds since the user's previous event
    and until the next (NULL-free: -1 sentinel at the edges to keep the
    hash dtype-stable).  Same one-shuffle coarse user-hash bucket plan as
    sessionize; fully vectorized per bucket (sort + shift)."""
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])


    def lead_lag(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        same_prev = g["user_id"].eq(g["user_id"].shift()).to_numpy()
        same_next = g["user_id"].eq(g["user_id"].shift(-1)).to_numpy()
        # exact integer microseconds (timestamps carry sub-second parts;
        # float total_seconds would round differently than the oracle)
        us = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        prev_gap = np.empty_like(us)
        prev_gap[1:] = us[1:] - us[:-1]
        prev_gap[0] = -1
        next_gap = np.empty_like(us)
        next_gap[:-1] = us[1:] - us[:-1]
        next_gap[-1] = -1
        out = g[["event_id", "user_id"]].copy()
        out["us_since_prev"] = np.where(same_prev, prev_gap, -1)
        out["us_to_next"] = np.where(same_next, next_gap, -1)
        return out

    return bucket_exchange(ds, ["user_id"], lead_lag)


SQL_LEAD_LAG = """
SELECT event_id, user_id,
       CAST(coalesce(date_diff('microsecond',
                lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id),
                ts), -1) AS BIGINT) AS us_since_prev,
       CAST(coalesce(date_diff('microsecond', ts,
                lead(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)),
            -1) AS BIGINT) AS us_to_next
FROM events
"""


def q_events_running_value(sf_dir: str):
    """Per-user running sum (ROWS UNBOUNDED PRECEDING) — the cumulative
    window seat: one coarse user-hash-bucket shuffle, vectorized groupby
    cumsum inside the bucket.  Cents-scaled for a hash-stable oracle."""
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts",
                                          "value"])


    def running(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        cents = np.floor(g["value"].to_numpy() * 100 + 0.5).astype(np.int64)
        run = pd.Series(cents).groupby(
            g["user_id"].to_numpy()).cumsum().to_numpy()
        out = g[["event_id", "user_id"]].copy()
        out["running_cents"] = run
        return out

    return bucket_exchange(ds, ["user_id"], running)


SQL_RUNNING_VALUE = """
SELECT event_id, user_id,
       CAST(sum(CAST(FLOOR(value * 100 + 0.5) AS BIGINT))
                OVER (PARTITION BY user_id ORDER BY ts, event_id
                      ROWS UNBOUNDED PRECEDING) AS BIGINT) AS running_cents
FROM events
"""


def q_events_pivot(sf_dir: str):
    """PIVOT seat: one row per user, one count column per event type.

    Two passes, both scale-safe (round-2 verdict: the old plan ran
    ``_tree_agg`` keyed on the UNBOUNDED user_id and reshaped n_blocks x
    n_users rows on the driver):

    1. discover the pivot DIMENSION (distinct event types) — a genuinely
       bounded key, so the ``_tree_agg`` combiner contract holds;
    2. per-batch (user, type) count partials, one shuffle on
       ``hash(user_id)`` buckets, reshape to the FIXED column set inside
       ``map_groups`` — the driver never holds per-user rows."""
    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def type_partial(t: pa.Table) -> pa.Table:
        return (pa.table({"event_type": t["event_type"]})
                .group_by(["event_type"])
                .aggregate([("event_type", "count")]))

    types = sorted(_tree_agg(ds, ["event_type"], type_partial,
                             {"event_type_count": "sum"})["event_type"])

    def partial(t: pa.Table) -> pa.Table:
        return (pa.table({"user_id": t["user_id"],
                          "event_type": t["event_type"]})
                .group_by(["user_id", "event_type"])
                .aggregate([("event_type", "count")]))

    def reshape(df: pd.DataFrame) -> pd.DataFrame:
        wide = df.pivot_table(index="user_id", columns="event_type",
                              values="event_type_count", fill_value=0,
                              aggfunc="sum")
        out = pd.DataFrame({"user_id": wide.index.to_numpy(np.int64)})
        zeros = np.zeros(len(wide), np.int64)
        for c in types:
            out[f"n_{c}"] = (wide[c].to_numpy(np.int64)
                             if c in wide.columns else zeros)
        return out

    return bucket_exchange(ds, ["user_id"], reshape, prep=partial)


SQL_EVENTS_PIVOT = """
SELECT user_id,
       count(*) FILTER (event_type = 'click')    AS n_click,
       count(*) FILTER (event_type = 'error')    AS n_error,
       count(*) FILTER (event_type = 'purchase') AS n_purchase,
       count(*) FILTER (event_type = 'signup')   AS n_signup,
       count(*) FILTER (event_type = 'view')     AS n_view
FROM events GROUP BY user_id
"""


RANGE_JOIN_DAYS = 7


def q_orders_events_range_join(sf_dir: str):
    """RANGE (interval) join — a seat Ray Data lacks natively: per order,
    how many of the customer's events fall in [o_orderdate, o_orderdate +
    7 days).  Both sides co-partitioned on the customer key (one
    ``co_partition`` all-to-all), per-bucket vectorized searchsorted over
    the sorted event timestamps — the standard interval-join
    decomposition; the partitioning assumption (by-key co-location) is
    the documented requirement."""
    from ...stages.partitioning import co_partition

    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey", "o_orderdate"])
    events = _read(sf_dir, "events", columns=["user_id", "ts"])
    horizon = np.timedelta64(RANGE_JOIN_DAYS, "D")

    def count_in_range(lt: pa.Table, rt: pa.Table) -> pd.DataFrame:
        lg, rg = lt.to_pandas(), rt.to_pandas()
        out_rows = []
        ev_by_user: dict = {}
        for uid, sub in rg.groupby("user_id", sort=False):
            ev_by_user[uid] = np.sort(
                sub["ts"].to_numpy().astype("datetime64[us]"))
        for uid, sub in lg.groupby("o_custkey", sort=False):
            ts = ev_by_user.get(uid)
            starts = sub["o_orderdate"].to_numpy().astype("datetime64[us]")
            if ts is None or not len(ts):
                counts = np.zeros(len(sub), dtype=np.int64)
            else:
                lo = np.searchsorted(ts, starts, side="left")
                hi = np.searchsorted(ts, starts + horizon, side="left")
                counts = (hi - lo).astype(np.int64)
            out_rows.append(pd.DataFrame({
                "o_orderkey": sub["o_orderkey"],
                "n_events_7d": counts,
            }))
        if not out_rows:
            return pd.DataFrame({
                "o_orderkey": pd.Series([], dtype=np.int64),
                "n_events_7d": pd.Series([], dtype=np.int64)})
        return pd.concat(out_rows, ignore_index=True)

    return co_partition(orders, events, (["o_custkey"], ["user_id"]),
                        count_in_range)


SQL_RANGE_JOIN = f"""
SELECT o.o_orderkey,
       (SELECT count(*) FROM events e
        WHERE e.user_id = o.o_custkey
          AND e.ts >= o.o_orderdate
          AND e.ts < o.o_orderdate + INTERVAL {RANGE_JOIN_DAYS} DAY)
           AS n_events_7d
FROM orders o
"""


SESSION_GAP_MIN = 30


def q_events_sessionize(sf_dir: str):
    """Per-user session windows (30-min inactivity gap) — the streaming-
    window seat.  ONE shuffle on a coarse cluster-sized user-hash bucket; all
    users of a bucket are sessionized in a single vectorized pass (sort by
    (user, ts, event_id); break on user change OR gap; cumsum session ids),
    so per-group dispatch stays O(buckets), not O(users)."""
    ds = _read(sf_dir, "events", columns=["user_id", "event_id", "ts"])


    def sessionize_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        new_user = g["user_id"].ne(g["user_id"].shift())
        brk = (g["ts"].diff() > pd.Timedelta(minutes=SESSION_GAP_MIN)) \
            | new_user
        sidg = brk.cumsum()
        first = sidg.where(new_user).ffill()
        g = g.assign(session_id=(sidg - first + 1).astype(np.int64))
        out = g.groupby(["user_id", "session_id"], as_index=False).agg(
            n_events=("event_id", "size"),
            start_ts=("ts", "min"),
            end_ts=("ts", "max"))
        return out[["user_id", "session_id", "n_events",
                    "start_ts", "end_ts"]]

    return bucket_exchange(ds, ["user_id"], sessionize_bucket)


SQL_SESSIONIZE = f"""
WITH marked AS (
  SELECT user_id, event_id, ts,
         CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)
                   > INTERVAL {SESSION_GAP_MIN} MINUTE
              THEN 1 ELSE 0 END AS new_session
  FROM events
), numbered AS (
  SELECT user_id, event_id, ts,
         sum(new_session) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                ROWS UNBOUNDED PRECEDING) + 1 AS session_id
  FROM marked
)
SELECT user_id, CAST(session_id AS BIGINT) AS session_id,
       count(*) AS n_events,
       min(ts) AS start_ts, max(ts) AS end_ts
FROM numbered GROUP BY user_id, session_id
"""


ROLLING_MIN = 30


def q_events_rolling_count(sf_dir: str):
    """Rolling time-window aggregate: per event, how many of the same
    user's events fall in the preceding 30 minutes (RANGE frame incl.
    ts-peers).  ONE shuffle on a coarse user-hash bucket; per-user windows
    vectorized with searchsorted inside the bucket."""
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])


    def rolling(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for _uid, u in g.groupby("user_id", sort=False):
            u = u.sort_values("ts")
            ts = u["ts"].to_numpy()
            lo = np.searchsorted(ts, ts - np.timedelta64(ROLLING_MIN, "m"),
                                 side="left")
            hi = np.searchsorted(ts, ts, side="right")
            u = u.copy()
            u["n_window"] = (hi - lo).astype(np.int64)
            out.append(u[["event_id", "user_id", "n_window"]])
        return pd.concat(out) if out else pd.DataFrame(
            {"event_id": [], "user_id": [], "n_window": []})

    return bucket_exchange(ds, ["user_id"], rolling)


SQL_ROLLING = f"""
SELECT event_id, user_id,
       count(*) OVER (PARTITION BY user_id ORDER BY ts
                      RANGE BETWEEN INTERVAL {ROLLING_MIN} MINUTE PRECEDING
                      AND CURRENT ROW) AS n_window
FROM events
"""


def q_distinct_users(sf_dir: str):
    """COUNT(DISTINCT) via two-phase: per-batch distinct pairs, then a pair
    groupby, then a count per key — no full-row shuffle."""
    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])

    def batch_distinct(t: pa.Table) -> pa.Table:
        return t.group_by(["event_type", "user_id"]).aggregate([])

    # per-batch distinct pairs (the combiner) bound the stream to
    # n_blocks x |types x users|; final distinct+count on the driver.  At
    # user cardinalities where that no longer fits, the same partial stream
    # feeds groupby(event_type, user_id) — or an HLL sketch if approximate
    # counts suffice.
    pdf = (ds.map_batches(batch_distinct, batch_format="pyarrow")
           .to_pandas())
    df = (pdf.drop_duplicates(["event_type", "user_id"])
          .groupby("event_type", as_index=False)
          .agg(n_users=("user_id", "size")))
    df["n_users"] = df["n_users"].astype(np.int64)
    return df


SQL_DISTINCT_USERS = """
SELECT event_type, count(DISTINCT user_id) AS n_users FROM events
GROUP BY event_type
"""


def q_approx_distinct_users(sf_dir: str):
    """KMV-sketch approximate COUNT(DISTINCT user_id) per event type —
    deterministic (blake2b), mergeable combiner partials; accuracy pinned
    by pytest (not SQL-expressible: DuckDB's approx_count_distinct is a
    different sketch)."""
    from ...stages.sketch import approx_distinct

    df = approx_distinct(
        _read(sf_dir, "events", columns=["event_type", "user_id"]),
        column="user_id", group_by="event_type", k=1024)
    df["approx_distinct"] = df["approx_distinct"].round().astype(np.int64)
    return df.rename(columns={"group": "event_type"})


def q_events_asof_bucketed(sf_dir: str):
    """As-of join via the co-partitioned path (stages/joins.py asof_join):
    no broadcast of the orders frame — the scale path when orders is a
    fact table.  Same oracle as events_asof_orders."""
    from ...stages.joins import asof_join

    events = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderdate"])
    out = asof_join(events, orders, left_ts="ts", right_ts="o_orderdate",
                    left_by="user_id", right_by="o_custkey")

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t["event_id"],
            "user_id": t["user_id"],
            "last_order_date": t["o_orderdate"],
        })

    return out.map_batches(finish, batch_format="pyarrow")


_ASOF_STATE: dict = {}  # _last_order_asof's slot: ref -> sorted orders


def _last_order_asof(df: pd.DataFrame, ref=None) -> pd.DataFrame:
    """events -> (event_id, user_id, last_order_date) by merge_asof against
    the broadcast date-sorted orders."""
    right = worker_state(_ASOF_STATE, ref, lambda: resolve(ref))
    merged = pd.merge_asof(df.sort_values("ts"), right, left_on="ts",
                           right_on="o_orderdate", left_by="user_id",
                           right_by="o_custkey", direction="backward")
    merged = merged.rename(columns={"o_orderdate": "last_order_date"})
    return merged[["event_id", "user_id", "last_order_date"]]


def q_events_asof_orders(sf_dir: str):
    """As-of join: each event gets the latest o_orderdate <= ts for
    o_custkey = user_id.  AUTO-SELECTED plan: broadcast merge_asof while
    the orders side measures small (worker-local cached, C-speed pandas
    merge_asof per batch); the co-partitioned asof_join otherwise."""
    if not partitioning.fits_broadcast(_table_bytes(sf_dir, "orders")):
        return q_events_asof_bucketed(sf_dir)
    import pyarrow.parquet as pq

    orders = (pq.read_table(f"{sf_dir}/orders.parquet",
                            columns=["o_custkey", "o_orderdate"])
              .to_pandas().sort_values("o_orderdate"))
    return (_read(sf_dir, "events", columns=["event_id", "user_id", "ts"])
            .map_batches(_last_order_asof, fn_kwargs={"ref": ray.put(orders)},
                         batch_format="pandas"))


SQL_ASOF = """
SELECT e.event_id, e.user_id,
       (SELECT max(o.o_orderdate) FROM orders o
        WHERE o.o_custkey = e.user_id AND o.o_orderdate <= e.ts)
           AS last_order_date
FROM events e
"""


def q_props_json(sf_dir: str):
    """JSON field extraction + grouped sum (per-batch parse, partial sums)."""
    ds = _read(sf_dir, "events", columns=["event_type", "props"])

    def partial(t: pa.Table) -> pa.Table:
        ks = [int(json.loads(p)["k"]) for p in t["props"].to_pylist()]
        return pa.table({"event_type": t["event_type"],
                         "k": pa.array(ks, pa.int64())}).group_by(
            "event_type").aggregate([("k", "sum")])

    df = _tree_agg(ds, ["event_type"], partial, {"k_sum": "sum"})
    df["sum_k"] = df["k_sum"].astype(np.int64)
    return df[["event_type", "sum_k"]]


SQL_PROPS_JSON = """
SELECT event_type,
       CAST(sum(CAST(json_extract_string(props, '$.k') AS BIGINT))
            AS BIGINT) AS sum_k
FROM events GROUP BY event_type
"""


TOPN_PER_GROUP = 3


def q_events_topn_per_type(sf_dir: str):
    """Windowed top-N per bounded group (row_number <= 3): per-batch partial
    top-N per type, driver-final merge — exact because top-N of a union is
    top-N of per-block top-Ns; no shuffle."""
    ds = _read(sf_dir, "events", columns=["event_type", "event_id", "value"])

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df.sort_values(["value", "event_id"],
                            ascending=[False, True])
        return pa.Table.from_pandas(
            df.groupby("event_type", sort=False).head(TOPN_PER_GROUP),
            preserve_index=False)

    pdf = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    pdf = pdf.sort_values(["event_type", "value", "event_id"],
                          ascending=[True, False, True])
    out = pdf.groupby("event_type", sort=False).head(TOPN_PER_GROUP).copy()
    out["rank"] = out.groupby("event_type").cumcount() + 1
    out["value_bp"] = _cents(out["value"], 10000)
    out["rank"] = out["rank"].astype(np.int64)
    return out[["event_type", "rank", "event_id", "value_bp"]].reset_index(
        drop=True)


SQL_TOPN_PER_GROUP = f"""
SELECT event_type, rank, event_id,
       CAST(FLOOR(value * 10000 + 0.5) AS BIGINT) AS value_bp
FROM (
  SELECT event_type, event_id, value,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY value DESC, event_id) AS rank
  FROM events)
WHERE rank <= {TOPN_PER_GROUP}
"""


def q_activity_reconcile_outer(sf_dir: str):
    """FULL OUTER equi-join (reconciliation shape: rows from EITHER side
    survive with nulls opposite): per-user event counts vs per-customer
    order counts over the custkey range [145, 155] — left-only users
    (0..144), matched keys (145..149), and right-only customers
    (150..155) all appear.  Both sides
    pre-aggregate through bucketed combiners; the bucketed hash join's
    outer mode appends each bucket's never-matched right rows after the
    chunk-safe left merge (co-partitioning keeps a key's rows in one
    bucket, so 'never matched' is decidable bucket-locally)."""
    from ...stages.joins import hash_join

    ev = _read(sf_dir, "events", columns=["user_id"])

    def ev_partial(t: pa.Table) -> pa.Table:
        return (t.group_by("user_id").aggregate([("user_id", "count")])
                .rename_columns(["user_id", "n_events"]))

    def ev_final(g: pd.DataFrame) -> pa.Table:
        out = g.groupby("user_id", as_index=False)["n_events"].sum()
        return pa.table({
            "uid": pa.array(out["user_id"].to_numpy(np.int64)),
            "n_events": pa.array(out["n_events"].to_numpy(np.int64)),
        })

    left = bucket_exchange(ev, ["user_id"], ev_final, prep=ev_partial)

    od = _read(sf_dir, "orders", columns=["o_custkey"]).filter(
        expr="o_custkey >= 145 and o_custkey <= 155")

    def od_partial(t: pa.Table) -> pa.Table:
        return (t.group_by("o_custkey").aggregate([("o_custkey", "count")])
                .rename_columns(["o_custkey", "n_orders"]))

    def od_final(g: pd.DataFrame) -> pa.Table:
        out = g.groupby("o_custkey", as_index=False)["n_orders"].sum()
        return pa.table({
            "uid": pa.array(out["o_custkey"].to_numpy(np.int64)),
            "n_orders": pa.array(out["n_orders"].to_numpy(np.int64)),
        })

    right = bucket_exchange(od, ["o_custkey"], od_final, prep=od_partial)
    return hash_join(left, right, on="uid", how="outer")


SQL_ACTIVITY_RECONCILE_OUTER = """
WITH ev AS (SELECT user_id AS uid, CAST(count(*) AS BIGINT) AS n_events
            FROM events GROUP BY user_id),
od AS (SELECT o_custkey AS uid, CAST(count(*) AS BIGINT) AS n_orders
       FROM orders WHERE o_custkey BETWEEN 145 AND 155 GROUP BY o_custkey)
SELECT COALESCE(ev.uid, od.uid) AS uid, ev.n_events, od.n_orders
FROM ev FULL OUTER JOIN od ON ev.uid = od.uid
"""


def q_customer_activity_left(sf_dir: str):
    """LEFT OUTER equi-join — the join-matrix completion (inner / semi /
    anti / as-of / range already covered): customers joined to per-user
    event activity, unmatched customers kept with NULL stats.  Right side
    pre-aggregates through ONE bucketed combiner shuffle (bucket_exchange,
    user ids are unbounded), then the bucketed hash_join(how='left')
    co-partitions both sides — no broadcast, fixed-width rows only."""
    from ...stages.joins import hash_join

    ev = _read(sf_dir, "events", columns=["user_id", "value"])

    def partial(t: pa.Table) -> pa.Table:
        c = pa.array(_cents(t["value"].to_numpy(zero_copy_only=False)),
                     pa.int64())
        return (t.append_column("c", c)
                .group_by("user_id")
                .aggregate([("user_id", "count"), ("c", "sum")])
                .rename_columns(["user_id", "n_events", "ev_cents"]))

    def final(g: pd.DataFrame) -> pa.Table:
        out = g.groupby("user_id", as_index=False).agg(
            n_events=("n_events", "sum"), ev_cents=("ev_cents", "sum"))
        return pa.table({
            "c_custkey": pa.array(out["user_id"].to_numpy(np.int64)),
            "n_events": pa.array(out["n_events"].to_numpy(np.int64)),
            "ev_cents": pa.array(out["ev_cents"].to_numpy(np.int64)),
        })

    stats = bucket_exchange(ev, ["user_id"], final, prep=partial)
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    return hash_join(cust, stats, on="c_custkey", how="left")


SQL_CUSTOMER_ACTIVITY_LEFT = """
WITH ev AS (
  SELECT user_id,
         CAST(count(*) AS BIGINT) AS n_events,
         CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS ev_cents
  FROM events GROUP BY user_id)
SELECT c.c_custkey, c.c_nationkey, ev.n_events, ev.ev_cents
FROM customer c LEFT JOIN ev ON ev.user_id = c.c_custkey
"""


def _type_quantiles(sf_dir: str, qs: tuple, keep: tuple = ()):
    """Exact per-event_type order statistics of the event value in cents:
    the k-th smallest at rank ceil(q * n_type) for each q in ``qs``,
    through the grouped distributed selection (stages/selection.py
    grouped_exact_kth), whose histogram passes share all (type, rank)
    targets so the driver only ever holds bin counts.  Returns the
    materialized (``keep`` columns, event_type, c) cents Dataset and
    {event_type: [value per q]}."""
    import math

    from ...stages.selection import grouped_exact_kth

    ds = _read(sf_dir, "events", columns=[*keep, "event_type", "value"])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({
            **{k: t[k] for k in keep},
            "event_type": t["event_type"],
            "c": pa.array(_cents(t["value"].to_numpy(
                zero_copy_only=False)), pa.int64()),
        })

    cds = ds.map_batches(cents, batch_format="pyarrow").materialize()

    def count_partial(t: pa.Table) -> pa.Table:
        return (t.group_by("event_type").aggregate([("c", "count")])
                .rename_columns(["event_type", "n"]))

    cnt = _tree_agg(cds, ["event_type"], count_partial, {"n": "sum"})
    ranks = {r.event_type: [max(1, math.ceil(r.n * q)) for q in qs]
             for r in cnt.itertuples()}
    got = grouped_exact_kth(cds, "event_type", "c", ranks)
    return cds, {ty: [got[(ty, k)] for k in ks] for ty, ks in ranks.items()}


def q_events_value_percentiles(sf_dir: str):
    """EXACT p50/p90/p99 of the event value per event_type through the
    grouped distributed selection (_type_quantiles).  Values quantized to
    cents first (repo float policy) so the order statistic is over int64
    on both engines."""
    _cds, kth = _type_quantiles(sf_dir, (0.50, 0.90, 0.99))
    rows = [(ty, *vals) for ty, vals in kth.items()]
    return pd.DataFrame(rows, columns=["event_type", "p50", "p90", "p99"]
                        ).astype({"p50": np.int64, "p90": np.int64,
                                  "p99": np.int64})


# each event's value in cents (``v``) and its rank within its event_type
# (``r``: rn of n), the CTEs the order-statistic oracles start from
_SQL_TYPE_RANKS = """
v AS (SELECT event_id, event_type,
             CAST(floor(value * 100 + 0.5) AS BIGINT) AS c
      FROM events),
r AS (SELECT event_type, c,
             row_number() OVER (PARTITION BY event_type ORDER BY c) AS rn,
             count(*) OVER (PARTITION BY event_type) AS n
      FROM v)"""

SQL_EVENTS_VALUE_PERCENTILES = f"""
WITH {_SQL_TYPE_RANKS}
SELECT event_type,
       max(CASE WHEN rn = GREATEST(1, CAST(ceil(n * 0.50) AS BIGINT))
           THEN c END) AS p50,
       max(CASE WHEN rn = GREATEST(1, CAST(ceil(n * 0.90) AS BIGINT))
           THEN c END) AS p90,
       max(CASE WHEN rn = GREATEST(1, CAST(ceil(n * 0.99) AS BIGINT))
           THEN c END) AS p99
FROM r GROUP BY event_type
"""


def q_events_winsorized_stats(sf_dir: str):
    """Winsorized (outlier-clipped) robust mean per event_type — the
    standard heavy-tail-robust statistic for data-quality dashboards:
    exact p05/p95 cents cutoffs via the shared grouped selection
    machinery (all targets share each histogram pass), cutoffs
    broadcast as scalars, then ONE clip-and-sum pass with bounded
    per-batch combiners.  Integer cents end-to-end; the only float op
    (sum/n) is the identical double expression in the oracle."""
    cds, cuts = _type_quantiles(sf_dir, (0.05, 0.95))
    cref = ray.put(cuts)

    def clip_partial(t: pa.Table) -> pa.Table:
        cu = ray.get(cref)
        df = pd.DataFrame({
            "event_type": t["event_type"].to_pylist(),
            "c": t["c"].to_numpy(zero_copy_only=False),
        })
        lo = df["event_type"].map(lambda g: cu[g][0]).to_numpy(np.int64)
        hi = df["event_type"].map(lambda g: cu[g][1]).to_numpy(np.int64)
        c = df["c"].to_numpy(np.int64)
        df["w"] = np.clip(c, lo, hi)
        df["clipped"] = ((c < lo) | (c > hi)).astype(np.int64)
        out = df.groupby("event_type", as_index=False).agg(
            s=("w", "sum"), n=("w", "size"), n_clipped=("clipped", "sum"))
        return pa.Table.from_pandas(out, preserve_index=False)

    agg = _tree_agg(cds, ["event_type"], clip_partial,
                    {"s": "sum", "n": "sum", "n_clipped": "sum"})
    agg["wmean_cents"] = np.floor(
        agg["s"].to_numpy(np.float64) / agg["n"].to_numpy(np.float64)
        + 0.5).astype(np.int64)
    return (agg[["event_type", "wmean_cents", "n", "n_clipped"]]
            .astype({"wmean_cents": np.int64, "n": np.int64,
                     "n_clipped": np.int64}))


SQL_EVENTS_WINSORIZED = f"""
WITH {_SQL_TYPE_RANKS},
cut AS (SELECT event_type,
               max(CASE WHEN rn = GREATEST(1, CAST(ceil(n * 0.05)
                   AS BIGINT)) THEN c END) AS lo,
               max(CASE WHEN rn = GREATEST(1, CAST(ceil(n * 0.95)
                   AS BIGINT)) THEN c END) AS hi
        FROM r GROUP BY event_type)
SELECT v.event_type,
       CAST(FLOOR(sum(LEAST(GREATEST(v.c, cut.lo), cut.hi)) * 1.0
                  / count(*) + 0.5) AS BIGINT) AS wmean_cents,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CASE WHEN v.c < cut.lo OR v.c > cut.hi THEN 1 ELSE 0 END)
            AS BIGINT) AS n_clipped
FROM v JOIN cut USING (event_type)
GROUP BY v.event_type
"""


def q_approx_quantiles_value(sf_dir: str):
    """Mergeable ε-approximate quantiles over events.value (equi-depth
    grid partials -> driver weighted merge).  Rows-only: rank error is
    bounded (N/k) but values are approximate by design; accuracy pinned by
    tests/test_sketch.py."""
    from ...stages.sketch import approx_quantiles

    df = approx_quantiles(_read(sf_dir, "events", columns=["value"]),
                          "value", qs=[0.5, 0.9, 0.99], k=256)
    df["q_bp"] = _cents(df["q"], 10000)
    df["value_cents"] = _cents(df["value"])
    return df[["q_bp", "value_cents"]].astype(np.int64)


def q_heavy_hitters_events(sf_dir: str):
    """Misra-Gries top-10 heavy hitters over event_type (mergeable-summary
    combiner; rows-only — MG estimates are lower bounds, pinned exactly by
    tests/test_sketch.py against a straight-line MG oracle)."""
    from ...stages.sketch import heavy_hitters

    df = heavy_hitters(
        _read(sf_dir, "events", columns=["event_type"]),
        "event_type", m=64, k=10)
    df["est_count"] = df["est_count"].astype(np.int64)
    df["err_bound"] = df["err_bound"].astype(np.int64)
    return df


BURST_GAP_MIN = 10


def q_events_burst_dedup(sf_dir: str):
    """Telemetry/log burst dedup (ingest hygiene: retries and
    double-fires arrive as same-key bursts): drop an event when the SAME
    (user, type) fired within the previous BURST_GAP_MIN minutes.  ONE
    coarse user-hash bucket shuffle — all of a user's keys dedup in one
    vectorized pass (sort + shift + integer-microsecond diff), dispatch
    O(buckets) like events_sessionize."""
    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "event_type", "ts"])

    gap_us = BURST_GAP_MIN * 60 * 1_000_000

    def dedup_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "event_type", "ts", "event_id"])
        usec = g["ts"].to_numpy("datetime64[us]").astype(np.int64)
        new_key = (g["user_id"].ne(g["user_id"].shift())
                   | g["event_type"].ne(g["event_type"].shift()))
        prev = np.roll(usec, 1)
        keep = new_key.to_numpy() | ((usec - prev) > gap_us)
        out = g.loc[keep, ["event_id", "user_id", "event_type"]]
        return out.astype({"event_id": np.int64, "user_id": np.int64})

    return bucket_exchange(ds, ["user_id"], dedup_bucket)


SQL_EVENTS_BURST_DEDUP = f"""
WITH x AS (
  SELECT event_id, user_id, event_type, ts,
         lag(ts) OVER (PARTITION BY user_id, event_type
                       ORDER BY ts, event_id) AS prev
  FROM events)
SELECT event_id, user_id, event_type FROM x
WHERE prev IS NULL OR ts - prev > INTERVAL {BURST_GAP_MIN} MINUTE
"""


FUNNEL_STAGES = ("view", "click", "purchase")


def q_events_funnel(sf_dir: str):
    """Ordered conversion funnel (view -> click -> purchase): a user
    reaches stage k at the earliest event of type k at-or-after their
    stage-(k-1) time.  Columns pruned and rows pre-filtered to the three
    funnel types AT THE READ; ONE coarse user-hash bucket shuffle (all of
    a user's rows funnel together, dispatch O(buckets) like
    events_sessionize); per-bucket output is 3 rows, so the driver
    combine is stage-bounded.  Durations sum as INTEGER microseconds —
    no float crosses the hash."""
    ds = _read(sf_dir, "events", columns=["user_id", "event_type", "ts"])

    def prep(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["event_type"],
                                 value_set=pa.array(FUNNEL_STAGES)))

    def funnel_bucket(g: pd.DataFrame) -> pd.DataFrame:
        usec = g["ts"].to_numpy("datetime64[us]").astype(np.int64)
        g = pd.DataFrame({"u": g["user_id"].to_numpy(np.int64),
                          "ty": g["event_type"].to_numpy(object),
                          "t": usec})
        stage_t: list[pd.Series] = []
        prev = None
        for ty in FUNNEL_STAGES:
            sub = g[g["ty"] == ty]
            if prev is not None:
                gate = sub["u"].map(prev)
                sub = sub[gate.notna() & (sub["t"] >= gate)]
            cur = sub.groupby("u")["t"].min()
            stage_t.append(cur)
            prev = cur
        first = stage_t[0]
        rows = []
        for k, cur in enumerate(stage_t, start=1):
            secs = (cur - first.reindex(cur.index)).sum()
            rows.append((k, len(cur), int(secs)))
        return pd.DataFrame(rows,
                            columns=["stage", "n_users", "sum_usecs"])

    pdf = bucket_exchange(ds, ["user_id"], funnel_bucket,
                          prep=prep).to_pandas()
    out = pdf.groupby("stage", as_index=False)[["n_users", "sum_usecs"]] \
        .sum()
    return out.astype({"stage": np.int64, "n_users": np.int64,
                       "sum_usecs": np.int64})


SQL_EVENTS_FUNNEL = """
WITH v AS (SELECT user_id, min(ts) AS t1 FROM events
           WHERE event_type = 'view' GROUP BY user_id),
c AS (SELECT e.user_id, min(e.ts) AS t2
      FROM events e JOIN v USING (user_id)
      WHERE e.event_type = 'click' AND e.ts >= v.t1
      GROUP BY e.user_id),
p AS (SELECT e.user_id, min(e.ts) AS t3
      FROM events e JOIN c USING (user_id)
      WHERE e.event_type = 'purchase' AND e.ts >= c.t2
      GROUP BY e.user_id)
SELECT 1 AS stage, count(*) AS n_users, CAST(0 AS BIGINT) AS sum_usecs
FROM v
UNION ALL
SELECT 2, count(*),
       CAST(COALESCE(sum(epoch_us(c.t2) - epoch_us(v.t1)), 0) AS BIGINT)
FROM c JOIN v USING (user_id)
UNION ALL
SELECT 3, count(*),
       CAST(COALESCE(sum(epoch_us(p.t3) - epoch_us(v.t1)), 0) AS BIGINT)
FROM p JOIN v USING (user_id)
"""


def q_events_transitions(sf_dir: str):
    """Per-user event-type transition matrix (Markov bigrams over each
    user's time-ordered stream) — the sequence-shape signal a
    training-data pipeline derives from clickstreams before sampling
    sessions.  ONE coarse user-hash bucket shuffle (a user's whole
    stream funnels to one reducer, like events_sessionize); inside each
    bucket the pairs come from a vectorized sort + shift (no Python
    loop, same kernel as events_lead_lag), and the per-bucket partial is
    at most |types|^2 rows, so the driver combine is type-pair-bounded
    (the `_tree_agg` bounded-cardinality contract).  Probabilities are
    derived from EXACT integer counts on both sides
    (floor(n * 1e4 / total + 0.5)), so no accumulated float crosses the
    hash."""
    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "event_type"])

    def pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        same = g["user_id"].eq(g["user_id"].shift(-1)).to_numpy()[:-1]
        ty = g["event_type"].to_numpy(object)
        out = pd.DataFrame({"from_type": ty[:-1][same],
                            "to_type": ty[1:][same]})
        return (out.groupby(["from_type", "to_type"], sort=False)
                .size().reset_index(name="n_pairs"))

    pdf = bucket_exchange(ds, ["user_id"], pairs_bucket).to_pandas()
    if pdf.empty:
        return pd.DataFrame({"from_type": pd.Series([], dtype=object),
                             "to_type": pd.Series([], dtype=object),
                             "n_pairs": pd.Series([], dtype=np.int64),
                             "prob_bp": pd.Series([], dtype=np.int64)})
    agg = (pdf.groupby(["from_type", "to_type"], as_index=False)["n_pairs"]
           .sum())
    tot = agg.groupby("from_type")["n_pairs"].transform("sum")
    agg["prob_bp"] = np.floor(
        agg["n_pairs"].to_numpy(np.float64) * 10_000.0
        / tot.to_numpy(np.float64) + 0.5).astype(np.int64)
    return agg.astype({"n_pairs": np.int64})


SQL_EVENTS_TRANSITIONS = """
WITH s AS (
  SELECT user_id, event_type AS from_type,
         lead(event_type) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS to_type
  FROM events),
c AS (SELECT from_type, to_type, count(*) AS n_pairs
      FROM s WHERE to_type IS NOT NULL GROUP BY from_type, to_type)
SELECT from_type, to_type, n_pairs,
       CAST(FLOOR(n_pairs * 10000.0
                  / sum(n_pairs) OVER (PARTITION BY from_type)
                  + 0.5) AS BIGINT) AS prob_bp
FROM c
"""


def q_events_retention(sf_dir: str):
    """Daily cohort retention (users cohorted by first-activity day;
    distinct active users per (cohort_day, day_offset)) — the engagement
    curve behind every data-freshness/sampling dashboard.  Plan:
    per-batch (user, day) DEDUP partials (Arrow group_by, so a user's
    many same-day events collapse before anything moves) -> ONE
    user-hash bucket shuffle (each user's full history lands in one
    reducer, so cohort assignment and the distinct-(user, day) count
    complete bucket-locally — no global distinct) -> per-bucket
    (cohort, offset) counts are ADDITIVE across buckets (a user lives in
    exactly one bucket), combined in a second hash(cohort, offset)
    exchange of COUNT rows only (time-span^2-bounded, never
    user-bounded)."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def prep(t: pa.Table) -> pa.Table:
        day = pc.floor_temporal(t["ts"], unit="day")
        return (pa.table({"user_id": t["user_id"], "day": day})
                .group_by(["user_id", "day"]).aggregate([]))

    def cohort_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "day"])
        first = g.groupby("user_id")["day"].transform("min")
        off = ((g["day"].to_numpy("datetime64[us]").astype(np.int64)
                - first.to_numpy("datetime64[us]").astype(np.int64))
               // 86_400_000_000)
        return (pd.DataFrame({"cohort_day": first.to_numpy(
            "datetime64[us]"), "day_offset": off.astype(np.int64)})
            .groupby(["cohort_day", "day_offset"], sort=False)
            .size().reset_index(name="n_users"))

    def final(g: pd.DataFrame) -> pa.Table:
        out = (g.groupby(["cohort_day", "day_offset"], as_index=False)
               ["n_users"].sum())
        return pa.table({
            "cohort_day": pa.array(
                out["cohort_day"].to_numpy().astype("datetime64[us]")),
            "day_offset": pa.array(out["day_offset"].to_numpy(np.int64)),
            "n_users": pa.array(out["n_users"].to_numpy(np.int64)),
        })

    cohorts = bucket_exchange(ds, ["user_id"], cohort_bucket, prep=prep)
    return bucket_exchange(cohorts, ["cohort_day", "day_offset"], final)


SQL_EVENTS_RETENTION = """
WITH a AS (SELECT DISTINCT user_id, date_trunc('day', ts) AS day
           FROM events),
f AS (SELECT user_id, min(day) AS cohort_day FROM a GROUP BY user_id)
SELECT f.cohort_day,
       CAST(date_diff('day', f.cohort_day, a.day) AS BIGINT) AS day_offset,
       count(*) AS n_users
FROM a JOIN f USING (user_id)
GROUP BY f.cohort_day, day_offset
"""


def _max_ts_us(path: str) -> int:
    """Max event timestamp (integer microseconds) from parquet row-group
    STATISTICS — metadata-only, no scan (the decay anchor must not cost
    a corpus pass); falls back to a single-column scan when stats are
    absent.  Both paths TRUNCATE sub-microsecond parts of a ns-unit
    column, like the unsafe cast in q_events_decay_score's data path."""
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(path)
    idx = pf.schema_arrow.names.index("ts")
    mx = None
    for rg in range(pf.metadata.num_row_groups):
        st = pf.metadata.row_group(rg).column(idx).statistics
        if st is None or st.max is None:
            t = pq.read_table(path, columns=["ts"])
            return int(pc.max(t["ts"].cast(pa.timestamp("us"), safe=False)
                              .cast(pa.int64())).as_py())
        cur = np.datetime64(st.max, "us").astype(np.int64)
        mx = cur if mx is None else max(mx, cur)
    return int(mx)


DECAY_HALF_LIFE_US = 7 * 86_400_000_000  # 7-day engagement half-life


def q_events_decay_score(sf_dir: str):
    """Per-user exponentially time-decayed engagement score
    (sum of value * 2^(-(t_max - ts) / half_life), 7-day half-life) —
    the recency-weighted activity signal used as a sampling weight.
    t_max comes from parquet row-group statistics (metadata-only, no
    scan); the decay map is stateless and vectorized (np.exp2);
    per-batch per-user partial sums pre-combine inside map_batches and
    ONE user-hash bucket exchange of PARTIAL rows finishes the sum.
    Floats cross the hash only after the repo bp quantization of the
    FINAL sum (per-term quantization would amplify pow() last-ulp
    divergence 1e9x; quantizing the sum keeps the relative error at
    ~1e-16 where the floor(x*1e4+0.5) boundary is unreachable)."""
    path = f"{sf_dir}/events.parquet"
    tmax = _max_ts_us(path)
    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        # normalize to MICROseconds before the int view — a ns-unit
        # source (pandas default) would otherwise skew dt by 1000x;
        # unsafe, so sub-us parts truncate exactly like _max_ts_us
        us = (t["ts"].cast(pa.timestamp("us"), safe=False).cast(pa.int64())
              .to_numpy(zero_copy_only=False))
        w = (t["value"].to_numpy(zero_copy_only=False)
             * np.exp2(-(tmax - us) / DECAY_HALF_LIFE_US))
        out = (pd.DataFrame(
            {"user_id": t["user_id"].to_numpy(zero_copy_only=False),
             "s": w})
            .groupby("user_id", as_index=False)["s"].sum())
        # plain pa.table, NOT from_pandas: pandas schema metadata makes
        # the block schema unhashable and defeats downstream dedup
        return pa.table({
            "user_id": pa.array(out["user_id"].to_numpy(np.int64)),
            "s": pa.array(out["s"].to_numpy(np.float64)),
        })

    def final(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("user_id", as_index=False)["s"].sum()
        return pd.DataFrame({
            "user_id": out["user_id"].to_numpy(np.int64),
            "score_bp": _cents(out["s"], 10_000),
        })

    return bucket_exchange(ds, ["user_id"], final, prep=partial)


SQL_EVENTS_DECAY = f"""
WITH m AS (SELECT max(ts) AS tmax FROM events)
SELECT user_id,
       CAST(FLOOR(sum(value * power(2.0,
                -(epoch_us(m.tmax) - epoch_us(ts))
                  / {DECAY_HALF_LIFE_US}.0)) * 10000 + 0.5) AS BIGINT)
           AS score_bp
FROM events, m GROUP BY user_id
"""


def q_events_user_mode(sf_dir: str):
    """Per-user modal event type (grouped MODE with deterministic
    (count desc, type asc) tie-break) — the categorical dominant-value
    aggregate.  Per-batch (user, type) count partials pre-combine inside
    map_batches (Arrow group_by); ONE user-hash bucket exchange moves
    partial COUNT rows only; the reducer finishes the counts and takes
    the argmax vectorized (sort + drop_duplicates, no per-user loop).
    Counts are exact integers end-to-end."""
    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        return (pa.table({"user_id": t["user_id"],
                          "event_type": t["event_type"]})
                .group_by(["user_id", "event_type"])
                .aggregate([("event_type", "count")]))

    def final(g: pd.DataFrame) -> pd.DataFrame:
        cnt = (g.groupby(["user_id", "event_type"], as_index=False)
               ["event_type_count"].sum())
        cnt = cnt.sort_values(
            ["user_id", "event_type_count", "event_type"],
            ascending=[True, False, True])
        top = cnt.drop_duplicates("user_id", keep="first")
        return pd.DataFrame({
            "user_id": top["user_id"].to_numpy(np.int64),
            "mode_type": top["event_type"].to_numpy(object),
            "n_events": top["event_type_count"].to_numpy(np.int64)})

    return bucket_exchange(ds, ["user_id"], final, prep=partial)


SQL_EVENTS_USER_MODE = """
WITH c AS (SELECT user_id, event_type, count(*) AS n
           FROM events GROUP BY user_id, event_type),
r AS (SELECT user_id, event_type, n,
             row_number() OVER (PARTITION BY user_id
                                ORDER BY n DESC, event_type) AS rk
      FROM c)
SELECT user_id, event_type AS mode_type, n AS n_events
FROM r WHERE rk = 1
"""


def q_events_session_stats(sf_dir: str):
    """Per-user session summary (session count, total/max events per
    session, summed in-session dwell time) on top of the SAME 30-minute
    gap semantics as events_sessionize — the per-user rollup a sampling
    pipeline reads instead of raw sessions.  ONE coarse user-hash bucket
    shuffle; inside each bucket session boundaries come from the
    vectorized sort + shift gap test, and BOTH the per-session and the
    per-user aggregates complete bucket-locally (a user's sessions never
    span buckets), so the output is one final row per user.  Dwell sums
    as INTEGER microseconds — no float crosses the hash."""
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    gap_us = SESSION_GAP_MIN * 60_000_000

    def stats_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        us = g["ts"].to_numpy("datetime64[us]").astype(np.int64)
        uid = g["user_id"].to_numpy(np.int64)
        new_user = np.empty(len(g), bool)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        gapv = np.empty(len(g), np.int64)
        gapv[0] = 0
        gapv[1:] = us[1:] - us[:-1]
        sid = np.cumsum(new_user | (gapv > gap_us))
        sess = (pd.DataFrame({"u": uid, "sid": sid, "t": us})
                .groupby("sid", sort=False)
                .agg(u=("u", "first"), ne=("t", "size"),
                     t0=("t", "min"), t1=("t", "max")))
        sess["dwell"] = sess["t1"] - sess["t0"]
        out = (sess.groupby("u")
               .agg(n_sessions=("ne", "size"), n_events=("ne", "sum"),
                    max_session_events=("ne", "max"),
                    sum_dwell_usecs=("dwell", "sum")).reset_index()
               .rename(columns={"u": "user_id"}))
        return out.astype(np.int64)

    return bucket_exchange(ds, ["user_id"], stats_bucket)


SQL_EVENTS_SESSION_STATS = f"""
WITH marked AS (
  SELECT user_id, event_id, ts,
         CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id
                                      ORDER BY ts, event_id)
                   > INTERVAL {SESSION_GAP_MIN} MINUTE
              THEN 1 ELSE 0 END AS new_session
  FROM events),
numbered AS (
  SELECT user_id, ts,
         sum(new_session) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                ROWS UNBOUNDED PRECEDING) + 1 AS session_id
  FROM marked),
s AS (SELECT user_id, session_id, count(*) AS ne,
             epoch_us(max(ts)) - epoch_us(min(ts)) AS dwell
      FROM numbered GROUP BY user_id, session_id)
SELECT user_id,
       count(*) AS n_sessions,
       CAST(sum(ne) AS BIGINT) AS n_events,
       CAST(max(ne) AS BIGINT) AS max_session_events,
       CAST(sum(dwell) AS BIGINT) AS sum_dwell_usecs
FROM s GROUP BY user_id
"""


def q_events_attribution(sf_dir: str):
    """LAST-TOUCH revenue attribution: each purchase's value credits the
    user's most recent non-purchase event type at-or-before the purchase
    (the marketing-attribution join every clickstream warehouse runs).
    ONE coarse user-hash bucket shuffle; inside each bucket the
    last-non-purchase index is a grouped cummax of candidate row indices
    SHIFTED one row (both pandas C kernels, no Python loop), so
    attribution completes bucket-locally; per-bucket partials are
    type-bounded and the driver combine is the `_tree_agg` contract.
    Revenue quantized to cents only at the FINAL sum."""
    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "event_type",
                        "value"])

    def attr_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        ty = g["event_type"].to_numpy(object)
        uid = g["user_id"].to_numpy(np.int64)
        val = g["value"].to_numpy(np.float64)
        idx = np.arange(len(g), dtype=np.int64)
        cand = pd.Series(np.where(ty != "purchase", idx, -1))
        cm = cand.groupby(uid).cummax()
        prev = (cm.groupby(uid).shift(1, fill_value=-1)
                .to_numpy(np.int64))
        is_p = ty == "purchase"
        src = prev[is_p]
        ok = src >= 0
        out = pd.DataFrame({"source_type": ty[src[ok]],
                            "value": val[is_p][ok]})
        return (out.groupby("source_type", as_index=False)
                .agg(n_purchases=("value", "size"), v=("value", "sum")))

    pdf = bucket_exchange(ds, ["user_id"], attr_bucket).to_pandas()
    if pdf.empty:
        return pd.DataFrame({
            "source_type": pd.Series([], dtype=object),
            "n_purchases": pd.Series([], dtype=np.int64),
            "revenue_cents": pd.Series([], dtype=np.int64)})
    agg = pdf.groupby("source_type", as_index=False).agg(
        n_purchases=("n_purchases", "sum"), v=("v", "sum"))
    return pd.DataFrame({"source_type": agg["source_type"],
                         "n_purchases": agg["n_purchases"].astype(np.int64),
                         "revenue_cents": _cents(agg["v"])})


SQL_EVENTS_ATTRIBUTION = """
WITH s AS (
  SELECT event_type, value,
         last_value(CASE WHEN event_type <> 'purchase'
                         THEN event_type END IGNORE NULLS)
           OVER (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS src
  FROM events)
SELECT src AS source_type,
       count(*) AS n_purchases,
       CAST(FLOOR(sum(value) * 100 + 0.5) AS BIGINT) AS revenue_cents
FROM s WHERE event_type = 'purchase' AND src IS NOT NULL
GROUP BY src
"""


def q_events_anomaly_p99(sf_dir: str):
    """Events STRICTLY above their type's exact p99 value — the
    threshold-then-filter anomaly audit (p99 shares the grouped
    distributed-selection machinery of events_value_percentiles, so the
    driver only ever holds bin counts).  After the selection passes, the
    per-type thresholds (|types| scalars) broadcast and the flag pass is
    a stateless vectorized filter — values never shuffle, output is
    ~1% of the stream by construction."""
    cds, kth = _type_quantiles(sf_dir, (0.99,), keep=("event_id",))
    tref = ray.put({ty: p99 for ty, (p99,) in kth.items()})

    def flag(t: pa.Table) -> pa.Table:
        th = ray.get(tref)
        p99 = pd.Series(t["event_type"].to_numpy(
            zero_copy_only=False)).map(th).to_numpy(np.int64)
        c = t["c"].to_numpy(zero_copy_only=False)
        keep = c > p99
        return pa.table({
            "event_id": pa.array(t["event_id"].to_numpy(
                zero_copy_only=False)[keep]),
            "event_type": pa.array(pd.Series(t["event_type"].to_numpy(
                zero_copy_only=False)[keep], dtype=object), pa.string()),
            "value_cents": pa.array(c[keep], pa.int64()),
            "p99_cents": pa.array(p99[keep], pa.int64()),
        })

    return cds.map_batches(flag, batch_format="pyarrow")


SQL_EVENTS_ANOMALY_P99 = f"""
WITH {_SQL_TYPE_RANKS},
t AS (SELECT event_type,
             max(CASE WHEN rn = GREATEST(1, CAST(ceil(n * 0.99) AS BIGINT))
                 THEN c END) AS p99
      FROM r GROUP BY event_type)
SELECT v.event_id, v.event_type, v.c AS value_cents, t.p99 AS p99_cents
FROM v JOIN t USING (event_type) WHERE v.c > t.p99
"""


def q_events_hourly_uniques(sf_dir: str):
    """DISTINCT users per tumbling hour — the windowed-distinct family
    (events_hourly counts rows; this counts users, the DAU-style signal
    at hour grain).  Plan: per-batch (user, hour) Arrow DEDUP partials ->
    ONE user-hash bucket shuffle (a user's pairs co-locate, so the
    cross-batch distinct completes bucket-locally and per-(hour) counts
    are ADDITIVE across buckets — no global distinct, no count-distinct
    shuffle) -> second exchange moves hour-keyed COUNT rows only
    (time-span-bounded), same two-exchange shape as events_retention."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def prep(t: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(t["ts"], unit="hour")
        return (pa.table({"user_id": t["user_id"], "hour": hour})
                .group_by(["user_id", "hour"]).aggregate([]))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "hour"])
        part = (g.groupby("hour", sort=False)
                .size().reset_index(name="n_users"))
        part["hour"] = part["hour"].to_numpy("datetime64[us]")
        return part

    def final(g: pd.DataFrame) -> pa.Table:
        out = g.groupby("hour", as_index=False)["n_users"].sum()
        return pa.table({
            "hour": pa.array(out["hour"].to_numpy()
                             .astype("datetime64[us]")),
            "n_users": pa.array(out["n_users"].to_numpy(np.int64)),
        })

    hourly = bucket_exchange(ds, ["user_id"], per_bucket, prep=prep)
    return bucket_exchange(hourly, ["hour"], final)


SQL_EVENTS_HOURLY_UNIQUES = """
SELECT date_trunc('hour', ts) AS hour,
       CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
FROM events GROUP BY hour
"""
