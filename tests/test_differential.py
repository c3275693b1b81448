"""Randomized DIFFERENTIAL tests: run a queries()-registry entry and its
own oracle_sql() SQL side-by-side over freshly generated random tables —
the driver-corpus gate pins one input; these pin the space around it.
Each case uses the exact SQL string the driver uses, so a divergence here
is a real oracle break, not a test approximation."""

import tempfile

import duckdb
import numpy as np
import pandas as pd
import pytest


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith(("int", "uint", "Int")):
            df[c] = df[c].astype(np.int64)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _run_pair(qname: str, sf_dir: str, tables: dict):
    from kb_ner_ray.pipelines.queries import oracle_registry, queries_registry

    res = queries_registry()[qname](sf_dir)
    if hasattr(res, "to_pandas"):
        res = res.to_pandas()
    con = duckdb.connect()
    for t, df in tables.items():
        con.register(f"__{t}", df)
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM __{t}")
    want = con.sql(oracle_registry()[qname]).df()
    got, want = _norm(pd.DataFrame(res)), _norm(want)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def _random_documents(rng, n: int) -> pd.DataFrame:
    vocab = [f"w{i}" for i in range(30)] + ["the", "a", "##", "x.y"]
    texts = [" ".join(rng.choice(vocab,
                                 size=rng.integers(0, 40)).tolist())
             for _ in range(n)]
    # plant exact duplicates and shared heads for the dedup ops
    for i in range(0, n, 7):
        texts[i] = texts[(i * 3 + 1) % n]
    return pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "text": texts,
        "lang": rng.choice(["en", "de", "xx"], size=n),
        "source": [f"s{int(x)}" for x in rng.integers(0, 5, size=n)],
        "n_chars": np.array([len(t) for t in texts], np.int64),
    })


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_differential_document_ops(ray_session, seed):
    rng = np.random.default_rng(seed)
    docs = _random_documents(rng, 60)
    with tempfile.TemporaryDirectory(prefix="diff_docs_") as sf:
        docs.to_parquet(f"{sf}/documents.parquet", index=False)
        for q in ("doc_pii_redact", "quality_classifier", "dsir_weights",
                  "snapshot_delta", "doc_token_entropy",
                  # the random corpus PLANTS exact duplicates, so the
                  # overlap matrix is non-vacuous here (the driver corpus
                  # has no full-text dups and yields 0 rows)
                  "doc_source_overlap", "doc_length_hist",
                  "doc_top_bigrams"):
            _run_pair(q, sf, {"documents": docs})


@pytest.mark.parametrize("seed", [0, 1])
def test_differential_event_ops(ray_session, seed):
    rng = np.random.default_rng(100 + seed)
    n = 400
    ts = (pd.Timestamp("2026-01-01")
          + pd.to_timedelta(np.sort(rng.integers(0, 3_000_000, size=n)),
                            unit="s"))
    events = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "ts": ts,
        "user_id": rng.integers(0, 25, size=n).astype(np.int64),
        "event_type": rng.choice(
            ["view", "click", "purchase", "error"], size=n),
        "value": rng.random(size=n) * 100,
        "props": ['{"k": 1}'] * n,
    })
    with tempfile.TemporaryDirectory(prefix="diff_events_") as sf:
        events.to_parquet(f"{sf}/events.parquet", index=False)
        for q in ("events_funnel", "events_burst_dedup",
                  "events_transitions", "events_retention",
                  "events_decay_score", "events_user_mode",
                  "events_session_stats", "events_attribution",
                  "events_anomaly_p99", "events_hourly_uniques"):
            _run_pair(q, sf, {"events": events})


def test_differential_decay_ns_timestamps(ray_session):
    """events_decay_score over a ns-unit ts column with sub-microsecond
    parts: the decay anchor (row-group statistics) and the per-row data
    path both truncate to whole microseconds, as DuckDB's epoch_us does."""
    rng = np.random.default_rng(300)
    n = 300
    ns = np.sort(rng.integers(0, 3_000_000 * 10**9, size=n))
    ts = pd.Timestamp("2026-01-01") + pd.to_timedelta(ns, unit="ns")
    assert ts.asi8[-1] % 1000  # the max itself has a sub-us part
    events = pd.DataFrame({
        "ts": ts,
        "user_id": rng.integers(0, 25, size=n).astype(np.int64),
        "value": rng.random(size=n) * 100,
    })
    with tempfile.TemporaryDirectory(prefix="diff_ns_") as sf:
        events.to_parquet(f"{sf}/events.parquet", index=False)
        _run_pair("events_decay_score", sf, {"events": events})


@pytest.mark.parametrize("seed", [0, 1])
def test_differential_embedding_ops(ray_session, seed):
    rng = np.random.default_rng(200 + seed)
    n, dim = 80, 12
    m = rng.normal(size=(n, dim)).astype(np.float32)
    m[11] = m[3] + rng.normal(scale=1e-3, size=dim).astype(np.float32)
    emb = pd.DataFrame({
        "vec_id": np.arange(n, dtype=np.int64),
        "embedding": [row.tolist() for row in m],
        "label": rng.integers(0, 4, size=n).astype(np.int32),
    })
    with tempfile.TemporaryDirectory(prefix="diff_emb_") as sf:
        emb.to_parquet(f"{sf}/embeddings.parquet", index=False)
        for q in ("semdedup", "knn_bruteforce", "range_search",
                  "embed_outliers", "embed_near_dup"):
            _run_pair(q, sf, {"embeddings": emb})


@pytest.mark.parametrize("seed", [0, 1])
def test_differential_relational_ops(ray_session, seed):
    """Random TPC-H-shaped tables with DELIBERATE referential breakage
    (orders without customers, lineitems without orders/suppliers,
    customers with unknown nations): the inner-join valid-mask paths
    must agree with the SQL oracles on every dropped row."""
    rng = np.random.default_rng(300 + seed)
    region = pd.DataFrame({
        "r_regionkey": np.arange(5, dtype=np.int64),
        "r_name": ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"],
    })
    nation = pd.DataFrame({
        "n_nationkey": np.arange(12, dtype=np.int64),
        "n_name": [f"N{i:02d}" for i in range(12)],
        "n_regionkey": rng.integers(0, 5, 12).astype(np.int64),
    })
    nc, no_, nl, ns = 40, 120, 400, 15
    customer = pd.DataFrame({
        "c_custkey": np.arange(nc, dtype=np.int64),
        "c_name": [f"C{i}" for i in range(nc)],
        # keys 12/13 have no nation row -> inner joins must drop them
        "c_nationkey": rng.integers(0, 14, nc).astype(np.int64),
        "c_acctbal": rng.random(nc) * 1000,
        "c_mktsegment": rng.choice(["A", "B"], nc),
    })
    orders = pd.DataFrame({
        "o_orderkey": np.arange(no_, dtype=np.int64),
        "o_custkey": rng.integers(0, nc + 5, no_).astype(np.int64),
        "o_orderstatus": rng.choice(["O", "F"], no_),
        "o_totalprice": rng.random(no_) * 1e4,
        "o_orderdate": (pd.Timestamp("2026-01-01") + pd.to_timedelta(
            rng.integers(0, 300, no_), unit="D")),
        "o_orderpriority": rng.choice(["1-URGENT", "3-MEDIUM"], no_),
    })
    lineitem = pd.DataFrame({
        "l_orderkey": rng.integers(0, no_ + 10, nl).astype(np.int64),
        "l_partkey": rng.integers(0, 50, nl).astype(np.int64),
        "l_suppkey": rng.integers(0, ns + 3, nl).astype(np.int64),
        "l_linenumber": (np.arange(nl, dtype=np.int64) % 7),
        "l_quantity": rng.integers(1, 50, nl).astype(np.float64),
        "l_extendedprice": rng.random(nl) * 1e3,
        "l_discount": rng.random(nl) * 0.1,
        "l_tax": rng.random(nl) * 0.08,
        "l_returnflag": rng.choice(["A", "N", "R"], nl),
        "l_linestatus": rng.choice(["O", "F"], nl),
        "l_shipdate": (pd.Timestamp("2026-01-01") + pd.to_timedelta(
            rng.integers(0, 300, nl), unit="D")),
    })
    supplier = pd.DataFrame({
        "s_suppkey": np.arange(ns, dtype=np.int64),
        "s_name": [f"S{i}" for i in range(ns)],
        "s_nationkey": rng.integers(0, 14, ns).astype(np.int64),
        "s_acctbal": rng.random(ns) * 1000,
    })
    tables = {"region": region, "nation": nation, "customer": customer,
              "orders": orders, "lineitem": lineitem,
              "supplier": supplier}
    with tempfile.TemporaryDirectory(prefix="diff_rel_") as sf:
        for t, df in tables.items():
            df.to_parquet(f"{sf}/{t}.parquet", index=False)
        for q in ("pricing_summary", "revenue_by_nation",
                  "customer_rollup", "local_supplier_revenue",
                  "orders_lineitem_join", "nation_acctbal_minmax"):
            _run_pair(q, sf, tables)
