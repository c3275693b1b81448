"""Driver-contract guard: the external driver imports ``__ray_entry__``
(after its own ``ray.init``) and calls ``entry()`` / ``queries()`` /
``oracle_sql()``.  An accidental rename or a query function that stops
accepting ``sf_dir`` breaks the round's whole correctness record, so the
contract is pinned here."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import __ray_entry__ as entrymod


def test_queries_and_oracles_are_consistent():
    qs = entrymod.queries()
    sql = entrymod.oracle_sql()
    assert len(qs) >= 60
    # every oracle belongs to a registered query
    assert set(sql) <= set(qs), set(sql) - set(qs)
    for name, fn in qs.items():
        assert callable(fn), name
    for name, s in sql.items():
        assert isinstance(s, str) and "SELECT" in s.upper(), name


def test_entry_runs_and_has_triple_schema(ray_session):
    out = entrymod.entry()
    import pandas as pd
    import ray.data

    if isinstance(out, ray.data.Dataset):
        names = out.schema().names
        n = out.count()
    else:
        assert isinstance(out, pd.DataFrame)
        names = list(out.columns)
        n = len(out)
    assert n > 0
    for col in ("subj", "pred", "obj"):
        assert col in names, names
