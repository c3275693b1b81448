"""Self-test of the benchmark's record handling (no Ray needed).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json

import pyarrow as pa

from perfbench import record, workloads

WORKLOADS = ("fresh_crawl", "recrawl", "resume")
TAIL = 2000  # characters of output a reader of the run may keep


def _rep(i: int, ok: bool = True, traced: bool = False) -> dict:
    # values with many digits: the widest the lines can get
    return {"event": "rep", "rep": i, "traced": traced, "ok": ok,
            "wall_s": 12345.678901234567 + i, "cpu_s": 23456.789012345678,
            "rerun_s": 1234.5678901234567, "broadcast_s": 0.123456789012345,
            "peak_rss_mb": 123456.78901234567, "n_triples": 123456789,
            "precision": 1.0, "recall": 1.0}


def _events(reps: list, started: int | None = None) -> list:
    ev = [{"event": "ready", "n_pages": 123456, "n_expected": 123456789},
          {"event": "setup", "init_s": 1.2345678901234567,
           "warmup_s": 2.345678901234567, "logical_cpus": 2}]
    ev += [{"event": "start", "rep": i}
           for i in range(len(reps) if started is None else started)]
    return ev + reps


def _ledger(n: int) -> dict:
    count = {"explode.sentences": n, "tagger.sentences": n,
             "tagger.memo_hits": n - 7, "tagger.memo_misses": 7,
             "gazetteer.mentions": 5, "link.linked": 4, "link.nil": 1,
             "tagger.triples": 123456789}
    return {"self": {"tagger": 0.5, "bm25": 0.25}, "busy": {"bm25": 0.25},
            "count": count}


def test_summary_line_is_short_and_parses_from_the_tail():
    recs = {w: record.aggregate(_events([_rep(i) for i in range(9)]),
                                False, False) for w in WORKLOADS}
    line = record.summary_line(recs)
    assert len(line) <= 1200, len(line)
    noise = "x" * 5000 + "\nrecord: .perfbench/records/r.json\n"
    tail = (noise + line + "\n")[-TAIL:]
    got = json.loads(tail.strip().splitlines()[-1])
    assert set(got["workloads"]) == set(WORKLOADS)
    for metrics in got["workloads"].values():
        assert set(record.END_TO_END) | {"failed_frac"} == set(metrics)


def test_result_lines_fit_the_tail():
    plain = record.aggregate(_events([_rep(i) for i in range(9)]),
                             False, False)
    line = record.result_line(plain, False)
    assert len(line) < TAIL
    assert set(json.loads(line)["metrics"]) == set(record.END_TO_END)
    traced = [dict(_rep(i, traced=True), ledger=_ledger(10**9),
                   rerun_ledger=_ledger(0)) for i in range(2)]
    ev = _events([_rep(0)] + traced)
    ev.append(dict({k: 123.45678901234567 for k in (
        "read.busy_s", "read.mb", "bm25.us_per_query",
        "attach.us_per_sentence", "gazetteer.us_per_sentence",
        "link.us_per_mention")}, event="micro"))
    rec = record.aggregate(ev, True, False)
    line = record.result_line(rec, True)
    assert len(line) < TAIL, len(line)
    assert set(json.loads(line)["metrics"]) == set(record.PER_LAYER)
    # tagger.triples (123456789) equals the repetitions' triple count
    assert rec["correct"], rec["conservation"]


def test_conservation_catches_a_lost_count():
    led = _ledger(100)
    led["count"]["tagger.memo_misses"] += 1
    rep = dict(_rep(1, traced=True), ledger=led, rerun_ledger=_ledger(0))
    m = record.layer_metrics(rep)
    checks = record.conservation(m, rep["n_triples"])
    assert not checks["tagger.sentences == memo_hits + memo_misses"]
    assert all(v for k, v in checks.items() if "memo" not in k)


def test_failures_count_against_attempts():
    # 4 started: one raised, one never reported (the run was cut)
    reps = [_rep(0), _rep(1, ok=False), _rep(2)]
    rec = record.aggregate(_events(reps, started=4), False, True)
    assert (rec["attempted"], rec["failed"]) == (4, 2)
    assert rec["metrics"]["ok_frac"] == 0.5
    assert not rec["correct"]
    empty = record.aggregate([], False, True)
    assert (empty["attempted"], empty["failed"]) == (1, 1)
    assert empty["metrics"] == {} and not empty["correct"]


def test_refetch_and_precision_recall():
    t = pa.table({"url": ["a", "b"], "x": [1, 2]})
    out = workloads._refetch(t, 3)
    assert out["url"].to_pylist() == ["a?fetch=0", "b?fetch=0", "a?fetch=1",
                                      "b?fetch=1", "a?fetch=2", "b?fetch=2"]
    want = [(1,), (1,), (2,)]
    assert workloads.precision_recall(want, want) == (1.0, 1.0)
    assert workloads.precision_recall([(1,), (3,)], want) == (0.5, 1 / 3)
    assert workloads.digest([(2,), (1,)]) == workloads.digest([(1,), (2,)])
