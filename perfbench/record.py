"""From a session's events to the benchmark record and its printed lines.

Stdlib only, so that the self-test runs without Ray.
"""

from __future__ import annotations

import json
import statistics

END_TO_END = {  # name -> unit, as in BENCHMARK.json
    "wall_s": "s",
    "pages_per_s": "1/s",
    "triples_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rerun_s": "s",
    "triple_precision": "ratio",
    "triple_recall": "ratio",
    "ok_frac": "ratio",
}

# The per-layer metrics the result line carries, as in BENCHMARK.json: the
# times an optimisation moves, plus the counts that explain them.  Every
# counter of the ledger is in the record file.
PER_LAYER = {
    "read.busy_s": "s",
    "extract.busy_s": "s",
    "explode.busy_s": "s",
    "explode.sentences": "count",
    "tagger.self_s": "s",
    "tagger.state_build_s": "s",
    "tagger.memo_hit_ratio": "ratio",
    "tagger.memo_misses": "count",
    "bm25.busy_s": "s",
    "bm25.us_per_query": "us",
    "attach.busy_s": "s",
    "attach.aug_tokens": "count",
    "attach.us_per_sentence": "us",
    "gazetteer.busy_s": "s",
    "gazetteer.mentions": "count",
    "gazetteer.us_per_sentence": "us",
    "link.busy_s": "s",
    "link.us_per_mention": "us",
    "canonicalize.partial_s": "s",
    "canonicalize.map_s": "s",
    "canonicalize.apply_s": "s",
    "manifest.write_s": "s",
    "ray.overhead_s": "s",
    "ray.overhead_cpu_s": "s",
    "trace.overhead_s": "s",
}

# Spans whose self times, with the isolated read, make up a job's layer
# time; the rest of the wall time is Ray's scheduling and exchange.
LAYER_SPANS = ("extract", "explode", "tagger", "tagger.state_build", "bm25",
               "attach", "gazetteer", "link", "canonicalize.partial",
               "canonicalize.map", "canonicalize.apply", "manifest.write")
KERNEL_SPANS = ("bm25", "gazetteer")


def layer_metrics(rep: dict) -> dict:
    """Every per-layer figure of one traced repetition's ledger."""
    led = rep["ledger"]
    s, b, c = led["self"], led["busy"], led["count"]
    sents = c.get("tagger.sentences", 0)
    m = {
        "extract.busy_s": s.get("extract", 0.0),
        "extract.pages": c.get("extract.pages", 0),
        "extract.html_mb": c.get("extract.html_bytes", 0) / 1e6,
        "extract.empty_pages": c.get("extract.empty_pages", 0),
        "explode.busy_s": s.get("explode", 0.0),
        "explode.sentences": c.get("explode.sentences", 0),
        "tagger.self_s": s.get("tagger", 0.0),
        "tagger.sentences": sents,
        "tagger.memo_hits": c.get("tagger.memo_hits", 0),
        "tagger.memo_misses": c.get("tagger.memo_misses", 0),
        "tagger.memo_hit_ratio": (c.get("tagger.memo_hits", 0) / sents
                                  if sents else 0.0),
        "tagger.triples": c.get("tagger.triples", 0),
        "tagger.state_build_s": b.get("tagger.state_build", 0.0),
        "manifest.partitions_skipped": rep["rerun_ledger"]["count"].get(
            "manifest.partitions_skipped", 0),
        "ray.job_s": s.get("ray.job", 0.0),
    }
    for layer, counters in (
            ("bm25", ("queries", "zero_hit")),
            ("attach", ("contexts", "aug_tokens")),
            ("gazetteer", ("tokens_scanned", "mentions")),
            ("link", ("linked", "nil", "ambiguous"))):
        m[layer + ".busy_s"] = b.get(layer, 0.0)
        for k in counters:
            m[f"{layer}.{k}"] = c.get(f"{layer}.{k}", 0)
    for k in ("partial", "map", "apply"):
        m[f"canonicalize.{k}_s"] = s.get("canonicalize." + k, 0.0)
    m["canonicalize.partial_rows"] = c.get("canonicalize.partial_rows", 0)
    m["canonicalize.map_size"] = c.get("canonicalize.map_size", 0)
    m["manifest.write_s"] = s.get("manifest.write", 0.0)
    for k in ("partitions_written", "bytes_written"):
        m["manifest." + k] = c.get("manifest." + k, 0)
    m["layer_sum_s"] = sum(s.get(k, 0.0) for k in LAYER_SPANS)
    m["kernel_s"] = sum(b.get(k, 0.0) for k in KERNEL_SPANS)
    return m


def conservation(m: dict, n_triples: int) -> dict:
    """Counter identities that must hold on every traced repetition."""
    return {
        "explode.sentences == tagger.sentences":
            m["explode.sentences"] == m["tagger.sentences"],
        "tagger.sentences == memo_hits + memo_misses":
            m["tagger.sentences"] == m["tagger.memo_hits"]
            + m["tagger.memo_misses"],
        "link.linked + link.nil == gazetteer.mentions":
            m["link.linked"] + m["link.nil"] == m["gazetteer.mentions"],
        "tagger.triples == triples": m["tagger.triples"] == n_triples,
    }


def dist(values: list) -> dict:
    """Median, the highest percentile the sample supports (the maximum,
    below 11 samples), and the sample count."""
    return {"median": statistics.median(values), "max": max(values),
            "n": len(values)}


def _median(rows: list, key: str) -> float:
    return statistics.median(r[key] for r in rows)


def aggregate(events: list, trace: bool, timed_out: bool) -> dict:
    """The full record of one invocation."""
    by = {}
    for e in events:
        by.setdefault(e["event"], []).append(e)
    reps = by.get("rep", [])
    started = len(by.get("start", []))
    attempted = max(started, 1)
    failed = attempted - sum(1 for r in reps if r["ok"])
    rec = {"attempted": attempted, "failed": failed, "timed_out": timed_out,
           "ready": by.get("ready", [None])[0],
           "setup": by.get("setup", [None])[0],
           "reps": reps, "metrics": {}}
    ok = [r for r in reps if r["ok"]]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    checks_ok = True
    if plain and rec["setup"] and rec["ready"]:
        n_pages = rec["ready"]["n_pages"]
        e2e = {
            "wall_s": _median(plain, "wall_s"),
            "pages_per_s": statistics.median(
                n_pages / r["wall_s"] for r in plain),
            "triples_per_s": statistics.median(
                r["n_triples"] / r["wall_s"] for r in plain),
            "cpu_s": _median(plain, "cpu_s"),
            "setup_s": (rec["setup"]["init_s"] + rec["setup"]["warmup_s"]
                        + _median(plain, "broadcast_s")),
            "peak_rss_mb": _median(plain, "peak_rss_mb"),
            "rerun_s": _median(plain, "rerun_s"),
            "triple_precision": min(r.get("precision", 0.0) for r in reps),
            "triple_recall": min(r.get("recall", 0.0) for r in reps),
            "ok_frac": 1.0 - failed / attempted,
        }
        rec["end_to_end"] = e2e
        rec["failed_frac"] = failed / attempted
        rec["dist"] = {k: dist([r[k] for r in plain])
                       for k in ("wall_s", "cpu_s", "rerun_s")}
        if not trace:
            rec["metrics"] = e2e
    if trace and traced and plain and by.get("micro"):
        per = [layer_metrics(r) for r in traced]
        ledger = {k: statistics.median(m[k] for m in per) for k in per[0]}
        ledger.update({k: v for k, v in by["micro"][0].items()
                       if k != "event"})
        wall = _median(plain, "wall_s")
        layers = ledger["layer_sum_s"] + ledger["read.busy_s"]
        # The layers' CPU time spread over the task slots, against the
        # wall time; and the job's CPU time outside every layer.
        slots = rec["setup"]["logical_cpus"]
        ledger["ray.overhead_s"] = wall - layers / slots
        ledger["ray.overhead_cpu_s"] = _median(plain, "cpu_s") - layers
        ledger["trace.overhead_s"] = _median(traced, "wall_s") - wall
        ledger["kernel_share"] = ledger["kernel_s"] / layers
        ledger["overhead_share"] = ledger["ray.overhead_s"] / wall
        rec["ledger"] = ledger
        rec["conservation"] = [conservation(m, r["n_triples"])
                               for m, r in zip(per, traced)]
        checks_ok = all(all(c.values()) for c in rec["conservation"])
        rec["metrics"] = {k: ledger[k] for k in PER_LAYER}
    rec["correct"] = bool(rec["metrics"]) and failed == 0 and checks_ok
    return rec


def result_line(rec: dict, trace: bool) -> str:
    """The last line of a single-workload run."""
    units = PER_LAYER if trace else END_TO_END
    return json.dumps({
        "correct": rec["correct"], "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in rec["metrics"].items()}},
        separators=(",", ":"))


def _sig(v: float) -> float:
    return float(f"{v:.4g}")


def summary_line(records: dict) -> str:
    """One compact line with every end-to-end metric of every workload,
    short enough to survive a 2,000-character output tail."""
    units = dict(END_TO_END, failed_frac="ratio")
    return json.dumps({
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "units": units,
        "workloads": {
            name: {k: _sig(v) for k, v in dict(
                r.get("end_to_end", {}),
                failed_frac=r["failed"] / r["attempted"]).items()}
            for name, r in records.items()}},
        separators=(",", ":"))
