"""Distributed span-level P/R/F1 (reference seat A2: per-class TP/FP/FN
over exact span-tuple match — conlleval_perl.py:207-353,
flair/models/sequence_tagger_model.py:2674-2727).

Dataflow: gold spans are the broadcast side (keyed by (url, sent_id));
each predicted-mentions batch emits PARTIAL per-class TP/FP counts plus the
per-key gold-hit sets it consumed; FN = gold total - matched, finalized on
the driver from vocabulary-of-classes-sized partials.  To keep the partial
stream tiny, matches are counted (not materialized): each batch emits one
row per class.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray

from .partitioning import resolve, worker_state


def _gold_index(gold_rows: list[dict]) -> dict:
    """gold mentions -> {(url, sent_id, start, end, label)} set + per-class
    totals."""
    keys = set()
    totals: dict[str, int] = {}
    for r in gold_rows:
        keys.add((r["url"], int(r["sent_id"]), int(r["start_tok"]),
                  int(r["end_tok"]), r["label"]))
        totals[r["label"]] = totals.get(r["label"], 0) + 1
    return {"keys": keys, "totals": totals}


_GOLD_STATE: dict = {}  # partial_span_counts' slot: gold_ref -> index


def partial_span_counts(batch: pa.Table, gold_ref=None) -> pa.Table:
    """Predicted mentions batch -> per-class (tp, fp) partial counts
    against the broadcast ``_gold_index``."""
    gold = worker_state(_GOLD_STATE, gold_ref, lambda: resolve(gold_ref))
    keys = gold["keys"]
    tp: dict[str, int] = {}
    fp: dict[str, int] = {}
    for url, sid, s, e, lab in zip(
        batch.column("url").to_pylist(),
        batch.column("sent_id").to_pylist(),
        batch.column("start_tok").to_pylist(),
        batch.column("end_tok").to_pylist(),
        batch.column("label").to_pylist(),
    ):
        if (url, int(sid), int(s), int(e), lab) in keys:
            tp[lab] = tp.get(lab, 0) + 1
        else:
            fp[lab] = fp.get(lab, 0) + 1
    labels = sorted(set(tp) | set(fp))
    return pa.table({
        "label": pa.array(labels, pa.string()),
        "tp": pa.array([tp.get(x, 0) for x in labels], pa.int64()),
        "fp": pa.array([fp.get(x, 0) for x in labels], pa.int64()),
    })


def span_prf_distributed(mentions_ds, gold_rows: list[dict]) -> pd.DataFrame:
    """Mentions Dataset + gold rows -> per-class precision/recall/F1 +
    micro row.  Predictions are assumed unique per span tuple (the tagger
    emits each span once), matching the exact-tuple evaluation."""
    gold_ref = ray.put(_gold_index(gold_rows))
    pdf = mentions_ds.map_batches(
        partial_span_counts, fn_kwargs={"gold_ref": gold_ref},
        batch_format="pyarrow").to_pandas()
    agg = pdf.groupby("label", as_index=False).agg(
        tp=("tp", "sum"), fp=("fp", "sum"))
    totals = _gold_index(gold_rows)["totals"]
    rows = []
    for _, r in agg.iterrows():
        n_gold = totals.get(r["label"], 0)
        fn = n_gold - r["tp"]
        p = r["tp"] / (r["tp"] + r["fp"]) if (r["tp"] + r["fp"]) else 0.0
        rec = r["tp"] / n_gold if n_gold else 0.0
        f1 = 2 * p * rec / (p + rec) if (p + rec) else 0.0
        rows.append((r["label"], int(r["tp"]), int(r["fp"]), int(fn),
                     p, rec, f1))
    # classes never predicted at all are pure-FN rows
    for lab, n_gold in totals.items():
        if lab not in set(agg["label"]):
            rows.append((lab, 0, 0, n_gold, 0.0, 0.0, 0.0))
    tp_s = sum(r[1] for r in rows)
    fp_s = sum(r[2] for r in rows)
    fn_s = sum(r[3] for r in rows)
    p = tp_s / (tp_s + fp_s) if (tp_s + fp_s) else 0.0
    rec = tp_s / (tp_s + fn_s) if (tp_s + fn_s) else 0.0
    f1 = 2 * p * rec / (p + rec) if (p + rec) else 0.0
    rows.append(("__micro__", tp_s, fp_s, fn_s, p, rec, f1))
    return pd.DataFrame(rows, columns=["label", "tp", "fp", "fn",
                                       "precision", "recall", "f1"])
