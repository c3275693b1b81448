"""Multi-checkpoint ensemble ORCHESTRATION — the reference's 14-model sweep
as a resumable Ray Data pipeline.

Reference seats: train.py trains models independently, each prediction run
writes a file via the S11 writer, and ensemble_prediction.py:462-505 reads
all prediction files and majority-votes spans.  The engine's fused
``kg_ensemble`` (stages/ensemble.py) computes n variants in ONE pass —
right when variants share all upstream work.  THIS module is the seat for
genuinely distinct checkpoints, where each model is its own deployment:

* each checkpoint runs as its own plain-task pass over the sentence
  stream (a real deployment loads its weights in the per-worker state
  factory; the sandbox stand-in is the pinned gazetteer
  ``VariantTagger``);
* each run's predictions land STREAMED in a resumable partitioned sink
  (``out_dir/part=<m>/`` + lineage manifest, state/manifest.py) — a
  crashed 14-model sweep recomputes only missing/stale runs, keyed on
  (corpus fingerprint, checkpoint identity);
* the vote reads ALL runs back as one Dataset of fixed-width span rows
  (the corpus text is never re-read) and applies the pinned
  ``greedy_vote_assign`` kernel via one url-bucketed groupby — the only
  shuffle, moving span rows, not text.

The fused and orchestrated paths must agree exactly when given the same
variants; tests/test_ensemble_runs.py pins that equality.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os

import ray

from ..stages.ensemble import variant_tag, vote_group_factory
from ..state.manifest import (input_fingerprint, landed_dirs, partition_done,
                              write_partition)
from .kg import load_corpus_refs, sentences_dataset, sides_fingerprint


def checkpoint_fingerprint(corpus: str, checkpoint: dict) -> str:
    """Content fingerprint binding one run to (input corpus, checkpoint
    identity): either side changing invalidates exactly that run.

    Predictions depend on pages AND the broadcast sides the tagger is
    built from (kb/, gazetteer/ — ``kg.sides_fingerprint``), so both
    enter the fingerprint; a gazetteer update must not be served stale
    cached runs."""
    h = hashlib.blake2b(digest_size=16)
    h.update(input_fingerprint(
        glob.glob(os.path.join(corpus, "pages", "*.parquet"))).encode())
    h.update(sides_fingerprint(corpus).encode())
    h.update(json.dumps(checkpoint, sort_keys=True).encode())
    return h.hexdigest()


def run_checkpoint_predictions(corpus: str, checkpoints: list[dict],
                               out_dir: str) -> dict:
    """One S11-style prediction run per checkpoint, resumably.

    ``checkpoints`` are identity dicts — the stand-in uses
    {"model_id": m, "n_models": n} to pick a ``VariantTagger``; a real
    deployment adds a weights path and loads it in the per-worker state
    factory of its tagging task.  Returns
    {"computed": [...], "skipped": [...]} of run ids."""
    os.makedirs(out_dir, exist_ok=True)
    _kb_ref, gaz_ref, _ = load_corpus_refs(corpus)
    computed, skipped = [], []
    for run_id, ckpt in enumerate(checkpoints):
        fp = checkpoint_fingerprint(corpus, ckpt)
        if partition_done(out_dir, run_id, fp):
            skipped.append(run_id)
            continue
        preds = sentences_dataset(corpus).map_batches(
            variant_tag,
            fn_kwargs={"gaz_ref": gaz_ref, "model_id": ckpt["model_id"],
                       "n_models": ckpt["n_models"]},
            batch_format="pyarrow", batch_size=512)
        write_partition(out_dir, run_id, preds, fp,
                        counters={"checkpoint": ckpt})
        computed.append(run_id)
    return {"computed": computed, "skipped": skipped}


def ensemble_from_runs(out_dir: str, n_models: int,
                       threshold: float | None = None):
    """Vote across persisted prediction runs -> ensembled span Dataset.

    Reads every run's span rows (fixed-width; url, sent_id, start/end,
    label, model_id, n_tokens) and applies the same vote kernel as the
    fused path, so both paths are interchangeable downstream.

    Only MANIFESTED run directories are read (a crashed write leaves a
    part=NNNN.tmp with no manifest — never voted), and the run count
    must equal ``n_models``: a leftover run from a wider previous sweep
    would silently skew the vote threshold."""
    run_dirs = [d for d in landed_dirs(out_dir)
                if os.path.exists(os.path.join(d, "_MANIFEST.json"))]
    if not run_dirs:
        raise FileNotFoundError(f"no prediction runs under {out_dir}")
    if len(run_dirs) != n_models:
        raise ValueError(
            f"{out_dir} holds {len(run_dirs)} manifested runs but the vote "
            f"expects n_models={n_models}; remove stale runs from a "
            f"previous sweep (or pass the sweep's true n_models)")
    files = sorted(f for d in run_dirs
                   for f in glob.glob(os.path.join(d, "*.parquet")))
    preds = ray.data.read_parquet(files)
    return preds.groupby("url").map_groups(
        vote_group_factory(n_models, threshold), batch_format="pandas")


def run_ensemble(corpus: str, out_dir: str, n_models: int = 3,
                 threshold: float | None = None):
    """End-to-end orchestration: n stand-in checkpoints -> resumable
    prediction runs -> cross-run vote."""
    checkpoints = [{"model_id": m, "n_models": n_models}
                   for m in range(n_models)]
    run_checkpoint_predictions(corpus, checkpoints, out_dir)
    return ensemble_from_runs(out_dir, n_models, threshold)
