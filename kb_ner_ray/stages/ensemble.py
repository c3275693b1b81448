"""Majority-vote span ensembling (reference seat A1,
ensemble_prediction.py:348-416,490-505).

The reference runs N model prediction files through ``gen_item`` to build a
vote dict keyed by sentence string, then greedily assigns non-overlapping
spans with votes >= N*0.5.  Here the N "models" are gazetteer variants (each
drops a deterministic slice of the vocabulary — the stand-in for independently
trained checkpoints), predictions land in ONE Dataset tagged ``model_id``,
and voting is a ``groupby((url, sent_id)).map_groups`` with the pinned
``greedy_vote_assign`` kernel.
"""

from __future__ import annotations

import hashlib

import pandas as pd
import pyarrow as pa

from ..functions.spans import greedy_vote_assign
from ..state.gazetteer import Gazetteer
from .partitioning import resolve, worker_state


class VariantTagger:
    """Model variant m of n: ignores surfaces with blake2b(surface)%n == m
    (a deterministic stand-in for checkpoint disagreement)."""

    def __init__(self, gaz_rows: list[dict], model_id: int, n_models: int):
        kept = [r for r in gaz_rows
                if int.from_bytes(hashlib.blake2b(
                    r["surface"].encode(), digest_size=4).digest(), "big")
                % n_models != model_id]
        self.gaz = Gazetteer(kept)
        self.model_id = model_id

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls, sids, starts, ends, labels, models, n_toks = [], [], [], [], [], [], []
        for url, sid, text in zip(batch.column("url").to_pylist(),
                                  batch.column("sent_id").to_pylist(),
                                  batch.column("text").to_pylist()):
            tokens = text.split()
            for start, end, label, _score in self.gaz.mentions_via_codec(tokens):
                urls.append(url)
                sids.append(sid)
                starts.append(start)
                ends.append(end)
                labels.append(label)
                models.append(self.model_id)
                n_toks.append(len(tokens))
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "sent_id": pa.array(sids, pa.int32()),
            "start_tok": pa.array(starts, pa.int32()),
            "end_tok": pa.array(ends, pa.int32()),
            "label": pa.array(labels, pa.string()),
            "model_id": pa.array(models, pa.int32()),
            "n_tokens": pa.array(n_toks, pa.int32()),
        })


def vote_group_factory(n_models: int, threshold: float | None = None):
    """Vote + greedy assignment for ALL sentences of one url bucket.

    Grouped on ``url`` (page granularity), not (url, sent_id): per-group
    pandas dispatch is ~0.1 ms, so sentence-granular groups would dominate
    the voting itself.  Threshold defaults to the reference's
    n_models * 0.5 (ensemble_prediction.py:505); the per-sentence kernel is
    the pinned ``greedy_vote_assign``."""
    thr = n_models * 0.5 if threshold is None else threshold

    def vote(group: pd.DataFrame) -> pd.DataFrame:
        rows: list[tuple] = []
        for (url, sid), g in group.groupby(["url", "sent_id"], sort=False):
            votes: dict[tuple[int, int, str], int] = {}
            for s, e, lab in zip(g["start_tok"], g["end_tok"], g["label"]):
                key = (int(s), int(e), lab)
                votes[key] = votes.get(key, 0) + 1
            kept = greedy_vote_assign(votes, int(g["n_tokens"].iloc[0]), thr)
            rows.extend((url, sid, k[0], k[1], k[2], votes[k]) for k in kept)
        return pd.DataFrame(rows, columns=["url", "sent_id", "start_tok",
                                           "end_tok", "label", "votes"])

    return vote


_VARIANT_STATE: dict = {}  # the variants' slot: (gaz_ref, n) -> n taggers


def _variants(gaz_ref, n_models: int) -> list[VariantTagger]:
    """This worker's ``n_models`` variant taggers over ``gaz_ref``, built
    once (a real deployment loads its checkpoints here)."""
    def build():
        rows = resolve(gaz_ref)
        return [VariantTagger(rows, m, n_models) for m in range(n_models)]

    return worker_state(_VARIANT_STATE, (gaz_ref, n_models), build)


def variant_tag(batch: pa.Table, gaz_ref=None, model_id: int = 0,
                n_models: int = 3) -> pa.Table:
    """Plain task: model variant ``model_id`` of ``n_models`` tags the
    batch."""
    return _variants(gaz_ref, n_models)[model_id](batch)


def all_variants_tag(batch: pa.Table, gaz_ref=None,
                     n_models: int = 3) -> pa.Table:
    """Run ALL n model variants over the batch in one pass (one upstream
    execution instead of n union branches each re-running the
    extract/explode chain)."""
    return pa.concat_tables([tag(batch)
                             for tag in _variants(gaz_ref, n_models)])


def ensemble_mentions(sentences_ds, gaz_ref, n_models: int = 3):
    """sentences -> ensembled mention spans across n gazetteer variants."""
    preds = sentences_ds.map_batches(
        all_variants_tag,
        fn_kwargs={"gaz_ref": gaz_ref, "n_models": n_models},
        batch_format="pyarrow")
    return preds.groupby("url").map_groups(
        vote_group_factory(n_models), batch_format="pandas")
