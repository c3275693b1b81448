"""Distant supervision: project detected entity surfaces onto retrieved
contexts (reference M18, ``unlabeled_assignment`` kb/context_process.py:578-657).

The reference takes each gold-labelled sentence, scans its retrieved
contexts for exact token-span matches of the sentence's entity strings and
emits weak-labelled context sentences.  Here: one fused plain task per
batch — tag the sentence (gazetteer), retrieve top-k KB contexts (the
worker's BM25 index), exhaustively match each mention surface in the
context token sequence, emit one weak-label row per (context, matched
span).  The KB index and the gazetteer are built once per worker.
"""

from __future__ import annotations

import pyarrow as pa

from ..data.oracle import TOP_K
from ..state.gazetteer import Gazetteer
from .partitioning import resolve, worker_state
from .retriever import KBState

_DISTANT_STATE: dict = {}  # distant_supervision's slot: (kb_ref, gaz_ref)


def distant_supervision(batch: pa.Table, kb_ref=None,
                        gaz_ref=None) -> pa.Table:
    """sentences(url, sent_id, text) -> weak labels
    (url, sent_id, kb_id, surface, label, ctx_start:int32, ctx_end:int32)."""
    kb, gaz = worker_state(
        _DISTANT_STATE, (kb_ref, gaz_ref),
        lambda: (KBState(kb_ref), Gazetteer(resolve(gaz_ref))))
    urls, sids, kb_ids, surfs, labels, starts, ends = ([], [], [], [], [], [], [])
    for url, sid, text in zip(
        batch.column("url").to_pylist(),
        batch.column("sent_id").to_pylist(),
        batch.column("text").to_pylist(),
    ):
        tokens = text.split()
        spans = gaz.mentions_via_codec(tokens)
        if not spans:
            continue
        mention_surfaces = [
            (tuple(tokens[s:e]), label) for s, e, label, _score in spans
        ]
        for row_i, _score in kb.index.search(text, k=TOP_K):
            ctx_tokens = kb.kb_rows[row_i]["sentence"].split()
            kb_id = kb.kb_rows[row_i]["kb_id"]
            for surf, label in mention_surfaces:
                L = len(surf)
                # exhaustive span-index match (reference :594-649)
                for start in range(0, len(ctx_tokens) - L + 1):
                    if tuple(ctx_tokens[start:start + L]) == surf:
                        urls.append(url)
                        sids.append(sid)
                        kb_ids.append(kb_id)
                        surfs.append(" ".join(surf))
                        labels.append(label)
                        starts.append(start)
                        ends.append(start + L)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "sent_id": pa.array(sids, pa.int32()),
            "kb_id": pa.array(kb_ids, pa.int64()),
            "surface": pa.array(surfs, pa.string()),
            "label": pa.array(labels, pa.string()),
            "ctx_start": pa.array(starts, pa.int32()),
            "ctx_end": pa.array(ends, pa.int32()),
        }
    )
