"""Context reranking — the reference's context-scoring seat T7
(tools/bert_scoring.py: BERTScore F1 via xlm-roberta, or the edit-distance
score ``1 - edit_distance/max(len)`` at :14-22 with the 200-word candidate
truncation at :40-43).

``RerankedRetriever`` is the retrieve-then-rerank state: BM25 fetches
``fetch_k`` candidates, a pluggable pair scorer rescores them, and the
top-``k`` by (rerank score desc, BM25 rank asc) are emitted with new
ranks.  THE CROSS-ENCODER SEAM is the ``scorer`` constructor argument + the
``worker_state`` factory in ``rerank_contexts``: a GPU deployment loads
the cross-encoder there once per worker and passes its batched forward as
``scorer`` — the dataflow, batching, and output schema stay identical.
The sandbox default scorers are deterministic:

* ``score_edit_pairs`` — the reference's edit-distance flavor, exactly;
* ``token_f1_pairs`` — greedy exact-token-match P/R/F1, the deterministic
  stand-in for BERTScore's greedy soft-token matching.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..data.oracle import TOP_K
from .partitioning import worker_state
from .retriever import KBState


def _edit_distance(a: str, b: str) -> int:
    """Levenshtein distance, O(len(a) x len(b)) two-row DP (the
    nltk.edit_distance semantics the reference calls)."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def score_edit_pairs(query: str, cands: list[str]) -> list[float]:
    """Reference ``score_edit`` (tools/bert_scoring.py:14-22):
    ``1 - edit_distance(cand, ref)/max(len)`` with candidates truncated to
    200 words (:40-43)."""
    out = []
    for cand in cands:
        words = cand.split()
        if len(words) > 200:
            cand = " ".join(words[:200])
        m = max(len(query), len(cand))
        out.append(1.0 - _edit_distance(cand, query) / m if m else 1.0)
    return out


def token_f1_pairs(query: str, cands: list[str]) -> list[float]:
    """Greedy exact-token-match F1 — BERTScore's matching scheme with the
    embedding similarity degraded to exact equality (deterministic, no
    model).  A real deployment swaps in the cross-encoder forward."""
    q_toks = query.split()
    out = []
    for cand in cands:
        c_toks = cand.split()
        if not q_toks or not c_toks:
            out.append(0.0)
            continue
        from collections import Counter

        overlap = sum((Counter(q_toks) & Counter(c_toks)).values())
        p = overlap / len(c_toks)
        r = overlap / len(q_toks)
        out.append(2 * p * r / (p + r) if p + r else 0.0)
    return out


class RerankedRetriever(KBState):
    """sentences(url, sent_id, text[, lang]) -> reranked contexts
    (url, sent_id, rank, kb_id, bm25_score, rerank_score, kb_sentence,
    kb_title)."""

    def __init__(self, kb_ref, k: int = TOP_K, fetch_k: int = 30,
                 scorer=None):
        super().__init__(kb_ref)
        self.k = k
        self.fetch_k = fetch_k
        # CROSS-ENCODER SEAM: load the model HERE (once per worker); pass
        # its batched forward as `scorer(query, [cands]) -> [scores]`.
        self.scorer = scorer or token_f1_pairs

    def __call__(self, batch: pa.Table) -> pa.Table:
        langs = (batch.column("lang").to_pylist()
                 if "lang" in batch.column_names
                 else [None] * batch.num_rows)
        urls, sids, ranks = [], [], []
        kb_ids, bm25s, reranks, ksents, ktitles = [], [], [], [], []
        for url, sid, text, lang in zip(
            batch.column("url").to_pylist(),
            batch.column("sent_id").to_pylist(),
            batch.column("text").to_pylist(),
            langs,
        ):
            hits = self.index.search(text, lang=lang, k=self.fetch_k)
            if not hits:
                continue
            cands = [self.kb_clean[i] for i, _s in hits]
            scores = self.scorer(text, cands)
            # (rerank desc, original BM25 rank asc) — deterministic
            order = np.lexsort((np.arange(len(hits)),
                                -np.asarray(scores)))[: self.k]
            for new_rank, oi in enumerate(order):
                row_i, bm25 = hits[oi]
                r = self.kb_rows[row_i]
                urls.append(url)
                sids.append(sid)
                ranks.append(new_rank)
                kb_ids.append(r["kb_id"])
                bm25s.append(bm25)
                reranks.append(scores[oi])
                ksents.append(r["sentence"])
                ktitles.append(r["title"])
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "sent_id": pa.array(sids, pa.int32()),
                "rank": pa.array(ranks, pa.int32()),
                "kb_id": pa.array(kb_ids, pa.int64()),
                "bm25_score": pa.array(bm25s, pa.float32()),
                "rerank_score": pa.array(reranks, pa.float32()),
                "kb_sentence": pa.array(ksents, pa.string()),
                "kb_title": pa.array(ktitles, pa.string()),
            }
        )


_RERANK_STATE: dict = {}  # rerank_contexts' slot: (kb_ref, k, fetch_k)


def rerank_contexts(batch: pa.Table, kb_ref=None, k: int = TOP_K,
                    fetch_k: int = 30) -> pa.Table:
    """Plain task: the worker's ``RerankedRetriever`` for (kb_ref, k,
    fetch_k), built once per worker, reranks the batch.  A cross-encoder
    deployment builds its model in this factory and passes it as
    ``scorer``."""
    return worker_state(
        _RERANK_STATE, (kb_ref, k, fetch_k),
        lambda: RerankedRetriever(kb_ref, k=k, fetch_k=fetch_k))(batch)
