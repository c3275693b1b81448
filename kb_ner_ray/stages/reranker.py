"""Context reranking — the reference's context-scoring seat T7
(tools/bert_scoring.py: BERTScore F1 via xlm-roberta, or the edit-distance
score ``1 - edit_distance/max(len)`` at :14-22 with the 200-word candidate
truncation at :40-43).

Retrieve-then-rerank is the ``reranked`` emitter of the per-worker kernel
(stages/tagger.py): BM25 fetches ``fetch_k`` candidates, a pair scorer
rescores them, and the top-``k`` by (rerank score desc, BM25 rank asc)
are emitted with new ranks.  THE CROSS-ENCODER SEAM is that emitter's
``scorer`` kwarg, ``scorer(query, [candidates]) -> [scores]``: a GPU
deployment passes its cross-encoder's batched forward there, and the
dataflow, batching and output schema stay the same.  This module holds
the pair scorers; the deterministic ones are:

* ``score_edit_pairs`` — the reference's edit-distance flavor, exactly;
* ``token_f1_pairs`` — greedy exact-token-match P/R/F1, the deterministic
  stand-in for BERTScore's greedy soft-token matching.
"""

from __future__ import annotations


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
