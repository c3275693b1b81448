"""The broadcast KB side of retrieval, and retrieval-result dedup.

Fills the reference seats T4 (ES retriever, kb/generate_data.py:33-68) and
J2 (query->KB top-k broadcast-small-side join) together with
stages/tagger.py, whose per-worker kernel does the retrieval and the
budgeted context attach (M12/J1, kb/context_process.py:213-502).

Design: the KB is the SMALL side — it is ``ray.put`` once on the driver and
every worker builds its in-process BM25 index from that broadcast (no
shuffle join; SURVEY.md §2.4).
"""

from __future__ import annotations

from ..data.oracle import clean_context
from ..functions.tokenizer import subtoken_count
from ..state.bm25 import MultiLangKBIndex
from .partitioning import resolve


class KBState:
    """The per-worker state built from the broadcast KB: its rows, the
    BM25 index and the cleaned, costed context of every KB sentence."""

    def __init__(self, kb_ref):
        kb_rows = resolve(kb_ref)
        self.kb_rows = kb_rows
        self.index = MultiLangKBIndex(kb_rows)  # per-language + all view
        # KB side is fixed for the state's lifetime: hoist the printable
        # filter + subtoken costs out of the per-sentence attach loop
        self.kb_clean = [clean_context(r["sentence"]) for r in kb_rows]
        self.kb_cost = [subtoken_count(c) for c in self.kb_clean]


def dedup_contexts(contexts_ds, min_results: int = 6):
    """Per-query retrieval-result dedup + short-result flag (reference A6,
    kb/context_process.py:960-970: per keyword set() -> rank-ordered texts,
    flag keywords with <6 results).

    Grouped on the coarse ``url`` key (page granularity); per-query dedup
    vectorized inside the group.
    """
    import pandas as pd

    def dedup(group: pd.DataFrame) -> pd.DataFrame:
        out = []
        for (url, sid), g in group.groupby(["url", "sent_id"], sort=False):
            g = g.sort_values("rank").drop_duplicates("kb_sentence")
            g = g.copy()
            g["rank"] = range(len(g))
            g["few_results"] = len(g) < min_results
            out.append(g)
        return pd.concat(out) if out else group.head(0).assign(
            few_results=pd.Series([], dtype=bool))

    return contexts_ds.groupby("url").map_groups(dedup,
                                                 batch_format="pandas")
