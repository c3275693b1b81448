"""Retrieval-result dedup (reference A6).

Retrieval itself (the seats T4 and J2: BM25 top-k against the broadcast
KB, kb/generate_data.py:33-68) runs in the per-worker kernel of
stages/tagger.py.  The KB is the SMALL side: it is ``ray.put`` once on the
driver and every worker builds its in-process BM25 index from that
broadcast (no shuffle join; SURVEY.md §2.4).
"""

from __future__ import annotations


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
