"""In-process Okapi BM25 index over the KB table.

Replaces the reference's external ElasticSearch server (kb/build_kb.py:24-36
index mapping, kb/generate_data.py:33-68 ``_msearch`` bool/should query).
Semantics pinned:

* ``text`` field = KB sentence, analyzed standard-ish (lowercase, word chars);
* ``title`` field analyzed the same way;
* sentence-level query = ``match(text, query_sentence)``;
* entity-level query adds ``match(title, entity, boost=2.0)``
  (kb/generate_data.py:52-55) — bool/should sums clause scores;
* top-k = 10 (kb/generate_data.py:39,120).

Scoring is Lucene-flavoured Okapi BM25 (k1=1.2, b=0.75, the ES 7.x default);
idf = ln(1 + (N - df + 0.5)/(df + 0.5)).  Scoring is vectorized with numpy
over an inverted index: per query term we fetch (doc_ids, tf) arrays and
accumulate into a dense score vector (the KB side is the *small* broadcast
side — its size is bounded by the entity vocabulary, not the corpus).
"""

from __future__ import annotations

import math
import re

import numpy as np

_TOKEN_RE = re.compile(r"[0-9a-zA-Z_]+|[一-鿿]", re.UNICODE)


def analyze(text: str) -> list[str]:
    """Lowercase word tokens (ES 'standard' analyzer approximation)."""
    return [t.lower() for t in _TOKEN_RE.findall(text)]


class BM25Field:
    """One searchable field: inverted index + per-doc lengths.

    When the doc count is small enough (the KB is the broadcast SMALL side,
    bounded by entity vocabulary) a dense per-term contribution matrix is
    precomputed: score(query) = sum over query-term occurrences of
    ``contrib[term]`` — one fancy-index + sum per query instead of a Python
    loop over terms.  Above ``DENSE_MAX_CELLS`` the classic postings loop
    is used (real multi-million-row KBs).
    """

    DENSE_MAX_CELLS = 50_000_000  # vocab x docs cells (~200 MB float32 cap)

    def __init__(self, docs: list[str], k1: float = 1.2, b: float = 0.75):
        self.k1, self.b = k1, b
        self.n_docs = len(docs)
        lengths = np.zeros(self.n_docs, dtype=np.float32)
        postings: dict[str, dict[int, int]] = {}
        for i, doc in enumerate(docs):
            toks = analyze(doc)
            lengths[i] = len(toks)
            for t in toks:
                postings.setdefault(t, {})
                postings[t][i] = postings[t].get(i, 0) + 1
        self.avgdl = float(lengths.mean()) if self.n_docs else 0.0
        self.lengths = lengths
        self.index: dict[str, tuple[np.ndarray, np.ndarray, float]] = {}
        for term, tfmap in postings.items():
            ids = np.fromiter(tfmap.keys(), dtype=np.int64, count=len(tfmap))
            tfs = np.fromiter(tfmap.values(), dtype=np.float32, count=len(tfmap))
            df = len(tfmap)
            idf = math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))
            self.index[term] = (ids, tfs, idf)
        # dense fast path
        self.term_row: dict[str, int] | None = None
        self.contrib: np.ndarray | None = None
        n_cells = len(self.index) * max(self.n_docs, 1)
        if self.n_docs and n_cells <= self.DENSE_MAX_CELLS:
            self.term_row = {}
            self.contrib = np.zeros((len(self.index), self.n_docs),
                                    dtype=np.float32)
            k1, b = self.k1, self.b
            for row, (term, (ids, tfs, idf)) in enumerate(self.index.items()):
                self.term_row[term] = row
                norm = k1 * (1.0 - b + b * self.lengths[ids] / self.avgdl)
                self.contrib[row, ids] = idf * (tfs * (k1 + 1.0)) / (tfs + norm)

    def score_into(self, query: str, scores: np.ndarray, boost: float = 1.0) -> None:
        """Accumulate BM25 scores for ``query`` into the dense ``scores`` vec."""
        if not self.n_docs:
            return
        if self.term_row is not None:
            rows = [self.term_row[t] for t in analyze(query)
                    if t in self.term_row]
            if rows:
                scores += boost * self.contrib[rows].sum(axis=0)
            return
        k1, b = self.k1, self.b
        for term in analyze(query):
            hit = self.index.get(term)
            if hit is None:
                continue
            ids, tfs, idf = hit
            norm = k1 * (1.0 - b + b * self.lengths[ids] / self.avgdl)
            scores[ids] += boost * idf * (tfs * (k1 + 1.0)) / (tfs + norm)


class KBIndex:
    """BM25 over the KB table's ``sentence`` (text) and ``title`` fields.

    ``rows`` is a list of dicts with at least kb_id/ent_id/title/sentence.
    One instance per worker, built from the broadcast KB.
    """

    def __init__(self, rows: list[dict]):
        self.rows = rows
        self.text = BM25Field([r["sentence"] for r in rows])
        self.title = BM25Field([r["title"] for r in rows])
        self._scores = np.zeros(len(rows), dtype=np.float32)

    def search(self, sentence: str, entity: str | None = None, k: int = 10,
               title_boost: float = 2.0) -> list[tuple[int, float]]:
        """Top-k (row_index, score) as plain ints and floats, score desc.

        Ties are broken by row index asc only among the ``4k`` candidates
        that ``argpartition`` leaves; which of the documents tied at the
        top-k cut are among them is up to introselect, not the row order
        (the exact stable top-k is ROADMAP direction 1).

        ``entity`` engages the reference's --with_entity mode
        (kb/generate_data.py:52-55): bool/should adds a boosted title match.
        """
        scores = self._scores
        scores[:] = 0.0
        self.text.score_into(sentence, scores)
        if entity:
            self.title.score_into(entity, scores, boost=title_boost)
        n = len(scores)
        if n == 0:
            return []
        k = min(k, n)
        # argpartition keeps 4k candidates (ties at the cut: introselect's
        # pick), then sort them by (-score, idx)
        neg = -scores
        cand = np.argpartition(neg, k - 1)[: max(k * 4, k)]
        cand = cand[np.lexsort((cand, neg[cand]))][:k]
        return [(i, s) for i, s in zip(cand.tolist(), scores[cand].tolist())
                if s > 0.0]


class MultiLangKBIndex:
    """Per-language BM25 indexes + an all-languages view (reference T4:
    one ES index per language ``{lan}wiki_v1`` selected by query language,
    wildcard ``*wiki_v1`` for code-mixed input — kb/build_kb.py:14,
    kb/generate_data.py:21-24).

    ``search`` returns GLOBAL row indices into the full rows list, so
    callers' per-row caches (clean text, subtoken cost) stay unchanged.
    """

    def __init__(self, rows: list[dict]):
        self.rows = rows
        self.all = KBIndex(rows)
        self.by_lang: dict[str, tuple[KBIndex, list[int]]] = {}
        groups: dict[str, list[int]] = {}
        for i, r in enumerate(rows):
            groups.setdefault(r.get("lang", "en"), []).append(i)
        for lang, idxs in groups.items():
            self.by_lang[lang] = (KBIndex([rows[i] for i in idxs]), idxs)

    def search(self, sentence: str, lang: str | None = None,
               entity: str | None = None, k: int = 10,
               title_boost: float = 2.0) -> list[tuple[int, float]]:
        if lang is None or lang == "all":
            return self.all.search(sentence, entity=entity, k=k,
                                   title_boost=title_boost)
        hit = self.by_lang.get(lang)
        if hit is None:
            return []  # no index for this language (reference: missing
            #            {lan}wiki_v1 index -> no results)
        sub, idxs = hit
        return [(idxs[i], s) for i, s in
                sub.search(sentence, entity=entity, k=k,
                           title_boost=title_boost)]
