"""In-process Okapi BM25 index over the KB table.

Replaces the reference's external ElasticSearch server (kb/build_kb.py:24-36
index mapping, kb/generate_data.py:33-68 ``_msearch`` bool/should query).
Semantics pinned:

* ``text`` field = KB sentence, analyzed standard-ish (lowercase, word chars);
* ``title`` field analyzed the same way;
* sentence-level query = ``match(text, query_sentence)``;
* entity-level query adds ``match(title, entity, boost=2.0)``
  (kb/generate_data.py:52-55) — bool/should sums clause scores;
* top-k = 10 (kb/generate_data.py:39,120), ordered by score desc and then
  row asc: ES breaks score ties by index order.

Scoring is Lucene-flavoured Okapi BM25 (k1=1.2, b=0.75, the ES 7.x default);
idf = ln(1 + (N - df + 0.5)/(df + 0.5)).  Each field keeps per-term
postings: the rows holding the term and the term's float32 contribution to
each.  A query's score is its terms' contributions summed in query-term
order (a repeated term counts again), so a row's score is the same float32
sum whether the query comes alone or in a batch.  ``search_many`` is the
batch call, like ``_msearch``: it scores a chunk of queries into one
(queries x rows) buffer with a few numpy passes and takes every row's
top-k at once; ``search`` is its one-query case.
"""

from __future__ import annotations

import functools
import math
import re

import numpy as np

_TOKEN_RE = re.compile(r"[0-9a-zA-Z_]+|[一-鿿]", re.UNICODE)

# Cells (queries x rows) of one chunk's float32 score buffer.  A chunk's
# postings arrays scale with it; this small, they stay in cache and the
# allocator reuses them.  With 2^20 cells the kernel's postings scatter
# took about twice as long on a 1,600-page synthetic corpus.
CELL_BUDGET = 1 << 15
# Columns per block of the top-k's block-maximum threshold.
_BLOCK = 8
_TINY = np.nextafter(np.float32(0), np.float32(1))


def analyze(text: str) -> list[str]:
    """Lowercase word tokens (ES 'standard' analyzer approximation)."""
    return list(map(str.lower, _TOKEN_RE.findall(text)))


class BM25Field:
    """One searchable field: ``postings[term]`` = (the ascending rows
    holding ``term``, their float32 BM25 contributions)."""

    def __init__(self, docs: list[str], k1: float = 1.2, b: float = 0.75):
        self.n_docs = len(docs)
        lengths = np.zeros(self.n_docs, dtype=np.float32)
        tfs_of: dict[str, dict[int, int]] = {}
        for i, doc in enumerate(docs):
            toks = analyze(doc)
            lengths[i] = len(toks)
            for t in toks:
                tfs_of.setdefault(t, {})
                tfs_of[t][i] = tfs_of[t].get(i, 0) + 1
        avgdl = float(lengths.mean()) if self.n_docs else 0.0
        self.postings: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for term, tfmap in tfs_of.items():
            ids = np.fromiter(tfmap.keys(), dtype=np.int64, count=len(tfmap))
            tfs = np.fromiter(tfmap.values(), dtype=np.float32,
                              count=len(tfmap))
            df = len(tfmap)
            idf = math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))
            norm = k1 * (1.0 - b + b * lengths[ids] / avgdl)
            self.postings[term] = (ids,
                                   idf * (tfs * (k1 + 1.0)) / (tfs + norm))

    def lookup(self, query: str) -> list[tuple[np.ndarray, np.ndarray]]:
        """The postings of the query's in-vocabulary terms, in query
        order, a repeated term repeated."""
        get = self.postings.get
        return [p for p in map(get, map(str.lower, _TOKEN_RE.findall(query)))
                if p is not None]


def _scatter(queries: list[list[tuple]], buf: np.ndarray) -> None:
    """Add to row ``q`` of ``buf`` the postings of ``queries[q]``, in
    query-term order: one query takes one fancy add per term; a batch
    takes one ``np.add.at``, which adds in input order."""
    if len(queries) == 1:
        row = buf[0]
        for ids, contrib in queries[0]:
            row[ids] += contrib
        return
    plist = [p for ps in queries for p in ps]
    if not plist:
        return
    width = buf.shape[1]
    flat = np.repeat(
        np.fromiter((q * width for q, ps in enumerate(queries)
                     for _p in ps), np.int64, len(plist)),
        [len(ids) for ids, _c in plist])
    flat += np.concatenate([ids for ids, _c in plist])
    np.add.at(buf.reshape(-1), flat,
              np.concatenate([c for _ids, c in plist]))


def _top_k(buf: np.ndarray, k: int, row_ids: np.ndarray
           ) -> list[list[tuple[int, float]]]:
    """Each buffer row's top-k positive scores as ``(row_ids[j], score)``
    pairs, score desc then column ``j`` asc — exact at any tie.

    Scores are non-negative, so their float32 bit patterns sort as int32.
    The columns fall into ``width / _BLOCK`` strided blocks; at least k
    cells reach the k-th largest block maximum, so it bounds the k-th
    largest score from below and every top-k cell passes it."""
    c, width = buf.shape
    nb = width // _BLOCK
    if c == 1:  # one row: the same cut and order from fewer numpy calls
        row = buf[0]
        floor = _TINY
        if nb > k:
            block_max = row.reshape(_BLOCK, nb).max(axis=0)
            block_max.partition(nb - k)
            floor = max(block_max[nb - k], _TINY)
        cells = (row >= floor).nonzero()[0]
        scores = row[cells]
        order = np.argsort(-scores, kind="stable")[:k]
        return [list(zip(row_ids[cells[order]].tolist(),
                         scores[order].tolist()))]
    bits = buf.view(np.int32)
    floor = 1  # the bits of the smallest positive float32
    if nb > k:
        block_max = bits.reshape(c, _BLOCK, nb).max(axis=1)
        floor = np.maximum(np.partition(block_max, nb - k, axis=1)
                           [:, nb - k:nb - k + 1], 1)
    cells = np.flatnonzero(bits >= floor)
    q = cells // width
    score_bits = bits.reshape(-1)[cells]
    # stable: row asc, then score desc, then column asc
    order = np.argsort((q << 32) - score_bits, kind="stable")
    counts = np.bincount(q, minlength=c)
    rank = np.arange(len(order)) - np.repeat(np.cumsum(counts) - counts,
                                             counts)
    order = order[rank < k]
    pairs = list(zip(row_ids[cells[order] - q[order] * width].tolist(),
                     score_bits[order].view(np.float32).tolist()))
    out, pos = [], 0
    for n in np.minimum(counts, k).tolist():
        out.append(pairs[pos:pos + n])
        pos += n
    return out


class KBIndex:
    """BM25 over the KB table's ``sentence`` (text) and ``title`` fields.

    ``rows`` is a list of dicts with at least kb_id/ent_id/title/sentence;
    hits name them by ``row_ids`` (default: their positions).  One
    instance per worker, built from the broadcast KB.
    """

    def __init__(self, rows: list[dict], row_ids: list[int] | None = None):
        self.rows = rows
        self.row_ids = np.asarray(
            range(len(rows)) if row_ids is None else row_ids, dtype=np.int64)
        self.text = BM25Field([r["sentence"] for r in rows])
        self.title = BM25Field([r["title"] for r in rows])

    def search_many(self, queries: list[tuple[str, str | None]], k: int = 10,
                    title_boost: float = 2.0
                    ) -> list[list[tuple[int, float]]]:
        """Top-k ``(row, score)`` hits, as plain ints and floats, of each
        ``(sentence, entity)`` query: score desc, then row asc.

        ``entity`` (or None) engages the reference's --with_entity mode
        (kb/generate_data.py:52-55): bool/should adds the boosted title
        match, summed in its own buffer and added as ``title_boost *
        title``.  Queries are scored in chunks whose buffer stays under
        ``CELL_BUDGET`` cells."""
        n = self.text.n_docs
        if n == 0 or k <= 0:
            return [[] for _ in queries]
        text = [self.text.lookup(s) for s, _e in queries]
        title = [self.title.lookup(e) if e else [] for _s, e in queries]
        width = -(-n // _BLOCK) * _BLOCK  # padding columns stay 0
        step = max(1, CELL_BUDGET // width)
        out = []
        for lo in range(0, len(queries), step):
            chunk = text[lo:lo + step]
            buf = np.zeros((len(chunk), width), dtype=np.float32)
            _scatter(chunk, buf)
            if any(title[lo:lo + step]):
                tbuf = np.zeros_like(buf)
                _scatter(title[lo:lo + step], tbuf)
                buf += title_boost * tbuf
            out.extend(_top_k(buf, k, self.row_ids))
        return out

    def search(self, sentence: str, entity: str | None = None, k: int = 10,
               title_boost: float = 2.0) -> list[tuple[int, float]]:
        """``search_many`` of the one query."""
        return self.search_many([(sentence, entity)], k, title_boost)[0]


class MultiLangKBIndex:
    """Per-language BM25 indexes + an all-languages view, built lazily
    (reference T4: one ES index per language ``{lan}wiki_v1`` selected by
    query language, wildcard ``*wiki_v1`` for code-mixed input —
    kb/build_kb.py:14, kb/generate_data.py:21-24).

    Hits name GLOBAL row indices into the full rows list, so callers'
    per-row caches (clean text, subtoken cost) stay unchanged; a language
    index keeps its rows in global order, so its ties break the same way.
    """

    def __init__(self, rows: list[dict]):
        self.rows = rows
        self.by_lang: dict[str, KBIndex] = {}
        groups: dict[str, list[int]] = {}
        for i, r in enumerate(rows):
            groups.setdefault(r.get("lang", "en"), []).append(i)
        for lang, idxs in groups.items():
            self.by_lang[lang] = KBIndex([rows[i] for i in idxs], idxs)

    @functools.cached_property
    def all(self) -> KBIndex:
        """The all-languages view, built on the first query that needs
        it: queries that name their language never do."""
        return KBIndex(self.rows)

    def view(self, lang: str | None) -> KBIndex | None:
        """The index a query in ``lang`` searches: None or "all" is the
        all-languages view, and a language with no index has none
        (reference: a missing ``{lan}wiki_v1`` index returns nothing)."""
        return self.all if lang in (None, "all") else self.by_lang.get(lang)

    def search_many(self, queries: list[tuple], k: int = 10,
                    title_boost: float = 2.0
                    ) -> list[list[tuple[int, float]]]:
        """Hits of each ``(sentence, lang)`` or ``(sentence, lang,
        entity)`` query: one ``KBIndex.search_many`` per language."""
        groups: dict[str | None, list[int]] = {}
        for q, query in enumerate(queries):
            groups.setdefault(query[1], []).append(q)
        out: list = [[] for _ in queries]
        for lang, qs in groups.items():
            index = self.view(lang)
            if index is None:
                continue
            hits = index.search_many(
                [(queries[q][0], queries[q][2] if len(queries[q]) > 2
                  else None) for q in qs], k, title_boost)
            for q, h in zip(qs, hits):
                out[q] = h
        return out

    def search(self, sentence: str, lang: str | None = None,
               entity: str | None = None, k: int = 10,
               title_boost: float = 2.0) -> list[tuple[int, float]]:
        index = self.view(lang)
        return ([] if index is None
                else index.search(sentence, entity, k, title_boost))
