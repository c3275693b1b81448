"""The per-worker sentence kernel: retrieve -> attach -> mentions -> link,
with one emitter per output schema.

Fills the reference seats T4/J2 (BM25 top-k against the broadcast KB,
one batched call per input batch like the reference's ``_msearch``,
kb/generate_data.py:33-68), M12/J1 (budgeted context attach,
kb/context_process.py:213-502), T2+T3 (the fused embedder+CRF tagger,
flair/models/sequence_tagger_model.py — here the deterministic gazetteer
stand-in behind the same interface, SURVEY.md §7 step 5), M15/M16 (span
decode via the pinned codec), J5 (map-side lookup against a broadcast entity
dict), the triple-emit seat (S11), context reranking (T7,
tools/bert_scoring.py) and distant supervision (M18,
kb/context_process.py:578-657).

The kernel is the only per-worker state on the KB side: the BM25 index,
gazetteer trie, candidate map, KB definition tokens and each KB context's
cleaned text, subtoken cost and token split are built once per worker
process from the ``ray.put`` broadcasts and reached through
``worker_state``; the stages run as plain tasks, so parallelism follows
the cluster with no actor-pool spin-up.  Web corpora are heavily
sentence-duplicated, and every output row set is a pure function of
(text, lang, mode, kwargs), so one memo per worker serves repeats.

THE CROSS-ENCODER SEAM is the ``scorer`` kwarg of the ``reranked``
emitter, ``scorer(query, [candidates]) -> [scores]``
(stages/reranker.py): a GPU deployment passes its cross-encoder's batched
forward there; the dataflow and the output schema stay the same.

The attach is one budget walk (``_budget``) that names the KB rows it
attaches.  Only the ``aug`` emitter stitches them into ``aug_text``; the
tagger builds its token sequence from the sentence's split and the
contexts' cached splits, and only as far as the trie can read.
``data/oracle.py`` keeps its own stitch-and-split attach as the
reference.
"""

from __future__ import annotations

import os
from itertools import chain, islice

import numpy as np
import pyarrow as pa

from ..data.oracle import (
    CONTEXT_BUDGET,
    TOP_K,
    clean_context,
    entity_merged_hits,
    link_mention,
)
from ..functions.spans import decode_bioes
from ..functions.tokenizer import subtoken_count
from ..functions.viterbi import viterbi_decode
from ..functions.windows import WINDOW, tag_tokens_windowed
from ..state.bm25 import MultiLangKBIndex, analyze
from ..state.gazetteer import Gazetteer
from .partitioning import resolve, worker_state
from .reranker import token_f1_pairs

_URL, _SID = ("url", pa.string()), ("sent_id", pa.int32())

# the reference's --with_entity title boost (kb/generate_data.py:52-55)
ENTITY_TITLE_BOOST = 2.0

# emitter -> output columns.  "url"/"sent_id" repeat the input row; the
# other columns are the per-sentence rows in order.  "aug" keeps every
# input column and appends its two.
SCHEMAS = {
    # the reference's retrieval-TSV output (S7), top-10 per query
    "contexts": [_URL, _SID, ("rank", pa.int32()), ("kb_id", pa.int64()),
                 ("score", pa.float32()), ("kb_sentence", pa.string()),
                 ("kb_title", pa.string())],
    # --with_entity retrieval: one title-boosted query per detected mention
    "entity_contexts": [_URL, _SID, ("entity", pa.string()),
                        ("rank", pa.int32()), ("kb_id", pa.int64()),
                        ("score", pa.float32())],
    # retrieve-then-rerank (T7): fetch_k BM25 candidates rescored by the
    # pair scorer, the top k by (rerank score desc, BM25 rank asc)
    "reranked": [_URL, _SID, ("rank", pa.int32()), ("kb_id", pa.int64()),
                 ("bm25_score", pa.float32()),
                 ("rerank_score", pa.float32()),
                 ("kb_sentence", pa.string()), ("kb_title", pa.string())],
    # weak labels (M18): each exact token span of a detected surface in
    # the sentence's retrieved KB sentences
    "distant": [_URL, _SID, ("kb_id", pa.int64()), ("surface", pa.string()),
                ("label", pa.string()), ("ctx_start", pa.int32()),
                ("ctx_end", pa.int32())],
    "aug": [("aug_text", pa.string()), ("n_contexts", pa.int32())],
    "mentions": [_URL, _SID, ("start_tok", pa.int32()),
                 ("end_tok", pa.int32()), ("surface", pa.string()),
                 ("label", pa.string()), ("score", pa.float32()),
                 ("ent_id", pa.int64())],
    # RAW triples: subj/obj are (surface, ent_id) pairs; stages/
    # canonicalize.py maps them to canonical names
    "triples": [("subj_surface", pa.string()), ("subj_ent", pa.int64()),
                ("pred", pa.string()), ("obj_surface", pa.string()),
                ("obj_ent", pa.int64()), _URL, _SID],
}


class ViterbiCodec:
    """Tag space + constrained CRF transition matrix + decode for a label
    set — the T3 seat's decode path (reference
    flair/models/sequence_tagger_model.py:1248-1327).

    ``decode_tags`` maps any per-token emission matrix to the best
    grammatical BIOES tag sequence + per-token confidences.  With
    gazetteer-shaped emissions (one high-margin score per token at the
    gazetteer's tag, which is always a grammatical sequence) the decode
    reproduces the gazetteer tags exactly — pinned by tests — so the
    Viterbi path is a drop-in for the trie path; a real deployment feeds
    model logits into the same ``decode_tags``.
    """

    EMIT = 10.0  # margin of the one-hot emission over the 0.0 background

    def __init__(self, labels: list[str]):
        from ..functions.viterbi import (
            START_TAG,
            STOP_TAG,
            bioes_tag_dictionary,
            bioes_transitions,
        )

        self.tags = bioes_tag_dictionary(sorted(labels))
        self.idx = {t: i for i, t in enumerate(self.tags)}
        self.trans = bioes_transitions(self.tags)
        self.start = self.idx[START_TAG]
        self.stop = self.idx[STOP_TAG]

    def emissions(self, tag_seq: list[str]):
        em = np.zeros((len(tag_seq), len(self.tags)), dtype=np.float64)
        em[np.arange(len(tag_seq)),
           [self.idx[t] for t in tag_seq]] = self.EMIT
        return em

    def decode(self, emissions) -> tuple[list[str], list[float]]:
        conf, path, _ = viterbi_decode(emissions, self.trans,
                                       self.start, self.stop)
        return [self.tags[i] for i in path], conf

    def decode_tags(self, tag_seq: list[str]) -> tuple[list[str], list[float]]:
        if not tag_seq:
            return [], []
        return self.decode(self.emissions(tag_seq))


class SentenceKernel:
    """Per-worker state and the one per-sentence pass of the flagship."""

    # Distinct (sentence, mode) results kept per worker.  GRAFT_MEMO_CAP
    # overrides — bench.py --scaling pins a small cap so the measured regime
    # matches 100 TB reality, where the memo covers <1% of any worker's
    # stream and hit rates are width-independent (at sandbox sf the full cap
    # spans the whole per-worker stream, making 4-CPU runs artificially
    # cache-hot vs 16-CPU runs and understating true node scaling).
    MEMO_CAP = 400_000

    def __init__(self, gaz_ref, kb_ref):
        self.kb_rows = resolve(kb_ref)
        self.index = MultiLangKBIndex(self.kb_rows)  # per-language + all
        # the KB side is fixed for the kernel's lifetime: each context's
        # printable text, subtoken cost and split leave the per-sentence loop
        self.kb_clean = [clean_context(r["sentence"]) for r in self.kb_rows]
        self.kb_cost = [subtoken_count(c) for c in self.kb_clean]
        cap = os.environ.get("GRAFT_MEMO_CAP")
        if cap:
            self.MEMO_CAP = int(cap)
        self.gaz = Gazetteer(resolve(gaz_ref))
        self.ent_def_tokens = {r["ent_id"]: set(analyze(r["sentence"]))
                               for r in self.kb_rows if r["s_id"] == 0}
        self.kb_toks = [c.split() for c in self.kb_clean]
        self._codec: ViterbiCodec | None = None
        self._memo: dict = {}

    # ---- the steps ------------------------------------------------------

    def _budget(self, text: str, hits: list, min_rank: int = 0,
                max_rank: int | None = None) -> list[int]:
        """The KB rows of the contexts attached to ``text``, in rank order:
        the reference's greedy walk over the rank window
        ``hits[min_rank:max_rank]`` (kb/context_process.py:365,401-479)
        under the 510-subtoken budget.  It stops once fewer than 10
        subtokens remain and skips a context that would overflow."""
        hits = hits[min_rank:max_rank]
        if not hits:
            return []
        count = subtoken_count(text)
        used = []
        for i, _score in hits:
            if CONTEXT_BUDGET - count < 10:
                break
            cost = self.kb_cost[i]
            if cost + count + 1 > CONTEXT_BUDGET:
                continue
            count += cost
            used.append(i)
        return used

    def _attach(self, text: str, hits: list, min_rank: int = 0,
                max_rank: int | None = None) -> tuple[str, int]:
        """``aug_text`` = sentence [+ " <EOS> " + contexts] and the number
        of contexts, over the contexts ``_budget`` picks."""
        used = self._budget(text, hits, min_rank, max_rank)
        if not used:
            return text, 0
        return (text + " <EOS> " + " ".join(self.kb_clean[i] for i in used),
                len(used))

    def _aug_tokens(self, tokens: list[str], used: list[int],
                    stop: int | None = None) -> list[str]:
        """The first ``stop`` tokens (all by default) of the augmented
        sequence: ``_attach``'s text split, built from the split sentence
        and the contexts' cached splits.  ``str.split`` of the stitched
        text is the concatenation of its parts' splits."""
        if not used:
            return tokens[:stop]
        return list(islice(chain(tokens, ["<EOS>"],
                                 *[self.kb_toks[i] for i in used]), stop))

    def _spans(self, text: str, used: list[int], backend: str):
        """Tag the sentence augmented with the KB contexts ``used``, keep
        spans inside the original sentence region (context tokens are the
        reference's B-X/S-X masked region; gen_item stops at <EOS>,
        ensemble_prediction.py:368).

        ``viterbi`` decodes gazetteer-shaped emissions through the CRF
        (full-sequence decode, the reference's ``remove_x=False`` branch);
        otherwise the trie codec, with sequences longer than the 510-token
        model window going through the sliding-window path
        (functions/windows.py, flair embeddings.py:2960-2969 semantics).
        Those two get the full augmented token list; its length is known
        from the cached context splits.

        The trie path builds and scans only the first n + max_len - 1
        augmented tokens (n = sentence tokens), and that is exact: a
        greedy match starting at i < n reads at most ``max_len`` tokens,
        i.e. nothing past index n + max_len - 2, so the scan visits the
        same positions below n and picks the same entries as the full
        scan; every span starting at or past n ends past n and is dropped
        by the sentence-region filter either way.  No assumption about
        ``<EOS>`` is needed.  ``data/oracle.py`` keeps the stitched text
        and the full scan as the reference."""
        tokens = text.split()
        n = len(tokens)
        n_aug = n + (1 + sum(len(self.kb_toks[i]) for i in used)
                     if used else 0)
        if backend == "viterbi":
            if self._codec is None:
                self._codec = ViterbiCodec(sorted(
                    {label for lst in self.gaz.by_first.values()
                     for _toks, label, _e in lst}))
            spans = decode_bioes(*self._codec.decode_tags(
                self.gaz.tag_tokens(self._aug_tokens(tokens, used))))
        elif n_aug > WINDOW:
            spans = decode_bioes(tag_tokens_windowed(
                self._aug_tokens(tokens, used), self.gaz.tag_tokens))
        else:
            spans = self.gaz.mentions_via_codec(
                self._aug_tokens(tokens, used, n + self.gaz.max_len - 1))
        return tokens, [s for s in spans if s[1] <= n]

    def _linked(self, text: str, lang: str | None, hits: list,
                backend: str = "trie") -> tuple[list, list]:
        """attach -> mentions -> link for one sentence and its retrieved
        ``hits``: its tokens and [(start, end, surface, label, score,
        ent_id)].

        ``iter2`` closes the reference's iterative retrieval loop
        (README.md:276-278; kb/generate_data.py:52-55): pass-1 mention
        surfaces become entity-boosted queries, and the merged pass-2
        contexts are re-attached and the sentence re-tagged.  A sentence
        with no pass-1 mentions keeps its pass-1 result."""
        tokens, spans = self._spans(text, self._budget(text, hits), backend)
        if backend == "iter2" and spans:
            hits = entity_merged_hits(
                text, [" ".join(tokens[s:e]) for s, e, _l, _sc in spans],
                self.index, lang=lang, k=TOP_K)
            tokens, spans = self._spans(text, self._budget(text, hits),
                                        backend)
        out = []
        sent_set = None  # analyzed sentence, shared by its mentions
        for start, end, label, score in spans:
            surf = tuple(tokens[start:end])
            if sent_set is None and len(self.gaz.candidates.get(surf, ())) > 1:
                sent_set = set(analyze(" ".join(tokens)))
            ent = link_mention(surf, tokens, self.gaz, self.ent_def_tokens,
                               sent_set=sent_set)
            out.append((start, end, " ".join(surf), label, score, ent))
        return tokens, out

    # ---- per-sentence rows of each emitter ------------------------------

    def _contexts(self, text: str, lang: str | None, hits: list) -> list:
        out = []
        for rank, (i, score) in enumerate(hits):
            r = self.kb_rows[i]
            out.append((rank, r["kb_id"], score, r["sentence"], r["title"]))
        return out

    def _entity_contexts_hits(self, queries: list) -> dict:
        """(text, lang) -> [(entity, hits)], one title-boosted query per
        mention the gazetteer detects in the sentence; every mention of
        every query goes to ONE ``search_many`` call."""
        ents = {}
        for text, lang in queries:
            tokens = text.split()
            ents[text, lang] = [" ".join(tokens[s:e]) for s, e, _l, _sc
                                in self.gaz.mentions_via_codec(tokens)]
        found = iter(self.index.search_many(
            [(text, lang, ent) for (text, lang), es in ents.items()
             for ent in es], k=TOP_K, title_boost=ENTITY_TITLE_BOOST))
        return {q: [(ent, next(found)) for ent in es]
                for q, es in ents.items()}

    def _entity_contexts(self, text: str, lang: str | None,
                         hits: list) -> list:
        return [(ent, rank, self.kb_rows[i]["kb_id"], score)
                for ent, found in hits
                for rank, (i, score) in enumerate(found)]

    def _reranked_hits(self, queries: list, fetch_k: int = 30,
                       **_kw) -> dict:
        """(text, lang) -> the sentence's top ``fetch_k`` candidates."""
        return dict(zip(queries, self.index.search_many(queries,
                                                        k=fetch_k)))

    def _reranked(self, text: str, lang: str | None, hits: list,
                  k: int = TOP_K, fetch_k: int | None = None,
                  scorer=token_f1_pairs) -> list:
        """The candidates (``_reranked_hits`` fetched ``fetch_k``) rescored
        by ``scorer`` against their cleaned KB text, the top ``k`` by
        (score desc, BM25 rank asc) with new ranks."""
        if not hits:
            return []
        scores = scorer(text, [self.kb_clean[i] for i, _s in hits])
        order = np.lexsort((np.arange(len(hits)), -np.asarray(scores)))
        out = []
        for rank, oi in enumerate(order[:k]):
            i, bm25 = hits[oi]
            r = self.kb_rows[i]
            out.append((rank, r["kb_id"], bm25, scores[oi], r["sentence"],
                        r["title"]))
        return out

    def _distant_hits(self, queries: list) -> dict:
        """(text, lang) -> (surfaces, hits) of each sentence the gazetteer
        tags: its detected (surface tokens, label) pairs and its top-k in
        the all-languages view, all in ONE ``search_many`` call.  An
        untagged sentence has none."""
        tagged = {}
        for text, lang in queries:
            tokens = text.split()
            spans = self.gaz.mentions_via_codec(tokens)
            if spans:
                tagged[text, lang] = [(tuple(tokens[s:e]), label)
                                      for s, e, label, _sc in spans]
        found = self.index.search_many([(text, None) for text, _l in tagged],
                                       k=TOP_K)
        return {q: (surfs, h) for (q, surfs), h in zip(tagged.items(), found)}

    def _distant(self, text: str, lang: str | None, hits) -> list:
        """Every exact token span of each surface in each retrieved KB
        sentence (the reference's exhaustive span-index match,
        kb/context_process.py:594-649)."""
        if hits is None:
            return []
        surfaces, found = hits
        out = []
        for i, _score in found:
            ctx = self.kb_rows[i]["sentence"].split()
            kb_id = self.kb_rows[i]["kb_id"]
            for surf, label in surfaces:
                n = len(surf)
                out.extend((kb_id, " ".join(surf), label, start, start + n)
                           for start in range(len(ctx) - n + 1)
                           if tuple(ctx[start:start + n]) == surf)
        return out

    def _aug(self, text: str, lang: str | None, hits: list,
             min_rank: int = 0, max_rank: int | None = None) -> list:
        return [self._attach(text, hits, min_rank, max_rank)]

    def _mentions(self, text: str, lang: str | None, hits: list,
                  backend: str = "trie") -> list:
        return self._linked(text, lang, hits, backend)[1]

    def _sentence_triples(self, text: str, lang: str | None,
                          hits: list) -> list:
        """(subj_surface, subj_ent, pred, obj_surface, obj_ent) tuples.
        Triple rule (pinned in data/oracle.py): adjacent mention pairs,
        pred = "_".join(alpha tokens strictly between) or "related_to"."""
        tokens, linked = self._linked(text, lang, hits)
        linked.sort()
        return [(surf1, ent1,
                 "_".join(w for w in tokens[e1:s2] if w.isalpha())
                 or "related_to", surf2, ent2)
                for (_s1, e1, surf1, _l1, _c1, ent1),
                    (s2, _e2, surf2, _l2, _c2, ent2)
                in zip(linked, linked[1:])]

    # ---- the emitter ----------------------------------------------------

    def emit(self, batch: pa.Table, mode: str = "triples", **kw) -> pa.Table:
        """(url, sent_id, text[, lang][, part]) rows -> the ``mode`` output
        rows of every input row (see SCHEMAS), plus the input's ``part``
        column (the resumable run's partition label) when it has one.

        Triples results are memoized under (text, lang), every other mode
        under (text, lang, mode, *sorted kw).  The memo freezes when full:
        serving existing hits beats a clear-all thrash, which made run
        times order-dependent.  Rows are served in batch order: a row is a
        hit when its key is in the memo or an earlier row of the batch
        put it there, and a miss otherwise.  The misses' distinct
        sentences are retrieved with one ``search_many`` call (the
        reference's ``_msearch``): their top-k in their language, or what
        the mode's ``_<mode>_hits`` method fetches.  Then each miss runs
        its steps once."""
        fields = SCHEMAS[mode]
        compute = getattr(self, "_sentence_triples" if mode == "triples"
                          else "_" + mode)
        n = batch.num_rows
        texts = batch.column("text").to_pylist()
        langs = (batch.column("lang").to_pylist()
                 if "lang" in batch.column_names else [None] * n)
        tag = () if mode == "triples" else (mode, *sorted(kw.items()))
        memo = self._memo
        room = self.MEMO_CAP - len(memo)
        results: list = [None] * n
        misses = []   # (row, key) of each row that runs the steps
        waiting = {}  # key a miss puts in the memo -> the rows it serves
        for i, query in enumerate(zip(texts, langs)):
            key = query + tag
            res = memo.get(key)
            if res is not None:
                results[i] = res
            elif key in waiting:
                waiting[key].append(i)
            else:
                misses.append((i, key))
                if room > 0:
                    waiting[key] = []
                    room -= 1
        queries = list(dict.fromkeys(key[:2] for _i, key in misses))
        retrieve = getattr(self, f"_{mode}_hits", None)
        hits = (retrieve(queries, **kw) if retrieve else
                dict(zip(queries, self.index.search_many(queries, k=TOP_K))))
        for i, key in misses:
            res = results[i] = compute(key[0], key[1], hits.get(key[:2]),
                                       **kw)
            if key in waiting:
                memo[key] = res
                for j in waiting.pop(key):
                    results[j] = res
        rows, counts = [], []
        for res in results:
            rows.extend(res)
            counts.append(len(res))
        new = [f for f in fields if f[0] not in ("url", "sent_id")]
        cols = {name: pa.array(values, typ) for (name, typ), values in zip(
            new, list(zip(*rows)) or [()] * len(new))}
        if mode == "aug":  # one row per input row, every input column kept
            for name, col in cols.items():
                batch = batch.append_column(name, col)
            return batch
        idx = pa.array(np.repeat(np.arange(n), counts), pa.int64())
        cols["url"] = batch["url"].take(idx).cast(pa.string())
        cols["sent_id"] = batch["sent_id"].take(idx).cast(pa.int32())
        out = pa.table({name: cols[name] for name, _t in fields})
        if "part" in batch.column_names:
            out = out.append_column("part", batch["part"].take(idx))
        return out


# The traced benchmark (perfbench/layers.py) patches the kernel under this
# name: its state build and its per-miss ``_sentence_triples``.
RetrieveTagTriples = SentenceKernel

_TASK_STATE: dict = {}  # the kernel's slot: (kb_ref, gaz_ref) -> kernel


def kernel_rows(batch: pa.Table, kb_ref=None, gaz_ref=None,
                mode: str = "triples", **kw) -> pa.Table:
    """Plain-task emitter of the worker's kernel for (kb_ref, gaz_ref)."""
    kernel = worker_state(_TASK_STATE, (kb_ref, gaz_ref),
                          lambda: SentenceKernel(gaz_ref, kb_ref))
    return kernel.emit(batch, mode, **kw)


def retrieve_tag_triples_shared(batch: pa.Table, kb_ref=None, gaz_ref=None,
                                shards: list | None = None) -> pa.Table:
    """The flagship's heavy stage: sentences -> raw triples.  ``shards``
    (the retired cluster-wide memo) must be None."""
    if shards is not None:
        raise ValueError("the sharded sentence memo was removed")
    return kernel_rows(batch, kb_ref=kb_ref, gaz_ref=gaz_ref)
