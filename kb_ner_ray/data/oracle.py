"""Single-process straight-line oracle of the full KG pipeline (SURVEY.md §5b).

This is the "reference implementation" used by the conformance tests: the Ray
pipeline (kb_ner_ray.pipelines.kg) must reproduce these outputs at
P/R >= 0.95 (BASELINE.md).  It reuses the same pure kernels
(functions/, state/) but runs them in one loop with no Ray, no batching and
no shuffles — so any disagreement isolates an orchestration bug.

Linking semantics (pinned here and in stages/linker.py):
  candidates = gazetteer surfaces -> KB ent_ids (exact token match);
  rerank by Jaccard(analyzed sentence, analyzed KB definition sentence)
  (the reference's disabled context_ranking seat, kb/context_process.py:552-576,
  re-enabled as the deterministic cross-encoder stand-in, SURVEY.md §7 step 8);
  ties -> min ent_id; no candidates -> NIL (-1).

Triple semantics: adjacent linked mention pairs per sentence;
  pred = "_".join(alpha tokens strictly between the mentions) or "related_to".
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.canon import build_canonical_map
from ..functions.text import extract_text, normalize_surface, split_sentences
from ..functions.tokenizer import subtoken_count
from ..state.bm25 import MultiLangKBIndex, analyze
from ..state.gazetteer import Gazetteer

CONTEXT_BUDGET = 510  # XLM-R subtoken budget, kb/context_process.py:974
TOP_K = 10            # kb/generate_data.py:39,120


def link_mention(surface_tokens: tuple, sent_tokens: list[str],
                 gaz: Gazetteer, ent_def_tokens: dict[int, set],
                 sent_set: set | None = None) -> int:
    """``sent_set`` may carry the precomputed analyzed-sentence token set
    (one per sentence, shared across its mentions); semantics identical."""
    cands = gaz.candidates.get(tuple(surface_tokens), [])
    if not cands:
        return -1
    if len(cands) == 1:
        return cands[0]
    if sent_set is None:
        sent_set = set(analyze(" ".join(sent_tokens)))
    best = None
    for ent in sorted(cands):
        defs = ent_def_tokens.get(ent, set())
        denom = len(sent_set | defs)
        j = (len(sent_set & defs) / denom) if denom else 0.0
        if best is None or j > best[0]:
            best = (j, ent)
    return best[1]


def clean_context(ctx: str) -> str:
    """Printable filter (reference M10, kb/context_process.py:410).
    Fast path: one C-level whole-string check — almost every context is
    fully printable, and the per-char scan only runs on the dirty ones."""
    if ctx.isprintable():
        return ctx
    return "".join(c for c in ctx if c.isprintable())


def attach_contexts_cached(sentence: str,
                           hits_pre: list[tuple[str, int]],
                           budget: int = CONTEXT_BUDGET,
                           min_rank: int = 0,
                           max_rank: int | None = None) -> tuple[str, int]:
    """Greedy budgeted context stitch (kb/context_process.py:401-479) over
    PRE-CLEANED contexts with precomputed subtoken costs — the KB side is
    fixed per worker, so ``clean_context``/``subtoken_count`` are hoisted to
    the kernel's state build (``tagger.SentenceKernel``; hits_pre =
    [(clean_ctx, cost), ...] in rank order).

    ``min_rank``/``max_rank`` slice the rank-ordered hit list BEFORE the
    budget walk (reference ``context = context[min_rank:max_rank]``,
    kb/context_process.py:365 — the O3 rank-window seat).

    Walk hits in rank order; stop early when remaining budget < 10; skip a
    context whose subtoken cost would overflow; append the rest after an
    ``<EOS>`` separator.  Returns (augmented_text, n_contexts_used).
    """
    if min_rank or max_rank is not None:
        hits_pre = hits_pre[min_rank:max_rank]
    count = subtoken_count(sentence)
    used: list[str] = []
    for ctx, cost in hits_pre:
        if budget - count < 10:
            break
        if cost + count + 1 > budget:
            continue
        count += cost
        used.append(ctx)
    if used:
        return sentence + " <EOS> " + " ".join(used), len(used)
    return sentence, 0


def attach_contexts(sentence: str, hits: list[tuple[str, float]],
                    budget: int = CONTEXT_BUDGET, min_rank: int = 0,
                    max_rank: int | None = None) -> tuple[str, int]:
    """Uncached wrapper (the oracle path): clean + count inline, then the
    same greedy loop as ``attach_contexts_cached``."""
    pre = []
    for ctx, _score in hits:
        ctx = clean_context(ctx)
        pre.append((ctx, subtoken_count(ctx)))
    return attach_contexts_cached(sentence, pre, budget,
                                  min_rank=min_rank, max_rank=max_rank)


def entity_merged_hits(text: str, entities: list[str], index,
                       lang: str | None = None, k: int = TOP_K,
                       title_boost: float = 2.0) -> list[tuple[int, float]]:
    """Iterative pass-2 retrieval merge — pinned semantics for the
    reference's --with_entity second pass (kb/generate_data.py:52-55 title
    boost 2.0; README.md:276-278 iterative loop).

    One entity-boosted query per pass-1 mention; the per-entity top-k
    lists are rank-interleaved in mention order (rank-0 hits of every
    entity first, then rank-1, ...), deduplicated by KB row, truncated to
    ``k``.  Deterministic given pass-1 mention order."""
    per_ent = [index.search(text, lang=lang, entity=e, k=k,
                            title_boost=title_boost) for e in entities]
    merged: list[tuple[int, float]] = []
    seen: set[int] = set()
    for rank in range(k):
        for hits in per_ent:
            if rank < len(hits):
                i, s = hits[rank]
                if i not in seen:
                    seen.add(i)
                    merged.append((i, s))
    return merged[:k]


def run_oracle(pages: pa.Table, kb: pa.Table, gazetteer: pa.Table,
               with_retrieval: bool = True) -> dict[str, pa.Table]:
    """Full pipeline, one process. Returns sentences/mentions/contexts/
    linked mentions/triples tables (plain python -> arrow)."""
    gaz = Gazetteer(gazetteer.to_pylist())
    kb_rows = kb.to_pylist()
    index = MultiLangKBIndex(kb_rows) if with_retrieval else None
    ent_def_tokens: dict[int, set] = {}
    for r in kb_rows:
        if r["s_id"] == 0:
            ent_def_tokens[r["ent_id"]] = set(analyze(r["sentence"]))
    ent_title = {r["ent_id"]: r["title"] for r in kb_rows}

    sent_rows, ment_rows, ctx_rows, raw_trip_rows = [], [], [], []
    for page in pages.to_pylist():
        text = extract_text(page["html"])
        for sent_id, sent in enumerate(split_sentences(text, page["lang"])):
            tokens = sent.split()
            sent_rows.append((page["url"], sent_id, sent, page["lang"]))
            if index is not None:
                hits = index.search(sent, lang=page["lang"], k=TOP_K)
                for rank, (row_i, score) in enumerate(hits):
                    ctx_rows.append((page["url"], sent_id, rank,
                                     kb_rows[row_i]["kb_id"], score,
                                     kb_rows[row_i]["sentence"],
                                     kb_rows[row_i]["title"]))
                aug, _n = attach_contexts(
                    sent, [(kb_rows[i]["sentence"], s) for i, s in hits])
            else:
                aug = sent
            # tag over the augmented token sequence; only the original-
            # sentence region yields mentions (reference: context tokens are
            # B-X/S-X and gen_item stops at <EOS>, ensemble_prediction.py:368)
            aug_tokens = aug.split()
            spans = gaz.mentions_via_codec(aug_tokens)
            spans = [s for s in spans if s[1] <= len(tokens)]
            linked = []
            for start, end, label, score in spans:
                surf = tokens[start:end]
                ent = link_mention(tuple(surf), tokens, gaz, ent_def_tokens)
                ment_rows.append((page["url"], sent_id, start, end,
                                  " ".join(surf), label, score, ent))
                linked.append((start, end, ent))
            linked.sort()
            for (s1, e1, ent1), (s2, e2, ent2) in zip(linked, linked[1:]):
                mid = [w for w in tokens[e1:s2] if w.isalpha()]
                pred = "_".join(mid) or "related_to"
                raw_trip_rows.append(
                    (" ".join(tokens[s1:e1]), ent1, pred,
                     " ".join(tokens[s2:e2]), ent2, page["url"], sent_id))

    sentences = pa.table({
        "url": [r[0] for r in sent_rows],
        "sent_id": pa.array([r[1] for r in sent_rows], pa.int32()),
        "text": [r[2] for r in sent_rows],
        "lang": [r[3] for r in sent_rows],
    })
    mentions = pa.table({
        "url": [r[0] for r in ment_rows],
        "sent_id": pa.array([r[1] for r in ment_rows], pa.int32()),
        "start_tok": pa.array([r[2] for r in ment_rows], pa.int32()),
        "end_tok": pa.array([r[3] for r in ment_rows], pa.int32()),
        "surface": [r[4] for r in ment_rows],
        "label": [r[5] for r in ment_rows],
        "score": pa.array([r[6] for r in ment_rows], pa.float32()),
        "ent_id": pa.array([r[7] for r in ment_rows], pa.int64()),
    })
    contexts = pa.table({
        "url": [r[0] for r in ctx_rows],
        "sent_id": pa.array([r[1] for r in ctx_rows], pa.int32()),
        "rank": pa.array([r[2] for r in ctx_rows], pa.int32()),
        "kb_id": pa.array([r[3] for r in ctx_rows], pa.int64()),
        "score": pa.array([r[4] for r in ctx_rows], pa.float32()),
        "kb_sentence": [r[5] for r in ctx_rows],
        "kb_title": [r[6] for r in ctx_rows],
    })
    # canonicalization pass: corpus-wide link counts -> canonical map
    # (same kernel as the distributed stage, functions/canon.py)
    link_counts: dict[tuple[str, int], int] = {}
    for r in ment_rows:
        if r[7] >= 0:
            key = (normalize_surface(r[4]), r[7])
            link_counts[key] = link_counts.get(key, 0) + 1
    canon = build_canonical_map(link_counts, ent_title)

    def canonical(surface: str, ent: int) -> str:
        norm = normalize_surface(surface)
        return canon.get(norm, norm)

    trip_rows = [
        (canonical(s1, e1), pred, canonical(s2, e2), url, sid, 1.0)
        for s1, e1, pred, s2, e2, url, sid in raw_trip_rows
    ]
    triples = pa.table({
        "subj": [r[0] for r in trip_rows],
        "pred": [r[1] for r in trip_rows],
        "obj": [r[2] for r in trip_rows],
        "url": [r[3] for r in trip_rows],
        "sent_id": pa.array([r[4] for r in trip_rows], pa.int32()),
        "score": pa.array([r[5] for r in trip_rows], pa.float32()),
    })
    return {"sentences": sentences, "mentions": mentions,
            "contexts": contexts, "triples": triples}
