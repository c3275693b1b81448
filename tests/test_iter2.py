"""Iterative retrieval pass 2 (kg_mentions_iter2) vs a straight-line
single-process oracle composed from the pinned kernels (data/oracle.py
entity_merged_hits + attach_contexts + span codec + link_mention)."""

import pyarrow as pa
import pytest
import ray

from kb_ner_ray.data.oracle import (
    TOP_K,
    attach_contexts,
    entity_merged_hits,
    link_mention,
)
from kb_ner_ray.stages.extract import extract_pages
from kb_ner_ray.stages.sentences import explode_sentences
from kb_ner_ray.stages.tagger import kernel_rows
from kb_ner_ray.state.bm25 import MultiLangKBIndex, analyze
from kb_ner_ray.state.gazetteer import Gazetteer

COLS = ["url", "sent_id", "start_tok", "end_tok", "surface", "label",
        "ent_id"]


def _oracle_iter2(tiny_corpus):
    """Straight-line pass1 -> entity-boosted pass2 per sentence."""
    from kb_ner_ray.functions.text import extract_text, split_sentences

    gaz = Gazetteer(tiny_corpus["gazetteer"].to_pylist())
    kb_rows = tiny_corpus["kb"].to_pylist()
    index = MultiLangKBIndex(kb_rows)
    ent_defs = {r["ent_id"]: set(analyze(r["sentence"]))
                for r in kb_rows if r["s_id"] == 0}

    def tag(text, aug):
        tokens = text.split()
        spans = gaz.mentions_via_codec(aug.split())
        return tokens, [s for s in spans if s[1] <= len(tokens)]

    rows = []
    for page in tiny_corpus["pages"].to_pylist():
        text = extract_text(page["html"])
        for sid, sent in enumerate(split_sentences(text, page["lang"])):
            lang = page["lang"]
            hits1 = index.search(sent, lang=lang, k=TOP_K)
            aug1, _ = attach_contexts(
                sent, [(kb_rows[i]["sentence"], s) for i, s in hits1])
            tokens, spans1 = tag(sent, aug1)
            entities = [" ".join(tokens[s:e]) for s, e, _l, _sc in spans1]
            if entities:
                hits2 = entity_merged_hits(sent, entities, index, lang=lang)
                aug2, _ = attach_contexts(
                    sent, [(kb_rows[i]["sentence"], s) for i, s in hits2])
                tokens, spans = tag(sent, aug2)
            else:
                spans = spans1
            for start, end, label, _score in spans:
                surf = tokens[start:end]
                ent = link_mention(tuple(surf), tokens, gaz, ent_defs)
                rows.append((page["url"], sid, start, end, " ".join(surf),
                             label, ent))
    return rows


@pytest.fixture(scope="module")
def iter2_sets(ray_session, tiny_corpus):
    want = _oracle_iter2(tiny_corpus)
    refs = {"kb_ref": ray.put(tiny_corpus["kb"].to_pylist()),
            "gaz_ref": ray.put(tiny_corpus["gazetteer"].to_pylist())}
    got_df = (
        ray.data.from_arrow(tiny_corpus["pages"])
        .map_batches(extract_pages, batch_format="pyarrow")
        .map_batches(explode_sentences, batch_format="pyarrow")
        .map_batches(kernel_rows, batch_format="pyarrow",
                     fn_kwargs=dict(refs, mode="mentions", backend="iter2"))
        .to_pandas()
    )
    got = [tuple(r) for r in got_df[COLS].itertuples(index=False)]
    return sorted(want), sorted(got)


def test_iter2_matches_oracle_exactly(iter2_sets):
    want, got = iter2_sets
    assert len(want) > 0
    assert got == want


def test_iter2_changes_some_contexts(tiny_corpus, ray_session):
    """The second pass must actually engage: at least one sentence's
    entity-boosted merged hit list differs from its pass-1 hits."""
    from kb_ner_ray.functions.text import extract_text, split_sentences

    gaz = Gazetteer(tiny_corpus["gazetteer"].to_pylist())
    kb_rows = tiny_corpus["kb"].to_pylist()
    index = MultiLangKBIndex(kb_rows)
    changed = 0
    for page in tiny_corpus["pages"].to_pylist()[:20]:
        text = extract_text(page["html"])
        for sent in split_sentences(text, page["lang"]):
            tokens = sent.split()
            spans = gaz.mentions_via_codec(tokens)
            ents = [" ".join(tokens[s:e]) for s, e, _l, _sc in spans]
            if not ents:
                continue
            h1 = [i for i, _ in index.search(sent, lang=page["lang"],
                                             k=TOP_K)]
            h2 = [i for i, _ in entity_merged_hits(sent, ents, index,
                                                   lang=page["lang"])]
            if h1 != h2:
                changed += 1
    assert changed > 0
