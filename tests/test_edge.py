"""Edge-case robustness: empty inputs, schema stability, odd text."""

import pyarrow as pa

from kb_ner_ray.data import schemas
from kb_ner_ray.functions.text import extract_text, split_sentences
from kb_ner_ray.functions.tokenizer import pack_by_length, subtoken_count
from kb_ner_ray.stages.extract import extract_pages
from kb_ner_ray.stages.sentences import explode_sentences
from kb_ner_ray.stages.tagger import SCHEMAS, SentenceKernel


def _empty_pages() -> pa.Table:
    return pa.table({
        "url": pa.array([], pa.string()),
        "warc_ts": pa.array([], pa.timestamp("us")),
        "html": pa.array([], pa.binary()),
        "lang": pa.array([], pa.string()),
    })


def test_empty_pages_through_extract_explode():
    out = explode_sentences(extract_pages(_empty_pages()))
    assert out.num_rows == 0
    assert set(out.column_names) == {"url", "sent_id", "text", "lang"}


def test_empty_batch_through_fused_tagger(tiny_corpus):
    kernel = SentenceKernel(tiny_corpus["gazetteer"].to_pylist(),
                            tiny_corpus["kb"].to_pylist())
    empty = pa.table({
        "url": pa.array([], pa.string()),
        "sent_id": pa.array([], pa.int32()),
        "text": pa.array([], pa.string()),
        "lang": pa.array([], pa.string()),
    })
    for mode in ("triples", "mentions", "contexts", "entity_contexts"):
        out = kernel.emit(empty, mode)
        assert out.num_rows == 0
        assert out.schema == pa.schema(SCHEMAS[mode])


def test_sentence_without_mentions(tiny_corpus):
    kernel = SentenceKernel(tiny_corpus["gazetteer"].to_pylist(),
                            tiny_corpus["kb"].to_pylist())
    batch = pa.table({
        "url": pa.array(["u"], pa.string()),
        "sent_id": pa.array([0], pa.int32()),
        "text": ["nothing matches the vocabulary here at all ."],
    })
    assert kernel.emit(batch, "mentions").num_rows == 0
    assert kernel.emit(batch, "triples").num_rows == 0


def test_empty_kb_tagger_runs(tiny_corpus):
    kernel = SentenceKernel(tiny_corpus["gazetteer"].to_pylist(), [])
    batch = pa.table({
        "url": pa.array(["u"], pa.string()),
        "sent_id": pa.array([0], pa.int32()),
        "text": [tiny_corpus["sentences"].column("text")[0].as_py()],
        "lang": pa.array(["en"], pa.string()),
    })
    out = kernel.emit(batch)  # no KB -> no contexts; mentions may link NIL
    assert "pred" in out.column_names


def test_aug_rank_windows_are_memoized_apart(tiny_corpus):
    """The aug emitter attaches the [min_rank:max_rank] window of the hits;
    two windows over the same sentence never share a memo entry."""
    from kb_ner_ray.data.oracle import TOP_K, attach_contexts_cached

    kernel = SentenceKernel(tiny_corpus["gazetteer"].to_pylist(),
                            tiny_corpus["kb"].to_pylist())
    text = tiny_corpus["sentences"].column("text")[0].as_py()
    batch = pa.table({"text": [text], "lang": ["en"]})
    pre = [(kernel.kb_clean[i], kernel.kb_cost[i])
           for i, _s in kernel.index.search(text, lang="en", k=TOP_K)]
    assert len(pre) >= 2
    for window in ({}, {"min_rank": 1}, {"max_rank": 1}):
        out = kernel.emit(batch, "aug", **window)
        assert out.column_names == ["text", "lang", "aug_text", "n_contexts"]
        assert (out["aug_text"][0].as_py(), out["n_contexts"][0].as_py()) \
            == attach_contexts_cached(text, pre, **window)


def test_extract_handles_entities_and_unicode():
    html = ("<html><head><title>t</title></head><body><article>"
            "<p>Café &amp; friends — zero​width.</p>"
            "</article></body></html>")
    text = extract_text(html.encode("utf-8"))
    assert "Café & friends" in text  # entity unescape + utf-8 preserved
    # zero-width chars survive extraction (byte-identical invariant) and
    # are stripped on the CONTEXT path by the printable filter
    # (reference kb/context_process.py:410,690-691)
    from kb_ner_ray.data.oracle import clean_context

    assert "​" in text
    assert "​" not in clean_context(text)


def test_split_sentences_empty_and_whitespace():
    assert split_sentences("", "en") == []
    assert split_sentences("   \n  ", "en") == []


def test_subtoken_count_empty():
    assert subtoken_count("") == 0


def test_pack_by_length_empty():
    assert pack_by_length([]) == []


def test_pages_schema_matches_input_hint():
    names = [f.name for f in schemas.PAGES]
    assert names[:5] == ["url", "warc_ts", "html", "text", "lang"]
    assert schemas.PAGES.field("html").type == pa.binary()
    assert schemas.PAGES.field("warc_ts").type == pa.timestamp("us")
