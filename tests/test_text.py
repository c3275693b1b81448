"""Normalizer + extractor + splitter unit tests (reference seats M1-M11)."""

from kb_ner_ray.functions.text import (
    clean_space,
    extract_text,
    gen_sentence,
    normalize_surface,
    replace_zh_space,
    split_keyword,
    split_sentences,
)


def test_clean_space_removes_space_after_cjk():
    assert clean_space("中文 测试") == "中文测试"
    # note: the reference's (?<![a-zA-Z]) lookbehind sits after ' +' and thus
    # inspects a space — it never fires, so CJK+space collapses even before
    # latin (verified against kb/generate_data.py:70-79 behavior)
    assert clean_space("中 a b") == "中a b"
    assert clean_space("no cjk here") == "no cjk here"


def test_replace_zh():
    # the reference's replace_ZH (context_process.py:24-33) is clean_space:
    # single pass — spaces AFTER CJK go; the space before 测 (after latin) stays
    assert clean_space("中 文 abc 测 试") == "中文abc 测试"


def test_replace_zh_space_digits():
    assert replace_zh_space("中1 文") == "中1文"


def test_split_keyword():
    assert split_keyword("abc中文123") == ["abc", "中", "文", "123"]


def test_gen_sentence_zh_glues_cjk_runs():
    assert gen_sentence(["中", "文", "abc", "文"], lang="zh") == "中文 abc 文"
    assert gen_sentence(["a", "b"], lang="en") == "a b"


def test_printable_only():
    # the M10 printable filter (reference context_process.py:410)
    from kb_ner_ray.data.oracle import clean_context

    assert clean_context("a‎b﻿c") == "abc"
    assert clean_context("abc") == "abc"


def test_normalize_surface():
    assert normalize_surface("  Acme,  CORP. ") == "acme corp"
    assert normalize_surface("F. Okafor") == "f okafor"


def test_extract_text_drops_boilerplate():
    html = (b"<html><head><title>T</title><style>a{}</style></head><body>"
            b"<nav><a href='/'>Home</a></nav><header><h1>H</h1></header>"
            b"<article><p>Hello world.</p><p>Second para.</p></article>"
            b"<aside>rel</aside><footer>foot</footer>"
            b"<script>var x=1;</script></body></html>")
    assert extract_text(html) == "Hello world.\nSecond para."


def test_extract_text_entities_and_comments():
    html = "<p>A &amp; B <!-- hidden --> &lt;tag&gt;</p>"
    assert extract_text(html) == "A & B <tag>"


def test_extract_text_nested_drop_blocks():
    html = "<div><nav>x<nav>y</nav>z</nav><p>keep</p></div>"
    out = extract_text(html)
    assert "keep" in out and "x" not in out and "z" not in out


def test_split_sentences_basic():
    assert split_sentences("One . Two ! Three ?") == ["One .", "Two !", "Three ?"]


def test_split_sentences_initials_not_split():
    got = split_sentences("F. Okafor visited . Next one .")
    assert got == ["F. Okafor visited .", "Next one ."]


def test_split_sentences_newline_splits():
    assert split_sentences("a\nb") == ["a", "b"]


def test_split_sentences_zh():
    assert split_sentences("你好。再见！", lang="zh") == ["你好。", "再见！"]


def test_gen_chinese_search_query():
    from kb_ner_ray.functions.text import gen_chinese_search_query

    # CoNLL lines: token + tag column; zh-zh glues, others space-join
    sents = [
        ["北 O", "京 O", "is O", "big O"],
        ["hello O", "世 O", "界 O"],
        ["a O"],
        [],
    ]
    assert gen_chinese_search_query(sents) == [
        "北京 is big", "hello 世界", "a", ""]


def test_gen_chinese_search_query_bare_tokens():
    from kb_ner_ray.functions.text import gen_chinese_search_query

    assert gen_chinese_search_query([["上", "海", "x", "上"]]) == ["上海 x 上"]


def test_subtoken_backend_swap():
    """The T1 seam: a pluggable counter overrides the stand-in and reset
    restores it (attach budgets follow the active backend)."""
    from kb_ner_ray.data.oracle import attach_contexts
    from kb_ner_ray.functions.tokenizer import (
        reset_subtoken_backend,
        set_subtoken_backend,
        subtoken_count,
    )

    base = subtoken_count("hello world foo")
    try:
        set_subtoken_backend(lambda text: len(text.split()) * 100)
        assert subtoken_count("hello world foo") == 300
        # the context-attach budget walk consults the swapped counter:
        # sentence costs 300 and each context 300 -> 601 > 510, none fit
        aug, n = attach_contexts("a b c", [("x y z", 1.0)] * 5)
        assert n == 0 and aug == "a b c"
    finally:
        reset_subtoken_backend()
    assert subtoken_count("hello world foo") == base
    import pytest as _pytest

    with _pytest.raises(ImportError):
        set_subtoken_backend("xlm-roberta-large")  # transformers absent


def test_splitter_backend_seam():
    """The M2 swap seam (round-3 verdict #6): a punkt/spaCy deployment
    plugs in via set_splitter_backend without touching the pipeline;
    reset restores the pinned regex semantics."""
    from kb_ner_ray.functions.text import (reset_splitter_backend,
                                           set_splitter_backend)

    calls = []

    def fake_punkt(text, lang):
        calls.append((text, lang))
        return ["WHOLE:" + text.replace("\n", " ")]

    set_splitter_backend(fake_punkt)
    try:
        assert split_sentences("One . Two !", lang="de") == \
            ["WHOLE:One . Two !"]
        assert calls == [("One . Two !", "de")]
    finally:
        reset_splitter_backend()
    # pinned regex goldens restored (same inputs as the basic tests,
    # plus the abbreviation/ellipsis cases a punkt deployment would
    # handle differently - these pin the CURRENT default semantics)
    assert split_sentences("One . Two !") == ["One .", "Two !"]
    assert split_sentences("Dr. Smith arrived .") == \
        ["Dr.", "Smith arrived ."]
    assert split_sentences("Wait... what ?") == ["Wait...", "what ?"]


def test_doc_langid_batch_matches_detect_lang():
    """The vectorized doc_langid voting path must reproduce the scalar
    detect_lang reference on every case class: CJK precedence, per-lang
    stopword wins, sorted-first tie rule, zero-vote 'und', empty text."""
    import pyarrow as pa

    from kb_ner_ray.stages.textstats import detect_lang, doc_langid

    texts = [
        "the cat and the hat is it",          # en
        "der hund und die katze ist von",     # de
        "le chat et la vie est des",          # fr
        "el gato y la casa es de",            # es
        "mixed 你好 the and of",               # CJK beats stopword votes
        "",                                    # empty -> und
        "zzz qqq www",                         # no votes -> und
        "de la",    # fr={la, de...}? tie classes resolve sorted-first
        "und ist",                             # de words only
    ]
    b = pa.table({"doc_id": pa.array(list(range(len(texts))), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    got = doc_langid(b).column("pred_lang").to_pylist()
    want = [detect_lang(t) for t in texts]
    assert got == want
