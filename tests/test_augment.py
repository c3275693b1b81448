"""E2 product pipeline: CoNLL in -> retrieval-augmented CoNLL out
(reference kb/generate_data.py + context_process.py format: sentence
lines keep labels, <EOS> separator + context tokens labeled B-X)."""

import pyarrow as pa
import pytest
import ray

from kb_ner_ray.sources.conll import parse_conll


@pytest.fixture(scope="module")
def conll_roundtrip(ray_session, tmp_path_factory):
    from kb_ner_ray.data.synth import corpus_dir
    from kb_ner_ray.pipelines.augment import augment_conll_file
    from kb_ner_ray.pipelines.kg import sentences_dataset

    corpus = corpus_dir(0.001)
    d = tmp_path_factory.mktemp("aug")
    in_path = str(d / "in.txt")
    out_path = str(d / "out.txt")
    sents = (sentences_dataset(corpus)
             .limit(40).to_pandas())
    lines = []
    for _i, row in sents.iterrows():
        lines.append(f"# id {row['url']}#{row['sent_id']}")
        for j, w in enumerate(row["text"].split()):
            lines.append(f"{w} {'B-PER' if j == 0 else 'O'}")
        lines.append("")
    with open(in_path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines))
    n = augment_conll_file(in_path, corpus, out_path,
                           column_format={0: "text", 1: "ner"})
    with open(out_path, encoding="utf-8") as f:
        parsed = parse_conll(f.read(), {0: "text", 1: "ner"})
    return in_path, parsed, n


def test_augment_preserves_sentences_and_labels(conll_roundtrip):
    in_path, parsed, n = conll_roundtrip
    assert n == 40 and parsed.num_rows == 40
    with open(in_path, encoding="utf-8") as f:
        orig = parse_conll(f.read(), {0: "text", 1: "ner"})
    for o, a in zip(orig.to_pylist(), parsed.to_pylist()):
        k = len(o["text"])
        # the original sentence region is byte-identical, labels intact
        assert a["text"][:k] == o["text"]
        assert a["ner"][:k] == o["ner"]
        assert a["ner"][0] == "B-PER"
        assert a["sent_key"] == o["sent_key"]


def test_augment_context_region_is_x_labeled(conll_roundtrip):
    _in, parsed, _n = conll_roundtrip
    n_with_ctx = 0
    for row in parsed.to_pylist():
        toks, ner = row["text"], row["ner"]
        if "<EOS>" in toks:
            n_with_ctx += 1
            i = toks.index("<EOS>")
            assert set(ner[i:]) == {"B-X"}  # separator + every context tok
            assert len(toks) > i + 1  # non-empty contexts
    assert n_with_ctx > 10  # retrieval engaged for most sentences


def test_augment_respects_budget(conll_roundtrip):
    from kb_ner_ray.functions.tokenizer import subtoken_count

    _in, parsed, _n = conll_roundtrip
    for row in parsed.to_pylist():
        toks = row["text"]
        if "<EOS>" in toks:
            i = toks.index("<EOS>")
            sent = " ".join(toks[:i])
            ctx = " ".join(toks[i + 1:])
            assert subtoken_count(sent) + subtoken_count(ctx) <= 510
