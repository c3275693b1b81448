"""The sentence kernel's rows do not depend on how its input is batched:
one shuffled batch with repeated rows emits what the rows emit one by one,
at every memo cap, and each miss runs the per-sentence steps once."""

import random

import pyarrow as pa
import pytest

from kb_ner_ray.stages.extract import extract_pages
from kb_ner_ray.stages.sentences import explode_sentences
from kb_ner_ray.stages.tagger import SentenceKernel

MODES = [
    ("contexts", {}),
    ("entity_contexts", {}),
    ("aug", {}),
    ("mentions", {"backend": "trie"}),
    ("mentions", {"backend": "iter2"}),
    ("mentions", {"backend": "viterbi"}),
    ("triples", {}),
]
CAPS = [SentenceKernel.MEMO_CAP, 0, 3]


@pytest.fixture(scope="module")
def state(tiny_corpus):
    return (tiny_corpus["gazetteer"].to_pylist(),
            tiny_corpus["kb"].to_pylist())


@pytest.fixture(scope="module")
def batch(tiny_corpus):
    """80 sentences, half of them drawn twice or more, shuffled."""
    sents = explode_sentences(extract_pages(tiny_corpus["pages"]))
    rnd = random.Random(0)
    rows = rnd.sample(range(sents.num_rows), 80)
    rows += [rnd.choice(rows[:40]) for _ in range(60)]
    rnd.shuffle(rows)
    return sents.take(rows)


def _kernel(state, cap):
    kernel = SentenceKernel(*state)
    kernel.MEMO_CAP = cap
    return kernel


def _misses(batch, cap):
    """The rows the memo does not serve: a row is a hit when an earlier
    row put its key in the memo, which takes new keys while it has room."""
    memo, misses = set(), 0
    for key in zip(batch["text"].to_pylist(), batch["lang"].to_pylist()):
        if key in memo:
            continue
        misses += 1
        if len(memo) < cap:
            memo.add(key)
    return misses


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("mode,kw", MODES)
def test_batch_emits_the_rows_one_by_one(state, batch, mode, kw, cap):
    whole = _kernel(state, cap)
    single = _kernel(state, cap)
    got = whole.emit(batch, mode, **kw)
    want = pa.concat_tables([single.emit(batch.slice(i, 1), mode, **kw)
                             for i in range(batch.num_rows)])
    assert got.num_rows > 0
    assert got.equals(want)
    assert whole._memo == single._memo


@pytest.mark.parametrize("cap", CAPS)
def test_each_miss_runs_once_and_the_batch_retrieves_once(
        state, batch, cap, monkeypatch):
    kernel = _kernel(state, cap)
    calls = {"triples": 0, "search_many": 0}
    triples = SentenceKernel._sentence_triples
    search_many = type(kernel.index).search_many

    def counted_triples(self, *args, **kwargs):
        calls["triples"] += 1
        return triples(self, *args, **kwargs)

    def counted_search_many(self, *args, **kwargs):
        calls["search_many"] += 1
        return search_many(self, *args, **kwargs)

    monkeypatch.setattr(SentenceKernel, "_sentence_triples", counted_triples)
    monkeypatch.setattr(type(kernel.index), "search_many",
                        counted_search_many)
    kernel.emit(batch, "triples")
    assert calls == {"triples": _misses(batch, cap), "search_many": 1}
    # a second pass: every memoized key is a hit, the rest miss again
    memoized = sum(1 for key in zip(batch["text"].to_pylist(),
                                    batch["lang"].to_pylist())
                   if key in kernel._memo)
    calls["triples"] = 0
    kernel.emit(batch, "triples")
    assert calls["triples"] == batch.num_rows - memoized


def test_entity_contexts_batch_retrieves_once(state, batch, monkeypatch):
    """Every mention of every missed sentence goes to one title-boosted
    ``search_many`` call per batch; no per-mention ``search``."""
    kernel = _kernel(state, SentenceKernel.MEMO_CAP)
    index = type(kernel.index)
    calls = {"search_many": 0, "search": 0}

    def counted(name):
        real = getattr(index, name)

        def call(self, *args, **kwargs):
            calls[name] += 1
            return real(self, *args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(index, name, counted(name))
    assert kernel.emit(batch, "entity_contexts").num_rows > 0
    assert calls == {"search_many": 1, "search": 0}
    kernel.emit(batch, "entity_contexts")  # every row a memo hit
    assert calls == {"search_many": 2, "search": 0}
