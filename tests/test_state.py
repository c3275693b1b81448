"""BM25 / gazetteer / union-find / canonicalization kernel tests."""

import math
import random
import re

import numpy as np
import pytest

from kb_ner_ray.functions.canon import build_canonical_map
from kb_ner_ray.functions.tokenizer import subtoken_count
from kb_ner_ray.state import bm25
from kb_ner_ray.state.bm25 import KBIndex, MultiLangKBIndex, analyze
from kb_ner_ray.state.gazetteer import Gazetteer
from kb_ner_ray.state.unionfind import UnionFind


def _kb(sentences, titles=None):
    titles = titles or [f"T{i}" for i in range(len(sentences))]
    return [{"kb_id": i, "ent_id": i, "title": t, "sentence": s, "s_id": 0}
            for i, (s, t) in enumerate(zip(sentences, titles))]


def test_analyze_lowercases():
    assert analyze("Hello, World 42") == ["hello", "world", "42"]


def test_bm25_relevance_ordering():
    idx = KBIndex(_kb([
        "apple banana cherry",
        "apple banana",
        "apple",
        "durian elderberry",
    ]))
    hits = idx.search("apple banana cherry", k=4)
    assert [h[0] for h in hits][:3] == [0, 1, 2]  # more matched terms first
    assert all(s > 0 for _, s in hits)
    # no hit for out-of-vocab query
    assert idx.search("zzz") == []


def test_bm25_idf_rare_term_wins():
    idx = KBIndex(_kb([
        "common common rare",
        "common common common",
        "common stuff here",
    ]))
    hits = idx.search("rare", k=3)
    assert hits[0][0] == 0 and len(hits) == 1


def test_bm25_title_boost():
    rows = _kb(["alpha beta", "gamma delta"], titles=["Gamma", "Alpha"])
    idx = KBIndex(rows)
    # sentence match alone prefers doc0; entity title boost flips to doc1
    assert idx.search("alpha")[0][0] == 0
    assert idx.search("alpha", entity="alpha")[0][0] == 1


def test_bm25_topk_and_ties_deterministic():
    idx = KBIndex(_kb(["x y"] * 5))
    hits = idx.search("x", k=3)
    assert [h[0] for h in hits] == [0, 1, 2]  # ties broken by row index


def _words(text):
    """The analyzer, restated: lowercase ASCII word runs and single CJK
    ideographs."""
    return re.findall(r"[0-9a-z_]+|[\u4e00-\u9fff]", text.lower())


def _brute_search(rows, sentence, entity=None, k=10, title_boost=2.0):
    """Straight-line BM25 (k1=1.2, b=0.75) over ``rows`` as (row id, row)
    pairs, computed per cell in float32: the field's own tf, df, idf and
    avgdl, each query term's contribution added in query order, the
    title field summed apart and added boosted.  Hits: score > 0, score
    desc, then row id asc."""
    f32 = np.float32

    def field_scores(docs, query):
        toks = [_words(d) for d in docs]
        n = len(toks)
        avgdl = f32(sum(map(len, toks)) / n) if n else f32(0)
        out = [f32(0)] * n
        for term in _words(query):
            df = sum(term in ts for ts in toks)
            if not df:
                continue
            idf = f32(math.log(1.0 + (n - df + 0.5) / (df + 0.5)))
            for d, ts in enumerate(toks):
                tf = f32(ts.count(term))
                if tf:
                    norm = f32(1.2) * (f32(0.25) + f32(0.75) * f32(len(ts))
                                       / avgdl)
                    out[d] = out[d] + idf * (tf * f32(2.2)) / (tf + norm)
        return out

    ids = [i for i, _r in rows]
    scores = field_scores([r["sentence"] for _i, r in rows], sentence)
    if entity:
        title = field_scores([r["title"] for _i, r in rows], entity)
        scores = [s + f32(title_boost) * t for s, t in zip(scores, title)]
    ranked = sorted((-s, i) for i, s in zip(ids, scores) if s > 0)
    return [(i, float(-neg)) for neg, i in ranked[:k]]


def test_bm25_hits_are_plain_and_match_per_element_formula():
    """Hits are Python int/float pairs in the exact (score desc, row asc)
    order of a brute-force BM25, on a KB whose tied scores straddle the
    top-k cut (60 tied documents)."""
    rows = _kb(["x y"] * 60 + ["x x y z", "z w", "y"])
    idx = KBIndex(rows)
    for query, k in [("x", 10), ("x z", 10), ("y", 3), ("w", 10),
                     ("y", 100)]:
        hits = idx.search(query, k=k)
        assert all(type(i) is int and type(s) is float for i, s in hits)
        assert hits == _brute_search(list(enumerate(rows)), query, k=k)
    # the tie at the cut goes to the lowest rows
    tied = [i for i, _s in idx.search("x", k=10) if i < 60]
    assert tied == list(range(len(tied))) and len(tied) >= 9


_VOCAB = ["alpha", "beta", "gamma", "delta", "x", "y", "z", "中", "国"]


def _random_kb(rnd, n):
    pool = [" ".join(rnd.choice(_VOCAB) for _ in range(rnd.randint(0, 5)))
            for _ in range(max(1, n // 3))]  # few distinct texts: many ties
    return [{"kb_id": 100 + i, "ent_id": i, "s_id": 0,
             "sentence": rnd.choice(pool),
             "title": rnd.choice(["Alpha", "Beta Gamma", "X", "中国"]),
             "lang": rnd.choice(["en", "en", "de"])} for i in range(n)]


def _random_query(rnd):
    words = [rnd.choice(_VOCAB + ["oov", "qq"])
             for _ in range(rnd.randint(0, 6))]
    if words and rnd.random() < 0.4:
        words.append(words[0])  # a repeated term counts twice
    return ", ".join(words).upper() if rnd.random() < 0.2 else " ".join(words)


@pytest.mark.parametrize("seed", range(12))
def test_bm25_matches_brute_force_on_random_tied_kbs(seed):
    """Every view (per language, "all"/None, a language with no index) and
    every query shape (sentence, entity, repeated and out-of-vocabulary
    terms, k above the row count) against the brute force, one query at a
    time and batched."""
    rnd = random.Random(seed)
    rows = _random_kb(rnd, rnd.choice([0, 1, 7, 25, 60]))
    index = MultiLangKBIndex(rows)
    queries = []
    for _ in range(40):
        lang = rnd.choice(["en", "de", "all", None, "fr"])
        entity = (rnd.choice(["alpha", "gamma x", "中", "oov", None])
                  if rnd.random() < 0.4 else None)
        queries.append((_random_query(rnd), lang, entity))
    for k in (1, 3, 10, 100):
        singles = []
        for sentence, lang, entity in queries:
            view = [(i, r) for i, r in enumerate(rows)
                    if lang in (None, "all") or r["lang"] == lang]
            got = index.search(sentence, lang=lang, entity=entity, k=k)
            assert got == _brute_search(view, sentence, entity, k=k), (
                sentence, lang, entity, k)
            assert all(type(i) is int and type(s) is float for i, s in got)
            singles.append(got)
        assert index.search_many(queries, k=k) == singles
        assert index.search_many([q[:2] for q in queries], k=k) == [
            index.search(s, lang=lang, k=k) for s, lang, _e in queries]


def test_bm25_batches_are_chunked_under_the_cell_budget(monkeypatch):
    """A batch split into one-row chunks gives the same hits."""
    rnd = random.Random(5)
    rows = _random_kb(rnd, 40)
    idx = KBIndex(rows)
    queries = [(_random_query(rnd), rnd.choice(["x", None]))
               for _ in range(30)]
    want = idx.search_many(queries)
    monkeypatch.setattr(bm25, "CELL_BUDGET", 1)
    assert idx.search_many(queries) == want


def test_bm25_empty_kb():
    index = MultiLangKBIndex([])
    assert index.search("alpha") == []
    assert index.search("alpha", lang="en", entity="alpha") == []
    assert index.search_many([("alpha", None), ("beta", "en")]) == [[], []]
    assert index.search_many([]) == []


def test_all_view_is_built_on_first_use():
    """Queries that name a language never build the all-languages index;
    the first None/"all" query builds it once, with the hits an eagerly
    built index over every row gives."""
    rnd = random.Random(3)
    rows = _random_kb(rnd, 25)
    index = MultiLangKBIndex(rows)
    queries = [(_random_query(rnd), None) for _ in range(20)]
    assert index.view("en") is index.by_lang["en"]
    index.search_many([(s, "en") for s, _l in queries])
    assert "all" not in vars(index)
    assert index.search_many(queries) == KBIndex(rows).search_many(queries)
    assert index.view(None) is index.view("all") is vars(index)["all"]


def test_gazetteer_longest_match():
    gaz = Gazetteer([
        {"surface": "Acme", "label": "CORP", "ent_id": 1},
        {"surface": "Acme Corp", "label": "CORP", "ent_id": 2},
    ])
    assert gaz.find_mentions("Acme Corp shares fell".split()) == [(0, 2, "CORP")]
    assert gaz.find_mentions("Acme shares fell".split()) == [(0, 1, "CORP")]


def test_gazetteer_label_tie_by_min_ent():
    gaz = Gazetteer([
        {"surface": "Gale", "label": "PROD", "ent_id": 9},
        {"surface": "Gale", "label": "PER", "ent_id": 3},
    ])
    assert gaz.find_mentions(["Gale"]) == [(0, 1, "PER")]
    assert sorted(gaz.candidates[("Gale",)]) == [3, 9]


def test_gazetteer_tags_and_codec_agree():
    gaz = Gazetteer([{"surface": "New Haven", "label": "LOC", "ent_id": 0}])
    toks = "I saw New Haven today".split()
    assert gaz.tag_tokens(toks) == ["O", "O", "B-LOC", "E-LOC", "O"]
    assert [s[:3] for s in gaz.mentions_via_codec(toks)] == [(2, 4, "LOC")]


def test_union_find():
    uf = UnionFind()
    uf.union(1, 2)
    uf.union(2, 3)
    uf.union(4, 5)
    assert uf.find(1) == uf.find(3) != uf.find(4)
    clusters = sorted(map(tuple, uf.clusters().values()))
    assert clusters == [(1, 2, 3), (4, 5)]


def test_canonical_map_majority_and_alias_union():
    titles = {5: "Acme Corp", 9: "Acme Labs", 7: "Farid Okafor"}
    counts = {
        ("acme", 5): 10, ("acme", 9): 3,       # ambiguous alias: majority 5
        ("acme corp", 5): 4,
        ("acme labs", 9): 4,
        ("farid okafor", 7): 2, ("f okafor", 7): 1,
    }
    m = build_canonical_map(counts, titles)
    assert m["acme"] == "Acme Corp"
    assert m["acme corp"] == "Acme Corp"
    # no chaining through the minority link: Acme Labs stays itself
    assert m["acme labs"] == "Acme Labs"
    assert m["farid okafor"] == m["f okafor"] == "Farid Okafor"


def test_subtoken_count_properties():
    assert subtoken_count("") == 0
    assert subtoken_count("ab") == 1
    assert subtoken_count("abcdefgh") == 2          # ceil(8/4)
    assert subtoken_count("中文") == 2               # CJK chars count 1 each
    assert subtoken_count("a b") == subtoken_count("a") + subtoken_count("b")
    assert subtoken_count("don't") == subtoken_count("dont") + 1  # punct +1
