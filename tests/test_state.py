"""BM25 / gazetteer / union-find / canonicalization kernel tests."""

import numpy as np

from kb_ner_ray.functions.canon import build_canonical_map
from kb_ner_ray.functions.tokenizer import subtoken_count, tokenize_with_offsets
from kb_ner_ray.state.bm25 import KBIndex, analyze
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


def test_bm25_hits_are_plain_and_match_per_element_formula():
    """Hits are Python int/float pairs, equal to converting each chosen
    element on its own, on a KB whose tied scores straddle the top-k cut
    (60 tied documents, 4k = 40 argpartition candidates)."""
    idx = KBIndex(_kb(["x y"] * 60 + ["x x y z", "z w", "y"]))
    for query, k in [("x", 10), ("x z", 10), ("y", 3), ("w", 10)]:
        hits = idx.search(query, k=k)
        assert all(type(i) is int and type(s) is float for i, s in hits)
        scores = np.zeros(len(idx.rows), dtype=np.float32)
        idx.text.score_into(query, scores)
        cand = np.argpartition(-scores, k - 1)[: k * 4]
        cand = cand[np.lexsort((cand, -scores[cand]))][:k]
        assert hits == [(int(i), float(scores[i])) for i in cand
                        if scores[i] > 0.0]
        assert len(hits) == min(k, int((scores > 0).sum()))


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


def test_tokenize_with_offsets():
    toks, starts, ends = tokenize_with_offsets("  ab  cd ")
    assert toks == ["ab", "cd"]
    assert starts == [2, 6] and ends == [4, 8]


def test_subtoken_count_properties():
    assert subtoken_count("") == 0
    assert subtoken_count("ab") == 1
    assert subtoken_count("abcdefgh") == 2          # ceil(8/4)
    assert subtoken_count("中文") == 2               # CJK chars count 1 each
    assert subtoken_count("a b") == subtoken_count("a") + subtoken_count("b")
    assert subtoken_count("don't") == subtoken_count("dont") + 1  # punct +1
