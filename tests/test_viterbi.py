"""CRF Viterbi decode kernel (functions/viterbi.py) — semantics pinned to
reference flair/models/sequence_tagger_model.py:1248-1327 on golden
emission/transition fixtures, plus drop-in parity of the Viterbi tagger
backend with the gazetteer path (VERDICT round-1 item 2)."""

import numpy as np
import pytest

from kb_ner_ray.functions.viterbi import (
    START_TAG,
    STOP_TAG,
    bioes_tag_dictionary,
    bioes_transitions,
    viterbi_decode,
    viterbi_decode_masked,
)


def _space(labels):
    tags = bioes_tag_dictionary(labels)
    idx = {t: i for i, t in enumerate(tags)}
    return tags, idx, bioes_transitions(tags), idx[START_TAG], idx[STOP_TAG]


def _brute_force_best(emissions, trans, start, stop, k):
    """Exhaustive best-path search over all tag sequences (tiny T only):
    score = sum_t (trans[y_t, y_{t-1}] + em[t, y_t]) + trans[stop, y_T]."""
    import itertools

    T = len(emissions)
    best_score, best_path = -np.inf, None
    states = [s for s in range(k) if s not in (start, stop)]
    for path in itertools.product(states, repeat=T):
        s, prev = 0.0, start
        for t, y in enumerate(path):
            s += trans[y, prev] + emissions[t, y]
            prev = y
        s += trans[stop, prev]
        if s > best_score:
            best_score, best_path = s, list(path)
    return best_path


def test_matches_brute_force_on_random_emissions():
    tags, idx, trans, start, stop = _space(["PER", "LOC"])
    rng = np.random.RandomState(7)
    for _ in range(20):
        em = rng.randn(4, len(tags)) * 3
        _conf, path, _ = viterbi_decode(em, trans, start, stop)
        assert path == _brute_force_best(em, trans, start, stop, len(tags))


def test_grammatical_sequence_reproduced_exactly():
    """High-margin emissions along a grammatical BIOES sequence must be
    decoded verbatim (the property the gazetteer-backed pipeline relies
    on)."""
    tags, idx, trans, start, stop = _space(["PER", "LOC", "GRP"])
    seq = ["O", "B-PER", "I-PER", "E-PER", "O", "S-LOC", "B-GRP", "E-GRP"]
    em = np.zeros((len(seq), len(tags)))
    em[np.arange(len(seq)), [idx[t] for t in seq]] = 10.0
    conf, path, _ = viterbi_decode(em, trans, start, stop)
    assert [tags[i] for i in path] == seq
    assert all(0.0 < c <= 1.0 for c in conf)


def test_ungrammatical_emissions_are_repaired():
    """Emissions favoring an invalid sequence (I- with no opener) must be
    overridden by the transition constraints."""
    tags, idx, trans, start, stop = _space(["PER"])
    seq = ["I-PER", "I-PER"]  # invalid: no B- opener
    em = np.zeros((len(seq), len(tags)))
    em[np.arange(len(seq)), [idx[t] for t in seq]] = 2.0
    _conf, path, _ = viterbi_decode(em, trans, start, stop)
    decoded = [tags[i] for i in path]
    assert decoded != seq
    # repaired path must be grammatical: B..E or O O or S,S etc.
    assert decoded in (["B-PER", "E-PER"], ["O", "O"])


def test_confidence_is_softmax_max_of_forward_scores():
    """Reference: softmax over each step's forward (back)scores, value at
    its argmax — recompute by hand for a 1-token sequence."""
    tags, idx, trans, start, stop = _space(["PER"])
    em = np.zeros((1, len(tags)))
    em[0, idx["S-PER"]] = 3.0
    conf, path, _ = viterbi_decode(em, trans, start, stop)
    assert [tags[i] for i in path] == ["S-PER"]
    # forward at t0 = trans[to, start] + em[0]; conf = max softmax
    fwd = trans[:, start] + em[0] + 0.0
    # reference adds forward_var from init (-1e12 except start), max picks
    # from=start for every to; replicate:
    sm = np.exp(fwd - fwd.max())
    sm /= sm.sum()
    assert conf[0] == pytest.approx(sm.max())


def test_all_scores_swap_rule():
    """When the best-path tag differs from a step's argmax, the two scores
    are swapped in the returned row (reference :1312-1326)."""
    tags, idx, trans, start, stop = _space(["PER"])
    # emissions: step 0 favors I-PER (ungrammatical opener) slightly over
    # B-PER; path will be B-PER,E-PER while argmax(softmax) at 0 is I-PER
    em = np.zeros((2, len(tags)))
    em[0, idx["I-PER"]] = 5.0
    em[0, idx["B-PER"]] = 4.9
    em[1, idx["E-PER"]] = 5.0
    _conf, path, scores = viterbi_decode(em, trans, start, stop,
                                         all_scores=True)
    assert [tags[i] for i in path] == ["B-PER", "E-PER"]
    row0 = np.asarray(scores[0])
    assert row0.argmax() == path[0]  # swapped into place


def test_masked_decode_pads_sx():
    tags, idx, trans, start, stop = _space(["PER", "X"])
    seq = ["S-PER", "O"]
    em = np.zeros((5, len(tags)))
    em[1, idx["S-PER"]] = 10.0  # positions 1..2 are the real sentence
    mask = np.array([False, True, True, False, False])
    conf, path, = None, None
    conf, path = viterbi_decode_masked(em, trans, start, stop, mask,
                                       idx["S-X"])
    decoded = [tags[i] for i in path]
    assert decoded == ["S-X", "S-PER", "O", "S-X", "S-X"]
    assert conf[0] == 1.0 and conf[3] == 1.0 and conf[4] == 1.0
    assert 0.0 < conf[1] <= 1.0


def test_transitions_shape_and_grammar():
    tags, idx, trans, start, stop = _space(["PER", "LOC"])
    allowed = trans == 0.0
    # START can open, not continue
    assert allowed[idx["B-PER"], start] and allowed[idx["O"], start]
    assert not allowed[idx["I-PER"], start]
    # I/E only continue same label
    assert allowed[idx["I-PER"], idx["B-PER"]]
    assert not allowed[idx["I-LOC"], idx["B-PER"]]
    assert allowed[idx["E-PER"], idx["I-PER"]]
    # STOP only from valid enders
    assert allowed[stop, idx["E-PER"]] and allowed[stop, idx["O"]]
    assert not allowed[stop, idx["B-PER"]]
    # nothing leaves STOP / enters START
    assert not allowed[:, stop].any() and not allowed[start, :].any()


@pytest.fixture(scope="module")
def tiny_corpus(ray_session):
    from kb_ner_ray.data.synth import corpus_dir

    return corpus_dir(0.001)


def test_viterbi_tagger_parity_with_gazetteer(tiny_corpus):
    """Drop-in parity: the Viterbi mentions pipeline emits identical
    (url, sent_id, start, end, label, ent_id) rows to the trie-codec
    pipeline over the synthetic corpus."""
    from kb_ner_ray.pipelines.kg import kernel_dataset

    base = kernel_dataset(tiny_corpus, "mentions").to_pandas()
    vit = kernel_dataset(tiny_corpus, "mentions",
                         backend="viterbi").to_pandas()
    key = ["url", "sent_id", "start_tok", "end_tok", "label", "ent_id"]
    a = base[key].sort_values(key).reset_index(drop=True)
    b = vit[key].sort_values(key).reset_index(drop=True)
    assert len(a) > 0
    assert a.equals(b)
