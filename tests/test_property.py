"""Property-based tests (hypothesis) for the pure kernels — the span codec
is where P/R conformance lives or dies (SURVEY.md §7 hard part (a))."""

from hypothesis import given, settings
from hypothesis import strategies as st

from kb_ner_ray.functions.spans import (
    bio_to_bioes,
    bioes_to_bio,
    decode_bioes,
    spans_to_bio,
    spans_to_bioes,
)
from kb_ner_ray.functions.tokenizer import pack_by_length, subtoken_count
from kb_ner_ray.stages.dedup import charset_jaccard
from kb_ner_ray.stages.sketch import KMVSketch

LABELS = ("PER", "LOC", "GRP", "CORP", "PROD", "CW")


@st.composite
def non_overlapping_spans(draw):
    """(n_tokens, sorted non-overlapping spans with gaps allowed)."""
    n = draw(st.integers(min_value=1, max_value=40))
    spans = []
    pos = 0
    while pos < n:
        start = draw(st.integers(min_value=pos, max_value=n))
        if start >= n:
            break
        end = draw(st.integers(min_value=start + 1,
                               max_value=min(n, start + 6)))
        spans.append((start, end, draw(st.sampled_from(LABELS))))
        pos = end
        if draw(st.booleans()):
            break
    return n, spans


@given(non_overlapping_spans())
@settings(max_examples=200, deadline=None)
def test_span_codec_round_trip(case):
    """spans -> BIO(ES) tags -> decode == spans, for both schemes."""
    n, spans = case
    for render in (spans_to_bio, spans_to_bioes):
        tags = render(spans, n)
        decoded = [(s, e, lab) for s, e, lab, _score in decode_bioes(tags)]
        assert decoded == spans, (render.__name__, tags)


@given(non_overlapping_spans())
@settings(max_examples=200, deadline=None)
def test_bio_bioes_round_trip(case):
    n, spans = case
    bio = spans_to_bio(spans, n)
    assert bioes_to_bio(bio_to_bioes(bio)) == bio


@given(st.lists(st.text(alphabet="abcdef ", min_size=0, max_size=30),
                max_size=20),
       st.integers(min_value=8, max_value=200))
@settings(max_examples=100, deadline=None)
def test_pack_by_length_partition_property(texts, budget):
    """Packs are a partition of the input indices; multi-item packs obey
    the budget (a single over-budget item gets its own pack)."""
    packs = pack_by_length(texts, budget=budget, max_items=4)
    flat = sorted(i for p in packs for i in p)
    assert flat == list(range(len(texts)))
    for p in packs:
        assert 1 <= len(p) <= 4
        if len(p) > 1:
            assert sum(subtoken_count(texts[i]) for i in p) <= budget


@given(st.text(max_size=50), st.text(max_size=50))
@settings(max_examples=200, deadline=None)
def test_charset_jaccard_bounds_and_symmetry(a, b):
    sa, sb = set(a), set(b)
    j = charset_jaccard(sa, sb)
    assert 0.0 <= j <= 1.0
    assert j == charset_jaccard(sb, sa)
    assert charset_jaccard(sa, sa) == 1.0


@given(st.lists(st.text(min_size=1, max_size=10), min_size=0, max_size=300),
       st.lists(st.text(min_size=1, max_size=10), min_size=0, max_size=300))
@settings(max_examples=50, deadline=None)
def test_kmv_merge_commutative_and_union(xs, ys):
    a, b = KMVSketch(k=64), KMVSketch(k=64)
    a.add_many(xs)
    b.add_many(ys)
    m1, m2 = a.merge(b), b.merge(a)
    assert m1.hashes == m2.hashes
    whole = KMVSketch(k=64)
    whole.add_many(xs + ys)
    assert m1.hashes == whole.hashes


@given(st.integers(min_value=1, max_value=3000),
       st.integers(min_value=2, max_value=200))
@settings(max_examples=100, deadline=None)
def test_windows_cover_and_merge_identity(n, window):
    from kb_ner_ray.functions.windows import (
        merge_window_seqs,
        split_windows,
    )

    stride = max(1, window // 2)
    wins = split_windows(n, window, stride)
    assert wins[0][0] == 0 and wins[-1][1] == n
    assert all(e - s <= window for s, e in wins)
    # merging per-window slices of the identity sequence restores it
    seqs = [(s, list(range(s, e))) for s, e in wins]
    assert merge_window_seqs(seqs, n) == list(range(n))


@given(st.lists(
    st.tuples(st.integers(0, 30), st.integers(1, 4),
              st.sampled_from(["PER", "LOC", "GRP"])),
    min_size=0, max_size=6))
@settings(max_examples=100, deadline=None)
def test_viterbi_reproduces_grammatical_tagging(span_specs):
    """Any non-overlapping span layout -> BIOES tags -> one-hot emissions
    -> constrained Viterbi == the original tags."""
    import numpy as np

    from kb_ner_ray.functions.spans import spans_to_bioes
    from kb_ner_ray.functions.viterbi import (
        START_TAG,
        STOP_TAG,
        bioes_tag_dictionary,
        bioes_transitions,
        viterbi_decode,
    )

    n_tokens = 40
    spans, taken = [], [False] * n_tokens
    for start, length, label in span_specs:
        end = min(start + length, n_tokens)
        if end <= start or any(taken[start:end]):
            continue
        for i in range(start, end):
            taken[i] = True
        spans.append((start, end, label))
    tags = spans_to_bioes(sorted(spans), n_tokens)
    space = bioes_tag_dictionary(["PER", "LOC", "GRP"])
    idx = {t: i for i, t in enumerate(space)}
    trans = bioes_transitions(space)
    em = np.zeros((n_tokens, len(space)))
    em[np.arange(n_tokens), [idx[t] for t in tags]] = 8.0
    _conf, path, _ = viterbi_decode(em, trans, idx[START_TAG],
                                    idx[STOP_TAG])
    assert [space[i] for i in path] == tags


@given(st.lists(st.integers(0, 20), min_size=1, max_size=400),
       st.integers(min_value=2, max_value=8))
@settings(max_examples=60, deadline=None)
def test_mg_lower_bound_law(values, n_parts):
    from collections import Counter

    from kb_ner_ray.stages.sketch import MGSketch

    vals = [f"v{v}" for v in values]
    parts = [vals[i::n_parts] for i in range(n_parts)]
    merged = None
    for p in parts:
        sk = MGSketch(m=8)
        sk.add_many(p)
        merged = sk if merged is None else merged.merge(sk)
    true = Counter(vals)
    assert merged.n == len(vals)
    for v, est in merged.counters.items():
        assert 0 < est <= true[v]


@given(st.lists(st.text(
    alphabet=st.characters(codec="ascii", exclude_characters="\x00"),
    max_size=80), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_pii_redact_idempotent_and_clean(texts):
    """redact(redact(x)) == redact(x), and no email pattern survives a
    redaction pass (replacement tokens contain no digits or '@')."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from kb_ner_ray.stages.textstats import PII_EMAIL_RE, pii_redact

    t = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    once = pii_redact(t)
    again = pii_redact(pa.table({"doc_id": once["doc_id"],
                                 "text": once["redacted"]}))
    assert once["redacted"].to_pylist() == again["redacted"].to_pylist()
    assert pc.sum(pc.count_substring_regex(
        once["redacted"], pattern=PII_EMAIL_RE)).as_py() in (0, None)


@given(st.lists(st.sampled_from(["aa bb cc", "bb cc dd aa", "", "zz",
                                 "aa bb", "cc dd ee ff gg"]),
                min_size=1, max_size=16),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=25, deadline=None)
def test_dsir_weights_block_layout_invariant(ray_session, texts, parts):
    """DSIR scores are a pure function of the corpus — block layout and
    batch boundaries must not change a single basis point."""
    import pyarrow as pa
    import ray as _ray

    from kb_ner_ray.stages.dsir import dsir_weights

    t = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en" if i % 2 == 0 else "xx"
                          for i in range(len(texts))], pa.string()),
    })

    def run(p):
        ds = _ray.data.from_arrow(t).repartition(p)
        return (dsir_weights(ds).to_pandas()
                .sort_values("doc_id").reset_index(drop=True))

    assert run(1).equals(run(parts))
