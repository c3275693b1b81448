"""Windowed co-occurrence PMI (stages/cooccur.py): hand-checkable counts,
brute-force parity, vocabulary byte gate."""

import math

import numpy as np
import pyarrow as pa
import pytest
import ray

from kb_ner_ray.stages.cooccur import windowed_pmi


def _docs_ds(texts, n_blocks=3):
    t = pa.table({
        "doc_id": pa.array(list(range(len(texts))), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    return ray.data.from_arrow(t).repartition(n_blocks)


def _brute_pmi(texts, window, min_pair):
    toks = [(t.strip().split() or [""]) for t in texts]
    total_t = sum(len(ts) for ts in toks)
    uni: dict[str, int] = {}
    pairs: dict[tuple[str, str], int] = {}
    total_p = 0
    for ts in toks:
        for w in ts:
            uni[w] = uni.get(w, 0) + 1
        for i in range(len(ts)):
            for j in range(i + 1, min(i + window, len(ts) - 1) + 1):
                key = (min(ts[i], ts[j]), max(ts[i], ts[j]))
                pairs[key] = pairs.get(key, 0) + 1
                total_p += 1
    out = []
    for (a, b), nab in pairs.items():
        if nab < min_pair:
            continue
        pmi = math.log(nab * total_t * total_t
                       / (total_p * uni[a] * uni[b]))
        out.append((a, b, nab, int(np.floor(pmi * 10_000 + 0.5))))
    return sorted(out)


def test_pmi_planted(ray_session):
    # 'x y' adjacent 4 times -> pair (x,y) n_ab=4 survives at min_pair=4
    texts = ["x y", "x y", "x y z", "x y", "q r s"]
    got = (windowed_pmi(_docs_ds(texts), window=2, min_pair=4)
           .to_pandas())
    assert len(got) == 1
    row = got.iloc[0]
    assert (row["tok_a"], row["tok_b"], row["n_ab"]) == ("x", "y", 4)
    # T=12 tokens, P: docs of len 2,2,3,2,3 at window 2 -> 1+1+3+1+3 = 9
    want = math.log(4 * 12 * 12 / (9 * 4 * 4))
    assert row["pmi_bp"] == int(np.floor(want * 10_000 + 0.5))


def test_pmi_randomized_parity(ray_session):
    rng = np.random.default_rng(3)
    vocab = [f"t{i}" for i in range(12)]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(1, 15)))
             for _ in range(40)] + ["", " "]
    got = (windowed_pmi(_docs_ds(texts, n_blocks=5), window=3, min_pair=3)
           .to_pandas())
    got_rows = sorted(map(tuple, got[["tok_a", "tok_b", "n_ab",
                                      "pmi_bp"]].itertuples(index=False)))
    assert got_rows == _brute_pmi(texts, window=3, min_pair=3)


def test_pmi_vocab_gate_raises(ray_session, over_broadcast_limit):
    texts = ["aaa bbb"] * 6
    with over_broadcast_limit(), pytest.raises(
            ValueError, match="survivor vocabulary"):
        windowed_pmi(_docs_ds(texts), window=2, min_pair=2)


def test_pmi_empty_result_schema(ray_session):
    got = windowed_pmi(_docs_ds(["a b", "c d"]), window=2, min_pair=5)
    assert got.count() == 0  # all pruned -> schema'd EMPTY Dataset
    assert got.schema().names == ["tok_a", "tok_b", "n_ab", "pmi_bp"]
