"""Golden digests of the flagship kernel's rows on ``tiny_corpus``
(``generate_corpus(60, seed=42)``): the sha256 of the sorted ``contexts``,
``mentions`` and raw ``triples`` rows.  A change that moves any of them
must say why and re-pin the digest.

The contexts digest is the one of the exact (score desc, row asc) top-k;
the mentions and triples digests did not move with it."""

import hashlib

import pytest

from kb_ner_ray.stages.extract import extract_pages
from kb_ner_ray.stages.sentences import explode_sentences
from kb_ner_ray.stages.tagger import SentenceKernel

DIGESTS = {
    "contexts": (5692, "cbd9856a2d12dd3f3e11c46cc240b2fb"
                       "a66407c2b8b6f5a85613baf2b59161d2"),
    "mentions": (622, "27f4756b35af10d53f0317715ac44547"
                      "8a21471eac28686a1e3e7c5418df64a8"),
    "triples": (245, "c321a1ccc0a12f6224dc1676fe72fe30"
                     "fcf49f952370d622d3b5885699421a62"),
}


@pytest.mark.parametrize("mode", sorted(DIGESTS))
def test_kernel_rows_match_golden_digest(tiny_corpus, mode):
    sents = explode_sentences(extract_pages(tiny_corpus["pages"]))
    kernel = SentenceKernel(tiny_corpus["gazetteer"].to_pylist(),
                            tiny_corpus["kb"].to_pylist())
    rows = sorted(tuple(r.values())
                  for r in kernel.emit(sents, mode).to_pylist())
    assert (len(rows), hashlib.sha256(repr(rows).encode()).hexdigest()) \
        == DIGESTS[mode]
