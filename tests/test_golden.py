"""Golden digests of the flagship kernel's rows on ``tiny_corpus``
(``generate_corpus(60, seed=42)``): the sha256 of the sorted ``contexts``,
``mentions`` and raw ``triples`` rows.  A change that moves any of them
must say why and re-pin the digest.

The contexts digest is the one of the exact (score desc, row asc) top-k;
the mentions and triples digests did not move with it.

``SF0001_DIGESTS`` pins the KB-side outputs read through the same worker
state on the cached sf0.001 corpus the same way."""

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


# sha256 of the sorted rows of the KB-side outputs beside the kernel's own
# emitters, on the cached sf0.001 corpus: the reranked contexts and the
# distant-supervision weak labels of their registry queries, and the
# config ``rerank_contexts`` stage at k=5, fetch_k=15.
SF0001_DIGESTS = {
    "kg_contexts_reranked": (11630, "cdbfc082154091bfa12be9f6fba80da2"
                                    "a71267165e2e6d158d082abd4bd2ff38"),
    "kg_distant_supervision": (4616, "16a601cdb62182d537b117b7371b8c88"
                                     "abd877a0ce4d097e3bae7a5fecf81701"),
    "config_rerank_contexts": (5833, "76eefed9c124f175080d4b3ceafe2adf"
                                     "80df8c8335be66a79d1c937caeaf70c7"),
}


def _sf0001_rows(name: str):
    from kb_ner_ray.data.synth import corpus_dir
    from kb_ner_ray.pipelines.config import PipelineConfig, build_pipeline
    from kb_ner_ray.pipelines.queries import kg_corpus

    if name.startswith("config_"):
        corpus = corpus_dir(0.001)
        return build_pipeline(PipelineConfig.from_dict({
            "input": corpus + "/pages", "corpus": corpus,
            "stages": [{"name": "extract"}, {"name": "explode"},
                       {"name": "rerank_contexts",
                        "params": {"k": 5, "fetch_k": 15}}]}))
    return getattr(kg_corpus, "q_" + name)("sf0.001")


@pytest.mark.parametrize("name", sorted(SF0001_DIGESTS))
def test_kb_side_rows_match_golden_digest(ray_session, name):
    import pyarrow as pa
    import ray

    table = pa.concat_tables(ray.get(_sf0001_rows(name).to_arrow_refs()))
    rows = sorted(tuple(r.values()) for r in table.to_pylist())
    assert (len(rows), hashlib.sha256(repr(rows).encode()).hexdigest()) \
        == SF0001_DIGESTS[name]
