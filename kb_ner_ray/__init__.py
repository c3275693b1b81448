"""kb_ner_ray — a Ray-Data-native knowledge-graph-construction engine.

Built from scratch around the retrieval-augmented NER recipe of
Alibaba-NLP/KB-NER (SemEval-2022 MultiCoNER winner; see /root/reference):
pages → extract text → sentence explode → mention detection → BM25 KB
retrieval → context attach → entity linking → canonicalization → (subj,
pred, obj) triples, all expressed as ``ray.data.Dataset`` transforms over
zero-copy Arrow batches; stateful stages are plain tasks that build their
state once per worker.

Layout:
  functions/  pure, unit-tested kernels (span codec, normalizers, tokenizer)
  data/       deterministic synthetic corpus + KB generators, Arrow schemas
  sources/    golden-fixture codecs (CoNLL column format)
  stages/     map_batches stage implementations (plain task fns; state
              built once per worker through partitioning.worker_state)
  state/      broadcastable state (BM25 index, gazetteer, union-find, manifest)
  pipelines/  end-to-end composition (pages → triples), config/CLI, queries
"""

__version__ = "0.1.0"

ENTITY_TYPES = ("PER", "LOC", "GRP", "CORP", "PROD", "CW")
"""The 6 MultiCoNER entity types (reference: resources/taggers/EN-English.pkl)."""
