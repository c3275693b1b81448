"""Queries over the synthetic KG corpus pages: the flagship pipeline's
stages (extract, sentences, contexts, mentions, triples) and the
analytics built on them."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ._common import _cents, _read


def q_kg_extract_docs(sf_dir: str):
    """documents wrapped in the synthetic HTML template, then extracted —
    the byte-identical invariant becomes SQL-checkable: the oracle is simply
    SELECT doc_id, text FROM documents."""
    from ...data.synth import _render_html
    from ...functions.text import extract_text

    def wrap_and_extract(t: pa.Table) -> pa.Table:
        texts = []
        for doc_id, text in zip(t["doc_id"].to_pylist(),
                                t["text"].to_pylist()):
            html = _render_html(None, text.split("\n"), str(doc_id),
                                f"Doc {doc_id}")
            texts.append(extract_text(html.encode("utf-8")))
        return pa.table({"doc_id": t["doc_id"],
                         "text": pa.array(texts, pa.string())})

    return (_read(sf_dir, "documents", columns=["doc_id", "text"])
            .map_batches(wrap_and_extract, batch_format="pyarrow"))


SQL_KG_EXTRACT = "SELECT doc_id, text FROM documents"


def _corpus(sf_dir: str) -> str:
    from ...data.synth import corpus_dir, sf_dir_to_sf

    return corpus_dir(sf_dir_to_sf(sf_dir))


def q_kg_sentences(sf_dir: str):
    from ...pipelines.kg import sentences_dataset

    return sentences_dataset(_corpus(sf_dir))


def q_kg_doc_context(sf_dir: str):
    """FLERT-style document-context attach (reference
    add_document_embeddings_v2, flair/embeddings.py:3657): every kg
    sentence + its left/right document context under the 510-subtoken
    budget.  Rows-only (the budget arithmetic over the subtoken cost
    model is not SQL-expressible); semantics pinned by
    tests/test_doccontext.py against a brute-force reference."""
    from ...pipelines.kg import sentences_dataset
    from ...stages.doccontext import attach_document_context

    return attach_document_context(
        sentences_dataset(_corpus(sf_dir)),
        pre_grouped=False)


def q_kg_contexts(sf_dir: str):
    from ...pipelines.kg import kernel_dataset

    return kernel_dataset(_corpus(sf_dir), "contexts")


def q_kg_mentions(sf_dir: str):
    """Fused retrieve+attach+tag+link emitting mentions."""
    from ...pipelines.kg import kernel_dataset

    return kernel_dataset(_corpus(sf_dir), "mentions")


def q_kg_mentions_viterbi(sf_dir: str):
    """kg_mentions through the numpy CRF Viterbi decode (functions/viterbi,
    reference flair/models/sequence_tagger_model.py:1248-1327) instead of
    the trie codec — identical (start, end, label, ent) mentions on
    gazetteer-shaped emissions, pinned by tests/test_viterbi.py."""
    from ...pipelines.kg import kernel_dataset

    return kernel_dataset(_corpus(sf_dir), "mentions", backend="viterbi")


def q_kg_contexts_reranked(sf_dir: str):
    """Retrieve-then-rerank contexts (the kernel's ``reranked`` emitter):
    BM25 fetch_k=30 candidates rescored by the deterministic BERTScore
    stand-in (greedy token F1, stages/reranker.py), top-10 re-ranked.  The
    emitter's ``scorer`` seam takes a cross-encoder in a GPU deployment."""
    from ...pipelines.kg import kernel_dataset

    return kernel_dataset(_corpus(sf_dir), "reranked")


def q_kg_mentions_iter2(sf_dir: str):
    """Iterative retrieval closed (reference README.md:276-278): pass-1
    mentions drive entity-boosted pass-2 retrieval (title boost 2.0),
    contexts re-attached, sentence re-tagged.  Semantics pinned by the
    single-process oracle-parity test (tests/test_iter2.py)."""
    from ...pipelines.kg import kernel_dataset

    return kernel_dataset(_corpus(sf_dir), "mentions", backend="iter2")


def q_kg_augment_conll(sf_dir: str):
    """The reference's E2 product pipeline: CoNLL dataset in ->
    retrieval-augmented CoNLL out (sentence lines keep labels, <EOS>
    separator + context tokens labeled B-X).  Input is a deterministic
    CoNLL render of the corpus sentences (cached under /tmp); output is
    the augmented-sentences Dataset (rows-only; format pinned by
    tests/test_augment.py)."""
    import os

    from ...pipelines.augment import augment_conll_dataset
    from ...pipelines.kg import sentences_dataset
    from ...state.manifest import publish_file, scratch

    corpus = _corpus(sf_dir)
    in_path = os.path.join(corpus, "conll_in.txt")
    if not os.path.exists(in_path):
        sents = (sentences_dataset(corpus)
                 .limit(500).to_pandas()
                 .sort_values(["url", "sent_id"]))
        lines = []
        for _i, row in sents.iterrows():
            lines.append(f"# id {row['url']}#{row['sent_id']}")
            for w in row["text"].split():
                lines.append(f"{w} O")
            lines.append("")
        tmp = os.path.join(scratch(corpus), "conll_in.txt")
        with open(tmp, "w", encoding="utf-8") as f:
            f.write("\n".join(lines))
        publish_file(tmp, in_path)
    ds = augment_conll_dataset(in_path, corpus,
                               column_format={0: "text", 1: "ner"})

    def summarize(t: pa.Table) -> pa.Table:
        return pa.table({
            "sent_key": t["sent_key"],
            "n_tokens": pa.array(
                [len(x) for x in t.column("text").to_pylist()], pa.int64()),
            "n_aug_tokens": pa.array(
                [len(x) for x in t.column("aug_tokens").to_pylist()],
                pa.int64()),
            "n_contexts": pc.cast(t["n_contexts"], pa.int64()),
        })

    return ds.map_batches(summarize, batch_format="pyarrow")


def q_kg_triples(sf_dir: str):
    from ...pipelines.kg import kg_triples

    return kg_triples(_corpus(sf_dir))


def q_kg_span_metric(sf_dir: str):
    """Distributed span P/R/F1 (A2): the staged mentions output evaluated
    against the oracle's mentions via per-batch partial TP/FP counts."""
    import os

    import pyarrow.parquet as pq

    from ...data.oracle import run_oracle
    from ...pipelines.kg import _read_table_dir
    from ...stages.metrics import span_prf_distributed
    from ...state.manifest import publish_file, scratch

    corpus = _corpus(sf_dir)
    cache = os.path.join(corpus, "oracle_mentions.parquet")
    if os.path.exists(cache):
        gold = pq.read_table(cache).to_pylist()
    else:
        pages = _read_table_dir(corpus + "/pages")
        kb = _read_table_dir(corpus + "/kb")
        gaz = _read_table_dir(corpus + "/gazetteer")
        gold_t = run_oracle(pages, kb, gaz)["mentions"]
        # the oracle is deterministic per corpus
        tmp = os.path.join(scratch(corpus), "oracle_mentions.parquet")
        pq.write_table(gold_t, tmp)
        publish_file(tmp, cache)
        gold = gold_t.to_pylist()
    df = span_prf_distributed(q_kg_mentions(sf_dir), gold)
    df = df.sort_values("label").reset_index(drop=True)
    for c in ("precision", "recall", "f1"):
        df[c + "_bp"] = _cents(df[c], 10000)
    return df[["label", "tp", "fp", "fn", "precision_bp", "recall_bp",
               "f1_bp"]]


def q_kg_entity_pagerank(sf_dir: str):
    """Entity-importance PageRank over the materialized triple graph
    (subj -> obj edges): the classic KG analytics step after
    construction.  Entities hash to stable int64 node ids for the
    iterative loop (driver/distributed plan auto-selected, see
    stages/components.pagerank); names rejoin from the bounded entity
    vocabulary.  Rows-only (iterative float algorithm); both plans are
    pinned to a straight-line numpy power iteration by pytest."""
    import hashlib as _hl

    from ...stages.components import pagerank

    triples = q_kg_triples(sf_dir)

    def hid(s: str) -> int:
        return int.from_bytes(
            _hl.blake2b(s.encode(), digest_size=8).digest(), "big") >> 1

    def edge_rows(t: pa.Table) -> pa.Table:
        subj = t.column("subj").to_pylist()
        obj = t.column("obj").to_pylist()
        return pa.table({
            "src": pa.array([hid(s) for s in subj], pa.int64()),
            "dst": pa.array([hid(o) for o in obj], pa.int64()),
            "name_src": pa.array(subj, pa.string()),
            "name_obj": pa.array(obj, pa.string()),
        })

    edges = triples.map_batches(edge_rows, batch_format="pyarrow")
    ranks = pagerank(edges, n_iters=10).to_pandas()

    # node id -> entity name: deduped PER BATCH before the driver
    # collect, so the driver sees at most (batches x per-batch distinct
    # entities) rows — in practice the entity vocabulary, the same bound
    # the canonicalization combine relies on — never the raw edge count
    def name_pairs(t: pa.Table) -> pa.Table:
        both = pa.concat_tables([
            pa.table({"node": t["src"], "entity": t["name_src"]}),
            pa.table({"node": t["dst"], "entity": t["name_obj"]}),
        ])
        pdf = both.to_pandas().drop_duplicates("node")
        return pa.Table.from_pandas(pdf, preserve_index=False)

    names = (edges.map_batches(name_pairs, batch_format="pyarrow")
             .to_pandas().drop_duplicates("node"))
    out = ranks.merge(names, on="node", how="left")
    out["rank_bp"] = _cents(out["rank"], 10_000_000)
    out = (out.sort_values(["rank_bp", "entity"],
                           ascending=[False, True])
           .reset_index(drop=True).head(100))
    return out[["entity", "rank_bp"]]


def q_kg_contexts_entity(sf_dir: str):
    """Iterative entity-level retrieval (reference --with_entity + second
    pass, README.md:276-278): pass-1 mention detection feeds entity-boosted
    BM25 queries (title boost 2.0)."""
    from ...pipelines.kg import kernel_dataset

    return kernel_dataset(_corpus(sf_dir), "entity_contexts")


def q_kg_ensemble(sf_dir: str):
    """Majority-vote span ensemble (A1): 3 gazetteer-variant taggers ->
    union -> groupby(sentence).map_groups greedy vote assignment."""
    from ...pipelines.kg import load_corpus_refs, sentences_dataset
    from ...stages.ensemble import ensemble_mentions

    corpus = _corpus(sf_dir)
    _kb_ref, gaz_ref, _ = load_corpus_refs(corpus)
    return ensemble_mentions(
        sentences_dataset(corpus), gaz_ref, n_models=3)


def q_kg_ensemble_multirun(sf_dir: str):
    """Multi-checkpoint ensemble ORCHESTRATION (the reference's 14-model
    sweep, ensemble_prediction.py:462-505): each stand-in checkpoint runs
    as its own plain-task pass and persists predictions to a resumable
    manifest-tracked sink under /tmp, then the vote reads all runs back.
    Must equal the fused kg_ensemble exactly (pinned in pytest)."""
    import os as _os

    from ...pipelines.ensemble_runs import run_ensemble

    corpus = _corpus(sf_dir)
    out = _os.path.join("/tmp/kbner_multirun", _os.path.basename(corpus))
    return run_ensemble(corpus, out, n_models=3)


def q_kg_distant_supervision(sf_dir: str):
    """M18 seat: project detected surfaces onto retrieved KB contexts (the
    kernel's ``distant`` emitter)."""
    from ...pipelines.kg import kernel_dataset

    return kernel_dataset(_corpus(sf_dir), "distant")
