"""End-to-end conformance: Ray pipeline vs the single-process oracle.

This is the BASELINE.md gate: triple P/R >= 0.95 vs the reference extractor
semantics (here: data/oracle.py, which pins them; the Ray engine must match
it, and the oracle itself is held to >= 0.95 against the generator gold)."""

import pyarrow as pa
import pytest
import ray

from kb_ner_ray.data.oracle import run_oracle
from kb_ner_ray.data.synth import generate_corpus
from kb_ner_ray.functions.spans import span_prf
from kb_ner_ray.stages.canonicalize import (
    apply_canonical,
    canonical_map,
    compute_canonical_map,
    partial_link_counts,
)
from kb_ner_ray.stages.extract import extract_pages
from kb_ner_ray.stages.sentences import explode_sentences
from kb_ner_ray.stages.tagger import kernel_rows

KEY_COLS = ["subj", "pred", "obj", "url", "sent_id"]


@pytest.fixture(scope="module")
def oracle_out(tiny_corpus):
    return run_oracle(tiny_corpus["pages"], tiny_corpus["kb"],
                      tiny_corpus["gazetteer"])


@pytest.fixture(scope="module")
def refs(tiny_corpus):
    return {
        "kb_ref": ray.put(tiny_corpus["kb"].to_pylist()),
        "gaz_ref": ray.put(tiny_corpus["gazetteer"].to_pylist()),
        "ent_title": {r["ent_id"]: r["title"]
                      for r in tiny_corpus["kb"].to_pylist()},
    }


def _sentences_ds(tiny_corpus):
    return (
        ray.data.from_arrow(tiny_corpus["pages"])
        .map_batches(extract_pages, batch_format="pyarrow")
        .map_batches(explode_sentences, batch_format="pyarrow")
    )


def _kernel_ds(tiny_corpus, refs, mode):
    return _sentences_ds(tiny_corpus).map_batches(
        kernel_rows, fn_kwargs={"kb_ref": refs["kb_ref"],
                                "gaz_ref": refs["gaz_ref"], "mode": mode},
        batch_format="pyarrow")


def _rows(tbl, cols):
    if isinstance(tbl, pa.Table):
        return [tuple(r[c] for c in cols) for r in tbl.to_pylist()]
    return [tuple(r) for r in tbl[cols].itertuples(index=False)]


def test_extract_and_explode_match_oracle(tiny_corpus, oracle_out):
    got = _sentences_ds(tiny_corpus).to_pandas()
    want = oracle_out["sentences"].to_pandas()
    cols = ["url", "sent_id", "text"]
    got_s = got[cols].sort_values(cols).reset_index(drop=True)
    want_s = want[cols].sort_values(cols).reset_index(drop=True)
    assert got_s.equals(want_s)


def test_retriever_contexts_match_oracle(tiny_corpus, oracle_out, refs):
    ds = _kernel_ds(tiny_corpus, refs, "contexts")
    cols = ["url", "sent_id", "rank", "kb_id"]
    got = sorted(_rows(ds.to_pandas(), cols))
    want = sorted(_rows(oracle_out["contexts"], cols))
    assert got == want


def test_mentions_match_oracle(tiny_corpus, oracle_out, refs):
    ds = _kernel_ds(tiny_corpus, refs, "mentions")
    cols = ["url", "sent_id", "start_tok", "end_tok", "label", "ent_id"]
    got = sorted(_rows(ds.to_pandas(), cols))
    want = sorted(_rows(oracle_out["mentions"], cols))
    assert got == want


def test_triples_conformance_ge_095(tiny_corpus, oracle_out, refs):
    raw = _kernel_ds(tiny_corpus, refs, "triples").materialize()
    canon = compute_canonical_map(raw, refs["ent_title"])
    final = raw.map_batches(
        apply_canonical, fn_kwargs={"canon_ref": ray.put(canon)},
        batch_format="pyarrow")
    got = _rows(final.to_pandas(), KEY_COLS)
    want = _rows(oracle_out["triples"], KEY_COLS)
    p, r, f1, *_ = span_prf(want, got)
    assert p >= 0.95 and r >= 0.95, (p, r)
    # in fact the engine matches the oracle exactly
    assert sorted(got) == sorted(want)


_SURFACES = ["Acme, Inc.", "acme inc", "ACME  Inc", "Bob", "bob!", "Zoë",
             "  x  ", "", "New  York", "new york.", "中国"]


def _random_raw_triples(rnd, n):
    """``n`` raw-triple rows, NIL sides included, as a table of several
    chunks (some empty)."""
    def rows(m):
        return pa.table({
            "subj_surface": pa.array([rnd.choice(_SURFACES) for _ in range(m)],
                                     pa.string()),
            "subj_ent": pa.array([rnd.randint(-1, 4) for _ in range(m)],
                                 pa.int64()),
            "pred": pa.array(["p%d" % rnd.randint(0, 3) for _ in range(m)],
                             pa.string()),
            "obj_surface": pa.array([rnd.choice(_SURFACES) for _ in range(m)],
                                    pa.string()),
            "obj_ent": pa.array([rnd.randint(-1, 4) for _ in range(m)],
                                pa.int64()),
            "url": pa.array(["u%d" % rnd.randint(0, 5) for _ in range(m)],
                            pa.string()),
            "sent_id": pa.array([rnd.randint(0, 9) for _ in range(m)],
                                pa.int32()),
        })
    cuts = sorted(rnd.randint(0, n) for _ in range(3))
    return pa.concat_tables([rows(hi - lo) for lo, hi
                             in zip([0] + cuts, cuts + [n])])


def _reference_link_counts(batch):
    """Per-row link counts: every linked side, surface normalized."""
    from kb_ner_ray.functions.text import normalize_surface

    counts = {}
    for side in ("subj", "obj"):
        for surf, ent in zip(batch[side + "_surface"].to_pylist(),
                             batch[side + "_ent"].to_pylist()):
            if ent >= 0:
                key = (normalize_surface(surf), ent)
                counts[key] = counts.get(key, 0) + 1
    return counts


def _reference_apply(batch, canon):
    """Per-row canonical names of both sides."""
    from kb_ner_ray.functions.text import normalize_surface

    def name(surface):
        norm = normalize_surface(surface)
        return canon.get(norm, norm)

    return pa.table({
        "subj": pa.array([name(s) for s in batch["subj_surface"].to_pylist()],
                         pa.string()),
        "pred": batch["pred"],
        "obj": pa.array([name(s) for s in batch["obj_surface"].to_pylist()],
                        pa.string()),
        "url": batch["url"],
        "sent_id": batch["sent_id"],
        "score": pa.array([1.0] * batch.num_rows, pa.float32()),
    })


@pytest.mark.parametrize("seed", range(6))
def test_canonicalize_equals_per_row_reference(seed):
    """``partial_link_counts`` (grouped per distinct surface) and
    ``apply_canonical`` (per dictionary entry) against per-row references:
    NIL sides, surfaces that normalize to one key, chunked columns and an
    empty batch."""
    import random

    from kb_ner_ray.stages.canonicalize import LINK_COUNTS_SCHEMA

    rnd = random.Random(seed)
    batch = _random_raw_triples(rnd, rnd.choice([0, 1, 40, 300]))
    assert batch["subj_surface"].num_chunks == 4
    part = partial_link_counts(batch)
    assert part.schema == LINK_COUNTS_SCHEMA
    got = {(s, e): c for s, e, c in zip(part["surface"].to_pylist(),
                                        part["ent_id"].to_pylist(),
                                        part["cnt"].to_pylist())}
    assert len(got) == part.num_rows
    assert got == _reference_link_counts(batch)
    canon = {"acme inc": "Acme Incorporated", "bob": "Robert",
             "new york": "New York City"}
    assert apply_canonical(batch, canon_ref=canon).equals(
        _reference_apply(batch, canon))
    empty = batch.slice(0, 0)
    assert partial_link_counts(empty).num_rows == 0
    assert apply_canonical(empty, canon_ref=canon).equals(
        _reference_apply(empty, canon))


def test_worker_builds_kernel_state_once(tiny_corpus, refs, monkeypatch):
    """A worker serving kg_mentions batches, then kg_triples batches, then
    apply_canonical batches, then kg_triples batches again over the same
    refs, builds its KB/gazetteer state once and keeps its memo: the
    canonical map has its own slot and never evicts the kernel."""
    from kb_ner_ray.stages import canonicalize, tagger

    builds = []
    init = tagger.SentenceKernel.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(tagger.SentenceKernel, "__init__", counting_init)
    monkeypatch.setattr(tagger, "_TASK_STATE", {})
    monkeypatch.setattr(canonicalize, "_CANON_STATE", {})
    kw = {"kb_ref": refs["kb_ref"], "gaz_ref": refs["gaz_ref"]}
    sents = explode_sentences(extract_pages(tiny_corpus["pages"]))
    half = sents.num_rows // 2
    batches = (sents.slice(0, half), sents.slice(half))
    for batch in batches:
        assert kernel_rows(batch, mode="mentions", **kw).num_rows > 0
    raw = [kernel_rows(batch, **kw) for batch in batches]
    assert all(t.num_rows > 0 for t in raw)
    canon_ref = ray.put(canonical_map(
        [partial_link_counts(t) for t in raw], refs["ent_title"]))
    for t in raw:
        assert apply_canonical(t, canon_ref=canon_ref).num_rows == t.num_rows
    for batch, want in zip(batches, raw):
        assert kernel_rows(batch, **kw).equals(want)
    assert len(builds) == 1
    kernel = tagger._TASK_STATE[(refs["kb_ref"], refs["gaz_ref"])]
    assert list(canonicalize._CANON_STATE) == [canon_ref]
    distinct = len(set(zip(sents["text"].to_pylist(),
                           sents["lang"].to_pylist())))
    assert len(kernel._memo) == 2 * distinct


def test_kb_side_modes_share_one_kernel(tiny_corpus, refs, monkeypatch):
    """Reranked contexts, distant-supervision labels and triples over the
    same refs on one worker: one kernel is built and kept, and every
    retrieval of all three modes searches its one BM25 index."""
    from kb_ner_ray.stages import tagger
    from kb_ner_ray.state.bm25 import MultiLangKBIndex

    searched = []
    search_many = MultiLangKBIndex.search_many

    def recording(self, queries, *args, **kwargs):
        searched.append((mode, id(self)))
        return search_many(self, queries, *args, **kwargs)

    monkeypatch.setattr(MultiLangKBIndex, "search_many", recording)
    monkeypatch.setattr(tagger, "_TASK_STATE", {})
    kw = {"kb_ref": refs["kb_ref"], "gaz_ref": refs["gaz_ref"]}
    sents = explode_sentences(extract_pages(tiny_corpus["pages"]))
    for mode in ("reranked", "distant", "triples"):
        assert kernel_rows(sents, mode=mode, **kw).num_rows > 0
    (kernel,) = tagger._TASK_STATE.values()
    assert list(tagger._TASK_STATE) == [(refs["kb_ref"], refs["gaz_ref"])]
    assert {m for m, _i in searched} == {"reranked", "distant", "triples"}
    assert {i for _m, i in searched} == {id(kernel.index)}


def test_oracle_vs_generator_gold_ge_095(tiny_corpus, oracle_out):
    want = _rows(tiny_corpus["triples"], KEY_COLS)
    got = _rows(oracle_out["triples"], KEY_COLS)
    p, r, f1, *_ = span_prf(want, got)
    assert p >= 0.95 and r >= 0.95, (p, r)


def test_zh_triples_end_to_end(ray_session, tmp_path):
    """The per-language KB index path produces zh triples through the
    DISTRIBUTED pipeline, matching the oracle exactly on the zh slice."""
    import pyarrow.parquet as pq

    from kb_ner_ray.data.oracle import run_oracle
    from kb_ner_ray.data.synth import generate_corpus
    from kb_ner_ray.pipelines.kg import kg_triples

    t = generate_corpus(150, seed=7)
    d = tmp_path / "zh_corpus"
    for name in ("pages", "kb", "gazetteer"):
        (d / name).mkdir(parents=True)
        pq.write_table(t[name], str(d / name / "part0.parquet"))

    def is_zh(s: str) -> bool:
        return any("一" <= c <= "鿿" for c in s)

    engine = kg_triples(str(d)).to_pandas()
    oracle = run_oracle(t["pages"], t["kb"], t["gazetteer"])[
        "triples"].to_pandas()
    key = ["subj", "pred", "obj", "url", "sent_id"]
    e_zh = engine[engine["subj"].map(is_zh)][key].sort_values(key)
    o_zh = oracle[oracle["subj"].map(is_zh)][key].sort_values(key)
    assert len(o_zh) > 0, "corpus must contain zh triples"
    assert e_zh.reset_index(drop=True).equals(o_zh.reset_index(drop=True))
    # canonicalization resolved zh surfaces to KB titles
    assert set(e_zh["subj"]) <= {"王小明", "李华", "张伟", "宏远科技",
                                 "蓝山集团", "北港市", "南湖镇"}


def test_order_independence(ray_session, tmp_path):
    """Shuffling the physical row order of the pages input leaves the
    triple set EXACTLY unchanged (keys carried, never physical order —
    SURVEY.md §2.9 / §7 hard part (d))."""
    import pyarrow.parquet as pq

    from kb_ner_ray.data.synth import generate_corpus
    from kb_ner_ray.pipelines.kg import kg_triples

    t = generate_corpus(100, seed=13)
    perm = list(range(t["pages"].num_rows))
    import random as _random

    _random.Random(99).shuffle(perm)
    shuffled_pages = t["pages"].take(perm)

    outs = []
    for pages in (t["pages"], shuffled_pages):
        d = tmp_path / f"c{len(outs)}"
        for name, table in (("pages", pages), ("kb", t["kb"]),
                            ("gazetteer", t["gazetteer"])):
            (d / name).mkdir(parents=True)
            pq.write_table(table, str(d / name / "part0.parquet"))
        key = ["subj", "pred", "obj", "url", "sent_id"]
        outs.append(kg_triples(str(d)).to_pandas()[key]
                    .sort_values(key).reset_index(drop=True))
    assert outs[0].equals(outs[1])


def test_attach_rank_window():
    """min_rank/max_rank slice the rank-ordered hits before the budget
    walk (reference kb/context_process.py:365)."""
    from kb_ner_ray.data.oracle import attach_contexts

    hits = [(f"ctx{i} words here", 1.0) for i in range(6)]
    full, n_full = attach_contexts("a sentence", hits)
    sliced, n_sliced = attach_contexts("a sentence", hits, min_rank=2,
                                       max_rank=4)
    assert n_full == 6 and n_sliced == 2
    assert "ctx2" in sliced and "ctx3" in sliced
    assert "ctx0" not in sliced and "ctx4" not in sliced
    # empty window -> bare sentence, zero contexts
    bare, n0 = attach_contexts("a sentence", hits, min_rank=6)
    assert bare == "a sentence" and n0 == 0


def test_edit_distance_and_score_edit():
    from kb_ner_ray.stages.reranker import _edit_distance, score_edit_pairs

    assert _edit_distance("kitten", "sitting") == 3
    assert _edit_distance("", "abc") == 3
    assert _edit_distance("same", "same") == 0
    # reference formula: 1 - d / max(len)
    s = score_edit_pairs("abcd", ["abcd", "abcx", "zzzz"])
    assert s[0] == 1.0 and s[1] == 0.75 and s[2] == 0.0
    # 200-word truncation engages (reference :40-43)
    long_cand = " ".join(["w"] * 300)
    trunc = " ".join(["w"] * 200)
    want = 1.0 - _edit_distance(trunc, "w") / len(trunc)
    assert score_edit_pairs("w", [long_cand])[0] == want


def test_reranked_retriever_orders_by_scorer(tiny_corpus, refs, ray_session):
    out = _kernel_ds(tiny_corpus, refs, "reranked").to_pandas()
    assert len(out) > 0
    assert set(out.columns) == {"url", "sent_id", "rank", "kb_id",
                                "bm25_score", "rerank_score",
                                "kb_sentence", "kb_title"}
    # per query: ranks contiguous from 0 and rerank_score non-increasing
    for (_u, _s), g in out.groupby(["url", "sent_id"]):
        g = g.sort_values("rank")
        assert list(g["rank"]) == list(range(len(g)))
        assert (g["rerank_score"].diff().dropna() <= 1e-6).all()
        assert len(g) <= 10


def test_flagship_plan_has_no_shuffle(ray_session):
    """Architectural pin: the flagship pages->triples pipeline is ONE
    streaming pass — no all-to-all exchange anywhere (canonicalization
    is a per-batch combiner + vocabulary-bounded driver merge).  A
    future edit that introduces a groupby/sort/repartition into the hot
    path should fail here, not at 100 TB.  The canonical apply runs as
    plain tasks, so the raw triples' stats hold the whole Ray Data plan."""
    from kb_ner_ray.data.synth import corpus_dir
    from kb_ner_ray.pipelines.kg import (
        canonical_triples, load_corpus_refs, raw_triples, sentences_dataset)

    corpus = corpus_dir(0.001)
    _kb_ref, _gaz_ref, ent_title = load_corpus_refs(corpus)
    raw = raw_triples(sentences_dataset(corpus), corpus).materialize()
    assert canonical_triples(raw, ent_title).count() > 0
    stats = raw.stats()
    assert "MapBatches(retrieve_tag_triples_shared)" in stats
    for marker in ("AllToAll", "Sort", "Aggregate", "RandomShuffle",
                   "Repartition"):
        assert marker not in stats, f"unexpected {marker} in plan:\n{stats}"


def test_kg_triples_query_exactly_matches_oracle_sf001(ray_session):
    """Round-3 verdict #7: the BASELINE P/R >= 0.95 gate passes trivially
    (both paths emit identical triples), so a subtle divergence could
    hide under the threshold.  Pin exact MULTISET equality of
    (subj, pred, obj, url) between the registered flagship query (the
    fused kg_triples plan, warm caches and all) and the single-process
    straight-line oracle at the driver's sf0.01 scale."""
    from kb_ner_ray.data.oracle import run_oracle as straight_line
    from kb_ner_ray.data.synth import corpus_dir
    from kb_ner_ray.pipelines.kg import _read_table_dir, kg_triples

    corpus = corpus_dir(0.01)
    got = kg_triples(corpus).to_pandas()
    want = straight_line(
        _read_table_dir(corpus + "/pages"),
        _read_table_dir(corpus + "/kb"),
        _read_table_dir(corpus + "/gazetteer"))["triples"].to_pandas()
    cols = ["subj", "pred", "obj", "url"]
    gs = sorted(map(tuple, got[cols].itertuples(index=False)))
    ws = sorted(map(tuple, want[cols].itertuples(index=False)))
    assert len(gs) == len(ws)
    assert gs == ws


def _operators(ds) -> list[str]:
    """The operator names a materialized Dataset's stats list."""
    return [line.split(":")[0].split(" ", 2)[2]
            for line in ds.stats().splitlines()
            if line.startswith("Operator ")]


@pytest.mark.parametrize("labelled", [False, True])
def test_raw_triples_is_one_fused_operator(ray_session, labelled):
    """Read, the partition labelling (run_resumable's form), extract,
    explode and the kernel run as ONE Ray Data operator.  A minimum
    bundle size on any of them (a ``batch_size=``) would keep the read
    out of the fusion and split the chain into two operators.  The
    corpus has more page files than twice the CPUs: Ray Data splits the
    blocks of a read with fewer files, and a split read is never fused."""
    from kb_ner_ray.data.synth import corpus_dir
    from kb_ner_ray.pipelines.kg import raw_triples, sentences_dataset
    from kb_ner_ray.pipelines.run import _partition_files

    corpus = corpus_dir(0.01)
    pages = corpus
    if labelled:
        pages = {f: f"{p:04d}" for p, files in enumerate(
            _partition_files(corpus, 8)) for f in files}
    raw = raw_triples(sentences_dataset(pages), corpus).materialize()
    assert raw.count() > 0
    label = "MapBatches(_label_pages)->" if labelled else ""
    assert _operators(raw) == [
        f"ReadParquet->{label}MapBatches(extract_pages)->"
        "MapBatches(explode_sentences)->"
        "MapBatches(retrieve_tag_triples_shared)"]


def test_split_read_is_two_operators(ray_session):
    """Pins the plan the fused-operator test avoids: corpus_dir(0.001)
    has 2 page files, fewer than twice the session's 4 CPUs, so Ray Data
    splits each read block in 4, and a split read does not fuse into
    the map.  Measured at 4 logical CPUs with the reservation off and on,
    this plan runs 0.6-1.9 kernel tasks at a time on average either way,
    so turning the reservation off does not give it its width back."""
    from kb_ner_ray.data.synth import corpus_dir
    from kb_ner_ray.pipelines.kg import raw_triples, sentences_dataset

    corpus = corpus_dir(0.001)
    raw = raw_triples(sentences_dataset(corpus), corpus).materialize()
    assert raw.count() > 0
    assert _operators(raw) == [
        "ReadParquet->SplitBlocks(4)",
        "MapBatches(extract_pages)->MapBatches(explode_sentences)->"
        "MapBatches(retrieve_tag_triples_shared)"]


def _sha256_rows(ds) -> str:
    import hashlib

    df = ds.to_pandas()
    rows = sorted(map(tuple, df[KEY_COLS].itertuples(index=False)))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_kg_triples_independent_of_read_blocks(ray_session):
    """Kernel batches follow the read blocks, so the triples must not
    depend on where the blocks split: one block for the whole corpus and
    one block per page file give kg_triples' rows exactly."""
    import glob

    from kb_ner_ray.data.synth import corpus_dir
    from kb_ner_ray.pipelines.kg import (
        canonical_triples, kg_triples, load_corpus_refs, raw_triples)

    corpus = corpus_dir(0.01)
    n_files = len(glob.glob(corpus + "/pages/*.parquet"))
    assert n_files > 1
    _kb_ref, _gaz_ref, ent_title = load_corpus_refs(corpus)
    want = _sha256_rows(kg_triples(corpus))
    for n_blocks in (1, n_files):
        sents = (ray.data.read_parquet(
            corpus + "/pages", columns=["url", "warc_ts", "html", "lang"],
            override_num_blocks=n_blocks)
            .map_batches(extract_pages, batch_format="pyarrow")
            .map_batches(explode_sentences, batch_format="pyarrow"))
        raw = raw_triples(sents, corpus).materialize()
        assert raw.num_blocks() == n_blocks
        assert _sha256_rows(canonical_triples(raw, ent_title)) == want


def test_apply_tasks_run_the_patched_apply(ray_session, monkeypatch):
    """``canonical_triples`` looks ``apply_canonical`` up per call and
    ships it to its tasks, so a wrapper patched onto ``kg`` on the driver
    (the traced benchmark's) is the one that runs."""
    from kb_ner_ray.data.synth import corpus_dir
    from kb_ner_ray.pipelines import kg

    original = kg.apply_canonical

    def marked(batch, canon_ref=None):
        out = original(batch, canon_ref=canon_ref)
        return out.append_column(
            "marker", pa.array([7] * out.num_rows, pa.int64()))

    monkeypatch.setattr(kg, "apply_canonical", marked)
    df = kg.kg_triples(corpus_dir(0.001)).to_pandas()
    assert len(df) > 0
    assert set(df["marker"]) == {7}


def _full_scan_spans(gaz, text, aug):
    """The oracle's trie tagging: every augmented token scanned, spans
    kept inside the sentence region."""
    n = len(text.split())
    return [s for s in gaz.mentions_via_codec(aug.split()) if s[1] <= n]


def _oracle_aug(k, text, hits):
    """The oracle's stitched ``aug_text`` of ``text`` and its hits."""
    from kb_ner_ray.data.oracle import attach_contexts_cached

    return attach_contexts_cached(
        text, [(k.kb_clean[i], k.kb_cost[i]) for i, _s in hits])[0]


def _kernel_spans(k, text, hits, backend="trie"):
    """The kernel's hits path: the budget walk, then the tagged region."""
    return k._spans(text, k._budget(text, hits), backend)[1]


@pytest.mark.parametrize("seed", [1, 7])
def test_trie_spans_equal_full_scan_on_corpus(seed):
    """The kernel's hits path tags only the sentence plus ``max_len - 1``
    look-ahead tokens, built from the contexts' cached splits; on every
    corpus sentence its spans equal the full scan of the oracle-stitched
    augmented text, and its ``aug`` text is the oracle's."""
    from kb_ner_ray.data.oracle import TOP_K, attach_contexts_cached
    from kb_ner_ray.stages.tagger import SentenceKernel

    corpus = generate_corpus(80, seed=seed)
    k = SentenceKernel(corpus["gazetteer"].to_pylist(),
                       corpus["kb"].to_pylist())
    assert k.gaz.max_len > 1
    n_spans = 0
    for row in corpus["sentences"].to_pylist():
        text = row["text"]
        hits = k.index.search(text, lang=row["lang"], k=TOP_K)
        aug = _oracle_aug(k, text, hits)
        spans = _kernel_spans(k, text, hits)
        assert spans == _full_scan_spans(k.gaz, text, aug), text
        assert k._attach(text, hits) == attach_contexts_cached(
            text, [(k.kb_clean[i], k.kb_cost[i]) for i, _s in hits])
        n_spans += len(spans)
    assert n_spans > 0


def _planted_kernel(surfaces, contexts):
    from kb_ner_ray.stages.tagger import SentenceKernel

    kb = [{"kb_id": i, "ent_id": i, "title": "T", "sentence": c, "s_id": 0}
          for i, c in enumerate(contexts)]
    return SentenceKernel([{"surface": s, "label": "LOC", "ent_id": i}
                           for i, s in enumerate(surfaces)], kb)


@pytest.mark.parametrize("surfaces,contexts,text,want", [
    # no contexts: the region is the sentence
    (["Acme", "Acme Corp"], [], "We like Acme Corp", [(2, 4, "LOC", 1.0)]),
    # the first context is shorter than max_len - 2 tokens, so the
    # look-ahead runs into the second: the 5-token surface starting at the
    # last sentence token wins over "Acme", then leaves the sentence region
    (["Acme", "Acme <EOS> c1 c2 c3"], ["c1", "c2 c3 c4"], "We like Acme",
     []),
    # a context that cleans to "" adds no token
    (["Acme", "Acme <EOS> c2"], ["\u200b", "c2 c3"], "We like Acme", []),
    # an attached context puts "<EOS>" in, even one that adds no token
    (["Acme", "Acme <EOS>"], ["\u200b"], "We like Acme", []),
])
def test_kernel_region_planted(surfaces, contexts, text, want):
    """Planted regions: the kernel's spans on the hits path equal the full
    scan of the oracle-stitched text, on the trie and viterbi backends."""
    from kb_ner_ray.functions.spans import decode_bioes

    k = _planted_kernel(surfaces, contexts)
    hits = [(i, 1.0) for i in range(len(contexts))]
    aug = _oracle_aug(k, text, hits)
    assert len(k._budget(text, hits)) == len(contexts)
    assert k.kb_clean.count("") == sum(not c.isprintable()
                                       for c in contexts)
    assert _kernel_spans(k, text, hits) == want
    assert want == _full_scan_spans(k.gaz, text, aug)
    viterbi = _kernel_spans(k, text, hits, "viterbi")
    assert viterbi == [s for s in decode_bioes(*k._codec.decode_tags(
        k.gaz.tag_tokens(aug.split()))) if s[1] <= len(text.split())]


@pytest.mark.parametrize("seed", range(4))
def test_budget_walk_equals_oracle_attach(seed):
    """The kernel's budget walk near the 510-subtoken budget: long
    sentences and contexts in random rank orders and rank windows attach
    what the oracle's ``attach_contexts_cached`` attaches."""
    import random

    from kb_ner_ray.data.oracle import attach_contexts_cached

    rnd = random.Random(seed)
    contexts = [" ".join(["w1"] * rnd.choice([rnd.randint(0, 8),
                                              rnd.randint(0, 150)]))
                for _ in range(30)]
    k = _planted_kernel(["w1"], contexts)
    for _ in range(300):
        text = " ".join(["s"] * rnd.randint(1, 505))
        hits = [(i, 1.0) for i in rnd.sample(range(30), rnd.randint(0, 10))]
        window = rnd.choice([{}, {"min_rank": rnd.randint(0, 3)},
                             {"max_rank": rnd.randint(0, 8)}])
        want = attach_contexts_cached(
            text, [(k.kb_clean[i], k.kb_cost[i]) for i, _s in hits],
            **window)
        assert k._attach(text, hits, **window) == want


@pytest.mark.parametrize("long_part", ["sentence", "contexts"])
def test_kernel_region_windowed_planted(monkeypatch, long_part):
    """An augmented sequence over the 510-token window takes the windowed
    branch with the full token list the stitched text splits into: a
    600-token sentence, or (under a zero-cost subtoken backend) a short
    sentence with 10 contexts of 60 tokens."""
    from kb_ner_ray.functions import tokenizer
    from kb_ner_ray.functions.spans import decode_bioes
    from kb_ner_ray.functions.windows import WINDOW, tag_tokens_windowed
    from kb_ner_ray.stages import tagger

    words = ["w%d" % (i % 7) for i in range(600)]
    surfaces = ["w1 w2", "w5", "Acme"]
    if long_part == "sentence":
        text, contexts = " ".join(words[:300] + ["Acme"] + words[300:]), []
    else:
        monkeypatch.setattr(tokenizer, "_counter", lambda _t: 0)
        text = "We like Acme w1 w2"
        contexts = [" ".join(words[60 * i:60 * i + 60]) for i in range(10)]
    k = _planted_kernel(surfaces, contexts)
    hits = [(i, 1.0) for i in range(len(contexts))]
    aug = _oracle_aug(k, text, hits).split()
    assert len(aug) > WINDOW
    seen = []

    def spy(tokens, tag_fn):
        seen.append(list(tokens))
        return tag_tokens_windowed(tokens, tag_fn)

    monkeypatch.setattr(tagger, "tag_tokens_windowed", spy)
    spans = _kernel_spans(k, text, hits)
    assert seen == [aug]
    n = len(text.split())
    assert spans == [s for s in decode_bioes(tag_tokens_windowed(
        aug, k.gaz.tag_tokens)) if s[1] <= n]
    assert (2, 3, "LOC", 1.0) in spans or (300, 301, "LOC", 1.0) in spans


@pytest.mark.parametrize("surfaces,text,aug,want", [
    # (a) the 3-token surface starting at the last sentence token runs
    # across <EOS>: it wins over "Acme", then leaves the sentence region
    (["Acme", "Acme <EOS> Corp"], "We like Acme",
     "We like Acme <EOS> Corp is big", []),
    # (b) a max_len-token surface ending exactly at the last sentence token
    (["New Haven Park", "Haven"], "Visit New Haven Park",
     "Visit New Haven Park <EOS> Haven is near New Haven Park",
     [(1, 4, "LOC", 1.0)]),
    # (c) single-token surfaces only: max_len == 1, no look-ahead
    (["Acme", "Corp"], "Acme rocks", "Acme rocks <EOS> Corp Acme",
     [(0, 1, "LOC", 1.0)]),
])
def test_trie_spans_lookahead_planted(surfaces, text, aug, want):
    """``aug``'s text after " <EOS> " is the one attached KB context."""
    k = _planted_kernel(surfaces, [aug.split(" <EOS> ", 1)[1]])
    assert k.gaz.max_len == max(len(s.split()) for s in surfaces)
    assert k._attach(text, [(0, 1.0)]) == (aug, 1)
    assert _kernel_spans(k, text, [(0, 1.0)]) == want
    assert want == _full_scan_spans(k.gaz, text, aug)
