"""Training-corpus shard export (pipelines/export.py): deterministic
order parity, manifest-tracked resume, fingerprint invalidation."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray


def _docs(n=60):
    return pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array([f"doc {i} body" for i in range(n)], pa.string()),
    })


def test_export_matches_deterministic_shuffle(ray_session, tmp_path):
    from kb_ner_ray.pipelines.export import (export_training_shards,
                                             read_training_order)
    from kb_ner_ray.stages.partitioning import deterministic_shuffle

    docs = _docs()
    f = str(tmp_path / "docs.parquet")
    pq.write_table(docs, f)
    ds = ray.data.from_arrow(docs).repartition(3)
    out = str(tmp_path / "shards")
    r = export_training_shards(ds, out, n_shards=4, input_files=[f])
    assert r["computed"] == [0, 1, 2, 3] and not r["skipped"]
    back = read_training_order(out).to_pandas()
    idx = (deterministic_shuffle(ray.data.from_arrow(docs), n_shards=4)
           .to_pandas().sort_values(["shard", "pos"]))
    assert back["doc_id"].tolist() == idx["doc_id"].tolist()
    assert sorted(back["text"]) == sorted(docs["text"].to_pylist())
    assert (tmp_path / "shards" / "_DONE").exists()


def test_export_resume_and_invalidation(ray_session, tmp_path):
    from kb_ner_ray.pipelines.export import export_training_shards
    from kb_ner_ray.state.manifest import landed_dirs

    d = tmp_path / "src"
    d.mkdir()
    f = str(d / "p.parquet")
    pq.write_table(_docs(), f)
    ds = ray.data.read_parquet(f)
    out = str(tmp_path / "shards")
    r1 = export_training_shards(ds, out, n_shards=3, input_files=[f])
    assert len(r1["computed"]) == 3
    # rerun: every shard skipped off its manifest fingerprint
    r2 = export_training_shards(ds, out, n_shards=3, input_files=[f])
    assert r2["skipped"] == [0, 1, 2] and not r2["computed"]
    # input change (size differs) invalidates every shard
    pq.write_table(_docs(61), f)
    ds2 = ray.data.read_parquet(f)
    r3 = export_training_shards(ds2, out, n_shards=3, input_files=[f])
    assert len(r3["computed"]) == 3 and not r3["skipped"]
    assert [os.path.exists(os.path.join(d, "_MANIFEST.json"))
            for d in landed_dirs(out)] == [True] * 3


def test_corpus_export_binds_shards_to_its_documents(ray_session, tmp_path):
    """``q_corpus_export`` names its out_dir after the sf dir's basename
    and its documents' fingerprint: an export of another sf dir of the
    same name exports its own documents, not the first export's."""
    import glob
    import shutil

    from kb_ner_ray.pipelines.queries.documents import q_corpus_export

    name = tmp_path.name
    dirs = {n: tmp_path / str(n) / name for n in (60, 30)}
    for n, d in dirs.items():
        d.mkdir(parents=True)
        pq.write_table(_docs(n), str(d / "documents.parquet"))
    try:
        for n, d in dirs.items():
            got = q_corpus_export(str(d))
            assert sorted(got["doc_id"].to_pylist()) == list(range(n))
    finally:
        for out in glob.glob(f"/tmp/kbner_export/{name}-*"):
            shutil.rmtree(out)


def test_corpus_export_resumes_its_own_export(ray_session, tmp_path,
                                              monkeypatch):
    """A second ``q_corpus_export`` of the same documents resumes the
    first one's export: it computes no shard, and one export dir holds
    both."""
    import glob
    import shutil

    from kb_ner_ray.pipelines import export
    from kb_ner_ray.pipelines.queries.documents import q_corpus_export

    runs = []
    exported = export.export_training_shards

    def recording(*args, **kwargs):
        runs.append(exported(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(export, "export_training_shards", recording)
    sf = tmp_path / tmp_path.name
    sf.mkdir()
    pq.write_table(_docs(40), str(sf / "documents.parquet"))
    pattern = f"/tmp/kbner_export/{sf.name}-*"
    before = set(glob.glob(pattern))
    try:
        got = [sorted(q_corpus_export(str(sf))["doc_id"].to_pylist())
               for _ in range(2)]
        assert got == [list(range(40))] * 2
        assert runs[0]["computed"] and runs[1]["computed"] == []
        assert len(set(glob.glob(pattern)) - before) == 1
    finally:
        for out in set(glob.glob(pattern)) - before:
            shutil.rmtree(out)
