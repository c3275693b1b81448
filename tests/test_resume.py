"""Resumable checkpoint/manifest semantics (north rule: resume exactly,
per-partition lineage + counters)."""

import json
import os

import pyarrow as pa
import pytest

from kb_ner_ray.state.manifest import (
    input_fingerprint,
    partition_done,
    read_manifests,
    write_partition_table,
)


def test_manifest_roundtrip(tmp_path):
    out = str(tmp_path / "out")
    t = pa.table({"a": [1, 2, 3]})
    write_partition_table(out, 0, t, "fp0", {"rows_in": 3})
    assert partition_done(out, 0, "fp0")
    assert not partition_done(out, 0, "fp-changed")
    assert not partition_done(out, 1, "fp0")
    ms = read_manifests(out)
    assert len(ms) == 1 and ms[0]["n_rows"] == 3
    assert ms[0]["counters"] == {"rows_in": 3, "n_rows": 3}


def test_manifest_atomic_overwrite(tmp_path):
    out = str(tmp_path / "out")
    write_partition_table(out, 0, pa.table({"a": [1]}), "fp0")
    write_partition_table(out, 0, pa.table({"a": [1, 2]}), "fp1")
    assert partition_done(out, 0, "fp1") and not partition_done(out, 0, "fp0")
    assert read_manifests(out)[0]["n_rows"] == 2


def test_fingerprint_tracks_content(tmp_path):
    p1 = tmp_path / "a.parquet"
    p1.write_bytes(b"xx")
    fp1 = input_fingerprint([str(p1)])
    p1.write_bytes(b"xxyy")
    assert input_fingerprint([str(p1)]) != fp1


def test_corrupt_manifest_is_not_done(tmp_path):
    out = str(tmp_path / "out")
    write_partition_table(out, 0, pa.table({"a": [1]}), "fp0")
    mpath = os.path.join(out, "part=0000", "_MANIFEST.json")
    with open(mpath, "w") as f:
        f.write("{not json")
    assert not partition_done(out, 0, "fp0")


def test_resumable_run_skips_done_partitions(tmp_path):
    from kb_ner_ray.data.synth import corpus_dir
    from kb_ner_ray.pipelines.run import load_final_triples, run_resumable

    corpus = corpus_dir(0.001)
    out = str(tmp_path / "run")
    r1 = run_resumable(corpus, out, n_partitions=2)
    assert r1["skipped"] == [] and len(r1["computed"]) >= 1
    full = load_final_triples(out)

    # second run: everything skipped, same output
    r2 = run_resumable(corpus, out, n_partitions=2)
    assert r2["computed"] == [] and r2["skipped"] == r1["computed"]
    assert r2["n_triples"] == r1["n_triples"]

    # invalidate one partition -> only that one recomputes, output unchanged
    mpath = os.path.join(out, "raw", "part=0000", "_MANIFEST.json")
    with open(mpath) as f:
        m = json.load(f)
    m["input_fingerprint"] = "stale"
    with open(mpath, "w") as f:
        json.dump(m, f)
    r3 = run_resumable(corpus, out, n_partitions=2)
    assert r3["computed"] == [0]
    assert sorted(r3["skipped"]) == sorted(p for p in r1["computed"] if p != 0)
    again = load_final_triples(out)
    key = ["subj", "pred", "obj", "url", "sent_id"]
    want = sorted(tuple(r.values()) for r in full.select(key).to_pylist())
    got = sorted(tuple(r.values()) for r in again.select(key).to_pylist())
    assert got == want


def test_resumable_run_recovers_from_crashed_write(tmp_path):
    """A run killed mid-partition-write leaves a part=NNNN.tmp dir and no
    manifest; the next run must recompute that partition cleanly and the
    stale tmp must not leak into the final output."""
    import glob

    from kb_ner_ray.data.synth import corpus_dir
    from kb_ner_ray.pipelines.run import load_final_triples, run_resumable

    corpus = corpus_dir(0.001)
    out = str(tmp_path / "run")
    r1 = run_resumable(corpus, out, n_partitions=2)
    full = load_final_triples(out)

    # simulate a crash: destroy partition 1's landed dir, leave a torn tmp
    import shutil

    part_dir = os.path.join(out, "raw", "part=0001")
    tmp_dir = part_dir + ".tmp"
    shutil.rmtree(part_dir)
    os.makedirs(tmp_dir, exist_ok=True)
    with open(os.path.join(tmp_dir, "garbage.parquet"), "w") as f:
        f.write("not parquet")

    r2 = run_resumable(corpus, out, n_partitions=2)
    assert 1 in r2["computed"] and 0 in r2["skipped"]
    assert r2["n_triples"] == r1["n_triples"]
    # torn tmp replaced, no stray garbage in the raw glob
    assert not glob.glob(os.path.join(out, "raw", "part=*.tmp", "*"))
    again = load_final_triples(out)
    key = ["subj", "pred", "obj", "url", "sent_id"]
    want = sorted(tuple(r.values()) for r in full.select(key).to_pylist())
    got = sorted(tuple(r.values()) for r in again.select(key).to_pylist())
    assert got == want


def test_resumable_run_survives_crashed_final_swap(tmp_path, monkeypatch):
    """A crash during the final triples/ swap never loses the last
    complete output, and the next run finishes the swap."""
    from kb_ner_ray.data.synth import corpus_dir
    from kb_ner_ray.pipelines.run import load_final_triples, run_resumable

    corpus = corpus_dir(0.001)
    out = str(tmp_path / "run")
    run_resumable(corpus, out, n_partitions=2)
    key = ["subj", "pred", "obj", "url", "sent_id"]
    want = sorted(tuple(r.values())
                  for r in load_final_triples(out).select(key).to_pylist())

    # every partition is skipped on the rerun, so only the swap calls it
    def crash(src, dst):
        raise OSError("injected crash in the final swap")

    with monkeypatch.context() as m:
        m.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="injected crash"):
            run_resumable(corpus, out, n_partitions=2)
    # the crash hit between moving triples/ aside and swapping the new in
    assert not os.path.exists(os.path.join(out, "triples"))
    got = sorted(tuple(r.values())
                 for r in load_final_triples(out).select(key).to_pylist())
    assert got == want

    r = run_resumable(corpus, out, n_partitions=2)
    assert r["computed"] == []
    assert os.path.isdir(os.path.join(out, "triples"))
    assert not os.path.exists(os.path.join(out, "triples.old"))
    got = sorted(tuple(r.values())
                 for r in load_final_triples(out).select(key).to_pylist())
    assert got == want


def test_resumable_run_at_one_cpu(tmp_path):
    """At 1 logical CPU run_resumable finishes (its heavy stage is plain
    tasks, so no idle actor holds the only CPU slot), writes as many
    triples as kg_triples, and a rerun skips every partition."""
    import subprocess
    import sys

    out = str(tmp_path / "run")
    script = f"""
import json, ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
from kb_ner_ray.data.synth import corpus_dir
from kb_ner_ray.pipelines.kg import kg_triples
from kb_ner_ray.pipelines.run import run_resumable
corpus = corpus_dir(0.001)
n_kg = kg_triples(corpus).count()
r1 = run_resumable(corpus, {out!r})
r2 = run_resumable(corpus, {out!r})
print(json.dumps({{"n_kg": n_kg, "r1": r1, "r2": r2}}))
ray.shutdown()
"""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run([sys.executable, "-c", script], cwd=root,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    r1, r2 = res["r1"], res["r2"]
    assert r1["n_triples"] == res["n_kg"] > 0
    assert r1["skipped"] == [] and len(r1["computed"]) >= 1
    assert r2["computed"] == [] and r2["skipped"] == r1["computed"]
