"""Resumable checkpoint/manifest semantics (north rule: resume exactly,
per-partition lineage + counters)."""

import ast
import hashlib
import json
import os
import pathlib
import time

import psutil
import pyarrow as pa
import pytest

from kb_ner_ray.state.manifest import (
    input_fingerprint,
    landed_dirs,
    partition_done,
    scratch,
    write_partition,
)

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _manifests(out):
    """The manifests of the published partitions of ``out``."""
    ms = []
    for d in landed_dirs(out):
        with open(os.path.join(d, "_MANIFEST.json")) as f:
            ms.append(json.load(f))
    return ms


def test_manifest_roundtrip(tmp_path):
    out = str(tmp_path / "out")
    t = pa.table({"a": [1, 2, 3]})
    write_partition(out, 0, t, "fp0", {"rows_in": 3})
    assert partition_done(out, 0, "fp0")
    assert not partition_done(out, 0, "fp-changed")
    assert not partition_done(out, 1, "fp0")
    ms = _manifests(out)
    assert len(ms) == 1 and ms[0]["n_rows"] == 3
    assert ms[0]["counters"] == {"rows_in": 3, "n_rows": 3}


def test_manifest_atomic_overwrite(tmp_path):
    out = str(tmp_path / "out")
    write_partition(out, 0, pa.table({"a": [1]}), "fp0")
    write_partition(out, 0, pa.table({"a": [1, 2]}), "fp1")
    assert partition_done(out, 0, "fp1") and not partition_done(out, 0, "fp0")
    assert _manifests(out)[0]["n_rows"] == 2


def test_fingerprint_tracks_content(tmp_path):
    p1 = tmp_path / "a.parquet"
    p1.write_bytes(b"xx")
    fp1 = input_fingerprint([str(p1)])
    p1.write_bytes(b"xxyy")
    assert input_fingerprint([str(p1)]) != fp1
    # a rewrite at the same size, at another modification time
    os.utime(p1, ns=(1_000_000_000, 1_000_000_000))
    fp2 = input_fingerprint([str(p1)])
    p1.write_bytes(b"zzww")
    os.utime(p1, ns=(2_000_000_000, 2_000_000_000))
    assert input_fingerprint([str(p1)]) != fp2


def test_corrupt_manifest_is_not_done(tmp_path):
    out = str(tmp_path / "out")
    write_partition(out, 0, pa.table({"a": [1]}), "fp0")
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


def _dead_scratch(parent, host=None):
    """The scratch dir a process that is gone made under ``parent``: a
    subprocess makes it (named for ``host`` when given) and exits."""
    import subprocess
    import sys

    script = ("import socket, sys\n"
              + (f"socket.gethostname = lambda: {host!r}\n" if host else "")
              + "from kb_ner_ray.state.manifest import scratch\n"
              "print(scratch(sys.argv[1]))\n")
    proc = subprocess.run([sys.executable, "-c", script, parent],
                          cwd=_ROOT, capture_output=True, text=True,
                          check=True)
    return proc.stdout.strip()


def test_resumable_run_recovers_from_crashed_write(tmp_path):
    """A run killed between partition 1's manifest write and its rename
    leaves partition 1 in its scratch dir, manifest and all, and no
    published dir; the next run must recompute that partition, remove the
    dead process's scratch dir, and keep its files out of the final
    output.  A scratch dir named for another host is never removed: its
    pid says nothing about that host's processes."""
    import shutil

    from kb_ner_ray.data.synth import corpus_dir
    from kb_ner_ray.pipelines.run import load_final_triples, run_resumable

    corpus = corpus_dir(0.001)
    out = str(tmp_path / "run")
    raw_dir = os.path.join(out, "raw")
    r1 = run_resumable(corpus, out, n_partitions=2)
    full = load_final_triples(out)

    # simulate the crash: partition 1's finished dir back in a dead
    # process's scratch dir, with a stray file beside its data
    dead = _dead_scratch(raw_dir)
    foreign = _dead_scratch(raw_dir, host="another-node")
    for d in (dead, foreign):
        shutil.copytree(os.path.join(raw_dir, "part=0001"),
                        os.path.join(d, "part=0001"))
        with open(os.path.join(d, "part=0001", "garbage.parquet"),
                  "w") as f:
            f.write("not parquet")
    shutil.rmtree(os.path.join(raw_dir, "part=0001"))
    assert os.path.exists(os.path.join(dead, "part=0001", "_MANIFEST.json"))

    r2 = run_resumable(corpus, out, n_partitions=2)
    assert r2["computed"] == [1] and r2["skipped"] == [0]
    assert r2["n_triples"] == r1["n_triples"]
    assert not os.path.exists(dead)
    assert os.path.exists(os.path.join(foreign, "part=0001",
                                       "garbage.parquet"))
    again = load_final_triples(out)
    key = ["subj", "pred", "obj", "url", "sent_id"]
    want = sorted(tuple(r.values()) for r in full.select(key).to_pylist())
    got = sorted(tuple(r.values()) for r in again.select(key).to_pylist())
    assert got == want


# the driver dies between partition 1's manifest write and its rename;
# a marker file arms the crash, and the crashing process removes it
_KILLED_RUN = """
import json, os, sys
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
from kb_ner_ray.data.synth import corpus_dir
from kb_ner_ray.pipelines.run import run_resumable

out, marker = sys.argv[1], sys.argv[2]
rename = os.replace


def replace(src, dst):
    if os.path.exists(marker) and os.path.basename(dst) == "part=0001":
        assert os.path.exists(os.path.join(src, "_MANIFEST.json"))
        os.remove(marker)
        os._exit(17)
    return rename(src, dst)


os.replace = replace
print(json.dumps(run_resumable(corpus_dir(0.001), out, n_partitions=2)))
ray.shutdown()
"""


def test_resumable_run_resumes_after_driver_killed_before_rename(tmp_path):
    """A real fault: the driver process exits between partition 1's
    manifest write and its rename.  A fresh process reruns: it computes
    only partition 1, removes the dead process's scratch dir, and writes
    the final triples of an uninterrupted run.

    The killed driver's Ray agents outlive it, orphaned in their own
    process group: every process of its Ray instance is recorded while it
    runs and stopped once it has died, and none may stay alive."""
    import glob
    import hashlib
    import subprocess
    import sys

    from kb_ner_ray.data.synth import corpus_dir
    from kb_ner_ray.pipelines.run import run_resumable

    clean = str(tmp_path / "clean")
    run_resumable(corpus_dir(0.001), clean, n_partitions=2)
    out, marker = str(tmp_path / "run"), str(tmp_path / "crash-armed")
    raw_dir = os.path.join(out, "raw")
    open(marker, "w").close()

    log = tmp_path / "killed.log"
    with open(log, "w") as f:
        killed = subprocess.Popen(
            [sys.executable, "-c", _KILLED_RUN, out, marker], cwd=_ROOT,
            stdout=subprocess.DEVNULL, stderr=f)
    instance = _descendants_until_exit(killed, timeout=300)
    left = _stop(instance)
    assert killed.returncode == 17, log.read_text()[-2000:]
    assert instance and not left, left
    assert not os.path.exists(marker)
    assert landed_dirs(raw_dir) == [os.path.join(raw_dir, "part=0000")]
    left = f"*.{killed.pid}"
    assert glob.glob(os.path.join(raw_dir, left, "**", "_MANIFEST.json"),
                     recursive=True)

    rerun = subprocess.run(
        [sys.executable, "-c", _KILLED_RUN, out, marker], cwd=_ROOT,
        capture_output=True, text=True, timeout=300)
    assert rerun.returncode == 0, rerun.stderr[-2000:]
    r = json.loads(rerun.stdout.strip().splitlines()[-1])
    assert r["computed"] == [1] and r["skipped"] == [0]
    assert not glob.glob(os.path.join(raw_dir, left))

    def digest(rows):
        return hashlib.sha256(repr(rows).encode()).hexdigest()

    assert digest(_final_rows(out)) == digest(_final_rows(clean))


def _descendants_until_exit(proc, timeout: float) -> set:
    """Every process descended from the running ``proc``, polled until it
    exits (killed at ``timeout``)."""
    seen = set()
    deadline = time.monotonic() + timeout
    while proc.poll() is None:
        if time.monotonic() > deadline:
            proc.kill()
        try:
            seen.update(psutil.Process(proc.pid).children(recursive=True))
        except psutil.NoSuchProcess:
            pass
        time.sleep(0.05)
    return seen


def _stop(procs: set) -> list:
    """Terminate, then kill, each of ``procs``; the ones still alive."""
    def alive(p):
        try:
            return p.is_running() and p.status() != psutil.STATUS_ZOMBIE
        except psutil.NoSuchProcess:
            return False

    for signal in ("terminate", "kill"):
        for p in procs:
            if alive(p):
                try:
                    getattr(p, signal)()
                except psutil.NoSuchProcess:
                    pass
        deadline = time.monotonic() + 10
        while any(map(alive, procs)) and time.monotonic() < deadline:
            time.sleep(0.05)
    return [p for p in procs if alive(p)]


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

    # an output written before triples/ had a manifest: the rerun rebuilds
    # it, and every partition is skipped, so only the swap calls replace
    os.remove(os.path.join(out, "triples", "_MANIFEST.json"))

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
    proc = subprocess.run([sys.executable, "-c", script], cwd=_ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    r1, r2 = res["r1"], res["r2"]
    assert r1["n_triples"] == res["n_kg"] > 0
    assert r1["skipped"] == [] and len(r1["computed"]) >= 1
    assert r2["computed"] == [] and r2["skipped"] == r1["computed"]


# ---- one job for every missing partition, link counts per partition ------

_KEY = ["subj", "pred", "obj", "url", "sent_id"]


def _final_rows(out):
    from kb_ner_ray.pipelines.run import load_final_triples

    return sorted(tuple(r.values()) for r in
                  load_final_triples(out).select(_KEY).to_pylist())


def _corpus_copy(tmp_path, n_files=2, empty=(), html=b""):
    """The sf0.001 corpus with its pages split over ``n_files`` files; the
    pages of the files numbered in ``empty`` get ``html`` (empty by
    default) in place of theirs."""
    import shutil

    import pyarrow.parquet as pq

    from kb_ner_ray.data.synth import corpus_dir
    from kb_ner_ray.pipelines.kg import _read_table_dir

    src, dst = corpus_dir(0.001), str(tmp_path / "corpus")
    shutil.copytree(src, dst, ignore=shutil.ignore_patterns("pages"))
    os.makedirs(os.path.join(dst, "pages"))
    pages = _read_table_dir(src + "/pages")
    step = -(-pages.num_rows // n_files)
    for i in range(n_files):
        t = pages.slice(i * step, step)
        if i in empty:
            t = t.set_column(t.schema.get_field_index("html"), "html",
                             pa.array([html] * t.num_rows, t["html"].type))
        pq.write_table(t, os.path.join(dst, "pages",
                                       f"part-{i:05d}.parquet"))
    return dst


def _check_partitions(out, corpus):
    """Per partition: manifest n_rows == its Parquet footers, link counts
    sum to n_linked_sides (itself recounted from the raw triples), raw
    files hold exactly the raw-triples schema; and the canonical map from
    the per-partition counts equals the one rebuilt from the raw triples."""
    import glob

    import pyarrow.compute as pc
    import pyarrow.feather as feather
    import pyarrow.parquet as pq
    import ray

    from kb_ner_ray.pipelines.kg import load_corpus_refs
    from kb_ner_ray.stages.canonicalize import (
        LINK_COUNTS_SCHEMA,
        canonical_map,
        compute_canonical_map,
    )
    from kb_ner_ray.stages.tagger import SCHEMAS
    from kb_ner_ray.state.manifest import LINK_COUNTS, landed_dirs

    raw_dir = os.path.join(out, "raw")
    dirs = landed_dirs(raw_dir)
    assert dirs
    counts, raw_files = [], []
    for d in dirs:
        with open(os.path.join(d, "_MANIFEST.json")) as f:
            m = json.load(f)
        files = sorted(glob.glob(os.path.join(d, "*.parquet")))
        raw_files += files
        assert m["n_rows"] == sum(pq.ParquetFile(f).metadata.num_rows
                                  for f in files)
        n_linked = 0
        for f in files:
            assert pq.read_schema(f) == pa.schema(SCHEMAS["triples"])
            t = pq.read_table(f)
            for col in ("subj_ent", "obj_ent"):
                n_linked += pc.sum(pc.greater_equal(t[col], 0)).as_py() or 0
        lc = feather.read_table(os.path.join(d, LINK_COUNTS))
        assert lc.schema == LINK_COUNTS_SCHEMA
        assert (pc.sum(lc["cnt"]).as_py() or 0) == \
            m["counters"]["n_linked_sides"] == n_linked
        counts.append(lc)
    ent_title = load_corpus_refs(corpus)[2]
    assert canonical_map(counts, ent_title) == compute_canonical_map(
        ray.data.read_parquet(raw_files), ent_title)


def test_resumable_counts_conserve_and_match_raw_rescan(tmp_path):
    from kb_ner_ray.data.synth import corpus_dir
    from kb_ner_ray.pipelines.run import run_resumable

    corpus = corpus_dir(0.001)
    out = str(tmp_path / "run")
    r1 = run_resumable(corpus, out, n_partitions=2)
    assert r1["computed"] == [0, 1]
    _check_partitions(out, corpus)

    mpath = os.path.join(out, "raw", "part=0001", "_MANIFEST.json")
    with open(mpath) as f:
        m = json.load(f)
    m["input_fingerprint"] = "stale"
    with open(mpath, "w") as f:
        json.dump(m, f)
    r2 = run_resumable(corpus, out, n_partitions=2)
    assert r2["computed"] == [1] and r2["skipped"] == [0]
    _check_partitions(out, corpus)


def test_resumable_run_is_one_heavy_job(tmp_path, monkeypatch):
    """Every missing partition comes out of ONE write_parquet into the raw
    staging dir, the run's only Ray Data job write; a run with nothing
    missing submits none."""
    from ray.data import Dataset

    from kb_ner_ray.pipelines.run import run_resumable

    corpus = _corpus_copy(tmp_path, n_files=8)
    out = str(tmp_path / "run")
    raw_dir = os.path.join(out, "raw")
    writes = []
    real = Dataset.write_parquet

    def counting(self, path, *args, **kwargs):
        writes.append(path)
        return real(self, path, *args, **kwargs)

    monkeypatch.setattr(Dataset, "write_parquet", counting)

    r1 = run_resumable(corpus, out, n_partitions=8)
    assert r1["computed"] == list(range(8))
    assert writes == [scratch(raw_dir)]
    writes.clear()
    r2 = run_resumable(corpus, out, n_partitions=8)
    assert r2["computed"] == [] and r2["skipped"] == list(range(8))
    assert writes == []
    assert r2["n_triples"] == r1["n_triples"] > 0


def test_resumable_run_recovers_from_crash_mid_landing(tmp_path,
                                                       monkeypatch):
    """A crash after the first partition is published: the run raises,
    the rerun computes only the unlanded partition, the final triples
    equal a clean run's, and no staged file is ever in the raw glob."""
    import glob

    from kb_ner_ray.data.synth import corpus_dir
    from kb_ner_ray.pipelines import run

    corpus = corpus_dir(0.001)
    run.run_resumable(corpus, str(tmp_path / "clean"), n_partitions=2)
    want = _final_rows(str(tmp_path / "clean"))

    out = str(tmp_path / "run")
    raw_dir = os.path.join(out, "raw")
    real, landed, staged = run.publish, [], []

    def raw_glob_is_published():
        for f in glob.glob(os.path.join(raw_dir, "part=*", "*.parquet")):
            d = os.path.dirname(f)
            assert os.path.basename(d) in {f"part={p:04d}" for p in landed}
            assert os.path.exists(os.path.join(d, "_MANIFEST.json"))

    def landing(out_dir, part_id, src, fingerprint, **kwargs):
        raw_glob_is_published()
        staged.extend(glob.glob(os.path.join(raw_dir, "_scratch.*", "*",
                                             "*.parquet")))
        if landed:
            raise RuntimeError("injected crash mid-landing")
        counters = real(out_dir, part_id, src, fingerprint, **kwargs)
        landed.append(part_id)
        raw_glob_is_published()
        return counters

    with monkeypatch.context() as m:
        m.setattr(run, "publish", landing)
        with pytest.raises(RuntimeError, match="injected crash"):
            run.run_resumable(corpus, out, n_partitions=2)
    assert landed == [0] and staged
    raw_glob_is_published()

    r = run.run_resumable(corpus, out, n_partitions=2)
    assert r["computed"] == [1] and r["skipped"] == [0]
    assert _final_rows(out) == want
    assert not glob.glob(os.path.join(raw_dir, "_scratch*"))


def test_resumable_run_recomputes_partition_without_link_counts(tmp_path):
    """A partition landed in the older layout (manifest, no link-counts
    file) is recomputed, not skipped: skipping it would drop its counts
    from the canonical map."""
    from kb_ner_ray.data.synth import corpus_dir
    from kb_ner_ray.pipelines.run import run_resumable
    from kb_ner_ray.state.manifest import LINK_COUNTS

    corpus = corpus_dir(0.001)
    out = str(tmp_path / "run")
    run_resumable(corpus, out, n_partitions=2)
    want = _final_rows(out)
    lc = os.path.join(out, "raw", "part=0000", LINK_COUNTS)
    os.remove(lc)
    r = run_resumable(corpus, out, n_partitions=2)
    assert r["computed"] == [0] and r["skipped"] == [1]
    assert os.path.exists(lc)
    assert _final_rows(out) == want


def test_resumable_run_lands_empty_partition(tmp_path):
    """A partition whose pages yield no triples lands with n_rows 0 and
    an empty typed link-counts table, and the rerun skips it."""
    import pyarrow.feather as feather

    from kb_ner_ray.pipelines.run import run_resumable
    from kb_ner_ray.stages.canonicalize import LINK_COUNTS_SCHEMA
    from kb_ner_ray.state.manifest import LINK_COUNTS

    corpus = _corpus_copy(tmp_path, n_files=2, empty=(1,))
    out = str(tmp_path / "run")
    r1 = run_resumable(corpus, out, n_partitions=2)
    assert r1["computed"] == [0, 1] and r1["n_triples"] > 0
    part1 = os.path.join(out, "raw", "part=0001")
    with open(os.path.join(part1, "_MANIFEST.json")) as f:
        m = json.load(f)
    assert m["n_rows"] == 0 and m["counters"]["n_linked_sides"] == 0
    lc = feather.read_table(os.path.join(part1, LINK_COUNTS))
    assert lc.num_rows == 0 and lc.schema == LINK_COUNTS_SCHEMA
    _check_partitions(out, corpus)

    r2 = run_resumable(corpus, out, n_partitions=2)
    assert r2["computed"] == [] and r2["skipped"] == [0, 1]
    assert r2["n_triples"] == r1["n_triples"]

    # recomputing only the empty partition: the job writes no rows at all
    mpath = os.path.join(part1, "_MANIFEST.json")
    m["input_fingerprint"] = "stale"
    with open(mpath, "w") as f:
        json.dump(m, f)
    r3 = run_resumable(corpus, out, n_partitions=2)
    assert r3["computed"] == [1] and r3["skipped"] == [0]
    assert r3["n_triples"] == r1["n_triples"]
    _check_partitions(out, corpus)


def test_resumable_run_of_corpus_without_triples(tmp_path):
    """A corpus whose pages yield no triples: the run finishes with 0
    triples, the final output reads as an empty typed table, and the
    rerun skips every partition."""
    from kb_ner_ray.data.schemas import TRIPLES
    from kb_ner_ray.pipelines.run import load_final_triples, run_resumable

    corpus = _corpus_copy(tmp_path, n_files=4, empty=range(4),
                          html=b"<p>nothing here at all.</p>")
    out = str(tmp_path / "run")
    r1 = run_resumable(corpus, out, n_partitions=4)
    assert r1["computed"] == [0, 1, 2, 3] and r1["n_triples"] == 0
    final = load_final_triples(out)
    assert final.num_rows == 0 and final.schema == TRIPLES
    r2 = run_resumable(corpus, out, n_partitions=4)
    assert r2["computed"] == [] and r2["skipped"] == [0, 1, 2, 3]
    assert r2["n_triples"] == 0


def test_resumable_run_keeps_live_foreign_scratch(tmp_path, monkeypatch):
    """A run deletes only its own scratch dir and those of processes that
    are gone: a concurrent run's files survive."""
    from kb_ner_ray.pipelines.run import run_resumable

    corpus = _corpus_copy(tmp_path, n_files=2)
    out = str(tmp_path / "run")
    raw_dir = os.path.join(out, "raw")
    with monkeypatch.context() as m:  # a live process's: our parent's
        m.setattr(os, "getpid", os.getppid)
        live = os.path.join(scratch(raw_dir), "part=0000")
    gone = os.path.join(_dead_scratch(raw_dir), "part=0000")
    for d in (live, gone):
        os.makedirs(d)
        with open(os.path.join(d, "x.parquet"), "w") as f:
            f.write("staged")
    r = run_resumable(corpus, out, n_partitions=2)
    assert r["computed"] == [0, 1]
    assert os.path.exists(os.path.join(live, "x.parquet"))
    assert not os.path.exists(os.path.dirname(gone))
    _check_partitions(out, corpus)


def test_resumable_run_ignores_partitions_beyond_split(tmp_path):
    """Partition dirs left by an earlier run with more partitions stay out
    of the canonical map and the final triples."""
    from kb_ner_ray.pipelines.run import run_resumable

    corpus = _corpus_copy(tmp_path, n_files=4)
    run_resumable(corpus, str(tmp_path / "clean"), n_partitions=2)
    want = _final_rows(str(tmp_path / "clean"))

    out = str(tmp_path / "run")
    r1 = run_resumable(corpus, out, n_partitions=4)
    assert r1["computed"] == [0, 1, 2, 3]
    r2 = run_resumable(corpus, out, n_partitions=2)
    assert r2["computed"] == [0, 1]
    assert os.path.isdir(os.path.join(out, "raw", "part=0003"))
    assert _final_rows(out) == want
    assert r2["n_triples"] == len(want)


def _halve_gazetteer(corpus):
    """Rewrite the corpus's gazetteer file in place with its first half."""
    import pyarrow.parquet as pq

    f = os.path.join(corpus, "gazetteer", "part-00000.parquet")
    t = pq.read_table(f)
    pq.write_table(t.slice(0, t.num_rows // 2), f)
    return t.num_rows // 2


def test_corpus_refs_follow_rewritten_gazetteer(tmp_path):
    """A gazetteer file rewritten in place is broadcast afresh: the same
    driver ships the new rows, not the refs of the first load."""
    import ray

    from kb_ner_ray.pipelines.kg import load_corpus_refs

    corpus = _corpus_copy(tmp_path)
    first = load_corpus_refs(corpus)
    assert load_corpus_refs(corpus) is first
    n = _halve_gazetteer(corpus)
    assert len(ray.get(load_corpus_refs(corpus)[1])) == n


def test_resumable_rerun_after_gazetteer_rewrite(tmp_path):
    """Every partition's triples depend on the gazetteer: after it is
    rewritten, a rerun recomputes every partition and returns the triples
    of a fresh run."""
    from kb_ner_ray.pipelines.run import run_resumable

    corpus = _corpus_copy(tmp_path, n_files=4)
    out = str(tmp_path / "run")
    run_resumable(corpus, out, n_partitions=4)
    _halve_gazetteer(corpus)
    r = run_resumable(corpus, out, n_partitions=4)
    assert r["computed"] == [0, 1, 2, 3] and r["skipped"] == []
    fresh = str(tmp_path / "fresh")
    assert r["n_triples"] == run_resumable(corpus, fresh,
                                           n_partitions=4)["n_triples"]
    assert _final_rows(out) == _final_rows(fresh)
    _check_partitions(out, corpus)


# ---- the final triples keep their own manifest ---------------------------


def _digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_resumable_noop_rerun_does_no_work(tmp_path, monkeypatch):
    """A rerun over unchanged inputs finds triples/ built from them and
    returns its row count: it runs no job, counts no links, loads and
    broadcasts no KB side, makes no scratch dir, writes no final file and
    leaves triples/ as it is."""
    import types

    import ray
    from ray.data import Dataset

    from kb_ner_ray.pipelines import kg, run

    corpus = _corpus_copy(tmp_path, n_files=4)
    out = str(tmp_path / "run")
    r1 = run.run_resumable(corpus, out, n_partitions=4)
    assert r1["computed"] == [0, 1, 2, 3] and r1["n_triples"] > 0
    before = os.stat(os.path.join(out, "triples"))

    calls = []

    def forbidden(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"a no-op rerun called {name}")
        return call

    monkeypatch.setattr(Dataset, "write_parquet", forbidden("write_parquet"))
    for name in ("_count_links", "_write_final"):  # remote functions
        monkeypatch.setattr(run, name,
                            types.SimpleNamespace(remote=forbidden(name)))
    for name in ("canonical_map", "scratch"):
        monkeypatch.setattr(run, name, forbidden(name))
    monkeypatch.setattr(ray, "put", forbidden("ray.put"))
    monkeypatch.setattr(kg, "_REFS_CACHE", {})  # a fresh driver's

    r2 = run.run_resumable(corpus, out, n_partitions=4)
    assert calls == [] and kg._REFS_CACHE == {}
    assert r2 == {"computed": [], "skipped": [0, 1, 2, 3],
                  "n_triples": r1["n_triples"]}
    after = os.stat(os.path.join(out, "triples"))
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino,
                                                 before.st_mtime_ns)


def _make_stale(case, corpus, out):
    """Make ``out``'s final triples stale, or lose them, as ``case``
    names; returns the partition count of the rerun."""
    import glob

    import pyarrow.parquet as pq

    final = os.path.join(out, "triples")
    if case == "page file rewritten":
        f = os.path.join(corpus, "pages", "part-00001.parquet")
        t = pq.read_table(f)
        pq.write_table(t.slice(0, t.num_rows // 2), f)
    elif case == "gazetteer rewritten":
        _halve_gazetteer(corpus)
    elif case == "other n_partitions":
        return 2
    elif case == "no manifest":  # written before triples/ had one
        os.remove(os.path.join(final, "_MANIFEST.json"))
    elif case == "final file deleted":
        os.remove(sorted(glob.glob(os.path.join(final, "*.parquet")))[0])
    elif case == "only triples.old":  # a crash inside the final swap
        os.rename(final, final + ".old")
    return 4


@pytest.mark.parametrize("case", [
    "page file rewritten", "gazetteer rewritten", "other n_partitions",
    "no manifest", "final file deleted", "only triples.old"])
def test_resumable_rerun_rebuilds_stale_final_triples(tmp_path, monkeypatch,
                                                      case):
    """A triples/ that does not match the current inputs, or is gone, is
    rebuilt once, with the rows of a fresh run, and swapped in: no
    triples.old is left.  The rerun after that keeps it."""
    from kb_ner_ray.pipelines import run

    corpus = _corpus_copy(tmp_path, n_files=4)
    out, fresh = str(tmp_path / "run"), str(tmp_path / "fresh")
    run.run_resumable(corpus, out, n_partitions=4)
    n = _make_stale(case, corpus, out)
    want = run.run_resumable(corpus, fresh, n_partitions=n)["n_triples"]

    builds, real = [], run.canonical_map

    def counting(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(run, "canonical_map", counting)
    assert run.run_resumable(corpus, out, n_partitions=n)["n_triples"] == want
    assert len(builds) == 1
    assert _digest(_final_rows(out)) == _digest(_final_rows(fresh))
    assert os.path.isdir(os.path.join(out, "triples"))
    assert not os.path.exists(os.path.join(out, "triples.old"))
    assert run.run_resumable(corpus, out, n_partitions=n)["n_triples"] == want
    assert len(builds) == 1


def test_partition_manifest_records_its_lineage(tmp_path):
    """A raw partition's manifest names exactly its page files, with the
    size and modification time it was computed from, and the fingerprint
    of the broadcast sides."""
    import glob

    from kb_ner_ray.pipelines.kg import sides_fingerprint
    from kb_ner_ray.pipelines.run import run_resumable

    corpus = _corpus_copy(tmp_path, n_files=5)
    out = str(tmp_path / "run")
    n = 2
    run_resumable(corpus, out, n_partitions=n)
    files = sorted(glob.glob(os.path.join(corpus, "pages", "*.parquet")))
    with open(os.path.join(out, "raw", "part=0001", "_MANIFEST.json")) as f:
        lineage = json.load(f)["lineage"]
    assert [i["path"] for i in lineage["inputs"]] == files[1::n]
    for i in lineage["inputs"]:
        st = os.stat(i["path"])
        assert (i["size"], i["mtime_ns"]) == (st.st_size, st.st_mtime_ns)
    assert lineage["sides"] == sides_fingerprint(corpus)


def test_load_final_triples_needs_a_finished_run(tmp_path):
    """No final output is an error, not an empty table: an empty table
    means a finished run over a corpus with no triples."""
    from kb_ner_ray.data.schemas import TRIPLES
    from kb_ner_ray.pipelines.run import load_final_triples
    from kb_ner_ray.state.manifest import publish_output

    out = str(tmp_path / "run")
    with pytest.raises(FileNotFoundError):
        load_final_triples(out)
    os.makedirs(os.path.join(out, "raw"))  # died before its final write
    with pytest.raises(FileNotFoundError):
        load_final_triples(out)
    publish_output(scratch(out), os.path.join(out, "triples"), "fp", 0)
    final = load_final_triples(out)
    assert final.num_rows == 0 and final.schema == TRIPLES


# a Ray worker dies the first time it gets a batch of partition 1's rows:
# the wrapped kernel creates the marker file and exits, so the retried
# task (or a rerun) runs the kernel
_WORKER_KILLED_RUN = """
import json, os, sys
import pyarrow.compute as pc
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
from kb_ner_ray.data.synth import corpus_dir
from kb_ner_ray.pipelines import kg
from kb_ner_ray.pipelines.run import run_resumable

out, marker = sys.argv[1], sys.argv[2]
kernel = kg.retrieve_tag_triples_shared


def dies_once(batch, **kwargs):
    if pc.any(pc.equal(batch["part"], "0001")).as_py():
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            pass
        else:
            os._exit(1)
    return kernel(batch, **kwargs)


kg.retrieve_tag_triples_shared = dies_once
runs = []
try:
    runs.append(run_resumable(corpus_dir(0.001), out, n_partitions=2))
except Exception as e:  # Ray's retry did not land partition 1
    runs.append(repr(e)[-300:])
    runs.append(run_resumable(corpus_dir(0.001), out, n_partitions=2))
runs.append(run_resumable(corpus_dir(0.001), out, n_partitions=2))
print(json.dumps(runs))
ray.shutdown()
"""


def test_resumable_run_lands_partition_of_killed_worker(tmp_path):
    """A real fault in a worker: the process running partition 1's kernel
    exits.  Whether Ray's retry lands the partition or a rerun does, each
    partition lands once, with an uninterrupted run's row count, the
    final triples are an uninterrupted run's, the next rerun skips every
    partition, and no process of the run's Ray instance outlives it."""
    import glob
    import subprocess
    import sys

    from kb_ner_ray.data.synth import corpus_dir
    from kb_ner_ray.pipelines.run import run_resumable

    clean = str(tmp_path / "clean")
    run_resumable(corpus_dir(0.001), clean, n_partitions=2)
    out, marker = str(tmp_path / "run"), str(tmp_path / "killed-once")

    log = tmp_path / "run.log"
    with open(log, "w") as err, open(tmp_path / "run.out", "w") as f:
        proc = subprocess.Popen(
            [sys.executable, "-c", _WORKER_KILLED_RUN, out, marker],
            cwd=_ROOT, stdout=f, stderr=err)
    instance = _descendants_until_exit(proc, timeout=300)
    left = _stop(instance)
    assert proc.returncode == 0, log.read_text()[-2000:]
    assert instance and not left, left
    assert os.path.exists(marker)  # the worker did die

    runs = json.loads((tmp_path / "run.out").read_text().splitlines()[-1])
    landed, rerun = runs[-2:]
    assert landed["computed"] == [0, 1] and landed["skipped"] == []
    assert rerun["computed"] == [] and rerun["skipped"] == [0, 1]
    raw, clean_raw = os.path.join(out, "raw"), os.path.join(clean, "raw")
    assert [os.path.basename(d) for d in landed_dirs(raw)] == [
        "part=0000", "part=0001"]
    for want, d in zip(_manifests(clean_raw), landed_dirs(raw)):
        assert len(glob.glob(os.path.join(d, "**", "_MANIFEST.json"),
                             recursive=True)) == 1
        with open(os.path.join(d, "_MANIFEST.json")) as f:
            assert json.load(f)["n_rows"] == want["n_rows"]
    assert _digest(_final_rows(out)) == _digest(_final_rows(clean))


# ---- one module knows the on-disk layout --------------------------------

PKG = pathlib.Path(_ROOT) / "kb_ner_ray"
# the names of the resumable layout: partition dirs, manifests and the
# working dirs of a landing
LAYOUT_NAMES = ("part=", "_MANIFEST.json", ".tmp", "_staging")


def _docstring_nodes(tree: ast.Module) -> set:
    docs = set()
    for n in ast.walk(tree):
        if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef,
                          ast.AsyncFunctionDef)) and n.body:
            first = n.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)):
                docs.add(id(first.value))
    return docs


def test_one_layout_module():
    """Outside ``state/manifest.py`` no module under kb_ner_ray/ spells a
    layout name in code (docstrings may describe the layout).  A second
    module that knows the layout would fork the landing protocol: each
    output lands through ``manifest.scratch`` and ``manifest.publish``
    (or ``swap_in``)."""
    spelled = []
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        if rel == "state/manifest.py":
            continue
        tree = ast.parse(path.read_text())
        docs = _docstring_nodes(tree)
        for n in ast.walk(tree):
            if (isinstance(n, ast.Constant) and isinstance(n.value, str)
                    and id(n) not in docs):
                spelled += [f"{rel}:{n.lineno} {name}"
                            for name in LAYOUT_NAMES if name in n.value]
    assert not spelled, spelled
