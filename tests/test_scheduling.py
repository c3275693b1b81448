"""The scheduling rule (stages/partitioning.py): the Datasets the flagship
builds run without Ray Data's per-operator resource reservation, set on
their own context only, and the object store stays bounded without it."""

import json
import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import ray
from ray.data import DataContext
from ray.data.context import DEFAULT_ENABLE_OP_RESOURCE_RESERVATION

from kb_ner_ray.data.synth import corpus_dir
from kb_ner_ray.pipelines.config import PipelineConfig, build_pipeline
from kb_ner_ray.pipelines.kg import (
    kernel_dataset,
    kg_triples,
    raw_triples,
    sentences_dataset,
)
from kb_ner_ray.pipelines.queries._common import _read
from kb_ner_ray.pipelines.run import run_resumable


def _reserved(ds) -> bool:
    return ds.context.op_resource_reservation_enabled


def test_run_at_width_is_per_dataset(ray_session, tmp_path, monkeypatch):
    """The flagship's Datasets, the registry's table reads and the config
    pipeline's input carry the reservation off; the process-wide context, and a Dataset the caller
    builds afterwards, keep theirs."""
    corpus = corpus_dir(0.001)
    before = DataContext.get_current().op_resource_reservation_enabled

    sents = sentences_dataset(corpus)
    assert not _reserved(sents)
    assert not _reserved(raw_triples(sents, corpus))
    assert not _reserved(kernel_dataset(corpus, "mentions"))
    assert kg_triples(corpus).materialize().count() > 0
    pq.write_table(pa.table({"a": [1, 2]}), tmp_path / "t.parquet")
    assert not _reserved(_read(str(tmp_path), "t"))
    assert not _reserved(build_pipeline(PipelineConfig(
        input_path=str(tmp_path / "t.parquet"), stages=[])))

    # run_resumable's one Dataset write is the raw job's; its final
    # triples are written by plain tasks
    written = []
    write = ray.data.Dataset.write_parquet

    def recording_write(ds, path, **kw):
        written.append((os.path.basename(path), _reserved(ds)))
        return write(ds, path, **kw)

    monkeypatch.setattr(ray.data.Dataset, "write_parquet", recording_write)
    res = run_resumable(corpus, str(tmp_path / "run"), n_partitions=2)
    assert res["n_triples"] > 0
    assert [name.split(".")[0] for name, _ in written] == ["_scratch"]
    assert not any(reserved for _, reserved in written), written

    assert DataContext.get_current().op_resource_reservation_enabled == before
    mine = ray.data.range(8)
    assert _reserved(mine) == DEFAULT_ENABLE_OP_RESOURCE_RESERVATION
    assert mine.materialize().count() == 8


# 200 distinct pages, each fetched FETCHES times under a url that carries
# a PAD-byte tracking query: every raw triple carries its url, so the raw
# triples (112 MiB) outgrow the 100 MiB store while the sentence memo
# keeps the kernel work at 200 pages
_BOUNDED_STORE = """
import hashlib, json, os, sys, threading, time
import pyarrow as pa, pyarrow.compute as pc, pyarrow.parquet as pq
import ray

work, store = sys.argv[1], {store}
spill = os.path.join(work, "spill")
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR", object_store_memory=store,
         _system_config={{
             "debug_dump_period_milliseconds": 50,
             "object_spilling_config": json.dumps(
                 {{"type": "filesystem",
                  "params": {{"directory_path": spill}}}})}})
from kb_ner_ray.data.oracle import run_oracle
from kb_ner_ray.data.synth import generate_corpus
from kb_ner_ray.pipelines.kg import kg_triples

KEY = ["subj", "pred", "obj", "url", "sent_id"]
tables = generate_corpus(200, seed=3)


def refetch(t):
    return pa.concat_tables([t.set_column(
        t.schema.get_field_index("url"), "url",
        pc.binary_join_element_wise(
            t["url"], f"?fetch={{k}}&utm=" + "x" * {pad}, ""))
        for k in range({fetches})])


corpus = os.path.join(work, "corpus")
for name, t, n_files in (("pages", refetch(tables["pages"]), 16),
                         ("kb", tables["kb"], 1),
                         ("gazetteer", tables["gazetteer"], 1)):
    os.makedirs(os.path.join(corpus, name))
    step = -(-t.num_rows // n_files)
    for i in range(n_files):
        pq.write_table(t.slice(i * step, step),
                       os.path.join(corpus, name, f"part-{{i:05d}}.parquet"),
                       row_group_size=64)
want = refetch(run_oracle(tables["pages"], tables["kb"],
                          tables["gazetteer"])["triples"]).select(KEY)


def digest(t):
    rows = sorted(tuple(r.values()) for r in t.to_pylist())
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# the raylet dumps its state every 50 ms: the bytes of the primary copies
# it pins are the store's use; every spilled object lands in a file
dump = os.path.join(ray._private.worker._global_node.get_logs_dir_path(),
                    "debug_state.txt")
peak, files, done = {{"pinned": 0}}, {{}}, threading.Event()


def sample():
    while not done.is_set():
        for d, _, names in os.walk(spill):
            for f in names:
                try:
                    files[os.path.join(d, f)] = os.path.getsize(
                        os.path.join(d, f))
                except OSError:
                    pass
        try:
            with open(dump) as f:
                text = f.read()
            peak["pinned"] = max(peak["pinned"], int(
                text.split("- pinned objects size: ")[1].split()[0]))
        except (OSError, IndexError, ValueError):
            pass
        time.sleep(0.01)


sampler = threading.Thread(target=sample)
sampler.start()
out = kg_triples(corpus).materialize()
done.set()
sampler.join()
got = pa.concat_tables(ray.get(out.to_arrow_refs())).select(KEY)
print(json.dumps({{"same": digest(got) == digest(want),
                  "rows": got.num_rows, "want_bytes": want.nbytes,
                  "peak_pinned": peak["pinned"],
                  "spilled": sum(files.values())}}))
ray.shutdown()
"""


def test_kg_triples_under_a_small_object_store(tmp_path):
    """With the reservation off Ray Data keeps no per-operator store
    budget, only CPU admission and the streaming-generator buffer.  Under
    a 100 MiB store, smaller than the raw triples, kg_triples still gives
    the oracle's triples, the store's pinned bytes stay under its size,
    and the spill stays within the bytes of the raw and the final
    triples (measured at 2 logical CPUs: 160-182 MiB spilled, 76-81 MiB
    pinned at most, with or without the reservation)."""
    store = 100 << 20
    script = _BOUNDED_STORE.format(store=store, pad=8192, fetches=20)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          cwd=root, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["same"] and res["rows"] > 0
    assert res["want_bytes"] > store
    assert 0 < res["peak_pinned"] <= store
    assert 0 < res["spilled"] <= 2 * res["want_bytes"], res
