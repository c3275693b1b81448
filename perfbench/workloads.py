"""Seeded inputs of the three workloads, and their oracle answers.

Every input comes from ``data.synth.generate_corpus(n_pages, seed)`` and is
written as Parquet under the benchmark's work directory; the program gets
only the directory.  The expected triples come from the single-process
oracle ``data.oracle.run_oracle`` on the same pages, computed untimed and
cached next to the input.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from collections import Counter

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from kb_ner_ray.data.oracle import run_oracle
from kb_ner_ray.data.synth import SCHEMA_VERSION, generate_corpus

# name -> (distinct pages, fetches per page, page files).  The sizes keep a
# whole run, oracle included, well within the 180 s a run may take.
SHAPES = {
    # fresh pages: most of the work is the retrieve+tag kernel
    "fresh_crawl": (1600, 1, 16),
    # every page fetched 8 times under a new url/warc_ts, the fetches
    # interleaved across files: the per-worker sentence memo serves ~80%
    # of the sentences (each of the 2 workers computes a sentence once)
    "recrawl": (400, 8, 20),
    # run_resumable over 8 partitions of 2 files each: the write path
    "resume": (960, 1, 16),
}
N_PARTITIONS = 8
KEY = ["subj", "pred", "obj", "url", "sent_id"]
_DAY_US = 86_400 * 1_000_000


def _write_dir(path: str, tables: dict, n_files: int) -> None:
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    for name, table in tables.items():
        os.makedirs(os.path.join(tmp, name))
        parts = n_files if name == "pages" else 1
        step = -(-table.num_rows // parts)
        for i in range(parts):
            pq.write_table(table.slice(i * step, step),
                           os.path.join(tmp, name, f"part-{i:05d}.parquet"),
                           row_group_size=64)
    shutil.rmtree(path, ignore_errors=True)
    os.replace(tmp, path)


def _refetch(table: pa.Table, fetches: int) -> pa.Table:
    """``fetches`` copies of every row, copy k under url ``<url>?fetch=k``
    (and, for pages, k days later), ordered copy-major so that the copies
    of a page land in different files.

    Applied to the oracle triples of the distinct pages it gives those of
    every fetch: each page is fetched equally often, so every link count
    scales by ``fetches`` and the canonical map is unchanged."""
    if fetches == 1:
        return table
    copies = []
    for k in range(fetches):
        t = table.set_column(
            table.schema.get_field_index("url"), "url",
            pc.binary_join_element_wise(table["url"], f"?fetch={k}", ""))
        if "warc_ts" in t.column_names:
            t = t.set_column(
                t.schema.get_field_index("warc_ts"), "warc_ts",
                pc.add(t["warc_ts"],
                       pa.scalar(k * _DAY_US, pa.duration("us"))))
        copies.append(t)
    return pa.concat_tables(copies)


def rows(table: pa.Table) -> list[tuple]:
    cols = [table.column(c).to_pylist() for c in KEY]
    return list(zip(*cols))


def digest(rows_: list[tuple]) -> str:
    """Order-independent digest of a triple multiset."""
    h = hashlib.blake2b(digest_size=16)
    for r in sorted(rows_):
        h.update(repr(r).encode())
    return h.hexdigest()


def prepare(work: str, name: str, seed: int) -> dict:
    """Write (once) the input of workload ``name`` for ``seed`` and its
    oracle triples; returns paths and sizes."""
    n_pages, fetches, n_files = SHAPES[name]
    tag = f"{name}-v{SCHEMA_VERSION}-n{n_pages}x{fetches}-f{n_files}-s{seed}"
    corpus = os.path.join(work, "inputs", tag)
    expected = os.path.join(work, "oracle", tag + ".parquet")
    if not (os.path.exists(expected) and os.path.isdir(corpus)):
        t = generate_corpus(n_pages, seed=seed)
        _write_dir(corpus, {"pages": _refetch(t["pages"], fetches),
                            "kb": t["kb"], "gazetteer": t["gazetteer"]},
                   n_files)
        want = _refetch(run_oracle(t["pages"], t["kb"],
                                   t["gazetteer"])["triples"], fetches)
        os.makedirs(os.path.dirname(expected), exist_ok=True)
        pq.write_table(want.select(KEY), expected + ".tmp")
        os.replace(expected + ".tmp", expected)
    want = rows(pq.read_table(expected))
    return {"corpus": corpus, "n_pages": n_pages * fetches,
            "want": want, "want_digest": digest(want)}


def precision_recall(got: list[tuple], want: list[tuple]) -> tuple:
    """Multiset precision and recall of ``got`` against ``want``."""
    tp = sum((Counter(got) & Counter(want)).values())
    return (tp / len(got) if got else float(not want),
            tp / len(want) if want else 1.0)
