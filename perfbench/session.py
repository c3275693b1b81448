"""One Ray session of the benchmark: set up, then timed repetitions.

Run by ``run.py`` as ``python3 -m perfbench.session ...`` from the root of
the repository.  It reports progress as ``PERFBENCH {json}`` lines on
stdout, so that the supervising process can count a repetition that hangs
as a failure and still report the ones that finished:

    ready   inputs written and oracle answers known (untimed)
    setup   ray.init and warm-up seconds
    start   a repetition begins
    rep     a repetition's measurements, or its error
    micro   isolated read and single-thread kernel timings (traced run)
    done    the session shut down cleanly
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import statistics
import threading
import time
import traceback

import pyarrow as pa
import pyarrow.parquet as pq
import ray  # noqa: F401  (puts Ray's bundled psutil on sys.path)
import psutil

from . import workloads

LOGICAL_CPUS = 2  # run_resumable never finishes at 1 (its actor pool
#                   holds the only CPU slot); 2 is the smallest that works
OBJECT_STORE_MB = 300
MICRO_SEED = 1234  # fixed fresh_crawl-shaped sample of the kernel timings
MICRO_PAGES = 150
_SOCKET_PATH_MAX = 107  # AF_UNIX limit on the paths Ray puts under its dir


def emit(event: str, **fields) -> None:
    print("PERFBENCH " + json.dumps(dict(fields, event=event)), flush=True)


class Probe:
    """CPU seconds and peak summed RSS of the driver and its Ray worker
    processes (named ``ray::...``) while the ``with`` block runs.

    Processes are sampled every ``SAMPLE_EVERY_S``; one that exits (an
    actor at the end of a partition) counts with its last reading."""

    LIST_EVERY_S = 0.5
    SAMPLE_EVERY_S = 0.1

    def __init__(self) -> None:
        self._me = psutil.Process()

    def _list(self, force: bool = False) -> list:
        now = time.monotonic()
        if force or now - self._listed >= self.LIST_EVERY_S:
            procs = [self._me]
            for p in self._me.children(recursive=True):
                try:
                    if p.name().startswith("ray::"):
                        procs.append(p)
                except psutil.Error:
                    pass
            self._procs, self._listed = procs, now
        return self._procs

    def _sample_once(self, force: bool = False) -> None:
        rss = 0
        for p in self._list(force):
            try:
                with p.oneshot():
                    t = p.cpu_times()
                    rss += p.memory_info().rss
            except psutil.Error:
                continue
            self._cpu[p.pid] = t.user + t.system
            self._cpu0.setdefault(p.pid, 0.0)
        self.peak_rss_mb = max(self.peak_rss_mb, rss / 2**20)

    def _sample(self) -> None:
        while not self._stop.wait(self.SAMPLE_EVERY_S):
            self._sample_once()

    def __enter__(self) -> "Probe":
        self._cpu: dict = {}
        self._cpu0: dict = {}
        self.peak_rss_mb = 0.0
        self._sample_once(force=True)
        self._cpu0 = dict(self._cpu)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample_once(force=True)
        self.cpu_s = sum(v - self._cpu0[pid] for pid, v in self._cpu.items())


def _ray_init(work: str) -> None:
    import ray
    from ray.data import DataContext

    temp = os.path.join(work, "ray")
    kw = {}
    # Ray's session dir name plus its socket names take ~64 characters
    if len(temp) + 64 <= _SOCKET_PATH_MAX:
        kw["_temp_dir"] = temp
    ray.init(address="local", num_cpus=LOGICAL_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_MB * 2**20, **kw)
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


class Job:
    """The workload's job, submitted from this one client: kg_triples for
    fresh_crawl and recrawl, run_resumable for resume."""

    def __init__(self, name: str, corpus: str, out_dir: str,
                 n_partitions: int = workloads.N_PARTITIONS):
        self.resumable = name == "resume"
        self.corpus, self.out_dir = corpus, out_dir
        self.n_partitions = n_partitions
        # a rerun that skips every partition takes ~0.3 s: time several
        self.reruns = 3 if self.resumable else 1

    def broadcast(self) -> None:
        """Fresh KB/gazetteer refs: the workers rebuild their state, so the
        sentence memo starts cold."""
        from kb_ner_ray.pipelines import kg

        kg._REFS_CACHE.clear()
        kg.load_corpus_refs(self.corpus)

    def run(self):
        """Submit the job and wait for the complete result.  Returns the
        triple count and a handle on the result."""
        from kb_ner_ray.pipelines import kg, run

        if self.resumable:
            res = run.run_resumable(self.corpus, self.out_dir,
                                    n_partitions=self.n_partitions)
            return res["n_triples"], res
        mat = kg.kg_triples(self.corpus).materialize()
        return mat.count(), mat

    def rerun_ok(self, n: int, handle, n_again: int, again) -> bool:
        """A rerun gives the same count; run_resumable's skips every
        partition the first run computed."""
        if self.resumable:
            return (not again["computed"]
                    and len(again["skipped"]) == len(handle["computed"]))
        return n_again == n

    def result_rows(self, handle) -> list:
        import ray
        from kb_ner_ray.pipelines import run

        if self.resumable:
            table = run.load_final_triples(self.out_dir)
        else:
            table = pa.concat_tables(ray.get(handle.to_arrow_refs()))
        return workloads.rows(table)

    def reset(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


def _snapshot(trace_dir):
    from . import layers

    return layers.snapshot(trace_dir) if trace_dir else None


def repetition(job: Job, expected: dict, traced: bool, trace_dir) -> dict:
    rep: dict = {"traced": traced}
    job.reset()
    t0 = time.perf_counter()
    job.broadcast()
    rep["broadcast_s"] = time.perf_counter() - t0
    restore = None
    if traced:
        from . import layers

        restore = layers.patch_driver()
    try:
        snap0 = _snapshot(trace_dir)
        with Probe() as probe:
            t0 = time.perf_counter()
            n, handle = job.run()
            rep["wall_s"] = time.perf_counter() - t0
        rep.update(n_triples=n, cpu_s=probe.cpu_s,
                   peak_rss_mb=probe.peak_rss_mb)
        snap1 = _snapshot(trace_dir)
        reruns, rerun_ok, snap2 = [], True, None
        for _ in range(job.reruns):
            t0 = time.perf_counter()
            n_again, again = job.run()
            reruns.append(time.perf_counter() - t0)
            rerun_ok = rerun_ok and job.rerun_ok(n, handle, n_again, again)
            snap2 = snap2 or _snapshot(trace_dir)
        rep["rerun_s"] = statistics.median(reruns)
    finally:
        if restore is not None:
            restore()
    if traced:
        from . import layers

        rep["ledger"] = layers.diff(snap1, snap0)
        rep["rerun_ledger"] = layers.diff(snap2, snap1)
    got = job.result_rows(handle)
    rep["digest_ok"] = workloads.digest(got) == expected["want_digest"]
    if rep["digest_ok"]:
        rep["precision"] = rep["recall"] = 1.0
    else:
        rep["precision"], rep["recall"] = workloads.precision_recall(
            got, expected["want"])
    rep["rerun_ok"] = rerun_ok
    rep["ok"] = rep["digest_ok"] and rerun_ok
    return rep


def _per_call_us(fn, args: list, repeats: int = 3) -> float:
    """Median over ``repeats`` passes of the mean time of ``fn(*a)``."""
    per = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for a in args:
            fn(*a)
        per.append((time.perf_counter() - t0) / len(args) * 1e6)
    return statistics.median(per)


def micro(corpus: str) -> dict:
    """Read timed in isolation, and single-thread kernel timings on a fixed
    sample of fresh_crawl-shaped sentences, with the program's own
    state built once."""
    from kb_ner_ray.data.oracle import (TOP_K, attach_contexts_cached,
                                        link_mention)
    from kb_ner_ray.data.synth import generate_corpus
    from kb_ner_ray.functions.text import extract_text, split_sentences
    from kb_ner_ray.stages.tagger import RetrieveTagTriples

    out = {}
    files = sorted(os.path.join(corpus, "pages", f)
                   for f in os.listdir(os.path.join(corpus, "pages")))
    t0 = time.thread_time()
    nbytes = sum(pq.read_table(f, columns=["url", "warc_ts", "html", "lang"])
                 .nbytes for f in files)
    out["read.busy_s"] = time.thread_time() - t0
    out["read.mb"] = nbytes / 1e6

    t = generate_corpus(MICRO_PAGES, seed=MICRO_SEED)
    st = RetrieveTagTriples(t["gazetteer"].to_pylist(), t["kb"].to_pylist())
    sample = list(dict.fromkeys(
        (s, page["lang"]) for page in t["pages"].to_pylist()
        for s in split_sentences(extract_text(page["html"]), page["lang"])))
    hits = [st.index.search(s, lang=lang, k=TOP_K) for s, lang in sample]
    pre = [[(st.kb_clean[i], st.kb_cost[i]) for i, _s in h] for h in hits]
    augs = [attach_contexts_cached(s, p)[0].split()
            for (s, _lang), p in zip(sample, pre)]
    mentions = []
    for (s, _lang), aug in zip(sample, augs):
        tokens = s.split()
        for start, end, _label, _score in st.gaz.mentions_via_codec(aug):
            if end <= len(tokens):
                mentions.append((tuple(tokens[start:end]), tokens, st.gaz,
                                 st.ent_def_tokens))
    out["bm25.us_per_query"] = _per_call_us(
        lambda s, lang: st.index.search(s, lang=lang, k=TOP_K), sample)
    out["attach.us_per_sentence"] = _per_call_us(
        attach_contexts_cached, [(s, p) for (s, _l), p in zip(sample, pre)])
    out["gazetteer.us_per_sentence"] = _per_call_us(
        st.gaz.mentions_via_codec, [(a,) for a in augs])
    out["link.us_per_mention"] = _per_call_us(link_mention, mentions)
    out["micro.sentences"] = len(sample)
    out["micro.mentions"] = len(mentions)
    return out


def _stop_descendants(timeout: float = 15.0) -> None:
    procs = psutil.Process().children(recursive=True)
    _gone, alive = psutil.wait_procs(procs, timeout=timeout)
    for p in alive:
        p.kill()
    psutil.wait_procs(alive, timeout=timeout)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work", required=True)
    args = ap.parse_args()
    work = os.path.abspath(args.work)

    t0 = time.perf_counter()
    expected = workloads.prepare(work, args.workload, args.seed)
    emit("ready", prep_s=time.perf_counter() - t0,
         n_pages=expected["n_pages"], n_expected=len(expected["want"]))

    root = os.getcwd()
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p)
    trace_dir = None
    if args.trace:
        from . import layers

        trace_dir = os.path.join(work, "trace", str(os.getpid()))
        os.makedirs(trace_dir)
        os.environ[layers.TRACE_ENV] = trace_dir

    import ray

    t0 = time.perf_counter()
    _ray_init(work)
    init_s = time.perf_counter() - t0
    try:
        out_dir = os.path.join(work, "out", str(os.getpid()))
        t0 = time.perf_counter()
        # warm-up: one untimed job on the input (run_resumable as one
        # partition), so worker start-up and first-touch costs land here
        warm = Job(args.workload, expected["corpus"], out_dir, n_partitions=1)
        warm.reset()
        warm.broadcast()
        warm.run()
        emit("setup", init_s=init_s, warmup_s=time.perf_counter() - t0,
             cores=len(os.sched_getaffinity(0)),
             logical_cpus=LOGICAL_CPUS)

        job = Job(args.workload, expected["corpus"], out_dir)
        # A traced run spends the first half untraced: once a worker has
        # run a traced batch its kernels stay wrapped.
        phases = ([(False, args.seconds / 2), (True, args.seconds)]
                  if args.trace else [(False, args.seconds)])
        measured = 0.0
        i = 0
        for traced, until in phases:
            first = True
            while first or measured < until:
                first = False
                emit("start", rep=i, traced=traced)
                t0 = time.perf_counter()
                try:
                    rep = repetition(job, expected, traced, trace_dir)
                except Exception:
                    rep = {"traced": traced, "ok": False,
                           "error": traceback.format_exc(limit=3)[-600:]}
                measured += time.perf_counter() - t0
                emit("rep", rep=i, **rep)
                i += 1
        job.reset()
        if args.trace:
            emit("micro", **micro(expected["corpus"]))
    finally:
        ray.shutdown()
        _stop_descendants()
    if trace_dir:
        shutil.rmtree(trace_dir, ignore_errors=True)
    emit("done")


if __name__ == "__main__":
    main()
