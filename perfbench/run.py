"""Benchmark of the flagship pages -> triples pipeline.

    python3 perfbench/run.py --workload fresh_crawl --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Workloads (inputs from ``data.synth.generate_corpus`` with ``--seed``):

  fresh_crawl  ``pipelines.kg.kg_triples`` over fresh pages; the
               retrieve+tag kernel does most of the work.
  recrawl      the same job over pages each fetched 8 times under new
               urls; the sentence memo serves ~80% of the sentences, so
               extract, explode, canonicalize and Arrow handling weigh more.
  resume       ``pipelines.run.run_resumable`` over 8 partitions into a
               fresh directory, then again over the finished one: the
               write path, with per-partition job and actor-pool costs.

One client submits the job and waits for it (closed loop, one job at a
time).  Each invocation runs one Ray session with 2 logical CPUs in a child
process (``session.py``): ``ray.init``, a warm-up job on a tiny corpus, then
repetitions for ``--seconds``.  Each repetition broadcasts fresh KB refs, so
the per-worker memo starts cold, runs the job, runs it again (``rerun_s``),
and checks the triples against the single-process oracle.  A repetition
that raises, hangs past ``REP_TIMEOUT_S`` or differs from the oracle counts
as failed.

``--trace 1`` alternates untraced and traced repetitions; the traced ones
time every layer from outside (``layers.py``) and check that the counters
conserve.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics, or with ``--trace 1``
the per-layer ones.  ``--workload all`` runs every workload untraced and
prints one compact line with all their end-to-end metrics instead.  The
full record (every repetition, the whole ledger) goes to
``.perfbench/records/``.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0] = ROOT  # import perfbench as a package, not its files

from perfbench import record  # noqa: E402

WORKLOADS = ("fresh_crawl", "recrawl", "resume")
RUN_LIMIT_S = 165.0   # one invocation, from start to the printed result
REP_TIMEOUT_S = 90.0  # one repetition
MARK = "PERFBENCH "


def _kill_tree(pid: int) -> None:
    import ray  # noqa: F401  (puts Ray's bundled psutil on sys.path)
    import psutil

    try:
        top = psutil.Process(pid)
        procs = top.children(recursive=True) + [top]
    except psutil.NoSuchProcess:
        return
    for p in procs:
        try:
            p.kill()
        except psutil.Error:
            pass
    psutil.wait_procs(procs, timeout=15)


def supervise(workload: str, seed: int, seconds: float, trace: int,
              work: str, deadline: float) -> tuple[list, bool]:
    """Run one session; returns its events and whether it was cut short."""
    cmd = [sys.executable, "-m", "perfbench.session", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work", work]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines: queue.Queue = queue.Queue()

    def read() -> None:
        for line in proc.stdout:
            if line.startswith(MARK):
                lines.put(json.loads(line[len(MARK):]))
            else:
                sys.stderr.write(line)
        lines.put(None)

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    events, rep_deadline, cut = [], None, False
    try:
        while True:
            limit = min(deadline, rep_deadline or deadline)
            try:
                ev = lines.get(timeout=max(0.0, limit - time.monotonic()))
            except queue.Empty:
                cut = True
                break
            if ev is None:
                break
            events.append(ev)
            if ev["event"] == "start":
                rep_deadline = time.monotonic() + REP_TIMEOUT_S
            elif ev["event"] == "rep":
                rep_deadline = None
    finally:
        if proc.poll() is None and (cut or not events
                                    or events[-1]["event"] != "done"):
            _kill_tree(proc.pid)
        proc.wait()
        reader.join(timeout=15)
    return events, cut or proc.returncode != 0


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 work: str, deadline: float) -> dict:
    events, cut = supervise(workload, seed, seconds, trace, work, deadline)
    rec = record.aggregate(events, bool(trace), cut)
    rec.update(workload=workload, seed=seed, seconds=seconds, trace=trace)
    out = os.path.join(work, "records", f"{workload}-seed{seed}-trace{trace}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(rec, f, indent=1, default=str)
    print(f"record: {out}", file=sys.stderr)
    return rec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "kb_ner_ray")):
        print("perfbench: kb_ner_ray/ not found next to perfbench/",
              file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".perfbench")
    if args.workload == "all":
        recs = {}
        for name in WORKLOADS:
            recs[name] = run_workload(name, args.seed, args.seconds, 0, work,
                                      time.monotonic() + RUN_LIMIT_S)
        print(record.summary_line(recs))
        return 0
    rec = run_workload(args.workload, args.seed, args.seconds, args.trace,
                       work, time.monotonic() + RUN_LIMIT_S)
    print(record.result_line(rec, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
