"""The command line, ``python -m kb_ner_ray --config pipeline.yaml``, run as
a subprocess the way ``ray job submit`` runs it."""

import json
import os
import subprocess
import sys

import psutil
import yaml

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_cli_joins_the_cluster_named_by_ray_address(tmp_path, ray_session):
    """With ``RAY_ADDRESS`` set, the CLI joins that cluster instead of
    starting its own instance: its driver is a job in the cluster's job
    table, and it counts the rows a local run of the same config counts.
    The cluster's processes all end with its shutdown."""
    from ray._raylet import GcsClient
    from ray.cluster_utils import Cluster

    from kb_ner_ray.data.synth import corpus_dir
    from kb_ner_ray.pipelines.config import PipelineConfig, run_pipeline

    corpus = corpus_dir(0.001)
    spec = {"input": corpus + "/pages", "corpus": corpus,
            "stages": [{"name": n} for n in
                       ("extract", "explode", "triples", "canonicalize")]}
    config = tmp_path / "pipeline.yaml"
    config.write_text(yaml.safe_dump(spec))
    local_rows = run_pipeline(PipelineConfig.from_dict(spec))

    before = set(psutil.Process().children())
    small = {"num_cpus": 1, "object_store_memory": 100 << 20}
    cluster = Cluster(initialize_head=True,
                      head_node_args={**small, "include_dashboard": False})
    try:
        cluster.add_node(**small)
        cluster.wait_for_nodes()
        env = dict(os.environ, RAY_ADDRESS=cluster.address,
                   PYTHONPATH=os.pathsep.join(
                       [_ROOT, os.environ.get("PYTHONPATH", "")]))
        cli = subprocess.Popen(
            [sys.executable, "-m", "kb_ner_ray", "--config", str(config)],
            cwd=_ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        stdout, stderr = cli.communicate(timeout=300)
        assert cli.returncode == 0, stderr[-2000:]
        jobs = GcsClient(address=cluster.address).get_all_job_info()
        assert [j.driver_pid for j in jobs.values()] == [cli.pid]
        out = json.loads(stdout.strip().splitlines()[-1])
        assert out["rows"] == local_rows > 0
    finally:
        started = _with_descendants(set(psutil.Process().children())
                                    - before)
        cluster.shutdown()
    _gone, alive = psutil.wait_procs(started, timeout=30)
    assert not alive, alive


def _with_descendants(procs: set) -> set:
    """``procs`` and every live descendant of them."""
    out = set(procs)
    for p in procs:
        try:
            out.update(p.children(recursive=True))
        except psutil.NoSuchProcess:
            pass
    return out
