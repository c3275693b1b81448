"""CLI entry point: ``python -m kb_ner_ray --config pipeline.yaml``.

This is also the ``ray job submit`` entrypoint on a real cluster (the
north rule's deployment shape)::

    ray job submit --working-dir . -- \\
        python -m kb_ner_ray --config pipeline.yaml

On a cluster, ``ray.init()`` (no address) inside the job attaches to the
running cluster; here it starts local mode.  A killed job resumes from
the per-partition checkpoint manifests when the config sets
``resumable: true`` (pipelines/run.py).

Only CLI entry points, bench.py and the test fixture own a Ray session
(the external driver calls ray.init itself before importing
__ray_entry__).
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="kb_ner_ray")
    p.add_argument("--config", required=True, help="pipeline YAML")
    p.add_argument("--num-cpus", type=int, default=None)
    args = p.parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    # Ray's own DataContext construction sets these two deprecated
    # fields; this program sets neither
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", r"`(use_push_based_shuffle|use_polars)` is deprecated",
            DeprecationWarning)
        DataContext.get_current().enable_progress_bars = False

    from .pipelines.config import PipelineConfig, run_pipeline

    cfg = PipelineConfig.from_yaml(args.config)
    n = run_pipeline(cfg)
    print(json.dumps({"rows": n, "output": cfg.output_path}))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
