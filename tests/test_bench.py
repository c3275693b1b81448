"""bench.py's stdout contract: one compact headline line that survives a
2,000-character output tail, however many queries the record holds (the
full record goes to a side file)."""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import bench  # noqa: E402


def _round5_sized_record() -> dict:
    # round 5's record: the headline plus ~123 per-query timings and row
    # counts, and per-band candidate stats for two banding schemes
    names = [f"query_name_{i:03d}_with_a_long_tail" for i in range(123)]
    bands = {"cand_pairs_per_band": {b: 123_456 for b in range(16)},
             "cand_pairs_total": 1_975_296}
    return {
        "metric": "kg_triples_pipeline_sec", "value": 2.115, "unit": "sec",
        "queries": {n: 12.345 for n in names},
        "query_rows": {n: 1_234_567 for n in names},
        "band_stats": {"simhash": dict(bands, verified_pairs=195_171),
                       "minhash": bands},
        "sf": 0.1, "num_cpus": 32, "n_triples": 44_733,
        "triples_per_sec": 21_316.4, "box_control_sec": 0.912,
        "degraded_draw_retried": True, "box_control_both": [2.4, 0.912],
    }


def test_headline_fits_the_output_tail():
    rec = _round5_sized_record()
    assert len(json.dumps(rec)) > 2000  # the old single line did not fit
    line = bench.headline(rec)
    assert "\n" not in line
    assert len(line) < 2000
    head = json.loads(line)
    for k in ("metric", "value", "unit", "sf", "num_cpus", "n_triples",
              "triples_per_sec", "box_control_sec", "box_control_both"):
        assert head[k] == rec[k]
    assert head["record"] == "bench_record.json"
    assert "queries" not in head and "band_stats" not in head


def test_perfbench_hooks_bind_to_the_program():
    """The traced benchmark (``perfbench/layers.py``) binds names of the
    program when imported and patches them in ``patch_driver``: renaming
    or deleting one fails here, not in a traced benchmark run."""
    from perfbench import layers

    from kb_ner_ray.pipelines import run
    from kb_ner_ray.state import manifest

    restore = layers.patch_driver()
    try:
        assert run.partition_done is layers.partition_done
    finally:
        restore()
    assert run.partition_done is manifest.partition_done
