"""Multi-checkpoint ensemble orchestration (pipelines/ensemble_runs.py):
fused-vs-orchestrated parity, resume semantics, fingerprint invalidation."""

import shutil

import pandas as pd

from kb_ner_ray.data.synth import corpus_dir
from kb_ner_ray.pipelines.ensemble_runs import (checkpoint_fingerprint,
                                                ensemble_from_runs,
                                                run_checkpoint_predictions,
                                                run_ensemble)
from kb_ner_ray.pipelines.kg import load_corpus_refs, sentences_dataset
from kb_ner_ray.stages.ensemble import ensemble_mentions

SF = 0.001
COLS = ["url", "sent_id", "start_tok", "end_tok", "label", "votes"]


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    return df[COLS].sort_values(COLS).reset_index(drop=True)


def test_multirun_equals_fused_and_resumes(ray_session, tmp_path):
    """The orchestrated path (N separate persisted runs + cross-run vote)
    must produce EXACTLY the fused single-pass ensemble's spans; a second
    sweep must skip every run; a checkpoint identity change must
    invalidate exactly that run."""
    corpus = corpus_dir(SF)
    out = str(tmp_path / "runs")

    fused = ensemble_mentions(
        sentences_dataset(corpus),
        load_corpus_refs(corpus)[1], n_models=3).to_pandas()
    orchestrated = run_ensemble(corpus, out, n_models=3).to_pandas()
    pd.testing.assert_frame_equal(_norm(fused), _norm(orchestrated))

    # resume: all three runs skip (manifest + fingerprint match)
    ckpts = [{"model_id": m, "n_models": 3} for m in range(3)]
    st = run_checkpoint_predictions(corpus, ckpts, out)
    assert st == {"computed": [], "skipped": [0, 1, 2]}

    # identity change invalidates ONLY that run
    ckpts2 = [ckpts[0], {"model_id": 1, "n_models": 3, "rev": 2}, ckpts[2]]
    st = run_checkpoint_predictions(corpus, ckpts2, out)
    assert st == {"computed": [1], "skipped": [0, 2]}

    # vote over the refreshed runs still matches (same stand-in weights)
    again = ensemble_from_runs(out, n_models=3).to_pandas()
    pd.testing.assert_frame_equal(_norm(fused), _norm(again))


def test_fingerprint_binds_corpus_and_checkpoint(ray_session):
    corpus = corpus_dir(SF)
    a = checkpoint_fingerprint(corpus, {"model_id": 0, "n_models": 3})
    b = checkpoint_fingerprint(corpus, {"model_id": 1, "n_models": 3})
    assert a != b
    assert a == checkpoint_fingerprint(corpus, {"n_models": 3,
                                                "model_id": 0})


def test_ensemble_from_runs_missing_dir_raises(ray_session, tmp_path):
    import pytest

    with pytest.raises(FileNotFoundError):
        ensemble_from_runs(str(tmp_path / "nope"), n_models=3)


def test_ensemble_from_runs_guards(ray_session, tmp_path):
    """Stale runs from a wider sweep and crashed .tmp dirs must not leak
    into the vote: run-count mismatch raises; unmanifested dirs are
    ignored."""
    import pytest

    corpus = corpus_dir(SF)
    out = str(tmp_path / "runs")
    ckpts = [{"model_id": m, "n_models": 3} for m in range(3)]
    run_checkpoint_predictions(corpus, ckpts, out)

    # a crashed write leaves part=0003.tmp with data but no manifest:
    # ignored, the 3-run vote still works
    import shutil

    shutil.copytree(f"{out}/part=0000", f"{out}/part=0003.tmp")
    (tmp_path / "runs" / "part=0003.tmp" / "_MANIFEST.json").unlink()
    assert ensemble_from_runs(out, n_models=3).count() > 0

    # a leftover manifested run from a previous 4-model sweep: raises
    shutil.copytree(f"{out}/part=0000", f"{out}/part=0003")
    with pytest.raises(ValueError, match="manifested runs"):
        ensemble_from_runs(out, n_models=3)


def test_fingerprint_covers_broadcast_sides(ray_session):
    """kb/gazetteer tables enter the fingerprint: predictions depend on
    them, so editing one must invalidate cached runs (review finding)."""
    import glob as g
    import os

    corpus = corpus_dir(SF)
    ck = {"model_id": 0, "n_models": 3}
    before = checkpoint_fingerprint(corpus, ck)
    gaz = sorted(g.glob(os.path.join(corpus, "gazetteer", "*.parquet")))[0]
    payload = open(gaz, "rb").read()
    st = os.stat(gaz)
    try:
        with open(gaz, "ab") as f:   # size change = content fingerprint
            f.write(b"x")
        assert checkpoint_fingerprint(corpus, ck) != before
    finally:
        with open(gaz, "wb") as f:
            f.write(payload)
        # the fingerprint reads the modification time too
        os.utime(gaz, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert checkpoint_fingerprint(corpus, ck) == before


def teardown_module(module):
    shutil.rmtree("/tmp/kbner_multirun", ignore_errors=True)
