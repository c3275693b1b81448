import contextlib
import logging
import warnings

import pytest
import ray


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    # Ray's own DataContext construction sets these two deprecated
    # fields; nothing here does
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", r"`(use_push_based_shuffle|use_polars)` is deprecated",
            DeprecationWarning)
        ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def tiny_corpus():
    """Deterministic 60-page corpus (tables in memory)."""
    from kb_ner_ray.data.synth import generate_corpus

    return generate_corpus(60, seed=42)


@pytest.fixture
def over_broadcast_limit(monkeypatch):
    """``with over_broadcast_limit() as asked:`` makes the one broadcast
    predicate (``partitioning.fits_broadcast``) answer False, so every
    plan gate takes its distributed plan and every size guard raises.
    ``asked`` records each size the predicate was asked about.  The gates
    all run on the driver, so patching the module attribute reaches
    them."""
    from kb_ner_ray.stages import partitioning

    @contextlib.contextmanager
    def patched():
        asked = []

        def fits_broadcast(nbytes):
            asked.append(nbytes)
            return False

        with monkeypatch.context() as m:
            m.setattr(partitioning, "fits_broadcast", fits_broadcast)
            yield asked

    return patched
