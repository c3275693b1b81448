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


@pytest.fixture
def fanout(monkeypatch):
    """``with fanout(buckets=2, salts=1, row_cap=50, overflow=8) as
    served:`` makes the fan-out rule's functions in ``partitioning``
    (``default_buckets``, ``default_salts``, ``group_row_cap``,
    ``overflow_rows``) serve the given values; a part left None keeps
    its production answer (``default_salts`` then follows the served
    buckets, ``triangle_split`` always does).  ``served`` maps each part
    to the list of values it served, so a test can assert its value
    reached the plan.  Every operator reads the rule on the driver, so
    patching the module attributes reaches them."""
    from kb_ner_ray.stages import partitioning

    parts = {"buckets": "default_buckets", "salts": "default_salts",
             "row_cap": "group_row_cap", "overflow": "overflow_rows"}

    @contextlib.contextmanager
    def patched(*, buckets=None, salts=None, row_cap=None, overflow=None):
        values = {"buckets": buckets, "salts": salts, "row_cap": row_cap,
                  "overflow": overflow}
        served = {part: [] for part in parts}

        def serve(part, real):
            def rule(*args, **kwargs):
                v = (real(*args, **kwargs) if values[part] is None
                     else values[part])
                served[part].append(v)
                return v
            return rule

        with monkeypatch.context() as m:
            for part, attr in parts.items():
                m.setattr(partitioning, attr,
                          serve(part, getattr(partitioning, attr)))
            yield served

    return patched
