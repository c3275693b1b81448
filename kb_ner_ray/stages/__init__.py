"""map_batches stage implementations.

Stateless stages are plain functions (Arrow table in / Arrow table out).
Stateful stages build their heavy state once from ``ray.put`` broadcasts:
either per worker process behind a plain-task function (the sentence
kernel, ``tagger.worker_state``) or per actor in a callable class run as an
actor pool (``map_batches(Cls, concurrency=N, batch_size=B)``).
"""
