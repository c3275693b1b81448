"""Broadcastable state: BM25 index, gazetteer matcher, union-find, manifests.

Objects here are built ONCE per worker process (``partitioning.worker_state``)
from a ``ray.put`` broadcast of the small side (SURVEY.md §2.4 J2: KB
broadcast to every retrieving worker) and are plain Python/numpy — no Ray
imports.
"""
