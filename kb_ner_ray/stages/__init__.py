"""map_batches stage implementations.

Every stage is a plain function (Arrow table in / Arrow table out) run as
a plain task.  A stateful stage receives its ``ray.put`` broadcasts as
refs in ``fn_kwargs``, reads them through ``partitioning.resolve`` and
builds its heavy state (an index, a gazetteer, a model) once per worker
process through ``partitioning.worker_state``, in a module-level slot of
its own.
"""
