"""Shared partitioning helpers: cluster-derived bucket fan-outs,
vectorized deterministic key->bucket hashing, the two exchanges every
bucketed operator shuffles through, the one broadcast-size rule, and the
one way a worker resolves a broadcast and keeps the state built from it.

The fan-out rule, stated once: every bucketed operator reads its
fan-out from the functions below, on the driver, when it builds its plan,
and hands the values to worker code through closures or ``fn_kwargs``; no
worker asks the cluster.  It has four parts:

- ``default_buckets()`` reducer groups (~2 per CPU of
  ``ray.cluster_resources()``, at least 16) and ``default_salts()`` salts
  per key (the same, capped at ``SALTS_MAX``), so a 256-node cluster gets
  proportionally more reducers with no code change;
- ``triangle_split()``, the S of every S*(S+1)/2-cell triangle self-join
  over the buckets: ``max(2, ceil(sqrt(2 * default_buckets())))``, so the
  cells number about one per bucket;
- ``group_row_cap()``, a reducer-group row cap every salted reduce
  asserts (``check_group_cap``): None in production, a number in the
  planted-hot-key tests;
- ``overflow_rows(plan)``, the bucket size above which a banded
  near-dup plan redistributes a hot bucket over triangle cells
  (``OVERFLOW_ROWS``: 200 for MinHash and SimHash, 500 for cosine LSH).

Tests vary the fan-out by patching these module attributes, never by an
operator option.

Every single-input bucketed operator shuffles through ``bucket_exchange``;
every two-input co-partition (joins, build/probe plans, rebuilds) goes
through ``co_partition``, which hands each bucket both sides as Arrow
tables with their own exact schemas.

The salt rule, stated once: a salted exchange's phase-1 group id is
``bucket * ns + salt``.  Rows that keep their document (token postings,
dedup lines) salt on ``bucket_array(doc_id, ns)``, so a hot key's rows
spread ~uniformly over ``ns`` groups.  Pre-aggregated partials get ONE
salt per batch, a fingerprint of the batch's cells: the batch still
emits one partial row per key, and the batches spread over ``ns``
groups.  Salting partials per document instead multiplies a hot key's
partial rows up to ``ns``-fold and leaves its largest group as big as
unsalted.

The broadcast rule, stated once: a side whose measured size passes
``fits_broadcast`` (at most ``BROADCAST_MAX_BYTES``) may be collected on
the driver and broadcast to every worker.  Every driver-side size
decision asks that one predicate, at call time: the plan gates pick
their driver or broadcast plan below it and their distributed plan
above it, and the size guards of operators that have no distributed
plan raise above it.  256 MiB because parquet that size inflates to a
few GB in memory, the sane per-worker ceiling.

The worker-state rule, stated once: a broadcast reaches a plain task as
an ``ObjectRef`` in ``fn_kwargs`` and is read through ``resolve``.  State
built from it (an index, a model, a lookup table) lives in the worker
process through ``worker_state(slot, key, factory)``.  Each consumer owns
one module-level slot dict keyed by its refs, and a slot holds at most
one live state, so a new broadcast replaces only that consumer's state:
the flagship's kernel and its canonical map never evict each other.  The
factory is where a model would load, once per worker.  A slot is read
only from module-level functions: a nested function travels to the
worker by value, with a fresh copy of every module dict it names.
Kept state is frozen out of the cyclic collector (``gc.freeze``), so a
full collection does not walk an index, a trie or a memo that lives as
long as its broadcast; ``worker_state`` is the one place that decides
this.

The scheduling rule, stated once: a Dataset the library builds runs at
the width the cluster gives it.  Ray Data's per-operator resource
reservation (``op_resource_reservation_enabled``) admits a task only if
its operator's reserved share covers the task's estimated usage, and
before any task has finished that estimate is a fixed first guess (two
generator blocks of ``target_max_block_size``, 256 MiB) that exceeds the
share of a small object store; a plan of one fused operator then runs
one task at a time on a multi-CPU node.  ``run_at_width(ds)`` turns the
reservation off on ``ds.context``, the Dataset's own context, which
every Dataset derived from it shares; it is set on the root of a plan
(a read), and the process-wide ``DataContext.get_current()`` is never
touched, because a caller's own Datasets share that one.  Without the
reservation Ray Data keeps CPU admission and the streaming-generator
buffer, so the object store stays bounded (``tests/test_scheduling.py``
runs the flagship under a store smaller than its raw triples).
``run_at_width`` is the one place that sets a ``DataContext`` scheduling
field.
"""

from __future__ import annotations

import functools
import gc

import numpy as np

BROADCAST_MAX_BYTES = 256 << 20


def fits_broadcast(nbytes: int | None) -> bool:
    """True when a side of ``nbytes`` measured bytes may go to the
    driver or be broadcast (``None``, an unknown size, counts as 0)."""
    return (nbytes or 0) <= BROADCAST_MAX_BYTES


def resolve(x):
    """The value behind a broadcast ``ObjectRef``; any other value as is."""
    import ray

    return ray.get(x) if isinstance(x, ray.ObjectRef) else x


def worker_state(slot: dict, key, factory):
    """This worker's state for ``key`` in ``slot``, built by ``factory()``
    on first use.  A new key drops the slot's old state.  An unhashable
    key (an in-process value, not a ref) builds afresh on every call.

    Built state is moved to the collector's permanent generation: in a
    Ray worker one full collection over a kernel's state costs about 50
    ms.  The unfreeze before a build lets the collector free what the
    old state leaves; no collection is forced here."""
    try:
        if key in slot:
            return slot[key]
    except TypeError:
        return factory()
    gc.unfreeze()
    slot.clear()
    st = slot[key] = factory()
    gc.freeze()
    return st


def run_at_width(ds):
    """``ds``, with Ray Data's per-operator resource reservation off on
    its own context (the scheduling rule in the module docstring)."""
    ds.context.op_resource_reservation_enabled = False
    return ds


SALTS_MAX = 64
OVERFLOW_ROWS = {"minhash": 200, "simhash": 200, "lsh": 500}


def default_buckets(per_cpu: int = 2, lo: int = 16) -> int:
    """Bucket fan-out scaled to the cluster: ~``per_cpu`` buckets per CPU.
    Buckets are shuffle-reducer units — more than a few per CPU only adds
    scheduling overhead; fewer serializes reducers.

    There is deliberately NO upper clamp (round-2 verdict: the old
    ``hi=1024`` cap meant one bucket = corpus/1024 beyond 512 CPUs — too
    big for one reducer at 100 TB).  The per-bucket memory bound is
    therefore ~corpus_bytes/(cpus*per_cpu) at any cluster size."""
    try:
        import ray

        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    return int(max(lo, cpus * per_cpu))


def default_salts() -> int:
    """Salt fan-out for two-phase (key, salt) -> (key) combines over
    Zipf-skewed key spaces (token vocabularies); the salt itself follows
    the rule in the module docstring.  Scales with the cluster like
    ``default_buckets`` but capped: the phase-2 group then carries
    <= salts rows per key, and past ``SALTS_MAX`` the extra fan-out only
    multiplies phase-2 volume."""
    return min(SALTS_MAX, default_buckets())


def triangle_split() -> int:
    """S of a triangle self-join: S*(S+1)/2 cells, ~one per bucket."""
    return max(2, int(np.ceil(np.sqrt(2 * default_buckets()))))


def group_row_cap() -> int | None:
    """The reducer-group row cap salted reduces assert; None (no cap) in
    production."""
    return None


def overflow_rows(plan: str) -> int:
    """Hot-bucket size above which ``plan``'s banded pairs redistribute."""
    return OVERFLOW_ROWS[plan]


class BloomFilter:
    """Fixed-size mergeable Bloom filter over int/str keys (k=4 hashes via
    double hashing on pandas' SipHash).  No false negatives — the safe
    PRE-filter for semi joins: definitely-absent left rows drop before the
    shuffle, false positives fall through to the exact in-bucket check.
    Partials OR-merge (combiner pattern)."""

    K = 4

    def __init__(self, n_bits: int = 1 << 20, bits: np.ndarray | None = None):
        self.n_bits = n_bits
        self.bits = (bits if bits is not None
                     else np.zeros(n_bits // 8 + 1, dtype=np.uint8))

    def _positions(self, values) -> np.ndarray:
        import pandas as pd

        if hasattr(values, "to_numpy"):
            values = values.to_numpy(zero_copy_only=False)
        arr = np.asarray(values)
        h1 = pd.util.hash_array(arr, categorize=False)
        h2 = (h1 >> np.uint64(17)) | np.uint64(1)  # odd -> full cycle
        ks = np.arange(self.K, dtype=np.uint64)[:, None]
        return ((h1[None, :] + ks * h2[None, :])
                % np.uint64(self.n_bits)).reshape(-1)

    def add_many(self, values) -> None:
        pos = self._positions(values)
        np.bitwise_or.at(self.bits, pos >> 3,
                         np.left_shift(1, (pos & 7)).astype(np.uint8))

    def contains_many(self, values) -> np.ndarray:
        pos = self._positions(values).reshape(self.K, -1)
        ok = np.ones(pos.shape[1], dtype=bool)
        for k in range(self.K):
            p = pos[k]
            ok &= (self.bits[p >> 3] >> (p & 7).astype(np.uint8)) & 1 == 1
        return ok

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        return BloomFilter(self.n_bits, self.bits | other.bits)


_BLOOM_STATE: dict = {}  # broadcast_bloom's slot: bits ref -> BloomFilter


def broadcast_bloom(bits_ref, n_bits: int) -> BloomFilter:
    """This worker's ``BloomFilter`` over the broadcast bit array."""
    return worker_state(_BLOOM_STATE, bits_ref,
                        lambda: BloomFilter(n_bits, resolve(bits_ref)))


def _row_hash(arrays) -> np.ndarray:
    """uint64 SipHash per row of a COMPOSITE key (several aligned
    Arrow/numpy columns), combined per column with a polynomial mix;
    datetime columns hash via their int64 view."""
    import pandas as pd

    h = None
    for values in arrays:
        if hasattr(values, "to_numpy"):
            arr = values.to_numpy(zero_copy_only=False)
        else:
            arr = np.asarray(values)
        if arr.dtype.kind == "M":
            arr = arr.view(np.int64)
        hc = pd.util.hash_array(arr, categorize=False)
        h = hc if h is None else h * np.uint64(1000003) + hc
    return h


def bucket_multi(arrays, n_buckets: int) -> np.ndarray:
    """Deterministic vectorized bucket ids for a COMPOSITE key (several
    aligned Arrow/numpy columns).  Same cross-process-stable SipHash as
    ``bucket_array``, so for a single key the ids are equal."""
    return (_row_hash(arrays) % np.uint64(n_buckets)).astype(np.int32)


def batch_salt(t, n_salts: int) -> int:
    """THE salt of a batch of pre-aggregated partials: the wrapping sum
    of its rows' hashes over every column, mod ``n_salts``.  A pure
    function of the batch's cells, so reruns regroup identically, and
    batches with different content spread ~uniformly over the salts."""
    if not t.num_rows:
        return 0
    h = _row_hash([t[c] for c in t.column_names])
    return int(h.sum(dtype=np.uint64) % np.uint64(n_salts))


def bucket_exchange(ds, keys, per_bucket, *, prep=None,
                    n_buckets: int | None = None, combine=None,
                    n_salts: int | None = None, salt_col: str | None = None):
    """THE single-input hash-bucket exchange: every row (after the
    optional per-batch pyarrow ``prep``, typically a combiner that
    pre-aggregates to partial rows) gets ``__b = bucket_multi(keys, nb)``,
    ONE shuffle co-locates each key's rows, and ``per_bucket`` (pandas
    bucket group, ``__b`` included -> frame/table) finishes the bucket.
    Dispatch is O(buckets), not O(keys); a key's rows never span two
    ``per_bucket`` calls, so any per-key computation completes
    bucket-locally.  ``nb`` = ``n_buckets`` or the cluster-derived
    ``default_buckets()``; for a single key ``__b`` equals
    ``bucket_array(key, nb)``, which co-partitioned join plans rely on.

    Salted two-phase mode (``combine`` given), for mergeable reduces
    whose hot key would serialize one reducer: phase 1 groups on
    ``__b = bucket_multi(keys, nb) * ns + salt`` and ``combine``
    merges each salt group's rows to partial rows that keep the key
    columns; phase 2 re-buckets those partials on ``keys`` and
    ``per_bucket`` finishes each key from its <= ns partials (one per
    phase-1 group), ``ns`` = ``n_salts`` or ``default_salts()``.  The
    salt is ``bucket_array(salt_col, ns)`` when ``salt_col`` names a
    per-row column (rows that keep their document), else ``batch_salt``
    (pre-aggregated partials: one salt per batch).  In this mode every
    group's row count is asserted against ``group_row_cap()``, once per
    phase (``check_group_cap``).

    The pandas schema metadata a pandas-block input (e.g. a previous
    exchange's output) picks up on conversion is dropped: it makes the
    block schema unhashable and the reducers log "Failed to hash the
    schemas" per block."""
    import pyarrow as pa

    nb = n_buckets or default_buckets()
    row_cap = group_row_cap() if combine is not None else None

    def tag(prep_fn, ns: int):
        def add_group(t: pa.Table) -> pa.Table:
            if prep_fn is not None:
                t = prep_fn(t)
            t = t.replace_schema_metadata()
            if "__b" in t.column_names:  # the previous phase's group id
                t = t.drop_columns(["__b"])
            g = bucket_multi([t[k] for k in keys], nb)
            if ns:  # phase 1 of the salted mode
                g = g.astype(np.int64) * ns + (
                    bucket_array(t[salt_col], ns) if salt_col
                    else batch_salt(t, ns))
            return t.append_column("__b", pa.array(g))
        return add_group

    def capped(fn):
        @functools.wraps(fn)
        def call(g):
            check_group_cap(len(g), row_cap, call.__qualname__)
            return fn(g)
        return call

    if combine is not None:
        ds = (ds.map_batches(tag(prep, n_salts or default_salts()),
                             batch_format="pyarrow")
              .groupby("__b")
              .map_groups(capped(combine), batch_format="pandas"))
        prep = None
    return (ds.map_batches(tag(prep, 0), batch_format="pyarrow")
            .groupby("__b")
            .map_groups(capped(per_bucket), batch_format="pandas"))


def co_partition(left, right, keys, per_bucket, *,
                 n_buckets: int | None = None, salt=None):
    """THE two-input hash-bucket exchange: each side's rows bucket on
    ``bucket_multi`` of that side's own key columns (``keys`` is the
    pair ``(left_keys, right_keys)``; the names may differ), ONE union +
    ONE shuffle co-locates a key's rows from both sides, and
    ``per_bucket(lt, rt)`` finishes the bucket.  ``lt``/``rt`` are
    pyarrow tables holding exactly their side's columns with their
    side's types — either may have zero rows, never a wrong schema.

    The exchange carries each side under its own prefixed column names
    (the other side's slots are typed nulls), and the split back happens
    in Arrow, so nothing is ever null-widened through pandas: int64
    values above 2^53 arrive bit-exact, and the sides may share
    non-key column names.

    ``salt=(col, ns)`` is the replicated-build plan for a Zipf-hot key:
    left (probe) rows add ``bucket_array(left[col], ns)`` to their group
    id ``bucket * ns + salt``, and every right (build) row is replicated
    once per salt, so a hot key's probe mass splits ~ns ways while every
    probe row still meets its build rows.  Without a salt the group id
    is the bucket, which for a single key equals ``bucket_array(key,
    nb)``."""
    import pyarrow as pa
    import pyarrow.compute as pc

    nb = n_buckets or default_buckets()
    ns = salt[1] if salt else 1
    (lds, lschema), (rds, rschema) = (ensure_arrow(ds)
                                      for ds in (left, right))
    schemas = (lschema, rschema)  # workers get these, not the datasets
    names = [f"{i}.{c}" for i, schema in enumerate(schemas)
             for c in schema.names] + ["__side", "__b"]

    def tag(i: int):
        def tag_rows(t: pa.Table) -> pa.Table:
            n = t.num_rows
            g = bucket_multi([t[k] for k in keys[i]], nb).astype(np.int64)
            g *= ns
            if salt and i == 0:
                g += bucket_array(t[salt[0]], ns)
            elif salt:
                t = t.take(np.repeat(np.arange(n), ns))
                g = np.repeat(g, ns) + np.tile(np.arange(ns), n)
                n *= ns
            cols = [t[f.name] if j == i else pa.nulls(n, f.type)
                    for j, schema in enumerate(schemas) for f in schema]
            cols += [pa.array(np.full(n, i, np.int8)), pa.array(g)]
            return pa.Table.from_arrays(cols, names=names)
        return tag_rows

    def split(g: pa.Table):
        lt, rt = (g.filter(pc.equal(g["__side"], i))
                  .select([f"{i}.{c}" for c in schema.names])
                  .rename_columns(schema.names).cast(schema)
                  for i, schema in enumerate(schemas))
        return per_bucket(lt, rt)

    return (lds.map_batches(tag(0), batch_format="pyarrow")
            .union(rds.map_batches(tag(1), batch_format="pyarrow"))
            .groupby("__b")
            .map_groups(split, batch_format="pyarrow"))


def bucket_array(values, n_buckets: int) -> np.ndarray:
    """Deterministic vectorized bucket ids for an Arrow array / ChunkedArray
    / numpy array of ints or strings (pandas' SipHash; stable across
    processes — required, since map tasks on different workers must agree
    on the bucket of a key)."""
    return bucket_multi([values], n_buckets)


def check_group_cap(n_rows: int, row_cap: int | None, site: str) -> None:
    """Reducer-group row-cap assertion against a ``group_row_cap()`` read
    on the driver (None: no cap).  Raising here means a salted two-phase
    reduce failed to bound its group — a bug, not a data problem."""
    if row_cap is not None and n_rows > row_cap:
        raise AssertionError(
            f"{site}: reducer group holds {n_rows} rows "
            f"(> cap {row_cap}) — salting failed to spread a hot key")


def ensure_arrow(ds):
    """(ds, pyarrow schema) — ``co_partition`` types the other side's
    null slots from it.

    Datasets whose upstream stage returned pandas blocks report a
    PandasBlockSchema (numpy/python types), so such inputs are rewrapped
    through an identity Arrow map_batches first (zero-copy for columns
    Arrow can represent)."""
    import pyarrow as pa

    schema = ds.schema()
    if not all(isinstance(t, pa.DataType) for t in schema.types):
        ds = ds.map_batches(lambda t: t, batch_format="pyarrow")
        schema = ds.schema()
    return ds, pa.schema(list(zip(schema.names, schema.types)))


def deterministic_shuffle(ds, id_col: str = "doc_id",
                          n_shards: int | None = None):
    """Deterministic, resumable global TRAINING-DATA shuffle: assign
    every row a (shard, pos) from the md5 of its id — the corpus-order
    randomization an LM training run needs, as a pure function of the
    id (rerunnable, resumable, no RNG state; cf. the hash-based example
    ordering in T5/C4 and Dolma's deterministic shard layout).

    shard = int(md5(str(id))[:8], 16) % n_shards; pos = rank of the md5
    hex within the shard (ties — impossible in practice — break on id).
    Returns Dataset(id_col, shard, pos), pos 0-based and contiguous per
    shard.

    100-TB shape: the payload never moves — feed this ONLY the id
    column and join/route the text by (shard, pos) at write time.  One
    fixed-width hash shuffle; each shard group holds n/n_shards 48-byte
    rows (cluster-scale n_shards to bound it).  Exactly
    SQL-expressible: md5 + CAST('0x'||substr AS BIGINT) + row_number
    mirror this in the registered oracle."""
    import hashlib

    import pandas as pd
    import pyarrow as pa

    ns = n_shards or default_buckets()

    def hash_rows(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        hx = [hashlib.md5(str(int(i)).encode()).hexdigest() for i in ids]
        shard = np.array([int(h[:8], 16) % ns for h in hx], np.int64)
        return pa.table({
            id_col: pa.array(ids.astype(np.int64)),
            "shard": pa.array(shard),
            "hx": pa.array(hx, pa.string()),
        })

    def rank_shard(g: pd.DataFrame) -> pa.Table:
        out = g.sort_values(["hx", id_col], kind="mergesort")
        return pa.table({
            id_col: pa.array(out[id_col].to_numpy(np.int64)),
            "shard": pa.array(out["shard"].to_numpy(np.int64)),
            "pos": pa.array(np.arange(len(out), dtype=np.int64)),
        })

    return (ds.map_batches(hash_rows, batch_format="pyarrow")
            .groupby("shard")
            .map_groups(rank_shard, batch_format="pandas"))
