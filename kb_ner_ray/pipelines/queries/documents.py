"""Queries over the ``documents`` table: text statistics, quality
signals, dedup and decontamination, training-data mechanics and the
near-dup graph."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ...stages import partitioning
from ...stages.partitioning import bucket_exchange
from ._common import _cents, _keep_keys, _read, _table_bytes, _tree_agg


def q_doc_token_explode(sf_dir: str):
    """UNNEST/explode seat with an exact oracle: one row per (doc_id,
    position, token) over whitespace-split document text — the engine-side
    flat_map shape (vectorized repeat + concat, no per-row Python beyond
    the split) vs DuckDB unnest."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def explode(t: pa.Table) -> pa.Table:
        doc_ids = t["doc_id"].to_numpy()
        toks_per_doc = [s.split() for s in t["text"].to_pylist()]
        counts = np.array([len(x) for x in toks_per_doc], dtype=np.int64)
        flat = [w for toks in toks_per_doc for w in toks]
        pos = np.concatenate([np.arange(1, c + 1) for c in counts]) \
            if len(counts) else np.array([], dtype=np.int64)
        return pa.table({
            "doc_id": pa.array(np.repeat(doc_ids, counts), pa.int64()),
            "pos": pa.array(pos, pa.int64()),
            "token": pa.array(flat, pa.string()),
        })

    return ds.map_batches(explode, batch_format="pyarrow")


SQL_TOKEN_EXPLODE = """
SELECT doc_id,
       CAST(generate_subscripts(toks, 1) AS BIGINT) AS pos,
       unnest(toks) AS token
FROM (SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS toks
      FROM documents)
"""


def q_doc_token_stats(sf_dir: str):
    from ...stages.textstats import doc_token_stats

    return (_read(sf_dir, "documents", columns=["doc_id", "text"])
            .map_batches(doc_token_stats, batch_format="pyarrow"))


SQL_DOC_TOKEN_STATS = """
SELECT doc_id,
       length(text) AS n_chars,
       len(regexp_split_to_array(trim(text), '\\s+')) AS n_tokens,
       length(regexp_replace(text, '[a-zA-Z0-9_ \t\n]', '', 'g')) AS punct_cnt,
       len(list_filter(regexp_split_to_array(trim(lower(text)), '\\s+'),
           w -> list_contains(['the','and','of','a','to','in','is','it','for','on'], w)))
           AS stopword_cnt
FROM documents
"""


def q_doc_fingerprints(sf_dir: str):
    from ...stages.textstats import doc_fingerprints

    return (_read(sf_dir, "documents", columns=["doc_id", "text"])
            .map_batches(doc_fingerprints, batch_format="pyarrow"))


SQL_DOC_FINGERPRINTS = """
SELECT doc_id, md5(lower(regexp_replace(text, '\\s+', ' ', 'g'))) AS fp
FROM documents
"""


def q_dedup_exact(sf_dir: str):
    from ...stages.dedup import exact_dedup

    ds = exact_dedup(_read(sf_dir, "documents", columns=["doc_id", "text"]))
    df = ds.to_pandas()
    df["doc_id"] = df["doc_id"].astype(np.int64)
    df["n_dups"] = df["n_dups"].astype(np.int64)
    return df


SQL_DEDUP_EXACT = """
SELECT min(doc_id) AS doc_id, md5(text) AS content_hash, count(*) AS n_dups
FROM documents GROUP BY md5(text)
"""


def q_minhash_dedup(sf_dir: str):
    """MinHash+LSH near-dup pairs, zero corpus broadcast.  AUTO-SELECTED:
    in-band verification (2 shuffles, N_BANDS x signature payload) while
    the corpus passes ``partitioning.fits_broadcast``; the byte-lean
    3-shuffle join path (stages/dedup.py minhash_lsh_pairs) otherwise."""
    from ...stages.dedup import minhash_lsh_pairs, minhash_lsh_pairs_inband

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    if partitioning.fits_broadcast(_table_bytes(sf_dir, "documents")):
        ds = minhash_lsh_pairs_inband(docs, threshold=0.8)
    else:
        ds = minhash_lsh_pairs(docs, threshold=0.8)
    df = ds.to_pandas()
    df["jaccard_bp"] = _cents(df["jaccard"], 10000)
    return df[["doc_a", "doc_b", "jaccard_bp"]].astype(np.int64)


def q_simhash_dedup(sf_dir: str):
    from ...stages.dedup import simhash_near_dups

    df = simhash_near_dups(
        _read(sf_dir, "documents", columns=["doc_id", "text"])).to_pandas()
    return df[["doc_a", "doc_b", "hamming"]].astype(np.int64)


def q_doc_langid(sf_dir: str):
    from ...stages.textstats import doc_langid

    return (_read(sf_dir, "documents", columns=["doc_id", "text"])
            .map_batches(doc_langid, batch_format="pyarrow"))


def q_doc_quality(sf_dir: str):
    from ...stages.textstats import doc_quality

    df = (_read(sf_dir, "documents", columns=["doc_id", "text"])
          .map_batches(doc_quality, batch_format="pyarrow").to_pandas())
    df["quality_bp"] = _cents(df["quality"], 10000)
    return df[["doc_id", "quality_bp"]].astype(np.int64)


SQL_DOC_QUALITY = """
WITH s AS (
  SELECT doc_id,
         length(text) AS n_chars,
         len(regexp_split_to_array(trim(text), '\\s+')) AS n_tokens,
         length(regexp_replace(text, '[a-zA-Z0-9_ \t\n]', '', 'g')) AS punct_cnt,
         len(list_filter(regexp_split_to_array(trim(lower(text)), '\\s+'),
             w -> list_contains(['the','and','of','a','to','in','is','it','for','on'], w)))
             AS stopword_cnt
  FROM documents
)
SELECT doc_id,
       CAST(FLOOR(ROUND(
         0.4 * (CASE WHEN n_tokens BETWEEN 10 AND 100000 THEN 1.0 ELSE 0.0 END)
         + 0.3 * LEAST(1.0, 4.0 * stopword_cnt / GREATEST(1, n_tokens))
         + 0.3 * (1.0 - LEAST(1.0, 5.0 * punct_cnt / GREATEST(1, n_chars)))
       , 6) * 10000 + 0.5) AS BIGINT) AS quality_bp
FROM s
"""


def q_corpus_stats(sf_dir: str):
    """Token-length histogram over documents (reference A3 corpus-stats
    seat, flair/data.py obtain_statistics) — combiner + driver-final."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        n_tok = [len(x.split()) for x in t["text"].to_pylist()]
        n_chars = [len(x) for x in t["text"].to_pylist()]
        return pa.table({
            "bucket": pa.array([n // 10 for n in n_tok], pa.int64()),
            "n_chars": pa.array(n_chars, pa.int64()),
        }).group_by("bucket").aggregate(
            [("n_chars", "sum"), ("n_chars", "count")])

    df = _tree_agg(ds, ["bucket"], partial,
                   {"n_chars_sum": "sum", "n_chars_count": "sum"})
    out = df[["bucket"]].copy()
    out["n_docs"] = df["n_chars_count"].astype(np.int64)
    out["sum_chars"] = df["n_chars_sum"].astype(np.int64)
    return out


SQL_CORPUS_STATS = """
SELECT len(regexp_split_to_array(trim(text), '\\s+')) // 10 AS bucket,
       count(*) AS n_docs,
       CAST(sum(length(text)) AS BIGINT) AS sum_chars
FROM documents GROUP BY bucket
"""

JACCARD_THRESHOLD = 0.82


def q_ngram_jaccard(sf_dir: str):
    """Length-blocked pairwise character-set Jaccard (DuckDB jaccard()
    semantics — the one dedup flavour with an EXACT SQL oracle)."""
    from ...stages.dedup import ngram_jaccard_pairs

    df = ngram_jaccard_pairs(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        threshold=JACCARD_THRESHOLD).to_pandas()
    if df.empty:
        return pd.DataFrame({"doc_a": pd.Series([], dtype=np.int64),
                             "doc_b": pd.Series([], dtype=np.int64),
                             "jac_bp": pd.Series([], dtype=np.int64)})
    df["jac_bp"] = _cents(df["jaccard"], 10000)
    return df[["doc_a", "doc_b", "jac_bp"]].astype(np.int64)


# the near-dup pairs (a < b) of the charset-Jaccard graph, blocked on
# equal token counts, with their similarity in basis points: the CTEs
# every near-dup oracle starts from
_SQL_JACCARD_PAIRS = f"""
d AS (
  SELECT doc_id, text,
         len(regexp_split_to_array(trim(text), '\\s+')) AS n_tokens
  FROM documents),
pairs AS (
  SELECT a.doc_id AS a, b.doc_id AS b,
         CAST(FLOOR(jaccard(a.text, b.text) * 10000 + 0.5) AS BIGINT)
           AS jac_bp
  FROM d a JOIN d b ON a.n_tokens = b.n_tokens AND a.doc_id < b.doc_id
  WHERE jaccard(a.text, b.text) >= {JACCARD_THRESHOLD})"""

SQL_NGRAM_JACCARD = f"""
WITH {_SQL_JACCARD_PAIRS}
SELECT a AS doc_a, b AS doc_b, jac_bp FROM pairs
"""


def q_ngram_jaccard_components(sf_dir: str):
    """Distributed connected components over the exact-oracled
    charset-Jaccard pairs (stages/components.py hash-min propagation) —
    the dedup-apply CLUSTER step, exact-oracled via a DuckDB recursive
    CTE transitive closure."""
    from ...stages.components import components_from_pairs
    from ...stages.dedup import ngram_jaccard_pairs

    pairs = ngram_jaccard_pairs(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        threshold=JACCARD_THRESHOLD)
    df = components_from_pairs(pairs).to_pandas()
    if df.empty:
        return pd.DataFrame({"node": pd.Series([], dtype=np.int64),
                             "component": pd.Series([], dtype=np.int64)})
    return (df[["node", "component"]].astype(np.int64)
            .sort_values("node").reset_index(drop=True))


def q_near_dup_keep(sf_dir: str):
    """Dedup-APPLY: documents surviving near-dup removal (keep the
    minimum-id member of every charset-Jaccard component, pass
    non-members through).  The full pair->cluster->anti-join chain,
    exact-oracled."""
    from ...stages.components import near_dup_keep
    from ...stages.dedup import ngram_jaccard_pairs

    pairs = ngram_jaccard_pairs(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        threshold=JACCARD_THRESHOLD)
    docs = _read(sf_dir, "documents", columns=["doc_id"])
    df = near_dup_keep(docs, pairs).to_pandas()
    return (df[["doc_id"]].astype(np.int64)
            .sort_values("doc_id").reset_index(drop=True))


# the pairs' graph and its connected components, ``comp`` (node, min-id
# component); follows ``WITH RECURSIVE``
_SQL_JACCARD_EDGES = f"""{_SQL_JACCARD_PAIRS},
edges AS (
  SELECT a, b FROM pairs
  UNION SELECT b, a FROM pairs),
reach(node, r) AS (
  SELECT a, a FROM edges
  UNION
  SELECT reach.node, e.b FROM reach JOIN edges e ON reach.r = e.a),
comp AS (
  SELECT node, CAST(min(r) AS BIGINT) AS component
  FROM reach GROUP BY node)"""

SQL_NGRAM_COMPONENTS = f"""
WITH RECURSIVE {_SQL_JACCARD_EDGES}
SELECT CAST(node AS BIGINT) AS node, component FROM comp
"""

SQL_NEAR_DUP_KEEP = f"""
WITH RECURSIVE {_SQL_JACCARD_EDGES}
SELECT CAST(doc_id AS BIGINT) AS doc_id FROM documents
WHERE doc_id NOT IN (SELECT node FROM comp WHERE node <> component)
"""


QUALITY_MIN_BP = 5000  # keep docs with quality >= 0.5


def q_corpus_prep(sf_dir: str):
    """Composite training-data prep pipeline — the operators CHAINED the
    way a real corpus build runs them: exact dedup (keep min doc_id per
    content hash) -> quality filter (quality_bp >= 5000, same floor
    rounding both sides) -> deterministic split assignment -> per-split
    counts.  Every stage is individually exact-oracled; the composition is
    too.  (The language-ID gate stays out of this composition: the n-gram
    heuristic is not SQL-expressible — see doc_langid, rows-only.)"""
    from ...stages.textstats import doc_quality as quality_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    # stage 1: exact dedup — broadcast the set of surviving doc_ids
    from ...stages.dedup import exact_dedup

    keep_ids = ray.put(pa.array(
        sorted(exact_dedup(ds).to_pandas()["doc_id"].astype(int).tolist()),
        pa.int64()))

    # stages 2-3 fused in one vectorized pass: quality gate + split counts
    def prep(t: pa.Table) -> pa.Table:
        q = quality_batch(t)  # (doc_id, quality)
        q_bp = _cents(q["quality"], 10000)  # _cents np.asarray's the column
        t = t.filter(pa.array(q_bp >= QUALITY_MIN_BP, pa.bool_()))
        return pa.table({"split": _split_of(t["doc_id"])}).group_by(
            "split").aggregate([("split", "count")])

    pdf = (ds.map_batches(_keep_keys, batch_format="pyarrow",
                          fn_kwargs={"col": "doc_id", "keys_ref": keep_ids})
           .map_batches(prep, batch_format="pyarrow")
           .to_pandas())
    df = pdf.groupby("split", as_index=False).agg(
        n_docs=("split_count", "sum"))
    df["n_docs"] = df["n_docs"].astype(np.int64)
    return df


SQL_CORPUS_PREP = """
WITH dedup AS (
  SELECT min(doc_id) AS doc_id FROM documents GROUP BY md5(text)
), surv AS (
  SELECT d.doc_id, d.text FROM documents d
  JOIN dedup k ON d.doc_id = k.doc_id
), scored AS (
  SELECT doc_id, text,
         length(text) AS n_chars,
         len(regexp_split_to_array(trim(text), '\\s+')) AS n_tokens,
         length(regexp_replace(text, '[a-zA-Z0-9_ \t\n]', '', 'g')) AS punct_cnt,
         len(list_filter(regexp_split_to_array(trim(lower(text)), '\\s+'),
             w -> list_contains(['the','and','of','a','to','in','is','it','for','on'], w)))
             AS stopword_cnt
  FROM surv
), quality AS (
  SELECT doc_id,
         CAST(FLOOR(ROUND(
           0.4 * (CASE WHEN n_tokens BETWEEN 10 AND 100000 THEN 1.0 ELSE 0.0 END)
           + 0.3 * LEAST(1.0, 4.0 * stopword_cnt / GREATEST(1, n_tokens))
           + 0.3 * (1.0 - LEAST(1.0, 5.0 * punct_cnt / GREATEST(1, n_chars)))
         , 6) * 10000 + 0.5) AS BIGINT) AS quality_bp
  FROM scored
)
SELECT CASE WHEN s.doc_id % 10 < 8 THEN 'train'
            WHEN s.doc_id % 10 = 8 THEN 'dev' ELSE 'test' END AS split,
       count(*) AS n_docs
FROM surv s JOIN quality q ON s.doc_id = q.doc_id
WHERE q.quality_bp >= 5000
GROUP BY 1
"""


def q_doc_splits(sf_dir: str):
    """Deterministic train/dev/test assignment (reference O5 seat,
    tools/split.py 80/10/10): modulo split on the stable doc key — hash/mod
    instead of RNG so the assignment is reproducible and oracle-checkable."""
    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def assign(t: pa.Table) -> pa.Table:
        return t.append_column("split", _split_of(t["doc_id"]))

    return ds.map_batches(assign, batch_format="pyarrow")


SQL_DOC_SPLITS = """
SELECT doc_id,
       CASE WHEN doc_id % 10 < 8 THEN 'train'
            WHEN doc_id % 10 = 8 THEN 'dev' ELSE 'test' END AS split
FROM documents
"""


def q_doc_repeated_ngrams(sf_dir: str):
    """Cross-document repeated 10-gram passages (the boilerplate signal
    behind Lee et al. 2022 training-data dedup): pre-aggregated gram->doc
    pairs, one cluster-scaled gram-bucket shuffle, distinct-doc counts.
    Rows-only (blake2b gram hashing isn't SQL-portable); semantics pinned
    by the planted-passage test."""
    from ...stages.dedup import repeated_ngrams

    df = (repeated_ngrams(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        n=10, min_docs=2).to_pandas()
        .sort_values(["n_docs", "gram"], ascending=[False, True])
        .reset_index(drop=True))
    return df


def q_doc_passage_dedup(sf_dir: str):
    """ExactSubstr APPLY (Lee et al. 2022): rewrite the corpus with every
    non-canonical occurrence of a cross-doc repeated 10-gram cut out
    (globally-first occurrence survives).  Two fixed-width-key shuffles;
    text travels once.  Rows-only; rewrite semantics pinned by the
    planted-passage apply test (tests/test_ops.py)."""
    from ...stages.dedup import remove_repeated_passages

    return remove_repeated_passages(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        n=10, min_docs=2)


LINE_WORDS = 6  # the synthetic corpus has no newlines; the query pins
# fixed 6-word windows as its "lines" so the dedup does real work (200
# duplicate windows at sf0.01) — a real web corpus feeds line_dedup its
# natural newlines instead.


def q_doc_line_dedup(sf_dir: str):
    """C4-style cross-document LINE dedup (stages/dedup.line_dedup):
    every duplicate of a non-empty stripped line drops corpus-wide
    (lexicographic-min (doc_id, line_idx) occurrence kept), docs rebuilt
    from their kept lines.  Salted line-hash bucket election + doc-bucket
    rebuild; exact DuckDB oracle (window row_number + ordered
    string_agg).  Lines here = LINE_WORDS-word windows (see above)."""
    from ...stages.dedup import line_dedup

    W = LINE_WORDS

    def to_lines(t):
        out = []
        for tx in t["text"].to_pylist():
            ws = tx.split()
            out.append("\n".join(" ".join(ws[j:j + W])
                                 for j in range(0, len(ws), W)))
        return pa.table({"doc_id": t["doc_id"],
                         "text": pa.array(out, pa.string())})

    ds = (_read(sf_dir, "documents", columns=["doc_id", "text"])
          .map_batches(to_lines, batch_format="pyarrow"))
    return line_dedup(ds)


# Both sides strip the SAME explicit set (space TAB CR VT FF): Python's
# bare str.strip()/Arrow utf8_trim_whitespace cover all Unicode
# whitespace, which SQL trim() cannot express — stages/dedup._LINE_STRIP.
# "Lines" are fixed 6-word windows (LINE_WORDS): 1-based-inclusive list
# slices ws[(i-1)*6+1 : i*6], the trailing partial window included.
SQL_DOC_LINE_DEDUP = r"""
WITH words AS (
  SELECT doc_id, string_split_regex(trim(text), '\s+') AS ws
  FROM documents),
lines AS (
  SELECT doc_id, i AS idx,
         trim(array_to_string(ws[(i - 1) * 6 + 1 : i * 6], ' '),
              ' ' || chr(9) || chr(13) || chr(11) || chr(12)) AS line
  FROM words,
       unnest(generate_series(
           1, CAST(ceil(len(ws) / 6.0) AS BIGINT))) AS g(i)),
nz AS (SELECT * FROM lines WHERE line <> ''),
ranked AS (
  SELECT doc_id, idx, line,
         row_number() OVER (PARTITION BY line ORDER BY doc_id, idx) AS rn
  FROM nz),
agg AS (
  SELECT doc_id,
         string_agg(line, chr(10) ORDER BY idx)
           FILTER (WHERE rn = 1) AS text,
         count(*) AS n_lines,
         count(*) FILTER (WHERE rn > 1) AS n_lines_removed
  FROM ranked GROUP BY doc_id)
SELECT d.doc_id,
       COALESCE(a.text, '') AS text,
       COALESCE(a.n_lines, 0) AS n_lines,
       COALESCE(a.n_lines_removed, 0) AS n_lines_removed
FROM documents d LEFT JOIN agg a ON a.doc_id = d.doc_id
"""


def q_corpus_shuffle(sf_dir: str):
    """Deterministic resumable training-data shuffle
    (stages/partitioning.deterministic_shuffle): md5-derived (shard,
    pos) per doc — pure function of doc_id, payload never moves, ONE
    fixed-width hash shuffle.  Exact DuckDB oracle (md5 + hex cast +
    row_number)."""
    from ...stages.partitioning import deterministic_shuffle

    return deterministic_shuffle(
        _read(sf_dir, "documents", columns=["doc_id"]),
        n_shards=16)


SQL_CORPUS_SHUFFLE = r"""
WITH h AS (
  SELECT doc_id, md5(CAST(doc_id AS VARCHAR)) AS hx FROM documents)
SELECT doc_id,
       CAST('0x' || substr(hx, 1, 8) AS BIGINT) % 16 AS shard,
       row_number() OVER (
           PARTITION BY CAST('0x' || substr(hx, 1, 8) AS BIGINT) % 16
           ORDER BY hx, doc_id) - 1 AS pos
FROM h
"""


PACK_SEQ_LEN = 128   # multi-sequence packing signal at test scale; a
PACK_SHARDS = 16     # real run packs 2048-token sequences


def q_pack_sequences(sf_dir: str):
    """GPT/T5 concat-and-chunk training-sequence packing
    (stages/packing.pack_training_sequences): an INDEX mapping each
    doc's token spans onto fixed-length sequences — payload never
    moves.  One fixed-width shard groupby; exact DuckDB oracle
    (window SUM + generate_series interval expansion)."""
    from ...stages.packing import pack_training_sequences

    return pack_training_sequences(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        seq_len=PACK_SEQ_LEN, n_shards=PACK_SHARDS)


SQL_PACK_SEQUENCES = r"""
WITH tok AS (
  SELECT doc_id,
         CAST('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8) AS BIGINT)
           % 16 AS shard,
         CASE WHEN trim(text, ' ' || chr(9) || chr(10) || chr(13)
                            || chr(11) || chr(12)) = '' THEN 0
              ELSE len(string_split_regex(
                     trim(text, ' ' || chr(9) || chr(10) || chr(13)
                                || chr(11) || chr(12)), '\s+')) END
           AS n_tok
  FROM documents),
pos AS (
  SELECT doc_id, shard, n_tok,
         CAST(COALESCE(sum(n_tok) OVER (
           PARTITION BY shard ORDER BY doc_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
              AS BIGINT) AS s
  FROM tok WHERE n_tok > 0)
SELECT shard, q AS seq_id, doc_id,
       GREATEST(q * 128 - s, 0) AS doc_offset,
       GREATEST(s - q * 128, 0) AS seq_offset,
       LEAST((q + 1) * 128, s + n_tok) - GREATEST(q * 128, s) AS n_tokens
FROM pos,
     unnest(generate_series(s // 128, (s + n_tok - 1) // 128)) AS g(q)
"""


def q_doc_unigram_ppl(sf_dir: str):
    """CCNet-style LM-quality signal: per-doc average unigram negative
    log-likelihood under the corpus's own MLE unigram model with
    min_count=2 pruning + OOV floor (the KenLM prune-and-smooth; rare
    tokens score at -ln(pruned_mass/total)).  Two-pass: bucketed token
    counts -> measured-bytes-gated broadcast (bucketed-join fallback
    above the gate) -> vectorized scoring.  Integer-rounded (bp) so the
    SQL oracle hash-matches."""
    from ...stages.textstats import unigram_ppl

    return unigram_ppl(_read(sf_dir, "documents",
                             columns=["doc_id", "text"]))


SQL_UNIGRAM_PPL = r"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\s+')) AS tok
  FROM documents
),
cnt AS (SELECT tok, count(*) AS c FROM toks GROUP BY tok),
tot AS (SELECT CAST(sum(c) AS DOUBLE) AS s,
               CAST(sum(CASE WHEN c < 2 THEN c ELSE 0 END) AS DOUBLE) AS oov
        FROM cnt)
SELECT doc_id,
       CAST(count(*) AS BIGINT) AS n_tokens,
       CAST(FLOOR(avg(CASE WHEN c >= 2 THEN -ln(c / s)
                           ELSE -ln(oov / s) END) * 10000 + 0.5)
            AS BIGINT) AS nll_bp
FROM toks JOIN cnt USING (tok) CROSS JOIN tot
GROUP BY doc_id
"""


def q_doc_quality_buckets(sf_dir: str):
    """CCNet head/middle/tail corpus partitioning (Wenzek et al. 2020
    §4.4): per-doc unigram NLL (the doc_unigram_ppl dataflow) bucketed by
    EXACT tertile cutoffs found with distributed histogram-refinement
    selection (stages/selection.py) — the driver only ever holds bin
    counts, never values.  Assignment is value-based (nll <= cutoff), so
    ties land deterministically in the better bucket on both engines."""
    from ...stages.selection import quality_buckets
    from ...stages.textstats import unigram_ppl

    ppl = unigram_ppl(_read(sf_dir, "documents",
                            columns=["doc_id", "text"]))
    return quality_buckets(ppl, "nll_bp")


SQL_QUALITY_BUCKETS = r"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\s+')) AS tok
  FROM documents
),
cnt AS (SELECT tok, count(*) AS c FROM toks GROUP BY tok),
tot AS (SELECT CAST(sum(c) AS DOUBLE) AS s,
               CAST(sum(CASE WHEN c < 2 THEN c ELSE 0 END) AS DOUBLE) AS oov
        FROM cnt),
ppl AS (
  SELECT doc_id,
         CAST(FLOOR(avg(CASE WHEN c >= 2 THEN -ln(c / s)
                             ELSE -ln(oov / s) END) * 10000 + 0.5)
              AS BIGINT) AS nll_bp
  FROM toks JOIN cnt USING (tok) CROSS JOIN tot
  GROUP BY doc_id),
ranked AS (SELECT nll_bp, row_number() OVER (ORDER BY nll_bp) AS rn,
                  count(*) OVER () AS n
           FROM ppl),
cuts AS (SELECT
           max(CASE WHEN rn = CAST(ceil(n / 3.0) AS BIGINT)
               THEN nll_bp END) AS c1,
           max(CASE WHEN rn = CAST(ceil(2 * n / 3.0) AS BIGINT)
               THEN nll_bp END) AS c2
         FROM ranked)
SELECT doc_id, nll_bp,
       CASE WHEN nll_bp <= c1 THEN 'head'
            WHEN nll_bp <= c2 THEN 'middle'
            ELSE 'tail' END AS bucket
FROM ppl CROSS JOIN cuts
"""


def q_corpus_lang_stats(sf_dir: str):
    """Per-language corpus vocabulary profile — the Zipf diagnostics a
    corpus audit reads before training (vocab growth, hapax mass):
    n_docs, token occurrences, distinct vocabulary, and hapax count per
    language.  Distinct/hapax need EXACT per-(lang, tok) counts; counts
    are additive, so the reduce is two-phase SALTED (round-4 verdict: a
    Zipf-head token's per-batch partials — one per (lang, batch) — all
    landed in ONE token-hash reducer group, ~n_blocks rows at 100 TB):

    * per-batch (lang, tok, c) pre-agg, bucketed on hash(tok) and
      salted per BATCH by ``bucket_exchange``'s salted mode, so a hot
      token still travels as one partial per (lang, batch) and its
      largest phase-1 group holds ~1/salts of those partials;
    * phase 1 groups on (bucket, salt) and sums to one row per
      (lang, tok) per group;
    * phase 2 groups on hash(tok) (<= salts rows per (lang, tok)),
      finishes the exact counts, and emits ONE bounded stats row per
      (lang, bucket) — the driver combine stays |langs| x buckets."""
    from ...stages.partitioning import bucket_exchange
    from ...stages.sparse import _tokenize_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def pairs(t: pa.Table) -> pa.Table:
        flat, di, lengths = _tokenize_batch(t, "text")
        langs = t["lang"].to_numpy(zero_copy_only=False)
        out = (pa.table({"lang": pa.array(langs[di]), "tok": flat})
               .group_by(["lang", "tok"]).aggregate([("tok", "count")]))
        return pa.table({"lang": out["lang"], "tok": out["tok"],
                         "c": out["tok_count"].cast(pa.int64())})

    def phase1(g: pd.DataFrame) -> pd.DataFrame:
        return (g.groupby(["lang", "tok"], as_index=False)["c"].sum()
                .astype({"c": np.int64}))

    def phase2(g: pd.DataFrame) -> pd.DataFrame:
        cnt = g.groupby(["lang", "tok"], as_index=False)["c"].sum()
        agg = cnt.groupby("lang").agg(
            vocab=("tok", "size"),
            hapax=("c", lambda s: int((s == 1).sum())),
            n_tokens=("c", "sum")).reset_index()
        return agg.astype({"vocab": np.int64, "hapax": np.int64,
                           "n_tokens": np.int64})

    vocab = (bucket_exchange(ds, ["tok"], phase2, prep=pairs,
                             combine=phase1)
             .to_pandas()
             .groupby("lang", as_index=False).sum())

    def doc_partial(t: pa.Table) -> pa.Table:
        return (t.group_by("lang").aggregate([("doc_id", "count")])
                .rename_columns(["lang", "n_docs"]))

    docs = _tree_agg(ds, ["lang"], doc_partial, {"n_docs": "sum"})
    out = docs.merge(vocab, on="lang")
    return out[["lang", "n_docs", "n_tokens", "vocab", "hapax"]].astype(
        {"n_docs": np.int64, "n_tokens": np.int64})


SQL_CORPUS_LANG_STATS = r"""
WITH toks AS (
  SELECT lang, unnest(regexp_split_to_array(trim(text), '\s+')) AS tok
  FROM documents),
cnt AS (SELECT lang, tok, count(*) AS c FROM toks GROUP BY lang, tok)
SELECT d.lang,
       CAST(d.n_docs AS BIGINT) AS n_docs,
       CAST(v.n_tokens AS BIGINT) AS n_tokens,
       CAST(v.vocab AS BIGINT) AS vocab,
       CAST(v.hapax AS BIGINT) AS hapax
FROM (SELECT lang, count(*) AS n_docs FROM documents GROUP BY lang) d
JOIN (SELECT lang, sum(c) AS n_tokens, count(*) AS vocab,
             sum(CASE WHEN c = 1 THEN 1 ELSE 0 END) AS hapax
      FROM cnt GROUP BY lang) v USING (lang)
"""


def q_doc_quality_buckets_by_lang(sf_dir: str):
    """PER-LANGUAGE CCNet quality buckets — what CCNet actually does
    (Wenzek et al. 2020 compute perplexity cutoffs per language, since
    absolute LM scores aren't comparable across languages): per-doc NLL
    joined with the doc's language (bucketed hash join), then EXACT
    per-lang tertile cutoffs via grouped_exact_kth (all languages share
    each refinement pass), value-based assignment."""
    import math

    from ...stages.joins import hash_join
    from ...stages.selection import grouped_exact_kth

    from ...stages.textstats import unigram_ppl

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    ppl = unigram_ppl(docs).map_batches(
        lambda t: t.select(["doc_id", "nll_bp"]), batch_format="pyarrow")
    langs = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    joined = hash_join(ppl, langs, on="doc_id").materialize()

    def count_partial(t: pa.Table) -> pa.Table:
        return (t.group_by("lang").aggregate([("doc_id", "count")])
                .rename_columns(["lang", "n"]))

    cnt = _tree_agg(joined, ["lang"], count_partial, {"n": "sum"})
    ranks = {r.lang: sorted({max(1, math.ceil(r.n / 3.0)),
                             max(1, math.ceil(2 * r.n / 3.0))})
             for r in cnt.itertuples()}
    cuts = grouped_exact_kth(joined, "lang", "nll_bp", ranks)
    c12 = {lang: (cuts[(lang, ks[0])], cuts[(lang, ks[-1])])
           for lang, ks in ranks.items()}
    cref = ray.put(c12)

    def label(t: pa.Table) -> pa.Table:
        cm = ray.get(cref)
        v = t["nll_bp"].to_numpy(zero_copy_only=False)
        langs_ = t["lang"].to_pylist()
        c1 = np.array([cm[g][0] for g in langs_], np.int64)
        c2 = np.array([cm[g][1] for g in langs_], np.int64)
        b = np.where(v <= c1, "head", np.where(v <= c2, "middle", "tail"))
        return pa.table({"doc_id": t["doc_id"], "lang": t["lang"],
                         "nll_bp": t["nll_bp"],
                         "bucket": pa.array(b, pa.string())})

    return joined.map_batches(label, batch_format="pyarrow")


SQL_QUALITY_BUCKETS_BY_LANG = r"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\s+')) AS tok
  FROM documents
),
cnt AS (SELECT tok, count(*) AS c FROM toks GROUP BY tok),
tot AS (SELECT CAST(sum(c) AS DOUBLE) AS s,
               CAST(sum(CASE WHEN c < 2 THEN c ELSE 0 END) AS DOUBLE) AS oov
        FROM cnt),
ppl AS (
  SELECT doc_id,
         CAST(FLOOR(avg(CASE WHEN c >= 2 THEN -ln(c / s)
                             ELSE -ln(oov / s) END) * 10000 + 0.5)
              AS BIGINT) AS nll_bp
  FROM toks JOIN cnt USING (tok) CROSS JOIN tot
  GROUP BY doc_id),
j AS (SELECT p.doc_id, p.nll_bp, d.lang
      FROM ppl p JOIN documents d USING (doc_id)),
r AS (SELECT lang, nll_bp,
             row_number() OVER (PARTITION BY lang ORDER BY nll_bp) AS rn,
             count(*) OVER (PARTITION BY lang) AS n
      FROM j),
cuts AS (SELECT lang,
           max(CASE WHEN rn = GREATEST(1, CAST(ceil(n / 3.0) AS BIGINT))
               THEN nll_bp END) AS c1,
           max(CASE WHEN rn = GREATEST(1, CAST(ceil(2 * n / 3.0)
                                               AS BIGINT))
               THEN nll_bp END) AS c2
         FROM r GROUP BY lang)
SELECT j.doc_id, j.lang, j.nll_bp,
       CASE WHEN j.nll_bp <= c.c1 THEN 'head'
            WHEN j.nll_bp <= c.c2 THEN 'middle'
            ELSE 'tail' END AS bucket
FROM j JOIN cuts c USING (lang)
"""


def q_doc_bigram_ppl(sf_dir: str):
    """Bigram-LM quality signal (stages/textstats.py bigram_ppl): the
    next rung above unigram on the CCNet/KenLM ladder — per-context
    prune-and-smooth bigram NLL per document.  One context-hash shuffle
    trains the model; the pruned model is byte-gated before broadcast;
    scoring is two vectorized merges per batch.  Docs with < 2 tokens
    emit n_bigrams = 0 / nll_bp = 0 (oracle COALESCE)."""
    from ...stages.textstats import bigram_ppl

    return bigram_ppl(_read(sf_dir, "documents",
                            columns=["doc_id", "text"]))


SQL_BIGRAM_PPL = r"""
WITH arrs AS (SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS arr
              FROM documents),
toks AS (SELECT doc_id, i AS pos, arr[i] AS tok
         FROM arrs, unnest(generate_series(1, array_length(arr))) AS g(i)),
big AS (SELECT t1.doc_id, t1.tok AS a, t2.tok AS b
        FROM toks t1 JOIN toks t2
          ON t1.doc_id = t2.doc_id AND t2.pos = t1.pos + 1),
c2 AS (SELECT a, b, count(*) AS c FROM big GROUP BY a, b),
c1 AS (SELECT a, CAST(sum(c) AS DOUBLE) AS n,
              CAST(sum(CASE WHEN c < 2 THEN c ELSE 0 END) AS DOUBLE) AS oov
       FROM c2 GROUP BY a),
scored AS (
  SELECT big.doc_id,
         CASE WHEN c2.c >= 2 THEN -ln(c2.c / c1.n)
              ELSE -ln(c1.oov / c1.n) END AS v
  FROM big JOIN c2 USING (a, b) JOIN c1 USING (a)),
per_doc AS (SELECT doc_id, count(*) AS nb, avg(v) AS av
            FROM scored GROUP BY doc_id)
SELECT d.doc_id,
       CAST(COALESCE(p.nb, 0) AS BIGINT) AS n_bigrams,
       CAST(COALESCE(FLOOR(p.av * 10000 + 0.5), 0) AS BIGINT) AS nll_bp
FROM documents d LEFT JOIN per_doc p USING (doc_id)
"""


def q_token_postings(sf_dir: str):
    """Distributed inverted-index build (token -> document frequency +
    first-10 postings): the corpus-scale materialization of what the
    in-worker BM25 index (state/bm25.py) holds in memory — i.e. the S5
    'bulk indexer' seat expressed as a dataflow.

    Two-phase SALTED reduce (round-4 verdict: a Zipf-head token lands
    ~one row per document in a single token-hash reducer group — at
    10 B docs that is one hundreds-of-GB pandas group).  Both df and
    the first-10 postings are MERGEABLE (df is additive over disjoint
    doc sets; first-10 is a min-merge), so:

    * per-batch distinct (tok, doc) pairs (vectorized; a doc's pairs
      are emitted exactly once globally, so partial dfs never
      double-count), bucketed on hash(tok) and salted per ROW on
      hash(doc) % salts by ``bucket_exchange``'s salted mode, so no
      group holds more than ~df(tok)/salts rows of any token however
      batches were cut;
    * phase 1 groups on (bucket, salt) and emits ONE fixed-width row
      per token per group (tok, df partial, first-10 partial);
    * phase 2 groups on hash(tok) and min-merges: <= salts partial
      rows per token, so the group is bounded by bucket vocabulary,
      not corpus size.  Output per token is BOUNDED (df + 10 ids)."""
    from ...stages.partitioning import bucket_exchange
    from ...stages.sparse import _tokenize_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def pairs(t: pa.Table) -> pa.Table:
        flat, di, _len = _tokenize_batch(t, "text")
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        pdf = (pd.DataFrame({"tok": flat.to_numpy(zero_copy_only=False),
                             "doc_id": ids[di]})
               .drop_duplicates(["tok", "doc_id"]))
        return pa.table({"tok": pa.array(pdf["tok"].to_numpy(object),
                                         pa.string()),
                         "doc_id": pa.array(pdf["doc_id"].to_numpy(np.int64))})

    def phase1(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.drop_duplicates(["tok", "doc_id"])
             .sort_values(["tok", "doc_id"], kind="mergesort"))
        grp = g.groupby("tok", sort=False)
        sizes = grp.size()
        first10 = g[grp.cumcount().to_numpy() < 10].copy()
        first10["s"] = first10["doc_id"].astype(str)
        posts = first10.groupby("tok", sort=False)["s"].agg(",".join)
        return pd.DataFrame({
            "tok": sizes.index.to_numpy(object),
            "df": sizes.to_numpy(np.int64),
            "postings": posts.reindex(sizes.index).to_numpy(object),
        })

    def phase2(g: pd.DataFrame) -> pd.DataFrame:
        df = g.groupby("tok", as_index=False)["df"].sum()

        def merge10(parts) -> str:
            ids = sorted(int(x) for p in parts for x in p.split(","))
            return ",".join(str(x) for x in ids[:10])

        posts = g.groupby("tok")["postings"].agg(merge10)
        df["postings"] = posts.reindex(df["tok"]).to_numpy(object)
        return df.astype({"df": np.int64})

    return bucket_exchange(ds, ["tok"], phase2, prep=pairs, combine=phase1,
                           salt_col="doc_id")


SQL_TOKEN_POSTINGS = r"""
WITH t AS (
  SELECT DISTINCT doc_id,
         unnest(regexp_split_to_array(trim(text), '\s+')) AS tok
  FROM documents
)
SELECT tok, CAST(count(*) AS BIGINT) AS df,
       array_to_string(list(doc_id ORDER BY doc_id)[1:10], ',') AS postings
FROM t GROUP BY tok
"""


def q_doc_token_entropy(sf_dir: str):
    """Per-doc Shannon entropy of the token distribution
    (stages/textstats.doc_token_entropy): the lexical-diversity /
    gibberish quality signal.  Stateless vectorized map, zero
    shuffles; nats quantized to basis points."""
    from ...stages.textstats import doc_token_entropy

    return _read(sf_dir, "documents", columns=["doc_id", "text"]) \
        .map_batches(doc_token_entropy, batch_format="pyarrow")


SQL_DOC_TOKEN_ENTROPY = r"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\s+')) AS tok
  FROM documents
),
c AS (SELECT doc_id, tok, CAST(count(*) AS DOUBLE) AS c
      FROM toks GROUP BY doc_id, tok),
n AS (SELECT doc_id, CAST(sum(c) AS DOUBLE) AS n,
             sum(c * ln(c)) AS s
      FROM c GROUP BY doc_id)
SELECT doc_id, CAST(n AS BIGINT) AS n_tokens,
       CAST(FLOOR((ln(n) - s / n) * 10000 + 0.5) AS BIGINT) AS entropy_bp
FROM n
"""


def q_source_reputation_filter(sf_dir: str):
    """Domain-reputation wholesale filter (the RefinedWeb/C4 move: drop
    BAD SOURCES entirely, not just their bad documents): per-source
    Gopher-keep rates via one bucketed combiner shuffle (source is an
    unbounded domain key at web scale), the small GOOD-source set
    broadcast behind a measured-bytes gate, then a vectorized semi-join
    keep pass.  Integer threshold (keep rate >= 55%, 20*nk >= 11*n) so
    the oracle hash-matches.  Returns the surviving (doc_id, source)."""
    from ...stages.textstats import doc_gopher_rules

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "source"])

    def rep_partial(t: pa.Table) -> pa.Table:
        g = doc_gopher_rules(t)  # row-aligned with t
        df = pd.DataFrame({
            "source": t["source"].to_pylist(),
            "keep": g["keep"].to_numpy(zero_copy_only=False),
        }).groupby("source", as_index=False).agg(
            n=("keep", "size"), nk=("keep", "sum"))
        return pa.Table.from_pandas(df, preserve_index=False)

    def rep_final(grp: pd.DataFrame) -> pa.Table:
        out = grp.groupby("source", as_index=False)[["n", "nk"]].sum()
        good = out[20 * out["nk"] >= 11 * out["n"]]
        return pa.table({"source": pa.array(good["source"].to_numpy(object),
                                            pa.string())})

    good_ds = bucket_exchange(ds, ["source"], rep_final,
                              prep=rep_partial).materialize()
    if not partitioning.fits_broadcast(good_ds.size_bytes()):
        raise ValueError(
            "source_reputation_filter: good-source set is "
            f"{good_ds.size_bytes()} bytes, over the broadcast limit; use a "
            "bucketed semi-join on source instead of the broadcast keep "
            "pass")
    gpdf = good_ds.to_pandas()
    # a zero-row dataset loses its columns through to_pandas; an empty
    # GOOD set is a legitimate (if brutal) outcome of the filter
    good = set(gpdf["source"]) if len(gpdf) else set()
    gref = ray.put(good)

    def keep(t: pa.Table) -> pa.Table:
        gs = ray.get(gref)
        m = pa.array([s in gs for s in t["source"].to_pylist()])
        return t.filter(m).select(["doc_id", "source"])

    return ds.map_batches(keep, batch_format="pyarrow")


SQL_SOURCE_REPUTATION = r"""
WITH t AS (
  SELECT doc_id, source,
         regexp_split_to_array(trim(text), '\s+') AS toks,
         length(regexp_replace(text, '\s+', '', 'g')) AS total_chars,
         length(text) - length(replace(text, '#', '')) AS hash_count
  FROM documents),
k AS (
  SELECT doc_id, source,
         CASE WHEN len(toks) BETWEEN 50 AND 100000
                   AND 3 * len(toks) <= total_chars
                   AND total_chars <= 10 * len(toks)
                   AND 10 * len(list_filter(toks,
                         w -> regexp_matches(w, '[A-Za-z]')))
                       >= 8 * len(toks)
                   AND 10 * hash_count <= len(toks)
              THEN 1 ELSE 0 END AS keep
  FROM t),
rep AS (SELECT source, count(*) AS n, sum(keep) AS nk
        FROM k GROUP BY source)
SELECT k.doc_id, k.source
FROM k JOIN rep USING (source)
WHERE 20 * rep.nk >= 11 * rep.n
"""


TFIDF_TOPK = 5


def q_doc_keywords(sf_dir: str):
    """Per-document top-k TF-IDF keywords (stages/sparse.py
    tfidf_keywords): corpus-global df joined back to every doc through
    TWO bucketed fixed-width shuffles (token-hash for df, doc-hash for
    the per-doc top-k) — the general shape for corpus-statistic joins
    whose key space (token vocab) is unbounded.  Scores quantized to
    int64 basis points; ranked (score desc, token asc)."""
    from ...stages.sparse import tfidf_keywords

    return tfidf_keywords(_read(sf_dir, "documents",
                                columns=["doc_id", "text"]),
                          k=TFIDF_TOPK)


SQL_DOC_KEYWORDS = rf"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\s+')) AS tok
  FROM documents),
tf AS (SELECT doc_id, tok, count(*) AS tf FROM toks GROUP BY doc_id, tok),
df AS (SELECT tok, CAST(count(*) AS DOUBLE) AS df FROM tf GROUP BY tok),
n AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM documents),
scored AS (
  SELECT tf.doc_id, tf.tok,
         CAST(FLOOR(tf.tf * ln(n.n / df.df) * 10000 + 0.5) AS BIGINT)
           AS score_bp
  FROM tf JOIN df USING (tok) CROSS JOIN n)
SELECT doc_id, tok, score_bp, rank FROM (
  SELECT doc_id, tok, score_bp,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY score_bp DESC, tok) AS rank
  FROM scored)
WHERE rank <= {TFIDF_TOPK}
"""


def q_stratified_rebalance(sf_dir: str):
    """Deterministic stratified rebalance — the corpus data-MIXING op:
    downsample every language to (approximately) the rarest language's
    volume with a reproducible value-hash keep rule, so the training mix
    is balanced without an RNG (the O5/O6 sampling seats generalized to
    per-group rates).  Pass 1: per-language counts (bounded key space,
    per-batch combiners); rates broadcast as scalars; pass 2: vectorized
    keep filter.  ZERO shuffles; rerunning yields the identical sample."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])

    def partial(t: pa.Table) -> pa.Table:
        return (t.group_by("lang")
                .aggregate([("doc_id", "count")])
                .rename_columns(["lang", "c"]))

    cnt = _tree_agg(ds, ["lang"], partial, {"c": "sum"})
    mn = int(cnt["c"].min())
    # rate scaled to a PRIME modulus, floor — identical integer
    # arithmetic in SQL.  The hash (id*48271 mod 99991, both prime) is a
    # full-cycle multiplicative spread: sequential ids cover all residues
    # uniformly (a composite modulus sharing factors with the multiplier
    # would collapse onto a few residues and break the rate).
    rates = {s: mn * 99_991 // int(c)
             for s, c in zip(cnt["lang"], cnt["c"])}
    rref = ray.put(rates)

    def keep(t: pa.Table) -> pa.Table:
        r = ray.get(rref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        src = t["lang"].to_pylist()
        thr = np.array([r[s] for s in src], np.int64)
        m = (ids * 48_271 + 7) % 99_991 < thr
        return t.filter(pa.array(m))

    return ds.map_batches(keep, batch_format="pyarrow")


SQL_STRATIFIED_REBALANCE = """
WITH cnt AS (SELECT lang, count(*) AS c FROM documents GROUP BY lang),
m AS (SELECT min(c) AS mn FROM cnt)
SELECT d.doc_id, d.lang
FROM documents d JOIN cnt USING (lang) CROSS JOIN m
WHERE (d.doc_id * 48271 + 7) % 99991 < (m.mn * 99991) // cnt.c
"""


TEMP_ALPHA = 0.3  # the XLM-R/mBERT multilingual sampling temperature


def q_temperature_sample(sf_dir: str):
    """Temperature-based multilingual resampling — the alpha=0.3 recipe
    of mBERT/XLM-R (Conneau et al. 2020 §3.1: sample languages
    proportional to p_l^alpha, flattening the head without erasing it).
    Downsample-only rates: rate_l = (n_min / n_l)^(1-alpha), so the
    rarest language keeps everything and expected kept counts are
    proportional to n_l^alpha.  alpha=0 degenerates to the full
    stratified_rebalance; alpha=1 keeps the natural mix.  Same
    deterministic full-cycle value-hash keep rule, ZERO shuffles, rates
    broadcast as scalars; thresholds integer-quantized on BOTH sides so
    the oracle hash-matches (stages/selection.py temperature_sample)."""
    from ...stages.selection import temperature_sample

    return temperature_sample(
        _read(sf_dir, "documents", columns=["doc_id", "lang"]),
        TEMP_ALPHA, "lang", "doc_id")


SQL_TEMPERATURE_SAMPLE = """
WITH cnt AS (SELECT lang, count(*) AS c FROM documents GROUP BY lang),
m AS (SELECT min(c) AS mn FROM cnt)
SELECT d.doc_id, d.lang
FROM documents d JOIN cnt USING (lang) CROSS JOIN m
WHERE (d.doc_id * 48271 + 7) % 99991
      < CAST(FLOOR(99991 * POW(CAST(m.mn AS DOUBLE) / cnt.c, 0.7) + 0.5)
             AS BIGINT)
"""


PMI_WINDOW = 3
PMI_MIN_PAIR = 5


def q_doc_pmi(sf_dir: str):
    """Windowed token co-occurrence + PMI (stages/cooccur.py): association
    mining over the corpus — pair counts pre-aggregated per batch, ONE
    bucketed pair-hash shuffle, min-support pruning inside the reducers,
    survivor-vocabulary byte-gated broadcast for the unigram counts.
    PMI quantized to int64 basis points (repo float policy)."""
    from ...stages.cooccur import windowed_pmi

    return windowed_pmi(_read(sf_dir, "documents",
                              columns=["doc_id", "text"]),
                        window=PMI_WINDOW, min_pair=PMI_MIN_PAIR)


SQL_DOC_PMI = rf"""
WITH arrs AS (SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS arr
              FROM documents),
toks AS (SELECT doc_id, i AS pos, arr[i] AS tok
         FROM arrs, unnest(generate_series(1, array_length(arr))) AS g(i)),
tot AS (SELECT CAST(count(*) AS DOUBLE) AS t FROM toks),
pairs AS (SELECT least(t1.tok, t2.tok) AS tok_a,
                 greatest(t1.tok, t2.tok) AS tok_b
          FROM toks t1 JOIN toks t2
            ON t1.doc_id = t2.doc_id
           AND t2.pos > t1.pos AND t2.pos <= t1.pos + {PMI_WINDOW}),
ptot AS (SELECT CAST(count(*) AS DOUBLE) AS p FROM pairs),
pcnt AS (SELECT tok_a, tok_b, count(*) AS n_ab FROM pairs
         GROUP BY tok_a, tok_b HAVING count(*) >= {PMI_MIN_PAIR}),
uc AS (SELECT tok, CAST(count(*) AS DOUBLE) AS n FROM toks GROUP BY tok)
SELECT pcnt.tok_a, pcnt.tok_b, CAST(pcnt.n_ab AS BIGINT) AS n_ab,
       CAST(FLOOR(ln(pcnt.n_ab * tot.t * tot.t / (ptot.p * ua.n * ub.n))
                  * 10000 + 0.5) AS BIGINT) AS pmi_bp
FROM pcnt
JOIN uc ua ON ua.tok = pcnt.tok_a
JOIN uc ub ON ub.tok = pcnt.tok_b
CROSS JOIN tot CROSS JOIN ptot
"""


N_BM25_QUERIES = 8
BM25_QUERY_TOKENS = 6
BM25_TOPK = 10


def q_bm25_search(sf_dir: str):
    """Corpus-scale sparse BM25 retrieval (stages/sparse.py): the S5/T4
    retrieval seat with the sides inverted — a SMALL query workload (the
    8 smallest doc_ids' first 6 tokens) searched against the FULL corpus,
    which is too big to broadcast.  Query terms ship once via ray.put;
    the corpus streams twice (bounded df/avgdl partials, then in-batch
    scoring + per-batch top-k) with ZERO shuffles.  Output is rank-only
    (qid, doc_id, rank) with scores quantized to int64 basis points
    before ranking, per the repo float policy."""
    from ...stages.sparse import bm25_search_corpus

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def smallest(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        return pa.Table.from_pandas(df.nsmallest(N_BM25_QUERIES, "doc_id"),
                                    preserve_index=False)

    qdocs = (ds.map_batches(smallest, batch_format="pyarrow").to_pandas()
             .nsmallest(N_BM25_QUERIES, "doc_id"))
    queries = {int(r.doc_id): (r.text.strip().split()[:BM25_QUERY_TOKENS]
                               or [""])
               for r in qdocs.itertuples()}
    return bm25_search_corpus(ds, queries, k=BM25_TOPK)


SQL_BM25_SEARCH = rf"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\s+')) AS tok
  FROM documents),
tf AS (SELECT doc_id, tok, count(*) AS tf FROM toks GROUP BY doc_id, tok),
dl AS (SELECT doc_id, CAST(count(*) AS DOUBLE) AS dl
       FROM toks GROUP BY doc_id),
stats AS (SELECT avg(dl) AS avgdl, CAST(count(*) AS DOUBLE) AS n FROM dl),
qdoc AS (SELECT doc_id AS qid, trim(text) AS qt FROM documents
         ORDER BY doc_id LIMIT {N_BM25_QUERIES}),
qterm AS (SELECT DISTINCT qid,
                 unnest((regexp_split_to_array(qt, '\s+'))
                        [1:{BM25_QUERY_TOKENS}]) AS tok
          FROM qdoc),
dfq AS (SELECT tok, CAST(count(*) AS DOUBLE) AS df FROM tf
        WHERE tok IN (SELECT tok FROM qterm) GROUP BY tok),
scored AS (
  SELECT q.qid, tf.doc_id,
         sum( ln(1 + (s.n - d.df + 0.5) / (d.df + 0.5))
              * tf.tf * (1.2 + 1.0)
              / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * l.dl / s.avgdl)) ) AS score
  FROM qterm q
  JOIN tf ON tf.tok = q.tok
  JOIN dfq d ON d.tok = q.tok
  JOIN dl l ON l.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.qid, tf.doc_id)
SELECT qid, doc_id, rank FROM (
  SELECT qid, doc_id,
         row_number() OVER (
           PARTITION BY qid
           ORDER BY CAST(floor(score * 10000 + 0.5) AS BIGINT) DESC, doc_id
         ) AS rank
  FROM scored)
WHERE rank <= {BM25_TOPK}
"""


def _split_mod(doc_id):
    """``doc_id % 10``, the key of the deterministic 80/10/10 split:
    0-7 train, 8 dev, 9 test."""
    return pc.cast(pc.subtract(doc_id, pc.multiply(pc.divide(doc_id, 10),
                                                   10)), pa.int64())


def _split_of(doc_id):
    """Each doc's split name, "train", "dev" or "test" (``_split_mod``)."""
    m = _split_mod(doc_id)
    return pc.if_else(pc.less(m, 8), "train",
                      pc.if_else(pc.equal(m, 8), "dev", "test"))


def _train_bench(sf_dir: str):
    """The decontamination queries' split on ``doc_id % 10``: the TRAIN
    docs (0-7) and the stand-in benchmark, the TEST docs (9)."""
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def split_filter(lo: int, hi: int):
        def fn(t: pa.Table) -> pa.Table:
            m = _split_mod(t["doc_id"])
            return t.filter(pc.and_(pc.greater_equal(m, lo), pc.less(m, hi)))
        return fn

    return (docs.map_batches(split_filter(0, 8), batch_format="pyarrow"),
            docs.map_batches(split_filter(9, 10), batch_format="pyarrow"))


def q_doc_decontaminate(sf_dir: str):
    """Benchmark decontamination (train-set hygiene, GPT-3 app. C /
    Gopher style): flag every TRAIN-split doc sharing >= 1 word 8-gram
    with the TEST split (the stand-in benchmark; real deployments pass
    the eval suite - a genuinely small side).  Broadcast plan: the
    benchmark's distinct gram hashes ship once via ray.put; corpus
    batches do vectorized searchsorted membership - zero shuffles."""
    from ...stages.dedup import decontaminate

    train, bench = _train_bench(sf_dir)
    return decontaminate(train, bench, n=8)


SQL_DECONTAMINATE = r"""
WITH toks AS (
  SELECT doc_id, doc_id % 10 AS m,
         regexp_split_to_array(trim(text), '\s+') AS t
  FROM documents
),
g AS (
  SELECT doc_id, m, array_to_string(t[i:i+7], ' ') AS gram
  FROM (SELECT doc_id, m, t, unnest([x for x in range(1, len(t) - 6)]) AS i
        FROM toks)
),
bench AS (SELECT DISTINCT gram FROM g WHERE m = 9),
tr AS (SELECT DISTINCT doc_id, gram FROM g WHERE m < 8)
SELECT d.doc_id,
       CAST(count(b.gram) AS BIGINT) AS n_overlap,
       CAST(CASE WHEN count(b.gram) > 0 THEN 1 ELSE 0 END AS BIGINT)
           AS contaminated
FROM (SELECT doc_id FROM documents WHERE doc_id % 10 < 8) d
LEFT JOIN tr ON tr.doc_id = d.doc_id
LEFT JOIN bench b ON b.gram = tr.gram
GROUP BY d.doc_id
"""


def q_doc_contamination_frac(sf_dir: str):
    """Thresholded contamination FRACTION (Dolma-style: a doc is
    contaminated when >= 10% of its distinct 8-grams appear in the
    benchmark, not on a single shared gram).  Same broadcast-small-side
    zero-shuffle plan as doc_decontaminate, with per-doc distinct-gram
    counts and basis-point quantization on both sides."""
    from ...stages.dedup import decontaminate

    train, bench = _train_bench(sf_dir)
    return decontaminate(train, bench, n=8, frac_threshold_bp=1000)


SQL_CONTAMINATION_FRAC = r"""
WITH toks AS (
  SELECT doc_id, doc_id % 10 AS m,
         regexp_split_to_array(trim(text), '\s+') AS t
  FROM documents
),
g AS (
  SELECT doc_id, m, array_to_string(t[i:i+7], ' ') AS gram
  FROM (SELECT doc_id, m, t, unnest([x for x in range(1, len(t) - 6)]) AS i
        FROM toks)
),
bench AS (SELECT DISTINCT gram FROM g WHERE m = 9),
tr AS (SELECT DISTINCT doc_id, gram FROM g WHERE m < 8),
st AS (
  SELECT d.doc_id,
         CAST(count(b.gram) AS BIGINT) AS n_overlap,
         CAST(count(tr.gram) AS BIGINT) AS n_grams
  FROM (SELECT doc_id FROM documents WHERE doc_id % 10 < 8) d
  LEFT JOIN tr ON tr.doc_id = d.doc_id
  LEFT JOIN bench b ON b.gram = tr.gram
  GROUP BY d.doc_id)
SELECT doc_id, n_overlap, n_grams,
       CAST(CASE WHEN n_grams = 0 THEN 0
                 ELSE FLOOR(10000.0 * n_overlap / n_grams + 0.5) END
            AS BIGINT) AS frac_bp,
       CAST(CASE WHEN n_grams > 0
                  AND FLOOR(10000.0 * n_overlap / n_grams + 0.5) >= 1000
                 THEN 1 ELSE 0 END AS BIGINT) AS contaminated
FROM st
"""


def q_corpus_export(sf_dir: str):
    """Resumable sharded training-corpus export (pipelines/export.py):
    routes docs to md5-derived shards, writes manifest-tracked parquet
    partitions in deterministic training order, reads the result back.
    The round-trip content is exactly oracle-expressible (documents +
    the md5 order key).  The export dir is named for the documents file's
    fingerprint, so every run over the same file resumes from, and
    serves, one export of it."""
    import os as _os

    from ...pipelines.export import (export_training_shards,
                                    read_training_order)
    from ...state.manifest import input_fingerprint

    docs = f"{sf_dir}/documents.parquet"
    out = (f"/tmp/kbner_export/{_os.path.basename(sf_dir.rstrip('/'))}"
           f"-{input_fingerprint([docs])}")
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    export_training_shards(ds, out, n_shards=8, input_files=[docs])
    return read_training_order(out)


SQL_CORPUS_EXPORT = """
SELECT doc_id, md5(CAST(doc_id AS VARCHAR)) AS order_key, text
FROM documents
"""


def q_doc_gopher_rules(sf_dir: str):
    """Gopher-style quality rules with integer-exact thresholds; every
    rule boolean is verified by the SQL oracle (the canonical web-corpus
    filter the quality score approximates)."""
    from ...stages.textstats import doc_gopher_rules

    return (_read(sf_dir, "documents", columns=["doc_id", "text"])
            .map_batches(doc_gopher_rules, batch_format="pyarrow"))


SQL_GOPHER_RULES = """
WITH t AS (
  SELECT doc_id,
         regexp_split_to_array(trim(text), '\\s+') AS toks,
         length(regexp_replace(text, '\\s+', '', 'g')) AS total_chars,
         length(text) - length(replace(text, '#', '')) AS hash_count
  FROM documents
)
SELECT doc_id,
       CAST(len(toks) AS BIGINT) AS n_words,
       CAST(total_chars AS BIGINT) AS total_word_chars,
       CAST(len(list_filter(toks,
                w -> regexp_matches(w, '[A-Za-z]'))) AS BIGINT)
           AS alpha_words,
       CAST(hash_count AS BIGINT) AS hash_count,
       CAST(CASE WHEN len(toks) BETWEEN 50 AND 100000
                 THEN 1 ELSE 0 END AS BIGINT) AS r_words,
       CAST(CASE WHEN 3 * len(toks) <= total_chars
                  AND total_chars <= 10 * len(toks)
                 THEN 1 ELSE 0 END AS BIGINT) AS r_mean_len,
       CAST(CASE WHEN 10 * len(list_filter(toks,
                     w -> regexp_matches(w, '[A-Za-z]'))) >= 8 * len(toks)
                 THEN 1 ELSE 0 END AS BIGINT) AS r_alpha,
       CAST(CASE WHEN 10 * hash_count <= len(toks)
                 THEN 1 ELSE 0 END AS BIGINT) AS r_symbol,
       CAST(CASE WHEN len(toks) BETWEEN 50 AND 100000
                  AND 3 * len(toks) <= total_chars
                  AND total_chars <= 10 * len(toks)
                  AND 10 * len(list_filter(toks,
                        w -> regexp_matches(w, '[A-Za-z]'))) >= 8 * len(toks)
                  AND 10 * hash_count <= len(toks)
                 THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM t
"""


def q_doc_word_repetition(sf_dir: str):
    """Within-document repetition (the Gopher duplicate-fraction family,
    adapted to single-line docs): distinct-word fraction per doc with an
    integer-exact high-repetition flag (distinct < 60% of words)."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def rep(t: pa.Table) -> pa.Table:
        n_words, n_distinct = [], []
        for text in t.column("text").to_pylist():
            toks = text.split()
            n_words.append(len(toks))
            n_distinct.append(len(set(toks)))
        nw = np.array(n_words, dtype=np.int64)
        nd = np.array(n_distinct, dtype=np.int64)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_words": pa.array(nw, pa.int64()),
            "n_distinct_words": pa.array(nd, pa.int64()),
            "high_repetition": pa.array(
                (5 * nd < 3 * nw).astype(np.int64), pa.int64()),
        })

    return ds.map_batches(rep, batch_format="pyarrow")


SQL_WORD_REPETITION = """
SELECT doc_id,
       CAST(len(toks) AS BIGINT) AS n_words,
       CAST(len(list_distinct(toks)) AS BIGINT) AS n_distinct_words,
       CAST(CASE WHEN 5 * len(list_distinct(toks)) < 3 * len(toks)
                 THEN 1 ELSE 0 END AS BIGINT) AS high_repetition
FROM (SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS toks
      FROM documents)
"""


def q_source_stats_salted(sf_dir: str):
    """Per-source doc count + char sum via the SALTED two-phase groupby
    (stages/skew.py — the north rule's hot-domain skew seat, now under
    the driver's exact-oracle gate; parity with a plain groupby under a
    50%-hot key is separately pinned by test_new_ops)."""
    from ...stages.skew import salted_grouped_sum

    out = salted_grouped_sum(
        _read(sf_dir, "documents", columns=["source", "n_chars"]),
        key="source", value="n_chars")

    def rename(t: pa.Table) -> pa.Table:
        return pa.table({"source": t["source"],
                         "sum_chars": pc.cast(t["sum"], pa.int64()),
                         "n_docs": pc.cast(t["n_rows"], pa.int64())})

    return out.map_batches(rename, batch_format="pyarrow")


SQL_SOURCE_STATS = """
SELECT source,
       CAST(sum(n_chars) AS BIGINT) AS sum_chars,
       CAST(count(*) AS BIGINT)     AS n_docs
FROM documents GROUP BY source
"""


def q_doc_pii_redact(sf_dir: str):
    """PII scrub (stages/textstats.pii_redact): count + redact emails /
    phones / IPv4s with vectorized RE2 kernels — stateless map, zero
    shuffles.  The driver corpus contains no PII, so a deterministic
    doc_id-derived injection pass (same expression in the SQL oracle)
    gives the scrubber real work; the oracle hash covers the full
    redacted strings, pinning both engines' RE2 semantics end-to-end."""
    from ...stages.textstats import inject_synthetic_pii, pii_redact

    return (_read(sf_dir, "documents", columns=["doc_id", "text"])
            .map_batches(inject_synthetic_pii, batch_format="pyarrow")
            .map_batches(pii_redact, batch_format="pyarrow"))


SQL_PII_REDACT = r"""
WITH inj AS (
  SELECT doc_id,
         text
         || CASE WHEN doc_id % 3 = 0
                 THEN ' user' || CAST(doc_id AS VARCHAR) || '@example.org'
                 ELSE '' END
         || CASE WHEN doc_id % 4 = 1
                 THEN ' (555) ' || lpad(CAST(doc_id % 1000 AS VARCHAR), 3, '0')
                      || '-' || lpad(CAST(doc_id * 7 % 10000 AS VARCHAR), 4, '0')
                 ELSE '' END
         || CASE WHEN doc_id % 5 = 2
                 THEN ' 10.' || CAST(doc_id % 256 AS VARCHAR)
                      || '.' || CAST(doc_id // 7 % 256 AS VARCHAR)
                      || '.' || CAST(doc_id % 254 + 1 AS VARCHAR)
                 ELSE '' END AS t
  FROM documents)
SELECT doc_id,
       len(regexp_extract_all(t, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}'))
         AS n_emails,
       len(regexp_extract_all(t, '\(?\d{3}\)?[ .-]?\d{3,4}[ .-]?\d{4}\b'))
         AS n_phones,
       len(regexp_extract_all(t, '\b(?:\d{1,3}\.){3}\d{1,3}\b')) AS n_ips,
       regexp_replace(
         regexp_replace(
           regexp_replace(t, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                          '<EMAIL>', 'g'),
           '\b(?:\d{1,3}\.){3}\d{1,3}\b', '<IP>', 'g'),
         '\(?\d{3}\)?[ .-]?\d{3,4}[ .-]?\d{4}\b', '<PHONE>', 'g') AS redacted
FROM inj
"""


def q_fuzzy_decontaminate(sf_dir: str):
    """FUZZY (MinHash-banded + exact-Jaccard-verified) benchmark
    decontamination (stages/dedup.fuzzy_decontaminate): catches the
    paraphrased/lightly-edited leaks exact gram overlap misses.  Same
    broadcast-small-side zero-shuffle contract as doc_decontaminate;
    rows-only (LSH recall <1 below jaccard~1 — the exact sibling holds
    the oracle), planted-leak recall pinned by pytest."""
    from ...stages.dedup import fuzzy_decontaminate

    train, bench = _train_bench(sf_dir)
    return fuzzy_decontaminate(train, bench, threshold=0.5)


def q_quality_classifier(sf_dir: str):
    """Frozen linear quality-classifier inference
    (stages/textstats.quality_classifier): the fastText/CCNet
    "Wikipedia-like" model-filter seat — weights worker-resident,
    vectorized hashed-unigram scoring, zero shuffles; md5 bucket ids so
    the DuckDB oracle reproduces inference exactly."""
    from ...stages.textstats import quality_classifier

    return _read(sf_dir, "documents", columns=["doc_id", "text"]) \
        .map_batches(quality_classifier, batch_format="pyarrow")


SQL_QUALITY_CLASSIFIER = r"""
WITH toks AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(trim(text), '\s+')) AS tok
  FROM documents),
h AS (
  SELECT doc_id,
         CAST('0x' || substr(md5(tok), 1, 8) AS BIGINT) % 1024 AS b
  FROM toks),
s AS (
  SELECT doc_id, count(*) AS n_tokens,
         sum((b * 2654435761) % 2048 / 1024.0 - 1.0) AS raw
  FROM h GROUP BY doc_id)
SELECT doc_id, n_tokens, clf_bp,
       CASE WHEN clf_bp >= 5000 THEN 1 ELSE 0 END AS keep
FROM (
  SELECT doc_id, n_tokens,
         CAST(FLOOR(1.0 / (1.0 + exp(-(raw / n_tokens))) * 10000 + 0.5)
              AS BIGINT) AS clf_bp
  FROM s)
"""


def q_dup_graph_triangles(sf_dir: str):
    """Per-node triangle counts over the exact-oracled charset-Jaccard
    near-dup graph (stages/components.triangle_counts, Suri &
    Vassilvitskii 2011 degree-ordered node-iterator): the dup-cluster
    DENSITY signal that tells 'one giant chain' apart from 'tight clique'
    before dedup-apply.  Hub nodes never own their wedges — the
    degree orientation bounds every reducer at O(sqrt(m)) out-degree."""
    from ...stages.components import triangle_counts
    from ...stages.dedup import ngram_jaccard_pairs

    pairs = ngram_jaccard_pairs(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        threshold=JACCARD_THRESHOLD)
    df = triangle_counts(pairs).to_pandas()
    if df.empty:
        return pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                             "n_triangles": pd.Series([], dtype=np.int64)})
    return (df.astype(np.int64).sort_values("doc_id")
            .reset_index(drop=True))


SQL_DUP_GRAPH_TRIANGLES = f"""
WITH {_SQL_JACCARD_PAIRS},
tri AS (
  SELECT p1.a, p1.b, p2.b AS c
  FROM pairs p1
  JOIN pairs p2 ON p2.a = p1.b
  JOIN pairs p3 ON p3.a = p1.a AND p3.b = p2.b),
nodes AS (
  SELECT a AS n FROM tri
  UNION ALL SELECT b FROM tri
  UNION ALL SELECT c FROM tri)
SELECT n AS doc_id, count(*) AS n_triangles FROM nodes GROUP BY n
"""


def _max_doc_id(path: str) -> int:
    """Max doc_id from parquet row-group STATISTICS — metadata-only, no
    data scan (the snapshot cutoff must not cost a corpus pass)."""
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(path)
    idx = pf.schema_arrow.names.index("doc_id")
    mx = None
    for rg in range(pf.metadata.num_row_groups):
        st = pf.metadata.row_group(rg).column(idx).statistics
        if st is None or st.max is None:  # stats missing -> column scan
            t = pq.read_table(path, columns=["doc_id"])
            return int(pc.max(t["doc_id"]).as_py())
        mx = st.max if mx is None else max(mx, st.max)
    return int(mx)


SNAPSHOT_PREFIX_TOKS = 2  # head-fingerprint length; the driver corpus has
# no full-text duplicates, so the delta keys on a 2-token head signature
# (same move as doc_line_dedup's fixed-window lines) — at sf0.01 that
# yields 42 within-new collapses and 65 cross-snapshot drops


def q_snapshot_delta(sf_dir: str):
    """Incremental snapshot dedup (stages/dedup.snapshot_delta_dedup):
    the lower doc_id half plays the prior crawl snapshot, the upper half
    the incoming dump; dedup keys on the head-token fingerprint.
    Bloom-gated: definitely-new docs never shuffle; bloom positives go
    through the exact bucketed anti join; within-new dups collapse in
    salt buckets.  Cutoff comes from parquet metadata statistics, not a
    scan."""
    from ...stages.dedup import snapshot_delta_dedup

    path = f"{sf_dir}/documents.parquet"
    cut = (_max_doc_id(path) + 1) // 2
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def head_fingerprint(t: pa.Table) -> pa.Table:
        toks = pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(t["text"]))
        head = pc.binary_join(
            pc.list_slice(toks, 0, SNAPSHOT_PREFIX_TOKS), " ")
        return pa.table({"doc_id": t["doc_id"], "text": head})

    fp = ds.map_batches(head_fingerprint, batch_format="pyarrow")
    old = fp.filter(expr=f"doc_id < {cut}")
    new = fp.filter(expr=f"doc_id >= {cut}")
    return snapshot_delta_dedup(old, new)


SQL_SNAPSHOT_DELTA = f"""
WITH cut AS (SELECT (max(doc_id) + 1) // 2 AS c FROM documents),
d AS (SELECT doc_id,
             md5(array_to_string(
                 regexp_split_to_array(trim(text), '\\s+')
                   [1:{SNAPSHOT_PREFIX_TOKS}], ' ')) AS h
      FROM documents),
olds AS (SELECT DISTINCT h FROM d, cut WHERE doc_id < c),
news AS (SELECT doc_id, h FROM d, cut WHERE doc_id >= c),
grp AS (SELECT h, min(doc_id) AS doc_id, count(*) AS n_dups
        FROM news GROUP BY h)
SELECT doc_id, h AS content_hash, n_dups FROM grp
WHERE h NOT IN (SELECT h FROM olds)
"""


def q_dsir_weights(sf_dir: str):
    """DSIR importance weights (stages/dsir.dsir_weights; Xie et al.
    2023): hashed-bigram LM log-ratio of target-language docs over the
    raw pool — two streaming passes, zero shuffles, the driver combine
    bounded by the FIXED 4096-bucket hash space.  md5 bucket ids so the
    DuckDB oracle reproduces the hashing exactly."""
    from ...stages.dsir import dsir_weights

    return dsir_weights(
        _read(sf_dir, "documents", columns=["doc_id", "text", "lang"]))


SQL_DSIR_WEIGHTS = r"""
WITH toks AS (
  SELECT doc_id, lang,
         regexp_split_to_array(trim(text), '\s+') AS w
  FROM documents),
grams AS (
  SELECT doc_id, lang,
         unnest(list_transform(generate_series(1, len(w) - 1),
                               i -> w[i] || ' ' || w[i + 1])) AS g
  FROM toks WHERE len(w) >= 2),
h AS (
  SELECT doc_id, lang,
         CAST('0x' || substr(md5(g), 1, 8) AS BIGINT) % 4096 AS b
  FROM grams),
cnt AS (
  SELECT b, count(*) AS src_c,
         sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS tgt_c
  FROM h GROUP BY b),
tot AS (SELECT sum(src_c) AS s, sum(tgt_c) AS t FROM cnt),
scored AS (
  SELECT h.doc_id, count(*) AS n_bigrams,
         sum(ln((c.tgt_c + 1.0) / (t.t + 4096.0))
             - ln((c.src_c + 1.0) / (t.s + 4096.0))) AS w
  FROM h JOIN cnt c USING (b) CROSS JOIN tot t
  GROUP BY h.doc_id)
SELECT d.doc_id,
       COALESCE(s.n_bigrams, 0) AS n_bigrams,
       CAST(FLOOR(COALESCE(s.w, 0) * 10000 + 0.5) AS BIGINT) AS dsir_bp
FROM documents d LEFT JOIN scored s USING (doc_id)
"""


def q_dup_graph_degrees(sf_dir: str):
    """Degree DISTRIBUTION of the exact-oracled charset-Jaccard near-dup
    graph (how duplicate mass is shaped: many isolated pairs vs one hub
    chain) — the companion profile to dup_graph_triangles, read before
    choosing a dedup-apply policy.  Edge endpoints pre-count per batch
    (Arrow group_by, <= 2 rows per edge before combining); ONE node-hash
    bucket exchange finishes per-node degrees; each bucket emits
    (degree, n_nodes) PARTIAL rows — bounded by the bucket's
    distinct-degree count, which is O(sqrt(m)) for any m-edge graph —
    so the driver combine is degree-bounded, never node-bounded."""
    from ...stages.dedup import ngram_jaccard_pairs

    pairs = ngram_jaccard_pairs(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        threshold=JACCARD_THRESHOLD)

    def endpoints(t: pa.Table) -> pa.Table:
        nodes = pa.concat_arrays(
            [t["doc_a"].combine_chunks().cast(pa.int64()),
             t["doc_b"].combine_chunks().cast(pa.int64())])
        return (pa.table({"node": nodes}).group_by("node")
                .aggregate([("node", "count")]))

    def degrees(g: pd.DataFrame) -> pd.DataFrame:
        deg = g.groupby("node")["node_count"].sum()
        out = deg.value_counts().reset_index()
        out.columns = ["degree", "n_nodes"]
        return out.astype({"degree": np.int64, "n_nodes": np.int64})

    pdf = bucket_exchange(pairs, ["node"], degrees,
                          prep=endpoints).to_pandas()
    if pdf.empty:
        return pd.DataFrame({"degree": pd.Series([], dtype=np.int64),
                             "n_nodes": pd.Series([], dtype=np.int64)})
    return (pdf.groupby("degree", as_index=False)["n_nodes"].sum()
            .astype(np.int64))


SQL_DUP_GRAPH_DEGREES = f"""
WITH {_SQL_JACCARD_PAIRS},
deg AS (
  SELECT n, count(*) AS degree FROM (
    SELECT a AS n FROM pairs UNION ALL SELECT b FROM pairs)
  GROUP BY n)
SELECT degree, count(*) AS n_nodes FROM deg GROUP BY degree
"""


def q_dup_graph_cluster_sizes(sf_dir: str):
    """Component-SIZE histogram of the near-dup graph (how many
    2-clusters vs giant chains dedup-apply will collapse) — derived from
    the same exact-oracled connected-components engine as
    ngram_jaccard_components.  Per-batch component pre-counts (Arrow
    group_by), ONE component-hash bucket exchange finishes sizes
    (a component's rows co-locate), and each bucket emits
    (size, n_components) partials — size-cardinality-bounded, like
    dup_graph_degrees' histogram contract."""
    from ...stages.components import components_from_pairs
    from ...stages.dedup import ngram_jaccard_pairs

    pairs = ngram_jaccard_pairs(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        threshold=JACCARD_THRESHOLD)
    comp = components_from_pairs(pairs)

    def pre(t: pa.Table) -> pa.Table:
        return (pa.table({"component": t["component"].combine_chunks()
                          .cast(pa.int64())})
                .group_by("component").aggregate([("component", "count")]))

    def sizes(g: pd.DataFrame) -> pd.DataFrame:
        sz = g.groupby("component")["component_count"].sum()
        out = sz.value_counts().reset_index()
        out.columns = ["size", "n_components"]
        return out.astype({"size": np.int64, "n_components": np.int64})

    pdf = bucket_exchange(comp, ["component"], sizes,
                          prep=pre).to_pandas()
    if pdf.empty:
        return pd.DataFrame({
            "size": pd.Series([], dtype=np.int64),
            "n_components": pd.Series([], dtype=np.int64)})
    return (pdf.groupby("size", as_index=False)["n_components"].sum()
            .astype(np.int64))


SQL_DUP_GRAPH_CLUSTER_SIZES = f"""
WITH RECURSIVE {_SQL_JACCARD_EDGES},
sz AS (SELECT component, count(*) AS size FROM comp GROUP BY component)
SELECT size, count(*) AS n_components FROM sz GROUP BY size
"""


def q_doc_source_overlap(sf_dir: str):
    """Cross-source duplicate contamination matrix: for every source
    pair (and each source with itself), the number of exact-duplicate
    document pairs spanning them — the ingest diagnostic that says which
    feeds re-crawl each other before near-dup even runs.  Uses THE
    shared content-hash contract (stages/dedup.content_md5).  Per-batch
    (hash, source) counts pre-combine; ONE content-hash bucket exchange
    co-locates each hash's <= |sources| rows; pair counts come from a
    bucket-local self-merge (group width is source-bounded, so no hash
    can skew a reducer) and the per-bucket partial is sources^2-bounded
    — the `_tree_agg` driver-combine contract.  All-integer math."""
    from ...stages.dedup import add_content_hash

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "source"])

    def pre(t: pa.Table) -> pa.Table:
        t = add_content_hash(t)
        return (pa.table({"content_hash": t["content_hash"],
                          "source": t["source"]})
                .group_by(["content_hash", "source"])
                .aggregate([("source", "count")]))

    def cross(g: pd.DataFrame) -> pd.DataFrame:
        c = (g.groupby(["content_hash", "source"], as_index=False)
             ["source_count"].sum())
        m = c.merge(c, on="content_hash")
        m = m[m["source_x"] < m["source_y"]]
        across = pd.DataFrame({
            "source_a": m["source_x"].to_numpy(object),
            "source_b": m["source_y"].to_numpy(object),
            "np": (m["source_count_x"].to_numpy(np.int64)
                   * m["source_count_y"].to_numpy(np.int64)),
        })
        w = c[c["source_count"] > 1]
        n = w["source_count"].to_numpy(np.int64)
        within = pd.DataFrame({
            "source_a": w["source"].to_numpy(object),
            "source_b": w["source"].to_numpy(object),
            "np": n * (n - 1) // 2,
        })
        both = pd.concat([across, within], ignore_index=True)
        if not len(both):
            # typed empty Arrow block (as in joins.semi_join): an empty
            # object-dtype frame trips Ray's block-size estimator
            return pa.table({"source_a": pa.array([], pa.string()),
                             "source_b": pa.array([], pa.string()),
                             "np": pa.array([], pa.int64())})
        return (both.groupby(["source_a", "source_b"], as_index=False)
                ["np"].sum())

    pdf = bucket_exchange(ds, ["content_hash"], cross,
                          prep=pre).to_pandas()
    if pdf.empty:
        return pd.DataFrame({"source_a": pd.Series([], dtype=object),
                             "source_b": pd.Series([], dtype=object),
                             "n_pairs": pd.Series([], dtype=np.int64)})
    out = (pdf.groupby(["source_a", "source_b"], as_index=False)["np"]
           .sum().rename(columns={"np": "n_pairs"}))
    return out.astype({"n_pairs": np.int64})


SQL_DOC_SOURCE_OVERLAP = """
WITH c AS (SELECT md5(text) AS hh, source, count(*) AS n
           FROM documents GROUP BY md5(text), source),
x AS (
  SELECT a.source AS source_a, b.source AS source_b, a.n * b.n AS np
  FROM c a JOIN c b ON a.hh = b.hh AND a.source < b.source
  UNION ALL
  SELECT source, source, n * (n - 1) // 2 FROM c WHERE n > 1)
SELECT source_a, source_b, CAST(sum(np) AS BIGINT) AS n_pairs
FROM x GROUP BY source_a, source_b
"""


LENGTH_HIST_WIDTH = 32  # tokens per histogram bin


def q_doc_length_hist(sf_dir: str):
    """Equi-width token-count histogram per language — the length
    profile read before choosing packing budgets and Gopher length
    gates.  Stateless vectorized Arrow tokenize + bincount partials;
    (lang, bin) key cardinality grows with the longest document, so
    partials combine through `bucket_exchange` (one bounded row per key to
    the consumer, never n_blocks x keys on the driver).  Empty texts
    count one token — the regexp_split_to_array('') = [''] oracle
    contract shared with doc_token_stats."""
    ds = _read(sf_dir, "documents", columns=["text", "lang"])

    def partial(t: pa.Table) -> pa.Table:
        toks = pc.utf8_split_whitespace(pc.utf8_trim_whitespace(t["text"]))
        n = np.maximum(
            pc.list_value_length(toks).to_numpy(zero_copy_only=False), 1)
        out = (pd.DataFrame({
            "lang": t["lang"].to_numpy(zero_copy_only=False),
            "bin": (n // LENGTH_HIST_WIDTH).astype(np.int64)})
            .groupby(["lang", "bin"], sort=False)
            .size().reset_index(name="n_docs"))
        return pa.table({
            "lang": pa.array(out["lang"].to_numpy(object), pa.string()),
            "bin": pa.array(out["bin"].to_numpy(np.int64)),
            "n_docs": pa.array(out["n_docs"].to_numpy(np.int64)),
        })

    def final(g: pd.DataFrame) -> pa.Table:
        out = g.groupby(["lang", "bin"], as_index=False)["n_docs"].sum()
        return pa.table({
            "lang": pa.array(out["lang"].astype(str)),
            "bin": pa.array(out["bin"].to_numpy(np.int64)),
            "n_docs": pa.array(out["n_docs"].to_numpy(np.int64)),
        })

    return bucket_exchange(ds, ["lang", "bin"], final, prep=partial)


SQL_DOC_LENGTH_HIST = f"""
WITH v AS (SELECT lang,
                  len(regexp_split_to_array(trim(text), '\\s+')) AS n
           FROM documents)
SELECT lang, CAST(n // {LENGTH_HIST_WIDTH} AS BIGINT) AS bin,
       count(*) AS n_docs
FROM v GROUP BY lang, bin
"""


TOP_BIGRAMS_K = 20


def q_doc_top_bigrams(sf_dir: str):
    """Corpus-wide top-K word-bigram collocations by raw count — the
    phrase-mining companion to doc_pmi (PMI scores windowed pairs;
    this ranks adjacent pairs by frequency for stop-phrase lists and
    tokenizer-merge seeding).  Vectorized shifted-array pair extraction
    (shared sparse tokenizer), per-batch pre-agg bounds a hot bigram to
    ONE partial row per block, ONE bigram-hash bucket exchange of
    partial COUNT rows, per-bucket exact top-K — buckets partition the
    key space, so the global top-K of the n_buckets x K candidates is
    exact.  Deterministic (count desc, a asc, b asc) order on both
    engines."""
    from ...stages.sparse import _tokenize_batch

    ds = _read(sf_dir, "documents", columns=["text"])
    k = TOP_BIGRAMS_K

    def partial(t: pa.Table) -> pa.Table:
        flat, di, _l = _tokenize_batch(t, "text")
        toks = flat.to_numpy(zero_copy_only=False)
        same = di[1:] == di[:-1]
        out = (pd.DataFrame({"a": toks[:-1][same], "b": toks[1:][same]})
               .groupby(["a", "b"], sort=False)
               .size().reset_index(name="c"))
        return pa.table({
            "a": pa.array(out["a"].to_numpy(object), pa.string()),
            "b": pa.array(out["b"].to_numpy(object), pa.string()),
            "c": pa.array(out["c"].to_numpy(np.int64)),
        })

    def topk_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["a", "b"], as_index=False)["c"].sum()
        return out.sort_values(["c", "a", "b"],
                               ascending=[False, True, True]).head(k)

    pdf = bucket_exchange(ds, ["a", "b"], topk_bucket,
                          prep=partial).to_pandas()
    if pdf.empty:
        return pd.DataFrame({"a": pd.Series([], dtype=object),
                             "b": pd.Series([], dtype=object),
                             "n_occurrences": pd.Series([], dtype=np.int64),
                             "rnk": pd.Series([], dtype=np.int64)})
    top = (pdf.sort_values(["c", "a", "b"], ascending=[False, True, True])
           .head(k).reset_index(drop=True)
           .rename(columns={"c": "n_occurrences"}))
    top["rnk"] = np.arange(1, len(top) + 1, dtype=np.int64)
    return top.astype({"n_occurrences": np.int64})


SQL_DOC_TOP_BIGRAMS = rf"""
WITH arrs AS (SELECT regexp_split_to_array(trim(text), '\s+') AS arr
              FROM documents),
toks AS (SELECT arr, i
         FROM arrs,
              unnest(generate_series(1, array_length(arr) - 1)) AS g(i)),
c2 AS (SELECT arr[i] AS a, arr[i + 1] AS b, count(*) AS n_occurrences
       FROM toks GROUP BY a, b),
r AS (SELECT a, b, n_occurrences,
             row_number() OVER (ORDER BY n_occurrences DESC, a, b) AS rnk
      FROM c2)
SELECT a, b, n_occurrences, rnk FROM r WHERE rnk <= {TOP_BIGRAMS_K}
"""
