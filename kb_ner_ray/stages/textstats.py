"""Text-analysis stages over a documents table: token counts, quality
metrics, fingerprints, language-ID (the "training-data pipeline" operator
set; each has a queries() entry and — where SQL-expressible — a DuckDB
oracle whose semantics these kernels match EXACTLY).
"""

from __future__ import annotations

import hashlib
import re

import pyarrow as pa
import pyarrow.compute as pc

# Pinned to the DuckDB oracle expressions in __ray_entry__.py:
#   n_tokens   = len(regexp_split_to_array(trim(text), '\s+'))
#   punct_cnt  = length(regexp_replace(text, '[a-zA-Z0-9_ \t\n]', '', 'g'))
#   fingerprint= md5(lower(regexp_replace(text, '\s+', ' ', 'g')))
_WS_RE = re.compile(r"\s+")

STOPWORDS = ("the", "and", "of", "a", "to", "in", "is", "it", "for", "on")

_LANG_STOPWORDS = {
    "en": {"the", "and", "of", "to", "in", "is", "it", "for", "that", "with"},
    "de": {"der", "die", "das", "und", "ist", "von", "mit", "für", "nicht", "ein"},
    "fr": {"le", "la", "les", "et", "est", "de", "des", "une", "pour", "avec"},
    "es": {"el", "la", "los", "las", "y", "es", "de", "una", "por", "con"},
}
_CJK_RE = re.compile(r"[一-鿿]")


def doc_token_stats(batch: pa.Table) -> pa.Table:
    """doc_id, n_chars, n_tokens, punct_cnt, stopword_cnt — fully
    vectorized (round-4): token counts via the shared Arrow tokenizer,
    punct as (total chars - keep-class regex matches, each match one
    char), stopwords via is_in + bincount.  Semantics identical to the
    previous per-row loops (and the SQL oracle): empty text counts one
    '' token; lower() before split for the stopword pass."""
    import numpy as np

    from .sparse import _tokenize_batch

    texts = batch.column("text")
    n_chars = pc.utf8_length(texts)
    keep_cnt = pc.count_substring_regex(texts, r"[a-zA-Z0-9_ \t\n]")
    punct = pc.subtract(pc.cast(n_chars, pa.int64()),
                        pc.cast(keep_cnt, pa.int64()))
    flat, di, n_tokens = _tokenize_batch(batch, "text")
    # ONE tokenize: lowercasing never creates or removes whitespace, so
    # lower(tokens-of(text)) == tokens-of(lower(text)) token for token
    sw = pc.is_in(pc.utf8_lower(flat),
                  value_set=pa.array(sorted(STOPWORDS), pa.string()))
    stop = np.bincount(di, weights=sw.to_numpy(zero_copy_only=False),
                       minlength=len(batch)).astype(np.int64)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_chars": pc.cast(n_chars, pa.int64()),
            "n_tokens": pa.array(n_tokens, pa.int64()),
            "punct_cnt": punct,
            "stopword_cnt": pa.array(stop, pa.int64()),
        }
    )


def fingerprint(text: str) -> str:
    return hashlib.md5(
        _WS_RE.sub(" ", text).lower().encode("utf-8")
    ).hexdigest()


def doc_fingerprints(batch: pa.Table) -> pa.Table:
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "fp": pa.array([fingerprint(t)
                            for t in batch.column("text").to_pylist()],
                           pa.string()),
        }
    )


def detect_lang(text: str) -> str:
    """n-gram/stopword heuristic language ID: CJK charset first, then
    stopword votes, tie/none -> 'und'."""
    if _CJK_RE.search(text):
        return "zh"
    words = set(_WS_RE.split(text.lower().strip()))
    best, best_n = "und", 0
    for lang in sorted(_LANG_STOPWORDS):
        n = len(words & _LANG_STOPWORDS[lang])
        if n > best_n:
            best, best_n = lang, n
    return best


def doc_langid(batch: pa.Table) -> pa.Table:
    """Vectorized language ID (round-4): CJK charset test + per-language
    DISTINCT-stopword votes via is_in + bincount; argmax over languages in
    sorted order reproduces detect_lang's first-wins tie rule exactly."""
    import numpy as np

    from .sparse import _tokenize_batch

    n = len(batch)
    texts = batch.column("text")
    low = batch.set_column(batch.schema.get_field_index("text"), "text",
                           pc.utf8_lower(texts))
    flat, di, _l = _tokenize_batch(low, "text")
    import pandas as pd

    uniq = pd.DataFrame({"di": di,
                         "tok": flat.to_numpy(zero_copy_only=False)}
                        ).drop_duplicates()
    langs = sorted(_LANG_STOPWORDS)
    votes = np.zeros((n, len(langs)), np.int64)
    toks = pa.array(uniq["tok"].to_numpy(object), pa.string())
    udi = uniq["di"].to_numpy(np.int64)
    for j, lang in enumerate(langs):
        hit = pc.is_in(toks, value_set=pa.array(
            sorted(_LANG_STOPWORDS[lang]), pa.string()))
        votes[:, j] = np.bincount(
            udi, weights=hit.to_numpy(zero_copy_only=False), minlength=n)
    best = np.array(langs, object)[votes.argmax(axis=1)]
    best[votes.max(axis=1) == 0] = "und"
    cjk = pc.match_substring_regex(texts, "[一-鿿]") \
        .to_numpy(zero_copy_only=False)
    best[cjk] = "zh"
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "pred_lang": pa.array(best, pa.string()),
        }
    )


def doc_quality(batch: pa.Table) -> pa.Table:
    """Quality score in [0,1]: blended length / punctuation / stopword
    signals (Gopher-rules-style heuristics)."""
    import numpy as np

    stats = doc_token_stats(batch)
    nc = stats.column("n_chars").to_numpy(zero_copy_only=False)
    nt = stats.column("n_tokens").to_numpy(zero_copy_only=False)
    pct = stats.column("punct_cnt").to_numpy(zero_copy_only=False)
    sw = stats.column("stopword_cnt").to_numpy(zero_copy_only=False)
    len_ok = ((nt >= 10) & (nt <= 100000)).astype(np.float64)
    punct_ratio = pct / np.maximum(1, nc)
    stop_ratio = sw / np.maximum(1, nt)
    score = (0.4 * len_ok + 0.3 * np.minimum(1.0, 4 * stop_ratio)
             + 0.3 * (1.0 - np.minimum(1.0, 5 * punct_ratio)))
    # Python round() per element, not np.round: the oracle hash was
    # recorded against round-half-even at float64 Python semantics and
    # np.round's scaled-multiply can differ in the last ulp
    out = [round(float(x), 6) for x in score]
    return pa.table({"doc_id": stats.column("doc_id"),
                     "quality": pa.array(out, pa.float64())})


def doc_gopher_rules(batch: pa.Table) -> pa.Table:
    """Gopher-style quality rules (Rae et al. 2021, "Scaling Language
    Models: ... Gopher", table A1 subset) with INTEGER-exact thresholds so
    a SQL oracle can verify every boolean:

    * r_words:    50 <= word count <= 100_000
    * r_mean_len: mean word length in [3, 10]  (as 3*n <= chars <= 10*n)
    * r_alpha:    >= 80% of words contain an alphabetic char
    * r_symbol:   '#' chars <= 10% of word count
    * keep = all of the above.
    """
    import numpy as np

    from .sparse import _tokenize_batch

    rows_id = batch.column("doc_id")
    # vectorized (round-4): shared Arrow tokenizer + per-token kernels
    # folded per doc with bincount; identical semantics to the previous
    # per-row loops (empty text counts one '' word of length 0)
    flat, di, nw = _tokenize_batch(batch, "text")
    wl = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
    tc = np.bincount(di, weights=wl, minlength=len(batch)).astype(np.int64)
    has_alpha = pc.match_substring_regex(flat, "[A-Za-z]") \
        .to_numpy(zero_copy_only=False)
    aw = np.bincount(di, weights=has_alpha,
                     minlength=len(batch)).astype(np.int64)
    hc = pc.count_substring(batch.column("text"), "#") \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    r_words = ((nw >= 50) & (nw <= 100_000)).astype(np.int64)
    r_mean_len = ((3 * nw <= tc) & (tc <= 10 * nw)).astype(np.int64)
    r_alpha = (10 * aw >= 8 * nw).astype(np.int64)
    r_symbol = (10 * hc <= nw).astype(np.int64)
    keep = (r_words & r_mean_len & r_alpha & r_symbol).astype(np.int64)
    return pa.table({
        "doc_id": rows_id,
        "n_words": pa.array(nw, pa.int64()),
        "total_word_chars": pa.array(tc, pa.int64()),
        "alpha_words": pa.array(aw, pa.int64()),
        "hash_count": pa.array(hc, pa.int64()),
        "r_words": pa.array(r_words, pa.int64()),
        "r_mean_len": pa.array(r_mean_len, pa.int64()),
        "r_alpha": pa.array(r_alpha, pa.int64()),
        "r_symbol": pa.array(r_symbol, pa.int64()),
        "keep": pa.array(keep, pa.int64()),
    })


def unigram_ppl(docs_ds, n_buckets: int | None = None, min_count: int = 2,
                row_cap: int | None = None, n_salts: int | None = None):
    """Corpus-trained unigram negative-log-likelihood per document — the
    CCNet-style LM-quality signal (Wenzek et al. 2020 bucket corpora by
    LM perplexity; a unigram model is the dependency-free stand-in, with
    the same prune-and-smooth a KenLM deployment applies).

    Pass 1 (train): token counts via per-batch ``pyarrow.group_by``
    partials + ONE bucketed shuffle.  Tokens with count < ``min_count``
    are PRUNED inside the reducers — their mass is lumped into one OOV
    class per bucket (what CCNet/KenLM do: a web-scale corpus has
    billions of distinct rare tokens, and an unpruned vocabulary grows
    with the corpus).  Pruned tokens score at the OOV floor
    ``-ln(oov_mass/total)``.

    Pass 2 (score) picks a plan from the MEASURED size of the pruned
    vocabulary (the decontaminate pattern — never trust "zipfian,
    bounded" claims, measure):

    - ``broadcast`` (vocab passes ``partitioning.fits_broadcast``):
      log-probs collected once, ``ray.put``, per-batch vectorized
      token->logprob map (pandas hash join) + segment sums.  Zero extra
      shuffles.
    - ``join`` (vocab over the limit): the vocabulary never reaches the
      driver — per-batch (doc_id, tok)->occurrences
      partials join the count table inside SALTED token-hash buckets
      (round-4 verdict: a Zipf-head token carries ~one probe row per
      document, all landing in one token-hash group — probe rows now
      key on hash(tok) x (hash(doc) % n_salts) and the fixed-width
      build rows replicate x n_salts, so a hot token's probe mass
      splits ~n_salts ways while every probe row still meets its count
      row), then a fixed-width doc_id shuffle sums per-doc partials.
      Bounded per-reducer memory (~probe/(n_buckets*n_salts)) at any
      corpus size.

    Both plans return Dataset(doc_id, n_tokens, nll_bp) with nll_bp =
    floor(avg(-ln p) * 1e4 + 0.5) — integer-rounded so the SQL oracle
    hash-matches.
    """
    import numpy as np
    import pandas as pd
    import ray

    from . import partitioning
    from .partitioning import bucket_exchange, default_buckets

    nb = n_buckets or default_buckets()
    mc = int(min_count)

    # vectorized Arrow tokenizer shared with sparse/cooccur — identical
    # whitespace contract (trim + split, empty text -> one '' token), no
    # Python loop over rows on this corpus-hot path
    from .sparse import _tokenize_batch

    def count_partial(t: pa.Table) -> pa.Table:
        flat, _di, _len = _tokenize_batch(t, "text")
        return (pa.table({"tok": flat})
                .group_by("tok").aggregate([("tok", "count")]))

    def count_final(g: pd.DataFrame) -> pa.Table:
        # Combine partials, then prune: rare-token mass collapses into ONE
        # null-token OOV row per bucket (null can't collide with a real
        # token — whitespace split never yields null).
        out = (g.groupby("tok", as_index=False)["tok_count"].sum()
               .rename(columns={"tok_count": "c"}))
        b = int(g["__b"].iloc[0]) if len(g) else 0
        rare = out["c"].to_numpy(np.int64) < mc
        kept = out[~rare]
        toks = kept["tok"].tolist()
        cs = kept["c"].to_numpy(np.int64).tolist()
        oov = int(out.loc[rare, "c"].sum())
        if oov:
            toks.append(None)
            cs.append(oov)
        return pa.table({
            "tok": pa.array(toks, pa.string()),
            "c": pa.array(cs, pa.int64()),
            "__b": pa.array([b] * len(toks), pa.int32()),
        })

    counts_ds = bucket_exchange(docs_ds, ["tok"], count_final,
                                prep=count_partial,
                                n_buckets=nb).materialize()

    # Tiny scalar pass: corpus token total + pruned (OOV) mass.  One row
    # per block reaches the driver regardless of vocabulary size.
    def scalars(t: pa.Table) -> pa.Table:
        null = pc.is_null(t["tok"])
        return pa.table({
            "total": pa.array([pc.sum(t["c"]).as_py() or 0], pa.int64()),
            "oov": pa.array(
                [pc.sum(pc.if_else(null, t["c"], pa.scalar(0, pa.int64()))
                        ).as_py() or 0], pa.int64()),
        })

    sc = counts_ds.map_batches(scalars, batch_format="pyarrow").to_pandas()
    if not len(sc):
        # a zero-block dataset also loses its columns through to_pandas,
        # so this must be caught here, not at the column lookup
        raise ValueError("unigram_ppl over an empty corpus (every doc "
                         "was filtered out upstream?)")
    total = float(sc["total"].sum())
    oov_mass = float(sc["oov"].sum())
    # Unused when oov_mass == 0 (scoring the training corpus, every token
    # is then in the kept vocab); a real value either way keeps fillna sane.
    oov_logp = -np.log(oov_mass / total) if oov_mass > 0 else 0.0

    from .partitioning import check_group_cap, co_partition, default_salts

    ns = n_salts or default_salts()

    def doc_tok_partial(t: pa.Table) -> pa.Table:
        # (doc_id, tok) occurrence counts per batch — the probe side of
        # the salted bucketed join, pre-aggregated so duplicate tokens
        # within a doc travel as one row.
        flat, di, _len = _tokenize_batch(t, "text")
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        out = (pa.table({"doc_id": pa.array(ids[di], pa.int64()),
                         "tok": flat})
               .group_by(["doc_id", "tok"]).aggregate([("tok", "count")]))
        return pa.table({"doc_id": out["doc_id"], "tok": out["tok"],
                         "c": out["tok_count"].cast(pa.int64())})

    if not partitioning.fits_broadcast(counts_ds.size_bytes()):
        def merge(prb: pa.Table, bld: pa.Table) -> pa.Table:
            check_group_cap(len(prb) + len(bld), row_cap,
                            "unigram_ppl.merge")
            prb, bld = prb.to_pandas(), bld.to_pandas()
            lp = pd.Series(
                -np.log(bld["c"].to_numpy(np.float64) / total),
                index=bld["tok"])
            vals = prb["tok"].map(lp).fillna(oov_logp).to_numpy(np.float64)
            occ = prb["c"].to_numpy(np.float64)
            part = pd.DataFrame({
                "doc_id": prb["doc_id"].to_numpy(np.int64),
                "s": vals * occ,
                "n": prb["c"].to_numpy(np.int64),
            }).groupby("doc_id", as_index=False).sum()
            return pa.table({
                "doc_id": pa.array(part["doc_id"].to_numpy(np.int64)),
                "s": pa.array(part["s"].to_numpy(np.float64)),
                "n": pa.array(part["n"].to_numpy(np.int64)),
            })

        def per_doc(g: pd.DataFrame) -> pa.Table:
            agg = g.groupby("doc_id", as_index=False).agg(
                n_tokens=("n", "sum"), s=("s", "sum"))
            avg = agg["s"].to_numpy(np.float64) / agg["n_tokens"].to_numpy(
                np.float64)
            return pa.table({
                "doc_id": pa.array(agg["doc_id"].to_numpy(np.int64)),
                "n_tokens": pa.array(agg["n_tokens"].to_numpy(np.int64)),
                "nll_bp": pa.array(
                    np.floor(avg * 10_000 + 0.5).astype(np.int64)),
            })

        # probe rows salt on hash(doc) % ns; each count row replicates
        # x ns so every salted probe group finds it locally.  OOV rows
        # (null tok) score via the floor and stay home.
        probe = docs_ds.map_batches(doc_tok_partial, batch_format="pyarrow")
        build = counts_ds.map_batches(
            lambda t: t.filter(pc.is_valid(t["tok"])).select(["tok", "c"]),
            batch_format="pyarrow")
        return bucket_exchange(
            co_partition(probe, build, (["tok"], ["tok"]), merge,
                         n_buckets=nb, salt=("doc_id", ns)),
            ["doc_id"], per_doc, n_buckets=nb)

    # broadcast plan — the measured vocab fits the broadcast limit
    cpdf = counts_ds.to_pandas()
    kept = cpdf[cpdf["tok"].notna()]
    logp = dict(zip(kept["tok"],
                    -np.log(kept["c"].to_numpy(np.float64) / total)))
    ref = ray.put(logp)

    def score(t: pa.Table) -> pa.Table:
        lp = ray.get(ref)
        flat, di, n = _tokenize_batch(t, "text")
        vals = (pd.Series(flat.to_numpy(zero_copy_only=False),
                          dtype=object).map(lp).fillna(oov_logp)
                .to_numpy(np.float64))
        # bincount, not reduceat: synthesized empty-doc tokens are
        # appended out of positional order by the shared tokenizer
        sums = np.bincount(di, weights=vals, minlength=len(t))
        avg = sums / n
        return pa.table({
            "doc_id": t["doc_id"],
            "n_tokens": pa.array(n, pa.int64()),
            "nll_bp": pa.array(np.floor(avg * 10_000 + 0.5).astype(np.int64),
                               pa.int64()),
        })

    return docs_ds.map_batches(score, batch_format="pyarrow")


def bigram_ppl(docs_ds, n_buckets: int | None = None, min_count: int = 2,
               row_cap: int | None = None, n_salts: int | None = None):
    """Corpus-trained BIGRAM negative-log-likelihood per document — the
    next LM-quality rung above ``unigram_ppl`` on the CCNet/KenLM ladder
    (real deployments use a 5-gram KenLM; the prune-and-smooth shape is
    the same at every order).

    Model: P(b | a) = c(a,b) / c1(a) where c1(a) counts a's bigram
    CONTEXTS (positions followed by another token).  Bigrams below
    ``min_count`` are pruned per context and their mass collapses into
    one per-context floor class: -ln(oov_mass(a) / c1(a)) — every
    context seen at scoring time exists in training (same corpus), so
    no global fallback is needed.

    Train: pass 1 pre-aggregates per-batch ORDERED consecutive pairs
    (vectorized shifted arrays; a doc's tokens are contiguous in its
    batch) and shuffles ONCE on hash(context) so a context's bigrams
    and its floor reduce together.  The pruned model's size is MEASURED
    and picks the scoring plan (same ladder as ``unigram_ppl``):

    - ``broadcast`` (model passes ``partitioning.fits_broadcast``):
      collected once, ``ray.put``, per-batch scoring with two pandas
      merges (bigram hit, else context floor) and per-doc bincount sums.
      Zero extra shuffles.
    - ``join`` (model over the limit): the model never reaches the
      driver — per-batch (doc_id, context, next)
      occurrence partials join the model rows inside SALTED
      context-hash buckets (probe rows key on hash(context) x
      (hash(doc) % n_salts); fixed-width model rows — bigram AND floor
      — replicate x n_salts so every salted probe group resolves
      locally), then a fixed-width doc_id shuffle sums per-doc
      partials.  A Zipf-head context ("the") splits ~n_salts ways.

    Docs with < 2 tokens have no bigrams: n_bigrams = 0 and nll_bp = 0
    (mirrored by the oracle's COALESCE; the join plan unions a per-doc
    zero row so such docs still emit).  Returns Dataset(doc_id,
    n_bigrams, nll_bp)."""
    import numpy as np
    import ray

    from . import partitioning
    from .partitioning import bucket_exchange, default_buckets
    from .sparse import _tokenize_batch

    nb = n_buckets or default_buckets()
    mc = int(min_count)

    def _pairs(t: pa.Table):
        flat, di, _len = _tokenize_batch(t, "text")
        toks = flat.to_numpy(zero_copy_only=False)
        same = di[:-1] == di[1:]
        return toks[:-1][same], toks[1:][same], di[:-1][same]

    def pair_partial(t: pa.Table) -> pa.Table:
        empty = pa.table({"a": pa.array([], pa.string()),
                          "b": pa.array([], pa.string()),
                          "c": pa.array([], pa.int64())})
        a, b, _d = _pairs(t)
        if not len(a):
            return empty
        import pandas as pd

        cnt = (pd.DataFrame({"a": a, "b": b})
               .groupby(["a", "b"], sort=False).size().reset_index(name="c"))
        return pa.table({
            "a": pa.array(cnt["a"].to_numpy(object), pa.string()),
            "b": pa.array(cnt["b"].to_numpy(object), pa.string()),
            "c": pa.array(cnt["c"].to_numpy(np.int64))})

    def reduce_context(g) -> pa.Table:
        import pandas as pd

        c2 = g.groupby(["a", "b"], as_index=False)["c"].sum()
        c1 = c2.groupby("a")["c"].transform("sum").to_numpy(np.float64)
        cv = c2["c"].to_numpy(np.int64)
        kept = cv >= mc
        logp = -np.log(cv[kept] / c1[kept])
        # per-context floor from the pruned mass (contexts with nothing
        # pruned emit no floor row — scoring can never need it, every
        # surviving (a,b) is in the kept table)
        pr = pd.DataFrame({"a": c2["a"], "pruned": np.where(kept, 0, cv),
                           "n": c1})
        fl = pr.groupby("a", as_index=False).agg(pruned=("pruned", "sum"),
                                                 n=("n", "first"))
        fl = fl[fl["pruned"] > 0]
        floor_logp = -np.log(fl["pruned"].to_numpy(np.float64)
                             / fl["n"].to_numpy(np.float64))
        return pa.table({
            "a": pa.array(list(c2["a"][kept]) + list(fl["a"]), pa.string()),
            "b": pa.array(list(c2["b"][kept]) + [None] * len(fl),
                          pa.string()),
            "logp": pa.array(np.concatenate([logp, floor_logp]),
                             pa.float64()),
        })

    model = bucket_exchange(docs_ds, ["a"], reduce_context,
                            prep=pair_partial, n_buckets=nb).materialize()
    import pandas as pd

    if not partitioning.fits_broadcast(model.size_bytes()):
        from .partitioning import check_group_cap, co_partition, default_salts

        ns = n_salts or default_salts()

        def probe_partial(t: pa.Table) -> pa.Table:
            # (doc_id, a, b) occurrence counts per batch — pre-aggregated
            # so a repeated bigram within a doc travels as one row.
            a, b, d = _pairs(t)
            ids = t["doc_id"].to_numpy(zero_copy_only=False)[d]
            cnt = (pd.DataFrame({"doc_id": ids, "a": a, "b": b})
                   .groupby(["doc_id", "a", "b"], sort=False)
                   .size().reset_index(name="c"))
            return pa.table({
                "doc_id": pa.array(cnt["doc_id"].to_numpy(np.int64)),
                "a": pa.array(cnt["a"].to_numpy(object), pa.string()),
                "b": pa.array(cnt["b"].to_numpy(object), pa.string()),
                "c": pa.array(cnt["c"].to_numpy(np.int64)),
            })

        def merge(prb: pa.Table, bld: pa.Table) -> pa.Table:
            check_group_cap(len(prb) + len(bld), row_cap,
                            "bigram_ppl.merge")
            prb, bld = prb.to_pandas(), bld.to_pandas()
            bg = bld[bld["b"].notna()][["a", "b", "logp"]]
            fl = (bld[bld["b"].isna()][["a", "logp"]]
                  .rename(columns={"logp": "floor"}))
            df = prb.merge(bg, on=["a", "b"], how="left")
            miss = df["logp"].isna()
            if miss.any():
                sub = df.loc[miss, ["a"]].merge(fl, on="a", how="left")
                df.loc[miss, "logp"] = sub["floor"].to_numpy()
            occ = df["c"].to_numpy(np.float64)
            part = pd.DataFrame({
                "doc_id": df["doc_id"].to_numpy(np.int64),
                "s": df["logp"].to_numpy(np.float64) * occ,
                "n": df["c"].to_numpy(np.int64),
            }).groupby("doc_id", as_index=False).sum()
            return pa.table({
                "doc_id": pa.array(part["doc_id"].to_numpy(np.int64)),
                "s": pa.array(part["s"].to_numpy(np.float64)),
                "n": pa.array(part["n"].to_numpy(np.int64)),
            })

        def zero_rows(t: pa.Table) -> pa.Table:
            # every doc emits a zero partial so < 2-token docs (no probe
            # rows) still produce an (n_bigrams=0, nll_bp=0) result row
            z = np.zeros(len(t), np.int64)
            return pa.table({"doc_id": t["doc_id"],
                             "s": pa.array(z.astype(np.float64)),
                             "n": pa.array(z)})

        def per_doc(g: pd.DataFrame) -> pa.Table:
            agg = g.groupby("doc_id", as_index=False).agg(
                n_bigrams=("n", "sum"), s=("s", "sum"))
            n = agg["n_bigrams"].to_numpy(np.int64)
            avg = np.divide(agg["s"].to_numpy(np.float64),
                            n.astype(np.float64),
                            out=np.zeros(len(agg)), where=n > 0)
            return pa.table({
                "doc_id": pa.array(agg["doc_id"].to_numpy(np.int64)),
                "n_bigrams": pa.array(n),
                "nll_bp": pa.array(
                    np.floor(avg * 10_000 + 0.5).astype(np.int64)),
            })

        # probe rows salt on hash(doc) % ns; model rows — bigram AND
        # floor (b null) — replicate x ns so every salted probe group
        # resolves locally
        probe = docs_ds.map_batches(probe_partial, batch_format="pyarrow")
        zeros = (docs_ds.select_columns(["doc_id"])
                 .map_batches(zero_rows, batch_format="pyarrow"))
        return bucket_exchange(
            co_partition(probe, model, (["a"], ["a"]), merge,
                         n_buckets=nb, salt=("doc_id", ns)).union(zeros),
            ["doc_id"], per_doc, n_buckets=nb)

    # broadcast plan — the measured pruned model fits the broadcast limit
    mdf = model.to_pandas()

    big = mdf[mdf["b"].notna()][["a", "b", "logp"]]
    flo = (mdf[mdf["b"].isna()][["a", "logp"]]
           .rename(columns={"logp": "floor"}))
    ref = ray.put((big, flo))

    def score(t: pa.Table) -> pa.Table:
        bg, fl = ray.get(ref)
        n_docs = len(t)
        a, b, d = _pairs(t)
        if not len(a):
            z = np.zeros(n_docs, np.int64)
            return pa.table({"doc_id": t["doc_id"],
                             "n_bigrams": pa.array(z),
                             "nll_bp": pa.array(z)})
        df = pd.DataFrame({"a": a, "b": b, "d": d})
        df = df.merge(bg, on=["a", "b"], how="left")
        miss = df["logp"].isna()
        if miss.any():
            sub = df.loc[miss, ["a"]].merge(fl, on="a", how="left")
            df.loc[miss, "logp"] = sub["floor"].to_numpy()
        v = df["logp"].to_numpy(np.float64)
        dd = df["d"].to_numpy(np.int64)
        sums = np.bincount(dd, weights=v, minlength=n_docs)
        cnts = np.bincount(dd, minlength=n_docs).astype(np.int64)
        avg = np.divide(sums, cnts, out=np.zeros(n_docs), where=cnts > 0)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_bigrams": pa.array(cnts),
            "nll_bp": pa.array(np.floor(avg * 10_000 + 0.5)
                               .astype(np.int64)),
        })

    return docs_ds.map_batches(score, batch_format="pyarrow")


def doc_token_entropy(batch: pa.Table) -> pa.Table:
    """Per-document Shannon entropy of the token distribution (nats,
    basis points) — the lexical-diversity / gibberish quality signal
    (low entropy = repeated-token spam, near-max = natural text; used
    alongside the Gopher repetition rules).  Stateless vectorized map,
    zero shuffles: H = ln(n) - (1/n) * sum_t c_t ln c_t over the doc's
    own counts.  Empty docs score 0 (one synthetic '' token, n=1 — the
    shared tokenizer's DuckDB regexp_split parity contract)."""
    import numpy as np
    import pandas as pd

    from .sparse import _tokenize_batch

    flat, di, lengths = _tokenize_batch(batch, "text")
    cnt = (pd.DataFrame({"d": di,
                         "t": flat.to_numpy(zero_copy_only=False)})
           .groupby(["d", "t"], sort=False).size())
    c = cnt.to_numpy(np.float64)
    d = cnt.index.get_level_values(0).to_numpy(np.int64)
    s = np.zeros(len(batch), np.float64)
    np.add.at(s, d, c * np.log(c))
    n = lengths.astype(np.float64)
    ent = np.log(n) - s / n
    return pa.table({
        "doc_id": batch["doc_id"],
        "n_tokens": pa.array(lengths, pa.int64()),
        "entropy_bp": pa.array(
            np.floor(ent * 10_000 + 0.5).astype(np.int64)),
    })

# ---------- PII scrubbing ------------------------------------------------------

# RE2 patterns, evaluated by BOTH engines' RE2 bindings (pyarrow.compute
# string kernels and DuckDB regexp_*) — parity verified by the exact
# doc_pii_redact oracle.  Kept intentionally conservative (the C4 / Dolma
# scrub set): emails, North-American phone shapes, dotted-quad IPs.
PII_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_PHONE_RE = r"\(?\d{3}\)?[ .-]?\d{3,4}[ .-]?\d{4}\b"
PII_IPV4_RE = r"\b(?:\d{1,3}\.){3}\d{1,3}\b"


def inject_synthetic_pii(batch: pa.Table) -> pa.Table:
    """Deterministically append synthetic PII tokens derived from doc_id
    (email for doc_id%3==0, phone for %4==1, dotted-quad IP for %5==2) so
    the scrub pass does real work on the driver's PII-free synthetic
    corpus — same move as doc_line_dedup's fixed-window "lines".  The
    derivation is part of the query on BOTH sides (see SQL_PII_REDACT),
    so the oracle hash still pins the scrubber end-to-end."""
    import numpy as np
    import pandas as pd

    ids = batch.column("doc_id").to_numpy()

    def s(a) -> pd.Series:
        return pd.Series(a.astype(str), dtype=object)

    email = (" user" + s(ids) + "@example.org").where(ids % 3 == 0, "")
    phone = (" (555) " + s(ids % 1000).str.zfill(3) + "-"
             + s(ids * 7 % 10000).str.zfill(4)).where(ids % 4 == 1, "")
    ip = (" 10." + s(ids % 256) + "." + s(ids // 7 % 256) + "."
          + s(ids % 254 + 1)).where(ids % 5 == 2, "")
    txt = pd.Series(batch.column("text").to_pandas()) + email + phone + ip
    return batch.set_column(batch.schema.get_field_index("text"), "text",
                            pa.array(txt, pa.string()))


def pii_redact(batch: pa.Table) -> pa.Table:
    """Count + redact PII spans (emails -> <EMAIL>, IPs -> <IP>, phones ->
    <PHONE>) with vectorized RE2 kernels — stateless map, zero shuffles,
    the whole corpus streams through untouched except the matched spans.
    Counts are taken on the pre-redaction text; replacement order
    email -> IP -> phone is fixed (and order-insensitive for these
    patterns: no replacement token contains digits or '@').  Ref seat:
    the reference scrubs raw web text before KB indexing
    (kb/parse_text.py) — this is the privacy-scrub analogue every
    Common-Crawl training pipeline runs (C4, Dolma, RefinedWeb)."""
    t = batch.column("text")
    n_emails = pc.count_substring_regex(t, pattern=PII_EMAIL_RE)
    n_phones = pc.count_substring_regex(t, pattern=PII_PHONE_RE)
    n_ips = pc.count_substring_regex(t, pattern=PII_IPV4_RE)
    red = pc.replace_substring_regex(t, pattern=PII_EMAIL_RE,
                                     replacement="<EMAIL>")
    red = pc.replace_substring_regex(red, pattern=PII_IPV4_RE,
                                     replacement="<IP>")
    red = pc.replace_substring_regex(red, pattern=PII_PHONE_RE,
                                     replacement="<PHONE>")
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "n_emails": pc.cast(n_emails, pa.int64()),
        "n_phones": pc.cast(n_phones, pa.int64()),
        "n_ips": pc.cast(n_ips, pa.int64()),
        "redacted": red,
    })


# ---------- frozen linear quality classifier ----------------------------------

CLF_BUCKETS = 1024


def quality_classifier(batch: pa.Table) -> pa.Table:
    """Frozen hashed-unigram LINEAR classifier inference — the
    fastText-style quality-model seat (CCNet / LLaMA "Wikipedia-like"
    filters run exactly this dataflow: frozen weights resident per
    worker, vectorized bag-of-hashed-ngrams scoring, zero shuffles).

    Weights here are a deterministic function of the hash bucket
    (w_b = (b * 2654435761 mod 2048) / 1024 - 1, in [-1, 1)) so the
    DuckDB oracle reproduces inference bit-for-bit; a deployment loads
    trained weights into the same (CLF_BUCKETS,)-vector — the plan does
    not change.  md5 runs once per DISTINCT token per batch
    (vocab-bounded).  score = mean token weight -> sigmoid -> bp;
    keep = clf_bp >= 5000."""
    import hashlib

    import numpy as np

    from .sparse import _tokenize_batch

    flat, di, lengths = _tokenize_batch(batch, "text")
    toks = flat.to_numpy(zero_copy_only=False)
    uniq, inv = np.unique(toks, return_inverse=True)
    hb = np.fromiter(
        (int(hashlib.md5(t.encode("utf-8")).hexdigest()[:8], 16)
         % CLF_BUCKETS for t in uniq), np.int64, len(uniq))
    w = (hb * 2654435761 % 2048) / 1024.0 - 1.0
    raw = np.bincount(di, weights=w[inv], minlength=len(batch))
    prob = 1.0 / (1.0 + np.exp(-(raw / lengths)))
    clf_bp = np.floor(prob * 10_000 + 0.5).astype(np.int64)
    return pa.table({
        "doc_id": batch["doc_id"],
        "n_tokens": pa.array(lengths.astype(np.int64)),
        "clf_bp": pa.array(clf_bp),
        "keep": pa.array((clf_bp >= 5000).astype(np.int64)),
    })
