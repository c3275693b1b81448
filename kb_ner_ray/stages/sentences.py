"""Page -> sentence explode (the reference's M2 seat, kb/parse_text.py:17-32).

Stateless ``map_batches`` flat-map: each input page row yields one output row
per sentence, keys ``(url, sent_id)`` carried explicitly (SURVEY.md §2.9 —
never rely on physical order).
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.text import split_sentences


def explode_sentences(batch: pa.Table) -> pa.Table:
    """(url, text, lang[, part]) pages -> (url, sent_id, text, lang[, part])
    sentences; a ``part`` column is repeated onto each page's sentences."""
    urls, sent_ids, texts, langs, rows = [], [], [], [], []
    for i, (url, text, lang) in enumerate(zip(
        batch.column("url").to_pylist(),
        batch.column("text").to_pylist(),
        batch.column("lang").to_pylist(),
    )):
        for sid, sent in enumerate(split_sentences(text, lang)):
            urls.append(url)
            sent_ids.append(sid)
            texts.append(sent)
            langs.append(lang)
            rows.append(i)
    out = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "sent_id": pa.array(sent_ids, pa.int32()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
        }
    )
    if "part" in batch.column_names:
        out = out.append_column(
            "part", batch.column("part").take(pa.array(rows, pa.int64())))
    return out


def filter_by_length(sents_ds, max_tokens: int = 510, train: bool = True,
                     mode: str = "drop"):
    """Over-long sentence policy (reference S10/M19:
    kb/context_process.py:660-672,998 drops >510-token train sentences;
    dev/test cap is 999; flair clip_sentences is the same seat).

    ``mode="drop"``: the reference's behavior.  ``mode="window"``: explode
    each over-long sentence into overlapping stride windows (flair
    embeddings.py:2960-2969 long-sentence path as a data-prep transform;
    ``win_id``/``win_start`` columns track provenance) so no content is
    lost.  Vectorized map_batches — ``ds.filter(row_fn)`` is per-row
    Python and has no place in a hot stage."""
    cap = max_tokens if train else 999

    def keep(t: pa.Table) -> pa.Table:
        mask = [len(x.split()) <= cap for x in t.column("text").to_pylist()]
        return t.filter(pa.array(mask, pa.bool_()))

    def window(t: pa.Table) -> pa.Table:
        from ..functions.windows import split_windows

        cols = {c: [] for c in t.column_names}
        win_ids, win_starts = [], []
        rows = t.to_pylist()
        for row in rows:
            toks = row["text"].split()
            for wid, (s, e) in enumerate(
                    split_windows(len(toks), cap, cap // 2)):
                for c in t.column_names:
                    cols[c].append(" ".join(toks[s:e]) if c == "text"
                                   else row[c])
                win_ids.append(wid)
                win_starts.append(s)
        out = pa.table({c: pa.array(cols[c], t.schema.field(c).type)
                        for c in t.column_names})
        return out.append_column(
            "win_id", pa.array(win_ids, pa.int32())).append_column(
            "win_start", pa.array(win_starts, pa.int32()))

    fn = window if mode == "window" else keep
    return sents_ds.map_batches(fn, batch_format="pyarrow")
