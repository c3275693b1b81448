"""HTML -> text extraction stage (the reference's M1 seat,
kb/parse_text.py:45-71, re-seated per BASELINE.json input_hint).

Stateless ``map_batches`` function, Arrow in / Arrow out.  The ``html``
binary column is dropped immediately after extraction (SURVEY.md §4 memory
note) so downstream blocks carry only text.
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.text import extract_text


def extract_pages(batch: pa.Table) -> pa.Table:
    """(url, warc_ts, html, lang[, part], ...) -> (url, warc_ts, text,
    lang[, part]).

    Per-row HTML parsing is irreducibly per-document; the regex machinery is
    module-level-compiled and the batch dimension amortizes dispatch.  A
    ``part`` column (the resumable run's partition label) passes through.
    """
    texts = [extract_text(h) for h in batch.column("html").to_pylist()]
    out = pa.table(
        {
            "url": batch.column("url"),
            "warc_ts": batch.column("warc_ts"),
            "text": pa.array(texts, pa.string()),
            "lang": batch.column("lang"),
        }
    )
    if "part" in batch.column_names:
        out = out.append_column("part", batch.column("part"))
    return out
