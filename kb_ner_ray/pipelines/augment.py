"""The reference's E2 pipeline as a product: CoNLL dataset in ->
retrieval-augmented CoNLL out (kb/generate_data.py + kb/context_process.py
``generate_training_data``).

Format pinned from the reference: the original sentence lines keep their
labels; an ``<EOS>`` separator line labeled ``B-X`` follows
(context_process.py:219-221); every context token is appended as a line
labeled ``B-X`` (:424-426).  Context selection is the engine's budgeted
attach (same 510-subtoken walk the reference uses).

A reference user's ``retrieval -> augmented CoNLL`` workflow maps to::

    from kb_ner_ray.pipelines.augment import augment_conll_file
    augment_conll_file("train.txt", corpus_dir, "train_aug.txt")
"""

from __future__ import annotations

import pyarrow as pa

from ..sources.conll import read_conll_dataset, write_conll
from .kg import _kernel_map


def augment_conll_dataset(paths, corpus: str,
                          column_format: dict[int, str] | None = None,
                          lang: str | None = None):
    """CoNLL file(s) -> Dataset of augmented sentences.

    Output columns: ``sent_key``, ``text``/``ner`` (original token/label
    lists), ``aug_tokens``/``aug_labels`` (the reference's augmented
    line format: sentence + <EOS> + context tokens labeled B-X) and
    ``n_contexts``.
    """
    ds = read_conll_dataset(paths, column_format)

    def join_text(t: pa.Table) -> pa.Table:
        texts = [" ".join(toks) for toks in t.column("text").to_pylist()]
        out = t.append_column("__text_list", t["text"]).drop_columns(
            ["text"])
        out = out.append_column("text", pa.array(texts, pa.string()))
        if lang is not None:
            out = out.append_column(
                "lang", pa.array([lang] * t.num_rows, pa.string()))
        return out

    augmented = _kernel_map(ds.map_batches(join_text, batch_format="pyarrow"),
                            corpus, mode="aug")

    def render(t: pa.Table) -> pa.Table:
        toks_col = t.column("__text_list").to_pylist()
        ner_col = (t.column("ner").to_pylist()
                   if "ner" in t.column_names
                   else [["O"] * len(x) for x in toks_col])
        aug_toks_out, aug_labels_out = [], []
        for toks, ner, text, aug in zip(
                toks_col, ner_col,
                t.column("text").to_pylist(),
                t.column("aug_text").to_pylist()):
            aug_toks = list(toks)
            aug_labels = list(ner)
            if aug != text:  # contexts attached after " <EOS> "
                ctx = aug[len(text) + len(" <EOS> "):].split()
                aug_toks.append("<EOS>")
                aug_labels.append("B-X")
                aug_toks.extend(ctx)
                aug_labels.extend(["B-X"] * len(ctx))
            aug_toks_out.append(aug_toks)
            aug_labels_out.append(aug_labels)
        return pa.table({
            "sent_key": t["sent_key"],
            "text": t["__text_list"],
            "ner": (t["ner"] if "ner" in t.column_names
                    else pa.array(ner_col, pa.list_(pa.string()))),
            "aug_tokens": pa.array(aug_toks_out, pa.list_(pa.string())),
            "aug_labels": pa.array(aug_labels_out, pa.list_(pa.string())),
            "n_contexts": t["n_contexts"],
        })

    return augmented.map_batches(render, batch_format="pyarrow")


def augment_conll_file(in_path: str, corpus: str, out_path: str,
                       column_format: dict[int, str] | None = None,
                       lang: str | None = None) -> int:
    """End-to-end: read -> retrieve+attach -> write augmented CoNLL.
    Returns the number of sentences written."""
    ds = augment_conll_dataset(in_path, corpus, column_format, lang)
    tables = list(ds.select_columns(["sent_key", "aug_tokens", "aug_labels"])
                  .iter_batches(batch_size=None, batch_format="pyarrow"))
    if not tables:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write("")
        return 0
    table = pa.concat_tables(tables)
    text = write_conll(
        table.rename_columns(["sent_key", "text", "ner"]),
        columns=["text", "ner"], with_ids=True)
    with open(out_path, "w", encoding="utf-8") as f:
        f.write(text)
    return table.num_rows
