"""Gazetteer mention matcher — the deterministic stand-in for the reference's
XLM-R + CRF tagger (SURVEY.md §7 step 5).

The reference's mention detector is a transformer sequence tagger
(flair/models/sequence_tagger_model.py:99-434) which is unavailable in this
environment (no GPU / no transformers). The engine keeps the *same interface*
(token sequence in → BIOES tag sequence + confidence out, decoded via the
pinned span codec) but the scorer is a longest-match token-trie over the
known entity vocabulary. A real deployment swaps ``tag_tokens`` for the model
forward + Viterbi inside the same per-worker kernel (stages/tagger.py).
"""

from __future__ import annotations

from ..functions.spans import decode_bioes


class Gazetteer:
    """Token-level longest-match gazetteer.

    Built from (surface, label, ent_id) rows; surfaces are whitespace-token
    sequences. Matching is left-to-right greedy longest-match. When one
    surface carries several labels/entities, the entry with the smallest
    ent_id wins (deterministic).
    """

    def __init__(self, rows: list[dict]):
        # first token -> list[(token_tuple, label, ent_id)] sorted len desc
        by_first: dict[str, list[tuple[tuple[str, ...], str, int]]] = {}
        best: dict[tuple[str, ...], tuple[int, str]] = {}
        self.candidates: dict[tuple[str, ...], list[int]] = {}
        for r in rows:
            toks = tuple(r["surface"].split())
            if not toks:
                continue
            ent = int(r["ent_id"])
            key = (ent if ent >= 0 else 1 << 60, r["label"])
            if toks not in best or key < best[toks]:
                best[toks] = key
            if ent >= 0:
                self.candidates.setdefault(toks, [])
                if ent not in self.candidates[toks]:
                    self.candidates[toks].append(ent)
        for toks, (ent_key, label) in best.items():
            by_first.setdefault(toks[0], []).append((toks, label, ent_key))
        for lst in by_first.values():
            lst.sort(key=lambda e: len(e[0]), reverse=True)
        self.by_first = by_first
        self.max_len = max((len(t) for t in best), default=1)

    def find_mentions(self, tokens: list[str]) -> list[tuple[int, int, str]]:
        """Greedy longest-match spans: (start, end_exclusive, label)."""
        out: list[tuple[int, int, str]] = []
        i, n = 0, len(tokens)
        while i < n:
            entries = self.by_first.get(tokens[i])
            if entries:
                for toks, label, _ in entries:
                    L = len(toks)
                    if i + L <= n and tuple(tokens[i:i + L]) == toks:
                        out.append((i, i + L, label))
                        i += L
                        break
                else:
                    i += 1
            else:
                i += 1
        return out

    def tag_tokens(self, tokens: list[str]) -> list[str]:
        """BIOES tag sequence for a token list (the model-output surface)."""
        tags = ["O"] * len(tokens)
        for start, end, label in self.find_mentions(tokens):
            if end - start == 1:
                tags[start] = "S-" + label
            else:
                tags[start] = "B-" + label
                for j in range(start + 1, end - 1):
                    tags[j] = "I-" + label
                tags[end - 1] = "E-" + label
        return tags

    def mentions_via_codec(self, tokens: list[str],
                           via_codec: bool = False
                           ) -> list[tuple[int, int, str, float]]:
        """Spans with the codec-path output shape (start, end, label, 1.0).

        For trie matches — non-overlapping, in order by construction — the
        full codec round-trip (``tags -> decode_bioes -> spans``) is the
        IDENTITY, so the production path returns the trie spans directly
        (the round-trip was ~60% of the fused kernel's tagging cost).
        ``via_codec=True`` runs the full path; the equality of both paths
        on every corpus sentence is pinned by tests (and the codec itself
        stays the decode surface for real tagger emissions / Viterbi)."""
        if via_codec:
            return decode_bioes(self.tag_tokens(tokens))
        return [(s, e, label, 1.0)
                for s, e, label in self.find_mentions(tokens)]
