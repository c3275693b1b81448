"""A BPE-ish subtoken counter and the token-budget batch packer.

Fills two reference seats:

* the XLM-R subtoken counter used for the 510-subtoken context budget —
  reference ``kb/context_process.py:760-763`` loads
  ``AutoTokenizer('xlm-roberta-large')``; transformers is not available in
  this environment, so the engine pins a deterministic BPE-ish stand-in with
  the same *interface* and the same budget semantics (greedy additive count,
  SURVEY.md §7 hard part (b)).  A real deployment swaps ``subtoken_count``
  for the HF tokenizer inside the same actor;
* the T5/O1 batch packer, ``pack_by_length``.
"""

from __future__ import annotations

import functools
import re

# Optional real-tokenizer backend (the T1 swap seam). None -> the
# deterministic stand-in below.
_counter = None


def set_subtoken_backend(fn_or_model) -> None:
    """Swap the subtoken counter for a real tokenizer.

    Accepts either a callable ``fn(text) -> int`` or a HuggingFace model
    name (``'xlm-roberta-large'`` — requires the ``transformers`` package,
    absent in this sandbox; the import is gated so the engine works
    without it).  Affects every stage that budgets contexts; worker
    processes must call it too (put the call in the actor ``__init__`` of
    a custom deployment), so it is a deliberate opt-in, not ambient
    state."""
    global _counter
    if callable(fn_or_model):
        _counter = fn_or_model
        return
    from transformers import AutoTokenizer  # gated: not in this sandbox

    tok = AutoTokenizer.from_pretrained(fn_or_model)
    _counter = lambda text: len(tok.tokenize(text))  # noqa: E731


def reset_subtoken_backend() -> None:
    global _counter
    _counter = None
# BPE-ish segmentation: a word costs 1 subtoken per leading 4-char piece,
# +1 per non-alphanumeric char (punctuation splits), CJK chars cost 1 each.
_CJK_RE = re.compile(r"[一-鿿]")
_PUNCT_RE = re.compile(r"[^\w\s]", re.UNICODE)


def subtoken_count(text: str) -> int:
    """Deterministic stand-in for ``len(xlmr_tokenizer.tokenize(text))``.

    Cost model: each CJK char = 1; each punctuation char = 1; each remaining
    alphanumeric run = ceil(len/4) (XLM-R averages ~4 chars/subtoken on
    latin text). Additive over whitespace tokens, like a real subword
    tokenizer without cross-word merges.
    """
    if _counter is not None:
        return _counter(text)
    return sum(map(_word_cost, text.split()))


@functools.lru_cache(maxsize=262144)
def _word_cost(word: str) -> int:
    """Default cost of ONE whitespace token.  Word-level LRU: natural
    text re-uses a bounded vocabulary, so the regex scans run once per
    distinct word per process.  Only the DEFAULT model is cached — a
    swapped-in backend (set_subtoken_backend) bypasses this entirely."""
    if word.isascii() and word.isalnum():
        # fast path, provably identical: ASCII alnum has no CJK and no
        # [^\w\s] matches, so cjk = punct = 0 and rest = len(word)
        return (len(word) + 3) // 4
    cjk = len(_CJK_RE.findall(word))
    punct = len(_PUNCT_RE.findall(word))
    rest = len(word) - cjk - punct
    count = cjk + punct + (rest + 3) // 4 if (cjk or punct or rest) else 0
    if rest == 0 and cjk == 0 and punct == 0:
        count += 1
    return count


def pack_by_length(texts: list[str], budget: int = 4096,
                   max_items: int = 32) -> list[list[int]]:
    """Token-budget batch packing (reference T5/O1,
    flair/custom_data_loader.py:84-149): sort indices by subtoken length
    desc, fill packs while total subtokens <= budget and pack size <=
    max_items.  Returns packs of ORIGINAL indices; callers restore input
    order on emit (--keep_order semantics, train.py:45).

    Used inside a scorer actor to sub-batch an Arrow batch for a
    fixed-budget model forward; the gazetteer stand-in does not need it but
    a transformer deployment slots it in unchanged.
    """
    costs = [subtoken_count(t) for t in texts]
    order = sorted(range(len(texts)), key=lambda i: (-costs[i], i))
    packs: list[list[int]] = []
    cur: list[int] = []
    cur_cost = 0
    for i in order:
        c = costs[i]
        if cur and (cur_cost + c > budget or len(cur) >= max_items):
            packs.append(cur)
            cur, cur_cost = [], 0
        cur.append(i)
        cur_cost += c
    if cur:
        packs.append(cur)
    return packs
