"""String normalizers + HTML boilerplate-removal extractor (pure kernels).

Normalizer semantics mirror the reference's CJK/space helpers
(SURVEY.md §2.2 M4-M11); the extractor fills the reference's M1 seat
(kb/parse_text.py:45-71 paragraph→clean-text) for Common-Crawl-style HTML
pages per BASELINE.json's input_hint ("byte-identical extracted text per
url"). Everything here is pure Python with module-level compiled regexes —
called per row inside ``map_batches`` bodies.
"""

from __future__ import annotations

import html as _html
import re

# --- CJK / whitespace normalizers -------------------------------------------

# reference: kb/generate_data.py:70-79 (_clean_space) — remove the space that
# follows a CJK char / CJK punctuation (unless before a latin letter).
_CLEAN_SPACE_RE = re.compile("[一-龥。，！：《》、（）]{1} +(?<![a-zA-Z])")

_ZH_CHAR = "[一-鿿]"

# reference: kb/context_process.py:142-151 (replace_zh_space) — also digits
# glued to CJK runs.
_ZH_SPACE_RE = re.compile(f"({_ZH_CHAR}[0-9]*) +(?={_ZH_CHAR})")

# reference: kb/context_process.py:137-140 (spliteKeyWord) — CJK-aware
# re-tokenization: emit each CJK char and each latin/digit run as a token.
_SPLIT_KEYWORD_RE = re.compile(r"[一-鿿]|[0-9]+|[a-zA-Z]+'*[a-z]*")


def clean_space(text: str) -> str:
    """Remove spaces after CJK chars (reference kb/generate_data.py:70-79)."""
    found = _CLEAN_SPACE_RE.findall(text)
    for frag in sorted(set(found), key=len, reverse=True):
        if frag == " ":
            continue
        text = text.replace(frag, frag.strip())
    return text


def replace_zh(text: str) -> str:
    """Reference kb/context_process.py:24-33 (replace_ZH) — byte-for-byte the
    same algorithm as _clean_space (the two reference helpers are identical;
    both remove the space that FOLLOWS a CJK char/punct)."""
    return clean_space(text)


def replace_zh_space(text: str) -> str:
    """Glue CJK(+digit) runs (reference kb/context_process.py:142-151)."""
    prev = None
    while prev != text:
        prev = text
        text = _ZH_SPACE_RE.sub(r"\1", text)
    return text


def split_keyword(text: str) -> list[str]:
    """CJK-aware tokenization (reference kb/context_process.py:137-140)."""
    return _SPLIT_KEYWORD_RE.findall(text)


def gen_sentence(tokens: list[str], lang: str | None = None) -> str:
    """Tokens -> query string; zh glues consecutive CJK tokens
    (reference kb/context_process.py:188-211)."""
    if lang == "zh":
        out = tokens[0]
        prev_zh = bool(re.findall(_ZH_CHAR, tokens[0]))
        for word in tokens[1:]:
            is_zh = bool(re.findall(_ZH_CHAR, word))
            if is_zh and prev_zh:
                out += word
            else:
                out += " " + word
            prev_zh = is_zh
        return out
    return " ".join(tokens)


def gen_chinese_search_query(sentences: list[list[str]]) -> list[str]:
    """Chinese ES-query strings from CoNLL-style sentences — the M8 seat
    (reference kb/context_process.py:105-134 ``gen_chinese_search_query``).

    Each sentence is a list of CoNLL lines (token is the first whitespace
    field; bare token lists work too).  Consecutive CJK tokens are glued
    with no separator; any other adjacency gets a single space.  The
    reference's ``is_eng``/``add_flag`` locals are dead code (never read
    after assignment) and are not reproduced."""
    out: list[str] = []
    for sentence in sentences:
        if not sentence:
            out.append("")
            continue
        first = sentence[0].split()[0]
        query = first
        prev_zh = bool(re.findall(_ZH_CHAR, first))
        for line in sentence[1:]:
            word = line.split()[0]
            is_zh = bool(re.findall(_ZH_CHAR, word))
            if is_zh and prev_zh:
                query += word
            else:
                query += " " + word
            prev_zh = is_zh
        out.append(query)
    return out


def printable_only(text: str) -> str:
    """Keep printable chars only (reference kb/context_process.py:410)."""
    return "".join(c for c in text if c.isprintable())


_NORM_WS_RE = re.compile(r"\s+")
_NORM_PUNCT_RE = re.compile(r"[^\w\s]", re.UNICODE)


def normalize_surface(surface: str) -> str:
    """Canonicalization key: casefold, strip punctuation, collapse whitespace.

    Generalizes the reference's exact-string vote key
    (ensemble_prediction.py:385-397 keys on the raw sentence string) into the
    normalized-surface-form groupby key the north star's canonicalization
    stage shuffles on.
    """
    return _NORM_WS_RE.sub(" ", _NORM_PUNCT_RE.sub("", surface.casefold())).strip()


# --- HTML -> text extraction (the M1 seat) ----------------------------------

# Boilerplate containers removed wholesale (trafilatura-style pruning).
# innermost-first: the body may not contain another OPENING tag of the same
# name, so the fixpoint loop in extract_text peels nested blocks inside-out.
_DROP_BLOCK_RE = re.compile(
    r"<(script|style|nav|header|head|title|footer|aside|noscript|form|iframe)"
    r"\b[^>]*>(?:(?!<\1\b).)*?</\1\s*>",
    re.DOTALL | re.IGNORECASE,
)
_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)
# Block-level elements whose boundaries become newlines.
_BLOCK_TAG_RE = re.compile(
    r"</?(?:p|div|br|h[1-6]|li|ul|ol|table|tr|td|th|article|section|main|"
    r"blockquote|pre|figure|figcaption)\b[^>]*/?>",
    re.IGNORECASE,
)
_ANY_TAG_RE = re.compile(r"<[^>]+>")
_MULTI_NL_RE = re.compile(r"\n{2,}")
_TRAIL_WS_RE = re.compile(r"[ \t]+\n")
_MULTI_SP_RE = re.compile(r"[ \t]{2,}")


def extract_text(html: bytes | str) -> str:
    """Boilerplate-free text from an HTML page.

    Deterministic trafilatura-style pipeline: strip comments; drop
    script/style/nav/header/footer/aside/form subtrees wholesale; convert
    block-element boundaries to newlines; strip remaining tags; unescape
    entities; collapse horizontal whitespace and blank-line runs.  The
    per-url byte-identical invariant (BASELINE.json input_hint) is tested
    against the generator's ground-truth ``text`` column.
    """
    if isinstance(html, (bytes, bytearray, memoryview)):
        raw = bytes(html).decode("utf-8", errors="replace")
    else:
        raw = html
    s = _COMMENT_RE.sub(" ", raw)
    prev = None
    while prev != s:  # nested boilerplate containers
        prev = s
        s = _DROP_BLOCK_RE.sub(" ", s)
    s = _BLOCK_TAG_RE.sub("\n", s)
    s = _ANY_TAG_RE.sub(" ", s)
    s = _html.unescape(s)
    s = _MULTI_SP_RE.sub(" ", s)
    s = "\n".join(line.strip() for line in s.split("\n"))
    s = _MULTI_NL_RE.sub("\n", s)
    return s.strip()


# --- sentence splitting (the M2 seat) ---------------------------------------

# reference kb/parse_text.py:17-32: NLTK punkt for latin langs, regex
# ``.*?[。！？]`` for zh.  We pin a deterministic regex splitter: sentences
# end at [.!?。！？] followed by whitespace/EOL; newlines always split.
_SENT_END_RE = re.compile(r"(?<=[.!?。！？])(?<![A-Z]\.)\s+")

# Optional real-splitter backend (the M2 swap seam, mirroring the T1
# tokenizer seam in functions/tokenizer.py).  None -> the deterministic
# regex splitter below.
_splitter = None


def set_splitter_backend(fn) -> None:
    """Swap the sentence splitter for a real segmenter.

    ``fn(text, lang) -> list[str]``.  The reference loads NLTK punkt per
    latin language with a spaCy fallback (kb/parse_text.py:17-32);
    neither package ships in this sandbox, so the seam accepts any
    callable with that contract — a punkt deployment slots in without
    touching the pipeline.  Worker processes must call it too (put the
    call in the actor ``__init__`` of a custom deployment): deliberate
    per-process opt-in, not ambient state, exactly like
    ``set_subtoken_backend``."""
    global _splitter
    _splitter = fn


def reset_splitter_backend() -> None:
    global _splitter
    _splitter = None


def split_sentences(text: str, lang: str = "en") -> list[str]:
    """Split extracted text into sentences (deterministic, language-aware)."""
    if _splitter is not None:
        return _splitter(text, lang)
    out: list[str] = []
    for line in text.split("\n"):
        line = line.strip()
        if not line:
            continue
        if lang == "zh":
            parts = re.findall(r".*?[。！？]|[^。！？]+$", line)
            out.extend(p.strip() for p in parts if p.strip())
        else:
            out.extend(p.strip() for p in _SENT_END_RE.split(line) if p.strip())
    return out
