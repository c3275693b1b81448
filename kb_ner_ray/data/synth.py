"""Deterministic synthetic web-page corpus + knowledge base (FIXTURES.md §1-3).

No external data: entities, sentence templates, pages, HTML and the KB are all
derived from ``random.Random(seed)``.  Gold intermediates (sentences,
mentions, links, triples) are computed at generation time, so every pipeline
stage has a known-correct answer.

Shape decisions mirror the reference corpus:
* pages carry (url, warc_ts, html, text, lang) per BASELINE.json input_hint;
  ~20% of pages share 3 hot domains and a few pages are giant (>100
  sentences) as skew probes (FIXTURES.md §1);
* the KB row mirrors kb/parse_text.py:81 — (title, p_id, s_id, sentence,
  paragraph-with-<e:Title>mention</e>-anchors, url);
* mention types are the 6 MultiCoNER classes (resources/taggers/EN-English.pkl).

Triple semantics (the pinned "reference extractor" the engine must match at
P/R>=0.95): for each sentence, for each adjacent pair of KB-linked mentions,
emit (subj=title(m1), pred=join("_", alpha tokens strictly between m1 and
m2), obj=title(m2)); empty predicate -> "related_to".  ``oracle.py`` is the
straight-line single-process implementation of the full recipe.
"""

from __future__ import annotations

import html as _html
import os
import random
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.text import normalize_surface
from ..state.manifest import scratch, swap_in

SCHEMA_VERSION = 7  # bump to invalidate /tmp caches

MONTHS = ["January", "February", "March", "April", "May", "June", "July",
          "August", "September", "October", "November", "December"]

FIRST = ["Alice", "Boris", "Carla", "Dmitri", "Elena", "Farid", "Grace", "Hiro",
         "Ines", "Jonas", "Kira", "Liam", "Mona", "Nadia", "Omar", "Priya",
         "Quinn", "Rosa", "Stefan", "Tara"]
LAST = ["Abbott", "Brandt", "Castillo", "Durand", "Eriksen", "Fontaine",
        "Garza", "Hoffman", "Ivanov", "Jensen", "Kovacs", "Lindgren",
        "Moreau", "Novak", "Okafor", "Petrov", "Quist", "Rahman", "Silva",
        "Tanaka"]
LOC_A = ["North", "South", "East", "West", "New", "Old", "Upper", "Lower",
         "Port", "Lake"]
LOC_B = ["Haven", "Springfield", "Ridgeton", "Maplewood", "Carverton",
         "Eastmere", "Doverfield", "Kingsholm", "Ashby", "Marlow"]
GRP_A = ["United", "National", "Federal", "Northern", "Coastal", "Central",
         "Allied", "Free", "Royal", "Global"]
GRP_B = ["Workers Union", "Science Council", "Farmers League", "Heritage Society",
         "Students Front", "Medical Association", "Miners Guild",
         "Teachers Alliance", "Artists Collective", "Citizens Forum"]
CORP_A = ["Acme", "Zenix", "Corvel", "Lumina", "Vantor", "Helix", "Novatek",
          "Orbis", "Pyrel", "Quanta", "Radian", "Solvex", "Tessel", "Umbra",
          "Verdant", "Wexford", "Xylon", "Yonder", "Zephyr", "Arcadia"]
CORP_B = ["Corp", "Industries", "Systems", "Labs", "Holdings", "Dynamics",
          "Logistics", "Energy", "Networks", "Robotics"]
PROD_A = ["Falcon", "Pioneer", "Vertex", "Nimbus", "Atlas", "Comet", "Drift",
          "Echo", "Flux", "Gale"]
CW_A = ["Silent", "Crimson", "Endless", "Forgotten", "Golden", "Hidden",
        "Iron", "Jade", "Broken", "Distant"]
CW_B = ["River", "Empire", "Garden", "Harbor", "Winter", "Voyage", "Citadel",
        "Masquerade", "Horizon", "Lantern"]

FILLERS = [
    "The weather stayed calm for most of the afternoon .",
    "Local traffic was heavier than usual this morning .",
    "Officials declined to comment on the matter .",
    "The report was published after a short delay .",
    "Markets closed slightly higher on Friday .",
    "Several residents attended the open meeting .",
    "The committee will reconvene next month .",
    "No further details were made available .",
]
ZH_FILLERS = [
    "今天的天气非常好。",
    "市场在周五收盘时小幅上涨。",
    "官员拒绝对此事发表评论。",
    "委员会将于下个月再次开会。",
]

# zh entities (space-delimited token convention like the reference's
# pre-tokenized CoNLL inputs; the CJK normalizers in functions/text.py
# handle the unsegmented forms).  Small fixed set — the zh KB index is the
# per-language-index probe (kb/build_kb.py:14), not a volume target.
ZH_ENTITIES = [
    ("PER", "王小明"), ("PER", "李华"), ("PER", "张伟"),
    ("LOC", "北港市"), ("LOC", "南湖镇"),
    ("CORP", "宏远科技"), ("CORP", "蓝山集团"),
]
ZH_TYPE_DESC = {"PER": "知名 人士", "LOC": "滨海 城市", "CORP": "科技 公司"}
# (pre, t1, mid, t2, post) — pred = "_".join(alpha mid), like the en path
ZH_TEMPLATES2 = [
    ([], "PER", ["访问", "了"], "LOC", ["。"]),
    ([], "PER", ["就职", "于"], "CORP", ["。"]),
    ([], "CORP", ["位于"], "LOC", ["。"]),
]

# Two-slot templates: (pre-tokens, slot1 type, mid-tokens, slot2 type,
# post-tokens, predicate). The predicate equals "_".join(alpha mid-tokens)
# by construction, so the extraction rule recovers it.
TEMPLATES2 = [
    (["Yesterday", ","], "PER", ["visited"], "LOC", ["."],),
    ([], "PER", ["works", "for"], "CORP", ["in", "the", "city", "."]),
    ([], "CORP", ["is", "based", "in"], "LOC", ["."]),
    ([], "GRP", ["protested", "in"], "LOC", ["last", "week", "."]),
    ([], "PER", ["founded"], "GRP", ["years", "ago", "."]),
    ([], "PER", ["reviewed"], "CW", ["for", "the", "paper", "."]),
    ([], "CORP", ["released"], "PROD", ["today", "."]),
    ([], "PER", ["praised"], "PROD", ["at", "the", "expo", "."]),
    (["Critics", "say"], "CW", ["was", "inspired", "by"], "LOC", ["."]),
    ([], "GRP", ["endorsed"], "PER", ["on", "Monday", "."]),
]
# One-slot templates (mention, no triple).
TEMPLATES1 = [
    ([], "LOC", ["is", "quiet", "this", "time", "of", "year", "."]),
    (["Shares", "of"], "CORP", ["fell", "sharply", "."]),
    ([], "PER", ["gave", "a", "short", "statement", "."]),
    (["The", "sequel", "to"], "CW", ["was", "announced", "."]),
    ([], "PROD", ["sold", "out", "within", "hours", "."]),
]

TYPE_DESC = {
    "PER": "well known person",
    "LOC": "small town in the region",
    "GRP": "civic organization",
    "CORP": "technology company",
    "PROD": "consumer product",
    "CW": "critically acclaimed novel",
}

HOT_DOMAINS = ["news.example.com", "portal.example.org", "daily.example.net"]


@dataclass
class Entity:
    ent_id: int
    etype: str
    title: str
    aliases: list[str] = field(default_factory=list)
    in_kb: bool = True
    lang: str = "en"

    @property
    def surfaces(self) -> list[str]:
        return [self.title] + self.aliases


def _make_entities(rng: random.Random, n_per_type: int) -> list[Entity]:
    ents: list[Entity] = []
    seen: set[str] = set()
    seen_alias: set[str] = set()

    def add(etype: str, title: str, aliases: list[str]) -> None:
        key = normalize_surface(title)
        if key in seen:
            return
        seen.add(key)
        kept = []
        for a in aliases:
            ak = normalize_surface(a)
            if ak == key or ak in seen:
                continue
            # ~15% of colliding aliases stay ambiguous (rerank-path probe);
            # the rest are dropped so gold linking stays mostly unambiguous
            if ak in seen_alias and rng.random() > 0.15:
                continue
            seen_alias.add(ak)
            kept.append(a)
        ents.append(Entity(len(ents), etype, title, kept))

    for _ in range(n_per_type * 2):  # oversample; dedup by normalized title
        f, l = rng.choice(FIRST), rng.choice(LAST)
        add("PER", f"{f} {l}", [f"{f[0]}. {l}"])
        add("LOC", f"{rng.choice(LOC_A)} {rng.choice(LOC_B)}", [])
        add("GRP", f"{rng.choice(GRP_A)} {rng.choice(GRP_B)}", [])
        ca, cb = rng.choice(CORP_A), rng.choice(CORP_B)
        add("CORP", f"{ca} {cb}", [ca] if rng.random() < 0.5 else [])
        add("PROD", f"{rng.choice(PROD_A)} {rng.choice(PROD_A)}{rng.randint(1, 9)}00", [])
        add("CW", f"The {rng.choice(CW_A)} {rng.choice(CW_B)}", [])
    # ~8% out-of-KB entities (gazetteer knows them; linker returns NIL)
    out: list[Entity] = []
    per_type: dict[str, int] = {}
    for e in ents:
        c = per_type.get(e.etype, 0)
        if c >= n_per_type:
            continue
        per_type[e.etype] = c + 1
        e.ent_id = len(out)
        if rng.random() < 0.08:
            e.in_kb = False
        out.append(e)
    # fixed zh entity set (per-language KB index probe), always in-KB
    for etype, title in ZH_ENTITIES:
        out.append(Entity(len(out), etype, title, [], True, lang="zh"))
    return out


def _render_html(rng: random.Random, paragraphs: list[str], url: str, title: str) -> str:
    nav = '<nav><ul><li><a href="/">Home</a></li><li><a href="/about">About</a></li></ul></nav>'
    header = f"<header><h1>{_html.escape(title)}</h1><!-- banner --></header>"
    footer = ('<footer><div>Copyright 2024 Example Media. '
              '<a href="/terms">Terms</a></div></footer>')
    script = "<script>var t = 1 < 2 && 3 > 2;</script>"
    style = "<style>body { margin: 0; }</style>"
    body = "\n".join(f"  <p>{_html.escape(p)}</p>" for p in paragraphs)
    aside = "<aside>Related: <a href='/x'>more stories</a></aside>"
    return (f"<!DOCTYPE html><html><head><title>{_html.escape(title)}</title>{style}"
            f"{script}</head><body>{nav}{header}\n<article>\n{body}\n</article>\n"
            f"{aside}{footer}</body></html>")


def generate_corpus(n_pages: int, seed: int = 42, n_entities_per_type: int = 40):
    """Build the full synthetic corpus. Returns a dict of pyarrow Tables:
    pages, kb, sentences, mentions, links, triples (gold)."""
    rng = random.Random(seed)
    ents = _make_entities(rng, n_entities_per_type)
    kb_ents = [e for e in ents if e.in_kb]

    # --- KB table (2-4 sentences per in-KB entity; lang-scoped) -------------
    kb_rows = []
    kb_id = 0
    for e in kb_ents:
        if e.lang == "zh":
            others = [z for z in kb_ents if z.lang == "zh"
                      and z.ent_id != e.ent_id]
            other = rng.choice(others)
            zh_sents = [
                f"{e.title} 是 一家 {ZH_TYPE_DESC[e.etype]} 。"
                if e.etype == "CORP" else
                f"{e.title} 是 {ZH_TYPE_DESC[e.etype]} 。",
                f"近期 报道 中 {e.title} 与 {other.title} 一同 出现 。",
            ]
            for s_id, sent in enumerate(zh_sents):
                start = sent.index(e.title)
                kb_rows.append({
                    "kb_id": kb_id, "ent_id": e.ent_id, "lang": "zh",
                    "title": e.title, "p_id": 0, "s_id": s_id,
                    "sentence": sent,
                    "paragraph": sent.replace(
                        e.title, f"<e:{e.title}>{e.title}</e>", 1),
                    "anchors": [{"start": start,
                                 "end": start + len(e.title),
                                 "mention": e.title, "entity": e.title}],
                    "url": ("https://zh.wikipedia.org/wiki/"
                            f"{e.title}"),
                })
                kb_id += 1
            continue
        n_sent = rng.randint(2, 4)
        for s_id in range(n_sent):
            if s_id == 0:
                sent = f"{e.title} is a {TYPE_DESC[e.etype]} ."
                para = (f"<e:{e.title}>{e.title}</e> is a "
                        f"{TYPE_DESC[e.etype]} .")
                anchors = [(0, len(e.title), e.title, e.title)]
            else:
                other = rng.choice(kb_ents)
                sent = (f"In recent coverage {e.title} appeared alongside "
                        f"{other.title} .")
                para = (f"In recent coverage <e:{e.title}>{e.title}</e> "
                        f"appeared alongside <e:{other.title}>{other.title}</e> .")
                a1 = len("In recent coverage ")
                a2 = a1 + len(e.title) + len(" appeared alongside ")
                anchors = [(a1, a1 + len(e.title), e.title, e.title),
                           (a2, a2 + len(other.title), other.title, other.title)]
            kb_rows.append({
                "kb_id": kb_id, "ent_id": e.ent_id, "lang": "en",
                "title": e.title, "p_id": 0, "s_id": s_id,
                "sentence": sent, "paragraph": para,
                "anchors": [{"start": a, "end": b, "mention": m, "entity": t}
                            for a, b, m, t in anchors],
                "url": f"https://en.wikipedia.org/wiki/{e.title.replace(' ', '_')}",
            })
            kb_id += 1

    # --- pages + gold intermediates -----------------------------------------
    pages, g_sent, g_ment, g_link, g_trip = [], [], [], [], []
    base_ts = 1700000000_000000  # fixed epoch micros; no wall clock
    ent_by_type: dict[str, list[Entity]] = {}
    zh_by_type: dict[str, list[Entity]] = {}
    for e in ents:
        (zh_by_type if e.lang == "zh" else ent_by_type).setdefault(
            e.etype, []).append(e)

    for page_i in range(n_pages):
        if rng.random() < 0.2:
            domain = rng.choice(HOT_DOMAINS)
        else:
            domain = f"site{rng.randint(0, max(10, n_pages // 10))}.example.com"
        url = f"https://{domain}/articles/{page_i:07d}"
        lang = "zh" if rng.random() < 0.04 else "en"
        is_giant = page_i % 100 == 7  # deterministic 1% giant-page skew probe
        n_sent = rng.randint(110, 160) if is_giant else rng.randint(4, 12)

        def vary(post: list[str]) -> list[str]:
            """Date/figure qualifier spliced before the final period.

            Real web text is mostly-unique body prose over repeated
            boilerplate; ~60% of generated sentences get a high-cardinality
            suffix so distinct-sentence count scales with the corpus
            (boilerplate-level duplication remains from the rest).  The
            suffix sits AFTER the last entity slot, so gold mention offsets
            and the between-mentions predicate are untouched."""
            if rng.random() < 0.4:
                return post
            tail = ["in", rng.choice(MONTHS), str(rng.randint(1980, 2030))]
            if rng.random() < 0.5:
                tail += ["near", "milepost", str(rng.randint(1, 99999))]
            return post[:-1] + tail + [post[-1]]

        sents: list[str] = []          # sentence strings
        page_tokens: list[list[str]] = []
        for sent_j in range(n_sent):
            if lang == "zh":
                if rng.random() < 0.5:
                    s = rng.choice(ZH_FILLERS)
                    sents.append(s)
                    page_tokens.append([s])
                    continue
                pre, t1, mid, t2, post = rng.choice(ZH_TEMPLATES2)
                e1 = rng.choice(zh_by_type[t1])
                e2 = rng.choice(zh_by_type[t2])
                toks = pre + [e1.title] + mid + [e2.title] + post
                start1 = len(pre)
                start2 = start1 + 1 + len(mid)
                sents.append(" ".join(toks))
                page_tokens.append(toks)
                g_ment.append((url, sent_j, start1, start1 + 1,
                               e1.title, t1))
                g_ment.append((url, sent_j, start2, start2 + 1,
                               e2.title, t2))
                g_link.append((url, sent_j, start1, e1.ent_id))
                g_link.append((url, sent_j, start2, e2.ent_id))
                pred = "_".join(w for w in mid if w.isalpha()) or "related_to"
                g_trip.append((e1.title, pred, e2.title, url, sent_j))
                continue
            roll = rng.random()
            if roll < 0.35:
                toks = rng.choice(FILLERS).split()
                toks = vary(toks)
                s = " ".join(toks)
                sents.append(s)
                page_tokens.append(toks)
                continue
            if roll < 0.60:  # one-slot template
                pre, t1, post = rng.choice(TEMPLATES1)
                e1 = rng.choice(ent_by_type[t1])
                s1 = rng.choice(e1.surfaces)
                toks = pre + s1.split() + vary(post)
                start1 = len(pre)
                end1 = start1 + len(s1.split())
                sents.append(" ".join(toks))
                page_tokens.append(toks)
                g_ment.append((url, sent_j, start1, end1, s1, t1))
                if e1.in_kb:
                    g_link.append((url, sent_j, start1, e1.ent_id))
                continue
            # two-slot template
            pre, t1, mid, t2, post = rng.choice(TEMPLATES2)
            e1 = rng.choice(ent_by_type[t1])
            e2 = rng.choice(ent_by_type[t2])
            if e1.ent_id == e2.ent_id:
                e2 = ent_by_type[t2][(ent_by_type[t2].index(e2) + 1) % len(ent_by_type[t2])]
            s1, s2 = rng.choice(e1.surfaces), rng.choice(e2.surfaces)
            toks = pre + s1.split() + mid + s2.split() + vary(post)
            start1 = len(pre)
            end1 = start1 + len(s1.split())
            start2 = end1 + len(mid)
            end2 = start2 + len(s2.split())
            sents.append(" ".join(toks))
            page_tokens.append(toks)
            g_ment.append((url, sent_j, start1, end1, s1, t1))
            g_ment.append((url, sent_j, start2, end2, s2, t2))
            if e1.in_kb:
                g_link.append((url, sent_j, start1, e1.ent_id))
            if e2.in_kb:
                g_link.append((url, sent_j, start2, e2.ent_id))
            pred = "_".join(w for w in mid if w.isalpha()) or "related_to"
            n1 = e1.title if e1.in_kb else normalize_surface(s1)
            n2 = e2.title if e2.in_kb else normalize_surface(s2)
            g_trip.append((n1, pred, n2, url, sent_j))

        # paragraphs of 2-4 sentences; text = "\n".join(paragraphs)
        paragraphs: list[str] = []
        i = 0
        while i < len(sents):
            k = rng.randint(2, 4)
            paragraphs.append(" ".join(sents[i:i + k]))
            i += k
        text = "\n".join(paragraphs)
        html = _render_html(rng, paragraphs, url, f"Article {page_i}")
        pages.append({
            "url": url, "warc_ts": base_ts + page_i * 1000000,
            "html": html.encode("utf-8"), "text": text, "lang": lang,
        })
        for sent_j, s in enumerate(sents):
            g_sent.append((url, sent_j, s, lang))

    from . import schemas

    pages_t = pa.Table.from_pylist(pages, schema=schemas.PAGES)
    kb_t = pa.Table.from_pylist(kb_rows, schema=schemas.KB)
    sent_t = pa.table({
        "url": [r[0] for r in g_sent],
        "sent_id": pa.array([r[1] for r in g_sent], pa.int32()),
        "text": [r[2] for r in g_sent],
        "lang": [r[3] for r in g_sent],
    })
    ment_t = pa.table({
        "url": [r[0] for r in g_ment],
        "sent_id": pa.array([r[1] for r in g_ment], pa.int32()),
        "start_tok": pa.array([r[2] for r in g_ment], pa.int32()),
        "end_tok": pa.array([r[3] for r in g_ment], pa.int32()),
        "surface": [r[4] for r in g_ment],
        "label": [r[5] for r in g_ment],
    })
    link_t = pa.table({
        "url": [r[0] for r in g_link],
        "sent_id": pa.array([r[1] for r in g_link], pa.int32()),
        "start_tok": pa.array([r[2] for r in g_link], pa.int32()),
        "ent_id": pa.array([r[3] for r in g_link], pa.int64()),
    })
    trip_t = pa.table({
        "subj": [r[0] for r in g_trip],
        "pred": [r[1] for r in g_trip],
        "obj": [r[2] for r in g_trip],
        "url": [r[3] for r in g_trip],
        "sent_id": pa.array([r[4] for r in g_trip], pa.int32()),
    })
    gaz_rows = [(s, e.etype, e.ent_id if e.in_kb else -1)
                for e in ents for s in e.surfaces]
    gaz_t = pa.table({
        "surface": [r[0] for r in gaz_rows],
        "label": [r[1] for r in gaz_rows],
        "ent_id": pa.array([r[2] for r in gaz_rows], pa.int64()),
    })
    return {"pages": pages_t, "kb": kb_t, "sentences": sent_t,
            "mentions": ment_t, "links": link_t, "triples": trip_t,
            "gazetteer": gaz_t}


def sf_to_n_pages(sf: float) -> int:
    return max(24, int(12000 * sf / 0.1))


def corpus_dir(sf: float, seed: int = 42, root: str = "/tmp/kbner_synth") -> str:
    """Generate (once) and cache the corpus for a scale factor as Parquet.

    Layout: one directory per table; pages are written in multiple files so
    read_parquet parallelizes. Idempotent: a _DONE marker skips regeneration.
    """
    n_pages = sf_to_n_pages(sf)
    d = os.path.join(root, f"v{SCHEMA_VERSION}_sf{sf}_seed{seed}")
    done = os.path.join(d, "_DONE")
    if os.path.exists(done):
        return d
    tables = generate_corpus(n_pages, seed=seed)
    tmp = scratch(root)
    for name, table in tables.items():
        tdir = os.path.join(tmp, name)
        os.makedirs(tdir, exist_ok=True)
        rows = table.num_rows
        # pages: many small files + small row groups so read_parquet can
        # split blocks finely (parallelism at every sf)
        if name == "pages":
            n_files = max(2, min(64, (rows + 99) // 100))
        else:
            n_files = 1
        step = (rows + n_files - 1) // n_files if rows else 1
        for fi in range(0, max(rows, 1), step):
            pq.write_table(table.slice(fi, step),
                           os.path.join(tdir, f"part-{fi // step:05d}.parquet"),
                           row_group_size=64)
    with open(os.path.join(tmp, "_DONE"), "w") as f:
        f.write("ok")
    swap_in(tmp, d)
    return d


def sf_dir_to_sf(sf_dir: str) -> float:
    """Map a driver sf dir path ('/root/testdata/sf0.01') to its scale factor."""
    base = os.path.basename(sf_dir.rstrip("/"))
    if base.startswith("sf"):
        try:
            return float(base[2:])
        except ValueError:
            pass
    return 0.01
