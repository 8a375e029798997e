"""Seeded synthetic corpus generator for the corpuskit benchmark.

Writes only input files (document shards, sidecars planted for the mixer,
labeled training shards, an evaluation set, a blocklist) plus
``planted.json``, the record of what was planted where. The same
``(workload, seed, scale)`` always produces byte-identical files. Category
counts are fixed shares of the document count, so every seed plants the same
number of each kind; only the content and the positions change.

This module does not import corpuskit: the benchmark checks the program
against what is recorded here.

    python3 perfbench/corpus.py --workload web --seed 1 --out /tmp/corpus
"""

from __future__ import annotations

import argparse
import gzip
import json
import random
from pathlib import Path

ENGLISH = (
    "the be to of and that have with for not on at by from this they will one all would "
    "there their what out about who get which when make can like time just him know take "
    "people into year your good some could them see other than then now look only come its "
    "over think also back after use two how our work first well way even new want because "
    "any these give day most river garden window story number house light morning market "
    "village harbor bridge school winter summer evening letter table kitchen doctor teacher "
    "music paper forest valley station engine journey season island mountain meadow orchard "
    "painter farmer sailor baker writer reader council museum library theater festival "
    "quiet bright gentle careful narrow distant ancient modern simple steady patient honest "
    "walked opened carried followed studied painted gathered noticed planted visited "
    "measured repaired described answered borrowed collected reached returned watched"
).split()
# English words carrying non-ASCII letters, for the non-ASCII share.
ACCENTED = (
    "café naïve façade résumé jalapeño über crème fiancée Zürich déjà señor piñata "
    "smörgåsbord coöperate soufflé entrée São Malmö Kraków Ålesund"
).split()
TOXIC_MARKERS = ["grawlix", "blorthug", "sklonk", "vrekkid", "zundrat"]
BOILERPLATE = [
    "Subscribe to the weekly letter for all of the stories from the river desk.",
    "All rights are reserved by the council of the harbor press and its writers.",
    "Share this story with a friend and follow the market page for more news.",
    "Read the next letter from the village school before the evening edition.",
    "Sign up to have the morning paper brought to your door by the station team.",
    "The views in this piece are those of the writer and not of the museum board.",
    "Comments are open for one day after the story is posted on the forest page.",
    "Send a note to the editor if you think a number in this story is not right.",
    "Photos for this story were taken by the painter who lives near the orchard.",
    "This page was updated after the council meeting to add the new season dates.",
    "Follow the library on the island for the next reading of the winter story.",
    "Our team will be back with more from the mountain festival in the evening.",
    "Find the full table of results on the teacher page of the school journal.",
    "Every letter to the desk is read by a reader who works with the harbor team.",
    "Thanks for reading the quiet story of the valley and its patient farmers.",
    "Look for the bridge report in the summer edition of the village paper.",
]
SUBREDDITS = ["gardening", "rivers", "baking", "history", "music", "sailing", "books", "maps"]
BANNED_SUBREDDITS = ["badplace", "spamhub"]
CODE_EXTENSIONS = ["py", "js", "java", "html", "c", "go"]
BLOCKED_EXTENSIONS = ["json", "csv", "svg"]

MIX_DROP = "mix__drop"
MIX_REMOVE = "mix__remove"
MIX_REPLACE = "mix__replace"


# ---------------------------------------------------------------- helpers


def _write_jsonl(path: Path, records: list[dict]) -> None:
    data = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records).encode("utf-8")
    if path.suffix == ".gz":
        with open(path, "wb") as raw, gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0) as f:
            f.write(data)
    else:
        path.write_bytes(data)


def _shards(records: list, n_shards: int) -> list[list]:
    size = -(-len(records) // n_shards)
    return [records[i * size : (i + 1) * size] for i in range(n_shards)]


def _plan(rng: random.Random, n: int, shares: dict[str, float], head: int = 0) -> list[str]:
    """Kinds for n positions: exact counts per share, the rest 'clean'; the
    first ``head`` positions are clean so duplicates can refer back."""
    kinds: list[str] = []
    for kind, share in shares.items():
        kinds += [kind] * int(round(n * share))
    kinds += ["clean"] * (n - head - len(kinds))
    rng.shuffle(kinds)
    return ["clean"] * head + kinds


def _pick(rng: random.Random, n: int, share: float, pool: list) -> set:
    return set(rng.sample(pool, int(round(n * share))))


def sentence(rng: random.Random, lo: int = 7, hi: int = 14, vocab=ENGLISH) -> str:
    words = [rng.choice(vocab) for _ in range(rng.randint(lo, hi))]
    return " ".join(words).capitalize() + "."


def accented_sentence(rng: random.Random) -> str:
    words = [rng.choice(ENGLISH) for _ in range(rng.randint(6, 10))]
    for _ in range(3):
        words.insert(rng.randrange(1, len(words)), rng.choice(ACCENTED))
    return " ".join(words).capitalize() + "."


def english_line(rng: random.Random, tag: str) -> str:
    """One paragraph, unique by construction (it carries ``tag``)."""
    first = sentence(rng)
    return f"{first[:-1]} {tag}. {sentence(rng)}"


def gibberish_word(rng: random.Random) -> str:
    return "".join(rng.choice("qxzjkvw") for _ in range(rng.randint(4, 7)))


def gibberish_sentence(rng: random.Random) -> str:
    return sentence(rng, vocab=[gibberish_word(rng) for _ in range(30)])


def toxic_sentence(rng: random.Random) -> str:
    words = [rng.choice(ENGLISH) for _ in range(rng.randint(2, 4))]
    for marker in rng.sample(TOXIC_MARKERS, 2):
        words.insert(rng.randrange(1, len(words)), marker)  # never first or last
    return " ".join(words).capitalize() + "."


def email(rng: random.Random, tag: str) -> str:
    return f"{rng.choice(ENGLISH)}{tag}@{rng.choice(ENGLISH)}mail.org"


def _labeled_models(rng: random.Random, out: Path, n_lang: int = 50, n_tox: int = 60) -> dict:
    """Labeled shards for the language and toxicity models."""
    lang = []
    for i in range(n_lang):
        lang.append({"id": f"lang-en-{i}", "text": sentence(rng) if i % 4 else accented_sentence(rng), "metadata": {"label": "en"}})
        lang.append({"id": f"lang-xx-{i}", "text": gibberish_sentence(rng), "metadata": {"label": "xx"}})
    tox = []
    for i in range(n_tox):
        # unknown words (numbers, addresses, gibberish) are labeled benign, so
        # the model leans benign on words it has not seen
        junk = lambda: rng.choice([str(rng.randrange(1000)), email(rng, str(i)), gibberish_word(rng)])  # noqa: E731
        mixed = [rng.choice(ENGLISH) if rng.random() < 0.6 else junk() for _ in range(rng.randint(4, 14))]
        tox.append({"id": f"tox-ok-{i}", "text": sentence(rng, 3, 14), "metadata": {"label": "ok"}})
        tox.append({"id": f"tox-ok2-{i}", "text": " ".join(mixed).capitalize() + ".", "metadata": {"label": "ok"}})
        tox.append({"id": f"tox-bad-{i}", "text": toxic_sentence(rng), "metadata": {"label": "toxic"}})
    _write_jsonl(out / "train-lang.jsonl", lang)
    _write_jsonl(out / "train-toxicity.jsonl", tox)
    return {"lang": str(out / "train-lang.jsonl"), "toxicity": str(out / "train-toxicity.jsonl")}


# ---------------------------------------------------------------- web


def gen_web(rng: random.Random, out: Path, scale: float) -> dict:
    # every shard gets the same kinds and the same clean lengths, so the two
    # workers get equal work whatever the seed
    n_shards, per_shard = 4, max(10, int(30 * scale))
    shares = {
        "url_dup": 0.08,
        "doc_dup": 0.06,
        "gopher": 0.06,
        "c4": 0.03,
        "repetition": 0.02,
        "pii_dense": 0.03,
        "pii_sparse": 0.06,
        "toxic": 0.06,
        "non_english": 0.04,
    }
    kinds = [k for s in range(n_shards) for k in _plan(rng, per_shard, shares, head=5 if s == 0 else 0)]
    # kinds built from clean paragraphs; only these get the shared
    # boilerplate and non-ASCII lines, a fixed number in each shard
    boiler, accented = set(), set()
    for s in range(n_shards):
        plain = [i for i in range(s * per_shard, (s + 1) * per_shard) if kinds[i] in ("clean", "pii_sparse", "toxic", "url_dup")]
        boiler |= _pick(rng, len(plain), 0.30, plain)
        accented |= _pick(rng, len(plain), 0.20, plain)
    lengths = [4, 8, 16, 32]  # clean documents cycle through these in each shard
    sizes: list[int] = []
    docs: list[dict] = []
    planted: dict = {k: [] for k in set(kinds)}
    planted.update(emails=[], toxic_lines=[], boilerplate=BOILERPLATE)
    for i, kind in enumerate(kinds):
        doc_id = f"web-{i:05d}"
        url = f"http://site{i}.example/news/{i}"
        shard_start = i - i % per_shard
        size = lengths[kinds[shard_start:i].count("clean") % 4] if kind == "clean" else 8
        sizes.append(size)
        lines = [english_line(rng, f"item{i}n{j}") for j in range(size)]
        if i in accented:
            lines.insert(1, accented_sentence(rng))
        if kind == "url_dup":
            j = rng.randrange(i)
            variant = rng.randrange(3)
            url = f"http://SITE{j}.Example/news/{j}" + ("/", "#top", "/#c")[variant]
            if variant == 1:
                url = url.replace("http://", "HTTP://")
        elif kind == "doc_dup":
            j = rng.choice([k for k in range(i) if kinds[k] == "clean" and sizes[k] == size])
            lines = docs[j]["text"].split("\n")
        elif kind == "gopher":
            style = i % 3
            if style == 0:  # too few words
                lines = [sentence(rng, 5, 8)]
            elif style == 1:  # bullet lines
                lines = [f"- {rng.choice(ENGLISH)} {rng.choice(ENGLISH)} point." for _ in range(30)]
            else:  # symbol-heavy
                lines = [f"#{rng.choice(ENGLISH)} #{rng.choice(ENGLISH)} {sentence(rng)}" for _ in range(8)]
        elif kind == "c4":
            lines = [lines[0]] + [f"{rng.choice(ENGLISH)} {rng.choice(ENGLISH)} line {i} {j}" for j in range(12)]
        elif kind == "repetition":
            lines = [english_line(rng, f"item{i}r{j}") for j in range(64)]
            lines.insert(32, " ".join([rng.choice(["spam", "buy", "click"])] * 110))
        elif kind == "pii_dense":
            lines.append("Contacts " + " ".join(email(rng, f"{i}x{j}") for j in range(7)) + " end.")
        elif kind == "pii_sparse":
            addr = email(rng, f"{i}")
            planted["emails"].append(addr)
            lines.insert(len(lines) // 2, f"Write to the desk about item {i} at {addr} before noon.")
        elif kind == "toxic":
            bad = toxic_sentence(rng)
            planted["toxic_lines"].append(bad)
            lines.insert(len(lines) // 2, bad)
        elif kind == "non_english":
            lines = [gibberish_sentence(rng) + " " + gibberish_sentence(rng) for _ in range(8)]
        if i in boiler:
            lines.insert(rng.randrange(1, len(lines) + 1), rng.choice(BOILERPLATE))
        planted[kind].append(doc_id)
        docs.append({"id": doc_id, "text": "\n".join(lines), "source": "web", "metadata": {"url": url}})
    shards = []
    for s in range(n_shards):
        path = out / f"web-{s:02d}.jsonl.gz"
        _write_jsonl(path, docs[s * per_shard : (s + 1) * per_shard])
        shards.append(str(path))
    planted["shards"] = shards
    planted["training"] = _labeled_models(rng, out)
    return planted


# ---------------------------------------------------------------- tag


def _code_text(rng: random.Random, ext: str, i: int, n_lines: int) -> str:
    words = lambda k: " ".join(rng.choice(ENGLISH) for _ in range(k))  # noqa: E731
    lines = []
    for j in range(n_lines):
        if ext == "py":
            lines += [f"def {rng.choice(ENGLISH)}_{i}_{j}(value):", f"    # {words(6)}", f"    return value + {j}"]
        elif ext in ("js", "java"):
            lines += [f"function {rng.choice(ENGLISH)}{i}x{j}(value) {{", f"  // {words(6)}", f"  return value * {j};", "}"]
        elif ext == "html":
            lines += [f"<p class=\"c{j}\">{words(10)}</p>"]
        else:
            lines += [f"int {rng.choice(ENGLISH)}_{j} = compute({j}, {rng.choice(ENGLISH)});"]
    return "\n".join(lines)


def gen_tag(rng: random.Random, out: Path, scale: float) -> dict:
    # each group has two shards with the same kinds and sizes, so the two
    # workers get equal work whatever the seed
    planted: dict = {"code": {}, "reddit": {}, "wiki": {}, "emails": {}}
    shards: dict[str, list[list[dict]]] = {"code": [[], []], "reddit": [[], []], "wiki": [[], []]}

    # ---- code
    code_shares = {
        "long_line": 0.04,
        "line_at_limit": 0.04,
        "avg_line": 0.04,
        "low_alnum": 0.04,
        "low_alpha": 0.04,
        "xml": 0.04,
        "html_markup": 0.04,
        "py_no_comments": 0.04,
        "py_all_comments": 0.03,
        "blocked_ext": 0.08,
        "email": 0.04,
    }
    n_code = max(12, int(120 * scale))
    for shard in range(2):
        for j, kind in enumerate(_plan(rng, n_code, code_shares)):
            i = shard * n_code + j
            ext = CODE_EXTENSIONS[j % len(CODE_EXTENSIONS)]
            text = _code_text(rng, ext, i, 6 + (j * 7) % 25)
            if kind == "long_line":
                text += "\nx = '" + "a" * 995 + "'"  # 1001 characters
            elif kind == "line_at_limit":
                text += "\nx = '" + "a" * 994 + "'"  # exactly 1000 characters
            elif kind == "avg_line":
                text = "\n".join(f"value_{k} = " + " + ".join(f"{rng.choice(ENGLISH)}_{m}" for m in range(14)) for k in range(12))
            elif kind == "low_alnum":
                text = "\n".join("{}();;[]<>==!!&&||" * 2 + f"a{k}" for k in range(20))
            elif kind == "low_alpha":
                text = "\n".join(" ".join(str(rng.randrange(10)) for _ in range(20)) for _ in range(20))
            elif kind == "xml":
                text = '<?xml version="1.0"?>\n' + text
            elif kind == "html_markup":
                ext = "html"
                text = "\n".join(f"<div class=\"block-{k}\" id=\"node-{k}\"><span data-k=\"{k}\"></span>a</div>" for k in range(20))
            elif kind == "py_no_comments":
                ext = "py"
                text = "\n".join(f"v{k} = {k} + {k + 1}" for k in range(20))
            elif kind == "py_all_comments":
                ext = "py"
                text = "\n".join(f"# {rng.choice(ENGLISH)} {rng.choice(ENGLISH)} {k}" for k in range(20))
            elif kind == "blocked_ext":
                ext = rng.choice(BLOCKED_EXTENSIONS)
                text = "\n".join(f"{k},{rng.choice(ENGLISH)},{rng.randrange(1000)}" for k in range(20))
            elif kind == "email":
                ext = "py"
                addr = email(rng, f"{i}")
                text = f"# maintainer {addr} for questions\n" + text
                planted["emails"][f"code-{i:05d}"] = [addr]
            doc_id = f"code-{i:05d}"
            planted["code"][doc_id] = kind
            shards["code"][shard].append({"id": doc_id, "text": text, "source": "code", "metadata": {"extension": ext}})

    # ---- reddit: comment forests, one submission per forest
    def body(n_chars: int, tag: str) -> str:
        words = []
        size = 0
        while size < n_chars + 40:
            w = rng.choice(ENGLISH if rng.random() > 0.1 else ACCENTED)
            words.append(w)
            size += len(w) + 1
        return f"{tag} " + " ".join(words)[: n_chars - len(tag) - 1]

    n_forests = max(3, int(18 * scale))
    t = 0
    for shard in range(2):
        for f in range(n_forests):
            forest = shard * n_forests + f
            subreddit = rng.choice(SUBREDDITS)
            if f % 9 == 4:
                subreddit = BANNED_SUBREDDITS[forest % 2].upper()
            items = [(f"r{forest}s", "submission", (399, 400, 600, 900)[f % 4], None)]
            for c in range(6 + f % 9):
                length = 40_001 if (f % 12 == 7 and c == 0) else (499, 500, 501, 700, 1200)[c % 5]
                items.append((f"r{forest}c{c}", "comment", length, rng.choice(items)[0]))
            for k, (item_id, kind, length, parent) in enumerate(items):
                t += 1
                md = {"kind": kind, "subreddit": subreddit, "votes": rng.choice([0, 2, 3, 4, 10, 25])}
                if parent:
                    md["parent_id"] = parent
                for flag, share in (("author_deleted", 0.05), ("moderator_removed", 0.04), ("over_18", 0.05)):
                    md[flag] = rng.random() < share
                text = body(length, item_id)
                if kind == "comment" and k % 6 == 3:
                    addr = email(rng, str(t))
                    text = f"mail {addr} " + text[len(addr) + 6 :]
                    planted["emails"][item_id] = [addr]
                shards["reddit"][shard].append(
                    {"id": item_id, "text": text, "source": "reddit", "created": f"2020-01-01T{t // 3600:02d}:{t // 60 % 60:02d}:{t % 60:02d}", "metadata": md}
                )
    (out / "banned-subreddits.txt").write_text("\n".join(BANNED_SUBREDDITS) + "\n", encoding="utf-8")

    # ---- wiki
    n_wiki = max(6, int(60 * scale))
    for shard in range(2):
        for j, kind in enumerate(_plan(rng, n_wiki, {"short_25": 0.05, "short_10": 0.05, "words_26": 0.05, "non_english": 0.05})):
            if kind in ("short_25", "short_10", "words_26"):
                n_words = {"short_25": 25, "short_10": 10, "words_26": 26}[kind]
                words = [rng.choice(ENGLISH + ACCENTED) for _ in range(n_words)]
                words[-1] += "."
                text = " ".join(words).capitalize()
            elif kind == "non_english":
                text = "\n".join(gibberish_sentence(rng) for _ in range(6))
            else:
                text = "\n".join(
                    " ".join(rng.choice(ENGLISH + ACCENTED) for _ in range(30 + (j * 7 + k) % 31)).capitalize() + "."
                    for k in range(2 + j % 7)
                )
            doc_id = f"wiki-{shard * n_wiki + j:05d}"
            planted["wiki"][doc_id] = kind
            shards["wiki"][shard].append({"id": doc_id, "text": text, "source": "wiki"})

    groups = {}
    for name, parts in shards.items():
        groups[name] = []
        for s, records in enumerate(parts):
            path = out / f"{name}-{s:02d}.jsonl"
            _write_jsonl(path, records)
            groups[name].append(str(path))
    planted["shards"] = groups
    planted["blocklist"] = str(out / "banned-subreddits.txt")
    planted["banned_subreddits"] = BANNED_SUBREDDITS
    planted["training"] = _labeled_models(rng, out)
    return planted


# ---------------------------------------------------------------- dedup


def gen_dedup(rng: random.Random, out: Path, scale: float) -> dict:
    n = max(60, int(1600 * scale))
    n_eval = max(20, int(2000 * scale))
    eval_vocab = [gibberish_word(rng) + w for w in ENGLISH[:60]]
    eval_paras = [" ".join(rng.choice(eval_vocab) for _ in range(rng.randint(14, 24))) for _ in range(n_eval)]
    gate_paras = [" ".join(rng.choice(eval_vocab) for _ in range(k)) for k in [13] * 10 + [12] * 5 + [8] * 5]
    eval_docs = []
    for k in range(0, n_eval, 2):
        paras = eval_paras[k : k + 2]
        if k // 2 < len(gate_paras):
            paras.append(gate_paras[k // 2])
        eval_docs.append({"id": f"eval-{k // 2:05d}", "text": "\n".join(paras), "source": "eval"})
    kinds = _plan(rng, n, {"url_dup": 0.10, "doc_dup": 0.08, "contaminated": 0.05, "gate_only": 0.03}, head=20)
    boiler = _pick(rng, n, 0.40, list(range(n)))
    docs = []
    planted: dict = {k: [] for k in set(kinds)}
    for i, kind in enumerate(kinds):
        doc_id = f"dd-{i:05d}"
        url = f"https://host{i}.example/page/{i}"
        lines = [english_line(rng, f"n{i}p{j}") for j in range(rng.choice([2, 3, 5]))]
        if kind == "url_dup":
            j = rng.randrange(i)
            url = f"https://HOST{j}.example/page/{j}" + ("/", "#frag")[i % 2]
        elif kind == "doc_dup":
            lines = docs[rng.randrange(i)]["text"].split("\n")
        elif kind == "contaminated":
            lines.insert(1, rng.choice(eval_paras))
        elif kind == "gate_only":
            # only paragraphs the gate skips, so nothing else in it is probed
            lines = [f"Note {i}. " + sentence(rng, 4, 9), rng.choice(gate_paras)]
        if i in boiler and kind != "doc_dup":
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(BOILERPLATE))
        planted[kind].append(doc_id)
        docs.append({"id": doc_id, "text": "\n".join(lines), "source": "web", "metadata": {"url": url}})
    shards = []
    for s, chunk in enumerate(_shards(docs, 8)):
        path = out / f"dedup-{s:02d}.jsonl"
        _write_jsonl(path, chunk)
        shards.append(str(path))
    _write_jsonl(out / "eval.jsonl", eval_docs)
    _write_jsonl(out / "probe.jsonl", [{"id": "probe-0", "text": sentence(rng)}])
    planted.update(shards=shards, eval=str(out / "eval.jsonl"), probe=str(out / "probe.jsonl"))
    return planted


# ---------------------------------------------------------------- mix


def gen_mix(rng: random.Random, out: Path, scale: float) -> dict:
    shares = {"web": 0.40, "code": 0.15, "ref": 0.25, "books": 0.20}
    total = max(80, int(9600 * scale))
    planted: dict = {"drop": [], "remove": {}, "replace": {}, "shards": {}}
    attr_dir = out / "attrs-planted"
    attr_dir.mkdir()
    for source, share in shares.items():
        n = int(total * share)
        per_shard = -(-n // 2)
        paths = [out / f"{source}-{s:02d}.jsonl" for s in range(2)]
        planted["shards"][source] = [str(p) for p in paths]
        # written as generated, so the generator's memory stays small
        doc_files = [open(p, "w", encoding="utf-8") for p in paths]
        attr_files = [open(attr_dir / p.name, "w", encoding="utf-8") for p in paths]
        try:
            for i in range(n):
                doc_id = f"{source}-{i:05d}"
                n_lines = rng.randint(8, 16) if source == "books" else rng.randint(2, 6)
                lines = [english_line(rng, f"{source}{i}l{j}") for j in range(n_lines)]
                if rng.random() < 0.15:
                    lines[0] = accented_sentence(rng) + f" Page {source}{i}."
                if rng.random() < 0.30:
                    lines.insert(rng.randrange(1, len(lines) + 1), rng.choice(BOILERPLATE))
                roll = rng.random()
                attributes: dict = {}
                if roll < 0.10:
                    planted["drop"].append(doc_id)
                elif roll < 0.30:
                    junk = f"[ad {rng.choice(ENGLISH)} {i}] "
                    lines[0] = lines[0] + " " + junk + sentence(rng)
                elif roll < 0.50:
                    token = f"ACCT-{source}{i}-{rng.randrange(1000):03d}"
                    lines[-1] = f"{lines[-1][:-1]} under {token} today."
                text = "\n".join(lines)
                data = text.encode("utf-8")
                if roll < 0.10:
                    attributes[MIX_DROP] = [[0, len(data), 1.0]]
                elif roll < 0.30:
                    start = data.index(junk.encode("utf-8"))
                    attributes[MIX_REMOVE] = [[start, start + len(junk), 1.0]]
                    planted["remove"][doc_id] = [start, start + len(junk)]
                elif roll < 0.50:
                    start = data.rindex(token.encode("utf-8"))
                    attributes[MIX_REPLACE] = [[start, start + len(token), 1.0]]
                    planted["replace"][doc_id] = [start, start + len(token)]
                shard = i // per_shard
                doc = {"id": doc_id, "text": text, "source": source}
                doc_files[shard].write(json.dumps(doc, ensure_ascii=False) + "\n")
                attr_files[shard].write(json.dumps({"id": doc_id, "attributes": attributes}) + "\n")
        finally:
            for f in doc_files + attr_files:
                f.close()
    planted["attributes"] = str(attr_dir)
    planted["replacement"] = "[MASK]"
    return planted


GENERATORS = {"web": gen_web, "tag": gen_tag, "dedup": gen_dedup, "mix": gen_mix}


def generate(workload: str, seed: int, out_dir, scale: float = 1.0) -> dict:
    """Write the workload's inputs under ``out_dir`` and return the planted record."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"corpuskit-bench:{workload}:{seed}")
    planted = GENERATORS[workload](rng, out, scale)
    planted.update(workload=workload, seed=seed, scale=scale)
    (out / "planted.json").write_text(json.dumps(planted, ensure_ascii=False, indent=1, sort_keys=True), encoding="utf-8")
    return planted


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()
    planted = generate(args.workload, args.seed, args.out, args.scale)
    print(json.dumps({"out": args.out, "files": sorted(p.name for p in Path(args.out).iterdir()), "seed": planted["seed"]}))


if __name__ == "__main__":
    main()
