"""The four benchmark workloads: set-up, job and output checks.

Each workload drives corpuskit through ``corpuskit.cli.main``, in process,
exactly as a user's command line would. ``setup`` prepares what the job
needs (models, filters, sidecars) and may be repeated; ``job`` is the timed
part and writes everything under one output directory; ``check`` judges a
job's outputs against the generator's planted record, against computations
made here without corpuskit, or against properties the method must have.
It returns the ids of the input documents whose outcome failed a check.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import re
from collections import Counter
from pathlib import Path
from urllib.parse import urlsplit, urlunsplit

DEDUP_BLOOM_P = 1e-4  # the CLI default, used by every Bloom filter the jobs build
DECON_MIN_TOKENS = 13
MAX_THREAD_DEPTH = 4


# ------------------------------------------------------------ shared helpers


def read_jsonl(path):
    """Records of a JSONL(.gz) shard, parsed without corpuskit; a missing
    output file reads as no records."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except FileNotFoundError:
        return []
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    return [json.loads(line) for line in raw.decode("utf-8").split("\n") if line]


def normalize_url(url: str) -> str:
    """The documented URL key: lowercase scheme and host, no fragment, no
    trailing slash on the path."""
    parts = urlsplit(url.strip())
    return urlunsplit((parts.scheme.lower(), parts.netloc.lower(), parts.path.rstrip("/"), parts.query, ""))


def paragraph_spans(data: bytes) -> list[tuple[int, int]]:
    """Byte spans of the newline-separated paragraphs, newline excluded."""
    spans, pos = [], 0
    for part in data.split(b"\n"):
        spans.append((pos, pos + len(part)))
        pos += len(part) + 1
    return spans


def splice(data: bytes, removals, replacements=()) -> bytes:
    """Remove and replace byte spans. A removal bounded by newlines or text
    edges also takes one adjacent newline, so no blank line is left; the
    planted replacements never overlap a removal."""
    healed = []
    for start, end in removals:
        left = start == 0 or data[start - 1 : start] == b"\n"
        right = end == len(data) or data[end : end + 1] == b"\n"
        if left and right and not (start == 0 and end == len(data)):
            if end < len(data):
                end += 1
            elif start > 0:
                start -= 1
        healed.append((start, end, b""))
    edits = sorted(healed + [(s, e, token) for s, e, token in replacements])
    merged: list[list] = []
    for start, end, token in edits:
        if merged and start <= merged[-1][1] and not token and not merged[-1][2]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end, token])
    pieces, pos = [], 0
    for start, end, token in merged:
        pieces.append(data[pos:start])
        pieces.append(token)
        pos = max(pos, end)
    pieces.append(data[pos:])
    return b"".join(pieces)


def flagged(records: list[dict], name: str) -> dict[str, list[tuple[int, int]]]:
    out = {}
    for rec in records:
        spans = rec["attributes"].get(name)
        if spans:
            out[rec["id"]] = [(s, e) for s, e, _ in spans]
    return out


def digest_tree(root: Path) -> str:
    h = hashlib.blake2b(digest_size=16)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Workload:
    name = ""
    parallel = True  # False: the job runs single-threaded and takes no --workers

    def __init__(self, work: Path, planted: dict, workers: int, seed: int) -> None:
        from corpuskit import cli

        self.cli = cli
        self.work = work
        self.planted = planted
        self.workers = workers if self.parallel else 1
        self.seed = seed
        self.setup_dir = work / "setup"
        self.setup_dir.mkdir(parents=True, exist_ok=True)
        self.failed_calls: set[str] = set()

    # the input documents of the job; operations are counted per document
    def input_shards(self) -> list[str]:
        raise NotImplementedError

    def input_docs(self):
        for path in self.input_shards():
            yield from read_jsonl(path)

    def call(self, argv: list[str], shards) -> None:
        """One program call; if it fails, every document it was given fails."""
        if self.cli.main([str(a) for a in argv]) != 0:
            self.failed_calls.update(d["id"] for p in shards for d in read_jsonl(p))

    def prepare(self) -> None:
        """Write the job's configuration files (once, before any set-up)."""

    def setup(self) -> None:
        raise NotImplementedError

    def job(self, out: Path) -> None:
        raise NotImplementedError

    def check(self, out: Path) -> set[str]:
        raise NotImplementedError

    def train(self, data: str, model: Path, kind: str, seed: int) -> None:
        # the default 2**18 buckets: with 2**14, hash collisions with toxic
        # features made benign lines score toxic on some seeds
        argv = ["train-classifier", "--inputs", data, "--model-out", model, "--seed", seed]
        if kind == "char":
            argv += ["--feature-kind", "char", "--orders", "2,3,4,5", "--epochs", 5, "--learning-rate", 0.5]
        else:
            argv += ["--feature-kind", "word", "--orders", "1,2", "--epochs", 15, "--learning-rate", 0.3]
        self.call(argv + ["--report", model.with_suffix(".json")], [])


# ------------------------------------------------------------ web


class Web(Workload):
    name = "web"

    def input_shards(self):
        return self.planted["shards"]

    def setup(self):
        training = self.planted["training"]
        self.train(training["lang"], self.setup_dir / "lang.bin", "char", 3)
        self.train(training["toxicity"], self.setup_dir / "hate.bin", "word", 5)
        self.train(training["toxicity"], self.setup_dir / "nsfw.bin", "word", 6)

    def job(self, out):
        m = self.setup_dir
        self.call(
            ["pipeline-web", "--inputs", *self.input_shards(), "--out-dir", out / "curated",
             "--language-model", m / "lang.bin", "--hate-model", m / "hate.bin",
             "--nsfw-model", m / "nsfw.bin", "--workers", self.workers, "--report", out / "report.json"],
            self.input_shards(),
        )

    def check(self, out):
        docs = list(self.input_docs())
        all_ids = {d["id"] for d in docs}
        failed: set[str] = set()
        if not (out / "report.json").exists():
            return all_ids
        report = json.loads((out / "report.json").read_text())["stages"]
        kept = [d for p in self.input_shards() for d in read_jsonl(out / "curated" / Path(p).name)]
        kept_ids = Counter(d["id"] for d in kept)

        # stage accounting, and the records on disk against the final count
        prev = len(docs)
        for stage in report:
            if stage["input_docs"] != prev or stage["input_docs"] != stage["kept_docs"] + stage["dropped_docs"]:
                failed |= all_ids
            prev = stage["kept_docs"]
        if len(kept) != prev or any(n > 1 for n in kept_ids.values()) or set(kept_ids) - all_ids:
            failed |= all_ids

        # URL and document dedup against Python sets over the input
        urls, texts, url_dups, doc_dups = set(), set(), set(), set()
        for d in docs:
            key = normalize_url(d["metadata"]["url"])
            if key in urls:
                url_dups.add(d["id"])
                continue
            urls.add(key)
            if d["text"] in texts:
                doc_dups.add(d["id"])
                continue
            texts.add(d["text"])
        by_stage = {s["stage"]: s for s in report}
        if by_stage["url_dedup"]["dropped_docs"] != len(url_dups):
            failed |= all_ids
        if by_stage["doc_dedup"]["dropped_docs"] != len(doc_dups):
            failed |= all_ids
        failed |= (url_dups | doc_dups) & set(kept_ids)

        # planted rule failures must be gone
        for kind in ("gopher", "repetition", "pii_dense", "non_english"):
            failed |= set(self.planted.get(kind, [])) & set(kept_ids)

        # toxic lines and email addresses removed, sparse PII masked
        sparse = set(self.planted.get("pii_sparse", []))
        seen_paragraphs: set[str] = set()
        for d in kept:
            text = d["text"]
            if any(line in text for line in self.planted["toxic_lines"]):
                failed.add(d["id"])
            if any(addr in text for addr in self.planted["emails"]):
                failed.add(d["id"])
            if d["id"] in sparse and "|||EMAIL_ADDRESS|||" not in text:
                failed.add(d["id"])
            for para in text.split("\n"):
                if para and para in seen_paragraphs:
                    failed.add(d["id"])
                seen_paragraphs.add(para)
        return failed


# ------------------------------------------------------------ tag

_TAG_RE = re.compile(r"<[^>]*>")
_BLOCKED = {"json", "json5", "jsonld", "jsoniq", "csv", "svg", "asm", "s"}


def expected_code_flags(doc: dict) -> set[str]:
    """Rule flags the documented thresholds give for one code file."""
    text = doc["text"]
    ext = str(doc["metadata"].get("extension", "")).lower()
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    flags = set()
    if max((len(x) for x in lines), default=0) > 1000:
        flags.add("rpj_code__rule_max_line_length")
    if lines and sum(len(x) for x in lines) / len(lines) > 100:
        flags.add("rpj_code__rule_avg_line_length")
    if text and sum(c.isalnum() for c in text) / len(text) < 0.25:
        flags.add("rpj_code__rule_alnum_fraction")
    tokens = len(text.split())
    if (sum(c.isalpha() for c in text) / tokens if tokens else 0.0) < 1.5:
        flags.add("rpj_code__rule_alpha_token_ratio")
    if "<?xml version=" in text[:100]:
        flags.add("starcoder__has_xml_template")
    if ext in ("html", "htm"):
        total = len(text.encode())
        if total and len(_TAG_RE.sub("", text).encode()) / total <= 0.2:
            flags.add("starcoder__rule_html_text_ratio")
    if ext in ("py", "java", "js"):
        lines_nb = [x.strip() for x in lines if x.strip()]
        if ext == "py":
            comments = sum(x.startswith("#") for x in lines_nb)
        else:
            comments, in_block = 0, False
            for x in lines_nb:
                if in_block:
                    comments += 1
                    in_block = "*/" not in x
                    continue
                comments += x.startswith("//") or x.startswith("/*")
                idx = x.find("/*")
                in_block = idx != -1 and "*/" not in x[idx:]
        ratio = comments / len(lines_nb) if lines_nb else 0.0
        if ratio <= 0.01 or ratio > 0.8:
            flags.add("starcoder__rule_comment_ratio")
    if ext in _BLOCKED:
        flags.add("ext__blocked")
    return flags


_PLANTED_CODE_FLAG = {
    "long_line": "rpj_code__rule_max_line_length",
    "avg_line": "rpj_code__rule_avg_line_length",
    "low_alnum": "rpj_code__rule_alnum_fraction",
    "low_alpha": "rpj_code__rule_alpha_token_ratio",
    "xml": "starcoder__has_xml_template",
    "html_markup": "starcoder__rule_html_text_ratio",
    "py_no_comments": "starcoder__rule_comment_ratio",
    "py_all_comments": "starcoder__rule_comment_ratio",
    "blocked_ext": "ext__blocked",
}


def expected_reddit_flags(doc: dict, blocklist: set[str]) -> set[str]:
    md = doc["metadata"]
    comment = md["kind"] == "comment"
    flags = set()
    if len(doc["text"]) < (500 if comment else 400):
        flags.add("reddit__too_short")
    if len(doc["text"]) > 40_000:
        flags.add("reddit__too_long")
    if comment and "votes" in md and int(md["votes"]) < 3:
        flags.add("reddit__low_votes")
    for key in ("author_deleted", "moderator_removed", "over_18"):
        if md.get(key):
            flags.add(f"reddit__{key}")
    if md["subreddit"].lower() in blocklist:
        flags.add("reddit__banned_subreddit")
    return flags


def utf8_span(text: str, needle: str) -> tuple[int, int]:
    start = text.encode("utf-8").index(needle.encode("utf-8"))
    return start, start + len(needle.encode("utf-8"))


class Tag(Workload):
    name = "tag"

    def input_shards(self):
        groups = self.planted["shards"]
        return groups["code"] + groups["reddit"] + groups["wiki"]

    def setup(self):
        self.train(self.planted["training"]["lang"], self.setup_dir / "lang.bin", "char", 3)

    def taggers(self) -> dict[str, list]:
        pii = "pii"
        return {
            "code": ["code_rpj", "code_starcoder", "extension", pii],
            "reddit": ["reddit_quality", {"name": "banned_subreddit", "params": {"blocklist": self.planted["blocklist"]}}, pii],
            "wiki": ["wiki_short", {"name": "language_paragraph", "params": {"model": str(self.setup_dir / "lang.bin")}}, pii],
        }

    def prepare(self):
        for group, taggers in self.taggers().items():
            (self.work / f"tag-{group}.json").write_text(json.dumps({"taggers": taggers}))

    def job(self, out):
        groups = self.planted["shards"]
        for group in ("code", "reddit", "wiki"):
            # the tag report carries wall time, so it stays out of the digested outputs
            self.call(
                ["tag", "--config", self.work / f"tag-{group}.json", "--inputs", *groups[group],
                 "--out-dir", out / group, "--workers", self.workers,
                 "--report", self.work / f"tag-{group}-report.json"],
                groups[group],
            )
        self.call(
            ["reddit-build", "--strategy", "partial", "--max-depth", MAX_THREAD_DEPTH, "--inputs", *groups["reddit"],
             "--out", out / "threads.jsonl", "--report", out / "threads-report.json"],
            groups["reddit"],
        )

    def check(self, out):
        failed: set[str] = set()
        groups = self.planted["shards"]
        blocklist = {s.lower() for s in self.planted["banned_subreddits"]}
        emails = self.planted["emails"]
        for group, paths in groups.items():
            for path in paths:
                docs = read_jsonl(path)
                sidecar = out / group / Path(path).name
                records = read_jsonl(sidecar) if sidecar.exists() else []
                if [r["id"] for r in records] != [d["id"] for d in docs]:
                    failed |= {d["id"] for d in docs}
                    continue
                for doc, rec in zip(docs, records):
                    attrs = rec["attributes"]
                    if group == "code":
                        want = expected_code_flags(doc)
                        planted = _PLANTED_CODE_FLAG.get(self.planted["code"][doc["id"]])
                        if planted and planted not in want:
                            raise RuntimeError(f"generator did not plant {planted} in {doc['id']}")
                        got = {k for k in attrs if "__rule_" in k or k in ("starcoder__has_xml_template", "ext__blocked")}
                    elif group == "reddit":
                        want = expected_reddit_flags(doc, blocklist)
                        got = {k for k in attrs if k.startswith("reddit__")}
                    else:
                        want = {"wiki__short"} if len(doc["text"].split()) <= 25 else set()
                        got = {k for k in attrs if k.startswith("wiki__")}
                        if "lang__en_paragraph" not in attrs:
                            failed.add(doc["id"])
                    if got != want:
                        failed.add(doc["id"])
                    want_pii = sorted(utf8_span(doc["text"], a) for a in emails.get(doc["id"], []))
                    got_pii = sorted((s, e) for s, e, _ in attrs.get("pii__email", []))
                    if got_pii != want_pii:
                        failed.add(doc["id"])

        # partial threads: bounded depth, every comment body in some thread
        reddit = [d for p in groups["reddit"] for d in read_jsonl(p)]
        threads_path = out / "threads.jsonl"
        threads = read_jsonl(threads_path) if threads_path.exists() else []
        bodies, doc_ids = set(), {t["id"] for t in threads}
        for t in threads:
            if t["metadata"]["kind"] == "partial_thread":
                if not 1 <= t["metadata"]["items"] <= MAX_THREAD_DEPTH or t["metadata"]["items"] != t["id"].count("+") + 1:
                    failed |= set(t["id"].split("+"))
                bodies.update(t["text"].split("\n\n"))
        texts = [t["text"] for t in threads if t["metadata"]["kind"] == "partial_thread"]
        for d in reddit:
            if d["metadata"]["kind"] == "submission":
                if d["id"] not in doc_ids:
                    failed.add(d["id"])
            elif d["text"] not in bodies and not any(d["text"] in t for t in texts):
                failed.add(d["id"])
        return failed


# ------------------------------------------------------------ dedup


def group_shards(paths: list[str], cap: int) -> list[list[str]]:
    """Consecutive shards in groups of at most ``cap`` file bytes; a shard
    over the cap is a group of its own."""
    groups, current, size = [], [], 0
    for path in paths:
        n = Path(path).stat().st_size
        if current and size + n > cap:
            groups.append(current)
            current, size = [], 0
        current.append(path)
        size += n
    if current:
        groups.append(current)
    return groups


class Dedup(Workload):
    name = "dedup"
    parallel = False

    def input_shards(self):
        return self.planted["shards"]

    def prepare(self):
        # a cap that puts consecutive pairs of shards in one group
        sizes = [Path(p).stat().st_size for p in self.input_shards()]
        self.group_bytes = max(sum(sizes[i : i + 2]) for i in range(0, len(sizes), 2))

    def setup(self):
        self.call(
            ["decontaminate", "--test-set", self.planted["eval"], "--inputs", self.planted["probe"],
             "--out-dir", self.setup_dir / "probe-attrs", "--save-filter", self.setup_dir / "eval.bloom", "--report", self.setup_dir / "seed.json"],
            [],
        )

    def job(self, out):
        shards = ids = self.input_shards()
        for stage in ("url", "document", "paragraph"):
            self.call(["dedupe", "--stage", stage, "--inputs", *shards, "--out-dir", out / stage,
                       "--report", out / f"{stage}.json"], ids)
        self.call(["dedupe", "--stage", "paragraph", "--inputs", *shards, "--out-dir", out / "ccnet",
                   "--ccnet-group-bytes", self.group_bytes, "--report", out / "ccnet.json"], ids)
        self.call(["decontaminate", "--test-set", self.planted["eval"], "--inputs", *shards,
                   "--out-dir", out / "decon", "--report", out / "decon.json"], ids)
        self.call(["decontaminate", "--load-filter", self.setup_dir / "eval.bloom", "--inputs", *shards,
                   "--out-dir", out / "decon-loaded", "--report", out / "decon-loaded.json"], ids)

    def sidecars(self, out: Path, stage: str, docs_by_shard) -> list[dict] | None:
        records = []
        for path, docs in docs_by_shard:
            sidecar = out / stage / Path(path).name
            recs = read_jsonl(sidecar) if sidecar.exists() else []
            if [r["id"] for r in recs] != [d["id"] for d in docs]:
                return None
            records += recs
        return records

    def check(self, out):
        docs_by_shard = [(p, read_jsonl(p)) for p in self.input_shards()]
        docs = [d for _, shard in docs_by_shard for d in shard]
        all_ids = {d["id"] for d in docs}
        failed: set[str] = set()

        # exact first-occurrence sets in stream order
        urls, texts, paras = set(), set(), set()
        exact = {"url": {}, "document": {}, "paragraph": {}}
        n_paragraphs = 0
        for d in docs:
            key = normalize_url(d["metadata"]["url"])
            data = d["text"].encode("utf-8")
            if key in urls:
                exact["url"][d["id"]] = [(0, len(data))]
            urls.add(key)
            if data in texts:
                exact["document"][d["id"]] = [(0, len(data))]
            texts.add(data)
            for s, e in paragraph_spans(data):
                n_paragraphs += 1
                if data[s:e] in paras:
                    exact["paragraph"].setdefault(d["id"], []).append((s, e))
                paras.add(data[s:e])
        names = {"url": "dedupe__url_duplicate", "document": "dedupe__doc_duplicate", "paragraph": "dedupe__dup_paragraph"}
        keys = {"url": len(docs), "document": len(docs), "paragraph": n_paragraphs}
        for stage, name in names.items():
            records = self.sidecars(out, stage, docs_by_shard)
            if records is None:
                failed |= all_ids
                continue
            got = flagged(records, name)
            want = exact[stage]
            failed |= {i for i in want if not set(want[i]) <= set(got.get(i, []))}
            extra = {i for i in got if not set(got[i]) <= set(want.get(i, []))}
            if len(extra) > 2 * DEDUP_BLOOM_P * keys[stage]:
                failed |= extra

        # grouped paragraph dedup: exact within each group of shards
        records = self.sidecars(out, "ccnet", docs_by_shard)
        if records is None:
            failed |= all_ids
        else:
            got = flagged(records, "dedupe__dup_paragraph")
            want: dict = {}
            shard_docs = dict(docs_by_shard)
            for group in group_shards(self.input_shards(), self.group_bytes):
                seen = set()
                for path in group:
                    for d in shard_docs[path]:
                        data = d["text"].encode("utf-8")
                        for s, e in paragraph_spans(data):
                            if data[s:e] in seen:
                                want.setdefault(d["id"], []).append((s, e))
                            seen.add(data[s:e])
            failed |= {i for i in all_ids if want.get(i, []) != got.get(i, [])}

        # decontamination: exact expectation from the eval set and the gate
        seeded = {
            para
            for d in read_jsonl(self.planted["eval"])
            for para in d["text"].split("\n")
            if len(para.split()) > DECON_MIN_TOKENS
        }
        contaminated = {
            d["id"]
            for d in docs
            if any(len(p.split()) > DECON_MIN_TOKENS and p in seeded for p in d["text"].split("\n"))
        }
        if not set(self.planted.get("contaminated", [])) <= contaminated:
            raise RuntimeError("generator planted a contaminated document the gate does not admit")
        results = {}
        for stage in ("decon", "decon-loaded"):
            records = self.sidecars(out, stage, docs_by_shard)
            if records is None:
                failed |= all_ids
                continue
            got = set(flagged(records, "decontamination__contaminated"))
            results[stage] = got
            failed |= contaminated - got
            failed |= got & set(self.planted.get("gate_only", []))
        if len(results) == 2:
            failed |= results["decon"] ^ results["decon-loaded"]
        return failed


# ------------------------------------------------------------ mix

MIX_PROPORTIONS = {"web": 50.0, "code": 10.0, "ref": 25.0, "books": 15.0}
MIX_UPSAMPLE = {"books": 2}
MIX_SHARD_BYTES = 256 * 1024


def keep_draw(seed: int, source: str, doc_id: str, repeat: int) -> float:
    """The documented sampling draw: BLAKE2b-64 of the key, little-endian,
    as a fraction of 2**64."""
    payload = f"{seed}\x1f{source}\x1f{doc_id}\x1f{repeat}".encode("utf-8")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little") / 2**64


class Mix(Workload):
    name = "mix"

    def input_shards(self):
        return [p for source in MIX_PROPORTIONS for p in self.planted["shards"][source]]

    def prepare(self):
        attrs = [self.planted["attributes"], str(self.setup_dir / "dedup-attrs")]
        filters = [
            {"attribute": "mix__drop", "scope": "document", "op": ">=", "threshold": 1, "action": "drop_doc"},
            {"attribute": "mix__remove", "scope": "span", "op": ">=", "threshold": 1, "action": "remove_span"},
            {"attribute": "mix__replace", "scope": "span", "op": ">=", "threshold": 1, "action": "replace_span",
             "replacement": self.planted["replacement"]},
            {"attribute": "dedupe__dup_paragraph", "scope": "span", "op": ">=", "threshold": 1, "action": "remove_span"},
        ]
        config = {
            "streams": [
                {"documents": self.planted["shards"][source], "attributes": attrs, "filters": filters}
                for source in MIX_PROPORTIONS
            ],
            "proportions": MIX_PROPORTIONS,
            "upsample": MIX_UPSAMPLE,
            "seed": self.seed,
            "output_shard_bytes": MIX_SHARD_BYTES,
        }
        (self.work / "mix.json").write_text(json.dumps(config, indent=1))

    def setup(self):
        self.call(["dedupe", "--stage", "paragraph", "--inputs", *self.input_shards(),
                   "--out-dir", self.setup_dir / "dedup-attrs", "--report", self.setup_dir / "dedup.json"], [])

    def job(self, out):
        self.call(["mix", "--config", self.work / "mix.json", "--out-dir", out / "mixed", "--workers", self.workers,
                   "--report", out / "report.json"], self.input_shards())

    def expected(self) -> list[tuple[str, str]]:
        """(id, text) of every output record, in output order, computed from
        the planted attributes, exact paragraph dedup in input order, the
        documented proportion rule and the seeded draw."""
        docs = [(source, d) for source in MIX_PROPORTIONS for p in self.planted["shards"][source] for d in read_jsonl(p)]
        sizes: dict[str, int] = {}
        for source, d in docs:
            sizes[source] = sizes.get(source, 0) + len(d["text"].encode("utf-8")) * MIX_UPSAMPLE.get(source, 1)
        peak = max(MIX_PROPORTIONS, key=lambda s: MIX_PROPORTIONS[s] / sizes[s])
        rates = {
            s: (w * sizes[peak]) / (sizes[s] * MIX_PROPORTIONS[peak]) for s, w in MIX_PROPORTIONS.items()
        }
        drop = set(self.planted["drop"])
        token = self.planted["replacement"].encode("utf-8")
        seen: set[bytes] = set()
        result = []
        for source, d in docs:
            data = d["text"].encode("utf-8")
            removals = []
            for s, e in paragraph_spans(data):
                if data[s:e] in seen:
                    removals.append((s, e))
                seen.add(data[s:e])
            if d["id"] in drop:
                continue
            if d["id"] in self.planted["remove"]:
                removals.append(tuple(self.planted["remove"][d["id"]]))
            replacements = []
            if d["id"] in self.planted["replace"]:
                s, e = self.planted["replace"][d["id"]]
                replacements.append((s, e, token))
            text = splice(data, removals, replacements).decode("utf-8")
            if not text:
                continue
            for repeat in range(MIX_UPSAMPLE.get(source, 1)):
                if rates[source] >= 1.0 or keep_draw(self.seed, source, d["id"], repeat) < rates[source]:
                    result.append((d["id"], text))
        return result

    def check(self, out):
        all_ids = {d["id"] for d in self.input_docs()}
        failed: set[str] = set()
        shards = sorted((out / "mixed").glob("part-*.jsonl"))
        got: list[tuple[str, str]] = []
        for path in shards:
            raw = path.read_bytes()
            lines = raw.count(b"\n")
            if len(raw) > MIX_SHARD_BYTES and lines != 1:
                failed |= {r["id"] for r in read_jsonl(path)}
            got += [(r["id"], r["text"]) for r in read_jsonl(path)]
        want = self.expected()
        got_ids, want_ids = Counter(i for i, _ in got), Counter(i for i, _ in want)
        failed |= {i for i in got_ids.keys() | want_ids.keys() if got_ids[i] != want_ids[i]}
        want_text = dict(want)
        failed |= {i for i, text in got if i in want_text and want_text[i] != text}
        if not shards:
            failed |= all_ids
        return failed


WORKLOADS = {w.name: w for w in (Web, Tag, Dedup, Mix)}
