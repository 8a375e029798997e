"""Machine-speed calibration for a shared host.

Co-tenants on the host this benchmark was built on slow every process by up
to 2x for stretches of minutes, on both vCPUs at once. A fixed kernel of the
interpreter work the jobs do (JSON round trips, word counting, Unicode
category lookups, regex scans, zlib, BLAKE2b hashing and random access
into a Bloom-sized bit array) is timed before and after every measured
interval, and times are reported in reference seconds: the measured
seconds times ``REFERENCE_S`` over the kernel's time. The kernel does not
call corpuskit, so a change to the program moves the reported figures in
full; a slow stretch of the host moves kernel and job alike and cancels.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import statistics
import time
import unicodedata
import zlib

# kernel seconds on the reference machine (this host when uncontended)
REFERENCE_S = 0.020
_REPEATS = 5

_rng = random.Random(20240201)
_WORDS = ["river", "garden", "window", "story", "number", "café", "naïve", "harbor", "item7", "light"]
_DOCS = [
    {"id": f"k{i}", "text": " ".join(_rng.choice(_WORDS) for _ in range(60)), "metadata": {"url": f"http://h{i}.example/p"}}
    for i in range(200)
]
_BITS = bytearray(2_400_000)
_WORD_RE = re.compile(r"[a-z]+\d*")


def _kernel() -> float:
    started = time.perf_counter()
    counts: dict[str, int] = {}
    pos = 1
    for doc in _DOCS:
        text = json.loads(json.dumps(doc, ensure_ascii=False))["text"]
        for word in text.split():
            counts[word] = counts.get(word, 0) + 1
        sum(1 for ch in text[:200] if unicodedata.category(ch)[0] == "L")
        _WORD_RE.findall(text)
        zlib.compress(text.encode("utf-8"), 6)
        for j in range(30):
            digest = hashlib.blake2b(b"%d-%d" % (pos, j), digest_size=8).digest()
            pos = int.from_bytes(digest, "little") % len(_BITS)
            _BITS[pos] |= 1
    return time.perf_counter() - started


def kernel_seconds() -> float:
    """Median time of a few kernel runs, now."""
    return statistics.median(_kernel() for _ in range(_REPEATS))
