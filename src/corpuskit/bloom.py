"""Bloom filter for linear-time probabilistic duplicate detection.

Sized from a target insertion count and false-positive rate; keys are
hashed with seeded BLAKE2b double hashing so filters are portable across
platforms. Bits only ever transition 0 -> 1. A hash-set backend with the
same interface exists for desk-scale oracle testing.
"""

from __future__ import annotations

import hashlib
import math
import struct
import threading
from pathlib import Path

from corpuskit.shard_io import atomic_output

BLOOM_MAGIC = b"CKBLOOM1"
BLOOM_VERSION = 1

_MASK64 = (1 << 64) - 1

DEFAULT_N_TARGET = 1_000_000
DEFAULT_P_TARGET = 1e-4


class ReadOnlyFilterError(RuntimeError):
    pass


class BloomFormatError(ValueError):
    pass


def check_target(n_target: int, p_target: float) -> None:
    """Raise ``ValueError`` unless a filter can be sized for these targets."""
    if n_target < 1:
        raise ValueError(f"n_target must be >= 1, got {n_target}")
    if not 0.0 < p_target < 1.0:
        raise ValueError(f"p_target must be in (0, 1), got {p_target}")


class BloomFilter:
    """m-bit array with k hash functions; no false negatives."""

    def __init__(self, m: int, k: int, seed: int = 0, read_only: bool = False, bits: bytearray | None = None):
        if m < 1 or k < 1:
            raise ValueError(f"need m >= 1 and k >= 1, got m={m}, k={k}")
        self.m = m
        self.k = k
        self.seed = seed & _MASK64
        self.read_only = read_only
        n_bytes = (m + 7) // 8
        if bits is None:
            bits = bytearray(n_bytes)
        elif len(bits) != n_bytes:
            raise ValueError(f"bit array holds {len(bits)} bytes, expected {n_bytes}")
        self.bits = bits
        self._lock = threading.Lock()

    @classmethod
    def create(
        cls, n_target: int = DEFAULT_N_TARGET, p_target: float = DEFAULT_P_TARGET, seed: int = 0
    ) -> "BloomFilter":
        """Standard sizing: m = ceil(-n ln p / (ln 2)^2), k = round((m/n) ln 2)."""
        check_target(n_target, p_target)
        ln2 = math.log(2.0)
        m = math.ceil(-n_target * math.log(p_target) / (ln2 * ln2))
        k = max(1, round((m / n_target) * ln2))
        bloom = cls(m=m, k=k, seed=seed)
        bloom.n_target = n_target
        bloom.p_target = p_target
        return bloom

    def _positions(self, key: bytes):
        digest = hashlib.blake2b(
            key, digest_size=16, salt=self.seed.to_bytes(8, "little")
        ).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little") | 1
        for i in range(self.k):
            yield (h1 + i * h2) % self.m

    def insert_check(self, key: bytes) -> bool:
        """Set the key's bits; return whether all were already set.

        Thread-safe: concurrent inserts never lose bits, so an inserted key
        always reports present afterward.
        """
        if self.read_only:
            raise ReadOnlyFilterError("insertion attempted on read-only filter")
        was_present = True
        with self._lock:
            for pos in self._positions(key):
                byte, mask = pos >> 3, 1 << (pos & 7)
                if not self.bits[byte] & mask:
                    was_present = False
                    self.bits[byte] |= mask
        return was_present

    def contains(self, key: bytes) -> bool:
        return all(self.bits[pos >> 3] & (1 << (pos & 7)) for pos in self._positions(key))

    def popcount(self) -> int:
        return int.from_bytes(self.bits, "little").bit_count()

    def freeze(self) -> "BloomFilter":
        self.read_only = True
        return self


def bloom_save(bloom: BloomFilter, path) -> None:
    """Header (magic, version, m, k, seed, read_only) then the raw bits."""
    with atomic_output(path) as tmp, open(tmp, "wb") as f:
        f.write(BLOOM_MAGIC)
        f.write(struct.pack("<IQIQB", BLOOM_VERSION, bloom.m, bloom.k, bloom.seed, int(bloom.read_only)))
        f.write(bytes(bloom.bits))


def bloom_load(path) -> BloomFilter:
    data = Path(path).read_bytes()
    header_size = 8 + struct.calcsize("<IQIQB")
    if len(data) < header_size:
        raise BloomFormatError("truncated bloom filter file (header incomplete)")
    if data[:8] != BLOOM_MAGIC:
        raise BloomFormatError("bad magic; not a bloom filter file")
    version, m, k, seed, read_only = struct.unpack("<IQIQB", data[8:header_size])
    if version != BLOOM_VERSION:
        raise BloomFormatError(f"unsupported bloom filter version {version}")
    bits = bytearray(data[header_size:])
    if len(bits) != (m + 7) // 8:
        raise BloomFormatError(
            f"truncated bloom filter file: {len(bits)} payload bytes for m={m}"
        )
    return BloomFilter(m=m, k=k, seed=seed, read_only=bool(read_only), bits=bits)


class ExactSet:
    """Hash-set stand-in with the Bloom interface; zero false positives.

    Source of truth in oracle tests, and a usable backend for desk-scale
    runs.
    """

    def __init__(self, read_only: bool = False):
        self.read_only = read_only
        self._keys: set[bytes] = set()
        self._lock = threading.Lock()

    def insert_check(self, key: bytes) -> bool:
        if self.read_only:
            raise ReadOnlyFilterError("insertion attempted on read-only set")
        with self._lock:
            if key in self._keys:
                return True
            self._keys.add(key)
            return False

    def contains(self, key: bytes) -> bool:
        return key in self._keys

    def freeze(self) -> "ExactSet":
        self.read_only = True
        return self

    def __len__(self) -> int:
        return len(self._keys)


def make_backend(exact: bool = False, **bloom) -> BloomFilter | ExactSet:
    """The key set of a dedup pass: exact, or ``BloomFilter.create(**bloom)``."""
    return ExactSet() if exact else BloomFilter.create(**bloom)
