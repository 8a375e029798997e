"""Bloom filter for linear-time probabilistic duplicate detection.

Sized from a target insertion count and false-positive rate; keys are
hashed with seeded BLAKE2b double hashing so filters are portable across
platforms. Bits only ever transition 0 -> 1. Keys go in and are looked up a
batch at a time: ``insert_check_many`` and ``contains_many`` hash the keys
(``key_digests``), turn the digests into bit positions (``probe_positions``)
and test those in numpy, answering as inserting or probing the keys one by
one in order would; an insert ORs each byte's new bits into it in one store.
``insert_check`` and ``contains`` are batches of one. ``ExactSet``, a set
of SHA-1 key digests with the same interface, is the exact backend and the
oracle of the tests.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
import struct
import threading
from typing import Sequence

import numpy as np

from corpuskit.shard_io import atomic_output

logger = logging.getLogger(__name__)

BLOOM_MAGIC = b"CKBLOOM1"
BLOOM_VERSION = 1
_HEADER = struct.Struct("<8sIQIQB")  # magic, version, m, k, seed, read_only

_MASK64 = (1 << 64) - 1

DEFAULT_N_TARGET = 1_000_000
DEFAULT_P_TARGET = 1e-4

_BIT = np.array([1 << i for i in range(8)], np.uint8)  # bit i of a byte
_DIGEST = np.dtype(("<u8", 2))  # a key's 16-byte digest read as (h1, h2)
_H2_LOW_BIT = np.array([0, 1], np.uint64)


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


def key_digests(keys: Sequence[bytes], seed: int) -> np.ndarray:
    """Each key's 16-byte BLAKE2b digest salted with the seed, as a
    (len(keys), 2) uint64 array of its little-endian halves (h1, h2)."""
    # one salted hash object copied per key: cheaper than passing the
    # digest size and salt to a new one for every key
    salted = hashlib.blake2b(digest_size=16, salt=seed.to_bytes(8, "little"))
    digests = []
    for key in keys:
        h = salted.copy()
        h.update(key)
        digests.append(h.digest())
    return np.frombuffer(b"".join(digests), _DIGEST)


def probe_positions(digests: np.ndarray, m: int, k: int) -> np.ndarray:
    """The k bit positions of each key of ``key_digests`` as a
    (len(digests), k) uint64 array.

    Position i is ``(h1 + i*h2) mod m``, where h2 has its low bit set. It is
    computed as ``(h1 mod m) + i*(h2 mod m)`` reduced mod m, with every
    operand uint64 (numpy 1.x would turn uint64 mixed with int64 into
    float64); the sum is at most k*(m-1), so it fits in 64 bits for every
    filter ``BloomFilter`` accepts, k*m < 2^64.
    """
    m = np.uint64(m)
    h = (digests | _H2_LOW_BIT) % m
    return (h[:, :1] + np.arange(k, dtype=np.uint64) * h[:, 1:]) % m


def _first_probes(pos: np.ndarray, index: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct positions < m of a non-empty ``pos``, ascending, each with
    the smallest entry of ``index`` (non-decreasing, non-negative) that
    probes it.

    One sort of ``position << b | index`` packed in uint64, or a stable
    argsort of the positions when the two fields need more than 64 bits.
    """
    shift = int(index[-1]).bit_length()
    if (m - 1).bit_length() + shift <= 64:
        packed = np.sort(pos << np.uint64(shift) | index.astype(np.uint64))
        pos, index = packed >> np.uint64(shift), packed & np.uint64((1 << shift) - 1)
    else:
        order = np.argsort(pos, kind="stable")
        pos, index = pos[order], index[order]
    first = _run_starts(pos)
    return pos[first], index[first]


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Indices where a run of equal values starts in a non-empty array."""
    change = np.empty(len(values), bool)
    change[0] = True
    np.not_equal(values[1:], values[:-1], out=change[1:])
    return np.flatnonzero(change)


class BloomFilter:
    """m-bit array with k hash functions; no false negatives."""

    def __init__(self, m: int, k: int, seed: int = 0, read_only: bool = False, bits: bytearray | None = None):
        if m < 1 or k < 1:
            raise ValueError(f"need m >= 1 and k >= 1, got m={m}, k={k}")
        if k * m >= 1 << 64:  # probe_positions works in uint64
            raise ValueError(f"need k * m < 2**64, got m={m}, k={k}")
        self.m = m
        self.k = k
        self.seed = seed & _MASK64
        self.read_only = read_only
        n_bytes = (m + 7) // 8
        if bits is not None and len(bits) != n_bytes:
            raise ValueError(f"bit array holds {len(bits)} bytes, expected {n_bytes}")
        self.bits = bytearray(n_bytes) if bits is None else bits
        # the popcount of ``bits``: given bits are counted once, here, and
        # the inserts add each bit they set
        self.set_bits = 0 if bits is None else self.popcount()
        self.added = 0  # keys an insert on this object reported absent
        self.n_target: int | None = None  # the key count and false-positive rate
        self.p_target: float | None = None  # it was sized for, set by create only
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

    def insert_check_many(self, keys: Sequence[bytes]) -> list[bool]:
        """Set each key's bits, in order; return for each key whether all its
        bits were set already, before the batch or by an earlier key of it.

        Thread-safe: the lock is held across the batch's probe and set, so
        concurrent inserts never lose bits and an inserted key always reports
        present afterward.
        """
        if self.read_only:
            raise ReadOnlyFilterError("insertion attempted on read-only filter")
        if not keys:
            return []
        pos = probe_positions(key_digests(keys, self.seed), self.m, self.k).ravel()
        # intp, which holds any byte index of a bit array, indexes faster than uint64
        byte, mask = (pos >> 3).astype(np.intp), _BIT.take(pos & 7)
        with self._lock:
            bits = np.frombuffer(self.bits, np.uint8)
            unset = np.flatnonzero(bits[byte] & mask == 0)
            if not unset.size:
                return [True] * len(keys)
            # a key is absent exactly when it is the first in the batch to
            # probe some position that was unset before the batch
            newly_set, absent = _first_probes(pos[unset], unset // self.k, self.m)
            # ascending: the new bits of one byte form a run, OR-ed in at once
            new_byte = (newly_set >> 3).astype(np.intp)
            runs = _run_starts(new_byte)
            bits[new_byte[runs]] |= np.bitwise_or.reduceat(_BIT.take(newly_set & 7), runs)
            self.set_bits += len(newly_set)
            present = np.ones(len(keys), bool)
            present[absent] = False
            self.added += len(keys) - int(np.count_nonzero(present))
        return present.tolist()

    def contains_many(self, keys: Sequence[bytes]) -> list[bool]:
        """For each key, whether all its bits are set."""
        if not keys:
            return []
        pos = probe_positions(key_digests(keys, self.seed), self.m, self.k)
        bits = np.frombuffer(self.bits, np.uint8)
        return ((bits[pos >> 3] & _BIT[pos & 7]) != 0).all(axis=1).tolist()

    def insert_check(self, key: bytes) -> bool:
        return self.insert_check_many([key])[0]

    def contains(self, key: bytes) -> bool:
        return self.contains_many([key])[0]

    def popcount(self) -> int:
        """Set bits, counted a 64 KiB slice at a time so that no copy of the
        whole array is made."""
        view = memoryview(self.bits)
        return sum(int.from_bytes(view[i : i + 65536], "little").bit_count() for i in range(0, len(view), 65536))

    def health(self) -> dict:
        """A report's ``bloom`` entry: size, fill ratio (set bits over m), the
        false-positive rate that fill implies for a new key (``fill ** k``),
        the new keys this object took and the key count it was sized for
        (None for a loaded filter, whose file does not record it). Warns when
        it took more new keys than that; the rate alone would not do, as at
        exactly the sized count it lands on the target up to noise."""
        fill = self.set_bits / self.m
        fpr = fill**self.k
        if self.n_target is not None and self.added > self.n_target:
            logger.warning(
                "Bloom filter took %d new keys, sized for %d: fill %.4f, estimated false-positive rate %.3g "
                "against a target of %.3g",
                self.added, self.n_target, fill, fpr, self.p_target,
            )
        return {
            "m": self.m, "k": self.k, "fill": fill, "estimated_fpr": fpr, "added": self.added, "n_target": self.n_target
        }

    def freeze(self) -> "BloomFilter":
        self.read_only = True
        return self


def bloom_save(bloom: BloomFilter, path) -> None:
    """Header (magic, version, m, k, seed, read_only) then the raw bits."""
    with atomic_output(path) as tmp, open(tmp, "wb") as f:
        f.write(_HEADER.pack(BLOOM_MAGIC, BLOOM_VERSION, bloom.m, bloom.k, bloom.seed, int(bloom.read_only)))
        f.write(memoryview(bloom.bits))


def bloom_load(path) -> BloomFilter:
    """Read a filter written by :func:`bloom_save`, its bits straight into
    one ``bytearray`` sized only once the file is known to hold them. A
    malformed file raises ``BloomFormatError`` naming it."""
    with open(path, "rb") as f:
        header = f.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise BloomFormatError(f"{path}: truncated bloom filter file (header incomplete)")
        magic, version, m, k, seed, read_only = _HEADER.unpack(header)
        if magic != BLOOM_MAGIC:
            raise BloomFormatError(f"{path}: bad magic; not a bloom filter file")
        if version != BLOOM_VERSION:
            raise BloomFormatError(f"{path}: unsupported bloom filter version {version}")
        if read_only not in (0, 1):
            raise BloomFormatError(f"{path}: read-only byte {read_only}, expected 0 or 1")
        n_bytes = (m + 7) // 8
        payload = os.fstat(f.fileno()).st_size - _HEADER.size
        if payload != n_bytes:
            raise BloomFormatError(f"{path}: {payload} payload bytes for m={m}, expected {n_bytes}")
        bits = bytearray(n_bytes)
        if f.readinto(bits) != n_bytes:
            raise BloomFormatError(f"{path}: truncated while it was read")
    try:
        return BloomFilter(m=m, k=k, seed=seed, read_only=bool(read_only), bits=bits)
    except ValueError as exc:  # m or k out of range
        raise BloomFormatError(f"{path}: {exc}") from exc


class ExactSet:
    """Hash-set stand-in with the Bloom interface; zero false positives.

    It holds each key's 20-byte SHA-1 digest, not the key, so its memory
    grows per key rather than per key byte; a batch's digests are computed
    before the lock is taken. The exact backend of every dedup pass
    (``--exact``, grouped paragraph dedup) and the source of truth in
    oracle tests.
    """

    def __init__(self, read_only: bool = False):
        self.read_only = read_only
        self._digests: set[bytes] = set()
        self._lock = threading.Lock()

    def insert_check_many(self, keys: Sequence[bytes]) -> list[bool]:
        """Add each key, in order; return for each whether it was in the set."""
        if self.read_only:
            raise ReadOnlyFilterError("insertion attempted on read-only set")
        digests = [hashlib.sha1(key).digest() for key in keys]
        flags = []
        with self._lock:
            for digest in digests:
                flags.append(digest in self._digests)
                self._digests.add(digest)
        return flags

    def contains_many(self, keys: Sequence[bytes]) -> list[bool]:
        return [hashlib.sha1(key).digest() in self._digests for key in keys]

    def insert_check(self, key: bytes) -> bool:
        return self.insert_check_many([key])[0]

    def contains(self, key: bytes) -> bool:
        return self.contains_many([key])[0]

    def freeze(self) -> "ExactSet":
        self.read_only = True
        return self

    def __len__(self) -> int:
        return len(self._digests)


def make_backend(exact: bool = False, **bloom) -> BloomFilter | ExactSet:
    """The key set of a dedup pass: exact, or ``BloomFilter.create(**bloom)``."""
    return ExactSet() if exact else BloomFilter.create(**bloom)
