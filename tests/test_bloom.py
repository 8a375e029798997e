import hashlib
import math
import os
import random
import re
import struct
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import corpuskit
from corpuskit.bloom import (
    BloomFilter,
    BloomFormatError,
    ExactSet,
    ReadOnlyFilterError,
    _first_probes,
    bloom_load,
    bloom_save,
    key_digests,
    probe_positions,
)


# prints how far loading the filter at argv[1] raised this process's peak
# RSS, in KiB (Linux), then the filter's set bits
_LOAD_RSS = """
import resource, sys
from corpuskit.bloom import bloom_load
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
bloom = bloom_load(sys.argv[1])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before, bloom.set_bits)
"""


def reference_positions(key: bytes, m: int, k: int, seed: int):
    """The per-key probe loop the batch methods replaced: Python integers, no
    numpy, so it is the oracle for the positions and the bits."""
    digest = hashlib.blake2b(key, digest_size=16, salt=seed.to_bytes(8, "little")).digest()
    h1 = int.from_bytes(digest[:8], "little")
    h2 = int.from_bytes(digest[8:], "little") | 1
    for i in range(k):
        yield (h1 + i * h2) % m


def reference_insert_check(bits: bytearray, m: int, k: int, seed: int, key: bytes) -> bool:
    was_present = True
    for pos in reference_positions(key, m, k, seed):
        byte, mask = pos >> 3, 1 << (pos & 7)
        if not bits[byte] & mask:
            was_present = False
            bits[byte] |= mask
    return was_present


def reference_contains(bits: bytearray, m: int, k: int, seed: int, key: bytes) -> bool:
    return all(bits[pos >> 3] & (1 << (pos & 7)) for pos in reference_positions(key, m, k, seed))


# few distinct keys, so batches repeat keys and share positions
KEYS = st.lists(st.sampled_from([b"", b"a", b"b", b"ab", b"\x00", b"key"]) | st.binary(max_size=4), max_size=20)


class TestSizing:
    def test_tiny_filter_formula(self):
        bloom = BloomFilter.create(n_target=1, p_target=0.5, seed=0)
        assert (bloom.m, bloom.k) == (2, 1)

    def test_million_key_formula(self):
        bloom = BloomFilter.create(n_target=10**6, p_target=0.01, seed=0)
        assert bloom.m == 9_585_059
        assert bloom.k == 7

    def test_formula_against_arbitrary_precision_oracle(self):
        for n, p in [(10, 0.1), (1000, 0.001), (12345, 0.0321)]:
            bloom = BloomFilter.create(n, p, 0)
            m_exact = -n * math.log(p) / (math.log(2) ** 2)
            assert bloom.m == math.ceil(m_exact)
            assert bloom.k == max(1, round(bloom.m / n * math.log(2)))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BloomFilter.create(0, 0.1, 0)
        with pytest.raises(ValueError):
            BloomFilter.create(10, 0.0, 0)
        with pytest.raises(ValueError):
            BloomFilter.create(10, 1.0, 0)


class TestInsertCheck:
    def test_fresh_then_repeat(self):
        bloom = BloomFilter.create(100, 0.01, 0)
        assert bloom.insert_check(b"x") is False
        assert bloom.insert_check(b"x") is True

    def test_distinct_keys_in_large_filter(self):
        bloom = BloomFilter.create(100_000, 1e-4, 1)
        rng = random.Random(0)
        false_positives = 0
        for i in range(10_000):
            if bloom.insert_check(f"key-{i}-{rng.random()}".encode()):
                false_positives += 1
        assert false_positives <= 2 * 1e-4 * 10_000

    def test_no_false_negatives(self):
        bloom = BloomFilter.create(20_000, 1e-3, 2)
        keys = [f"k{i}".encode() for i in range(20_000)]
        for key in keys:
            bloom.insert_check(key)
        assert all(bloom.contains(key) for key in keys)

    def test_popcount_monotone(self):
        bloom = BloomFilter.create(1000, 0.01, 0)
        last = 0
        for i in range(500):
            bloom.insert_check(f"{i}".encode())
            current = bloom.popcount()
            assert current >= last
            last = current

    def test_popcount_counts_across_slices(self):
        rng = random.Random(0)
        for m in (1, 9, 2 * 65536 * 8 + 13):  # the last spans three 64 KiB slices
            bloom = BloomFilter(m, 1, bits=bytearray(rng.randbytes((m + 7) // 8)))
            assert bloom.popcount() == sum(bin(byte).count("1") for byte in bloom.bits)

    def test_set_bits_equals_popcount_after_mixed_inserts(self):
        rng = random.Random(7)
        for trial in range(60):
            m, k = rng.randrange(1, 400), rng.randrange(1, 6)
            # a filter built from given bits counts them once, a fresh one starts at 0
            bits = bytearray(rng.randbytes((m + 7) // 8)) if trial % 2 else None
            bloom = BloomFilter(m, k, seed=trial, bits=bits)
            assert bloom.set_bits == bloom.popcount()
            pool = [f"k{i}".encode() for i in range(rng.randrange(1, 60))]  # keys repeat
            for _ in range(20):
                if rng.random() < 0.5:
                    bloom.insert_check_many([rng.choice(pool) for _ in range(rng.randrange(0, 30))])
                else:
                    bloom.insert_check(rng.choice(pool))
                assert bloom.set_bits == bloom.popcount()
            assert bloom.health()["fill"] == bloom.popcount() / m

    def test_read_only_rejects_insert_allows_query(self):
        bloom = BloomFilter.create(100, 0.01, 0)
        bloom.insert_check(b"x")
        bloom.freeze()
        assert bloom.contains(b"x") is True
        assert bloom.contains(b"y") is False
        with pytest.raises(ReadOnlyFilterError):
            bloom.insert_check(b"z")

    def test_seed_changes_bit_pattern(self):
        a = BloomFilter.create(100, 0.01, seed=1)
        b = BloomFilter.create(100, 0.01, seed=2)
        a.insert_check(b"x")
        b.insert_check(b"x")
        assert bytes(a.bits) != bytes(b.bits)

    def test_concurrent_inserts_lose_no_keys(self):
        # the concurrency contract: inserted keys always report present
        # afterward, even under parallel insertion of overlapping key sets
        from concurrent.futures import ThreadPoolExecutor

        bloom = BloomFilter.create(20_000, 1e-3, 3)
        keys = [f"shared-{i}".encode() for i in range(5_000)]

        def worker(offset):
            for key in keys[offset::1]:
                bloom.insert_check(key)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(worker, range(8)))
        assert all(bloom.contains(key) for key in keys)

    def test_concurrent_readonly_queries(self):
        from concurrent.futures import ThreadPoolExecutor

        bloom = BloomFilter.create(10_000, 1e-3, 4)
        keys = [f"k{i}".encode() for i in range(2_000)]
        for key in keys:
            bloom.insert_check(key)
        bloom.freeze()

        def query(_):
            return all(bloom.contains(key) for key in keys)

        with ThreadPoolExecutor(max_workers=8) as pool:
            assert all(pool.map(query, range(8)))


class TestPersistence:
    def test_roundtrip_preserves_membership(self, tmp_path):
        bloom = BloomFilter.create(10_000, 1e-3, 7)
        keys = [f"key-{i}".encode() for i in range(10_000)]
        for key in keys:
            bloom.insert_check(key)
        path = tmp_path / "filter.bloom"
        bloom_save(bloom, path)
        loaded = bloom_load(path)
        assert (loaded.m, loaded.k, loaded.seed, loaded.read_only) == (
            bloom.m,
            bloom.k,
            bloom.seed,
            bloom.read_only,
        )
        assert bytes(loaded.bits) == bytes(bloom.bits)
        assert all(loaded.contains(key) for key in keys)

    def test_empty_filter_roundtrip(self, tmp_path):
        bloom = BloomFilter.create(10, 0.5, 0)
        path = tmp_path / "empty.bloom"
        bloom_save(bloom, path)
        loaded = bloom_load(path)
        assert bytes(loaded.bits) == bytes(bloom.bits)

    def test_read_only_flag_persisted(self, tmp_path):
        bloom = BloomFilter.create(10, 0.5, 0).freeze()
        path = tmp_path / "ro.bloom"
        bloom_save(bloom, path)
        assert bloom_load(path).read_only is True

    def test_failed_save_leaves_previous_file(self, tmp_path):
        bloom = BloomFilter.create(10, 0.5, 0)
        path = tmp_path / "f.bloom"
        bloom_save(bloom, path)
        before = path.read_bytes()
        bloom.k = 1 << 32  # does not fit the header's 4-byte field
        with pytest.raises(struct.error):
            bloom_save(bloom, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["f.bloom"]

    def test_load_reads_the_bits_without_copies(self, tmp_path):
        # a 50 MiB frozen filter, all bits clear: the file is sparse, and the
        # child's peak RSS rises by one bit array, not by the three copies a
        # whole-file read, a slice and a bytearray of it would make
        path = tmp_path / "large.bloom"
        m = 50 * 2**20 * 8
        with open(path, "wb") as f:
            f.write(struct.pack("<8sIQIQB", b"CKBLOOM1", 1, m, 3, 0, 1))
            f.truncate(f.tell() + m // 8)
        env = dict(os.environ, PYTHONPATH=str(Path(corpuskit.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", _LOAD_RSS, str(path)], env=env, check=True, capture_output=True, text=True
        ).stdout
        rise_kib, set_bits = map(int, out.split())
        assert set_bits == 0
        assert rise_kib * 1024 < 1.5 * path.stat().st_size

    @pytest.mark.parametrize(
        "magic, version, m, k, read_only, payload, reason",
        [
            (b"CKBLOOM2", 1, 16, 3, 0, 2, "bad magic"),
            (b"CKBLOOM1", 2, 16, 3, 0, 2, "unsupported bloom filter version 2"),
            (b"CKBLOOM1", 1, 16, 3, 7, 2, "read-only byte 7, expected 0 or 1"),
            (b"CKBLOOM1", 1, 0, 3, 1, 0, "need m >= 1 and k >= 1, got m=0, k=3"),
            (b"CKBLOOM1", 1, 16, 0, 1, 2, "need m >= 1 and k >= 1, got m=16, k=0"),
            (b"CKBLOOM1", 1, 2**62, 4, 1, 2, "2 payload bytes for m=4611686018427387904"),  # refused before allocating
        ],
        ids=["magic", "version", "read-only-7", "m-0", "k-0", "m-past-the-file"],
    )
    def test_corrupted_header_rejected(self, tmp_path, magic, version, m, k, read_only, payload, reason):
        path = tmp_path / "bad.bloom"
        path.write_bytes(struct.pack("<8sIQIQB", magic, version, m, k, 0, read_only) + bytes(payload))
        with pytest.raises(BloomFormatError, match=f"^{re.escape(f'{path}: ')}.*{re.escape(reason)}"):
            bloom_load(path)

    @pytest.mark.parametrize("damage", [lambda data: data[:-10], lambda data: data + b"\0"], ids=["cut", "trailing"])
    def test_payload_of_the_wrong_size_rejected(self, tmp_path, damage):
        bloom = BloomFilter.create(1000, 0.01, 0)
        path = tmp_path / "trunc.bloom"
        bloom_save(bloom, path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(BloomFormatError, match=f"^{re.escape(str(path))}: .* payload bytes for m=9586, expected 1199"):
            bloom_load(path)

    @pytest.mark.parametrize("data", [b"", b"CKBLOOM1\x01"], ids=["empty", "cut"])
    def test_truncated_header_rejected(self, tmp_path, data):
        path = tmp_path / "tiny.bloom"
        path.write_bytes(data)
        with pytest.raises(BloomFormatError, match=f"^{re.escape(str(path))}: truncated"):
            bloom_load(path)


class TestExactSet:
    def test_mirrors_bloom_interface(self):
        exact = ExactSet()
        assert exact.insert_check(b"x") is False
        assert exact.insert_check(b"x") is True
        assert exact.contains(b"x") and not exact.contains(b"y")
        assert len(exact) == 1

    def test_freeze(self):
        exact = ExactSet()
        exact.insert_check(b"a")
        exact.freeze()
        with pytest.raises(ReadOnlyFilterError):
            exact.insert_check(b"b")
        assert exact.contains(b"a")


class TestPinnedPositions:
    """v1 probe positions, written down as the format first shipped them: a
    saved v1 filter must keep probing the bits it set, whatever computes them."""

    CASES = [
        (b"corpuskit", 1000, 7, 0, [859, 50, 241, 432, 623, 814, 5]),
        (b"", 97, 3, 1, [27, 62, 0]),
        ("naïve café ☕".encode(), 4096, 5, 2**64 - 1, [2097, 174, 2347, 424, 2597]),
        (b"one probe", 12345, 1, 42, [7891]),
        (
            b"a large filter", 10_000_019, 13, 2024,
            [2852342, 9080191, 5308021, 1535851, 7763700, 3991530, 219360, 6447209, 2675039, 8902888, 5130718, 1358548,
             7586397],
        ),
    ]
    # the largest m of a 4-probe filter, k * m just under 2**64: too large for a bit array
    LARGEST_M = (
        b"largest m", (2**64 - 1) // 4, 4, 7,
        [2509124318113611278, 2298543923694085304, 2087963529274559330, 1877383134855033356],
    )

    @pytest.mark.parametrize("key, m, k, seed, expected", CASES + [LARGEST_M])
    def test_probe_positions(self, key, m, k, seed, expected):
        assert probe_positions(key_digests([key], seed), m, k).tolist() == [expected]

    @pytest.mark.parametrize("key, m, k, seed, expected", CASES)
    def test_one_key_insert_sets_exactly_those_bits(self, key, m, k, seed, expected):
        bloom = BloomFilter(m, k, seed)
        assert not bloom.insert_check(key)
        bits = bytearray((m + 7) // 8)
        for pos in expected:
            bits[pos >> 3] |= 1 << (pos & 7)
        assert bloom.bits == bits
        assert bloom.contains(key)


class TestBitsSetInOnePass:
    """``insert_check_many`` ORs the new bits of each byte into it at once;
    the bits must be those of setting each probe in turn, in Python."""

    @pytest.mark.parametrize("m, k", [(8, 3), (61, 5), (1000, 7)])
    def test_bits_equal_probe_by_probe(self, m, k):
        rng = random.Random(m)
        bloom = BloomFilter(m, k, seed=3)
        expected = bytearray(len(bloom.bits))
        shared_bytes = repeated_keys = 0
        for _ in range(30):
            keys = [b"k%d" % rng.randrange(50) for _ in range(rng.randrange(1, 9))]
            keys += rng.sample(keys, rng.randrange(0, len(keys) + 1))  # repeats within the batch
            before = bytes(expected)
            new = set()
            for pos in probe_positions(key_digests(keys, bloom.seed), m, k).ravel().tolist():
                if not before[pos >> 3] >> (pos & 7) & 1:
                    new.add(pos)
                expected[pos >> 3] |= 1 << (pos & 7)
            shared_bytes += len(new) > len({pos >> 3 for pos in new})
            repeated_keys += len(set(keys)) < len(keys)
            bloom.insert_check_many(keys)
            assert bytes(bloom.bits) == bytes(expected)
            assert bloom.set_bits == bloom.popcount()
        # some batches set two new bits of one byte, and some repeat a key
        assert shared_bytes and repeated_keys


class TestBatchOracle:
    """``insert_check_many``/``contains_many`` against the per-key loop."""

    @settings(max_examples=300, deadline=None)
    @given(
        m=st.integers(1, 64),
        k=st.integers(1, 40),
        seed=st.integers(0, 2**64 - 1),
        before=KEYS,
        batch=KEYS,
    )
    def test_flags_and_bits_match_per_key_loop(self, m, k, seed, before, batch):
        bits = bytearray((m + 7) // 8)
        for key in before:  # bits already set before the batch
            reference_insert_check(bits, m, k, seed, key)
        contained = [reference_contains(bits, m, k, seed, key) for key in batch]
        expected_bits = bytearray(bits)
        expected = [reference_insert_check(expected_bits, m, k, seed, key) for key in batch]
        assert BloomFilter(m, k, seed, bits=bytearray(bits)).contains_many(batch) == contained
        # the batch split at every point, an empty half included
        for cut in range(len(batch) + 1):
            bloom = BloomFilter(m, k, seed, bits=bytearray(bits))
            flags = bloom.insert_check_many(batch[:cut]) + bloom.insert_check_many(batch[cut:])
            assert flags == expected
            assert bytes(bloom.bits) == bytes(expected_bits)
            assert bloom.added == expected.count(False)
        # the one-key methods, batches of one, answer as the per-key loop does
        one = BloomFilter(m, k, seed, bits=bytearray(bits))
        assert [one.contains(key) for key in batch] == contained
        assert [one.insert_check(key) for key in batch] == expected
        assert bytes(one.bits) == bytes(expected_bits)
        assert one.added == expected.count(False)

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(1, 40),
        below=st.integers(0, 2**20),
        seed=st.integers(0, 2**64 - 1),
        keys=st.lists(st.binary(max_size=8), min_size=1, max_size=8),
    )
    def test_positions_up_to_the_largest_m_match_big_integers(self, k, below, seed, keys):
        # the largest m a filter of k probes accepts, and just below it; m is
        # near 2**62 for k = 4, and probe_positions needs no bit array
        m = (2**64 - 1) // k - below
        got = probe_positions(key_digests(keys, seed), m, k)
        assert got.dtype == np.uint64 and got.shape == (len(keys), k)
        assert got.tolist() == [list(reference_positions(key, m, k, seed)) for key in keys]

    @pytest.mark.parametrize("k", [1, 13, 2**32 - 1])
    def test_filters_past_64_bit_positions_refused(self, k):
        largest = (2**64 - 1) // k
        # refused before any bit array is made: the largest accepted m gets as
        # far as checking the (empty) bit array it is given, one more does not
        with pytest.raises(ValueError, match="bit array holds 0 bytes"):
            BloomFilter(largest, k, bits=bytearray())
        with pytest.raises(ValueError, match="k \\* m < 2\\*\\*64"):
            BloomFilter(largest + 1, k)

    @settings(max_examples=200, deadline=None)
    @given(offsets=st.lists(st.integers(0, 40), min_size=1, max_size=60))
    def test_first_probes_packed_and_argsort_agree(self, offsets):
        index = np.arange(len(offsets)) * 3  # ascending, with gaps
        # m = 41 packs position and index in one uint64; at m = 2**64 - 1 the
        # two fields need more than 64 bits and the stable argsort runs
        for m in (41, 2**64 - 1):
            pos = [m - 41 + offset for offset in offsets]
            first: dict[int, int] = {}
            for p, i in zip(pos, index.tolist()):
                first.setdefault(p, i)
            new, setters = _first_probes(np.array(pos, np.uint64), index, m)
            assert list(zip(new.tolist(), setters.tolist())) == sorted(first.items())

    def test_read_only_refuses_batches_and_keeps_bits(self):
        bloom = BloomFilter.create(100, 0.01, 0)
        bloom.insert_check_many([b"x"])
        bloom.freeze()
        before = bytes(bloom.bits)
        for batch in ([b"y", b"z"], []):
            with pytest.raises(ReadOnlyFilterError):
                bloom.insert_check_many(batch)
        assert bytes(bloom.bits) == before
        assert bloom.contains_many([b"x", b"y"]) == [True, False]
        exact = ExactSet()
        exact.insert_check_many([b"x"])
        exact.freeze()
        with pytest.raises(ReadOnlyFilterError):
            exact.insert_check_many([b"y"])
        assert exact.contains_many([b"x", b"y"]) == [True, False]

    def test_exact_set_batches_match_one_by_one(self):
        keys = [b"a", b"b", b"a", b"", b"", b"c", b"b"]
        one_by_one = ExactSet()
        expected = [one_by_one.insert_check(key) for key in keys]
        batched = ExactSet()
        assert batched.insert_check_many(keys[:3]) + batched.insert_check_many(keys[3:]) == expected
        assert expected == [False, False, True, False, True, False, True]

    def test_concurrent_batches_lose_no_bits(self):
        # 16 threads on 2 cores insert batches into one small filter, so they
        # set bits in the same bytes; a lost update would leave the bits short
        # of the sequential result (without the lock, most rounds do)
        keys = [f"shared-{i}".encode() for i in range(300)]
        expected = BloomFilter.create(300, 0.01, 3)
        for key in keys:
            reference_insert_check(expected.bits, expected.m, expected.k, expected.seed, key)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(30):
                bloom, one, exact = BloomFilter.create(300, 0.01, 3), BloomFilter.create(300, 0.01, 3), ExactSet()
                with ThreadPoolExecutor(max_workers=16) as pool:
                    bloom_runs = [pool.submit(bloom.insert_check_many, keys[i::16]) for i in range(16)]
                    # and the same keys one at a time into another filter
                    one_runs = [
                        pool.submit(lambda ks: [one.insert_check(k) for k in ks], keys[i::16]) for i in range(16)
                    ]
                    # overlapping batches: most keys go in from three threads
                    exact_runs = [pool.submit(exact.insert_check_many, keys[i::5]) for i in range(15)]
                    for future in bloom_runs:
                        future.result(timeout=60)
                    absent = [
                        key for i, f in enumerate(exact_runs) for key, seen in zip(keys[i::5], f.result(timeout=60))
                        if not seen
                    ]
                assert bytes(bloom.bits) == bytes(expected.bits)
                assert all(bloom.contains_many(keys))
                assert bytes(one.bits) == bytes(expected.bits)
                assert bloom.set_bits == one.set_bits == expected.popcount()
                assert one.added == sum(not seen for f in one_runs for seen in f.result(timeout=60))
                # the exact set reports each key absent exactly once
                assert sorted(absent) == sorted(keys)
        finally:
            sys.setswitchinterval(interval)
