import math
import random
import struct

import pytest

from corpuskit.bloom import (
    BloomFilter,
    BloomFormatError,
    ExactSet,
    ReadOnlyFilterError,
    bloom_load,
    bloom_save,
)


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

    def test_corrupted_magic_rejected(self, tmp_path):
        bloom = BloomFilter.create(10, 0.5, 0)
        path = tmp_path / "bad.bloom"
        bloom_save(bloom, path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(BloomFormatError):
            bloom_load(path)

    def test_truncated_payload_rejected(self, tmp_path):
        bloom = BloomFilter.create(1000, 0.01, 0)
        path = tmp_path / "trunc.bloom"
        bloom_save(bloom, path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(BloomFormatError):
            bloom_load(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "tiny.bloom"
        path.write_bytes(b"CKBLOOM1\x01")
        with pytest.raises(BloomFormatError):
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
