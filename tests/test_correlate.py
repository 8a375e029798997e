import random

import numpy as np
import pytest

from corpuskit.correlate import filter_correlation, merge_attribute_shards
from corpuskit.documents import AttributeSpan, DocumentAttributes
from corpuskit.shard_io import write_attributes


def records_from_indicators(vectors: dict[str, list[int]]):
    names = list(vectors)
    n = len(next(iter(vectors.values())))
    records = []
    for i in range(n):
        attributes = {}
        for name in names:
            if vectors[name][i]:
                attributes[name] = [AttributeSpan(0, 1, 1.0)]
        records.append(DocumentAttributes(id=f"doc{i}", attributes=attributes))
    return records


class TestPearson:
    def test_identical_indicators(self):
        records = records_from_indicators({"f__a": [1, 1, 0, 0], "f__b": [1, 1, 0, 0]})
        matrix = filter_correlation(records, ["f__a", "f__b"])
        assert matrix.matrix[0][1] == 1.0

    def test_complementary_indicators(self):
        records = records_from_indicators({"f__a": [1, 1, 0, 0], "f__b": [0, 0, 1, 1]})
        matrix = filter_correlation(records, ["f__a", "f__b"])
        assert matrix.matrix[0][1] == -1.0

    def test_orthogonal_indicators(self):
        records = records_from_indicators({"f__a": [1, 1, 0, 0], "f__b": [1, 0, 1, 0]})
        matrix = filter_correlation(records, ["f__a", "f__b"])
        assert matrix.matrix[0][1] == 0.0

    def test_diagonal_is_one_for_varying_indicators(self):
        records = records_from_indicators({"f__a": [1, 0, 1]})
        matrix = filter_correlation(records, ["f__a"])
        assert matrix.matrix[0][0] == 1.0

    def test_constant_indicator_reported_as_null(self):
        records = records_from_indicators({"f__a": [1, 1, 1], "f__b": [1, 0, 1]})
        matrix = filter_correlation(records, ["f__a", "f__b"])
        assert matrix.matrix[0][0] is None
        assert matrix.matrix[0][1] is None
        assert matrix.matrix[1][1] == 1.0
        assert matrix.to_json()["constant_filters"] == ["f__a"]

    def test_matches_numpy_corrcoef(self):
        rng = random.Random(0)
        vectors = {f"f__{k}": [rng.randrange(2) for _ in range(200)] for k in "abcd"}
        # regenerate until no column is constant
        names = list(vectors)
        matrix = filter_correlation(records_from_indicators(vectors), names)
        expected = np.corrcoef(np.array([vectors[n] for n in names], dtype=float))
        for i in range(4):
            for j in range(4):
                assert matrix.matrix[i][j] == pytest.approx(expected[i][j], abs=1e-12)

    def test_symmetric_to_machine_precision(self):
        rng = random.Random(1)
        vectors = {f"f__{k}": [rng.randrange(2) for _ in range(101)] for k in "abc"}
        matrix = filter_correlation(records_from_indicators(vectors), list(vectors))
        for i in range(3):
            for j in range(3):
                assert matrix.matrix[i][j] == matrix.matrix[j][i]

    def test_values_in_unit_range(self):
        rng = random.Random(2)
        vectors = {f"f__{k}": [rng.randrange(2) for _ in range(64)] for k in "abcde"}
        matrix = filter_correlation(records_from_indicators(vectors), list(vectors))
        for row in matrix.matrix:
            for value in row:
                if value is not None:
                    assert -1.0 <= value <= 1.0

    def test_document_count(self):
        records = records_from_indicators({"f__a": [1, 0, 1, 0, 1]})
        assert filter_correlation(records, ["f__a"]).documents == 5


class TestShardMerging:
    def test_parallel_sidecars_merge_by_position(self, tmp_path):
        a = [DocumentAttributes(id="d0", attributes={"x__a": [AttributeSpan(0, 1, 1.0)]})]
        b = [DocumentAttributes(id="d0", attributes={"x__b": []})]
        write_attributes(a, tmp_path / "a.jsonl")
        write_attributes(b, tmp_path / "b.jsonl")
        (merged,) = merge_attribute_shards([[tmp_path / "a.jsonl", tmp_path / "b.jsonl"]])
        assert set(merged.attributes) == {"x__a", "x__b"}

    def test_id_misalignment_rejected(self, tmp_path):
        write_attributes([DocumentAttributes(id="d0")], tmp_path / "a.jsonl")
        write_attributes([DocumentAttributes(id="OTHER")], tmp_path / "b.jsonl")
        with pytest.raises(ValueError, match="b.jsonl misaligned"):
            list(merge_attribute_shards([[tmp_path / "a.jsonl", tmp_path / "b.jsonl"]]))

    def test_unequal_lengths_rejected(self, tmp_path):
        write_attributes([DocumentAttributes(id="d0"), DocumentAttributes(id="d1")], tmp_path / "a.jsonl")
        write_attributes([DocumentAttributes(id="d0")], tmp_path / "b.jsonl")
        with pytest.raises(ValueError, match="b.jsonl shorter"):
            list(merge_attribute_shards([[tmp_path / "a.jsonl", tmp_path / "b.jsonl"]]))
