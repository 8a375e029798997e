"""Document-level Pearson correlation between filters.

Two filters contribute to positive correlation when any span in a document
is tagged by both; each filter becomes a binary per-document indicator and
correlations come from the closed-form count formula. Constant indicators
have no defined correlation and are reported as flagged nulls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from corpuskit.documents import DocumentAttributes
from corpuskit.shard_io import read_attributes, zip_sidecars


@dataclass
class CorrelationMatrix:
    names: list[str]
    matrix: list[list[float | None]]  # None where an indicator is constant
    documents: int

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "matrix": self.matrix,
            "documents": self.documents,
            "constant_filters": [
                name for i, name in enumerate(self.names) if self.matrix[i][i] is None
            ],
        }


def merge_attribute_shards(shard_groups: Sequence[Sequence[str]]) -> Iterator[DocumentAttributes]:
    """Merge parallel attribute sidecars record-by-record, shard by shard.

    Each group holds sidecars for the same document shard; the first one's
    records must line up by id with each of the others, or the merge fails.
    """
    for first, *rest in shard_groups:
        for record, attrs in zip_sidecars(read_attributes(first), first, rest):
            record.merge(attrs)
            yield record


def filter_correlation(
    records: Iterable[DocumentAttributes], names: Sequence[str]
) -> CorrelationMatrix:
    """Pairwise Pearson r between per-document filter indicators."""
    names = list(names)
    k = len(names)
    ones = [0] * k  # per-filter tagged-document counts
    both = [[0] * k for _ in range(k)]  # co-tagged counts, upper triangle
    n = 0
    for rec in records:
        n += 1
        hits = [1 if rec.attributes.get(name) else 0 for name in names]
        for i in range(k):
            if not hits[i]:
                continue
            ones[i] += 1
            for j in range(i + 1, k):
                if hits[j]:
                    both[i][j] += 1

    matrix: list[list[float | None]] = [[None] * k for _ in range(k)]
    # for binary indicators sum(x^2) == sum(x), so variance terms are counts
    var = [n * ones[i] - ones[i] * ones[i] for i in range(k)]
    for i in range(k):
        if var[i] > 0:
            matrix[i][i] = 1.0
        for j in range(i + 1, k):
            if var[i] <= 0 or var[j] <= 0:
                continue
            cov = n * both[i][j] - ones[i] * ones[j]
            r = cov / (math.sqrt(var[i]) * math.sqrt(var[j]))
            matrix[i][j] = r
            matrix[j][i] = r
    return CorrelationMatrix(names=names, matrix=matrix, documents=n)
