"""Interlacing classes of two infinitesimal characters, on the standard library alone.

`periods` classifies every `branch` row here, so `branch` and `period` load this module and not :mod:`.packets`.
"""

from __future__ import annotations

import operator
from enum import Enum

from .errors import InvalidParameterError

__all__ = ["InterlaceClass", "interlace_classify", "interlace_classify_scan"]


class InterlaceClass(Enum):
    FINITE_TYPE = "FiniteType"
    INFINITE_TYPE_1 = "InfiniteType1"
    NO_PATTERN = "NoPattern"


def interlace_classify(a: list[int], b: list[int]) -> InterlaceClass:
    """Classify the interlacing pattern of two decreasing half-integer sequences, given doubled.

    Finite type:      a1 > b1 > a2 > b2 > ... through the shorter sequence.
    Infinite type 1:  b1 >= a1 > a2 > b2 > a3 > b3 > ...  (first comparison
    non-strict; the a_i > b_i > a_{i+1} alternation resumes at i = 2).

    The one-head case of `interlace_classify_scan`; an empty b, against an a of at most one entry, is finite type.
    """
    _check_lengths(len(a), len(b))
    return interlace_classify_scan(a, b[:1], b[1:])[0] if b else InterlaceClass.FINITE_TYPE


def interlace_classify_scan(a: list[int], heads: list[int], tail: list[int]) -> list[InterlaceClass]:
    """`interlace_classify` of a against each sequence [head, *tail], one class per head.

    The tail's alternation a_{i+1} > b_{i+1} > a_{i+2} is checked once; each head then takes two comparisons.
    """
    m = len(a)
    _check_lengths(m, len(tail) + 1)
    if not (all(map(operator.gt, a[1:], tail)) and all(map(operator.gt, tail, a[2:]))):
        return [InterlaceClass.NO_PATTERN] * len(heads)
    if m < 2:  # no a2: finite type exactly when a1 > b1
        return [InterlaceClass.FINITE_TYPE if a[0] > h else InterlaceClass.NO_PATTERN for h in heads]
    a1, a2 = a[0], a[1]
    at_or_above_a1 = InterlaceClass.INFINITE_TYPE_1 if a1 > a2 else InterlaceClass.NO_PATTERN  # the class of b1 >= a1
    return [InterlaceClass.FINITE_TYPE if a1 > h > a2 else at_or_above_a1 if h >= a1 else InterlaceClass.NO_PATTERN
            for h in heads]


def _check_lengths(m: int, n: int) -> None:
    if n not in (m - 1, m):
        raise InvalidParameterError(f"length mismatch: need n in {{m-1, m}}, got m={m}, n={n}")
