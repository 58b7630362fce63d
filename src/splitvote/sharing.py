"""Multiplicative k-way splitting of a field value.

A value v splits into k nonzero shares whose product is v mod p: the first
k - 1 shares are drawn uniformly from [1, p-1] and the last is forced to
v times the inverse of their product.  Any k - 1 shares say nothing about v.
"""

from __future__ import annotations

import itertools
from random import Random
from typing import Sequence

from .errors import DomainError, ParameterError, RegimeError
from .modmath import FieldElement, FieldParams

EXHAUSTIVE_FIELD_LIMIT = 1 << 16
_ENUMERATION_BUDGET = 5_000_000


def _complete_values(value: int, leading: Sequence[int], p: int) -> tuple[int, ...]:
    prod = 1
    for r in leading:
        prod = prod * r % p
    return (*leading, value * pow(prod, -1, p) % p)


def complete_split(value: FieldElement, leading: Sequence[int]) -> tuple[int, ...]:
    """Deterministic completion: append the one share that makes the product
    of all k come out to ``value``."""
    if value.value == 0:
        raise DomainError("cannot split zero")
    p = value.params.p
    for r in leading:
        if not 1 <= r <= p - 1:
            raise DomainError(f"share {r} outside [1, p-1]")
    return _complete_values(value.value, leading, p)


def split(value: FieldElement, k: int, rng: Random) -> tuple[int, ...]:
    """Split ``value`` into k shares, k - 1 of them uniform on [1, p-1]."""
    if k < 2:
        raise ParameterError("k must be at least 2")
    return complete_split(value, [rng.randrange(1, value.params.p) for _ in range(k - 1)])


def reconstruct(shares: Sequence[int], params: FieldParams) -> FieldElement:
    """Product of all shares mod p."""
    acc = 1
    for share in shares:
        acc = acc * share % params.p
    return FieldElement(acc, params)


def marginal_distribution(
    value: FieldElement, k: int, positions: Sequence[int]
) -> dict[tuple[int, ...], int]:
    """Exact joint distribution of the shares at ``positions``.

    Enumerates every random choice ``split`` could make ((p-1)**(k-1)
    leading tuples) and tabulates the observed share values at the given
    positions.  Small fields only.
    """
    if value.value == 0:
        raise DomainError("cannot split zero")
    if k < 2:
        raise ParameterError("k must be at least 2")
    pos = tuple(positions)
    if not pos or len(pos) >= k:
        raise ParameterError("positions must be a nonempty proper subset of range(k)")
    if len(set(pos)) != len(pos) or any(not 0 <= i < k for i in pos):
        raise ParameterError("positions must be distinct indices in range(k)")
    p = value.params.p
    if p > EXHAUSTIVE_FIELD_LIMIT:
        raise RegimeError(f"exhaustive enumeration limited to p <= {EXHAUSTIVE_FIELD_LIMIT}")
    if (p - 1) ** (k - 1) > _ENUMERATION_BUDGET:
        raise RegimeError("enumeration of (p-1)**(k-1) leading tuples is too large")
    counts: dict[tuple[int, ...], int] = {}
    v = value.value
    for leading in itertools.product(range(1, p), repeat=k - 1):
        values = _complete_values(v, leading, p)
        key = tuple(values[i] for i in pos)
        counts[key] = counts.get(key, 0) + 1
    return counts
