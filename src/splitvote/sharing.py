"""Multiplicative k-way splitting of a field value.

A value v splits into k nonzero shares whose product is v mod p: the first
k - 1 shares are drawn uniformly from [1, p-1] and the last is forced to
v times the inverse of their product.  Any k - 1 shares say nothing about v.
"""

from __future__ import annotations

import itertools
from random import Random
from typing import Sequence

from .errors import ParameterError, RegimeError
from .modmath import FieldParams, require_unit

EXHAUSTIVE_FIELD_LIMIT = 1 << 16
_ENUMERATION_BUDGET = 5_000_000


def _complete_values(value: int, leading: Sequence[int], p: int) -> tuple[int, ...]:
    prod = 1
    for r in leading:
        prod = prod * r % p
    return (*leading, value * pow(prod, -1, p) % p)


def check_enumerable(p: int) -> None:
    """Refuse an exact count over a field too large to sweep."""
    if p > EXHAUSTIVE_FIELD_LIMIT:
        raise RegimeError(f"field too large to enumerate (p > {EXHAUSTIVE_FIELD_LIMIT})")


def complete_split(value: int, leading: Sequence[int], params: FieldParams) -> tuple[int, ...]:
    """Deterministic completion: append the one share that makes the product
    of all k come out to ``value``."""
    require_unit(value, params, "split value")
    for r in leading:
        require_unit(r, params, "share")
    return _complete_values(value, leading, params.p)


def split(value: int, k: int, params: FieldParams, rng: Random) -> tuple[int, ...]:
    """Split ``value`` into k shares, k - 1 of them uniform on [1, p-1]."""
    if k < 2:
        raise ParameterError("k must be at least 2")
    return complete_split(value, [rng.randrange(1, params.p) for _ in range(k - 1)], params)


def reconstruct(shares: Sequence[int], params: FieldParams) -> int:
    """Product of all shares mod p."""
    acc = 1
    for share in shares:
        acc = acc * share % params.p
    return acc


def marginal_distribution(
    value: int, k: int, positions: Sequence[int], params: FieldParams
) -> dict[tuple[int, ...], int]:
    """Exact joint distribution of the shares at ``positions``.

    Enumerates every random choice ``split`` could make ((p-1)**(k-1)
    leading tuples) and tabulates the observed share values at the given
    positions.  Small fields only.
    """
    p = params.p
    require_unit(value, params, "split value")
    # no k check: only k >= 2 has a nonempty proper subset of range(k)
    pos = tuple(positions)
    if not pos or len(pos) >= k:
        raise ParameterError("positions must be a nonempty proper subset of range(k)")
    if len(set(pos)) != len(pos) or any(not 0 <= i < k for i in pos):
        raise ParameterError("positions must be distinct indices in range(k)")
    check_enumerable(p)
    if (p - 1) ** (k - 1) > _ENUMERATION_BUDGET:
        raise RegimeError("enumeration of (p-1)**(k-1) leading tuples is too large")
    counts: dict[tuple[int, ...], int] = {}
    for leading in itertools.product(range(1, p), repeat=k - 1):
        values = _complete_values(value, leading, p)
        key = tuple(values[i] for i in pos)
        counts[key] = counts.get(key, 0) + 1
    return counts
