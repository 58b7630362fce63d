"""Multiplicative k-way splitting of a field value.

A value v splits into k nonzero shares whose product is v mod p: the first
k - 1 shares are drawn uniformly from [1, p-1] and the last is forced to
v times the inverse of their product.  Any k - 1 shares say nothing about v.
"""

from __future__ import annotations

from random import Random
from typing import Sequence

from .errors import ParameterError, RegimeError
from .modmath import FieldParams, require_unit

EXHAUSTIVE_FIELD_LIMIT = 1 << 16


def check_enumerable(p: int) -> None:
    """Refuse an exact count over a field too large to sweep."""
    if p > EXHAUSTIVE_FIELD_LIMIT:
        raise RegimeError(f"field too large to enumerate (p > {EXHAUSTIVE_FIELD_LIMIT})")


def complete_split(value: int, leading: Sequence[int], params: FieldParams) -> tuple[int, ...]:
    """Deterministic completion: append the one share that makes the product
    of all k come out to ``value``."""
    require_unit(value, params, "split value")
    p = params.p
    prod = 1
    for r in leading:
        prod = prod * require_unit(r, params, "share") % p
    return (*leading, value * pow(prod, -1, p) % p)


def free_shares(count: int, params: FieldParams, rng: Random) -> list[int]:
    """The ``count`` free shares a split draws, each uniform on [1, p-1]."""
    return [rng.randrange(1, params.p) for _ in range(count)]


def split(value: int, k: int, params: FieldParams, rng: Random) -> tuple[int, ...]:
    """Split ``value`` into k shares, k - 1 of them uniform on [1, p-1]."""
    if k < 2:
        raise ParameterError("k must be at least 2")
    return complete_split(value, free_shares(k - 1, params, rng), params)


def reconstruct(shares: Sequence[int], params: FieldParams) -> int:
    """Product of all shares mod p."""
    acc = 1
    for share in shares:
        acc = acc * share % params.p
    return acc
