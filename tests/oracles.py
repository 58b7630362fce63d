"""Exact secrecy oracles: every split a small field allows, counted.

They enumerate what ``split`` and the collusion attacks draw, so the tests
that use them check the secrecy claims by counting, not by sampling.
"""

import itertools
from typing import Sequence

from splitvote.errors import RegimeError
from splitvote.modmath import FieldParams, require_unit
from splitvote.sharing import check_enumerable, complete_split

_ENUMERATION_BUDGET = 5_000_000


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
    check_enumerable(p)
    if (p - 1) ** (k - 1) > _ENUMERATION_BUDGET:
        raise RegimeError("enumeration of (p-1)**(k-1) leading tuples is too large")
    counts: dict[tuple[int, ...], int] = {}
    for leading in itertools.product(range(1, p), repeat=k - 1):
        values = complete_split(value, leading, params)
        key = tuple(values[i] for i in positions)
        counts[key] = counts.get(key, 0) + 1
    return counts


def sweep_image(params: FieldParams, fixed_shares: Sequence[int]) -> list[int]:
    """Products u * prod(fixed) as u sweeps [1, p - 1].

    The image being a permutation of [1, p - 1] is the bijection behind the
    exact counts: one unknown coordinate already makes every reconstruction
    equally reachable.
    """
    base = 1
    for share in fixed_shares:
        base = base * require_unit(share, params, "fixed share") % params.p
    return [base * u % params.p for u in range(1, params.p)]
