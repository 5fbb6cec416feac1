"""Upper bounds on the number of Kraus operators, in exact integer arithmetic.

For a partition (d_1, ..., d_k), a Kraus operator of the plain block class
has at most one nonzero block per column partition, and counting the ways to
place nonzero entries level by level gives the recurrence

    C_i = [ sum_j (2**(d_j * d_i) - 1) ] * C_{i+1},    C_{k+1} = 1,

with the bound equal to sum_i C_i.  For the strict class the nonzero blocks
of one operator occupy distinct rows, so the level counts run over injective
row choices:

    C_p = sum over injective tuples (i_p, ..., i_k) of
          prod_{l=p..k} (2**(d_{i_l} * d_l) - 1).

These sums are evaluated by a dynamic program over the set S of row blocks
already used, from level k down: f(S + {r}) += f(S) * (2**(d_r * d_l) - 1)
for every row block r outside S, and C_l is the sum of f over the sets of
size k - l + 1.  It visits at most 2**k sets instead of k! tuples.

All-ones partitions collapse these to the closed forms d(d**d - 1)/(d - 1)
and sum_k d!/(k-1)! of the rank-one theory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .blockcore import BlockPartition

# The subset DP holds up to 2**k row sets; the cap stays at the largest block
# count whose running time has been measured.
MAX_SBIO_BLOCKS = 8


@dataclass(frozen=True)
class BoundReport:
    """Per-level counts C_1..C_k and their total for one partition and class."""

    partition: BlockPartition
    kind: str                      # 'bio' | 'sbio'
    per_level: tuple[int, ...]
    total: int

    def __post_init__(self):
        if self.total != sum(self.per_level):
            raise ValueError("total does not match the per-level counts")
        if any(c < 1 for c in self.per_level):
            raise ValueError("every per-level count must be at least 1")


def bio_bound(partition: BlockPartition) -> BoundReport:
    """Evaluate the column-pattern recurrence, exactly."""
    dims = partition.dims
    k = len(dims)
    per_level = [0] * k
    c_next = 1
    for i in range(k, 0, -1):
        factor = sum(2 ** (dims[j] * dims[i - 1]) - 1 for j in range(k))
        c_next = factor * c_next
        per_level[i - 1] = c_next
    return BoundReport(partition, "bio", tuple(per_level), sum(per_level))


def sbio_bound(partition: BlockPartition) -> BoundReport:
    """Sum the injective-tuple products, exactly, by a DP over used row sets."""
    dims = partition.dims
    k = len(dims)
    if k > MAX_SBIO_BLOCKS:
        raise ValueError(
            f"partition has {k} blocks; the row-set DP is capped at {MAX_SBIO_BLOCKS}"
        )
    ways = {0: 1}  # bitmask of used row blocks -> summed products
    per_level = [0] * k
    for level in range(k - 1, -1, -1):
        weights = [2 ** (d_row * dims[level]) - 1 for d_row in dims]
        reached: dict[int, int] = {}
        for used, count in ways.items():
            for row, weight in enumerate(weights):
                bit = 1 << row
                if not used & bit:
                    reached[used | bit] = reached.get(used | bit, 0) + count * weight
        ways = reached
        per_level[level] = sum(ways.values())
    return BoundReport(partition, "sbio", tuple(per_level), sum(per_level))


def rank_one_bio_total(d: int) -> int:
    """Closed form d (d**d - 1) / (d - 1) for the all-ones partition; d >= 2."""
    if d < 2:
        raise ValueError(f"the rank-one closed forms need d >= 2, got {d}")
    return d * (d**d - 1) // (d - 1)


def rank_one_sbio_total(d: int) -> int:
    """Closed form sum_{k=1..d} d! / (k-1)! for the all-ones partition."""
    return sum(math.factorial(d) // math.factorial(k - 1) for k in range(1, d + 1))
