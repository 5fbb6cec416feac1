"""Upper bounds on the number of Kraus operators, in exact integer arithmetic.

For a partition (d_1, ..., d_k), a Kraus operator of the plain block class
has at most one nonzero block per column partition, and counting the ways to
place nonzero entries level by level gives the recurrence

    C_i = [ sum_j (2**(d_j * d_i) - 1) ] * C_{i+1},    C_{k+1} = 1,

with the bound sum_i C_i, ``BoundReport.total``.  For the strict class the
nonzero blocks of one operator occupy distinct rows, so the level counts run
over injective row choices:

    C_p = sum over injective tuples (i_p, ..., i_k) of
          prod_{l=p..k} (2**(d_{i_l} * d_l) - 1).

The weight 2**(d_r * d_l) - 1 of a row block r depends only on its size,
so these sums are evaluated by a dynamic program over how many row blocks of
each size are already used, from level k down: with m_s blocks of size s of
which u_s are used, placing level l on a size-s block multiplies by
(m_s - u_s) * (2**(s * d_l) - 1), and C_l is the sum over the states that
use k - l + 1 blocks.  A state is one mixed-radix integer with digit u_s, so
there are prod_s (m_s + 1) states: k + 1 for k equal blocks, and 2**k only
when every size differs.  The BIO factor likewise depends only on the size
multiset, sum_s m_s (2**(s * d_i) - 1), so each distinct size's factor is
computed once.

All-ones partitions collapse these to the closed forms d(d**d - 1)/(d - 1)
and sum_k d!/(k-1)! of the rank-one theory.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .blockcore import BlockPartition

# Largest number of size-count states prod_s (m_s + 1) of the SBIO DP; its
# running time at the cap is measured in the README.
MAX_SBIO_STATES = 4096


@dataclass(frozen=True)
class BoundReport:
    """Per-level counts C_1..C_k for one partition and class; ``total`` is their sum."""

    partition: BlockPartition
    kind: str                      # 'bio' | 'sbio'
    per_level: tuple[int, ...]

    def __post_init__(self):
        if any(c < 1 for c in self.per_level):
            raise ValueError("every per-level count must be at least 1")

    @property
    def total(self) -> int:
        return sum(self.per_level)


def bio_bound(partition: BlockPartition) -> BoundReport:
    """Evaluate the column-pattern recurrence, exactly."""
    dims = partition.dims
    sizes = Counter(dims)
    # the level factor sum_j (2**(d_j d_i) - 1), once per distinct size d_i
    factors = {d: sum(m * (2 ** (s * d) - 1) for s, m in sizes.items()) for d in sizes}
    per_level = [0] * len(dims)
    c_next = 1
    for i in range(len(dims) - 1, -1, -1):
        c_next = factors[dims[i]] * c_next
        per_level[i] = c_next
    return BoundReport(partition, "bio", tuple(per_level))


def sbio_bound(partition: BlockPartition) -> BoundReport:
    """Sum the injective-tuple products, exactly, by a DP over used block sizes."""
    dims = partition.dims
    sizes = sorted(Counter(dims).items())  # (size, multiplicity m_s)
    strides, states = [], 1
    for _, m in sizes:
        strides.append(states)
        states *= m + 1
    if states > MAX_SBIO_STATES:
        raise ValueError(
            f"partition has {states} size-count states; the SBIO DP is capped at {MAX_SBIO_STATES}"
        )
    ways = {0: 1}  # mixed-radix used counts u_s -> summed products
    per_level = [0] * len(dims)
    for level in range(len(dims) - 1, -1, -1):
        steps = [(stride, m, 2 ** (s * dims[level]) - 1)
                 for (s, m), stride in zip(sizes, strides)]
        reached: dict[int, int] = {}
        for used, count in ways.items():
            for stride, m, weight in steps:
                free = m - used // stride % (m + 1)
                if free:
                    nxt = used + stride
                    reached[nxt] = reached.get(nxt, 0) + count * free * weight
        ways = reached
        per_level[level] = sum(ways.values())
    return BoundReport(partition, "sbio", tuple(per_level))


def rank_one_bio_total(d: int) -> int:
    """Closed form d (d**d - 1) / (d - 1) for the all-ones partition; d >= 2."""
    if d < 2:
        raise ValueError(f"the rank-one closed forms need d >= 2, got {d}")
    return d * (d**d - 1) // (d - 1)


def rank_one_sbio_total(d: int) -> int:
    """Closed form sum_{k=1..d} d! / (k-1)! for the all-ones partition."""
    return sum(math.factorial(d) // math.factorial(k - 1) for k in range(1, d + 1))
