import itertools
import math
import random

import pytest

from blockcoh import counting, verify
from blockcoh.blockcore import BlockPartition
from blockcoh.channels import gen_random
from blockcoh.counting import (
    BoundReport,
    bio_bound,
    rank_one_bio_total,
    rank_one_sbio_total,
    sbio_bound,
)


def compositions(total):
    # all ordered partitions of `total`
    for cuts in range(total):
        for positions in itertools.combinations(range(1, total), cuts):
            bounds = (0,) + positions + (total,)
            yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def brute_sbio_level(dims, p):
    # independent route: explicit loop over injective row assignments
    k = len(dims)
    total = 0
    for rows in itertools.permutations(range(k)):
        chosen = rows[: k - p + 1]
        term = 1
        for offset, row in enumerate(chosen):
            term *= 2 ** (dims[row] * dims[p - 1 + offset]) - 1
        total += term
    # each (k-p+1)-tuple was counted once per ordering of the unused rows
    return total // math.factorial(p - 1)


def subset_dp_sbio_levels(dims):
    # the DP over sets of used row blocks that sbio_bound ran before it
    # tracked block sizes: at most 2**k sets
    k = len(dims)
    ways = {0: 1}
    per_level = [0] * k
    for level in range(k - 1, -1, -1):
        reached = {}
        for used, count in ways.items():
            for row, d_row in enumerate(dims):
                if not used >> row & 1:
                    key = used | 1 << row
                    reached[key] = reached.get(key, 0) + count * (2 ** (d_row * dims[level]) - 1)
        ways = reached
        per_level[level] = sum(ways.values())
    return tuple(per_level)


def pairwise_bio_levels(dims):
    # the recurrence with its factor summed over every pair of blocks
    k = len(dims)
    per_level = [0] * k
    c_next = 1
    for i in range(k, 0, -1):
        c_next *= sum(2 ** (dims[j] * dims[i - 1]) - 1 for j in range(k))
        per_level[i - 1] = c_next
    return tuple(per_level)


def random_partitions(count, max_blocks, seed=0):
    rng = random.Random(seed)
    for _ in range(count):
        yield tuple(rng.randint(1, 4) for _ in range(rng.randint(1, max_blocks)))


def test_bio_bound_frozen_values():
    report = bio_bound(BlockPartition((1, 1, 1)))
    assert report.per_level == (27, 9, 3)
    assert report.total == 39

    report = bio_bound(BlockPartition((2, 2)))
    assert report.per_level == (900, 30)
    assert report.total == 930

    report = bio_bound(BlockPartition((2, 3)))
    assert report.per_level == (44772, 574)
    assert report.total == 45346


def test_sbio_bound_frozen_values():
    report = sbio_bound(BlockPartition((1, 1, 1)))
    assert report.per_level == (6, 6, 3)
    assert report.total == 15

    report = sbio_bound(BlockPartition((2, 2)))
    assert report.per_level == (450, 30)
    assert report.total == 480

    report = sbio_bound(BlockPartition((2, 3)))
    assert report.per_level == (11634, 574)
    assert report.total == 12208


def test_sbio_bound_against_brute_enumeration():
    for dims in [
        (1, 1, 1), (2, 2), (2, 3), (1, 2, 2), (3, 1, 2),
        (1,) * 6, (3, 1, 2, 1, 2, 1), (1,) * 7, (2, 1, 2, 1, 2, 1, 2),
        (1,) * 8, (2, 1, 1, 2, 1, 1, 2, 1),
    ]:
        report = sbio_bound(BlockPartition(dims))
        for p in range(1, len(dims) + 1):
            assert report.per_level[p - 1] == brute_sbio_level(dims, p)


def test_sbio_bound_against_both_oracles_on_random_partitions():
    # every level: the injective-tuple sum up to 6 blocks, the subset DP up to 8
    for dims in random_partitions(300, 8):
        levels = sbio_bound(BlockPartition(dims)).per_level
        assert levels == subset_dp_sbio_levels(dims), dims
        if len(dims) <= 6:
            assert levels == tuple(brute_sbio_level(dims, p) for p in range(1, len(dims) + 1)), dims


def test_bio_bound_against_the_pairwise_factor():
    for dims in list(random_partitions(300, 12, seed=1)) + [(1,) * 40, (1, 2) * 15, (7, 7)]:
        assert bio_bound(BlockPartition(dims)).per_level == pairwise_bio_levels(dims), dims


def test_sbio_bound_matches_the_closed_form_past_eight_blocks():
    for d in (8, 20, 40):
        assert sbio_bound(BlockPartition((1,) * d)).total == rank_one_sbio_total(d)
        assert bio_bound(BlockPartition((1,) * d)).total == rank_one_bio_total(d)


def test_rank_one_closed_forms(monkeypatch):
    for d in range(2, 7):
        assert verify.rank_one_bounds(d).passed
    assert rank_one_bio_total(2) == 6
    assert rank_one_sbio_total(2) == 4
    assert rank_one_bio_total(3) == 39
    assert rank_one_sbio_total(3) == 15
    assert rank_one_bio_total(5) == 3905
    # (1,)*d has d + 1 size-count states, so only the state cap stops the check
    assert verify.rank_one_bounds(9).passed
    monkeypatch.setattr(counting, "MAX_SBIO_STATES", 9)
    assert verify.rank_one_bounds(8).passed
    with pytest.raises(ValueError):
        verify.rank_one_bounds(9)


def test_single_block_partition():
    report = bio_bound(BlockPartition((3,)))
    assert report.per_level == (2**9 - 1,)
    assert sbio_bound(BlockPartition((3,))).total == 2**9 - 1


def test_bio_dominates_sbio_for_all_small_partitions():
    for total in range(2, 8):
        for dims in compositions(total):
            p = BlockPartition(dims)
            assert bio_bound(p).total >= sbio_bound(p).total, dims


def test_report_invariants():
    report = bio_bound(BlockPartition((1, 2, 2)))
    assert report.total == sum(report.per_level)
    assert all(c >= 1 for c in report.per_level)
    with pytest.raises(ValueError):
        BoundReport(BlockPartition((2,)), "bio", (3,), 4)


def test_block_count_cap(monkeypatch):
    # the cap is on the size-count states prod_s (m_s + 1), at least k + 1
    assert counting.MAX_SBIO_STATES == 4096
    assert sbio_bound(BlockPartition(range(1, 13))).total > 0  # 2**12 states
    message = "partition has 8192 size-count states; the SBIO DP is capped at 4096"
    with pytest.raises(ValueError, match=message):
        sbio_bound(BlockPartition(range(1, 14)))
    # the cap is the module constant
    monkeypatch.setattr(counting, "MAX_SBIO_STATES", 12)
    assert sbio_bound(BlockPartition((1, 1, 2, 2, 2))).total > 0  # 3 * 4 states
    for dims in ((1,) * 12, (1, 2, 3, 4), (1, 1, 1, 2, 2, 2)):
        with pytest.raises(ValueError, match="capped at 12"):
            sbio_bound(BlockPartition(dims))


def test_generated_channels_stay_within_bounds():
    for dims in [(1, 1), (2, 2), (2, 3), (1, 2, 2)]:
        p = BlockPartition(dims)
        bio_total = bio_bound(p).total
        sbio_total = sbio_bound(p).total
        for seed in range(10):
            assert gen_random("bio", p, seed).n_operators <= bio_total
            assert gen_random("sbio", p, seed).n_operators <= sbio_total
            assert gen_random("pbio", p, seed).n_operators <= sbio_total


def test_exact_integer_arithmetic_for_large_blocks():
    # 2**49 - 1 appears squared; floats would lose the low bits
    report = bio_bound(BlockPartition((7, 7)))
    factor = 2 * (2**49 - 1)
    assert report.per_level[1] == factor
    assert report.per_level[0] == factor * factor
    assert isinstance(report.total, int)
