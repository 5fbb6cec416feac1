"""Hypothesis properties of the stacked sampler and the generators."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from blockcoh.blockcore import BlockPartition  # noqa: E402
from blockcoh.channels import gen_random  # noqa: E402
from blockcoh.sampling import random_density_matrices, random_density_matrix  # noqa: E402

SEEDS = st.integers(min_value=0, max_value=2**63)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 8), seeds=st.lists(SEEDS, min_size=1, max_size=12))
def test_stacked_sampler_equals_per_seed_states(dim, seeds):
    want = np.stack([random_density_matrix(dim, s) for s in seeds])
    assert np.array_equal(random_density_matrices(dim, seeds), want)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["bio", "sbio", "pbio", "unitary"]),
       dims=st.lists(st.integers(1, 4), min_size=1, max_size=4),
       seed=SEEDS)
def test_gen_random_is_deterministic(kind, dims, seed):
    p = BlockPartition(dims)
    first, second = gen_random(kind, p, seed), gen_random(kind, p, seed)
    assert np.array_equal(first.operators, second.operators)
    # signed zeros too: they show in the generator's JSON output
    assert np.array_equal(np.signbit(first.operators.view(float)),
                          np.signbit(second.operators.view(float)))
