import numpy as np
import pytest

from blockcoh.sampling import random_density_matrices, random_density_matrix


def per_seed_reference(dim, seed_or_rng):
    """One state from one generator, drawn as two (dim, dim) normal arrays."""
    rng = seed_or_rng
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("dim", range(1, 9))
def test_stacked_states_equal_per_seed_states(dim):
    seeds = [dim * 1000 + s for s in range(25)] + [0, 2**40]
    stack = random_density_matrices(dim, seeds)
    assert stack.shape == (len(seeds), dim, dim)
    want = np.stack([per_seed_reference(dim, s) for s in seeds])
    assert np.array_equal(stack, want)
    assert all(np.array_equal(stack[i], random_density_matrix(dim, s)) for i, s in enumerate(seeds))
    # a shared generator: states drawn in order, as successive one-state calls would
    rng = np.random.default_rng(dim)
    want = np.stack([per_seed_reference(dim, rng) for _ in range(7)])
    assert np.array_equal(random_density_matrices(dim, np.random.default_rng(dim), count=7), want)
    rng = np.random.default_rng(dim)
    assert np.array_equal(random_density_matrices(dim, dim, count=7),
                          np.stack([random_density_matrix(dim, rng) for _ in range(7)]))


def test_stacked_states_are_states():
    stack = random_density_matrices(4, range(50))
    assert np.allclose(stack, stack.conj().swapaxes(-1, -2))
    assert np.allclose(np.trace(stack, axis1=-2, axis2=-1), 1.0)
    assert np.linalg.eigvalsh(stack).min() > -1e-12
    assert random_density_matrices(3, []).shape == (0, 3, 3)
