import numpy as np
import pytest

from blockcoh.blockcore import (
    BlockPartition,
    block_dephase,
    block_projectors,
    is_block_incoherent,
    validate_density_matrix,
)
from blockcoh.sampling import ginibre, random_density_matrix


def cross_state(dim, x, y):
    # (|x> + |y>)(<x| + <y|) / 2
    psi = np.zeros(dim, dtype=complex)
    psi[x] = psi[y] = 1.0 / np.sqrt(2)
    return np.outer(psi, psi.conj())


def test_partition_basics():
    p = BlockPartition((2, 3))
    assert p.total == 5
    assert p.num_blocks == 2
    assert p.offsets == (0, 2)
    assert p.block_slice(1) == slice(2, 5)
    assert BlockPartition([1, 1, 1]).offsets == (0, 1, 2)


def test_partition_validation():
    with pytest.raises(ValueError):
        BlockPartition(())
    with pytest.raises(ValueError):
        BlockPartition((2, 0))
    with pytest.raises(ValueError):
        BlockPartition((-1, 3))


def test_block_dephase_examples():
    # rank-one partition kills the off-diagonal of |+><+|
    plus = cross_state(2, 0, 1)
    assert np.allclose(block_dephase(BlockPartition((1, 1)), plus), np.eye(2) / 2)

    # cross-block coherence between indices 0 and 2 is erased
    p = BlockPartition((2, 3))
    rho = cross_state(5, 0, 2)
    expected = np.zeros((5, 5), dtype=complex)
    expected[0, 0] = expected[2, 2] = 0.5
    assert np.allclose(block_dephase(p, rho), expected)

    # indices 0, 1 lie inside one block, so nothing changes
    inside = cross_state(5, 0, 1)
    assert np.array_equal(block_dephase(p, inside), inside)


def test_block_dephase_dimension_mismatch():
    with pytest.raises(ValueError):
        block_dephase(BlockPartition((2, 3)), np.eye(4))


def test_block_dephase_properties():
    rng = np.random.default_rng(0)
    for dims in [(1, 1), (2, 3), (1, 2, 2), (4,)]:
        p = BlockPartition(dims)
        for _ in range(20):
            mat = ginibre(rng, p.total, p.total)
            out = block_dephase(p, mat)
            assert np.max(np.abs(block_dephase(p, out) - out)) <= 1e-12
            assert abs(np.trace(out) - np.trace(mat)) <= 1e-12
            herm = (mat + mat.conj().T) / 2
            deph = block_dephase(p, herm)
            assert np.max(np.abs(deph - deph.conj().T)) <= 1e-12


def test_rank_one_partition_is_full_dephasing():
    rng = np.random.default_rng(1)
    p = BlockPartition((1, 1, 1, 1))
    mat = ginibre(rng, 4, 4)
    assert np.array_equal(block_dephase(p, mat), np.diag(np.diag(mat)))


def test_dephased_states_are_block_incoherent():
    for dims in [(1, 1), (2, 3), (1, 2, 2)]:
        p = BlockPartition(dims)
        for seed in range(30):
            rho = random_density_matrix(p.total, seed)
            assert is_block_incoherent(p, block_dephase(p, rho))


def test_is_block_incoherent_examples():
    p = BlockPartition((2, 3))
    assert is_block_incoherent(p, np.eye(5) / 5)
    assert not is_block_incoherent(p, cross_state(5, 0, 2))
    # a single-block partition makes every state free
    assert is_block_incoherent(BlockPartition((5,)), random_density_matrix(5, 3))


def test_block_projectors():
    p = BlockPartition((2, 3))
    projs = block_projectors(p)
    assert np.allclose(sum(projs), np.eye(5))
    for i, pi in enumerate(projs):
        assert np.allclose(pi @ pi, pi)
        assert int(round(np.trace(pi).real)) == p.dims[i]
        for j, pj in enumerate(projs):
            if i != j:
                assert np.allclose(pi @ pj, 0)


def test_validate_density_matrix():
    rho = random_density_matrix(4, 0)
    assert validate_density_matrix(rho) is not None
    with pytest.raises(ValueError, match="hermitian"):
        validate_density_matrix(rho + 1e-3 * 1j * np.eye(4))
    with pytest.raises(ValueError, match="trace"):
        validate_density_matrix(2 * rho)
    bad = rho.copy()
    bad[0, 0] -= 0.3
    bad[1, 1] += 0.3
    bad[0, 1] = bad[1, 0] = 0.9
    with pytest.raises(ValueError, match="positive"):
        validate_density_matrix(bad)
    with pytest.raises(ValueError, match="square"):
        validate_density_matrix(np.ones((2, 3)))
    # NaN fails every comparison, so it must be rejected explicitly
    for value in (np.nan, np.inf, complex(0.0, np.nan)):
        bad = rho.copy()
        bad[1, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            validate_density_matrix(bad)
