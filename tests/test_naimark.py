import numpy as np
import pytest

from blockcoh.blockcore import BlockPartition
from blockcoh.naimark import (
    NaimarkExtension,
    Povm,
    dilate,
    induced_partition,
    measurement_operators,
    verify_dilation,
)
from blockcoh.sampling import random_density_matrix, random_povm


def trine_povm():
    kets = [np.array([np.cos(j * np.pi / 3), np.sin(j * np.pi / 3)]) for j in range(3)]
    return Povm(np.array([(2 / 3) * np.outer(v, v.conj()) for v in kets]))


def test_povm_validation():
    with pytest.raises(ValueError, match="hermitian"):
        Povm(np.array([[[0, 1], [0, 0]], [[1, 0], [0, 1]]], dtype=complex))
    with pytest.raises(ValueError, match="positive"):
        Povm(np.array([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])]))
    with pytest.raises(ValueError, match="identity"):
        Povm(np.array([np.eye(2), np.eye(2)]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            Povm(np.array([np.diag([1.0, bad]), np.diag([0.0, 1.0])]))
    p = Povm(np.array([np.eye(2) / 2, np.eye(2) / 2]))
    assert p.dim == 2 and p.n_outcomes == 2


def test_measurement_operators_examples():
    halves = Povm(np.array([np.eye(2) / 2, np.eye(2) / 2]))
    mops = measurement_operators(halves)
    assert np.allclose(mops[0], np.eye(2) / np.sqrt(2))

    projective = Povm(np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))
    mops = measurement_operators(projective)
    assert np.allclose(mops, projective.effects)  # projectors are their own roots

    mops = measurement_operators(trine_povm())
    kets = [np.array([np.cos(j * np.pi / 3), np.sin(j * np.pi / 3)]) for j in range(3)]
    for m, v in zip(mops, kets):
        assert np.allclose(m, np.sqrt(2 / 3) * np.outer(v, v.conj()))
    for m, e in zip(mops, trine_povm().effects):
        assert np.max(np.abs(m.conj().T @ m - e)) <= 1e-9


def test_dilate_trivial_povm():
    ext = dilate(Povm(np.eye(3)[None]))
    assert ext.outcomes == 1 and ext.system_dim == 3
    assert np.allclose(ext.global_unitary, np.eye(3))
    assert np.allclose(ext.pvm[0], np.eye(3))
    assert verify_dilation(Povm(np.eye(3)[None]), ext, trials=10, seed=0) == 0.0


def test_dilate_symmetric_pair():
    povm = Povm(np.array([np.eye(2) / 2, np.eye(2) / 2]))
    ext = dilate(povm)
    anc = np.zeros((2, 2), dtype=complex)
    anc[0, 0] = 1.0
    for seed in range(5):
        rho = random_density_matrix(2, seed)
        for i in range(2):
            prob = np.trace(ext.pvm[i] @ np.kron(rho, anc)).real
            assert abs(prob - 0.5) <= 1e-12
    assert verify_dilation(povm, ext, trials=25, seed=1) <= 1e-12


def test_trine_probabilities_frozen():
    povm = trine_povm()
    ext = dilate(povm)
    rho = np.diag([1.0, 0.0]).astype(complex)
    anc = np.zeros((3, 3), dtype=complex)
    anc[0, 0] = 1.0
    big = np.kron(rho, anc)
    expected = [2 / 3, 1 / 6, 1 / 6]
    for i in range(3):
        via_pvm = np.trace(ext.pvm[i] @ big).real
        via_effect = np.trace(povm.effects[i] @ rho).real
        assert abs(via_pvm - expected[i]) <= 1e-12
        assert abs(via_effect - expected[i]) <= 1e-12


def test_random_povm_dilations():
    rng = np.random.default_rng(0)
    for _ in range(40):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 5))
        povm = Povm(random_povm(d, n, rng))
        ext = dilate(povm)
        big = d * n
        v = ext.global_unitary
        assert np.max(np.abs(v.conj().T @ v - np.eye(big))) <= 1e-9
        assert np.max(np.abs(v @ v.conj().T - np.eye(big))) <= 1e-9
        for i in range(n):
            assert int(round(np.trace(ext.pvm[i]).real)) == d
            for j in range(n):
                want = ext.pvm[i] if i == j else 0.0
                assert np.max(np.abs(ext.pvm[i] @ ext.pvm[j] - want)) <= 1e-9
        assert np.max(np.abs(ext.pvm.sum(axis=0) - np.eye(big))) <= 1e-9
        assert verify_dilation(povm, ext, trials=25, seed=3) <= 1e-10


def test_dilation_is_deterministic():
    povm = Povm(random_povm(3, 3, 5))
    a = dilate(povm)
    b = dilate(povm)
    assert np.array_equal(a.global_unitary, b.global_unitary)
    assert np.array_equal(a.pvm, b.pvm)


def test_projective_input_reproduces_probabilities():
    projective = Povm(np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))
    ext = dilate(projective)
    anc = np.zeros((2, 2), dtype=complex)
    anc[0, 0] = 1.0
    for seed in range(10):
        rho = random_density_matrix(2, seed)
        for i in range(2):
            direct = np.trace(projective.effects[i] @ rho).real
            lifted = np.trace(ext.pvm[i] @ np.kron(rho, anc)).real
            assert abs(direct - lifted) <= 1e-12


def test_verify_dilation_dimension_check():
    povm = Povm(np.array([np.eye(2) / 2, np.eye(2) / 2]))
    wrong = NaimarkExtension(3, 2, np.eye(6), np.zeros((2, 6, 6)))
    with pytest.raises(ValueError):
        verify_dilation(povm, wrong)


def test_induced_partition_examples():
    part, perm = induced_partition(Povm(np.array([np.eye(2) / 2, np.eye(2) / 2])))
    assert part == BlockPartition((2, 2))
    assert list(perm) == [0, 2, 1, 3]

    part, perm = induced_partition(trine_povm())
    assert part == BlockPartition((2, 2, 2))
    assert sorted(perm) == list(range(6))

    part, perm = induced_partition(Povm(np.eye(4)[None]))
    assert part == BlockPartition((4,))


def test_induced_partition_reorders_ancilla_projectors():
    # under the returned reordering, each I (x) |i><i| becomes one contiguous
    # diagonal block of the partition
    povm = trine_povm()
    part, perm = induced_partition(povm)
    d, n = povm.dim, povm.n_outcomes
    for i in range(n):
        anc = np.zeros((n, n))
        anc[i, i] = 1.0
        proj = np.kron(np.eye(d), anc)
        reordered = proj[np.argsort(perm), :][:, np.argsort(perm)]
        expected = np.zeros((d * n, d * n))
        sl = part.block_slice(i)
        expected[sl, sl] = np.eye(d)
        assert np.array_equal(reordered, expected)
