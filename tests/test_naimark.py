import dataclasses
import tracemalloc

import numpy as np
import pytest

from blockcoh import naimark
from blockcoh.blockcore import BlockPartition
from blockcoh.naimark import (
    NaimarkExtension,
    Povm,
    dilate,
    induced_partition,
    measurement_operators,
    verify_dilation,
)
from blockcoh.sampling import (
    as_rng,
    haar_unitary,
    random_density_matrices,
    random_density_matrix,
    random_povm,
)


def reference_measurement_operators(povm):
    # one eigh per effect
    roots = []
    for e in povm.effects:
        vals, vecs = np.linalg.eigh((e + e.conj().T) / 2)
        assert vals.min() >= -1e-9
        roots.append((vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T)
    return np.array(roots)


def reference_dilate(povm):
    # the ordered completion one candidate at a time: e_t projected twice
    # against every accepted column, skipped below norm 1e-8
    mops = reference_measurement_operators(povm)
    d, n = povm.dim, povm.n_outcomes
    big = d * n
    anc = 0
    fixed = np.zeros((big, d), dtype=complex)
    for i in range(n):
        fixed[i::n, :] = mops[i]
    v = np.zeros((big, big), dtype=complex)
    v[:, anc::n] = fixed
    remaining = [c for c in range(big) if c % n != anc]
    basis = fixed
    filled = 0
    for t in range(big):
        if filled == len(remaining):
            break
        cand = np.zeros(big, dtype=complex)
        cand[t] = 1.0
        for _ in range(2):
            cand = cand - basis @ (basis.conj().T @ cand)
        norm = float(np.linalg.norm(cand))
        if norm < 1e-8:
            continue
        cand /= norm
        v[:, remaining[filled]] = cand
        basis = np.concatenate([basis, cand[:, None]], axis=1)
        filled += 1
    assert filled == len(remaining), "orthonormal completion of the dilation failed"
    return v


def reference_verify_dilation(povm, ext, trials=100, seed=0):
    # the full-space path: tr(P_i (rho (x) |a><a|)) on the dn x dn projectors
    d, n = povm.dim, povm.n_outcomes
    anc = np.zeros((n, n), dtype=complex)
    anc[ext.ancilla_state_index, ext.ancilla_state_index] = 1.0
    rng = as_rng(seed)
    worst = 0.0
    for _ in range(trials):
        rho = random_density_matrix(d, rng)
        big_rho = np.kron(rho, anc)
        for i in range(n):
            direct = float(np.trace(povm.effects[i] @ rho).real)
            dilated = float(np.trace(ext.pvm[i] @ big_rho).real)
            worst = max(worst, abs(direct - dilated))
    return worst


def per_matrix_verify_dilation(povm, ext, trials=100, seed=0):
    # verify_dilation's products before it stacked the effects: one matmul
    # per effect and state
    d, n = povm.dim, povm.n_outcomes
    mops = ext.global_unitary[:, ext.ancilla_state_index::n].reshape(d, n, d).swapaxes(0, 1)
    compressed = mops.conj().swapaxes(-2, -1) @ mops
    rhos = random_density_matrices(d, seed, count=trials)[:, None]
    direct = np.trace(povm.effects @ rhos, axis1=-2, axis2=-1).real
    dilated = np.trace(compressed @ rhos, axis1=-2, axis2=-1).real
    return float(np.max(np.abs(direct - dilated)))


def stored_projectors(v, n):
    # the per-outcome stack dilate used to store
    big = v.shape[0]
    pvm = np.empty((n, big, big), dtype=complex)
    for i in range(n):
        rows = v[i::n, :]
        pvm[i] = rows.conj().T @ rows
    return pvm


def ancilla_swapped(ext, a):
    # the extension with V's column groups 0::n and a::n swapped: verify_dilation
    # reads V[:, 0::n], so this models an ancilla started in basis state a
    v, n = ext.global_unitary.copy(), ext.outcomes
    v[:, 0::n], v[:, a::n] = ext.global_unitary[:, a::n], ext.global_unitary[:, 0::n]
    return dataclasses.replace(ext, global_unitary=v)


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


def test_povm_rejects_entries_above_the_bound():
    # entries this large would overflow the hermitian and PSD checks
    message = "effects must have finite entries of magnitude at most 2\\*\\*500"
    for bad in (1e308, -1e308, 2.0**500 * (1 + 2**-52), 1e200j, 2.0**500 * (1 + 1j)):
        with np.errstate(all="raise"), pytest.raises(ValueError, match=message):
            Povm(np.array([np.diag([1.0, bad]), np.diag([0.0, -bad])]))
    # at the bound the checks run and name what is wrong
    with np.errstate(all="raise"), pytest.raises(ValueError, match="not positive semidefinite"):
        Povm(np.array([np.diag([1.0, 2.0**500]), np.diag([0.0, -(2.0**500)])]))


def test_povm_errors_name_the_first_bad_effect():
    good = np.eye(2) / 3
    non_psd = np.diag([1.0, -0.5]) / 3
    non_herm = np.array([[1.0, 0.5], [0.0, 1.0]]) / 3
    for effects, message in (
        ([good, non_psd, non_herm], "effect 1 is not positive semidefinite"),
        ([good, non_herm, non_psd], "effect 1 is not hermitian"),
        ([non_psd, good, good], "effect 0 is not positive semidefinite"),
        ([good, good, non_herm], "effect 2 is not hermitian"),
    ):
        with pytest.raises(ValueError, match=message):
            Povm(np.array(effects, dtype=complex))


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


def projective_povm(d, n, seed):
    # n orthogonal projectors onto consecutive groups of a Haar basis
    u = haar_unitary(d, seed)
    return Povm(np.array([u[:, g] @ u[:, g].conj().T
                          for g in np.array_split(np.arange(d), n)]))


def skip_forcing_povms():
    # inputs where some canonical candidates lie exactly in the span of the
    # fixed columns, so the completion must skip them; their square roots are
    # exact, so every candidate norm is either 0 or far above 1e-8
    rng = np.random.default_rng(5)
    yield trine_povm()
    # (16, 8) has dn > 2 * GS_PANEL, so its skips land after completed panels
    sizes = [(d, n) for d in (1, 2, 3, 5, 8) for n in (1, 2, 3, 4, 7)] + [(16, 8)]
    for d, n in sizes:
        weights = rng.dirichlet(np.ones(n), size=d).T
        yield Povm(np.array([np.diag(w).astype(complex) for w in weights]))
        labels = rng.integers(n, size=d)  # coordinate projectors
        yield Povm(np.array([np.diag(labels == i).astype(complex) for i in range(n)]))
        support = rng.random((n, d)) < 0.5  # rank-deficient effects
        support[labels, np.arange(d)] = True
        weights = weights * support
        weights /= weights.sum(axis=0)
        yield Povm(np.array([np.diag(w).astype(complex) for w in weights]))


def test_measurement_operators_match_per_effect_loop():
    rng = np.random.default_rng(2)
    povms = [Povm(random_povm(int(d), int(n), rng)) for d, n in rng.integers(1, 17, (200, 2))]
    povms += [trine_povm(), projective_povm(4, 2, 0), projective_povm(5, 5, 1)]
    for povm in povms:
        assert np.array_equal(measurement_operators(povm), reference_measurement_operators(povm))


def test_dilate_matches_loop_reference():
    ladder = [(1, 1), (2, 3), (4, 4), (8, 8), (4, 16), (16, 4), (16, 16), (24, 24)]
    povms = [Povm(random_povm(d, n, 100 * d + n)) for d, n in ladder]
    rng = np.random.default_rng(8)
    povms += [Povm(random_povm(int(d), int(n), rng)) for d, n in rng.integers(1, 9, (200, 2))]
    skips = 0
    for povm in povms + list(skip_forcing_povms()):
        v = dilate(povm).global_unitary
        assert np.max(np.abs(v - reference_dilate(povm))) <= 1e-12, (povm.dim, povm.n_outcomes)
        # with a skip, the fixed columns and the first dn - d canonical
        # vectors do not span the space
        big = v.shape[0]
        fixed_and_first = np.hstack([v[:, ::povm.n_outcomes], np.eye(big)[:, :big - povm.dim]])
        skips += np.linalg.matrix_rank(fixed_and_first) < big
    assert skips >= 40, skips


def test_rounding_decided_candidates_keep_v_unitary():
    # Haar-basis projectors have square roots with ~1e-8 entries where the
    # exact root has zeros (the root of a ~1e-16 eigenvalue), so a candidate
    # that is exactly dependent can land just above the skip norm, and the
    # column it gives is set by rounding in the loop and the panel alike.
    # The accepted candidates must still be the loop's (a different one
    # moves a column by O(1)), and V must stay unitary.
    rng = np.random.default_rng(0)
    rounding_decided = 0
    sizes = [(d, n) for d in range(2, 9) for n in range(2, d + 1) for _ in range(4)]
    # dn > GS_PANEL: the first skip set by rounding comes after a completed
    # panel, so the completion changes its projection basis midway
    sizes += [(11, 6), (12, 7)] * 4
    for d, n in sizes:
        povm = projective_povm(d, n, int(rng.integers(1 << 30)))
        ext = dilate(povm)
        v = ext.global_unitary
        gap = np.max(np.abs(v - reference_dilate(povm)))
        assert gap <= 1e-6, (d, n, gap)
        rounding_decided += gap > 1e-12
        assert np.max(np.abs(v.conj().T @ v - np.eye(d * n))) <= 1e-12
        assert verify_dilation(povm, ext, trials=5, seed=0) <= 1e-10
    assert rounding_decided > 0


def test_dilate_holds_one_global_array():
    # V is the only (dn x dn) array; a second one would lift the peak to
    # about twice V's 16 (dn)^2 bytes
    for d, n in ((16, 16), (24, 24)):
        povm = Povm(random_povm(d, n, 100 * d + n))
        tracemalloc.start()
        try:
            dilate(povm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * 16 * (d * n) ** 2, (d, n, peak)


def test_failed_completion_raises(monkeypatch):
    # a skip threshold above every candidate norm leaves the completion short
    monkeypatch.setattr(naimark, "GS_SKIP_NORM", 2.0)
    with pytest.raises(RuntimeError, match="completion"):
        dilate(trine_povm())


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
    wrong = NaimarkExtension(3, 2, np.eye(6))
    with pytest.raises(ValueError):
        verify_dilation(povm, wrong)


def test_verify_dilation_matches_full_space_reference():
    # the d x d compressed projectors against the dn x dn kron path, on
    # faithful dilations and on broken ones, where both must report the same
    # large mismatch
    cases = [((d, d), 8) for d in (1, 2, 4, 8, 16)] + [((4, 16), 4), ((16, 4), 4)]
    rng = np.random.default_rng(11)
    cases += [((int(rng.integers(1, 9)), int(rng.integers(1, 9))), 6) for _ in range(400)]
    broken_seen = 0
    for case, ((d, n), trials) in enumerate(cases):
        povm = Povm(random_povm(d, n, case))
        ext = dilate(povm)
        fast = verify_dilation(povm, ext, trials=trials, seed=case)
        assert fast <= 1e-10
        assert abs(fast - reference_verify_dilation(povm, ext, trials, case)) <= 1e-14, (d, n)
        if n > 1 and d < 16:
            shifted = ancilla_swapped(ext, 1)
            v = ext.global_unitary.copy()
            v[:, 0] *= 1.01
            scaled = dataclasses.replace(ext, global_unitary=v)
            for bad in (shifted, scaled):
                want = reference_verify_dilation(povm, bad, trials, case)
                assert abs(verify_dilation(povm, bad, trials=trials, seed=case) - want) <= 1e-14
                broken_seen += want > 1e-3
    assert broken_seen > 300


def test_verify_dilation_equals_per_matrix_products():
    # the stacked products give the per-matrix worst value bit for bit, on
    # faithful dilations and on an ancilla index that breaks them
    for d in (1, 2, 3, 4, 8, 16):
        for n in (1, 2, 4, 16):
            for seed in range(3):
                povm = Povm(random_povm(d, n, seed))
                ext = dilate(povm)
                shifted = [ancilla_swapped(ext, 1)] if n > 1 else []
                for e in [ext] + shifted:
                    for trials in (1, 20):
                        fast = verify_dilation(povm, e, trials=trials, seed=seed)
                        assert fast == per_matrix_verify_dilation(povm, e, trials, seed), (d, n)


def test_verify_dilation_fails_on_broken_dilations():
    for d, n, seed in ((2, 3, 0), (3, 2, 1), (4, 4, 2)):
        povm = Povm(random_povm(d, n, seed))
        ext = dilate(povm)
        assert verify_dilation(povm, ext, trials=20, seed=seed) <= 1e-12
        v = ext.global_unitary.copy()
        v[:, ext.ancilla_state_index] += 0.05  # perturb one column of V[:, a::n]
        perturbed = dataclasses.replace(ext, global_unitary=v)
        assert verify_dilation(povm, perturbed, trials=20, seed=seed) > 1e-3
        for a in range(1, n):
            wrong = ancilla_swapped(ext, a)
            assert verify_dilation(povm, wrong, trials=20, seed=seed) > 1e-3


def test_verify_dilation_rejects_empty_sample():
    povm = trine_povm()
    ext = dilate(povm)
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials"):
            verify_dilation(povm, ext, trials=trials)
    assert verify_dilation(povm, ext, trials=1) <= 1e-12


def test_extension_checks_its_shape_and_ancilla_index():
    with pytest.raises(ValueError, match="global unitary"):
        NaimarkExtension(2, 3, np.eye(5))
    with pytest.raises(ValueError, match="global unitary"):
        NaimarkExtension(2, 3, np.eye(6)[:, :5])
    # the ancilla index is a constant, not a constructor argument
    with pytest.raises(TypeError):
        NaimarkExtension(2, 3, np.eye(6), 2)
    assert NaimarkExtension(2, 3, np.eye(6)).ancilla_state_index == 0


def test_projectors_are_built_on_request():
    rng = np.random.default_rng(4)
    for d, n in ((1, 1), (2, 3), (3, 1), (4, 4), (5, 2)):
        povm = Povm(random_povm(d, n, rng))
        ext = dilate(povm)
        verify_dilation(povm, ext, trials=5, seed=0)
        assert "pvm" not in vars(ext)
        assert np.array_equal(ext.pvm, stored_projectors(ext.global_unitary, n))
        assert ext.pvm is ext.pvm  # built once, then kept


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
