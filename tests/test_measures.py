import numpy as np
import pytest

from blockcoh import measures, verify
from blockcoh.blockcore import BlockPartition, block_dephase, block_projectors
from blockcoh.channels import KrausSet, gen_random
from blockcoh.measures import (
    PROBE_CHUNK,
    PROB_TOL,
    convexity_probe,
    l1_block_coherence,
    monotonicity_probe,
    probe_report,
    rel_entropy_block_coherence,
    strong_monotonicity_probe,
    von_neumann_entropy,
)
from blockcoh.sampling import haar_unitary, random_density_matrices, random_density_matrix

P23 = BlockPartition((2, 3))


def cross_state(dim, x, y):
    psi = np.zeros(dim, dtype=complex)
    psi[x] = psi[y] = 1.0 / np.sqrt(2)
    return np.outer(psi, psi.conj())


def test_entropy_examples():
    assert abs(von_neumann_entropy(np.eye(2) / 2) - 1.0) <= 1e-12
    pure = cross_state(4, 1, 3)
    assert abs(von_neumann_entropy(pure)) <= 1e-12
    assert abs(von_neumann_entropy(np.diag([0.5, 0.25, 0.25])) - 1.5) <= 1e-12


def test_entropy_rejects_negative_input():
    with pytest.raises(ValueError, match="positive"):
        von_neumann_entropy(np.diag([1.2, -0.2]))
    # one bad state in a stack is enough
    with pytest.raises(ValueError, match="positive"):
        von_neumann_entropy(np.stack([np.eye(2) / 2, np.diag([1.2, -0.2])]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            von_neumann_entropy(np.diag([bad, 0.5]))
        # a non-finite entry inside a diagonal block, where l1 sums nothing
        ones = BlockPartition((1, 1))
        for state in (np.diag([bad, 1.0]), np.stack([np.eye(2) / 2, np.diag([1.0, bad])])):
            for measure in (rel_entropy_block_coherence, l1_block_coherence):
                with pytest.raises(ValueError, match="non-finite"):
                    measure(ones, state)


def test_entropy_rejects_an_eigenvalue_above_one():
    ones = BlockPartition((1, 1))
    above = [np.diag([2.0, 0.0]), np.diag([1.5, 0.5]), np.array([[1.5, 0.4], [0.4, 0.5]])]
    for bad in above:
        for state in (bad, np.stack([np.eye(2) / 2, bad])):
            with pytest.raises(ValueError, match="eigenvalue above 1"):
                von_neumann_entropy(state)
            with pytest.raises(ValueError, match="eigenvalue above 1"):
                rel_entropy_block_coherence(ones, state)
    # inside the window the eigenvalue is clamped to 1, as a negative one to 0
    assert von_neumann_entropy(np.diag([1.0 + 1e-10, 0.0])) == 0.0
    assert von_neumann_entropy(np.diag([1.0 + 1e-10, -1e-10])) == 0.0
    # a negative eigenvalue is checked first
    with pytest.raises(ValueError, match="positive"):
        von_neumann_entropy(np.diag([1.5, -0.5]))


def test_rel_entropy_examples():
    plus = cross_state(2, 0, 1)
    assert abs(rel_entropy_block_coherence(BlockPartition((1, 1)), plus) - 1.0) <= 1e-12

    # a state supported inside one block is free, the gap vanishes
    inside = cross_state(5, 0, 1)
    assert abs(rel_entropy_block_coherence(P23, inside)) <= 1e-12

    # coherence across the (2,3) cut carries exactly one bit
    across = cross_state(5, 0, 2)
    assert abs(rel_entropy_block_coherence(P23, across) - 1.0) <= 1e-12


def test_l1_examples():
    plus = cross_state(2, 0, 1)
    assert abs(l1_block_coherence(BlockPartition((1, 1)), plus) - 1.0) <= 1e-12
    free = block_dephase(P23, random_density_matrix(5, 0))
    assert l1_block_coherence(P23, free) == 0.0
    across = cross_state(5, 0, 2)
    assert abs(l1_block_coherence(P23, across) - 1.0) <= 1e-12


def test_l1_rank_one_reduction_is_exact():
    ones = BlockPartition((1, 1, 1, 1))
    for seed in range(20):
        rho = random_density_matrix(4, seed)
        # the all-ones mask is exactly the i != j mask of the standard formula
        standard = float(np.abs(rho[~np.eye(4, dtype=bool)]).sum())
        assert l1_block_coherence(ones, rho) == standard
        # independent scalar-loop oracle, up to float accumulation order
        manual = sum(abs(rho[i, j]) for i in range(4) for j in range(4) if i != j)
        assert abs(l1_block_coherence(ones, rho) - manual) <= 1e-13


def test_dimension_checks():
    with pytest.raises(ValueError):
        rel_entropy_block_coherence(P23, np.eye(4) / 4)
    with pytest.raises(ValueError):
        l1_block_coherence(P23, np.eye(4) / 4)


def test_nonnegativity_and_faithfulness():
    # 100 states per partition and their dephasings
    assert verify.faithfulness([(1, 1), (2, 3), (1, 2, 2)], range(100), range(100)).passed


def test_block_unitary_invariance_of_entropy_gap():
    # unitaries acting inside the blocks leave the entropy gap unchanged
    rng = np.random.default_rng(0)
    for seed in range(20):
        rho = random_density_matrix(5, seed)
        u = np.zeros((5, 5), dtype=complex)
        u[:2, :2] = haar_unitary(2, rng)
        u[2:, 2:] = haar_unitary(3, rng)
        rotated = u @ rho @ u.conj().T
        before = rel_entropy_block_coherence(P23, rho)
        after = rel_entropy_block_coherence(P23, rotated)
        assert abs(before - after) <= 1e-9


def test_monotonicity_probe_examples():
    identity = KrausSet(P23, np.eye(5))
    assert monotonicity_probe(rel_entropy_block_coherence, P23, identity, trials=20, seed=0) == 0.0

    dephasing = KrausSet(P23, np.array(block_projectors(P23)))
    assert monotonicity_probe(rel_entropy_block_coherence, P23, dephasing, trials=20, seed=0) == 0.0

    assert verify.monotonicity("monotonicity", P23, range(10), trials=50).passed


def test_probe_rejects_non_free_channel():
    dense = KrausSet(P23, haar_unitary(5, 2))
    with pytest.raises(ValueError, match="not block-incoherent"):
        monotonicity_probe(rel_entropy_block_coherence, P23, dense)
    with pytest.raises(ValueError, match="not block-incoherent"):
        strong_monotonicity_probe(rel_entropy_block_coherence, P23, dense)


def test_strong_monotonicity_single_branch_matches_plain_probe():
    # one unitary branch means the selective average is the channel output
    p = BlockPartition((2, 2, 1))
    u = np.zeros((5, 5), dtype=complex)
    u[:2, 2:4] = haar_unitary(2, 7)
    u[2:4, :2] = haar_unitary(2, 8)
    u[4, 4] = 1.0
    ch = KrausSet(p, u)
    plain = monotonicity_probe(rel_entropy_block_coherence, p, ch, trials=30, seed=1)
    strong = strong_monotonicity_probe(rel_entropy_block_coherence, p, ch, trials=30, seed=1)
    assert abs(plain - strong) <= 1e-10


def test_strong_monotonicity_dephasing_on_free_input():
    dephasing = KrausSet(P23, np.array(block_projectors(P23)))
    free = block_dephase(P23, random_density_matrix(5, 3))
    total = sum(
        q * rel_entropy_block_coherence(P23, sigma)
        for q, sigma in [(float(np.trace(pk @ free @ pk).real),
                          pk @ free @ pk / np.trace(pk @ free @ pk).real)
                         for pk in dephasing.operators
                         if np.trace(pk @ free @ pk).real > 1e-12]
    )
    assert total <= 1e-12


def test_strong_monotonicity_probe_on_generated_channels():
    assert verify.monotonicity("strong-monotonicity", P23, range(10), trials=50).passed


def test_probe_report_schema():
    ch = gen_random("bio", P23, 0)
    report = probe_report("monotonicity", rel_entropy_block_coherence, P23, ch,
                          trials=20, seed=0)
    assert report == {
        "probe": "monotonicity",
        "trials": 20,
        "worst_violation": 0.0,
        "counterexample": None,
    }
    with pytest.raises(ValueError, match="unknown probe"):
        probe_report("nonsense", rel_entropy_block_coherence, P23, ch)


def test_probes_reject_an_empty_sample():
    ch = gen_random("bio", P23, 0)
    m = rel_entropy_block_coherence
    calls = [
        lambda trials: monotonicity_probe(m, P23, ch, trials=trials),
        lambda trials: strong_monotonicity_probe(m, P23, ch, trials=trials),
        lambda trials: convexity_probe(m, P23, trials=trials),
    ] + [
        lambda trials, name=name: probe_report(name, m, P23, ch, trials=trials)["worst_violation"]
        for name in measures.PROBES
    ]
    for call in calls:
        for trials in (0, -1):
            with pytest.raises(ValueError, match=f"trials must be at least 1, got {trials}"):
                call(trials)
        assert call(1) >= 0.0


def test_probe_report_captures_counterexamples():
    # a deliberately anti-monotone functional makes the dephasing channel gain
    def negated(partition, rho):
        return -rel_entropy_block_coherence(partition, rho)

    dephasing = KrausSet(P23, np.array(block_projectors(P23)))
    report = probe_report("monotonicity", negated, P23, dephasing, trials=20, seed=0)
    assert report["worst_violation"] > 0.1
    state = np.array([[complex(re, im) for re, im in row] for row in report["counterexample"]])
    gain = negated(P23, np.einsum("nij,jk,nlk->il", dephasing.operators, state,
                                  dephasing.operators.conj())) - negated(P23, state)
    assert abs(gain - report["worst_violation"]) <= 1e-12


def test_convexity_probe():
    # mixing identical states can never gain
    for measure in (rel_entropy_block_coherence, l1_block_coherence):
        assert convexity_probe(measure, P23, trials=50, seed=0) <= 1e-8
    # a mixture of free states stays free, so both sides vanish
    a = block_dephase(P23, random_density_matrix(5, 1))
    b = block_dephase(P23, random_density_matrix(5, 2))
    mix = 0.25 * a + 0.75 * b
    assert l1_block_coherence(P23, mix) == 0.0
    assert rel_entropy_block_coherence(P23, mix) <= 1e-12


# ---------------------------------------------------------------------------
# Scalar reference: the probes as one trial, one state and one measure call at
# a time, with the channel applied one operator at a time.
# ---------------------------------------------------------------------------

def reference_apply_channel(ks, rho):
    return sum(op @ rho @ op.conj().T for op in ks.operators)


def reference_branches(ks, rho):
    branches = []
    for op in ks.operators:
        out = op @ rho @ op.conj().T
        q = float(np.trace(out).real)
        if q > PROB_TOL:
            branches.append((q, out / q))
    return branches


def reference_monotonicity_scan(measure, partition, channel, trials, seed):
    worst, offender = 0.0, None
    for t in range(trials):
        rho = random_density_matrix(partition.total, seed + t)
        gain = measure(partition, reference_apply_channel(channel, rho)) - measure(partition, rho)
        if gain > worst:
            worst, offender = gain, rho
    return worst, offender


def reference_strong_monotonicity_scan(measure, partition, channel, trials, seed):
    worst, offender = 0.0, None
    for t in range(trials):
        rho = random_density_matrix(partition.total, seed + t)
        avg = sum(q * measure(partition, sigma) for q, sigma in reference_branches(channel, rho))
        gain = avg - measure(partition, rho)
        if gain > worst:
            worst, offender = gain, rho
    return worst, offender


def reference_convexity_scan(measure, partition, trials, seed):
    worst, offender = 0.0, None
    for t in range(trials):
        rng = np.random.default_rng(seed + t)
        parts = int(rng.integers(2, 5))
        weights = rng.dirichlet(np.ones(parts))
        states = [random_density_matrix(partition.total, rng) for _ in range(parts)]
        mix = sum(p * s for p, s in zip(weights, states))
        gap = measure(partition, mix) - sum(
            p * measure(partition, s) for p, s in zip(weights, states)
        )
        if gap > worst:
            worst, offender = gap, mix
    return worst, offender


ORACLE_PARTITIONS = [(2, 3), (1, 1, 1, 1), (4, 4, 4), (1, 2, 2), (1, 15)]


def negation(measure):
    def negated(partition, rho):
        return -measure(partition, rho)

    return negated


def test_batched_probes_match_scalar_reference():
    # trial counts that are not multiples of the chunk, so the last chunk is short
    trials, convex_trials = PROBE_CHUNK + 13, PROBE_CHUNK + 5
    mismatches, worst_diff, positive = 0, 0.0, 0
    for dims in ORACLE_PARTITIONS:
        p = BlockPartition(dims)
        channels = [gen_random("bio", p, seed) for seed in range(2)]
        channels.append(KrausSet(p, np.array(block_projectors(p))))
        for base in (rel_entropy_block_coherence, l1_block_coherence):
            for measure in (base, negation(base)):
                runs = [
                    (scan(measure, p, ch, trials, 11), ref(measure, p, ch, trials, 11))
                    for ch in channels
                    for scan, ref in (
                        (measures._monotonicity_scan, reference_monotonicity_scan),
                        (measures._strong_monotonicity_scan, reference_strong_monotonicity_scan),
                    )
                ]
                runs.append((measures._convexity_scan(measure, p, convex_trials, 3),
                             reference_convexity_scan(measure, p, convex_trials, 3)))
                for (worst, offender), (ref_worst, ref_offender) in runs:
                    worst_diff = max(worst_diff, abs(worst - ref_worst))
                    positive += ref_worst > 0.0
                    same = (offender is None and ref_offender is None) or (
                        offender is not None and ref_offender is not None
                        and np.array_equal(offender, ref_offender))
                    mismatches += not same
    assert mismatches == 0
    assert worst_diff <= 1e-12
    # the negated measures gain on most runs, so offenders are compared, not only zeros
    assert positive >= 40


# the oracle partitions of the channel tests; the verify suites measure on
# (1,1), (2,3) and (1,2,2), the golden corpus on (1,1), (2,1) and (1,1,1)
DEPHASING_PARTITIONS = [
    (1, 1), (2, 1), (1, 2), (2, 2), (2, 3), (3, 2), (1, 3),
    (1, 1, 1), (1, 2, 2), (2, 1, 1), (1, 1, 1, 1), (3,),
]
BIT_EQUAL_PARTITIONS = {(1, 1), (2, 3), (1, 2, 2), (2, 1), (1, 1, 1)}


def test_dephased_entropy_from_blocks_matches_the_whole_matrix():
    # S(dephase(rho)) as before: one eigvalsh of the whole dephased matrix
    rng = np.random.default_rng(24)
    worst = 0.0
    for dims in DEPHASING_PARTITIONS + [(4, 4, 4), (3, 5, 7), (1, 15), (2, 2, 2, 2)]:
        p = BlockPartition(dims)
        d = p.total
        states = random_density_matrices(d, rng, count=120)
        states[:20] = block_dephase(p, states[:20])            # free states
        psi = rng.normal(size=(20, d)) + 1j * rng.normal(size=(20, d))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        states[20:40] = psi[:, :, None] * psi[:, None, :].conj()  # pure states
        states[40:50] = block_dephase(p, states[20:30])          # their dephasings
        whole = block_dephase(p, states)
        spectra = measures._dephased_spectra(p, measures._hermitian_part(states))
        assert np.all(np.diff(spectra, axis=-1) >= 0.0)
        assert np.max(np.abs(spectra - np.linalg.eigvalsh(whole))) <= 1e-14
        got = rel_entropy_block_coherence(p, states)
        ref = von_neumann_entropy(whole) - von_neumann_entropy(states)
        # free states: exactly +0.0, also where the two spectra round apart
        free = np.r_[0:20, 40:50]
        assert np.all(got[free] == 0.0) and not np.signbit(got[free]).any(), dims
        if dims in BIT_EQUAL_PARTITIONS:
            assert np.array_equal(got, ref), dims
        worst = max(worst, float(np.max(np.abs(got - ref))))
    assert worst <= 1e-14


def test_stacked_measures_equal_scalar_calls():
    rng = np.random.default_rng(5)
    for dims in ORACLE_PARTITIONS:
        p = BlockPartition(dims)
        d = p.total
        states = np.stack([random_density_matrix(d, rng) for _ in range(6)]).reshape(2, 3, d, d)
        states[0, 1] = block_dephase(p, states[0, 1])  # a free state, with a zero gap
        fns = [
            lambda rho: von_neumann_entropy(rho),
            lambda rho: rel_entropy_block_coherence(p, rho),
            lambda rho: l1_block_coherence(p, rho),
        ]
        for fn in fns:
            stacked = fn(states)
            assert stacked.shape == (2, 3)
            scalar = [[fn(rho) for rho in row] for row in states]
            assert all(isinstance(v, float) for row in scalar for v in row)
            assert np.array_equal(stacked, np.array(scalar))
    with pytest.raises(ValueError, match="shape"):
        rel_entropy_block_coherence(P23, np.zeros((3, 4, 4)))


def test_nan_gain_does_not_hide_a_violation():
    # the negated measure gains on every trial under dephasing; trial 1 reads NaN
    dephasing = KrausSet(P23, np.array(block_projectors(P23)))
    marked = random_density_matrix(5, 1)

    def measure(partition, rho):
        values = -rel_entropy_block_coherence(partition, rho)
        return np.where(np.all(rho == marked, axis=(-2, -1)), np.nan, values)

    clean = negation(rel_entropy_block_coherence)
    for probe in (monotonicity_probe, strong_monotonicity_probe):
        assert probe(clean, P23, dephasing, trials=10, seed=0) > 0.1
        with pytest.raises(ValueError, match="NaN in trial 1"):
            probe(measure, P23, dephasing, trials=10, seed=0)
