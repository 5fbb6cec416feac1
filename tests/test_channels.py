import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from blockcoh import channels, verify
from blockcoh.blockcore import (
    ZERO_TOL,
    BlockPartition,
    block_dephase,
    block_labels,
    block_mask,
    block_projectors,
    is_block_incoherent,
)
from blockcoh.channels import (
    GEN_KINDS,
    KrausSet,
    PbioConstructionError,
    PbioSpec,
    CPTP_TOL,
    apply_channel,
    branch_outputs,
    block_pattern,
    build_pbio,
    classifier_report,
    cptp_deviation,
    gen_pattern_violating,
    gen_random,
    has_scaled_isometry_blocks,
    is_bio_semantic,
    is_bio_structural,
    is_mbio,
    is_sbio_semantic,
    is_sbio_structural,
    sbio_commutation_deviation,
    semantic_verdict,
    verify_cptp,
)
from blockcoh.sampling import (
    ginibre,
    haar_unitary,
    random_cptp,
    random_density_matrix,
)
from rank_one_rules import entrywise_column_rule, entrywise_row_and_column_rule

P23 = BlockPartition((2, 3))
AGREEMENT_PARTITIONS = [(1, 1), (2, 1), (2, 2), (1, 2, 2)]


def projector_set(partition):
    return KrausSet(partition, np.array(block_projectors(partition)))


def test_kraus_set_validation():
    with pytest.raises(ValueError):
        KrausSet(P23, np.empty((0, 5, 5)))
    with pytest.raises(ValueError):
        KrausSet(P23, np.zeros((2, 4, 4)))
    # above 2**500 a product of two entries, or a sum of them, can overflow
    for bad in (np.nan, np.inf, complex(0, -np.inf), 1e155, 2.0 ** 500 * (1 + 2 ** -52),
                complex(2.0 ** 500, 2.0 ** 500), complex(1e308, 1e308)):
        ops = np.eye(5, dtype=complex)
        ops[3, 1] = bad
        with pytest.raises(ValueError, match="finite entries of magnitude at most 2\\*\\*500"):
            KrausSet(P23, ops)
    assert KrausSet(P23, np.eye(5) * 2.0 ** 500).operators[0, 0, 0] == channels.MAX_ENTRY
    ks = KrausSet(P23, np.eye(5))  # single operator is promoted to a set
    assert ks.n_operators == 1 and ks.dim == 5


def test_classifiers_do_not_overflow_at_the_entry_bound():
    # at 1e155 the products overflowed to inf and every inf <= inf threshold
    # passed; at the bound they are at most 2**1000 and the verdicts hold
    x = channels.MAX_ENTRY
    dense = KrausSet(BlockPartition((1, 1)), np.full((2, 2), x))
    diagonal = KrausSet(BlockPartition((1, 1, 1, 1)), np.full((4, 4, 4), x) * np.eye(4))
    with np.errstate(all="raise"):
        for tol in (0.0, ZERO_TOL):
            assert not any(classifier_report(dense, tol)[key]
                           for key in ("cptp", "mbio", "bio_semantic", "sbio_semantic"))
            report = classifier_report(diagonal, tol)
            assert not report["cptp"] and report["mbio"] and report["sbio_semantic"]
        assert semantic_verdict(dense) == (False, x * x)
        assert semantic_verdict(diagonal, strict=True) == (True, 0.0)
        assert cptp_deviation(diagonal) == 4 * x * x - 1


def test_verify_cptp_examples():
    assert verify_cptp(KrausSet(P23, np.eye(5)))
    assert verify_cptp(projector_set(P23))
    assert not verify_cptp(KrausSet(P23, np.array([np.eye(5), np.eye(5)])))


def test_apply_channel_examples():
    rho = random_density_matrix(5, 0)
    identity = KrausSet(P23, np.eye(5))
    assert np.allclose(apply_channel(identity, rho), rho)
    assert np.allclose(apply_channel(projector_set(P23), rho), block_dephase(P23, rho))
    with pytest.raises(ValueError):
        apply_channel(identity, np.eye(4))


def test_apply_channel_on_stacks_matches_einsum():
    for dims in [(2, 3), (1, 1, 1, 1), (4, 4, 4), (1, 15)]:
        p = BlockPartition(dims)
        ks = gen_random("bio", p, 4)
        rhos = np.stack([random_density_matrix(p.total, s) for s in range(6)]).reshape(2, 3, p.total, p.total)
        out = apply_channel(ks, rhos)
        assert out.shape == rhos.shape
        for idx in np.ndindex(2, 3):
            ref = np.einsum("nij,jk,nlk->il", ks.operators, rhos[idx], ks.operators.conj())
            assert np.max(np.abs(out[idx] - ref)) <= 1e-14
            assert np.array_equal(out[idx], apply_channel(ks, rhos[idx]))
    with pytest.raises(ValueError):
        apply_channel(ks, np.zeros((3, 4, 4)))


def test_cptp_deviation_matches_einsum():
    sets = [gen_random(kind, BlockPartition(dims), seed)
            for kind in ("bio", "sbio", "pbio", "unitary")
            for dims in [(2, 3), (1, 1, 1), (4, 4, 4), (1, 15)]
            for seed in range(3)]
    sets += [KrausSet(P23, random_cptp(5, 3, seed)) for seed in range(3)]
    # incomplete sets, some within the tolerance and some outside it
    sets += [KrausSet(ks.partition, ks.operators * (1 + eps))
             for ks in sets[:6] for eps in (1e-12, 1e-6)]
    for ks in sets:
        total = np.einsum("nji,njk->ik", ks.operators.conj(), ks.operators)
        ref = float(np.max(np.abs(total - np.eye(ks.dim))))
        assert abs(cptp_deviation(ks) - ref) <= 1e-14
        assert verify_cptp(ks) == (ref <= CPTP_TOL)


def test_selective_probabilities_sum_to_one():
    for seed in range(10):
        ks = gen_random("bio", P23, seed)
        rho = random_density_matrix(5, 100 + seed)
        total = np.trace(branch_outputs(ks, rho), axis1=-2, axis2=-1).real.sum()
        assert abs(total - 1.0) <= 1e-9


def per_operator_branch_outputs(ks, rho):
    # branch_outputs before it stacked the operators: one K_n rho product
    # per operator and state
    ops = ks.operators
    return ops @ np.asarray(rho)[..., None, :, :] @ ops.conj().swapaxes(-1, -2)


def test_branch_outputs_equal_per_operator_products():
    # bit for bit, on single states and on stacks of every shape
    for dims in [(2, 3), (1, 1, 1), (1, 15), (4, 4, 4), (3, 5, 7), (1,) * 8, (8, 8, 8, 8), (2, 2)]:
        p = BlockPartition(dims)
        for kind in GEN_KINDS:
            for seed in range(3):
                ks = gen_random(kind, p, seed)
                for shape in ((), (1,), (7,), (2, 5), (32,)):
                    count = int(np.prod(shape, dtype=int))
                    rhos = np.stack([random_density_matrix(p.total, seed * 100 + t)
                                     for t in range(count)])
                    rho = rhos.reshape(shape + rhos.shape[-2:])
                    out = branch_outputs(ks, rho)
                    want = per_operator_branch_outputs(ks, rho)
                    assert out.shape == want.shape == shape + (ks.n_operators, p.total, p.total)
                    assert np.array_equal(out, want), (dims, kind, seed, shape)


def test_block_pattern_examples():
    assert np.array_equal(block_pattern(np.eye(5), P23), np.eye(2, dtype=bool))
    op = np.zeros((5, 5), dtype=complex)
    op[2:5, 0:2] = 1.0
    assert np.array_equal(block_pattern(op, P23), np.array([[False, False], [True, False]]))
    assert not block_pattern(np.zeros((5, 5)), P23).any()
    with pytest.raises(ValueError):
        block_pattern(np.eye(4), P23)
    # a NaN or infinite scale would turn every threshold test False
    # and so would a scale of 1e200, whose products overflow
    for op in ([[1, np.nan], [np.nan, 1]], [[np.inf, 0], [0, 1]], [[1e200, 0], [0, 1e200]],
               [[1e155, 1e155], [1e155, 1e155]]):
        with pytest.raises(ValueError, match="finite"):
            block_pattern(np.array(op), BlockPartition((1, 1)))


def test_structural_classifier_examples():
    assert is_bio_structural(projector_set(P23))
    assert is_sbio_structural(projector_set(P23))

    # both blocks of one column partition populated
    op = np.zeros((5, 5), dtype=complex)
    op[0, 0] = op[3, 1] = 1.0
    assert not is_bio_structural(KrausSet(P23, op))

    # a block permutation pattern is fine for the strict class
    swapish = np.zeros((5, 5), dtype=complex)
    swapish[2:5, 0:2] = ginibre(np.random.default_rng(0), 3, 2)
    swapish[0:2, 2:5] = ginibre(np.random.default_rng(1), 2, 3)
    assert is_sbio_structural(KrausSet(P23, swapish))


def test_semantic_classifier_examples():
    assert is_bio_semantic(projector_set(P23))
    assert is_sbio_semantic(projector_set(P23))
    assert is_mbio(projector_set(P23))

    dense = KrausSet(P23, haar_unitary(5, 7))
    assert verify_cptp(dense)
    assert not is_bio_semantic(dense)
    assert not is_mbio(dense)


def test_single_block_partition_everything_is_free():
    p = BlockPartition((5,))
    dense = KrausSet(p, haar_unitary(5, 3))
    assert is_bio_semantic(dense) and is_sbio_semantic(dense) and is_mbio(dense)
    assert is_bio_structural(dense) and is_sbio_structural(dense)


def test_structural_implies_semantic_on_generated_sets():
    # forward agreement of the two classifier routes, across partitions
    for dims in AGREEMENT_PARTITIONS:
        p = BlockPartition(dims)
        for kind in ("bio", "sbio"):
            sets = [gen_random(kind, p, seed) for seed in range(500)]
            assert verify.structural_implies_semantic(kind, sets).passed, (dims, kind)


def test_bio_but_not_sbio_example():
    ks = gen_pattern_violating("sbio", P23, 11)
    assert verify_cptp(ks)
    assert is_bio_structural(ks) and is_bio_semantic(ks)
    assert not is_sbio_structural(ks) and not is_sbio_semantic(ks)


@pytest.mark.parametrize("dims", [
    (2, 3), (1, 1), (2, 1), (1, 1, 1), (3, 5, 7), (4, 4, 4), (1, 15), (1,) * 8,
    (8, 8, 8, 8), (16, 16, 16),
])
def test_sbio_violators_on_every_partition(dims):
    # includes partitions whose first block is a largest block
    p = BlockPartition(dims)
    for seed in range(3):
        bad = gen_pattern_violating("sbio", p, seed)
        assert verify_cptp(bad)
        assert is_bio_structural(bad)
        assert not is_sbio_structural(bad) and not is_sbio_semantic(bad)


def test_violating_generator_rejects_single_block():
    with pytest.raises(ValueError):
        gen_pattern_violating("bio", BlockPartition((5,)), 0)
    with pytest.raises(ValueError, match="no pattern-violating generator for class 'pbio'"):
        gen_pattern_violating("pbio", P23, 0)


def test_converse_probe_random_search(tmp_path):
    # random dense channels that happen to classify as semantically free must
    # also show the block pattern; disagreements are persisted for inspection
    found = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        ks = KrausSet(P23, random_cptp(5, int(rng.integers(2, 5)), rng))
        if is_bio_semantic(ks) and not is_bio_structural(ks):
            found.append((seed, ks))
    if found:
        from blockcoh.serialize import kraus_to_json

        path = tmp_path / "converse_counterexamples.json"
        path.write_text(json.dumps([
            {"seed": seed, "kraus": kraus_to_json(ks)} for seed, ks in found
        ]))
        pytest.fail(f"{len(found)} semantic-but-not-structural sets, saved to {path}")


def test_free_state_preservation():
    for seed in range(20):
        ks = gen_random("bio", P23, seed)
        for t in range(100):
            rho = block_dephase(P23, random_density_matrix(5, 1000 * seed + t))
            assert is_block_incoherent(P23, apply_channel(ks, rho), 1e-9)
        outs = branch_outputs(ks, block_dephase(P23, random_density_matrix(5, seed)))
        for q, out in zip(np.trace(outs, axis1=-2, axis2=-1).real, outs):
            if q > 1e-6:
                assert is_block_incoherent(P23, out / q, 1e-9)


def test_commutation_deviation_detects_violations():
    rho = random_density_matrix(5, 0)
    assert sbio_commutation_deviation(KrausSet(P23, haar_unitary(5, 1)), rho) > 1e-3
    assert sbio_commutation_deviation(gen_pattern_violating("sbio", P23, 2), rho) > 1e-6


def test_rank_one_classifiers_match_entrywise_rules():
    # with all-ones blocks the pattern rules reduce to per-entry statements
    ones = BlockPartition((1, 1, 1))

    rng = np.random.default_rng(5)
    for t in range(200):
        kind = GEN_KINDS[t % 4]
        ks = gen_random(kind, ones, t) if kind != "unitary" else KrausSet(
            ones, random_cptp(3, int(rng.integers(1, 4)), t)
        )
        assert is_bio_structural(ks) == entrywise_column_rule(ks)
        assert is_sbio_structural(ks) == entrywise_row_and_column_rule(ks)


# ---------------------------------------------------------------------------
# physically built channels
# ---------------------------------------------------------------------------

def dephasing_spec(partition):
    # ancilla with one basis state per block; the joint permutation leaves the
    # system alone and shifts the ancilla index by the system block number
    k = partition.num_blocks
    anc = BlockPartition([1] * k)
    da, db = partition.total, k
    amps = np.zeros(db, dtype=complex)
    amps[0] = 1.0
    labels = np.repeat(np.arange(k), partition.dims)
    pi_sys = np.tile(np.arange(da)[:, None], (1, db))
    pi_anc = (np.tile(np.arange(db)[None, :], (da, 1)) + labels[:, None]) % k
    return PbioSpec(partition, anc, amps, pi_sys, pi_anc, np.zeros((da, db)))


def test_build_pbio_realizes_block_dephasing():
    ks = build_pbio(dephasing_spec(P23))
    projs = np.array(block_projectors(P23))
    assert ks.n_operators == 2
    got = sorted(ks.operators, key=lambda m: int(np.argmax(np.abs(np.diag(m)) > 0)))
    assert np.allclose(np.array(got), projs)
    rho = random_density_matrix(5, 4)
    assert np.allclose(apply_channel(ks, rho), block_dephase(P23, rho))


def test_build_pbio_block_swap():
    # swap the two same-sized system blocks, conditioned on a trivial ancilla
    p = BlockPartition((2, 2))
    anc = BlockPartition((1,))
    amps = np.array([1.0 + 0j])
    pi_sys = ((np.arange(4) + 2) % 4)[:, None]
    pi_anc = np.zeros((4, 1), dtype=int)
    phases = np.zeros((4, 1))
    ks = build_pbio(PbioSpec(p, anc, amps, pi_sys, pi_anc, phases))

    # expected operator straight from the reduction formula
    expected = np.zeros((4, 4), dtype=complex)
    for x in range(4):
        expected[(x + 2) % 4, x] = 1.0
    assert ks.n_operators == 1
    assert np.allclose(ks.operators[0], expected)
    assert is_sbio_structural(ks)
    rho = random_density_matrix(4, 9)
    out = apply_channel(ks, rho)
    assert np.allclose(out[2:, 2:], rho[:2, :2])
    assert np.allclose(out[:2, :2], rho[2:, 2:])


def test_build_pbio_rank_one_reduces_to_monomial_form():
    # all-ones blocks and a basis-state ancilla give operators that are a
    # unitary-permutation piece times a diagonal 0/1 projector
    ones = BlockPartition((1, 1, 1))
    anc = BlockPartition((1, 1))
    rng = np.random.default_rng(3)
    flat = rng.permutation(6)
    pi_sys = (flat // 2).reshape(3, 2)
    pi_anc = (flat % 2).reshape(3, 2)
    amps = np.array([1.0, 0.0], dtype=complex)
    phases = rng.uniform(0, 2 * np.pi, (3, 2))
    ks = build_pbio(PbioSpec(ones, anc, amps, pi_sys, pi_anc, phases))

    support_total = 0
    for op in ks.operators:
        nz = np.abs(op) > 1e-12
        assert np.all(nz.sum(axis=0) <= 1) and np.all(nz.sum(axis=1) <= 1)
        mags = np.abs(op[nz])
        assert np.allclose(mags, 1.0)
        gram = op.conj().T @ op
        assert np.allclose(gram, np.diag(np.round(np.diag(gram).real)))
        support_total += int(round(np.trace(gram).real))
    assert support_total == 3  # the projectors split the whole basis


def test_build_pbio_ancilla_superposition_within_block():
    # amplitudes spread inside one ancilla block stay admissible
    p = BlockPartition((2, 2))
    anc = BlockPartition((2,))
    rng = np.random.default_rng(8)
    g = ginibre(rng, 2)
    amps = g / np.linalg.norm(g)
    pi_sys = np.tile(np.arange(4)[:, None], (1, 2))
    pi_anc = np.tile(np.arange(2)[None, :], (4, 1))
    pi_anc = (pi_anc + (np.arange(4) // 2)[:, None]) % 2
    phases = rng.uniform(0, 2 * np.pi, (4, 2))
    ks = build_pbio(PbioSpec(p, anc, amps, pi_sys, pi_anc, phases))
    assert verify_cptp(ks)
    assert is_sbio_structural(ks)
    assert has_scaled_isometry_blocks(ks)


def with_entry(arr, index, value):
    out = arr.copy()
    out[index] = value
    return out


def test_build_pbio_errors():
    # a PbioSpec checks itself when it is made, so each bad spec raises at
    # PbioSpec(...), before build_pbio and before any numpy warning
    spec = dephasing_spec(P23)
    sys_p, anc_p = spec.system_partition, spec.ancilla_partition
    amps, pi_sys, pi_anc, phases = spec.amplitudes, spec.pi_system, spec.pi_ancilla, spec.phases
    half = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    rows = [
        ("bijection", (sys_p, anc_p, amps, np.zeros_like(pi_sys), pi_anc, phases)),
        ("normalized", (sys_p, anc_p, amps * 2.0, pi_sys, pi_anc, phases)),
        ("amplitudes and phases must be finite",
         (sys_p, anc_p, with_entry(amps, 1, np.nan), pi_sys, pi_anc, phases)),
        ("amplitudes and phases must be finite",
         (sys_p, anc_p, amps, pi_sys, pi_anc, with_entry(phases, (0, 0), np.nan))),
        ("amplitudes and phases must be finite",
         (sys_p, anc_p, amps, pi_sys, pi_anc, with_entry(phases, (2, 1), np.inf))),
        (r"pi_system must have shape \(3, 2\), got \(2, 2\)",
         (BlockPartition((3,)), BlockPartition((2,)), half,
          np.zeros((2, 2)), np.zeros((3, 2)), np.zeros((3, 2)))),
        # an equal superposition across the two blocks of a (1,1) ancilla
        ("ancilla state is not free",
         (BlockPartition((2, 1)), BlockPartition((1, 1)), half,
          [[0, 1], [2, 0], [1, 2]], [[0, 0], [0, 1], [1, 1]], np.zeros((3, 2)))),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for match, args in rows:
            with pytest.raises(ValueError, match=match):
                build_pbio(PbioSpec(*args))


def test_build_pbio_rejects_block_splitting_permutation():
    # a joint permutation that tears one system block across two is refused
    p = BlockPartition((2, 1))
    anc = BlockPartition((2,))  # one block, so the superposed ancilla state is free
    amps = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    # send (x=0, s) to system index 0 and (x=1..2, s) elsewhere, mixing blocks
    pi_sys = np.array([[0, 1], [2, 0], [1, 2]])
    pi_anc = np.array([[0, 0], [0, 1], [1, 1]])
    flat = pi_sys * 2 + pi_anc
    assert sorted(flat.ravel().tolist()) == list(range(6))
    with pytest.raises(PbioConstructionError):
        build_pbio(PbioSpec(p, anc, amps, pi_sys, pi_anc, np.zeros((3, 2))))
    # on one system block the pattern holds, but K_0's columns carry weights
    # 1 and 1/2, so its block is no scaled isometry
    with pytest.raises(PbioConstructionError, match="scalar x unitary x projector"):
        build_pbio(PbioSpec(BlockPartition((3,)), BlockPartition((2,)), amps,
                            pi_sys, pi_anc, np.zeros((3, 2))))


def test_gen_random_classes_and_determinism():
    for kind in GEN_KINDS:
        a = gen_random(kind, P23, 21)
        b = gen_random(kind, P23, 21)
        assert a.n_operators == b.n_operators
        assert np.array_equal(a.operators, b.operators)
        assert cptp_deviation(a) <= 1e-9
    assert not np.array_equal(
        gen_random("bio", P23, 1).operators, gen_random("bio", P23, 2).operators
    )
    with pytest.raises(ValueError):
        gen_random("nonsense", P23, 0)


def test_generator_takes_one_draw(monkeypatch):
    # a set the class check rejects is an error, not a reason to draw again
    calls = []
    fill = channels._kraus_from_block_patterns

    def counted(*args):
        calls.append(args)
        return fill(*args)

    monkeypatch.setattr(channels, "_kraus_from_block_patterns", counted)
    monkeypatch.setattr(channels, "is_bio_structural", lambda ks: False)
    with pytest.raises(RuntimeError, match=r"could not generate a bio set for partition \(2,3\)"):
        gen_random("bio", P23, 0)
    assert len(calls) == 1


def test_gen_random_pbio_factorization():
    for seed in range(50):
        ks = gen_random("pbio", P23, seed)
        assert has_scaled_isometry_blocks(ks)


def test_classifier_report_shape():
    rep = classifier_report(projector_set(P23))
    assert rep == {
        "cptp": True,
        "mbio": True,
        "bio_structural": True,
        "bio_semantic": True,
        "sbio_structural": True,
        "sbio_semantic": True,
        "tolerance": 1e-10,
    }


def test_deviation_helpers_are_zero_on_clean_members():
    for seed in range(20):
        assert semantic_verdict(gen_random("bio", P23, seed))[1] <= 1e-12
        assert semantic_verdict(gen_random("sbio", P23, seed), strict=True)[1] <= 1e-12


# ---------------------------------------------------------------------------
# reference oracle: the classifiers as loops over elementary basis pairs
# ---------------------------------------------------------------------------

def reference_semantic(ks, tol=ZERO_TOL):
    """{class: (verdict, deviation)} from K|x><y|K^dag, one basis pair at a time.

    A pair fails when its worst entry in the tested region exceeds
    tol * (1 + the largest entry of K|x><y|K^dag over all branches).
    """
    p = ks.partition
    labels = block_labels(p)
    on = block_mask(p)
    same = [(x, y) for x in range(p.total) for y in range(p.total) if labels[x] == labels[y]]
    cross = [(x, y) for x in range(p.total) for y in range(p.total) if labels[x] != labels[y]]
    out = {}
    for name, pairs, summed, region in (
        ("bio_semantic", same, False, ~on),
        ("mbio", same, True, ~on),
        ("cross", cross, False, on),
    ):
        holds, worst = True, 0.0
        for x, y in pairs:
            m = ks.operators[:, :, x][:, :, None] * ks.operators[:, :, y].conj()[:, None, :]
            if summed:
                m = m.sum(axis=0)
            dev = float(np.max(np.abs(m[..., region]))) if region.any() else 0.0
            worst = max(worst, dev)
            if dev > tol * (1.0 + float(np.max(np.abs(m)))):
                holds = False
        out[name] = (holds, worst)
    bio, extra = out["bio_semantic"], out.pop("cross")
    out["sbio_semantic"] = (bio[0] and extra[0], max(bio[1], extra[1]))
    return out


def reference_block_pattern(op, p, tol=ZERO_TOL):
    thr = tol * (1.0 + float(np.max(np.abs(op))))
    return np.array([
        [np.max(np.abs(op[p.block_slice(r), p.block_slice(c)])) > thr for c in range(p.num_blocks)]
        for r in range(p.num_blocks)
    ])


ORACLE_PARTITIONS = [
    (1, 1), (2, 1), (1, 2), (2, 2), (2, 3), (3, 2), (1, 3),
    (1, 1, 1), (1, 2, 2), (2, 1, 1), (1, 1, 1, 1), (3,),
]
ORACLE_SETS_PER_PARTITION = 260


def oracle_sets(dims):
    """Members of every kind, violators, dense sets and members with a leak.

    The leak puts entries of size 1e-12 to 1e-8 where a member is exactly
    zero, around the 1e-10 classifier tolerance.
    """
    p = BlockPartition(dims)
    rng = np.random.default_rng(sum(dims) * 1000 + len(dims))
    for seed in range(ORACLE_SETS_PER_PARTITION):
        case = seed % 8
        if case < 4:
            yield gen_random(GEN_KINDS[case], p, seed)
        elif case < 6 and p.num_blocks > 1:
            yield gen_pattern_violating(("bio", "sbio")[case - 4], p, seed)
        elif case < 7:
            yield KrausSet(p, random_cptp(p.total, int(rng.integers(1, 4)), rng))
        else:
            ops = gen_random(("bio", "sbio")[seed % 2], p, seed).operators.copy()
            zero = ops == 0
            leak = 10.0 ** rng.uniform(-12, -8)
            ops[zero] = leak * ginibre(rng, int(zero.sum()), 1)[:, 0]
            yield KrausSet(p, ops)


def test_block_maxima_classifiers_match_basis_loops():
    # each class: its predicate, and its (verdict, worst deviation) from one pass
    classes = {
        "bio_semantic": (is_bio_semantic, semantic_verdict),
        "sbio_semantic": (is_sbio_semantic, lambda ks: semantic_verdict(ks, True)),
        "mbio": (is_mbio, lambda ks: channels._verdict(
            channels._mbio_pairs(ks, range(ks.partition.num_blocks)), ZERO_TOL)),
    }
    count = 0
    verdicts = {name: set() for name in classes}
    for dims in ORACLE_PARTITIONS:
        for ks in oracle_sets(dims):
            count += 1
            want = reference_semantic(ks)
            report = classifier_report(ks)
            for name, (holds, verdict) in classes.items():
                got, worst = verdict(ks)
                assert holds(ks) == report[name] == got == want[name][0], (dims, name)
                assert abs(worst - want[name][1]) <= 1e-15, (dims, name)
                verdicts[name].add(want[name][0])
            for op in ks.operators:
                assert np.array_equal(block_pattern(op, ks.partition),
                                      reference_block_pattern(op, ks.partition))
    assert count >= 3000
    # the sample holds sets on both sides of every verdict
    assert all(v == {True, False} for v in verdicts.values())


def test_structural_verdicts_count_the_blocks_of_the_reference_pattern():
    # BIO: every operator has at most one nonzero block of its reference
    # pattern in each column partition; SBIO: also in each row partition
    verdicts = {tol: set() for tol in (0.0, ZERO_TOL, 1e-6)}
    for dims in ORACLE_PARTITIONS:
        for ks in oracle_sets(dims):
            for tol in verdicts:
                grids = [reference_block_pattern(op, ks.partition, tol) for op in ks.operators]
                bio = all(grid.sum(axis=0).max() <= 1 for grid in grids)
                sbio = bio and all(grid.sum(axis=1).max() <= 1 for grid in grids)
                report = classifier_report(ks, tol)
                assert (report["bio_structural"], report["sbio_structural"]) == (bio, sbio), (dims, tol)
                if tol == ZERO_TOL:
                    assert (is_bio_structural(ks), is_sbio_structural(ks)) == (bio, sbio), dims
                verdicts[tol].add((bio, sbio))
    assert all(v == {(True, True), (True, False), (False, False)} for v in verdicts.values())


def test_semantic_verdict_is_both_halves_of_one_pass():
    verdicts = set()
    for dims in ORACLE_PARTITIONS:
        for ks in itertools.islice(oracle_sets(dims), 40):
            want = reference_semantic(ks)
            for strict, name in ((False, "bio_semantic"), (True, "sbio_semantic")):
                holds, worst = semantic_verdict(ks, strict)
                assert holds == want[name][0]
                assert abs(worst - want[name][1]) <= 1e-15
                verdicts.add(holds)
            # the default is the BIO check, and the predicates return its verdict
            assert semantic_verdict(ks) == semantic_verdict(ks, False)
            assert semantic_verdict(ks)[0] == is_bio_semantic(ks)
            assert semantic_verdict(ks, True)[0] == is_sbio_semantic(ks)
    assert verdicts == {True, False}


def reference_mbio_pairs(ks):
    """The MBIO kernel before panels: one whole |Gram| (d, dc, d, dc) per column block."""
    p, ops = ks.partition, ks.operators
    off = ~block_mask(p)
    for l in range(p.num_blocks):
        cols = ops[:, :, p.block_slice(l)]
        # gram[a, x, b, y] = sum_n K_n[a, x] conj(K_n[b, y])
        gram = np.abs(np.tensordot(cols, cols.conj(), axes=(0, 0))).swapaxes(1, 2)
        yield gram[off].max(axis=0, initial=0.0), gram.max(axis=(0, 1))


PANEL_PARTITIONS = [(3, 5, 7), (8, 8, 8, 8), (16, 16, 16), (40, 3, 2), (1,) * 30]


def panel_sets(dims):
    """A member, a dense complete set and a member with a leak on ``dims``."""
    p = BlockPartition(dims)
    rng = np.random.default_rng(sum(dims))
    member = gen_random("sbio", p, 1).operators
    leaky = member.copy()
    zero = leaky == 0
    leaky[zero] = 10.0 ** rng.uniform(-12, -8) * ginibre(rng, int(zero.sum()), 1)[:, 0]
    dense = random_cptp(p.total, 3, rng)
    return [KrausSet(p, ops) for ops in (member, dense, leaky)]


@pytest.mark.parametrize("budget", [1, 700, channels.MBIO_PANEL])
def test_mbio_panels_match_whole_gram(monkeypatch, budget):
    # budget 1 makes every row a panel of its own; 700 entries splits some
    # column blocks of every partition below into panels of several rows
    monkeypatch.setattr(channels, "MBIO_PANEL", budget)
    verdicts = set()
    for ks in [ks for dims in PANEL_PARTITIONS for ks in panel_sets(dims)] + [
            ks for dims in ORACLE_PARTITIONS for ks in itertools.islice(oracle_sets(dims), 16)]:
        want = list(reference_mbio_pairs(ks))
        got = list(channels._mbio_pairs(ks, range(ks.partition.num_blocks)))
        assert len(got) == len(want)
        for (dev, scale), (want_dev, want_scale) in zip(got, want):
            assert dev.shape == want_dev.shape and scale.shape == want_scale.shape
            assert np.max(np.abs(dev - want_dev), initial=0.0) <= 1e-15
            assert np.max(np.abs(scale - want_scale)) <= 1e-15
        holds = channels._holds(want, ZERO_TOL)
        assert is_mbio(ks) == holds == classifier_report(ks)["mbio"]
        worst = channels._verdict(got, ZERO_TOL)[1]
        assert abs(worst - channels._verdict(want, ZERO_TOL)[1]) <= 1e-15
        verdicts.add(holds)
    assert verdicts == {True, False}


def test_mbio_panel_stays_within_its_budget(monkeypatch):
    # the whole |Gram| of one (16,16,16) column block is 9.4 MB as computed,
    # and reference_mbio_pairs traces 18.9 MB here; a panel is at most 1.5 MB.
    # An SBIO member's exact support opens no column block, so 1e-10 leaks
    # in its zeros make is_mbio form a Gram: it traces 3.7 MB with panels
    # and 15.5 MB with MBIO_PANEL unbounded
    p = BlockPartition((16, 16, 16))
    member = gen_random("sbio", p, 7).operators
    rng = np.random.default_rng(7)
    ks = KrausSet(p, member + 1e-10 * (member == 0) * ginibre(rng, *member.shape))
    whole, formed = channels._mbio_pairs, []

    def counted(ks, blocks):
        for pair in whole(ks, blocks):
            formed.append(pair)
            yield pair

    monkeypatch.setattr(channels, "_mbio_pairs", counted)
    tracemalloc.start()
    try:
        is_mbio(ks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert formed, "is_mbio formed no Gram"
    assert peak <= 8e6, f"is_mbio traced a peak of {peak / 1e6:.1f} MB"


def test_mbio_verdicts_match_the_whole_gram(monkeypatch):
    # classifier_report and is_mbio form the Gram only for column blocks
    # where some operator is exactly nonzero in two row blocks; the Gram of
    # every block (_mbio_pairs over range(k)) is the oracle
    whole = channels._mbio_pairs
    formed = []

    def counted(ks, blocks):
        for pair in whole(ks, blocks):
            formed.append(pair)
            yield pair

    monkeypatch.setattr(channels, "_mbio_pairs", counted)
    rng = np.random.default_rng(162)
    sets = [(seed % 8, ks) for dims in ORACLE_PARTITIONS
            for seed, ks in enumerate(itertools.islice(oracle_sets(dims), 48))]
    # leaks of exactly 1e-12, and entries of size ~1e-162, whose products
    # underflow, all checked at tol 0 too
    for dims in ((2, 3), (1, 1, 1), (2, 2)):
        p = BlockPartition(dims)
        member = gen_random("sbio", p, 5).operators
        zero = member == 0
        sets += [(7, KrausSet(p, member + leak * zero * ginibre(rng, *member.shape)))
                 for leak in (1e-12, 1e-162)]
        sets += [(6, KrausSet(p, random_cptp(p.total, 3, rng) * 1e-162)),
                 (0, KrausSet(p, member * 1e-162))]
    verdicts = {tol: set() for tol in (0.0, ZERO_TOL, 1e-6)}
    for case, ks in sets:
        cross_blocks = ks.partition.num_blocks > 1
        for tol in verdicts:
            want = channels._holds(whole(ks, range(ks.partition.num_blocks)), tol)
            formed.clear()
            assert classifier_report(ks, tol)["mbio"] == want, (ks.partition, case, tol)
            if case < 3:  # BIO, SBIO and PBIO members: every block is skipped
                assert formed == []
            if case == 7 and cross_blocks:  # a leak: the Gram ran
                assert formed
            verdicts[tol].add(want)
        formed.clear()
        assert is_mbio(ks) == channels._holds(whole(ks, range(ks.partition.num_blocks)), ZERO_TOL)
        if case == 7 and cross_blocks:
            assert formed
    assert all(v == {True, False} for v in verdicts.values())


def test_semantic_verdicts_match_every_block(monkeypatch):
    # the BIO and SBIO verdicts reduce only the column blocks that their
    # exact support leaves open (_mixed_blocks, _shared_blocks); the
    # reductions over every block (range(k)) are the oracle
    whole = {"bio": channels._bio_pairs, "cross": channels._cross_pairs}
    formed = {name: [] for name in whole}

    def counted(name):
        def pairs(amax, p, blocks):
            for pair in whole[name](amax, p, blocks):
                formed[name].append(pair)
                yield pair
        return pairs

    monkeypatch.setattr(channels, "_bio_pairs", counted("bio"))
    monkeypatch.setattr(channels, "_cross_pairs", counted("cross"))

    def oracle(ks, tol):
        amax = channels._row_block_maxima(ks.operators, ks.partition)
        every = range(ks.partition.num_blocks)
        bio = list(whole["bio"](amax, ks.partition, every))
        cross = list(whole["cross"](amax, ks.partition, every))
        return {"bio_semantic": channels._verdict(bio, tol),
                "sbio_semantic": channels._verdict(bio + cross, tol)}

    rng = np.random.default_rng(24)
    sets = [(seed % 8, ks) for dims in ORACLE_PARTITIONS
            for seed, ks in enumerate(itertools.islice(oracle_sets(dims), 48))]
    # leaks of exactly 1e-12, and entries of size ~1e-162, whose products
    # underflow, all checked at tol 0 too
    for dims in ((2, 3), (1, 1, 1), (2, 2)):
        p = BlockPartition(dims)
        for kind in ("bio", "sbio"):
            member = gen_random(kind, p, 5).operators
            zero = member == 0
            sets += [(7, KrausSet(p, member + leak * zero * ginibre(rng, *member.shape)))
                     for leak in (1e-12, 1e-162)]
            sets.append((GEN_KINDS.index(kind), KrausSet(p, member * 1e-162)))
        sets.append((6, KrausSet(p, random_cptp(p.total, 3, rng) * 1e-162)))
    verdicts = {tol: set() for tol in (0.0, ZERO_TOL, 1e-6)}
    for case, ks in sets:
        cross_blocks = ks.partition.num_blocks > 1
        for tol in verdicts:
            want = oracle(ks, tol)
            formed["bio"].clear(), formed["cross"].clear()
            report = classifier_report(ks, tol)
            assert report["bio_semantic"] == want["bio_semantic"][0], (ks.partition, case, tol)
            assert report["sbio_semantic"] == want["sbio_semantic"][0], (ks.partition, case, tol)
            if case < 3:  # BIO, SBIO and PBIO members: no BIO block is reduced
                assert formed["bio"] == []
            if case in (1, 2):  # SBIO and PBIO members: no cross block either
                assert formed["cross"] == []
            if case == 7 and cross_blocks:  # a leak: the reductions ran
                assert formed["bio"] and (formed["cross"] or not report["bio_semantic"])
            verdicts[tol].add(want["sbio_semantic"][0])
        want = oracle(ks, ZERO_TOL)
        for strict, name, holds in ((False, "bio_semantic", is_bio_semantic),
                                    (True, "sbio_semantic", is_sbio_semantic)):
            formed["bio"].clear(), formed["cross"].clear()
            # the skipped deviations are exactly 0, so the worst one is the same bits
            assert semantic_verdict(ks, strict) == want[name], (ks.partition, case, name)
            if case == 7 and cross_blocks:
                assert formed["bio"] and (formed["cross"] or not strict)
            assert holds(ks) == want[name][0]
    assert all(v == {True, False} for v in verdicts.values())


def test_members_skip_the_whole_mbio_gram(monkeypatch):
    # BIO, SBIO and PBIO members, the classify-ladder kinds, form no Gram block
    calls = []
    monkeypatch.setattr(channels, "_mbio_pairs",
                        lambda ks, blocks: calls.append(list(blocks)) or iter(()))
    for dims in ((2, 3), (3, 5, 7), (1,) * 8, (8, 8, 8, 8)):
        for kind in ("bio", "sbio", "pbio"):
            ks = gen_random(kind, BlockPartition(dims), 3)
            calls.clear()
            assert classifier_report(ks)["mbio"] and is_mbio(ks)
            assert calls == [[], []], (kind, dims)


def test_classifier_report_computes_block_maxima_once(monkeypatch):
    calls = []
    maxima = channels._row_block_maxima
    monkeypatch.setattr(channels, "_row_block_maxima",
                        lambda ops, p: calls.append(ops.shape) or maxima(ops, p))
    rng = np.random.default_rng(3)
    for ks in (gen_random("sbio", P23, 7), gen_pattern_violating("bio", P23, 3),
               gen_pattern_violating("sbio", P23, 3), KrausSet(P23, random_cptp(5, 2, rng))):
        for tol in (0.0, ZERO_TOL):
            calls.clear()
            classifier_report(ks, tol)
            assert len(calls) == 1


def test_classifier_report_rejects_a_tolerance_that_is_not_finite_and_nonnegative():
    # at nan the parent reported bio_structural but not bio_semantic, and at
    # -1 every class false; the command line's --tol has the same rule
    ks = gen_random("sbio", P23, 7)
    for tol, shown in ((float("nan"), "nan"), (-1, "-1"), (-1e-300, "-1e-300"),
                       (float("inf"), "inf"), (-float("inf"), "-inf")):
        with pytest.raises(ValueError) as exc:
            classifier_report(ks, tol)
        assert str(exc.value) == f"tolerance must be finite and >= 0, got {shown}"
    assert all(classifier_report(ks, tol)["sbio_semantic"] for tol in (0.0, 0, 1e300))


# ---------------------------------------------------------------------------
# reference oracles: the generator, the commutation check and the PBIO
# helpers as they were before they were stacked
# ---------------------------------------------------------------------------

def pattern_rows(partition, patterns, c):
    # the stacked rows that column block c may occupy
    d = partition.total
    slices = [[partition.block_slice(r) for r in pat[c]] for pat in patterns]
    return np.array([n * d + i for n, sls in enumerate(slices) for sl in sls
                     for i in range(sl.start, sl.stop)], dtype=int)


def reference_kraus_from_block_patterns(partition, patterns, rng):
    """Completion that carries the fixed columns as a separate widened array."""
    d = partition.total
    n_ops = len(patterns)
    stacked = np.zeros((n_ops * d, d), dtype=complex)
    accepted = np.zeros((n_ops * d, 0), dtype=complex)
    for c in range(partition.num_blocks):
        rows = pattern_rows(partition, patterns, c)
        dc = partition.dims[c]
        q = channels._complete_block(accepted[rows, :], dc, rng)
        cs = partition.block_slice(c)
        stacked[np.ix_(rows, range(cs.start, cs.stop))] = q
        widened = np.zeros((n_ops * d, dc), dtype=complex)
        widened[rows, :] = q
        accepted = np.concatenate([accepted, widened], axis=1)
    return stacked.reshape(n_ops, d, d)


GENERATOR_PARTITIONS = [(2, 3), (1, 1, 1), (3, 5, 7), (4, 4, 4), (1, 15), (1,) * 8,
                        (8, 8, 8, 8), (2, 2), (1, 2, 2)]


def test_generator_matches_widened_completion(monkeypatch):
    def generate():
        out = []
        for dims in GENERATOR_PARTITIONS:
            p = BlockPartition(dims)
            for seed in range(4 if p.total < 20 else 2):
                for kind in ("bio", "sbio"):
                    out.append(gen_random(kind, p, seed).operators)
                    out.append(gen_pattern_violating(kind, p, seed).operators)
        return out

    fast = generate()
    monkeypatch.setattr(channels, "_kraus_from_block_patterns",
                        reference_kraus_from_block_patterns)
    slow = generate()
    assert len(fast) == len(slow) == 4 * (8 * 4 + 1 * 2)
    for a, b in zip(fast, slow):
        assert np.array_equal(a, b)


def reference_nullspace(constraints, dim):
    # Orthonormal basis of {w : constraints @ w = 0} in C^dim from a full SVD:
    # the completion's null basis before the projected Gaussian panel.
    if constraints.shape[0] == 0:
        return np.eye(dim, dtype=complex)
    u, s, vh = np.linalg.svd(constraints)
    cutoff = (s[0] if s.size else 0.0) * 1e-12
    rank = int(np.sum(s > cutoff))
    return vh[rank:].conj().T


def random_block_patterns(partition, rng):
    """Patterns of every shape the completion meets, infeasible ones included.

    Single-row BIO and SBIO patterns, multi-row patterns, both violator
    shapes, and patterns with too few operators to complete.
    """
    k, d = partition.num_blocks, partition.total
    out = []
    for _ in range(3):
        n_ops = d + int(rng.integers(0, 3))
        out.append([[[int(rng.integers(k))] for _ in range(k)] for _ in range(n_ops)])
        out.append([[[int(r)] for r in rng.permutation(k)] for _ in range(n_ops)])
        out.append([[sorted(rng.choice(k, int(rng.integers(1, k + 1)), replace=False).tolist())
                     for _ in range(k)] for _ in range(max(1, n_ops // 2))])
        if k >= 2:
            bio = [[[int(rng.integers(k))] for _ in range(k)] for _ in range(n_ops)]
            r1 = bio[0][0][0]
            bio[0][0] = [r1, (r1 + 1 + int(rng.integers(k - 1))) % k]
            out.append(bio)
            sbio = [[[int(r)] for r in rng.permutation(k)] for _ in range(n_ops)]
            largest = [int(np.argmax(partition.dims))]
            for n in (0, 1):
                sbio[n][0] = sbio[n][1] = largest
            out.append(sbio)
        few = int(rng.integers(1, max(2, d // 2)))
        out.append([[[int(rng.integers(k))] for _ in range(k)] for _ in range(few)])
    return out


def test_projected_panel_fill_matches_null_basis_fill():
    """The panel fill raises where the full-SVD null basis is too small, and
    every block it fills lies in that null space."""
    raised = filled = 0
    for dims in GENERATOR_PARTITIONS + [(16, 16, 16)]:
        p = BlockPartition(dims)
        d = p.total
        patterns_rng = np.random.default_rng(sum(dims) * 1000 + len(dims))
        patterns = random_block_patterns(p, patterns_rng)
        if d > 40:
            patterns = patterns[:6] + patterns[-1:]
        for t, patterns_t in enumerate(patterns):
            rng = np.random.default_rng(t)
            stacked = np.zeros((len(patterns_t) * d, d), dtype=complex)
            failed = False
            for c in range(p.num_blocks):
                rows = pattern_rows(p, patterns_t, c)
                start, dc = p.offsets[c], p.dims[c]
                fixed = stacked[rows, :start]
                basis = reference_nullspace(fixed.conj().T, len(rows))
                try:
                    q = channels._complete_block(fixed, dc, rng)
                except RuntimeError:
                    assert basis.shape[1] < dc
                    failed = True
                    break
                assert basis.shape[1] >= dc
                assert np.max(np.abs(q - basis @ (basis.conj().T @ q))) <= 1e-12
                stacked[rows, start:start + dc] = q
            if failed:
                raised += 1
                with pytest.raises(RuntimeError, match=f"column block {c} infeasible"):
                    channels._kraus_from_block_patterns(p, patterns_t, np.random.default_rng(t))
                continue
            filled += 1
            ops = channels._kraus_from_block_patterns(p, patterns_t, np.random.default_rng(t))
            assert np.array_equal(ops, stacked.reshape(-1, d, d))
            assert cptp_deviation(KrausSet(p, ops)) <= 1e-12
    assert raised >= 10 and filled >= 100


def reference_commutation_deviation(ks, rho):
    mask = block_mask(ks.partition)
    ops = ks.operators
    out = np.einsum("nij,...jk,nlk->...nil", ops, rho, ops.conj())
    rhs = np.einsum("nij,...jk,nlk->...nil", ops, rho * mask, ops.conj())
    return float(np.max(np.abs(out * mask - rhs)))


def test_commutation_deviation_matches_einsum():
    for dims in [(2, 3), (1, 1, 1), (4, 4, 4), (1, 15), (1, 2, 2)]:
        p = BlockPartition(dims)
        for seed in range(10):
            ks = gen_random("sbio", p, seed)
            rhos = np.stack([random_density_matrix(p.total, 10 * seed + r) for r in range(10)])
            for rho in (rhos, rhos[0]):
                fast = sbio_commutation_deviation(ks, rho)
                assert abs(fast - reference_commutation_deviation(ks, rho)) <= 1e-15
    ks = gen_pattern_violating("sbio", P23, 11)  # BIO, not SBIO
    assert is_bio_semantic(ks) and not is_sbio_semantic(ks)
    rhos = np.stack([random_density_matrix(5, r) for r in range(10)])
    fast = sbio_commutation_deviation(ks, rhos)
    assert fast > 1e-3
    assert abs(fast - reference_commutation_deviation(ks, rhos)) <= 1e-14
    with pytest.raises(ValueError):
        sbio_commutation_deviation(ks, np.eye(4))


def reference_scaled_isometry_blocks(ks, tol=ZERO_TOL):
    p = ks.partition
    for n, r, c in np.argwhere(np.array([reference_block_pattern(op, p, tol) for op in ks.operators])):
        blk = ks.operators[n][p.block_slice(r), p.block_slice(c)]
        gram = blk.conj().T @ blk
        thr = tol * (1.0 + float(np.max(np.abs(gram))))
        if float(np.max(np.abs(gram - np.diag(np.diag(gram))))) > thr:
            return False
        diag = np.diag(gram).real
        live = diag[diag > thr]
        if live.size and float(live.max() - live.min()) > thr:
            return False
    return True


def test_scaled_isometry_blocks_match_block_loop():
    verdicts = set()
    for dims in ORACLE_PARTITIONS + [(4, 4, 4), (1, 15), (3, 5, 7)]:
        p = BlockPartition(dims)
        for seed in range(30):
            for ks in (gen_random("pbio", p, seed), gen_random(GEN_KINDS[seed % 4], p, seed)):
                want = reference_scaled_isometry_blocks(ks)
                assert has_scaled_isometry_blocks(ks) == want, (dims, seed)
                verdicts.add(want)
                # a scaled copy of one nonzero block's column breaks equal scaling
                ops = ks.operators.copy()
                n, col = np.unravel_index(np.argmax(np.abs(ops).max(axis=1)), (len(ops), p.total))
                ops[n, :, col] *= 1.5
                bent = KrausSet(p, ops)
                assert has_scaled_isometry_blocks(bent) == reference_scaled_isometry_blocks(bent)
    assert verdicts == {True, False}


def reference_build_pbio_operators(spec):
    da, db = spec.system_partition.total, spec.ancilla_partition.total
    kraus = np.zeros((db, da, da), dtype=complex)
    coeff = spec.amplitudes[None, :] * np.exp(1j * spec.phases)
    for x in range(da):
        for s in range(db):
            kraus[spec.pi_ancilla[x, s], spec.pi_system[x, s], x] += coeff[x, s]
    return kraus[[j for j in range(db) if np.max(np.abs(kraus[j])) > 0.0]]


def test_build_pbio_matches_term_loop():
    for dims in [(2, 3), (1, 1, 1), (4, 4, 4), (1, 15), (1, 2, 2), (3, 3)]:
        p = BlockPartition(dims)
        for seed in range(20):
            spec = channels._random_pbio_spec(p, np.random.default_rng(seed))
            got, want = build_pbio(spec).operators, reference_build_pbio_operators(spec)
            assert np.array_equal(got, want)
            # bit for bit, signed zeros included, since gen output prints them
            assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))
