"""Acceptance suite: one test per release criterion, at full sample sizes.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS lines; each test also enforces its tolerance and, where stated, its
runtime budget.
"""

import time

import numpy as np

from blockcoh import verify
from blockcoh.blockcore import BlockPartition
from blockcoh.channels import KrausSet, gen_random, is_bio_structural, is_sbio_structural
from blockcoh.cli import main
from blockcoh.counting import bio_bound, sbio_bound
from blockcoh.naimark import Povm, dilate
from blockcoh.sampling import random_cptp, random_povm
from rank_one_rules import entrywise_column_rule, entrywise_row_and_column_rule

P23 = BlockPartition((2, 3))


def report(name, detail):
    print(f"PASS: {name} ({detail})")


def test_criterion_1_bio_forward_check():
    start = time.perf_counter()
    members = verify.structural_implies_semantic(
        "bio", [gen_random("bio", P23, seed) for seed in range(500)])
    assert members.passed
    assert verify.pattern_violations_rejected("bio", P23, range(500)).passed
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report("criterion 1, column-pattern forward check",
           f"500+500 sets, worst_dev={members.worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_sbio_forward_check():
    start = time.perf_counter()
    sets = [gen_random("sbio", P23, seed) for seed in range(500)]
    members = verify.structural_implies_semantic("sbio", sets)
    assert members.passed
    # 100 states per set, from seeds 100_000 + 100 * seed + r
    commutes = verify.commutes_with_dephasing(sets, 100_000, 100)
    assert commutes.passed
    assert verify.pattern_violations_rejected("sbio", P23, range(500)).passed
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report("criterion 2, row-and-column pattern forward check",
           f"500+500 sets, worst_dev={members.worst:.3e}, "
           f"worst_comm={commutes.worst:.3e}, {elapsed:.1f}s")


def test_criterion_3_rank_one_reductions():
    for d in range(2, 7):
        assert verify.rank_one_bounds(d).passed
    assert bio_bound(BlockPartition((1, 1, 1))).total == 39
    assert sbio_bound(BlockPartition((1, 1, 1))).total == 15
    report("criterion 3, rank-one bound reductions", "d=2..6 exact, d=3 -> 39 and 15")


def test_criterion_4_block_bounds():
    assert bio_bound(P23).total == 45346
    assert sbio_bound(P23).total == 12208
    p22 = BlockPartition((2, 2))
    assert bio_bound(p22).total == 930
    assert sbio_bound(p22).total == 480
    report("criterion 4, block bounds", "(2,3) -> 45346/12208, (2,2) -> 930/480")


def test_criterion_5_inclusion_chain():
    for inner in ("pbio", "sbio", "bio"):
        assert verify.inclusion(inner, P23, range(200)).passed
    report("criterion 5, inclusion chain", "3 x 200 sets, zero violations")


def test_criterion_6_naimark_dilation():
    start = time.perf_counter()
    # 100 POVMs from default_rng(0), each dilation checked on 100 states from seed t
    unitary, pvm, probabilities = verify.dilation(0, povms=100, states=100)
    assert unitary.passed and pvm.passed and probabilities.passed

    kets = [np.array([np.cos(j * np.pi / 3), np.sin(j * np.pi / 3)]) for j in range(3)]
    trine = Povm(np.array([(2 / 3) * np.outer(k, k.conj()) for k in kets]))
    ext = dilate(trine)
    rho = np.diag([1.0, 0.0]).astype(complex)
    anc = np.zeros((3, 3), dtype=complex)
    anc[0, 0] = 1.0
    for i in range(3):
        lifted = np.trace(ext.pvm[i] @ np.kron(rho, anc)).real
        direct = np.trace(trine.effects[i] @ rho).real
        assert abs(lifted - direct) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("criterion 6, projective dilation",
           f"100 POVMs, worst_dev={probabilities.worst:.3e}, trine exact, {elapsed:.1f}s")


def test_criterion_7_measure_axioms():
    # two-sided faithfulness on 500 states per partition and their dephasings
    assert verify.faithfulness(((1, 1), (2, 3), (1, 2, 2)), range(500), range(500)).passed

    # monotonicity, plain and selective, for the entropy-gap measure
    mono = verify.monotonicity("monotonicity", P23, range(200), trials=200)
    strong = verify.monotonicity("strong-monotonicity", P23, range(200), trials=200)
    assert mono.passed and strong.passed

    convex = verify.convexity(P23, trials=500, seed=0)
    assert convex.passed
    report("criterion 7, measure axioms",
           f"faithfulness 1000x3, mono={mono.worst:.3e}, "
           f"strong={strong.worst:.3e}, convex={convex.worst:.3e}")


def test_criterion_8_rank_one_classifier_equivalence():
    ones = BlockPartition((1, 1, 1))

    kinds = ("bio", "sbio", "pbio", "dense")
    for t in range(1000):
        kind = kinds[t % 4]
        if kind == "dense":
            rng = np.random.default_rng(t)
            ks = KrausSet(ones, random_cptp(3, int(rng.integers(1, 4)), rng))
        else:
            ks = gen_random(kind, ones, t)
        assert is_bio_structural(ks) == entrywise_column_rule(ks)
        assert is_sbio_structural(ks) == entrywise_row_and_column_rule(ks)
    report("criterion 8, rank-one classifier equivalence", "1000 sets, exact agreement")


def test_criterion_9_determinism(tmp_path, capsys):
    paths = []
    for tag in ("a", "b"):
        out = tmp_path / f"gen-{tag}.json"
        assert main(["gen", "--class", "sbio", "--partition", "2,3",
                     "--seed", "7", "-o", str(out)]) == 0
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    capsys.readouterr()

    povm = Povm(random_povm(3, 3, 11))
    a, b = dilate(povm), dilate(povm)
    assert np.array_equal(a.global_unitary, b.global_unitary)
    assert np.array_equal(a.pvm, b.pvm)

    outs = []
    for _ in range(2):
        assert main(["verify", "inclusion", "--trials", "10", "--seed", "3"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]

    first = gen_random("bio", P23, 42).operators
    second = gen_random("bio", P23, 42).operators
    assert np.array_equal(first, second)
    report("criterion 9, determinism", "gen/dilate/verify byte-identical")
