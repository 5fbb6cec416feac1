"""The checks behind ``blockcoh verify``, each written once.

A check draws its inputs from the seeds and sample sizes it is given and
returns one ``Check``; ``SUITES`` composes them with the command line's seed
derivations, and the acceptance tests call them at their own sizes.  Other
modules are reached through their attributes (``channels.gen_random``), so a
tracer or a test that replaces a module's function sees every call.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import blockcore, channels, counting, measures, naimark, sampling
from .blockcore import BlockPartition

DEV_TOL = 1e-9              # semantic, commutation, unitarity and projector deviations
DILATION_PROB_TOL = 1e-10   # dilation probabilities
PROBE_TOL = 1e-8            # monotonicity, selective monotonicity and convexity gains


class Check(NamedTuple):
    """One verdict, printed as ``PASS|FAIL name detail``.

    ``worst`` is the value the detail prints, where it prints one.  The
    offending probe report of a failed monotonicity check is its
    ``counterexample``; nothing here writes it to a file.
    """

    name: str
    passed: bool
    detail: str
    worst: float | None = None
    counterexample: dict | None = None


def structural_implies_semantic(kind: str, sets) -> Check:
    """Every set of ``kind`` ('bio' or 'sbio') is complete, has the class's
    block pattern and passes its semantic classifier within DEV_TOL.  On
    generated members no block is open, so worst_dev is 0 by construction."""
    strict = kind == "sbio"
    structural = channels.is_sbio_structural if strict else channels.is_bio_structural
    worst, ok = 0.0, True
    for ks in sets:
        semantic, deviation = channels.semantic_verdict(ks, strict)
        ok = ok and channels.verify_cptp(ks) and structural(ks) and semantic
        worst = max(worst, deviation)
    return Check(f"{kind}-structural-implies-semantic", ok and worst <= DEV_TOL,
                 f"sets={len(sets)} worst_dev={worst:.3e}", worst)


def pattern_violations_rejected(kind: str, partition: BlockPartition, seeds) -> Check:
    """The semantic classifier of ``kind`` rejects the violating set of each
    seed, and the set is complete, so the rejection is not vacuous."""
    semantic = channels.is_sbio_semantic if kind == "sbio" else channels.is_bio_semantic
    rejected = 0
    for s in seeds:
        bad = channels.gen_pattern_violating(kind, partition, s)
        if not semantic(bad) and channels.verify_cptp(bad):
            rejected += 1
    return Check(f"{kind}-pattern-violations-rejected", rejected == len(seeds),
                 f"rejected={rejected}/{len(seeds)}")


def commutes_with_dephasing(sets, first_seed: int, per_set: int) -> Check:
    """Each SBIO set commutes with block dephasing on ``per_set`` states, those
    of set t from seeds first_seed + per_set * t + r for r < per_set."""
    worst = 0.0
    for t, ks in enumerate(sets):
        start = first_seed + per_set * t
        rhos = sampling.random_density_matrices(ks.dim, range(start, start + per_set))
        worst = max(worst, channels.sbio_commutation_deviation(ks, rhos))
    return Check("sbio-commutes-with-dephasing", worst <= DEV_TOL,
                 f"states={per_set}x{len(sets)} worst_dev={worst:.3e}", worst)


def rank_one_bounds(d: int) -> Check:
    """Both bounds on the all-ones partition of d >= 2 equal their closed forms.

    (1,)*d has d + 1 size-count states, so ``sbio_bound`` raises only past
    ``counting.MAX_SBIO_STATES`` - 1 blocks.
    """
    ones = BlockPartition([1] * d)
    bio_total = counting.bio_bound(ones).total
    sbio_total = counting.sbio_bound(ones).total
    passed = (bio_total == counting.rank_one_bio_total(d)
              and sbio_total == counting.rank_one_sbio_total(d))
    return Check(f"rank-one-bounds-d={d}", passed, f"bio={bio_total} sbio={sbio_total}")


def inclusion(inner: str, partition: BlockPartition, seeds) -> Check:
    """The generated member of ``inner`` from each seed lies in the next larger
    class, by block pattern alone: a BIO member's support forms no MBIO Gram."""
    outer, member = {
        "pbio": ("sbio", channels.is_sbio_structural),
        "sbio": ("bio", channels.is_bio_structural),
        "bio": ("mbio", channels.is_mbio),
    }[inner]
    ok = all(member(channels.gen_random(inner, partition, s)) for s in seeds)
    return Check(f"{inner}-within-{outer}", ok, f"sets={len(seeds)}")


def _dev(a, b) -> float:
    return float(np.max(np.abs(a - b)))


def dilation(seed: int, povms: int, states: int) -> list[Check]:
    """Unitarity, projector algebra and probabilities of ``povms`` dilations.

    The POVMs (d in 2..4, n in 1..4) are drawn from default_rng(seed), and
    dilation t is compared with its POVM on ``states`` states from seed + t.
    """
    rng = np.random.default_rng(seed)
    worst_unitary = worst_pvm = worst_prob = 0.0
    traces_ok = True
    for t in range(povms):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 5))
        povm = naimark.Povm(sampling.random_povm(d, n, rng))
        ext = naimark.dilate(povm)
        v, eye = ext.global_unitary, np.eye(d * n)
        worst_unitary = max(worst_unitary, _dev(v.conj().T @ v, eye), _dev(v @ v.conj().T, eye))
        # P_i P_j should be P_i on the diagonal and zero off it
        pvm = ext.pvm
        products = pvm[:, None] @ pvm[None]
        products[np.arange(n), np.arange(n)] -= pvm
        worst_pvm = max(worst_pvm, _dev(products, 0.0), _dev(pvm.sum(axis=0), eye))
        # each P_i has rank d; this verdict stays out of the printed worst_dev
        traces_ok = traces_ok and _dev(np.trace(pvm, axis1=1, axis2=2), d) <= DEV_TOL
        worst_prob = max(worst_prob, naimark.verify_dilation(povm, ext, trials=states,
                                                             seed=seed + t))
    return [
        Check("dilation-unitary", worst_unitary <= DEV_TOL,
              f"worst_dev={worst_unitary:.3e}", worst_unitary),
        Check("dilation-pvm-properties", traces_ok and worst_pvm <= DEV_TOL,
              f"worst_dev={worst_pvm:.3e}", worst_pvm),
        Check("dilation-probabilities", worst_prob <= DILATION_PROB_TOL,
              f"worst_dev={worst_prob:.3e}", worst_prob),
    ]


def faithful(partition: BlockPartition, states) -> np.ndarray:
    """Per state of a stack: both measures are nonnegative and vanish exactly
    when the state is free."""
    incoherent = blockcore.is_block_incoherent(partition, states, 1e-8)
    verdicts = []
    for measure in (measures.rel_entropy_block_coherence, measures.l1_block_coherence):
        values = measure(partition, states)
        verdicts.append((values >= -1e-12) & ((values <= 1e-9) == incoherent))
    return np.all(verdicts, axis=0)


def faithfulness(partitions, seeds, free_seeds) -> Check:
    """Nonnegativity and faithfulness, per partition, on the random states
    from ``seeds`` and the dephased random states from ``free_seeds``."""
    ok = True
    for dims in partitions:
        p = BlockPartition(dims)
        rhos = sampling.random_density_matrices(p.total, seeds)
        frees = sampling.random_density_matrices(p.total, free_seeds)
        for states in (rhos, blockcore.block_dephase(p, frees)):
            ok = ok and bool(np.all(faithful(p, states)))
    return Check("nonnegativity-and-faithfulness", ok,
                 f"states={len(seeds) + len(free_seeds)}/partition")


def monotonicity(probe: str, partition: BlockPartition, seeds, trials: int) -> Check:
    """``probe`` ('monotonicity' or 'strong-monotonicity') of the entropy-gap
    measure under the BIO channel of each seed, on ``trials`` states from it."""
    worst, offending = 0.0, None
    for s in seeds:
        ch = channels.gen_random("bio", partition, s)
        report = measures.probe_report(probe, measures.rel_entropy_block_coherence,
                                       partition, ch, trials=trials, seed=s)
        if report["worst_violation"] > worst:
            worst, offending = report["worst_violation"], report
    passed = worst <= PROBE_TOL
    return Check(probe, passed, f"channels={len(seeds)} worst_violation={worst:.3e}",
                 worst, None if passed else offending)


def convexity(partition: BlockPartition, trials: int, seed: int) -> Check:
    """Convexity of both measures over ``trials`` random mixtures."""
    worst = max(measures.convexity_probe(measure, partition, trials=trials, seed=seed)
                for measure in (measures.rel_entropy_block_coherence, measures.l1_block_coherence))
    return Check("convexity", worst <= PROBE_TOL, f"worst_violation={worst:.3e}", worst)


def _appendix(kind: str, partition: BlockPartition, seed: int, trials: int) -> list[Check]:
    sets = [channels.gen_random(kind, partition, seed + t) for t in range(trials)]
    checks = [
        structural_implies_semantic(kind, sets),
        pattern_violations_rejected(kind, partition, range(seed + 10_000, seed + 10_000 + trials)),
    ]
    if kind == "sbio":
        checks.append(commutes_with_dephasing(sets, seed + 20_000, 10))
    return checks


def _measures(partition: BlockPartition, seed: int, trials: int) -> list[Check]:
    # the axioms are checked on fixed partitions (FIXED_PARTITION_SUITES)
    p = BlockPartition((2, 3))
    channel_seeds = range(seed, seed + max(1, trials // 10))
    return [
        faithfulness([(1, 1), (2, 3), (1, 2, 2)], range(seed, seed + trials),
                     range(seed + 5_000, seed + 5_000 + trials)),
        monotonicity("monotonicity", p, channel_seeds, trials=20),
        monotonicity("strong-monotonicity", p, channel_seeds, trials=20),
        convexity(p, trials, seed),
    ]


# Suites whose checks run on fixed partitions; an explicit --partition is an error.
FIXED_PARTITION_SUITES = ("lemmas", "naimark", "measures")

# suite name -> (partition, seed, trials) -> its checks, in printing order
SUITES = {
    "appendix-a": lambda partition, seed, trials: _appendix("bio", partition, seed, trials),
    "appendix-b": lambda partition, seed, trials: _appendix("sbio", partition, seed, trials),
    "lemmas": lambda partition, seed, trials: [rank_one_bounds(d) for d in range(2, 6)],
    "inclusion": lambda partition, seed, trials: [
        inclusion(inner, partition, range(seed, seed + trials)) for inner in ("pbio", "sbio", "bio")
    ],
    "naimark": lambda partition, seed, trials: dilation(seed, trials, states=20),
    "measures": _measures,
}
