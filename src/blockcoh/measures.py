"""Block-coherence quantifiers and Monte Carlo probes of the measure axioms.

Two quantifiers are implemented relative to a block partition: the entropy
gap S(dephase(rho)) - S(rho) and the entrywise sum of cross-block magnitudes.
Both vanish exactly on free states and reduce to the standard rank-one
coherence measures for all-ones partitions.  The probes sample random states
and channels and report the worst observed violation of monotonicity, strong
(selective) monotonicity and convexity; they report evidence, they do not
prove the axioms.
"""

from __future__ import annotations

import numpy as np

from .blockcore import BlockPartition, block_dephase, block_mask
from .channels import KrausSet, apply_channel, apply_selective, is_bio_semantic
from .sampling import random_density_matrix

# Negative eigenvalues beyond this window are treated as invalid input.
EIG_TOL = 1e-9


def von_neumann_entropy(rho, tol: float = EIG_TOL) -> float:
    """Entropy -sum lambda log2 lambda in bits, with 0 log 0 = 0.

    Eigenvalues inside [-tol, 0] are clamped to zero; anything more negative
    raises, since that indicates a non-state rather than rounding noise.
    """
    rho = np.asarray(rho, dtype=complex)
    vals = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    if vals.min() < -tol:
        raise ValueError(f"input is not positive semidefinite (min eigenvalue {vals.min():.3e})")
    vals = np.clip(vals, 0.0, 1.0)
    live = vals[vals > 0.0]
    return float(-(live * np.log2(live)).sum())


def rel_entropy_block_coherence(partition: BlockPartition, rho) -> float:
    """Entropy gap S(dephase(rho)) - S(rho); zero exactly on free states."""
    rho = np.asarray(rho, dtype=complex)
    d = partition.total
    if rho.shape != (d, d):
        raise ValueError(f"state has shape {rho.shape}, expected ({d}, {d})")
    return von_neumann_entropy(block_dephase(partition, rho)) - von_neumann_entropy(rho)


def l1_block_coherence(partition: BlockPartition, rho) -> float:
    """Sum of |rho_xy| over all index pairs in different blocks.

    For all-ones partitions this is the usual entrywise off-diagonal sum.
    """
    rho = np.asarray(rho, dtype=complex)
    d = partition.total
    if rho.shape != (d, d):
        raise ValueError(f"state has shape {rho.shape}, expected ({d}, {d})")
    off = ~block_mask(partition)
    return float(np.abs(rho[off]).sum()) if off.any() else 0.0


def _require_free_channel(channel: KrausSet):
    if not is_bio_semantic(channel):
        raise ValueError("channel is not block-incoherent branch by branch; probe is meaningless")


def _monotonicity_scan(measure, partition, channel, trials, seed):
    worst, offender = 0.0, None
    for t in range(trials):
        rho = random_density_matrix(partition.total, seed + t)
        gain = measure(partition, apply_channel(channel, rho)) - measure(partition, rho)
        if gain > worst:
            worst, offender = gain, rho
    return worst, offender


def _strong_monotonicity_scan(measure, partition, channel, trials, seed):
    worst, offender = 0.0, None
    for t in range(trials):
        rho = random_density_matrix(partition.total, seed + t)
        avg = sum(q * measure(partition, sigma) for q, sigma in apply_selective(channel, rho))
        gain = avg - measure(partition, rho)
        if gain > worst:
            worst, offender = gain, rho
    return worst, offender


def _convexity_scan(measure, partition, trials, seed):
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


def monotonicity_probe(measure, partition: BlockPartition, channel: KrausSet,
                       trials: int = 200, seed: int = 0) -> float:
    """Worst increase of ``measure`` under the full channel over random states.

    ``measure`` is any callable measure(partition, rho) -> float.  Each trial
    draws a fresh Hilbert-Schmidt state from seed + trial index, so results do
    not depend on evaluation order.  Returns max(0, worst observed increase).
    """
    _require_free_channel(channel)
    return _monotonicity_scan(measure, partition, channel, trials, seed)[0]


def strong_monotonicity_probe(measure, partition: BlockPartition, channel: KrausSet,
                              trials: int = 200, seed: int = 0) -> float:
    """Worst increase of the selective average sum_i q_i measure(sigma_i).

    Branch probabilities and post-measurement states come from the selective
    channel action; branches with vanishing probability are skipped.
    """
    _require_free_channel(channel)
    return _strong_monotonicity_scan(measure, partition, channel, trials, seed)[0]


def convexity_probe(measure, partition: BlockPartition,
                    trials: int = 500, seed: int = 0) -> float:
    """Worst convexity violation measure(mix) - sum_i p_i measure(rho_i).

    Each trial mixes 2 to 4 random states with Dirichlet weights.
    """
    return _convexity_scan(measure, partition, trials, seed)[0]


PROBES = ("monotonicity", "strong-monotonicity", "convexity")


def probe_report(probe: str, measure, partition: BlockPartition, channel: KrausSet = None,
                 trials: int = 200, seed: int = 0) -> dict:
    """Run a named probe and return its JSON-ready report.

    The report carries the worst observed violation and, when one occurred,
    the offending state (the mixture, for the convexity probe) so it can be
    persisted and replayed.
    """
    if probe not in PROBES:
        raise ValueError(f"unknown probe {probe!r}, expected one of {PROBES}")
    if probe == "convexity":
        worst, offender = _convexity_scan(measure, partition, trials, seed)
    else:
        _require_free_channel(channel)
        scan = _monotonicity_scan if probe == "monotonicity" else _strong_monotonicity_scan
        worst, offender = scan(measure, partition, channel, trials, seed)
    if offender is None:
        encoded = None
    else:
        from .serialize import matrix_to_json

        encoded = matrix_to_json(offender)
    return {
        "probe": probe,
        "trials": trials,
        "worst_violation": float(worst),
        "counterexample": encoded,
    }
