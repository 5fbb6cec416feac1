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

from .blockcore import BlockPartition, _as_stack, block_dephase, block_mask
from .channels import KrausSet, apply_channel, branch_outputs, is_bio_semantic
from .sampling import random_density_matrices
from .serialize import matrix_to_json

# Negative eigenvalues beyond this window are treated as invalid input.
EIG_TOL = 1e-9
# Selective branches below this probability are dropped.
PROB_TOL = 1e-12
# Trials a probe evaluates per stacked measure call; bounds the probe's memory.
PROBE_CHUNK = 32


def _float_or_array(values):
    # one value per state: a float for a single state, an array for a stack
    return float(values) if np.ndim(values) == 0 else values


def von_neumann_entropy(rho):
    """Entropy -sum lambda log2 lambda in bits, with 0 log 0 = 0.

    ``rho`` is one (d, d) state, giving a float, or a stack (..., d, d),
    giving an array of shape (...).  Eigenvalues inside [-EIG_TOL, 0] are
    clamped to zero; anything more negative, in any state of the stack,
    raises, since that indicates a non-state rather than rounding noise.
    Non-finite entries raise too.
    """
    rho = np.asarray(rho, dtype=complex)
    if not np.isfinite(rho).all():
        raise ValueError("input has non-finite entries")
    herm = rho.conj().swapaxes(-1, -2)
    herm += rho
    herm /= 2
    vals = np.linalg.eigvalsh(herm)
    lo = vals.min(initial=0.0)
    if lo < -EIG_TOL:
        raise ValueError(f"input is not positive semidefinite (min eigenvalue {lo:.3e})")
    vals = np.clip(vals, 0.0, 1.0)
    # log2(1) = 0 in place of log2(0), so clamped eigenvalues add exactly 0
    logs = np.log2(np.where(vals > 0.0, vals, 1.0))
    return _float_or_array(-(vals * logs).sum(axis=-1))


def rel_entropy_block_coherence(partition: BlockPartition, rho):
    """Entropy gap S(dephase(rho)) - S(rho); zero exactly on free states.

    Takes one (d, d) state or a stack (..., d, d), like von_neumann_entropy.
    """
    return von_neumann_entropy(block_dephase(partition, rho)) - von_neumann_entropy(rho)


def l1_block_coherence(partition: BlockPartition, rho):
    """Sum of |rho_xy| over all index pairs in different blocks.

    For all-ones partitions this is the usual entrywise off-diagonal sum.
    Takes one (d, d) state or a stack (..., d, d), like von_neumann_entropy.
    """
    rho = _as_stack(partition, rho)
    off = ~block_mask(partition)
    # mask indexing of a stack leaves rows strided; contiguous rows make each
    # sum the same pairwise sum as for a single state
    return _float_or_array(np.abs(np.ascontiguousarray(rho[..., off])).sum(axis=-1))


# Each probe scans its trials in chunks of PROBE_CHUNK.  A chunk function maps
# a range of trial indices to (gains, states): one gain per trial, and the
# states the report names as offenders.  Trial t always draws from seed + t,
# so the result does not depend on the chunk size.


def _scan(trials: int, chunk):
    """Worst strictly positive gain over all trials and its offending state.

    Ties go to the earliest trial.  A NaN gain raises rather than being
    passed over, since it could hide a real violation.
    """
    worst, offender = 0.0, None
    for start in range(0, trials, PROBE_CHUNK):
        ts = range(start, min(start + PROBE_CHUNK, trials))
        gains, states = chunk(ts)
        nan = np.flatnonzero(np.isnan(gains))
        if nan.size:
            raise ValueError(f"measure gain is NaN in trial {ts[nan[0]]}")
        i = int(np.argmax(gains))
        if gains[i] > worst:
            worst, offender = float(gains[i]), states[i].copy()
    return worst, offender


def _monotonicity_scan(measure, partition, channel, trials, seed):
    def chunk(ts):
        rhos = random_density_matrices(partition.total, [seed + t for t in ts])
        return measure(partition, apply_channel(channel, rhos)) - measure(partition, rhos), rhos

    return _scan(trials, chunk)


def _strong_monotonicity_scan(measure, partition, channel, trials, seed):
    def chunk(ts):
        rhos = random_density_matrices(partition.total, [seed + t for t in ts])
        outs = branch_outputs(channel, rhos)                    # (T, n, d, d)
        probs = np.trace(outs, axis1=-2, axis2=-1).real         # (T, n)
        live = probs > PROB_TOL
        outs /= np.where(live, probs, 1.0)[..., None, None]
        # dead branches are measured on the input state and masked out below
        np.copyto(outs, rhos[:, None], where=~live[..., None, None])
        values = measure(partition, outs)
        avg = np.zeros(len(ts))
        for n in range(probs.shape[1]):  # left to right, as a sum over branches
            avg = avg + np.where(live[:, n], probs[:, n] * values[:, n], 0.0)
        return avg - measure(partition, rhos), rhos

    return _scan(trials, chunk)


def _convexity_scan(measure, partition, trials, seed):
    def chunk(ts):
        parts, weights, owner = [], [], []
        for i, t in enumerate(ts):
            rng = np.random.default_rng(seed + t)
            k = int(rng.integers(2, 5))
            weights.extend(rng.dirichlet(np.ones(k)))
            parts.extend(random_density_matrices(partition.total, rng, count=k))
            owner.extend([i] * k)
        parts, weights = np.stack(parts), np.array(weights)
        # np.add.at adds in index order, so each trial sums its parts left to right
        mixes = np.zeros((len(ts),) + parts.shape[1:], dtype=complex)
        np.add.at(mixes, owner, weights[:, None, None] * parts)
        avg = np.zeros(len(ts))
        np.add.at(avg, owner, weights * measure(partition, parts))
        return measure(partition, mixes) - avg, mixes

    return _scan(trials, chunk)


PROBES = ("monotonicity", "strong-monotonicity", "convexity")


def _probe(probe: str, measure, partition, channel, trials: int, seed: int):
    """(worst gain, offending state) of the named probe.

    The monotonicity probes first require a channel that is free branch by
    branch; the convexity probe takes no channel.  An empty sample is
    rejected, since it would report a violation of 0 without a single trial.
    """
    if probe not in PROBES:
        raise ValueError(f"unknown probe {probe!r}, expected one of {PROBES}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if probe == "convexity":
        return _convexity_scan(measure, partition, trials, seed)
    if not is_bio_semantic(channel):
        raise ValueError("channel is not block-incoherent branch by branch; probe is meaningless")
    scan = _monotonicity_scan if probe == "monotonicity" else _strong_monotonicity_scan
    return scan(measure, partition, channel, trials, seed)


def monotonicity_probe(measure, partition: BlockPartition, channel: KrausSet,
                       trials: int = 200, seed: int = 0) -> float:
    """Worst increase of ``measure`` under the full channel over random states.

    ``measure`` is a callable measure(partition, rho) that takes a stack of
    states (T, d, d) and returns an array of T values, as both measures here
    do; the probes evaluate up to PROBE_CHUNK trials per call.  Each trial
    draws a fresh Hilbert-Schmidt state from seed + trial index, so results do
    not depend on evaluation order.  Returns max(0, worst observed increase).
    A NaN increase raises ValueError.
    """
    return _probe("monotonicity", measure, partition, channel, trials, seed)[0]


def strong_monotonicity_probe(measure, partition: BlockPartition, channel: KrausSet,
                              trials: int = 200, seed: int = 0) -> float:
    """Worst increase of the selective average sum_i q_i measure(sigma_i).

    Branch probabilities and post-measurement states come from the selective
    channel action; branches with probability at most PROB_TOL count zero.
    ``measure`` takes stacks, as in monotonicity_probe; here a stack of shape
    (T, n, d, d) for n operators.
    """
    return _probe("strong-monotonicity", measure, partition, channel, trials, seed)[0]


def convexity_probe(measure, partition: BlockPartition,
                    trials: int = 500, seed: int = 0) -> float:
    """Worst convexity violation measure(mix) - sum_i p_i measure(rho_i).

    Each trial mixes 2 to 4 random states with Dirichlet weights.  ``measure``
    takes stacks, as in monotonicity_probe.
    """
    return _probe("convexity", measure, partition, None, trials, seed)[0]


def probe_report(probe: str, measure, partition: BlockPartition, channel: KrausSet = None,
                 trials: int = 200, seed: int = 0) -> dict:
    """Run a named probe and return its JSON-ready report.

    The report carries the worst observed violation and, when one occurred,
    the offending state (the mixture, for the convexity probe) so it can be
    persisted and replayed.
    """
    worst, offender = _probe(probe, measure, partition, channel, trials, seed)
    return {
        "probe": probe,
        "trials": trials,
        "worst_violation": float(worst),
        "counterexample": None if offender is None else matrix_to_json(offender),
    }
