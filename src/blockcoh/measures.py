"""Block-coherence quantifiers and Monte Carlo probes of the measure axioms.

Two quantifiers are implemented relative to a block partition: the entropy
gap S(dephase(rho)) - S(rho) and the entrywise sum of cross-block magnitudes.
Both vanish exactly on free states and reduce to the standard rank-one
coherence measures for all-ones partitions.  The dephased state is block
diagonal, so S(dephase(rho)) is taken from the spectra of rho's diagonal
blocks, never from a whole d x d eigenproblem.  The probes sample random
states and channels and report the worst observed violation of
monotonicity, strong (selective) monotonicity and convexity; they report
evidence, they do not prove the axioms.  An eigenvalue more than
``blockcore.STATE_TOL`` below 0 or above 1 marks a non-state and raises.
"""

from __future__ import annotations

import numpy as np

from .blockcore import STATE_TOL, BlockPartition, _as_stack, block_mask
from .channels import KrausSet, apply_channel, branch_outputs, is_bio_semantic
from .sampling import _hs_states, random_density_matrices
from .serialize import matrix_to_json

# Selective branches below this probability are dropped.
PROB_TOL = 1e-12
# Trials a probe evaluates per stacked measure call; bounds the probe's memory.
PROBE_CHUNK = 32


def _float_or_array(values):
    # one value per state: a float for a single state, an array for a stack
    return float(values) if np.ndim(values) == 0 else values


def _hermitian_part(rho) -> np.ndarray:
    # (rho + rho^dag) / 2 of a state or stack; non-finite entries raise first
    rho = np.asarray(rho, dtype=complex)
    if not np.isfinite(rho).all():
        raise ValueError("input has non-finite entries")
    herm = rho.conj().swapaxes(-1, -2)
    herm += rho
    herm /= 2
    return herm


def _entropy_of_spectra(vals: np.ndarray):
    """-sum lambda log2 lambda over the last axis of ascending eigenvalues.

    Eigenvalues inside [-STATE_TOL, 0] are clamped to zero and those inside
    [1, 1 + STATE_TOL] to one; anything further out, in any row, raises, since
    no state has such an eigenvalue.
    """
    lo = vals.min(initial=0.0)
    if lo < -STATE_TOL:
        raise ValueError(f"input is not positive semidefinite (min eigenvalue {lo:.3e})")
    hi = vals.max(initial=0.0)
    if hi > 1.0 + STATE_TOL:
        raise ValueError(f"input has an eigenvalue above 1 (max eigenvalue {hi:.3e})")
    vals = np.clip(vals, 0.0, 1.0)
    # log2(1) = 0 in place of log2(0), so clamped eigenvalues add exactly 0
    logs = np.log2(np.where(vals > 0.0, vals, 1.0))
    return _float_or_array(-(vals * logs).sum(axis=-1))


def von_neumann_entropy(rho):
    """Entropy -sum lambda log2 lambda in bits, with 0 log 0 = 0.

    ``rho`` is one (d, d) state, giving a float, or a stack (..., d, d),
    giving an array of shape (...).  Eigenvalues inside [-STATE_TOL, 0] are
    clamped to zero and those inside [1, 1 + STATE_TOL] to one; an eigenvalue
    further out, in any state of the stack, raises, since that indicates a
    non-state rather than rounding noise.  Non-finite entries raise too.
    """
    return _entropy_of_spectra(np.linalg.eigvalsh(_hermitian_part(rho)))


def _dephased_spectra(partition: BlockPartition, herm: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (..., d) of block_dephase(partition, herm).

    The dephased matrix is block diagonal, so its spectrum is the union of
    its diagonal blocks' spectra: one stacked eigvalsh per block size, and
    1 x 1 blocks read off the real diagonal.  Sorted, the values are summed
    in the order eigvalsh of the whole dephased matrix gives them.
    """
    groups = {}  # block size -> the index range of each block of that size
    for off, size in zip(partition.offsets, partition.dims):
        groups.setdefault(size, []).append(range(off, off + size))
    spectra = []
    for size, ranges in groups.items():
        idx = np.array(ranges)                                    # (m, size)
        if size == 1:
            spectra.append(herm[..., idx[:, 0], idx[:, 0]].real)
        else:
            blocks = herm[..., idx[:, :, None], idx[:, None, :]]  # (..., m, size, size)
            vals = np.linalg.eigvalsh(blocks)
            spectra.append(vals.reshape(vals.shape[:-2] + (-1,)))
    vals = spectra[0] if len(spectra) == 1 else np.concatenate(spectra, axis=-1)
    return np.sort(vals, axis=-1)


def rel_entropy_block_coherence(partition: BlockPartition, rho):
    """Entropy gap S(dephase(rho)) - S(rho); zero exactly on free states.

    Takes one (d, d) state or a stack (..., d, d), like von_neumann_entropy.
    S(dephase(rho)) comes from the diagonal blocks of rho, whose spectra
    together are the spectrum of the block-diagonal dephased state.  It is
    checked before S(rho), so a bad dephased spectrum is the error reported.
    A free state is its own dephasing, so its gap is 0.0 exactly rather than
    the rounding difference of two eigenvalue routines.
    """
    herm = _hermitian_part(_as_stack(partition, rho))
    dephased = _entropy_of_spectra(_dephased_spectra(partition, herm))
    gap = dephased - _entropy_of_spectra(np.linalg.eigvalsh(herm))
    free = ~np.any(herm[..., ~block_mask(partition)] != 0.0, axis=-1)
    return _float_or_array(np.where(free, 0.0, gap))


def l1_block_coherence(partition: BlockPartition, rho):
    """Sum of |rho_xy| over all index pairs in different blocks.

    For all-ones partitions this is the usual entrywise off-diagonal sum.
    Takes one (d, d) state or a stack (..., d, d), like von_neumann_entropy.
    """
    rho = _as_stack(partition, rho)
    if not np.isfinite(rho).all():
        raise ValueError("input has non-finite entries")
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
        # one measure call on the stack (2, T, d, d) of outputs and inputs
        values = measure(partition, np.stack([apply_channel(channel, rhos), rhos]))
        return values[0] - values[1], rhos

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
        # one measure call: the input state is slot n, beside its n branches
        values = measure(partition, np.concatenate([outs, rhos[:, None]], axis=1))
        terms = np.where(live, probs * values[:, :-1], 0.0)
        avg = np.zeros(len(ts))
        for term in terms.T:  # left to right, as a sum over branches
            avg += term
        return avg - values[:, -1], rhos

    return _scan(trials, chunk)


def _convexity_scan(measure, partition, trials, seed):
    d = partition.total

    def chunk(ts):
        normals, weights, owner = [], [], []
        for i, t in enumerate(ts):
            # trial t draws k, its weights and its k states from seed + t, in this order
            rng = np.random.default_rng(seed + t)
            k = int(rng.integers(2, 5))
            weights.extend(rng.dirichlet(np.ones(k)))
            normals.append(rng.normal(size=(k, 2, d, d)))
            owner.extend([i] * k)
        parts, weights = _hs_states(np.concatenate(normals)), np.array(weights)
        # np.add.at adds in index order, so each trial sums its parts left to right
        mixes = np.zeros((len(ts), d, d), dtype=complex)
        np.add.at(mixes, owner, weights[:, None, None] * parts)
        # one measure call: the T mixtures follow their parts
        values = measure(partition, np.concatenate([parts, mixes]))
        avg = np.zeros(len(ts))
        np.add.at(avg, owner, weights * values[:len(parts)])
        return values[len(parts):] - avg, mixes

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
    states (..., d, d) and returns an array of shape (...), one value per
    state, as both measures here do.  The probes make one call per chunk of
    up to PROBE_CHUNK trials, with the inputs and outputs in one stack; here
    (2, T, d, d), the channel outputs first.  Each trial draws a fresh
    Hilbert-Schmidt state from seed + trial index, so results do not depend
    on evaluation order.  Returns max(0, worst observed increase).  A NaN
    increase raises ValueError.
    """
    return _probe("monotonicity", measure, partition, channel, trials, seed)[0]


def strong_monotonicity_probe(measure, partition: BlockPartition, channel: KrausSet,
                              trials: int = 200, seed: int = 0) -> float:
    """Worst increase of the selective average sum_i q_i measure(sigma_i).

    Branch probabilities and post-measurement states come from the selective
    channel action; branches with probability at most PROB_TOL count zero.
    ``measure`` takes stacks, as in monotonicity_probe; here a stack of shape
    (T, n + 1, d, d): the n normalized branches of each trial, then its
    input state.
    """
    return _probe("strong-monotonicity", measure, partition, channel, trials, seed)[0]


def convexity_probe(measure, partition: BlockPartition,
                    trials: int = 500, seed: int = 0) -> float:
    """Worst convexity violation measure(mix) - sum_i p_i measure(rho_i).

    Each trial mixes 2 to 4 random states with Dirichlet weights.  ``measure``
    takes stacks, as in monotonicity_probe; here the states of a chunk's
    trials, then its T mixtures.
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
