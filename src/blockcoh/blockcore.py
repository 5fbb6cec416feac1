"""Block partitions, the block-dephasing map, and block-incoherence predicates.

A block partition splits the computational basis of a d-dimensional space into
k contiguous groups of sizes (d_1, ..., d_k).  Each group carries a projector
P_i of rank d_i, and the block-dephasing map

    block_dephase(rho) = sum_i P_i rho P_i

erases every matrix entry that connects two different groups.  States fixed by
the map are the free states of the block theory; the channel classifiers,
coherence measures and operator-count bounds elsewhere in this package are all
defined relative to one partition.  A partition of all-ones blocks recovers the
ordinary fully-dephasing map and the standard (rank-one) coherence theory.

Numerical zero tests are scale-relative: an entry counts as zero when its
magnitude is at most ``tol * (1 + max|entry|)`` of the containing matrix, so
the same predicates work for unit-trace states and unnormalized operator
blocks alike.  The package's other numeric input rules are defined here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ZERO_TOL = 1e-10         # scale-relative threshold below which an entry counts as zero
STATE_TOL = 1e-9         # hermiticity, positivity and trace of states, effects, entropies
CPTP_TOL = 1e-9          # completeness of sum K^dag K = I and of sum E_i = I
MAX_ENTRY = 2.0 ** 500   # largest Kraus or effect entry magnitude (channels docstring)


@dataclass(frozen=True)
class BlockPartition:
    """Ordered split d = d_1 + ... + d_k of the basis into contiguous blocks."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(x) for x in self.dims)
        if len(dims) == 0:
            raise ValueError("partition needs at least one block")
        if any(x < 1 for x in dims):
            raise ValueError(f"block sizes must be positive integers, got {dims}")
        offsets = [0]
        for x in dims[:-1]:
            offsets.append(offsets[-1] + x)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_offsets", tuple(offsets))

    @property
    def total(self) -> int:
        """Total dimension d."""
        return sum(self.dims)

    @property
    def num_blocks(self) -> int:
        return len(self.dims)

    @property
    def offsets(self) -> tuple[int, ...]:
        """Start index of each block in the computational basis."""
        return self._offsets

    def block_slice(self, block: int) -> slice:
        off = self._offsets[block]
        return slice(off, off + self.dims[block])

    def __str__(self):
        return "(" + ",".join(str(x) for x in self.dims) + ")"


def block_labels(partition: BlockPartition) -> np.ndarray:
    """Integer array of length d mapping each basis index to its block."""
    return np.repeat(np.arange(partition.num_blocks), partition.dims)


def block_mask(partition: BlockPartition) -> np.ndarray:
    """Boolean (d, d) mask, True exactly on the diagonal blocks."""
    labels = block_labels(partition)
    return labels[:, None] == labels[None, :]


def block_projectors(partition: BlockPartition) -> list[np.ndarray]:
    """The diagonal 0/1 projectors P_i, one per block, with sum(P_i) = I."""
    labels = block_labels(partition)
    return [
        np.diag((labels == l).astype(complex)) for l in range(partition.num_blocks)
    ]


def _as_stack(partition: BlockPartition, rho) -> np.ndarray:
    # one (d, d) state or a stack (..., d, d) of them
    rho = np.asarray(rho, dtype=complex)
    d = partition.total
    if rho.ndim < 2 or rho.shape[-2:] != (d, d):
        raise ValueError(f"state has shape {rho.shape}, expected (..., {d}, {d})")
    return rho


def block_dephase(partition: BlockPartition, rho) -> np.ndarray:
    """Apply the block-dephasing map: zero every entry that crosses blocks.

    Entry (x, y) survives exactly when x and y lie in the same block, which is
    the same as conjugating with each block projector and summing.  The map is
    idempotent, trace preserving and hermiticity preserving.  ``rho`` may be
    one (d, d) matrix or a stack (..., d, d); each matrix is dephased.
    """
    rho = _as_stack(partition, rho)
    return rho * block_mask(partition)


def zero_threshold(scale, tol: float = ZERO_TOL):
    """Threshold under which an entry counts as zero, given its matrix's scale.

    ``scale`` is the largest entry magnitude of the containing matrix, a float
    or an array of them; the result has the same shape.
    """
    return tol * (1.0 + scale)


def is_block_incoherent(partition: BlockPartition, rho, tol: float = ZERO_TOL):
    """True when every entry outside the diagonal blocks is effectively zero.

    ``rho`` is one (d, d) state, giving a bool, or a stack (..., d, d),
    giving a boolean array of shape (...) with one verdict per state.
    """
    rho = np.abs(_as_stack(partition, rho))
    offblock = rho[..., ~block_mask(partition)].max(axis=-1, initial=0.0)
    verdict = offblock <= zero_threshold(rho.max(axis=(-2, -1)), tol)
    return bool(verdict) if verdict.ndim == 0 else verdict


def validate_density_matrix(rho) -> np.ndarray:
    """Check hermiticity, positivity and unit trace; return the array.

    Raises ValueError naming the failed property.  Eigenvalues are allowed to
    dip to -STATE_TOL to absorb double-precision construction noise.  NaN and
    infinite entries are rejected first: every comparison with NaN is false,
    so the checks below would let them through.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix has non-finite entries")
    herm_dev = float(np.max(np.abs(rho - rho.conj().T)))
    if herm_dev > STATE_TOL:
        raise ValueError(f"matrix is not hermitian (deviation {herm_dev:.3e})")
    tr_dev = abs(complex(np.trace(rho)) - 1.0)
    if tr_dev > STATE_TOL:
        raise ValueError(f"trace differs from 1 by {tr_dev:.3e}")
    lo = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min())
    if lo < -STATE_TOL:
        raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {lo:.3e})")
    return rho
