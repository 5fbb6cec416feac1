"""POVMs and their canonical dilation to a projective measurement.

Any POVM {E_i} on a d-dimensional system can be realized as a projective
measurement on system x ancilla: attach an ancilla in a fixed basis state,
apply a global unitary V, and measure the ancilla in its computational
basis.  The construction here is the canonical one: the measurement
operators are the principal square roots M_i of the effects, the columns of
V addressed by the fixed ancilla state hold the stacked M_i, and the
remaining columns are completed deterministically to an orthonormal basis.
The dilation is neither minimal nor unique, but it is reproducible byte for
byte and exactly reproduces every outcome probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blockcore import BlockPartition
from .sampling import random_density_matrices

# Tolerances for effect positivity and completeness of the effect sum.
PSD_TOL = 1e-9
SUM_TOL = 1e-9


@dataclass(eq=False)
class Povm:
    """Positive effects E_i with sum E_i = I."""

    effects: np.ndarray  # (n, d, d) complex

    def __post_init__(self):
        eff = np.asarray(self.effects, dtype=complex)
        if eff.ndim != 3 or eff.shape[0] == 0 or eff.shape[1] != eff.shape[2]:
            raise ValueError("effects must be a nonempty list of square matrices")
        if not np.all(np.isfinite(eff)):
            raise ValueError("effects must have finite entries")
        d = eff.shape[1]
        adj = eff.conj().swapaxes(-1, -2)
        herm = np.abs(eff - adj).max(axis=(1, 2))
        lo = np.linalg.eigvalsh((eff + adj) / 2).min(axis=1)
        # the first effect that breaks either condition names the error
        for i in np.flatnonzero((herm > PSD_TOL) | (lo < -PSD_TOL))[:1]:
            if herm[i] > PSD_TOL:
                raise ValueError(f"effect {i} is not hermitian (deviation {herm[i]:.3e})")
            raise ValueError(f"effect {i} is not positive semidefinite (min eigenvalue {lo[i]:.3e})")
        sum_dev = float(np.max(np.abs(eff.sum(axis=0) - np.eye(d))))
        if sum_dev > SUM_TOL:
            raise ValueError(f"effects do not sum to identity (deviation {sum_dev:.3e})")
        self.effects = eff

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self.effects.shape[0]


def _psd_sqrt(mat: np.ndarray, tol: float = PSD_TOL) -> np.ndarray:
    vals, vecs = np.linalg.eigh((mat + mat.conj().T) / 2)
    if vals.min() < -tol:
        raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {vals.min():.3e})")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def measurement_operators(povm: Povm) -> np.ndarray:
    """Principal (hermitian positive) square roots M_i with M_i^dag M_i = E_i.

    Among the many operator square roots of each effect this is the canonical
    deterministic choice.
    """
    return np.array([_psd_sqrt(e) for e in povm.effects])


@dataclass(eq=False)
class NaimarkExtension:
    """Projective model of a POVM on the system x ancilla space."""

    system_dim: int
    outcomes: int
    global_unitary: np.ndarray        # (d*n, d*n)
    ancilla_state_index: int = 0      # the ancilla starts in this basis state

    def __post_init__(self):
        big = self.system_dim * self.outcomes
        self.global_unitary = np.asarray(self.global_unitary)
        if self.global_unitary.shape != (big, big):
            raise ValueError(
                f"global unitary is {self.global_unitary.shape}, expected ({big}, {big})"
            )
        if not 0 <= self.ancilla_state_index < self.outcomes:
            raise ValueError(
                f"ancilla state index {self.ancilla_state_index} is outside 0..{self.outcomes - 1}"
            )

    @cached_property
    def pvm(self) -> np.ndarray:
        """Rank-d projectors P_i = V^dag (I (x) |i><i|) V, shape (n, d*n, d*n).

        Built from V on first access and kept; nothing in the dilation or its
        verification reads them.
        """
        v, n = self.global_unitary, self.outcomes
        big = v.shape[0]
        pvm = np.empty((n, big, big), dtype=complex)
        for i in range(n):
            rows = v[i::n, :]
            pvm[i] = rows.conj().T @ rows
        return pvm


def dilate(povm: Povm) -> NaimarkExtension:
    """Construct the canonical projective extension of a POVM.

    The global space is system (x) ancilla with the ancilla index varying
    fastest, so global basis index (x, i) sits at x*n + i.  The unitary V is
    fixed by V(|psi> (x) |0>) = sum_i (M_i |psi>) (x) |i>; its remaining
    columns are completed by ordered Gram-Schmidt over the canonical basis
    vectors of the global space, smallest index first, re-orthogonalized
    twice so the completion is deterministic and numerically tight.  The
    projectors P_i = V^dag (I (x) |i><i|) V are built from V only when the
    extension's ``pvm`` is read.
    """
    mops = measurement_operators(povm)
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
    return NaimarkExtension(system_dim=d, outcomes=n, global_unitary=v, ancilla_state_index=anc)


def verify_dilation(povm: Povm, ext: NaimarkExtension, trials: int = 100, seed: int = 0) -> float:
    """Worst probability mismatch between the POVM and its projective model.

    Over ``trials`` random states returns
    max_i |tr(E_i rho) - tr(P_i (rho (x) |a><a|))| with the fixed ancilla
    state a.  The dilated side is evaluated as tr(C_i rho), where
    C_i = M_i^dag M_i with M_i = V[i::n, a::n] is the block of P_i on the
    ancilla-a subspace, read from V and not from the effects.  The two paths
    agree analytically, so the return value is pure floating-point noise for
    a faithful dilation.
    """
    d, n = povm.dim, povm.n_outcomes
    if ext.system_dim != d or ext.outcomes != n:
        raise ValueError("extension does not match the POVM dimensions")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    # rows x*n + i of column block a::n, regrouped as M[i][x, :]
    mops = ext.global_unitary[:, ext.ancilla_state_index::n].reshape(d, n, d).swapaxes(0, 1)
    compressed = mops.conj().swapaxes(-2, -1) @ mops
    rhos = random_density_matrices(d, seed, count=trials)[:, None]
    direct = np.trace(povm.effects @ rhos, axis1=-2, axis2=-1).real
    dilated = np.trace(compressed @ rhos, axis1=-2, axis2=-1).real
    return float(np.max(np.abs(direct - dilated)))


def induced_partition(povm: Povm) -> tuple[BlockPartition, np.ndarray]:
    """Block partition of the dilated space induced by the ancilla measurement.

    In the frame rotated by the dilation unitary, the measurement is the
    projective family {I (x) |i><i|}, and after reordering the global basis
    from (x, i) = x*n + i to i*d + x each projector supports a contiguous
    range of d indices.  Returns the partition (d, ..., d) of d*n together
    with that reordering, as an array ``perm`` with new_index = perm[old_index].
    """
    d, n = povm.dim, povm.n_outcomes
    perm = np.arange(d * n).reshape(n, d).T.reshape(-1)
    return BlockPartition([d] * n), perm
