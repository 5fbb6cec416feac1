"""POVMs and their canonical dilation to a projective measurement.

Any POVM {E_i} on a d-dimensional system can be realized as a projective
measurement on system x ancilla: attach an ancilla in a fixed basis state,
apply a global unitary V, and measure the ancilla in its computational
basis.  The construction here is the canonical one: the measurement
operators are the principal square roots M_i of the effects, the columns of
V addressed by the fixed ancilla state hold the stacked M_i, and the
remaining columns are the ordered Gram-Schmidt completion over the canonical
basis vectors, smallest index first, where a candidate whose distance from
the span of the vectors accepted before it is below 1e-8 is skipped.  The
completion is computed in panels of candidates by matrix products and QR
factorizations.  Each panel is projected against an orthonormal basis of at
most d vectors, the span of the fixed columns' rows from the panel on, so
the completion costs O((dn)^2 d) work rather than O((dn)^3); the V it gives
equals the one-candidate-at-a-time completion up to rounding.  The dilation
is neither minimal nor unique, but it is reproducible byte for byte and
exactly reproduces every outcome probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blockcore import BlockPartition
from .channels import MAX_ENTRY
from .sampling import random_density_matrices

# Tolerances for effect positivity and completeness of the effect sum.
PSD_TOL = 1e-9
SUM_TOL = 1e-9
# The dilation's completion: canonical candidates per panel, the projected
# norm below which a candidate is skipped, and the one at or below which a
# skip counts as exact (its candidate lies in the span up to rounding).
GS_PANEL = 48
GS_SKIP_NORM = 1e-8
GS_EXACT_SKIP = 1e-12


@dataclass(eq=False)
class Povm:
    """Positive effects E_i with sum E_i = I."""

    effects: np.ndarray  # (n, d, d) complex

    def __post_init__(self):
        eff = np.asarray(self.effects, dtype=complex)
        if eff.ndim != 3 or eff.shape[0] == 0 or eff.shape[1] != eff.shape[2]:
            raise ValueError("effects must be a nonempty list of square matrices")
        # a valid effect has entries of magnitude at most 1; the bound keeps
        # the checks below from overflowing, and NaN fails it too
        if not np.all(np.abs(eff) <= MAX_ENTRY):
            raise ValueError("effects must have finite entries of magnitude at most 2**500")
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


def measurement_operators(povm: Povm) -> np.ndarray:
    """Principal (hermitian positive) square roots M_i with M_i^dag M_i = E_i.

    Among the many operator square roots of each effect this is the canonical
    deterministic choice.  All n roots come from one stacked ``eigh``.
    """
    eff = povm.effects
    vals, vecs = np.linalg.eigh((eff + eff.conj().swapaxes(-1, -2)) / 2)
    lo = vals.min()
    if lo < -PSD_TOL:
        raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {lo:.3e})")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)[:, None, :]) @ vecs.conj().swapaxes(-1, -2)


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

        Built from V on first access and kept; ``dilate`` and ``verify_dilation``
        do not read them, ``blockcoh.verify.dilation`` checks their algebra.
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
    fixed by V(|psi> (x) |0>) = sum_i (M_i |psi>) (x) |i>.  Its remaining
    columns, in order, are the ordered Gram-Schmidt completion over the
    canonical basis vectors e_t of the global space, smallest t first: each
    e_t is projected twice against every vector accepted before it and
    normalized, and is skipped when its projected norm is below
    ``GS_SKIP_NORM`` (1e-8).

    The completion runs on panels of up to ``GS_PANEL`` consecutive
    candidates.  A panel is projected once against a projection basis, with
    the coefficients <b, e_t> = conj(b[t]) read off the stored vectors, and
    factored by one Householder QR; |R_jj| is the projected norm of its j-th
    candidate, and the first column with |R_jj| < ``GS_SKIP_NORM`` is a
    skip, after which the next panel starts.  The columns before it get the
    phase R_jj/|R_jj| of the Gram-Schmidt vector, are projected a second
    time against the projection basis, and are renormalized by a Cholesky
    factor of their Gram matrix.

    While every skip so far was exact, the vectors accepted before e_t span
    E_<t (+) range(W[t:]), with E_<t the span of e_0 .. e_t-1 and W[t:] the
    rows t.. of the d fixed columns, of rank d minus the skips so far.  The
    panel's candidates are orthogonal to E_<t, so the projection basis is an
    orthonormal basis Y of range(W[t:]) on the coordinates t..: W itself at
    t = 0, the Q of the QR of Y's rows below the previous panel after a
    panel without a skip, and the leading right singular vectors of Y's
    rows past the skipped candidate after an exact skip.  Below the panel
    the work is done in the coordinates of that Q, so a panel of width w
    factors a (w + rank) x w matrix, and the completion costs O((dn)^2 d)
    instead of O((dn)^3).  A skip whose |R_jj| exceeds ``GS_EXACT_SKIP``
    (1e-12) leaves e_t outside the accepted span by rounding, so the
    identity no longer holds; from then on the projection basis is every
    vector accepted so far, copied out of V.  A single panel at t = 0
    computes what the all-vector projection computes, bit for bit.

    V is the only store of the completion: each accepted vector is written
    straight into its column, with no separate basis and no final copy.  On
    random POVMs the traced peak of ``dilate`` is about 1.6, 1.25 and 1.16
    times V's 16 (dn)^2 bytes at (d, n) = (16, 16), (24, 24) and (32, 32).

    So V equals the one-candidate-at-a-time completion up to rounding, with
    the same accepted candidates wherever no projected norm lies within
    rounding of the threshold, and its fixed columns hold the square roots
    bit for bit.  Raises RuntimeError when the candidates run out before V
    is complete.  The projectors P_i = V^dag (I (x) |i><i|) V are built from
    V only when the extension's ``pvm`` is read.
    """
    mops = measurement_operators(povm)
    d, n = povm.dim, povm.n_outcomes
    big = d * n
    anc = 0

    # V is the only store: row x*n + i of fixed column y*n + anc holds
    # M_i[x, y], and accepted vector k is column order[k], the fixed columns
    # first and then the free columns x*n + i, i != anc, in increasing order
    v = np.zeros((big, big), dtype=complex)
    v[:, anc::n] = mops.transpose(1, 0, 2).reshape(big, d)
    order = np.argsort(np.arange(big) % n != anc, kind="stable")
    vt = v.T  # row k of vt[order] is accepted vector k
    # tail: orthonormal rows over the coordinates t.. spanning range(W[t:]),
    # None once a skip was set by rounding; acc is the projection basis in
    # the coordinates lo.., cut to the panel and the span below it by frame
    tail = vt[order[:d]]
    k, t = d, 0
    while k < big:
        width = min(GS_PANEL, big - k, big - t)
        if width == 0:
            raise RuntimeError("orthonormal completion of the dilation failed")
        frame = None
        if tail is None:
            acc, lo = vt[order[:k]], 0
        else:
            acc, lo = tail, t
            if width < big - k:
                # the rows below the panel in an orthonormal basis of their
                # span, so the panel has width + rank rows, not big - t
                frame, below = np.linalg.qr(tail[:, width:].T)
                acc = np.hstack([tail[:, :width], below.T])
        cols = slice(t - lo, t - lo + width)
        # <b_i, e_t> = conj(b_i[t]), so the first pass needs no product
        panel = -(acc.T @ acc[:, cols].conj())
        panel[cols, :] += np.eye(width)
        q, r = np.linalg.qr(panel)
        diag = r.diagonal()
        kept = np.abs(diag) >= GS_SKIP_NORM
        good = width if kept.all() else int(np.argmin(kept))
        if good:
            q = q[:, :good] * (diag[:good] / np.abs(diag[:good]))
            # the in-panel QR can lift a column's error along the projection
            # basis by 1/|R_jj|; the second pass removes it
            q -= acc.T @ (acc @ q.conj()).conj()
            # with q^dag q = L L^dag, the Cholesky factor of conj(q^dag q) is
            # conj(L), and conj(L)^-1 q^T holds the columns of q L^-dag as rows
            chol = np.linalg.cholesky(q.T @ q.conj())
            rows = np.linalg.inv(chol) @ q.T
            dest = order[k:k + good]
            if frame is None:
                vt[dest, lo:] = rows
            else:
                vt[dest, t:t + width] = rows[:, :width]
                vt[dest, t + width:] = rows[:, width:] @ frame.T
        if tail is not None and good < width:
            if abs(diag[good]) <= GS_EXACT_SKIP:
                # e_t+good lies in the span, so range(W[t':]) loses one dimension
                _, _, vh = np.linalg.svd(tail[:, good + 1:], full_matrices=False)
                tail = vh[:len(tail) - 1]
            else:
                tail = None
        elif frame is not None:  # a panel without a frame completes V
            tail = frame.T
        k += good
        t += good + (good < width)

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
    rhos = random_density_matrices(d, seed, count=trials)

    def traces(ops):  # tr(O_i rho), every O_i rho of a state from one (n*d, d) product
        return np.trace((ops.reshape(n * d, d) @ rhos).reshape(trials, n, d, d),
                        axis1=-2, axis2=-1).real

    return float(np.max(np.abs(traces(povm.effects) - traces(compressed))))


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
