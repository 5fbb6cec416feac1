"""Kraus-set channels and classifiers for the block free-operation classes.

A channel is held as a finite set of d x d Kraus operators tied to a block
partition.  Three nested families of free operations are decided here:

* MBIO: the channel as a whole maps free (block-diagonal) states to free
  states.
* BIO: every single Kraus branch maps free states to free states, so block
  coherence is not created even probabilistically.
* SBIO: in addition every branch commutes with the block-dephasing map.

Each of the branch-level classes is decided two ways.  The semantic
classifiers quantify the defining condition over the elementary-matrix basis
of the relevant operator space (linearity makes the basis check complete).
They compute it from column block maxima, max |K[a, x]| over the rows a of
one block: the entries of K|x><y|K^dag are K[a, x] conj(K[b, y]), so the
block maxima give every per-pair deviation and scale exactly, and the
verdicts are a restatement of the basis check rather than an approximation.
The structural classifiers test the block sparsity pattern instead.  Both
rest on one rule, which names the open column blocks of a pattern: those in
which some operator is nonzero in two row blocks (``_mixed_blocks``) and, for
SBIO, those in which some operator's row block is nonzero there and in
another column block (``_shared_blocks``).  The structural keys hold when
the pattern at the tolerance has no open block.  The semantic and MBIO
reductions run only on the open blocks of the exact support (magnitude > 0):
elsewhere every product in a deviation has an exact zero factor, so skipping
a block changes no verdict and no worst deviation.  Structural membership
implies semantic membership; both are exposed so the implication can be
checked rather than assumed.  Kraus entries are at most ``MAX_ENTRY`` =
2**500 in magnitude, so no product (at most 2**1000), sum of up to 2**23
products or threshold overflows.

A constructor for physically realizable free channels is included: a free
ancilla state, a permutation-with-phases joint unitary and a block projective
measurement on the ancilla reduce to Kraus operators on the system.  Random
generators produce members of each class by construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .blockcore import (  # CPTP_TOL and MAX_ENTRY stay readable as channels.*
    CPTP_TOL,
    MAX_ENTRY,
    ZERO_TOL,
    BlockPartition,
    _as_stack,
    block_labels,
    block_mask,
    zero_threshold,
)
from .sampling import as_rng, ginibre, haar_unitary

# Entries of one Gram panel of the MBIO check (16 bytes each as computed).
MBIO_PANEL = 1 << 16

GEN_KINDS = ("bio", "sbio", "pbio", "unitary")


class PbioConstructionError(ValueError):
    """The requested recipe does not produce the promised block structure."""


@dataclass(eq=False)
class KrausSet:
    """A finite set of d x d Kraus operators tied to a block partition."""

    partition: BlockPartition
    operators: np.ndarray  # (n, d, d) complex

    def __post_init__(self):
        ops = np.asarray(self.operators, dtype=complex)
        if ops.ndim == 2:
            ops = ops[None, :, :]
        if ops.ndim != 3 or ops.shape[0] == 0:
            raise ValueError("need at least one Kraus operator")
        d = self.partition.total
        if ops.shape[1:] != (d, d):
            raise ValueError(
                f"operators must be {d}x{d} for partition {self.partition}, "
                f"got {ops.shape[1]}x{ops.shape[2]}"
            )
        if not np.all(np.abs(ops) <= MAX_ENTRY):  # NaN fails too
            raise ValueError("Kraus operators must have finite entries of magnitude at most 2**500")
        self.operators = ops

    @property
    def dim(self) -> int:
        return self.partition.total

    @property
    def n_operators(self) -> int:
        return self.operators.shape[0]


def cptp_deviation(ks: KrausSet) -> float:
    """Largest entry deviation of sum K^dag K from the identity."""
    # sum_n K_n^dag K_n is the Gram matrix of the operators stacked to (n*d, d)
    stacked = ks.operators.reshape(-1, ks.dim)
    total = stacked.conj().T @ stacked
    return float(np.max(np.abs(total - np.eye(ks.dim))))


def verify_cptp(ks: KrausSet) -> bool:
    """True when the Kraus set satisfies completeness within CPTP_TOL."""
    return cptp_deviation(ks) <= CPTP_TOL


def branch_outputs(ks: KrausSet, rho) -> np.ndarray:
    """Every unnormalized branch K_n rho K_n^dag, in operator order.

    ``rho`` is one (d, d) state, giving shape (n, d, d), or a stack
    (..., d, d), giving (..., n, d, d).  Branch n's probability is the trace
    of its output.
    """
    rho = _as_stack(ks.partition, rho)
    ops = ks.operators
    n, d = ops.shape[:2]
    # every K_n rho of one state is one product of the (n*d, d) stacked operators
    left = (ops.reshape(n * d, d) @ rho).reshape(rho.shape[:-2] + (n, d, d))
    return left @ ops.conj().swapaxes(-1, -2)


def apply_channel(ks: KrausSet, rho) -> np.ndarray:
    """Full channel action sum_n K_n rho K_n^dag.

    ``rho`` is one (d, d) state or a stack (..., d, d); the output has the
    same shape.  The caller is responsible for verify_cptp; dimensions are
    checked here.
    """
    return branch_outputs(ks, rho).sum(axis=-3)


def _row_block_maxima(ops: np.ndarray, partition: BlockPartition) -> np.ndarray:
    """A[n, r, x]: the largest |K_n[a, x]| over the rows a of row block r."""
    return np.maximum.reduceat(np.abs(ops), partition.offsets, axis=1)


def _nonzero_blocks(amax: np.ndarray, partition: BlockPartition, tol: float) -> np.ndarray:
    """Boolean (n, k, k) block pattern of each operator against its own scale.

    ``amax`` is the operators' _row_block_maxima; tol 0 gives the exact support.
    """
    peaks = np.maximum.reduceat(amax, partition.offsets, axis=2)
    return peaks > zero_threshold(peaks.max(axis=(1, 2), keepdims=True), tol)


def _grid(ks: KrausSet, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(A, pattern): the _row_block_maxima of the operators and their block pattern at ``tol``."""
    amax = _row_block_maxima(ks.operators, ks.partition)
    return amax, _nonzero_blocks(amax, ks.partition, tol)


def _mixed_blocks(pattern: np.ndarray) -> np.ndarray:
    """The column blocks in which some operator of ``pattern`` is nonzero in two row blocks.

    None is open exactly when the pattern is BIO.  In the exact support (the
    pattern at tol 0) every other column block has each operator's columns
    in one row block, so each cross-block product K_n[a, x] conj(K_n[b, y])
    has an exact zero factor: the BIO deviation of every branch and the
    summed cross block of the MBIO Gram are exactly 0 at every tolerance.
    """
    return np.flatnonzero((pattern.sum(axis=1) > 1).any(axis=0))


def _shared_blocks(pattern: np.ndarray) -> np.ndarray:
    """The column blocks l where some operator's row block is nonzero in l and elsewhere.

    With no mixed block, none is open exactly when the pattern is SBIO.  In
    the exact support, every other on-block product K_n[a, x] conj(K_n[b, y])
    (x in l, y outside l, a and b in one row block) has an exact zero factor:
    the SBIO cross deviation is exactly 0.
    """
    spread = pattern & (pattern.sum(axis=2, keepdims=True) > 1)
    return np.flatnonzero(spread.any(axis=(0, 1)))


def block_pattern(op, partition: BlockPartition) -> np.ndarray:
    """Boolean (k, k) grid: True where the (row, col) block holds a nonzero entry.

    An entry is nonzero when it exceeds the scale-relative threshold of the
    whole operator.  The entries must pass KrausSet's check (finite, at most
    MAX_ENTRY in magnitude); otherwise it is a ValueError.
    """
    op = np.asarray(op, dtype=complex)
    d = partition.total
    if op.shape != (d, d):
        raise ValueError(f"operator has shape {op.shape}, expected ({d}, {d})")
    return _grid(KrausSet(partition, op), ZERO_TOL)[1][0]


def is_bio_structural(ks: KrausSet) -> bool:
    """Every operator has at most one nonzero block in each column partition."""
    return not _mixed_blocks(_grid(ks, ZERO_TOL)[1]).size


def is_sbio_structural(ks: KrausSet) -> bool:
    """At most one nonzero block per column partition and per row partition."""
    pattern = _grid(ks, ZERO_TOL)[1]
    return not (_mixed_blocks(pattern).size or _shared_blocks(pattern).size)


# The semantic classifiers test K|x><y|K^dag over elementary basis pairs
# (x, y).  Its entries are K[a, x] conj(K[b, y]), so its largest magnitude
# over the rows of block r and the columns of block s is A[n, r, x] A[n, s, y]
# with A from _row_block_maxima, computed once and passed in.  Each reduction
# below yields (deviation, scale) arrays over its pairs, one column block or
# column at a time, and a pair passes when deviation <= zero_threshold(scale).


def _bio_pairs(amax: np.ndarray, p: BlockPartition, blocks):
    """Same-block pairs: the worst cross-block entry over all branches.

    ``blocks`` lists the column blocks (the verdicts pass _mixed_blocks).
    """
    cross = ~np.eye(p.num_blocks, dtype=bool)
    for l in blocks:
        a = amax[:, :, p.block_slice(l)]
        prod = a[:, :, None, :, None] * a[:, None, :, None, :]  # (n, r, s, x, y)
        yield prod[:, cross].max(axis=(0, 1), initial=0.0), prod.max(axis=(0, 1, 2))


def _cross_pairs(amax: np.ndarray, p: BlockPartition, blocks):
    """Cross-block pairs: the worst on-block entry, SBIO's extra condition.

    ``blocks`` lists the column blocks (the verdicts pass _shared_blocks).
    """
    labels = block_labels(p)
    for l in blocks:
        a, b = amax[:, :, labels == l], amax[:, :, labels != l]
        on = (a[:, :, :, None] * b[:, :, None, :]).max(axis=(0, 1))
        yield on, (a.max(axis=1)[:, :, None] * b.max(axis=1)[:, None, :]).max(axis=0)


def _mbio_pairs(ks: KrausSet, blocks):
    """Same-block pairs of the summed output sum_n K_n|x><y|K_n^dag.

    The sum over branches does not factor into block maxima, so each column
    block takes a Gram contraction of its columns against themselves,
    gram[a, x, b, y] = sum_n K_n[a, x] conj(K_n[b, y]).  It is formed a
    panel of rows a at a time, at most ``MBIO_PANEL`` entries (one row at
    least), and its magnitudes are laid out as [a, b, x, y], so a pair's
    scale is the maximum over the two leading axes and its deviation the
    same maximum over the (a, b) in different blocks only.  ``blocks``
    lists the column blocks (the verdicts pass _mixed_blocks).
    """
    p, ops = ks.partition, ks.operators
    d, off = p.total, ~block_mask(p)[:, :, None, None]
    for l in blocks:
        dc = p.dims[l]
        cols = ops[:, :, p.block_slice(l)].reshape(len(ops), d * dc)
        right = cols.conj()
        step = max(1, MBIO_PANEL // (d * dc * dc))
        dev, scale = np.zeros((dc, dc)), np.zeros((dc, dc))
        for a in range(0, d, step):
            rows = min(step, d - a)
            gram = (cols[:, a * dc:(a + rows) * dc].T @ right).reshape(rows, dc, d, dc)
            mag = np.abs(gram.transpose(0, 2, 1, 3), out=np.empty((rows, d, dc, dc)))
            np.maximum(scale, mag.max(axis=(0, 1)), out=scale)
            np.maximum(dev, mag.max(axis=(0, 1), where=off[a:a + rows], initial=0.0), out=dev)
        yield dev, scale


def _holds(pairs, tol: float) -> bool:
    # stops at the first failing pair array; the predicates and the report
    # keep this apart from _verdict, whose full pass made a BIO member's SBIO
    # check reduce every shared block (classify-ladder measured slower)
    return all(np.all(dev <= zero_threshold(scale, tol)) for dev, scale in pairs)


def _verdict(pairs, tol: float) -> tuple[bool, float]:
    # one pass over every pair array: (all pairs pass, worst deviation)
    holds, worst = True, 0.0
    for dev, scale in pairs:
        holds = holds and bool(np.all(dev <= zero_threshold(scale, tol)))
        worst = max(worst, float(dev.max(initial=0.0)))
    return holds, worst


def _semantic_pairs(ks: KrausSet, strict: bool):
    # the BIO pairs and, if ``strict``, the SBIO cross pairs, each over the
    # column blocks its exact support leaves open
    amax, support = _grid(ks, 0.0)
    pairs = _bio_pairs(amax, ks.partition, _mixed_blocks(support))
    if strict:
        pairs = itertools.chain(pairs, _cross_pairs(amax, ks.partition, _shared_blocks(support)))
    return pairs


def semantic_verdict(ks: KrausSet, strict: bool = False) -> tuple[bool, float]:
    """(verdict, worst deviation) of the BIO or, if ``strict``, SBIO semantic check.

    Both come from one full pass over the block-maxima reductions.  The
    is_*_semantic predicates reach the same verdict but stop at the first
    failing column block, so they give no deviation.
    """
    return _verdict(_semantic_pairs(ks, strict), ZERO_TOL)


def is_bio_semantic(ks: KrausSet) -> bool:
    """Each branch leaves every diagonal-block basis element block-diagonal.

    Checks dephase(K B K^dag) == K B K^dag for every operator K and every
    elementary B = |x><y| with x, y in the same block.  By linearity this is
    equivalent to the same condition for the diagonal blocks of all states.
    """
    return _holds(_semantic_pairs(ks, False), ZERO_TOL)


def is_sbio_semantic(ks: KrausSet) -> bool:
    """BIO condition plus: branches annihilate every cross-block basis element.

    The extra requirement is dephase(K B' K^dag) == 0 for every elementary
    B' = |x><y| with x, y in different blocks, which by linearity is the same
    as each branch commuting with the block-dephasing map.
    """
    return _holds(_semantic_pairs(ks, True), ZERO_TOL)


def is_mbio(ks: KrausSet) -> bool:
    """The summed channel maps every free-space basis element to a free operator."""
    return _holds(_mbio_pairs(ks, _mixed_blocks(_grid(ks, 0.0)[1])), ZERO_TOL)


def sbio_commutation_deviation(ks: KrausSet, rho) -> float:
    """Max entry of dephase(K rho K^dag) - K dephase(rho) K^dag over branches.

    ``rho`` may be a single (d, d) state or a batch (..., d, d).  Both sides
    are branch_outputs products, K_n rho K_n^dag and K_n dephase(rho) K_n^dag,
    so the value agrees with a direct einsum contraction to rounding; it is
    zero up to rounding for a strict-class set and need not be for others.
    """
    mask = block_mask(ks.partition)
    lhs = branch_outputs(ks, rho) * mask
    rhs = branch_outputs(ks, _as_stack(ks.partition, rho) * mask)
    return float(np.max(np.abs(lhs - rhs)))


def _check_tolerance(tol: float, text=None) -> float:
    """``tol`` if it is finite and >= 0, else a ValueError that shows ``text`` or ``tol``.

    classifier_report and the command line's --tol share this rule.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        shown = tol if text is None else text
        raise ValueError(f"tolerance must be finite and >= 0, got {shown}")
    return tol


def classifier_report(ks: KrausSet, tol: float = ZERO_TOL) -> dict:
    """All classifier verdicts for one Kraus set, as a JSON-ready dict.

    A tolerance that is not finite and >= 0 is a ValueError.
    """
    _check_tolerance(tol)
    p = ks.partition
    amax, pattern = _grid(ks, tol)
    support = _nonzero_blocks(amax, p, 0.0)
    mixed = _mixed_blocks(support)
    bio_structural = not _mixed_blocks(pattern).size
    bio_semantic = _holds(_bio_pairs(amax, p, mixed), tol)
    sbio_semantic = bio_semantic and _holds(_cross_pairs(amax, p, _shared_blocks(support)), tol)
    return {
        "cptp": verify_cptp(ks),
        "mbio": _holds(_mbio_pairs(ks, mixed), tol),
        "bio_structural": bio_structural,
        "bio_semantic": bio_semantic,
        "sbio_structural": bio_structural and not _shared_blocks(pattern).size,
        "sbio_semantic": sbio_semantic,
        "tolerance": float(tol),
    }


# ---------------------------------------------------------------------------
# Physically realizable free channels
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class PbioSpec:
    """Recipe for a physically built free channel.

    The ingredients are a free ancilla state (amplitudes over the ancilla
    basis, block structure given by ``ancilla_partition``), a joint unitary
    that permutes the product basis with phases, and a block projective
    measurement on the ancilla.  The permutation is stored through its two
    output components: product index (x, s) maps to
    (pi_system[x, s], pi_ancilla[x, s]).  Making a spec raises ValueError
    for a wrong shape, a non-finite amplitude or phase, a permutation that is
    no bijection, amplitudes off unit norm by more than 1e-12, or an ancilla
    state that is not free (nonzero amplitudes in more than one block).
    """

    system_partition: BlockPartition
    ancilla_partition: BlockPartition
    amplitudes: np.ndarray   # (d_B,) complex, unit norm
    pi_system: np.ndarray    # (d_A, d_B) int
    pi_ancilla: np.ndarray   # (d_A, d_B) int
    phases: np.ndarray       # (d_A, d_B) float

    def __post_init__(self):
        da = self.system_partition.total
        db = self.ancilla_partition.total
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).reshape(db)
        self.pi_system = np.asarray(self.pi_system, dtype=int)
        self.pi_ancilla = np.asarray(self.pi_ancilla, dtype=int)
        self.phases = np.asarray(self.phases, dtype=float)
        for name, arr in (
            ("pi_system", self.pi_system),
            ("pi_ancilla", self.pi_ancilla),
            ("phases", self.phases),
        ):
            if arr.shape != (da, db):
                raise ValueError(f"{name} must have shape ({da}, {db}), got {arr.shape}")
        if not (np.all(np.isfinite(self.amplitudes)) and np.all(np.isfinite(self.phases))):
            raise ValueError("ancilla amplitudes and phases must be finite")
        flat = self.pi_system * db + self.pi_ancilla
        if (
            self.pi_system.min() < 0
            or self.pi_system.max() >= da
            or self.pi_ancilla.min() < 0
            or self.pi_ancilla.max() >= db
            or not np.array_equal(np.sort(flat.ravel()), np.arange(da * db))
        ):
            raise ValueError("permutation is not a bijection on the product basis")
        norm_dev = abs(float(np.sum(np.abs(self.amplitudes) ** 2)) - 1.0)
        if norm_dev > 1e-12:
            raise ValueError(f"ancilla amplitudes are not normalized (off by {norm_dev:.3e})")
        if np.ptp(block_labels(self.ancilla_partition)[self.amplitudes != 0]) > 0:
            raise ValueError("ancilla state is not free: its amplitudes span more than one block")


def has_scaled_isometry_blocks(ks: KrausSet) -> bool:
    """Each nonzero block of each operator factors as scalar x unitary x projector.

    Concretely B^dag B must be diagonal with all nonzero diagonal entries
    equal, which is what the physical construction promises block by block.
    """
    p = ks.partition
    dims, offsets = np.array(p.dims), np.array(p.offsets)
    n, r, c = np.nonzero(_grid(ks, ZERO_TOL)[1])
    # one stacked Gram product per (row size, column size) of nonzero block
    for dr, dc in set(zip(dims[r].tolist(), dims[c].tolist())):
        pick = (dims[r] == dr) & (dims[c] == dc)
        rows = offsets[r[pick], None] + np.arange(dr)
        cols = offsets[c[pick], None] + np.arange(dc)
        blks = ks.operators[n[pick, None, None], rows[:, :, None], cols[:, None, :]]
        gram = blks.conj().swapaxes(-1, -2) @ blks
        mag = np.abs(gram)
        thr = zero_threshold(mag.max(axis=(1, 2)))
        diag = gram.diagonal(axis1=1, axis2=2).real
        mag[:, range(dc), range(dc)] = 0.0  # leaves the off-diagonal magnitudes
        live = diag > thr[:, None]
        spread = (diag.max(axis=1, where=live, initial=-np.inf)
                  - diag.min(axis=1, where=live, initial=np.inf))
        if np.any(mag.max(axis=(1, 2)) > thr) or np.any(spread > thr):
            return False
    return True


def build_pbio(spec: PbioSpec) -> KrausSet:
    """Reduce a physical recipe to Kraus operators on the system.

    For each ancilla measurement index j the operator collects the terms

        K_j = sum_{s, x : pi_ancilla[x, s] = j}
              amplitudes[s] * exp(i phases[x, s]) |pi_system[x, s]><x|

    Operators that vanish identically (measurement outcomes that never fire)
    are dropped.  The spec was checked when it was made; the result is
    checked to be complete, to carry at most one nonzero block per row and
    per column partition, and to factor block-wise as scalar x unitary x
    projector.  A recipe that breaks any of these raises
    PbioConstructionError rather than returning a channel outside the class.
    """
    da = spec.system_partition.total
    db = spec.ancilla_partition.total
    kraus = np.zeros((db, da, da), dtype=complex)
    coeff = spec.amplitudes[None, :] * np.exp(1j * spec.phases)
    # pi is a bijection, so every (x, s) term lands on its own entry; adding
    # onto zeros keeps a signed zero term a +0 entry
    x = np.arange(da)[:, None]
    kraus[spec.pi_ancilla, spec.pi_system, x] += coeff
    keep = np.abs(kraus).max(axis=(1, 2)) > 0.0
    ks = KrausSet(spec.system_partition, kraus[keep])
    dev = cptp_deviation(ks)
    if dev > CPTP_TOL:
        raise PbioConstructionError(f"construction is not complete (deviation {dev:.3e})")
    if not is_sbio_structural(ks):
        raise PbioConstructionError(
            "permutation does not respect the product block structure: an operator "
            "has more than one nonzero block in a row or column partition"
        )
    if not has_scaled_isometry_blocks(ks):
        raise PbioConstructionError(
            "a nonzero block does not factor as scalar x unitary x projector"
        )
    return ks


# ---------------------------------------------------------------------------
# Random generation
# ---------------------------------------------------------------------------

def _complete_block(fixed: np.ndarray, dc: int, rng) -> np.ndarray:
    """``dc`` orthonormal columns orthogonal to the columns of ``fixed`` (N, m).

    A thin SVD of ``fixed`` gives its rank and left singular vectors U_r
    (singular values above 1e-12 of the largest count).  One Gaussian panel
    g (N, dc) is projected off U_r and orthonormalized by one QR.  Raises
    RuntimeError when fewer than ``dc`` directions are left free.
    """
    n_rows, rank = fixed.shape[0], 0
    if fixed.shape[1]:
        u, s, _ = np.linalg.svd(fixed, full_matrices=False)
        rank = int(np.sum(s > s[0] * 1e-12))
    if n_rows - rank < dc:
        raise RuntimeError(f"{n_rows - rank} free directions left for {dc} columns")
    g = ginibre(rng, n_rows, dc)
    if rank:
        u = u[:, :rank]
        g -= u @ (u.conj().T @ g)
    q, _ = np.linalg.qr(g)
    return q


def _kraus_from_block_patterns(partition: BlockPartition, patterns, rng) -> np.ndarray:
    """Fill a legal block pattern with Gaussian blocks and make it complete.

    ``patterns[n][c]`` lists the row blocks operator n may occupy in column
    block c.  Completeness is equivalent to the stacked (n_ops*d, d) matrix of
    all operators having orthonormal columns, so each column block is drawn
    from the orthogonal complement of the previously fixed columns inside its
    own permitted row support: on those N rows, a Gaussian panel g (N, dc) is
    projected by P = I - U_r U_r^dag off the span of the fixed columns and
    orthonormalized by one QR (``_complete_block``).  No null basis is formed.
    For any orthonormal basis B of the complement P = B B^dag, and B^dag g is
    again i.i.d. complex Gaussian, so P g has the law of B times a Gaussian
    panel: the completed blocks have the same distribution as when they are
    drawn inside an explicit null basis, only the realization for a seed
    differs.  Raises RuntimeError when a pattern leaves a column block with
    too little support to complete.
    """
    d = partition.total
    n_ops = len(patterns)
    stacked = np.zeros((n_ops * d, d), dtype=complex)
    for c in range(partition.num_blocks):
        rows = []
        for n, pat in enumerate(patterns):
            for r in pat[c]:
                sl = partition.block_slice(r)
                rows.extend(range(n * d + sl.start, n * d + sl.stop))
        rows = np.array(rows, dtype=int)
        start, dc = partition.offsets[c], partition.dims[c]
        # the columns fixed so far are exactly stacked[:, :start]
        try:
            q = _complete_block(stacked[rows, :start], dc, rng)
        except RuntimeError as exc:
            raise RuntimeError(f"pattern leaves column block {c} infeasible: {exc}") from None
        stacked[rows, start:start + dc] = q
    return stacked.reshape(n_ops, d, d)


def _bio_patterns(partition: BlockPartition, n_ops: int, rng):
    # One row block per column partition, merges allowed.
    k = partition.num_blocks
    return [
        [[int(rng.integers(k))] for _ in range(k)]
        for _ in range(n_ops)
    ]


def _sbio_patterns(partition: BlockPartition, n_ops: int, rng):
    # One row block per column partition, distinct rows within each operator.
    k = partition.num_blocks
    return [[[int(r)] for r in rng.permutation(k)] for _ in range(n_ops)]


def _random_pbio_spec(partition: BlockPartition, rng) -> PbioSpec:
    # Ancilla: a small random partition with the free state in one block.
    anc = BlockPartition([int(x) for x in rng.integers(1, 4, size=int(rng.integers(1, 4)))])
    da, db = partition.total, anc.total
    b0 = anc.block_slice(int(rng.integers(anc.num_blocks)))
    amps = np.zeros(db, dtype=complex)
    g = ginibre(rng, b0.stop - b0.start)
    amps[b0] = g / np.linalg.norm(g)
    # Permutation: identity everywhere except on ancilla indices in block b0,
    # where each system block a maps onto a same-sized block tau(a) while the
    # ancilla index is permuted inside b0.  This respects the product block
    # structure, so the reduction below stays inside the strict class.
    tau = np.arange(partition.num_blocks)
    for size in dict.fromkeys(partition.dims):
        group = [i for i, dim in enumerate(partition.dims) if dim == size]
        tau[group] = rng.permutation(group)
    pi_sys = np.tile(np.arange(da)[:, None], (1, db))
    pi_anc = np.tile(np.arange(db)[None, :], (da, 1))
    for a in range(partition.num_blocks):
        src = partition.block_slice(a)
        dst_off = partition.offsets[tau[a]]
        alpha = rng.permutation(partition.dims[a])
        beta = rng.permutation(b0.stop - b0.start)
        pi_sys[src, b0] = dst_off + alpha[:, None]
        pi_anc[src, b0] = b0.start + beta
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(da, db))
    return PbioSpec(partition, anc, amps, pi_sys, pi_anc, phases)


def _generate(partition: BlockPartition, rng, draw, accept, error: str) -> KrausSet:
    """The set that one ``draw(n_ops)`` fills, n_ops = d + 0..2 drawn first.

    Each column block spans at least n_ops >= d stacked rows, one row block
    per operator, and at most d - d_c columns are fixed before it, so one
    draw always completes.  Members are in their class by construction and
    violators leave theirs with probability 1; a set that is not complete or
    that ``accept`` rejects raises RuntimeError(``error``), with no redraw."""
    n_ops = partition.total + int(rng.integers(0, 3))
    ks = KrausSet(partition, _kraus_from_block_patterns(partition, draw(n_ops), rng))
    if not (verify_cptp(ks) and accept(ks)):
        raise RuntimeError(error)
    return ks


def gen_random(kind: str, partition: BlockPartition, seed: int) -> KrausSet:
    """Deterministic random channel of the requested class.

    ``kind`` is one of 'bio', 'sbio', 'pbio' or 'unitary'.  The output always
    satisfies completeness exactly (up to rounding) and the structural
    classifier of its class by construction.  The same (kind, partition, seed)
    triple reproduces the same operators bit for bit.
    """
    if kind not in GEN_KINDS:
        raise ValueError(f"unknown channel class {kind!r}, expected one of {GEN_KINDS}")
    rng = as_rng(seed)
    if kind == "unitary":
        return KrausSet(partition, haar_unitary(partition.total, rng)[None, :, :])
    if kind == "pbio":
        return build_pbio(_random_pbio_spec(partition, rng))
    sampler = _bio_patterns if kind == "bio" else _sbio_patterns
    return _generate(partition, rng, lambda n_ops: sampler(partition, n_ops, rng),
                     is_bio_structural if kind == "bio" else is_sbio_structural,
                     f"could not generate a {kind} set for partition {partition}")


def gen_pattern_violating(kind: str, partition: BlockPartition, seed: int) -> KrausSet:
    """Complete Kraus set engineered to break the pattern rule of its class.

    For 'bio' one operator receives two nonzero blocks in a single column
    partition.  For 'sbio' two operators each send column partitions 0 and 1
    into the same largest row partition, which stays inside the plain class
    but leaves the strict one.  A single operator would not do: completeness
    can force its merged block to zero.  Needs a partition with at least two
    blocks.
    """
    if kind not in ("bio", "sbio"):
        raise ValueError(f"no pattern-violating generator for class {kind!r}")
    k = partition.num_blocks
    if k < 2:
        raise ValueError("a single-block partition admits no violating pattern")
    rng = as_rng(seed)
    structural = is_bio_structural if kind == "bio" else is_sbio_structural

    def draw(n_ops):
        if kind == "bio":
            patterns = _bio_patterns(partition, n_ops, rng)
            r1 = patterns[0][0][0]
            r2 = int(rng.integers(k - 1))
            patterns[0][0] = [r1, r2 + (r2 >= r1)]
        else:
            patterns = _sbio_patterns(partition, n_ops, rng)
            largest = [int(np.argmax(partition.dims))]
            for n in (0, 1):
                patterns[n][0] = patterns[n][1] = largest
        return patterns

    return _generate(partition, rng, draw, lambda ks: not structural(ks),
                     f"could not generate a {kind}-violating set for {partition}")
