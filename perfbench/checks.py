"""Correctness checks computed apart from blockcoh, with numpy and math only.

Every function raises CheckFailed with a message naming what broke.  None of
them calls into blockcoh, so a fault in the package cannot hide itself by
also breaking its own check.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# Same scale-relative zero rule as the package documents: an entry is zero when
# it is at most ZERO_TOL * (1 + max|entry|) of its matrix.  The benchmark uses
# a looser ZERO_TOL than the classifiers' 1e-10 so that rounding in its own
# products cannot flip a verdict.
ZERO_TOL = 1e-9
CPTP_TOL = 1e-9
AXIOM_TOL = 1e-8
PROB_TOL = 1e-10

REPORT_KEYS = (
    "cptp", "mbio", "bio_structural", "bio_semantic",
    "sbio_structural", "sbio_semantic", "tolerance",
)

SUITE_CHECKS = {
    "appendix-a": ("bio-structural-implies-semantic", "bio-pattern-violations-rejected"),
    "appendix-b": (
        "sbio-structural-implies-semantic",
        "sbio-pattern-violations-rejected",
        "sbio-commutes-with-dephasing",
    ),
    "lemmas": tuple(f"rank-one-bounds-d={d}" for d in range(2, 6)),
    "inclusion": ("pbio-within-sbio", "sbio-within-bio", "bio-within-mbio"),
    "naimark": ("dilation-unitary", "dilation-pvm-properties", "dilation-probabilities"),
    "measures": (
        "nonnegativity-and-faithfulness", "monotonicity", "strong-monotonicity", "convexity",
    ),
}

# Frozen bound totals (bio, sbio) from the project's invariants.
FROZEN_BOUNDS = {(2, 3): (45346, 12208), (2, 2): (930, 480), (1, 1, 1): (39, 15)}


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's own computation."""


def require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# block structure helpers
# ---------------------------------------------------------------------------

def labels(dims) -> np.ndarray:
    return np.repeat(np.arange(len(dims)), dims)


def same_block(dims) -> np.ndarray:
    lab = labels(dims)
    return lab[:, None] == lab[None, :]


def _is_zero(values: np.ndarray, scale: float) -> bool:
    return float(np.max(np.abs(values), initial=0.0)) <= ZERO_TOL * (1.0 + scale)


# ---------------------------------------------------------------------------
# verify-suites
# ---------------------------------------------------------------------------

def rank_one_totals(d: int) -> tuple[int, int]:
    """Closed forms d(d^d - 1)/(d - 1) and sum_k d!/(k-1)! of the rank-one theory."""
    bio = d * (d**d - 1) // (d - 1)
    sbio = sum(math.factorial(d) // math.factorial(k - 1) for k in range(1, d + 1))
    return bio, sbio


def check_suite_output(suite: str, returncode: int, stdout: str, trials: int):
    """Exit 0, only PASS lines, the expected names, and the suite's own counts."""
    require(returncode == 0, f"verify {suite} exited {returncode}")
    lines = stdout.splitlines()
    require(all(line.startswith("PASS ") for line in lines),
            f"verify {suite} printed a line that is not PASS: {stdout!r}")
    names = tuple(line.split()[1] for line in lines)
    require(names == SUITE_CHECKS[suite], f"verify {suite} checks are {names}")
    fields = [dict(f.split("=", 1) for f in line.split()[2:] if "=" in f) for line in lines]
    if suite == "lemmas":
        for d, f in zip(range(2, 6), fields):
            want = rank_one_totals(d)
            got = (int(f["bio"]), int(f["sbio"]))
            require(got == want, f"lemmas d={d}: bounds {got}, closed forms {want}")
    elif suite in ("appendix-a", "appendix-b"):
        require(fields[0]["sets"] == str(trials), f"verify {suite} ran {fields[0]['sets']} sets")
        require(fields[1]["rejected"] == f"{trials}/{trials}",
                f"verify {suite} rejected {fields[1]['rejected']}")
    elif suite == "inclusion":
        require(all(f["sets"] == str(trials) for f in fields), f"inclusion sets {fields}")


def check_no_leftovers(directory: str):
    left = sorted(os.listdir(directory))
    require(not left, f"files left in the working directory: {left}")


# ---------------------------------------------------------------------------
# classify-ladder
# ---------------------------------------------------------------------------

def completeness_deviation(ops: np.ndarray) -> float:
    total = sum(k.conj().T @ k for k in ops)
    return float(np.max(np.abs(total - np.eye(ops.shape[1]))))


def _random_masked(mask: np.ndarray, rng) -> np.ndarray:
    # complex Gaussian matrix, zero outside ``mask``
    g = rng.normal(size=mask.shape) + 1j * rng.normal(size=mask.shape)
    return g * mask


def keeps_free_states(ops: np.ndarray, dims, rng, samples: int = 2) -> bool:
    """No K sigma K^dag has a cross-block entry, for random block-diagonal sigma."""
    off = ~same_block(dims)
    for _ in range(samples):
        out = ops @ _random_masked(~off, rng) @ ops.conj().transpose(0, 2, 1)
        for m in out:
            if not _is_zero(m[off], float(np.max(np.abs(m)))):
                return False
    return True


def kills_cross_blocks(ops: np.ndarray, dims, rng, samples: int = 2) -> bool:
    """No K X K^dag has an entry inside the diagonal blocks, for random cross-block X."""
    on = same_block(dims)
    for _ in range(samples):
        out = ops @ _random_masked(~on, rng) @ ops.conj().transpose(0, 2, 1)
        for m in out:
            if not _is_zero(m[on], float(np.max(np.abs(m)))):
                return False
    return True


def check_report_json(text: str) -> dict:
    """The classify output is one JSON object with exactly the documented keys."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"classify output is not JSON: {exc}") from exc
    require(isinstance(report, dict) and tuple(report) == REPORT_KEYS,
            f"classify report keys are {list(report) if isinstance(report, dict) else report}")
    require(all(isinstance(report[k], bool) for k in REPORT_KEYS[:-1]),
            "classify report verdicts are not booleans")
    require(report["tolerance"] == 1e-10, f"classify tolerance is {report['tolerance']}")
    return report


def check_member(kind: str, ops: np.ndarray, dims, report: dict, rng):
    """A generated member of ``kind``: the report must agree with plain numpy."""
    dev = completeness_deviation(ops)
    require(dev <= CPTP_TOL, f"{kind} member {dims} is not complete (deviation {dev:.3e})")
    require(report["cptp"], f"{kind} member {dims}: classifier says not complete")
    bio = keeps_free_states(ops, dims, rng)
    sbio = bio and kills_cross_blocks(ops, dims, rng)
    require(bio, f"{kind} member {dims} creates block coherence")
    if kind in ("sbio", "pbio"):
        require(sbio, f"{kind} member {dims} does not commute with dephasing")
    want = {"mbio": True, "bio_structural": True, "bio_semantic": True, "sbio_semantic": sbio}
    if kind != "bio":
        want["sbio_structural"] = True
    for key, value in want.items():
        require(report[key] == value, f"{kind} member {dims}: {key} is {report[key]}, expected {value}")


def _column_block_maxima(ops: np.ndarray, dims) -> np.ndarray:
    # A[n, r, x] = max over rows a in block r of |K_n[a, x]|
    offsets = np.cumsum((0,) + tuple(dims))[:-1]
    return np.maximum.reduceat(np.abs(ops), offsets, axis=1)


def find_violation_witness(kind: str, ops: np.ndarray, dims):
    """A pair (n, x, y) showing ``ops`` leaves ``kind``, or None.

    For 'bio' the pair lies in one block and K|x><y|K^dag has a cross-block
    entry; for 'sbio' the pair crosses blocks and K|x><y|K^dag has an entry
    inside a diagonal block.  The entries of K|x><y|K^dag are K[a, x] K[b, y]*,
    so block maxima of the columns locate a candidate, and the candidate is
    then confirmed on the explicit outer product.
    """
    k = len(dims)
    # pairs (x, y) of the kind's basis; the kind forbids entries of
    # K|x><y|K^dag in the complementary region, reached by row blocks (r, s)
    pairs = same_block(dims) if kind == "bio" else ~same_block(dims)
    rows = ~np.eye(k, dtype=bool) if kind == "bio" else np.eye(k, dtype=bool)
    for n, amax in enumerate(_column_block_maxima(ops, dims)):
        # reach[x, y] = max over allowed (r, s) of amax[r, x] * amax[s, y]
        prod = amax[:, None, :, None] * amax[None, :, None, :]
        reach = np.where(rows[:, :, None, None], prod, 0.0).max(axis=(0, 1))
        for x, y in zip(*np.nonzero((reach > 0.0) & pairs)):
            m = np.outer(ops[n, :, x], ops[n, :, y].conj())
            if not _is_zero(m[~pairs], float(np.max(np.abs(m)))):
                return n, int(x), int(y)
    return None


def check_violator(kind: str, ops: np.ndarray, dims, verdict: bool):
    witness = find_violation_witness(kind, ops, dims)
    require(witness is not None, f"{kind} violator {dims}: no witness pair found")
    require(verdict is False, f"{kind} violator {dims}: classifier accepted it (witness {witness})")


# ---------------------------------------------------------------------------
# measure-axioms
# ---------------------------------------------------------------------------

def check_axiom(name: str, value: float):
    require(math.isfinite(value) and 0.0 <= value <= AXIOM_TOL,
            f"{name}: worst violation {value:.3e} exceeds {AXIOM_TOL:g}")


def check_max_mixed_entropy(d: int, value: float):
    require(abs(value - math.log2(d)) <= 1e-9, f"entropy of I/{d} is {value}, expected {math.log2(d)}")


def check_zero_on_free(name: str, value: float):
    require(abs(value) <= 1e-9, f"{name} on a block-diagonal state is {value:.3e}")


def random_free_state(dims, rng) -> np.ndarray:
    """A random density matrix with every cross-block entry exactly zero.

    For the one-block partition (d,) this is any random state.
    """
    g = _random_masked(same_block(dims), rng)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# bounds-dilation
# ---------------------------------------------------------------------------

def check_unitary(v: np.ndarray, label: str):
    eye = np.eye(v.shape[0])
    dev = max(float(np.max(np.abs(v.conj().T @ v - eye))), float(np.max(np.abs(v @ v.conj().T - eye))))
    require(dev <= 1e-9, f"{label}: V is not unitary (deviation {dev:.3e})")


def check_dilation_probabilities(v: np.ndarray, ancilla: int, effects: np.ndarray,
                                 rhos: np.ndarray, label: str):
    """Outcome probabilities from the rows of V match tr(E_i rho).

    With global index x*n + i, the block of V that takes |psi>|ancilla> to
    outcome i is M_i = V[i::n, ancilla::n], so p_i = tr(M_i rho M_i^dag).
    """
    n = effects.shape[0]
    worst = 0.0
    for i in range(n):
        m = v[i::n, ancilla::n]
        dilated = np.einsum("ab,tbc,ac->t", m, rhos, m.conj()).real
        direct = np.einsum("ab,tba->t", effects[i], rhos).real
        worst = max(worst, float(np.max(np.abs(dilated - direct))))
    require(worst <= PROB_TOL, f"{label}: outcome probabilities off by {worst:.3e}")


def bio_bound_reference(dims) -> list[int]:
    """Per-level counts of C_i = [sum_j (2^(d_j d_i) - 1)] C_(i+1), C_(k+1) = 1."""
    per_level = []
    c = 1
    for di in reversed(dims):
        c *= sum(2 ** (dj * di) - 1 for dj in dims)
        per_level.append(c)
    return per_level[::-1]


def sbio_bound_reference(dims) -> list[int]:
    """Per-level counts by a subset DP over the row blocks already used.

    Level l picks a row block r not used by levels l+1..k, weighted
    2^(d_r d_l) - 1; f[S] sums the weights of every injective choice whose
    rows form S, so C_p is the sum of f over the sets reached at level p.
    """
    k = len(dims)
    f = {0: 1}
    per_level = [0] * k
    for level in range(k - 1, -1, -1):
        nxt = {}
        for used, count in f.items():
            for r in range(k):
                if not used >> r & 1:
                    key = used | 1 << r
                    nxt[key] = nxt.get(key, 0) + count * (2 ** (dims[r] * dims[level]) - 1)
        f = nxt
        per_level[level] = sum(f.values())
    return per_level


def check_bound(kind: str, dims, per_level, total: int):
    ref = bio_bound_reference(dims) if kind == "bio" else sbio_bound_reference(dims)
    require(list(per_level) == ref and total == sum(ref),
            f"{kind}_bound{tuple(dims)} is {total}, reference {sum(ref)}")
    frozen = FROZEN_BOUNDS.get(tuple(dims))
    if frozen is not None:
        want = frozen[0] if kind == "bio" else frozen[1]
        require(total == want, f"{kind}_bound{tuple(dims)} is {total}, frozen value {want}")
