"""Seeded random ensembles: states, unitaries, POVMs and dense channels."""

from __future__ import annotations

import numpy as np


def as_rng(seed) -> np.random.Generator:
    """Pass through a Generator, otherwise seed a fresh one."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def ginibre(rng: np.random.Generator, *shape) -> np.ndarray:
    """Standard complex Gaussian array."""
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _hs_states(normals: np.ndarray) -> np.ndarray:
    """States G G^dag / tr from normals (T, 2, dim, dim), G = normals[:, 0] + i normals[:, 1]."""
    g = normals[:, 0] + 1j * normals[:, 1]
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


def random_density_matrices(dim: int, seeds, count: int | None = None) -> np.ndarray:
    """Stack (T, dim, dim) of Hilbert-Schmidt random states: G G^dag normalized.

    Without ``count``, ``seeds`` is a sequence with one seed (or Generator)
    per state, and state t is drawn from as_rng(seeds[t]).  With ``count``,
    ``seeds`` is one seed or Generator and the ``count`` states are drawn from
    it in order.  Either way each state takes one normal draw of shape
    (2, dim, dim), the real and imaginary parts of its square Ginibre G, so
    state t equals random_density_matrix(dim, seed) for the same generator
    state bit for bit.
    """
    if count is None:
        normals = np.empty((len(seeds), 2, dim, dim))
        for t, s in enumerate(seeds):
            normals[t] = as_rng(s).normal(size=(2, dim, dim))
    else:
        normals = as_rng(seeds).normal(size=(count, 2, dim, dim))
    return _hs_states(normals)


def random_density_matrix(dim: int, seed) -> np.ndarray:
    """Hilbert-Schmidt random state: G G^dag normalized, G square Ginibre."""
    return random_density_matrices(dim, [seed])[0]


def haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix with phase correction."""
    rng = as_rng(seed)
    q, r = np.linalg.qr(ginibre(rng, dim, dim))
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def random_povm(dim: int, n_effects: int, seed) -> np.ndarray:
    """n Wishart-like positive blocks normalized so they sum to identity."""
    rng = as_rng(seed)
    raw = []
    for _ in range(n_effects):
        g = ginibre(rng, dim, dim)
        raw.append(g @ g.conj().T)
    total = np.sum(raw, axis=0)
    vals, vecs = np.linalg.eigh(total)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return np.array([inv_sqrt @ w @ inv_sqrt for w in raw])


def random_cptp(dim: int, n_ops: int, seed) -> np.ndarray:
    """Dense random channel: slices of a Haar isometry, so sum K^dag K = I."""
    rng = as_rng(seed)
    iso = haar_unitary(dim * n_ops, rng)[:, :dim]
    return iso.reshape(n_ops, dim, dim)
