"""Takagi (Autonne) factorization of a 2x2 complex symmetric matrix.

Returns B = U diag(s) U^T with U unitary and s the singular values in
descending order.  Built on the SVD: if B = V S W^H then Z = V^T W is
block-unitary-symmetric per singular-value multiplicity group, and
U = V conj(sqrt(Z)) works blockwise.
"""
from __future__ import annotations

import cmath

import numpy as np

# singular values closer than this, relative to the largest, form one block
_GROUP_TOL = 1e-8


def _sqrtm_unitary_symmetric(Z: np.ndarray) -> np.ndarray:
    """Principal square root of a (small) unitary symmetric matrix."""
    if Z.shape == (1, 1):
        return np.array([[cmath.sqrt(Z[0, 0])]], dtype=complex)
    # normal matrix: eigendecomposition is unitary up to round-off
    lam, E = np.linalg.eig(Z)
    # orthonormalize against degeneracy noise
    E, _ = np.linalg.qr(E)
    lam = np.diag(E.conj().T @ Z @ E)
    Q = E @ np.diag(np.sqrt(lam.astype(complex))) @ E.conj().T
    # symmetrize: the true root of a symmetric unitary in this construction
    # is symmetric
    return 0.5 * (Q + Q.T)


def takagi(B: np.ndarray):
    """Factor symmetric B as U diag(s) U^T; returns (s, U)."""
    B = np.asarray(B, dtype=complex)
    V, s, Wh = np.linalg.svd(B)
    W = Wh.conj().T
    U = np.zeros_like(V)
    scale = s[0] if s[0] > 0 else 1.0
    # group indices by singular-value multiplicity
    groups = []
    start = 0
    for j in range(1, len(s) + 1):
        if j == len(s) or abs(s[j] - s[start]) > _GROUP_TOL * scale:
            groups.append(list(range(start, j)))
            start = j
    for idx in groups:
        if s[idx[0]] <= _GROUP_TOL * scale:
            # null-space block: any orthonormal basis works
            U[:, idx] = V[:, idx]
            continue
        Z = V[:, idx].T @ W[:, idx]
        Q = _sqrtm_unitary_symmetric(Z)
        U[:, idx] = V[:, idx] @ np.conj(Q)
    return s, U
