"""Eigendecomposition kernels of the Laplacian and total-system-error oracles.

``compute_kernels`` produces the pseudoinverse L+, the squared-Laplacian
pseudoinverse (L^2)+ = (L+)^2 and the Kirchhoff index from one symmetric
eigendecomposition. The two oracle functions compute the steady-state
tracking error of the leader-follower consensus dynamics by dense symmetric
factorization, deliberately not reusing any of the closed-form centrality
machinery, so they can serve as an independent check on it.

``system_matrix`` assembles the matrix those oracles invert, the grounded
Laplacian or L + K, in one place for every caller.
"""

from dataclasses import dataclass

import numpy as np

from .graphs import Gain, Graph, GraphError, LeaderSet, NoiseFree, laplacian


class SpectralError(RuntimeError):
    """Eigendecomposition failed or the spectrum contradicts connectivity."""


@dataclass(frozen=True)
class GraphKernels:
    """Precomputed spectral quantities of one graph.

    eigenvalues are ascending (first one is the zero mode); eigenvectors are
    orthonormal columns; kirchhoff is the Kirchhoff index K_f = n * tr(L+).
    """

    n: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    lplus: np.ndarray
    l2plus: np.ndarray
    kirchhoff: float


def compute_kernels(g: Graph) -> GraphKernels:
    """Eigendecompose the Laplacian and assemble L+, (L^2)+ and K_f.

    The zero eigenvalue is identified by the relative cutoff
    n * eps * lambda_max; exactly one eigenvalue may fall below it, otherwise
    the graph is numerically disconnected and SpectralError is raised.
    """
    lap = laplacian(g)
    try:
        lam, vec = np.linalg.eigh(lap)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"eigendecomposition failed: {exc}") from exc
    if g.n == 1:
        zero = np.zeros((1, 1))
        return GraphKernels(1, lam, vec, zero, zero.copy(), 0.0)
    cutoff = g.n * np.finfo(float).eps * max(lam[-1], 1.0)
    n_zero = int(np.sum(lam <= cutoff))
    if n_zero != 1:
        raise SpectralError(
            f"expected exactly one zero eigenvalue, found {n_zero} below {cutoff:.3e} "
            "(graph disconnected or ill-conditioned)"
        )
    tail = vec[:, 1:]
    lplus = (tail / lam[1:]) @ tail.T
    lplus = (lplus + lplus.T) / 2.0
    l2plus = lplus @ lplus
    l2plus = (l2plus + l2plus.T) / 2.0
    kirchhoff = g.n * float(np.trace(lplus))
    return GraphKernels(g.n, lam, vec, lplus, l2plus, kirchhoff)


@dataclass(frozen=True)
class ErrorReport:
    """Total steady-state tracking error and its per-node breakdown."""

    total_error: float
    per_node_variance: np.ndarray
    sigma: float


def _check_mode(leaders, mode_cls):
    if not isinstance(leaders.mode, mode_cls):
        raise GraphError(
            f"leader set mode is {type(leaders.mode).__name__}, expected {mode_cls.__name__}"
        )


def system_matrix(g: Graph, leaders: LeaderSet):
    """The system matrix of the tracking dynamics and the nodes it acts on.

    Noise-free leaders: the grounded Laplacian, L with the leader rows and
    columns deleted, over the followers in ascending order. Finite gain k:
    L + K with K = k at the leader diagonal entries, over all nodes.
    """
    leaders.check_against(g.n)
    mat = laplacian(g)
    if isinstance(leaders.mode, NoiseFree):
        nodes = np.setdiff1d(np.arange(g.n), leaders.members)
        return mat[np.ix_(nodes, nodes)], nodes
    members = list(leaders.members)
    mat[members, members] += leaders.mode.k
    return mat, np.arange(g.n)


def spd_inverse(mat, what):
    """Inverse of a symmetric positive definite matrix.

    The Cholesky factorization is the positive-definiteness test; a matrix
    that fails it is numerically singular (or indefinite) and raises
    SpectralError.
    """
    try:
        np.linalg.cholesky(mat)
        return np.linalg.inv(mat)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"{what} is numerically singular: {exc}") from exc


def oracle_error_noise_free(g: Graph, leaders: LeaderSet, sigma: float = 1.0) -> ErrorReport:
    """Tracking error with leaders pinned to the signal (grounded Laplacian).

    Deleting the leader rows/columns of L leaves the follower submatrix L_F;
    the total error is (sigma^2 / 2) * tr(L_F^-1), follower variances are the
    matching diagonal entries and leader variances are exactly zero.
    """
    _check_mode(leaders, NoiseFree)
    sub, followers = system_matrix(g, leaders)
    inv = spd_inverse(sub, "grounded Laplacian")
    var = np.zeros(g.n)
    var[followers] = 0.5 * sigma * sigma * np.diag(inv)
    return ErrorReport(float(var.sum()), var, sigma)


def oracle_error_gain(g: Graph, leaders: LeaderSet, sigma: float = 1.0) -> ErrorReport:
    """Tracking error with finite-gain leaders: (sigma^2 / 2) * tr((L + K)^-1).

    K is diagonal with k at leader nodes; the Lyapunov solution for the
    symmetric system matrix is Sigma = (sigma^2 / 2) * (L + K)^-1.
    """
    _check_mode(leaders, Gain)
    mat, _ = system_matrix(g, leaders)
    inv = spd_inverse(mat, "L + K")
    var = 0.5 * sigma * sigma * np.diag(inv).copy()
    return ErrorReport(float(var.sum()), var, sigma)


def per_node_variance_spectral(g: Graph, leaders: LeaderSet, sigma: float = 1.0) -> np.ndarray:
    """Per-node steady-state variance via the eigenpairs of L + K.

    Var(x_i) = sigma^2 * sum_p |v_i^(p)|^2 / (2 lambda_p); an independent
    route to the diagonal of oracle_error_gain.
    """
    _check_mode(leaders, Gain)
    mat, _ = system_matrix(g, leaders)
    try:
        lam, vec = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"eigendecomposition failed: {exc}") from exc
    if lam[0] <= 0.0:
        raise SpectralError(f"L + K not positive definite (min eigenvalue {lam[0]:.3e})")
    return sigma * sigma * ((vec * vec) / (2.0 * lam)).sum(axis=1)
