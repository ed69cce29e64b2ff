"""Pseudoinverse kernels of the Laplacian and total-system-error oracles.

``compute_kernels`` produces the pseudoinverse L+, the squared-Laplacian
pseudoinverse (L^2)+ = (L+)^2 and the Kirchhoff index from one grounded
Laplacian inverse. The two oracle functions compute the steady-state
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
    """A factorization failed or the graph is too ill-conditioned to trust."""


@dataclass(frozen=True)
class GraphKernels:
    """Precomputed Laplacian pseudoinverses of one graph.

    lplus is L+, l2plus is (L^2)+ and kirchhoff is the Kirchhoff index
    K_f = n * tr(L+).
    """

    n: int
    lplus: np.ndarray
    l2plus: np.ndarray
    kirchhoff: float


def compute_kernels(g: Graph) -> GraphKernels:
    """Assemble L+, (L^2)+ and K_f from one inverse of the grounded Laplacian.

    N, the inverse of L grounded at node 0 padded with a zero row and column,
    gives L+ = P N P with P = I - J/n. SpectralError is raised when the
    Cholesky test fails, or when lambda_2 >= 1 / ||L+||_F (||L+||_F^2 =
    tr (L^2)+) is not certified above the zero-mode cutoff
    n * eps * max(lambda_max, 1), with lambda_max <= twice the largest degree.
    """
    n = g.n
    if n == 1:
        return GraphKernels(1, np.zeros((1, 1)), np.zeros((1, 1)), 0.0)
    grounded, _ = system_matrix(g, LeaderSet((0,)))
    padded = np.zeros((n, n))
    padded[1:, 1:] = spd_inverse(grounded, "grounded Laplacian")
    lplus = padded - padded.mean(axis=1)[:, None] - padded.mean(axis=0)[None, :] + padded.mean()
    lplus = (lplus + lplus.T) / 2.0
    l2plus = lplus @ lplus
    l2plus = (l2plus + l2plus.T) / 2.0
    max_degree = max(np.diag(grounded).max(), sum(w for u, v, w in g.edges if 0 in (u, v)))
    cutoff = n * np.finfo(float).eps * max(2.0 * max_degree, 1.0)
    if not 1.0 / np.sqrt(np.trace(l2plus)) > cutoff:
        raise SpectralError(f"lambda_2 is not certified above the zero-mode cutoff {cutoff:.3e} "
                            "(graph ill-conditioned)")
    kirchhoff = n * float(np.trace(lplus))
    return GraphKernels(n, lplus, l2plus, kirchhoff)


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
        # np.delete, unlike np.setdiff1d, does not import numpy.ma, which slows a cold CLI start
        nodes = np.delete(np.arange(g.n), leaders.members)
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
