"""Classical node and pairwise measures: information centrality, certainty,
resistance distance and biharmonic distance.

All functions are pure readers of precomputed GraphKernels. The resistance
matrix r and the biharmonic matrix gamma hold squared-style quadratic forms:
r itself is a metric, while for gamma the metric is sqrt(gamma).
"""

from dataclasses import dataclass

import numpy as np

from .graphs import GraphError
from .kernels import GraphKernels


def _distance_from(quad: np.ndarray) -> np.ndarray:
    d = np.diag(quad)
    out = d[:, None] + d[None, :] - 2.0 * quad
    np.fill_diagonal(out, 0.0)
    return out


def resistance_matrix(kernels: GraphKernels) -> np.ndarray:
    """Effective resistance r[i, j] = L+[i, i] + L+[j, j] - 2 L+[i, j]."""
    return _distance_from(kernels.lplus)


def biharmonic_matrix(kernels: GraphKernels) -> np.ndarray:
    """Biharmonic distance gamma[i, j], same quadratic form in (L^2)+."""
    return _distance_from(kernels.l2plus)


def info_centrality(kernels: GraphKernels) -> np.ndarray:
    """Information centrality c_i = n / sum_j r[i, j].

    Harmonic average of the total information (inverse resistance) between
    node i and every other node. Undefined on a single node, which has no
    other node.
    """
    if kernels.n < 2:
        raise GraphError("information centrality needs at least two nodes")
    rowsum = resistance_matrix(kernels).sum(axis=1)
    return kernels.n / rowsum


def certainty_inverse(kernels: GraphKernels, sigma: float = 1.0) -> np.ndarray:
    """Inverse node certainty (sigma^2 / 2) * L+[i, i].

    Equals (sigma^2 / 2) * (1/c_i - K_f / n^2), so ranking nodes by certainty
    is the same as ranking them by information centrality.
    """
    return 0.5 * sigma * sigma * np.diag(kernels.lplus).copy()


@dataclass(frozen=True)
class CentralityReport:
    info_centrality: np.ndarray
    certainty_inverse: np.ndarray
    resistance: np.ndarray
    biharmonic: np.ndarray


def centrality_report(kernels: GraphKernels, sigma: float = 1.0) -> CentralityReport:
    """Bundle all per-node and pairwise measures for one graph."""
    return CentralityReport(
        info_centrality=info_centrality(kernels),
        certainty_inverse=certainty_inverse(kernels, sigma),
        resistance=resistance_matrix(kernels),
        biharmonic=biharmonic_matrix(kernels),
    )
