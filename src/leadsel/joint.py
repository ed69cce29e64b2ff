"""Joint centrality of a node set and its specializations.

The joint centrality rho of a leader set S is defined so that the total
steady-state tracking error with noise-free leaders equals
(sigma^2 / 2) * (n / rho). It is evaluated from entries of L+ relative to a
pivot member p of S and the rest R = S \\ {p}:

    n / rho = K_f/n + n (L+[p,p] - e^T G e) - tr(G D^T D),

where D = L+[:, p] - L+[:, R] (one column per member of R), e = D[p] and G
is the inverse of the pivot-grounded Gram block over R (``n_inverse_entries``).
For m = 1, R is empty and rho is the node's information centrality. The
paper's compact form (two determinants and Gamma_S) is the same quantity;
the tests use it as a cross-check.

Two-leader values, noise-free and with finite gain, single pairs and whole
pair arrays, all come from one pair formula in ``_pair_kernel``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .centrality import inverse_info_centrality
from .graphs import Gain, GraphError, LeaderSet, NOISE_FREE
from .kernels import GraphKernels

# |det| below this fraction of its Hadamard bound marks a suspect product
_DET_WARN = 1e-12


class NumericalDegeneracyError(RuntimeError):
    """A matrix that is nonsingular in exact arithmetic degenerated numerically."""


@dataclass(frozen=True)
class JointCentralityResult:
    """Joint centrality rho, the error it implies and any conditioning warnings."""

    rho: float
    implied_total_error: float
    warnings: tuple = ()


def n_inverse_entries(kernels: GraphKernels, pivot: int) -> np.ndarray:
    """Pivot-grounded Gram matrix of L+.

    Entry (i, j) = L+[i, j] - L+[i, l1] - L+[j, l1] + L+[l1, l1], equivalently
    (r[i, l1] + r[j, l1] - r[i, j]) / 2. The diagonal holds resistance
    distances to the pivot; the pivot row and column are identically zero.
    """
    lp = kernels.lplus
    col = lp[:, pivot]
    return lp - col[:, None] - col[None, :] + lp[pivot, pivot]


def joint_centrality(kernels: GraphKernels, members, pivot=None, sigma: float = 1.0) -> JointCentralityResult:
    """Joint centrality of an arbitrary leader set (1 <= m < n).

    ``pivot`` defaults to the first member; the value of rho does not depend
    on the choice.
    """
    members = LeaderSet(members).check_against(kernels.n).members
    if pivot is None:
        pivot = members[0]
    pivot = int(pivot)
    if pivot not in members:
        raise GraphError(f"pivot {pivot} not in leader set {members}")
    lp = kernels.lplus
    n = kernels.n
    rest = [v for v in members if v != pivot]
    grounded = n_inverse_entries(kernels, pivot)[np.ix_(rest, rest)]
    det_grounded = float(np.linalg.det(grounded))
    if not (math.isfinite(det_grounded) and det_grounded > 0.0):
        raise NumericalDegeneracyError(
            f"grounded Gram matrix of {members} (pivot {pivot}) is numerically singular"
        )
    warnings = ()
    if abs(det_grounded) < _DET_WARN * float(np.prod(np.abs(np.diag(grounded)))):
        warnings = ("det of the grounded Gram matrix is far below its natural scale",)
    gmat = np.linalg.inv(grounded)
    diffs = lp[:, [pivot]] - lp[:, rest]
    e = diffs[pivot]
    n_over_rho = float(
        kernels.kirchhoff / n
        + n * (lp[pivot, pivot] - e @ gmat @ e)
        - np.sum((diffs @ gmat) * diffs)
    )
    if not (math.isfinite(n_over_rho) and n_over_rho > 0.0):
        raise NumericalDegeneracyError(
            f"nonpositive inverse joint centrality {n_over_rho} for set {members}"
        )
    return JointCentralityResult(
        rho=n / n_over_rho,
        implied_total_error=0.5 * sigma * sigma * n_over_rho,
        warnings=warnings,
    )


def _pair_kernel(kernels: GraphKernels, ii, jj, u: float):
    """n / rho of the leader pairs (ii, jj), elementwise.

    With u = 1/k for leaders of gain k and u = 0 for noise-free leaders,
        n / rho = K_f/n + (n (u^2 + u (L+[i,i] + L+[j,j]) + minor) - gamma) / (r + 2u),
    where r = L+[i,i] + L+[j,j] - 2 L+[i,j] is the resistance distance, gamma
    the same combination of (L^2)+ and minor = L+[i,i] L+[j,j] - L+[i,j]^2.
    The noise-free value is the k -> inf limit of the gain value. ii and jj
    are node ids or equal-length arrays of them.
    """
    # Entries are gathered afresh in each line rather than named, so that
    # numpy reuses the temporaries of a whole-graph sweep in place.
    lp, l2p = kernels.lplus, kernels.l2plus
    d, d2 = lp.diagonal(), l2p.diagonal()
    # A huge u (a tiny gain) overflows to inf or nan, which the check below raises on.
    with np.errstate(over="ignore", invalid="ignore"):
        r = d[ii] + d[jj] - 2.0 * lp[ii, jj]
        gamma = d2[ii] + d2[jj] - 2.0 * l2p[ii, jj]
        minor = d[ii] * d[jj] - lp[ii, jj] ** 2
        n_over_rho = kernels.kirchhoff / kernels.n + (
            kernels.n * (u * (u + d[ii] + d[jj]) + minor) - gamma
        ) / (r + 2.0 * u)
    if not np.all(n_over_rho > 0.0) or not np.all(np.isfinite(n_over_rho)):
        raise NumericalDegeneracyError("nonpositive inverse joint centrality of a leader pair")
    return n_over_rho


def _pair_result(kernels, s1, s2, u, sigma):
    s1, s2 = LeaderSet((s1, s2)).check_against(kernels.n).members
    n_over_rho = float(_pair_kernel(kernels, s1, s2, u))
    return JointCentralityResult(
        rho=kernels.n / n_over_rho,
        implied_total_error=0.5 * sigma * sigma * n_over_rho,
    )


def joint_centrality_two(kernels: GraphKernels, s1: int, s2: int, sigma: float = 1.0) -> JointCentralityResult:
    """Two-leader joint centrality in closed form.

    n / rho = K_f/n + (n L+[s1,s1] L+[s2,s2] - n L+[s1,s2]^2 - gamma) / r;
    agrees with the general-m routine.
    """
    return _pair_result(kernels, s1, s2, 0.0, sigma)


def joint_centrality_two_gain(
    kernels: GraphKernels, s1: int, s2: int, k: float, sigma: float = 1.0
) -> JointCentralityResult:
    """Gain-dependent joint centrality of two noise-corrupted leaders.

    n / rho_k = K_f/n + [n (1 + k (L+[s1,s1] + L+[s2,s2]))
                         + n k^2 (L+[s1,s1] L+[s2,s2] - L+[s1,s2]^2)
                         - k^2 gamma] / (k (2 + k r)).
    Approaches the noise-free two-leader value as k grows.
    """
    k = Gain(k).k  # finite and positive
    return _pair_result(kernels, s1, s2, 1.0 / k, sigma)


def single_leader_error(kernels: GraphKernels, s: int, mode=NOISE_FREE, sigma: float = 1.0) -> float:
    """Total tracking error with a single leader s.

    Noise-free: (n sigma^2 / 2) / c_s. Finite gain k:
    (n sigma^2 / 2) (1/k + 1/c_s). Either way the best single leader is the
    node with maximal information centrality.
    """
    (s,) = LeaderSet((s,), mode).check_against(kernels.n).members
    u = 1.0 / mode.k if isinstance(mode, Gain) else 0.0
    return float(0.5 * kernels.n * sigma * sigma * (u + inverse_info_centrality(kernels)[s]))
