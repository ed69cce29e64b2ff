"""Joint centrality of a node set and its specializations.

The joint centrality rho of a leader set S is defined so that the total
steady-state tracking error equals (sigma^2 / 2) * (n / rho). With u = 1/k
for leaders of gain k and u = 0 for noise-free leaders, it is evaluated from
entries of L+ relative to a pivot member p of S and the rest R = S \\ {p}:

    n / rho = K_f/n + n (L+[p,p] + u - f^T G f) - sum((D G) o D),

where D = L+[:, p] - L+[:, R] (one column per member of R), f = D[p] + u
and G is the inverse of N_p[R, R] + u (I + J), N_p the pivot-grounded Gram
matrix of L+ (``_grounded_gram``). The pivot is the first member; rho does
not depend on the choice. For m = 1, R is empty: noise-free, rho is the
node's information centrality. The paper's compact form (two determinants
and Gamma_S) is the same quantity; the tests use it as a cross-check.

Two-leader values, noise-free and with finite gain, single pairs and whole
pair arrays, also come from one pair formula in ``_pair_kernel``: the same
quantity at m = 2, vectorised over pairs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .centrality import inverse_info_centrality
from .graphs import Gain, LeaderSet, NOISE_FREE, NumericalDegeneracyError
from .kernels import GraphKernels

# |det| below this fraction of its Hadamard bound marks a suspect product
_DET_WARN = 1e-12


@dataclass(frozen=True)
class JointCentralityResult:
    """Joint centrality rho, the error it implies and any conditioning warnings."""

    rho: float
    implied_total_error: float
    warnings: tuple = ()


def _grounded_gram(lplus: np.ndarray, pivot: int, rows) -> np.ndarray:
    """Pivot-grounded Gram matrix N_p of L+ over the node ids ``rows``.

    Entry (i, j) = L+[i, j] - L+[i, p] - L+[j, p] + L+[p, p], equivalently
    (r[i, p] + r[j, p] - r[i, j]) / 2. The diagonal holds resistance
    distances to the pivot; the pivot row and column are identically zero.
    """
    col = lplus[rows, pivot]
    # take, unlike [:, rows], keeps the block in C order: greedy's column sums round by the layout
    return lplus[rows].take(rows, axis=1) - col[:, None] - col[None, :] + lplus[pivot, pivot]


def joint_centrality(
    kernels: GraphKernels, members, *, sigma: float = 1.0, mode=NOISE_FREE
) -> JointCentralityResult:
    """Joint centrality of an arbitrary leader set in either leader mode.

    Noise-free leaders need 1 <= m < n; finite-gain leaders may cover every
    node. The first member is the pivot.
    """
    members = LeaderSet(members, mode).check_against(kernels.n).members
    pivot, rest = members[0], list(members[1:])
    lp = kernels.lplus
    n = kernels.n
    lpp = lp[pivot, pivot]
    grounded = _grounded_gram(lp, pivot, rest)
    diffs = lp[:, [pivot]] - lp[:, rest]
    f = diffs[pivot]
    # A huge u (a tiny gain) overflows det to inf or nan, which the check below raises on.
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(mode, Gain):
            u = 1.0 / mode.k
            grounded = grounded + u * (1.0 + np.eye(len(rest)))
            f = f + u
            lpp = lpp + u
        det_grounded = float(np.linalg.det(grounded))
        natural_scale = float(np.prod(np.abs(np.diag(grounded))))
    if not (math.isfinite(det_grounded) and det_grounded > 0.0):
        raise NumericalDegeneracyError(
            f"grounded Gram matrix of {members} (pivot {pivot}) is numerically singular"
        )
    warnings = ()
    if abs(det_grounded) < _DET_WARN * natural_scale:
        warnings = ("det of the grounded Gram matrix is far below its natural scale",)
    gmat = np.linalg.inv(grounded)
    n_over_rho = float(
        kernels.kirchhoff / n
        + n * (lpp - f @ gmat @ f)
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
    # numpy reuses the temporaries of a whole-graph sweep in place. The
    # indices are cast to intp once (an int32 index would be cast again at
    # every gather), and the (i, j) entries are read by one flat index with
    # take, which indexes in logical C order whatever the layout.
    ii, jj = np.asarray(ii, dtype=np.intp), np.asarray(jj, dtype=np.intp)
    flat = ii * kernels.n + jj
    lp, l2p = kernels.lplus, kernels.l2plus
    d, d2 = lp.diagonal(), l2p.diagonal()
    # A huge u (a tiny gain) overflows to inf or nan, which the check below raises on.
    with np.errstate(over="ignore", invalid="ignore"):
        r = d.take(ii) + d.take(jj) - 2.0 * lp.take(flat)
        gamma = d2.take(ii) + d2.take(jj) - 2.0 * l2p.take(flat)
        minor = d.take(ii) * d.take(jj) - lp.take(flat) ** 2
        n_over_rho = kernels.kirchhoff / kernels.n + (
            kernels.n * (u * (u + d.take(ii) + d.take(jj)) + minor) - gamma
        ) / (r + 2.0 * u)
    if not np.all(n_over_rho > 0.0) or not np.all(np.isfinite(n_over_rho)):
        raise NumericalDegeneracyError("nonpositive inverse joint centrality of a leader pair")
    return n_over_rho


def joint_centrality_two_gain(
    kernels: GraphKernels, s1: int, s2: int, k: float, sigma: float = 1.0
) -> JointCentralityResult:
    """Gain-dependent joint centrality of two noise-corrupted leaders.

    n / rho_k = K_f/n + [n (1 + k (L+[s1,s1] + L+[s2,s2]))
                         + n k^2 (L+[s1,s1] L+[s2,s2] - L+[s1,s2]^2)
                         - k^2 gamma] / (k (2 + k r)).
    Approaches the noise-free two-leader value as k grows.
    """
    mode = Gain(k)  # k finite and positive
    s1, s2 = LeaderSet((s1, s2), mode).check_against(kernels.n).members
    n_over_rho = float(_pair_kernel(kernels, s1, s2, 1.0 / mode.k))
    return JointCentralityResult(rho=kernels.n / n_over_rho, implied_total_error=0.5 * sigma * sigma * n_over_rho)


def single_leader_error(kernels: GraphKernels, s: int, mode=NOISE_FREE, sigma: float = 1.0) -> float:
    """Total tracking error with a single leader s.

    Noise-free: (n sigma^2 / 2) / c_s. Finite gain k:
    (n sigma^2 / 2) (1/k + 1/c_s). Either way the best single leader is the
    node with maximal information centrality.
    """
    (s,) = LeaderSet((s,), mode).check_against(kernels.n).members
    u = 1.0 / mode.k if isinstance(mode, Gain) else 0.0
    return float(0.5 * kernels.n * sigma * sigma * (u + inverse_info_centrality(kernels)[s]))
