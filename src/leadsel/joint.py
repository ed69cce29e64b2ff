"""Joint centrality of a node set: every closed form of it, in one place.

The joint centrality rho of a leader set S is defined so that the total
steady-state tracking error equals (sigma^2 / 2) * (n / rho). With u = 1/k
for leaders of gain k and u = 0 for noise-free leaders, ``_n_over_rho`` is
the one place that turns the leader mode into u and picks the closed form
by the set size m, for a whole stack of sets at once:

* m = 1: n / rho = n (u + 1/c_s), with c_s the information centrality;
* m = 2: the pair formula of ``_pair_kernel``, vectorised over the pairs;
* m >= 3: the grounded expansion (``_expansion``), one set at a time. With
  the pivot p, the first member, and the rest R = S \\ {p}:

    n / rho = K_f/n + n (L+[p,p] + u - f^T G f) - sum((D G) o D),

  where D = L+[:, p] - L+[:, R] (one column per member of R), f = D[p] + u
  and G is the inverse of N_p[R, R] + u (I + J), N_p the pivot-grounded
  Gram matrix of L+ (``_grounded_gram``). rho does not depend on the pivot.

The expansion holds at m = 2 as well; the pair formula hands it the nearly
fused pairs, on which it cancels. Every route to a set's error goes through
``_n_over_rho`` (``joint_centrality``, selection, the pair sweep and
``verify``), so a set gets the same bits by every route. The paper's compact
form (two determinants and Gamma_S) is the same quantity; the tests use it
as an independent cross-check.
"""

import math
from dataclasses import dataclass

import numpy as np

from .centrality import inverse_info_centrality
from .graphs import Gain, GraphError, LeaderSet, NOISE_FREE, NoiseFree, NumericalDegeneracyError
from .kernels import GraphKernels

# |det| below this fraction of its Hadamard bound marks a suspect product
_DET_WARN = 1e-12
# r + 2u below this fraction of the largest L+[k,k] marks a nearly fused pair
_FUSED = 1e-7


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


def _n_over_rho(kernels: GraphKernels, columns, mode):
    """n / rho of a stack of m-leader sets, and the rows whose expansion warned.

    ``columns`` holds the sets as m equal-length index arrays (row i is
    columns[0][i], ..., columns[m - 1][i]), their ids taken as valid.
    """
    if not isinstance(mode, (NoiseFree, Gain)):
        raise GraphError(f"mode must be NoiseFree or Gain, got {mode!r}")
    u = 1.0 / mode.k if isinstance(mode, Gain) else 0.0
    if len(columns) >= 3:
        values, warned = zip(*(_expansion(kernels, members, u) for members in zip(*np.asarray(columns).tolist())))
        return np.array(values), np.flatnonzero(warned).tolist()
    if len(columns) == 1:
        # a huge u (a tiny gain) overflows to inf, which the check below raises on
        with np.errstate(over="ignore"):
            n_over_rho = kernels.n * (u + inverse_info_centrality(kernels)[columns[0]])
    else:
        n_over_rho, fused = _pair_kernel(kernels, *columns, u)
        if fused.any():
            for row in np.flatnonzero(fused).tolist():
                pair = (int(columns[0][row]), int(columns[1][row]))
                n_over_rho[row] = _expansion(kernels, pair, u)[0]
    if not np.all(n_over_rho > 0.0) or not np.all(np.isfinite(n_over_rho)):
        what = "leader pair" if len(columns) == 2 else "single leader"
        raise NumericalDegeneracyError(f"nonpositive inverse joint centrality of a {what}")
    return n_over_rho, []


def _expansion(kernels: GraphKernels, members: tuple, u: float):
    """n / rho of one set of m >= 2 leaders by the grounded expansion, and
    whether its grounded Gram matrix warned. The first member is the pivot."""
    pivot, rest = members[0], list(members[1:])
    lp = kernels.lplus
    n = kernels.n
    lpp = lp[pivot, pivot]
    grounded = _grounded_gram(lp, pivot, rest)
    diffs = lp[:, [pivot]] - lp[:, rest]
    f = diffs[pivot]
    # A huge u (a tiny gain) overflows det to inf or nan, which the check below raises on.
    with np.errstate(over="ignore", invalid="ignore"):
        if u:
            grounded = grounded + u * (1.0 + np.eye(len(rest)))
            f = f + u
            lpp = lpp + u
        det_grounded = float(np.linalg.det(grounded))
        natural_scale = float(np.prod(np.abs(np.diag(grounded))))
    if not (math.isfinite(det_grounded) and det_grounded > 0.0):
        raise NumericalDegeneracyError(
            f"grounded Gram matrix of {members} (pivot {pivot}) is numerically singular"
        )
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
    return n_over_rho, abs(det_grounded) < _DET_WARN * natural_scale


def joint_centrality(
    kernels: GraphKernels, members, *, sigma: float = 1.0, mode=NOISE_FREE
) -> JointCentralityResult:
    """Joint centrality of an arbitrary leader set in either leader mode.

    Noise-free leaders need 1 <= m < n; finite-gain leaders may cover every
    node. The first member is the pivot of the expansion (m >= 3).
    """
    members = LeaderSet(members, mode).check_against(kernels.n).members
    n_over_rho, warned = _n_over_rho(kernels, np.array([members]).T, mode)
    n_over_rho = float(n_over_rho[0])
    return JointCentralityResult(
        rho=kernels.n / n_over_rho,
        implied_total_error=0.5 * sigma * sigma * n_over_rho,
        warnings=("det of the grounded Gram matrix is far below its natural scale",) if warned else (),
    )


def _pair_kernel(kernels: GraphKernels, ii, jj, u: float):
    """n / rho of the leader pairs (ii, jj), elementwise, and which are nearly fused.

    With u = 1/k for leaders of gain k and u = 0 for noise-free leaders,
        n / rho = K_f/n + (n (u^2 + u (L+[i,i] + L+[j,j]) + minor) - gamma) / (r + 2u),
    where r = L+[i,i] + L+[j,j] - 2 L+[i,j] is the resistance distance, gamma
    the same combination of (L^2)+ and minor = L+[i,i] L+[j,j] - L+[i,j]^2.
    The noise-free value is the k -> inf limit of the gain value. ii and jj
    are equal-length arrays of node ids.

    When r + 2u is tiny next to L+[i,i], the two leaders are nearly fused
    (an edge of huge weight joins them), and minor and gamma are differences
    of nearly equal terms that cancel: on a 5-cycle with weight 1e12 on one
    edge, the fused pair came out 8.3e-6 off its exact value. The second
    array is True where r + 2u < _FUSED * max_k L+[k,k], one comparison on
    the r + 2u the formula forms anyway; ``_n_over_rho`` rescores those
    pairs by the grounded expansion (1.5e-11 off there) and checks the
    final values.
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
    # A huge u (a tiny gain) overflows to inf or nan, which _n_over_rho raises on.
    with np.errstate(over="ignore", invalid="ignore"):
        r2u = d.take(ii) + d.take(jj) - 2.0 * lp.take(flat)  # r, then r + 2u in place
        r2u += 2.0 * u
        gamma = d2.take(ii) + d2.take(jj) - 2.0 * l2p.take(flat)
        minor = d.take(ii) * d.take(jj) - lp.take(flat) ** 2
        n_over_rho = kernels.kirchhoff / kernels.n + (
            kernels.n * (u * (u + d.take(ii) + d.take(jj)) + minor) - gamma
        ) / r2u
        return n_over_rho, r2u < _FUSED * d.max()


def joint_centrality_two_gain(
    kernels: GraphKernels, s1: int, s2: int, k: float, sigma: float = 1.0
) -> JointCentralityResult:
    """``joint_centrality`` of the pair (s1, s2) of leaders with gain k."""
    return joint_centrality(kernels, (s1, s2), sigma=sigma, mode=Gain(k))


def single_leader_error(kernels: GraphKernels, s: int, mode=NOISE_FREE, sigma: float = 1.0) -> float:
    """Total tracking error with the single leader s: (n sigma^2 / 2) (u + 1/c_s)."""
    return joint_centrality(kernels, (s,), sigma=sigma, mode=mode).implied_total_error
