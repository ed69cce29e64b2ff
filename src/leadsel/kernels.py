"""Pseudoinverse kernels of the Laplacian and total-system-error oracles.

``compute_kernels`` produces the pseudoinverse L+, the squared-Laplacian
pseudoinverse (L^2)+ = (L+)^2 and the Kirchhoff index from one grounded
Laplacian inverse. ``spd_inverse`` is the one inverse of the package: a
matrix of more than _DIRECT_ROWS rows is inverted by recursive 2 x 2 blocks
whose work is all matrix products, a smaller one by LAPACK directly, and
each such leaf is Cholesky-factored first as its positive-definiteness
test, so no matrix is factored twice. The
oracle computes the steady-state tracking error of the leader-follower
consensus dynamics by dense symmetric factorization, deliberately not
reusing any of the closed-form centrality machinery, so it can serve as an
independent check on it. ``oracle_errors`` is the oracle: the total errors
of a stack of leader sets in one leader mode, a chunk of matrices per
factorization. ``oracle_error_noise_free`` and ``oracle_error_gain`` score
one set the same way and add its per-node variances.

``system_matrix`` assembles the matrix the oracle inverts, the grounded
Laplacian or L + K, for one leader set; the oracle assembles its stacks by
the same routine.
"""

from dataclasses import dataclass

import numpy as np

from .graphs import Gain, Graph, GraphError, LeaderSet, NoiseFree, SpectralError, laplacian

# matrix entries per stacked factorization: 2^16 float64s (512 KiB), 47 systems of 37 x 37
_STACK_ELEMENTS = 1 << 16
# rows up to which spd_inverse calls np.linalg.inv directly; larger matrices split in 2 x 2 blocks
_DIRECT_ROWS = 128


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

    N, the inverse of L grounded at node 0 (``spd_inverse`` of L without
    row and column 0) padded with a zero row and column, gives
    L+ = P N P with P = I - J/n. SpectralError is raised when the
    Cholesky test fails, or when lambda_2 >= 1 / ||L+||_F (||L+||_F^2 =
    tr (L^2)+) is not certified above the zero-mode cutoff
    n * eps * max(lambda_max, 1), with lambda_max <= twice the largest degree
    (read off the diagonal of L). L is dropped once inverted, and only then
    is the zero-padded N allocated, so it is not alive during the inverse;
    N is centred in place, so no n x n array is made only to be thrown away.
    """
    n = g.n
    if n == 1:
        return GraphKernels(1, np.zeros((1, 1)), np.zeros((1, 1)), 0.0)
    lap = laplacian(g)
    max_degree = lap.diagonal().max()
    grounded = spd_inverse(lap[1:, 1:], "grounded Laplacian")
    del lap
    padded = np.zeros((n, n))
    padded[1:, 1:] = grounded
    del grounded
    rows, cols, mean = padded.mean(axis=1), padded.mean(axis=0), padded.mean()
    padded -= rows[:, None]
    padded -= cols[None, :]
    padded += mean
    lplus = padded + padded.T
    del padded
    lplus /= 2.0
    square = lplus @ lplus
    l2plus = square + square.T
    del square
    l2plus /= 2.0
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


def _system_stack(lap, sets, mode):
    """System matrices of a (c, m) stack of leader sets, and the nodes each acts on."""
    c, m = sets.shape
    n = len(lap)
    if isinstance(mode, NoiseFree):
        # a mask, unlike np.setdiff1d, does not import numpy.ma, which slows a cold CLI start
        keep = np.ones((c, n), dtype=bool)
        keep[np.arange(c)[:, None], sets] = False
        nodes = np.nonzero(keep)[1].reshape(c, n - m)
        return lap[nodes[:, :, None], nodes[:, None, :]], nodes
    mats = np.repeat(lap[None], c, axis=0)
    mats[np.arange(c)[:, None], sets, sets] += mode.k
    return mats, np.broadcast_to(np.arange(n), (c, n))


def system_matrix(g: Graph, leaders: LeaderSet):
    """The system matrix of the tracking dynamics and the nodes it acts on.

    Noise-free leaders: the grounded Laplacian, L with the leader rows and
    columns deleted, over the followers in ascending order. Finite gain k:
    L + K with K = k at the leader diagonal entries, over all nodes.
    """
    leaders.check_against(g.n)
    mats, nodes = _system_stack(laplacian(g), np.array([leaders.members]), leaders.mode)
    return mats[0], nodes[0]


def spd_inverse(mat, what):
    """Inverse of a symmetric positive definite matrix, or of each in a stack.

    The inverse is ``_block_inverse``, whose Cholesky factorizations of the
    leaf blocks are the positive-definiteness test; a matrix that fails it
    is numerically singular (or indefinite) and raises SpectralError.
    """
    try:
        return _block_inverse(mat)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"{what} is numerically singular: {exc}") from exc


def _block_inverse(a):
    """Inverse of a positive definite matrix, or of each in a stack, by 2 x 2 blocks.

    With h = d // 2, X = A11^-1 A12 and the Schur complement S = A22 - A21 X
    (both A11 and S positive definite, inverted the same way),

        A^-1 = [[A11^-1 + (X S^-1) X^T, -X S^-1], [-(X S^-1)^T, S^-1]].

    That is 4/3 d^3 flops, all in matrix products, where an LU inverse takes
    8/3 d^3. A matrix of at most _DIRECT_ROWS rows is np.linalg.inv's, after
    np.linalg.cholesky has tested it. A is positive definite exactly when
    A11 and S are (Haynsworth 1968), so the leaves' tests are the whole
    matrix's: a failed one raises np.linalg.LinAlgError.
    """
    d = a.shape[-1]
    if d <= _DIRECT_ROWS:
        np.linalg.cholesky(a)
        return np.linalg.inv(a)
    h = d // 2
    inv11 = _block_inverse(a[..., :h, :h])
    x = inv11 @ a[..., :h, h:]
    s_inv = _block_inverse(a[..., h:, h:] - a[..., h:, :h] @ x)
    xs = x @ s_inv
    out = np.empty(a.shape)
    out[..., :h, :h] = inv11 + xs @ np.swapaxes(x, -1, -2)
    out[..., :h, h:] = -xs
    out[..., h:, :h] = -np.swapaxes(xs, -1, -2)
    out[..., h:, h:] = s_inv
    return out


def oracle_errors(g: Graph, sets, mode, sigma: float = 1.0) -> np.ndarray:
    """Total tracking errors of a stack of leader sets in one leader mode.

    ``sets`` is a (c, m) array, one leader set per row. Each set's error is
    (sigma^2 / 2) * tr(M^-1) for its system matrix M (``system_matrix``).
    The matrices are built from one ``laplacian(g)`` and handled a chunk of
    about _STACK_ELEMENTS entries at a time, each chunk by one stacked
    ``spd_inverse``. Returns the totals, shape (c,); entry i equals the one-set
    oracle's total of set i.
    """
    sets = np.asarray(sets, dtype=np.intp)
    c, m = sets.shape
    LeaderSet(range(m), mode).check_against(g.n)  # the mode and the set size
    ordered = np.sort(sets, axis=1)
    if c and (ordered[:, 0].min() < 0 or ordered[:, -1].max() >= g.n
              or np.any(ordered[:, 1:] == ordered[:, :-1])):
        raise GraphError(f"every leader set needs {m} distinct node ids in 0..{g.n - 1}")
    lap = laplacian(g)
    dim = g.n - m if isinstance(mode, NoiseFree) else g.n
    rows = max(1, _STACK_ELEMENTS // (dim * dim))
    totals = np.empty(c)
    # a finite sigma^2 can still overflow the sum to inf, which a report refuses to emit
    with np.errstate(over="ignore"):
        for start in range(0, c, rows):
            chunk = sets[start:start + rows]
            totals[start:start + len(chunk)] = _variances(lap, chunk, mode, sigma).sum(axis=1)
    return totals


def _variances(lap, sets, mode, sigma):
    """Per-node variances, shape (len(sets), n), of a chunk of checked sets:
    the diagonal of (sigma^2 / 2) M^-1, zero at noise-free leaders."""
    mats, nodes = _system_stack(lap, sets, mode)
    inv = spd_inverse(mats, "grounded Laplacian" if isinstance(mode, NoiseFree) else "L + K")
    var = np.zeros((len(sets), len(lap)))
    var[np.arange(len(sets))[:, None], nodes] = 0.5 * sigma * sigma * np.diagonal(inv, axis1=1, axis2=2)
    return var


def _one_set(g, leaders, mode_cls, sigma):
    if not isinstance(leaders.mode, mode_cls):
        raise GraphError(
            f"leader set mode is {type(leaders.mode).__name__}, expected {mode_cls.__name__}"
        )
    leaders.check_against(g.n)
    with np.errstate(over="ignore"):
        (var,) = _variances(laplacian(g), np.array([leaders.members]), leaders.mode, sigma)
        return ErrorReport(float(var.sum()), var)


def oracle_error_noise_free(g: Graph, leaders: LeaderSet, sigma: float = 1.0) -> ErrorReport:
    """Tracking error with leaders pinned to the signal (grounded Laplacian).

    Deleting the leader rows/columns of L leaves the follower submatrix L_F;
    the total error is (sigma^2 / 2) * tr(L_F^-1), follower variances are the
    matching diagonal entries and leader variances are exactly zero.
    """
    return _one_set(g, leaders, NoiseFree, sigma)


def oracle_error_gain(g: Graph, leaders: LeaderSet, sigma: float = 1.0) -> ErrorReport:
    """Tracking error with finite-gain leaders: (sigma^2 / 2) * tr((L + K)^-1).

    K is diagonal with k at leader nodes; the Lyapunov solution for the
    symmetric system matrix is Sigma = (sigma^2 / 2) * (L + K)^-1.
    """
    return _one_set(g, leaders, Gain, sigma)
