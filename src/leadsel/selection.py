"""Optimal leader selection.

Four routes to the same question "which m nodes should lead":

* exhaustive_select  - enumerate all m-subsets, objective from joint
  centrality (noise-free; gain for m <= 2) or the trace oracle (gain, m > 2);
  pairs, noise-free and with gain, are scored a chunk at a time by the one
  pair kernel of ``joint``;
* oracle_select      - same enumeration, objective always from the dense
  trace oracle (the slow, trusted route);
* greedy_select      - grow the set one node at a time by the largest error
  drop, scored for all candidates at once by rank-one updates of one
  inverse (a baseline; provably suboptimal on some cycles);
* closed forms       - uniform placements on cycles, antipodal pairs on even
  cycles, and the two-leader rounding formula on paths.

Ties within a relative tolerance are enumerated, not broken: symmetric
graphs have orbit-sized optimal families and hiding them would make the
results unverifiable.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import graphs
from .centrality import inverse_info_centrality
from .graphs import Gain, Graph, GraphError, LeaderSet, NOISE_FREE, NoiseFree
from .joint import _pair_kernel, joint_centrality, single_leader_error
from .kernels import (
    compute_kernels,
    oracle_error_gain,
    oracle_error_noise_free,
    spd_inverse,
    system_matrix,
)

TIE_TOL = 1e-9
DEFAULT_BUDGET = 10_000_000
_CHUNK = 4096


class BudgetError(RuntimeError):
    """The requested enumeration exceeds the evaluation budget."""


class ClosedFormError(GraphError):
    """The closed-form solution does not apply to the requested instance."""


@dataclass(frozen=True)
class Objective:
    rho: float
    total_error: float


@dataclass(frozen=True)
class SelectionResult:
    optimal_sets: tuple
    objective: Objective
    method: str
    evaluated_count: int
    m: int
    notes: tuple = field(default=())


def _chunk_errors(g, mode, m, sigma, kernels):
    """Chunk-of-sets -> total errors callable for the exhaustive objective."""
    if not isinstance(mode, (NoiseFree, Gain)):
        raise GraphError(f"mode must be NoiseFree or Gain, got {mode!r}")
    if m == 1:
        return lambda chunk: [single_leader_error(kernels, s[0], mode, sigma) for s in chunk]
    if m == 2:
        u = 1.0 / mode.k if isinstance(mode, Gain) else 0.0
        return lambda chunk: 0.5 * sigma * sigma * _pair_kernel(kernels, *np.array(chunk).T, u)
    if isinstance(mode, NoiseFree):
        return lambda chunk: [
            joint_centrality(kernels, s, sigma=sigma).implied_total_error for s in chunk
        ]
    return lambda chunk: [oracle_error_gain(g, LeaderSet(s, mode), sigma).total_error for s in chunk]


def _oracle_chunk_errors(g, mode, sigma):
    oracle = oracle_error_gain if isinstance(mode, Gain) else oracle_error_noise_free
    return lambda chunk: [oracle(g, LeaderSet(s, mode), sigma).total_error for s in chunk]


def _chunked(iterable, size):
    it = iter(iterable)
    while True:
        chunk = list(itertools.islice(it, size))
        if not chunk:
            return
        yield chunk


def _search(g, m, chunk_errors, method, *, budget, sigma):
    """Every m-subset within TIE_TOL of the least error, scored chunk by chunk.

    Only sets within TIE_TOL of the running minimum are kept; the minimum
    only falls, so a set dropped on the way can never be a final tie.
    """
    if not 1 <= m < g.n:
        raise GraphError(f"need 1 <= m < n, got m={m}, n={g.n}")
    count = math.comb(g.n, m)
    if count > budget:
        raise BudgetError(
            f"C({g.n}, {m}) = {count} subsets exceeds the budget of {budget}; "
            "consider greedy_select"
        )
    best = math.inf
    near = []
    for chunk in _chunked(itertools.combinations(range(g.n), m), _CHUNK):
        errors = np.asarray(chunk_errors(chunk), dtype=float)
        best = min(best, float(errors.min()))
        cut = best * (1.0 + TIE_TOL)
        near = [(s, e) for s, e in near if e <= cut]
        near += [(chunk[i], errors[i]) for i in np.flatnonzero(errors <= cut)]
    rho = g.n * sigma * sigma / (2.0 * best)
    return SelectionResult(
        optimal_sets=tuple(sorted(s for s, _ in near)),
        objective=Objective(rho=rho, total_error=best),
        method=method,
        evaluated_count=count,
        m=m,
    )


def exhaustive_select(
    g: Graph,
    m: int,
    mode=NOISE_FREE,
    *,
    sigma: float = 1.0,
    budget: int = DEFAULT_BUDGET,
    kernels=None,
) -> SelectionResult:
    """All argmin-error (equivalently argmax-rho) m-subsets by enumeration."""
    if kernels is None:
        kernels = compute_kernels(g)
    chunk_errors = _chunk_errors(g, mode, m, sigma, kernels)
    return _search(g, m, chunk_errors, "exhaustive", budget=budget, sigma=sigma)


def oracle_select(
    g: Graph,
    m: int,
    mode=NOISE_FREE,
    *,
    sigma: float = 1.0,
    budget: int = DEFAULT_BUDGET,
) -> SelectionResult:
    """Enumeration with the dense trace oracle as the objective."""
    return _search(g, m, _oracle_chunk_errors(g, mode, sigma), "oracle", budget=budget, sigma=sigma)


def _first_near_min(values) -> int:
    """Position of the first entry within TIE_TOL of the minimum (lowest-id tie-break)."""
    return int(np.flatnonzero(values <= values.min() * (1.0 + TIE_TOL))[0])


def greedy_select(g: Graph, m: int, mode=NOISE_FREE, *, sigma: float = 1.0) -> SelectionResult:
    """Grow the leader set one node at a time, taking the largest error drop.

    The first pick is the most central node: the single-leader trace is
    n / c_v (plus n/k with gain k), read from the kernels. After that one
    inverse B of the system matrix is kept up to date by rank one
    (Lin, Fardad & Jovanovic, IEEE TAC 2014), scoring all candidates j at
    once. Noise-free: pinning j drops the trace by ||B[:, j]||^2 / B[j, j],
    and B loses row and column j. Gain k: adding k at j drops it by
    k ||B[:, j]||^2 / (1 + k B[j, j]) (Sherman-Morrison). Cost
    O(n^3 + m n^2). Ties within TIE_TOL go to the lowest node id. Matches
    the optimum on cycles only when m is a power of two.
    """
    if not 1 <= m < g.n:
        raise GraphError(f"need 1 <= m < n, got m={m}, n={g.n}")
    n = g.n
    k = mode.k if isinstance(mode, Gain) else None
    traces = n * inverse_info_centrality(compute_kernels(g))
    if k is not None:
        traces += n / k
    best = _first_near_min(traces)
    leaders = [best]
    mat, nodes = system_matrix(g, LeaderSet((best,), mode))
    b = spd_inverse(mat, "system matrix")
    for _ in range(1, m):
        col_sq = (b * b).sum(axis=0)
        diag = np.diag(b)
        if k is None:
            cand = np.arange(len(nodes))
            drops = col_sq / diag
        else:
            cand = np.setdiff1d(nodes, leaders)
            drops = k * col_sq[cand] / (1.0 + k * diag[cand])
        traces = np.trace(b) - drops
        best = _first_near_min(traces)
        j = cand[best]
        col = b[:, j].copy()
        if k is None:
            b -= np.outer(col, col / col[j])
            b = np.delete(np.delete(b, j, axis=0), j, axis=1)
            leaders.append(int(nodes[j]))
            nodes = np.delete(nodes, j)
        else:
            b -= np.outer(col, col * (k / (1.0 + k * col[j])))
            leaders.append(int(j))
    err = float(0.5 * sigma * sigma * traces[best])
    return SelectionResult(
        optimal_sets=(tuple(sorted(leaders)),),
        objective=Objective(rho=g.n * sigma * sigma / (2.0 * err), total_error=err),
        method="greedy",
        evaluated_count=sum(n - i for i in range(m)),
        m=m,
    )


def closed_form_cycle(n: int, m: int, *, sigma: float = 1.0) -> SelectionResult:
    """Optimal m noise-free leaders on a cycle: uniform spacing p = n/m.

    Only defined when n/m is an integer. Returns the canonical placement
    {0, p, 2p, ...}; every rotation of it ties, as noted on the result.
    """
    if m < 1 or m >= n:
        raise GraphError(f"need 1 <= m < n, got m={m}, n={n}")
    if n % m != 0:
        raise ClosedFormError(
            f"uniform placement needs integer spacing: n={n} not divisible by m={m}"
        )
    p = n // m
    canonical = tuple(range(0, n, p))
    err = oracle_error_noise_free(graphs.cycle(n), LeaderSet(canonical), sigma).total_error
    return SelectionResult(
        optimal_sets=(canonical,),
        objective=Objective(rho=n * sigma * sigma / (2.0 * err), total_error=err),
        method="closed-form-cycle",
        evaluated_count=1,
        m=m,
        notes=(f"all {p} rotations of the uniform placement are exact ties",),
    )


def closed_form_cycle_two(n: int, mode=NOISE_FREE, *, sigma: float = 1.0) -> SelectionResult:
    """Optimal two leaders on an even cycle: any antipodal pair.

    Holds for noise-free and for any finite-gain leaders; all n/2 antipodal
    pairs are returned as ties.
    """
    if n < 4 or n % 2 != 0:
        raise ClosedFormError(f"antipodal pairs need an even cycle with n >= 4, got n={n}")
    half = n // 2
    pairs = tuple((i, i + half) for i in range(half))
    g = graphs.cycle(n)
    if isinstance(mode, NoiseFree):
        err = oracle_error_noise_free(g, LeaderSet(pairs[0], mode), sigma).total_error
    else:
        err = oracle_error_gain(g, LeaderSet(pairs[0], mode), sigma).total_error
    return SelectionResult(
        optimal_sets=pairs,
        objective=Objective(rho=n * sigma * sigma / (2.0 * err), total_error=err),
        method="closed-form-cycle-two",
        evaluated_count=1,
        m=2,
        notes=("every antipodal pair has maximal resistance distance n/4",),
    )


def _round_half_away(x: float) -> int:
    return math.floor(x + 0.5)


def closed_form_path_two(n: int, *, sigma: float = 1.0) -> SelectionResult:
    """Optimal two noise-free leaders on a path by the rounding formula.

    In 1-indexed coordinates s1 = rnd(n/5 + 1/2), s2 = rnd(4n/5 + 1/2) with
    rounding half away from zero; returned 0-indexed. The mirror image of the
    pair is an exact tie whenever it is distinct (this happens when n is a
    multiple of 5 and the formula lands on a half-integer).
    """
    if n < 3:
        raise ClosedFormError(f"two leaders on a path need n >= 3, got n={n}")
    s1 = _round_half_away(n / 5 + 0.5)
    s2 = _round_half_away(4 * n / 5 + 0.5)
    pair = (s1 - 1, s2 - 1)
    mirror = tuple(sorted((n - s2, n - s1)))
    sets = tuple(sorted({pair, mirror}))
    err = oracle_error_noise_free(graphs.path(n), LeaderSet(pair), sigma).total_error
    notes = ()
    if mirror != pair:
        notes = ("rounding tie: the mirror pair is equally optimal",)
    return SelectionResult(
        optimal_sets=sets,
        objective=Objective(rho=n * sigma * sigma / (2.0 * err), total_error=err),
        method="closed-form-path-two",
        evaluated_count=1,
        m=2,
        notes=notes,
    )


@dataclass(frozen=True)
class PairSweep:
    """Two-leader joint centrality for a collection of node pairs."""

    n: int
    pairs: tuple
    rho: np.ndarray

    def matrix(self) -> np.ndarray:
        """Upper-triangular n x n table; unswept entries are NaN, diagonal 0."""
        out = np.full((self.n, self.n), np.nan)
        np.fill_diagonal(out, 0.0)
        for (i, j), r in zip(self.pairs, self.rho):
            out[i, j] = r
        return out

    def histogram(self, bins: int = 10):
        """(counts, bin_edges) of the rho values.

        A degenerate (single-valued) distribution gets a padded range so the
        histogram still has well-formed bins with one of them occupied: the
        value sits in the middle of bin bins // 2, away from any bin edge.
        """
        span = float(np.ptp(self.rho))
        if span <= abs(float(self.rho.max())) * 1e-12:
            center = float(self.rho.mean())
            width = max(abs(center), 1.0) * 2e-6 / bins
            low = center - (bins // 2 + 0.5) * width
            return np.histogram(self.rho, bins=bins, range=(low, low + bins * width))
        return np.histogram(self.rho, bins=bins)

    def argmax_pairs(self, tie_tol: float = TIE_TOL):
        top = self.rho.max()
        return [p for p, r in zip(self.pairs, self.rho) if r >= top * (1.0 - tie_tol)]


def pairwise_sweep(g: Graph, pairs=None, *, budget: int = DEFAULT_BUDGET, kernels=None) -> PairSweep:
    """Two-leader joint centrality for every pair (or a given pair list).

    Vectorised over the whole L+ / (L^2)+ tables; errors out when the number
    of pairs exceeds the evaluation budget. A noise-free pair needs a
    follower, so the graph needs n >= 3.
    """
    n = g.n
    if n < 3:
        raise GraphError(f"a noise-free leader pair needs a follower: n={n}")
    if kernels is None:
        kernels = compute_kernels(g)
    if pairs is None:
        if math.comb(n, 2) > budget:
            raise BudgetError(f"C({n}, 2) = {math.comb(n, 2)} pairs exceeds budget {budget}")
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        pairs = [tuple(sorted((int(i), int(j)))) for i, j in pairs]
        if len(pairs) > budget:
            raise BudgetError(f"{len(pairs)} pairs exceeds budget {budget}")
        for i, j in pairs:
            if i == j or not (0 <= i < n and 0 <= j < n):
                raise GraphError(f"invalid node pair ({i}, {j})")
    ii = np.array([p[0] for p in pairs])
    jj = np.array([p[1] for p in pairs])
    n_over_rho = _pair_kernel(kernels, ii, jj, 0.0)
    return PairSweep(n=n, pairs=tuple(pairs), rho=n / n_over_rho)


def tridiagonal_chain_trace(w: int) -> float:
    """Trace of the inverse of the w x w tridiagonal (-1, 2, -1) matrix.

    Closed form w (w + 2) / 6; this is the error contribution of a chain of w
    followers strung between two pinned leaders on a cycle.
    """
    if w < 1:
        raise ValueError(f"chain length must be positive, got {w}")
    return w * (w + 2) / 6
