"""Optimal leader selection.

Three routes to the same question "which m nodes should lead":

* exhaustive_select  - enumerate all m-subsets, each chunk of them scored by
  one call of ``joint._n_over_rho`` in either leader mode;
* greedy_select      - grow the set one node at a time by the largest error
  drop, scored for all candidates at once by rank-one updates of one
  inverse (a baseline; provably suboptimal on some cycles);
* closed forms       - uniform placements on cycles, antipodal pairs on even
  cycles, and the two-leader rounding formula on paths, their listed sets
  scored by the same call as exhaustive's, so both report the same bits.

Every set's error comes from ``joint._n_over_rho``, the one place that picks
the closed form by set size. None of them calls the dense trace oracles of
``kernels``: those stay the independent check on the closed forms.

Ties within a relative tolerance are enumerated, not broken: symmetric
graphs have orbit-sized optimal families and hiding them would make the
results unverifiable.
"""

import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import graphs
from .graphs import BudgetError, Gain, Graph, GraphError, NOISE_FREE
from .joint import _grounded_gram, _n_over_rho
from .kernels import compute_kernels

TIE_TOL = 1e-9
DEFAULT_BUDGET = 10_000_000
_CHUNK = 4096
# pairs per slice of pairwise_sweep, so its float temporaries stay 256 KiB each
_PAIR_CHUNK = 1 << 15


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


def _chunked(iterable, size):
    it = iter(iterable)
    while True:
        chunk = list(itertools.islice(it, size))
        if not chunk:
            return
        yield chunk


def _errors(kernels, sets, mode, sigma):
    """Total errors of a list of m-sets by one ``_n_over_rho`` call (inf if sigma overflows them)."""
    n_over_rho = _n_over_rho(kernels, np.array(sets).T, mode)[0]
    with np.errstate(over="ignore"):
        return 0.5 * sigma * sigma * n_over_rho


def _objective(n, best, sigma):
    """The Objective of a least total error: rho = n sigma^2 / (2 error)."""
    return Objective(rho=n * sigma * sigma / (2.0 * best), total_error=best)


def exhaustive_select(
    g: Graph,
    m: int,
    mode=NOISE_FREE,
    *,
    sigma: float = 1.0,
    budget: int = DEFAULT_BUDGET,
    kernels=None,
) -> SelectionResult:
    """All argmin-error (equivalently argmax-rho) m-subsets by enumeration.

    The subsets are scored _CHUNK at a time. Only sets within TIE_TOL of the
    running minimum are kept; the minimum only falls, so a set dropped on
    the way can never be a final tie.
    """
    if kernels is None:
        kernels = compute_kernels(g)
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
        errors = _errors(kernels, chunk, mode, sigma)
        best = min(best, float(errors.min()))
        cut = best * (1.0 + TIE_TOL)
        near = [(s, e) for s, e in near if e <= cut]
        near += [(chunk[i], errors[i]) for i in np.flatnonzero(errors <= cut)]
    return SelectionResult(
        optimal_sets=tuple(sorted(s for s, _ in near)),
        objective=_objective(g.n, best, sigma),
        method="exhaustive",
        evaluated_count=count,
        m=m,
    )


def _first_near_min(values) -> int:
    """Position of the first entry within TIE_TOL of the minimum (lowest-id tie-break)."""
    return int(np.flatnonzero(values <= values.min() * (1.0 + TIE_TOL))[0])


def greedy_select(g: Graph, m: int, mode=NOISE_FREE, *, sigma: float = 1.0) -> SelectionResult:
    """Grow the leader set one node at a time, taking the largest error drop.

    The first pick p is the most central node: the single-leader trace is
    n (u + 1 / c_v) with u = 1/k (u = 0 noise-free), scored for every node by
    one call of ``joint._n_over_rho``, as exhaustive scores it. The inverse B of
    its system matrix is read from L+ as well, by way of the pivot-grounded
    Gram matrix N_p = L+ - L+[:, p] - L+[p, :] + L+[p, p]
    (``joint._grounded_gram``): noise-free, N_p without row and column p;
    gain k, N_p + 11^T / k. After that B is kept up to date by rank one (Lin,
    Fardad & Jovanovic, IEEE TAC 2014), scoring all candidates j at once.
    Noise-free: pinning j drops the trace by ||B[:, j]||^2 / B[j, j], and B
    loses row and column j. Gain k: adding k at j drops it by
    k ||B[:, j]||^2 / (1 + k B[j, j]) (Sherman-Morrison). Cost
    O(n^3 + m n^2). Ties within TIE_TOL go to the lowest node id. Matches
    the optimum on cycles only when m is a power of two.
    """
    if not 1 <= m < g.n:
        raise GraphError(f"need 1 <= m < n, got m={m}, n={g.n}")
    n = g.n
    kernels = compute_kernels(g)
    traces = _n_over_rho(kernels, (np.arange(n),), mode)[0]
    k = mode.k if isinstance(mode, Gain) else None
    best = _first_near_min(traces)
    leaders = [best]
    nodes = np.delete(np.arange(n), best) if k is None else np.arange(n)
    b = _grounded_gram(kernels.lplus, best, nodes)
    if k is not None:
        b += 1.0 / k
    for _ in range(1, m):
        col_sq = (b * b).sum(axis=0)
        diag = np.diag(b)
        if k is None:
            cand = np.arange(len(nodes))
            drops = col_sq / diag
        else:
            cand = np.delete(nodes, leaders)  # nodes is arange(n) in gain mode
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


def _closed_form(g, optimal_sets, mode, sigma, method, notes):
    """SelectionResult of a closed-form family, every set scored as exhaustive scores it."""
    best = float(_errors(compute_kernels(g), optimal_sets, mode, sigma).min())
    return SelectionResult(
        optimal_sets=optimal_sets,
        objective=_objective(g.n, best, sigma),
        method=method,
        evaluated_count=1,
        m=len(optimal_sets[0]),
        notes=notes,
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
    notes = (f"all {p} rotations of the uniform placement are exact ties",)
    return _closed_form(graphs.cycle(n), (tuple(range(0, n, p)),), NOISE_FREE, sigma,
                        "closed-form-cycle", notes)


def closed_form_cycle_two(n: int, mode=NOISE_FREE, *, sigma: float = 1.0) -> SelectionResult:
    """Optimal two leaders on an even cycle: any antipodal pair.

    Holds for noise-free and for any finite-gain leaders; all n/2 antipodal
    pairs are returned as ties.
    """
    if n < 4 or n % 2 != 0:
        raise ClosedFormError(f"antipodal pairs need an even cycle with n >= 4, got n={n}")
    half = n // 2
    pairs = tuple((i, i + half) for i in range(half))
    return _closed_form(graphs.cycle(n), pairs, mode, sigma, "closed-form-cycle-two",
                        ("every antipodal pair has maximal resistance distance n/4",))


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
    notes = ("rounding tie: the mirror pair is equally optimal",) if mirror != pair else ()
    return _closed_form(graphs.path(n), tuple(sorted({pair, mirror})), NOISE_FREE, sigma,
                        "closed-form-path-two", notes)


class NodePairs(Sequence):
    """Read-only sequence of node pairs (i, j), held as two index arrays.

    ``ii`` and ``jj`` are the arrays themselves, read-only: int32 for the
    full sweep, so it holds 16 bytes a pair with rho, and np.intp for a
    given pair list. ``pairs[k]`` is a fresh ``(int, int)`` tuple, so
    keeping it pins neither array.
    """

    __slots__ = ("ii", "jj")

    def __init__(self, ii: np.ndarray, jj: np.ndarray):
        ii.flags.writeable = jj.flags.writeable = False
        self.ii, self.jj = ii, jj

    def __len__(self) -> int:
        return len(self.ii)

    def __getitem__(self, k):
        k = operator.index(k)
        return int(self.ii[k]), int(self.jj[k])

    def __iter__(self):
        return zip(self.ii.tolist(), self.jj.tolist())


@dataclass(frozen=True)
class PairSweep:
    """Two-leader joint centrality for a collection of node pairs.

    ``pairs`` is a NodePairs sequence; ``rho[k]`` belongs to ``pairs[k]``.
    """

    pairs: NodePairs
    rho: np.ndarray

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

    def argmax_pairs(self):
        """The (i, j) tuples within TIE_TOL of the largest rho, in sweep order."""
        top = self.rho.max()
        return [self.pairs[k] for k in np.flatnonzero(self.rho >= top * (1.0 - TIE_TOL)).tolist()]


def _upper_pairs(n: int):
    """The pairs i < j of n nodes in row-major order, as two int32 arrays.

    Row i holds n - 1 - i pairs. jj counts up by one within a row, and at
    the start of row i >= 1 it steps from n - 1 back to i + 1.
    """
    counts = np.arange(n - 1, 0, -1, dtype=np.int32)
    ii = np.repeat(np.arange(n - 1, dtype=np.int32), counts)
    jj = np.ones(len(ii), dtype=np.int32)
    jj[np.cumsum(counts[:-1])] = np.arange(3 - n, 1, dtype=np.int32)
    return ii, np.cumsum(jj, dtype=np.int32, out=jj)


def pairwise_sweep(g: Graph, pairs=None, *, budget: int = DEFAULT_BUDGET, kernels=None) -> PairSweep:
    """Two-leader joint centrality for every pair (or a given pair list).

    The full sweep scores every pair i < j in row-major order, the order of
    np.triu_indices, built as int32; a given list is scored in its order,
    each pair sorted.
    ``pairs`` on the result is a NodePairs over the two index arrays.
    Scored by ``joint._n_over_rho`` _PAIR_CHUNK pairs at a time into
    one preallocated rho, so the kernel's temporaries do not grow with the
    sweep; errors out when the number of pairs exceeds the evaluation
    budget. A noise-free pair needs a follower, so the graph needs n >= 3.
    """
    n = g.n
    if n < 3:
        raise GraphError(f"a noise-free leader pair needs a follower: n={n}")
    if kernels is None:
        kernels = compute_kernels(g)
    if pairs is None:
        if math.comb(n, 2) > budget:
            raise BudgetError(f"C({n}, 2) = {math.comb(n, 2)} pairs exceeds budget {budget}")
        ii, jj = _upper_pairs(n)
    else:
        pairs = [tuple(sorted((int(i), int(j)))) for i, j in pairs]
        if len(pairs) > budget:
            raise BudgetError(f"{len(pairs)} pairs exceeds budget {budget}")
        for i, j in pairs:
            if i == j or not (0 <= i < n and 0 <= j < n):
                raise GraphError(f"invalid node pair ({i}, {j})")
        if not pairs:
            raise GraphError("the pair list is empty")
        ii, jj = np.array(pairs, dtype=np.intp).T
    rho = np.empty(len(ii))
    for start in range(0, len(ii), _PAIR_CHUNK):
        part = slice(start, start + _PAIR_CHUNK)
        rho[part] = n / _n_over_rho(kernels, (ii[part], jj[part]), NOISE_FREE)[0]
    return PairSweep(pairs=NodePairs(ii, jj), rho=rho)
