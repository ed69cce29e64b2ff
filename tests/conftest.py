import itertools
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from leadsel import (
    Gain,
    Graph,
    LeaderSet,
    NOISE_FREE,
    Objective,
    SelectionResult,
    VerifyReport,
    compute_kernels,
    joint_centrality,
    joint_centrality_two_gain,
    oracle_error_gain,
    oracle_error_noise_free,
)
from leadsel.graphs import DisconnectedGraphError, _gnp_edges
from leadsel.kernels import oracle_errors
from leadsel.selection import TIE_TOL
from leadsel.verify import DEFAULT_K_VALUES, DEFAULT_TOL, IdentityViolation


def rel_dev(a, b):
    return abs(a - b) / abs(b)


def max_triangle_violation(d):
    """Largest d[i,k] - d[i,j] - d[j,k] over all triples (<= 0 for a metric)."""
    lhs = d[:, None, :]
    rhs = d[:, :, None] + d[None, :, :]
    return float((lhs - rhs).max())


@st.composite
def connected_graphs(draw, n_max=10, weighted=True):
    """Random connected graph: a random spanning tree plus extra edges."""
    n = draw(st.integers(min_value=2, max_value=n_max))
    edges = {}
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        edges[(u, v)] = 1.0
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=2 * n,
        )
    )
    for u, v in extra:
        if u != v:
            edges[(min(u, v), max(u, v))] = 1.0
    if weighted:
        for key in list(edges):
            edges[key] = draw(
                st.floats(min_value=0.25, max_value=4.0, allow_nan=False, allow_infinity=False)
            )
    return Graph(n, tuple((u, v, w) for (u, v), w in edges.items()))


def seeded_random_graph(rng, n, p=0.5, weighted=False):
    """Connected G(n, p) sample from an existing numpy Generator."""
    while True:
        try:
            return Graph(n, _gnp_edges(rng, n, p, weighted))
        except DisconnectedGraphError:
            continue


def weight_spread_graph(spread, n=14, p=0.4, rng=None):
    """Conditioning ladder: log-uniform weights over [1, spread] on G(n, p),
    by default the seeded G(14, 0.4)."""
    rng = np.random.default_rng(101) if rng is None else rng
    base = seeded_random_graph(rng, n, p=p)
    weights = spread ** rng.uniform(0.0, 1.0, size=base.edge_count)
    return Graph(n, tuple((u, v, float(w)) for (u, v, _), w in zip(base.edges, weights)))


def heavy_edge_cycle(edge, weight):
    """The 5-cycle with one edge of the given weight and the others of weight 1."""
    return Graph(5, tuple((u, v, weight if (u, v) == edge else 1.0)
                          for u, v in ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))))


def exact_error(g, members, mode=NOISE_FREE):
    """(1/2) tr(M^-1) of a leader set in exact rationals, in either leader mode.

    M is the grounded Laplacian (L without the leaders' rows and columns)
    for noise-free leaders and L + K for leaders of gain k, built from the
    edge weights as fractions and inverted by Gauss-Jordan. This is the one
    exact reference of the tests; the result is rounded once, to a float.
    """
    lap = [[Fraction(0)] * g.n for _ in range(g.n)]
    for u, v, w in g.edges:
        w = Fraction(w)
        lap[u][v] -= w
        lap[v][u] -= w
        lap[u][u] += w
        lap[v][v] += w
    if isinstance(mode, Gain):
        rows = range(g.n)
        for s in members:
            lap[s][s] += Fraction(mode.k)
    else:
        rows = [v for v in range(g.n) if v not in members]
    d = len(rows)
    a = [[lap[i][j] for j in rows] + [Fraction(int(r == c)) for c in range(d)] for r, i in enumerate(rows)]
    for c in range(d):  # M is positive definite, so every pivot is nonzero
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(d):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return float(sum(a[i][d + i] for i in range(d)) / 2)


def tridiagonal_chain_trace(w):
    """Trace of the inverse of the w x w tridiagonal (-1, 2, -1) matrix.

    Closed form w (w + 2) / 6; this is the error contribution of a chain of w
    followers strung between two pinned leaders on a cycle.
    """
    if w < 1:
        raise ValueError(f"chain length must be positive, got {w}")
    return w * (w + 2) / 6


def oracle_select(g, m, mode=NOISE_FREE):
    """Reference enumeration: every m-subset within TIE_TOL of the least
    dense-oracle error, all of itertools.combinations scored by one stacked
    oracle call."""
    sets = list(itertools.combinations(range(g.n), m))
    errors = oracle_errors(g, sets, mode).tolist()
    best = min(errors)
    return SelectionResult(
        optimal_sets=tuple(s for s, e in zip(sets, errors) if e <= best * (1.0 + TIE_TOL)),
        objective=Objective(rho=g.n / (2.0 * best), total_error=best),
        method="oracle",
        evaluated_count=len(errors),
        m=m,
    )


def verify_graph_reference(g, *, label="graph", m_max=3, k_values=DEFAULT_K_VALUES, tol=DEFAULT_TOL):
    """Reference for ``verify_graph``: a plain loop that checks one set at a
    time against the one-set oracles, the closed form of each check first."""
    kernels = compute_kernels(g)
    worst_nf = 0.0
    worst_gain = 0.0
    checks = 0
    violations = []
    for m in range(1, min(m_max, g.n - 1) + 1):
        for members in itertools.combinations(range(g.n), m):
            implied = joint_centrality(kernels, members).implied_total_error
            oracle = oracle_error_noise_free(g, LeaderSet(members, NOISE_FREE)).total_error
            dev = abs(implied - oracle) / oracle
            worst_nf = max(worst_nf, dev)
            checks += 1
            if dev > tol:
                violations.append(IdentityViolation(label, members, None, dev))
    if g.n >= 3:
        for s1, s2 in itertools.combinations(range(g.n), 2):
            for k in k_values:
                implied = joint_centrality_two_gain(kernels, s1, s2, k).implied_total_error
                oracle = oracle_error_gain(g, LeaderSet((s1, s2), Gain(k))).total_error
                dev = abs(implied - oracle) / oracle
                worst_gain = max(worst_gain, dev)
                checks += 1
                if dev > tol:
                    violations.append(IdentityViolation(label, (s1, s2), k, dev))
    return VerifyReport(worst_nf, worst_gain, checks, tuple(violations), tol)
