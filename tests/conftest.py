import itertools

from hypothesis import strategies as st

from leadsel import (
    Gain,
    Graph,
    LeaderSet,
    NOISE_FREE,
    Objective,
    SelectionResult,
    oracle_error_gain,
    oracle_error_noise_free,
)
from leadsel.graphs import DisconnectedGraphError, _gnp_edges
from leadsel.selection import TIE_TOL


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


def oracle_select(g, m, mode=NOISE_FREE):
    """Reference enumeration: every m-subset within TIE_TOL of the least
    dense-oracle error, by a plain loop over itertools.combinations."""
    oracle = oracle_error_gain if isinstance(mode, Gain) else oracle_error_noise_free
    errors = [(s, oracle(g, LeaderSet(s, mode)).total_error)
              for s in itertools.combinations(range(g.n), m)]
    best = min(e for _, e in errors)
    return SelectionResult(
        optimal_sets=tuple(s for s, e in errors if e <= best * (1.0 + TIE_TOL)),
        objective=Objective(rho=g.n / (2.0 * best), total_error=best),
        method="oracle",
        evaluated_count=len(errors),
        m=m,
    )
