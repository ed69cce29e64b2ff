import tracemalloc

import numpy as np
import pytest

from leadsel import (
    biharmonic_matrix,
    centrality_report,
    certainty_inverse,
    complete,
    compute_kernels,
    cycle,
    erdos_renyi,
    info_centrality,
    laplacian,
    path,
    resistance_matrix,
)

from conftest import max_triangle_violation, rel_dev, seeded_random_graph


def spectral_distance(g, power):
    """Independent spectral route: sum_{l>=2} (v_l^i - v_l^j)^2 / lambda_l^power."""
    lam, vec = np.linalg.eigh(laplacian(g))
    lam, vec = lam[1:], vec[:, 1:]
    n = g.n
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = np.sum((vec[i] - vec[j]) ** 2 / lam**power)
    return out


def test_resistance_path_is_hop_distance():
    n = 6
    r = resistance_matrix(compute_kernels(path(n)))
    idx = np.arange(n)
    assert np.abs(r - np.abs(idx[:, None] - idx[None, :])).max() < 1e-10


@pytest.mark.parametrize("n", [5, 8])
def test_resistance_cycle_parallel_paths(n):
    r = resistance_matrix(compute_kernels(cycle(n)))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = min(abs(i - j), n - abs(i - j))
            assert abs(1.0 / r[i, j] - (1.0 / d + 1.0 / (n - d))) < 1e-10


def test_resistance_complete():
    n = 4
    r = resistance_matrix(compute_kernels(complete(n)))
    off = r[~np.eye(n, dtype=bool)]
    assert np.abs(off - 2.0 / n).max() < 1e-12
    assert np.abs(r - spectral_distance(complete(n), 1)).max() < 1e-9


def test_info_centrality_small_graphs():
    # path(3): resistance row sums (3, 2, 3) so c = (1, 3/2, 1)
    c = info_centrality(compute_kernels(path(3)))
    assert np.allclose(c, [1.0, 1.5, 1.0], atol=1e-12)
    c = info_centrality(compute_kernels(cycle(7)))
    assert np.ptp(c) < 1e-12
    c = info_centrality(compute_kernels(complete(3)))
    assert np.allclose(c, 9.0 / 4.0, atol=1e-12)


def test_row_sum_identity_and_symmetry():
    rng = np.random.default_rng(17)
    for _ in range(5):
        g = seeded_random_graph(rng, int(rng.integers(5, 64)), weighted=True)
        k = compute_kernels(g)
        r = resistance_matrix(k)
        c = info_centrality(k)
        assert np.abs(r.sum(axis=1) - g.n / c).max() < 1e-8
        assert np.array_equal(r, r.T)
        assert np.all(np.diag(r) == 0.0) and r.min() >= 0.0


def test_biharmonic_three_routes_agree():
    rng = np.random.default_rng(23)
    for _ in range(4):
        g = seeded_random_graph(rng, int(rng.integers(4, 20)), weighted=True)
        k = compute_kernels(g)
        gamma = biharmonic_matrix(k)
        # route 2: column differences of L+
        lp = k.lplus
        alt = np.zeros_like(gamma)
        for i in range(g.n):
            for j in range(g.n):
                alt[i, j] = np.sum((lp[:, i] - lp[:, j]) ** 2)
        assert np.abs(gamma - alt).max() < 1e-9
        # route 3: spectral form with squared eigenvalues
        assert np.abs(gamma - spectral_distance(g, 2)).max() < 1e-9
        # resistance spectral cross-check on the same graphs
        assert np.abs(resistance_matrix(k) - spectral_distance(g, 1)).max() < 1e-9


def test_biharmonic_cycle4_antipodal():
    gamma = biharmonic_matrix(compute_kernels(cycle(4)))
    assert abs(gamma[0, 2] - 0.5) < 1e-12  # column difference (1/2, 0, -1/2, 0)


def test_metric_properties():
    rng = np.random.default_rng(31)
    for _ in range(4):
        g = seeded_random_graph(rng, int(rng.integers(4, 32)), weighted=True)
        k = compute_kernels(g)
        assert max_triangle_violation(resistance_matrix(k)) < 1e-10
        assert max_triangle_violation(np.sqrt(biharmonic_matrix(k))) < 1e-10


def test_certainty_orders_like_info_centrality():
    rng = np.random.default_rng(41)
    g = seeded_random_graph(rng, 12, weighted=True)
    k = compute_kernels(g)
    c = info_centrality(k)
    ci = certainty_inverse(k)
    assert np.array_equal(np.argsort(ci), np.argsort(1.0 / c))
    # identity: (sigma^2/2) L+[i,i] = (sigma^2/2)(1/c - K_f/n^2)
    assert np.abs(ci - 0.5 * (1.0 / c - k.kirchhoff / k.n**2)).max() < 1e-10


def test_certainty_special_cases():
    assert np.ptp(certainty_inverse(compute_kernels(cycle(9)))) < 1e-12
    ci = certainty_inverse(compute_kernels(path(3)))
    assert ci[1] < ci[0] and ci[1] < ci[2]


def test_report_bundles_everything():
    k = compute_kernels(cycle(5))
    rep = centrality_report(k, sigma=2.0)
    assert rep.resistance.shape == (5, 5)
    assert rep.biharmonic.shape == (5, 5)
    assert np.array_equal(rep.certainty_inverse, certainty_inverse(k, 2.0))


def test_report_matrices_are_built_on_first_read():
    k = compute_kernels(seeded_random_graph(np.random.default_rng(3), 40, p=0.2, weighted=True))
    rep = centrality_report(k)
    assert "resistance" not in vars(rep) and "biharmonic" not in vars(rep)
    assert rep.resistance.tobytes() == resistance_matrix(k).tobytes()
    assert rep.biharmonic.tobytes() == biharmonic_matrix(k).tobytes()
    assert rep.resistance is rep.resistance and rep.biharmonic is rep.biharmonic


def test_report_peak_memory():
    # built up front, the two matrices and their temporaries took 3 n^2 doubles
    k = compute_kernels(erdos_renyi(600, 8 / 599, seed=0))
    tracemalloc.start()
    try:
        centrality_report(k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 8 * k.n * k.n


def test_networkx_cross_check():
    """information_centrality is normalised by n, and the weights are
    conductances (invert_weight=False); both hold on weighted graphs."""
    nx = pytest.importorskip("networkx")
    pytest.importorskip("scipy")  # networkx's Laplacian solvers
    rng = np.random.default_rng(23)
    for weighted in (False, True):
        for n in (5, 9, 13):
            g = seeded_random_graph(rng, n, weighted=weighted)
            graph = nx.Graph()
            graph.add_nodes_from(range(n))
            graph.add_weighted_edges_from(g.edges)
            k = compute_kernels(g)
            c = info_centrality(k)
            r = resistance_matrix(k)
            ic = nx.information_centrality(graph, weight="weight")
            for i in range(n):
                assert rel_dev(n * ic[i], c[i]) < 1e-10
                for j in range(i + 1, n):
                    dist = nx.resistance_distance(graph, i, j, weight="weight", invert_weight=False)
                    assert rel_dev(dist, r[i, j]) < 1e-10
            kf = nx.effective_graph_resistance(graph, weight="weight", invert_weight=False)
            assert rel_dev(kf, k.kirchhoff) < 1e-10
