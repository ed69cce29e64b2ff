import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import leadsel

from leadsel import (
    Gain,
    Graph,
    GraphError,
    LeaderSet,
    NOISE_FREE,
    complete,
    compute_kernels,
    cycle,
    erdos_renyi,
    laplacian,
    oracle_error_gain,
    oracle_error_noise_free,
    path,
    per_node_variance_spectral,
)
from leadsel.kernels import SpectralError, spd_inverse

from conftest import rel_dev, seeded_random_graph


def test_complete3_pseudoinverse_closed_form():
    # for K_n, L+ = (1/n)(I - J/n); for n=3 that is (1/9) [[2,-1,-1],...]
    k = compute_kernels(complete(3))
    expect = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]]) / 9.0
    assert np.allclose(k.lplus, expect, atol=1e-12)


def test_cycle4_kirchhoff_index():
    # independent route: cycle resistance r(d) = d(n-d)/n summed over pairs,
    # 4 pairs at distance 1 and 2 pairs at distance 2: 4*(3/4) + 2*1 = 5
    k = compute_kernels(cycle(4))
    assert abs(k.kirchhoff - 5.0) < 1e-10


def test_kernel_identities():
    rng = np.random.default_rng(3)
    for _ in range(6):
        g = seeded_random_graph(rng, int(rng.integers(4, 16)), weighted=True)
        k = compute_kernels(g)
        n = g.n
        lap = laplacian(g)
        centering = np.eye(n) - np.ones((n, n)) / n
        tol = 1e-9 * n
        assert np.abs(lap @ k.lplus - centering).max() < tol
        assert np.abs(k.lplus @ np.ones(n)).max() < tol
        assert np.abs(np.ones(n) @ k.lplus).max() < tol
        assert abs(np.trace(k.lplus) - k.kirchhoff / n) < tol
        assert np.abs(k.lplus - np.linalg.pinv(lap)).max() < tol
        # (L^2)+ built as (L+)^2 vs an independent Moore-Penrose route
        assert np.abs(k.l2plus - np.linalg.pinv(lap @ lap)).max() < 1e-8


def test_kernels_single_node():
    k = compute_kernels(Graph(1, ()))
    assert k.kirchhoff == 0.0 and k.lplus.shape == (1, 1)


def test_oracle_noise_free_path3_middle():
    # followers decouple: grounded block diag(1, 1), trace of inverse 2
    rep = oracle_error_noise_free(path(3), LeaderSet((1,)))
    assert abs(rep.total_error - 1.0) < 1e-12
    assert rep.per_node_variance[1] == 0.0
    assert abs(rep.per_node_variance.sum() - rep.total_error) < 1e-15


def test_oracle_noise_free_cycle4():
    # antipodal leaders: grounded block diag(2, 2); adjacent: [[2,-1],[-1,2]]
    assert abs(oracle_error_noise_free(cycle(4), LeaderSet((0, 2))).total_error - 0.5) < 1e-12
    assert abs(oracle_error_noise_free(cycle(4), LeaderSet((0, 1))).total_error - 2.0 / 3.0) < 1e-12


def test_oracle_noise_free_sigma_scales_square():
    base = oracle_error_noise_free(cycle(4), LeaderSet((0, 2)), sigma=1.0).total_error
    assert abs(oracle_error_noise_free(cycle(4), LeaderSet((0, 2)), sigma=2.0).total_error - 4 * base) < 1e-12


def test_oracle_gain_complete3():
    # dense inversion of L + diag(1,0,0) gives trace 13/3
    rep = oracle_error_gain(complete(3), LeaderSet((0,), Gain(1.0)))
    assert abs(rep.total_error - 13.0 / 6.0) < 1e-12


def test_oracle_gain_monotone_in_k_and_all_leader_limit():
    g = erdos_renyi(7, 0.5, seed=11)
    errs = [
        oracle_error_gain(g, LeaderSet((0, 3), Gain(k))).total_error
        for k in (0.1, 0.5, 1.0, 5.0, 50.0)
    ]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    all_nodes = tuple(range(g.n))
    big = oracle_error_gain(g, LeaderSet(all_nodes, Gain(1e9))).total_error
    assert big < 1e-8  # M >= k I, so the error vanishes as k grows


def test_gain_large_k_approaches_noise_free_cycle4():
    gain = oracle_error_gain(cycle(4), LeaderSet((0, 2), Gain(1e8))).total_error
    free = oracle_error_noise_free(cycle(4), LeaderSet((0, 2))).total_error
    assert rel_dev(gain, free) < 1e-6


def test_gain_large_k_approaches_noise_free_suite():
    rng = np.random.default_rng(5)
    for _ in range(8):
        g = seeded_random_graph(rng, int(rng.integers(4, 13)))
        for m in (1, 2, 3):
            if m >= g.n:
                continue
            members = tuple(sorted(rng.choice(g.n, size=m, replace=False).tolist()))
            gain = oracle_error_gain(g, LeaderSet(members, Gain(1e8))).total_error
            free = oracle_error_noise_free(g, LeaderSet(members)).total_error
            assert rel_dev(gain, free) < 1e-5


def test_spectral_variance_matches_inverse_route():
    g = erdos_renyi(8, 0.5, seed=7)
    leaders = LeaderSet((0, 3), Gain(2.0))
    spectral = per_node_variance_spectral(g, leaders)
    dense = oracle_error_gain(g, leaders).per_node_variance
    assert np.abs(spectral / dense - 1.0).max() < 1e-9


def test_spectral_variance_two_nodes_by_hand():
    # single edge, leader 0, k=1: M = [[2,-1],[-1,1]], diag of inverse (1, 2)
    g = Graph(2, ((0, 1),))
    var = per_node_variance_spectral(g, LeaderSet((0,), Gain(1.0)))
    assert np.allclose(var, [0.5, 1.0], atol=1e-12)


def test_spectral_variance_respects_symmetry():
    # cycle automorphism i -> n - i fixes leader {0}
    n = 6
    var = per_node_variance_spectral(cycle(n), LeaderSet((0,), Gain(1.5)))
    for i in range(1, n):
        assert abs(var[i] - var[(n - i) % n]) < 1e-12


def test_mode_mismatch_rejected():
    with pytest.raises(GraphError):
        oracle_error_noise_free(cycle(4), LeaderSet((0,), Gain(1.0)))
    with pytest.raises(GraphError):
        oracle_error_gain(cycle(4), LeaderSet((0,), NOISE_FREE))
    with pytest.raises(GraphError):
        per_node_variance_spectral(cycle(4), LeaderSet((0,), NOISE_FREE))


def test_spd_inverse_rejects_singular_laplacian():
    # the ungrounded Laplacian has the zero mode 1, so it is not positive definite
    with pytest.raises(SpectralError, match="singular"):
        spd_inverse(laplacian(cycle(5)), "Laplacian")


@pytest.mark.parametrize("weight", [1e16, 1e100, 1e300])
def test_heavy_edge_cycle_rejected(weight):
    # lambda_max ~ 2 weight puts the zero-mode cutoff above lambda_2 ~ 1.4;
    # the grounded inverse alone factors the 1e100 case without complaint
    g = Graph(5, ((0, 1, weight), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (0, 4, 1.0)))
    with pytest.raises(SpectralError):
        compute_kernels(g)


def test_package_and_cli_import_without_scipy():
    src = str(Path(leadsel.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, leadsel, leadsel.cli; assert 'scipy' not in sys.modules, 'scipy imported'"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
