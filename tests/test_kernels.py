import itertools
import os
import subprocess
import sys
import tracemalloc
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
    pairwise_sweep,
    path,
    single_leader_error,
)
from leadsel import kernels as kernels_module
from leadsel.kernels import SpectralError, oracle_errors, spd_inverse, system_matrix

from conftest import rel_dev, seeded_random_graph, weight_spread_graph


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
    # Var(x_i) = sigma^2 sum_p |v_i^(p)|^2 / (2 lambda_p) over the eigenpairs of L + K
    g = erdos_renyi(8, 0.5, seed=7)
    leaders = LeaderSet((0, 3), Gain(2.0))
    lam, vec = np.linalg.eigh(system_matrix(g, leaders)[0])
    spectral = ((vec * vec) / (2.0 * lam)).sum(axis=1)
    dense = oracle_error_gain(g, leaders).per_node_variance
    assert np.abs(spectral / dense - 1.0).max() < 1e-9


def test_spectral_variance_two_nodes_by_hand():
    # single edge, leader 0, k=1: M = [[2,-1],[-1,1]], diag of inverse (1, 2)
    g = Graph(2, ((0, 1),))
    var = oracle_error_gain(g, LeaderSet((0,), Gain(1.0))).per_node_variance
    assert np.allclose(var, [0.5, 1.0], atol=1e-12)


def test_spectral_variance_respects_symmetry():
    # cycle automorphism i -> n - i fixes leader {0}
    n = 6
    var = oracle_error_gain(cycle(n), LeaderSet((0,), Gain(1.5))).per_node_variance
    for i in range(1, n):
        assert abs(var[i] - var[(n - i) % n]) < 1e-12


def test_mode_mismatch_rejected():
    with pytest.raises(GraphError):
        oracle_error_noise_free(cycle(4), LeaderSet((0,), Gain(1.0)))
    with pytest.raises(GraphError):
        oracle_error_gain(cycle(4), LeaderSet((0,), NOISE_FREE))


def _one_set_reference(g, members, mode, sigma):
    """The dense trace of one system matrix, summed over all n nodes."""
    mat, nodes = system_matrix(g, LeaderSet(members, mode))
    var = np.zeros(g.n)
    var[nodes] = 0.5 * sigma * sigma * np.diag(np.linalg.inv(mat))
    return float(var.sum()), var


def _assert_rows_match_one_set_calls(g, sets, mode, sigma):
    totals = oracle_errors(g, sets, mode, sigma)
    assert totals.shape == (len(sets),)
    one_set = oracle_error_noise_free if mode == NOISE_FREE else oracle_error_gain
    for members, total in zip(sets, totals.tolist()):
        report = one_set(g, LeaderSet(members, mode), sigma)
        ref_total, ref_var = _one_set_reference(g, members, mode, sigma)
        assert total == report.total_error == ref_total
        assert np.array_equal(report.per_node_variance, ref_var)


@pytest.mark.parametrize("mode", [NOISE_FREE, Gain(0.8)], ids=["noise-free", "gain"])
def test_oracle_errors_rows_match_one_set_calls_across_chunks(monkeypatch, mode):
    # 3 systems per chunk and 56 sets, so the last chunk is partial; members in any order
    g = erdos_renyi(8, 0.5, seed=4)
    sets = [tuple(reversed(s)) if i % 2 else s for i, s in enumerate(itertools.combinations(range(8), 3))]
    dim = 5 if mode == NOISE_FREE else 8
    monkeypatch.setattr(kernels_module, "_STACK_ELEMENTS", 3 * dim * dim + 1)
    _assert_rows_match_one_set_calls(g, sets, mode, 1.3)
    monkeypatch.setattr(kernels_module, "_STACK_ELEMENTS", 1)
    _assert_rows_match_one_set_calls(g, sets[:7], mode, 1.3)


def test_oracle_errors_rows_match_one_set_calls_default_chunks():
    # 780 pairs of 40 x 40 systems fill 20 chunks of the default size
    g = erdos_renyi(40, 0.3, seed=1)
    assert kernels_module._STACK_ELEMENTS // (40 * 40) < 780
    _assert_rows_match_one_set_calls(g, list(itertools.combinations(range(40), 2)), Gain(3.0), 1.0)


def test_oracle_errors_failing_cholesky_raises_spectral_error():
    # 1e16 + 1 rounds to 1e16, so the grounded Laplacian of leader 3 holds the singular
    # block 1e16 [[1, -1], [-1, 1]], while leader 0 cuts the edge off; one stack holds both
    g = Graph(5, ((0, 1, 1e16), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (0, 4, 1.0)))
    assert oracle_errors(g, [(0,)], NOISE_FREE)[0] > 0.0
    with pytest.raises(SpectralError, match="grounded Laplacian is numerically singular"):
        oracle_errors(g, [(0,), (3,)], NOISE_FREE)


@pytest.mark.parametrize("sets, mode", [
    ([(0, 4)], NOISE_FREE), ([(0, -1)], NOISE_FREE), ([(0, 1), (2, 2)], NOISE_FREE),
    ([(0, 1, 2, 3)], NOISE_FREE), ([(0,)], None),
])
def test_oracle_errors_rejects_bad_sets(sets, mode):
    with pytest.raises(GraphError):
        oracle_errors(cycle(4), sets, mode)


def test_spd_inverse_rejects_singular_laplacian():
    # the ungrounded Laplacian has the zero mode 1, so it is not positive definite
    with pytest.raises(SpectralError, match="singular"):
        spd_inverse(laplacian(cycle(5)), "Laplacian")


def _grounded(d, seed):
    """Grounded Laplacian, d x d, of a weighted G(d + 1, 8 / d)."""
    g = seeded_random_graph(np.random.default_rng(seed), d + 1, p=min(1.0, 8.0 / d), weighted=True)
    return laplacian(g)[1:, 1:]


@pytest.mark.parametrize("d", [1, 2, 7, 64, 127, 128])
def test_spd_inverse_up_to_direct_rows_is_lapack_inverse(d):
    assert d <= kernels_module._DIRECT_ROWS
    a = _grounded(d, d) if d > 1 else np.array([[2.5]])
    assert np.array_equal(spd_inverse(a, "grounded Laplacian"), np.linalg.inv(a))
    stack = np.stack([a, a + np.eye(d)])
    assert np.array_equal(spd_inverse(stack, "grounded Laplacian"), np.linalg.inv(stack))


@pytest.mark.parametrize("d", [129, 130, 131, 257, 301, 1000])
def test_spd_inverse_by_blocks_matches_lapack_inverse(d):
    a = _grounded(d, d)
    lu = np.linalg.inv(a)
    inv = spd_inverse(a, "grounded Laplacian")
    assert np.abs(inv - lu).max() <= 1e-12 * np.abs(lu).max()
    if d <= 301:  # a stack gives each matrix's own inverse, bit for bit
        stack = spd_inverse(np.stack([a, a + np.eye(d)]), "grounded Laplacian")
        assert np.array_equal(stack[0], inv)
        assert np.array_equal(stack[1], spd_inverse(a + np.eye(d), "grounded Laplacian"))


@pytest.mark.parametrize("spread", [1e3, 1e6, 1e9])
def test_kernels_by_blocks_match_oracle_under_weight_spread(spread):
    # n = 300 inverts the grounded Laplacian by blocks; log-uniform weights over [1, spread]
    rng = np.random.default_rng(int(np.log10(spread)))
    g = weight_spread_graph(spread, n=300, p=6.0 / 300, rng=rng)
    k = compute_kernels(g)
    nodes = rng.choice(300, 12, replace=False)
    oracle = oracle_errors(g, nodes[:, None], NOISE_FREE)
    closed = np.array([single_leader_error(k, int(v)) for v in nodes])
    assert np.abs(closed - oracle).max() < 1e-8 * oracle.min()
    direct = [0.5 * np.trace(np.linalg.inv(system_matrix(g, LeaderSet((int(v),)))[0])) for v in nodes]
    assert np.abs(direct - oracle).max() < 1e-8 * oracle.min()
    sweep = pairwise_sweep(g, kernels=k)
    picks = rng.choice(len(sweep.pairs), 12, replace=False)
    oracle = oracle_errors(g, [sweep.pairs[i] for i in picks], NOISE_FREE)
    assert np.abs(150.0 / sweep.rho[picks] - oracle).max() < 1e-8 * oracle.min()


def test_spd_inverse_by_blocks_rejects_non_positive_definite():
    # the Laplacian's zero mode shifted to -0.1, then one matrix of a stack with a negative pivot
    with pytest.raises(SpectralError, match="Laplacian is numerically singular"):
        spd_inverse(laplacian(cycle(200)) - 0.1 * np.eye(200), "Laplacian")
    indefinite = _grounded(150, 3)
    indefinite[140, 140] = -1.0
    with pytest.raises(SpectralError, match="numerically singular"):
        spd_inverse(np.stack([_grounded(150, 4), indefinite]), "system matrix")


def _cholesky_recorder(monkeypatch):
    """Wrap np.linalg.cholesky; the returned list collects every matrix it sees."""
    seen, cholesky = [], np.linalg.cholesky

    def recorded(a):
        seen.append(np.array(a))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", recorded)
    return seen


@pytest.mark.parametrize("d, row, leaves", [
    # h = 64: A11 stays positive definite and row 64, the first of S, is the only negative pivot
    (129, 64, [(64, 64), (65, 65)]),
    # S (rows 150-299) splits again at 75, so row 260 lies in the Schur complement of S
    (300, 260, [(75, 75)] * 4),
])
def test_spd_inverse_tests_each_leaf(monkeypatch, d, row, leaves):
    a = _grounded(d, d)
    a[row, row] = -1.0
    seen = _cholesky_recorder(monkeypatch)
    with pytest.raises(SpectralError, match="numerically singular"):
        spd_inverse(a, "grounded Laplacian")
    assert [m.shape for m in seen] == leaves
    assert np.array_equal(seen[0], a[:leaves[0][0], :leaves[0][0]])


def test_spd_inverse_factors_only_leaves(monkeypatch):
    seen = _cholesky_recorder(monkeypatch)
    spd_inverse(_grounded(1000, 9), "grounded Laplacian")
    assert seen and max(m.shape[-1] for m in seen) <= kernels_module._DIRECT_ROWS
    for d in (1, 50, 128):
        seen.clear()
        a = _grounded(d, d) if d > 1 else np.array([[2.5]])
        spd_inverse(a, "grounded Laplacian")
        assert len(seen) == 1 and np.array_equal(seen[0], a)


def _kernels_reference(g):
    """L+, (L^2)+ and K_f the plain way, with a fresh array for each step."""
    n = g.n
    padded = np.zeros((n, n))
    padded[1:, 1:] = spd_inverse(laplacian(g)[1:, 1:], "grounded Laplacian")
    lplus = padded - padded.mean(axis=1)[:, None] - padded.mean(axis=0)[None, :] + padded.mean()
    lplus = (lplus + lplus.T) / 2.0
    l2plus = lplus @ lplus
    l2plus = (l2plus + l2plus.T) / 2.0
    return lplus, l2plus, n * float(np.trace(lplus))


@pytest.mark.parametrize("n", [2, 7, 129, 300])
def test_compute_kernels_in_place_is_bit_identical(n):
    g = seeded_random_graph(np.random.default_rng(n), n, p=min(1.0, 6.0 / n), weighted=True)
    k = compute_kernels(g)
    lplus, l2plus, kirchhoff = _kernels_reference(g)
    assert k.lplus.tobytes() == lplus.tobytes() and k.l2plus.tobytes() == l2plus.tobytes()
    assert k.kirchhoff.hex() == kirchhoff.hex()


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernels_and_laplacian_peak_memory():
    # the result pair is 2 n^2 doubles; the Laplacian is dropped once inverted,
    # the padded inverse allocated only then and centred in place, and each
    # symmetrization makes one temporary
    g = erdos_renyi(600, 8 / 599, seed=0)
    doubles = 8 * g.n * g.n
    assert _peak_bytes(lambda: compute_kernels(g)) < 4.6 * doubles
    assert _peak_bytes(lambda: laplacian(g)) < 1.5 * doubles
    assert _peak_bytes(lambda: compute_kernels(g)) < 3.6 * doubles


@pytest.mark.parametrize("mode", [NOISE_FREE, Gain(0.8)], ids=["noise-free", "gain"])
def test_oracle_errors_rows_above_direct_rows_match_one_set_calls(mode):
    # 140 x 140 and larger systems, three to a chunk, so 7 sets span three chunks
    g = erdos_renyi(145, 0.06, seed=2)
    sets = [(0, 3), (5, 1), (144, 70), (9, 10), (33, 2), (100, 101), (7, 140)]
    totals = oracle_errors(g, sets, mode, 0.9)
    one_set = oracle_error_noise_free if mode == NOISE_FREE else oracle_error_gain
    for members, total in zip(sets, totals.tolist()):
        report = one_set(g, LeaderSet(members, mode), 0.9)
        ref_total, ref_var = _one_set_reference(g, members, mode, 0.9)
        assert total == report.total_error and rel_dev(total, ref_total) < 1e-12
        assert np.abs(report.per_node_variance - ref_var).max() < 1e-12 * ref_var.max()


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
