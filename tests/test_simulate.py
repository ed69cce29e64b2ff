import importlib
import math
import tracemalloc

import numpy as np
import pytest

from leadsel import (
    Gain,
    GraphError,
    LeaderSet,
    SimConfig,
    StabilityError,
    complete,
    NOISE_FREE,
    cycle,
    oracle_error_gain,
    oracle_error_noise_free,
    path,
    simulate,
)
from leadsel.kernels import system_matrix

from conftest import rel_dev, seeded_random_graph

# the package exports the function under the module's name
sim_module = importlib.import_module("leadsel.simulate")


def _per_step_reference(g, leaders, cfg):
    """Empirical per-node variances from one mat-vec per Euler step.

    The same scheme, noise stream and row order as simulate, run in the node
    basis: x <- (I - dt M) x + sqrt(dt) xi, squares summed after burn-in.
    """
    sys_mat, active = system_matrix(g, leaders)
    dim = len(active)
    propagator = np.eye(dim) - cfg.dt * sys_mat
    noise_scale = math.sqrt(cfg.dt)
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    x = np.zeros(dim)
    sumsq = np.zeros(dim)
    burn = cfg.effective_burn_in

    def advance(n_steps, collect):
        nonlocal x, sumsq
        done = 0
        while done < n_steps:
            bs = min(16384, n_steps - done)
            noise = rng.standard_normal((bs, dim))
            for t in range(bs):
                x = propagator @ x
                x += noise_scale * noise[t]
                if collect:
                    sumsq += x * x
            done += bs

    advance(burn, collect=False)
    advance(cfg.steps - burn, collect=True)
    per_node = np.zeros(g.n)
    per_node[active] = sumsq / (cfg.steps - burn) * (cfg.sigma * cfg.sigma)
    return per_node


def test_same_seed_bit_identical():
    cfg = SimConfig(dt=0.02, steps=20_000, seed=99)
    leaders = LeaderSet((0, 2))
    a = simulate(cycle(4), leaders, cfg)
    b = simulate(cycle(4), leaders, cfg)
    assert np.array_equal(a.empirical_variance, b.empirical_variance)
    assert a.empirical_total_error == b.empirical_total_error
    assert a.seed_used == 99


def test_zero_noise_contracts_to_signal():
    cfg = SimConfig(dt=0.05, steps=5_000, sigma=0.0, seed=1, mu=3.5)
    res = simulate(cycle(4), LeaderSet((0,), Gain(1.0)), cfg)
    assert res.empirical_total_error == 0.0
    assert np.all(res.empirical_variance == 0.0)


def test_noise_free_leader_variance_is_exactly_zero():
    cfg = SimConfig(dt=0.02, steps=30_000, seed=5)
    res = simulate(cycle(6), LeaderSet((0, 3)), cfg)
    assert res.empirical_variance[0] == 0.0
    assert res.empirical_variance[3] == 0.0
    assert np.all(res.empirical_variance[[1, 2, 4, 5]] > 0.0)


def test_variance_is_about_mu_not_about_the_mean():
    cfg0 = SimConfig(dt=0.02, steps=20_000, seed=11, mu=0.0)
    cfg9 = SimConfig(dt=0.02, steps=20_000, seed=11, mu=9.0)
    leaders = LeaderSet((1,), Gain(2.0))
    a = simulate(cycle(5), leaders, cfg0)
    b = simulate(cycle(5), leaders, cfg9)
    # deviations from mu evolve identically for the same seed
    assert np.array_equal(a.empirical_variance, b.empirical_variance)


def test_stability_precondition():
    with pytest.raises(StabilityError) as err:
        simulate(complete(6), LeaderSet((0,), Gain(10.0)), SimConfig(dt=0.5, steps=100, seed=0))
    assert err.value.dt_bound is not None and err.value.dt_bound < 0.5


def test_burn_in_validation_and_default():
    with pytest.raises(GraphError):
        SimConfig(dt=0.01, steps=100, burn_in=100)
    cfg = SimConfig(dt=0.01, steps=1000)
    assert cfg.effective_burn_in == 100
    res = simulate(cycle(4), LeaderSet((0,)), SimConfig(dt=0.05, steps=2_000, seed=3))
    assert res.sample_count == 1_800


def test_moderate_run_tracks_analytic_value():
    # complete(3), leader 0, k = 1: analytic total error 13/6
    cfg = SimConfig(dt=0.01, steps=400_000, seed=2024)
    res = simulate(complete(3), LeaderSet((0,), Gain(1.0)), cfg)
    assert abs(res.analytic_total_error - 13.0 / 6.0) < 1e-12
    assert rel_dev(res.empirical_total_error, res.analytic_total_error) < 0.10


def test_variance_respects_cycle_mirror_symmetry():
    # the reflection i -> (n - i) mod n fixes leader set {0, 3} on cycle(6)
    cfg = SimConfig(dt=0.01, steps=600_000, seed=314)
    res = simulate(cycle(6), LeaderSet((0, 3)), cfg)
    v = res.empirical_variance
    # 3-standard-error bound with OU autocorrelation time 1/lambda_min
    lam_min = 1.0  # grounded blocks are [[2,-1],[-1,2]]: smallest eigenvalue 1
    n_eff = (cfg.steps - cfg.effective_burn_in) * cfg.dt * lam_min / 2.0
    for i, j in ((1, 5), (2, 4)):
        se = (v[i] + v[j]) * np.sqrt(2.0 / n_eff)
        assert abs(v[i] - v[j]) < 3.0 * se


@pytest.mark.parametrize("mode", [NOISE_FREE, Gain(0.7)], ids=["noise-free", "gain"])
def test_analytic_variance_is_the_oracle_diagonal(mode):
    g = seeded_random_graph(np.random.default_rng(17), 8, weighted=True)
    leaders = LeaderSet((1, 5), mode)
    res = simulate(g, leaders, SimConfig(dt=0.01, steps=200, sigma=0.6, seed=3))
    oracle = oracle_error_gain if isinstance(mode, Gain) else oracle_error_noise_free
    want = oracle(g, leaders, 0.6)
    assert np.array_equal(res.analytic_variance, want.per_node_variance)
    assert res.analytic_total_error == want.total_error


@pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf"), 1e200])
def test_sigma_must_have_a_finite_square(sigma):
    # the variances scale with sigma^2; 1e200 squares to inf
    with pytest.raises(GraphError):
        SimConfig(dt=0.01, steps=100, sigma=sigma)


def _assert_matches_reference(g, leaders, cfg):
    got = simulate(g, leaders, cfg)
    want = _per_step_reference(g, leaders, cfg)
    # the same noise in another basis and summation order: rounding differences only
    assert np.all(np.abs(got.empirical_variance - want) <= 1e-12 * want)
    assert rel_dev(got.empirical_total_error, want.sum()) < 1e-12
    assert got.sample_count == cfg.steps - cfg.effective_burn_in


@pytest.mark.parametrize("mode", [NOISE_FREE, Gain(0.7)], ids=["noise-free", "gain"])
@pytest.mark.parametrize("graph, members", [
    pytest.param(cycle(6), (0,), id="cycle6"),
    pytest.param(path(9), (1, 7), id="path9"),
    pytest.param(seeded_random_graph(np.random.default_rng(23), 12, p=0.4, weighted=True), (2, 5),
                 id="gnp12-weighted"),
])
def test_modal_scan_matches_per_step_loop(graph, members, mode):
    # 20,003 steps end in a partial block at every dim here
    cfg = SimConfig(dt=0.01, steps=20_003, sigma=0.6, seed=61)
    _assert_matches_reference(graph, LeaderSet(members, mode), cfg)


def _rows(dim):
    return max(1, sim_module._BLOCK_ELEMENTS // dim)


@pytest.mark.parametrize("steps, burn_in", [
    pytest.param(lambda rows: 1, lambda rows: None, id="one-step"),
    pytest.param(lambda rows: 5_000, lambda rows: 0, id="no-burn-in"),
    pytest.param(lambda rows: 3 * rows + 5, lambda rows: rows + rows // 2, id="burn-in-ends-mid-block"),
    pytest.param(lambda rows: 2 * rows, lambda rows: rows, id="whole-blocks"),
])
def test_modal_scan_block_boundaries(steps, burn_in):
    g, leaders = cycle(6), LeaderSet((0,), Gain(1.5))
    rows = _rows(g.n)
    _assert_matches_reference(g, leaders, SimConfig(dt=0.02, steps=steps(rows), burn_in=burn_in(rows), seed=8))


def test_modal_scan_single_row_blocks(monkeypatch):
    # a dim above the element budget leaves one row per block
    monkeypatch.setattr(sim_module, "_BLOCK_ELEMENTS", 4)
    g, leaders = path(9), LeaderSet((0,), Gain(0.5))
    assert _rows(g.n) == 1
    _assert_matches_reference(g, leaders, SimConfig(dt=0.02, steps=3_000, seed=9))


@pytest.mark.parametrize("mode", [NOISE_FREE, Gain(2.0)], ids=["noise-free", "gain"])
def test_modal_scan_just_under_stability_bound(mode):
    # the fastest mode has a = 1 - dt lambda_max close to -1
    g = seeded_random_graph(np.random.default_rng(5), 10, p=0.5, weighted=True)
    leaders = LeaderSet((3,), mode)
    lam_max = np.linalg.eigvalsh(system_matrix(g, leaders)[0])[-1]
    cfg = SimConfig(dt=0.999 * 2.0 / lam_max, steps=20_000, seed=10)
    _assert_matches_reference(g, leaders, cfg)


def test_transient_memory_does_not_grow_with_steps():
    g = seeded_random_graph(np.random.default_rng(40), 40, p=0.3, weighted=True)
    leaders = LeaderSet((0, 1), Gain(5.0))  # dim 40
    peaks = []
    for steps in (6_000, 600_000):
        tracemalloc.start()
        try:
            simulate(g, leaders, SimConfig(dt=0.01, steps=steps, seed=4))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0]


@pytest.mark.parametrize("mode", [NOISE_FREE, Gain(0.8)], ids=["noise-free", "gain"])
def test_discretization_bias_matches_dense_traces(mode):
    g = seeded_random_graph(np.random.default_rng(31), 9, p=0.5, weighted=True)
    leaders = LeaderSet((2, 6), mode)
    cfg = SimConfig(dt=0.03, steps=100, sigma=1.7, seed=1)
    res = simulate(g, leaders, cfg)
    mat = system_matrix(g, leaders)[0]
    s2 = cfg.sigma * cfg.sigma
    scheme = s2 * np.trace(np.linalg.inv(mat @ (2.0 * np.eye(len(mat)) - cfg.dt * mat)))
    continuous = 0.5 * s2 * np.trace(np.linalg.inv(mat))
    assert rel_dev(res.discretization_bias, scheme - continuous) < 1e-9
    assert rel_dev(res.analytic_total_error, continuous) < 1e-12


def test_mc_standard_error_matches_spread_over_seeds():
    # cycle(4) grounded at node 0: three modes, slowest correlation time ~170 steps
    g, leaders = cycle(4), LeaderSet((0,))
    totals, errors = [], set()
    for seed in range(256):
        res = simulate(g, leaders, SimConfig(dt=0.01, steps=20_000, seed=seed))
        totals.append(res.empirical_total_error)
        errors.add(res.mc_standard_error)
    assert len(errors) == 1  # a property of the scheme and sample count, not of the draw
    spread = np.std(totals, ddof=1)
    # 256 draws estimate a standard deviation to within about 4.4% (one sigma)
    assert 0.8 < spread / errors.pop() < 1.2


@pytest.mark.parametrize("k", [1e-12, 1e-15, 1e-20])
def test_nondecaying_mode_has_unbounded_standard_error(k):
    # lambda_min ~ k/n sits below eigh's absolute error, so it can come out <= 0
    g, leaders = cycle(6), LeaderSet((0,), Gain(k))
    cfg = SimConfig(dt=0.01, steps=1_000, seed=0)
    _assert_matches_reference(g, leaders, cfg)
    lam_min = np.linalg.eigh(system_matrix(g, leaders)[0])[0][0]
    se = simulate(g, leaders, cfg).mc_standard_error
    assert math.isinf(se) == (lam_min <= 0.0)
    assert se > 0.0
