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
    simulate,
)

from conftest import rel_dev, seeded_random_graph


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
