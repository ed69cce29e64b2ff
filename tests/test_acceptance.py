"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The graph suite shared by
the identity criteria is every connected graph on 4-6 nodes up to
isomorphism (6 + 21 + 112 representatives; enumeration documented in
leadsel.suites) plus 50 seeded random connected graphs with n <= 12.
"""

import itertools
import math

import numpy as np

from leadsel import (
    Gain,
    Graph,
    LeaderSet,
    NOISE_FREE,
    SimConfig,
    biharmonic_matrix,
    complete,
    compute_kernels,
    cycle,
    erdos_renyi,
    info_centrality,
    joint_centrality,
    joint_centrality_two_gain,
    laplacian,
    oracle_error_gain,
    oracle_error_noise_free,
    oracle_select,
    exhaustive_select,
    greedy_select,
    closed_form_cycle,
    closed_form_path_two,
    pairwise_sweep,
    path,
    resistance_matrix,
    simulate,
    tridiagonal_chain_trace,
)
from leadsel.suites import CONNECTED_CLASS_COUNTS, connected_graph_atlas, random_connected_graphs

from conftest import max_triangle_violation, rel_dev

TIE = 1e-9


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _identity_suite():
    graphs = []
    for n in (4, 5, 6):
        atlas = connected_graph_atlas(n)
        assert len(atlas) == CONNECTED_CLASS_COUNTS[n]
        graphs.extend(atlas)
    graphs.extend(random_connected_graphs(25, 4, 12, seed=2024))
    graphs.extend(random_connected_graphs(25, 4, 12, seed=2025, weighted=True))
    return graphs


def test_criterion_01_noise_free_identity():
    worst = 0.0
    checks = 0
    for g in _identity_suite():
        kernels = compute_kernels(g)
        for m in (1, 2, 3):
            for members in itertools.combinations(range(g.n), m):
                implied = joint_centrality(kernels, members).implied_total_error
                oracle = oracle_error_noise_free(g, LeaderSet(members)).total_error
                worst = max(worst, rel_dev(implied, oracle))
                checks += 1
    _report(1, worst <= 1e-8,
            f"noise-free identity on {checks} leader sets, worst rel dev {worst:.3e}")


def test_criterion_02_gain_identity():
    worst = 0.0
    checks = 0
    for g in _identity_suite():
        kernels = compute_kernels(g)
        for s1, s2 in itertools.combinations(range(g.n), 2):
            for k in (0.1, 1.0, 10.0, 100.0):
                implied = joint_centrality_two_gain(kernels, s1, s2, k).implied_total_error
                oracle = oracle_error_gain(g, LeaderSet((s1, s2), Gain(k))).total_error
                worst = max(worst, rel_dev(implied, oracle))
                checks += 1
    _report(2, worst <= 1e-8,
            f"gain identity on {checks} pair/k combinations, worst rel dev {worst:.3e}")


def test_criterion_03_single_leader_argmax():
    mismatches = 0
    checks = 0
    for g in _identity_suite():
        kernels = compute_kernels(g)
        c = info_centrality(kernels)
        central = frozenset(i for i in range(g.n) if c[i] >= c.max() * (1 - TIE))
        for mode in (NOISE_FREE, Gain(1.0), Gain(0.1)):
            if isinstance(mode, Gain):
                errs = np.array([
                    oracle_error_gain(g, LeaderSet((s,), mode)).total_error for s in range(g.n)
                ])
            else:
                errs = np.array([
                    oracle_error_noise_free(g, LeaderSet((s,))).total_error for s in range(g.n)
                ])
            best = frozenset(i for i in range(g.n) if errs[i] <= errs.min() * (1 + TIE))
            checks += 1
            if best != central:
                mismatches += 1
    _report(3, mismatches == 0,
            f"argmax info centrality = argmin single-leader error in {checks} graph/mode cases")


def test_criterion_04_antipodal_pairs_on_even_cycles():
    failures = []
    for n in range(4, 21, 2):
        expect = tuple((i, i + n // 2) for i in range(n // 2))
        for k in (0.5, 2.0):
            res = oracle_select(cycle(n), 2, Gain(k))
            if res.optimal_sets != expect:
                failures.append((n, k, res.optimal_sets))
    _report(4, not failures,
            f"antipodal pairs optimal on even cycles n=4..20, k in (0.5, 2): {failures!r}")


def test_criterion_05_uniform_cycle_placements_and_tridiagonal_trace():
    failures = []
    for n, m in ((6, 3), (8, 4), (9, 3), (12, 3), (12, 4)):
        closed = closed_form_cycle(n, m)
        exact = oracle_select(cycle(n), m)
        if rel_dev(closed.objective.total_error, exact.objective.total_error) > TIE:
            failures.append((n, m, "objective"))
        p = n // m
        rotations = {tuple(sorted((r + j * p) % n for j in range(m))) for r in range(p)}
        if not rotations <= set(exact.optimal_sets):
            failures.append((n, m, "rotations not all optimal"))
        if closed.optimal_sets[0] not in exact.optimal_sets:
            failures.append((n, m, "canonical placement not optimal"))
    worst_tri = max(
        abs(tridiagonal_chain_trace(w)
            - np.trace(np.linalg.inv(2.0 * np.eye(w) - np.eye(w, k=1) - np.eye(w, k=-1))))
        for w in range(1, 51)
    )
    ok = not failures and worst_tri <= 1e-10
    _report(5, ok,
            f"uniform placements optimal, tridiagonal trace worst abs dev {worst_tri:.3e}; "
            f"failures={failures!r}")


def test_criterion_06_path_closed_form():
    failures = []
    for n in range(5, 51):
        closed = closed_form_path_two(n)
        exact = exhaustive_select(path(n), 2)
        if rel_dev(closed.objective.total_error, exact.objective.total_error) > TIE:
            failures.append((n, "objective"))
        if closed.optimal_sets != exact.optimal_sets:
            failures.append((n, closed.optimal_sets, exact.optimal_sets))
    # the optimal pair approaches 0.2 / 0.8 of the path length
    s1, s2 = closed_form_path_two(50).optimal_sets[-1]
    asym_ok = abs((s1 + 1) - 0.2 * 50) <= 1.0 and abs((s2 + 1) - 0.8 * 50) <= 1.0
    _report(6, not failures and asym_ok,
            f"path closed form matches exhaustive for n=5..50 (ties included); "
            f"n=50 pair {(s1, s2)} within one node of 0.2n/0.8n; failures={failures!r}")


def test_criterion_07_greedy_comparison():
    greedy12 = greedy_select(cycle(12), 3)
    exact12 = exhaustive_select(cycle(12), 3)
    strictly_worse = greedy12.objective.total_error > exact12.objective.total_error * (1 + TIE)
    matches = []
    for m in (1, 2, 4):
        gr = greedy_select(cycle(8), m)
        ex = exhaustive_select(cycle(8), m)
        matches.append(rel_dev(gr.objective.total_error, ex.objective.total_error) <= TIE)
    _report(7, strictly_worse and all(matches),
            f"cycle(12) m=3 greedy {greedy12.objective.total_error:.4f} > optimal "
            f"{exact12.objective.total_error:.4f}; cycle(8) m=1,2,4 greedy optimal {matches}")


def test_criterion_08_laplacian_and_distance_identities():
    rng = np.random.default_rng(888)
    worst = {"lp1": 0.0, "lp2": 0.0, "lp3": 0.0, "rescen": 0.0, "spec_r": 0.0,
             "spec_g": 0.0, "tri_r": -math.inf, "tri_g": -math.inf}
    for i in range(50):
        n = int(rng.integers(8, 65))
        g = None
        while g is None:
            try:
                pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
                keep = rng.random(len(pairs)) < rng.uniform(0.1, 0.6)
                w = rng.uniform(0.5, 2.0, size=len(pairs))
                g = Graph(n, tuple((u, v, float(w[j])) for j, (u, v) in enumerate(pairs) if keep[j]))
            except Exception:
                g = None
        kernels = compute_kernels(g)
        lap = laplacian(g)
        tol_n = 1e-9 * n
        centering = np.eye(n) - np.ones((n, n)) / n
        worst["lp1"] = max(worst["lp1"], np.abs(lap @ kernels.lplus - centering).max() / tol_n)
        worst["lp2"] = max(worst["lp2"], np.abs(kernels.lplus @ np.ones(n)).max() / tol_n)
        worst["lp3"] = max(worst["lp3"], abs(np.trace(kernels.lplus) - kernels.kirchhoff / n) / tol_n)
        r = resistance_matrix(kernels)
        gamma = biharmonic_matrix(kernels)
        c = info_centrality(kernels)
        worst["rescen"] = max(worst["rescen"], np.abs(r.sum(axis=1) - n / c).max() / 1e-8)
        lam, vec = np.linalg.eigh(lap)
        lam, vec = lam[1:], vec[:, 1:]
        diff = vec[:, None, :] - vec[None, :, :]
        worst["spec_r"] = max(worst["spec_r"], np.abs((diff**2 / lam).sum(axis=2) - r).max() / 1e-9)
        worst["spec_g"] = max(worst["spec_g"], np.abs((diff**2 / lam**2).sum(axis=2) - gamma).max() / 1e-9)
        worst["tri_r"] = max(worst["tri_r"], max_triangle_violation(r) / 1e-10)
        worst["tri_g"] = max(worst["tri_g"], max_triangle_violation(np.sqrt(gamma)) / 1e-10)
    ok = all(v <= 1.0 for v in worst.values())
    _report(8, ok, "identities on 50 random weighted graphs n<=64, "
            + ", ".join(f"{k}={v:.2e}x tol" for k, v in worst.items()))


def test_criterion_09_simulation_validation():
    cases = [
        ("complete3 gain k=1 {0}", complete(3), LeaderSet((0,), Gain(1.0)),
         SimConfig(dt=0.01, steps=2_000_000, burn_in=100_000, seed=101)),
        ("cycle4 noise-free {0,2}", cycle(4), LeaderSet((0, 2)),
         SimConfig(dt=0.01, steps=1_500_000, seed=202)),
        ("path9 noise-free {1,7}", path(9), LeaderSet((1, 7)),
         SimConfig(dt=0.01, steps=2_500_000, seed=303)),
        ("er(8,0.5,7) gain k=2 {0,3}", erdos_renyi(8, 0.5, 7), LeaderSet((0, 3), Gain(2.0)),
         SimConfig(dt=0.01, steps=1_500_000, seed=404)),
        ("cycle6 noise-free {0}", cycle(6), LeaderSet((0,)),
         SimConfig(dt=0.005, steps=3_000_000, seed=505)),
    ]
    gaps = []
    for name, g, leaders, cfg in cases:
        res = simulate(g, leaders, cfg)
        again = simulate(g, leaders, cfg)
        assert np.array_equal(res.empirical_variance, again.empirical_variance)
        gaps.append((name, rel_dev(res.empirical_total_error, res.analytic_total_error)))
    # convergence trend on one case: coarser and finer budgets bracket it
    trend = []
    for cfg in (SimConfig(dt=0.04, steps=200_000, seed=777),
                SimConfig(dt=0.01, steps=1_500_000, seed=202),
                SimConfig(dt=0.005, steps=6_000_000, seed=778)):
        res = simulate(cycle(4), LeaderSet((0, 2)), cfg)
        trend.append(rel_dev(res.empirical_total_error, res.analytic_total_error))
    ok = all(gap < 0.05 for _, gap in gaps) and trend[0] > trend[1] > trend[2]
    _report(9, ok, "empirical vs analytic gaps: "
            + ", ".join(f"{name} {gap:.2%}" for name, gap in gaps)
            + f"; refinement trend {['%.2e' % t for t in trend]}")


def test_criterion_10_pair_sweep_on_synthetic_graphs():
    # the external-network workflow is exercised on synthetic graphs: for a
    # pair-transitive graph (complete) the rho distribution is single-valued
    degenerate = []
    for n in (4, 6, 9):
        sweep = pairwise_sweep(complete(n))
        counts, _ = sweep.histogram(16)
        degenerate.append(np.ptp(sweep.rho) < 1e-9 * sweep.rho.max()
                          and (counts > 0).sum() == 1
                          and len(sweep.pairs) == math.comb(n, 2))
    # a cycle is vertex- but not pair-transitive: distinct distances remain
    spread = pairwise_sweep(cycle(8))
    distinct = np.unique(np.round(spread.rho, 9)).size
    _report(10, all(degenerate) and distinct == 4,
            f"complete graphs give single-valued rho distributions {degenerate}; "
            f"cycle(8) has {distinct} distinct pair values (one per geodesic distance)")
