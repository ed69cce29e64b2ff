import numpy as np
import pytest

from leadsel import (
    BudgetError,
    ClosedFormError,
    Gain,
    GraphError,
    LeaderSet,
    NOISE_FREE,
    closed_form_cycle,
    closed_form_cycle_two,
    closed_form_path_two,
    complete,
    compute_kernels,
    cycle,
    exhaustive_select,
    greedy_select,
    info_centrality,
    oracle_error_gain,
    oracle_error_noise_free,
    oracle_select,
    pairwise_sweep,
    path,
    tridiagonal_chain_trace,
)
from conftest import rel_dev, seeded_random_graph


def test_exhaustive_cycle4_pairs():
    res = exhaustive_select(cycle(4), 2)
    assert res.optimal_sets == ((0, 2), (1, 3))
    assert abs(res.objective.total_error - 0.5) < 1e-12
    assert abs(res.objective.rho - 4.0) < 1e-9
    assert res.evaluated_count == 6 and res.m == 2


def test_exhaustive_path3_single():
    res = exhaustive_select(path(3), 1)
    assert res.optimal_sets == ((1,),)


def test_exhaustive_cycle6_triples():
    res = exhaustive_select(cycle(6), 3)
    assert res.optimal_sets == ((0, 2, 4), (1, 3, 5))


def test_exhaustive_matches_oracle_route():
    rng = np.random.default_rng(61)
    for _ in range(4):
        g = seeded_random_graph(rng, int(rng.integers(5, 10)), weighted=True)
        for m in (1, 2, 3):
            fast = exhaustive_select(g, m)
            slow = oracle_select(g, m)
            assert fast.optimal_sets == slow.optimal_sets
            assert rel_dev(fast.objective.total_error, slow.objective.total_error) < 1e-9


def test_exhaustive_gain_modes_match_oracle():
    rng = np.random.default_rng(67)
    g = seeded_random_graph(rng, 8, weighted=True)
    for m in (1, 2, 3):
        for k in (0.5, 2.0):
            fast = exhaustive_select(g, m, Gain(k))
            slow = oracle_select(g, m, Gain(k))
            assert fast.optimal_sets == slow.optimal_sets
            assert rel_dev(fast.objective.total_error, slow.objective.total_error) < 1e-9


def test_exhaustive_budget_error():
    with pytest.raises(BudgetError, match="greedy"):
        exhaustive_select(complete(14), 5, budget=100)


def test_exhaustive_merges_ties_across_chunks():
    # C(33, 3) = 5456 sets span two chunks of the enumeration
    res = exhaustive_select(cycle(33), 3)
    assert res.optimal_sets == tuple((i, i + 11, i + 22) for i in range(11))
    assert res.evaluated_count == 5456


def test_exhaustive_pairs_enumerate_every_antipodal_tie():
    for n in range(4, 21, 2):
        for mode in (NOISE_FREE, Gain(0.5), Gain(2.0)):
            exact = exhaustive_select(cycle(n), 2, mode)
            closed = closed_form_cycle_two(n, mode)
            assert exact.optimal_sets == closed.optimal_sets
            assert rel_dev(exact.objective.total_error, closed.objective.total_error) < 1e-9


def test_greedy_first_pick_is_most_central():
    rng = np.random.default_rng(71)
    for _ in range(4):
        g = seeded_random_graph(rng, int(rng.integers(5, 12)), weighted=True)
        res = greedy_select(g, 1)
        c = info_centrality(compute_kernels(g))
        best = c.max()
        family = tuple(i for i in range(g.n) if c[i] >= best * (1 - 1e-9))
        assert res.optimal_sets[0][0] == family[0]  # lowest-id tie break


def test_greedy_suboptimal_on_cycle12_m3():
    greedy = greedy_select(cycle(12), 3)
    exact = exhaustive_select(cycle(12), 3)
    assert greedy.objective.total_error > exact.objective.total_error * (1 + 1e-9)
    # greedy locks the antipodal pair first, optimal is uniform spacing 4
    assert greedy.optimal_sets == ((0, 3, 6),)
    assert exact.optimal_sets[0] == (0, 4, 8)


@pytest.mark.parametrize("m", [1, 2, 4])
def test_greedy_matches_exhaustive_on_cycle8_powers_of_two(m):
    greedy = greedy_select(cycle(8), m)
    exact = exhaustive_select(cycle(8), m)
    assert rel_dev(greedy.objective.total_error, exact.objective.total_error) < 1e-9
    assert greedy.optimal_sets[0] in exact.optimal_sets


def _oracle_total_error(g, members, mode):
    leaders = LeaderSet(members, mode)
    if mode is NOISE_FREE:
        return oracle_error_noise_free(g, leaders).total_error
    return oracle_error_gain(g, leaders).total_error


def _greedy_reference(g, m, mode):
    """Oracle-driven greedy: each step takes the dense oracle's argmin over the
    remaining nodes, lowest id within 1e-9."""
    chosen, evaluated = [], 0
    for _ in range(m):
        scores = [(_oracle_total_error(g, tuple(chosen + [v]), mode), v)
                  for v in range(g.n) if v not in chosen]
        evaluated += len(scores)
        best = min(e for e, _ in scores)
        chosen.append(min(v for e, v in scores if e <= best * (1.0 + 1e-9)))
    return tuple(sorted(chosen)), evaluated


def _greedy_reference_graphs():
    rng = np.random.default_rng(83)
    sizes = np.linspace(6, 60, 16).round().astype(int)
    for weighted in (False, True):
        for n in sizes:
            yield seeded_random_graph(rng, int(n), p=min(1.0, 6.0 / n), weighted=weighted)
    for n in (6, 8, 12, 17):
        yield cycle(n)
    for n in (6, 9, 20, 31):
        yield path(n)


def test_greedy_matches_oracle_driven_reference():
    cases = 0
    for g in _greedy_reference_graphs():
        for mode in (NOISE_FREE, Gain(0.3), Gain(20.0)):
            for m in (1, 2, 3, 5):
                res = greedy_select(g, m, mode)
                members, evaluated = _greedy_reference(g, m, mode)
                assert res.optimal_sets == (members,), (g.n, mode, m)
                assert res.evaluated_count == evaluated
                oracle = _oracle_total_error(g, members, mode)
                assert rel_dev(res.objective.total_error, oracle) < 1e-10
                cases += 1
    assert cases == 480


def test_closed_form_cycle_uniform():
    res = closed_form_cycle(6, 3)
    assert res.optimal_sets == ((0, 2, 4),)
    exact = exhaustive_select(cycle(6), 3)
    assert rel_dev(res.objective.total_error, exact.objective.total_error) < 1e-12
    assert res.notes
    res = closed_form_cycle(6, 2)
    assert res.optimal_sets == ((0, 3),)
    with pytest.raises(ClosedFormError):
        closed_form_cycle(6, 4)


def test_closed_form_cycle_two_antipodal():
    res = closed_form_cycle_two(6)
    assert res.optimal_sets == ((0, 3), (1, 4), (2, 5))
    exact = exhaustive_select(cycle(6), 2)
    assert res.optimal_sets == exact.optimal_sets
    gain = closed_form_cycle_two(6, Gain(2.0))
    oracle = oracle_select(cycle(6), 2, Gain(2.0))
    assert gain.optimal_sets == oracle.optimal_sets
    assert rel_dev(gain.objective.total_error, oracle.objective.total_error) < 1e-12
    with pytest.raises(ClosedFormError):
        closed_form_cycle_two(5)


def test_closed_form_path_formula_coordinates():
    # 1-indexed formula values rnd(2.3) = 2, rnd(7.7) = 8 -> 0-indexed (1, 7)
    res = closed_form_path_two(9)
    assert res.optimal_sets == ((1, 7),)
    # n = 50: rnd(10.5) = 11, rnd(40.5) = 41, plus the mirror rounding
    res = closed_form_path_two(50)
    assert res.optimal_sets == ((9, 39), (10, 40))
    assert res.notes


@pytest.mark.parametrize("n", list(range(5, 21)))
def test_closed_form_path_matches_exhaustive(n):
    closed = closed_form_path_two(n)
    exact = exhaustive_select(path(n), 2)
    assert closed.optimal_sets == exact.optimal_sets
    assert rel_dev(closed.objective.total_error, exact.objective.total_error) < 1e-9


def test_pairwise_sweep_cycle4():
    sweep = pairwise_sweep(cycle(4))
    assert len(sweep.pairs) == 6
    assert sweep.argmax_pairs() == [(0, 2), (1, 3)]
    mat = sweep.matrix()
    assert abs(mat[0, 2] - 4.0) < 1e-9
    assert np.isnan(mat[2, 0])  # only the upper triangle is stored


def test_pairwise_sweep_complete_is_single_valued():
    sweep = pairwise_sweep(complete(4))
    assert np.ptp(sweep.rho) < 1e-12
    counts, _ = sweep.histogram(10)
    assert (counts > 0).sum() == 1
    assert counts.sum() == 6


@pytest.mark.parametrize("bins", [10, 16])
@pytest.mark.parametrize("n", [12, 30])
def test_degenerate_histogram_has_one_bin(n, bins):
    # an even bin count must not put the single value on a bin edge
    sweep = pairwise_sweep(complete(n))
    counts, edges = sweep.histogram(bins)
    occupied = np.flatnonzero(counts)
    assert occupied.size == 1
    i = occupied[0]
    assert np.all((edges[i] <= sweep.rho) & (sweep.rho <= edges[i + 1]))


def test_pairwise_sweep_row_count_and_restriction():
    g = cycle(7)
    assert len(pairwise_sweep(g).pairs) == 21
    sweep = pairwise_sweep(cycle(4), pairs=[(0, 2)])
    assert sweep.pairs == ((0, 2),)
    assert abs(sweep.rho[0] - 4.0) < 1e-9
    with pytest.raises(BudgetError):
        pairwise_sweep(cycle(30), budget=10)
    with pytest.raises(GraphError):
        pairwise_sweep(cycle(4), pairs=[(1, 1)])


def test_tridiagonal_chain_trace_against_dense_inverse():
    for w in range(1, 51):
        block = 2.0 * np.eye(w) - np.eye(w, k=1) - np.eye(w, k=-1)
        dense = float(np.trace(np.linalg.inv(block)))
        assert abs(dense - tridiagonal_chain_trace(w)) < 1e-10
    with pytest.raises(ValueError):
        tridiagonal_chain_trace(0)


def test_cycle_resistance_gap_identity():
    # sum_i (r[i,s1] - r[i,s2])^2 = d(d-n)(d^2 - nd - 2) / (3n), d = geodesic
    from leadsel import resistance_matrix

    for n in range(4, 41, 4):
        r = resistance_matrix(compute_kernels(cycle(n)))
        for s2 in range(1, n):
            d = min(s2, n - s2)
            lhs = float(np.sum((r[:, 0] - r[:, s2]) ** 2))
            rhs = d * (d - n) * (d * d - n * d - 2) / (3.0 * n)
            assert abs(lhs - rhs) < 1e-8


def test_antipodal_optimal_for_gain_on_even_cycles():
    for n in (4, 6, 8):
        for k in (0.1, 1.0, 10.0):
            res = oracle_select(cycle(n), 2, Gain(k))
            expect = tuple((i, i + n // 2) for i in range(n // 2))
            assert res.optimal_sets == expect


def test_single_leader_argmax_centrality_larger_graphs():
    # the best single leader is the most information-central node, both modes
    rng = np.random.default_rng(97)
    for n in (24, 32):
        g = seeded_random_graph(rng, n, p=0.2, weighted=True)
        c = info_centrality(compute_kernels(g))
        central = frozenset(i for i in range(n) if c[i] >= c.max() * (1 - 1e-9))
        for mode in (NOISE_FREE, Gain(0.7)):
            res = oracle_select(g, 1, mode)
            assert frozenset(s[0] for s in res.optimal_sets) == central


def test_selection_rejects_bad_m():
    with pytest.raises(GraphError):
        exhaustive_select(cycle(4), 0)
    with pytest.raises(GraphError):
        exhaustive_select(cycle(4), 4)
    with pytest.raises(GraphError):
        greedy_select(cycle(4), 5)
