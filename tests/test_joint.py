import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadsel import (
    Gain,
    Graph,
    GraphError,
    LeaderSet,
    compute_kernels,
    cycle,
    info_centrality,
    joint_centrality,
    joint_centrality_two,
    joint_centrality_two_gain,
    n_inverse_entries,
    oracle_error_gain,
    oracle_error_noise_free,
    pairwise_sweep,
    path,
    resistance_matrix,
    single_leader_error,
)
from leadsel.suites import connected_graph_atlas

from conftest import connected_graphs, rel_dev, seeded_random_graph


def test_n_inverse_entries_structure():
    rng = np.random.default_rng(7)
    g = seeded_random_graph(rng, 9, weighted=True)
    k = compute_kernels(g)
    r = resistance_matrix(k)
    for pivot in (0, 4, 8):
        nm = n_inverse_entries(k, pivot)
        assert np.abs(np.diag(nm) - r[:, pivot]).max() < 1e-12
        assert np.abs(nm[pivot]).max() < 1e-12
        assert np.abs(nm[:, pivot]).max() < 1e-12
        # resistance form: (r[i,l1] + r[j,l1] - r[i,j]) / 2
        alt = 0.5 * (r[:, [pivot]] + r[None, pivot, :] - r)
        assert np.abs(nm - alt).max() < 1e-9


def test_cycle4_joint_centrality_values():
    k = compute_kernels(cycle(4))
    res = joint_centrality(k, (0, 2))
    assert abs(res.rho - 4.0) < 1e-9
    assert abs(res.implied_total_error - 0.5) < 1e-9
    res = joint_centrality(k, (0, 1))
    assert abs(res.rho - 3.0) < 1e-9
    assert abs(res.implied_total_error - 2.0 / 3.0) < 1e-9


def test_single_member_reduces_to_info_centrality():
    rng = np.random.default_rng(13)
    g = seeded_random_graph(rng, 10, weighted=True)
    k = compute_kernels(g)
    c = info_centrality(k)
    for s in range(g.n):
        res = joint_centrality(k, (s,))
        assert rel_dev(res.rho, c[s]) < 1e-12
        assert rel_dev(res.implied_total_error, single_leader_error(k, s)) < 1e-12


def test_single_leader_error_one_node_gain():
    # the lone node leads itself: error sigma^2 / (2k)
    k = compute_kernels(Graph(1, ()))
    assert single_leader_error(k, 0, Gain(4.0), sigma=3.0) == 9.0 / 8.0


def _compact_form_n_over_rho(k, members):
    """The paper's compact form of n / rho, built here from the kernels.

    n / rho = K_f/n + n det(G) det(L+_S) + tr(Q)/2 - 1^T Q e_p with
    Q = Gbar Gamma_S, where det(G) = 1 / det of the grounded Gram block,
    Gbar is its inverse padded with a zero pivot row and column, and
    Gamma_S holds the biharmonic distances within S (pivot first).
    """
    pivot, rest = members[0], list(members[1:])
    grounded = n_inverse_entries(k, pivot)[np.ix_(rest, rest)]
    gbar = np.zeros((len(members), len(members)))
    gbar[1:, 1:] = np.linalg.inv(grounded)
    order = list(members)
    d2 = np.diag(k.l2plus)[order]
    gamma_s = d2[:, None] + d2[None, :] - 2.0 * k.l2plus[np.ix_(order, order)]
    np.fill_diagonal(gamma_s, 0.0)
    q = gbar @ gamma_s
    det_lplus_s = np.linalg.det(k.lplus[np.ix_(order, order)])
    return (
        k.kirchhoff / k.n
        + k.n * det_lplus_s / np.linalg.det(grounded)
        + 0.5 * np.trace(q)
        - q[:, 0].sum()
    )


def test_compact_form_reconstructs_rho():
    # the compact matrix form must reproduce joint_centrality's value
    rng = np.random.default_rng(19)
    for _ in range(5):
        g = seeded_random_graph(rng, int(rng.integers(5, 12)), weighted=True)
        k = compute_kernels(g)
        for m in (2, 3, 4):
            members = tuple(sorted(rng.choice(g.n, size=m, replace=False).tolist()))
            res = joint_centrality(k, members)
            assert rel_dev(g.n / _compact_form_n_over_rho(k, members), res.rho) < 1e-9


def test_pivot_invariance():
    rng = np.random.default_rng(29)
    for _ in range(5):
        g = seeded_random_graph(rng, int(rng.integers(5, 11)), weighted=True)
        k = compute_kernels(g)
        members = tuple(sorted(rng.choice(g.n, size=3, replace=False).tolist()))
        rhos = [joint_centrality(k, members, pivot=p).rho for p in members]
        assert (max(rhos) - min(rhos)) / rhos[0] < 1e-9


def test_two_leader_specialization_agrees():
    rng = np.random.default_rng(37)
    g = seeded_random_graph(rng, 9, weighted=True)
    k = compute_kernels(g)
    specials = []
    for s1, s2 in itertools.combinations(range(g.n), 2):
        general = joint_centrality(k, (s1, s2)).rho
        special = joint_centrality_two(k, s1, s2).rho
        assert rel_dev(special, general) < 1e-9
        assert rel_dev(joint_centrality_two(k, s2, s1).rho, special) < 1e-12
        specials.append(special)
    # the sweep and the single-pair routine share one pair formula
    assert np.array_equal(pairwise_sweep(g).rho, specials)


def test_path3_end_pair_beats_adjacent_pair():
    k = compute_kernels(path(3))
    assert joint_centrality_two(k, 0, 2).rho > joint_centrality_two(k, 0, 1).rho


def test_gain_variant_matches_trace_oracle():
    g = cycle(4)
    k = compute_kernels(g)
    res = joint_centrality_two_gain(k, 0, 2, 1.0)
    oracle = oracle_error_gain(g, LeaderSet((0, 2), Gain(1.0))).total_error
    assert rel_dev(res.implied_total_error, oracle) < 1e-12
    # asymmetric pairs (unequal L+ diagonals, both orders) tell the two
    # diagonal entries of the pair formula apart
    g = seeded_random_graph(np.random.default_rng(61), 9, weighted=True)
    k = compute_kernels(g)
    for s1, s2 in ((0, 5), (5, 0), (2, 7), (8, 3)):
        assert abs(k.lplus[s1, s1] - k.lplus[s2, s2]) > 1e-2
        for gain in (0.3, 3.0):
            res = joint_centrality_two_gain(k, s1, s2, gain)
            oracle = oracle_error_gain(g, LeaderSet((s1, s2), Gain(gain))).total_error
            assert rel_dev(res.implied_total_error, oracle) < 1e-12


def test_gain_variant_large_k_limit():
    rng = np.random.default_rng(43)
    g = seeded_random_graph(rng, 8)
    k = compute_kernels(g)
    for s1, s2 in ((0, 3), (1, 6), (2, 7)):
        big = joint_centrality_two_gain(k, s1, s2, 1e8).rho
        free = joint_centrality_two(k, s1, s2).rho
        assert rel_dev(big, free) < 1e-4


def test_gain_variant_monotone_in_k():
    rng = np.random.default_rng(47)
    g = seeded_random_graph(rng, 9)
    k = compute_kernels(g)
    for s1, s2 in ((0, 1), (2, 5), (3, 8)):
        rhos = [joint_centrality_two_gain(k, s1, s2, kk).rho for kk in (0.1, 1.0, 10.0, 100.0)]
        assert all(a < b for a, b in zip(rhos, rhos[1:]))


def test_implied_error_matches_oracle_on_atlas():
    # every connected graph on 4 and 5 nodes, every leader set with m <= 3
    for n in (4, 5):
        for g in connected_graph_atlas(n):
            k = compute_kernels(g)
            for m in (1, 2, 3):
                for members in itertools.combinations(range(n), m):
                    implied = joint_centrality(k, members).implied_total_error
                    oracle = oracle_error_noise_free(g, LeaderSet(members)).total_error
                    assert rel_dev(implied, oracle) < 1e-8


@settings(max_examples=30, deadline=None)
@given(connected_graphs(n_max=9), st.data())
def test_implied_error_matches_oracle_random(g, data):
    if g.n < 3:
        return
    k = compute_kernels(g)
    m = data.draw(st.integers(1, min(3, g.n - 1)))
    members = tuple(data.draw(st.permutations(range(g.n)))[:m])
    implied = joint_centrality(k, members).implied_total_error
    oracle = oracle_error_noise_free(g, LeaderSet(members)).total_error
    assert rel_dev(implied, oracle) < 1e-8


@pytest.mark.parametrize("spread", [1e3, 1e6, 1e9])
def test_implied_error_matches_oracle_under_weight_spread(spread):
    # conditioning ladder: log-uniform weights over [1, spread] on G(14, 0.4)
    rng = np.random.default_rng(101)
    base = seeded_random_graph(rng, 14, p=0.4)
    weights = spread ** rng.uniform(0.0, 1.0, size=base.edge_count)
    g = Graph(14, tuple((u, v, float(w)) for (u, v, _), w in zip(base.edges, weights)))
    k = compute_kernels(g)
    for m in (1, 2, 3):
        for members in itertools.combinations(range(g.n), m):
            closed = joint_centrality(k, members).implied_total_error
            exact = oracle_error_noise_free(g, LeaderSet(members)).total_error
            assert rel_dev(closed, exact) < 1e-8, (members, closed, exact)


def test_sigma_only_scales_error():
    k = compute_kernels(cycle(6))
    r1 = joint_centrality(k, (0, 2), sigma=1.0)
    r3 = joint_centrality(k, (0, 2), sigma=3.0)
    assert r1.rho == r3.rho
    assert rel_dev(r3.implied_total_error, 9.0 * r1.implied_total_error) < 1e-12


def _argmax_pairs(k, n):
    rhos = {
        (s1, s2): joint_centrality_two(k, s1, s2).rho
        for s1, s2 in itertools.combinations(range(n), 2)
    }
    top = max(rhos.values())
    return sorted(p for p, r in rhos.items() if r >= top * (1 - 1e-9))


def test_weight_scaling_argmax_report_only():
    # edge-weight scaling rescales every error by 1/c, so the optimal pair
    # should be unchanged; observed mismatches are reported, never failed
    rng = np.random.default_rng(53)
    mismatches = []
    for _ in range(4):
        g = seeded_random_graph(rng, 8, weighted=True)
        scaled = Graph(g.n, tuple((u, v, 3.7 * w) for u, v, w in g.edges))
        f1 = _argmax_pairs(compute_kernels(g), g.n)
        f2 = _argmax_pairs(compute_kernels(scaled), g.n)
        if f1 != f2:
            mismatches.append((g.edges, f1, f2))
    if mismatches:
        print(f"weight-scaling argmax mismatch observed: {mismatches!r}")


def test_conditioning_warning_on_nearly_fused_leaders():
    # an enormous edge weight makes two leaders electrically identical, so
    # the grounded Gram matrix is nearly singular and the result says so
    g = Graph(5, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1e14), (3, 4, 1.0), (0, 4, 1.0)))
    res = joint_centrality(compute_kernels(g), (0, 2, 3))
    assert any("natural scale" in w for w in res.warnings)
    ok = joint_centrality(compute_kernels(cycle(5)), (0, 2))
    assert ok.warnings == ()


def test_invalid_inputs_rejected():
    k = compute_kernels(cycle(5))
    with pytest.raises(GraphError):
        joint_centrality(k, (0, 0))
    with pytest.raises(GraphError):
        joint_centrality(k, (0, 1, 2, 3, 4))  # m = n
    with pytest.raises(GraphError):
        joint_centrality(k, (0, 2), pivot=3)
    with pytest.raises(GraphError):
        joint_centrality_two(k, 2, 2)
    with pytest.raises(GraphError):
        joint_centrality_two_gain(k, 0, 1, -1.0)
    with pytest.raises(GraphError):
        single_leader_error(k, 7)
