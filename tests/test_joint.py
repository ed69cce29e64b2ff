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
    NOISE_FREE,
    compute_kernels,
    cycle,
    exhaustive_select,
    greedy_select,
    info_centrality,
    joint_centrality,
    joint_centrality_two_gain,
    oracle_error_gain,
    oracle_error_noise_free,
    pairwise_sweep,
    path,
    resistance_matrix,
    single_leader_error,
)
from leadsel import selection as selection_module
from leadsel.joint import _expansion, _grounded_gram, _n_over_rho, _pair_kernel
from leadsel.kernels import GraphKernels
from leadsel.suites import connected_graph_atlas

from conftest import (
    connected_graphs,
    exact_error,
    heavy_edge_cycle,
    rel_dev,
    seeded_random_graph,
    weight_spread_graph,
)


def _rotated(members, pivot):
    """The members with pivot first, the others in their order."""
    return (pivot, *(v for v in members if v != pivot))


def test_grounded_gram_structure():
    rng = np.random.default_rng(7)
    g = seeded_random_graph(rng, 9, weighted=True)
    k = compute_kernels(g)
    r = resistance_matrix(k)
    for pivot in (0, 4, 8):
        nm = _grounded_gram(k.lplus, pivot, np.arange(g.n))
        rows = [v for v in (7, 2, 5, 0) if v != pivot]
        block = _grounded_gram(k.lplus, pivot, rows)
        assert np.array_equal(block, nm[np.ix_(rows, rows)])
        # C order: greedy's column sums round by the layout
        assert nm.flags.c_contiguous and block.flags.c_contiguous
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
        oracle = oracle_error_noise_free(g, LeaderSet((s,))).total_error
        assert rel_dev(res.implied_total_error, oracle) < 1e-12


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
    lp = k.lplus
    grounded = (lp - lp[:, [pivot]] - lp[[pivot], :] + lp[pivot, pivot])[np.ix_(rest, rest)]
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
        rhos = [joint_centrality(k, _rotated(members, p)).rho for p in members]
        assert (max(rhos) - min(rhos)) / rhos[0] < 1e-9


def test_two_leader_specialization_agrees():
    rng = np.random.default_rng(37)
    g = seeded_random_graph(rng, 9, weighted=True)
    k = compute_kernels(g)
    specials = []
    for s1, s2 in itertools.combinations(range(g.n), 2):
        # the paper's compact form, a route independent of the pair formula
        compact = g.n / _compact_form_n_over_rho(k, (s1, s2))
        special = pairwise_sweep(g, [(s1, s2)], kernels=k).rho[0]
        assert rel_dev(special, compact) < 1e-9
        assert rel_dev(pairwise_sweep(g, [(s2, s1)], kernels=k).rho[0], special) < 1e-12
        specials.append(special)
    # the full sweep and a one-pair list share one pair formula
    assert np.array_equal(pairwise_sweep(g).rho, specials)


def _pair_kernel_by_fancy_index(kernels, ii, jj, u):
    """The pair formula of _pair_kernel, read by 2-d fancy indexing and d[ii]."""
    ii, jj = np.asarray(ii, dtype=np.intp), np.asarray(jj, dtype=np.intp)
    lp, l2p = kernels.lplus, kernels.l2plus
    d, d2 = lp.diagonal(), l2p.diagonal()
    with np.errstate(over="ignore", invalid="ignore"):
        r = d[ii] + d[jj] - 2.0 * lp[ii, jj]
        gamma = d2[ii] + d2[jj] - 2.0 * l2p[ii, jj]
        minor = d[ii] * d[jj] - lp[ii, jj] ** 2
        return kernels.kirchhoff / kernels.n + (
            kernels.n * (u * (u + d[ii] + d[jj]) + minor) - gamma
        ) / (r + 2.0 * u)


@pytest.mark.parametrize("u", [0.0, 1 / 0.7, 1e3])
@pytest.mark.parametrize("n", [3, 7, 300])
def test_pair_kernel_flat_gathers_are_bit_identical(n, u):
    g = seeded_random_graph(np.random.default_rng(n), n, p=min(1.0, 6.0 / n), weighted=True)
    k = compute_kernels(g)
    ii, jj = np.triu_indices(n, 1)
    want = _pair_kernel_by_fancy_index(k, ii, jj, u)
    got, fused = _pair_kernel(k, ii, jj, u)
    assert got.tobytes() == want.tobytes() and not fused.any()
    if u == 0.0:
        # the full sweep: int32 pairs, _PAIR_CHUNK at a time (two chunks at n = 300)
        assert n < 300 or selection_module._PAIR_CHUNK < len(ii) < 2 * selection_module._PAIR_CHUNK
        assert pairwise_sweep(g, kernels=k).rho.tobytes() == (n / want).tobytes()
    # a given np.intp pair list, shuffled and with the members swapped
    order = np.random.default_rng(1).permutation(len(ii))
    got = _pair_kernel(k, jj[order], ii[order], u)[0]
    assert got.tobytes() == _pair_kernel_by_fancy_index(k, jj[order], ii[order], u).tobytes()
    # a stack of one pair, as joint_centrality passes it
    assert _pair_kernel(k, ii[-1:], jj[-1:], u)[0].tobytes() == \
        _pair_kernel_by_fancy_index(k, ii[-1:], jj[-1:], u).tobytes()
    # take reads in logical C order, so Fortran-ordered kernels give the same bits
    fortran = GraphKernels(n, np.asfortranarray(k.lplus), np.asfortranarray(k.l2plus), k.kirchhoff)
    assert not fortran.lplus.flags.c_contiguous and not fortran.l2plus.flags.c_contiguous
    assert _pair_kernel(fortran, ii, jj, u)[0].tobytes() == want.tobytes()


def test_path3_end_pair_beats_adjacent_pair():
    end, adjacent = pairwise_sweep(path(3), [(0, 2), (0, 1)]).rho
    assert end > adjacent


def test_gain_pair_may_cover_the_graph():
    # finite-gain leaders need no follower: both nodes of one edge lead with
    # error (1/2) tr((L + I)^-1) = (1/2)(1 + 1/3) = 2/3
    g = Graph(2, ((0, 1),))
    k = compute_kernels(g)
    total = joint_centrality_two_gain(k, 0, 1, 1.0).implied_total_error
    assert rel_dev(total, 2.0 / 3.0) < 1e-15
    assert rel_dev(total, joint_centrality(k, (0, 1), mode=Gain(1.0)).implied_total_error) < 1e-15
    assert rel_dev(total, oracle_error_gain(g, LeaderSet((0, 1), Gain(1.0))).total_error) < 1e-15
    with pytest.raises(GraphError):
        joint_centrality_two_gain(k, 0, 2, 1.0)


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
        free = pairwise_sweep(g, [(s1, s2)], kernels=k).rho[0]
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
    g = weight_spread_graph(spread)
    k = compute_kernels(g)
    for m in (1, 2, 3):
        for members in itertools.combinations(range(g.n), m):
            closed = joint_centrality(k, members).implied_total_error
            exact = oracle_error_noise_free(g, LeaderSet(members)).total_error
            assert rel_dev(closed, exact) < 1e-8, (members, closed, exact)


def test_gain_joint_centrality_matches_exact_rationals_under_weight_spread():
    # the dense oracle is only good to about 1e-7 here; the formula is exact to rounding
    g = weight_spread_graph(1e9)
    kernels = compute_kernels(g)
    rng = np.random.default_rng(103)
    for _ in range(4):
        members = tuple(rng.choice(g.n, 3, replace=False).tolist())
        for gain in (0.3, 3.0):
            closed = joint_centrality(kernels, members, mode=Gain(gain)).implied_total_error
            exact = exact_error(g, members, Gain(gain))
            assert rel_dev(closed, exact) < 1e-12, (members, gain, closed, exact)


def test_gain_joint_centrality_matches_oracle_with_every_pivot():
    # asymmetric sets: unequal L+ diagonals, so a misplaced u term would show
    g = seeded_random_graph(np.random.default_rng(61), 9, weighted=True)
    k = compute_kernels(g)
    for members in ((0, 5, 2), (7, 3, 8), (1, 6, 4, 0), (8, 2, 5, 3)):
        assert np.ptp(k.lplus.diagonal()[list(members)]) > 1e-2
        for gain in (0.3, 3.0):
            oracle = oracle_error_gain(g, LeaderSet(members, Gain(gain))).total_error
            for pivot in members:
                res = joint_centrality(k, _rotated(members, pivot), mode=Gain(gain))
                assert rel_dev(res.implied_total_error, oracle) < 1e-12, (members, pivot, gain)
    # one and two leaders: the single-leader and pair formulas, and the
    # expansion at |R| = 1 as a second route for the pair
    for gain in (0.3, 3.0):
        for s in (0, 5):
            res = joint_centrality(k, (s,), mode=Gain(gain))
            oracle = oracle_error_gain(g, LeaderSet((s,), Gain(gain))).total_error
            assert rel_dev(res.implied_total_error, oracle) < 1e-12
        for s1, s2 in ((0, 5), (8, 3)):
            res = joint_centrality(k, (s1, s2), mode=Gain(gain))
            oracle = oracle_error_gain(g, LeaderSet((s1, s2), Gain(gain))).total_error
            assert rel_dev(res.implied_total_error, oracle) < 1e-12
            expansion = 0.5 * _expansion(k, (s1, s2), 1.0 / gain)[0]
            assert rel_dev(res.implied_total_error, expansion) < 1e-12


def test_gain_set_may_cover_every_node():
    g = seeded_random_graph(np.random.default_rng(59), 8, weighted=True)
    k = compute_kernels(g)
    everyone = tuple(range(g.n))
    for gain in (0.3, 3.0):
        res = joint_centrality(k, everyone, mode=Gain(gain))
        oracle = oracle_error_gain(g, LeaderSet(everyone, Gain(gain))).total_error
        assert rel_dev(res.implied_total_error, oracle) < 1e-12
    with pytest.raises(GraphError):
        joint_centrality(k, everyone)  # noise-free leaders need a follower


def test_sigma_only_scales_error():
    k = compute_kernels(cycle(6))
    r1 = joint_centrality(k, (0, 2), sigma=1.0)
    r3 = joint_centrality(k, (0, 2), sigma=3.0)
    assert r1.rho == r3.rho
    assert rel_dev(r3.implied_total_error, 9.0 * r1.implied_total_error) < 1e-12


def _argmax_pairs(g):
    sweep = pairwise_sweep(g)
    rhos = dict(zip(sweep.pairs, sweep.rho.tolist()))
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
        f1 = _argmax_pairs(g)
        f2 = _argmax_pairs(scaled)
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


@pytest.mark.parametrize("edge, weight", [
    pytest.param(edge, weight, id=f"{edge[0]}-{edge[1]}-{weight:.0e}")
    for edge, weights in (((0, 1), (1e10, 1e12, 1e13, 1e14)), ((2, 3), (1e10, 1e12, 1e13, 1e14)),
                          # at 1e12 on this edge the kernels themselves are 5e-5 off for single leaders
                          ((1, 2), (1e13, 1e14)))
    for weight in weights
])
def test_fused_pairs_match_exact_rationals(edge, weight):
    # the pair formula cancels on the two leaders of the heavy edge; the
    # grounded expansion rescores that pair, so every route stays exact
    g = heavy_edge_cycle(edge, weight)
    k = compute_kernels(g)
    exact = {pair: exact_error(g, pair) for pair in itertools.combinations(range(5), 2)}
    sweep = pairwise_sweep(g, kernels=k)
    for pair, rho in zip(sweep.pairs, sweep.rho.tolist()):
        assert rel_dev(rho, 5 / (2 * exact[pair])) < 1e-10, (pair, rho)
        assert rel_dev(joint_centrality(k, pair).implied_total_error, exact[pair]) < 1e-10, pair
    assert rel_dev(exhaustive_select(g, 2, kernels=k).objective.total_error, min(exact.values())) < 1e-10


@pytest.mark.parametrize("weighted", [False, True])
def test_every_route_to_a_set_gives_the_same_bits(weighted):
    # one size dispatch in joint: a set's error has the same bits whichever
    # public function asks for it
    g = seeded_random_graph(np.random.default_rng(83), 20, p=0.3, weighted=weighted)
    k = compute_kernels(g)
    for mode in (NOISE_FREE, Gain(0.7)):
        for m in (1, 2, 3, 4):
            sets = list(itertools.islice(itertools.combinations(range(20), m), 0, None, 7 ** (m - 1)))
            stacked = _n_over_rho(k, np.array(sets).T, mode)[0].tolist()
            for members, n_over_rho in zip(sets, stacked):
                res = joint_centrality(k, members, mode=mode)
                assert (res.rho, res.implied_total_error) == (20 / n_over_rho, 0.5 * n_over_rho), members
                if m == 1:
                    assert single_leader_error(k, members[0], mode) == res.implied_total_error
                if m == 2 and mode != NOISE_FREE:
                    assert joint_centrality_two_gain(k, *members, mode.k) == res
        greedy, exhaustive = greedy_select(g, 1, mode), exhaustive_select(g, 1, mode, kernels=k)
        assert (greedy.optimal_sets, greedy.objective) == (exhaustive.optimal_sets, exhaustive.objective)


def test_invalid_inputs_rejected():
    k = compute_kernels(cycle(5))
    with pytest.raises(GraphError):
        joint_centrality(k, (0, 0))
    with pytest.raises(GraphError):
        joint_centrality(k, (0, 1, 2, 3, 4))  # m = n
    with pytest.raises(TypeError):
        joint_centrality(k, (0, 2), 0)  # sigma is keyword-only, so a positional pivot is no sigma
    with pytest.raises(GraphError):
        pairwise_sweep(cycle(5), [(2, 2)], kernels=k)
    with pytest.raises(GraphError):
        joint_centrality_two_gain(k, 0, 1, -1.0)
    with pytest.raises(GraphError):
        single_leader_error(k, 7)
