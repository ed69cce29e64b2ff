import numpy as np
import pytest
from hypothesis import given, settings

from leadsel import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    EdgeFormatError,
    Gain,
    Graph,
    GraphError,
    LeaderSet,
    NOISE_FREE,
    NonpositiveWeightError,
    SelfLoopError,
    adjacency,
    complete,
    cycle,
    erdos_renyi,
    laplacian,
    parse_edge_list,
    path,
    serialize_edge_list,
)

from conftest import connected_graphs, seeded_random_graph


def test_parse_smallest_path():
    g = parse_edge_list("0 1\n1 2")
    assert g.n == 3
    assert g.edges == ((0, 1, 1.0), (1, 2, 1.0))


def test_parse_duplicate_edge_either_orientation():
    with pytest.raises(DuplicateEdgeError, match="line 2"):
        parse_edge_list("0 1 2.5\n1 0 2.5")


def test_parse_disconnected():
    with pytest.raises(DisconnectedGraphError):
        parse_edge_list("0 1\n2 3")


def test_parse_malformed_line_names_line():
    with pytest.raises(EdgeFormatError, match="line 2"):
        parse_edge_list("0 1\n0 one")
    with pytest.raises(EdgeFormatError, match="line 1"):
        parse_edge_list("0 1 2 3")


def test_parse_self_loop():
    with pytest.raises(SelfLoopError, match="line 1"):
        parse_edge_list("3 3")


def test_parse_nonpositive_weight():
    with pytest.raises(NonpositiveWeightError, match="line 2"):
        parse_edge_list("0 1\n1 2 -0.5")
    with pytest.raises(NonpositiveWeightError):
        parse_edge_list("0 1 0")


def test_parse_comments_and_header():
    g = parse_edge_list("# a triangle\nn=3\n0 1  # one\n1 2\n0 2\n")
    assert g.n == 3 and g.edge_count == 3


def test_parse_header_too_small():
    with pytest.raises(EdgeFormatError, match="exceeds declared"):
        parse_edge_list("n=2\n0 1\n1 2")


def test_parse_header_extra_isolated_node_is_disconnected():
    with pytest.raises(DisconnectedGraphError):
        parse_edge_list("n=4\n0 1\n1 2")


def test_laplacian_path3():
    expect = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.array_equal(laplacian(path(3)), expect)


def test_laplacian_cycle3():
    expect = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
    assert np.array_equal(laplacian(cycle(3)), expect)


def test_laplacian_weighted_edge():
    g = Graph(2, ((0, 1, 2.0),))
    assert np.array_equal(laplacian(g), np.array([[2.0, -2.0], [-2.0, 2.0]]))


def test_laplacian_row_sums_exactly_zero_and_bit_symmetric():
    # dyadic weights keep the degree sums exact in floating point
    g = Graph(4, ((0, 1, 2.5), (1, 2, 0.25), (2, 3, 1.0), (0, 3, 4.0), (0, 2, 8.0)))
    lap = laplacian(g)
    assert np.all(lap @ np.ones(4) == 0.0)
    assert np.array_equal(lap, lap.T)


@pytest.mark.parametrize("g", [
    seeded_random_graph(np.random.default_rng(30), 300, p=0.03, weighted=True), path(5),
], ids=["weighted-G(300,0.03)", "path5"])
def test_laplacian_is_degrees_minus_adjacency_bit_for_bit(g):
    # tobytes tells -0.0 from 0.0, which np.negative would leave off the diagonal
    a = adjacency(g)
    assert laplacian(g).tobytes() == (np.diag(a.sum(axis=1)) - a).tobytes()


def test_graph_rejects_bad_inputs():
    with pytest.raises(SelfLoopError):
        Graph(3, ((0, 0), (0, 1), (1, 2)))
    with pytest.raises(DuplicateEdgeError):
        Graph(3, ((0, 1), (1, 0), (1, 2)))
    with pytest.raises(NonpositiveWeightError):
        Graph(2, ((0, 1, 0.0),))
    with pytest.raises(DisconnectedGraphError):
        Graph(4, ((0, 1), (2, 3)))
    with pytest.raises(GraphError):
        Graph(2, ((0, 5),))


def test_generator_shapes():
    g = cycle(4)
    assert g.n == 4 and g.edge_count == 4
    deg = np.diag(laplacian(g))
    assert np.all(deg == 2.0)
    assert path(2).edge_count == 1
    assert complete(5).edge_count == 10
    with pytest.raises(GraphError):
        path(1)
    with pytest.raises(GraphError):
        cycle(2)
    with pytest.raises(GraphError):
        complete(1)


def test_erdos_renyi_deterministic():
    g1 = erdos_renyi(8, 0.5, seed=7)
    g2 = erdos_renyi(8, 0.5, seed=7)
    assert g1.edges == g2.edges
    with pytest.raises(GraphError):
        erdos_renyi(8, 1.5, seed=0)
    with pytest.raises(GraphError):
        erdos_renyi(1, 0.5, seed=0)


def test_serialize_round_trip_basic():
    g = Graph(3, ((0, 2, 0.1), (0, 1, 2.5)))
    assert parse_edge_list(serialize_edge_list(g)) == g


@settings(max_examples=60, deadline=None)
@given(connected_graphs(n_max=12))
def test_serialize_round_trip_random(g):
    assert parse_edge_list(serialize_edge_list(g)) == g


def test_leader_set_validation():
    ls = LeaderSet((2, 0), NOISE_FREE)
    assert ls.m == 2
    with pytest.raises(GraphError):
        LeaderSet((0, 0))
    with pytest.raises(GraphError):
        LeaderSet(())
    with pytest.raises(GraphError):
        Gain(0.0)
    with pytest.raises(GraphError):
        Gain(float("inf"))
    with pytest.raises(GraphError):
        LeaderSet((0, 5)).check_against(4)
    with pytest.raises(GraphError):
        LeaderSet((0, 1, 2)).check_against(3)  # no follower left (noise-free)
    LeaderSet((0, 1, 2), Gain(1.0)).check_against(3)  # gain mode allows m = n
