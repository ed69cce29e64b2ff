import tracemalloc

import pytest

from leadsel import NumericalDegeneracyError, cycle, erdos_renyi, verify_graph, verify_random_suite
from leadsel.graphs import GraphError
from leadsel.suites import connected_graph_atlas, random_connected_graphs
from leadsel.verify import _merge

from conftest import heavy_edge_cycle, verify_graph_reference

HEAVY = 1e10


def _same(report, reference):
    # repr spells every float exactly, so equal reprs mean equal bits, in order
    assert repr(report) == repr(reference)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_verify_matches_per_set_reference_on_atlas(n):
    for idx, g in enumerate(connected_graph_atlas(n)):
        label = f"atlas-n{n}-{idx}"
        _same(verify_graph(g, label=label), verify_graph_reference(g, label=label))


def test_verify_matches_per_set_reference_on_random_suite():
    graphs = random_connected_graphs(10, 4, 10, 1) + random_connected_graphs(10, 4, 10, 2, weighted=True)
    references = [verify_graph_reference(g, label=f"random-1-{idx}") for idx, g in enumerate(graphs)]
    _same(verify_random_suite(), _merge(references, references[0].tolerance))


@pytest.mark.parametrize("edge, count", [((2, 3), 28), ((1, 2), 18), ((0, 1), 7)])
def test_verify_matches_per_set_reference_on_heavy_edge_cycles(edge, count):
    # the dense oracle's own error on a 1e10 edge, reported in the same order
    g = heavy_edge_cycle(edge, HEAVY)
    report = verify_graph(g, label="heavy")
    assert len(report.violations) == count
    _same(report, verify_graph_reference(g, label="heavy"))


def test_verify_matches_reference_with_tight_tolerance():
    g = erdos_renyi(9, 0.5, 3)
    kwargs = dict(label="er9", m_max=4, k_values=(0.3, 2.0, 50.0), tol=1e-15)
    report = verify_graph(g, **kwargs)
    assert report.violations
    _same(report, verify_graph_reference(g, **kwargs))


@pytest.mark.parametrize("k_values", [(1e-300,), (1.0, 1e-300), (1.0, -1.0), (float("nan"),)])
def test_verify_first_error_matches_reference(k_values):
    # every closed form of a batch comes before its oracle, as in the per-set loop
    errors = []
    for check in (verify_graph, verify_graph_reference):
        with pytest.raises((NumericalDegeneracyError, GraphError)) as info:
            check(cycle(6), k_values=k_values)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    if k_values[-1] == 1e-300:
        assert errors[0] == (NumericalDegeneracyError, "nonpositive inverse joint centrality of a leader pair")


def test_verify_memory_does_not_grow_with_the_stack():
    # the 9,880 three-leader sets of G(40, 0.3) as one stack of 37 x 37
    # matrices, with its factor and inverse, would take over 100 MB
    g = erdos_renyi(40, 0.3, 1)
    verify_graph(cycle(5))
    tracemalloc.start()
    try:
        report = verify_graph(g, m_max=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.checks == 40 + 780 + 9880 + 780 * 4
    assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"
    # no (sets, n) array of per-node variances: only the totals outlive a chunk
    assert peak < 4.5e6, f"peak {peak / 1e6:.2f} MB"
