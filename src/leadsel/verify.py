"""Identity checks: joint-centrality-implied error against the trace oracle.

For every leader set up to a size cap, the error implied by rho
((sigma^2/2) * n / rho) must match the grounded-Laplacian oracle; for every
pair and each gain k, the error implied by the gain-dependent rho must match
the dense (L + K)^-1 trace. These are two genuinely independent computation
routes, so agreement is strong evidence of correctness. sigma^2 scales both
routes alike, so the checks run at sigma = 1.

The sets are checked a batch at a time: all noise-free sets of one size, or
all pairs at one gain. The closed forms of a batch come first, all from one
call of ``joint._n_over_rho`` (the route every other caller takes, so the
checked bits are the ones ``select``, ``pairs`` and ``joint_centrality``
report), and then one ``oracle_errors`` call scores the whole batch.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .graphs import Gain, Graph, NOISE_FREE
from .joint import _n_over_rho
from .kernels import compute_kernels, oracle_errors
from .suites import connected_graph_atlas, random_connected_graphs

DEFAULT_K_VALUES = (0.1, 1.0, 10.0, 100.0)
DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class IdentityViolation:
    graph_label: str
    members: tuple
    k: float | None
    rel_dev: float


@dataclass(frozen=True)
class VerifyReport:
    max_rel_dev_noise_free: float
    max_rel_dev_gain: float
    checks: int
    violations: tuple
    tolerance: float

    @property
    def ok(self) -> bool:
        return not self.violations


def _rel_devs(implied, oracle):
    return (np.abs(implied - oracle) / oracle).tolist()


def verify_graph(
    g: Graph,
    *,
    label: str = "graph",
    m_max: int = 3,
    k_values=DEFAULT_K_VALUES,
    tol: float = DEFAULT_TOL,
) -> VerifyReport:
    """Check both identities on every leader set of g with m <= m_max.

    Violations are listed by set size, then sets in lexicographic order,
    each pair with its gains in the order of ``k_values``.
    """
    kernels = compute_kernels(g)
    worst_nf = 0.0
    worst_gain = 0.0
    checks = 0
    violations = []
    for m in range(1, min(m_max, g.n - 1) + 1):
        sets = list(itertools.combinations(range(g.n), m))
        implied = 0.5 * _n_over_rho(kernels, np.array(sets).T, NOISE_FREE)[0]
        for members, dev in zip(sets, _rel_devs(implied, oracle_errors(g, sets, NOISE_FREE))):
            worst_nf = max(worst_nf, dev)
            if dev > tol:
                violations.append(IdentityViolation(label, members, None, dev))
        checks += len(sets)
    if g.n >= 3:
        ii, jj = np.triu_indices(g.n, 1)
        pairs = np.column_stack((ii, jj))
        devs_by_k = []
        for k in k_values:
            mode = Gain(k)
            implied = 0.5 * _n_over_rho(kernels, (ii, jj), mode)[0]
            devs_by_k.append(_rel_devs(implied, oracle_errors(g, pairs, mode)))
        for p, pair in enumerate(map(tuple, pairs.tolist())):
            for k, devs in zip(k_values, devs_by_k):
                worst_gain = max(worst_gain, devs[p])
                if devs[p] > tol:
                    violations.append(IdentityViolation(label, pair, k, devs[p]))
        checks += len(ii) * len(devs_by_k)
    return VerifyReport(worst_nf, worst_gain, checks, tuple(violations), tol)


def _merge(reports, tol):
    return VerifyReport(
        max_rel_dev_noise_free=max((r.max_rel_dev_noise_free for r in reports), default=0.0),
        max_rel_dev_gain=max((r.max_rel_dev_gain for r in reports), default=0.0),
        checks=sum(r.checks for r in reports),
        violations=tuple(v for r in reports for v in r.violations),
        tolerance=tol,
    )


def verify_small_suite(*, tol: float = DEFAULT_TOL, k_values=DEFAULT_K_VALUES) -> VerifyReport:
    """Every connected graph on 4 and 5 nodes (up to isomorphism)."""
    reports = []
    for n in (4, 5):
        for idx, g in enumerate(connected_graph_atlas(n)):
            reports.append(
                verify_graph(g, label=f"atlas-n{n}-{idx}", tol=tol, k_values=k_values)
            )
    return _merge(reports, tol)


def verify_random_suite(
    count: int = 20,
    n_max: int = 10,
    seed: int = 1,
    *,
    tol: float = DEFAULT_TOL,
    k_values=DEFAULT_K_VALUES,
) -> VerifyReport:
    """A reproducible batch of random connected graphs, half of them weighted."""
    graphs_plain = random_connected_graphs(count - count // 2, 4, n_max, seed)
    graphs_weighted = random_connected_graphs(count // 2, 4, n_max, seed + 1, weighted=True)
    reports = []
    for idx, g in enumerate(graphs_plain + graphs_weighted):
        reports.append(verify_graph(g, label=f"random-{seed}-{idx}", tol=tol, k_values=k_values))
    return _merge(reports, tol)
