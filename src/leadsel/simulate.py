"""Euler-Maruyama integration of the leader-follower tracking dynamics.

The network state x follows dx = -M (x - mu 1) dt + sigma dW with
M = L + K for finite-gain leaders; with noise-free leaders the leader states
are held exactly at mu and only the followers integrate against the grounded
Laplacian. Variances are accumulated about the known signal mu, so no mean
estimation enters. The noise source is the counter-based Philox generator
from numpy with Gaussian variates via Generator.standard_normal; for a fixed
seed and numpy version results are bit-reproducible.
"""

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, GraphError, LeaderSet, NoiseFree
from .kernels import oracle_error_gain, oracle_error_noise_free, system_matrix

_BLOCK = 16384


class StabilityError(RuntimeError):
    """The explicit scheme would be (or became) unstable."""

    def __init__(self, message, dt_bound=None):
        super().__init__(message)
        self.dt_bound = dt_bound


@dataclass(frozen=True)
class SimConfig:
    """Integration parameters. burn_in defaults to 10% of steps.

    The leader mode lives on the LeaderSet passed to simulate, keeping a
    single source of truth for it.
    """

    dt: float
    steps: int
    burn_in: int | None = None
    sigma: float = 1.0
    seed: int = 0
    mu: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise GraphError(f"dt must be positive, got {self.dt}")
        if self.steps < 1:
            raise GraphError(f"steps must be positive, got {self.steps}")
        # the variances scale with sigma^2, which must be a finite number
        if self.sigma < 0.0 or not math.isfinite(self.sigma * self.sigma):
            raise GraphError(f"sigma must be nonnegative with a finite square, got {self.sigma}")
        if not math.isfinite(self.mu):
            raise GraphError(f"mu must be finite, got {self.mu}")
        if self.burn_in is not None and not 0 <= self.burn_in < self.steps:
            raise GraphError(f"need 0 <= burn_in < steps, got {self.burn_in}")

    @property
    def effective_burn_in(self) -> int:
        return self.steps // 10 if self.burn_in is None else self.burn_in


@dataclass(frozen=True)
class SimResult:
    """Per-node variances from the trajectory and from the trace oracle."""

    empirical_variance: np.ndarray
    empirical_total_error: float
    analytic_total_error: float
    analytic_variance: np.ndarray
    sample_count: int
    seed_used: int


def simulate(g: Graph, leaders: LeaderSet, cfg: SimConfig) -> SimResult:
    """Integrate one trajectory and estimate steady-state variances about mu.

    Checks the explicit-scheme stability bound dt * lambda_max < 2 up front
    and raises StabilityError (with the required dt bound) if violated.
    Deterministic for a fixed config.
    """
    sys_mat, active = system_matrix(g, leaders)
    oracle = oracle_error_noise_free if isinstance(leaders.mode, NoiseFree) else oracle_error_gain
    analytic = oracle(g, leaders, cfg.sigma)

    lam_max = float(np.linalg.eigvalsh(sys_mat)[-1])
    if cfg.dt * lam_max >= 2.0:
        bound = 2.0 / lam_max
        raise StabilityError(
            f"dt = {cfg.dt} violates the stability bound dt < {bound:.6g} "
            f"(largest system eigenvalue {lam_max:.6g})",
            dt_bound=bound,
        )

    dim = len(active)
    propagator = np.eye(dim) - cfg.dt * sys_mat
    noise_scale = math.sqrt(cfg.dt)  # unit sigma; the variances are scaled by sigma^2 at the end
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    x = np.zeros(dim)  # deviation from mu
    sumsq = np.zeros(dim)
    burn = cfg.effective_burn_in

    def advance(n_steps, collect):
        nonlocal x, sumsq
        done = 0
        while done < n_steps:
            bs = min(_BLOCK, n_steps - done)
            noise = rng.standard_normal((bs, dim))
            for t in range(bs):
                x = propagator @ x
                x += noise_scale * noise[t]
                if collect:
                    sumsq += x * x
            if not np.all(np.isfinite(x)):
                raise StabilityError("state diverged during integration")
            done += bs

    advance(burn, collect=False)
    advance(cfg.steps - burn, collect=True)

    samples = cfg.steps - burn
    per_node = np.zeros(g.n)
    # a sigma^2 near the float limit overflows to inf here, which a report refuses to emit
    with np.errstate(over="ignore"):
        per_node[active] = sumsq / samples * (cfg.sigma * cfg.sigma)
        total = float(per_node.sum())
    return SimResult(
        empirical_variance=per_node,
        empirical_total_error=total,
        analytic_total_error=analytic.total_error,
        analytic_variance=analytic.per_node_variance,
        sample_count=samples,
        seed_used=cfg.seed,
    )
