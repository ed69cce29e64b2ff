"""Euler-Maruyama integration of the leader-follower tracking dynamics.

The network state x follows dx = -M (x - mu 1) dt + sigma dW with
M = L + K for finite-gain leaders; with noise-free leaders the leader states
are held exactly at mu and only the followers integrate against the grounded
Laplacian. Variances are accumulated about the known signal mu, so no mean
estimation enters. The noise source is the counter-based Philox generator
from numpy with Gaussian variates via Generator.standard_normal; for a fixed
seed and numpy version results are bit-reproducible.

The scheme x <- (I - dt M) x + sqrt(dt) xi is run mode by mode. With
M = V diag(lam) V^T (one eigh per run), y = V^T x is a set of independent
AR(1) sequences y_t = a * y_{t-1} + eta_t with a = 1 - dt lam and
eta_t = sqrt(dt) V^T xi_t, the noise rows drawn in the same order as a
step-by-step loop would draw them. Each block of rows is solved by a
doubling scan, Y[d:] += a^d Y[:-d] for d = 1, 2, 4, ..., in log2(rows)
whole-array sweeps, and the last row carries into the next block. The
sampled rows add Y^T Y to one Gram matrix G, and the per-node sums of
squares are diag(V G V^T). A block holds _BLOCK_ELEMENTS noise values
whatever dim is, so transient memory does not grow with steps.
"""

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, GraphError, LeaderSet, NoiseFree, StabilityError
from .kernels import oracle_error_gain, oracle_error_noise_free, system_matrix

# noise values per block: 2^16 float64s (512 KiB), 1,638 rows at dim 40
_BLOCK_ELEMENTS = 1 << 16


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
    """Per-node variances from the trajectory and from the trace oracle.

    discretization_bias is the scheme's exact stationary total error minus
    the continuous-time one; mc_standard_error is the standard error of
    empirical_total_error about the scheme's stationary value.
    """

    empirical_variance: np.ndarray
    empirical_total_error: float
    analytic_total_error: float
    analytic_variance: np.ndarray
    sample_count: int
    seed_used: int
    discretization_bias: float
    mc_standard_error: float


def _ar1_scan(ys: np.ndarray, a: np.ndarray) -> None:
    """In place, row t becomes the sum over k <= t of a^k * row (t - k)."""
    power, d = a, 1
    while d < len(ys):
        ys[d:] += power * ys[:-d]
        power = power * power
        d *= 2


def simulate(g: Graph, leaders: LeaderSet, cfg: SimConfig) -> SimResult:
    """Integrate one trajectory and estimate steady-state variances about mu.

    Checks the explicit-scheme stability bound dt * lambda_max < 2 up front
    and raises StabilityError (with the required dt bound) if violated.
    Deterministic for a fixed config.
    """
    sys_mat, active = system_matrix(g, leaders)
    oracle = oracle_error_noise_free if isinstance(leaders.mode, NoiseFree) else oracle_error_gain
    analytic = oracle(g, leaders, cfg.sigma)

    lam, vec = np.linalg.eigh(sys_mat)
    lam_max = float(lam[-1])
    if cfg.dt * lam_max >= 2.0:
        bound = 2.0 / lam_max
        raise StabilityError(
            f"dt = {cfg.dt} violates the stability bound dt < {bound:.6g} "
            f"(largest system eigenvalue {lam_max:.6g})",
            dt_bound=bound,
        )

    dim = len(active)
    a = 1.0 - cfg.dt * lam
    rows = max(1, _BLOCK_ELEMENTS // dim)
    # unit sigma; the variances are scaled by sigma^2 at the end
    rotate = math.sqrt(cfg.dt) * vec
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    y = np.zeros(dim)  # modal deviation from mu after the last step
    gram = np.zeros((dim, dim))
    burn = cfg.effective_burn_in
    for start in range(0, cfg.steps, rows):
        ys = rng.standard_normal((min(rows, cfg.steps - start), dim)) @ rotate
        ys[0] += a * y
        _ar1_scan(ys, a)
        y = ys[-1]
        if not np.all(np.isfinite(y)):
            raise StabilityError("state diverged during integration")
        sampled = ys[max(0, burn - start):]
        gram += sampled.T @ sampled

    samples = cfg.steps - burn
    decay = cfg.dt * lam * (2.0 - cfg.dt * lam)  # 1 - a^2, without cancellation at small dt lam
    s2 = cfg.sigma * cfg.sigma
    per_node = np.zeros(g.n)
    # a sigma^2 near the float limit overflows to inf here, which a report refuses to emit
    with np.errstate(over="ignore"):
        per_node[active] = ((vec @ gram) * vec).sum(axis=1) / samples * s2
        total = float(per_node.sum())
        # sigma^2/(lam (2 - dt lam)) - sigma^2/(2 lam) per mode, in a form free of cancellation
        bias = s2 * float((cfg.dt / (2.0 * (2.0 - cfg.dt * lam))).sum())
        # var(y^2) = 2 v^2 with lag-k autocorrelation a^(2|k|), v = dt / (1 - a^2). A mode
        # whose eigenvalue eigh puts at or below 0 never decays: its error has no bound.
        if decay.min() > 0.0:
            v = cfg.dt / decay
            se = s2 * math.sqrt(float((2.0 * v * v * (1.0 + a * a) / decay).sum()) / samples)
        else:
            se = math.inf
    return SimResult(
        empirical_variance=per_node,
        empirical_total_error=total,
        analytic_total_error=analytic.total_error,
        analytic_variance=analytic.per_node_variance,
        sample_count=samples,
        seed_used=cfg.seed,
        discretization_bias=bias,
        mc_standard_error=se,
    )
