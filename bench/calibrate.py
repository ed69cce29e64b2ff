"""Reference kernels that measure how fast the machine is right now.

The benchmark's host shares its CPUs with other machines' work, and its
speed moves by up to 2x, in phases lasting from under a second to minutes.
So every timed query sits between two runs of a fixed reference kernel,
and the end-to-end times are reported at reference speed: raw time x
REF_S / (typical kernel time around it). A kernel does the same kind of
work as its workload, so it slows down the way the workload does; it never
calls leadsel, so a change to the package cannot move it. REF_S is the kernel's
time on the reference machine (see README.md), so on that machine the
figures read as plain milliseconds.
"""

import subprocess
import sys
import time

import numpy as np

_rng = np.random.default_rng(20140707)

# simulate: matrix-vector Euler steps in a Python loop
_PROP = np.eye(24) - 0.01 * (lambda a: a + a.T)(_rng.random((24, 24)))
_NOISE = _rng.standard_normal((1000, 24))


def _euler():
    x, acc = np.zeros(24), np.zeros(24)
    for row in _NOISE:
        x = _PROP @ x
        x += 0.1 * row
        acc += x * x


# small-exhaustive: grounded blocks, tiny determinants and inverses per subset
_LPLUS = np.linalg.pinv(np.diag(np.full(20, 3.0)) - 0.1)


def _subsets():
    acc = 0.0
    for i in range(120):
        p, a, b = i % 20, (i + 3) % 20, (i + 7) % 20
        col = _LPLUS[:, p]
        grounded = (_LPLUS - col[:, None] - col[None, :] + _LPLUS[p, p])[np.ix_([a, b], [a, b])]
        acc += float(np.linalg.det(grounded)) + float(np.linalg.inv(grounded).sum())
        diff = _LPLUS[:, [p]] - _LPLUS[:, [a, b]]
        acc += float(np.sum(diff * diff))


# large-graph: a Laplacian built edge by edge, whole-matrix arithmetic and a
# dense eigendecomposition on OpenBLAS's threads. Either half alone tracked
# the workload worse than raw wall time did.
_EDGES = [(int(u), int(v)) for u, v in _rng.integers(0, 150, size=(3000, 2)) if u != v]
_SYM = (lambda a: a @ a.T)(_rng.random((300, 300)))


def _dense():
    lap = np.eye(150) * 0.5
    for u, v in _EDGES:
        lap[u, v] -= 1.0
        lap[v, u] -= 1.0
        lap[u, u] += 1.0
        lap[v, v] += 1.0
    diag = np.diag(lap)
    dist = diag[:, None] + diag[None, :] - 2.0 * lap
    np.linalg.eigvalsh(dist[:40, :40] + lap[:40, :40])
    np.linalg.eigh(_SYM)


def _process():
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)


KERNELS = {
    "small-exhaustive": _subsets,
    "large-graph": _dense,
    "simulate": _euler,
    "cli-cold": _process,
    "setup": _process,
}

# kernel seconds on the reference machine, in its faster phases (see README.md)
REF_S = {
    "small-exhaustive": 3.7e-3,
    "large-graph": 14e-3,
    "simulate": 3.2e-3,
    "cli-cold": 0.12,
    "setup": 0.12,
}


def typical(samples):
    """Mean of the kernel times without the fastest and the slowest.

    The host's speed flips between phases within a second, so a mean tracks
    the mix a query lived through better than a median; dropping the ends
    keeps one disturbed kernel run from moving it.
    """
    xs = sorted(samples)
    if len(xs) >= 3:
        xs = xs[1:-1]
    return sum(xs) / len(xs)


def measure(name):
    """Seconds one run of the named kernel takes now."""
    kernel = KERNELS[name]
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
