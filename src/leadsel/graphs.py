"""Undirected weighted graphs: validation, edge-list files, standard generators.

Node ids are contiguous integers 0..n-1, both in memory and in edge-list
files. Graphs are immutable after construction and always connected; every
downstream computation in this package assumes connectivity.
"""

import math
import re
from dataclasses import dataclass, field

import numpy as np

# unreached node ids that a DisconnectedGraphError message lists
_LISTED_UNREACHED = 10
# G(n, p) samples that erdos_renyi draws before it gives up on a connected one
_ER_TRIES = 200


class GraphError(ValueError):
    """Invalid graph input or construction."""


class EdgeFormatError(GraphError):
    """A line of an edge-list file could not be parsed."""


class SelfLoopError(GraphError):
    """An edge connects a node to itself."""


class DuplicateEdgeError(GraphError):
    """The same undirected edge appears more than once."""


class NonpositiveWeightError(GraphError):
    """An edge weight is zero, negative, or not finite."""


class DisconnectedGraphError(GraphError):
    """The graph is not connected."""


# The errors of the computing modules live here, beside GraphError, so that
# the CLI can map them to exit codes without importing those modules.


class SpectralError(RuntimeError):
    """A factorization failed or the graph is too ill-conditioned to trust."""


class NumericalDegeneracyError(RuntimeError):
    """A matrix that is nonsingular in exact arithmetic degenerated numerically."""


class BudgetError(RuntimeError):
    """The requested enumeration exceeds the evaluation budget."""


class StabilityError(RuntimeError):
    """The explicit scheme would be (or became) unstable."""

    def __init__(self, message, dt_bound=None):
        super().__init__(message)
        self.dt_bound = dt_bound


@dataclass(frozen=True)
class Graph:
    """Simple undirected weighted connected graph.

    ``edges`` is normalised on construction: each edge is stored as
    ``(u, v, w)`` with ``u < v`` and the list sorted; 2-tuples get weight 1.0.
    Construction rejects self-loops, duplicate edges, nonpositive weights and
    disconnected graphs.
    """

    n: int
    edges: tuple = field(default=())

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise GraphError(f"node count must be a positive integer, got {self.n!r}")
        norm = []
        seen = set()
        for e in self.edges:
            if len(e) == 2:
                u, v = e
                w = 1.0
            elif len(e) == 3:
                u, v, w = e
            else:
                raise GraphError(f"edge {e!r} is not a (u, v) or (u, v, w) tuple")
            if not (isinstance(u, (int, np.integer)) and isinstance(v, (int, np.integer))):
                raise GraphError(f"edge {e!r} has non-integer endpoints")
            u, v, w = int(u), int(v), float(w)
            if u == v:
                raise SelfLoopError(f"self-loop on node {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge ({u}, {v}) outside node range 0..{self.n - 1}")
            if not (math.isfinite(w) and w > 0.0):
                raise NonpositiveWeightError(f"edge ({u}, {v}) has nonpositive weight {w}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise DuplicateEdgeError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            norm.append((u, v, w))
        norm.sort()
        object.__setattr__(self, "edges", tuple(norm))
        unreached = _unreached_nodes(self.n, self.edges)
        if unreached:
            listed = ", ".join(map(str, unreached[:_LISTED_UNREACHED]))
            if len(unreached) > _LISTED_UNREACHED:
                listed += f", ... ({len(unreached)} in all)"
            raise DisconnectedGraphError(f"graph is disconnected: nodes [{listed}] unreachable from node 0")

    @property
    def edge_count(self):
        return len(self.edges)


def _unreached_nodes(n, edges):
    adj = [[] for _ in range(n)]
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return [i for i, s in enumerate(seen) if not s]


@dataclass(frozen=True)
class NoiseFree:
    """Leader mode: leaders pin exactly to the external signal (no noise)."""


@dataclass(frozen=True)
class Gain:
    """Leader mode: leaders track the signal with finite positive gain k."""

    k: float

    def __post_init__(self):
        if not (math.isfinite(self.k) and self.k > 0.0):
            raise GraphError(f"gain k must be finite and positive, got {self.k}")


NOISE_FREE = NoiseFree()


@dataclass(frozen=True)
class LeaderSet:
    """Ordered set of distinct leader nodes in one leader mode.

    The order is kept: ``joint_centrality`` takes the first member as its
    pivot.

    Validity against a particular graph (ids within 0..n-1 and m < n) is
    checked by the operations that take both a graph and a leader set.
    """

    members: tuple
    mode: object = NOISE_FREE

    def __post_init__(self):
        members = tuple(int(v) for v in self.members)
        if not members:
            raise GraphError("leader set must be nonempty")
        if len(set(members)) != len(members):
            raise GraphError(f"leader set {members} has repeated nodes")
        if any(v < 0 for v in members):
            raise GraphError(f"leader set {members} has negative node ids")
        if not isinstance(self.mode, (NoiseFree, Gain)):
            raise GraphError(f"mode must be NoiseFree or Gain, got {self.mode!r}")
        object.__setattr__(self, "members", members)

    @property
    def m(self):
        return len(self.members)

    def check_against(self, n: int):
        """Validate the member ids against a graph of n nodes.

        Noise-free leaders need at least one follower; finite-gain leader
        sets may cover the whole graph (L + K stays invertible). Returns the
        leader set itself.
        """
        if any(v >= n for v in self.members):
            raise GraphError(f"leader set {self.members} outside node range 0..{n - 1}")
        if self.m > n:
            raise GraphError(f"leader set larger than the graph: m={self.m}, n={n}")
        if isinstance(self.mode, NoiseFree) and self.m >= n:
            raise GraphError(f"noise-free leaders need at least one follower: m={self.m}, n={n}")
        return self


def adjacency(g: Graph) -> np.ndarray:
    """Dense symmetric adjacency matrix A with A[u, v] = edge weight."""
    a = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        a[u, v] = w
        a[v, u] = w
    return a


def laplacian(g: Graph) -> np.ndarray:
    """Graph Laplacian L = D - A.

    Built from one symmetric adjacency matrix so L is symmetric bit-for-bit;
    the diagonal holds the weighted degrees. A is negated in place, so L is
    the only n x n array made; 0.0 - A, unlike np.negative, keeps the zeros
    positive, and L equals np.diag(A.sum(axis=1)) - A bit for bit.
    """
    a = adjacency(g)
    degrees = a.sum(axis=1)
    np.subtract(0.0, a, out=a)
    np.fill_diagonal(a, degrees)
    return a


_HEADER_RE = re.compile(r"^n\s*=\s*(\d+)$")


def parse_edge_list(text: str) -> Graph:
    """Parse an edge-list document into a Graph.

    Format: one edge per line, ``u v`` or ``u v w``; ``#`` starts a comment;
    an optional ``n=<int>`` line overrides the node count (default is the
    largest id + 1). Node ids are 0-indexed. Raises a specific GraphError
    subclass naming the offending line or edge.
    """
    n_header = None
    edges = []
    seen = set()
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        header = _HEADER_RE.match(line)
        if header:
            if n_header is not None:
                raise EdgeFormatError(f"line {lineno}: duplicate n= header")
            n_header = int(header.group(1))
            if n_header < 1:
                raise EdgeFormatError(f"line {lineno}: n must be positive")
            continue
        tokens = line.split()
        if len(tokens) not in (2, 3):
            raise EdgeFormatError(
                f"line {lineno}: expected 'u v' or 'u v w', got {raw.strip()!r}"
            )
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeFormatError(f"line {lineno}: node ids must be integers") from None
        if u < 0 or v < 0:
            raise EdgeFormatError(f"line {lineno}: node ids must be nonnegative")
        w = 1.0
        if len(tokens) == 3:
            try:
                w = float(tokens[2])
            except ValueError:
                raise EdgeFormatError(f"line {lineno}: weight must be a number") from None
        if u == v:
            raise SelfLoopError(f"line {lineno}: self-loop on node {u}")
        if not (math.isfinite(w) and w > 0.0):
            raise NonpositiveWeightError(f"line {lineno}: nonpositive weight {w}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DuplicateEdgeError(f"line {lineno}: duplicate edge {key}")
        seen.add(key)
        max_id = max(max_id, u, v)
        edges.append((u, v, w))
    if n_header is None:
        if max_id < 0:
            raise EdgeFormatError("no edges and no n= header")
        n = max_id + 1
    else:
        n = n_header
        if max_id >= n:
            raise EdgeFormatError(f"node id {max_id} exceeds declared n={n}")
    return Graph(n, tuple(edges))


def serialize_edge_list(g: Graph) -> str:
    """Canonical edge-list text: n= header, then sorted 'u v w' lines (u < v).

    Weights are written with repr so parse(serialize(g)) reproduces g exactly.
    """
    lines = [f"n={g.n}"]
    lines.extend(f"{u} {v} {w!r}" for u, v, w in g.edges)
    return "\n".join(lines) + "\n"


def cycle(n: int) -> Graph:
    """Unweighted cycle on n >= 3 nodes, node i adjacent to (i+1) mod n."""
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def path(n: int) -> Graph:
    """Unweighted path on n >= 2 nodes, node i adjacent to i+1."""
    if n < 2:
        raise GraphError(f"path needs n >= 2, got {n}")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def complete(n: int) -> Graph:
    """Unweighted complete graph on n >= 2 nodes."""
    if n < 2:
        raise GraphError(f"complete needs n >= 2, got {n}")
    return Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))


def _gnp_edges(rng, n: int, p: float, weighted: bool = False) -> tuple:
    """Edges of one G(n, p) draw from rng, in (u, v) order with u < v.

    One uniform draw per node pair decides the edge; with ``weighted`` a
    second draw per pair gives weights uniform in [0.5, 2).
    """
    iu, iv = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < p
    if weighted:
        w = rng.uniform(0.5, 2.0, size=iu.size)
        return tuple(zip(iu[keep].tolist(), iv[keep].tolist(), w[keep].tolist()))
    return tuple(zip(iu[keep].tolist(), iv[keep].tolist()))


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """Random G(n, p) graph, resampled until connected.

    Deterministic for a fixed seed (one PCG64 stream drives all retries).
    Raises GraphError after _ER_TRIES disconnected samples.
    """
    if n < 2:
        raise GraphError(f"erdos_renyi needs n >= 2, got {n}")
    if not (0.0 < p <= 1.0):
        raise GraphError(f"edge probability must be in (0, 1], got {p}")
    rng = np.random.default_rng(seed)
    for _ in range(_ER_TRIES):
        try:
            return Graph(n, _gnp_edges(rng, n, p))
        except DisconnectedGraphError:
            continue
    raise GraphError(
        f"erdos_renyi(n={n}, p={p}, seed={seed}): no connected sample in {_ER_TRIES} tries"
    )


def is_canonical_cycle(g: Graph) -> bool:
    """True iff g is exactly the unit-weight cycle 0-1-...-(n-1)-0."""
    if g.n < 3:
        return False
    return g.edges == cycle(g.n).edges


def is_canonical_path(g: Graph) -> bool:
    """True iff g is exactly the unit-weight path 0-1-...-(n-1)."""
    if g.n < 2:
        return False
    return g.edges == path(g.n).edges
