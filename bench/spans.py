"""Per-layer spans recorded from outside the leadsel package.

``Tracer.install`` replaces the public functions of each layer with timing
wrappers in every ``leadsel`` module that holds a reference to them, which
is how callers inside the package look them up (``leadsel.selection``
calls ``joint_centrality`` through its own module globals, for example).
So cross-layer calls inside the package are caught without editing it.
``uninstall`` puts the originals back.

A span is (id, name, start, end, parent id, query id, thread id, counts).
Spans stay in memory until the run ends. A span opened on a thread with no
open span of its own (a worker of the CLI's thread pool) takes as parent
the innermost open span of the thread that installed the tracer.
"""

import sys
import threading
import time
from itertools import count

# span name -> (module, public functions). Functions a later version of the
# package no longer has are skipped.
LAYERS = {
    "graphs.parse": ("graphs", ("parse_edge_list",)),
    "graphs.laplacian": ("graphs", ("laplacian", "adjacency")),
    "graphs.build": ("graphs", ("cycle", "path", "complete", "erdos_renyi", "serialize_edge_list",
                                "is_canonical_cycle", "is_canonical_path")),
    "kernels.compute": ("kernels", ("compute_kernels",)),
    "kernels.oracle": ("kernels", ("oracle_error_noise_free", "oracle_error_gain",
                                   "per_node_variance_spectral")),
    "centrality.report": ("centrality", ("centrality_report",)),
    "joint.eval": ("joint", ("joint_centrality", "joint_centrality_two",
                             "joint_centrality_two_gain", "single_leader_error")),
    "selection.exhaustive": ("selection", ("exhaustive_select", "oracle_select")),
    "selection.greedy": ("selection", ("greedy_select",)),
    "selection.sweep": ("selection", ("pairwise_sweep",)),
    "selection.closed_form": ("selection", ("closed_form_cycle", "closed_form_cycle_two",
                                            "closed_form_path_two")),
    "simulate": ("simulate", ("simulate",)),
    "verify": ("verify", ("verify_graph", "verify_small_suite", "verify_random_suite")),
    "cli.main": ("cli", ("main",)),
}


def _oracle_dim(args, kwargs, result):
    g, leaders = args[0], args[1]
    pinned = type(leaders.mode).__name__ == "NoiseFree"
    return {"dim": g.n - (leaders.m if pinned else 0)}


# span name -> counts taken from a call's arguments and result
COUNTERS = {
    "graphs.parse": lambda a, kw, r: {"edges": r.edge_count},
    "kernels.oracle": _oracle_dim,
    "selection.exhaustive": lambda a, kw, r: {"sets": r.evaluated_count},
    "selection.greedy": lambda a, kw, r: {"evaluated": r.evaluated_count},
    "selection.sweep": lambda a, kw, r: {"pairs": len(r.pairs)},
    "simulate": lambda a, kw, r: {"steps": a[2].steps},
    "verify": lambda a, kw, r: {"checks": r.checks},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.query_id = None
        self._ids = count(1)
        self._local = threading.local()
        self._owner_stack = None
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                owner = self._owner_stack
                parent = owner[-1] if owner else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            counts = None
            if counter is not None:
                try:
                    counts = counter(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    counts = None
            self.spans.append((sid, name, start, end, parent, self.query_id,
                               threading.get_ident(), counts))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        self._owner_stack = self._stack()
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "leadsel" or k.startswith("leadsel."))]
        for name, (module_name, functions) in LAYERS.items():
            home = sys.modules.get(f"leadsel.{module_name}")
            for fname in functions:
                fn = getattr(home, fname, None)
                if fn is None:
                    continue
                wrapper = self._wrap(name, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched = []


def _union_length(intervals, lo, hi):
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans):
    """Per span name: calls, busy (outermost spans of that name), self, counts.

    Self time is a span's duration minus the part of it that its child
    spans cover; busy time does not count a span nested in another span of
    the same name twice.
    """
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append((s[2], s[3]))

    def nested_in_same_name(s):
        parent = by_id.get(s[4])
        while parent is not None:
            if parent[1] == s[1]:
                return True
            parent = by_id.get(parent[4])
        return False

    out = {}
    for s in spans:
        sid, name, start, end = s[0], s[1], s[2], s[3]
        row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "counts": {}})
        row["calls"] += 1
        row["self_s"] += (end - start) - _union_length(children.get(sid, ()), start, end)
        if not nested_in_same_name(s):
            row["busy_s"] += end - start
            for key, value in (s[7] or {}).items():
                row["counts"][key] = row["counts"].get(key, 0) + value
    return out
