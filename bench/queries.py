"""Query bodies and output checks of the four workloads.

Imported by the workload process after it has put this checkout's ``src/``
first on ``sys.path``. ``run`` is the timed part of a query. ``keep`` runs
right after it and reduces the output to what ``check`` needs; ``check``
runs after the timed loop and raises ``CheckFailed`` on a wrong output.
Checks wait for the loop to end because they call numpy and scipy, whose
OpenBLAS threads keep spinning for about 0.2 s after a call and slow the
next query by a varying amount.
Package functions are looked up on the ``leadsel`` module at call time, so
the tracer's wrappers see the calls.
"""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

import leadsel as ls

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

REL_TOL = 1e-8  # closed forms against the dense oracles
CLI_TOL = 1e-9  # a CLI payload against the same library called in this process
TIE_TOL = 1e-9  # the package's tie tolerance
SAMPLED_SETS = 50
SAMPLED_PAIRS = 3
MC_SIGMAS = 8.0  # at least 6; a sum of squares dominated by one slow mode is right-skewed
CLI_TIMEOUT_S = 120


class CheckFailed(Exception):
    """An output does not match its reference."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def rel_dev(a, b):
    return abs(a - b) / abs(b)


def mode_of(k):
    return ls.NOISE_FREE if k is None else ls.Gain(k)


def oracle_error(g, members, k=None):
    leaders = ls.LeaderSet(tuple(members), mode_of(k))
    if k is None:
        return ls.oracle_error_noise_free(g, leaders).total_error
    return ls.oracle_error_gain(g, leaders).total_error


class Workload:
    def keep(self, q, out):
        return out


class SmallExhaustive(Workload):
    def run(self, q):
        g = ls.parse_edge_list(q["graph"])
        kernels = ls.compute_kernels(g)
        return g, ls.exhaustive_select(g, q["m"], mode_of(q["k"]), kernels=kernels)

    def check(self, q, out):
        g, res = out
        m, k = q["m"], q["k"]
        best = res.objective.total_error
        require(res.evaluated_count == math.comb(g.n, m),
                f"evaluated {res.evaluated_count} sets, expected C({g.n}, {m})")
        require(len(res.optimal_sets) > 0, "no optimal set returned")
        for s in res.optimal_sets:
            require(len(set(s)) == m and all(0 <= v < g.n for v in s), f"bad set {s}")
            err = oracle_error(g, s, k)
            require(rel_dev(err, best) <= REL_TOL, f"set {s}: oracle {err!r} vs objective {best!r}")
        rng = np.random.default_rng(q["check_seed"])
        for _ in range(SAMPLED_SETS):
            s = tuple(sorted(rng.choice(g.n, m, replace=False).tolist()))
            err = oracle_error(g, s, k)
            require(err >= best * (1.0 - TIE_TOL), f"sampled set {s} beats the optimum: {err!r} < {best!r}")


class LargeGraph(Workload):
    def run(self, q):
        g = ls.parse_edge_list(q["graph"])
        if q["kind"] == "greedy":
            return g, ls.greedy_select(g, q["m"])
        kernels = ls.compute_kernels(g)
        report = ls.centrality_report(kernels)
        return g, (report, ls.pairwise_sweep(g, kernels=kernels))

    def keep(self, q, out):
        """Check shapes now and keep only the sampled sets: a sweep at n=1000
        holds half a million pairs, too many to keep until the loop ends."""
        g, res = out
        n = g.n
        if q["kind"] == "greedy":
            m = q["m"]
            require(len(res.optimal_sets) == 1, "greedy returns one set")
            s = res.optimal_sets[0]
            require(len(set(s)) == m, f"greedy set {s} does not have {m} members")
            require(res.evaluated_count == sum(n - i for i in range(m)),
                    f"greedy evaluated {res.evaluated_count} candidates")
            return g, [(s, res.objective.total_error)]
        report, sweep = res
        require(report.info_centrality.shape == (n,) and np.all(np.isfinite(report.info_centrality)),
                "info centrality is not n finite numbers")
        require(len(sweep.pairs) == math.comb(n, 2) and sweep.rho.shape == (math.comb(n, 2),),
                f"sweep covers {len(sweep.pairs)} pairs")
        rng = np.random.default_rng(q["check_seed"])
        return g, [(sweep.pairs[i], 0.5 * n / float(sweep.rho[i]))
                   for i in rng.choice(len(sweep.pairs), SAMPLED_PAIRS, replace=False).tolist()]

    def check(self, q, kept):
        g, claims = kept
        for members, claimed in claims:
            err = oracle_error(g, members)
            require(rel_dev(claimed, err) <= REL_TOL, f"set {members}: claimed {claimed!r}, oracle {err!r}")


def system_matrix(g, members, k):
    """L + K for gain leaders, the grounded Laplacian for noise-free ones."""
    lap = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        lap[u, v] -= w
        lap[v, u] -= w
        lap[u, u] += w
        lap[v, v] += w
    if k is None:
        keep = [i for i in range(g.n) if i not in members]
        return lap[np.ix_(keep, keep)]
    lap[members, members] += k
    return lap


def mc_expectation(g, members, k, dt, steps, samples):
    """Mean and standard error of the simulator's empirical total error.

    In the eigenbasis of the system matrix each mode is an AR(1) sequence
    y <- a y + sqrt(dt) noise with a = 1 - dt lambda, started at 0, so
    E[y_t^2] = v (1 - a^(2t)) with v = dt / (1 - a^2), exactly. The squares
    of the sampled steps t = burn+1 .. steps have correlation time at most
    (1 + a^2) / (1 - a^2) of the slowest mode, which bounds the error.
    """
    lam = np.linalg.eigvalsh(system_matrix(g, list(members), k))
    a2 = (1.0 - dt * lam) ** 2
    v = dt / (1.0 - a2)
    burn = steps - samples
    mean = v * (1.0 - a2 ** (burn + 1) * (1.0 - a2**samples) / (samples * (1.0 - a2)))
    tau = (1.0 + a2.max()) / (1.0 - a2.max())
    return float(mean.sum()), math.sqrt(float((2.0 * v * v).sum()) * tau / samples)


class Simulate(Workload):
    def run(self, q):
        g = ls.parse_edge_list(q["graph"])
        leaders = ls.LeaderSet(tuple(q["leaders"]), mode_of(q["k"]))
        cfg = ls.SimConfig(dt=q["dt"], steps=q["steps"], seed=q["seed"])
        return g, ls.simulate(g, leaders, cfg)

    def check(self, q, out):
        g, res = out
        members, k = q["leaders"], q["k"]
        kernels = ls.compute_kernels(g)
        if k is None:
            closed = ls.joint_centrality(kernels, members).implied_total_error
        elif len(members) == 2:
            closed = ls.joint_centrality_two_gain(kernels, *members, k).implied_total_error
        else:
            closed = ls.single_leader_error(kernels, members[0], ls.Gain(k))
        require(rel_dev(res.analytic_total_error, closed) <= REL_TOL,
                f"analytic {res.analytic_total_error!r} vs joint centrality {closed!r}")
        require(0 < res.sample_count <= q["steps"], f"sample count {res.sample_count}")
        mean, se = mc_expectation(g, members, k, q["dt"], q["steps"], res.sample_count)
        gap = abs(res.empirical_total_error - mean)
        require(gap <= MC_SIGMAS * se,
                f"empirical {res.empirical_total_error!r} is {gap / se:.1f} standard errors from {mean!r}")


def _reject_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


def strict_json(text):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        raise CheckFailed(f"stdout is not strict JSON: {exc}") from None


def same(got, want):
    """Equal up to CLI_TOL on floats; dict keys absent from ``want`` are ignored."""
    if isinstance(want, float) or isinstance(got, float):
        return (isinstance(got, (int, float)) and isinstance(want, (int, float))
                and (got == want or abs(got - want) <= CLI_TOL * max(abs(got), abs(want))))
    if isinstance(want, (list, tuple)):
        return (isinstance(got, (list, tuple)) and len(got) == len(want)
                and all(same(a, b) for a, b in zip(got, want)))
    if isinstance(want, dict):
        return isinstance(got, dict) and all(key in got and same(got[key], want[key]) for key in want)
    return got == want


class CliCold(Workload):
    """One CLI invocation per query: a fresh process, or ``cli.main`` in-process."""

    def __init__(self, doc, workdir, in_process):
        self.in_process = in_process
        self.workdir = workdir
        self.peak_rss_kb = 0
        self.paths = {}
        for name, text in doc["files"].items():
            path = Path(workdir) / f"{name}.txt"
            path.write_text(text, encoding="utf-8")
            self.paths[name] = str(path)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self._expected = {}
        if in_process:
            import leadsel.cli  # noqa: F401  (the tracer wraps leadsel.cli.main)

    def argv(self, q):
        return [self.paths[a[1:]] if a.startswith("@") else a for a in q["argv"]]

    def run(self, q):
        argv = self.argv(q)
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    code = ls.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            return code, buf.getvalue(), ""
        return self.child(argv)

    def child(self, argv):
        """Run the CLI in a fresh process; keep the peak RSS of all of them.

        The process is reaped with wait4 for its own resource usage: the
        calibration processes must not count in the peak.
        """
        out_path, err_path = Path(self.workdir) / "stdout", Path(self.workdir) / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "leadsel.cli", *argv], stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, env=self.env, cwd=ROOT)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return (proc.returncode, out_path.read_text(encoding="utf-8"),
                err_path.read_text(encoding="utf-8", errors="replace"))

    def check(self, q, out):
        code, text, err = out
        require(code == 0, f"{q['argv'][0]} exited {code}: {err.strip()[-300:]}")
        ref = q["ref"]
        key = json.dumps(ref, sort_keys=True)
        if key not in self._expected:
            self._expected[key] = self.expected(ref)
        want = self._expected[key]
        if ref["call"] == "erdos_renyi":
            require(text == want, "generated edge list differs from the library's")
            return
        if ref.get("csv"):
            rows = list(csv.reader(io.StringIO(text)))
            require(rows[0] == ["node", "info_centrality", "lplus_diag", "certainty_inverse"],
                    f"CSV header {rows[0]}")
            got = [[int(r[0])] + [float(x) for x in r[1:]] for r in rows[1:]]
            want = [[d["node"], d["info_centrality"], d["lplus_diag"], d["certainty_inverse"]]
                    for d in want["nodes"]]
            require(same(got, want), "CSV rows differ from the library result")
            return
        payload = strict_json(text)["payload"]
        require(same(payload, want), f"{ref['call']} payload differs from the library result")

    def graph(self, name):
        return ls.parse_edge_list(Path(self.paths[name]).read_text(encoding="utf-8"))

    def expected(self, ref):
        """The library's result for ``ref``, shaped like the CLI payload."""
        call = ref["call"]
        if call == "centrality":
            kernels = ls.compute_kernels(self.graph(ref["graph"]))
            rep = ls.centrality_report(kernels)
            want = {"kirchhoff_index": kernels.kirchhoff, "nodes": [
                {"node": i, "info_centrality": float(rep.info_centrality[i]),
                 "lplus_diag": float(kernels.lplus[i, i]),
                 "certainty_inverse": float(rep.certainty_inverse[i])}
                for i in range(kernels.n)]}
            if ref.get("full"):
                want["resistance"] = rep.resistance.tolist()
                want["biharmonic"] = rep.biharmonic.tolist()
            return want
        if call in ("closed_form_path_two", "exhaustive_select"):
            g = self.graph(ref["graph"])
            res = (ls.closed_form_path_two(g.n) if call == "closed_form_path_two"
                   else ls.exhaustive_select(g, ref["m"]))
            return {"method": res.method, "m": res.m, "optimal_sets": [list(s) for s in res.optimal_sets],
                    "rho": res.objective.rho, "total_error": res.objective.total_error,
                    "evaluated_count": res.evaluated_count}
        if call == "pairwise_sweep":
            sweep = ls.pairwise_sweep(self.graph(ref["graph"]))
            counts, edges = sweep.histogram(ref["bins"])
            return {"pairs": [{"i": i, "j": j, "rho": float(r)} for (i, j), r in zip(sweep.pairs, sweep.rho)],
                    "histogram": {"counts": counts.tolist(), "bin_edges": edges.tolist()},
                    "max_rho": float(sweep.rho.max()),
                    "argmax_pairs": [list(p) for p in sweep.argmax_pairs()]}
        if call in ("verify_graph", "verify_small_suite"):
            rep = (ls.verify_graph(self.graph(ref["graph"])) if call == "verify_graph"
                   else ls.verify_small_suite())
            return {"checks": rep.checks, "max_rel_dev_noise_free": rep.max_rel_dev_noise_free,
                    "max_rel_dev_gain": rep.max_rel_dev_gain, "violations": []}
        if call == "simulate":
            res = ls.simulate(self.graph(ref["graph"]), ls.LeaderSet(tuple(ref["leaders"])),
                              ls.SimConfig(dt=ref["dt"], steps=ref["steps"], seed=ref["seed"]))
            return {"empirical_total_error": res.empirical_total_error,
                    "analytic_total_error": res.analytic_total_error,
                    "sample_count": res.sample_count, "seed": res.seed_used,
                    "nodes": [{"node": i, "empirical_variance": float(x)}
                              for i, x in enumerate(res.empirical_variance)]}
        if call == "erdos_renyi":
            return ls.serialize_edge_list(ls.erdos_renyi(ref["n"], ref["p"], ref["seed"]))
        raise ValueError(f"unknown reference call {call!r}")


def make(doc, workdir, in_process):
    name = doc["workload"]
    if name == "small-exhaustive":
        return SmallExhaustive()
    if name == "large-graph":
        return LargeGraph()
    if name == "simulate":
        return Simulate()
    return CliCold(doc, workdir, in_process)
