"""Command-line interface.

Commands: centrality, select, pairs, verify, simulate, generate. Each report
command returns its graph, its payload and one table of rows, and one emitter
writes them: as JSON (default), which echoes every parsed option under
``parameters``, or as RFC-4180 CSV, the rows under a header of their keys.
Numbers are serialised losslessly (shortest round-trip repr). A report that
holds a non-finite number is written in neither format and exits 2. The
payload of a report is byte-identical across runs for identical inputs and
seed; timing lives outside the payload.

Exit codes: 0 success, 2 input error, 3 evaluation budget exceeded,
4 identity violation, 5 stability violation.
"""

import argparse
import csv
import io
import json
import math
import sys
import time

from . import __version__
from .centrality import centrality_report
from .graphs import (
    Gain,
    GraphError,
    LeaderSet,
    NOISE_FREE,
    Graph,
    complete,
    cycle,
    erdos_renyi,
    is_canonical_cycle,
    is_canonical_path,
    parse_edge_list,
    path,
    serialize_edge_list,
)
from .joint import NumericalDegeneracyError
from .kernels import SpectralError, compute_kernels
from .selection import (
    BudgetError,
    closed_form_cycle,
    closed_form_cycle_two,
    closed_form_path_two,
    exhaustive_select,
    greedy_select,
    pairwise_sweep,
)
from .simulate import SimConfig, StabilityError, simulate
from .verify import DEFAULT_K_VALUES, verify_graph, verify_random_suite, verify_small_suite

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_IDENTITY = 4
EXIT_STABILITY = 5

# The first class (in this order) that an error is an instance of gives the exit code.
EXIT_CODES = {
    BudgetError: EXIT_BUDGET,
    StabilityError: EXIT_STABILITY,
    GraphError: EXIT_INPUT,
    SpectralError: EXIT_INPUT,
    NumericalDegeneracyError: EXIT_INPUT,
    OSError: EXIT_INPUT,
}

SCHEMA_VERSION = "1"

# Parsed fields that pick the command or say how and where to write the report
_NOT_ECHOED = ("command", "func", "format", "out")


def _load_graph(path_arg) -> Graph:
    try:
        with open(path_arg, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GraphError(f"cannot read {path_arg}: {exc}") from exc
    return parse_edge_list(text)


def _mode_from(args):
    if args.mode == "gain":
        if args.k is None:
            raise GraphError("--mode gain requires --k")
        return Gain(args.k)
    return NOISE_FREE


def _sigma(text):
    """--sigma: finite and nonnegative. SimConfig also needs sigma^2 finite."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and nonnegative, got {text}")
    return value


def _positive_sigma(text):
    """--sigma where a report divides by the error, which is 0 when sigma^2 is."""
    value = _sigma(text)
    if value * value == 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}: the error is 0 at sigma^2 = 0")
    return value


def _positive_float(text):
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _seed(text):
    """--seed: numpy's generators take nonnegative seeds only."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text}")
    return value


def _float_list(text):
    return tuple(float(t) for t in text.split(","))


def _shift(node, base):
    return int(node) + base


def _write(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, graph, payload, rows, started):
    """Write the report as JSON, or its rows as CSV under a header of their
    keys; a report holding a non-finite number is written in neither format."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": "leadsel",
        "tool_version": __version__,
        "command": args.command,
        "parameters": {key: value for key, value in vars(args).items() if key not in _NOT_ECHOED},
        "graph": None if graph is None else {"n": graph.n, "edge_count": graph.edge_count},
        "payload": payload,
        "timing_seconds": time.perf_counter() - started,
    }
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise GraphError("the report holds a non-finite number: an input is out of range") from None
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(rows[0].keys())
        writer.writerows(row.values() for row in rows)
        text = buf.getvalue()
    _write(args, text)


def _cmd_centrality(args):
    g = _load_graph(args.graph)
    kernels = compute_kernels(g)
    rep = centrality_report(kernels, args.sigma)
    nodes = [
        {
            "node": _shift(i, args.index_base),
            "info_centrality": float(rep.info_centrality[i]),
            "lplus_diag": float(kernels.lplus[i, i]),
            "certainty_inverse": float(rep.certainty_inverse[i]),
        }
        for i in range(g.n)
    ]
    payload = {"kirchhoff_index": kernels.kirchhoff, "nodes": nodes}
    if args.full:
        payload["resistance"] = rep.resistance.tolist()
        payload["biharmonic"] = rep.biharmonic.tolist()
    return g, payload, nodes


def _closed_form(args, g, mode):
    if args.topology is None:
        raise GraphError("--method closed-form requires --topology {cycle,path}")
    if args.topology == "cycle":
        if not is_canonical_cycle(g):
            raise GraphError("graph is not the canonical unit-weight cycle 0-1-...-0")
        if args.m == 2:
            return closed_form_cycle_two(g.n, mode, sigma=args.sigma)
        if not isinstance(mode, type(NOISE_FREE)):
            raise GraphError("cycle closed form for m != 2 is defined for noise-free leaders")
        return closed_form_cycle(g.n, args.m, sigma=args.sigma)
    if not is_canonical_path(g):
        raise GraphError("graph is not the canonical unit-weight path 0-1-...-(n-1)")
    if args.m != 2 or not isinstance(mode, type(NOISE_FREE)):
        raise GraphError("path closed form is defined for m = 2 noise-free leaders")
    return closed_form_path_two(g.n, sigma=args.sigma)


def _cmd_select(args):
    g = _load_graph(args.graph)
    mode = _mode_from(args)
    if args.method == "exhaustive":
        result = exhaustive_select(g, args.m, mode, sigma=args.sigma, budget=args.budget)
    elif args.method == "greedy":
        result = greedy_select(g, args.m, mode, sigma=args.sigma)
    else:
        result = _closed_form(args, g, mode)
    sets = [[_shift(v, args.index_base) for v in s] for s in result.optimal_sets]
    payload = {
        "method": result.method,
        "m": result.m,
        "mode": args.mode,
        "k": args.k,
        "optimal_sets": sets,
        "rho": result.objective.rho,
        "total_error": result.objective.total_error,
        "evaluated_count": result.evaluated_count,
        "notes": list(result.notes),
    }
    rows = [
        {"optimal_set": " ".join(str(v) for v in s), "rho": result.objective.rho,
         "total_error": result.objective.total_error}
        for s in sets
    ]
    return g, payload, rows


def _read_pair_list(path_arg):
    pairs = []
    with open(path_arg, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if len(tokens) != 2:
                raise GraphError(f"pair list line {lineno}: expected 'u v'")
            try:
                pairs.append((int(tokens[0]), int(tokens[1])))
            except ValueError:
                raise GraphError(f"pair list line {lineno}: node ids must be integers") from None
    if not pairs:
        raise GraphError("pair list is empty")
    return pairs


def _cmd_pairs(args):
    g = _load_graph(args.graph)
    pairs = _read_pair_list(args.pair_list) if args.pair_list else None
    sweep = pairwise_sweep(g, pairs, budget=args.budget)
    counts, edges = sweep.histogram(args.bins)
    base = args.index_base
    rows = [
        {"i": _shift(i, base), "j": _shift(j, base), "rho": float(r)}
        for (i, j), r in zip(sweep.pairs, sweep.rho)
    ]
    payload = {
        "pairs": rows,
        "histogram": {"counts": counts.tolist(), "bin_edges": edges.tolist()},
        "max_rho": float(sweep.rho.max()),
        "argmax_pairs": [[_shift(i, base), _shift(j, base)] for i, j in sweep.argmax_pairs()],
    }
    return g, payload, rows


def _cmd_verify(args):
    g = None
    if args.graph:
        g = _load_graph(args.graph)
        report = verify_graph(g, label=args.graph, m_max=args.m_max, tol=args.tol, k_values=args.k_values)
    elif args.suite == "small":
        report = verify_small_suite(tol=args.tol, k_values=args.k_values)
    elif args.suite == "random":
        report = verify_random_suite(
            count=args.count, n_max=args.n_max, seed=args.seed, tol=args.tol, k_values=args.k_values
        )
    else:
        raise GraphError("verify needs a graph file or --suite {small,random}")
    summary = {
        "checks": report.checks,
        "max_rel_dev_noise_free": report.max_rel_dev_noise_free,
        "max_rel_dev_gain": report.max_rel_dev_gain,
    }
    violations = [
        {"graph": v.graph_label, "set": [_shift(i, args.index_base) for i in v.members], "k": v.k,
         "rel_dev": v.rel_dev}
        for v in report.violations
    ]
    payload = {**summary, "tolerance": report.tolerance, "violations": violations}
    rows = [{**summary, "violations": len(violations)}]
    return g, payload, rows


def _cmd_simulate(args):
    g = _load_graph(args.graph)
    try:
        members = tuple(int(t) for t in args.leaders.split(","))
    except ValueError:
        raise GraphError(f"--leaders must be comma-separated node ids, got {args.leaders!r}") from None
    leaders = LeaderSet(members, _mode_from(args))
    cfg = SimConfig(
        dt=args.dt, steps=args.steps, burn_in=args.burn_in, sigma=args.sigma, seed=args.seed, mu=args.mu
    )
    result = simulate(g, leaders, cfg)
    nodes = [
        {"node": _shift(i, args.index_base), "empirical_variance": float(result.empirical_variance[i]),
         "analytic_variance": float(result.analytic_variance[i])}
        for i in range(g.n)
    ]
    gap = abs(result.empirical_total_error - result.analytic_total_error) / result.analytic_total_error
    payload = {
        "empirical_total_error": result.empirical_total_error,
        "analytic_total_error": result.analytic_total_error,
        "relative_gap": gap,
        "sample_count": result.sample_count,
        "seed": result.seed_used,
        "nodes": nodes,
    }
    return g, payload, nodes


def _generate(args) -> Graph:
    if args.kind != "erdos-renyi":
        return {"cycle": cycle, "path": path, "complete": complete}[args.kind](args.n)
    if args.p is None:
        raise GraphError("erdos-renyi requires --p")
    return erdos_renyi(args.n, args.p, args.seed)


def _add_common(sub, sigma=_sigma):
    """Options shared by the commands that read one graph; ``sigma=None``
    leaves out --sigma for a command whose output does not depend on it."""
    sub.add_argument("graph", help="edge-list file")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None, help="write the report to a file instead of stdout")
    sub.add_argument("--index-base", type=int, choices=(0, 1), default=0,
                     help="node-id base used in output (input files are always 0-indexed)")
    if sigma is not None:
        sub.add_argument("--sigma", type=sigma, default=1.0, help="noise intensity (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leadsel",
        description="Joint centrality and optimal leader selection for noisy tracking networks",
    )
    parser.add_argument("--version", action="version", version=f"leadsel {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("centrality", help="per-node centrality measures")
    _add_common(p)
    p.add_argument("--full", action="store_true", help="include resistance and biharmonic matrices")
    p.set_defaults(func=_cmd_centrality)

    p = subs.add_parser("select", help="optimal leader selection")
    _add_common(p, sigma=_positive_sigma)
    p.add_argument("--m", type=int, required=True, help="number of leaders")
    p.add_argument("--mode", choices=("noise-free", "gain"), default="noise-free")
    p.add_argument("--k", type=float, default=None, help="leader gain (gain mode)")
    p.add_argument("--method", choices=("exhaustive", "greedy", "closed-form"), default="exhaustive")
    p.add_argument("--topology", choices=("cycle", "path"), default=None,
                   help="asserted topology for --method closed-form")
    p.add_argument("--budget", type=int, default=10_000_000, help="max subsets to evaluate")
    p.set_defaults(func=_cmd_select)

    p = subs.add_parser("pairs", help="two-leader joint centrality for every pair")
    _add_common(p, sigma=None)
    p.add_argument("--bins", type=_positive_int, default=10, help="histogram bin count")
    p.add_argument("--pair-list", default=None, help="file of 'u v' lines restricting the sweep")
    p.add_argument("--budget", type=int, default=10_000_000)
    p.set_defaults(func=_cmd_pairs)

    p = subs.add_parser("verify", help="check rho-implied errors against the trace oracles")
    p.add_argument("graph", nargs="?", default=None, help="edge-list file")
    p.add_argument("--suite", choices=("small", "random"), default=None)
    p.add_argument("--count", type=_positive_int, default=20, help="random-suite graph count")
    p.add_argument("--n-max", type=int, default=10, help="random-suite max node count")
    p.add_argument("--seed", type=_seed, default=1, help="random-suite seed")
    p.add_argument("--tol", type=_positive_float, default=1e-8, help="relative tolerance")
    p.add_argument("--m-max", type=_positive_int, default=3, help="largest leader-set size checked")
    p.add_argument("--k-values", type=_float_list, default=DEFAULT_K_VALUES,
                   help="comma-separated gains (default 0.1,1,10,100)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.add_argument("--index-base", type=int, choices=(0, 1), default=0)
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("simulate", help="Euler-Maruyama check of the analytic error")
    _add_common(p, sigma=_positive_sigma)
    p.add_argument("--leaders", required=True, help="comma-separated leader node ids")
    p.add_argument("--mode", choices=("noise-free", "gain"), default="noise-free")
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--steps", type=int, default=2_000_000)
    p.add_argument("--burn-in", type=int, default=None)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--mu", type=float, default=0.0, help="external signal value")
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("generate", help="emit a canonical graph as an edge-list file")
    p.add_argument("kind", choices=("cycle", "path", "complete", "erdos-renyi"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=None, help="edge probability (erdos-renyi)")
    p.add_argument("--seed", type=_seed, default=0, help="seed (erdos-renyi)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_generate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        if args.command == "generate":
            _write(args, serialize_edge_list(args.func(args)))
            return EXIT_OK
        graph, payload, rows = args.func(args)
        _emit(args, graph, payload, rows, started)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))
    if payload.get("violations"):
        first = payload["violations"][0]
        print(
            f"identity violation: graph={first['graph']} set={tuple(first['set'])} "
            f"k={first['k']} rel_dev={first['rel_dev']:.3e}",
            file=sys.stderr,
        )
        return EXIT_IDENTITY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
