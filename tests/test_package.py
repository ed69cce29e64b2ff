import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import leadsel

SRC = str(Path(leadsel.__file__).resolve().parent.parent)
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))

# the public names of a package that imported all of its modules up front
PUBLIC = {
    "BudgetError", "CentralityReport", "ClosedFormError", "DisconnectedGraphError", "DuplicateEdgeError",
    "EdgeFormatError", "ErrorReport", "Gain", "Graph", "GraphError", "GraphKernels", "JointCentralityResult",
    "LeaderSet", "NOISE_FREE", "NodePairs", "NoiseFree", "NonpositiveWeightError", "NumericalDegeneracyError",
    "Objective", "PairSweep", "SelectionResult", "SelfLoopError", "SimConfig", "SimResult", "SpectralError",
    "StabilityError", "VerifyReport", "adjacency", "biharmonic_matrix", "centrality", "centrality_report",
    "certainty_inverse", "closed_form_cycle", "closed_form_cycle_two", "closed_form_path_two", "complete",
    "compute_kernels", "connected_graph_atlas", "cycle", "erdos_renyi", "exhaustive_select", "graphs",
    "greedy_select", "info_centrality", "joint", "joint_centrality", "joint_centrality_two_gain", "kernels",
    "laplacian", "oracle_error_gain", "oracle_error_noise_free", "pairwise_sweep", "parse_edge_list", "path",
    "random_connected_graphs", "resistance_matrix", "selection", "serialize_edge_list", "simulate",
    "single_leader_error", "suites", "verify", "verify_graph", "verify_random_suite", "verify_small_suite",
}
MODULES = {"centrality", "graphs", "joint", "kernels", "selection", "simulate", "suites", "verify"}


def _fresh(code):
    """Run code in a new interpreter and return what it prints as JSON."""
    proc = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_namespace_names_the_same_public_objects():
    assert set(leadsel.__all__) == PUBLIC
    code = ("import json, sys, leadsel; ns = {}; exec('from leadsel import *', ns); "
            "print(json.dumps([[n for n in dir(leadsel) if not n.startswith('_')], sorted(set(ns) - {'__builtins__'}), "
            "sorted(k for k in sys.modules if k.startswith('leadsel'))]))")
    names, star, loaded = _fresh(code)
    assert set(names) == PUBLIC and set(star) == PUBLIC
    assert set(loaded) == {f"leadsel.{m}" for m in MODULES} | {"leadsel"}
    for name in PUBLIC - MODULES:
        obj = getattr(leadsel, name)
        home = getattr(obj, "__module__", None)
        if home and home.startswith("leadsel."):
            assert getattr(sys.modules[home], name) is obj


def test_benchmark_names_resolve_on_the_package():
    # the benchmark's checks call the package as ``ls.<name>``; a name it lost would fail them all
    tree = ast.parse((Path(__file__).resolve().parent.parent / "bench" / "queries.py").read_text())
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "ls"}
    assert "joint_centrality_two_gain" in names
    importlib.import_module("leadsel.cli")
    assert [name for name in sorted(names) if not hasattr(leadsel, name)] == []


# name -> the only modules that may use it: the size dispatch of joint._n_over_rho stays in one place
DISPATCH_OWNERS = {
    "_pair_kernel": {"joint"},
    "single_leader_error": {"joint"},
    "inverse_info_centrality": {"joint", "centrality"},
}


def test_closed_forms_are_picked_by_set_size_in_one_place():
    # a module outside joint that scored sets by size itself would fork the dispatch again
    used = []
    for path in sorted(Path(leadsel.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in DISPATCH_OWNERS and path.stem not in DISPATCH_OWNERS[name]:
                used.append((path.stem, name))
    assert used == []


def test_errors_resolve_from_their_old_modules():
    assert leadsel.selection.BudgetError is leadsel.BudgetError
    assert importlib.import_module("leadsel.simulate").StabilityError is leadsel.StabilityError
    assert leadsel.kernels.SpectralError is leadsel.SpectralError
    assert leadsel.joint.NumericalDegeneracyError is leadsel.NumericalDegeneracyError


def test_simulate_stays_the_function_once_its_module_loads():
    # the import system binds a loaded submodule on the package under its own name
    code = ("import importlib, json, types, leadsel; importlib.import_module('leadsel.simulate'); "
            "a = leadsel.simulate; importlib.import_module('leadsel.selection'); "
            "print(json.dumps([isinstance(a, types.FunctionType), a is leadsel.simulate, "
            "isinstance(leadsel.selection, types.ModuleType)]))")
    assert _fresh(code) == [True, True, True]


@pytest.mark.parametrize("argv, modules", [
    pytest.param(["generate", "cycle", "--n", "5"], {"graphs"}, id="generate"),
    pytest.param(["centrality", "@g"], {"graphs", "kernels", "centrality"}, id="centrality"),
    pytest.param(["select", "@g", "--m", "2"], {"graphs", "kernels", "centrality", "joint", "selection"},
                 id="select"),
    pytest.param(["pairs", "@g"], {"graphs", "kernels", "centrality", "joint", "selection"}, id="pairs"),
    pytest.param(["verify", "@g"], {"graphs", "kernels", "centrality", "joint", "suites", "verify"},
                 id="verify"),
    pytest.param(["simulate", "@g", "--leaders", "0", "--steps", "100"], {"graphs", "kernels", "simulate"},
                 id="simulate"),
])
def test_cli_command_loads_only_its_modules(tmp_path, argv, modules):
    graph = tmp_path / "cycle5.edges"
    graph.write_text("n=5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    argv = [str(graph) if a == "@g" else a for a in argv]
    code = ("import contextlib, io, json, sys; from leadsel.cli import main; "
            f"out = io.StringIO(); cm = contextlib.redirect_stdout(out); cm.__enter__(); code = main({argv!r}); "
            "cm.__exit__(None, None, None); "
            "print(json.dumps([code, sorted(k for k in sys.modules if k.startswith('leadsel'))]))")
    code, loaded = _fresh(code)
    assert code == 0
    assert set(loaded) == {"leadsel", "leadsel.cli"} | {f"leadsel.{m}" for m in modules}


@pytest.mark.parametrize("argv, exit_code", [
    pytest.param(["select", "@g", "--m", "2", "--budget", "1"], 3, id="budget"),
    pytest.param(["simulate", "@g", "--leaders", "0", "--dt", "5"], 5, id="stability"),
])
def test_fresh_cli_process_maps_errors_to_exit_codes(tmp_path, argv, exit_code):
    # the error classes live in graphs, so the CLI maps them without loading their modules
    graph = tmp_path / "cycle6.edges"
    graph.write_text("n=6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n")
    argv = [str(graph) if a == "@g" else a for a in argv]
    proc = subprocess.run([sys.executable, "-m", "leadsel.cli", *argv], env=ENV, capture_output=True, text=True)
    assert proc.returncode == exit_code, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
