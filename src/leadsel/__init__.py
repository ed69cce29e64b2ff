"""Joint centrality of node sets and optimal leader selection for noisy
leader-follower tracking networks on undirected connected graphs.

The namespace is lazy: ``leadsel.Graph`` imports ``leadsel.graphs`` on first
use, and so on for every public name below (PEP 562). A command-line process
thus compiles and runs only the modules its command needs.
"""

# private aliases, so that dir(leadsel) lists the package's own names only
import importlib as _importlib
import sys as _sys
import types as _types

__version__ = "0.1.0"

# submodule -> the public names the package takes from it
_EXPORTS = {
    "centrality": ("CentralityReport", "biharmonic_matrix", "centrality_report", "certainty_inverse",
                   "info_centrality", "resistance_matrix"),
    "graphs": ("BudgetError", "DisconnectedGraphError", "DuplicateEdgeError", "EdgeFormatError", "Gain",
               "Graph", "GraphError", "LeaderSet", "NOISE_FREE", "NoiseFree", "NonpositiveWeightError",
               "NumericalDegeneracyError", "SelfLoopError", "SpectralError", "StabilityError", "adjacency",
               "complete", "cycle", "erdos_renyi", "laplacian", "parse_edge_list", "path",
               "serialize_edge_list"),
    "joint": ("JointCentralityResult", "joint_centrality", "joint_centrality_two_gain", "single_leader_error"),
    "kernels": ("ErrorReport", "GraphKernels", "compute_kernels", "oracle_error_gain", "oracle_error_noise_free"),
    "selection": ("ClosedFormError", "NodePairs", "Objective", "PairSweep", "SelectionResult",
                  "closed_form_cycle", "closed_form_cycle_two", "closed_form_path_two", "exhaustive_select",
                  "greedy_select", "pairwise_sweep"),
    "simulate": ("SimConfig", "SimResult", "simulate"),
    "suites": ("connected_graph_atlas", "random_connected_graphs"),
    "verify": ("VerifyReport", "verify_graph", "verify_random_suite", "verify_small_suite"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# the submodules are public attributes too, as a package that imports them all has them
__all__ = sorted([*_HOME, *_EXPORTS])


def __getattr__(name):
    if name in _HOME:
        value = getattr(_importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = _importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Namespace(_types.ModuleType):
    """Keeps ``leadsel.simulate`` the function: importing a submodule binds
    it on the package, and the simulate module shares its function's name."""

    def __setattr__(self, name, value):
        if isinstance(value, _types.ModuleType) and name in _HOME:
            value = getattr(value, name)
        super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Namespace
