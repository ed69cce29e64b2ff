"""Joint centrality of node sets and optimal leader selection for noisy
leader-follower tracking networks on undirected connected graphs."""

__version__ = "0.1.0"

from .centrality import (
    CentralityReport,
    biharmonic_matrix,
    centrality_report,
    certainty_inverse,
    info_centrality,
    resistance_matrix,
)
from .graphs import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    EdgeFormatError,
    Gain,
    Graph,
    GraphError,
    LeaderSet,
    NOISE_FREE,
    NoiseFree,
    NonpositiveWeightError,
    SelfLoopError,
    adjacency,
    complete,
    cycle,
    erdos_renyi,
    laplacian,
    parse_edge_list,
    path,
    serialize_edge_list,
)
from .joint import (
    JointCentralityResult,
    NumericalDegeneracyError,
    joint_centrality,
    joint_centrality_two,
    joint_centrality_two_gain,
    n_inverse_entries,
    single_leader_error,
)
from .kernels import (
    ErrorReport,
    GraphKernels,
    SpectralError,
    compute_kernels,
    oracle_error_gain,
    oracle_error_noise_free,
)
from .selection import (
    BudgetError,
    ClosedFormError,
    NodePairs,
    Objective,
    PairSweep,
    SelectionResult,
    closed_form_cycle,
    closed_form_cycle_two,
    closed_form_path_two,
    exhaustive_select,
    greedy_select,
    pairwise_sweep,
    tridiagonal_chain_trace,
)
from .simulate import SimConfig, SimResult, StabilityError, simulate
from .suites import connected_graph_atlas, random_connected_graphs
from .verify import VerifyReport, verify_graph, verify_random_suite, verify_small_suite
