"""Instrumented Bellman-Ford variants with exact relaxation accounting.

Single-source shortest paths with negative edge weights: the basic fixed-pass
engine, the adaptive changed-vertices engine, the two-DAG partitioned engine,
and its randomized-ordering variant, plus negative-cycle detection, instance
generators, permutation statistics, and an exact verification oracle.
"""

from .engines import (
    RunStats,
    SsspState,
    adaptive_iterations,
    basic_passes,
    run_adaptive,
    run_basic,
    run_randomized,
    run_yen,
    yen_iterations,
)
from .generators import (
    GeneratorSpec,
    adversarial_ordering,
    build_graph,
    complete_over_path,
    random_graph,
    worst_case_path,
)
from .graph import (
    Edge,
    EdgePartition,
    Graph,
    Ordering,
    identity_ordering,
    partition_edges,
    random_ordering,
)
from .negcycle import (
    CycleVerdict,
    dense_relaxation_budget,
    detect_cycle_in_parent_graph,
    detection_start,
    iteration_cap,
    iteration_threshold,
    monte_carlo_dense_detect,
    run_with_detection,
)
from .oracle import OracleResult, certify, floyd_warshall
from .permstats import count_local_minima, local_minima_tail_threshold

__version__ = "0.1.0"

__all__ = [
    "CycleVerdict",
    "Edge",
    "EdgePartition",
    "GeneratorSpec",
    "Graph",
    "OracleResult",
    "Ordering",
    "RunStats",
    "SsspState",
    "adaptive_iterations",
    "adversarial_ordering",
    "basic_passes",
    "build_graph",
    "certify",
    "complete_over_path",
    "count_local_minima",
    "dense_relaxation_budget",
    "detect_cycle_in_parent_graph",
    "detection_start",
    "floyd_warshall",
    "identity_ordering",
    "iteration_cap",
    "iteration_threshold",
    "local_minima_tail_threshold",
    "monte_carlo_dense_detect",
    "partition_edges",
    "random_graph",
    "random_ordering",
    "run_adaptive",
    "run_basic",
    "run_randomized",
    "run_with_detection",
    "run_yen",
    "worst_case_path",
    "yen_iterations",
]
