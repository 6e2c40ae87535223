"""repro — Efficient Parallel Shortest-Paths in Digraphs with a Separator
Decomposition (Edith Cohen, SPAA 1993 / J. Algorithms 21(2), 1996).

Full reproduction of the paper's system: separator decomposition trees, the
distance-preserving augmentation E⁺ (Algorithm 4.1 behind the oracle;
Algorithm 4.3 and Remark 4.4 as ``augment_doubling`` and
``augment_doubling_shared``), the
level-scheduled parallel Bellman–Ford query engine (§3.2), the boolean
reachability specialization, planar/hammock machinery (§6), applications
(path algebras over semirings, two-variable linear inequalities) and a PRAM
work/depth cost model that makes the paper's Table 1 measurable.

Quick start::

    import numpy as np
    from repro import OracleConfig, ShortestPathOracle
    from repro.workloads.generators import grid_digraph
    from repro.separators.grid import decompose_grid

    g = grid_digraph((32, 32), np.random.default_rng(0))
    tree = decompose_grid(g, (32, 32))
    oracle = ShortestPathOracle.build(g, tree)
    dist = oracle.distances([0, 17, 513])

    # Every knob goes through one OracleConfig: mode picks the tier,
    # executor the pool a query batch's rows fan out on.
    cfg = OracleConfig(mode="auto", executor="thread:2")
    oracle = ShortestPathOracle.build(g, tree, config=cfg)
    with oracle.query_engine(cfg) as engine:
        dist = engine.query([0, 17, 513])
"""

from .core.api import ShortestPathOracle
from .core.augment import Augmentation, NegativeCycleDetected, NodeDistances
from .core.config import OracleConfig
from .core.digraph import WeightedDigraph
from .core.doubling import augment_doubling
from .core.doubling_shared import augment_doubling_shared
from .core.leaves_up import augment_leaves_up
from .core.negcycle import find_negative_cycle, has_negative_cycle
from .core.paths import reconstruct_path, shortest_path_tree
from .core.query import QueryEngine
from .core.reach import reachability_augmentation, reachable_from, transitive_closure
from .core.scheduler import PhaseSchedule, build_schedule
from .core.semiring import BOOLEAN, MAX_MIN, MIN_MAX, MIN_PLUS, SEMIRINGS, Semiring
from .core.septree import (
    DecompositionError,
    SeparatorTree,
    SepTreeNode,
    build_separator_tree,
)
from .core.sssp import measured_diameter, sssp_naive, sssp_scheduled
from .core.validation import ValidationReport, validate_pipeline
from .core.witnesses import WitnessOracle
from .pram.machine import Ledger

__version__ = "1.0.0"

__all__ = [
    "ShortestPathOracle",
    "OracleConfig",
    "WeightedDigraph",
    "SeparatorTree",
    "SepTreeNode",
    "build_separator_tree",
    "DecompositionError",
    "Augmentation",
    "NodeDistances",
    "NegativeCycleDetected",
    "augment_leaves_up",
    "augment_doubling",
    "augment_doubling_shared",
    "PhaseSchedule",
    "build_schedule",
    "sssp_naive",
    "sssp_scheduled",
    "QueryEngine",
    "measured_diameter",
    "WitnessOracle",
    "ValidationReport",
    "validate_pipeline",
    "shortest_path_tree",
    "reconstruct_path",
    "has_negative_cycle",
    "find_negative_cycle",
    "reachability_augmentation",
    "reachable_from",
    "transitive_closure",
    "Semiring",
    "SEMIRINGS",
    "MIN_PLUS",
    "BOOLEAN",
    "MAX_MIN",
    "MIN_MAX",
    "Ledger",
]
