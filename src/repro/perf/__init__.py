"""Performance engine: metrics, cost model, optimization ladder, tuning."""

from .ablation import (
    AblationResult,
    ablate_depth_consolidation,
    ablate_gc_split_overlap,
    ablate_simd_lanes,
    run_all_ablations,
)
from .cost_model import CostModel, Placement, StepBreakdown, Workload
from .event_sim import CommSimResult, simulate_comm_times
from .hybrid_model import HybridSweepPoint, best_point, sweep_hybrid
from .metrics import mflups, parallel_efficiency, runtime_for_mflups, speedup
from .noise import JitterModel
from .optimization import (
    LADDER,
    LevelEffect,
    OptimizationLevel,
    base_params,
    effect_note,
    ladder_states,
)
from .params import CodeParams
from .scaling import ScalingPoint, strong_scaling, weak_scaling
from .tuner import (
    DepthSweepResult,
    depth_table,
    optimal_depth,
    sweep_ghost_depth,
    tuned_params_for_depth_study,
)

__all__ = [
    "ablate_depth_consolidation",
    "ablate_gc_split_overlap",
    "ablate_simd_lanes",
    "AblationResult",
    "base_params",
    "run_all_ablations",
    "best_point",
    "CodeParams",
    "CommSimResult",
    "CostModel",
    "depth_table",
    "DepthSweepResult",
    "effect_note",
    "HybridSweepPoint",
    "JitterModel",
    "LADDER",
    "ladder_states",
    "LevelEffect",
    "mflups",
    "optimal_depth",
    "OptimizationLevel",
    "parallel_efficiency",
    "Placement",
    "runtime_for_mflups",
    "simulate_comm_times",
    "speedup",
    "StepBreakdown",
    "sweep_ghost_depth",
    "sweep_hybrid",
    "tuned_params_for_depth_study",
    "Workload",
    "ScalingPoint",
    "strong_scaling",
    "weak_scaling",
]
