"""Scheduling: assigning operations to control steps (paper §3.1).

Six scheduler families, matching the tutorial's survey:

================  ==========================================  ==========
class             paper reference                              style
================  ==========================================  ==========
ASAPScheduler     CMUDA / MIMOLA / Flamel (§3.1.2, Fig. 3)     constructive, local
ListScheduler     BUD / Elf / ISYN (§3.1.2, Fig. 4)            constructive, priority
ForceDirected…    HAL (§3.1.2, Fig. 5)                         global, time-constrained
FreedomBased…     MAHA (§3.1.2)                                global, allocates FUs too
BranchAndBound…   EXPL + bounding (§3.1.2)                     transformational, optimal
YSCScheduler      Yorktown Silicon Compiler (§3.1.1)           transformational, heuristic
================  ==========================================  ==========
"""

from .alap import ALAPScheduler
from .annealing import SimulatedAnnealingScheduler
from .asap import ASAPScheduler
from .base import (
    DEFAULT_TYPED_DELAYS,
    ResourceConstraints,
    ResourceModel,
    Schedule,
    Scheduler,
    SchedulingProblem,
    TimingConstraint,
    TypedFUModel,
    UniversalFUModel,
    dependence_offset,
    total_steps,
)
from .force_directed import ForceDirectedScheduler, distribution_graph
from .freedom_based import FreedomBasedScheduler
from .list_scheduler import (
    PRIORITY_FUNCTIONS,
    ListScheduler,
    mobility_priority,
    path_length_priority,
    urgency_priority,
)
from .mobility import TimeFrames, compute_time_frames, unconstrained_asap
from .transformational import (
    BranchAndBoundScheduler,
    ExhaustiveScheduler,
    YSCScheduler,
)

__all__ = [
    "ALAPScheduler",
    "ASAPScheduler",
    "BranchAndBoundScheduler",
    "DEFAULT_TYPED_DELAYS",
    "ExhaustiveScheduler",
    "ForceDirectedScheduler",
    "FreedomBasedScheduler",
    "ListScheduler",
    "PRIORITY_FUNCTIONS",
    "ResourceConstraints",
    "ResourceModel",
    "Schedule",
    "Scheduler",
    "SchedulingProblem",
    "SimulatedAnnealingScheduler",
    "TimeFrames",
    "TimingConstraint",
    "TypedFUModel",
    "UniversalFUModel",
    "YSCScheduler",
    "compute_time_frames",
    "dependence_offset",
    "distribution_graph",
    "mobility_priority",
    "path_length_priority",
    "total_steps",
    "unconstrained_asap",
    "urgency_priority",
]
