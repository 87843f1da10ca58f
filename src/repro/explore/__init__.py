"""Design-space exploration (paper §1.2 / §3.1.1 iteration loops)."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .directives import (
    DirectiveConfig,
    DirectiveExplorationResult,
    DirectivePoint,
    default_directive_space,
    explore_directives,
)
from .dse import (
    DesignPoint,
    ExplorationResult,
    explore_fu_range,
    measure_cycles,
    search_for_latency,
)

# The process pool loads with the first sweep that asks for workers.
if TYPE_CHECKING:  # pragma: no cover
    from .parallel import ParallelExplorer

__getattr__ = lazy_exports(__name__, {"parallel": ("ParallelExplorer",)})

__all__ = [
    "DesignPoint",
    "DirectiveConfig",
    "DirectiveExplorationResult",
    "DirectivePoint",
    "ExplorationResult",
    "ParallelExplorer",
    "default_directive_space",
    "explore_directives",
    "explore_fu_range",
    "measure_cycles",
    "search_for_latency",
]
