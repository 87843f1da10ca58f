"""Area, timing and wiring estimation (the BUD/PLEST role of §4)."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .area import AreaEstimate, estimate_area
from .qor import DEFAULT_RANKING_TRIPS, QoREstimate, QoRModel
from .timing import TimingEstimate, estimate_clock_period, estimate_timing

# Floorplanning loads with its first use.
if TYPE_CHECKING:  # pragma: no cover
    from .floorplan import (
        Floorplan,
        WiringEstimate,
        estimate_wiring,
        place_linear,
    )

__getattr__ = lazy_exports(__name__, {
    "floorplan": ("Floorplan", "WiringEstimate", "estimate_wiring",
                  "place_linear"),
})

__all__ = [
    "AreaEstimate",
    "DEFAULT_RANKING_TRIPS",
    "Floorplan",
    "QoREstimate",
    "QoRModel",
    "TimingEstimate",
    "WiringEstimate",
    "estimate_area",
    "estimate_clock_period",
    "estimate_timing",
    "estimate_wiring",
    "place_linear",
]
