"""Area, timing and wiring estimation (the BUD/PLEST role of §4)."""

from .area import AreaEstimate, estimate_area
from .floorplan import (
    Floorplan,
    WiringEstimate,
    estimate_wiring,
    place_linear,
)
from .qor import DEFAULT_RANKING_TRIPS, QoREstimate, QoRModel
from .timing import TimingEstimate, estimate_clock_period, estimate_timing

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
