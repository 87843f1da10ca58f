"""End-to-end synthesis engine and design container."""

from .design import SynthesizedDesign
from .engine import (
    ALLOCATORS,
    SCHEDULERS,
    ScheduleMemo,
    SynthesisCache,
    SynthesisOptions,
    clear_synthesis_cache,
    lookup_design,
    record_design,
    source_digest,
    synthesis_cache,
    synthesize,
    synthesize_cdfg,
)
from .incremental import (
    ResynthesisReport,
    differential_verify,
    resynthesize,
    resynthesize_from_cache,
)

__all__ = [
    "ALLOCATORS",
    "SCHEDULERS",
    "ResynthesisReport",
    "ScheduleMemo",
    "SynthesisCache",
    "SynthesisOptions",
    "SynthesizedDesign",
    "clear_synthesis_cache",
    "differential_verify",
    "lookup_design",
    "record_design",
    "resynthesize",
    "resynthesize_from_cache",
    "source_digest",
    "synthesis_cache",
    "synthesize",
    "synthesize_cdfg",
]
