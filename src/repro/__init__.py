"""repro — a high-level synthesis library.

A from-scratch reproduction of the complete HLS flow described in
McFarland, Parker & Camposano, "Tutorial on High-Level Synthesis"
(DAC 1988): behavioral compilation, high-level transformations,
scheduling, datapath allocation, module binding, controller synthesis
and RTL generation, plus behavioral/RTL co-simulation for verification.

Quickstart::

    from repro import synthesize
    from repro.scheduling import ResourceConstraints
    from repro.workloads import SQRT_SOURCE

    design = synthesize(
        SQRT_SOURCE, constraints=ResourceConstraints({"fu": 2})
    )
    print(design.report())
"""

__version__ = "1.0.0"

from typing import TYPE_CHECKING

from ._lazy import lazy_exports

# ``import repro`` loads nothing else: the command line parses its
# arguments before a verb imports the flow (see ``_lazy``).
if TYPE_CHECKING:  # pragma: no cover
    from .core import (
        SynthesisOptions,
        SynthesizedDesign,
        synthesize,
        synthesize_cdfg,
    )
    from .lang import compile_source

__getattr__ = lazy_exports(__name__, {
    "core": ("SynthesisOptions", "SynthesizedDesign", "synthesize",
             "synthesize_cdfg"),
    "lang": ("compile_source",),
})

__all__ = [
    "SynthesisOptions",
    "SynthesizedDesign",
    "compile_source",
    "synthesize",
    "synthesize_cdfg",
]
