"""Workloads: the paper's examples and the classic HLS benchmark kernels."""

from .diffeq import DIFFEQ_SOURCE, diffeq_cdfg, diffeq_inputs
from .figures import fig3_cdfg, fig5_cdfg, fig6_cdfg
from .filters import (
    ar_lattice_cdfg,
    ewf_cdfg,
    fir_block_cdfg,
    fir_cdfg,
    fir_source,
)
from .random_dfg import (
    RECIPE_KINDS,
    RECIPE_WIDTHS,
    DFGRecipe,
    RandomDFGSpec,
    build_dfg,
    dfg_recipe,
    random_dfg,
    recipe_word,
    shrink_recipe,
)
from .sqrt import SQRT_SOURCE, sqrt_cdfg

__all__ = [
    "DFGRecipe",
    "DIFFEQ_SOURCE",
    "RECIPE_KINDS",
    "RECIPE_WIDTHS",
    "RandomDFGSpec",
    "SQRT_SOURCE",
    "ar_lattice_cdfg",
    "build_dfg",
    "dfg_recipe",
    "diffeq_cdfg",
    "diffeq_inputs",
    "ewf_cdfg",
    "fig3_cdfg",
    "fig5_cdfg",
    "fig6_cdfg",
    "fir_block_cdfg",
    "fir_cdfg",
    "fir_source",
    "random_dfg",
    "recipe_word",
    "shrink_recipe",
]
