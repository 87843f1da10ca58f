"""Stage-contract checking and differential verification.

This package answers "did the pipeline do something legal?" three ways:

* **contracts** (:func:`verify_design`) — pure checkers over a
  finished :class:`~repro.core.design.SynthesizedDesign`, one per
  pipeline stage, returning structured :class:`Violation` records
  instead of raising;
* **differential** (:func:`run_differential`,
  :func:`check_all_paths`) — every scheduler × allocator combination
  (and every paired code path: cached/uncached, serial/parallel)
  must agree with the behavioral reference,
  with failures localized to the first diverging stage;
* **fuzzing** (:func:`fuzz_seeds`, :func:`fuzz_corpus`) — seeded
  random DFGs through the full matrix, plus a mutational,
  coverage-guided loop over a persisted corpus
  (:mod:`repro.verify.corpus`); failing cases are shrunk to minimal
  recipes and saved as standalone repro scripts.

The checkers here deliberately re-derive stage legality independently
of each stage's own raising ``validate()`` method, so the two
implementations cross-check each other.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .contracts import (
    CONTRACTS,
    check_allocation,
    check_binding,
    check_controller,
    check_netlist,
    check_schedule,
    verify_design,
)
from .violations import STAGE_ORDER, VerificationReport, Violation

# The differential engine and the fuzzers load with their first use.
if TYPE_CHECKING:  # pragma: no cover
    from .corpus import (
        MUTATORS,
        TIERS,
        CaseResult,
        Corpus,
        CorpusCase,
        CorpusEntry,
        CorpusFinding,
        CorpusReport,
        FuzzTier,
        MinimizeReport,
        ReplayReport,
        ReplayRow,
        default_combos,
        evaluate_case,
        fixed_seed_cases,
        fuzz_corpus,
        minimize_corpus,
        mutate_case,
        replay_corpus,
        seed_case,
    )
    from .differential import (
        DIFF_STAGE_ORDER,
        ComboResult,
        DifferentialReport,
        PathResult,
        check_all_paths,
        check_cached_paths,
        check_parallel_paths,
        first_diverging_stage,
        run_differential,
    )
    from .fuzz import FuzzFailure, FuzzReport, check_seed, fuzz_seeds
    from .shrink import (
        ShrinkResult,
        describe_failure,
        recipe_fails,
        shrink_failure,
        write_repro_script,
    )

__getattr__ = lazy_exports(__name__, {
    "corpus": ("MUTATORS", "TIERS", "CaseResult", "Corpus", "CorpusCase",
               "CorpusEntry", "CorpusFinding", "CorpusReport", "FuzzTier",
               "MinimizeReport", "ReplayReport", "ReplayRow",
               "default_combos", "evaluate_case", "fixed_seed_cases",
               "fuzz_corpus", "minimize_corpus", "mutate_case",
               "replay_corpus", "seed_case"),
    "differential": ("DIFF_STAGE_ORDER", "ComboResult", "DifferentialReport",
                     "PathResult", "check_all_paths", "check_cached_paths",
                     "check_parallel_paths", "first_diverging_stage",
                     "run_differential"),
    "fuzz": ("FuzzFailure", "FuzzReport", "check_seed", "fuzz_seeds"),
    "shrink": ("ShrinkResult", "describe_failure", "recipe_fails",
               "shrink_failure", "write_repro_script"),
})

__all__ = [
    "CONTRACTS",
    "DIFF_STAGE_ORDER",
    "MUTATORS",
    "STAGE_ORDER",
    "TIERS",
    "CaseResult",
    "ComboResult",
    "Corpus",
    "CorpusCase",
    "CorpusEntry",
    "CorpusFinding",
    "CorpusReport",
    "DifferentialReport",
    "FuzzFailure",
    "FuzzReport",
    "FuzzTier",
    "MinimizeReport",
    "PathResult",
    "ReplayReport",
    "ReplayRow",
    "ShrinkResult",
    "VerificationReport",
    "Violation",
    "check_all_paths",
    "check_allocation",
    "check_binding",
    "check_cached_paths",
    "check_controller",
    "check_netlist",
    "check_parallel_paths",
    "check_schedule",
    "check_seed",
    "default_combos",
    "describe_failure",
    "evaluate_case",
    "first_diverging_stage",
    "fixed_seed_cases",
    "fuzz_corpus",
    "fuzz_seeds",
    "minimize_corpus",
    "mutate_case",
    "recipe_fails",
    "replay_corpus",
    "run_differential",
    "seed_case",
    "shrink_failure",
    "verify_design",
    "write_repro_script",
]
