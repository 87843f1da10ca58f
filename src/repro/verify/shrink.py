"""Failure shrinking and repro-script emission for the fuzzer.

When a differential run over a random DFG fails, the raw failing case
is typically dozens of ops — too big to debug by eye.  This module
wraps :func:`repro.workloads.shrink_recipe` with failure-predicate
plumbing (re-running the differential engine on candidate recipes) and
writes a standalone repro script to ``artifacts/`` that rebuilds the
minimal DFG and exits non-zero while the bug reproduces.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Sequence

from ..core.engine import SynthesisOptions
from ..workloads.random_dfg import DFGRecipe, build_dfg, shrink_recipe
from .differential import DifferentialReport, run_differential


@dataclass
class ShrinkResult:
    """Outcome of shrinking one failing recipe."""

    original: DFGRecipe
    shrunk: DFGRecipe
    #: How many candidate recipes the predicate evaluated.
    attempts: int

    @property
    def removed_ops(self) -> int:
        return self.original.op_count - self.shrunk.op_count


def recipe_fails(recipe: DFGRecipe,
                 schedulers: Sequence[str],
                 allocators: Sequence[str],
                 options: SynthesisOptions | None = None) -> bool:
    """True when the differential engine finds any failure."""
    try:
        report = run_differential(
            lambda: build_dfg(recipe),
            schedulers=schedulers,
            allocators=allocators,
            options=options,
            label=recipe.name,
        )
    except Exception:
        # A candidate the pipeline cannot even process still counts as
        # failing only if the *original* failure was an uncaught crash;
        # for contract/divergence failures, treat it as not reproducing.
        return False
    return not report.ok


def shrink_failure(
    recipe: DFGRecipe,
    still_fails: Callable[[DFGRecipe], bool],
    min_ops: int = 1,
) -> ShrinkResult:
    """Shrink ``recipe`` while ``still_fails`` keeps returning True."""
    attempts = 0

    def counted(candidate: DFGRecipe) -> bool:
        nonlocal attempts
        attempts += 1
        return still_fails(candidate)

    shrunk = shrink_recipe(recipe, counted, min_ops=min_ops)
    return ShrinkResult(recipe, shrunk, attempts)


_SCRIPT_TEMPLATE = '''\
#!/usr/bin/env python
"""Auto-generated fuzzer repro.{notes}

Rebuilds the minimal failing DFG and re-runs the differential engine
over the combos that failed.  Exits 1 while the failure reproduces,
0 once it is fixed.

Run with the repro package importable, e.g.::

    PYTHONPATH=src python {basename}
"""

import sys

from repro.verify import run_differential
from repro.workloads import DFGRecipe, build_dfg

RECIPE = {recipe}

SCHEDULERS = {schedulers}
ALLOCATORS = {allocators}
FU_LIMIT = {fu_limit}


def main() -> int:
    options = None
    if FU_LIMIT is not None:
        from repro.core import SynthesisOptions
        from repro.scheduling import ResourceConstraints

        options = SynthesisOptions(
            constraints=ResourceConstraints({{"fu": FU_LIMIT}})
        )
    report = run_differential(
        lambda: build_dfg(RECIPE),
        schedulers=SCHEDULERS,
        allocators=ALLOCATORS,
        options=options,
        label=RECIPE.name,
    )
    print(report.render())
    return 1 if not report.ok else 0


if __name__ == "__main__":
    sys.exit(main())
'''


def write_repro_script(
    recipe: DFGRecipe,
    schedulers: Sequence[str],
    allocators: Sequence[str],
    path: str,
    notes: str = "",
    fu_limit: int | None = None,
) -> str:
    """Write a standalone repro script for a shrunk failure.

    Returns the path written.  The script depends only on the public
    ``repro`` API, so it stays valid as long as the recipe still
    triggers the bug.  The parent directory is created here, on the
    first actual write — a fuzzing run with zero failures must leave
    no ``artifacts/`` directory behind (pinned by tests).
    """
    body = _SCRIPT_TEMPLATE.format(
        notes=("\n\n" + notes) if notes else "",
        basename=os.path.basename(path),
        recipe=recipe.render(),
        schedulers=sorted(schedulers),
        allocators=sorted(allocators),
        fu_limit=fu_limit,
    )
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        handle.write(body)
    return path


def describe_failure(report: DifferentialReport) -> str:
    """One-line summary of a failing differential report."""
    failures = report.failures()
    if not failures:
        return "no failure"
    first = failures[0]
    return (
        f"{len(failures)} failing combo(s); first: "
        f"{first.scheduler} x {first.allocator} "
        f"status={first.status} stage={first.stage}"
    )
