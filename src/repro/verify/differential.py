"""Differential verification: many implementations, one behavior.

The flow has many alternative code paths that must agree:

* every registered scheduler × allocator combination must synthesize a
  design whose RTL simulation matches the behavioral reference
  (:func:`run_differential`);
* the cached and uncached synthesis paths must produce identical
  stage decisions (:func:`check_cached_paths`);
* the serial and process-pool exploration paths must produce identical
  design points (:func:`check_parallel_paths`).

Each check reports the *first diverging stage* with a machine-readable
diff, so a failure points at the responsible pipeline layer instead of
just "outputs differ".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

from ..core.design import SynthesizedDesign
from ..core.engine import (
    ALLOCATORS,
    SCHEDULERS,
    SynthesisOptions,
    synthesize,
    synthesize_cdfg,
)
from ..errors import (
    AllocationError,
    BindingError,
    ControllerError,
    HLSError,
    SchedulingError,
)
from ..ir.cdfg import CDFG
from ..lang import compile_source
from ..sim.behavior import BehavioralSimulator
from ..sim.equivalence import default_vectors
from ..sim.rtl_sim import RTLSimulator
from .contracts import verify_design
from .violations import Violation

#: Stage sequence the differential engine localizes failures to —
#: contract stages plus the phases that bracket them.
DIFF_STAGE_ORDER: tuple[str, ...] = (
    "transforms",
    "scheduling",
    "allocation",
    "binding",
    "controller",
    "netlist",
    "rtl",
)

_ERROR_STAGES: tuple[tuple[type, str], ...] = (
    (SchedulingError, "scheduling"),
    (AllocationError, "allocation"),
    (BindingError, "binding"),
    (ControllerError, "controller"),
)

Workload = "str | CDFG | Callable[[], CDFG]"


def _fresh_cdfg(workload) -> CDFG:
    """A fresh CDFG per combo — synthesis mutates its input."""
    if isinstance(workload, str):
        return compile_source(workload)
    if isinstance(workload, CDFG):
        from ..transforms import clone_cdfg

        return clone_cdfg(workload)
    return workload()


@dataclass
class ComboResult:
    """Outcome of one scheduler × allocator differential run."""

    scheduler: str
    allocator: str
    #: "ok", "violations" (contracts failed), "divergence" (outputs
    #: differ from the behavioral reference) or "error" (synthesis
    #: raised).
    status: str = "ok"
    #: First diverging stage (one of :data:`DIFF_STAGE_ORDER`).
    stage: str | None = None
    violations: list[Violation] = field(default_factory=list)
    #: Machine-readable divergence details.
    diff: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def render(self) -> str:
        label = f"{self.scheduler} x {self.allocator}"
        if self.ok:
            return f"  ok         {label}"
        detail = f" [{self.stage}]" if self.stage else ""
        extra = ""
        if self.status == "violations":
            kinds = sorted({v.kind for v in self.violations})
            extra = f" kinds={kinds}"
        elif self.diff:
            extra = f" diff={self.diff}"
        return f"  {self.status:<10} {label}{detail}{extra}"


@dataclass
class DifferentialReport:
    """All combo results for one workload."""

    workload: str
    combos: list[ComboResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(combo.ok for combo in self.combos)

    def failures(self) -> list[ComboResult]:
        return [combo for combo in self.combos if not combo.ok]

    def render(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        lines = [
            f"differential on '{self.workload}': {verdict} "
            f"({len(self.combos)} combos, "
            f"{len(self.failures())} failing)"
        ]
        lines.extend(combo.render() for combo in self.combos)
        return "\n".join(lines)


def _reference_outputs(reference: CDFG,
                       vectors: Sequence[Mapping]) -> list[dict]:
    return [
        BehavioralSimulator(reference).run(dict(inputs))
        for inputs in vectors
    ]


def _output_diff(vector, expected: dict, actual: dict) -> dict:
    """First differing output of one vector, machine-readable."""
    for name in sorted(set(expected) | set(actual)):
        if expected.get(name) != actual.get(name):
            return {
                "vector": dict(vector),
                "output": name,
                "expected": expected.get(name),
                "actual": actual.get(name),
            }
    return {}


def run_differential(
    workload,
    schedulers: Sequence[str] | None = None,
    allocators: Sequence[str] | None = None,
    *,
    options: SynthesisOptions | None = None,
    vectors: Sequence[Mapping] | None = None,
    vector_count: int = 3,
    label: str | None = None,
) -> DifferentialReport:
    """Run one workload through every scheduler × allocator combination.

    Args:
        workload: BSL source text, a CDFG (cloned per combo), or a
            zero-argument factory returning a fresh CDFG.
        schedulers: scheduler names (default: every registered one).
        allocators: allocator names (default: every registered one).
        options: base options; scheduler/allocator are overridden per
            combo.
        vectors: input vectors; generated deterministically otherwise.
        vector_count: generated vector count when ``vectors`` is None.
        label: workload name for the report (default: the CDFG's name).

    The behavioral interpreter on the *unoptimized* workload is the
    reference; every combo must pass all stage contracts and match the
    reference on every vector.
    """
    if schedulers is None:
        schedulers = sorted(SCHEDULERS)
    if allocators is None:
        allocators = sorted(ALLOCATORS)
    options = options or SynthesisOptions()

    reference = _fresh_cdfg(workload)
    if vectors is None:
        # Narrowing under an assume contract is only equivalence-
        # preserving inside the contract, so generated vectors must
        # honor it (explicit vectors are the caller's responsibility).
        contracts = {
            name: (lo, hi)
            for name, lo, hi in (options.assume_ranges or ())
        }
        vectors = default_vectors(
            reference, count=vector_count, assume=contracts or None
        )
    expected = _reference_outputs(reference, vectors)

    report = DifferentialReport(
        workload=label or reference.name
    )
    for scheduler in schedulers:
        for allocator in allocators:
            combo = ComboResult(scheduler, allocator)
            report.combos.append(combo)
            combo_options = replace(
                options, scheduler=scheduler, allocator=allocator
            )
            try:
                design = synthesize_cdfg(
                    _fresh_cdfg(workload), combo_options
                )
            except HLSError as error:
                combo.status = "error"
                combo.stage = next(
                    (stage for cls, stage in _ERROR_STAGES
                     if isinstance(error, cls)),
                    "transforms",
                )
                combo.diff = {"error": str(error)}
                continue

            contract = verify_design(design)
            if not contract.ok:
                combo.status = "violations"
                combo.stage = contract.first_bad_stage()
                combo.violations = list(contract.violations)
                continue

            # Transform stage: the optimized CDFG must still compute
            # the reference function.
            for inputs, want in zip(vectors, expected):
                got = BehavioralSimulator(design.cdfg).run(dict(inputs))
                if got != want:
                    combo.status = "divergence"
                    combo.stage = "transforms"
                    combo.diff = _output_diff(inputs, want, got)
                    break
            if not combo.ok:
                continue

            # RTL stage: the synthesized machine must too.
            for inputs, want in zip(vectors, expected):
                got = RTLSimulator(design).run(dict(inputs))
                if got != want:
                    combo.status = "divergence"
                    combo.stage = "rtl"
                    combo.diff = _output_diff(inputs, want, got)
                    break
    return report


# ----------------------------------------------------------------------
# Paired-path checks (same options, two code paths)
# ----------------------------------------------------------------------


@dataclass
class PathResult:
    """Outcome of comparing two code paths that must agree exactly."""

    name: str
    ok: bool = True
    #: First diverging stage (or measurement field) when not ok.
    stage: str | None = None
    diff: dict = field(default_factory=dict)

    def render(self) -> str:
        if self.ok:
            return f"  ok         {self.name}"
        return f"  divergence {self.name} [{self.stage}] {self.diff}"


def first_diverging_stage(
    left: SynthesizedDesign, right: SynthesizedDesign
) -> tuple[str, dict] | None:
    """Compare two designs stage by stage, in pipeline order.

    Returns ``(stage, diff)`` for the first stage whose decision
    signatures differ, or None when all stages agree.
    """
    left_sigs = left.stage_signatures()
    right_sigs = right.stage_signatures()
    for stage in ("scheduling", "allocation", "binding", "controller"):
        if left_sigs[stage] != right_sigs[stage]:
            return stage, {
                "left": repr(left_sigs[stage]),
                "right": repr(right_sigs[stage]),
            }
    return None


def check_cached_paths(source: str,
                       options: SynthesisOptions | None = None,
                       procedure: str | None = None) -> PathResult:
    """Cached-vs-uncached synthesis must make identical decisions.

    Runs the pipeline uncached, then twice through the process-global
    cache (miss then hit), and compares stage signatures pairwise.
    """
    options = options or SynthesisOptions()
    result = PathResult("cached-vs-uncached")
    uncached = synthesize(source, procedure, options, use_cache=False)
    miss = synthesize(source, procedure, options, use_cache=True)
    hit = synthesize(source, procedure, options, use_cache=True)
    for label, candidate in (("cache-miss", miss), ("cache-hit", hit)):
        divergence = first_diverging_stage(uncached, candidate)
        if divergence is not None:
            stage, diff = divergence
            diff["path"] = label
            return PathResult(result.name, False, stage, diff)
    return result


def check_parallel_paths(source: str, limits: Sequence[int],
                         options: SynthesisOptions | None = None,
                         n_jobs: int = 2) -> PathResult:
    """Serial and process-pool exploration must yield the same points.

    Compares the measured (constraints, cycles, area, clock) tuple of
    every design point between ``n_jobs=1`` and ``n_jobs>1`` sweeps;
    caching is disabled so both paths really run.
    """
    from ..explore.dse import explore_fu_range

    serial = explore_fu_range(source, list(limits), options=options,
                              n_jobs=1, use_cache=False)
    parallel = explore_fu_range(source, list(limits), options=options,
                                n_jobs=n_jobs, use_cache=False)
    result = PathResult("serial-vs-parallel")
    if len(serial.points) != len(parallel.points):
        return PathResult(result.name, False, "exploration", {
            "serial_points": len(serial.points),
            "parallel_points": len(parallel.points),
        })
    for left, right in zip(serial.points, parallel.points):
        for fieldname in ("cycles", "area", "clock_ns"):
            if getattr(left, fieldname) != getattr(right, fieldname):
                return PathResult(result.name, False, fieldname, {
                    "constraints": str(left.constraints),
                    "serial": getattr(left, fieldname),
                    "parallel": getattr(right, fieldname),
                })
        divergence = first_diverging_stage(left.design, right.design)
        if divergence is not None:
            stage, diff = divergence
            diff["constraints"] = str(left.constraints)
            return PathResult(result.name, False, stage, diff)
    return result


def check_all_paths(source: str,
                    limits: Sequence[int] = (1, 2, 3),
                    options: SynthesisOptions | None = None,
                    n_jobs: int = 2) -> list[PathResult]:
    """Every paired-path check on one source program."""
    return [
        check_cached_paths(source, options),
        check_parallel_paths(source, limits, options, n_jobs),
    ]
