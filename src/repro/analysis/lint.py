"""The whole-pipeline linter: every rule family, one driver.

Four rule families, each consuming the shared analyses:

* **source rules** (``src.*``, ``lang.*``) — run on the *unoptimized*
  CDFG, so findings point at what the user wrote, not at what the
  optimizer left behind: read-before-write (reaching definitions),
  unreachable blocks and constant conditions (constant lattice +
  condition-pruned CFG reachability), dead stores (liveness), unused
  variables;
* **range rules** (``range.*``) — run on the sound interval analysis
  (:func:`~repro.analysis.ranges.range_analysis`): guaranteed and
  possible division by zero, comparisons decided by the operands'
  value ranges alone, arithmetic whose unbounded result provably
  cannot be represented by its type, and shift amounts outside the
  operand width.  The same intervals also *suppress*
  ``lang.implicit-trunc`` (and the same-cause ``net.width-mismatch``)
  when the stored value's range provably fits the destination type;
* **design rules** (``sched.*``, ``alloc.*``) — run on a synthesized
  design: scheduled use-before-def (the dependence-edge twin of
  ``Schedule.validate``), register sharing with overlapping lifetimes,
  and values wider than the variable register that carries them;
* **netlist/controller rules** (``net.*``, ``fsm.*``) — run on the
  structural netlist and the FSM: combinational loops (SCC over the
  combinational subgraph), multiply-driven ports, structural width
  mismatches, floating inputs, unreachable states.

:func:`lint_source` is the end-to-end driver the ``repro lint`` CLI
verb calls: compile with a diagnostic sink, lint the CDFG, synthesize a
separate copy (the engine optimizes in place), lint the design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..allocation.lifetimes import compute_lifetimes
from ..controller.fsm import FSM
from ..datapath.netlist import DatapathNetlist, build_netlist
from ..errors import HLSError
from ..ir.cdfg import CDFG, IfRegion, LoopRegion
from ..ir.graph import DiGraph, strongly_connected_components
from ..ir.opcodes import COMPARISONS, OpKind
from ..ir.types import FixedType, IntType, bit_width, is_scalar
from .cfg import build_cfg
from .constants import constant_lattice, evaluated_conditions
from .diagnostics import Diagnostic, DiagnosticSink
from .liveness import region_live_out, variable_liveness
from .ranges import Interval, fits_type, range_analysis, type_interval
from .reaching import UNINIT, def_use_chains


# ----------------------------------------------------------------------
# Options and report
# ----------------------------------------------------------------------


@dataclass
class LintOptions:
    """Knobs of one lint run (mirrors the synthesis knobs that affect
    what gets checked)."""

    procedure: str | None = None
    scheduler: str = "list"
    allocator: str = "left-edge"
    #: Resource model for the design-level rules.  "typed" (distinct
    #: adder/multiplier/… classes, the realistic datapath) is the
    #: default: under the single-class universal model, index-monotone
    #: FU sharing can never close a combinational cycle, so net.* rules
    #: would have nothing to find.
    model: str = "typed"
    optimize: bool = True


@dataclass
class LintReport:
    """All diagnostics of one lint run, ordered by source position."""

    name: str
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def count(self, severity: str) -> int:
        return sum(
            1 for diag in self.diagnostics if diag.severity == severity
        )

    @property
    def exit_code(self) -> int:
        """2 with errors present, 1 with warnings only, 0 when clean."""
        if self.count("error"):
            return 2
        if self.count("warning"):
            return 1
        return 0

    def render(self) -> str:
        lines = [f"lint report for '{self.name}':"]
        if not self.diagnostics:
            lines.append("  clean — no findings")
        for diag in self.diagnostics:
            lines.append(f"  {diag.render()}")
        lines.append(
            f"{self.count('error')} error(s), "
            f"{self.count('warning')} warning(s)"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "design": self.name,
            "errors": self.count("error"),
            "warnings": self.count("warning"),
            "diagnostics": [diag.to_dict() for diag in self.diagnostics],
        }

    def rule_counts(self) -> dict[str, int]:
        """Findings per rule id — the QoR ledger's lint fingerprint."""
        counts: dict[str, int] = {}
        for diag in self.diagnostics:
            counts[diag.rule] = counts.get(diag.rule, 0) + 1
        return dict(sorted(counts.items()))


#: Diagnostic severity → SARIF result level.
_SARIF_LEVELS = {"info": "note", "warning": "warning", "error": "error"}


def sarif_document(reports: list[LintReport],
                   uri: str | None = None) -> dict[str, Any]:
    """Render lint reports as one SARIF 2.1.0 document (one run per
    report), the interchange format code-scanning UIs ingest.

    Args:
        reports: the lint reports to serialize.
        uri: optional artifact URI recorded on located results
            (normally the linted file's path).
    """
    runs = []
    for report in reports:
        results = []
        for diag in report.diagnostics:
            result: dict[str, Any] = {
                "ruleId": diag.rule,
                "level": _SARIF_LEVELS[diag.severity],
                "message": {"text": diag.message},
                "properties": {
                    "where": diag.where,
                    "subject": diag.subject,
                },
            }
            if diag.location is not None:
                physical: dict[str, Any] = {
                    "region": {
                        "startLine": diag.location.line,
                        "startColumn": diag.location.column,
                    }
                }
                if uri is not None:
                    physical["artifactLocation"] = {"uri": uri}
                result["locations"] = [{"physicalLocation": physical}]
            results.append(result)
        runs.append({
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "rules": [
                        {"id": rule}
                        for rule in sorted(report.rule_counts())
                    ],
                }
            },
            "properties": {"design": report.name},
            "results": results,
        })
    return {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": runs,
    }


# ----------------------------------------------------------------------
# Source / CDFG rules
# ----------------------------------------------------------------------


def lint_cdfg(cdfg: CDFG, sink: DiagnosticSink) -> set[tuple]:
    """Run the source and range rule families on (ideally unoptimized)
    IR.  Returns the range-proven suppression keys — ``(line, column,
    variable)`` triples of stores whose value provably fits the
    destination type, which the driver uses to drop the corresponding
    ``lang.implicit-trunc`` / ``net.width-mismatch`` findings."""
    cfg = build_cfg(cdfg)
    source_map = cdfg.source_map

    # src.read-before-write -------------------------------------------
    chains = def_use_chains(cdfg, cfg)
    for block in cfg.blocks.values():
        for op in block.ops:
            if op.kind is not OpKind.VAR_READ:
                continue
            if chains.boundary_reads.get(op.id) != UNINIT:
                continue
            var = op.attrs["var"]
            certain = not chains.defs_of.get(op.id)
            diag = Diagnostic(
                "src.read-before-write",
                "error" if certain else "warning",
                (
                    f"variable {var!r} is read before it is written"
                    if certain
                    else f"variable {var!r} may be read before it is "
                    f"written"
                ),
                location=source_map.get(op.id),
                subject=var,
            )
            sink.emit(diag)

    # src.const-condition / src.unreachable-block ---------------------
    constants = constant_lattice(cdfg, cfg)
    known = evaluated_conditions(cdfg, cfg, constants)
    for region in cdfg.body.walk():
        if not isinstance(region, (IfRegion, LoopRegion)):
            continue
        literal = known.get(region.cond.id)
        if literal is None:
            continue
        what = "loop" if isinstance(region, LoopRegion) else "branch"
        sink.warning(
            "src.const-condition",
            f"{what} condition is always {literal}",
            location=source_map.get(region.cond.producer.id),
        )
    reachable = cfg.reachable(known)
    for block_id, block in cfg.blocks.items():
        if block_id in reachable:
            continue
        location = next(
            (
                source_map[op.id]
                for op in block.ops
                if op.id in source_map
            ),
            None,
        )
        sink.warning(
            "src.unreachable-block",
            f"block {block.name} is unreachable "
            f"(a controlling condition is constant)",
            location=location,
            subject=block.name,
        )

    # src.dead-store ---------------------------------------------------
    liveness = variable_liveness(cdfg, cfg)
    for block_id, block in cfg.blocks.items():
        if block_id not in reachable:
            continue  # already reported as unreachable
        live_out = liveness.live_out[block_id]
        for op in block.ops:
            if op.kind is not OpKind.VAR_WRITE:
                continue
            var = op.attrs["var"]
            if var in live_out:
                continue
            sink.warning(
                "src.dead-store",
                f"value assigned to {var!r} is never read",
                location=source_map.get(op.id),
                subject=var,
            )

    # src.unused-var ---------------------------------------------------
    ports = {port.name for port in cdfg.inputs}
    ports |= {port.name for port in cdfg.outputs}
    referenced = {
        op.attrs["var"]
        for op in cdfg.operations()
        if op.kind in (OpKind.VAR_READ, OpKind.VAR_WRITE)
    }
    for var in sorted(cdfg.variables):
        if var in ports or var in referenced:
            continue
        sink.warning(
            "src.unused-var",
            f"variable {var!r} is declared but never used",
            subject=var,
        )

    # range.* ----------------------------------------------------------
    return _lint_ranges(cdfg, cfg, constants, sink, source_map)


# ----------------------------------------------------------------------
# Range rules
# ----------------------------------------------------------------------

#: Rules the interval analysis may prove harmless: a store whose value
#: range provably fits the destination type loses both the frontend's
#: truncation warning and its allocation-level twin.
RANGE_SUPPRESSIBLE = ("lang.implicit-trunc", "net.width-mismatch")

_ALWAYS_TRUE = Interval(1, 1)
_ALWAYS_FALSE = Interval(0, 0)


def _grid_compatible(src, dst) -> bool:
    """Every value representable at ``src``'s granularity is on
    ``dst``'s grid too (range aside): the fractional resolution must
    not shrink, else in-range interior values would still be rounded."""
    def frac(type_) -> int | None:
        if isinstance(type_, FixedType):
            return type_.frac_bits
        if isinstance(type_, IntType):
            return 0
        return None

    src_frac, dst_frac = frac(src), frac(dst)
    if src_frac is None or dst_frac is None:
        return False
    return src_frac <= dst_frac


def _lint_ranges(cdfg: CDFG, cfg, constants, sink: DiagnosticSink,
                 source_map) -> set[tuple]:
    """The ``range.*`` family plus the truncation suppression keys."""
    ranges = range_analysis(cdfg, cfg, constants)
    suppressed: set[tuple] = set()

    for block_id, block in cfg.blocks.items():
        if ranges.env_in.get(block_id) is None:
            continue  # unreachable: intervals there are vacuous
        for op in block.ops:
            location = source_map.get(op.id)

            # range.div-zero ------------------------------------------
            if op.kind in (OpKind.DIV, OpKind.MOD):
                divisor = op.operands[1]
                iv = ranges.values.get(divisor.id)
                if iv is not None and iv.is_point and iv.lo == 0:
                    sink.error(
                        "range.div-zero",
                        "divisor is always zero",
                        location=location,
                    )
                elif iv is not None and (iv.lo == 0 or iv.hi == 0):
                    # Zero sitting somewhere inside a wide signed range
                    # is usually noise; zero as a *proven extremum* of
                    # a sign-constrained divisor (an unsigned count,
                    # say) is the classic reachable div-by-zero.
                    sink.warning(
                        "range.div-zero",
                        f"divisor may be zero "
                        f"(value in [{iv.lo}, {iv.hi}])",
                        location=location,
                    )

            # range.const-compare -------------------------------------
            if (
                op.kind in COMPARISONS
                and op.result is not None
                and constants.values.get(op.result.id) is None
            ):
                # Constant-folded compares are src.const-condition's
                # business; this rule reports decisions forced by value
                # *ranges* that no single constant explains.
                iv = ranges.values.get(op.result.id)
                if iv in (_ALWAYS_TRUE, _ALWAYS_FALSE):
                    verdict = "true" if iv == _ALWAYS_TRUE else "false"
                    sink.warning(
                        "range.const-compare",
                        f"comparison is always {verdict} for the "
                        f"operands' value ranges",
                        location=location,
                    )

            # range.overflow ------------------------------------------
            if op.result is not None and is_scalar(op.result.type):
                raw = ranges.raw_values.get(op.result.id)
                if raw is not None:
                    rep = type_interval(op.result.type)
                    if raw.hi < rep.lo or raw.lo > rep.hi:
                        sink.warning(
                            "range.overflow",
                            f"result always wraps: value in "
                            f"[{raw.lo}, {raw.hi}] never fits "
                            f"{op.result.type}",
                            location=location,
                        )

            # range.shift-range ---------------------------------------
            if op.kind in (OpKind.SHL, OpKind.SHR):
                amount = op.operands[1]
                iv = ranges.values.get(amount.id)
                width = bit_width(op.operands[0].type)
                if iv is not None and iv.hi < 0:
                    sink.error(
                        "range.shift-range",
                        f"shift amount is always negative "
                        f"(value in [{iv.lo}, {iv.hi}])",
                        location=location,
                    )
                elif iv is not None and iv.lo >= width:
                    sink.warning(
                        "range.shift-range",
                        f"shift amount is always >= the operand "
                        f"width ({width}); every input bit is "
                        f"discarded",
                        location=location,
                    )

            # Truncation suppression ----------------------------------
            if op.kind is OpKind.VAR_WRITE:
                var = op.attrs["var"]
                declared = cdfg.variables.get(var)
                iv = ranges.values.get(op.operands[0].id)
                if (
                    declared is not None
                    and iv is not None
                    and location is not None
                    and _grid_compatible(op.operands[0].type, declared)
                    and fits_type(iv, declared)
                ):
                    suppressed.add((location.line, location.column, var))

    return suppressed


# ----------------------------------------------------------------------
# Schedule / allocation rules
# ----------------------------------------------------------------------


def lint_design(design, sink: DiagnosticSink) -> None:
    """Run schedule, allocation, netlist and controller rules."""
    cdfg = design.cdfg
    source_map = cdfg.source_map

    # sched.use-before-def --------------------------------------------
    for schedule in design.schedules.values():
        problem = schedule.problem
        for u, v in problem.graph.edges:
            if u not in schedule.start or v not in schedule.start:
                continue  # Schedule.validate already rejects this
            earliest = schedule.start[u] + problem.edge_offset(u, v)
            if schedule.start[v] < earliest:
                sink.error(
                    "sched.use-before-def",
                    f"{problem.label}: op{v} is scheduled at step "
                    f"{schedule.start[v]}, before its operand op{u} is "
                    f"ready (step {earliest})",
                    where="schedule",
                    subject=f"op{v}",
                )

    # alloc.register-overlap / net.width-mismatch (carried values) ----
    # One solve per design, independent of the engine's hand-off.
    liveness = variable_liveness(cdfg)
    for allocation in design.allocations.values():
        schedule = allocation.schedule
        label = schedule.problem.label
        lifetimes = compute_lifetimes(
            schedule, region_live_out(schedule.problem.ops, liveness)
        )
        by_register: dict[int, list] = {}
        for lifetime in lifetimes:
            register = allocation.register_map.get(lifetime.value.id)
            if register is not None:
                by_register.setdefault(register, []).append(lifetime)
        for register, held in sorted(by_register.items()):
            held.sort(key=lambda lt: (lt.def_step, lt.value.id))
            for first, second in zip(held, held[1:]):
                if first.conflicts_with(second):
                    sink.error(
                        "alloc.register-overlap",
                        f"{label}: register r{register} holds "
                        f"{first.value!r} and {second.value!r} with "
                        f"overlapping lifetimes",
                        where="allocation",
                        subject=f"r{register}",
                    )

        for lifetime in lifetimes:
            carrier = lifetime.carrier
            if carrier is None or carrier not in cdfg.variables:
                continue
            declared_type = cdfg.variables[carrier]
            if not (is_scalar(declared_type)
                    and is_scalar(lifetime.value.type)):
                continue
            declared = bit_width(declared_type)
            actual = bit_width(lifetime.value.type)
            if actual <= declared:
                continue
            writer = next(
                (
                    user
                    for user, _ in lifetime.value.uses
                    if user.kind is OpKind.VAR_WRITE
                    and user.attrs["var"] == carrier
                ),
                None,
            )
            sink.warning(
                "net.width-mismatch",
                f"{label}: {actual}-bit value "
                f"({lifetime.value.type}) is stored into the "
                f"{declared}-bit register of {carrier!r} — upper bits "
                f"are dropped",
                location=source_map.get(
                    writer.id if writer is not None else -1
                ),
                where="netlist",
                subject=carrier,
            )

    # Netlist rules ----------------------------------------------------
    if design.binding is not None:
        lint_netlist(build_netlist(design), sink)

    # fsm.unreachable-state -------------------------------------------
    if design.fsm is not None:
        lint_fsm(design.fsm, sink)


# ----------------------------------------------------------------------
# Netlist rules
# ----------------------------------------------------------------------

#: Component kinds whose output is a combinational function of their
#: inputs.  Registers, memories and constants break timing paths.
_COMBINATIONAL = ("fu", "mux")


def lint_netlist(netlist: DatapathNetlist, sink: DiagnosticSink) -> None:
    """Run the structural rule family on a datapath netlist."""
    # net.comb-loop ----------------------------------------------------
    graph = DiGraph()
    for component in netlist.components.values():
        if component.kind in _COMBINATIONAL:
            graph.add_node(component.name)
    for net in netlist.nets:
        for pin in net.sinks:
            if (
                net.driver.component.kind in _COMBINATIONAL
                and pin.component.kind in _COMBINATIONAL
            ):
                graph.add_edge(
                    net.driver.component.name, pin.component.name
                )
    for scc in strongly_connected_components(graph):
        single = next(iter(scc))
        if len(scc) == 1 and not graph.has_edge(single, single):
            continue
        members = ", ".join(sorted(scc))
        sink.error(
            "net.comb-loop",
            f"combinational loop through {members} — the datapath has "
            f"an unregistered cycle",
            where="netlist",
            subject=sorted(scc)[0],
        )

    # net.multi-driver -------------------------------------------------
    drivers_of: dict[str, set[str]] = {}
    for net in netlist.nets:
        for pin in net.sinks:
            drivers_of.setdefault(str(pin), set()).add(str(net.driver))
    for pin_name, drivers in sorted(drivers_of.items()):
        if len(drivers) > 1:
            sink.error(
                "net.multi-driver",
                f"port {pin_name} is driven by {len(drivers)} nets "
                f"({', '.join(sorted(drivers))})",
                where="netlist",
                subject=pin_name,
            )

    # net.width-mismatch (structural) ---------------------------------
    for net in netlist.nets:
        for pin in net.sinks:
            if pin.component.width < net.width:
                sink.warning(
                    "net.width-mismatch",
                    f"{net.width}-bit net from {net.driver} feeds "
                    f"{pin} which is only {pin.component.width} bits "
                    f"wide",
                    where="netlist",
                    subject=str(pin),
                )

    # net.floating-port ------------------------------------------------
    has_inputs = {pin.component.name for net in netlist.nets
                  for pin in net.sinks}
    drives = {net.driver.component.name for net in netlist.nets}
    for component in sorted(netlist.components.values(),
                            key=lambda c: c.name):
        if component.kind not in _COMBINATIONAL:
            continue
        if component.name in drives and component.name not in has_inputs:
            sink.warning(
                "net.floating-port",
                f"{component.kind} {component.name} drives the datapath "
                f"but has no input connections",
                where="netlist",
                subject=component.name,
            )


def lint_fsm(fsm: FSM, sink: DiagnosticSink) -> None:
    """Run the controller rule family."""
    reachable = fsm.reachable()
    for state in fsm.states:
        if state.id in reachable:
            continue
        sink.warning(
            "fsm.unreachable-state",
            f"controller state S{state.id} "
            f"({state.block_name}#{state.step}) is unreachable from "
            f"the entry state",
            where="controller",
            subject=f"S{state.id}",
        )


# ----------------------------------------------------------------------
# End-to-end driver
# ----------------------------------------------------------------------


def _resource_model(name: str):
    from ..scheduling import TypedFUModel, UniversalFUModel

    if name == "universal":
        return UniversalFUModel()
    if name == "typed":
        return TypedFUModel(single_cycle=True)
    raise HLSError(f"unknown resource model {name!r}")


def lint_source(source: str,
                options: LintOptions | None = None) -> LintReport:
    """Lint behavioral source end to end.

    Compiles once *with* the diagnostic sink for the frontend and
    source rules, then compiles a second, pristine copy for synthesis —
    the engine optimizes its CDFG in place, and the source rules must
    see the program as written.
    """
    from ..core import SynthesisOptions, synthesize_cdfg
    from ..lang import compile_source

    options = options or LintOptions()
    sink = DiagnosticSink()

    cdfg = compile_source(source, options.procedure, sink=sink)
    suppressed = lint_cdfg(cdfg, sink)

    design_cdfg = compile_source(source, options.procedure)
    design = synthesize_cdfg(
        design_cdfg,
        SynthesisOptions(
            scheduler=options.scheduler,
            allocator=options.allocator,
            model=_resource_model(options.model),
            optimize_ir=options.optimize,
        ),
    )
    lint_design(design, sink)

    # Drop the truncation findings the interval analysis proved
    # harmless (the value range fits the destination exactly).
    diagnostics = [
        diag
        for diag in sink
        if not (
            diag.rule in RANGE_SUPPRESSIBLE
            and diag.location is not None
            and (diag.location.line, diag.location.column, diag.subject)
            in suppressed
        )
    ]
    return LintReport(
        cdfg.name,
        sorted(diagnostics, key=lambda diag: diag.sort_key),
    )
