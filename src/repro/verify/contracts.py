"""Stage contracts: pure legality checkers over a synthesized design.

Each ``check_*`` function takes a complete (or partially complete)
:class:`~repro.core.design.SynthesizedDesign` and returns a list of
:class:`~repro.verify.violations.Violation` records — it never raises
and never mutates the design.  The checks are implemented directly on
the public data structures (schedule start maps, allocation maps, the
FSM state list, the derived netlist), *independently* of the pipeline's
own ``validate()`` methods, so a bug in a validator and a bug in a
checker would have to coincide to go unnoticed.

Contracts per stage:

* **scheduling** — every op scheduled at a non-negative step; every
  dependence edge respects the chaining rule; designer timing windows
  hold; no control step oversubscribes a resource class.
* **allocation** — every resource-using op mapped to an FU of its
  class; no FU runs two ops in overlapping occupancy windows; every
  register-needing value mapped; no register holds two overlapping
  lifetimes.
* **binding** — every FU executing computational ops has a component;
  the component implements every op kind mapped onto the unit; the
  bound width covers the widest operand/result.
* **controller** — an entry state exists; transition targets exist;
  conditional structure is well-formed; every state is reachable from
  the entry and can reach halt (no dead states); state steps lie
  inside their block's schedule.
* **netlist** — every net endpoint references a registered component;
  every mux has at least two selectable inputs and a driven output.

:func:`verify_design` aggregates all stages into one
:class:`~repro.verify.violations.VerificationReport`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..allocation.lifetimes import compute_lifetimes
from ..analysis.liveness import region_live_out, variable_liveness
from ..ir.opcodes import OpKind
from ..ir.types import bit_width
from ..obs import metrics, trace_span
from .violations import STAGE_ORDER, VerificationReport, Violation

if TYPE_CHECKING:  # pragma: no cover
    from ..core.design import SynthesizedDesign


# ----------------------------------------------------------------------
# Scheduling
# ----------------------------------------------------------------------


def check_schedule(design: "SynthesizedDesign") -> list[Violation]:
    """Schedule-stage contract over every scheduled block."""
    violations: list[Violation] = []
    for block_id in sorted(design.schedules):
        schedule = design.schedules[block_id]
        problem = schedule.problem
        where = problem.label

        scheduled = set(schedule.start)
        for op in problem.ops:
            if op.id not in scheduled:
                violations.append(Violation(
                    "scheduling", "unscheduled-op", where,
                    f"op{op.id} ({op.describe()}) has no control step",
                    {"op": op.id},
                ))
            elif schedule.start[op.id] < 0:
                violations.append(Violation(
                    "scheduling", "negative-step", where,
                    f"op{op.id} scheduled at step {schedule.start[op.id]}",
                    {"op": op.id, "step": schedule.start[op.id]},
                ))

        for u, v in problem.graph.edges:
            if u not in schedule.start or v not in schedule.start:
                continue
            earliest = schedule.start[u] + problem.edge_offset(u, v)
            if schedule.start[v] < earliest:
                violations.append(Violation(
                    "scheduling", "precedence", where,
                    f"op{v}@{schedule.start[v]} starts before its "
                    f"predecessor op{u}@{schedule.start[u]} allows "
                    f"(earliest legal start {earliest})",
                    {"from": u, "to": v,
                     "start_from": schedule.start[u],
                     "start_to": schedule.start[v],
                     "earliest": earliest},
                ))

        for constraint in problem.timing_constraints:
            if (constraint.from_op not in schedule.start
                    or constraint.to_op not in schedule.start):
                continue
            distance = (schedule.start[constraint.to_op]
                        - schedule.start[constraint.from_op])
            if (constraint.min_offset is not None
                    and distance < constraint.min_offset) or (
                    constraint.max_offset is not None
                    and distance > constraint.max_offset):
                violations.append(Violation(
                    "scheduling", "timing-window", where,
                    f"op{constraint.from_op}->op{constraint.to_op} "
                    f"distance {distance} outside "
                    f"[{constraint.min_offset}, {constraint.max_offset}]",
                    {"from": constraint.from_op, "to": constraint.to_op,
                     "distance": distance},
                ))

        # Resource oversubscription, recomputed from occupancy windows.
        usage: dict[tuple[int, str], int] = {}
        for op_id in schedule.start:
            cls = problem.op_class(op_id)
            if cls is None:
                continue
            for k in range(max(problem.occupancy(op_id), 0)):
                key = (schedule.start[op_id] + k, cls)
                usage[key] = usage.get(key, 0) + 1
        for (step, cls), used in sorted(usage.items()):
            limit = problem.constraints.limit(cls)
            if limit is not None and used > limit:
                violations.append(Violation(
                    "scheduling", "resource-oversubscribed", where,
                    f"step {step} runs {used} {cls!r} ops with only "
                    f"{limit} unit{'s' if limit != 1 else ''}",
                    {"step": step, "class": cls,
                     "used": used, "limit": limit},
                ))

        if (problem.time_limit is not None
                and schedule.length > problem.time_limit):
            violations.append(Violation(
                "scheduling", "time-limit", where,
                f"schedule takes {schedule.length} steps, limit "
                f"{problem.time_limit}",
                {"length": schedule.length, "limit": problem.time_limit},
            ))
    return violations


# ----------------------------------------------------------------------
# Allocation
# ----------------------------------------------------------------------


def check_allocation(design: "SynthesizedDesign") -> list[Violation]:
    """Allocation-stage contract: FU shares and register shares."""
    violations: list[Violation] = []
    # Solved here, not read from the engine's hand-off on each problem,
    # so the contract stays an independent check of it.
    liveness = variable_liveness(design.cdfg)
    for block_id in sorted(design.allocations):
        allocation = design.allocations[block_id]
        schedule = allocation.schedule
        problem = schedule.problem
        where = problem.label

        for op in problem.ops:
            cls = problem.op_class(op.id)
            if cls is None:
                continue
            fu = allocation.fu_map.get(op.id)
            if fu is None:
                violations.append(Violation(
                    "allocation", "unassigned-op", where,
                    f"op{op.id} ({op.describe()}) uses class {cls!r} "
                    f"but has no functional unit",
                    {"op": op.id, "class": cls},
                ))
            elif fu.cls != cls:
                violations.append(Violation(
                    "allocation", "class-mismatch", where,
                    f"op{op.id} of class {cls!r} assigned to {fu}",
                    {"op": op.id, "class": cls, "fu": str(fu)},
                ))

        # FU double-booking: overlapping occupancy windows on one unit.
        by_unit: dict[object, list[int]] = {}
        for op_id, fu in allocation.fu_map.items():
            if op_id in schedule.start:
                by_unit.setdefault(fu, []).append(op_id)
        for fu, op_ids in sorted(by_unit.items(), key=lambda kv: str(kv[0])):
            spans = sorted(
                (schedule.start[op_id],
                 schedule.start[op_id]
                 + max(problem.occupancy(op_id), 1) - 1,
                 op_id)
                for op_id in op_ids
            )
            for (s1, e1, op1), (s2, e2, op2) in zip(spans, spans[1:]):
                if s2 <= e1:
                    violations.append(Violation(
                        "allocation", "fu-double-booked", where,
                        f"{fu} runs op{op1} [{s1},{e1}] and op{op2} "
                        f"[{s2},{e2}] in overlapping steps",
                        {"fu": str(fu), "ops": [op1, op2],
                         "spans": [[s1, e1], [s2, e2]]},
                    ))

        # Check against the same liveness-informed lifetime model the
        # allocator and datapath builder use: a value written only to a
        # dead variable (e.g. an unrolled loop counter) never leaves the
        # block and legitimately has no register — the conservative
        # no-live-out model would flag it as register-missing.
        lifetimes = compute_lifetimes(
            schedule, region_live_out(problem.ops, liveness)
        )
        for lifetime in lifetimes:
            if lifetime.value.id not in allocation.register_map:
                violations.append(Violation(
                    "allocation", "register-missing", where,
                    f"value v{lifetime.value.id} lives across steps "
                    f"({lifetime.def_step}, {lifetime.last_use}] but "
                    f"has no register",
                    {"value": lifetime.value.id,
                     "def_step": lifetime.def_step,
                     "last_use": lifetime.last_use},
                ))
        by_register: dict[int, list] = {}
        for lifetime in lifetimes:
            register = allocation.register_map.get(lifetime.value.id)
            if register is not None:
                by_register.setdefault(register, []).append(lifetime)
        for register, held in sorted(by_register.items()):
            held.sort(key=lambda lt: (lt.def_step, lt.value.id))
            for first, second in zip(held, held[1:]):
                if first.conflicts_with(second):
                    violations.append(Violation(
                        "allocation", "register-overlap", where,
                        f"register r{register} holds "
                        f"v{first.value.id} "
                        f"({first.def_step}, {first.last_use}] and "
                        f"v{second.value.id} "
                        f"({second.def_step}, {second.last_use}] "
                        f"simultaneously",
                        {"register": register,
                         "values": [first.value.id, second.value.id]},
                    ))
    return violations


# ----------------------------------------------------------------------
# Binding
# ----------------------------------------------------------------------


def check_binding(design: "SynthesizedDesign") -> list[Violation]:
    """Binding-stage contract: components cover kinds and widths."""
    violations: list[Violation] = []
    binding = design.binding
    if binding is None:
        if design.allocations:
            violations.append(Violation(
                "binding", "missing-binding", "design",
                "design has allocations but no module binding",
            ))
        return violations

    # Requirements per FU, merged over every block's allocation.
    required_kinds: dict[object, set[OpKind]] = {}
    required_width: dict[object, int] = {}
    for block_id in sorted(design.allocations):
        allocation = design.allocations[block_id]
        problem = allocation.schedule.problem
        for op_id, fu in allocation.fu_map.items():
            op = problem.op(op_id)
            if op.kind is OpKind.VAR_WRITE:
                continue  # bare moves are pass-through, no component
            required_kinds.setdefault(fu, set()).add(op.kind)
            widths = [bit_width(v.type) for v in op.operands]
            if op.result is not None:
                widths.append(bit_width(op.result.type))
            required_width[fu] = max(
                required_width.get(fu, 1), max(widths, default=1)
            )

    for fu in sorted(required_kinds, key=lambda f: (f.cls, f.index)):
        kinds = required_kinds[fu]
        component = binding.components.get(fu)
        if component is None:
            violations.append(Violation(
                "binding", "unbound-fu", str(fu),
                f"{fu} executes "
                f"{sorted(k.value for k in kinds)} but has no library "
                f"component",
                {"fu": str(fu),
                 "kinds": sorted(k.value for k in kinds)},
            ))
            continue
        uncovered = {k for k in kinds if not component.supports({k})}
        if uncovered:
            violations.append(Violation(
                "binding", "kind-uncovered", str(fu),
                f"component {component.name!r} on {fu} does not "
                f"implement {sorted(k.value for k in uncovered)}",
                {"fu": str(fu), "component": component.name,
                 "kinds": sorted(k.value for k in uncovered)},
            ))
        bound_width = binding.widths.get(fu, 0)
        if bound_width < required_width.get(fu, 1):
            violations.append(Violation(
                "binding", "width-underflow", str(fu),
                f"{fu} bound at {bound_width} bits but executes "
                f"{required_width[fu]}-bit operations",
                {"fu": str(fu), "bound": bound_width,
                 "required": required_width[fu]},
            ))
    return violations


# ----------------------------------------------------------------------
# Controller
# ----------------------------------------------------------------------


def _fsm_reachable(fsm) -> set[int]:
    """States reachable from the entry by forward traversal."""
    if fsm.entry is None:
        return set()
    seen: set[int] = set()
    frontier = [fsm.entry]
    while frontier:
        state_id = frontier.pop()
        if state_id in seen or not (0 <= state_id < len(fsm.states)):
            continue
        seen.add(state_id)
        transition = fsm.states[state_id].transition
        for target in (transition.if_true, transition.if_false):
            if target is not None:
                frontier.append(target)
    return seen


def _fsm_halting(fsm) -> set[int]:
    """States from which the halt exit is reachable (backward BFS)."""
    predecessors: dict[int, set[int]] = {}
    halting: list[int] = []
    for state in fsm.states:
        transition = state.transition
        targets = [transition.if_true]
        if transition.cond is not None:
            targets.append(transition.if_false)
        for target in targets:
            if target is None:
                halting.append(state.id)
            elif 0 <= target < len(fsm.states):
                predecessors.setdefault(target, set()).add(state.id)
    seen: set[int] = set()
    frontier = list(halting)
    while frontier:
        state_id = frontier.pop()
        if state_id in seen:
            continue
        seen.add(state_id)
        frontier.extend(predecessors.get(state_id, ()))
    return seen


def check_controller(design: "SynthesizedDesign") -> list[Violation]:
    """Controller-stage contract: FSM shape, reachability, liveness."""
    violations: list[Violation] = []
    fsm = design.fsm
    if fsm is None:
        if design.schedules:
            violations.append(Violation(
                "controller", "missing-fsm", "design",
                "design has schedules but no controller FSM",
            ))
        return violations
    if fsm.states and fsm.entry is None:
        violations.append(Violation(
            "controller", "missing-entry", "fsm",
            f"FSM has {fsm.state_count} states but no entry",
        ))

    for state in fsm.states:
        where = f"S{state.id}"
        transition = state.transition
        for target in (transition.if_true, transition.if_false):
            if target is not None and not (0 <= target < len(fsm.states)):
                violations.append(Violation(
                    "controller", "dangling-target", where,
                    f"state S{state.id} targets missing state S{target}",
                    {"state": state.id, "target": target},
                ))
        if transition.cond is None and transition.if_false is not None:
            violations.append(Violation(
                "controller", "branch-without-condition", where,
                f"state S{state.id} has a false-branch but no condition",
                {"state": state.id},
            ))
        if not (0 <= state.step < max(state.plan.schedule.length, 1)):
            violations.append(Violation(
                "controller", "step-out-of-range", where,
                f"state S{state.id} drives step {state.step} of "
                f"{state.block_name}, which has only "
                f"{state.plan.schedule.length} steps",
                {"state": state.id, "step": state.step,
                 "steps": state.plan.schedule.length},
            ))

    reachable = _fsm_reachable(fsm)
    halting = _fsm_halting(fsm)
    for state in fsm.states:
        if state.id not in reachable:
            violations.append(Violation(
                "controller", "unreachable-state", f"S{state.id}",
                f"state S{state.id} ({state.block_name}#{state.step}) "
                f"cannot be reached from the entry",
                {"state": state.id},
            ))
        elif state.id not in halting:
            violations.append(Violation(
                "controller", "dead-state", f"S{state.id}",
                f"state S{state.id} ({state.block_name}#{state.step}) "
                f"can never reach the halt exit",
                {"state": state.id},
            ))
    return violations


# ----------------------------------------------------------------------
# Netlist
# ----------------------------------------------------------------------


def check_netlist(design: "SynthesizedDesign",
                  netlist=None) -> list[Violation]:
    """Netlist-stage contract over the derived datapath structure.

    Args:
        design: the synthesized design.
        netlist: a pre-built :class:`~repro.datapath.netlist.\
DatapathNetlist` to check instead of deriving one (tests corrupt it).
    """
    from ..datapath.netlist import build_netlist
    from ..errors import HLSError

    violations: list[Violation] = []
    if netlist is None:
        try:
            netlist = build_netlist(design)
        except HLSError as error:
            return [Violation(
                "netlist", "derivation-failed", "design",
                f"netlist could not be derived: {error}",
            )]

    registered = set(netlist.components.values())
    mux_inputs: dict[str, int] = {}
    mux_outputs: dict[str, int] = {}
    for net in netlist.nets:
        endpoints = [net.driver] + list(net.sinks)
        for pin in endpoints:
            if pin.component not in registered:
                violations.append(Violation(
                    "netlist", "dangling-port", str(pin),
                    f"net endpoint {pin} references component "
                    f"{pin.component.name!r} that is not in the "
                    f"netlist",
                    {"component": pin.component.name, "port": pin.port},
                ))
        if net.driver.component.kind == "mux" and \
                net.driver.port == "y":
            name = net.driver.component.name
            mux_outputs[name] = mux_outputs.get(name, 0) + 1
        for sink in net.sinks:
            if sink.component.kind == "mux" and \
                    sink.port.startswith("i"):
                name = sink.component.name
                mux_inputs[name] = mux_inputs.get(name, 0) + 1

    for mux in netlist.components_of_kind("mux"):
        fan_in = mux_inputs.get(mux.name, 0)
        if fan_in < 2:
            violations.append(Violation(
                "netlist", "degenerate-mux", mux.name,
                f"mux {mux.name} has {fan_in} selectable "
                f"input{'s' if fan_in != 1 else ''} (needs >= 2)",
                {"mux": mux.name, "inputs": fan_in},
            ))
        if mux_outputs.get(mux.name, 0) == 0:
            violations.append(Violation(
                "netlist", "undriven-mux-output", mux.name,
                f"mux {mux.name} drives nothing",
                {"mux": mux.name},
            ))
    return violations


# ----------------------------------------------------------------------
# Aggregator
# ----------------------------------------------------------------------

CONTRACTS = {
    "scheduling": check_schedule,
    "allocation": check_allocation,
    "binding": check_binding,
    "controller": check_controller,
    "netlist": check_netlist,
}


def verify_design(design: "SynthesizedDesign",
                  stages: tuple[str, ...] | list[str] | None = None
                  ) -> VerificationReport:
    """Run every stage contract (or the named subset) over a design.

    Returns a :class:`~repro.verify.violations.VerificationReport`;
    never raises on a broken design — raising is the engine hook's job
    (:class:`~repro.errors.VerificationError`).
    """
    if stages is None:
        stages = STAGE_ORDER
    unknown = [stage for stage in stages if stage not in CONTRACTS]
    if unknown:
        raise ValueError(f"unknown contract stages: {unknown}")
    report = VerificationReport(
        design_name=design.cdfg.name, stages_checked=tuple(stages)
    )
    registry = metrics()
    for stage in stages:
        with trace_span(f"contract.{stage}",
                        design=design.cdfg.name) as span:
            violations = CONTRACTS[stage](design)
            span.set(violations=len(violations))
        registry.counter("verify.contracts", stage=stage).inc()
        if violations:
            registry.counter(
                "verify.violations", stage=stage
            ).inc(len(violations))
        report.extend(violations)
    return report
