"""Controller synthesis: building the finite state machine.

§2: "Once the schedule and the data paths have been chosen, it is
necessary to synthesize a controller that will drive the data paths as
required by the schedule … If hardwired control is chosen, a control
step corresponds to a state in the controlling finite state machine."

The FSM has one state per (block, control step).  Transitions follow
the structured region tree: sequences chain, branches fork on a
condition bit, loops add back edges.  A ``None`` target is the halt
state (procedure done).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ControllerError
from ..ir.cdfg import (
    CDFG,
    BlockRegion,
    IfRegion,
    LoopRegion,
    Region,
    SeqRegion,
)
from ..ir.values import Value
from ..datapath.plan import BlockPlan


@dataclass
class Transition:
    """Where control goes after a state.

    Unconditional when ``cond`` is None (``if_true`` is the target).
    Conditional: ``cond`` is the 1-bit value examined at the end of the
    state; control moves to ``if_true``/``if_false``.  A ``None``
    target halts the machine.
    """

    if_true: int | None
    if_false: int | None = None
    cond: Value | None = None

    @property
    def unconditional(self) -> bool:
        return self.cond is None


@dataclass
class ControlState:
    """One controller state: a (block, step) pair plus its exit."""

    id: int
    plan: BlockPlan
    step: int
    transition: Transition = field(
        default_factory=lambda: Transition(None)
    )

    @property
    def block_name(self) -> str:
        return self.plan.block.name

    def __repr__(self) -> str:
        return f"<S{self.id} {self.block_name}#{self.step}>"


class FSM:
    """The synthesized controller."""

    def __init__(self) -> None:
        self.states: list[ControlState] = []
        self.entry: int | None = None

    @property
    def state_count(self) -> int:
        return len(self.states)

    def state(self, state_id: int) -> ControlState:
        return self.states[state_id]

    def validate(self) -> None:
        """Check structural sanity of the machine."""
        if self.entry is None and self.states:
            raise ControllerError("FSM has states but no entry")
        for state in self.states:
            transition = state.transition
            for target in (transition.if_true, transition.if_false):
                if target is not None and not (
                    0 <= target < len(self.states)
                ):
                    raise ControllerError(
                        f"state S{state.id} targets missing state "
                        f"S{target}"
                    )
            if transition.cond is None and transition.if_false is not None:
                raise ControllerError(
                    f"state S{state.id} has a false-branch without a "
                    f"condition"
                )

    def reachable(self) -> set[int]:
        """State ids reachable from the entry by following transitions."""
        if self.entry is None:
            return set()
        seen: set[int] = set()
        frontier = [self.entry]
        while frontier:
            state_id = frontier.pop()
            if state_id in seen:
                continue
            seen.add(state_id)
            transition = self.states[state_id].transition
            for target in (transition.if_true, transition.if_false):
                if target is not None and target not in seen:
                    frontier.append(target)
        return seen

    def signature(self) -> tuple:
        """Hashable identity of the machine's structure (states and
        transitions), for stage-level differential comparison.

        Condition values are identified by (producer block name, op
        position in that block), not by raw value id.  Ids are
        numbered per CDFG, so two compiles of one source agree on
        them, but transforms, unrolling, cloning and source edits
        renumber them — and signatures must compare equal across
        graphs that differ only in numbering.
        """

        def cond_key(cond: Value | None):
            if cond is None:
                return None
            producer = cond.producer
            return (producer.block.name,
                    producer.block.ops.index(producer))

        states = tuple(
            (
                state.id,
                state.block_name,
                state.step,
                state.transition.if_true,
                state.transition.if_false,
                cond_key(state.transition.cond),
            )
            for state in self.states
        )
        return (self.entry, states)

    def dot(self) -> str:
        """DOT rendering of the state graph."""
        lines = ["digraph fsm {", "  node [shape=circle];"]
        for state in self.states:
            lines.append(
                f'  s{state.id} [label="S{state.id}\\n'
                f'{state.block_name}#{state.step}"];'
            )
        lines.append('  halt [shape=doublecircle, label="done"];')
        for state in self.states:
            transition = state.transition
            true_target = (
                f"s{transition.if_true}"
                if transition.if_true is not None
                else "halt"
            )
            if transition.unconditional:
                lines.append(f"  s{state.id} -> {true_target};")
            else:
                false_target = (
                    f"s{transition.if_false}"
                    if transition.if_false is not None
                    else "halt"
                )
                lines.append(
                    f'  s{state.id} -> {true_target} [label="1"];'
                )
                lines.append(
                    f'  s{state.id} -> {false_target} [label="0"];'
                )
        lines.append("}")
        return "\n".join(lines)


def synthesize_fsm(cdfg: CDFG, plans: dict[int, BlockPlan]) -> FSM:
    """Build the controller for a fully planned CDFG.

    Args:
        cdfg: the procedure.
        plans: block id → :class:`BlockPlan` for every non-empty block.
    """
    fsm = FSM()

    def chain_block(block_id: int) -> tuple[int, int] | None:
        """Create the states of one block (unlinked exit).

        Returns (entry state id, last state id), or None for an empty
        block.
        """
        plan = plans.get(block_id)
        if plan is None or plan.schedule.length == 0:
            return None
        first_id = len(fsm.states)
        steps = plan.schedule.length
        for step in range(steps):
            fsm.states.append(ControlState(len(fsm.states), plan, step))
        for offset in range(steps - 1):
            fsm.states[first_id + offset].transition = Transition(
                first_id + offset + 1
            )
        return first_id, first_id + steps - 1

    def lower(region: Region, follow: int | None) -> int | None:
        """Create states for ``region``; control falls through to
        ``follow``.  Returns the region's entry state (or ``follow``
        when the region is empty)."""
        if isinstance(region, BlockRegion):
            chain = chain_block(region.block.id)
            if chain is None:
                return follow
            entry, last = chain
            fsm.states[last].transition = Transition(follow)
            return entry
        if isinstance(region, SeqRegion):
            entry = follow
            for item in reversed(region.items):
                entry = lower(item, entry)
            return entry
        if isinstance(region, IfRegion):
            then_entry = lower(region.then_region, follow)
            else_entry = (
                lower(region.else_region, follow)
                if region.else_region is not None
                else follow
            )
            chain = chain_block(region.cond_block.id)
            if chain is None:
                raise ControllerError(
                    "if-condition block produced no states"
                )
            entry, last = chain
            fsm.states[last].transition = Transition(
                then_entry, else_entry, region.cond
            )
            return entry
        if isinstance(region, LoopRegion):
            return _lower_loop(region, follow)
        raise ControllerError(f"unknown region {region!r}")

    def _lower_loop(region: LoopRegion, follow: int | None) -> int | None:
        if region.test_in_body:
            # Post-test loop: the body's final block computes the
            # condition; its last state branches back or out.  Lower
            # the body with a halt fall-through, then patch the state
            # that falls through (it belongs to the test block).
            first_new = len(fsm.states)
            body_entry = lower(region.body, None)
            if body_entry is None:
                raise ControllerError("post-test loop has empty body")
            exits = [
                state.id
                for state in fsm.states[first_new:]
                if state.transition.unconditional
                and state.transition.if_true is None
            ]
            # The state computing the condition is the body's final
            # state — the unique fall-through among states created for
            # this body whose block is the loop's test block.
            test_plan = plans.get(region.test_block.id)
            if test_plan is None:
                raise ControllerError("post-test loop test block missing")
            candidates = [
                state_id
                for state_id in exits
                if fsm.states[state_id].plan is test_plan
            ]
            if len(candidates) != 1:
                raise ControllerError(
                    f"post-test loop must exit from its test block "
                    f"({len(candidates)} candidates)"
                )
            last = candidates[0]
            # Any other fall-throughs (unreachable in well-formed
            # bodies) keep halting — validate() will flag them if they
            # appear in a traversal, and the simulator would halt.
            if region.exit_on_true:
                fsm.states[last].transition = Transition(
                    follow, body_entry, region.cond
                )
            else:
                fsm.states[last].transition = Transition(
                    body_entry, follow, region.cond
                )
            return body_entry

        # Pre-test loop.
        chain = chain_block(region.test_block.id)
        if chain is None:
            raise ControllerError("pre-test loop has no test block")
        test_entry, test_last = chain
        body_entry = lower(region.body, test_entry)
        back = body_entry if body_entry is not None else test_entry
        if region.exit_on_true:
            fsm.states[test_last].transition = Transition(
                follow, back, region.cond
            )
        else:
            fsm.states[test_last].transition = Transition(
                back, follow, region.cond
            )
        return test_entry

    fsm.entry = lower(cdfg.body, None)
    fsm.validate()
    return fsm
