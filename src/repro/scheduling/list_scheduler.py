"""List scheduling with pluggable priority functions.

§3.1.2: "List scheduling overcomes [ASAP's] problem by using a more
global criterion for selecting the next operation … For each control
step to be scheduled, the operations that are available to be scheduled
into that control step … are kept in a list, ordered by some priority
function."  Studies cited by the paper found it "works nearly as well
as branch-and-bound scheduling in microcode optimization".

Three priority functions from the paper's survey are provided:

* :func:`path_length_priority` — "the length of the path from the
  operation to the end of the block" (the BUD system; also the classic
  critical-path list scheduling of Fig. 4);
* :func:`urgency_priority` — the op's latest legal start (ALAP step):
  smaller = more urgent.  This is the Elf/ISYN "urgency … length of the
  shortest path from that operation to the nearest local constraint",
  with the block deadline as the constraint;
* :func:`mobility_priority` — ALAP minus ASAP: ops with the least
  freedom first.
"""

from __future__ import annotations

from typing import Callable

from ..obs import metrics
from .base import Schedule, Scheduler, SchedulingProblem
from .mobility import compute_time_frames

PriorityFn = Callable[[SchedulingProblem], dict[int, float]]
"""Maps each op id to a priority; *higher runs first*."""


def path_length_priority(problem: SchedulingProblem) -> dict[int, float]:
    """Longest delay-weighted path from the op to any sink (BUD)."""
    return dict(problem.path_lengths_to_sink())


def urgency_priority(problem: SchedulingProblem) -> dict[int, float]:
    """Negated ALAP start: ops that must start sooner come first."""
    frames = compute_time_frames(problem)
    return {op_id: -frames.alap[op_id] for op_id in frames.alap}


def mobility_priority(problem: SchedulingProblem) -> dict[int, float]:
    """Negated mobility: least-slack ops first (zero slack = critical)."""
    frames = compute_time_frames(problem)
    return {op_id: -frames.mobility(op_id) for op_id in frames.asap}


PRIORITY_FUNCTIONS: dict[str, PriorityFn] = {
    "path_length": path_length_priority,
    "urgency": urgency_priority,
    "mobility": mobility_priority,
}


class ListScheduler(Scheduler):
    """Resource-constrained list scheduler.

    Args:
        problem: the scheduling problem (constraints are honoured).
        priority: a :data:`PriorityFn` or the name of a registered one.
    """

    name = "list"

    def __init__(self, problem: SchedulingProblem,
                 priority: PriorityFn | str = "path_length") -> None:
        super().__init__(problem)
        if isinstance(priority, str):
            self.name = f"list/{priority}"
            priority = PRIORITY_FUNCTIONS[priority]
        self._priority_fn = priority

    def schedule(self) -> Schedule:
        problem = self.problem
        graph = problem.graph
        priority = self._priority_fn(problem)
        # Candidate order: higher priority first, ties to the smaller id.
        rank = {
            op_id: position
            for position, op_id in enumerate(sorted(
                (op.id for op in problem.ops),
                key=lambda op_id: (-priority[op_id], op_id),
            ))
        }
        start: dict[int, int] = {}
        usage: dict[tuple[int, str], int] = {}
        # Predecessors still unplaced, per op.  An op joins ``ready``
        # (op id -> the step its operands settle in) when its last
        # predecessor is placed, and leaves it when it is placed itself.
        unplaced_preds = {op.id: graph.in_degree(op.id) for op in problem.ops}
        ready = {op_id: 0 for op_id, count in unplaced_preds.items()
                 if count == 0}
        remaining = len(unplaced_preds)
        deferred = 0

        step = 0
        guard = 0
        guard_limit = 10 * len(problem.ops) + problem.critical_path() + 100
        while remaining:
            guard += 1
            if guard > guard_limit:
                raise AssertionError("list scheduler failed to converge")
            progressed = True
            while progressed:
                progressed = False
                # Ops that become ready during a pass wait for the next.
                candidates = sorted(
                    (op_id for op_id, ready_at in ready.items()
                     if ready_at <= step),
                    key=rank.__getitem__,
                )
                for op_id in candidates:
                    if not self._try_place(op_id, step, ready[op_id],
                                           start, usage):
                        # Resource pressure deferred a ready op.
                        deferred += 1
                        continue
                    del ready[op_id]
                    remaining -= 1
                    for succ in graph.successors(op_id):
                        unplaced_preds[succ] -= 1
                        if not unplaced_preds[succ]:
                            ready[succ] = self._ready_step(succ, start)
                    progressed = True
            step += 1

        if deferred:
            # A branch only constrained problems take; counted so
            # coverage fingerprints see it.
            metrics().counter("scheduler.list.deferred").inc(deferred)
        return Schedule(problem, start, scheduler=self.name)

    # ------------------------------------------------------------------

    def _ready_step(self, op_id: int, start: dict[int, int]) -> int:
        """The step all of ``op_id``'s operands settle in (every
        predecessor is placed)."""
        problem = self.problem
        ready = 0
        for pred in problem.graph.predecessors(op_id):
            offset = problem.edge_offset(pred, op_id)
            ready = max(ready, start[pred] + offset)
        return ready

    def _try_place(self, op_id: int, step: int, ready_at: int,
                   start: dict[int, int],
                   usage: dict[tuple[int, str], int]) -> bool:
        """Place ready ``op_id`` in ``step`` if resources allow; free
        ops are placed at their ready step ``ready_at`` (chaining)."""
        problem = self.problem
        cls = problem.op_class(op_id)
        if cls is None:
            start[op_id] = ready_at
            return True
        limit = problem.constraints.limit(cls)
        occupancy = problem.occupancy(op_id)
        if limit is not None:
            # Usage only grows within a step: once the class is full at
            # ``step``, every later candidate of it fails here.
            if usage.get((step, cls), 0) >= limit:
                return False
            for k in range(1, occupancy):
                if usage.get((step + k, cls), 0) >= limit:
                    return False
        for k in range(occupancy):
            usage[(step + k, cls)] = usage.get((step + k, cls), 0) + 1
        start[op_id] = step
        return True
