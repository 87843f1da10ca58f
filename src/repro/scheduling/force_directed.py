"""Force-directed scheduling (Paulin & Knight's HAL system).

§3.1.2: "the range of possible control steps for each operation is used
to form a so-called Distribution Graph.  The distribution graph shows,
for each control step, how heavily loaded that step is, given that all
possible schedules are equally likely.  If an operation could be done
in any of k control steps, then 1/k is added to each of those control
steps … Operations are then selected and placed so as to balance the
distribution as much as possible."

This is a *time-constrained* scheduler: it minimizes the number of
functional units needed to meet a deadline.  "The number of functional
units allocated is then the maximum number required in any control
step."

The scheduler runs incrementally: after each placement, time frames
are updated by propagating only from the newly pinned operation, the
distribution graphs are delta-updated from the occupancy rows of the
operations whose frames actually moved, and only the placements that
read a changed input are rescored.  The result is the schedule of the
textbook loop that recomputes every frame, rebuilds every
distribution graph and rescores every pending operation after each
placement; that loop is kept as a test oracle (``tests/oracles.py``).

Exactness is what makes "identical" provable: distribution-graph
entries are kept as integers scaled by ``lcm(1..deadline)`` (each op
with a width-``k`` frame contributes ``scale/k`` per covered step), so
graph contents never depend on the order updates were applied in.
Both loops convert to floats the same way and score placements with
the one :meth:`ForceDirectedScheduler._best_placement` and
:meth:`ForceDirectedScheduler._self_force` expressions, in their
summation order.

The scheduler keeps, for each pending op, its best
``(force, op, step)`` and its self forces over sub-frames of its
current frame.  An op's total forces read its own frame, the frames of
its direct predecessors and successors, and the graph cells of each of
their classes inside their occupancy windows ``[asap, alap + span -
1]``.  So after a pin, an op is touched when its frame moved or a cell
of its class changed inside its window; touched ops drop their self
forces, and touched ops and their direct neighbours are rescored.
"""

from __future__ import annotations

import heapq
from math import lcm

from ..errors import SchedulingError
from ..obs import metrics
from .base import Schedule, Scheduler, SchedulingProblem
from .mobility import TimeFrames, compute_time_frames

#: Per op: ``([(pred, offset)], [(succ, offset)])``.
_Links = dict[int, tuple[list[tuple[int, int]], list[tuple[int, int]]]]


def _frames_with_fixed(problem: SchedulingProblem, deadline: int,
                       fixed: dict[int, int]) -> TimeFrames:
    """ASAP/ALAP frames where ``fixed`` ops are pinned to their step."""
    asap: dict[int, int] = {}
    for op_id in problem.topological():
        earliest = 0
        for pred in problem.graph.predecessors(op_id):
            offset = problem.edge_offset(pred, op_id)
            earliest = max(earliest, asap[pred] + offset)
        if op_id in fixed:
            if fixed[op_id] < earliest:
                raise SchedulingError(
                    f"op{op_id} pinned at {fixed[op_id]} before its "
                    f"earliest legal step {earliest}"
                )
            earliest = fixed[op_id]
        asap[op_id] = earliest
    alap: dict[int, int] = {}
    for op_id in reversed(problem.topological()):
        delay = problem.delay(op_id)
        latest = deadline - max(delay, 1)
        for succ in problem.graph.successors(op_id):
            offset = problem.edge_offset(op_id, succ)
            latest = min(latest, alap[succ] - offset)
        if op_id in fixed:
            if fixed[op_id] > latest:
                raise SchedulingError(
                    f"op{op_id} pinned at {fixed[op_id]} after its "
                    f"latest legal step {latest}"
                )
            latest = fixed[op_id]
        if latest < asap[op_id]:
            raise SchedulingError(
                f"op{op_id} has empty time frame under deadline {deadline}"
            )
        alap[op_id] = latest
    return TimeFrames(asap=asap, alap=alap, deadline=deadline)


def _occupancy_probability(frames: TimeFrames, delay: int, op_id: int,
                           step: int) -> float:
    """Probability that the op is active in ``step`` when every start in
    its frame is equally likely (multicycle ops occupy delay steps)."""
    first = frames.asap[op_id]
    last = frames.alap[op_id]
    width = last - first + 1
    span = max(delay, 1)
    active_starts = sum(
        1 for t in range(first, last + 1) if t <= step <= t + span - 1
    )
    return active_starts / width


def distribution_graph(problem: SchedulingProblem, frames: TimeFrames,
                       resource_class: str) -> list[float]:
    """The HAL distribution graph for one resource class (Fig. 5)."""
    graph = [0.0] * frames.deadline
    for op in problem.ops:
        if problem.op_class(op.id) != resource_class:
            continue
        delay = problem.delay(op.id)
        for step in range(frames.deadline):
            graph[step] += _occupancy_probability(
                frames, delay, op.id, step
            )
    return graph


def _probability_row(first: int, last: int, span: int) -> dict[int, float]:
    """Occupancy probabilities of a frame whose starts are equally
    likely, keyed by step in ascending order.

    ``row[s]`` adds ``1/width`` once per start in ``[first, last]`` that
    keeps the op active in ``s``, left to right from ``0.0`` — the same
    float sums as accumulating the row start by start.
    """
    share = 1.0 / (last - first + 1)
    if span == 1:
        return dict.fromkeys(range(first, last + 1), share)
    sums = [0.0]
    for _ in range(span):
        sums.append(sums[-1] + share)
    return {
        s: sums[min(s, last) - max(s - span + 1, first) + 1]
        for s in range(first, last + span)
    }


# ----------------------------------------------------------------------
# Exact distribution-graph state
# ----------------------------------------------------------------------


def _scaled_row(first: int, last: int, span: int, deadline: int,
                scale: int) -> dict[int, int]:
    """One op's occupancy row, integer-scaled: ``row[step]`` is
    ``active_starts(step) * scale / width`` for frame ``[first, last]``.
    """
    unit = scale // (last - first + 1)
    row: dict[int, int] = {}
    for t in range(first, last + 1):
        for s in range(t, min(t + span, deadline)):
            row[s] = row.get(s, 0) + unit
    return row


class _DistributionState:
    """Per-class distribution graphs as exact scaled integers.

    ``graphs[cls][step]`` holds the class's expected load times
    ``scale``; :meth:`refresh_op` delta-updates a single op's
    contribution after its time frame moved.  Because the entries are
    integers, delta-updated graphs equal rebuilt-from-scratch graphs
    bit for bit — the property the oracle-parity regression tests rely
    on.
    """

    def __init__(self, problem: SchedulingProblem, deadline: int,
                 frames: TimeFrames) -> None:
        self.problem = problem
        self.deadline = deadline
        self.frames = frames
        self.scale = lcm(*range(1, deadline + 1)) if deadline >= 1 else 1
        self.graphs: dict[str, list[int]] = {
            cls: [0] * deadline
            for cls in problem.model.classes_used(problem.ops)
        }
        self._rows: dict[int, dict[int, int]] = {}
        for op in problem.ops:
            cls = problem.op_class(op.id)
            if cls is None:
                continue
            row = self._row_of(op.id)
            self._rows[op.id] = row
            graph = self.graphs[cls]
            for step, load in row.items():
                graph[step] += load

    def _row_of(self, op_id: int) -> dict[int, int]:
        return _scaled_row(
            self.frames.asap[op_id], self.frames.alap[op_id],
            max(self.problem.delay(op_id), 1), self.deadline, self.scale,
        )

    def refresh_op(self, op_id: int) -> list[int]:
        """Replace one op's contribution after its frame changed and
        return the steps of its class's graph whose load changed."""
        old_row = self._rows.get(op_id)
        if old_row is None:  # free op: contributes nothing
            return []
        cls = self.problem.op_class(op_id)
        assert cls is not None
        new_row = self._row_of(op_id)
        graph = self.graphs[cls]
        for step, load in old_row.items():
            graph[step] -= load
        for step, load in new_row.items():
            graph[step] += load
        self._rows[op_id] = new_row
        return [
            step for step in old_row.keys() | new_row.keys()
            if old_row.get(step) != new_row.get(step)
        ]

    def float_graphs(self) -> dict[str, list[float]]:
        """The graphs in HAL's 1/k units, for force evaluation."""
        scale = self.scale
        return {
            cls: [load / scale for load in graph]
            for cls, graph in self.graphs.items()
        }


# ----------------------------------------------------------------------
# Incremental time frames
# ----------------------------------------------------------------------


class _IncrementalFrames:
    """Time frames maintained under a growing set of pinned ops.

    Pinning an op can only *shrink* frames (ASAPs rise downstream,
    ALAPs fall upstream), so after each pin it suffices to propagate
    outward from the pinned op along dependence edges, visiting nodes
    in (reverse) topological order and stopping where nothing moved.
    The result is exactly ``_frames_with_fixed(problem, deadline,
    fixed)`` at every iteration.
    """

    def __init__(self, problem: SchedulingProblem, deadline: int) -> None:
        self.problem = problem
        self.deadline = deadline
        self.frames = _frames_with_fixed(problem, deadline, {})
        self.fixed: dict[int, int] = {}
        self._pos = {
            op_id: pos for pos, op_id in enumerate(problem.topological())
        }

    def pin(self, op_id: int, step: int) -> set[int]:
        """Pin ``op_id`` to ``step``; return ids whose frame changed."""
        frames = self.frames
        if step < frames.asap[op_id] or step > frames.alap[op_id]:
            raise SchedulingError(
                f"op{op_id} pinned at {step} outside its time frame "
                f"[{frames.asap[op_id]}, {frames.alap[op_id]}]"
            )
        self.fixed[op_id] = step
        changed: set[int] = set()
        if frames.asap[op_id] != step:
            frames.asap[op_id] = step
            changed.add(op_id)
            self._propagate_asap(op_id, changed)
        if frames.alap[op_id] != step:
            frames.alap[op_id] = step
            changed.add(op_id)
            self._propagate_alap(op_id, changed)
        return changed

    def _propagate_asap(self, source: int, changed: set[int]) -> None:
        graph = self.problem.graph
        frames = self.frames
        heap: list[tuple[int, int]] = []
        queued: set[int] = set()
        for succ in graph.successors(source):
            heapq.heappush(heap, (self._pos[succ], succ))
            queued.add(succ)
        while heap:
            _, node = heapq.heappop(heap)
            queued.discard(node)
            earliest = 0
            for pred in graph.predecessors(node):
                offset = self.problem.edge_offset(pred, node)
                earliest = max(earliest, frames.asap[pred] + offset)
            if node in self.fixed:
                if earliest > self.fixed[node]:
                    raise SchedulingError(
                        f"op{node} pinned at {self.fixed[node]} before "
                        f"its earliest legal step {earliest}"
                    )
                continue
            if earliest > frames.asap[node]:
                frames.asap[node] = earliest
                changed.add(node)
                if frames.alap[node] < earliest:
                    raise SchedulingError(
                        f"op{node} has empty time frame under deadline "
                        f"{self.deadline}"
                    )
                for succ in graph.successors(node):
                    if succ not in queued:
                        heapq.heappush(heap, (self._pos[succ], succ))
                        queued.add(succ)

    def _propagate_alap(self, source: int, changed: set[int]) -> None:
        graph = self.problem.graph
        frames = self.frames
        heap: list[tuple[int, int]] = []
        queued: set[int] = set()
        for pred in graph.predecessors(source):
            heapq.heappush(heap, (-self._pos[pred], pred))
            queued.add(pred)
        while heap:
            _, node = heapq.heappop(heap)
            queued.discard(node)
            latest = self.deadline - max(self.problem.delay(node), 1)
            for succ in graph.successors(node):
                offset = self.problem.edge_offset(node, succ)
                latest = min(latest, frames.alap[succ] - offset)
            if node in self.fixed:
                if latest < self.fixed[node]:
                    raise SchedulingError(
                        f"op{node} pinned at {self.fixed[node]} after "
                        f"its latest legal step {latest}"
                    )
                continue
            if latest < frames.alap[node]:
                frames.alap[node] = latest
                changed.add(node)
                if latest < frames.asap[node]:
                    raise SchedulingError(
                        f"op{node} has empty time frame under deadline "
                        f"{self.deadline}"
                    )
                for pred in graph.predecessors(node):
                    if pred not in queued:
                        heapq.heappush(heap, (-self._pos[pred], pred))
                        queued.add(pred)


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------


class ForceDirectedScheduler(Scheduler):
    """Time-constrained scheduler balancing distribution graphs.

    Force-directed scheduling minimizes units under a deadline; it
    balances load but never enforces per-step caps, so under explicit
    resource constraints the balanced schedule can oversubscribe a
    class (two same-class ops whose frames collapse onto one step).
    When that happens the schedule is legalized the way Paulin &
    Knight handle the resource-constrained case — force-directed
    *list* scheduling: the balanced start steps become the list
    priorities (earlier balanced start runs first) and ops re-place
    greedily under the caps, which may lengthen the schedule.  A
    problem ``time_limit`` is still enforced by ``validate()``:
    exceeding it after legalization is a real infeasibility.

    Args:
        problem: the scheduling problem.
        deadline: available control steps; defaults to the problem's
            time limit, else the critical path length.
    """

    name = "force-directed"

    def __init__(self, problem: SchedulingProblem,
                 deadline: int | None = None) -> None:
        super().__init__(problem)
        if deadline is None:
            deadline = problem.time_limit
        if deadline is None:
            base = compute_time_frames(problem)
            deadline = base.deadline
        self.deadline = deadline

    def schedule(self) -> Schedule:
        result = self._schedule_incremental(self.deadline)
        if self._oversubscribed(result):
            result = self._legalize(result)
            metrics().counter("scheduler.fds.legalized").inc()
        return result

    def _oversubscribed(self, schedule: Schedule) -> bool:
        """True when a step uses more units than the constraints allow."""
        constraints = self.problem.constraints
        return any(
            (limit := constraints.limit(cls)) is not None
            and used > limit
            for (_, cls), used in schedule.busy_usage().items()
        )

    def _legalize(self, balanced: Schedule) -> Schedule:
        """Force-directed list scheduling over the balanced result.

        The balanced schedule's global ordering decisions survive as
        priorities; the list pass guarantees the caps.
        """
        from .list_scheduler import ListScheduler

        order = dict(balanced.start)

        def balanced_priority(problem: SchedulingProblem):
            return {op_id: -step for op_id, step in order.items()}

        repaired = ListScheduler(
            self.problem, priority=balanced_priority
        ).schedule()
        return Schedule(self.problem, dict(repaired.start),
                        scheduler=self.name)

    def _schedule_incremental(self, deadline: int) -> Schedule:
        problem = self.problem
        graph = problem.graph
        incremental = _IncrementalFrames(problem, deadline)
        frames = incremental.frames
        state = _DistributionState(problem, deadline, frames)
        graphs = state.float_graphs()
        pending = set(problem.compute_op_ids())
        # Per op, keyed by sub-frame of its current frame: self forces,
        # valid while the op's frame and the graph cells of its class
        # inside its occupancy window stay put, and probability rows,
        # valid while its frame stays put.
        forces: dict[int, dict[tuple[int, int], float]] = {}
        rows: dict[int, dict[tuple[int, int], dict[int, float]]] = {}

        def self_force(op_id: int, first: int, last: int) -> float:
            memo = forces.get(op_id)
            if memo is None:
                memo = forces[op_id] = {}
            force = memo.get((first, last))
            if force is None:
                op_rows = rows.get(op_id)
                if op_rows is None:
                    op_rows = rows[op_id] = {}
                force = memo[first, last] = self._self_force(
                    problem, frames, graphs, op_id, first, last, op_rows,
                )
            return force

        links = self._links()
        best = {
            op_id: self._best_placement(frames, links, op_id, self_force)
            for op_id in pending
        }
        while pending:
            _, op_id, step = min(best.values())
            pending.discard(op_id)
            del best[op_id]
            moved = incremental.pin(op_id, step)
            forces.pop(op_id, None)
            rows.pop(op_id, None)
            # Delta-update the graphs; note the changed cells per class.
            changed: dict[str, int] = {}  # class -> bitmask of steps
            for moved_id in moved:
                rows.pop(moved_id, None)
                steps = state.refresh_op(moved_id)
                if not steps:
                    continue
                cls = problem.op_class(moved_id)
                loads, floats = state.graphs[cls], graphs[cls]
                mask = changed.get(cls, 0)
                for s in steps:
                    floats[s] = loads[s] / state.scale
                    mask |= 1 << s
                changed[cls] = mask
            # Touched: ops whose own self forces read a changed input.
            touched = set(moved)
            if changed:
                for other in pending:
                    mask = changed.get(problem.op_class(other), 0)
                    first = frames.asap[other]
                    width = (frames.alap[other] - first
                             + max(problem.delay(other), 1))
                    if mask >> first & ((1 << width) - 1):
                        touched.add(other)
            # Rescore touched ops and every op that reads their forces.
            dirty: set[int] = set()
            for other in touched:
                forces.pop(other, None)
                dirty.add(other)
                dirty.update(graph.predecessors(other))
                dirty.update(graph.successors(other))
            for other in dirty & pending:
                best[other] = self._best_placement(frames, links, other,
                                                   self_force)
        return self._finish(incremental.fixed, frames)

    def _links(self) -> _Links:
        """Per compute op: its (predecessor, offset) and (successor,
        offset) dependence edges, in graph order."""
        problem = self.problem
        graph = problem.graph
        return {
            op_id: (
                [(pred, problem.edge_offset(pred, op_id))
                 for pred in graph.predecessors(op_id)],
                [(succ, problem.edge_offset(op_id, succ))
                 for succ in graph.successors(op_id)],
            )
            for op_id in problem.compute_op_ids()
        }

    def _best_placement(self, frames: TimeFrames, links: _Links,
                        op_id: int, self_force) -> tuple[float, int, int]:
        """``op_id``'s placement minimizing total force, ties to the
        smallest step, as a ``(force, op id, step)`` key.

        The total force of a step is the op's self force plus the
        implied forces on the direct predecessors and successors whose
        frames it cuts; ``self_force(op, first, last)`` is
        :meth:`_self_force` over the current frames and graphs,
        possibly memoized.
        """
        preds, succs = links[op_id]
        asap, alap = frames.asap, frames.alap
        best: tuple[float, int, int] | None = None
        for step in range(asap[op_id], alap[op_id] + 1):
            force = self_force(op_id, step, step)
            for pred, offset in preds:
                if step - offset < alap[pred]:
                    force += self_force(pred, asap[pred], step - offset)
            for succ, offset in succs:
                if step + offset > asap[succ]:
                    force += self_force(succ, step + offset, alap[succ])
            key = (force, op_id, step)
            if best is None or key < best:
                best = key
        assert best is not None
        return best

    def _finish(self, fixed: dict[int, int],
                frames: TimeFrames) -> Schedule:
        # Free ops take their earliest start under the pinned schedule.
        start = dict(fixed)
        for op in self.problem.ops:
            if op.id not in start:
                start[op.id] = frames.asap[op.id]
        return Schedule(self.problem, start, scheduler=self.name)

    # ------------------------------------------------------------------

    def _self_force(self, problem: SchedulingProblem, frames: TimeFrames,
                    graphs: dict[str, list[float]], op_id: int,
                    new_first: int, new_last: int,
                    rows: dict[tuple[int, int], dict[int, float]],
                    ) -> float:
        """Change in (DG-weighted) expected load if the op's frame
        shrinks from its current range to ``[new_first, new_last]``.

        ``rows`` memoizes this op's probability rows by frame."""
        cls = problem.op_class(op_id)
        if cls is None:
            return 0.0
        graph = graphs[cls]
        span = max(problem.delay(op_id), 1)

        def probabilities(first: int, last: int) -> dict[int, float]:
            probs = rows.get((first, last))
            if probs is None:
                probs = rows[first, last] = _probability_row(first, last,
                                                             span)
            return probs

        old_probs = probabilities(frames.asap[op_id], frames.alap[op_id])
        new_probs = probabilities(new_first, new_last)
        # Summation order is part of the result: both scheduling paths
        # must add the same terms in the same (set iteration) order.
        size = len(graph)
        new_get, old_get = new_probs.get, old_probs.get
        force = 0.0
        for s in set(old_probs) | set(new_probs):
            if s < size:
                force += graph[s] * (new_get(s, 0.0) - old_get(s, 0.0))
        return force
