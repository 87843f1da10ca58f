"""Seeded random DFG generator for scheduler/allocator stress tests.

Generates layered, feed-forward single-block CDFGs with a configurable
op mix.  Determinism matters (tests assert exact results per seed), so
a local linear-congruential generator is used instead of ``random``.

Generation is split into two steps so failures can be *shrunk*:

* :func:`dfg_recipe` replays the seeded generator into a
  :class:`DFGRecipe` — a plain, serializable list of
  ``(kind, left, right)`` triples over a growing value pool;
* :func:`build_dfg` constructs the CDFG from a recipe.

``random_dfg(spec) == build_dfg(dfg_recipe(spec))`` by construction,
and :func:`shrink_recipe` delta-debugs a failing recipe — deleting ops
and rewiring edges while a caller-supplied predicate keeps failing —
until it is locally minimal.  The fuzzer (:mod:`repro.verify.corpus`)
embeds the shrunk recipe in a standalone repro script.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from ..ir.cdfg import CDFG, BlockRegion
from ..ir.opcodes import OpKind
from ..ir.types import FixedType, IntType, Type

_WORD = FixedType(16, 8)

#: Recipe op kinds legal per value domain.  Fixed-point values only
#: support arithmetic in the simulator semantics; the integer domain
#: adds the bitwise kinds (shift/divide stay out: a random operand is
#: a legal shift amount or divisor only by luck, and the behavioral
#: and RTL simulators rightly differ on how they fail).
RECIPE_KINDS: dict[str, tuple[str, ...]] = {
    "fixed": ("ADD", "SUB", "MUL"),
    "int": ("ADD", "SUB", "MUL", "AND", "OR", "XOR"),
}

#: Bit widths a recipe may use (defaults match the legacy generator).
RECIPE_WIDTHS: tuple[int, ...] = (8, 12, 16, 24, 32)


def recipe_word(domain: str, width: int) -> Type:
    """The element type of a recipe's values."""
    if domain == "int":
        return IntType(width)
    return FixedType(width, width // 2)



class _LCG:
    """Deterministic pseudo-random source."""

    def __init__(self, seed: int) -> None:
        self._state = seed & 0x7FFFFFFF or 1

    def next(self) -> int:
        self._state = (self._state * 1103515245 + 12345) & 0x7FFFFFFF
        return self._state

    def below(self, bound: int) -> int:
        return self.next() % bound

    def choice(self, items):
        return items[self.below(len(items))]


@dataclass(frozen=True)
class RandomDFGSpec:
    """Shape parameters of a generated DFG.

    Attributes:
        ops: number of computational operations.
        inputs: number of input ports feeding the first layer.
        seed: generator seed (same seed ⇒ identical CDFG).
        fan_in_window: how far back an operand may reach (larger ⇒
            longer chains, smaller ⇒ wider parallelism).
        mul_weight / add_weight: relative frequency of multiplies vs
            additive ops.
    """

    ops: int = 20
    inputs: int = 4
    seed: int = 1
    fan_in_window: int = 6
    mul_weight: int = 1
    add_weight: int = 2


@dataclass(frozen=True)
class DFGRecipe:
    """A serializable construction trace for one single-block DFG.

    The value pool is indexed ``0 .. inputs-1`` for the input reads,
    then ``inputs + k`` for the result of op ``k``.  Each op is a
    ``(kind_name, left_pool_index, right_pool_index)`` triple whose
    operand indices must precede the op itself — the recipe is a DAG by
    construction, which is what makes deletion-based shrinking sound.

    ``width`` and ``domain`` pick the element type of every value
    (see :func:`recipe_word`); the defaults reproduce the legacy
    16-bit fixed-point generator exactly, so recipes embedded in old
    repro scripts keep meaning the same graph.
    """

    inputs: int
    ops: tuple[tuple[str, int, int], ...]
    name: str = "dfg"
    width: int = 16
    domain: str = "fixed"

    def __post_init__(self) -> None:
        if self.domain not in RECIPE_KINDS:
            raise ValueError(
                f"unknown recipe domain {self.domain!r}; expected one "
                f"of {sorted(RECIPE_KINDS)}"
            )
        if self.width < 2:
            raise ValueError(f"recipe width must be >= 2, got {self.width}")
        allowed = RECIPE_KINDS[self.domain]
        for position, (kind, left, right) in enumerate(self.ops):
            limit = self.inputs + position
            if not (0 <= left < limit and 0 <= right < limit):
                raise ValueError(
                    f"recipe op {position} ({kind}) reads pool index "
                    f"{max(left, right)}, but only {limit} values "
                    f"precede it"
                )
            OpKind[kind]  # raises KeyError on an unknown kind name
            if kind not in allowed:
                raise ValueError(
                    f"recipe op {position} kind {kind} is not legal in "
                    f"the {self.domain!r} domain (allowed: {allowed})"
                )

    @property
    def op_count(self) -> int:
        return len(self.ops)

    def render(self) -> str:
        """Python-literal rendering (embedded in repro scripts)."""
        lines = [f"DFGRecipe(", f"    inputs={self.inputs},", "    ops=("]
        for kind, left, right in self.ops:
            lines.append(f"        ({kind!r}, {left}, {right}),")
        lines.append("    ),")
        lines.append(f"    name={self.name!r},")
        if self.width != 16:
            lines.append(f"    width={self.width},")
        if self.domain != "fixed":
            lines.append(f"    domain={self.domain!r},")
        lines.append(")")
        return "\n".join(lines)


def dfg_recipe(spec: RandomDFGSpec) -> DFGRecipe:
    """Replay the seeded generator into a :class:`DFGRecipe`."""
    rng = _LCG(spec.seed)
    kinds = [OpKind.MUL] * spec.mul_weight + [
        OpKind.ADD,
        OpKind.SUB,
    ] * spec.add_weight
    pool_size = spec.inputs
    ops: list[tuple[str, int, int]] = []
    for _ in range(spec.ops):
        kind = rng.choice(kinds)
        window = min(spec.fan_in_window, pool_size)
        base = pool_size - window
        left = base + rng.below(window)
        right = base + rng.below(window)
        ops.append((kind.name, left, right))
        pool_size += 1
    return DFGRecipe(spec.inputs, tuple(ops),
                     name=f"rand{spec.seed}_{spec.ops}")


def build_dfg(recipe: DFGRecipe) -> CDFG:
    """Construct the single-block CDFG a recipe describes."""
    word = recipe_word(recipe.domain, recipe.width)
    cdfg = CDFG(recipe.name)
    for index in range(recipe.inputs):
        cdfg.add_input(f"in{index}", word)
    block = cdfg.new_block("body")
    cdfg.body = BlockRegion(block)

    pool = [block.read(f"in{i}", word) for i in range(recipe.inputs)]
    for kind_name, left, right in recipe.ops:
        op = block.emit(
            OpKind[kind_name], [pool[left], pool[right]], word
        )
        pool.append(op.result)

    # Every value some op didn't consume becomes an output (keeps the
    # whole graph live under DCE).
    sink_index = 0
    for value in pool[recipe.inputs:]:
        if not value.uses:
            name = f"out{sink_index}"
            cdfg.add_output(name, word)
            block.write(name, value)
            sink_index += 1
    if sink_index == 0:
        cdfg.add_output("out0", word)
        block.write("out0", pool[-1])
    cdfg.validate()
    return cdfg


def random_dfg(spec: RandomDFGSpec) -> CDFG:
    """Generate a single-block CDFG per ``spec``."""
    return build_dfg(dfg_recipe(spec))


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------


def _delete_op(recipe: DFGRecipe, position: int) -> DFGRecipe:
    """The recipe with op ``position`` removed.

    Later references to the deleted op's result are rewired to its
    left operand (always an earlier pool index), and indices above the
    deleted slot shift down by one.
    """
    removed_index = recipe.inputs + position
    replacement = recipe.ops[position][1]

    def remap(index: int) -> int:
        if index == removed_index:
            index = replacement
        return index - 1 if index > removed_index else index

    ops = tuple(
        (kind, remap(left), remap(right))
        for k, (kind, left, right) in enumerate(recipe.ops)
        if k != position
    )
    return replace(recipe, ops=ops)


def _rewire_operand(recipe: DFGRecipe, position: int, side: int,
                    new_index: int) -> DFGRecipe:
    """The recipe with one operand of op ``position`` redirected."""
    ops = list(recipe.ops)
    kind, left, right = ops[position]
    ops[position] = (kind, new_index, right) if side == 0 \
        else (kind, left, new_index)
    return replace(recipe, ops=tuple(ops))


def shrink_recipe(recipe: DFGRecipe,
                  still_fails: Callable[[DFGRecipe], bool],
                  min_ops: int = 1) -> DFGRecipe:
    """Greedy delta-debugging reducer for a failing recipe.

    Repeats two passes to a fixpoint:

    1. **op deletion** — try removing each op (last to first, so
       downstream consumers disappear before their producers);
    2. **edge deletion** — try rewiring each operand that reads
       another op's result to an input, or one level up the chain.

    A candidate is kept only when ``still_fails(candidate)`` is True,
    so the result still reproduces the original failure and is locally
    minimal (no single deletion keeps it failing).  The predicate must
    be deterministic; it is never called on the input recipe itself.
    """
    current = recipe
    changed = True
    while changed:
        changed = False
        position = current.op_count - 1
        while position >= 0 and current.op_count > min_ops:
            candidate = _delete_op(current, position)
            if still_fails(candidate):
                current = candidate
                changed = True
            position -= 1
        for position in range(current.op_count):
            kind, left, right = current.ops[position]
            for side, operand in ((0, left), (1, right)):
                if operand < current.inputs:
                    continue  # already reads an input
                producer_left = current.ops[operand - current.inputs][1]
                for target in (0, producer_left):
                    if target == operand:
                        continue
                    candidate = _rewire_operand(
                        current, position, side, target
                    )
                    if still_fails(candidate):
                        current = candidate
                        changed = True
                        break
    return current
