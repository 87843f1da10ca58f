"""Range-driven bitwidth narrowing.

The datapath is costed from *declared* widths (FU widths, register
bits, mux fan-in bits — see :mod:`repro.estimation.area`), yet the
values flowing through it often provably fit far fewer bits.  This pass
consumes the sound interval analysis (:mod:`repro.analysis.ranges`)
and shrinks every value type and local register to the smallest width
whose representable range still covers the value's interval, leaving
signedness, fixed-point scaling and the type class untouched — so the
shrunken type represents *exactly* the same set of reachable values
and every downstream ``coerce`` is the identity it was before.

Width conversions stay implicit: in this IR every consumer re-coerces
at its boundary (``VAR_WRITE``/``STORE`` coerce onto the destination
type, FU input nets sign-extend up to the pin width in the datapath),
so narrowing never has to materialize separate extend/trunc
operations; the proof obligation is purely that each value's interval
fits its new type (see ``docs/static-analysis.md``).

Safety rules:

* **Ports are interface contracts** — input/output types are never
  changed.
* **Bitwise operands** (`AND`/`OR`/`XOR`/`NOT`) are masked to their
  *own* declared width by ``_as_bits``, which is value-changing for
  negative values; a value consumed bitwise is only narrowed when its
  interval is provably non-negative (same bit pattern either way), and
  a variable with such a read is left alone entirely.
* **Registers** (declared variable types) narrow to the hull of every
  value the variable ever holds, including its implicit zero
  initialization.

Narrowing under an input contract (``assume``) is sound only for
executions honoring the contract; the synthesis engine verifies the
narrowed design against the behavioral reference with contract-
respecting vectors (see ``SynthesisOptions.narrow``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from ..analysis.ranges import Interval, RangesResult, range_analysis
from ..ir.cdfg import CDFG
from ..ir.opcodes import OpKind
from ..ir.types import FixedType, IntType, Type
from .base import Pass

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.semantics import Number

#: Bitwise kinds whose operands are consumed as masked bit patterns.
_BITWISE = (OpKind.AND, OpKind.OR, OpKind.XOR, OpKind.NOT)


def _signed_width(lo: int, hi: int) -> int:
    """Minimal signed two's-complement width covering [lo, hi]."""
    width = 1
    while lo < -(1 << (width - 1)) or hi > (1 << (width - 1)) - 1:
        width += 1
    return width


def _unsigned_width(hi: int) -> int:
    return max(1, int(hi).bit_length())


def narrowed_type(type_: Type, interval: Interval) -> Type | None:
    """The narrowest same-class type holding ``interval``, or None when
    no shrink is possible."""
    if isinstance(type_, FixedType):
        lo = round(interval.lo * type_.scale)
        hi = round(interval.hi * type_.scale)
        width = (
            _signed_width(lo, hi) if type_.signed else _unsigned_width(hi)
        )
        width = max(width, type_.frac_bits + 1)
        if width < type_.width:
            return FixedType(width, type_.frac_bits, type_.signed)
        return None
    if isinstance(type_, IntType):
        lo, hi = int(interval.lo), int(interval.hi)
        width = (
            _signed_width(lo, hi) if type_.signed else _unsigned_width(hi)
        )
        if width < type_.width:
            return IntType(width, type_.signed)
        return None
    return None


class RangeNarrowing(Pass):
    """Shrink value and register widths to their inferred ranges."""

    name = "range-narrow"

    def __init__(
        self, assume: Mapping[str, tuple[Number, Number]] | None = None
    ) -> None:
        self._assume = dict(assume or {})
        self.narrowed_values = 0
        self.narrowed_variables = 0
        self.bits_saved = 0

    def run(self, cdfg: CDFG) -> bool:
        self.narrowed_values = 0
        self.narrowed_variables = 0
        self.bits_saved = 0
        ranges = range_analysis(cdfg, assume=self._assume)

        pinned_values, pinned_variables = self._bitwise_pins(cdfg, ranges)

        for op in cdfg.operations():
            result = op.result
            if result is None or result.id in pinned_values:
                continue
            interval = ranges.values.get(result.id)
            if interval is None:
                continue
            narrow = narrowed_type(result.type, interval)
            if narrow is None:
                continue
            self.bits_saved += result.type.width - narrow.width
            result.type = narrow
            self.narrowed_values += 1

        ports = {port.name for port in cdfg.inputs}
        ports |= {port.name for port in cdfg.outputs}
        for var, declared in cdfg.variables.items():
            if var in ports or var in pinned_variables:
                continue
            hull = ranges.variables.get(var)
            if hull is None:
                continue
            narrow = narrowed_type(declared, hull)
            if narrow is None:
                continue
            self.bits_saved += declared.width - narrow.width
            cdfg.variables[var] = narrow
            self.narrowed_variables += 1

        changed = bool(self.narrowed_values or self.narrowed_variables)
        if changed:
            cdfg.validate()
        return changed

    def summary(self) -> str:
        return (
            f"{self.narrowed_values} value(s), "
            f"{self.narrowed_variables} register(s) narrowed, "
            f"{self.bits_saved} bit(s) saved"
        )

    # ------------------------------------------------------------------

    def _bitwise_pins(
        self, cdfg: CDFG, ranges: RangesResult
    ) -> tuple[set[int], set[str]]:
        """Values (and the variables they read) whose width must stay:
        possibly-negative operands of bitwise ops, where the operand
        width is part of the ``_as_bits`` masking semantics."""
        values: set[int] = set()
        variables: set[str] = set()
        for op in cdfg.operations():
            if op.kind not in _BITWISE:
                continue
            for value in op.operands:
                interval = ranges.values.get(value.id)
                if interval is not None and interval.lo >= 0:
                    continue  # same bit pattern at any covering width
                values.add(value.id)
                if value.producer.kind is OpKind.VAR_READ:
                    variables.add(value.producer.attrs["var"])
        return values, variables
