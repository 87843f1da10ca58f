"""Hardware data types for the behavioral IR.

The tutorial's algorithmic level works on "integers and/or bit strings
and arrays, rather than boolean variables".  We model that with three
concrete types:

* :class:`IntType` — a two's-complement (or unsigned) integer of a fixed
  bit width.  Arithmetic wraps modulo ``2**width`` exactly as a hardware
  register would, which is what makes the paper's two-bit loop-counter
  trick (``I = 3`` then ``I + 1`` gives ``0``) behave correctly.
* :class:`FixedType` — a fixed-point number: an integer of ``width``
  bits whose real value is the stored integer divided by
  ``2**frac_bits``.  The square-root example's constants (0.222222,
  0.888889, 0.5) live in this type; multiplying by 0.5 is exactly a
  right shift by one, which is the strength reduction the paper applies.
* :class:`ArrayType` — a fixed-length array of a scalar element type,
  implemented in hardware as an addressable memory.

``BOOL`` is a 1-bit unsigned integer, the natural result type of
comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Type:
    """Base class for IR types.  Instances are immutable and hashable."""

    def __str__(self) -> str:  # pragma: no cover - overridden
        return self.__class__.__name__


@dataclass(frozen=True)
class IntType(Type):
    """A fixed-width integer.

    Args:
        width: number of bits, at least 1.
        signed: two's-complement interpretation when True.
    """

    width: int
    signed: bool = True

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"integer width must be >= 1, got {self.width}")

    @property
    def min_value(self) -> int:
        return -(1 << (self.width - 1)) if self.signed else 0

    @property
    def max_value(self) -> int:
        if self.signed:
            return (1 << (self.width - 1)) - 1
        return (1 << self.width) - 1

    def wrap(self, value: int) -> int:
        """Reduce ``value`` into this type's range, hardware-style.

        Unsigned types wrap modulo ``2**width``; signed types wrap the
        two's-complement bit pattern.
        """
        mask = (1 << self.width) - 1
        value &= mask
        if self.signed and value > self.max_value:
            value -= 1 << self.width
        return value

    def __str__(self) -> str:
        prefix = "int" if self.signed else "uint"
        return f"{prefix}<{self.width}>"


@dataclass(frozen=True)
class FixedType(Type):
    """A fixed-point number: ``width`` total bits, ``frac_bits`` of them
    fractional.  The stored integer ``i`` represents ``i / 2**frac_bits``.

    Args:
        width: total bit width including fraction and sign.
        frac_bits: number of fractional bits (0 <= frac_bits < width).
        signed: two's-complement when True.
    """

    width: int
    frac_bits: int
    signed: bool = True

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"fixed width must be >= 1, got {self.width}")
        if not 0 <= self.frac_bits < self.width:
            raise ValueError(
                f"frac_bits must be in [0, width), got {self.frac_bits}"
            )

    @property
    def scale(self) -> int:
        """The denominator ``2**frac_bits``."""
        return 1 << self.frac_bits

    def quantize(self, real: float) -> float:
        """Round ``real`` to the nearest representable value and wrap.

        Rounds half away from zero (the usual DSP convention), then
        wraps the stored integer into the type's bit width.
        """
        scaled = real * self.scale
        stored = int(scaled + 0.5) if scaled >= 0 else -int(-scaled + 0.5)
        as_int = IntType(self.width, self.signed)
        return as_int.wrap(stored) / self.scale

    def __str__(self) -> str:
        prefix = "fixed" if self.signed else "ufixed"
        return f"{prefix}<{self.width},{self.frac_bits}>"


@dataclass(frozen=True)
class ArrayType(Type):
    """A fixed-length array of scalar elements, realized as a memory.

    Args:
        element: scalar element type (IntType or FixedType).
        length: number of elements, at least 1.
    """

    element: Type
    length: int

    def __post_init__(self) -> None:
        if isinstance(self.element, ArrayType):
            raise ValueError("arrays of arrays are not supported")
        if self.length < 1:
            raise ValueError(f"array length must be >= 1, got {self.length}")

    @property
    def address_width(self) -> int:
        """Bits needed to address every element."""
        return max(1, (self.length - 1).bit_length())

    def __str__(self) -> str:
        return f"{self.element}[{self.length}]"


BOOL = IntType(1, signed=False)
"""The 1-bit unsigned type produced by comparisons and logic reductions."""


def is_scalar(type_: Type) -> bool:
    """True for types a register can hold (ints and fixed-point)."""
    return isinstance(type_, (IntType, FixedType))


def bit_width(type_: Type) -> int:
    """Total storage width in bits of any IR type."""
    if isinstance(type_, (IntType, FixedType)):
        return type_.width
    if isinstance(type_, ArrayType):
        return bit_width(type_.element) * type_.length
    raise TypeError(f"unknown type {type_!r}")


def common_type(a: Type, b: Type) -> Type:
    """The result type of a binary arithmetic operation on ``a`` and ``b``.

    Widths widen to the maximum; mixing int and fixed promotes to fixed
    with the larger fraction; signedness is sticky (signed wins).
    """
    if isinstance(a, ArrayType) or isinstance(b, ArrayType):
        raise TypeError("arithmetic on array types is not defined")
    signed = getattr(a, "signed", True) or getattr(b, "signed", True)
    a_frac = a.frac_bits if isinstance(a, FixedType) else 0
    b_frac = b.frac_bits if isinstance(b, FixedType) else 0
    frac = max(a_frac, b_frac)
    width = max(a.width, b.width)
    if frac == 0:
        return IntType(width, signed)
    return FixedType(max(width, frac + 1), frac, signed)
