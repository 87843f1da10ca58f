"""The paper's example programs, copied in and pinned by digest.

The ``dse`` workload explores these next to generated kernels.  They
are copies, not imports from ``repro.workloads``, so a change to the
library cannot silently change what the benchmark feeds it; the
digests below catch an accidental edit of the copies themselves.
"""

from __future__ import annotations

import hashlib
import random

SQRT = """
-- Square root of X by Newton's method (DAC'88 tutorial, Fig. 1).
procedure sqrt(input X: fixed<24,16>; output Y: fixed<24,16>);
var I: uint<3>;
begin
  Y := 0.222222 + 0.888889 * X;   -- minimax initial guess on <1/16, 1>
  I := 0;
  repeat
    Y := 0.5 * (Y + X / Y);       -- Newton update
    I := I + 1;
  until I > 3;                    -- 4 iterations
end
"""

DIFFEQ = """
-- HAL differential equation benchmark: y'' + 3xy' + 3y = 0 (Euler).
procedure diffeq(input x0: fixed<32,16>; input y0: fixed<32,16>;
                 input u0: fixed<32,16>; input dx: fixed<32,16>;
                 input a: fixed<32,16>;
                 output xn: fixed<32,16>; output yn: fixed<32,16>);
var x, y, u, x1, y1, u1: fixed<32,16>;
begin
  x := x0;
  y := y0;
  u := u0;
  while x < a do
  begin
    x1 := x + dx;
    u1 := u - (3.0 * x * u * dx) - (3.0 * y * dx);
    y1 := y + u * dx;
    x := x1;
    u := u1;
    y := y1;
  end;
  xn := x;
  yn := y;
end
"""

FIR = """
-- 8-tap FIR filter: y = sum(c[i] * s[i]).
procedure fir(input x: fixed<24,12>; output y: fixed<24,12>);
var acc: fixed<24,12>;
    i: uint<8>;
    c: fixed<24,12>[8];
    s: fixed<24,12>[8];
begin
  s[0] := x;
  acc := 0.0;
  for i := 0 to 7 do
    acc := acc + c[i] * s[i];
  y := acc;
end
"""

PINNED = {
    "sqrt": (SQRT, "7e38031ab37c5ad199ded621228b833c"
                   "e178216ed9a21703807a5d53bc7d02a4"),
    "diffeq": (DIFFEQ, "88c6391e259e3b98bca397efd66fd026"
                       "69a5134cfe05aeee4aaa3173d7f06b65"),
    "fir": (FIR, "f18549a606f546f6d64b0bf9f45e62fb"
                 "dffd16d727c8c10afd7ae4ad73f6ef07"),
}

#: Diffeq runs its Euler loop this many times on every vector, so its
#: latency (and hence its hypervolume reference) is seed-independent.
DIFFEQ_STEPS = 4


def source(name: str) -> str:
    """A pinned paper source; raises if the copy was edited."""
    text, digest = PINNED[name]
    if hashlib.sha256(text.encode()).hexdigest() != digest:
        raise RuntimeError(f"pinned paper source {name!r} was modified")
    return text


def vectors(name: str, rng: random.Random,
            count: int) -> tuple[list[dict], dict | None]:
    """Seeded input vectors (and FIR memory contents) in each program's
    operating range: sqrt on the paper's <1/16, 1>, diffeq with a step
    that runs its loop :data:`DIFFEQ_STEPS` times."""
    if name == "sqrt":
        return [{"X": rng.uniform(0.0625, 1.0)} for _ in range(count)], None
    if name == "diffeq":
        dx = 0.125
        return [
            {"x0": 0.0, "y0": rng.uniform(0.5, 1.5),
             "u0": rng.uniform(-0.5, 0.5), "dx": dx,
             "a": dx * DIFFEQ_STEPS - dx / 2}
            for _ in range(count)
        ], None
    memories = {
        "c": [rng.uniform(-1.0, 1.0) for _ in range(8)],
        "s": [rng.uniform(-1.0, 1.0) for _ in range(8)],
    }
    return [{"x": rng.uniform(-2.0, 2.0)} for _ in range(count)], memories
