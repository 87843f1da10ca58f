"""Seeded input generator owned by the benchmark.

Every generated program is emitted twice from one statement list: as
BSL text for the synthesis library and as a Python *twin* that models
the same integer semantics exactly (``int<W>`` two's-complement wrap
after every ``+ - * & | ^``, signed comparisons, ``if``/``else``,
constant-trip ``for`` loops and bounded ``while`` loops whose counters
never wrap).  The twin is the reference the benchmark co-simulates the
synthesized RTL against; it shares no code with the library.

Nothing here imports :mod:`repro`.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

ARITH = ("+", "-", "&", "|", "^")
COMPARE = ("<", "<=", ">", ">=", "=", "/=")
_PY_COMPARE = {"=": "==", "/=": "!="}


@dataclass(frozen=True)
class Program:
    """One generated benchmark input.

    Attributes:
        name: BSL procedure name.
        source: BSL text.
        twin_source: Python text defining ``twin(**inputs) -> outputs``.
        inputs / outputs: port names, in declaration order.
        width: the ``int<W>`` every port and variable uses.
        ops: arithmetic operators in the source (a size measure the
            generator controls; IR op counts come from the compiler).
    """

    name: str
    source: str
    twin_source: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    width: int
    ops: int

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.source.encode()).hexdigest()[:16]

    def twin(self):
        """The compiled Python reference function."""
        namespace: dict = {}
        exec(compile(self.twin_source, f"<twin {self.name}>", "exec"),
             namespace)
        return namespace["twin"]

    def vectors(self, rng: random.Random, count: int) -> list[dict]:
        """``count`` seeded input vectors spanning the port range."""
        low, high = -(1 << (self.width - 1)), (1 << (self.width - 1)) - 1
        vectors = []
        for index in range(count):
            if index == 0:
                vectors.append({name: 1 for name in self.inputs})
                continue
            vectors.append({
                name: rng.randint(low, high) for name in self.inputs
            })
        return vectors


# ----------------------------------------------------------------------
# Statement trees, rendered to BSL and to Python.
# ----------------------------------------------------------------------

@dataclass
class Assign:
    target: str
    expr: str  # operands and operators in BSL syntax, left-associative
    py_expr: str

    def bsl(self, indent: str) -> list[str]:
        return [f"{indent}{self.target} := {self.expr};"]

    def py(self, indent: str) -> list[str]:
        return [f"{indent}{self.target} = w({self.py_expr})"]


@dataclass
class If:
    left: str
    op: str
    right: str
    then: list
    orelse: list

    def bsl(self, indent: str) -> list[str]:
        lines = [f"{indent}if {self.left} {self.op} {self.right} then",
                 f"{indent}begin"]
        for stmt in self.then:
            lines += stmt.bsl(indent + "  ")
        lines.append(f"{indent}end")
        lines.append(f"{indent}else")
        lines.append(f"{indent}begin")
        for stmt in self.orelse:
            lines += stmt.bsl(indent + "  ")
        lines.append(f"{indent}end;")
        return lines

    def py(self, indent: str) -> list[str]:
        op = _PY_COMPARE.get(self.op, self.op)
        lines = [f"{indent}if {self.left} {op} {self.right}:"]
        for stmt in self.then:
            lines += stmt.py(indent + "    ")
        lines.append(f"{indent}else:")
        for stmt in self.orelse:
            lines += stmt.py(indent + "    ")
        return lines


@dataclass
class For:
    var: str
    trips: int
    body: list

    def bsl(self, indent: str) -> list[str]:
        lines = [f"{indent}for {self.var} := 0 to {self.trips - 1} do",
                 f"{indent}begin"]
        for stmt in self.body:
            lines += stmt.bsl(indent + "  ")
        lines.append(f"{indent}end;")
        return lines

    def py(self, indent: str) -> list[str]:
        lines = [f"{indent}for {self.var} in range({self.trips}):"]
        for stmt in self.body:
            lines += stmt.py(indent + "    ")
        return lines


@dataclass
class While:
    """``while var < bound`` with ``var`` counting up from 0 by 1."""

    var: str
    bound: str
    body: list

    def bsl(self, indent: str) -> list[str]:
        lines = [f"{indent}{self.var} := 0;",
                 f"{indent}while {self.var} < {self.bound} do",
                 f"{indent}begin"]
        for stmt in self.body:
            lines += stmt.bsl(indent + "  ")
        lines.append(f"{indent}  {self.var} := {self.var} + 1;")
        lines.append(f"{indent}end;")
        return lines

    def py(self, indent: str) -> list[str]:
        lines = [f"{indent}{self.var} = 0",
                 f"{indent}while {self.var} < {self.bound}:"]
        for stmt in self.body:
            lines += stmt.py(indent + "    ")
        lines.append(f"{indent}    {self.var} = {self.var} + 1")
        return lines


@dataclass
class _Builder:
    """Accumulates declarations and statements for one procedure."""

    name: str
    width: int
    inputs: list[str]
    outputs: list[str] = field(default_factory=list)
    locals: list[str] = field(default_factory=list)
    body: list = field(default_factory=list)
    ops: int = 0

    def program(self) -> Program:
        port_type = f"int<{self.width}>"
        params = [f"input {', '.join(self.inputs)}: {port_type}",
                  f"output {', '.join(self.outputs)}: {port_type}"]
        lines = [f"-- generated benchmark kernel {self.name}",
                 f"procedure {self.name}({'; '.join(params)});"]
        if self.locals:
            lines.append(f"var {', '.join(self.locals)}: {port_type};")
        lines.append("begin")
        for stmt in self.body:
            lines += stmt.bsl("  ")
        lines.append("end")
        source = "\n".join(lines) + "\n"

        half = 1 << (self.width - 1)
        mask = (1 << self.width) - 1
        py = [f"def twin({', '.join(self.inputs)}):",
              f"    def w(v):",
              f"        return ((v + {half}) & {mask}) - {half}"]
        for name in self.outputs + self.locals:
            py.append(f"    {name} = 0")
        for stmt in self.body:
            py += stmt.py("    ")
        returned = ", ".join(f"{name!r}: {name}" for name in self.outputs)
        py.append(f"    return {{{returned}}}")
        return Program(
            name=self.name,
            source=source,
            twin_source="\n".join(py) + "\n",
            inputs=tuple(self.inputs),
            outputs=tuple(self.outputs),
            width=self.width,
            ops=self.ops,
        )


def _chain(operands: list[str], ops: list[str]) -> tuple[str, str]:
    """A left-associative chain in BSL (parenthesized, because BSL's
    precedence levels differ from strict left association) and in
    Python (wrapped after every operator)."""
    bsl, py = operands[0], operands[0]
    for index, (op, operand) in enumerate(zip(ops, operands[1:])):
        if index:
            bsl = f"({bsl})"
        bsl = f"{bsl} {op} {operand}"
        py = f"w({py} {op} {operand})"
    return bsl, py


def _assign(rng: random.Random, builder: _Builder, target: str,
            operands: list[str], mul_share: float, terms: int,
            first: str | None = None, same_op: bool = False) -> Assign:
    """``target := `` a chain of ``terms`` distinct operands drawn from
    ``operands`` (``first`` leads when given).  ``same_op`` makes one
    associative operator run the whole chain, the shape tree-height
    reduction rebalances."""
    pool = [name for name in operands if name != first]
    picked = rng.sample(pool, min(terms, len(pool)))
    if first is not None:
        picked = [first] + picked[: terms - 1]
    if len(picked) == 2 and rng.random() < 0.15:
        picked[1] = str(rng.randint(3, (1 << (builder.width - 2)) - 1))
    if same_op:
        ops = [rng.choice(("+", "^", "*"))] * (len(picked) - 1)
    else:
        ops = ["*" if rng.random() < mul_share else rng.choice(ARITH)
               for _ in picked[1:]]
    builder.ops += len(ops)
    bsl, py = _chain(picked, ops)
    return Assign(target, bsl, py)


def _operands(stmt: Assign) -> list[str]:
    return stmt.expr.replace("(", "").replace(")", "").split()[0::2]


def _fold_sinks(builder: _Builder, sinks: list[str],
                n_outputs: int) -> None:
    """Route every unused value into an output so nothing is dead."""
    groups = [sinks[i::n_outputs] for i in range(n_outputs)]
    for index, group in enumerate(g for g in groups if g):
        out = f"o{index}"
        builder.outputs.append(out)
        bsl, py = _chain(group, ["^"] * (len(group) - 1))
        builder.ops += len(group) - 1
        builder.body.append(Assign(out, bsl, py))


def straight_line(rng: random.Random, name: str, ops: int, width: int,
                  mul_share: float, window: int) -> Program:
    """A straight-line DAG of about ``ops`` binary operators.

    ``window`` bounds how far back an operand may reach: a narrow
    window makes long dependence chains, a wide one exposes
    parallelism the scheduler can pack into few control steps.
    """
    n_inputs = rng.randint(4, 8)
    builder = _Builder(name, width, [f"a{i}" for i in range(n_inputs)])
    values = list(builder.inputs)
    used: set[str] = set()
    index = 0
    while builder.ops < ops:
        target = f"t{index}"
        index += 1
        recent = values[-window:]
        stmt = _assign(rng, builder, target, recent, mul_share, 2)
        used.update(_operands(stmt))
        builder.locals.append(target)
        builder.body.append(stmt)
        values.append(target)
    sinks = [v for v in builder.locals if v not in used]
    _fold_sinks(builder, sinks, min(4, len(sinks)))
    return builder.program()


def kernel(rng: random.Random, name: str, width: int, trips: int,
           terms: int) -> Program:
    """A looped, branching kernel for directive exploration.

    It carries what each directive acts on: a ``trips``-trip ``for``
    loop (unrolling), associative chains of up to ``terms`` operands
    (tree-height reduction) and small two-sided branches
    (if-conversion).
    """
    n_inputs = rng.randint(3, 5)
    builder = _Builder(name, width, [f"a{i}" for i in range(n_inputs)])
    ins = list(builder.inputs)
    builder.locals += ["acc", "t", "u", "i"]
    builder.body.append(_assign(rng, builder, "acc", ins, 0.3, 2))
    builder.body.append(_assign(rng, builder, "t", ins, 0.0, 4,
                                same_op=True))
    loop_body = [
        _assign(rng, builder, "u", ["t"] + ins, 0.25, terms, first="acc"),
        If("u", rng.choice(COMPARE), rng.choice(ins),
           [_assign(rng, builder, "acc", ["u", "acc"] + ins, 0.2, 2)],
           [_assign(rng, builder, "acc", ["u", "t"] + ins, 0.2, 2)]),
        _assign(rng, builder, "t", ["u"] + ins, 0.0, 4, first="t",
                same_op=True),
    ]
    builder.body.append(For("i", trips, loop_body))
    builder.outputs += ["y", "z"]
    builder.body.append(If("acc", rng.choice(COMPARE), "t",
                           [_assign(rng, builder, "y", ["acc", "t"], 0.3, 2)],
                           [_assign(rng, builder, "y", ["acc"] + ins, 0.0, 3)]))
    builder.body.append(_assign(rng, builder, "z", ["acc", "t", "u"] + ins,
                                0.0, 5, same_op=True))
    return builder.program()


@dataclass(frozen=True)
class EditFamily:
    """A multi-block baseline and single-block variants of it."""

    baseline: Program
    #: (edited block: "preamble" | "loop" | "epilogue", variant program)
    variants: tuple[tuple[str, Program], ...]


EDIT_BLOCKS = ("preamble", "loop", "epilogue")


def _edit_program(name: str, width: int, inputs: list[str],
                  sections: dict[str, list[Assign]], ops: int) -> Program:
    builder = _Builder(name, width, list(inputs))
    builder.locals += [f"p{i}" for i in range(len(sections["preamble"]))]
    builder.locals += ["acc", "n", "k"]
    builder.outputs += [stmt.target for stmt in sections["epilogue"]]
    builder.body += sections["preamble"]
    builder.body.append(Assign("acc", "p0", "p0"))
    builder.body.append(Assign("n", f"{inputs[0]} & 7",
                               f"{inputs[0]} & 7"))
    builder.body.append(While("k", "n", sections["loop"]))
    builder.body += sections["epilogue"]
    builder.ops = ops
    return builder.program()


def _mutate(rng: random.Random, stmt: Assign) -> Assign:
    """``stmt`` with one operator swapped for a different one."""
    tokens = stmt.expr.replace("(", "").replace(")", "").split()
    operands, ops = tokens[0::2], tokens[1::2]
    pos = rng.randrange(len(ops))
    ops[pos] = rng.choice([op for op in ARITH if op != ops[pos]])
    bsl, py = _chain(operands, ops)
    return Assign(stmt.target, bsl, py)


def edit_family(rng: random.Random, name: str, width: int,
                variants: int) -> EditFamily:
    """A preamble / data-dependent loop / epilogue baseline and
    ``variants`` edits, each changing one operator in one block."""
    inputs = [f"a{i}" for i in range(rng.randint(4, 6))]
    scratch = _Builder(name, width, inputs)
    pre_names = [f"p{i}" for i in range(rng.randint(8, 14))]
    preamble = []
    values = list(inputs)
    for target in pre_names:
        preamble.append(_assign(rng, scratch, target, values[-6:], 0.3, 2))
        values.append(target)
    loop = [
        _assign(rng, scratch, "acc", pre_names[-4:], 0.3, 3, first="acc"),
        _assign(rng, scratch, "acc", ["k"] + inputs, 0.0, 2, first="acc"),
    ]
    epilogue = [
        _assign(rng, scratch, f"o{i}", pre_names + inputs, 0.3,
                rng.randint(2, 4), first="acc")
        for i in range(rng.randint(2, 3))
    ]
    used = {operand for stmt in preamble + loop + epilogue
            for operand in _operands(stmt)}
    sinks = [value for value in pre_names if value not in used]
    if sinks:
        bsl, py = _chain(["acc"] + sinks, ["^"] * len(sinks))
        scratch.ops += len(sinks)
        epilogue.append(Assign(f"o{len(epilogue)}", bsl, py))
    sections = {"preamble": preamble, "loop": loop, "epilogue": epilogue}
    base = _edit_program(name, width, inputs, sections, scratch.ops)
    edited = []
    for index in range(variants):
        block = EDIT_BLOCKS[rng.randrange(len(EDIT_BLOCKS))]
        copy = {key: list(stmts) for key, stmts in sections.items()}
        where = rng.randrange(len(copy[block]))
        copy[block][where] = _mutate(rng, copy[block][where])
        edited.append((block, _edit_program(name, width, inputs, copy,
                                            scratch.ops)))
    return EditFamily(base, tuple(edited))
