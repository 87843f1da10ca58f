"""Semantic analysis and lowering of BSL programs to CDFGs.

This is the "compilation of the formal language into an internal
representation" step of the tutorial's §2.  Lowering performs, in one
pass:

* symbol resolution and type checking (with contextual typing of
  literals — ``I + 1`` types the ``1`` from ``I``);
* per-block variable renaming: inside a block, reads of a variable
  assigned earlier in the same block are wired straight to the defining
  value, so only upward-exposed reads become ``VAR_READ`` ops and only
  the final assignment becomes a ``VAR_WRITE`` — the arc-per-value form
  the paper highlights in Fig. 1;
* structured control lowering (``if`` → :class:`IfRegion`, ``while`` /
  ``for`` → pre-test :class:`LoopRegion`, ``repeat``/``until`` →
  post-test loop whose exit comparison lives *inside* the body's last
  block, exactly as in the paper's sqrt example);
* inline expansion of procedure calls (one of the paper's standard
  high-level transformations), with hygienic renaming of callee locals.
"""

from __future__ import annotations

from ..errors import SemanticError, SourceLocation
from ..ir.cdfg import CDFG, BlockRegion, IfRegion, LoopRegion, Region, SeqRegion
from ..ir.opcodes import OpKind
from ..ir.types import BOOL, ArrayType, FixedType, IntType, Type, is_scalar
from ..ir.values import BasicBlock, Value
from . import ast
from .parser import parse

_ARITH_OPS = {
    "+": OpKind.ADD,
    "-": OpKind.SUB,
    "*": OpKind.MUL,
    "/": OpKind.DIV,
    "mod": OpKind.MOD,
    "&": OpKind.AND,
    "|": OpKind.OR,
    "^": OpKind.XOR,
}

_SHIFT_OPS = {"<<": OpKind.SHL, ">>": OpKind.SHR}

_COMPARE_OPS = {
    "=": OpKind.EQ,
    "/=": OpKind.NE,
    "<": OpKind.LT,
    "<=": OpKind.LE,
    ">": OpKind.GT,
    ">=": OpKind.GE,
}

_DEFAULT_INT = IntType(32)
_DEFAULT_FIXED = FixedType(32, 16)
_SHIFT_AMOUNT = IntType(6, signed=False)


def _common_arith_type(a: Type, b: Type) -> Type:
    from ..ir.types import common_type

    return common_type(a, b)


class Lowerer:
    """Lowers one procedure of a program to a :class:`CDFG`.

    Args:
        program: the parsed program.
        sink: optional :class:`~repro.analysis.diagnostics.DiagnosticSink`.
            When given, recoverable findings (an assignment that
            implicitly truncates, for instance) are reported as
            warnings instead of being silently accepted; hard semantic
            errors still raise.  Lowering also records each op's source
            location into ``cdfg.source_map`` so downstream lint rules
            can point back at the source text.
    """

    def __init__(self, program: ast.Program, sink=None) -> None:
        self._program = program
        self._sink = sink
        self._cdfg: CDFG | None = None
        self._block: BasicBlock | None = None
        self._defs: dict[str, Value] = {}
        self._reads: dict[str, Value] = {}
        self._def_locations: dict[str, SourceLocation] = {}
        self._call_stack: list[str] = []
        self._inline_counter = 0

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def lower(self, name: str | None = None) -> CDFG:
        """Lower the named procedure (default: the last one defined)."""
        if not self._program.procedures:
            raise SemanticError("program contains no procedures")
        proc = (
            self._program.procedures[-1]
            if name is None
            else self._program.procedure(name)
        )
        cdfg = CDFG(proc.name)
        self._cdfg = cdfg
        for param in proc.params:
            if not is_scalar(param.type) and param.direction == "output":
                raise SemanticError(
                    f"output parameter {param.name!r} must be scalar",
                    param.location,
                )
            if param.direction == "input":
                cdfg.add_input(param.name, param.type)
            else:
                cdfg.add_output(param.name, param.type)
        for decl in proc.decls:
            if decl.name in cdfg.variables or decl.name in cdfg.memories:
                raise SemanticError(
                    f"duplicate declaration of {decl.name!r}", decl.location
                )
            cdfg.add_variable(decl.name, decl.type)
        cdfg.body = self._lower_stmts(proc.body)
        cdfg.validate()
        return cdfg

    # ------------------------------------------------------------------
    # Block management
    # ------------------------------------------------------------------

    @property
    def cdfg(self) -> CDFG:
        assert self._cdfg is not None
        return self._cdfg

    def _current_block(self) -> BasicBlock:
        if self._block is None:
            self._block = self.cdfg.new_block()
            self._defs = {}
            self._reads = {}
            self._def_locations = {}
        return self._block

    def _close_block(self) -> BasicBlock | None:
        """Flush pending variable writes and detach the current block.

        Returns the closed block, or None if no block was open.
        """
        block = self._block
        if block is None:
            return None
        for var in sorted(self._defs):
            op = block.write(var, self._defs[var])
            location = self._def_locations.get(var)
            if location is not None:
                self.cdfg.source_map[op.id] = location
        self._block = None
        self._defs = {}
        self._reads = {}
        self._def_locations = {}
        return block

    def _locate(self, value_or_op, location: SourceLocation) -> None:
        """Record the source location of an op (or a value's producer)."""
        op = getattr(value_or_op, "producer", value_or_op)
        self.cdfg.source_map.setdefault(op.id, location)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _lower_stmts(self, stmts: list[ast.Stmt]) -> Region:
        items: list[Region] = []
        for stmt in stmts:
            self._lower_stmt(stmt, items)
        closed = self._close_block()
        if closed is not None:
            items.append(BlockRegion(closed))
        if len(items) == 1:
            return items[0]
        return SeqRegion(items)

    def _flush_into(self, items: list[Region]) -> None:
        closed = self._close_block()
        if closed is not None:
            items.append(BlockRegion(closed))

    def _lower_stmt(self, stmt: ast.Stmt, items: list[Region]) -> None:
        if isinstance(stmt, ast.Assign):
            self._lower_assign(stmt)
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt, items)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt, items)
        elif isinstance(stmt, ast.Repeat):
            self._lower_repeat(stmt, items)
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt, items)
        elif isinstance(stmt, ast.Call):
            self._lower_call(stmt, items)
        else:  # pragma: no cover - parser produces no other nodes
            raise SemanticError(f"unknown statement {stmt!r}", stmt.location)

    def _lower_assign(self, stmt: ast.Assign) -> None:
        if isinstance(stmt.target, ast.VarRef):
            var = stmt.target.name
            if var in self.cdfg.memories:
                raise SemanticError(
                    f"memory {var!r} needs an index to be assigned",
                    stmt.location,
                )
            var_type = self._scalar_type(var, stmt.location)
            if any(port.name == var for port in self.cdfg.inputs):
                raise SemanticError(
                    f"cannot assign to input {var!r}", stmt.location
                )
            value = self._eval(stmt.value, var_type)
            self._check_truncation(var, var_type, value, stmt.location)
            if value.name is None:
                value.name = var
            self._defs[var] = value
            self._def_locations[var] = stmt.location
        elif isinstance(stmt.target, ast.IndexRef):
            memory = self._memory_type(stmt.target.name, stmt.location)
            index = self._eval(
                stmt.target.index, IntType(memory.address_width, signed=False)
            )
            value = self._eval(stmt.value, memory.element)
            op = self._current_block().emit(
                OpKind.STORE, [index, value], memory=stmt.target.name
            )
            self._locate(op, stmt.location)
        else:  # pragma: no cover
            raise SemanticError("invalid assignment target", stmt.location)

    def _check_truncation(self, var: str, var_type: Type, value: Value,
                          location: SourceLocation) -> None:
        """Warn when an assignment narrows the computed value.

        The expression was evaluated at its natural (widened) type; the
        variable register only holds ``var_type`` bits, so extra bits
        are silently dropped at the write-back.
        """
        if self._sink is None or value.type == var_type:
            return
        from ..ir.types import bit_width

        if not (is_scalar(value.type) and is_scalar(var_type)):
            return
        # A literal only carries the wide *default* type for lack of a
        # numeric context (`n := 3.0` evaluates at fixed<32,16>); when
        # the constant is exactly representable in the destination, the
        # write-back drops nothing and the warning would be noise.
        if value.producer.kind is OpKind.CONST:
            from ..sim.semantics import coerce

            literal = value.producer.attrs["value"]
            if coerce(literal, var_type) == literal:
                return
        if bit_width(value.type) > bit_width(var_type):
            self._sink.warning(
                "lang.implicit-trunc",
                f"assignment to {var!r} truncates {value.type} "
                f"to {var_type}",
                location=location,
                subject=var,
            )

    def _lower_if(self, stmt: ast.If, items: list[Region]) -> None:
        cond = self._eval_condition(stmt.cond)
        cond_block = self._close_block()
        assert cond_block is not None  # the condition was just emitted
        then_region = self._lower_stmts(stmt.then_body)
        else_region = (
            self._lower_stmts(stmt.else_body) if stmt.else_body else None
        )
        items.append(IfRegion(cond_block, cond, then_region, else_region))

    def _lower_while(self, stmt: ast.While, items: list[Region]) -> None:
        self._flush_into(items)
        cond = self._eval_condition(stmt.cond)
        test_block = self._close_block()
        assert test_block is not None
        body = self._lower_stmts(stmt.body)
        items.append(
            LoopRegion(
                body=body,
                test_block=test_block,
                cond=cond,
                exit_on_true=False,
                test_in_body=False,
            )
        )

    def _lower_repeat(self, stmt: ast.Repeat, items: list[Region]) -> None:
        self._flush_into(items)
        body_items: list[Region] = []
        for body_stmt in stmt.body:
            self._lower_stmt(body_stmt, body_items)
        # The exit comparison is computed in the body's final block, so
        # it gets scheduled together with the body (paper Fig. 2).
        cond = self._eval_condition(stmt.cond)
        test_block = self._close_block()
        assert test_block is not None
        body_items.append(BlockRegion(test_block))
        body = (
            body_items[0] if len(body_items) == 1 else SeqRegion(body_items)
        )
        items.append(
            LoopRegion(
                body=body,
                test_block=test_block,
                cond=cond,
                exit_on_true=True,
                test_in_body=True,
            )
        )

    def _lower_for(self, stmt: ast.For, items: list[Region]) -> None:
        var_type = self._scalar_type(stmt.var, stmt.location)
        if not isinstance(var_type, IntType):
            raise SemanticError(
                f"for-loop variable {stmt.var!r} must be an integer",
                stmt.location,
            )
        start_value = self._eval(stmt.start, var_type)
        start_value.name = stmt.var
        self._defs[stmt.var] = start_value
        self._def_locations[stmt.var] = stmt.location
        self._flush_into(items)

        # Pre-test loop: while var <= stop (or >= for downto).
        compare = "<=" if not stmt.downward else ">="
        cond = self._eval_condition(
            ast.Binary(
                stmt.location,
                compare,
                ast.VarRef(stmt.location, stmt.var),
                stmt.stop,
            )
        )
        test_block = self._close_block()
        assert test_block is not None

        step = "+" if not stmt.downward else "-"
        update = ast.Assign(
            stmt.location,
            ast.VarRef(stmt.location, stmt.var),
            ast.Binary(
                stmt.location,
                step,
                ast.VarRef(stmt.location, stmt.var),
                ast.IntLiteral(stmt.location, 1),
            ),
        )
        body = self._lower_stmts(list(stmt.body) + [update])

        trip_count = None
        if isinstance(stmt.start, ast.IntLiteral) and isinstance(
            stmt.stop, ast.IntLiteral
        ):
            if stmt.downward:
                trip_count = max(0, stmt.start.value - stmt.stop.value + 1)
            else:
                trip_count = max(0, stmt.stop.value - stmt.start.value + 1)
        items.append(
            LoopRegion(
                body=body,
                test_block=test_block,
                cond=cond,
                exit_on_true=False,
                test_in_body=False,
                trip_count=trip_count,
            )
        )

    # ------------------------------------------------------------------
    # Procedure inlining
    # ------------------------------------------------------------------

    def _lower_call(self, stmt: ast.Call, items: list[Region]) -> None:
        try:
            callee = self._program.procedure(stmt.name)
        except KeyError:
            raise SemanticError(
                f"call to unknown procedure {stmt.name!r}", stmt.location
            ) from None
        if stmt.name in self._call_stack:
            raise SemanticError(
                f"recursive call to {stmt.name!r} cannot be synthesized",
                stmt.location,
            )
        if len(stmt.args) != len(callee.params):
            raise SemanticError(
                f"{stmt.name!r} expects {len(callee.params)} arguments, "
                f"got {len(stmt.args)}",
                stmt.location,
            )

        self._inline_counter += 1
        tag = f"{stmt.name}${self._inline_counter}"
        rename: dict[str, str] = {}

        # Declare mangled copies of params and locals, bind arguments.
        copy_out: list[tuple[str, ast.Expr]] = []
        for param, arg in zip(callee.params, stmt.args):
            mangled = f"{tag}${param.name}"
            rename[param.name] = mangled
            self.cdfg.add_variable(mangled, param.type)
            if param.direction == "input":
                value = self._eval(arg, param.type)
                value.name = mangled
                self._defs[mangled] = value
                self._def_locations[mangled] = stmt.location
            else:
                if not isinstance(arg, ast.VarRef):
                    raise SemanticError(
                        f"output argument for {param.name!r} must be a "
                        f"variable",
                        stmt.location,
                    )
                copy_out.append((mangled, arg))
        for decl in callee.decls:
            mangled = f"{tag}${decl.name}"
            rename[decl.name] = mangled
            self.cdfg.add_variable(mangled, decl.type)

        self._call_stack.append(stmt.name)
        try:
            for body_stmt in callee.body:
                renamed = _rename_stmt(body_stmt, rename)
                self._lower_stmt(renamed, items)
        finally:
            self._call_stack.pop()

        # Copy outputs back into the caller's variables.
        for mangled, target in copy_out:
            self._lower_assign(
                ast.Assign(
                    stmt.location,
                    target,
                    ast.VarRef(stmt.location, mangled),
                )
            )

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _scalar_type(self, name: str, location: SourceLocation) -> Type:
        if name in self.cdfg.variables:
            return self.cdfg.variables[name]
        if name in self.cdfg.memories:
            raise SemanticError(
                f"array {name!r} used without an index", location
            )
        raise SemanticError(f"undeclared variable {name!r}", location)

    def _memory_type(self, name: str, location: SourceLocation) -> ArrayType:
        if name in self.cdfg.memories:
            return self.cdfg.memories[name]
        if name in self.cdfg.variables:
            raise SemanticError(f"{name!r} is scalar, cannot index", location)
        raise SemanticError(f"undeclared array {name!r}", location)

    def _eval_condition(self, expr: ast.Expr) -> Value:
        value = self._eval(expr, None)
        if value.type != BOOL:
            raise SemanticError(
                "condition must be boolean (a comparison or and/or/not)",
                expr.location,
            )
        return value

    def _read_var(self, name: str, location: SourceLocation) -> Value:
        type_ = self._scalar_type(name, location)
        if name in self._defs:
            return self._defs[name]
        if name in self._reads:
            return self._reads[name]
        value = self._current_block().read(name, type_)
        self._locate(value, location)
        self._reads[name] = value
        return value

    def _eval(self, expr: ast.Expr, expected: Type | None) -> Value:
        """Evaluate ``expr`` into the current block, returning its value.

        ``expected`` provides contextual typing for literals.
        """
        block = self._current_block()
        if isinstance(expr, ast.IntLiteral):
            type_ = expected if expected is not None else _DEFAULT_INT
            if isinstance(type_, ArrayType):
                raise SemanticError("literal cannot have array type",
                                    expr.location)
            expr.type = type_
            value = block.const(expr.value, type_)
            self._locate(value, expr.location)
            return value
        if isinstance(expr, ast.RealLiteral):
            type_ = (
                expected
                if isinstance(expected, FixedType)
                else _DEFAULT_FIXED
            )
            expr.type = type_
            value = block.const(type_.quantize(expr.value), type_)
            self._locate(value, expr.location)
            return value
        if isinstance(expr, ast.VarRef):
            value = self._read_var(expr.name, expr.location)
            expr.type = value.type
            return value
        if isinstance(expr, ast.IndexRef):
            memory = self._memory_type(expr.name, expr.location)
            index = self._eval(
                expr.index, IntType(memory.address_width, signed=False)
            )
            op = self._current_block().emit(
                OpKind.LOAD, [index], memory.element, memory=expr.name
            )
            expr.type = memory.element
            self._locate(op, expr.location)
            assert op.result is not None
            return op.result
        if isinstance(expr, ast.Unary):
            return self._eval_unary(expr, expected)
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr, expected)
        raise SemanticError(f"unknown expression {expr!r}", expr.location)

    def _eval_unary(self, expr: ast.Unary, expected: Type | None) -> Value:
        if expr.op == "-":
            operand = self._eval(expr.operand, expected)
            op = self._current_block().emit(
                OpKind.NEG, [operand], operand.type
            )
        elif expr.op == "not":
            operand = self._eval(expr.operand, None)
            if operand.type != BOOL:
                raise SemanticError("'not' needs a boolean operand",
                                    expr.location)
            op = self._current_block().emit(OpKind.NOT, [operand], BOOL)
        elif expr.op == "~":
            operand = self._eval(expr.operand, expected)
            if not isinstance(operand.type, IntType):
                raise SemanticError("'~' needs an integer operand",
                                    expr.location)
            op = self._current_block().emit(
                OpKind.NOT, [operand], operand.type
            )
        else:  # pragma: no cover
            raise SemanticError(f"unknown unary op {expr.op!r}", expr.location)
        self._locate(op, expr.location)
        expr.type = op.result.type
        assert op.result is not None
        return op.result

    def _eval_binary(self, expr: ast.Binary, expected: Type | None) -> Value:
        # A left-deep chain ``((a + b) + c) + …`` is walked down its left
        # spine and lowered bottom-up, so its length costs no recursion.
        # A spine node's left operand is itself a binary node, never a
        # literal, so it is always evaluated before the right operand.
        spine: list[tuple[ast.Binary, Type | None]] = []
        while isinstance(expr.left, ast.Binary):
            spine.append((expr, expected))
            expected = _left_context(expr.op, expected)
            expr = expr.left
        left, right = self._eval_operands(expr, expected)
        value = self._emit_binary(expr, left, right)
        for expr, expected in reversed(spine):
            right = self._eval_right(expr, expected, value)
            value = self._emit_binary(expr, value, right)
        return value

    def _eval_operands(self, expr: ast.Binary,
                       expected: Type | None) -> tuple[Value, Value]:
        """Evaluate both operands with contextual literal typing: with
        no context from outside, a literal operand of an arithmetic
        operator or a comparison adopts the other operand's type."""
        context = _left_context(expr.op, expected)
        if (
            context is None
            and (expr.op in _ARITH_OPS or expr.op in _COMPARE_OPS)
            and isinstance(expr.left, (ast.IntLiteral, ast.RealLiteral))
            and not isinstance(expr.right,
                               (ast.IntLiteral, ast.RealLiteral))
        ):
            right = self._eval(expr.right, None)
            return self._eval(expr.left, right.type), right
        left = self._eval(expr.left, context)
        return left, self._eval_right(expr, expected, left)

    def _eval_right(self, expr: ast.Binary, expected: Type | None,
                    left: Value) -> Value:
        """Evaluate the right operand once the left one is ``left``."""
        if expr.op in ("and", "or"):
            return self._eval(expr.right, None)
        if expr.op in _SHIFT_OPS:
            return self._eval(expr.right, _SHIFT_AMOUNT)
        if expr.op in _ARITH_OPS and expected is not None:
            return self._eval(expr.right, expected)
        return self._eval(expr.right, left.type)

    def _emit_binary(self, expr: ast.Binary, left: Value,
                     right: Value) -> Value:
        block = self._current_block()
        if expr.op in ("and", "or"):
            if left.type != BOOL or right.type != BOOL:
                raise SemanticError(
                    f"{expr.op!r} needs boolean operands", expr.location
                )
            kind = OpKind.AND if expr.op == "and" else OpKind.OR
            op = block.emit(kind, [left, right], BOOL)
        elif expr.op in _SHIFT_OPS:
            op = block.emit(_SHIFT_OPS[expr.op], [left, right], left.type)
        elif expr.op in _COMPARE_OPS:
            op = block.emit(_COMPARE_OPS[expr.op], [left, right], BOOL)
        elif expr.op in _ARITH_OPS:
            result_type = _common_arith_type(left.type, right.type)
            op = block.emit(_ARITH_OPS[expr.op], [left, right], result_type)
        else:  # pragma: no cover
            raise SemanticError(f"unknown operator {expr.op!r}", expr.location)
        self._locate(op, expr.location)
        assert op.result is not None
        expr.type = op.result.type
        return op.result


def _left_context(op: str, expected: Type | None) -> Type | None:
    """The type context a binary operator hands its left operand:
    arithmetic and shifts pass theirs on; comparisons and ``and``/``or``
    type their operands from the operands themselves."""
    return expected if op in _ARITH_OPS or op in _SHIFT_OPS else None


def _rename_expr(expr: ast.Expr, rename: dict[str, str]) -> ast.Expr:
    """Copy ``expr`` with variable names substituted (for inlining).

    Left spines of binary operators are copied in a loop, like
    :meth:`Lowerer._eval_binary` lowers them.
    """
    spine: list[ast.Binary] = []
    while isinstance(expr, ast.Binary):
        spine.append(expr)
        expr = expr.left
    copy = _rename_operand(expr, rename)
    for node in reversed(spine):
        copy = ast.Binary(node.location, node.op, copy,
                          _rename_expr(node.right, rename))
    return copy


def _rename_operand(expr: ast.Expr, rename: dict[str, str]) -> ast.Expr:
    """:func:`_rename_expr` for every expression but a binary one."""
    if isinstance(expr, ast.IntLiteral):
        return ast.IntLiteral(expr.location, expr.value)
    if isinstance(expr, ast.RealLiteral):
        return ast.RealLiteral(expr.location, expr.value)
    if isinstance(expr, ast.VarRef):
        return ast.VarRef(expr.location, rename.get(expr.name, expr.name))
    if isinstance(expr, ast.IndexRef):
        return ast.IndexRef(
            expr.location,
            rename.get(expr.name, expr.name),
            _rename_expr(expr.index, rename),
        )
    if isinstance(expr, ast.Unary):
        return ast.Unary(expr.location, expr.op,
                         _rename_expr(expr.operand, rename))
    raise SemanticError(f"cannot rename {expr!r}", expr.location)


def _rename_stmt(stmt: ast.Stmt, rename: dict[str, str]) -> ast.Stmt:
    """Copy ``stmt`` with variable names substituted (for inlining)."""
    if isinstance(stmt, ast.Assign):
        return ast.Assign(
            stmt.location,
            _rename_expr(stmt.target, rename),
            _rename_expr(stmt.value, rename),
        )
    if isinstance(stmt, ast.If):
        return ast.If(
            stmt.location,
            _rename_expr(stmt.cond, rename),
            [_rename_stmt(s, rename) for s in stmt.then_body],
            [_rename_stmt(s, rename) for s in stmt.else_body],
        )
    if isinstance(stmt, ast.While):
        return ast.While(
            stmt.location,
            _rename_expr(stmt.cond, rename),
            [_rename_stmt(s, rename) for s in stmt.body],
        )
    if isinstance(stmt, ast.Repeat):
        return ast.Repeat(
            stmt.location,
            [_rename_stmt(s, rename) for s in stmt.body],
            _rename_expr(stmt.cond, rename),
        )
    if isinstance(stmt, ast.For):
        return ast.For(
            stmt.location,
            rename.get(stmt.var, stmt.var),
            _rename_expr(stmt.start, rename),
            _rename_expr(stmt.stop, rename),
            stmt.downward,
            [_rename_stmt(s, rename) for s in stmt.body],
        )
    if isinstance(stmt, ast.Call):
        return ast.Call(
            stmt.location,
            stmt.name,
            [_rename_expr(a, rename) for a in stmt.args],
        )
    raise SemanticError(f"cannot rename {stmt!r}", stmt.location)


def compile_source(source: str, procedure: str | None = None,
                   sink=None) -> CDFG:
    """Parse and lower behavioral source text into a validated CDFG.

    Args:
        source: BSL program text.
        procedure: entry procedure name; defaults to the last procedure.
        sink: optional diagnostic sink for recoverable frontend
            findings (see :class:`Lowerer`).
    """
    from ..obs import trace_span

    with trace_span("compile", procedure=procedure or "") as span:
        program = parse(source)
        cdfg = Lowerer(program, sink=sink).lower(procedure)
        span.set(design=cdfg.name)
    return cdfg
