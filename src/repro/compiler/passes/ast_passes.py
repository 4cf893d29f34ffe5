"""Source-level (AST) optimisation passes.

Every pass takes a :class:`~repro.frontend.ast_nodes.SourceModule`, updates
its functions' bodies and returns a small integer describing how much work
it did, so the driver can report which passes were effective for a
configuration.

Unrolling splices the *same* statement objects into every unrolled copy,
so after ``unroll_loops`` a module is a DAG, not a tree.  Folding and
inlining are therefore copy-on-write: a rewritten node is a new node, an
unchanged one is returned as is, and no statement or expression is ever
assigned into (only a function's body list is replaced).  A statement
shared by several copies is rewritten once and its count is added once
per occurrence, so counts and the lowered IR are those of the equivalent
tree.
"""

from __future__ import annotations

from operator import is_not
from typing import Callable, Dict, List, Optional, Tuple

from repro.frontend import ast_nodes as ast
from repro.frontend.lowering import BINARY_OPCODES, UNARY_OPCODES
from repro.ir.int32 import eval_binary, eval_unary, wrap32
from repro.wcet.loopbounds import infer_for_bound

#: Rewrites one expression copy-on-write, adding its rewrites to the counter.
_ExprRewrite = Callable[[ast.Expr, List[int]], ast.Expr]


# ---------------------------------------------------------------------------
# Copy-on-write statement traversal (shared by folding and inlining)
# ---------------------------------------------------------------------------
def _rewrite_body(body: List[ast.Stmt], rewrite: _ExprRewrite,
                  counter: List[int],
                  memo: Dict[int, Tuple]) -> List[ast.Stmt]:
    """``body`` itself if no statement changed, else a new list."""
    new = [_rewrite_stmt(stmt, rewrite, counter, memo) for stmt in body]
    return new if any(map(is_not, new, body)) else body


def _rewrite_stmt(stmt: ast.Stmt, rewrite: _ExprRewrite, counter: List[int],
                  memo: Dict[int, Tuple]) -> ast.Stmt:
    """Apply ``rewrite`` to every expression under ``stmt``.

    ``memo`` maps a visited statement's ``id`` to ``(statement, result,
    count)``: a statement shared by unrolled copies is rewritten once, and
    every later occurrence reuses the result and adds the same count.  The
    entry keeps the statement alive so its ``id`` cannot be reused.
    """
    hit = memo.get(id(stmt))
    if hit is not None:
        counter[0] += hit[2]
        return hit[1]
    before = counter[0]
    new = _rewrite_fields(stmt, rewrite, counter, memo)
    memo[id(stmt)] = (stmt, new, counter[0] - before)
    return new


def _rewrite_fields(stmt: ast.Stmt, rewrite: _ExprRewrite,
                    counter: List[int], memo: Dict[int, Tuple]) -> ast.Stmt:
    kind = type(stmt)
    if kind is ast.Assign:
        value = rewrite(stmt.value, counter)
        target = stmt.target
        if type(target) is ast.Index:
            index = rewrite(target.index, counter)
            if index is not target.index:
                target = ast.Index(target.name, index, target.line)
        if value is stmt.value and target is stmt.target:
            return stmt
        return ast.Assign(target, stmt.op, value, stmt.line)
    if kind is ast.VarDecl:
        if stmt.init is None:
            return stmt
        init = rewrite(stmt.init, counter)
        if init is stmt.init:
            return stmt
        return ast.VarDecl(stmt.name, stmt.array_size, init, stmt.line)
    if kind is ast.If:
        cond = rewrite(stmt.cond, counter)
        then_body = _rewrite_body(stmt.then_body, rewrite, counter, memo)
        else_body = _rewrite_body(stmt.else_body, rewrite, counter, memo)
        if (cond is stmt.cond and then_body is stmt.then_body
                and else_body is stmt.else_body):
            return stmt
        return ast.If(cond, then_body, else_body, stmt.line)
    if kind is ast.For:
        init = (_rewrite_stmt(stmt.init, rewrite, counter, memo)
                if stmt.init is not None else None)
        cond = rewrite(stmt.cond, counter) if stmt.cond is not None else None
        update = (_rewrite_stmt(stmt.update, rewrite, counter, memo)
                  if stmt.update is not None else None)
        body = _rewrite_body(stmt.body, rewrite, counter, memo)
        if (init is stmt.init and cond is stmt.cond
                and update is stmt.update and body is stmt.body):
            return stmt
        return ast.For(init, cond, update, body, stmt.bound, stmt.line)
    if kind is ast.While:
        cond = rewrite(stmt.cond, counter)
        body = _rewrite_body(stmt.body, rewrite, counter, memo)
        if cond is stmt.cond and body is stmt.body:
            return stmt
        return ast.While(cond, body, stmt.bound, stmt.line)
    if kind is ast.Return:
        if stmt.value is None:
            return stmt
        value = rewrite(stmt.value, counter)
        return stmt if value is stmt.value else ast.Return(value, stmt.line)
    if kind is ast.ExprStmt:
        expr = rewrite(stmt.expr, counter)
        return stmt if expr is stmt.expr else ast.ExprStmt(expr, stmt.line)
    raise TypeError(f"unknown statement {kind!r}")  # pragma: no cover


def _rewrite_module(module: ast.SourceModule, rewrite: _ExprRewrite) -> int:
    """Rewrite every function body copy-on-write; returns the total count."""
    counter = [0]
    memo: Dict[int, Tuple] = {}
    for function in module.functions:
        function.body = _rewrite_body(function.body, rewrite, counter, memo)
    return counter[0]


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------
def _fold_unary(op: str, value: int) -> Optional[int]:
    """``op value`` as the target computes it (see :mod:`repro.ir.int32`)."""
    opcode = UNARY_OPCODES.get(op)
    return eval_unary(opcode, value) if opcode is not None else None


def _fold_binary(op: str, lhs: int, rhs: int) -> Optional[int]:
    """``lhs op rhs`` as the target computes it, or ``None`` (division by
    zero, unknown operator).  ``&&``/``||`` combine the operands' truth
    values without short-circuiting, as lowering emits them."""
    if op == "&&":
        return int(wrap32(lhs) != 0 and wrap32(rhs) != 0)
    if op == "||":
        return int(wrap32(lhs) != 0 or wrap32(rhs) != 0)
    opcode = BINARY_OPCODES.get(op)
    return eval_binary(opcode, lhs, rhs) if opcode is not None else None


def _fold_expr(expr: ast.Expr, counter: List[int]) -> ast.Expr:
    kind = type(expr)
    if kind is ast.Num or kind is ast.Var:
        return expr
    if kind is ast.Binary:
        lhs = _fold_expr(expr.lhs, counter)
        rhs = _fold_expr(expr.rhs, counter)
        lhs_num = type(lhs) is ast.Num
        rhs_num = type(rhs) is ast.Num
        if lhs_num and rhs_num:
            value = _fold_binary(expr.op, lhs.value, rhs.value)
            if value is None:
                return _rebuilt_binary(expr, lhs, rhs)
            counter[0] += 1
            return ast.Num(value, expr.line)
        # Algebraic identities with a constant operand.
        op = expr.op
        if rhs_num:
            if op in ("+", "-", "|", "^", "<<", ">>") and rhs.value == 0:
                counter[0] += 1
                return lhs
            if op == "*" and rhs.value == 1:
                counter[0] += 1
                return lhs
            if op == "*" and rhs.value == 0 and _droppable(lhs):
                counter[0] += 1
                return ast.Num(0, expr.line)
            if op == "/" and rhs.value == 1:
                counter[0] += 1
                return lhs
        if lhs_num:
            if op in ("+", "|", "^") and lhs.value == 0:
                counter[0] += 1
                return rhs
            if op == "*" and lhs.value == 1:
                counter[0] += 1
                return rhs
            if op == "*" and lhs.value == 0 and _droppable(rhs):
                counter[0] += 1
                return ast.Num(0, expr.line)
        return _rebuilt_binary(expr, lhs, rhs)
    if kind is ast.Index:
        index = _fold_expr(expr.index, counter)
        if index is expr.index:
            return expr
        return ast.Index(expr.name, index, expr.line)
    if kind is ast.Unary:
        operand = _fold_expr(expr.operand, counter)
        if type(operand) is ast.Num:
            value = _fold_unary(expr.op, operand.value)
            if value is not None:
                counter[0] += 1
                return ast.Num(value, expr.line)
        if operand is expr.operand:
            return expr
        return ast.Unary(expr.op, operand, expr.line)
    if kind is ast.Call:
        args = [_fold_expr(arg, counter) for arg in expr.args]
        if not any(map(is_not, args, expr.args)):
            return expr
        return ast.Call(expr.name, args, expr.line)
    raise TypeError(f"unknown expression {kind!r}")  # pragma: no cover


def _droppable(expr: ast.Expr) -> bool:
    """Whether ``x * 0`` may skip evaluating ``expr``: it calls nothing
    (calls may store to globals) and cannot trap (no array load, which may
    be out of bounds, and no division, which may divide by zero)."""
    for node in ast.walk_expr(expr):
        kind = type(node)
        if kind is ast.Call or kind is ast.Index:
            return False
        if kind is ast.Binary and (node.op == "/" or node.op == "%"):
            return False
    return True


def _rebuilt_binary(expr: ast.Binary, lhs: ast.Expr,
                    rhs: ast.Expr) -> ast.Expr:
    if lhs is expr.lhs and rhs is expr.rhs:
        return expr
    return ast.Binary(expr.op, lhs, rhs, expr.line)


def fold_constants(module: ast.SourceModule) -> int:
    """Fold constant sub-expressions; returns the number of folds performed.

    Folds evaluate with the target's 32-bit semantics, so the folded
    program computes exactly what the unfolded one does.  Division by zero
    is never folded: it must keep trapping at run time.
    """
    return _rewrite_module(module, _fold_expr)


# ---------------------------------------------------------------------------
# Loop unrolling (full unroll of small counted loops)
# ---------------------------------------------------------------------------
def _unroll_body(body: List[ast.Stmt], limit: int, counter: List[int]) -> List[ast.Stmt]:
    result: List[ast.Stmt] = []
    for stmt in body:
        if isinstance(stmt, ast.If):
            stmt.then_body = _unroll_body(stmt.then_body, limit, counter)
            stmt.else_body = _unroll_body(stmt.else_body, limit, counter)
            result.append(stmt)
            continue
        if isinstance(stmt, ast.While):
            stmt.body = _unroll_body(stmt.body, limit, counter)
            result.append(stmt)
            continue
        if isinstance(stmt, ast.For):
            stmt.body = _unroll_body(stmt.body, limit, counter)
            bound = stmt.bound if stmt.bound is not None else infer_for_bound(stmt)
            static_bound = infer_for_bound(stmt)
            # Only fully unroll loops whose trip count is statically exact
            # (counted loops) and small enough.
            if static_bound is not None and static_bound == bound and 0 < bound <= limit:
                counter[0] += 1
                if stmt.init is not None:
                    result.append(stmt.init)
                # Every copy is the same statement objects (by reference):
                # nothing is substituted, and later passes are copy-on-write.
                copy = stmt.body if stmt.update is None \
                    else stmt.body + [stmt.update]
                result.extend(copy * bound)
                continue
            result.append(stmt)
            continue
        result.append(stmt)
    return result


def unroll_loops(module: ast.SourceModule, limit: int) -> int:
    """Fully unroll counted loops with trip count ≤ ``limit``.

    Returns the number of loops unrolled.  ``limit`` of zero disables the
    pass.  The copies of an unrolled body share its statement objects, so
    the result is a DAG (see the module docstring).  Compound statements'
    bodies are rebuilt in place, so the input must be a tree that nothing
    else refers to (the pipeline unrolls a private clone).
    """
    if limit <= 0:
        return 0
    counter = [0]
    for function in module.functions:
        function.body = _unroll_body(function.body, limit, counter)
    return counter[0]


# ---------------------------------------------------------------------------
# Inlining of simple functions
# ---------------------------------------------------------------------------
def _simple_function_expression(function: ast.FunctionDef) -> Optional[ast.Expr]:
    """The return expression if the function body is a single return."""
    if len(function.body) != 1:
        return None
    stmt = function.body[0]
    if not isinstance(stmt, ast.Return) or stmt.value is None:
        return None
    # The expression must not call anything (avoids unbounded inlining) and
    # must only mention the function's own parameters.
    for node in ast.walk_expr(stmt.value):
        if isinstance(node, ast.Call):
            return None
        if isinstance(node, (ast.Var, ast.Index)):
            name = node.name
            if name not in function.params:
                return None
    return stmt.value


def _substitute(expr: ast.Expr, bindings: Dict[str, ast.Expr]) -> ast.Expr:
    if isinstance(expr, ast.Num):
        return ast.Num(expr.value, expr.line)
    if isinstance(expr, ast.Var):
        if expr.name in bindings:
            return ast.clone_expr(bindings[expr.name])
        return ast.Var(expr.name, expr.line)
    if isinstance(expr, ast.Index):
        return ast.Index(expr.name, _substitute(expr.index, bindings), expr.line)
    if isinstance(expr, ast.Unary):
        return ast.Unary(expr.op, _substitute(expr.operand, bindings), expr.line)
    if isinstance(expr, ast.Binary):
        return ast.Binary(expr.op, _substitute(expr.lhs, bindings),
                          _substitute(expr.rhs, bindings), expr.line)
    if isinstance(expr, ast.Call):
        return ast.Call(expr.name, [_substitute(a, bindings) for a in expr.args],
                        expr.line)
    raise TypeError(f"unknown expression {type(expr)!r}")  # pragma: no cover


def _inline_expr(expr: ast.Expr, inlinable: Dict[str, ast.FunctionDef],
                 counter: List[int]) -> ast.Expr:
    kind = type(expr)
    if kind is ast.Num or kind is ast.Var:
        return expr
    if kind is ast.Binary:
        lhs = _inline_expr(expr.lhs, inlinable, counter)
        rhs = _inline_expr(expr.rhs, inlinable, counter)
        return _rebuilt_binary(expr, lhs, rhs)
    if kind is ast.Index:
        index = _inline_expr(expr.index, inlinable, counter)
        if index is expr.index:
            return expr
        return ast.Index(expr.name, index, expr.line)
    if kind is ast.Unary:
        operand = _inline_expr(expr.operand, inlinable, counter)
        if operand is expr.operand:
            return expr
        return ast.Unary(expr.op, operand, expr.line)
    if kind is ast.Call:
        args = [_inline_expr(arg, inlinable, counter) for arg in expr.args]
        callee = inlinable.get(expr.name)
        if callee is not None and len(args) == len(callee.params):
            body_expr = _simple_function_expression(callee)
            if body_expr is not None:
                counter[0] += 1
                bindings = dict(zip(callee.params, args))
                return _substitute(body_expr, bindings)
        if not any(map(is_not, args, expr.args)):
            return expr
        return ast.Call(expr.name, args, expr.line)
    raise TypeError(f"unknown expression {kind!r}")  # pragma: no cover


def inline_simple_functions(module: ast.SourceModule) -> int:
    """Inline calls to single-return-expression functions; returns call count."""
    inlinable = {fn.name: fn for fn in module.functions
                 if _simple_function_expression(fn) is not None}
    if not inlinable:
        return 0
    return _rewrite_module(
        module, lambda expr, counter: _inline_expr(expr, inlinable, counter))
