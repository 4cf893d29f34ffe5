"""Lowering of the TeamPlay-C AST into the RISC-like IR.

The lowering produces, for each function, a control-flow graph *and* a region
tree that partitions the CFG's blocks.  The invariant maintained here (and
checked by :meth:`repro.ir.cfg.Function.validate`) is that every basic block
appears in exactly one region leaf — this is what allows the WCET and
worst-case-energy analyses to be exact structural recursions.

Semantics notes:

* ``&&`` and ``||`` are *not* short-circuiting; both operands are evaluated
  and combined on their truth values.  This keeps lowering branch-free, which
  is also convenient for the security transformations.
* Arrays are either global or function-local; they cannot be passed as
  parameters (integers are passed by value).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import FrontendError
from repro.frontend import ast_nodes as ast
from repro.frontend.parser import parse
from repro.ir import cfg as ircfg
from repro.ir import instructions as ins
from repro.ir.instructions import Imm, Instr, Opcode, Operand, Reg
from repro.ir.regions import BlockRegion, IfRegion, LoopRegion, SeqRegion

#: Source binary operator -> IR opcode (``&&``/``||`` are lowered apart).
BINARY_OPCODES = {
    "+": Opcode.ADD, "-": Opcode.SUB, "*": Opcode.MUL, "/": Opcode.DIV,
    "%": Opcode.MOD, "&": Opcode.AND, "|": Opcode.OR, "^": Opcode.XOR,
    "<<": Opcode.SHL, ">>": Opcode.SHR,
    "<": Opcode.CMPLT, "<=": Opcode.CMPLE, ">": Opcode.CMPGT,
    ">=": Opcode.CMPGE, "==": Opcode.CMPEQ, "!=": Opcode.CMPNE,
}

UNARY_OPCODES = {"-": Opcode.NEG, "~": Opcode.NOT, "!": Opcode.LNOT}

_COMPOUND_OPS = {
    "+=": Opcode.ADD, "-=": Opcode.SUB, "*=": Opcode.MUL, "/=": Opcode.DIV,
    "%=": Opcode.MOD, "&=": Opcode.AND, "|=": Opcode.OR, "^=": Opcode.XOR,
    "<<=": Opcode.SHL, ">>=": Opcode.SHR,
}


class _FunctionLowerer:
    """Lowers a single :class:`FunctionDef` into an IR :class:`Function`."""

    def __init__(self, funcdef: ast.FunctionDef, global_arrays: Dict[str, int],
                 function_names: List[str]):
        self.funcdef = funcdef
        self.global_arrays = global_arrays
        self.function_names = set(function_names)
        self.fn = ircfg.Function(name=funcdef.name, params=list(funcdef.params))
        self.scalars = set(funcdef.params)
        # Interned operands: ``Reg``/``Imm`` are frozen and compare by
        # value, so one object per name / value serves the whole function.
        self._regs: Dict[str, Reg] = {}
        self._imms: Dict[int, Imm] = {}
        self.temp_counter = 0
        self.label_counter = 0
        self.loop_counter = 0
        self.current: Optional[ircfg.BasicBlock] = None

    # -- helpers -----------------------------------------------------------------
    def _error(self, message: str, line: int = 0) -> FrontendError:
        return FrontendError(f"{self.funcdef.name}: {message}", line)

    def new_temp(self) -> Reg:
        self.temp_counter += 1
        return Reg(f"t{self.temp_counter}")

    def new_block(self, hint: str) -> ircfg.BasicBlock:
        self.label_counter += 1
        label = f"{hint}.{self.label_counter}"
        return self.fn.add_block(ircfg.BasicBlock(label))

    def reg(self, name: str) -> Reg:
        """The interned register of variable ``name``."""
        reg = self._regs.get(name)
        if reg is None:
            reg = self._regs[name] = Reg(name)
        return reg

    def imm(self, value: int) -> Imm:
        """The interned immediate ``value``."""
        imm = self._imms.get(value)
        if imm is None:
            imm = self._imms[value] = Imm(value)
        return imm

    def scalar(self, expr: ast.Var) -> Reg:
        """The register read by ``expr`` (a declared scalar)."""
        if expr.name not in self.scalars:
            raise self._error(f"use of undeclared variable {expr.name!r}",
                              expr.line)
        return self.reg(expr.name)

    # -- entry point ---------------------------------------------------------------
    def lower(self) -> ircfg.Function:
        self._apply_pragmas()
        entry = self.fn.add_block(ircfg.BasicBlock("entry"))
        self.fn.entry = "entry"
        self.current = entry
        region = self.lower_statements(self.funcdef.body)
        if self.current.terminator is None:
            self.current.instrs.append(ins.ret(self.imm(0)))
        self.fn.region = region
        self._prune_unreachable()
        return self.fn

    def _prune_unreachable(self) -> None:
        """Drop blocks that cannot be reached (code after a ``return``).

        Keeping them would be safe but would inflate the structural
        worst-case bounds with code that can never execute.
        """
        reachable = {self.fn.entry}
        worklist = [self.fn.entry]
        while worklist:
            label = worklist.pop()
            for successor in self.fn.blocks[label].successors():
                if successor not in reachable:
                    reachable.add(successor)
                    worklist.append(successor)
        if len(reachable) == len(self.fn.blocks):
            return
        self.fn.blocks = {label: block for label, block in self.fn.blocks.items()
                          if label in reachable}
        pruned = _prune_region(self.fn.region, reachable)
        self.fn.region = pruned if pruned is not None else SeqRegion()

    def _apply_pragmas(self) -> None:
        pragmas = self.funcdef.pragmas
        if "task" in pragmas:
            self.fn.annotations["task"] = pragmas["task"]
        if "poi" in pragmas:
            self.fn.annotations["poi"] = pragmas["poi"]
        for key in ("period", "deadline", "wcet_budget", "energy_budget",
                    "security_level", "version", "on"):
            if key in pragmas:
                self.fn.annotations[key] = pragmas[key]
        secrets = pragmas.get("secret", [])
        for name in secrets:
            if name not in self.funcdef.params:
                raise self._error(
                    f"secret parameter {name!r} is not a parameter",
                    self.funcdef.line)
        self.fn.secret_params = list(secrets)

    # -- statements -------------------------------------------------------------------
    def lower_statements(self, stmts: List[ast.Stmt]) -> SeqRegion:
        """Lower ``stmts`` starting in ``self.current``.

        Returns a region covering every block created, including the block
        left open in ``self.current`` when the method returns.
        """
        seq = SeqRegion()
        for stmt in stmts:
            self.lower_statement(stmt, seq)
        seq.children.append(BlockRegion(self.current.label))
        return seq

    def lower_statement(self, stmt: ast.Stmt, seq: SeqRegion) -> None:
        kind = type(stmt)
        if kind is ast.Assign:
            self._lower_assign(stmt)
        elif kind is ast.VarDecl:
            self._lower_vardecl(stmt)
        elif kind is ast.Return:
            self._lower_return(stmt, seq)
        elif kind is ast.ExprStmt:
            self.lower_expr(stmt.expr)
        elif kind is ast.If:
            self._lower_if(stmt, seq)
        elif kind is ast.While:
            self._lower_while(stmt, seq)
        elif kind is ast.For:
            self._lower_for(stmt, seq)
        else:  # pragma: no cover - defensive
            raise self._error(f"unsupported statement {kind.__name__}")

    def _lower_vardecl(self, stmt: ast.VarDecl) -> None:
        if stmt.array_size is not None:
            if stmt.name in self.fn.local_arrays or stmt.name in self.global_arrays:
                raise self._error(f"array {stmt.name!r} redeclared", stmt.line)
            self.fn.local_arrays[stmt.name] = stmt.array_size
            return
        self.scalars.add(stmt.name)
        if stmt.init is not None:
            value = self.lower_expr(stmt.init)
            self.current.instrs.append(ins.mov(self.reg(stmt.name), value))
        else:
            self.current.instrs.append(
                ins.mov(self.reg(stmt.name), self.imm(0)))

    def _lower_assign(self, stmt: ast.Assign) -> None:
        target = stmt.target
        if type(target) is ast.Var:
            if target.name not in self.scalars:
                raise self._error(f"assignment to undeclared variable "
                                  f"{target.name!r}", stmt.line)
            dst = self.reg(target.name)
            if stmt.op == "=":
                value = self.lower_expr(stmt.value)
                self.current.instrs.append(ins.mov(dst, value))
            else:
                opcode = _COMPOUND_OPS[stmt.op]
                value = self.lower_expr(stmt.value)
                self.current.instrs.append(ins.binop(opcode, dst, dst, value))
            return
        if type(target) is ast.Index:
            self._check_array(target.name, stmt.line)
            index = self.lower_expr(target.index)
            if stmt.op == "=":
                value = self.lower_expr(stmt.value)
                self.current.instrs.append(
                    ins.store(target.name, index, value))
            else:
                opcode = _COMPOUND_OPS[stmt.op]
                old = self.new_temp()
                self.current.instrs.append(ins.load(old, target.name, index))
                value = self.lower_expr(stmt.value)
                result = self.new_temp()
                self.current.instrs.append(
                    ins.binop(opcode, result, old, value))
                self.current.instrs.append(
                    ins.store(target.name, index, result))
            return
        raise self._error("invalid assignment target", stmt.line)

    def _lower_return(self, stmt: ast.Return, seq: SeqRegion) -> None:
        value = (self.lower_expr(stmt.value) if stmt.value is not None
                 else self.imm(0))
        self.current.instrs.append(ins.ret(value))
        # Code textually after a return goes into an unreachable block so the
        # current block keeps a single terminator; the finished block joins
        # the region tree here because the end-of-list append will only see
        # the new block.
        seq.children.append(BlockRegion(self.current.label))
        self.current = self.new_block("dead")

    def _lower_if(self, stmt: ast.If, seq: SeqRegion) -> None:
        cond_block = self.new_block("if.cond")
        self.current.instrs.append(ins.jump(cond_block.label))
        seq.children.append(BlockRegion(self.current.label))

        self.current = cond_block
        cond_value = self.lower_expr(stmt.cond)
        then_block = self.new_block("if.then")
        else_block = self.new_block("if.else")
        join_block = self.new_block("if.join")
        # The branch must live in the block where the condition was computed,
        # which may have changed if the condition contained nested statements.
        self.current.instrs.append(
            ins.branch(cond_value, then_block.label, else_block.label))
        cond_label = self.current.label

        self.current = then_block
        then_region = self.lower_statements(stmt.then_body)
        self.current.instrs.append(ins.jump(join_block.label))

        self.current = else_block
        else_region = self.lower_statements(stmt.else_body)
        self.current.instrs.append(ins.jump(join_block.label))

        seq.children.append(IfRegion(cond_label, then_region, else_region))
        self.current = join_block

    def _lower_while(self, stmt: ast.While, seq: SeqRegion) -> None:
        cond_block = self.new_block("while.cond")
        self.current.instrs.append(ins.jump(cond_block.label))
        seq.children.append(BlockRegion(self.current.label))

        self.current = cond_block
        cond_value = self.lower_expr(stmt.cond)
        body_block = self.new_block("while.body")
        exit_block = self.new_block("while.exit")
        self.current.instrs.append(
            ins.branch(cond_value, body_block.label, exit_block.label))
        cond_label = self.current.label

        self.current = body_block
        body_region = self.lower_statements(stmt.body)
        self.current.instrs.append(ins.jump(cond_block.label))

        self.loop_counter += 1
        seq.children.append(LoopRegion(cond_label, body_region,
                                       bound=stmt.bound,
                                       pragma_bound=stmt.bound,
                                       loop_id=self.loop_counter))
        self.current = exit_block

    def _lower_for(self, stmt: ast.For, seq: SeqRegion) -> None:
        if stmt.init is not None:
            self.lower_statement(stmt.init, seq)
        cond_block = self.new_block("for.cond")
        self.current.instrs.append(ins.jump(cond_block.label))
        seq.children.append(BlockRegion(self.current.label))

        self.current = cond_block
        if stmt.cond is not None:
            cond_value = self.lower_expr(stmt.cond)
        else:
            cond_value = self.imm(1)
        body_block = self.new_block("for.body")
        exit_block = self.new_block("for.exit")
        self.current.instrs.append(
            ins.branch(cond_value, body_block.label, exit_block.label))
        cond_label = self.current.label

        self.current = body_block
        body_stmts = list(stmt.body)
        if stmt.update is not None:
            body_stmts.append(stmt.update)
        body_region = self.lower_statements(body_stmts)
        self.current.instrs.append(ins.jump(cond_block.label))

        self.loop_counter += 1
        seq.children.append(LoopRegion(cond_label, body_region,
                                       bound=stmt.bound,
                                       pragma_bound=stmt.bound,
                                       loop_id=self.loop_counter))
        self.current = exit_block

    # -- expressions ---------------------------------------------------------------------
    def _check_array(self, name: str, line: int) -> None:
        if name not in self.fn.local_arrays and name not in self.global_arrays:
            raise self._error(f"unknown array {name!r}", line)

    def lower_expr(self, expr: ast.Expr) -> Operand:
        kind = type(expr)
        if kind is ast.Binary:
            return self._lower_binary(expr)
        if kind is ast.Var:
            return self._regs.get(expr.name) or self.scalar(expr)
        if kind is ast.Num:
            return self._imms.get(expr.value) or self.imm(expr.value)
        if kind is ast.Index:
            self._check_array(expr.name, expr.line)
            index = self.lower_expr(expr.index)
            dst = self.new_temp()
            self.current.instrs.append(
                Instr(Opcode.LOAD, dst, (index,), expr.name))
            return dst
        if kind is ast.Unary:
            operand = self.lower_expr(expr.operand)
            dst = self.new_temp()
            self.current.instrs.append(
                Instr(UNARY_OPCODES[expr.op], dst, (operand,)))
            return dst
        if kind is ast.Call:
            return self._lower_call(expr)
        raise self._error(f"unsupported expression {kind.__name__}")

    def _lower_binary(self, expr: ast.Binary) -> Operand:
        op = expr.op
        opcode = BINARY_OPCODES.get(op)
        if opcode is None and op != "&&" and op != "||":
            raise self._error(f"unsupported operator {op!r}", expr.line)
        # Variable and literal operands are the common case: resolve them
        # here rather than through a recursive ``lower_expr`` call.
        lhs = expr.lhs
        kind = type(lhs)
        if kind is ast.Var:
            lhs = self._regs.get(lhs.name) or self.scalar(lhs)
        elif kind is ast.Num:
            lhs = self._imms.get(lhs.value) or self.imm(lhs.value)
        else:
            lhs = self.lower_expr(lhs)
        rhs = expr.rhs
        kind = type(rhs)
        if kind is ast.Var:
            rhs = self._regs.get(rhs.name) or self.scalar(rhs)
        elif kind is ast.Num:
            rhs = self._imms.get(rhs.value) or self.imm(rhs.value)
        else:
            rhs = self.lower_expr(rhs)
        instrs = self.current.instrs
        if opcode is None:
            zero = self.imm(0)
            lhs_bool = self.new_temp()
            rhs_bool = self.new_temp()
            instrs.append(Instr(Opcode.CMPNE, lhs_bool, (lhs, zero)))
            instrs.append(Instr(Opcode.CMPNE, rhs_bool, (rhs, zero)))
            dst = self.new_temp()
            instrs.append(Instr(Opcode.AND if op == "&&" else Opcode.OR,
                                dst, (lhs_bool, rhs_bool)))
            return dst
        dst = self.new_temp()
        instrs.append(Instr(opcode, dst, (lhs, rhs)))
        return dst

    def _lower_call(self, expr: ast.Call) -> Operand:
        if expr.name not in self.function_names:
            raise self._error(f"call to unknown function {expr.name!r}",
                              expr.line)
        args = tuple(self.lower_expr(arg) for arg in expr.args)
        dst = self.new_temp()
        self.current.instrs.append(ins.call(dst, expr.name, args))
        return dst


def _prune_region(region, reachable):
    """Remove region-tree leaves whose blocks were pruned; None = all gone."""
    if isinstance(region, BlockRegion):
        return region if region.label in reachable else None
    if isinstance(region, SeqRegion):
        children = []
        for child in region.children:
            kept = _prune_region(child, reachable)
            if kept is not None:
                children.append(kept)
        return SeqRegion(children) if children else None
    if isinstance(region, IfRegion):
        if region.cond_label not in reachable:
            return None
        then_region = _prune_region(region.then_region, reachable) or SeqRegion()
        else_region = _prune_region(region.else_region, reachable) or SeqRegion()
        return IfRegion(region.cond_label, then_region, else_region)
    if isinstance(region, LoopRegion):
        if region.cond_label not in reachable:
            return None
        body = _prune_region(region.body_region, reachable) or SeqRegion()
        return LoopRegion(region.cond_label, body, region.bound,
                          region.pragma_bound, region.loop_id)
    raise TypeError(f"unknown region type {type(region)!r}")  # pragma: no cover


def lower_module(module: ast.SourceModule) -> ircfg.Program:
    """Lower a parsed :class:`SourceModule` into an IR :class:`Program`."""
    program = ircfg.Program(source_name=module.source_name)
    global_init: Dict[str, List[int]] = {}
    for glob in module.globals:
        if glob.name in program.global_arrays:
            raise FrontendError(f"global array {glob.name!r} redeclared",
                                glob.line)
        program.global_arrays[glob.name] = glob.size
        if glob.init is not None:
            global_init[glob.name] = list(glob.init)
    if global_init:
        program.metadata["global_init"] = global_init

    function_names = module.function_names()
    for funcdef in module.functions:
        lowerer = _FunctionLowerer(funcdef, program.global_arrays, function_names)
        program.add_function(lowerer.lower())
    program.validate()
    return program


def compile_source(source: str, source_name: str = "<memory>",
                   infer_bounds: bool = True) -> ircfg.Program:
    """Parse and lower TeamPlay-C ``source`` in one step (no optimisation).

    ``infer_bounds`` runs the loop-bound analysis for counted ``for`` loops
    so the result is immediately analysable; ``loopbound`` pragmas are kept
    untouched either way.
    """
    module = parse(source, source_name)
    if infer_bounds:
        # Imported lazily: the loop-bound analysis lives with the WCET
        # analyser but only depends on the AST module.
        from repro.wcet.loopbounds import infer_loop_bounds
        infer_loop_bounds(module)
    return lower_module(module)
