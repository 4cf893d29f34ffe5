"""IR-level optimisation passes.

These passes operate on lowered :class:`~repro.ir.cfg.Program` objects in
place.  They only rewrite instructions *within* basic blocks, so the region
tree (which references blocks by label) remains valid.

All passes are copy-on-write at instruction granularity: they rebuild
instruction lists and replace rewritten instructions with fresh objects,
never mutating an :class:`~repro.ir.instructions.Instr` in place — required
because the evaluation engine's staged caches hand out instruction-sharing
program clones (``Program.clone(share_instructions=True)``).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.ir.cfg import Program
from repro.ir.instructions import COMMUTATIVE, Imm, Instr, Opcode, Reg
from repro.ir.int32 import eval_binary, eval_unary, wrap32

#: Opcodes that must never be removed even if their destination is unused.
_SIDE_EFFECTS = {Opcode.STORE, Opcode.CALL, Opcode.RET, Opcode.BR, Opcode.JMP}


# ---------------------------------------------------------------------------
# Dead-code elimination
# ---------------------------------------------------------------------------
def eliminate_dead_code(program: Program) -> int:
    """Remove instructions whose results are never read.

    Returns the number of instructions removed (across all functions).  The
    pass iterates to a fixed point because removing one dead instruction can
    make its operands' producers dead too.  Read counts are maintained
    incrementally across iterations (same fixed point as recomputing the
    used-register set from scratch, without re-walking every operand).
    """
    removed_total = 0
    for function in program.functions.values():
        reads: Dict[str, int] = {}
        for instr in function.iter_instructions():
            for reg in instr.reads():
                reads[reg.name] = reads.get(reg.name, 0) + 1
        while True:
            removed = 0
            for block in function.blocks.values():
                kept = []
                for instr in block.instrs:
                    dst = instr.dst
                    if (dst is not None
                            and instr.opcode not in _SIDE_EFFECTS
                            and not reads.get(dst.name)):
                        removed += 1
                        for reg in instr.reads():
                            reads[reg.name] -= 1
                    else:
                        kept.append(instr)
                block.instrs = kept
            removed_total += removed
            if removed == 0:
                break
    return removed_total


# ---------------------------------------------------------------------------
# Strength reduction / peephole simplification
# ---------------------------------------------------------------------------
def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


#: Opcodes _reduce_instr can do anything with (cheap pre-filter).
_REDUCIBLE_OPS = frozenset((Opcode.MUL, Opcode.ADD, Opcode.SUB, Opcode.OR,
                            Opcode.XOR, Opcode.SHL, Opcode.SHR))


def _reduce_instr(instr: Instr) -> bool:
    """Simplify one instruction in place; True when something changed."""
    op = instr.opcode
    if op not in (Opcode.MUL, Opcode.ADD, Opcode.SUB, Opcode.OR, Opcode.XOR,
                  Opcode.SHL, Opcode.SHR):
        return False
    if len(instr.srcs) != 2:
        return False
    lhs, rhs = instr.srcs

    # Normalise "imm op reg" to "reg op imm" for commutative operations.
    if op in (Opcode.MUL, Opcode.ADD, Opcode.OR, Opcode.XOR) \
            and isinstance(lhs, Imm) and isinstance(rhs, Reg):
        lhs, rhs = rhs, lhs
        instr.srcs = (lhs, rhs)

    if not isinstance(rhs, Imm):
        return False

    if op is Opcode.MUL:
        if rhs.value == 1:
            instr.opcode = Opcode.MOV
            instr.srcs = (lhs,)
            return True
        if rhs.value == 0:
            instr.opcode = Opcode.MOV
            instr.srcs = (Imm(0),)
            return True
        if _is_power_of_two(rhs.value):
            instr.opcode = Opcode.SHL
            instr.srcs = (lhs, Imm(rhs.value.bit_length() - 1))
            return True
        return False

    if rhs.value == 0 and op in (Opcode.ADD, Opcode.SUB, Opcode.OR, Opcode.XOR,
                                 Opcode.SHL, Opcode.SHR):
        instr.opcode = Opcode.MOV
        instr.srcs = (lhs,)
        return True
    return False


# ---------------------------------------------------------------------------
# Common-subexpression elimination (block-local)
# ---------------------------------------------------------------------------
#: Opcodes whose result depends only on their register/immediate operands.
#: LOAD is excluded (its value depends on memory, which STOREs in the same
#: block may change); MOV is excluded (replacing a copy with another copy
#: gains nothing — copy propagation is a different pass).
_PURE_OPS = frozenset((
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.MOD,
    Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR,
    Opcode.NEG, Opcode.NOT, Opcode.LNOT,
    Opcode.CMPEQ, Opcode.CMPNE, Opcode.CMPLT, Opcode.CMPLE,
    Opcode.CMPGT, Opcode.CMPGE, Opcode.SELECT,
))

#: Commutative opcodes, as a set for O(1) membership in the CSE key builder.
_COMMUTATIVE_OPS = frozenset(COMMUTATIVE)


def _expression_key(instr: Instr) -> Tuple:
    """Value-equality key of a pure instruction's right-hand side.

    Commutative two-operand expressions are canonicalised (sorted operand
    order) so ``a + b`` and ``b + a`` share one availability slot.
    """
    srcs = instr.srcs
    if instr.opcode in _COMMUTATIVE_OPS and len(srcs) == 2:
        a, b = srcs
        if repr(b) < repr(a):
            srcs = (b, a)
    return (instr.opcode, srcs)


def eliminate_common_subexpressions(program: Program) -> int:
    """Replace re-computed pure expressions with register copies.

    Block-local available-expression analysis: within one basic block, the
    second and later computations of an identical pure expression (same
    opcode, same operands, commutative operands canonicalised) are replaced
    by a ``MOV`` from the register still holding the first result.  Returns
    the number of replacements (across all functions).

    The rewrite never removes an instruction, it *downgrades* one — a
    ``mul``/``div``-class recomputation becomes an ``alu``-class copy — so
    worst-case cycle (and energy) bounds drop while code size is unchanged;
    a following peephole pass removes the self-copies this can leave behind.
    Availability is invalidated conservatively on every register
    redefinition: an expression is dropped both when one of its operands and
    when its holding register is overwritten, and an instruction whose
    destination feeds its own right-hand side (``i = i + 1``) is never
    recorded.
    """
    replaced_total = 0
    for function in program.functions.values():
        for block in function.blocks.values():
            available: Dict[Tuple, Reg] = {}
            #: register name -> keys whose operands or holder mention it
            mentions: Dict[str, list] = {}
            instrs = block.instrs
            for index, instr in enumerate(instrs):
                dst = instr.dst
                recorded_key = None
                if (instr.opcode in _PURE_OPS and dst is not None
                        and instr.srcs):
                    key = _expression_key(instr)
                    holder = available.get(key)
                    if holder is not None:
                        replacement = Instr(Opcode.MOV, dst=dst,
                                            srcs=(holder,))
                        instrs[index] = replacement
                        instr = replacement
                        replaced_total += 1
                    elif dst.name not in (reg.name for reg in instr.reads()):
                        recorded_key = key
                if dst is None:
                    continue
                # The write invalidates every expression reading or held in
                # ``dst`` — including, possibly, the one we just matched.
                for key in mentions.pop(dst.name, ()):
                    available.pop(key, None)
                if recorded_key is not None:
                    available[recorded_key] = dst
                    for reg in instr.reads():
                        mentions.setdefault(reg.name, []).append(recorded_key)
                    mentions.setdefault(dst.name, []).append(recorded_key)
    return replaced_total


def strength_reduce(program: Program) -> int:
    """Apply peephole strength reduction; returns the number of rewrites.

    Copy-on-write at instruction granularity: rewritten instructions are
    replaced by modified clones instead of being mutated in place, so
    programs produced by instruction-sharing clones (see
    ``Program.clone(share_instructions=True)``) never corrupt each other.
    """
    rewrites = 0
    for function in program.functions.values():
        for block in function.blocks.values():
            instrs = block.instrs
            for index, instr in enumerate(instrs):
                if instr.opcode not in _REDUCIBLE_OPS or len(instr.srcs) != 2:
                    continue
                candidate = instr.clone()
                if _reduce_instr(candidate):
                    instrs[index] = candidate
                    rewrites += 1
                elif candidate.srcs != instr.srcs:
                    # Commutative normalisation only ("imm op reg" swapped):
                    # keep it, exactly as the in-place pass did.
                    instrs[index] = candidate
    return rewrites


# ---------------------------------------------------------------------------
# Peephole simplification (algebraic identities, IR-level constant folding)
# ---------------------------------------------------------------------------
#: Same-register identities: ``op x, x`` folds without knowing ``x``.
_SAME_REG_ZERO = frozenset((Opcode.SUB, Opcode.XOR, Opcode.CMPNE,
                            Opcode.CMPLT, Opcode.CMPGT))
_SAME_REG_ONE = frozenset((Opcode.CMPEQ, Opcode.CMPLE, Opcode.CMPGE))
_SAME_REG_COPY = frozenset((Opcode.AND, Opcode.OR))


def _peephole_rewrite(instr: Instr) -> Optional[Instr]:
    """The simplified replacement for one instruction, or ``None``.

    Every rewrite returns a *fresh* instruction (copy-on-write contract);
    the input is never mutated.
    """
    opcode, dst, srcs = instr.opcode, instr.dst, instr.srcs
    if dst is None:
        return None

    if len(srcs) == 2:
        lhs, rhs = srcs
        if isinstance(lhs, Imm) and isinstance(rhs, Imm):
            folded = eval_binary(opcode, lhs.value, rhs.value)
            if folded is not None:
                return Instr(Opcode.MOV, dst=dst, srcs=(Imm(folded),))
        if isinstance(lhs, Reg) and isinstance(rhs, Reg) \
                and lhs.name == rhs.name:
            if opcode in _SAME_REG_ZERO:
                return Instr(Opcode.MOV, dst=dst, srcs=(Imm(0),))
            if opcode in _SAME_REG_ONE:
                return Instr(Opcode.MOV, dst=dst, srcs=(Imm(1),))
            if opcode in _SAME_REG_COPY:
                return Instr(Opcode.MOV, dst=dst, srcs=(lhs,))
        return None

    if len(srcs) == 1 and isinstance(srcs[0], Imm):
        folded = eval_unary(opcode, srcs[0].value)
        if folded is not None:
            return Instr(Opcode.MOV, dst=dst, srcs=(Imm(folded),))
        return None

    if opcode is Opcode.SELECT and len(srcs) == 3:
        cond, if_true, if_false = srcs
        if isinstance(cond, Imm):
            return Instr(Opcode.MOV, dst=dst,
                         srcs=(if_true if wrap32(cond.value) != 0
                               else if_false,))
        if if_true == if_false:
            return Instr(Opcode.MOV, dst=dst, srcs=(if_true,))
    return None


def peephole_optimize(program: Program) -> int:
    """Apply local algebraic simplifications; returns the rewrite count.

    Three families of cleanups, each a single-instruction rewrite:

    * *constant folding at the IR level* — operations whose operands are all
      immediates collapse to a ``MOV`` of the folded value (32-bit wrapped,
      bit-exact with the simulator; division by zero is left to trap),
    * *algebraic identities* — ``x - x``, ``x ^ x``, ``x & x``, ``x | x``,
      same-register comparisons, ``NEG``/``NOT``/``LNOT`` of immediates and
      ``SELECT`` with a constant condition or identical arms,
    * *self-copy removal* — ``mov r, r`` (e.g. left behind when CSE
      re-materialises a value into the register that already holds it) is
      deleted outright, shrinking code size.

    Deliberately *not* removed: ``NOP`` padding (a later timing-equalisation
    pass may count on it) and anything spanning more than one instruction.
    Copy-on-write at instruction granularity, like every IR pass here.
    """
    rewrites = 0
    for function in program.functions.values():
        for block in function.blocks.values():
            kept = []
            changed = False
            for instr in block.instrs:
                if (instr.opcode is Opcode.MOV and instr.dst is not None
                        and len(instr.srcs) == 1
                        and isinstance(instr.srcs[0], Reg)
                        and instr.srcs[0].name == instr.dst.name):
                    rewrites += 1
                    changed = True
                    continue
                replacement = _peephole_rewrite(instr)
                if replacement is not None:
                    rewrites += 1
                    changed = True
                    kept.append(replacement)
                else:
                    kept.append(instr)
            if changed:
                block.instrs = kept
    return rewrites
