"""Integer semantics of the 32-bit TeamPlay target, defined once.

Values are two's-complement signed 32-bit integers, ``>>`` is a logical
shift on the 32-bit pattern, shift counts are taken mod 32 and division
truncates towards zero.  The simulator, the path-feasibility domain and
both constant folders (source-level and IR-level) evaluate through these
helpers, so a value folded at compile time is exactly the value the
unoptimised program computes at run time.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.instructions import Opcode

INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1
UINT32_MASK = 0xFFFFFFFF


def wrap32(value: int) -> int:
    """Wrap a Python int to signed 32-bit two's complement."""
    value &= UINT32_MASK
    if value > INT32_MAX:
        value -= 1 << 32
    return value


def unsigned32(value: int) -> int:
    """The unsigned 32-bit pattern of ``value``."""
    return value & UINT32_MASK


def c_div(lhs: int, rhs: int) -> int:
    """C division: the quotient truncated towards zero (``rhs`` non-zero)."""
    quotient = abs(lhs) // abs(rhs)
    return -quotient if (lhs < 0) != (rhs < 0) else quotient


def eval_unary(opcode: Opcode, value: int) -> Optional[int]:
    """``opcode`` applied to ``value`` as the target computes it, or
    ``None`` if ``opcode`` is not a unary operation."""
    value = wrap32(value)
    if opcode is Opcode.NEG:
        return wrap32(-value)
    if opcode is Opcode.NOT:
        return wrap32(~value)
    if opcode is Opcode.LNOT:
        return int(value == 0)
    return None


def eval_binary(opcode: Opcode, lhs: int, rhs: int) -> Optional[int]:
    """``lhs opcode rhs`` as the target computes it.

    Operands are wrapped first, as the simulator wraps immediates on read.
    Returns ``None`` when there is no value: ``opcode`` is not a binary
    operation, or it divides by zero (which must keep trapping at run time).
    """
    lhs, rhs = wrap32(lhs), wrap32(rhs)
    if opcode is Opcode.ADD:
        return wrap32(lhs + rhs)
    if opcode is Opcode.SUB:
        return wrap32(lhs - rhs)
    if opcode is Opcode.MUL:
        return wrap32(lhs * rhs)
    if opcode is Opcode.DIV or opcode is Opcode.MOD:
        if rhs == 0:
            return None
        quotient = c_div(lhs, rhs)
        return wrap32(quotient if opcode is Opcode.DIV
                      else lhs - quotient * rhs)
    if opcode is Opcode.AND:
        return lhs & rhs
    if opcode is Opcode.OR:
        return lhs | rhs
    if opcode is Opcode.XOR:
        return lhs ^ rhs
    if opcode is Opcode.SHL:
        return wrap32((lhs & UINT32_MASK) << (rhs & 31))
    if opcode is Opcode.SHR:
        return wrap32((lhs & UINT32_MASK) >> (rhs & 31))
    if opcode is Opcode.CMPEQ:
        return int(lhs == rhs)
    if opcode is Opcode.CMPNE:
        return int(lhs != rhs)
    if opcode is Opcode.CMPLT:
        return int(lhs < rhs)
    if opcode is Opcode.CMPLE:
        return int(lhs <= rhs)
    if opcode is Opcode.CMPGT:
        return int(lhs > rhs)
    if opcode is Opcode.CMPGE:
        return int(lhs >= rhs)
    return None
