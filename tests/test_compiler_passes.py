"""Tests for the compiler's optimisation passes (semantics preservation and effect)."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.config import UNROLL_CHOICES, CompilerConfig
from repro.compiler.engine.cache import program_fingerprint
from repro.compiler.evaluate import build_program, evaluate_config
from repro.compiler.passes.ast_passes import (
    _simple_function_expression,
    _substitute,
    fold_constants,
    inline_simple_functions,
    unroll_loops,
)
from repro.compiler.passes.ir_passes import (
    eliminate_common_subexpressions,
    eliminate_dead_code,
    peephole_optimize,
    strength_reduce,
)
from repro.compiler.passes.spm import allocate_scratchpad
from repro.compiler.pipeline.compile import CompilationPipeline
from repro.compiler.pipeline.manager import PassManager
from repro.compiler.pipeline.passes import default_compile_passes
from repro.errors import SimulationError
from repro.frontend import ast_nodes as ast
from repro.frontend.lowering import compile_source, lower_module
from repro.frontend.parser import parse
from repro.hw.presets import nucleo_stm32f091rc
from repro.ir.instructions import Imm, Opcode, Reg
from repro.scenarios.registry import get_scenario, list_scenarios
from repro.sim.machine import Simulator
from repro.wcet.loopbounds import infer_for_bound, infer_loop_bounds

SOURCE = """
int data[16];

int scale(int x) { return x * 8 + 4 / 2; }

int kernel(int gain) {
    int acc = 0;
    int unused = gain * 123;
    for (int i = 0; i < 16; i = i + 1) {
        acc = acc + data[i] * gain + scale(i) * 1 + 0;
    }
    if (acc > 64 * 4) { acc = acc - 16 * 2; }
    return acc;
}
"""


@pytest.fixture(scope="module")
def platform():
    return nucleo_stm32f091rc()


def _run_reference(gain, data):
    def scale(x):
        return x * 8 + 2
    acc = 0
    for i in range(16):
        acc += data[i] * gain + scale(i)
    if acc > 256:
        acc -= 32
    return acc


def _simulate(module_or_program, platform, gain, data):
    if isinstance(module_or_program, ast.SourceModule):
        program = lower_module(module_or_program)
    else:
        program = module_or_program
    return Simulator(program, platform).run("kernel", [gain],
                                            globals_init={"data": data}).return_value


class TestAstPasses:
    def test_constant_folding_counts_and_preserves_semantics(self, platform):
        module = parse(SOURCE)
        infer_loop_bounds(module)
        folds = fold_constants(module)
        assert folds >= 4
        data = list(range(16))
        assert _simulate(module, platform, 3, data) == _run_reference(3, data)

    def test_constant_folding_is_idempotent(self):
        module = parse(SOURCE)
        fold_constants(module)
        assert fold_constants(module) == 0

    def test_folding_keeps_division_by_zero(self):
        module = parse("int f(void) { return 1 / 0; }")
        fold_constants(module)
        expr = module.function("f").body[0].value
        assert isinstance(expr, ast.Binary)  # not folded away

    def test_unrolling_removes_loops_and_preserves_semantics(self, platform):
        module = parse(SOURCE)
        infer_loop_bounds(module)
        unrolled = unroll_loops(module, limit=16)
        assert unrolled == 1
        assert not any(isinstance(s, ast.For)
                       for s in ast.walk_stmts(module.function("kernel").body))
        data = [random.Random(1).randrange(100) for _ in range(16)]
        assert _simulate(module, platform, 5, data) == _run_reference(5, data)

    def test_unrolling_respects_limit(self):
        module = parse(SOURCE)
        infer_loop_bounds(module)
        assert unroll_loops(module, limit=8) == 0
        assert unroll_loops(module, limit=0) == 0

    def test_inlining_simple_functions(self, platform):
        module = parse(SOURCE)
        infer_loop_bounds(module)
        inlined = inline_simple_functions(module)
        assert inlined >= 1
        assert not any(isinstance(node, ast.Call)
                       for stmt in ast.walk_stmts(module.function("kernel").body)
                       for expr in ast.stmt_expressions(stmt)
                       for node in ast.walk_expr(expr))
        data = list(range(16))
        assert _simulate(module, platform, 2, data) == _run_reference(2, data)

    def test_functions_with_loops_not_inlined(self):
        module = parse("""
        int looped(int n) {
            int s = 0;
            for (int i = 0; i < 4; i = i + 1) { s = s + n; }
            return s;
        }
        int caller(int a) { return looped(a); }
        """)
        assert inline_simple_functions(module) == 0


class TestIrPasses:
    def test_dead_code_elimination_removes_unused(self, platform):
        module = parse(SOURCE)
        infer_loop_bounds(module)
        program = lower_module(module)
        before = program.total_instructions
        removed = eliminate_dead_code(program)
        assert removed >= 1
        assert program.total_instructions == before - removed
        data = list(range(16))
        assert _simulate(program, platform, 4, data) == _run_reference(4, data)

    def test_strength_reduction_rewrites_mul_by_power_of_two(self, platform):
        program = compile_source("int kernel(int gain) { return gain * 8 + gain * 5; }")
        rewrites = strength_reduce(program)
        assert rewrites >= 1
        opcodes = [i.opcode for i in program.functions["kernel"].iter_instructions()]
        assert Opcode.SHL in opcodes
        result = Simulator(program, nucleo_stm32f091rc()).run("kernel", [7])
        assert result.return_value == 7 * 8 + 7 * 5

    def test_strength_reduction_handles_identities(self):
        program = compile_source(
            "int kernel(int g) { int a = g * 1; int b = a + 0; int c = b * 0; return a + b + c; }")
        strength_reduce(program)
        assert Opcode.MUL not in [i.opcode for i in
                                  program.functions["kernel"].iter_instructions()]

    def test_spm_allocation_respects_capacity(self, platform):
        module = parse(SOURCE)
        infer_loop_bounds(module)
        program = lower_module(module)
        allocation = allocate_scratchpad(program, platform)
        assert allocation.used_bytes <= allocation.capacity_bytes
        assert allocation.placed_functions
        for name in allocation.placed_functions:
            assert program.functions[name].code_region == "spm"

    def test_spm_allocation_noop_without_scratchpad(self):
        from repro.hw.memory import MemoryRegion, MemorySystem
        from repro.hw.platform import Platform
        from repro.hw.presets import cortex_m0
        board = Platform(name="no-spm", cores=[cortex_m0()],
                         memory=MemorySystem(regions={
                             "flash": MemoryRegion("flash", 1 << 16, 2, 4, 1e-9),
                             "sram": MemoryRegion("sram", 1 << 15, 0, 0, 1e-9)}))
        program = compile_source("int f(int a) { return a; }")
        allocation = allocate_scratchpad(program, board)
        assert allocation.placed_functions == []


class TestBuildAndEvaluate:
    def test_build_program_never_mutates_input(self, platform):
        module = parse(SOURCE)
        build_program(module, CompilerConfig.performance(), platform)
        # The original module still contains its loop and its call.
        kernel = module.function("kernel")
        assert any(isinstance(s, ast.For) for s in ast.walk_stmts(kernel.body))

    def test_all_configs_preserve_semantics(self, platform):
        module = parse(SOURCE)
        data = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3]
        expected = _run_reference(6, data)
        for config in (CompilerConfig.baseline(), CompilerConfig.performance(),
                       CompilerConfig(constant_folding=False,
                                      dead_code_elimination=False),
                       CompilerConfig.baseline().with_(strength_reduction=True,
                                                       unroll_limit=16)):
            program, _stats = build_program(module, config, platform)
            assert _simulate(program, platform, 6, data) == expected

    def test_performance_config_improves_wcet_and_energy(self, platform):
        module = parse(SOURCE)
        base = evaluate_config(module, CompilerConfig.baseline(), platform, "kernel")
        fast = evaluate_config(module, CompilerConfig.performance(), platform, "kernel")
        assert fast.wcet_cycles < base.wcet_cycles
        assert fast.energy_j < base.energy_j
        assert fast.pass_statistics.get("unrolled_loops", 0) >= 1

    def test_variant_objectives_and_dominance(self, platform):
        module = parse(SOURCE)
        base = evaluate_config(module, CompilerConfig.baseline(), platform, "kernel")
        fast = evaluate_config(module, CompilerConfig.performance(), platform, "kernel")
        assert fast.dominates(base)
        assert not base.dominates(fast)
        assert len(base.objectives()) == 2


# ---------------------------------------------------------------------------
# Common-subexpression elimination
# ---------------------------------------------------------------------------
def _single_block_function(*instrs):
    """A one-block program around ``instrs`` (a RET is appended)."""
    from repro.ir.cfg import BasicBlock, Function, Program
    from repro.ir.instructions import ret
    from repro.ir.regions import BlockRegion
    function = Function(name="f", params=["a", "b"],
                        region=BlockRegion("entry"))
    function.add_block(BasicBlock("entry", list(instrs) + [ret(Reg("r0"))]))
    program = Program()
    program.add_function(function)
    return program


class TestCommonSubexpressionElimination:
    SOURCE = """
    int kernel(int gain) {
        int p = gain / 3 + gain * 5;
        int q = gain / 3 - gain * 5;
        return p + q + gain / 3;
    }
    """

    def test_replaces_repeats_and_preserves_semantics(self, platform):
        program = compile_source(self.SOURCE)
        div_before = sum(i.opcode is Opcode.DIV for i in
                         program.functions["kernel"].iter_instructions())
        expected = Simulator(program.clone(), platform).run(
            "kernel", [17]).return_value
        replaced = eliminate_common_subexpressions(program)
        assert replaced >= 3  # two gain/3 repeats + one gain*5 repeat
        div_after = sum(i.opcode is Opcode.DIV for i in
                        program.functions["kernel"].iter_instructions())
        assert div_after == div_before - 2
        assert Simulator(program, platform).run(
            "kernel", [17]).return_value == expected

    def test_noop_without_repeated_subexpressions(self):
        program = compile_source(
            "int kernel(int g) { return g * 3 + g / 4 - g; }")
        opcodes = [i.opcode for i in
                   program.functions["kernel"].iter_instructions()]
        assert eliminate_common_subexpressions(program) == 0
        assert [i.opcode for i in
                program.functions["kernel"].iter_instructions()] == opcodes

    def test_operand_redefinition_blocks_reuse(self, platform):
        source = """
        int kernel(int a) {
            int b = 3;
            int x = a + b;
            b = b + 1;
            int y = a + b;
            return x + y;
        }
        """
        program = compile_source(source)
        assert eliminate_common_subexpressions(program) == 0
        assert Simulator(program, platform).run(
            "kernel", [10]).return_value == (10 + 3) + (10 + 4)

    def test_holder_redefinition_blocks_reuse(self):
        from repro.ir.instructions import binop, mov
        program = _single_block_function(
            binop(Opcode.MUL, Reg("t"), Reg("a"), Reg("b")),
            mov(Reg("t"), Imm(5)),
            binop(Opcode.MUL, Reg("r0"), Reg("a"), Reg("b")),
        )
        assert eliminate_common_subexpressions(program) == 0
        opcodes = [i.opcode for i in
                   program.functions["f"].iter_instructions()]
        assert opcodes.count(Opcode.MUL) == 2

    def test_commutative_operands_match_canonically(self):
        from repro.ir.instructions import binop
        program = _single_block_function(
            binop(Opcode.ADD, Reg("t1"), Reg("a"), Reg("b")),
            binop(Opcode.ADD, Reg("t2"), Reg("b"), Reg("a")),
            binop(Opcode.SUB, Reg("t3"), Reg("a"), Reg("b")),
            binop(Opcode.SUB, Reg("r0"), Reg("b"), Reg("a")),
        )
        # ADD commutes (t2 reuses t1); SUB does not (t3/r0 both stay).
        assert eliminate_common_subexpressions(program) == 1
        instrs = list(program.functions["f"].iter_instructions())
        assert instrs[1].opcode is Opcode.MOV
        assert instrs[1].srcs == (Reg("t1"),)
        assert instrs[3].opcode is Opcode.SUB

    def test_loads_are_never_merged(self):
        from repro.ir.instructions import load, store
        program = _single_block_function(
            load(Reg("t1"), "data", Imm(0)),
            store("data", Imm(0), Imm(99)),
            load(Reg("r0"), "data", Imm(0)),
        )
        program.global_arrays["data"] = 4
        assert eliminate_common_subexpressions(program) == 0
        opcodes = [i.opcode for i in
                   program.functions["f"].iter_instructions()]
        assert opcodes.count(Opcode.LOAD) == 2

    def test_self_recompute_leaves_copy_for_peephole(self):
        from repro.ir.instructions import binop
        program = _single_block_function(
            binop(Opcode.MUL, Reg("t"), Reg("a"), Reg("b")),
            binop(Opcode.MUL, Reg("t"), Reg("a"), Reg("b")),
            binop(Opcode.ADD, Reg("r0"), Reg("t"), Imm(1)),
        )
        assert eliminate_common_subexpressions(program) == 1
        instrs = list(program.functions["f"].iter_instructions())
        assert instrs[1].opcode is Opcode.MOV
        assert instrs[1].dst == Reg("t") and instrs[1].srcs == (Reg("t"),)
        before = program.functions["f"].instruction_count
        assert peephole_optimize(program) == 1  # the self-copy is deleted
        assert program.functions["f"].instruction_count == before - 1

    def test_copy_on_write_leaves_shared_clone_pristine(self):
        program = compile_source(self.SOURCE)
        shared = program.clone(share_instructions=True)
        reference = [(i.opcode, i.srcs) for i in
                     program.functions["kernel"].iter_instructions()]
        assert eliminate_common_subexpressions(shared) >= 3
        assert [(i.opcode, i.srcs) for i in
                program.functions["kernel"].iter_instructions()] == reference

    def test_interaction_with_dce_and_strength_reduction(self, platform):
        module = parse(SOURCE)
        data = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3]
        expected = _run_reference(6, data)
        config = CompilerConfig.performance().with_(enable_cse=True,
                                                    enable_peephole=True)
        program, stats = build_program(module, config, platform)
        assert "cse_replacements" in stats
        assert "peephole_rewrites" in stats
        assert _simulate(program, platform, 6, data) == expected

    def test_cse_improves_wcet_on_division_heavy_kernel(self, platform):
        module = parse(self.SOURCE)
        base = evaluate_config(module, CompilerConfig.baseline(), platform,
                               "kernel")
        tuned = evaluate_config(
            module, CompilerConfig.baseline().with_(enable_cse=True),
            platform, "kernel")
        assert tuned.pass_statistics["cse_replacements"] >= 3
        assert tuned.wcet_cycles < base.wcet_cycles
        assert tuned.energy_j < base.energy_j
        assert tuned.code_size_bytes == base.code_size_bytes


# ---------------------------------------------------------------------------
# Peephole simplification
# ---------------------------------------------------------------------------
class TestPeephole:
    def test_ir_constant_folding_matches_simulator(self, platform):
        program = compile_source(
            "int kernel(int a) { return 12 * 3 + 7 + a; }")
        expected = Simulator(program.clone(), platform).run(
            "kernel", [5]).return_value
        assert peephole_optimize(program) >= 1
        opcodes = [i.opcode for i in
                   program.functions["kernel"].iter_instructions()]
        assert Opcode.MUL not in opcodes
        assert Simulator(program, platform).run(
            "kernel", [5]).return_value == expected

    def test_wrapping_fold_matches_simulator(self, platform):
        # 65535 * 65535 overflows 32 bits: the fold must wrap like the sim.
        program = compile_source(
            "int kernel(int a) { return 65535 * 65535 + a; }")
        expected = Simulator(program.clone(), platform).run(
            "kernel", [1]).return_value
        assert peephole_optimize(program) >= 1
        assert Simulator(program, platform).run(
            "kernel", [1]).return_value == expected

    def test_same_register_identities(self, platform):
        program = compile_source(
            "int kernel(int a) { return (a - a) + (a == a) + (a & a); }")
        expected = Simulator(program.clone(), platform).run(
            "kernel", [41]).return_value
        assert peephole_optimize(program) >= 3
        opcodes = [i.opcode for i in
                   program.functions["kernel"].iter_instructions()]
        assert Opcode.SUB not in opcodes
        assert Opcode.CMPEQ not in opcodes
        assert Opcode.AND not in opcodes
        assert Simulator(program, platform).run(
            "kernel", [41]).return_value == expected

    def test_division_by_zero_is_not_folded(self):
        from repro.ir.instructions import binop
        program = _single_block_function(
            binop(Opcode.DIV, Reg("r0"), Imm(7), Imm(0)))
        assert peephole_optimize(program) == 0
        assert list(program.functions["f"].iter_instructions())[0].opcode \
            is Opcode.DIV

    def test_select_folding(self):
        from repro.ir.instructions import select
        program = _single_block_function(
            select(Reg("t1"), Imm(1), Reg("a"), Reg("b")),
            select(Reg("t2"), Imm(0), Reg("a"), Reg("b")),
            select(Reg("r0"), Reg("c"), Reg("a"), Reg("a")),
        )
        assert peephole_optimize(program) == 3
        instrs = list(program.functions["f"].iter_instructions())
        assert instrs[0].srcs == (Reg("a"),)
        assert instrs[1].srcs == (Reg("b"),)
        assert instrs[2].srcs == (Reg("a"),)

    def test_unary_immediate_folding(self):
        from repro.ir.instructions import unop
        program = _single_block_function(
            unop(Opcode.NEG, Reg("t1"), Imm(5)),
            unop(Opcode.NOT, Reg("t2"), Imm(0)),
            unop(Opcode.LNOT, Reg("r0"), Imm(3)),
        )
        assert peephole_optimize(program) == 3
        instrs = list(program.functions["f"].iter_instructions())
        assert [i.srcs[0].value for i in instrs[:3]] == [-5, -1, 0]

    def test_nops_survive(self):
        from repro.ir.instructions import nop
        program = _single_block_function(nop("timing pad"))
        assert peephole_optimize(program) == 0
        assert list(program.functions["f"].iter_instructions())[0].opcode \
            is Opcode.NOP

    def test_copy_on_write_leaves_shared_clone_pristine(self):
        program = compile_source(
            "int kernel(int a) { return (a - a) + 12 * 3; }")
        shared = program.clone(share_instructions=True)
        reference = [(i.opcode, i.srcs) for i in
                     program.functions["kernel"].iter_instructions()]
        assert peephole_optimize(shared) >= 2
        assert [(i.opcode, i.srcs) for i in
                program.functions["kernel"].iter_instructions()] == reference


# ---------------------------------------------------------------------------
# Constant folding evaluates with the target's 32-bit semantics
# ---------------------------------------------------------------------------
def _fold_outcome(source, folded, args=()):
    """What simulating ``f`` returns, or ``"trap"`` if it raises."""
    module = parse(source)
    if folded:
        fold_constants(module)
    try:
        return Simulator(lower_module(module), nucleo_stm32f091rc()).run(
            "f", list(args)).return_value
    except SimulationError:
        return "trap"


class TestFoldingMatchesTarget:
    # Each overflows an intermediate that then feeds an operator whose result
    # depends on the wrap: unbounded-integer folding got every one wrong.
    @pytest.mark.parametrize("expression, expected", [
        ("(2147483647 + 1) > 0", 0),
        ("(2147483647 + 1) / 2", -1073741824),
        ("(2147483647 + 1) % 3", -2),
        ("(4294967295 + 1) == 0", 1),
        ("-(0 - 2147483647 - 1) < 0", 1),
    ])
    def test_overflowing_folds_wrap_like_the_simulator(self, expression,
                                                       expected):
        source = f"int f(void) {{ return {expression}; }}"
        assert fold_constants(parse(source)) >= 2
        assert _fold_outcome(source, folded=False) == expected
        assert _fold_outcome(source, folded=True) == expected

    def test_division_by_wrapped_zero_is_not_folded(self):
        # 4294967296 is 0 on the target: the division must still trap.
        source = "int f(void) { return 7 / 4294967296; }"
        assert fold_constants(parse(source)) == 0
        assert _fold_outcome(source, folded=True) == "trap"

    @pytest.mark.parametrize("operand", ["g()", "data[a]", "(a / 0)"])
    def test_multiplying_by_zero_keeps_effects_and_traps(self, operand):
        source = f"""
        int data[2];
        int g(void) {{ data[0] = 7; return 1; }}
        int f(int a) {{
            int r = {operand} * 0;
            r = 0 * {operand};
            return data[0] + r;
        }}
        """
        unfolded = _fold_outcome(source, folded=False, args=[5])
        assert _fold_outcome(source, folded=True, args=[5]) == unfolded
        # A pure operand may still be dropped.
        assert fold_constants(parse(
            "int f(int a) { return (a + 1) * 0; }")) == 1

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_folded_program_computes_what_unfolded_computes(self, data):
        expression = data.draw(_overflow_expressions)
        argument = data.draw(_BOUNDARY_INTS)
        source = f"int f(int a) {{ return {expression}; }}"
        assert (_fold_outcome(source, folded=True, args=[argument])
                == _fold_outcome(source, folded=False, args=[argument]))


#: Constants around the 32-bit boundaries, where unbounded folding diverges.
_BOUNDARY_INTS = st.one_of(
    st.sampled_from([0, 1, 2, 3, 31, 32, 33]),
    st.integers(-3, 3).map(lambda d: 2 ** 31 + d),
    st.integers(-3, 3).map(lambda d: 2 ** 32 + d),
    st.integers(-3, 3).map(lambda d: -(2 ** 31) + d),
    st.integers(-(2 ** 33), 2 ** 33),
)

#: Every operator constant folding handles (all binary ones lower to IR).
_FOLDABLE_OPERATORS = ("+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
                       "<", "<=", ">", ">=", "==", "!=", "&&", "||")


def _literal(value):
    return str(value) if value >= 0 else f"(-{-value})"


_overflow_expressions = st.recursive(
    st.one_of(_BOUNDARY_INTS.map(_literal), st.just("a")),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(_FOLDABLE_OPERATORS), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from("-~!"), inner).map(
            lambda t: f"({t[0]}{t[1]})")),
    max_leaves=6)


# ---------------------------------------------------------------------------
# Differential check: the parent's deep-clone unroller and in-place folder
# and inliner, kept as test-only oracles for the by-reference unroller and
# the copy-on-write folder and inliner.
# ---------------------------------------------------------------------------
_ORACLE_FOLDABLE_BINARY = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: _oracle_c_div(a, b),
    "%": lambda a, b: a - _oracle_c_div(a, b) * b,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": lambda a, b: a << (b & 31),
    ">>": lambda a, b: (a & 0xFFFFFFFF) >> (b & 31),
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "&&": lambda a, b: int(bool(a) and bool(b)),
    "||": lambda a, b: int(bool(a) or bool(b)),
}


def _oracle_c_div(a, b):
    if b == 0:
        raise ZeroDivisionError("constant division by zero")
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def _oracle_fold_expr(expr, counter):
    if isinstance(expr, (ast.Num, ast.Var)):
        return expr
    if isinstance(expr, ast.Index):
        expr.index = _oracle_fold_expr(expr.index, counter)
        return expr
    if isinstance(expr, ast.Call):
        expr.args = [_oracle_fold_expr(arg, counter) for arg in expr.args]
        return expr
    if isinstance(expr, ast.Unary):
        expr.operand = _oracle_fold_expr(expr.operand, counter)
        if isinstance(expr.operand, ast.Num):
            value = expr.operand.value
            counter[0] += 1
            if expr.op == "-":
                return ast.Num(-value, expr.line)
            if expr.op == "~":
                return ast.Num(~value, expr.line)
            if expr.op == "!":
                return ast.Num(int(value == 0), expr.line)
        return expr
    if isinstance(expr, ast.Binary):
        expr.lhs = _oracle_fold_expr(expr.lhs, counter)
        expr.rhs = _oracle_fold_expr(expr.rhs, counter)
        if isinstance(expr.lhs, ast.Num) and isinstance(expr.rhs, ast.Num):
            try:
                value = _ORACLE_FOLDABLE_BINARY[expr.op](expr.lhs.value,
                                                         expr.rhs.value)
            except ZeroDivisionError:
                return expr
            counter[0] += 1
            return ast.Num(value, expr.line)
        if isinstance(expr.rhs, ast.Num):
            if expr.op in ("+", "-", "|", "^", "<<", ">>") \
                    and expr.rhs.value == 0:
                counter[0] += 1
                return expr.lhs
            if expr.op == "*" and expr.rhs.value == 1:
                counter[0] += 1
                return expr.lhs
            if expr.op == "*" and expr.rhs.value == 0:
                counter[0] += 1
                return ast.Num(0, expr.line)
            if expr.op == "/" and expr.rhs.value == 1:
                counter[0] += 1
                return expr.lhs
        if isinstance(expr.lhs, ast.Num):
            if expr.op in ("+", "|", "^") and expr.lhs.value == 0:
                counter[0] += 1
                return expr.rhs
            if expr.op == "*" and expr.lhs.value == 1:
                counter[0] += 1
                return expr.rhs
            if expr.op == "*" and expr.lhs.value == 0:
                counter[0] += 1
                return ast.Num(0, expr.line)
        return expr
    raise TypeError(f"unknown expression {type(expr)!r}")


def _oracle_fold_stmt(stmt, counter):
    if isinstance(stmt, ast.VarDecl) and stmt.init is not None:
        stmt.init = _oracle_fold_expr(stmt.init, counter)
    elif isinstance(stmt, ast.Assign):
        stmt.value = _oracle_fold_expr(stmt.value, counter)
        if isinstance(stmt.target, ast.Index):
            stmt.target.index = _oracle_fold_expr(stmt.target.index, counter)
    elif isinstance(stmt, ast.If):
        stmt.cond = _oracle_fold_expr(stmt.cond, counter)
        for child in stmt.then_body + stmt.else_body:
            _oracle_fold_stmt(child, counter)
    elif isinstance(stmt, ast.While):
        stmt.cond = _oracle_fold_expr(stmt.cond, counter)
        for child in stmt.body:
            _oracle_fold_stmt(child, counter)
    elif isinstance(stmt, ast.For):
        if stmt.init is not None:
            _oracle_fold_stmt(stmt.init, counter)
        if stmt.cond is not None:
            stmt.cond = _oracle_fold_expr(stmt.cond, counter)
        if stmt.update is not None:
            _oracle_fold_stmt(stmt.update, counter)
        for child in stmt.body:
            _oracle_fold_stmt(child, counter)
    elif isinstance(stmt, ast.Return) and stmt.value is not None:
        stmt.value = _oracle_fold_expr(stmt.value, counter)
    elif isinstance(stmt, ast.ExprStmt):
        stmt.expr = _oracle_fold_expr(stmt.expr, counter)


def _oracle_unroll_body(body, limit, counter):
    result = []
    for stmt in body:
        if isinstance(stmt, ast.If):
            stmt.then_body = _oracle_unroll_body(stmt.then_body, limit,
                                                 counter)
            stmt.else_body = _oracle_unroll_body(stmt.else_body, limit,
                                                 counter)
            result.append(stmt)
            continue
        if isinstance(stmt, ast.While):
            stmt.body = _oracle_unroll_body(stmt.body, limit, counter)
            result.append(stmt)
            continue
        if isinstance(stmt, ast.For):
            stmt.body = _oracle_unroll_body(stmt.body, limit, counter)
            bound = (stmt.bound if stmt.bound is not None
                     else infer_for_bound(stmt))
            static_bound = infer_for_bound(stmt)
            if static_bound is not None and static_bound == bound \
                    and 0 < bound <= limit:
                counter[0] += 1
                if stmt.init is not None:
                    result.append(stmt.init)
                for _ in range(bound):
                    result.extend(ast.clone_stmt(s) for s in stmt.body)
                    if stmt.update is not None:
                        result.append(ast.clone_stmt(stmt.update))
                continue
            result.append(stmt)
            continue
        result.append(stmt)
    return result


def _oracle_inline_expr(expr, inlinable, counter):
    if isinstance(expr, (ast.Num, ast.Var)):
        return expr
    if isinstance(expr, ast.Index):
        expr.index = _oracle_inline_expr(expr.index, inlinable, counter)
        return expr
    if isinstance(expr, ast.Unary):
        expr.operand = _oracle_inline_expr(expr.operand, inlinable, counter)
        return expr
    if isinstance(expr, ast.Binary):
        expr.lhs = _oracle_inline_expr(expr.lhs, inlinable, counter)
        expr.rhs = _oracle_inline_expr(expr.rhs, inlinable, counter)
        return expr
    if isinstance(expr, ast.Call):
        expr.args = [_oracle_inline_expr(arg, inlinable, counter)
                     for arg in expr.args]
        callee = inlinable.get(expr.name)
        if callee is not None and len(expr.args) == len(callee.params):
            body_expr = _simple_function_expression(callee)
            if body_expr is not None:
                counter[0] += 1
                return _substitute(body_expr,
                                   dict(zip(callee.params, expr.args)))
        return expr
    raise TypeError(f"unknown expression {type(expr)!r}")


def _oracle_inline(module):
    inlinable = {fn.name: fn for fn in module.functions
                 if _simple_function_expression(fn) is not None}
    counter = [0]
    for function in module.functions:
        for stmt in ast.walk_stmts(function.body):
            if isinstance(stmt, ast.VarDecl) and stmt.init is not None:
                stmt.init = _oracle_inline_expr(stmt.init, inlinable, counter)
            elif isinstance(stmt, ast.Assign):
                stmt.value = _oracle_inline_expr(stmt.value, inlinable,
                                                 counter)
                if isinstance(stmt.target, ast.Index):
                    stmt.target.index = _oracle_inline_expr(
                        stmt.target.index, inlinable, counter)
            elif isinstance(stmt, (ast.If, ast.While)):
                stmt.cond = _oracle_inline_expr(stmt.cond, inlinable, counter)
            elif isinstance(stmt, ast.For) and stmt.cond is not None:
                stmt.cond = _oracle_inline_expr(stmt.cond, inlinable, counter)
            elif isinstance(stmt, ast.Return) and stmt.value is not None:
                stmt.value = _oracle_inline_expr(stmt.value, inlinable,
                                                 counter)
            elif isinstance(stmt, ast.ExprStmt):
                stmt.expr = _oracle_inline_expr(stmt.expr, inlinable, counter)
    return counter[0]


def _oracle_fold_pass(ctx):
    counter = [0]
    for function in ctx.module.functions:
        for stmt in function.body:
            _oracle_fold_stmt(stmt, counter)
    ctx.statistics["constant_folds"] = (
        ctx.statistics.get("constant_folds", 0) + counter[0])


def _oracle_inline_pass(ctx):
    ctx.statistics["inlined_calls"] = _oracle_inline(ctx.module)


def _oracle_unroll_pass(ctx):
    counter = [0]
    if ctx.config.unroll_limit > 0:
        for function in ctx.module.functions:
            function.body = _oracle_unroll_body(
                function.body, ctx.config.unroll_limit, counter)
    ctx.statistics["unrolled_loops"] = counter[0]


_ORACLE_PASSES = {"constant-folding": _oracle_fold_pass,
                  "inline-simple-functions": _oracle_inline_pass,
                  "unroll-loops": _oracle_unroll_pass}


def _oracle_pipeline(platform):
    return CompilationPipeline(platform, PassManager(
        dataclasses.replace(p, apply=_ORACLE_PASSES[p.name])
        if p.name in _ORACLE_PASSES else p
        for p in default_compile_passes()))


def _build_signature(pipeline, module, config):
    """Fingerprint digest, size, statistics and full listing of a build."""
    program, statistics = pipeline.build(module, config)
    listing = [(name, label, i.opcode, i.dst, i.srcs, i.array,
                i.true_target, i.false_target, i.callee, i.args)
               for name, function in program.functions.items()
               for label, block in function.blocks.items()
               for i in block.instrs]
    return (program_fingerprint(program).digest(),
            program.total_instructions, statistics, listing)


def _assert_matches_oracle(source, platform, configs):
    pipeline = CompilationPipeline(platform)
    oracle = _oracle_pipeline(platform)
    module = parse(source)
    for config in configs:
        assert (_build_signature(pipeline, module, config)
                == _build_signature(oracle, module, config)), config


def _ast_pass_configs(unrolls=UNROLL_CHOICES, hardening=(False, True)):
    return [CompilerConfig(unroll_limit=unroll, constant_folding=folding,
                           inline_simple_functions=inlining,
                           harden_security=hardened)
            for unroll, folding, inlining, hardened in itertools.product(
                unrolls, (False, True), (False, True), hardening)]


class TestAstPassesMatchOracle:
    @pytest.mark.parametrize("scenario", sorted(
        spec.name for spec in list_scenarios() if spec.kind == "predictable"))
    def test_registered_scenarios_build_bit_identically(self, scenario):
        spec = get_scenario(scenario)
        _assert_matches_oracle(spec.source, spec.make_platform(),
                               _ast_pass_configs())

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_generated_programs_build_bit_identically(self, data):
        source = data.draw(_LOOP_PROGRAMS)
        # Trip counts are at most 6: limits 4 and 8 cover none, some and all
        # loops unrolled (16 and 32 would build exactly what 8 builds).
        _assert_matches_oracle(source, nucleo_stm32f091rc(),
                               _ast_pass_configs(unrolls=(0, 4, 8),
                                                 hardening=(False,)))

    def test_unrolled_copies_are_the_same_statements(self):
        module = parse("""
        int f(int a) {
            int acc = 0;
            for (int i = 0; i < 3; i = i + 1) { acc = acc + a; a = a * 2; }
            return acc;
        }""")
        infer_loop_bounds(module)
        assert unroll_loops(module, limit=4) == 1
        body = module.function("f").body
        # acc decl, loop init, then 3 x (two body statements + update).
        copies = [body[2 + 3 * k: 5 + 3 * k] for k in range(3)]
        for copy in copies[1:]:
            assert all(a is b for a, b in zip(copy, copies[0]))

    def test_folding_a_shared_statement_is_copy_on_write(self):
        module = parse("""
        int f(int a) {
            int acc = 0;
            for (int i = 0; i < 4; i = i + 1) { acc = acc + 2 * 3; }
            return acc;
        }""")
        infer_loop_bounds(module)
        unroll_loops(module, limit=4)
        body = module.function("f").body
        shared = body[2]
        assert [s is shared for s in body[2:10:2]] == [True] * 4
        # Counted once per occurrence, as on the equivalent tree...
        assert fold_constants(module) == 4
        # ...while the shared node itself is left as it was.
        assert isinstance(shared.value.rhs, ast.Binary)
        folded = module.function("f").body
        assert all(s is not shared for s in folded)
        assert [s.value.rhs.value for s in folded[2:10:2]] == [6] * 4


def _loop_programs():
    """TeamPlay-C kernels with nested counted loops, ``if``s inside loop
    bodies and calls to inlinable functions with constant arguments.

    Constants stay small, so no fold overflows 32 bits, and ``*`` only
    combines call-free, load-free and division-free operands: those are
    the two places where this module's folder deliberately differs from
    the oracle (pinned by ``TestFoldingMatchesTarget``).
    """
    constant = st.integers(0, 9).map(str)

    def binary(inner, operators):
        return st.tuples(inner, st.sampled_from(operators), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})")

    def statements(depth):
        names = ["a", "acc"] + list("ij"[:depth])
        pure = st.recursive(
            st.one_of(constant, st.sampled_from(names)),
            lambda inner: binary(inner, ["+", "-", "*", "&", "|", "^", "<",
                                         "<=", "==", "!=", "&&", "||"]),
            max_leaves=4)
        call = st.one_of(constant.map(lambda c: f"g({c})"),
                         st.tuples(constant, pure).map(
                             lambda t: f"h({t[0]}, {t[1]})"))
        expression = st.recursive(
            st.one_of(pure, call, st.just("data[a & 7]")),
            lambda inner: binary(inner, ["+", "-", "/", "%", "<", "==",
                                         "&&", "||"]),
            max_leaves=4)
        kinds = [
            expression.map(lambda e: f"acc = acc + {e};"),
            expression.map(lambda e: f"data[3] = {e};"),
            st.tuples(expression, expression).map(
                lambda t: f"if ({t[0]}) {{ acc = {t[1]}; }} "
                          f"else {{ acc = acc - 1; }}")]
        if depth < 2:
            kinds.append(loops[depth])
        return st.one_of(kinds)

    def loop(depth):
        var = "ij"[depth]
        return st.tuples(
            st.integers(1, 6),
            st.lists(st.deferred(lambda: body[depth + 1]),
                     min_size=1, max_size=3)).map(
            lambda t: f"for (int {var} = 0; {var} < {t[0]}; "
                      f"{var} = {var} + 1) {{ {' '.join(t[1])} }}")

    loops = [loop(0), loop(1)]
    body = [statements(depth) for depth in range(3)]
    return st.tuples(st.lists(body[0], max_size=2), loops[0]).map(
        lambda t: (
            "int data[8];\n"
            "int g(int x) { return x * 3 + 1; }\n"
            "int h(int x, int y) { return x - y * 2; }\n"
            "int kernel(int a) {\n    int acc = 1;\n    "
            + "\n    ".join(t[0] + [t[1]]) + "\n    return acc;\n}\n"))


_LOOP_PROGRAMS = _loop_programs()
