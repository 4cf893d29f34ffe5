"""Recursive-descent parser for TeamPlay-C over an indexed token cursor.

The parser runs on the :class:`~repro.frontend.lexer.TokenStream` fast path:
three parallel arrays (interned integer kind ids, value strings, line
numbers) and an integer cursor.  Every ``check``/``accept``/``expect`` the
old Token-object parser spent on string comparison and attribute access is
an integer comparison against module-level id constants; operator
precedence and assignment-operator membership are flat tuples indexed by
kind id; pragma headers parse through a process-wide memo
(:func:`~repro.frontend.pragmas.parse_pragma_cached`) so repeated
directives cost one dict hit.  Columns are not tracked in the hot path —
error reporting (the only consumer) materialises the exact compatibility
token on demand, and errors *at end of input* report the last real token's
position rather than the synthetic EOF token's.

The seed parser is retained verbatim as :class:`_ReferenceParser` (over
:func:`~repro.frontend.lexer.tokenize`'s Token list): the hypothesis
property tests cross-check both parsers for AST equality over generated
programs, and the frontend benchmarks use it as the honest "old call path"
baseline.

On top sits a process-wide parse cache (:class:`ParseCache`, same LRU +
``stats()`` convention as the engine caches) keyed by the source text's
fingerprint — the string's cached hash makes repeat lookups O(1) — plus
the pipeline's frontend-stage identity, so registering a custom frontend
pass widens the key automatically per the PR 4 contract.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.errors import FrontendError
from repro.frontend import ast_nodes as ast
from repro.frontend.lexer import (
    K_EOF,
    K_ID,
    K_NUM,
    K_PRAGMA,
    KEYWORD_IDS,
    KIND_NAMES,
    KIND_TEXTS,
    OP_IDS,
    Token,
    TokenStream,
    scan,
    tokenize,
)
from repro.frontend.pragmas import parse_pragma, parse_pragma_cached

#: Binary operator precedence, higher binds tighter.
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

# -- kind-id constants and dispatch tables ----------------------------------
_KW_INT = KEYWORD_IDS["int"]
_KW_VOID = KEYWORD_IDS["void"]
_KW_IF = KEYWORD_IDS["if"]
_KW_ELSE = KEYWORD_IDS["else"]
_KW_WHILE = KEYWORD_IDS["while"]
_KW_FOR = KEYWORD_IDS["for"]
_KW_RETURN = KEYWORD_IDS["return"]

_OP_LPAREN = OP_IDS["("]
_OP_RPAREN = OP_IDS[")"]
_OP_LBRACE = OP_IDS["{"]
_OP_RBRACE = OP_IDS["}"]
_OP_LBRACKET = OP_IDS["["]
_OP_RBRACKET = OP_IDS["]"]
_OP_SEMICOLON = OP_IDS[";"]
_OP_COMMA = OP_IDS[","]
_OP_ASSIGN = OP_IDS["="]
_OP_MINUS = OP_IDS["-"]
_OP_PLUS = OP_IDS["+"]
_OP_BANG = OP_IDS["!"]
_OP_TILDE = OP_IDS["~"]

_N_KINDS = len(KIND_NAMES)

#: kind id -> binary precedence (0 = not a binary operator).  Indexed in
#: the expression hot loop; ``min_precedence`` is always >= 1, so the
#: non-operator case needs no extra branch.
_PREC_BY_ID: Tuple[int, ...] = tuple(
    _PRECEDENCE.get(KIND_TEXTS[kid] or "", 0) for kid in range(_N_KINDS))

#: kind id -> is an assignment operator.
_IS_ASSIGN: Tuple[bool, ...] = tuple(
    (KIND_TEXTS[kid] or "") in _ASSIGN_OPS for kid in range(_N_KINDS))

#: Shared read-only empty pragma dict for statements with no pragmas.
_NO_PRAGMAS: Dict[str, object] = {}

#: Memo for numeric-literal conversion: real programs repeat a handful of
#: constants, and ``int(text, 0)`` (prefix handling) costs several times a
#: dict hit.  Failures (e.g. a bare ``"0x"``) are never cached.
_INT_CACHE: Dict[str, int] = {}


def _malformed_literal(text: str) -> str:
    return f"malformed integer literal {text!r}"


def _token_int(token: Token) -> int:
    """The reference parser's literal conversion, positioned on failure."""
    try:
        return int(token.value, 0)
    except ValueError:
        raise FrontendError(_malformed_literal(token.value), token.line,
                            token.column) from None


class _Parser:
    """The token-cursor parser (see the module docstring)."""

    __slots__ = ("stream", "kinds", "values", "lines", "pos", "source_name")

    def __init__(self, stream: TokenStream, source_name: str):
        self.stream = stream
        self.kinds = stream.kinds
        self.values = stream.values
        self.lines = stream.lines
        self.pos = 0
        self.source_name = source_name

    # -- error helpers ------------------------------------------------------
    def _positioned(self, index: int, message: str) -> FrontendError:
        """An error at token ``index``, with exact line *and* column.

        End-of-input errors report the last real token's position — the
        synthetic EOF token sits one line past a trailing newline, which
        pointed users at an empty line.
        """
        if self.kinds[index] == K_EOF and index > 0:
            index -= 1
        token = self.stream.token(index)
        return FrontendError(message, token.line, token.column)

    def _fail_expect(self, kind_id: int):
        expected = KIND_TEXTS[kind_id] or KIND_NAMES[kind_id]
        pos = self.pos
        found = self.values[pos] or KIND_NAMES[self.kinds[pos]]
        raise self._positioned(
            pos, f"expected {expected!r} but found {found!r}")

    def error(self, message: str) -> FrontendError:
        return self._positioned(self.pos, message)

    def _number(self, index: int) -> int:
        """Value of the NUM token at ``index``.

        The scanner accepts any digit run, so literals such as ``01`` (C
        octal syntax, rejected here) or a bare ``0x`` only fail at
        conversion, as a positioned error.
        """
        text = self.values[index]
        value = _INT_CACHE.get(text)
        if value is None:
            try:
                value = int(text, 0)
            except ValueError:
                raise self._positioned(index,
                                       _malformed_literal(text)) from None
            if len(_INT_CACHE) >= 4096:
                _INT_CACHE.clear()
            _INT_CACHE[text] = value
        return value

    # -- token helpers ------------------------------------------------------
    def _expect(self, kind_id: int) -> int:
        """Consume a token of ``kind_id`` and return its index."""
        pos = self.pos
        if self.kinds[pos] == kind_id:
            self.pos = pos + 1
            return pos
        self._fail_expect(kind_id)

    def _accept(self, kind_id: int) -> bool:
        if self.kinds[self.pos] == kind_id:
            self.pos += 1
            return True
        return False

    # -- module -------------------------------------------------------------
    def parse_module(self) -> ast.SourceModule:
        module = ast.SourceModule(source_name=self.source_name)
        functions = module.functions
        globals_ = module.globals
        kinds = self.kinds
        pending_pragmas: Dict[str, object] = {}
        while True:
            kind = kinds[self.pos]
            if kind == _KW_INT or kind == _KW_VOID:
                decl = self._parse_top_level(pending_pragmas)
                pending_pragmas = {}
                if decl.__class__ is ast.FunctionDef:
                    functions.append(decl)
                else:
                    globals_.append(decl)
            elif kind == K_PRAGMA:
                pos = self.pos
                pending_pragmas.update(
                    parse_pragma_cached(self.values[pos], self.lines[pos]))
                self.pos = pos + 1
            elif kind == K_EOF:
                break
            else:
                raise self.error("expected a declaration")
        return module

    def _parse_top_level(self, pragmas: Dict[str, object]):
        type_index = self.pos  # 'int' or 'void'
        self.pos = type_index + 1
        name_index = self._expect(K_ID)
        if self.kinds[self.pos] == _OP_LPAREN:
            return self._parse_function(name_index, pragmas)
        if self.kinds[type_index] == _KW_VOID:
            raise self._positioned(type_index,
                                   "global variables must have type int")
        return self._parse_global_array(name_index)

    def _parse_global_array(self, name_index: int) -> ast.GlobalArray:
        self._expect(_OP_LBRACKET)
        size_index = self._expect(K_NUM)
        self._expect(_OP_RBRACKET)
        size = self._number(size_index)
        if size <= 0:
            raise self._positioned(size_index, "array size must be positive")
        init: Optional[List[int]] = None
        if self._accept(_OP_ASSIGN):
            self._expect(_OP_LBRACE)
            init = []
            while self.kinds[self.pos] != _OP_RBRACE:
                negative = self._accept(_OP_MINUS)
                value = self._number(self._expect(K_NUM))
                init.append(-value if negative else value)
                if not self._accept(_OP_COMMA):
                    break
            self._expect(_OP_RBRACE)
            if len(init) > size:
                name = self.values[name_index]
                raise self._positioned(
                    name_index,
                    f"initialiser for {name!r} has {len(init)} "
                    f"elements but the array holds {size}")
        self._expect(_OP_SEMICOLON)
        return ast.GlobalArray(self.values[name_index], size, init,
                               self.lines[name_index])

    def _parse_function(self, name_index: int,
                        pragmas: Dict[str, object]) -> ast.FunctionDef:
        self._expect(_OP_LPAREN)
        params: List[str] = []
        if self._accept(_KW_VOID):
            pass
        elif self.kinds[self.pos] != _OP_RPAREN:
            while True:
                self._expect(_KW_INT)
                params.append(self.values[self._expect(K_ID)])
                if not self._accept(_OP_COMMA):
                    break
        self._expect(_OP_RPAREN)
        self._expect(_OP_LBRACE)
        body = self._parse_statements_until_brace()
        return ast.FunctionDef(self.values[name_index], params, body,
                               dict(pragmas), self.lines[name_index])

    # -- statements ----------------------------------------------------------
    def _parse_statements_until_brace(self) -> List[ast.Stmt]:
        stmts: List[ast.Stmt] = []
        append = stmts.append
        kinds = self.kinds
        while kinds[self.pos] != _OP_RBRACE:
            if kinds[self.pos] == K_EOF:
                raise self.error("unexpected end of file inside a block")
            append(self._parse_statement())
        self.pos += 1  # consume '}'
        return stmts

    def _parse_block(self) -> List[ast.Stmt]:
        if self._accept(_OP_LBRACE):
            return self._parse_statements_until_brace()
        return [self._parse_statement()]

    def _parse_statement(self) -> ast.Stmt:
        kinds = self.kinds
        kind = kinds[self.pos]
        if kind == K_PRAGMA:
            pragmas: Dict[str, object] = {}
            while kinds[self.pos] == K_PRAGMA:
                pos = self.pos
                pragmas.update(
                    parse_pragma_cached(self.values[pos], self.lines[pos]))
                self.pos = pos + 1
            kind = kinds[self.pos]
        else:
            pragmas = _NO_PRAGMAS

        if kind == _KW_INT:
            return self._parse_vardecl()
        if kind == _KW_IF:
            return self._parse_if()
        if kind == _KW_WHILE:
            return self._parse_while(pragmas)
        if kind == _KW_FOR:
            return self._parse_for(pragmas)
        if kind == _KW_RETURN:
            return self._parse_return()
        return self._parse_expression_statement()

    def _parse_vardecl(self) -> ast.VarDecl:
        self._expect(_KW_INT)
        name_index = self._expect(K_ID)
        if self._accept(_OP_LBRACKET):
            size_index = self._expect(K_NUM)
            self._expect(_OP_RBRACKET)
            self._expect(_OP_SEMICOLON)
            size = self._number(size_index)
            if size <= 0:
                raise self._positioned(size_index,
                                       "array size must be positive")
            return ast.VarDecl(self.values[name_index], array_size=size,
                               line=self.lines[name_index])
        init = None
        if self._accept(_OP_ASSIGN):
            init = self._parse_expression()
        self._expect(_OP_SEMICOLON)
        return ast.VarDecl(self.values[name_index], init=init,
                           line=self.lines[name_index])

    def _parse_if(self) -> ast.If:
        line = self.lines[self._expect(_KW_IF)]
        self._expect(_OP_LPAREN)
        cond = self._parse_expression()
        self._expect(_OP_RPAREN)
        then_body = self._parse_block()
        else_body: List[ast.Stmt] = []
        if self._accept(_KW_ELSE):
            if self.kinds[self.pos] == _KW_IF:
                else_body = [self._parse_if()]
            else:
                else_body = self._parse_block()
        return ast.If(cond, then_body, else_body, line)

    def _parse_while(self, pragmas: Dict[str, object]) -> ast.While:
        line = self.lines[self._expect(_KW_WHILE)]
        self._expect(_OP_LPAREN)
        cond = self._parse_expression()
        self._expect(_OP_RPAREN)
        body = self._parse_block()
        return ast.While(cond, body, pragmas.get("loopbound"), line)

    def _parse_for(self, pragmas: Dict[str, object]) -> ast.For:
        line = self.lines[self._expect(_KW_FOR)]
        self._expect(_OP_LPAREN)
        init: Optional[ast.Stmt] = None
        if self.kinds[self.pos] != _OP_SEMICOLON:
            if self.kinds[self.pos] == _KW_INT:
                self.pos += 1
                name_index = self._expect(K_ID)
                self._expect(_OP_ASSIGN)
                init_expr = self._parse_expression()
                init = ast.VarDecl(self.values[name_index], init=init_expr,
                                   line=self.lines[name_index])
            else:
                init = self._parse_simple_assignment()
        self._expect(_OP_SEMICOLON)
        cond: Optional[ast.Expr] = None
        if self.kinds[self.pos] != _OP_SEMICOLON:
            cond = self._parse_expression()
        self._expect(_OP_SEMICOLON)
        update: Optional[ast.Stmt] = None
        if self.kinds[self.pos] != _OP_RPAREN:
            update = self._parse_simple_assignment()
        self._expect(_OP_RPAREN)
        body = self._parse_block()
        return ast.For(init, cond, update, body, pragmas.get("loopbound"),
                       line)

    def _parse_simple_assignment(self) -> ast.Stmt:
        expr = self._parse_expression()
        pos = self.pos
        kind = self.kinds[pos]
        if _IS_ASSIGN[kind]:
            self.pos = pos + 1
            value = self._parse_expression()
            if not isinstance(expr, (ast.Var, ast.Index)):
                raise self._positioned(
                    pos, "assignment target must be a variable or "
                         "array element")
            return ast.Assign(expr, KIND_TEXTS[kind], value, self.lines[pos])
        return ast.ExprStmt(expr, self.lines[pos])

    def _parse_return(self) -> ast.Return:
        line = self.lines[self._expect(_KW_RETURN)]
        value = None
        if self.kinds[self.pos] != _OP_SEMICOLON:
            value = self._parse_expression()
        self._expect(_OP_SEMICOLON)
        return ast.Return(value, line)

    def _parse_expression_statement(self) -> ast.Stmt:
        stmt = self._parse_simple_assignment()
        self._expect(_OP_SEMICOLON)
        return stmt

    # -- expressions ---------------------------------------------------------
    def _parse_expression(self, min_precedence: int = 1) -> ast.Expr:
        # Iterative operator-precedence loop: the classic recursive
        # precedence climb costs a Python frame per binary operator; here a
        # pending-operator stack reduces whenever the incoming operator
        # binds no tighter than the stack top (all TeamPlay-C binary
        # operators are left-associative), producing the identical tree.
        # The single-operand case — the overwhelming majority — returns
        # after one table probe without touching the stacks.
        unary = self._parse_unary
        kinds = self.kinds
        precedence_of = _PREC_BY_ID
        lhs = unary()
        kind = kinds[self.pos]
        precedence = precedence_of[kind]
        if precedence < min_precedence:
            return lhs
        lines = self.lines
        pending: List[Tuple[int, int, int]] = []  # (precedence, kind, line)
        operands = [lhs]
        while True:
            while pending and pending[-1][0] >= precedence:
                _, top_kind, top_line = pending.pop()
                rhs = operands.pop()
                operands[-1] = ast.Binary(KIND_TEXTS[top_kind], operands[-1],
                                          rhs, top_line)
            pos = self.pos
            pending.append((precedence, kind, lines[pos]))
            self.pos = pos + 1
            operands.append(unary())
            kind = kinds[self.pos]
            precedence = precedence_of[kind]
            if precedence < min_precedence:
                break
        while pending:
            _, top_kind, top_line = pending.pop()
            rhs = operands.pop()
            operands[-1] = ast.Binary(KIND_TEXTS[top_kind], operands[-1],
                                      rhs, top_line)
        return operands[0]

    def _parse_unary(self) -> ast.Expr:
        # Primary parsing is merged in (one call level per operand saved);
        # the identifier/number cases lead because they dominate real
        # programs, and the trailing ``(``/``[`` checks are inlined rather
        # than routed through ``_accept``.
        pos = self.pos
        kinds = self.kinds
        kind = kinds[pos]
        if kind == K_ID:
            name = self.values[pos]
            line = self.lines[pos]
            pos += 1
            following = kinds[pos]
            if following == _OP_LPAREN:
                self.pos = pos + 1
                args: List[ast.Expr] = []
                if kinds[self.pos] != _OP_RPAREN:
                    while True:
                        args.append(self._parse_expression())
                        if kinds[self.pos] != _OP_COMMA:
                            break
                        self.pos += 1
                if kinds[self.pos] != _OP_RPAREN:
                    self._fail_expect(_OP_RPAREN)
                self.pos += 1
                return ast.Call(name, args, line)
            if following == _OP_LBRACKET:
                self.pos = pos + 1
                index = self._parse_expression()
                if kinds[self.pos] != _OP_RBRACKET:
                    self._fail_expect(_OP_RBRACKET)
                self.pos += 1
                return ast.Index(name, index, line)
            self.pos = pos
            return ast.Var(name, line)
        if kind == K_NUM:
            self.pos = pos + 1
            return ast.Num(self._number(pos), self.lines[pos])
        if kind == _OP_MINUS or kind == _OP_BANG or kind == _OP_TILDE:
            line = self.lines[pos]
            self.pos = pos + 1
            operand = self._parse_unary()
            if kind == _OP_MINUS and operand.__class__ is ast.Num:
                return ast.Num(-operand.value, line)
            return ast.Unary(KIND_TEXTS[kind], operand, line)
        if kind == _OP_LPAREN:
            self.pos = pos + 1
            expr = self._parse_expression()
            self._expect(_OP_RPAREN)
            return expr
        if kind == _OP_PLUS:
            self.pos = pos + 1
            return self._parse_unary()
        found = self.values[pos] or KIND_NAMES[kind]
        raise self.error(f"unexpected token {found!r} in expression")


# ---------------------------------------------------------------------------
# Reference parser (the seed implementation, retained verbatim)
# ---------------------------------------------------------------------------
class _ReferenceParser:
    """The seed Token-object parser, kept as the parity/benchmark baseline.

    The hypothesis property tests assert this parser and the cursor parser
    produce equal ASTs over generated TeamPlay-C programs, and the frontend
    benchmarks use it (after the seed character-loop lexer) as the honest
    "old call path".  The only change from the seed is dropping the
    redundant ``min()`` clamp in :meth:`peek` — ``advance`` never moves
    past the EOF sentinel, so the cursor cannot leave the token list.
    """

    def __init__(self, tokens: List[Token], source_name: str):
        self.tokens = tokens
        self.pos = 0
        self.source_name = source_name

    # -- token helpers ------------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "EOF":
            self.pos += 1
        return token

    def check(self, kind: str, value: Optional[str] = None) -> bool:
        token = self.peek()
        if token.kind != kind:
            return False
        return value is None or token.value == value

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        if self.check(kind, value):
            return self.advance()
        return None

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        if self.check(kind, value):
            return self.advance()
        token = self.peek()
        expected = value if value is not None else kind
        raise FrontendError(
            f"expected {expected!r} but found {token.value or token.kind!r}",
            token.line, token.column)

    def error(self, message: str) -> FrontendError:
        token = self.peek()
        return FrontendError(message, token.line, token.column)

    # -- module -----------------------------------------------------------------
    def parse_module(self) -> ast.SourceModule:
        module = ast.SourceModule(source_name=self.source_name)
        pending_pragmas: Dict[str, object] = {}
        while not self.check("EOF"):
            if self.check("PRAGMA"):
                token = self.advance()
                pending_pragmas.update(parse_pragma(token.value, token.line))
                continue
            if self.check("KEYWORD", "int") or self.check("KEYWORD", "void"):
                decl = self._parse_top_level(pending_pragmas)
                pending_pragmas = {}
                if isinstance(decl, ast.FunctionDef):
                    module.functions.append(decl)
                else:
                    module.globals.append(decl)
                continue
            raise self.error("expected a declaration")
        return module

    def _parse_top_level(self, pragmas: Dict[str, object]):
        type_token = self.advance()  # 'int' or 'void'
        name_token = self.expect("ID")
        if self.check("OP", "("):
            return self._parse_function(type_token, name_token, pragmas)
        if type_token.value == "void":
            raise FrontendError("global variables must have type int",
                                type_token.line, type_token.column)
        return self._parse_global_array(name_token)

    def _parse_global_array(self, name_token: Token) -> ast.GlobalArray:
        self.expect("OP", "[")
        size_token = self.expect("NUM")
        self.expect("OP", "]")
        size = _token_int(size_token)
        if size <= 0:
            raise FrontendError("array size must be positive",
                                size_token.line, size_token.column)
        init: Optional[List[int]] = None
        if self.accept("OP", "="):
            self.expect("OP", "{")
            init = []
            while not self.check("OP", "}"):
                negative = bool(self.accept("OP", "-"))
                value_token = self.expect("NUM")
                value = _token_int(value_token)
                init.append(-value if negative else value)
                if not self.accept("OP", ","):
                    break
            self.expect("OP", "}")
            if len(init) > size:
                raise FrontendError(
                    f"initialiser for {name_token.value!r} has {len(init)} "
                    f"elements but the array holds {size}",
                    name_token.line, name_token.column)
        self.expect("OP", ";")
        return ast.GlobalArray(name_token.value, size, init, name_token.line)

    def _parse_function(self, type_token: Token, name_token: Token,
                        pragmas: Dict[str, object]) -> ast.FunctionDef:
        self.expect("OP", "(")
        params: List[str] = []
        if self.accept("KEYWORD", "void"):
            pass
        elif not self.check("OP", ")"):
            while True:
                self.expect("KEYWORD", "int")
                param = self.expect("ID")
                params.append(param.value)
                if not self.accept("OP", ","):
                    break
        self.expect("OP", ")")
        self.expect("OP", "{")
        body = self._parse_statements_until_brace()
        return ast.FunctionDef(name_token.value, params, body, dict(pragmas),
                               name_token.line)

    # -- statements ----------------------------------------------------------------
    def _parse_statements_until_brace(self) -> List[ast.Stmt]:
        stmts: List[ast.Stmt] = []
        while not self.check("OP", "}"):
            if self.check("EOF"):
                raise self.error("unexpected end of file inside a block")
            stmts.append(self._parse_statement())
        self.expect("OP", "}")
        return stmts

    def _parse_block(self) -> List[ast.Stmt]:
        if self.accept("OP", "{"):
            return self._parse_statements_until_brace()
        return [self._parse_statement()]

    def _parse_statement(self) -> ast.Stmt:
        pragmas: Dict[str, object] = {}
        while self.check("PRAGMA"):
            token = self.advance()
            pragmas.update(parse_pragma(token.value, token.line))

        if self.check("KEYWORD", "int"):
            return self._parse_vardecl()
        if self.check("KEYWORD", "if"):
            return self._parse_if()
        if self.check("KEYWORD", "while"):
            return self._parse_while(pragmas)
        if self.check("KEYWORD", "for"):
            return self._parse_for(pragmas)
        if self.check("KEYWORD", "return"):
            return self._parse_return()
        return self._parse_expression_statement()

    def _parse_vardecl(self) -> ast.VarDecl:
        self.expect("KEYWORD", "int")
        name_token = self.expect("ID")
        if self.accept("OP", "["):
            size_token = self.expect("NUM")
            self.expect("OP", "]")
            self.expect("OP", ";")
            size = _token_int(size_token)
            if size <= 0:
                raise FrontendError("array size must be positive",
                                    size_token.line, size_token.column)
            return ast.VarDecl(name_token.value, array_size=size,
                               line=name_token.line)
        init = None
        if self.accept("OP", "="):
            init = self._parse_expression()
        self.expect("OP", ";")
        return ast.VarDecl(name_token.value, init=init, line=name_token.line)

    def _parse_if(self) -> ast.If:
        token = self.expect("KEYWORD", "if")
        self.expect("OP", "(")
        cond = self._parse_expression()
        self.expect("OP", ")")
        then_body = self._parse_block()
        else_body: List[ast.Stmt] = []
        if self.accept("KEYWORD", "else"):
            if self.check("KEYWORD", "if"):
                else_body = [self._parse_if()]
            else:
                else_body = self._parse_block()
        return ast.If(cond, then_body, else_body, token.line)

    def _parse_while(self, pragmas: Dict[str, object]) -> ast.While:
        token = self.expect("KEYWORD", "while")
        self.expect("OP", "(")
        cond = self._parse_expression()
        self.expect("OP", ")")
        body = self._parse_block()
        bound = pragmas.get("loopbound")
        return ast.While(cond, body, bound, token.line)

    def _parse_for(self, pragmas: Dict[str, object]) -> ast.For:
        token = self.expect("KEYWORD", "for")
        self.expect("OP", "(")
        init: Optional[ast.Stmt] = None
        if not self.check("OP", ";"):
            if self.check("KEYWORD", "int"):
                self.expect("KEYWORD", "int")
                name_token = self.expect("ID")
                self.expect("OP", "=")
                init_expr = self._parse_expression()
                init = ast.VarDecl(name_token.value, init=init_expr,
                                   line=name_token.line)
            else:
                init = self._parse_simple_assignment()
        self.expect("OP", ";")
        cond: Optional[ast.Expr] = None
        if not self.check("OP", ";"):
            cond = self._parse_expression()
        self.expect("OP", ";")
        update: Optional[ast.Stmt] = None
        if not self.check("OP", ")"):
            update = self._parse_simple_assignment()
        self.expect("OP", ")")
        body = self._parse_block()
        bound = pragmas.get("loopbound")
        return ast.For(init, cond, update, body, bound, token.line)

    def _parse_simple_assignment(self) -> ast.Stmt:
        expr = self._parse_expression()
        op_token = self.peek()
        if op_token.kind == "OP" and op_token.value in _ASSIGN_OPS:
            self.advance()
            value = self._parse_expression()
            if not isinstance(expr, (ast.Var, ast.Index)):
                raise FrontendError("assignment target must be a variable or "
                                    "array element", op_token.line,
                                    op_token.column)
            return ast.Assign(expr, op_token.value, value, op_token.line)
        return ast.ExprStmt(expr, op_token.line)

    def _parse_return(self) -> ast.Return:
        token = self.expect("KEYWORD", "return")
        value = None
        if not self.check("OP", ";"):
            value = self._parse_expression()
        self.expect("OP", ";")
        return ast.Return(value, token.line)

    def _parse_expression_statement(self) -> ast.Stmt:
        stmt = self._parse_simple_assignment()
        self.expect("OP", ";")
        return stmt

    # -- expressions -----------------------------------------------------------------
    def _parse_expression(self, min_precedence: int = 1) -> ast.Expr:
        lhs = self._parse_unary()
        while True:
            token = self.peek()
            if token.kind != "OP" or token.value not in _PRECEDENCE:
                break
            precedence = _PRECEDENCE[token.value]
            if precedence < min_precedence:
                break
            self.advance()
            rhs = self._parse_expression(precedence + 1)
            lhs = ast.Binary(token.value, lhs, rhs, token.line)
        return lhs

    def _parse_unary(self) -> ast.Expr:
        token = self.peek()
        if token.kind == "OP" and token.value in ("-", "!", "~"):
            self.advance()
            operand = self._parse_unary()
            if token.value == "-" and isinstance(operand, ast.Num):
                return ast.Num(-operand.value, token.line)
            return ast.Unary(token.value, operand, token.line)
        if token.kind == "OP" and token.value == "+":
            self.advance()
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        token = self.peek()
        if token.kind == "NUM":
            self.advance()
            return ast.Num(_token_int(token), token.line)
        if token.kind == "ID":
            self.advance()
            if self.accept("OP", "("):
                args: List[ast.Expr] = []
                if not self.check("OP", ")"):
                    while True:
                        args.append(self._parse_expression())
                        if not self.accept("OP", ","):
                            break
                self.expect("OP", ")")
                return ast.Call(token.value, args, token.line)
            if self.accept("OP", "["):
                index = self._parse_expression()
                self.expect("OP", "]")
                return ast.Index(token.value, index, token.line)
            return ast.Var(token.value, token.line)
        if token.kind == "OP" and token.value == "(":
            self.advance()
            expr = self._parse_expression()
            self.expect("OP", ")")
            return expr
        raise self.error(f"unexpected token {token.value or token.kind!r} in expression")


def parse(source: str, source_name: str = "<memory>") -> ast.SourceModule:
    """Parse TeamPlay-C source text into a :class:`SourceModule`."""
    stream = scan(source)
    return _Parser(stream, source_name).parse_module()


def parse_reference(source: str,
                    source_name: str = "<memory>") -> ast.SourceModule:
    """Parse through the retained seed path (Token list + reference parser).

    Slow; exists for the parity property tests and as the benchmark
    baseline.  Guaranteed AST-equal to :func:`parse` for every valid input.
    """
    return _ReferenceParser(tokenize(source), source_name).parse_module()


# ---------------------------------------------------------------------------
# Process-wide parse cache
# ---------------------------------------------------------------------------
class ParseCache:
    """LRU cache of parsed modules, engine-cache ``stats()`` convention.

    Keys are ``(source_name, extra_key, source)`` tuples — the source
    string's cached hash acts as the fingerprint, so a warm lookup costs
    one tuple hash and one dict probe regardless of source size.  Cached
    modules are shared instances: callers must treat them as read-only
    (the compilation pipeline always clones before running passes).
    """

    def __init__(self, max_entries: Optional[int] = None):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._modules: "OrderedDict[Tuple, ast.SourceModule]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._modules)

    def get(self, key: Tuple) -> Optional[ast.SourceModule]:
        module = self._modules.get(key)
        if module is not None:
            self.hits += 1
            if self.max_entries is not None:
                self._modules.move_to_end(key)
        return module

    def put(self, key: Tuple, module: ast.SourceModule) -> None:
        self.misses += 1
        self._modules[key] = module
        if self.max_entries is not None:
            self._modules.move_to_end(key)
            while len(self._modules) > self.max_entries:
                self._modules.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are preserved, as engine caches do)."""
        self._modules.clear()

    def stats(self) -> Dict[str, Optional[int]]:
        return {
            "entries": len(self._modules),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


#: Process-wide parse cache for :func:`parse_cached`.  Bounded: scenario
#: sweeps and the long-running evaluation service parse through here
#: indefinitely.
_PARSE_CACHE = ParseCache(max_entries=256)


def parse_cached(source: str, source_name: str = "<memory>",
                 extra_key: Tuple = ()) -> ast.SourceModule:
    """Parse with process-wide memoisation on the source fingerprint.

    Returns a shared :class:`SourceModule` instance: callers must treat it
    as read-only (the compilation pipeline always clones before running
    passes).  Use :func:`parse` when the caller intends to mutate the
    module.  ``extra_key`` widens the cache key — the compilation pipeline
    passes its frontend-stage identity, so registering a custom frontend
    pass invalidates prior entries automatically (the PR 4 contract).
    """
    key = (source_name, extra_key, source)
    module = _PARSE_CACHE.get(key)
    if module is None:
        module = parse(source, source_name)
        _PARSE_CACHE.put(key, module)
    return module


def parse_cache_stats() -> Dict[str, Optional[int]]:
    """Hit/miss/eviction counters of the process-wide parse cache."""
    return _PARSE_CACHE.stats()


def clear_parse_cache() -> None:
    """Empty the process-wide parse cache (tests and benchmarks)."""
    _PARSE_CACHE.clear()
