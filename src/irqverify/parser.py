"""Parser for the textual program format (`.irq` files).

Grammar sketch::

    program     := (global_decl | handler)*
    global_decl := "global" IDENT "=" INT ";"
    handler     := "handler" IDENT "priority" INT "{" stmt* "}"
    stmt        := IDENT "=" expr ";"
                 | "local" IDENT "=" expr ";"
                 | "assert" "(" cond ")" ";"
                 | "if" "(" cond_or_star ")" block ("else" block)?
                 | "while" "(" cond_or_star ")" block
                 | "havoc" IDENT ";"
                 | "skip" ";"
    cond        := expr REL expr          REL in { == != < <= > >= }
    expr        := affine arithmetic: +, -, unary -, constant * expr

Lexical rules: only space, tab, carriage return and newline separate tokens;
`//` starts a comment running to end of line. An identifier starts with a
letter (any Unicode letter) or `_` and goes on with letters, `_` and numeric
characters; an integer is a run of decimal digits (any Unicode decimal digit,
so `٣` reads as 3). Any other character, such as `²` outside an identifier, is
an `unexpected character` error.

The lexer is one `findall` of one compiled pattern, which skips separators and
captures each token's text; comments are captured as tokens too and then
dropped. A token's kind is "ident", "int", "eof", or else the keyword or
punctuation text itself. The parser walks token indices into the parallel
kind and text lists. No position is kept: an error finds the line and column
of its token by scanning the text again with the same pattern.

Multiplication is restricted to a constant literal times an expression so
every expression stays affine.
Locals are declared with `local name = expr;`, exactly once per handler, and
before any use on every path.
"""

from __future__ import annotations

import re
from itertools import islice

from .ir import (
    Add,
    Assert,
    Assign,
    CMP_OPS,
    Cmp,
    Cond,
    Const,
    Expr,
    Handler,
    Havoc,
    If,
    Mul,
    NONDET,
    Program,
    Skip,
    Stmt,
    Sub,
    VarRef,
    While,
)

_KEYWORDS = {"global", "handler", "priority", "local", "assert", "if", "else", "while", "havoc", "skip"}
_PUNCT = ("==", "!=", "<=", ">=", "<", ">", "=", "+", "-", "*", "(", ")", "{", "}", ";")
#: A keyword or punctuation token's kind is its own text.
_KINDS = {text: text for text in (*_KEYWORDS, *_PUNCT)}

# Skip separators, then capture one token: a comment (dropped afterwards), an
# integer, a word, punctuation, or any other single character, which is an
# error. The last class excludes the separators, so trailing ones match
# nothing.
_TOKEN_RE = re.compile(r"""
    [ \t\r\n]*
    ( //[^\n]*
    | \d+
    | \w+
    | ==|!=|<=|>=|[<>=+\-*(){};]
    | [^ \t\r\n]
    )
""", re.VERBOSE)


class ParseError(Exception):
    """Syntax or well-formedness error, with a 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


def _tokenize(text: str) -> tuple[list[str], list[str]]:
    """The kinds and texts of `text`'s tokens, ending with the "eof" token.

    A kind is "ident", "int", "eof", or the keyword or punctuation text
    itself. Positions are not kept; `_position` finds them for errors.
    """
    texts = _TOKEN_RE.findall(text)
    if "//" in text:
        texts = [t for t in texts if not t.startswith("//")]
    get = _KINDS.get
    kinds = [get(t) or ("int" if t[0].isdecimal() else
                        "ident" if t[0].isalpha() or t[0] == "_" else "")
             for t in texts]
    if "" in kinds:
        # any other character, or a word starting with a digit that is not
        # decimal, such as '²' (`\w` matches it)
        k = kinds.index("")
        raise ParseError(f"unexpected character {texts[k][0]!r}", *_position(text, k))
    kinds.append("eof")
    texts.append("")
    return kinds, texts


def _position(text: str, k: int) -> tuple[int, int]:
    """Line and column of token k of `text`; the last token (eof) sits at the end."""
    starts = (m.start(1) for m in _TOKEN_RE.finditer(text) if not m.group(1).startswith("//"))
    start = next(islice(starts, k, None), len(text))
    return text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)


class _Parser:
    """Recursive descent over token indices into the parallel `kinds` and `texts`."""

    def __init__(self, text: str, kinds: list[str], texts: list[str], globals_: dict[str, int]):
        self.text = text
        self.kinds = kinds
        self.texts = texts
        self.pos = 0
        self.globals = globals_
        # Scope state for the handler currently being parsed.
        self.handler_locals: set[str] = set()
        self.assert_count = 0
        self.handler_name = ""

    # -- token plumbing ----------------------------------------------------

    def next(self) -> int:
        k = self.pos
        self.pos = k + 1
        return k

    def fail(self, message: str, k: int | None = None) -> ParseError:
        return ParseError(message, *_position(self.text, self.pos if k is None else k))

    def expect(self, kind: str) -> int:
        k = self.pos
        if self.kinds[k] != kind:
            raise self.fail(f"expected {kind!r}, found {self.texts[k]!r}" if self.kinds[k] != "eof"
                            else f"expected {kind!r}, found end of input")
        self.pos = k + 1
        return k

    def at(self, kind: str) -> bool:
        return self.kinds[self.pos] == kind

    # -- program structure -------------------------------------------------

    def program(self) -> Program:
        handlers: list[Handler] = []
        handler_names: set[str] = set()
        global_order: list[tuple[str, int]] = []
        seen_globals: set[str] = set()
        texts = self.texts
        while not self.at("eof"):
            if self.at("global"):
                self.next()
                name = self.expect("ident")
                self.expect("=")
                init = self.int_literal()
                self.expect(";")
                if texts[name] in seen_globals:
                    raise self.fail(f"duplicate global '{texts[name]}'", name)
                seen_globals.add(texts[name])
                global_order.append((texts[name], init))
            elif self.at("handler"):
                h = self.handler_decl()
                if h.name in handler_names:
                    raise self.fail(f"duplicate handler '{h.name}'")
                handler_names.add(h.name)
                handlers.append(h)
            else:
                raise self.fail("expected 'global' or 'handler' declaration")
        if not handlers:
            raise self.fail("program declares no handlers")
        return Program(globals=tuple(global_order), handlers=tuple(handlers))

    def int_literal(self) -> int:
        neg = False
        if self.at("-"):
            self.next()
            neg = True
        value = self.int_value(self.expect("int"))
        return -value if neg else value

    def int_value(self, k: int) -> int:
        try:
            return int(self.texts[k])
        except ValueError:  # beyond the interpreter's integer-string digit limit
            raise self.fail(f"integer literal too long ({len(self.texts[k])} digits)", k) from None

    def handler_decl(self) -> Handler:
        self.expect("handler")
        name = self.texts[self.expect("ident")]
        self.expect("priority")
        pr_tok = self.pos
        priority = self.int_literal()
        if priority < 0:
            raise self.fail("priority must be non-negative", pr_tok)
        self.handler_locals = set()
        self.assert_count = 0
        self.handler_name = name
        body = self.block(declared=set())
        return Handler(name=name, priority=priority, body=body)

    def block(self, declared: set[str]) -> tuple[Stmt, ...]:
        """Parse `{ stmt* }`; `declared` is the definitely-assigned local set."""
        self.expect("{")
        stmts: list[Stmt] = []
        while not self.at("}"):
            stmts.append(self.statement(declared))
        self.expect("}")
        return tuple(stmts)

    # -- statements ----------------------------------------------------------

    def statement(self, declared: set[str]) -> Stmt:
        kind = self.kinds[self.pos]
        if kind == "ident":
            name = self.next()
            self.expect("=")
            expr = self.expression(declared)
            self.expect(";")
            target = self.var_ref(name, declared, is_read=False)
            if not target.is_global and target.name not in declared:
                raise self.fail(f"local '{target.name}' assigned before declaration", name)
            return Assign(target, expr)
        if kind == "skip":
            self.next()
            self.expect(";")
            return Skip()
        if kind == "havoc":
            self.next()
            name = self.expect("ident")
            self.expect(";")
            return Havoc(self.var_ref(name, declared))
        if kind == "assert":
            self.next()
            self.expect("(")
            cond = self.comparison(declared)
            self.expect(")")
            self.expect(";")
            uid = f"{self.handler_name}#{self.assert_count}"
            self.assert_count += 1
            return Assert(cond, uid)
        if kind == "local":
            self.next()
            name = self.expect("ident")
            text = self.texts[name]
            if text in self.globals:
                raise self.fail(f"local '{text}' shadows a global", name)
            if text in self.handler_locals:
                raise self.fail(f"duplicate local '{text}'", name)
            self.expect("=")
            expr = self.expression(declared)
            self.expect(";")
            self.handler_locals.add(text)
            declared.add(text)
            return Assign(VarRef(text, "local"), expr)
        if kind == "if":
            self.next()
            self.expect("(")
            cond = self.cond_or_star(declared)
            self.expect(")")
            then = self.block(set(declared))
            orelse: tuple[Stmt, ...] = ()
            if self.at("else"):
                self.next()
                orelse = self.block(set(declared))
            return If(cond, then, orelse)
        if kind == "while":
            self.next()
            self.expect("(")
            cond = self.cond_or_star(declared)
            self.expect(")")
            body = self.block(set(declared))
            return While(cond, body)
        text = self.texts[self.pos]
        if kind in _KEYWORDS:
            raise self.fail(f"unexpected keyword '{text}'")
        raise self.fail(f"expected a statement, found {text!r}")

    def var_ref(self, k: int, declared: set[str], *, is_read: bool = True) -> VarRef:
        """The variable token k names."""
        text = self.texts[k]
        if text in self.globals:
            return VarRef(text, "global")
        if text in self.handler_locals:
            if is_read and text not in declared:
                raise self.fail(f"local '{text}' may be uninitialized here", k)
            return VarRef(text, "local")
        raise self.fail(f"undeclared variable '{text}'", k)

    # -- conditions and expressions -------------------------------------------

    def cond_or_star(self, declared: set[str]) -> Cond:
        if self.at("*"):
            self.next()
            return NONDET
        return self.comparison(declared)

    def comparison(self, declared: set[str]) -> Cmp:
        left = self.expression(declared)
        op = self.kinds[self.pos]
        if op not in CMP_OPS:
            raise self.fail("expected a comparison operator")
        self.next()
        right = self.expression(declared)
        return Cmp(op, left, right)  # type: ignore[arg-type]

    def expression(self, declared: set[str]) -> Expr:
        e = self.term(declared)
        kinds = self.kinds
        while kinds[self.pos] in ("+", "-"):
            op = kinds[self.next()]
            rhs = self.term(declared)
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self, declared: set[str]) -> Expr:
        e = self.factor(declared)
        while self.at("*"):
            star = self.next()
            rhs = self.factor(declared)
            if isinstance(e, Const):
                e = Mul(e.value, rhs)
            elif isinstance(rhs, Const):
                e = Mul(rhs.value, e)
            else:
                raise self.fail("non-affine expression: one multiplication operand must be a constant", star)
        return e

    def factor(self, declared: set[str]) -> Expr:
        k = self.next()
        kind = self.kinds[k]
        if kind == "ident":
            return self.var_ref(k, declared)
        if kind == "int":
            return Const(self.int_value(k))
        if kind == "-":
            inner = self.factor(declared)
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Mul(-1, inner)
        if kind == "(":
            e = self.expression(declared)
            self.expect(")")
            return e
        raise self.fail(f"expected an expression, found {self.texts[k]!r}" if kind != "eof"
                        else "expected an expression, found end of input", k)


def _collect_globals(kinds: list[str], texts: list[str]) -> dict[str, int]:
    """Pre-scan for top-level `global` declarations so handlers may precede them."""
    out: dict[str, int] = {}
    depth = 0
    for i, kind in enumerate(kinds):
        if kind == "{":
            depth += 1
        elif kind == "}":
            depth = max(0, depth - 1)
        elif depth == 0 and kind == "global" and kinds[i + 1] == "ident":
            out.setdefault(texts[i + 1], 0)  # real value filled in by the main pass
    return out


def parse_program(text: str) -> Program:
    """Parse source text into a well-formed program.

    Raises ParseError (with line and column) on syntax errors, duplicate
    names, undeclared variables, or non-affine expressions. The result always
    passes `validate` with no diagnostics.
    """
    kinds, texts = _tokenize(text)
    return _Parser(text, kinds, texts, _collect_globals(kinds, texts)).program()


def parse_file(path: str) -> Program:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_program(fh.read())
