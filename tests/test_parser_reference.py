"""The master-regex lexer and the parser against their character-loop predecessor.

`_KEYWORDS`, `_PUNCT`, `_Token`, `_tokenize`, `_Parser` and `_collect_globals`
below are a verbatim copy of the lexer and parser as they were before the
lexer became one compiled pattern: a loop over characters that scanned
`_PUNCT` with `startswith` and gave tokens the kinds "punct" and "kw", and a
parser that matched those kinds with `at_punct`, `at_kw` and a two-argument
`expect`. Every input goes through both. Token lists compare as (kind, text,
line, col), with an old "punct" or "kw" kind mapped to the token text. The new
lexer keeps no positions, so the new side takes each token's start from one
`finditer` pass over the lexer's own pattern, skipping comments as the lexer
does. Lexer errors compare by message, line and column; and `parse_program`
compares by the `repr` of the program, or by the error raised.

The inputs are the corpus, `format_program` of progen seeds 0-499, the
perfbench seed-0 batches, and seeded character-level mutants of the corpus and
of progen programs. Two differences are kept on purpose, and their counts on
the mutants are pinned:

(a) A digit that is not a decimal digit, such as '²'. The old lexer read it as
    (part of) an integer, which ended in an unpositioned `ValueError` from
    `int()` or in a parse error further on; now it is a positioned
    `unexpected character` error.
(b) After a trailing `//` comment with no newline, the end-of-input token sits
    at the end of input; the old lexer left it at the comment's start. An
    error reported there, such as "expected ';', found end of input", moves
    with it.
"""

from __future__ import annotations

import pathlib
import random
import sys
from collections import Counter
from dataclasses import dataclass

import pytest

from irqverify import format_program, parse_program
from irqverify.ir import (
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
from irqverify.parser import ParseError, _TOKEN_RE, _tokenize as new_tokenize

from conftest import CORPUS_NAMES, corpus_path
from progen import random_program

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"

_KEYWORDS = {"global", "handler", "priority", "local", "assert", "if", "else", "while", "havoc", "skip"}

_PUNCT = ("==", "!=", "<=", ">=", "<", ">", "=", "+", "-", "*", "(", ")", "{", "}", ";")


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" | "int" | "punct" | "kw" | "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(_Token("kw" if word in _KEYWORDS else "ident", word, line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(_Token("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens



class _Parser:
    def __init__(self, tokens: list[_Token], globals_: dict[str, int]):
        self.tokens = tokens
        self.pos = 0
        self.globals = globals_
        # Scope state for the handler currently being parsed.
        self.handler_locals: set[str] = set()
        self.assert_count = 0
        self.handler_name = ""

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def fail(self, message: str, tok: _Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, tok.line, tok.col)

    def expect(self, kind: str, text: str | None = None) -> _Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            raise self.fail(f"expected {want!r}, found {t.text!r}" if t.kind != "eof"
                            else f"expected {want!r}, found end of input")
        return self.next()

    def at_punct(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "punct" and t.text == text

    def at_kw(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "kw" and t.text == text

    # -- program structure -------------------------------------------------

    def program(self) -> Program:
        handlers: list[Handler] = []
        handler_names: set[str] = set()
        global_order: list[tuple[str, int]] = []
        seen_globals: set[str] = set()
        while self.peek().kind != "eof":
            if self.at_kw("global"):
                tok = self.next()
                name = self.expect("ident")
                self.expect("punct", "=")
                init = self.int_literal()
                self.expect("punct", ";")
                if name.text in seen_globals:
                    raise self.fail(f"duplicate global '{name.text}'", name)
                seen_globals.add(name.text)
                global_order.append((name.text, init))
            elif self.at_kw("handler"):
                h = self.handler_decl()
                if h.name in handler_names:
                    raise self.fail(f"duplicate handler '{h.name}'")
                handler_names.add(h.name)
                handlers.append(h)
            else:
                raise self.fail("expected 'global' or 'handler' declaration")
        if not handlers:
            last = self.tokens[-1]
            raise ParseError("program declares no handlers", last.line, last.col)
        return Program(globals=tuple(global_order), handlers=tuple(handlers))

    def int_literal(self) -> int:
        neg = False
        if self.at_punct("-"):
            self.next()
            neg = True
        tok = self.expect("int")
        value = int(tok.text)
        return -value if neg else value

    def handler_decl(self) -> Handler:
        self.expect("kw", "handler")
        name = self.expect("ident")
        self.expect("kw", "priority")
        pr_tok = self.peek()
        priority = self.int_literal()
        if priority < 0:
            raise self.fail("priority must be non-negative", pr_tok)
        self.handler_locals = set()
        self.assert_count = 0
        self.handler_name = name.text
        body = self.block(declared=set())
        return Handler(name=name.text, priority=priority, body=body)

    def block(self, declared: set[str]) -> tuple[Stmt, ...]:
        """Parse `{ stmt* }`; `declared` is the definitely-assigned local set."""
        self.expect("punct", "{")
        stmts: list[Stmt] = []
        while not self.at_punct("}"):
            stmts.append(self.statement(declared))
        self.expect("punct", "}")
        return tuple(stmts)

    # -- statements ----------------------------------------------------------

    def statement(self, declared: set[str]) -> Stmt:
        t = self.peek()
        if t.kind == "kw":
            if t.text == "skip":
                self.next()
                self.expect("punct", ";")
                return Skip()
            if t.text == "havoc":
                self.next()
                name = self.expect("ident")
                self.expect("punct", ";")
                return Havoc(self.var_ref(name, declared))
            if t.text == "assert":
                self.next()
                self.expect("punct", "(")
                cond = self.comparison(declared)
                self.expect("punct", ")")
                self.expect("punct", ";")
                uid = f"{self.handler_name}#{self.assert_count}"
                self.assert_count += 1
                return Assert(cond, uid)
            if t.text == "local":
                self.next()
                name = self.expect("ident")
                if name.text in self.globals:
                    raise self.fail(f"local '{name.text}' shadows a global", name)
                if name.text in self.handler_locals:
                    raise self.fail(f"duplicate local '{name.text}'", name)
                self.expect("punct", "=")
                expr = self.expression(declared)
                self.expect("punct", ";")
                self.handler_locals.add(name.text)
                declared.add(name.text)
                return Assign(VarRef(name.text, "local"), expr)
            if t.text == "if":
                self.next()
                self.expect("punct", "(")
                cond = self.cond_or_star(declared)
                self.expect("punct", ")")
                then = self.block(set(declared))
                orelse: tuple[Stmt, ...] = ()
                if self.at_kw("else"):
                    self.next()
                    orelse = self.block(set(declared))
                return If(cond, then, orelse)
            if t.text == "while":
                self.next()
                self.expect("punct", "(")
                cond = self.cond_or_star(declared)
                self.expect("punct", ")")
                body = self.block(set(declared))
                return While(cond, body)
            raise self.fail(f"unexpected keyword '{t.text}'")
        if t.kind == "ident":
            name = self.next()
            self.expect("punct", "=")
            expr = self.expression(declared)
            self.expect("punct", ";")
            target = self.var_ref(name, declared, is_read=False)
            if not target.is_global and target.name not in declared:
                raise self.fail(f"local '{target.name}' assigned before declaration", name)
            return Assign(target, expr)
        raise self.fail(f"expected a statement, found {t.text!r}")

    def var_ref(self, tok: _Token, declared: set[str], *, is_read: bool = True) -> VarRef:
        if tok.text in self.globals:
            return VarRef(tok.text, "global")
        if tok.text in self.handler_locals:
            if is_read and tok.text not in declared:
                raise self.fail(f"local '{tok.text}' may be uninitialized here", tok)
            return VarRef(tok.text, "local")
        raise self.fail(f"undeclared variable '{tok.text}'", tok)

    # -- conditions and expressions -------------------------------------------

    def cond_or_star(self, declared: set[str]) -> Cond:
        if self.at_punct("*"):
            self.next()
            return NONDET
        return self.comparison(declared)

    def comparison(self, declared: set[str]) -> Cmp:
        left = self.expression(declared)
        t = self.peek()
        if t.kind != "punct" or t.text not in CMP_OPS:
            raise self.fail("expected a comparison operator")
        self.next()
        right = self.expression(declared)
        return Cmp(t.text, left, right)  # type: ignore[arg-type]

    def expression(self, declared: set[str]) -> Expr:
        e = self.term(declared)
        while self.at_punct("+") or self.at_punct("-"):
            op = self.next().text
            rhs = self.term(declared)
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self, declared: set[str]) -> Expr:
        e = self.factor(declared)
        while self.at_punct("*"):
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
        t = self.peek()
        if t.kind == "punct" and t.text == "-":
            self.next()
            inner = self.factor(declared)
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Mul(-1, inner)
        if t.kind == "int":
            self.next()
            return Const(int(t.text))
        if t.kind == "ident":
            self.next()
            return self.var_ref(t, declared)
        if t.kind == "punct" and t.text == "(":
            self.next()
            e = self.expression(declared)
            self.expect("punct", ")")
            return e
        raise self.fail(f"expected an expression, found {t.text!r}" if t.kind != "eof"
                        else "expected an expression, found end of input")


def _collect_globals(tokens: list[_Token]) -> dict[str, int]:
    """Pre-scan for top-level `global` declarations so handlers may precede them."""
    out: dict[str, int] = {}
    depth = 0
    i = 0
    while tokens[i].kind != "eof":
        t = tokens[i]
        if t.kind == "punct" and t.text == "{":
            depth += 1
        elif t.kind == "punct" and t.text == "}":
            depth = max(0, depth - 1)
        elif depth == 0 and t.kind == "kw" and t.text == "global":
            if tokens[i + 1].kind == "ident":
                name = tokens[i + 1].text
                if name not in out:
                    out[name] = 0  # real value filled in by the main pass
        i += 1
    return out


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def _error(exc: Exception) -> tuple:
    if isinstance(exc, ParseError):
        return ("ParseError", exc.message, exc.line, exc.col)
    return (type(exc).__name__, str(exc))


def _parsed(parse) -> str | tuple:
    """`repr` of the program `parse()` returns, or the error it raised."""
    try:
        return repr(parse())
    except (ParseError, ValueError, RecursionError) as exc:
        return _error(exc)


def _old_side(text: str):
    """Old (tokens, parse outcome); a token list is a tuple when lexing failed."""
    try:
        tokens = _tokenize(text)
    except ParseError as exc:
        return _error(exc), _error(exc)
    listed = [(t.text if t.kind in ("punct", "kw") else t.kind, t.text, t.line, t.col)
              for t in tokens]
    return listed, _parsed(lambda: _Parser(tokens, _collect_globals(tokens)).program())


def _new_side(text: str):
    """New (tokens, parse outcome); positions come from one pass over the lexer's pattern."""
    try:
        kinds, texts = new_tokenize(text)
    except ParseError as exc:
        return _error(exc), _parsed(lambda: parse_program(text))
    starts = [m.start(1) for m in _TOKEN_RE.finditer(text) if not m.group(1).startswith("//")]
    starts.append(len(text))
    listed = [(kind, word, text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start))
              for kind, word, start in zip(kinds, texts, starts, strict=True)]
    return listed, _parsed(lambda: parse_program(text))


def _is_non_decimal_digit(text: str, old, new) -> bool:
    """Difference (a): the new lexer stops at a digit the old one read into an int."""
    if not (isinstance(new, tuple) and new[1].startswith("unexpected character")):
        return False
    _, message, line, col = new
    ch = text.split("\n")[line - 1][col - 1]
    if message != f"unexpected character {ch!r}" or not ch.isdigit() or ch.isdecimal():
        return False
    if isinstance(old, tuple):  # the old lexer failed further on
        return old[2:] > (line, col)
    return any(kind == "int" and l == line and c <= col < c + len(word)
               for kind, word, l, c in old)


def _is_trailing_comment_end(text: str, old, new) -> bool:
    """Difference (b): only the end-of-input column, after a trailing comment."""
    last = text.rsplit("\n", 1)[-1]
    if isinstance(old, tuple) or isinstance(new, tuple) or "//" not in last:
        return False
    old_eof, new_eof = old[-1], new[-1]
    return (old[:-1] == new[:-1] and old_eof[:3] == new_eof[:3]
            and old_eof[3] == last.index("//") + 1 and new_eof[3] == len(last) + 1)


def difference(text: str) -> str | None:
    """None when both lexers and both parsers agree, else "a", "b" or "other"."""
    (old_t, old_p), (new_t, new_p) = _old_side(text), _new_side(text)
    if old_t == new_t and old_p == new_p:
        return None
    if _is_non_decimal_digit(text, old_t, new_t) and new_p == new_t:
        return "a"
    if _is_trailing_comment_end(text, old_t, new_t):
        # the parse agrees, or fails alike at the end of input, wherever that sits
        if old_p == new_p or (isinstance(old_p, tuple) and isinstance(new_p, tuple)
                              and old_p[:3] == new_p[:3] and old_p[3] == old_t[-1][3]
                              and new_p[3] == new_t[-1][3]):
            return "b"
    return "other"


def _differences(texts) -> Counter:
    found: Counter = Counter()
    for text in texts:
        kind = difference(text)
        assert kind != "other", text
        if kind is not None:
            found[kind] += 1
    return found


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _perfbench_seed0_texts() -> list[str]:
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return [text for w in workloads.WORKLOADS for _, text, _, _ in workloads.make_batch(w, 0)]


#: What a mutation inserts: the language's own characters, the separators
#: `\s` matches but the lexer does not, and characters on which `str.isdigit`,
#: `str.isalpha` and the regex classes `\d` and `\w` part ways.
ALPHABET = ("²", "٣", "½", "é", "_", "\x0b", "\xa0", "//", "/", " ", "\t", "\r", "\n",
            "0", "7", "x", "{", "}", "(", ")", ";", "=", "!", "<", ">", "+", "-", "*")


def mutate(rng: random.Random, text: str) -> str:
    """One to three edits: overwrite, delete, insert, copy a span, or cut the end."""
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(5)
        pos = rng.randrange(len(text) + 1)
        if op == 0:
            text = text[:pos] + rng.choice(ALPHABET) + text[pos + 1:]
        elif op == 1:
            text = text[:pos] + text[pos + rng.randint(1, 3):]
        elif op == 2:
            text = text[:pos] + rng.choice(ALPHABET) + text[pos:]
        elif op == 3:
            start = rng.randrange(len(text) + 1)
            text = text[:pos] + text[start:start + rng.randint(1, 16)] + text[pos:]
        else:
            text = text[:pos]
    return text


#: Mutants checked, and the intended differences (a) and (b) among them.
MUTANTS = 5_000
PINNED_DIFFERENCES = Counter({"a": 62, "b": 159})


def mutants(count: int) -> list[str]:
    bases = [corpus_path(name).read_text() for name in CORPUS_NAMES]
    bases += [format_program(random_program(random.Random(seed))) for seed in range(40)]
    rng = random.Random(11)
    return [mutate(rng, rng.choice(bases)) for _ in range(count)]


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


def test_corpus_and_progen_match():
    texts = [corpus_path(name).read_text() for name in CORPUS_NAMES]
    texts += [format_program(random_program(random.Random(seed))) for seed in range(500)]
    assert _differences(texts) == Counter()


def test_perfbench_seed0_batches_match():
    assert _differences(_perfbench_seed0_texts()) == Counter()


def test_mutants_differ_only_as_intended():
    assert _differences(mutants(MUTANTS)) == PINNED_DIFFERENCES


@pytest.mark.parametrize("text, kind", [
    ("global x = 0; handler h priority 0 { x = ٣; }", None),
    ("global xé_½² = 0; handler h priority 0 { xé_½² = 1; }", None),
    ("global x = 0; handler h priority 0 { x = ²; }", "a"),
    ("global x = 0; handler h priority 0 { x = 1²; }", "a"),
    ("global x = 0; handler h priority 0 { x = 1 // one", "b"),
    ("global x = 0;\x0bhandler h priority 0 { }", None),
    ("global x = 0;\xa0handler h priority 0 { }", None),
    # lexer edges: trailing separators, comments with slashes, a lone slash
    ("global x = 0; handler h priority 0 { x = 1; }\r", None),
    ("global x = 0; handler h priority 0 { x = 1; }\t", None),
    ("global x = 0; handler h priority 0 { x = 1; } // a/b", "b"),
    ("global x = 0; handler h priority 0 { x = 1 // a/b", "b"),
    ("/", None),
    ("global x = 0; handler h priority 0 { x = 1 / 2; }", None),
    ("// c\nglobal x = 0; handler h priority 0 { }", None),
    ("global x = 0; // c\nhandler h priority 0 { x = 1; }", None),
])
def test_examples(text, kind):
    assert difference(text) == kind


#: Errors with their (message, line, column): non-decimal digits, a trailing
#: comment, and the lexer's edges (trailing separators, slashes, comments).
SAY_WHERE = [
    ("global x = 0;\nhandler h priority 0 { x = ²; }", ("unexpected character '²'", 2, 28)),
    ("global x = 0; handler h priority 0 { x = 1 // one", ("expected ';', found end of input", 1, 50)),
    ("global x = 0; handler h priority 0 { x = 1\r", ("expected ';', found end of input", 1, 44)),
    ("global x = 0; handler h priority 0 { x = 1\t", ("expected ';', found end of input", 1, 44)),
    ("global x = 0;\nhandler h priority 0 { x = 1 // a/b", ("expected ';', found end of input", 2, 36)),
    ("/", ("unexpected character '/'", 1, 1)),
    ("global x = 0;\n  x / 2", ("unexpected character '/'", 2, 5)),
    ("// c\nglobal x = 0; handler h priority 0 { y = 1; }", ("undeclared variable 'y'", 2, 38)),
]


def test_examples_say_where():
    for text, where in SAY_WHERE:
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert (err.value.message, err.value.line, err.value.col) == where, text
