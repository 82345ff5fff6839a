"""Seeded `.irq` program generator for the benchmark.

Writes program text directly, without importing the package under test or its
test helpers, so that a change to either cannot silently change a workload.
Alongside each program it records what the program must produce, derived from
the source alone: the assertion ids in source order, the number of CFG nodes,
the global load and store sites, and from those the cross-handler pair count
and the number of `NoPreempt` tuples. The harness checks the verifier's output
against these expectations on every seed.

Two shapes of program exist:

* `shaped_program` fixes the statement-kind mix of every handler and the
  multiset of priorities, so every seed gives the same CFG sizes and the same
  `NoPreempt` count; the seed draws statement order, variables, constants,
  conditions and which handler gets which priority. That keeps the cost of a
  batch steady across seeds while its content varies.
* `sweep_program` draws from the acceptance sweep's random program
  distribution (2-3 handlers, at most two globals, at most six statements each,
  oracle budget 1-2). Assertion conditions come from a random stream of their
  own, so a workload can keep the state spaces of the sweep's programs, which
  set the oracle's heavy-tailed cost, while the seed draws what is asserted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")

# Expressions are nested tuples: ("c", value), ("v", name, is_global),
# ("+", left, right), ("-", left, right), ("*", coeff, arg).
_PREC_SUM, _PREC_MUL, _PREC_ATOM = 0, 1, 2


def format_expr(e: tuple, prec: int = _PREC_SUM) -> str:
    kind = e[0]
    if kind == "c":
        text, mine = str(e[1]), _PREC_ATOM if e[1] >= 0 else _PREC_MUL
    elif kind == "v":
        text, mine = e[1], _PREC_ATOM
    elif kind == "*":
        text, mine = f"{e[1]} * {format_expr(e[2], _PREC_MUL + 1)}", _PREC_MUL
    else:
        text = f"{format_expr(e[1], _PREC_SUM)} {kind} {format_expr(e[2], _PREC_SUM + 1)}"
        mine = _PREC_SUM
    return f"({text})" if mine < prec else text


def expr_globals(e: tuple) -> set[str]:
    kind = e[0]
    if kind == "c":
        return set()
    if kind == "v":
        return {e[1]} if e[2] else set()
    if kind == "*":
        return expr_globals(e[2])
    return expr_globals(e[1]) | expr_globals(e[2])


@dataclass
class Expected:
    """What the verifier must report for one program, derived from its source."""

    assert_ids: list[str] = field(default_factory=list)
    nodes: int = 0
    handler_nodes: list[int] = field(default_factory=list)
    priorities: list[int] = field(default_factory=list)
    # per handler: global -> number of nodes that load / store it
    loads: list[dict[str, int]] = field(default_factory=list)
    stores: list[dict[str, int]] = field(default_factory=list)

    @property
    def load_sites(self) -> int:
        return sum(sum(d.values()) for d in self.loads)

    @property
    def store_sites(self) -> int:
        return sum(sum(d.values()) for d in self.stores)

    @property
    def pairs_total(self) -> int:
        total = 0
        for i, loads in enumerate(self.loads):
            for j, stores in enumerate(self.stores):
                if i != j:
                    total += sum(n * stores.get(v, 0) for v, n in loads.items())
        return total

    @property
    def no_preempt(self) -> int:
        total = 0
        for i, pi in enumerate(self.priorities):
            for j, pj in enumerate(self.priorities):
                if i != j and pj >= pi:
                    total += self.handler_nodes[i] * self.handler_nodes[j]
        return total


class _Emitter:
    """Renders statements of one handler and counts the CFG nodes they lower to.

    Lowering (see the package's CFG builder): a simple statement is one node;
    `if` adds two assume nodes and a join; `while` adds a head and two assume
    nodes; the handler adds an entry and an exit.
    """

    def __init__(self, name: str, expected: Expected):
        self.name = name
        self.expected = expected
        self.lines: list[str] = []
        self.asserts = 0
        self.nodes = 2
        self.loads: dict[str, int] = {}
        self.stores: dict[str, int] = {}

    def _node(self, reads: set[str], write: str | None = None) -> None:
        self.nodes += 1
        for v in reads:
            self.loads[v] = self.loads.get(v, 0) + 1
        if write is not None:
            self.stores[write] = self.stores.get(write, 0) + 1

    def assign(self, ind: str, target: str, is_global: bool, expr: tuple, declare: bool) -> None:
        prefix = "local " if declare else ""
        self.lines.append(f"{ind}{prefix}{target} = {format_expr(expr)};")
        self._node(expr_globals(expr), target if is_global else None)

    def havoc(self, ind: str, target: str, is_global: bool) -> None:
        self.lines.append(f"{ind}havoc {target};")
        self._node(set(), target if is_global else None)

    def skip(self, ind: str) -> None:
        self.lines.append(f"{ind}skip;")
        self._node(set())

    def assert_(self, ind: str, cond: tuple) -> None:
        op, left, right = cond
        self.lines.append(f"{ind}assert({format_expr(left)} {op} {format_expr(right)});")
        self.expected.assert_ids.append(f"{self.name}#{self.asserts}")
        self.asserts += 1
        self._node(expr_globals(left) | expr_globals(right))

    def open_block(self, ind: str, keyword: str, cond: tuple | None) -> None:
        """`if` or `while` header; `cond` None is the nondeterministic `*`."""
        if cond is None:
            text, reads = "*", set()
        else:
            op, left, right = cond
            text = f"{format_expr(left)} {op} {format_expr(right)}"
            reads = expr_globals(left) | expr_globals(right)
        self.lines.append(f"{ind}{keyword} ({text}) {{")
        if keyword == "while":
            self._node(set())  # loop head
        self._node(reads)  # assume on the true arm
        self._node(reads)  # assume on the false arm
        if keyword == "if":
            self._node(set())  # join

    def finish(self, priority: int) -> str:
        e = self.expected
        e.nodes += self.nodes
        e.handler_nodes.append(self.nodes)
        e.priorities.append(priority)
        e.loads.append(self.loads)
        e.stores.append(self.stores)
        lines = [f"handler {self.name} priority {priority} {{", *self.lines, "}"]
        return "\n".join(lines) + "\n"


def _render(globals_: list[tuple[str, int]], handlers: list[str]) -> str:
    head = "".join(f"global {name} = {init};\n" for name, init in globals_)
    return head + ("\n" if globals_ else "") + "\n".join(handlers)


# ---------------------------------------------------------------------------
# Acceptance-sweep distribution (small programs for the concrete oracle)
# ---------------------------------------------------------------------------

SWEEP_GLOBALS = ("x", "y")


class _SweepHandler:
    """The test suite's random handler, with its draws split over two streams.

    `assertions` draws the condition of every `assert`; `shape` draws all the
    rest. An assertion reads state but never changes it, so the first stream
    changes what is checked and the verdicts, while the state space the
    oracle enumerates stays that of the second. Passing one generator as both
    makes the same draws in the same order as the test suite, and so the same
    program.
    """

    def __init__(self, shape: random.Random, assertions: random.Random,
                 globals_: tuple[str, ...], em: _Emitter):
        self.shape = shape
        self.assertions = assertions
        self.globals = globals_
        self.em = em
        self.locals: list[str] = []
        self.declared: set[str] = set()

    def var(self, rng: random.Random) -> tuple:
        pool = [("v", g, True) for g in self.globals] + [("v", l, False) for l in self.locals]
        return rng.choice(pool)

    def expr(self, rng: random.Random, depth: int = 0) -> tuple:
        roll = rng.random()
        if roll < 0.35 or depth >= 2:
            return ("c", rng.randint(-2, 3))
        if roll < 0.65:
            return self.var(rng)
        if roll < 0.8:
            return ("+", self.expr(rng, depth + 1), self.expr(rng, depth + 1))
        if roll < 0.92:
            return ("-", self.expr(rng, depth + 1), self.expr(rng, depth + 1))
        return ("*", rng.choice((-1, 2, 3)), self.expr(rng, depth + 1))

    def cmp(self, rng: random.Random) -> tuple:
        return (rng.choice(CMP_OPS), self.expr(rng, 1), self.expr(rng, 1))

    def _assign(self, ind: str, target: str, is_global: bool, expr: tuple) -> None:
        declare = not is_global and target not in self.declared
        self.declared.add(target)
        self.em.assign(ind, target, is_global, expr, declare)

    def statement(self, depth: int) -> None:
        rng, em, ind = self.shape, self.em, "  " * (depth + 1)
        roll = rng.random()
        if roll < 0.30:
            self._assign(ind, rng.choice(self.globals), True, self.expr(rng))
        elif roll < 0.42:
            if len(self.locals) < 2 and rng.random() < 0.6 and depth == 0:
                name = f"t{len(self.locals)}"
                init = self.expr(rng)  # may not reference the local being declared
                self.locals.append(name)
                self._assign(ind, name, False, init)
            elif self.locals:
                self._assign(ind, rng.choice(self.locals), False, self.expr(rng))
            else:
                self._assign(ind, rng.choice(self.globals), True, self.expr(rng))
        elif roll < 0.62:
            em.assert_(ind, self.cmp(self.assertions))
        elif roll < 0.78:
            cond = None if rng.random() < 0.5 else self.cmp(rng)
            em.open_block(ind, "if", cond)
            for _ in range(rng.randint(1, 2)):
                self.statement(depth + 1)
            if rng.random() < 0.4:
                em.lines.append(f"{ind}}} else {{")
                self.statement(depth + 1)
            em.lines.append(f"{ind}}}")
        elif roll < 0.86 and depth == 0:
            cond = None if rng.random() < 0.7 else self.cmp(rng)
            em.open_block(ind, "while", cond)
            for _ in range(rng.randint(1, 2)):
                self.statement(depth + 1)
            em.lines.append(f"{ind}}}")
        elif roll < 0.92:
            target = self.var(rng)
            em.havoc(ind, target[1], target[2])
        else:
            em.skip(ind)


def sweep_program(shape: random.Random, assertions: random.Random) -> tuple[str, Expected, int]:
    """One program of the acceptance-sweep distribution plus its oracle budget."""
    expected = Expected()
    n_globals = shape.choice((1, 2, 2))
    globals_ = [(name, shape.randint(-1, 2)) for name in SWEEP_GLOBALS[:n_globals]]
    names = tuple(g for g, _ in globals_)
    n_handlers = shape.choice((2, 2, 2, 3))
    handlers = []
    for i in range(n_handlers):
        em = _Emitter(f"h{i}", expected)
        gen = _SweepHandler(shape, assertions, names, em)
        priority = shape.randint(0, 2)
        for _ in range(shape.randint(1, 6)):
            gen.statement(0)
        handlers.append(em.finish(priority))
    budget = 1 if n_handlers >= 3 else shape.randint(1, 2)
    return _render(globals_, handlers), expected, budget


# ---------------------------------------------------------------------------
# Scaled programs with a fixed shape
# ---------------------------------------------------------------------------

SHAPED_GLOBALS = ("g0", "g1", "g2", "g3")
LOCALS = ("t0", "t1")


def _kind_mix(stmts: int) -> list[str]:
    """Top-level statement kinds of one handler; the same multiset every seed."""
    kinds = (["if"] * (stmts // 6) + ["while"] * (stmts // 12) + ["assert"] * (stmts // 5)
             + ["havoc"] * (stmts // 16) + ["skip"] * (stmts // 25) + ["local"] * len(LOCALS))
    return kinds + ["assign"] * (stmts - len(kinds))


class _ShapedHandler:
    def __init__(self, rng: random.Random, em: _Emitter):
        self.rng = rng
        self.em = em
        self.locals: list[str] = []

    def atom(self) -> tuple:
        roll = self.rng.random()
        if roll < 0.3:
            return ("c", self.rng.randint(-3, 5))
        if roll < 0.8 or not self.locals:
            return ("v", self.rng.choice(SHAPED_GLOBALS), True)
        return ("v", self.rng.choice(self.locals), False)

    def expr(self) -> tuple:
        roll = self.rng.random()
        if roll < 0.4:
            return self.atom()
        if roll < 0.7:
            return ("+", self.atom(), self.atom())
        if roll < 0.9:
            return ("-", self.atom(), self.atom())
        return ("*", self.rng.choice((-1, 2, 3)), self.atom())

    def cond(self) -> tuple:
        return (self.rng.choice(CMP_OPS), self.expr(), self.atom())

    def simple(self, ind: str) -> None:
        """One single-node statement, for the arms of branches and loop bodies."""
        roll = self.rng.random()
        if roll < 0.6:
            self.em.assign(ind, self.rng.choice(SHAPED_GLOBALS), True, self.expr(), False)
        elif roll < 0.7 and self.locals:
            self.em.assign(ind, self.rng.choice(self.locals), False, self.expr(), False)
        elif roll < 0.9:
            self.em.assert_(ind, self.cond())
        else:
            self.em.havoc(ind, self.rng.choice(SHAPED_GLOBALS), True)

    def body(self, stmts: int) -> None:
        kinds = _kind_mix(stmts)
        self.rng.shuffle(kinds)
        em, rng, ind = self.em, self.rng, "  "
        ifs = 0
        for kind in kinds:
            if kind == "local":
                name = LOCALS[len(self.locals)]
                em.assign(ind, name, False, self.expr(), True)
                self.locals.append(name)
            elif kind == "assign":
                if self.locals and rng.random() < 0.2:
                    em.assign(ind, rng.choice(self.locals), False, self.expr(), False)
                else:
                    em.assign(ind, rng.choice(SHAPED_GLOBALS), True, self.expr(), False)
            elif kind == "assert":
                em.assert_(ind, self.cond())
            elif kind == "havoc":
                em.havoc(ind, rng.choice(SHAPED_GLOBALS), True)
            elif kind == "skip":
                em.skip(ind)
            elif kind == "if":
                em.open_block(ind, "if", None if rng.random() < 0.5 else self.cond())
                self.simple(ind + "  ")
                ifs += 1
                if ifs % 2 == 0:
                    em.lines.append(f"{ind}}} else {{")
                    self.simple(ind + "  ")
                em.lines.append(f"{ind}}}")
            else:  # while
                em.open_block(ind, "while", None if rng.random() < 0.7 else self.cond())
                self.simple(ind + "  ")
                self.simple(ind + "  ")
                em.lines.append(f"{ind}}}")


def shaped_program(rng: random.Random, handlers: int, stmts: int) -> tuple[str, Expected]:
    """`handlers` handlers of `stmts` top-level statements, priorities 0-4."""
    expected = Expected()
    globals_ = [(name, rng.randint(-1, 2)) for name in SHAPED_GLOBALS]
    priorities = [i % 5 for i in range(handlers)]
    rng.shuffle(priorities)
    texts = []
    for i, priority in enumerate(priorities):
        em = _Emitter(f"h{i}", expected)
        _ShapedHandler(rng, em).body(stmts)
        texts.append(em.finish(priority))
    return _render(globals_, texts), expected
