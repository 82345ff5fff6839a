"""Control-flow graphs for handler bodies, with dominance and access facts.

Each handler lowers to a graph carrying one instruction per node. Branches
become diamonds whose arms start with `assume` nodes (the negated condition on
the else arm); loops become a skip "head" node with an assume-guarded body
returning to the head over a back edge. Synthetic skip nodes serve as the
entry, the single exit, and branch join points. Nodes are numbered in the
order they are created, and the graph names them by that index. Dominance and
access facts are lists by the same index.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable, NamedTuple

from .ir import (
    Assert,
    Assign,
    Assume,
    Handler,
    Havoc,
    If,
    Instr,
    Program,
    Skip,
    Stmt,
    While,
    format_instr,
    instr_reads,
    instr_write,
    negate_cond,
)


class NodeId(NamedTuple):
    """Globally unique node identity: handler name plus per-handler index."""

    handler: str
    index: int

    def __str__(self) -> str:
        return f"{self.handler}:{self.index}"


class Cfg(NamedTuple):
    """One handler's control-flow graph, indexed by node.

    Node i is `nodes[i]`, and `instr`, `succs` and `preds` are indexed the same
    way, with each node's successors and predecessors ascending. The entry is
    node 0 and the single exit is the last node. Loop heads, back edges and
    loop exits name nodes by index too.
    """

    handler: str
    nodes: tuple[NodeId, ...]
    instr: tuple[Instr, ...]
    succs: tuple[tuple[int, ...], ...]
    preds: tuple[tuple[int, ...], ...]
    loop_heads: frozenset[int]
    back_edges: frozenset[tuple[int, int]]
    loop_exits: dict[int, int]  # exit-arm assume node -> its loop head

    @property
    def entry(self) -> NodeId:
        return self.nodes[0]

    @property
    def exit(self) -> NodeId:
        return self.nodes[-1]


class AccessInfo(NamedTuple):
    """Each node's loads and store of declared globals, by node index."""

    loads: tuple[tuple[str, ...], ...]  # the globals node i reads, in first-read order
    store: tuple[str | None, ...]  # the global node i writes, if any


class _Builder:
    def __init__(self):
        self.instr: list[Instr] = []
        self.edges: set[tuple[int, int]] = set()
        self.loop_heads: set[int] = set()
        self.back_edges: set[tuple[int, int]] = set()
        self.loop_exits: dict[int, int] = {}

    def add(self, ins: Instr) -> int:
        self.instr.append(ins)
        return len(self.instr) - 1

    def connect(self, sources: Iterable[int], target: int) -> None:
        for s in sources:
            self.edges.add((s, target))

    def lower_seq(self, stmts: tuple[Stmt, ...], tails: list[int]) -> list[int]:
        for st in stmts:
            tails = self.lower(st, tails)
        return tails

    def lower(self, st: Stmt, tails: list[int]) -> list[int]:
        if isinstance(st, (Assign, Havoc, Assert, Skip, Assume)):
            n = self.add(st)
            self.connect(tails, n)
            return [n]
        if isinstance(st, If):
            arm_true = self.add(Assume(st.cond))
            arm_false = self.add(Assume(negate_cond(st.cond)))
            self.connect(tails, arm_true)
            self.connect(tails, arm_false)
            t_tails = self.lower_seq(st.then, [arm_true])
            f_tails = self.lower_seq(st.orelse, [arm_false])
            join = self.add(Skip())
            self.connect(t_tails + f_tails, join)
            return [join]
        if isinstance(st, While):
            head = self.add(Skip())
            self.loop_heads.add(head)
            self.connect(tails, head)
            arm_true = self.add(Assume(st.cond))
            arm_false = self.add(Assume(negate_cond(st.cond)))
            self.connect([head], arm_true)
            self.connect([head], arm_false)
            self.loop_exits[arm_false] = head
            body_tails = self.lower_seq(st.body, [arm_true])
            for t in body_tails:
                self.edges.add((t, head))
                self.back_edges.add((t, head))
            return [arm_false]
        raise TypeError(f"cannot lower {st!r}")


def build_cfg(handler: Handler) -> Cfg:
    """Lower a handler body to its control-flow graph.

    Adds a synthetic entry and a synthetic single exit; every node is
    reachable from the entry and reaches the exit.
    """
    b = _Builder()
    entry = b.add(Skip())
    tails = b.lower_seq(handler.body, [entry])
    b.connect(tails, b.add(Skip()))

    succs: list[list[int]] = [[] for _ in b.instr]
    preds: list[list[int]] = [[] for _ in b.instr]
    for s, t in sorted(b.edges):
        succs[s].append(t)
        preds[t].append(s)
    return Cfg(
        handler=handler.name,
        nodes=tuple(NodeId(handler.name, i) for i in range(len(b.instr))),
        instr=tuple(b.instr),
        succs=tuple(map(tuple, succs)),
        preds=tuple(map(tuple, preds)),
        loop_heads=frozenset(b.loop_heads),
        back_edges=frozenset(b.back_edges),
        loop_exits=b.loop_exits,
    )


def _dominance(order: range, edges_into: tuple[tuple[int, ...], ...]) -> list[int]:
    """Iterative dataflow dom(n) = {n} | AND of dom(edges_into[n]), rooted at order[0].

    Bit i of a mask is node i.
    """
    root = order[0]
    dom = [(1 << len(order)) - 1] * len(order)
    dom[root] = 1 << root
    changed = True
    while changed:
        changed = False
        for n in order[1:]:
            incoming = [dom[p] for p in edges_into[n]]
            new = 1 << n | (reduce(int.__and__, incoming) if incoming else 0)
            if new != dom[n]:
                dom[n] = new
                changed = True
    return dom


def dominators(g: Cfg) -> list[int]:
    """Per node b, by index, the mask of every a on all entry-to-b paths; reflexive."""
    return _dominance(range(len(g.nodes)), g.preds)


def post_dominators(g: Cfg) -> list[int]:
    """Dual of `dominators` over reversed edges, rooted at the synthetic exit."""
    return _dominance(range(len(g.nodes) - 1, -1, -1), g.succs)


def node_global_reads(ins: Instr) -> tuple[str, ...]:
    seen: list[str] = []
    for v in instr_reads(ins):
        if v.is_global and v.name not in seen:
            seen.append(v.name)
    return tuple(seen)


def node_global_write(ins: Instr) -> str | None:
    w = instr_write(ins)
    return w.name if w is not None and w.is_global else None


def access_info(g: Cfg, program: Program) -> AccessInfo:
    """Classify every node's reads and writes of the program's globals.

    A compound instruction such as `x = x + 1` contributes both a load and a
    store of x at the same node. Assertions and branch conditions load every
    global they mention.
    """
    declared = set(program.global_names())
    return AccessInfo(
        loads=tuple(tuple(v for v in node_global_reads(ins) if v in declared) for ins in g.instr),
        store=tuple(w if w in declared else None for w in map(node_global_write, g.instr)),
    )


def build_all(program: Program) -> tuple[list[Cfg], list[AccessInfo]]:
    cfgs = [build_cfg(h) for h in program.handlers]
    infos = [access_info(g, program) for g in cfgs]
    return cfgs, infos


def transposed(masks: list[int]) -> list[list[int]]:
    """Row a lists, in index order, the nodes whose mask holds a."""
    rows: list[list[int]] = [[] for _ in masks]
    for b, mask in enumerate(masks):
        while mask:
            low = mask & -mask
            rows[low.bit_length() - 1].append(b)
            mask ^= low
    return rows


def dump_cfg(g: Cfg, dom: list[int], postdom: list[int]) -> list[str]:
    """Line-oriented debug rendering of the graph and of the dominance masks it is
    given: `dom a b` for every a in b's mask, ordered by a and then b."""
    names = [str(n) for n in g.nodes]
    lines = [f"cfg {g.handler} entry={names[0]} exit={names[-1]}"]
    for i, name in enumerate(names):
        flags = " loop-head" if i in g.loop_heads else ""
        lines.append(f"node {name} {format_instr(g.instr[i])}{flags}")
    for s, targets in enumerate(g.succs):
        for t in targets:
            kind = "back" if (s, t) in g.back_edges else "edge"
            lines.append(f"{kind} {names[s]} -> {names[t]}")
    for kind, masks in (("dom", dom), ("postdom", postdom)):
        lines += [f"{kind} {names[a]} {names[b]}" for a, row in enumerate(transposed(masks)) for b in row]
    return lines
