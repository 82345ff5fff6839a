"""The NodeId-keyed lowering that the index-based `Cfg` replaced, kept as a test reference.

`Cfg`, `_Builder` and `build_cfg` below are a verbatim copy of the lowering
as it was when each graph held its instructions, successors and
predecessors in dicts keyed by `NodeId`, plus an `edges` frozenset;
`_dominance`, `dominators`, `post_dominators` and `dump_cfg` are the copies
that read such a graph. Only the imports differ. Nothing here is shared with
`irqverify.cfg` beyond `NodeId`, so the reference tests that build their
graphs with it check the package against an independent lowering, and
`test_cfg_reference.py` checks that the two lowerings give the same graphs
and the same `dump_cfg` text.

`dominance_pairs`, which expands dominance masks into explicit pairs, is the
tests' helper for reading either lowering's masks as a relation; `mask_pairs`
reads the package's masks, which are listed by node index, through it.

`AccessInfo` and `access_info` are a verbatim copy of the access
classification as it was before facts became per-handler records: one
frozenset of (node, variable) loads and one of stores per graph. It reads a
graph of the package's lowering, which its annotation names.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable

from irqverify import cfg as package_cfg
from irqverify.cfg import NodeId, node_global_reads, node_global_write
from irqverify.ir import (
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
    negate_cond,
)


def dominance_pairs(masks: dict[NodeId, int]) -> frozenset[tuple[NodeId, NodeId]]:
    """Expand per-node masks into the pairs (a, b) where a is in b's mask."""
    return frozenset((NodeId(b.handler, i), b) for b, mask in masks.items()
                     for i in range(mask.bit_length()) if mask >> i & 1)


def mask_pairs(g: package_cfg.Cfg, masks: list[int]) -> frozenset[tuple[NodeId, NodeId]]:
    """`dominance_pairs` of masks listed by node index of the package's graph g."""
    return dominance_pairs(dict(zip(g.nodes, masks)))


@dataclass(frozen=True)
class AccessInfo:
    """Per-node reads/writes of global variables."""

    loads: frozenset[tuple[NodeId, str]]
    stores: frozenset[tuple[NodeId, str]]


def access_info(g: package_cfg.Cfg, program: Program) -> AccessInfo:
    """Classify every node's reads and writes of the program's globals.

    A compound instruction such as `x = x + 1` contributes both a load and a
    store of x at the same node. Assertions and branch conditions load every
    global they mention.
    """
    declared = set(program.global_names())
    loads: set[tuple[NodeId, str]] = set()
    stores: set[tuple[NodeId, str]] = set()
    for n, ins in zip(g.nodes, g.instr):
        for name in node_global_reads(ins):
            if name in declared:
                loads.add((n, name))
        w = node_global_write(ins)
        if w is not None and w in declared:
            stores.add((n, w))
    return AccessInfo(loads=frozenset(loads), stores=frozenset(stores))


@dataclass(frozen=True)
class Cfg:
    handler: str
    entry: NodeId
    exit: NodeId
    nodes: tuple[NodeId, ...]  # creation order: entry first, exit last
    edges: frozenset[tuple[NodeId, NodeId]]
    instr: dict[NodeId, Instr]
    loop_heads: frozenset[NodeId]
    back_edges: frozenset[tuple[NodeId, NodeId]]
    loop_exits: dict[NodeId, NodeId]  # exit-arm assume node -> its loop head
    succs: dict[NodeId, tuple[NodeId, ...]]
    preds: dict[NodeId, tuple[NodeId, ...]]


class _Builder:
    def __init__(self, handler: str):
        self.handler = handler
        self.instr: dict[NodeId, Instr] = {}
        self.edges: set[tuple[NodeId, NodeId]] = set()
        self.loop_heads: set[NodeId] = set()
        self.back_edges: set[tuple[NodeId, NodeId]] = set()
        self.loop_exits: dict[NodeId, NodeId] = {}

    def add(self, ins: Instr) -> NodeId:
        n = NodeId(self.handler, len(self.instr))
        self.instr[n] = ins
        return n

    def connect(self, sources: Iterable[NodeId], target: NodeId) -> None:
        for s in sources:
            self.edges.add((s, target))

    def lower_seq(self, stmts: tuple[Stmt, ...], tails: list[NodeId]) -> list[NodeId]:
        for st in stmts:
            tails = self.lower(st, tails)
        return tails

    def lower(self, st: Stmt, tails: list[NodeId]) -> list[NodeId]:
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
    b = _Builder(handler.name)
    entry = b.add(Skip())
    tails = b.lower_seq(handler.body, [entry])
    exit_ = b.add(Skip())
    b.connect(tails, exit_)

    nodes = tuple(sorted(b.instr, key=lambda n: n.index))
    succs: dict[NodeId, tuple[NodeId, ...]] = {n: () for n in nodes}
    preds: dict[NodeId, tuple[NodeId, ...]] = {n: () for n in nodes}
    for s, t in sorted(b.edges):
        succs[s] += (t,)
        preds[t] += (s,)
    return Cfg(
        handler=handler.name,
        entry=entry,
        exit=exit_,
        nodes=nodes,
        edges=frozenset(b.edges),
        instr=b.instr,
        loop_heads=frozenset(b.loop_heads),
        back_edges=frozenset(b.back_edges),
        loop_exits=dict(b.loop_exits),
        succs=succs,
        preds=preds,
    )


def _dominance(order: tuple[NodeId, ...], root: NodeId,
               edges_into: dict[NodeId, tuple[NodeId, ...]]) -> dict[NodeId, int]:
    """Iterative dataflow dom(n) = {n} | AND of dom(preds); bit i is the node of index i."""
    every = (1 << len(order)) - 1
    dom = {n: (1 << n.index if n == root else every) for n in order}
    changed = True
    while changed:
        changed = False
        for n in order:
            if n == root:
                continue
            incoming = [dom[p] for p in edges_into[n]]
            new = 1 << n.index | (reduce(int.__and__, incoming) if incoming else 0)
            if new != dom[n]:
                dom[n] = new
                changed = True
    return dom


def dominators(g: Cfg) -> dict[NodeId, int]:
    """Per node b, the mask of every a on all entry-to-b paths; reflexive."""
    return _dominance(g.nodes, g.entry, g.preds)


def post_dominators(g: Cfg) -> dict[NodeId, int]:
    """Dual of `dominators` over reversed edges, rooted at the synthetic exit."""
    return _dominance(g.nodes[::-1], g.exit, g.succs)


def dump_cfg(g: Cfg) -> list[str]:
    """Line-oriented debug rendering of the graph and its dominance relations."""
    from irqverify.ir import format_instr

    lines = [f"cfg {g.handler} entry={g.entry} exit={g.exit}"]
    for n in g.nodes:
        flags = " loop-head" if n in g.loop_heads else ""
        lines.append(f"node {n} {format_instr(g.instr[n])}{flags}")
    for s, t in sorted(g.edges):
        kind = "back" if (s, t) in g.back_edges else "edge"
        lines.append(f"{kind} {s} -> {t}")
    for a, b in sorted(dominance_pairs(dominators(g))):
        lines.append(f"dom {a} {b}")
    for a, b in sorted(dominance_pairs(post_dominators(g))):
        lines.append(f"postdom {a} {b}")
    return lines
