"""Iterative modular analysis of a whole program, one handler at a time.

Each round analyzes every handler in isolation against the interference
environment collected from the previous round: the set of (store node,
written interval) pairs of every *other* handler, per global variable. At
every node that reads a global, the incoming state's value for that variable
is joined with the values of all interfering stores, minus the pairs the
feasibility analysis rejected, which is where priority awareness enters.
Rounds repeat until the per-node state map stops changing; after the
configured number of rounds the merge switches from join to widening so the
outer loop always terminates.

Handler entry states start from the declared global initializers joined with
every handler's exit state from the previous round (projected onto the
globals), which models arbitrary re-invocation sequences without an explicit
invocation count.

The per-node result maps each node to the abstract state *after* its
instruction, including the interference join at its reads; for an assertion
node that is exactly the state its condition is checked against.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

from .cfg import Cfg, NodeId, build_all, node_global_reads, node_global_write
from .domain import (
    AbstractState,
    Interval,
    Verdict,
    check_assert,
    join,
    leq,
    transfer,
    widen,
)
from .feasibility import FactBase, FeasibilityResult, extract_facts, must_not_read_from, rejects
from .ir import Assert, Program

#: Per-variable interference: ordered (store node, written value) pairs.
InterferenceMap = dict[str, tuple[tuple[NodeId, Interval], ...]]

NodeStates = dict[NodeId, AbstractState]


@dataclass(frozen=True)
class AnalysisConfig:
    pruning: bool = True
    widen_delay: int = 2
    max_outer: int = 10

    def __post_init__(self):
        if self.max_outer < 1:
            raise ValueError("max outer iterations must be at least 1")
        if self.widen_delay < 1:
            raise ValueError("widening delay must be at least 1")


@dataclass(frozen=True)
class VerdictEntry:
    assertion_id: str
    handler: str
    verdict: str  # "Proved" | "Warning"


@dataclass(frozen=True)
class AnalysisReport:
    verdicts: tuple[VerdictEntry, ...]
    iterations: int
    interference_sizes: dict[str, int]
    pairs_total: int
    pairs_pruned: int
    pruning_enabled: bool

    @property
    def pairs_ratio(self) -> float:
        return self.pairs_pruned / self.pairs_total if self.pairs_total else 0.0

    def to_json_dict(self) -> dict:
        return {
            "verdicts": [
                {"assertion_id": v.assertion_id, "handler": v.handler, "verdict": v.verdict}
                for v in self.verdicts
            ],
            "pairs": {
                "total": self.pairs_total,
                "pruned": self.pairs_pruned,
                "ratio": self.pairs_ratio,
            },
            "iterations": self.iterations,
            "pruning_enabled": self.pruning_enabled,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


@dataclass
class AnalysisResult:
    """Report plus the internals tests and the CLI drill into."""

    report: AnalysisReport
    node_states: NodeStates
    facts: FactBase
    feasibility: FeasibilityResult
    cfgs: list[Cfg] = field(default_factory=list)


def _admitted(g: Cfg, interference: InterferenceMap,
              feasibility: FeasibilityResult | None) -> dict[NodeId, tuple[tuple[str, Interval], ...]]:
    """Per node of g, each global it reads with the join of the values it admits.

    The rules see a load only through its class (handler, covered), and the
    interference is fixed for one `analyze_local` call, so the admitted hull
    is computed once per (variable, covered flag). Interval join is an exact,
    commutative hull, so entry order does not matter. Variables with no
    admitted store are left out.
    """
    hulls: dict[tuple[str, bool], Interval | None] = {}
    out: dict[NodeId, tuple[tuple[str, Interval], ...]] = {}
    for n in g.nodes:
        joins = []
        for name in node_global_reads(g.instr[n]):
            covered = feasibility is not None and (n, name) in feasibility.covered_load
            if (name, covered) not in hulls:
                incoming = None
                for store_node, value in interference.get(name, ()):
                    if feasibility is not None and rejects(
                            feasibility.priority, g.handler, covered, store_node.handler,
                            (store_node, name) in feasibility.intercepted_store):
                        continue
                    incoming = value if incoming is None else incoming.join(value)
                hulls[name, covered] = incoming
            if hulls[name, covered] is not None:
                joins.append((name, hulls[name, covered]))
        if joins:
            out[n] = tuple(joins)
    return out


def _node_output(g: Cfg, n: NodeId, pre: AbstractState,
                 admitted: dict[NodeId, tuple[tuple[str, Interval], ...]]) -> AbstractState:
    """Apply node n to its incoming state, joining admitted interference at its reads."""
    if pre.is_bottom:
        return pre
    s = pre
    for name, incoming in admitted.get(n, ()):
        s = s.set(name, s.get(name).join(incoming))
    return transfer(g.instr[n], s)


def analyze_local(g: Cfg, interference: InterferenceMap,
                  feasibility: FeasibilityResult | None,
                  config: AnalysisConfig,
                  entry_state: AbstractState | None = None) -> NodeStates:
    """Worklist fixpoint over one handler with a fixed interference environment.

    `feasibility` of None disables pruning: every interfering store is joined
    at every read of its variable. Widening engages at loop heads after
    `config.widen_delay` growths, and one descending pass afterwards recovers
    bounds the widening overshot. Deterministic: FIFO worklist seeded with the
    entry, successors in node order.
    """
    admitted = _admitted(g, interference, feasibility)
    entry = entry_state if entry_state is not None else AbstractState.top()
    post: NodeStates = {n: AbstractState.bottom() for n in g.nodes}
    growths: dict[NodeId, int] = {}

    pending = deque([g.entry])
    queued = {g.entry}
    while pending:
        n = pending.popleft()
        queued.discard(n)
        if n == g.entry:
            pre = entry
        else:
            pre = AbstractState.bottom()
            for p in g.preds[n]:
                pre = join(pre, post[p])
        out = _node_output(g, n, pre, admitted)
        if n in g.loop_heads:
            growths[n] = growths.get(n, 0)
            if not leq(out, post[n]):
                growths[n] += 1
            if growths[n] > config.widen_delay:
                out = widen(post[n], join(post[n], out))
            else:
                out = join(post[n], out)
        else:
            out = join(post[n], out)
        if out != post[n]:
            post[n] = out
            for s in g.succs[n]:
                if s not in queued:
                    pending.append(s)
                    queued.add(s)

    # One descending pass: recompute every node from its predecessors without
    # widening. Starting from a post-fixpoint this only tightens bounds.
    for n in g.nodes:
        if n == g.entry:
            pre = entry
        else:
            pre = AbstractState.bottom()
            for p in g.preds[n]:
                pre = join(pre, post[p])
        post[n] = _node_output(g, n, pre, admitted)
    return post


def collect_interferences(g: Cfg, states: NodeStates) -> InterferenceMap:
    """(store node, stored value) pairs per global written by this handler.

    The value is the written variable's interval in the state after the store.
    Stores whose state is bottom are unreachable and contribute nothing.
    """
    out: dict[str, list[tuple[NodeId, Interval]]] = {}
    for n in g.nodes:
        name = node_global_write(g.instr[n])
        if name is None:
            continue
        state = states.get(n, AbstractState.bottom())
        if state.is_bottom:
            continue
        out.setdefault(name, []).append((n, state.get(name)))
    return {name: tuple(sorted(pairs, key=lambda p: p[0])) for name, pairs in sorted(out.items())}


def _merge_interferences(maps: list[InterferenceMap]) -> InterferenceMap:
    merged: dict[str, list[tuple[NodeId, Interval]]] = {}
    for m in maps:
        for name, pairs in m.items():
            merged.setdefault(name, []).extend(pairs)
    return {name: tuple(sorted(pairs, key=lambda p: p[0])) for name, pairs in sorted(merged.items())}


def prepare(program: Program) -> tuple[list[Cfg], FactBase, FeasibilityResult]:
    """Graphs, facts and feasibility classes: everything before the fixpoint."""
    cfgs, infos = build_all(program)
    facts = extract_facts(program, cfgs, infos)
    return cfgs, facts, must_not_read_from(facts)


def analyze(program: Program, config: AnalysisConfig | None = None,
            prepared: tuple[list[Cfg], FactBase, FeasibilityResult] | None = None) -> AnalysisResult:
    """Run the full modular analysis and keep the internals around.

    `prepared` is `prepare(program)`'s result, for callers that analyze one
    program more than once; it is computed here when omitted.
    """
    config = config or AnalysisConfig()
    cfgs, facts, feas = prepared if prepared is not None else prepare(program)
    feas_active = feas if config.pruning else None

    global_names = program.global_names()
    init_state = AbstractState({name: Interval.const(value) for name, value in program.globals})

    states: NodeStates = {n: AbstractState.bottom() for g in cfgs for n in g.nodes}
    iterations = 0
    while True:
        iterations += 1
        prev = dict(states)
        exit_join = AbstractState.bottom()
        for g in cfgs:
            exit_join = join(exit_join, prev[g.exit].restrict(global_names))
        entry_state = join(init_state, exit_join)

        per_handler = {g.handler: collect_interferences(g, prev) for g in cfgs}
        for g in cfgs:
            interference = _merge_interferences(
                [m for name, m in per_handler.items() if name != g.handler])
            local = analyze_local(g, interference, feas_active, config, entry_state)
            for n, state in local.items():
                if iterations > config.max_outer:
                    states[n] = widen(states[n], join(states[n], state))
                else:
                    states[n] = join(states[n], state)
        if states == prev:
            break

    verdicts: list[VerdictEntry] = []
    for g in cfgs:
        for n in g.nodes:
            ins = g.instr[n]
            if isinstance(ins, Assert):
                v = check_assert(ins.cond, states[n])
                verdicts.append(VerdictEntry(
                    assertion_id=ins.uid,
                    handler=g.handler,
                    verdict="Proved" if v is Verdict.PROVED else "Warning",
                ))

    interference_sizes = {name: 0 for name in global_names}
    for g in cfgs:
        for name, pairs in collect_interferences(g, states).items():
            interference_sizes[name] += len(pairs)

    report = AnalysisReport(
        verdicts=tuple(verdicts),
        iterations=iterations,
        interference_sizes=interference_sizes,
        pairs_total=feas.pairs_total,
        pairs_pruned=feas.pairs_pruned,
        pruning_enabled=config.pruning,
    )
    return AnalysisResult(report=report, node_states=states, facts=facts,
                          feasibility=feas, cfgs=cfgs)


def analyze_program(program: Program, config: AnalysisConfig | None = None) -> AnalysisReport:
    """Analyze and report verdicts plus pruning statistics."""
    return analyze(program, config).report


def assert_nodes(cfgs: list[Cfg]) -> dict[str, NodeId]:
    """Assertion id to node lookup across a program's graphs."""
    out: dict[str, NodeId] = {}
    for g in cfgs:
        for n in g.nodes:
            ins = g.instr[n]
            if isinstance(ins, Assert):
                out[ins.uid] = n
    return out
