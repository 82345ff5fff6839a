"""Iterative modular analysis of a whole program, one handler at a time.

Each round analyzes every handler in isolation against the interference
environment collected from the previous round: one interval hull per store
class (variable, handler, intercepted), the join of the values the class's
reachable stores write, as in Miné's interference abstraction for prioritized
tasks (LMCS 2012). Priority awareness enters through the class table of
`feasibility.must_not_read_from`: each load class (variable, handler,
covered) admits the other handlers' store classes it does not reject, and at
every node that reads a global the incoming value is joined with the hulls
its load class admits. Rounds repeat until no node state changes; after the
configured number of rounds the merge switches from join to widening so the
outer loop always terminates.

Each handler is flattened once per `analyze` call into a `HandlerPlan` of
node indices, read off its CFG and the class table. Node states live in
per-handler lists indexed like the plan, and the `node_states` map is built
once at the end.

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

from .cfg import Cfg, NodeId, build_all
from .domain import (
    AbstractState,
    Interval,
    Verdict,
    check_assert,
    join,
    transfer,
    widen,
)
from .feasibility import (
    FactBase,
    FeasibilityResult,
    LoadClass,
    StoreClass,
    extract_facts,
    must_not_read_from,
)
from .ir import Assert, Instr, Program

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


@dataclass(frozen=True)
class HandlerPlan:
    """One handler's graph as node indices, with each node's access classes.

    Built once per `analyze` call. Index i is the node `nodes[i]`. A read is
    kept as its load class and a store as its store class, because the
    rejection rules see nothing else of either. Class keys are the objects of
    the feasibility class table.
    """

    handler: str
    nodes: tuple[NodeId, ...]
    instr: tuple[Instr, ...]
    preds: tuple[tuple[int, ...], ...]
    succs: tuple[tuple[int, ...], ...]
    loop_head: tuple[bool, ...]
    reads: tuple[tuple[LoadClass, ...], ...]  # per node, its load classes
    stores: tuple[tuple[int, StoreClass], ...]  # (store node, its store class), by node index
    sources: dict[LoadClass, tuple[StoreClass, ...]]  # load class -> the store classes it admits
    entry: int
    exit: int


def plan_handler(g: Cfg, feasibility: FeasibilityResult, pruning: bool) -> HandlerPlan:
    """Flatten g and read its load classes, store sites and admitted sources off the class table.

    A load class admits every other handler's store class of its variable
    except, with `pruning`, the ones it must not read from.
    """
    index = {n: i for i, n in enumerate(g.nodes)}
    reads: list[list[LoadClass]] = [[] for _ in g.nodes]
    sources: dict[LoadClass, tuple[StoreClass, ...]] = {}
    for load_class, loads in feasibility.load_classes.items():
        v, handler, _ = load_class
        if handler != g.handler:
            continue
        for n in loads:
            reads[index[n]].append(load_class)
        rejected = feasibility.rejected[load_class] if pruning else ()
        sources[load_class] = tuple(
            store_class for store_class in feasibility.store_classes.get(v, {})
            if store_class[1] != handler and store_class not in rejected)
    stores = sorted((index[s], store_class) for classes in feasibility.store_classes.values()
                    for store_class, sites in classes.items() if store_class[1] == g.handler
                    for s in sites)
    return HandlerPlan(
        handler=g.handler,
        nodes=g.nodes,
        instr=tuple(g.instr[n] for n in g.nodes),
        preds=tuple(tuple(index[p] for p in g.preds[n]) for n in g.nodes),
        succs=tuple(tuple(index[s] for s in g.succs[n]) for n in g.nodes),
        loop_head=tuple(n in g.loop_heads for n in g.nodes),
        reads=tuple(map(tuple, reads)),
        stores=tuple(stores),
        sources=sources,
        entry=index[g.entry],
        exit=index[g.exit],
    )


def analyze_local(plan: HandlerPlan, interference: dict[StoreClass, Interval],
                  config: AnalysisConfig,
                  entry_state: AbstractState | None = None) -> list[AbstractState]:
    """Worklist fixpoint over one handler with a fixed interference environment.

    Every read joins into the incoming state the hull of the `interference`
    entries its load class admits (interval join is an exact, commutative
    hull, so this equals joining the admitted stores one by one). Widening
    engages at loop heads after `config.widen_delay` growths, and one
    descending pass afterwards recovers bounds the widening overshot.
    Deterministic: FIFO worklist seeded with the entry, successors in node
    order. Returns the state after each node, by node index.
    """
    admitted: dict[LoadClass, Interval] = {}
    for load_class, sources in plan.sources.items():
        hull = None
        for store_class in sources:
            iv = interference.get(store_class)
            if iv is not None:
                hull = iv if hull is None else hull.join(iv)
        if hull is not None:
            admitted[load_class] = hull
    joins = [tuple((cls[0], admitted[cls]) for cls in node_reads if cls in admitted)
             for node_reads in plan.reads]
    instr = plan.instr
    preds = plan.preds
    entry_index = plan.entry
    entry = entry_state if entry_state is not None else AbstractState.top()
    bottom = AbstractState.bottom()

    def output(i: int) -> AbstractState:
        """The state after node i, from its predecessors' current states."""
        if i == entry_index:
            s = entry
        else:
            ps = preds[i]  # every node but the entry has one
            s = post[ps[0]]
            for p in ps[1:]:
                s = join(s, post[p])
        if s.is_bottom:
            return s
        for name, incoming in joins[i]:
            s = s.set(name, s.get(name).join(incoming))
        return transfer(instr[i], s)

    post = [bottom] * len(plan.nodes)
    growths = [0] * len(plan.nodes)
    queued = [False] * len(plan.nodes)
    pending = deque([plan.entry])
    queued[plan.entry] = True
    while pending:
        i = pending.popleft()
        queued[i] = False
        old = post[i]
        out = join(old, output(i))
        if out is old:
            # The output adds nothing (join returns `old` exactly then): no
            # growth, and widening `old` by itself would not change it.
            continue
        if plan.loop_head[i]:
            growths[i] += 1
            if growths[i] > config.widen_delay:
                out = widen(old, out)
        post[i] = out
        for s in plan.succs[i]:
            if not queued[s]:
                pending.append(s)
                queued[s] = True

    # One descending pass: recompute every node from its predecessors without
    # widening. Starting from a post-fixpoint this only tightens bounds.
    for i in range(len(post)):
        post[i] = output(i)
    return post


def collect_interferences(plan: HandlerPlan, states: list[AbstractState]) -> dict[StoreClass, Interval]:
    """One interval hull per store class of this handler.

    A store contributes the written variable's interval in the state after
    it. Stores whose state is bottom are unreachable and contribute nothing;
    a class with no reachable store is absent.
    """
    out: dict[StoreClass, Interval] = {}
    for i, cls in plan.stores:
        state = states[i]
        if state.is_bottom:
            continue
        value = state.get(cls[0])
        out[cls] = value if cls not in out else out[cls].join(value)
    return out


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

    global_names = program.global_names()
    init_state = AbstractState({name: Interval.const(value) for name, value in program.globals})

    plans = [plan_handler(g, feas, config.pruning) for g in cfgs]
    bottom = AbstractState.bottom()
    states = [[bottom] * len(plan.nodes) for plan in plans]
    iterations = 0
    changed = True
    while changed:
        iterations += 1
        changed = False
        # Entry state and interference come from the previous round's states:
        # both are taken before any handler of this round updates its list.
        exit_join = bottom
        for plan, post in zip(plans, states):
            exit_join = join(exit_join, post[plan.exit].restrict(global_names))
        entry_state = join(init_state, exit_join)

        interference = {cls: hull for plan, post in zip(plans, states)
                        for cls, hull in collect_interferences(plan, post).items()}
        for plan, post in zip(plans, states):
            local = analyze_local(plan, interference, config, entry_state)
            for i, state in enumerate(local):
                old = post[i]
                new = join(old, state)
                if new is old:  # nothing new, so widening would not change it either
                    continue
                post[i] = widen(old, new) if iterations > config.max_outer else new
                changed = True

    verdicts: list[VerdictEntry] = []
    for plan, post in zip(plans, states):
        for ins, state in zip(plan.instr, post):
            if isinstance(ins, Assert):
                v = check_assert(ins.cond, state)
                verdicts.append(VerdictEntry(
                    assertion_id=ins.uid,
                    handler=plan.handler,
                    verdict="Proved" if v is Verdict.PROVED else "Warning",
                ))

    report = AnalysisReport(
        verdicts=tuple(verdicts),
        iterations=iterations,
        pairs_total=feas.pairs_total,
        pairs_pruned=feas.pairs_pruned,
        pruning_enabled=config.pruning,
    )
    node_states: NodeStates = {n: state for plan, post in zip(plans, states)
                               for n, state in zip(plan.nodes, post)}
    return AnalysisResult(report=report, node_states=node_states, facts=facts,
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
