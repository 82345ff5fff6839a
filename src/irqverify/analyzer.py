"""Iterative modular analysis of a whole program, one handler at a time.

Each round analyzes every handler in isolation against the interference
environment collected from the previous round. A handler's interference is
one interval hull per store class (variable, intercepted): the join of the
values its reachable stores of that variable write, as in Miné's
interference abstraction for prioritized tasks (LMCS 2012). The rejection
rules see a load only through its class (variable, covered) and a store only
through its class, so each load class admits the join of the other handlers'
class hulls that `feasibility.rejects` does not reject; that is where
priority awareness enters. At every node that reads a global, the incoming
state's value for that variable is joined with its load class's admitted
hull. Rounds repeat until no node state changes; after the configured number
of rounds the merge switches from join to widening so the outer loop always
terminates.

Each handler is flattened once per `analyze` call into a `HandlerPlan`:
predecessor and successor indices, loop heads, instructions, and each node's
load and store classes. Node states live in per-handler lists indexed like
the plan, and the `node_states` map is built once at the end.

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
    transfer,
    widen,
)
from .feasibility import FactBase, FeasibilityResult, extract_facts, must_not_read_from, rejects
from .ir import Assert, Instr, Program

#: One handler's interference: the hull of the values its reachable stores
#: write, per store class (variable, intercepted).
ClassHulls = dict[tuple[str, bool], Interval]

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


@dataclass(frozen=True)
class HandlerPlan:
    """One handler's graph as node indices, with each node's access classes.

    Built once per `analyze` call. Index i is the node `nodes[i]`. A read is
    kept as its load class (variable, covered) and a store as its store class
    (variable, intercepted), because the rejection rules see nothing else of
    either. With pruning off every flag is False and `priority` is None, so
    every class is admitted.
    """

    handler: str
    nodes: tuple[NodeId, ...]
    instr: tuple[Instr, ...]
    preds: tuple[tuple[int, ...], ...]
    succs: tuple[tuple[int, ...], ...]
    loop_head: tuple[bool, ...]
    reads: tuple[tuple[tuple[str, bool], ...], ...]  # per node, its load classes
    stores: tuple[tuple[int, tuple[str, bool]], ...]  # (store node, its store class)
    load_classes: tuple[tuple[str, bool], ...]  # every load class of the handler, once
    priority: dict[str, int] | None  # handler -> priority; None when pruning is off
    entry: int
    exit: int


def plan_handler(g: Cfg, feasibility: FeasibilityResult | None) -> HandlerPlan:
    """Flatten g and classify its global reads and writes; `feasibility` None disables pruning."""
    index = {n: i for i, n in enumerate(g.nodes)}
    reads = []
    stores = []
    for i, n in enumerate(g.nodes):
        ins = g.instr[n]
        reads.append(tuple((name, feasibility is not None and (n, name) in feasibility.covered_load)
                           for name in node_global_reads(ins)))
        name = node_global_write(ins)
        if name is not None:
            stores.append((i, (name, feasibility is not None
                               and (n, name) in feasibility.intercepted_store)))
    return HandlerPlan(
        handler=g.handler,
        nodes=g.nodes,
        instr=tuple(g.instr[n] for n in g.nodes),
        preds=tuple(tuple(index[p] for p in g.preds[n]) for n in g.nodes),
        succs=tuple(tuple(index[s] for s in g.succs[n]) for n in g.nodes),
        loop_head=tuple(n in g.loop_heads for n in g.nodes),
        reads=tuple(reads),
        stores=tuple(stores),
        load_classes=tuple(dict.fromkeys(cls for node_reads in reads for cls in node_reads)),
        priority=feasibility.priority if feasibility is not None else None,
        entry=index[g.entry],
        exit=index[g.exit],
    )


def analyze_local(plan: HandlerPlan, interference: dict[str, ClassHulls],
                  config: AnalysisConfig,
                  entry_state: AbstractState | None = None) -> list[AbstractState]:
    """Worklist fixpoint over one handler with a fixed interference environment.

    `interference` maps each handler to its store-class hulls; the plan's own
    handler is skipped. Each load class admits the join of the other handlers'
    class hulls that `rejects` does not reject, and every read of that class
    joins it into the incoming state (interval join is an exact, commutative
    hull, so this equals joining the admitted stores one by one). Widening
    engages at loop heads after `config.widen_delay` growths, and one
    descending pass afterwards recovers bounds the widening overshot.
    Deterministic: FIFO worklist seeded with the entry, successors in node
    order. Returns the state after each node, by node index.
    """
    priority = plan.priority
    admitted: dict[tuple[str, bool], Interval] = {}
    for name, covered in plan.load_classes:
        hull = None
        for store_handler, hulls in interference.items():
            if store_handler == plan.handler:
                continue
            for intercepted in (False, True):
                iv = hulls.get((name, intercepted))
                if iv is None or priority is not None and rejects(
                        priority, plan.handler, covered, store_handler, intercepted):
                    continue
                hull = iv if hull is None else hull.join(iv)
        if hull is not None:
            admitted[name, covered] = hull
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


def collect_interferences(plan: HandlerPlan, states: list[AbstractState]) -> ClassHulls:
    """One interval hull per store class (variable, intercepted) of this handler.

    A store contributes the written variable's interval in the state after
    it. Stores whose state is bottom are unreachable and contribute nothing;
    a class with no reachable store is absent.
    """
    out: ClassHulls = {}
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
    feas_active = feas if config.pruning else None

    global_names = program.global_names()
    init_state = AbstractState({name: Interval.const(value) for name, value in program.globals})

    plans = [plan_handler(g, feas_active) for g in cfgs]
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

        interference = {plan.handler: collect_interferences(plan, post)
                        for plan, post in zip(plans, states)}
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
    interference_sizes = {name: 0 for name in global_names}
    for plan, post in zip(plans, states):
        for ins, state in zip(plan.instr, post):
            if isinstance(ins, Assert):
                v = check_assert(ins.cond, state)
                verdicts.append(VerdictEntry(
                    assertion_id=ins.uid,
                    handler=plan.handler,
                    verdict="Proved" if v is Verdict.PROVED else "Warning",
                ))
        for i, (name, _intercepted) in plan.stores:
            if not post[i].is_bottom:
                interference_sizes[name] += 1

    report = AnalysisReport(
        verdicts=tuple(verdicts),
        iterations=iterations,
        interference_sizes=interference_sizes,
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
