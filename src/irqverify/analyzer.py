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

`prepare` lowers each handler to its index-based graph, extracts one
`feasibility.HandlerFacts` record per handler and builds the class table from
them. The table groups its classes by handler and names sites by node index,
so the fixpoint reads each handler's part of it as it is: `analyze_local`
joins at the sites of each load class, `collect_interferences` reads the
sites of each store class, and `admitted_hulls` reads per load class the store
classes it admits. Node states live in per-handler lists indexed like the
graph, and the result holds those lists as they are. A
handler's local fixpoint is a function of its entry state and admitted hulls,
so `analyze` looks each one up in a memo first, which `compare` shares between
its pruned and unpruned analyses. Within a local fixpoint, widening at loop
heads is followed by one descending pass that recomputes only the nodes
where widening overshot the join and the forward successors of nodes it
changes.

Handler entry states start from the declared global initializers joined with
every handler's exit state from the previous round (projected onto the
globals), which models arbitrary re-invocation sequences without an explicit
invocation count.

The per-node result maps each node to the abstract state *after* its
instruction, including the interference join at its reads; for an assertion
node that is exactly the state its condition is checked against.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .cfg import Cfg, build_all
from .domain import AbstractState, Interval, check_assert, join, transfer, widen
from .feasibility import (
    FeasibilityResult,
    HandlerFacts,
    LoadClass,
    StoreClass,
    extract_facts,
    must_not_read_from,
)
from .ir import Assert, Program

#: (handler, widening delay, entry state, admitted hulls) -> `analyze_local`'s states
LocalMemo = dict[tuple, list[AbstractState]]


class AnalysisConfig(NamedTuple("AnalysisConfig", [("pruning", bool), ("widen_delay", int),
                                                     ("max_outer", int)])):
    __slots__ = ()

    def __new__(cls, pruning: bool = True, widen_delay: int = 2, max_outer: int = 10):
        if max_outer < 1:
            raise ValueError("max outer iterations must be at least 1")
        if widen_delay < 1:
            raise ValueError("widening delay must be at least 1")
        return tuple.__new__(cls, (pruning, widen_delay, max_outer))


class VerdictEntry(NamedTuple):
    assertion_id: str
    handler: str
    verdict: str  # "Proved" | "Warning"


class AnalysisReport(NamedTuple):
    verdicts: tuple[VerdictEntry, ...]
    iterations: int
    pairs_total: int
    pairs_pruned: int
    pruning_enabled: bool

    @property
    def pairs_ratio(self) -> float:
        return self.pairs_pruned / self.pairs_total if self.pairs_total else 0.0


class AnalysisResult(NamedTuple):
    """Report plus the internals tests and the CLI drill into."""

    report: AnalysisReport
    facts: list[HandlerFacts]
    feasibility: FeasibilityResult
    states: list[list[AbstractState]]  # per handler, the state after each node, by node index


def admitted_hulls(load_classes: dict[LoadClass, list[int]], sources: dict[LoadClass, list[StoreClass]],
                   interference: dict[StoreClass, Interval]) -> dict[LoadClass, Interval]:
    """The hull of the `interference` entries each of `load_classes` reads from `sources`.

    Interval join is an exact, commutative hull, so joining this hull at a
    read equals joining the admitted stores one by one. A load class that
    admits no present store class is absent.
    """
    admitted: dict[LoadClass, Interval] = {}
    for load_class in load_classes:
        hull = None
        for store_class in sources[load_class]:
            iv = interference.get(store_class)
            if iv is not None:
                hull = iv if hull is None else hull.join(iv)
        if hull is not None:
            admitted[load_class] = hull
    return admitted


def analyze_local(g: Cfg, load_classes: dict[LoadClass, list[int]],
                  admitted: dict[LoadClass, Interval], config: AnalysisConfig,
                  entry_state: AbstractState | None = None) -> list[AbstractState]:
    """Worklist fixpoint over one handler with a fixed interference environment.

    `load_classes` is g's part of the class table. Every site of a load class
    joins into the incoming state the class's `admitted` hull (see
    `admitted_hulls`). Widening engages at loop heads after
    `config.widen_delay` growths, and one descending pass afterwards recovers
    bounds the widening overshot. That pass equals recomputing every node in
    index order, but it transfers only the nodes where widening returned more
    than the join, and the forward successors of nodes it changed; on a
    handler without loops it transfers nothing. Deterministic: FIFO worklist
    seeded with the entry, node 0, and successors in node order. Returns the
    state after each node, by node index.
    """
    joins: list[list[tuple[str, Interval]]] = [[] for _ in g.nodes]
    for cls, sites in load_classes.items():
        hull = admitted.get(cls)
        if hull is not None:
            for i in sites:
                joins[i].append((cls[0], hull))
    instr, preds, succs, loop_heads = g.instr, g.preds, g.succs, g.loop_heads
    entry = entry_state if entry_state is not None else AbstractState.top()
    bottom = AbstractState.bottom()

    def output(i: int) -> AbstractState:
        """The state after node i, from its predecessors' current states."""
        if i == 0:
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

    post = [bottom] * len(instr)
    growths = [0] * len(instr)
    queued = [False] * len(instr)
    stale = [False] * len(instr)  # widening overshot here: post[i] may exceed output(i)
    pending = deque([0])
    queued[0] = True
    while pending:
        i = pending.popleft()
        queued[i] = False
        old = post[i]
        out = join(old, output(i))
        if out is old:
            # The output adds nothing (join returns `old` exactly then): no
            # growth, and widening `old` by itself would not change it.
            continue
        if i in loop_heads:
            growths[i] += 1
            if growths[i] > config.widen_delay:
                widened = widen(old, out)
                if widened != out:
                    stale[i] = True
                out = widened
        post[i] = out
        for s in succs[i]:
            if not queued[s]:
                pending.append(s)
                queued[s] = True

    # One descending pass in index order: every node takes output(i) from its
    # predecessors without widening, which from a post-fixpoint only tightens
    # bounds. States only grew above, and transfer and the joins are
    # monotone, so a node where widening never overshot already holds
    # output(i) from its final predecessors. Only a stale node, or a forward
    # successor of a node this pass changed, can differ; the rest are skipped.
    for i in range(len(post)):
        if stale[i]:
            new = output(i)
            if new != post[i]:
                post[i] = new
                for t in succs[i]:
                    if t > i:
                        stale[t] = True
    return post


def collect_interferences(store_classes: dict[StoreClass, list[int]],
                          states: list[AbstractState]) -> dict[StoreClass, Interval]:
    """One interval hull per store class of one handler, from its part of the class table.

    A store contributes the written variable's interval in the state after
    it. Stores whose state is bottom are unreachable and contribute nothing;
    a class with no reachable store is absent.
    """
    out: dict[StoreClass, Interval] = {}
    for cls, sites in store_classes.items():
        hull = None
        for i in sites:
            state = states[i]
            if not state.is_bottom:
                value = state.get(cls[0])
                hull = value if hull is None else hull.join(value)
        if hull is not None:
            out[cls] = hull
    return out


def prepare(program: Program) -> tuple[list[HandlerFacts], FeasibilityResult]:
    """Facts and feasibility classes: everything before the fixpoint.

    Each `HandlerFacts` record holds its handler's graph.
    """
    cfgs, infos = build_all(program)
    facts = extract_facts(program, cfgs, infos)
    return facts, must_not_read_from(facts)


def analyze(program: Program, config: AnalysisConfig | None = None,
            prepared: tuple[list[HandlerFacts], FeasibilityResult] | None = None,
            memo: LocalMemo | None = None) -> AnalysisResult:
    """Run the full modular analysis and keep the internals around.

    `prepared` is `prepare(program)`'s result, for callers that analyze one
    program more than once; it is computed here when omitted.

    Every `analyze_local` call is looked up first in `memo`, keyed by handler,
    widening delay, entry state and admitted hulls. Those are all the call
    reads: the handler's graph and load classes depend only on the handler and
    `prepared`, not on `config.pruning`, which enters only through which hulls
    are admitted. The fixpoint is a deterministic function of values, so a hit
    returns states equal to the ones a new call would compute. A memo
    therefore serves every analysis of one program and its `prepared`, with or
    without pruning, and no other program; a fresh one is made when omitted.
    """
    config = config or AnalysisConfig()
    if memo is None:
        memo = {}
    facts, feas = prepared if prepared is not None else prepare(program)

    global_names = program.global_names()
    init_state = AbstractState({name: Interval.const(value) for name, value in program.globals})

    # A load class admits every other handler's store class of its variable
    # except, with pruning, the ones it must not read from.
    sources = feas.admitted if config.pruning else {
        cls: ok + feas.rejected[cls] for cls, ok in feas.admitted.items()}
    bottom = AbstractState.bottom()
    states = [[bottom] * len(f.graph.nodes) for f in facts]
    merged: list[list[AbstractState] | None] = [None] * len(facts)  # each handler's last merged `local`
    iterations = 0
    changed = True
    while changed:
        iterations += 1
        changed = False
        # Entry state and interference come from the previous round's states:
        # both are taken before any handler of this round updates its list.
        exit_join = bottom
        for post in states:  # the exit is each graph's last node
            exit_join = join(exit_join, post[-1].restrict(global_names))
        entry_state = join(init_state, exit_join)

        interference = {cls: hull for f, post in zip(facts, states)
                        for cls, hull in collect_interferences(feas.store_classes[f.handler], post).items()}
        for h, (f, post) in enumerate(zip(facts, states)):
            load_classes = feas.load_classes[f.handler]
            admitted = admitted_hulls(load_classes, sources, interference)
            key = (f.handler, config.widen_delay, entry_state, tuple(admitted.items()))
            local = memo.get(key)
            if local is None:
                local = memo[key] = analyze_local(f.graph, load_classes, admitted, config, entry_state)
            elif local is merged[h]:
                continue  # last round's key again: every post[i] already covers local[i]
            merged[h] = local
            for i, state in enumerate(local):
                old = post[i]
                new = join(old, state)
                if new is old:  # nothing new, so widening would not change it either
                    continue
                post[i] = widen(old, new) if iterations > config.max_outer else new
                changed = True

    verdicts: list[VerdictEntry] = []
    for f, post in zip(facts, states):
        for ins, state in zip(f.graph.instr, post):
            if isinstance(ins, Assert):
                verdict = "Proved" if check_assert(ins.cond, state) else "Warning"
                verdicts.append(VerdictEntry(ins.uid, f.handler, verdict))
    report = AnalysisReport(tuple(verdicts), iterations, feas.pairs_total, feas.pairs_pruned, config.pruning)
    return AnalysisResult(report, facts, feas, states)
