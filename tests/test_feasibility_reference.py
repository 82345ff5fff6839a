"""Class-level MustNotReadFrom and the class-hull fixpoint against the per-pair originals.

The reference functions below are the implementation that class-level
evaluation replaced: the rules applied to every materialized cross-handler
(load, store, variable) triple, and the whole-program fixpoint that passed
every (store node, value) pair of the other handlers to a local analysis
whose `_node_output` scans every interference entry with a set lookup per
entry at every visit. `reference_analyze` is the outer loop of `analyze`
with its `collect_interferences` and `_merge_interferences`, reading
rejected triples instead of load and store classes. They are kept as test
oracles with their logic unchanged; only names, docstrings, the rule loop's
return value, the reference report's pair counts (taken from the
reference rules) and its reading of the boolean `check_assert` differ, and
`reference_analyze` builds its graphs with the NodeId-keyed lowering of
`cfg_reference`. The rules read a `ReferenceFacts` record: the (node,
variable) load and store sets of the old `cfg_reference.access_info`, and the
covered loads and intercepted stores read off the class flags of the
package's class table (`test_dominance_reference.py` checks those flags
against all-pairs scans). On the corpus and progen seeds 0-499 the rejected
triples and the pair counts must be the same; on the corpus, seeds 0-499 and
20 eight-handler programs `analyze` must give the same node states and
report, with pruning on and off, and with widening from the second round.
"""

import random
from collections import deque
from dataclasses import dataclass

import pytest

from irqverify import FeasibilityResult, must_not_read_from, rejected_pairs
from irqverify.analyzer import (
    AnalysisConfig,
    AnalysisReport,
    VerdictEntry,
    analyze,
)
from irqverify.cfg import NodeId, build_all, node_global_reads, node_global_write
from irqverify.domain import AbstractState, Interval, check_assert, join, leq, transfer, widen
from irqverify.feasibility import extract_facts
from irqverify.ir import Assert, Program

from cfg_reference import Cfg, access_info, build_cfg
from conftest import CORPUS_NAMES, load_corpus, node_states
from progen import random_program
from test_feasibility import covered_loads, intercepted_stores

#: Every node's state after its instruction.
NodeStates = dict[NodeId, AbstractState]
#: Per-variable interference: ordered (store node, written value) pairs.
InterferenceMap = dict[str, tuple[tuple[NodeId, Interval], ...]]


@dataclass(frozen=True)
class ReferenceFacts:
    """What the per-pair rules read of one program, as (node, variable) sets."""

    priority: dict[str, int]  # handler name -> priority
    load: frozenset[tuple[NodeId, str]]
    store: frozenset[tuple[NodeId, str]]
    covered: frozenset[tuple[NodeId, str]]
    intercepted: frozenset[tuple[NodeId, str]]


def reference_cannot_preempt(fb: ReferenceFacts, s1: NodeId, s2: NodeId) -> bool:
    """NoPreempt(s1, s2): cross-handler and pri(s2) >= pri(s1)."""
    return s1.handler != s2.handler and fb.priority[s2.handler] >= fb.priority[s1.handler]


def reference_cross_pairs(fb: ReferenceFacts) -> frozenset[tuple[NodeId, NodeId, str]]:
    """All cross-handler same-variable (load, store) pairs the analysis weighs."""
    return frozenset(
        (l, s, v)
        for (l, v) in fb.load
        for (s, w) in fb.store
        if w == v and l.handler != s.handler
    )


def reference_must_not_read_from(fb: ReferenceFacts):
    """The rules over every cross pair: (rejected triples, number of pairs)."""
    covered = fb.covered
    intercepted = fb.intercepted
    pairs = reference_cross_pairs(fb)
    rejected: set[tuple[NodeId, NodeId, str]] = set()
    for (l, s, v) in pairs:
        is_covered = (l, v) in covered
        is_intercepted = (s, v) in intercepted
        if is_covered and is_intercepted:
            rejected.add((l, s, v))
        elif is_covered and reference_cannot_preempt(fb, s, l):
            rejected.add((l, s, v))
        elif is_intercepted and reference_cannot_preempt(fb, l, s):
            rejected.add((l, s, v))
    return frozenset(rejected), len(pairs)


def reference_node_output(g: Cfg, n: NodeId, pre: AbstractState,
                          interference: InterferenceMap,
                          rejected: frozenset[tuple[NodeId, NodeId, str]] | None) -> AbstractState:
    """Apply node n to its incoming state, joining interference at its reads."""
    if pre.is_bottom:
        return pre
    ins = g.instr[n]
    s = pre
    for name in node_global_reads(ins):
        entries = interference.get(name, ())
        incoming = None
        for store_node, value in entries:
            if rejected is not None and (n, store_node, name) in rejected:
                continue
            incoming = value if incoming is None else incoming.join(value)
        if incoming is not None:
            s = s.set(name, s.get(name).join(incoming))
    return transfer(ins, s)


def reference_analyze_local(g: Cfg, interference: InterferenceMap,
                            rejected: frozenset[tuple[NodeId, NodeId, str]] | None,
                            config: AnalysisConfig,
                            entry_state: AbstractState | None = None) -> NodeStates:
    """The worklist fixpoint and descending pass, reading rejected triples."""
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
        out = reference_node_output(g, n, pre, interference, rejected)
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

    for n in g.nodes:
        if n == g.entry:
            pre = entry
        else:
            pre = AbstractState.bottom()
            for p in g.preds[n]:
                pre = join(pre, post[p])
        post[n] = reference_node_output(g, n, pre, interference, rejected)
    return post


def _facts(program: Program) -> tuple[ReferenceFacts, FeasibilityResult]:
    """The reference facts of program, and the package's class table they read the flags of."""
    cfgs, infos = build_all(program)
    result = must_not_read_from(extract_facts(program, cfgs, infos))
    old = [access_info(g, program) for g in cfgs]
    fb = ReferenceFacts(priority={h.name: h.priority for h in program.handlers},
                        load=frozenset().union(*(info.loads for info in old)),
                        store=frozenset().union(*(info.stores for info in old)),
                        covered=covered_loads(result), intercepted=intercepted_stores(result))
    return fb, result


def _check_relation(program, label):
    fb, result = _facts(program)
    want_rejected, want_total = reference_must_not_read_from(fb)
    assert rejected_pairs(result) == want_rejected, label
    assert (result.pairs_total, result.pairs_pruned) == (want_total, len(want_rejected)), label


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_rejected_pairs_match_reference_on_corpus(name):
    _check_relation(load_corpus(name), name)


def test_rejected_pairs_match_reference_on_progen_seeds():
    for seed in range(500):
        _check_relation(random_program(random.Random(seed)), f"progen seed {seed}")


def reference_collect_interferences(g: Cfg, states: NodeStates) -> InterferenceMap:
    """(store node, stored value) pairs per global written by this handler."""
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


def reference_merge_interferences(maps: list[InterferenceMap]) -> InterferenceMap:
    merged: dict[str, list[tuple[NodeId, Interval]]] = {}
    for m in maps:
        for name, pairs in m.items():
            merged.setdefault(name, []).extend(pairs)
    return {name: tuple(sorted(pairs, key=lambda p: p[0])) for name, pairs in sorted(merged.items())}


def reference_analyze(program: Program, config: AnalysisConfig) -> tuple[NodeStates, AnalysisReport]:
    """Rounds over every handler against the merged per-store interference."""
    cfgs = [build_cfg(h) for h in program.handlers]
    rejected, pairs_total = reference_must_not_read_from(_facts(program)[0])
    rejected_active = rejected if config.pruning else None

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

        per_handler = {g.handler: reference_collect_interferences(g, prev) for g in cfgs}
        for g in cfgs:
            interference = reference_merge_interferences(
                [m for name, m in per_handler.items() if name != g.handler])
            local = reference_analyze_local(g, interference, rejected_active, config, entry_state)
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
                verdicts.append(VerdictEntry(
                    assertion_id=ins.uid,
                    handler=g.handler,
                    verdict="Proved" if check_assert(ins.cond, states[n]) else "Warning",
                ))

    report = AnalysisReport(
        verdicts=tuple(verdicts),
        iterations=iterations,
        pairs_total=pairs_total,
        pairs_pruned=len(rejected),
        pruning_enabled=config.pruning,
    )
    return states, report


def _fixpoint_programs():
    programs = [(name, load_corpus(name)) for name in CORPUS_NAMES]
    programs += [(f"progen seed {seed}", random_program(random.Random(seed))) for seed in range(500)]
    rng = random.Random(88)
    programs += [(f"eight handlers #{i}", random_program(rng, handler_count=8)) for i in range(20)]
    return programs


@pytest.mark.parametrize("config", [
    AnalysisConfig(pruning=True),
    AnalysisConfig(pruning=False),
    AnalysisConfig(widen_delay=1, max_outer=1),
], ids=["pruning", "no-pruning", "widen-early"])
def test_node_states_match_reference(config):
    for label, program in _fixpoint_programs():
        want_states, want_report = reference_analyze(program, config)
        got = analyze(program, config)
        assert node_states(got) == want_states, label
        for name in ("verdicts", "iterations", "pairs_total", "pairs_pruned", "pruning_enabled"):
            assert getattr(got.report, name) == getattr(want_report, name), (label, name)
        assert got.report == want_report, label
