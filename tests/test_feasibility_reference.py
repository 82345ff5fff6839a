"""Class-level MustNotReadFrom and per-class interference against the per-pair originals.

The reference functions below are the implementation that class-level
evaluation replaced: the rules applied to every materialized cross-handler
(load, store, variable) triple, and a local analysis whose `_node_output`
scans every interference entry with a set lookup per entry at every visit.
They are kept as test oracles with their logic unchanged; only names,
docstrings and the rule loop's return value differ. On the corpus and progen
seeds 0-499 the rejected triples and the pair counts must be the same; on the
corpus and seeds 0-199 `analyze` must give the same node states and report,
with pruning on and off.
"""

import random
from collections import deque

import pytest

from irqverify import extract_facts, must_not_read_from, rejected_pairs
from irqverify.analyzer import AnalysisConfig, InterferenceMap, NodeStates, analyze
from irqverify.cfg import Cfg, NodeId, build_all, node_global_reads
from irqverify.domain import AbstractState, join, leq, transfer, widen
from irqverify.feasibility import FactBase, covered_loads, intercepted_stores

from conftest import CORPUS_NAMES, load_corpus
from progen import random_program


def reference_cannot_preempt(fb: FactBase, s1: NodeId, s2: NodeId) -> bool:
    """NoPreempt(s1, s2): cross-handler and pri(s2) >= pri(s1)."""
    return s1.handler != s2.handler and fb.priority[s2.handler] >= fb.priority[s1.handler]


def reference_cross_pairs(fb: FactBase) -> frozenset[tuple[NodeId, NodeId, str]]:
    """All cross-handler same-variable (load, store) pairs the analysis weighs."""
    return frozenset(
        (l, s, v)
        for (l, v) in fb.load
        for (s, w) in fb.store
        if w == v and l.handler != s.handler
    )


def reference_must_not_read_from(fb: FactBase):
    """The rules over every cross pair: (rejected triples, number of pairs)."""
    covered = covered_loads(fb)
    intercepted = intercepted_stores(fb)
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


def _facts(program):
    cfgs, infos = build_all(program)
    return extract_facts(program, cfgs, infos)


def _check_relation(program, label):
    fb = _facts(program)
    want_rejected, want_total = reference_must_not_read_from(fb)
    result = must_not_read_from(fb)
    assert rejected_pairs(fb, result) == want_rejected, label
    assert (result.pairs_total, result.pairs_pruned) == (want_total, len(want_rejected)), label


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_rejected_pairs_match_reference_on_corpus(name):
    _check_relation(load_corpus(name), name)


def test_rejected_pairs_match_reference_on_progen_seeds():
    for seed in range(500):
        _check_relation(random_program(random.Random(seed)), f"progen seed {seed}")


def _reference_analyze(monkeypatch, program, config):
    rejected, _ = reference_must_not_read_from(_facts(program))

    def local(g, interference, feasibility, config, entry_state=None):
        return reference_analyze_local(g, interference, rejected if feasibility is not None else None,
                                       config, entry_state)

    with monkeypatch.context() as m:
        m.setattr("irqverify.analyzer.analyze_local", local)
        return analyze(program, config)


@pytest.mark.parametrize("pruning", [True, False], ids=["pruning", "no-pruning"])
def test_node_states_match_reference(monkeypatch, pruning):
    config = AnalysisConfig(pruning=pruning)
    programs = [(name, load_corpus(name)) for name in CORPUS_NAMES]
    programs += [(f"progen seed {seed}", random_program(random.Random(seed))) for seed in range(200)]
    for label, program in programs:
        want = _reference_analyze(monkeypatch, program, config)
        got = analyze(program, config)
        assert got.node_states == want.node_states, label
        assert got.report == want.report, label
