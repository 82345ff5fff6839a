"""A fixpoint certificate: an `analyze` result checked against the equations it solves.

The checker reads only the result's final node states, facts and class table,
plus the program's declared globals and the configuration. From the final
states it rebuilds the environment of the last round:

* the entry state: the globals' initial values, joined with every handler's
  exit state projected onto the globals;
* per store class, the hull of the written variable over its stores whose
  state is not bottom;
* per load class, the hull of the store classes it admits; without pruning,
  of every other handler's store class of its variable.

Under that environment it takes each handler's local solution S and checks
that S is a post-fixpoint of the handler's equations,

    S[0] >= transfer(instr[0], entry)
    S[i] >= transfer(instr[i], join of S[preds(i)], joined at each load of i
                     with the hull its load class admits)

where a node whose incoming state is bottom is unreachable and reads no
interference, and that the final states cover S pointwise. The environment
covers S's own exits and stores, since the final states cover S, so S is a
post-fixpoint of the whole program's equations and covers every concrete state
(Miné, LMCS 2012). Checking a result instead of trusting the solver follows
Besson, Jensen & Pichardie (TCS 2006). The check says nothing about precision,
which the pinned digests cover.

The final states themselves need not be a post-fixpoint: they join several
rounds' solutions, and interval transfer does not distribute over join.
"""

from functools import reduce

from irqverify.analyzer import AnalysisConfig, AnalysisResult, analyze_local
from irqverify.domain import AbstractState, Interval, join, leq, transfer
from irqverify.ir import Program


def final_environment(program: Program, config: AnalysisConfig, result: AnalysisResult):
    """(entry state, load class -> admitted hull) as the final states determine them."""
    facts, feas, states = result.facts, result.feasibility, result.states
    names = program.global_names()
    entry = reduce(join, (post[-1].restrict(names) for post in states),
                   AbstractState({name: Interval.const(value) for name, value in program.globals}))
    store_hulls: dict = {}
    for f, post in zip(facts, states):
        for cls, sites in feas.store_classes[f.handler].items():
            written = [post[i].get(cls[0]) for i in sites if not post[i].is_bottom]
            if written:
                store_hulls[cls] = reduce(Interval.join, written)
    admitted = {}
    for cls, sources in feas.admitted.items():
        if not config.pruning:
            sources = sources + feas.rejected[cls]
        hulls = [store_hulls[s] for s in sources if s in store_hulls]
        if hulls:
            admitted[cls] = reduce(Interval.join, hulls)
    return entry, admitted


def certificate_problems(program: Program, config: AnalysisConfig, result: AnalysisResult) -> list[str]:
    """Every equation the local solutions break and every node the final states
    fail to cover, under the final environment; empty when the result is certified."""
    entry, admitted = final_environment(program, config, result)
    problems = []
    for f, final in zip(result.facts, result.states):
        g, h = f.graph, f.handler
        load_classes = result.feasibility.load_classes[h]
        class_at = {(i, cls[0]): cls for cls, sites in load_classes.items() for i in sites}
        solution = analyze_local(g, load_classes, admitted, config, entry)
        if not len(solution) == len(final) == len(g.nodes):
            problems.append(f"{h}: {len(g.nodes)} nodes, {len(solution)} solved, {len(final)} final")
            continue
        for i, ins in enumerate(g.instr):
            incoming = entry if i == 0 else reduce(join, (solution[p] for p in g.preds[i]))
            if not incoming.is_bottom:
                for v in f.loads[i]:
                    cls = class_at.get((i, v))
                    if cls is None:
                        problems.append(f"{g.nodes[i]}: the load of {v} has no class")
                    elif cls in admitted:
                        incoming = incoming.set(v, incoming.get(v).join(admitted[cls]))
            if not leq(transfer(ins, incoming), solution[i]):
                problems.append(f"{g.nodes[i]}: {solution[i]!r} is below its equation's "
                                f"{transfer(ins, incoming)!r}")
            if not leq(solution[i], final[i]):
                problems.append(f"{g.nodes[i]}: the final {final[i]!r} does not cover {solution[i]!r}")
    return problems
