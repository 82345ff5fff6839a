"""Per-node dominance masks and the overwrite rules against the set-based originals.

The reference functions below are the implementation that per-node bitmasks
replaced: an iterative set dataflow materialized as a node-pair relation, and
all-pairs scans for covered loads and intercepted stores. They are kept
verbatim as test oracles and read graphs of the NodeId-keyed lowering of
`cfg_reference`, and the scans read the load and store sets of the old
`cfg_reference.access_info`. Every handler of the corpus and of progen seeds
0-499 must give the same relations, and the covered and intercepted flags of
the class table must give the same derived sets.
"""

import random

import pytest

from irqverify import dominators, must_not_read_from, post_dominators
from irqverify.cfg import NodeId, build_all
from irqverify.feasibility import extract_facts

from cfg_reference import access_info, build_cfg, mask_pairs
from conftest import CORPUS_NAMES, load_corpus
from progen import random_program
from test_feasibility import covered_loads, intercepted_stores


def _dominance_sets(nodes, root, edges_into):
    """Iterative dataflow: dom(n) = {n} plus the intersection of dom(preds)."""
    every = set(nodes)
    dom: dict[NodeId, set[NodeId]] = {n: ({n} if n == root else set(every)) for n in nodes}
    changed = True
    while changed:
        changed = False
        for n in nodes:
            if n == root:
                continue
            incoming = [dom[p] for p in edges_into[n]]
            new = {n} | (set.intersection(*incoming) if incoming else set())
            if new != dom[n]:
                dom[n] = new
                changed = True
    return dom


def _as_relation(sets):
    return frozenset((a, b) for b, doms in sets.items() for a in doms)


def reference_dominators(g):
    return _as_relation(_dominance_sets(g.nodes, g.entry, g.preds))


def reference_post_dominators(g):
    return _as_relation(_dominance_sets(g.nodes, g.exit, g.succs))


def reference_covered_loads(load, store, dom):
    return frozenset(
        (l, v)
        for (l, v) in load
        for (s, w) in store
        if w == v and s != l and s.handler == l.handler and (s, l) in dom
    )


def reference_intercepted_stores(store, postdom):
    return frozenset(
        (s1, v)
        for (s1, v) in store
        for (s2, w) in store
        if w == v and s2 != s1 and s2.handler == s1.handler and (s2, s1) in postdom
    )


def _check_against_reference(program, label):
    cfgs, infos = build_all(program)
    dom: set = set()
    postdom: set = set()
    for g, handler in zip(cfgs, program.handlers):
        ref = build_cfg(handler)
        ref_dom = reference_dominators(ref)
        ref_postdom = reference_post_dominators(ref)
        assert mask_pairs(g, dominators(g)) == ref_dom, (label, g.handler)
        assert mask_pairs(g, post_dominators(g)) == ref_postdom, (label, g.handler)
        dom |= ref_dom
        postdom |= ref_postdom
    old = [access_info(g, program) for g in cfgs]
    load = frozenset().union(*(info.loads for info in old))
    store = frozenset().union(*(info.stores for info in old))
    result = must_not_read_from(extract_facts(program, cfgs, infos))
    assert covered_loads(result) == reference_covered_loads(load, store, dom), label
    assert intercepted_stores(result) == reference_intercepted_stores(store, postdom), label


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_masks_match_reference_on_corpus(name):
    _check_against_reference(load_corpus(name), name)


def test_masks_match_reference_on_progen_seeds():
    for seed in range(500):
        _check_against_reference(random_program(random.Random(seed)), f"progen seed {seed}")
