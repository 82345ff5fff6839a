"""The facts dump against the one it replaced.

The reference below is the dump that printed NoPreempt by expanding the
relation over every node pair and then sorted all lines at once, with the
per-node priority facts it read. `reference_extract_facts`, `reference_no_preempt`
and `reference_dump_facts` are kept verbatim as test oracles; only names,
docstrings and the fact base's class name differ, and the dump's Dom, PostDom
and MustNotReadFrom lines come from a local mask expansion and the per-pair
`reference_must_not_read_from`, not from the package's `dominance_pairs` and
`rejected_pairs`, so the reference shares no expansion code with the dump.
Its CoveredLoad and InterceptedStore lines come from `covered_loads` and
`intercepted_stores` on the fact base, where the dump reads the class flags
of the feasibility result.
The dump must give the same line list on the corpus, on progen seeds 0-499,
on 8-handler progen programs, and on handlers whose node names do not sort
in (handler, index) order.
"""

import random
from dataclasses import dataclass

import pytest

from irqverify import extract_facts, must_not_read_from, parse_program
from irqverify.cfg import AccessInfo, Cfg, NodeId, build_all, dominators, post_dominators
from irqverify.feasibility import _cannot_preempt, covered_loads, dump_facts, intercepted_stores
from irqverify.ir import Program

from conftest import CORPUS_NAMES, load_corpus
from progen import random_program
from test_feasibility_reference import reference_must_not_read_from


@dataclass(frozen=True)
class ReferenceFactBase:
    dom: dict[NodeId, int]
    postdom: dict[NodeId, int]
    pri: dict[NodeId, int]
    load: frozenset[tuple[NodeId, str]]
    store: frozenset[tuple[NodeId, str]]

    @property
    def priority(self) -> dict[str, int]:
        """What `reference_must_not_read_from` reads priorities from."""
        return reference_priorities(self)


def reference_dominance_pairs(masks: dict[NodeId, int]) -> set[tuple[NodeId, NodeId]]:
    """(a, b) for every node a whose bit is set in b's mask."""
    return {(NodeId(b.handler, i), b) for b, mask in masks.items()
            for i in range(mask.bit_length()) if mask >> i & 1}


def reference_extract_facts(program: Program, cfgs: list[Cfg], infos: list[AccessInfo]) -> ReferenceFactBase:
    """Union of per-handler facts, with one Pri fact per node."""
    dom: dict[NodeId, int] = {}
    postdom: dict[NodeId, int] = {}
    pri: dict[NodeId, int] = {}
    load: set[tuple[NodeId, str]] = set()
    store: set[tuple[NodeId, str]] = set()
    priorities = {h.name: h.priority for h in program.handlers}
    for g, info in zip(cfgs, infos):
        dom.update(dominators(g))
        postdom.update(post_dominators(g))
        p = priorities[g.handler]
        for n in g.nodes:
            pri[n] = p
        load |= info.loads
        store |= info.stores
    return ReferenceFactBase(dom=dom, postdom=postdom, pri=pri,
                             load=frozenset(load), store=frozenset(store))


def reference_priorities(fb: ReferenceFactBase) -> dict[str, int]:
    """Handler name to priority, read off the per-node Pri facts."""
    return {n.handler: p for n, p in fb.pri.items()}


def reference_no_preempt(fb: ReferenceFactBase) -> frozenset[tuple[NodeId, NodeId]]:
    """The NoPreempt relation expanded over all node pairs."""
    priority = reference_priorities(fb)
    return frozenset((s1, s2) for s1 in fb.pri for s2 in fb.pri
                     if _cannot_preempt(priority, s1.handler, s2.handler))


def reference_dump_facts(fb: ReferenceFactBase) -> list[str]:
    """One `REL(arg, ...)` tuple per line, sorted lexicographically."""
    lines: list[str] = []
    lines += [f"Dom({a}, {b})" for a, b in reference_dominance_pairs(fb.dom)]
    lines += [f"PostDom({a}, {b})" for a, b in reference_dominance_pairs(fb.postdom)]
    lines += [f"Pri({n}, {p})" for n, p in fb.pri.items()]
    lines += [f"Load({n}, {v})" for n, v in fb.load]
    lines += [f"Store({n}, {v})" for n, v in fb.store]
    lines += [f"NoPreempt({a}, {b})" for a, b in reference_no_preempt(fb)]
    lines += [f"CoveredLoad({n}, {v})" for n, v in covered_loads(fb)]
    lines += [f"InterceptedStore({n}, {v})" for n, v in intercepted_stores(fb)]
    lines += [f"MustNotReadFrom({l}, {s}, {v})" for l, s, v in reference_must_not_read_from(fb)[0]]
    return sorted(lines)


def both_dumps(program: Program) -> tuple[list[str], list[str]]:
    cfgs, infos = build_all(program)
    fb = extract_facts(program, cfgs, infos)
    return dump_facts(fb, must_not_read_from(fb)), reference_dump_facts(reference_extract_facts(program, cfgs, infos))


def prefix_handlers(pri_a: int, pri_a1: int) -> Program:
    """Handlers `a` and `a1` with 12 nodes each: `a1:0` sorts before `a:0`,
    and `a:10` before `a:2`."""
    body = "x = 1; local t = x; y = t; x = y + 1; skip; y = 2; x = 3; assert(x >= 0); y = x;"
    return parse_program(
        "global x = 0; global y = 0;\n"
        f"handler a priority {pri_a} {{ {body} x = 0; }}\n"
        f"handler a1 priority {pri_a1} {{ {body} y = 0; }}\n"
    )


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_dump_matches_reference_on_corpus(name):
    new, old = both_dumps(load_corpus(name))
    assert new == old


def test_dump_matches_reference_on_progen():
    for seed in range(500):
        new, old = both_dumps(random_program(random.Random(seed)))
        assert new == old, f"seed {seed}"


def test_dump_matches_reference_on_eight_handlers():
    rng = random.Random(8)
    for i in range(20):
        new, old = both_dumps(random_program(rng, handler_count=8))
        assert any(line.startswith("NoPreempt(") for line in new)
        assert new == old, f"program {i}"


@pytest.mark.parametrize("pri_a, pri_a1", [(1, 1), (0, 1), (1, 0)])
def test_dump_matches_reference_when_names_do_not_sort_by_index(pri_a, pri_a1):
    program = prefix_handlers(pri_a, pri_a1)
    cfgs, _ = build_all(program)
    assert all(len(g.nodes) >= 11 for g in cfgs)
    new, old = both_dumps(program)
    # both orientations exist when the priorities are equal
    assert ("NoPreempt(a1:0, a:10)" in new) == (pri_a >= pri_a1)
    assert ("NoPreempt(a:10, a1:0)" in new) == (pri_a1 >= pri_a)
    assert new == old
