"""The facts dump against the one it replaced.

The reference below is the dump that printed NoPreempt by expanding the
relation over every node pair and then sorted all lines at once, with the
per-node priority facts it read. `reference_extract_facts`, `reference_no_preempt`
and `reference_dump_facts` are kept verbatim as test oracles; only names,
docstrings and the fact base's class name differ. The reference shares no
fact code with the package: it reads the frozenset `AccessInfo` of the old
`cfg_reference.access_info` and the dominance masks as a `NodeId`-keyed map,
its NoPreempt test is `reference_cannot_preempt`, its Dom, PostDom and
MustNotReadFrom lines come from a local mask expansion and the per-pair
`reference_must_not_read_from`, and its CoveredLoad and InterceptedStore
lines from the all-pairs scans of `test_dominance_reference`, where the dump
reads the class flags of the feasibility result. The fact base caches its
priority map and its covered and intercepted sets.
The dump is written in pieces of a few lines through a `write` callable; its
text, split into lines, must give the same line list on the corpus, on
progen seeds 0-499, on 8-handler progen programs (also with all priorities
equal, where every ordered pair of handlers is in NoPreempt), on a
one-handler program (no NoPreempt line), and on handlers whose node names do
not sort in (handler, index) order. The counts `dump_facts` returns must be
the line counts of its text.
"""

import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import pytest

from irqverify import cfg, must_not_read_from, parse_program
from irqverify.cfg import Cfg, NodeId, build_all
from irqverify.feasibility import _PIECE, dump_facts, extract_facts
from irqverify.ir import Program

from cfg_reference import AccessInfo, access_info
from conftest import CORPUS_NAMES, load_corpus
from progen import random_program
from test_dominance_reference import reference_covered_loads, reference_intercepted_stores
from test_feasibility_reference import reference_cannot_preempt, reference_must_not_read_from


def dominators(g: Cfg) -> dict[NodeId, int]:
    """The package's dominator masks keyed by node, as the reference reads them."""
    return dict(zip(g.nodes, cfg.dominators(g)))


def post_dominators(g: Cfg) -> dict[NodeId, int]:
    """The package's post-dominator masks keyed by node, as the reference reads them."""
    return dict(zip(g.nodes, cfg.post_dominators(g)))


@dataclass(frozen=True)
class ReferenceFactBase:
    dom: dict[NodeId, int]
    postdom: dict[NodeId, int]
    pri: dict[NodeId, int]
    load: frozenset[tuple[NodeId, str]]
    store: frozenset[tuple[NodeId, str]]

    @cached_property
    def priority(self) -> dict[str, int]:
        """What `reference_must_not_read_from` reads priorities from."""
        return reference_priorities(self)

    @cached_property
    def covered(self) -> frozenset[tuple[NodeId, str]]:
        """Loads dominated by a same-handler store of the same variable."""
        return reference_covered_loads(self.load, self.store, reference_dominance_pairs(self.dom))

    @cached_property
    def intercepted(self) -> frozenset[tuple[NodeId, str]]:
        """Stores post-dominated by a same-handler store of the same variable."""
        return reference_intercepted_stores(self.store, reference_dominance_pairs(self.postdom))


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
    return frozenset((s1, s2) for s1 in fb.pri for s2 in fb.pri
                     if reference_cannot_preempt(fb, s1, s2))


def reference_dump_facts(fb: ReferenceFactBase) -> list[str]:
    """One `REL(arg, ...)` tuple per line, sorted lexicographically."""
    lines: list[str] = []
    lines += [f"Dom({a}, {b})" for a, b in reference_dominance_pairs(fb.dom)]
    lines += [f"PostDom({a}, {b})" for a, b in reference_dominance_pairs(fb.postdom)]
    lines += [f"Pri({n}, {p})" for n, p in fb.pri.items()]
    lines += [f"Load({n}, {v})" for n, v in fb.load]
    lines += [f"Store({n}, {v})" for n, v in fb.store]
    lines += [f"NoPreempt({a}, {b})" for a, b in reference_no_preempt(fb)]
    lines += [f"CoveredLoad({n}, {v})" for n, v in fb.covered]
    lines += [f"InterceptedStore({n}, {v})" for n, v in fb.intercepted]
    lines += [f"MustNotReadFrom({l}, {s}, {v})" for l, s, v in reference_must_not_read_from(fb)[0]]
    return sorted(lines)


RELATIONS = ("CoveredLoad", "Dom", "InterceptedStore", "Load", "MustNotReadFrom",
             "NoPreempt", "PostDom", "Pri", "Store")


def written_pieces(program: Program) -> tuple[list[str], dict[str, int]]:
    """The strings `dump_facts` passes to `write`, and the counts it returns."""
    cfgs, infos = build_all(program)
    facts = extract_facts(program, cfgs, infos)
    pieces: list[str] = []
    counts = dump_facts(facts, must_not_read_from(facts), pieces.append)
    return pieces, counts


def streamed_dump(program: Program) -> tuple[str, dict[str, int]]:
    """The dump's text as `dump_facts` writes it, and the counts it returns."""
    pieces, counts = written_pieces(program)
    return "".join(pieces), counts


def both_dumps(program: Program) -> tuple[list[str], list[str]]:
    cfgs, _ = build_all(program)
    old_infos = [access_info(g, program) for g in cfgs]
    return (streamed_dump(program)[0].splitlines(),
            reference_dump_facts(reference_extract_facts(program, cfgs, old_infos)))


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


def test_dump_matches_reference_on_one_handler():
    program = parse_program("global x = 0; handler h priority 0 { x = 1; local t = x; x = t + 1; }")
    text, counts = streamed_dump(program)
    assert counts["NoPreempt"] == 0 and "NoPreempt(" not in text
    new, old = both_dumps(program)
    assert new == old


def test_dump_matches_reference_on_eight_equal_priorities():
    rng = random.Random(88)
    for i in range(5):
        program = random_program(rng, handler_count=8)
        program = program._replace(handlers=tuple(h._replace(priority=1) for h in program.handlers))
        sizes = [len(g.nodes) for g in build_all(program)[0]]
        _, counts = streamed_dump(program)
        # every ordered pair of distinct handlers shields
        assert counts["NoPreempt"] == sum(sizes) ** 2 - sum(n * n for n in sizes)
        new, old = both_dumps(program)
        assert new == old, f"program {i}"


def dump_programs() -> list[tuple[str, Program]]:
    programs = [(name, load_corpus(name)) for name in CORPUS_NAMES]
    programs += [(f"seed {seed}", random_program(random.Random(seed))) for seed in range(100)]
    programs += [(f"prefix {pa} {pa1}", prefix_handlers(pa, pa1)) for pa, pa1 in [(0, 1), (1, 0)]]
    return programs


def test_dump_counts_are_the_line_counts_of_its_text():
    for name, program in dump_programs():
        text, counts = streamed_dump(program)
        # every relation, in the order its block is written
        assert tuple(counts) == RELATIONS, name
        in_text = Counter(line[:line.index("(")] for line in text.splitlines())
        assert counts == {rel: in_text[rel] for rel in RELATIONS}, name


def test_dump_text_ends_in_one_newline_without_blank_lines():
    for name, program in dump_programs():
        text, _ = streamed_dump(program)
        assert text.endswith(")\n") and "\n\n" not in text and not text.startswith("\n"), name


def test_dump_is_written_in_small_pieces():
    """No write holds more than `_PIECE` lines, so the dump never builds a
    block or a handler's lines as one large string."""
    for name, program in dump_programs():
        pieces, _ = written_pieces(program)
        assert all(0 < piece.count("\n") <= _PIECE and piece.endswith("\n") for piece in pieces), name
