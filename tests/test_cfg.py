import random

from irqverify import build_cfg, dominators, parse_program, post_dominators
from irqverify.cfg import NodeId, access_info, dump_cfg
from irqverify.ir import Assert, Assign, Skip

from cfg_reference import mask_pairs
from conftest import CORPUS_NAMES, load_corpus
from progen import random_program


def handler_cfg(program, name):
    return build_cfg(next(h for h in program.handlers if h.name == name))


def node_of(g, predicate):
    """The index of the one node of g whose instruction satisfies predicate."""
    matches = [i for i, ins in enumerate(g.instr) if predicate(ins)]
    assert len(matches) == 1, matches
    return matches[0]


def assign_node(g, target, value=None):
    def match(ins):
        if not isinstance(ins, Assign) or ins.target.name != target:
            return False
        return value is None or getattr(ins.expr, "value", None) == value
    return node_of(g, match)


def assert_node(g):
    return node_of(g, lambda ins: isinstance(ins, Assert))


def index_pairs(masks):
    """The pairs (a, b) of node indices where a is in b's mask."""
    return {(a, b) for b, mask in enumerate(masks) for a in range(mask.bit_length()) if mask >> a & 1}


# ---------------------------------------------------------------------------
# Shape
# ---------------------------------------------------------------------------


def test_empty_body_is_entry_to_exit():
    p = parse_program("global x = 0; handler h priority 0 { }")
    g = build_cfg(p.handlers[0])
    assert g.nodes == (g.entry, g.exit) == (NodeId("h", 0), NodeId("h", 1))
    assert (g.succs, g.preds) == (((1,), ()), ((), (0,)))
    assert isinstance(g.instr[0], Skip) and isinstance(g.instr[1], Skip)


def test_branch_lowering_is_a_diamond_with_join():
    p = load_corpus("branch_overwrites")
    g = handler_cfg(p, "irq_M")
    store_y0 = assign_node(g, "y", 0)
    store_y1 = assign_node(g, "y", 1)
    # the join skip node feeds the unconditional store
    (join,) = g.preds[store_y1]
    assert isinstance(g.instr[join], Skip)
    assert len(g.preds[join]) == 2
    # the branch-arm store feeds the join directly
    assert join in g.succs[store_y0]


def test_loop_lowering_has_back_edge_and_reachable_exit():
    p = load_corpus("loop_store_overwrite")
    g = handler_cfg(p, "irq1")
    assert len(g.loop_heads) == 1
    (head,) = g.loop_heads
    store1 = assign_node(g, "x", 1)
    store0 = assign_node(g, "x", 0)
    assert (store0, head) in g.back_edges
    assert store0 in g.succs[store1]
    # exit is reachable from the loop head
    seen, frontier = set(), [head]
    while frontier:
        n = frontier.pop()
        if n in seen:
            continue
        seen.add(n)
        frontier.extend(g.succs[n])
    assert len(g.nodes) - 1 in seen  # the exit


def test_every_node_reachable_from_entry_on_corpus():
    for name in CORPUS_NAMES:
        p = load_corpus(name)
        for h in p.handlers:
            g = build_cfg(h)
            seen, frontier = set(), [0]
            while frontier:
                n = frontier.pop()
                if n in seen:
                    continue
                seen.add(n)
                frontier.extend(g.succs[n])
            assert seen == set(range(len(g.nodes)))
            assert g.preds[0] == ()


# ---------------------------------------------------------------------------
# Dominance
# ---------------------------------------------------------------------------


def test_straight_line_dominance_is_prefix_order():
    p = parse_program("global x = 0; handler h priority 0 { x = 1; x = 2; x = 3; }")
    g = build_cfg(p.handlers[0])
    dom = mask_pairs(g, dominators(g))
    order = g.nodes
    for i, a in enumerate(order):
        for j, b in enumerate(order):
            assert ((a, b) in dom) == (i <= j)


def test_branch_store_does_not_dominate_join_successor():
    p = load_corpus("branch_overwrites")
    g = handler_cfg(p, "irq_M")
    dom = index_pairs(dominators(g))
    assert (assign_node(g, "y", 1), assert_node(g)) in dom
    assert (assign_node(g, "y", 0), assert_node(g)) not in dom


def test_postdominance_of_unconditional_stores():
    p = load_corpus("branch_overwrites")
    g = handler_cfg(p, "irq_H")
    postdom = index_pairs(post_dominators(g))
    assert (assign_node(g, "x", 1), assign_node(g, "x", 0)) in postdom

    q = load_corpus("loop_store_overwrite")
    gq = handler_cfg(q, "irq1")
    pq = index_pairs(post_dominators(gq))
    assert (assign_node(gq, "x", 0), assign_node(gq, "x", 1)) in pq
    # the loop may exit before re-entering the body: x=1 does not post-dominate x=0
    assert (assign_node(gq, "x", 1), assign_node(gq, "x", 0)) not in pq


def test_exit_postdominates_everything_on_corpus():
    for name in CORPUS_NAMES:
        p = load_corpus(name)
        for h in p.handlers:
            g = build_cfg(h)
            postdom = mask_pairs(g, post_dominators(g))
            for n in g.nodes:
                assert (g.exit, n) in postdom


# ---------------------------------------------------------------------------
# Brute-force equivalence and order properties
# ---------------------------------------------------------------------------


def _simple_paths(succs, src, dst):
    """All simple paths src -> dst (graphs under test stay tiny)."""
    out = []

    def walk(node, path):
        if node == dst:
            out.append(path)
            return
        for s in succs[node]:
            if s not in path:
                walk(s, path + (s,))

    walk(src, (src,))
    return out


def brute_dominators(g):
    rel = set()
    every = range(len(g.nodes))
    for b in every:
        paths = _simple_paths(g.succs, 0, b)
        common = set(every) if not paths else set.intersection(*(set(p) for p in paths))
        rel |= {(g.nodes[a], g.nodes[b]) for a in common}
    return rel


def brute_post_dominators(g):
    rel = set()
    every = range(len(g.nodes))
    for b in every:
        paths = _simple_paths(g.succs, b, every[-1])
        common = set(every) if not paths else set.intersection(*(set(p) for p in paths))
        rel |= {(g.nodes[a], g.nodes[b]) for a in common}
    return rel


def _small_random_cfgs(limit_nodes=12, count=150):
    cfgs = []
    seed = 0
    while len(cfgs) < count:
        p = random_program(random.Random(seed))
        seed += 1
        for h in p.handlers:
            g = build_cfg(h)
            if len(g.nodes) <= limit_nodes:
                cfgs.append(g)
    return cfgs[:count]


def test_dominance_matches_path_enumeration_on_small_cfgs():
    for g in _small_random_cfgs():
        assert mask_pairs(g, dominators(g)) == brute_dominators(g)
        assert mask_pairs(g, post_dominators(g)) == brute_post_dominators(g)


def test_dominance_is_a_partial_order_with_tree_property():
    for name in CORPUS_NAMES:
        p = load_corpus(name)
        for h in p.handlers:
            g = build_cfg(h)
            for rel in (mask_pairs(g, dominators(g)), mask_pairs(g, post_dominators(g))):
                nodes = g.nodes
                for a in nodes:
                    assert (a, a) in rel
                for (a, b) in rel:
                    if (b, a) in rel:
                        assert a == b
                for (a, b) in rel:
                    for (c, d) in rel:
                        if d == a:
                            assert (c, b) in rel
            dom = mask_pairs(g, dominators(g))
            for n in nodes:
                doms = sorted(a for (a, b) in dom if b == n)
                # dominators of any node are totally ordered among themselves
                for x in doms:
                    for y in doms:
                        assert (x, y) in dom or (y, x) in dom


# ---------------------------------------------------------------------------
# Access classification
# ---------------------------------------------------------------------------


def test_access_info_three_priorities():
    p = load_corpus("three_priorities")
    g = handler_cfg(p, "irq_M")
    info = access_info(g, p)
    assert len(info.loads) == len(info.store) == len(g.nodes)
    assert {(i, v) for i, v in enumerate(info.store) if v is not None} == {(assign_node(g, "y", 1), "y"),
                                                                          (assign_node(g, "x", 1), "x")}
    assert {(i, v) for i, vs in enumerate(info.loads) for v in vs} == {(assert_node(g), "x")}


def test_access_info_locals_only_is_empty():
    p = parse_program("global x = 0; handler h priority 0 { local t = 1; t = t + 1; }")
    g = build_cfg(p.handlers[0])
    info = access_info(g, p)
    assert info.loads == ((),) * len(g.nodes) and info.store == (None,) * len(g.nodes)


def test_access_info_compound_load_store_same_node():
    p = load_corpus("loop_store_overwrite")
    g = handler_cfg(p, "irq0")
    info = access_info(g, p)
    copy = assign_node(g, "b")
    assert "x" in info.loads[copy] and info.store[copy] == "b"
    assert "b" in info.loads[assert_node(g)]


def test_access_info_branch_conditions_load_globals():
    p = parse_program("global x = 0; handler h priority 0 { if (x == 1) { x = 2; } }")
    g = build_cfg(p.handlers[0])
    info = access_info(g, p)
    arms = [i for i, vs in enumerate(info.loads) if "x" in vs]
    assert len(arms) == 2  # both assume arms read x


def test_dump_cfg_mentions_every_node():
    p = load_corpus("three_priorities")
    g = handler_cfg(p, "irq_M")
    text = "\n".join(dump_cfg(g, dominators(g), post_dominators(g)))
    for n in g.nodes:
        assert str(n) in text
