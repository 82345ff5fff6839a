"""Infeasible store-to-load pair detection for prioritized handlers.

From per-handler dominance facts, priorities, and global load/store sites we
derive which cross-handler data flows can never happen under preemptive
priority scheduling. The derived relation is an under-approximation: a pair in
it is guaranteed infeasible on every concrete execution, but feasible-looking
pairs are left alone.

The rules combine two derived relations with one predicate:

* ``covered_load(l, v)``: a same-handler store of v precedes l on every
  path, so l reads locally unless someone preempts in between.
* ``intercepted_store(s, v)``: a same-handler store of v follows s on every
  path, so s's value is overwritten before the handler returns.
* ``NoPreempt(s1, s2)``: s1's handler can never interleave into s2's,
  because s2's priority is at least s1's (equal priorities never preempt).
  It depends only on the two handlers, so it is evaluated per pair of
  handlers from the one handler -> priority map; ``dump_facts`` prints it as
  the cross product of the two handlers' nodes, and ``no_preempt`` expands it
  into node pairs for callers that want the relation as a set.

Dominance and post-dominance are one bitmask per node; the two overwrite
rules test masks, and only ``dump_facts`` expands them, reading each mask's
bits through a per-handler index -> node name list.

A cross-handler pair (load l, store s) of the same variable is rejected when
(1) l is covered and s is intercepted, (2) l is covered and s's handler cannot
preempt l's, or (3) s is intercepted and l's handler cannot preempt s's. The
rules see a load only through its class (variable, handler, covered) and a
store only through its class (variable, handler, intercepted), so ``rejects``
decides whole classes at once. ``must_not_read_from`` groups the loads and
stores into their classes and calls it exactly once per cross-handler pair of
classes of one variable. Its result is the one class table every consumer
reads: the pair counts are sums of class-size products, the analysis admits
per load class the store classes it does not reject, and one generator
expands only the rejected pairs of classes into (load, store, variable)
triples, which the facts dump prints and ``rejected_pairs`` collects. All
rules are non-recursive; no fixpoint or external solver is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .cfg import AccessInfo, Cfg, NodeId, dominators, post_dominators
from .ir import Program


@dataclass(frozen=True)
class FactBase:
    """Ground facts extracted from one program's handlers."""

    dom: dict[NodeId, int]  # every node of every handler -> its dominator mask
    postdom: dict[NodeId, int]
    priority: dict[str, int]  # handler name -> priority; a node's Pri is its handler's
    load: frozenset[tuple[NodeId, str]]
    store: frozenset[tuple[NodeId, str]]


LoadClass = tuple[str, str, bool]  # (variable, handler, covered)
StoreClass = tuple[str, str, bool]  # (variable, handler, intercepted)


@dataclass(frozen=True)
class FeasibilityResult:
    """MustNotReadFrom at class granularity, decided once per pair of classes."""

    load_classes: dict[LoadClass, list[NodeId]]  # load class -> its load nodes
    store_classes: dict[str, dict[StoreClass, list[NodeId]]]  # variable -> store class -> its store nodes
    rejected: dict[LoadClass, list[StoreClass]]  # load class -> the store classes it must not read from
    pairs_total: int
    pairs_pruned: int


def extract_facts(program: Program, cfgs: list[Cfg], infos: list[AccessInfo]) -> FactBase:
    """Union of per-handler facts; dominance never crosses handler boundaries."""
    dom: dict[NodeId, int] = {}
    postdom: dict[NodeId, int] = {}
    load: set[tuple[NodeId, str]] = set()
    store: set[tuple[NodeId, str]] = set()
    for g, info in zip(cfgs, infos):
        dom.update(dominators(g))
        postdom.update(post_dominators(g))
        load |= info.loads
        store |= info.stores
    return FactBase(dom=dom, postdom=postdom,
                    priority={h.name: h.priority for h in program.handlers},
                    load=frozenset(load), store=frozenset(store))


def _cannot_preempt(priority: dict[str, int], h1: str, h2: str) -> bool:
    """NoPreempt between handlers: h1 != h2 and pri(h2) >= pri(h1)."""
    return h1 != h2 and priority[h2] >= priority[h1]


# No subcommand calls `no_preempt` or `cross_pairs`. They are kept for the tests
# and as span targets of `perfbench/spans.py`, whose self-check fails when a
# target is missing.
def no_preempt(fb: FactBase) -> frozenset[tuple[NodeId, NodeId]]:
    """The NoPreempt relation expanded over all node pairs."""
    return frozenset((s1, s2) for s1 in fb.dom for s2 in fb.dom
                     if _cannot_preempt(fb.priority, s1.handler, s2.handler))


def _overwritten(fb: FactBase, sites: frozenset, masks: dict[NodeId, int]) -> frozenset:
    """Sites (n, v) whose mask holds a same-handler store of v other than n.

    A node is never covered by its own store: a compound read-write like
    `x = x + 1` does not cover its own load.
    """
    stores: dict[tuple[str, str], int] = {}
    for s, v in fb.store:
        stores[s.handler, v] = stores.get((s.handler, v), 0) | 1 << s.index
    return frozenset((n, v) for n, v in sites
                     if masks[n] & stores.get((n.handler, v), 0) & ~(1 << n.index))


def covered_loads(fb: FactBase) -> frozenset[tuple[NodeId, str]]:
    """Loads dominated by a same-handler store of the same variable."""
    return _overwritten(fb, fb.load, fb.dom)


def intercepted_stores(fb: FactBase) -> frozenset[tuple[NodeId, str]]:
    """Stores post-dominated by a same-handler store of the same variable."""
    return _overwritten(fb, fb.store, fb.postdom)


def cross_pairs(fb: FactBase) -> frozenset[tuple[NodeId, NodeId, str]]:
    """All cross-handler same-variable (load, store) pairs the analysis weighs."""
    return frozenset(
        (l, s, v)
        for (l, v) in fb.load
        for (s, w) in fb.store
        if w == v and l.handler != s.handler
    )


def rejects(priority: dict[str, int], load_handler: str, covered: bool,
            store_handler: str, intercepted: bool) -> bool:
    """Whether MustNotReadFrom holds for the pairs of one (load class, store class).

    The rules read nothing else, so the answer is the same for every pair of
    the two classes. This is the one place the three rules are written down.
    """
    if load_handler == store_handler:
        return False
    return (covered and intercepted
            or covered and _cannot_preempt(priority, store_handler, load_handler)
            or intercepted and _cannot_preempt(priority, load_handler, store_handler))


def must_not_read_from(fb: FactBase) -> FeasibilityResult:
    """Group loads and stores into classes and decide each cross-handler pair of classes once.

    A pair of classes holds n_loads x n_stores node pairs, all rejected or all
    admitted, so the pair counts are sums of products; no pair is enumerated.
    """
    covered = covered_loads(fb)
    intercepted = intercepted_stores(fb)
    load_classes: dict[LoadClass, list[NodeId]] = {}
    for l, v in fb.load:
        load_classes.setdefault((v, l.handler, (l, v) in covered), []).append(l)
    store_classes: dict[str, dict[StoreClass, list[NodeId]]] = {}
    for s, v in fb.store:
        store_classes.setdefault(v, {}).setdefault((v, s.handler, (s, v) in intercepted), []).append(s)
    rejected: dict[LoadClass, list[StoreClass]] = {}
    total = pruned = 0
    for load_class, loads in load_classes.items():
        v, lh, is_covered = load_class
        out = rejected[load_class] = []
        for store_class, stores in store_classes.get(v, {}).items():
            _, sh, is_intercepted = store_class
            if lh == sh:
                continue
            total += len(loads) * len(stores)
            if rejects(fb.priority, lh, is_covered, sh, is_intercepted):
                pruned += len(loads) * len(stores)
                out.append(store_class)
    return FeasibilityResult(load_classes=load_classes, store_classes=store_classes,
                             rejected=rejected, pairs_total=total, pairs_pruned=pruned)


def _expand_rejected(result: FeasibilityResult) -> Iterator[tuple[NodeId, NodeId, str]]:
    """(load, store, variable) for every node pair of every rejected pair of classes."""
    for load_class, store_classes in result.rejected.items():
        v = load_class[0]
        for store_class in store_classes:
            stores = result.store_classes[v][store_class]
            for l in result.load_classes[load_class]:
                for s in stores:
                    yield l, s, v


def rejected_pairs(result: FeasibilityResult) -> frozenset[tuple[NodeId, NodeId, str]]:
    """The MustNotReadFrom relation expanded into (load, store, variable) triples."""
    return frozenset(_expand_rejected(result))


def dump_facts(fb: FactBase, result: FeasibilityResult) -> list[str]:
    """One `REL(arg, ...)` tuple per line, sorted lexicographically.

    Each node is formatted once. Each relation is one block, sorted on its
    own, and the blocks follow in relation-name order: every line starts with
    `Name(` and no name is a prefix of another, so this is the order of one
    global sort. The sort inside a block stays, because string order is not
    (handler, index) order: `a1:0` sorts before `a:0`, and `h:10` before `h:2`.
    NoPreempt is decided once per ordered pair of handlers.
    """
    name = {n: str(n) for n in fb.dom}
    # Node names by handler, each group sorted and the groups in the order of
    # `handler:`. No handler name holds a colon, so this is the sorted order of
    # all node names, and the NoPreempt block is built already sorted.
    names_of: dict[str, list[str]] = {}
    for n, text in name.items():
        names_of.setdefault(n.handler, []).append(text)
    handlers = sorted(names_of, key=lambda h: h + ":")
    for h in handlers:
        names_of[h].sort()
    shielded = {h1: [b for h2 in handlers if _cannot_preempt(fb.priority, h1, h2)
                     for b in names_of[h2]]
                for h1 in handlers}
    # Node names by handler and index, for reading dominance masks bit by bit.
    at_index: dict[str, list[str]] = {h: [""] * len(texts) for h, texts in names_of.items()}
    for n, text in name.items():
        at_index[n.handler][n.index] = text

    def dominance_lines(rel: str, masks: dict[NodeId, int]) -> list[str]:
        lines = []
        for b, mask in masks.items():
            names, b_name = at_index[b.handler], name[b]
            while mask:
                low = mask & -mask
                lines.append(f"{rel}({names[low.bit_length() - 1]}, {b_name})")
                mask ^= low
        return lines

    blocks = {
        "Dom": dominance_lines("Dom", fb.dom),
        "PostDom": dominance_lines("PostDom", fb.postdom),
        "Pri": [f"Pri({name[n]}, {fb.priority[n.handler]})" for n in fb.dom],
        "Load": [f"Load({name[n]}, {v})" for n, v in fb.load],
        "Store": [f"Store({name[n]}, {v})" for n, v in fb.store],
        "NoPreempt": [f"NoPreempt({a}, {b})" for h1 in handlers
                      for a in names_of[h1] for b in shielded[h1]],
        "CoveredLoad": [f"CoveredLoad({name[n]}, {v})"
                        for (v, _, covered), loads in result.load_classes.items() if covered
                        for n in loads],
        "InterceptedStore": [f"InterceptedStore({name[n]}, {v})"
                             for classes in result.store_classes.values()
                             for (v, _, intercepted), stores in classes.items() if intercepted
                             for n in stores],
        "MustNotReadFrom": [f"MustNotReadFrom({name[l]}, {name[s]}, {v})"
                            for l, s, v in _expand_rejected(result)],
    }
    return [line for rel in sorted(blocks) for line in sorted(blocks[rel])]
