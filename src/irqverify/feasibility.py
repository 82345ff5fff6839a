"""Infeasible store-to-load pair detection for prioritized handlers.

From per-handler dominance facts, priorities, and global load/store sites we
derive which cross-handler data flows can never happen under preemptive
priority scheduling. The derived relation is an under-approximation: a pair in
it is guaranteed infeasible on every concrete execution, but feasible-looking
pairs are left alone.

`extract_facts` gives one `HandlerFacts` record per handler, indexed like the
handler's graph: its priority, each node's dominator and post-dominator
bitmasks, each node's loads and its store. Only interference crosses
handlers, so everything but the last step reads one record at a time.

* A load of v is *covered* when a same-handler store of v other than itself
  dominates it: l reads locally unless someone preempts in between.
* A store of v is *intercepted* when a same-handler store of v other than
  itself post-dominates it: its value is overwritten before the handler
  returns.
* ``NoPreempt(h1, h2)``: h1 can never interleave into h2, because h2's
  priority is at least h1's (equal priorities never preempt). It depends only
  on the two handlers, so it is decided per pair of records; ``dump_facts``
  writes it as the cross product of their nodes, generated already in sorted
  order, and ``no_preempt`` expands it into node pairs for callers that want
  the relation as a set.

A cross-handler pair (load l, store s) of the same variable is rejected when
(1) l is covered and s is intercepted, (2) l is covered and s's handler cannot
preempt l's, or (3) s is intercepted and l's handler cannot preempt s's. The
rules see a load only through its class (variable, handler, covered) and a
store only through its class (variable, handler, intercepted), so ``rejects``
decides whole classes at once. ``must_not_read_from`` sets the two flags from
each record's masks, groups the record's sites into its classes, and calls
``rejects`` exactly once per cross-handler pair of classes of one variable.
Its result is the one class table every consumer reads: the pair counts are
sums of class-size products, the analysis reads per load class the store
classes it admits, and one generator expands only the rejected pairs of
classes into node pairs, which the facts dump writes and ``rejected_pairs``
collects. The dump streams each relation handler by handler; only NoPreempt
is written without a sort. All rules are non-recursive; no fixpoint or
external solver is involved.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple

from .cfg import AccessInfo, Cfg, NodeId, dominators, post_dominators, transposed
from .ir import Program


class HandlerFacts(NamedTuple):
    """One handler's ground facts; entry i of every list describes node i of `graph`."""

    graph: Cfg
    priority: int
    dom: list[int]  # node -> the mask of its dominators
    postdom: list[int]  # node -> the mask of its post-dominators
    loads: tuple[tuple[str, ...], ...]  # node -> the globals it loads
    store: tuple[str | None, ...]  # node -> the global it stores, if any

    @property
    def handler(self) -> str:
        return self.graph.handler


LoadClass = tuple[str, str, bool]  # (variable, handler, covered)
StoreClass = tuple[str, str, bool]  # (variable, handler, intercepted)


class FeasibilityResult(NamedTuple):
    """MustNotReadFrom at class granularity, decided once per pair of classes.

    Classes are grouped by handler, in handler order, and list their sites as
    ascending node indices of the handler's graph.
    """

    load_classes: dict[str, dict[LoadClass, list[int]]]  # handler -> load class -> its load nodes
    store_classes: dict[str, dict[StoreClass, list[int]]]  # handler -> store class -> its store nodes
    # load class -> the other handlers' store classes of its variable, split by the rules
    admitted: dict[LoadClass, list[StoreClass]]
    rejected: dict[LoadClass, list[StoreClass]]
    pairs_total: int
    pairs_pruned: int


def extract_facts(program: Program, cfgs: list[Cfg], infos: list[AccessInfo]) -> list[HandlerFacts]:
    """One record per handler, in program order; dominance never crosses handlers."""
    return [HandlerFacts(g, h.priority, dominators(g), post_dominators(g), *info)
            for h, g, info in zip(program.handlers, cfgs, infos)]


def _cannot_preempt(f1: HandlerFacts, f2: HandlerFacts) -> bool:
    """NoPreempt between handlers: h1 != h2 and pri(h2) >= pri(h1)."""
    return f1.handler != f2.handler and f2.priority >= f1.priority


# No subcommand calls `no_preempt` or `cross_pairs`. They are kept for the tests
# and as span targets of `perfbench/spans.py`, whose self-check fails when a
# target is missing.
def no_preempt(facts: list[HandlerFacts]) -> frozenset[tuple[NodeId, NodeId]]:
    """The NoPreempt relation expanded over all node pairs."""
    return frozenset((a, b) for f1 in facts for f2 in facts if _cannot_preempt(f1, f2)
                     for a in f1.graph.nodes for b in f2.graph.nodes)


def cross_pairs(facts: list[HandlerFacts]) -> frozenset[tuple[NodeId, NodeId, str]]:
    """All cross-handler same-variable (load, store) pairs the analysis weighs."""
    return frozenset((lf.graph.nodes[l], sf.graph.nodes[s], v)
                     for lf in facts for l, vs in enumerate(lf.loads) for v in vs
                     for sf in facts if sf.handler != lf.handler
                     for s, w in enumerate(sf.store) if w == v)


def rejects(load: HandlerFacts, covered: bool, store: HandlerFacts, intercepted: bool) -> bool:
    """Whether MustNotReadFrom holds for the pairs of one (load class, store class).

    The rules read nothing else, so the answer is the same for every pair of
    the two classes. This is the one place the three rules are written down.
    """
    if load.handler == store.handler:
        return False
    return (covered and intercepted
            or covered and _cannot_preempt(store, load)
            or intercepted and _cannot_preempt(load, store))


def must_not_read_from(facts: list[HandlerFacts]) -> FeasibilityResult:
    """Group each handler's loads and stores into classes and decide each cross-handler pair of classes once.

    A node is never covered or intercepted by its own store: a compound
    read-write like `x = x + 1` does not cover its own load. A pair of classes
    holds n_loads x n_stores node pairs, all rejected or all admitted, so the
    pair counts are sums of products; no pair is enumerated.
    """
    load_classes: dict[str, dict[LoadClass, list[int]]] = {}
    store_classes: dict[str, dict[StoreClass, list[int]]] = {}
    writers: dict[str, list[tuple[HandlerFacts, StoreClass, int]]] = {}  # variable -> (record, class, size)
    for f in facts:
        h = f.handler
        stored: dict[str, int] = {}  # variable -> the mask of this handler's stores of it
        for i, v in enumerate(f.store):
            if v is not None:
                stored[v] = stored.get(v, 0) | 1 << i
        loads = load_classes[h] = {}
        for i, vs in enumerate(f.loads):
            for v in vs:
                covered = bool(f.dom[i] & stored.get(v, 0) & ~(1 << i))
                loads.setdefault((v, h, covered), []).append(i)
        stores = store_classes[h] = {}
        for i, v in enumerate(f.store):
            if v is not None:
                intercepted = bool(f.postdom[i] & stored[v] & ~(1 << i))
                stores.setdefault((v, h, intercepted), []).append(i)
        for store_class, sites in stores.items():
            writers.setdefault(store_class[0], []).append((f, store_class, len(sites)))

    admitted: dict[LoadClass, list[StoreClass]] = {}
    rejected: dict[LoadClass, list[StoreClass]] = {}
    total = pruned = 0
    for lf in facts:
        for load_class, sites in load_classes[lf.handler].items():
            v, _, covered = load_class
            ok = admitted[load_class] = []
            no = rejected[load_class] = []
            for sf, store_class, n_stores in writers.get(v, ()):
                if sf.handler == lf.handler:
                    continue
                pairs = len(sites) * n_stores
                total += pairs
                if rejects(lf, covered, sf, store_class[2]):
                    pruned += pairs
                    no.append(store_class)
                else:
                    ok.append(store_class)
    return FeasibilityResult(load_classes=load_classes, store_classes=store_classes,
                             admitted=admitted, rejected=rejected,
                             pairs_total=total, pairs_pruned=pruned)


def _expand_rejected(result: FeasibilityResult, lh: str) -> Iterator[tuple[int, str, int, str]]:
    """(load node, store handler, store node, variable) for every node pair of
    every rejected pair of classes whose loads are in handler `lh`."""
    for load_class, loads in result.load_classes[lh].items():
        v = load_class[0]
        for store_class in result.rejected[load_class]:
            sh = store_class[1]
            stores = result.store_classes[sh][store_class]
            for l in loads:
                for s in stores:
                    yield l, sh, s, v


def rejected_pairs(result: FeasibilityResult) -> frozenset[tuple[NodeId, NodeId, str]]:
    """The MustNotReadFrom relation expanded into (load, store, variable) triples."""
    return frozenset((NodeId(lh, l), NodeId(sh, s), v)
                     for lh in result.load_classes for l, sh, s, v in _expand_rejected(result, lh))


# Lines per `write` call. Each piece is a few hundred bytes, which Python's
# small-object allocator serves. Writing a block or a handler at once instead
# takes blocks of up to a megabyte from the C heap, in which the output buffer
# of a `StringIO` caller also grows; on the perfbench `facts` batch that left
# the heap fragmented and the peak RSS of such a caller about 5 MB higher.
_PIECE = 16


def dump_facts(facts: list[HandlerFacts], result: FeasibilityResult,
               write: Callable[[str], object]) -> dict[str, int]:
    """Write one `REL(arg, ...)` tuple per line, sorted lexicographically, through `write`.

    Relations follow in name order (no name is a prefix of another). A line's
    first argument is a node named `handler:index`, and no handler name holds
    a colon, so inside a relation the handlers follow in `handler:` order: each
    handler's lines are built, sorted (`h:10` sorts before `h:2`) and written
    in pieces of `_PIECE` lines, and no more is held at once. NoPreempt, most
    of the dump, is never sorted: it is generated in order from each handler's
    sorted names. Returns each relation's line count, in dump order.
    """
    names = {f.handler: [str(n) for n in f.graph.nodes] for f in facts}
    order = sorted(facts, key=lambda f: f.handler + ":")
    sorted_names = {f.handler: sorted(names[f.handler]) for f in order}
    counts: dict[str, int] = {}

    def block(rel: str, lines_of: Callable[[HandlerFacts, list[str]], list[str]]) -> None:
        counts[rel] = 0
        for f in order:
            lines = sorted(lines_of(f, names[f.handler]))
            for k in range(0, len(lines), _PIECE):
                write("\n".join(lines[k:k + _PIECE]) + "\n")
            counts[rel] += len(lines)

    def dominance_lines(rel: str, masks: list[int], at: list[str]) -> list[str]:
        return [f"{rel}({at[a]}, {at[b]})" for a, row in enumerate(transposed(masks)) for b in row]

    block("CoveredLoad", lambda f, at: [f"CoveredLoad({at[i]}, {v})"
                                        for (v, _, covered), sites in result.load_classes[f.handler].items()
                                        if covered for i in sites])
    block("Dom", lambda f, at: dominance_lines("Dom", f.dom, at))
    block("InterceptedStore", lambda f, at: [f"InterceptedStore({at[i]}, {v})"
                                             for (v, _, intercepted), sites
                                             in result.store_classes[f.handler].items()
                                             if intercepted for i in sites])
    block("Load", lambda f, at: [f"Load({at[i]}, {v})" for i, vs in enumerate(f.loads) for v in vs])
    block("MustNotReadFrom", lambda f, at: [f"MustNotReadFrom({at[l]}, {names[sh][s]}, {v})"
                                            for l, sh, s, v in _expand_rejected(result, f.handler)])
    counts["NoPreempt"] = 0
    for f1 in order:
        # decided once per ordered pair of handlers
        shielded = [b for f2 in order if _cannot_preempt(f1, f2) for b in sorted_names[f2.handler]]
        pieces = [shielded[k:k + _PIECE] for k in range(0, len(shielded), _PIECE)]
        for a in sorted_names[f1.handler]:
            head = f"NoPreempt({a}, "
            for piece in pieces:
                write(head + (")\n" + head).join(piece) + ")\n")
        counts["NoPreempt"] += len(sorted_names[f1.handler]) * len(shielded)
    block("PostDom", lambda f, at: dominance_lines("PostDom", f.postdom, at))
    block("Pri", lambda f, at: [f"Pri({a}, {f.priority})" for a in at])
    block("Store", lambda f, at: [f"Store({at[i]}, {v})" for i, v in enumerate(f.store) if v is not None])
    return counts
