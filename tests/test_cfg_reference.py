"""The index-based lowering against the NodeId-keyed one it replaced.

`cfg_reference` keeps the old lowering verbatim. On the corpus, on
`format_program` of progen seeds 0-499 and on the perfbench seed-0 batches,
every handler's graph must be the same node for node: instruction,
successors, predecessors, loop heads, back edges, loop exits, entry and exit.
The `dump_cfg` text, which adds the dominance relations, must be the same too.
"""

import random

import pytest

from irqverify import build_cfg, format_program, parse_program
from irqverify.cfg import dominators, dump_cfg, post_dominators

import cfg_reference
from conftest import CORPUS_NAMES, load_corpus
from progen import random_program
from test_parser_reference import _perfbench_seed0_texts


def assert_same_graphs(program, label):
    for handler in program.handlers:
        new, old = build_cfg(handler), cfg_reference.build_cfg(handler)
        where = (label, handler.name)
        assert (new.handler, new.nodes) == (old.handler, old.nodes), where
        assert (new.entry, new.exit) == (old.entry, old.exit), where
        at = old.nodes  # node index -> NodeId
        for i, n in enumerate(old.nodes):
            assert new.instr[i] == old.instr[n], (where, n)
            assert tuple(at[s] for s in new.succs[i]) == old.succs[n], (where, n)
            assert tuple(at[p] for p in new.preds[i]) == old.preds[n], (where, n)
        assert {(at[s], at[t]) for s, ts in enumerate(new.succs) for t in ts} == old.edges, where
        assert {at[i] for i in new.loop_heads} == old.loop_heads, where
        assert {(at[s], at[t]) for s, t in new.back_edges} == old.back_edges, where
        assert {at[a]: at[h] for a, h in new.loop_exits.items()} == old.loop_exits, where
        assert dump_cfg(new, dominators(new), post_dominators(new)) == cfg_reference.dump_cfg(old), where


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_graphs_match_on_corpus(name):
    assert_same_graphs(load_corpus(name), name)


def test_graphs_match_on_progen_seeds():
    for seed in range(500):
        text = format_program(random_program(random.Random(seed)))
        assert_same_graphs(parse_program(text), f"progen seed {seed}")


def test_graphs_match_on_perfbench_seed0_batches():
    for i, text in enumerate(_perfbench_seed0_texts()):
        assert_same_graphs(parse_program(text), f"perfbench input {i}")
