"""CLI output pinned byte for byte against the pre-refactor implementation.

Each digest is the sha256 over (input name, exit code, stdout) of one
subcommand run on the 8 corpus programs and on the progen programs of seeds
0-49. The constants were recorded before the feasibility relations became
lazy, the `--dump-cfg --dump-facts` one before dominance became per-node
bitmasks, and the text `compare` one before its `pairs:` line was shared with
`analyze`; a refactor of the analysis must leave all of them unchanged.
The three `oracle` digests were recorded before the oracle's ample sets
checked which handlers may still preempt, and before `compare` dropped the
writers from its states; `oracle` must still print the flows and the
execution count of writer-distinct end states.

CLI output shows verdicts, not node states, so `STATES_PINNED` pins what
`analyze` computes: the sha256 over the report and every node's state, on the
corpus, progen seeds 0-499 and the perfbench seed-0 batches, under three
configurations. It was recorded before the fixpoint read the class table
directly. Each of those analyses must also pass the fixpoint certificate of
`certificate.py`, which checks soundness where a digest only checks change.
"""

import contextlib
import hashlib
import io
import random

import pytest

from irqverify.analyzer import AnalysisConfig, analyze
from irqverify.cli import main
from irqverify.ir import format_program
from irqverify.parser import parse_program

from certificate import certificate_problems
from conftest import CORPUS_NAMES, corpus_path, load_corpus, node_states
from progen import random_program
from test_parser_reference import _perfbench_seed0_texts

PINNED = {
    ("facts",):
        "0794671bd3e07e756184910da3132c1c029b4bf926f9bdd29c7fa104c35f1fb8",
    ("analyze",):
        "8e3a83879c2cb0457b8d459465aef017b254f2c462e2f574ad1d95ec00e93752",
    ("analyze", "--dump-cfg", "--dump-facts"):
        "e257cd8bc0bd9797ef2043ac5038562bb145b28e4fc00128ea610e0f9eb99551",
    ("analyze", "--json"):
        "e950120789ae67f95876e999affa518d44903c3499d16e3a509485fd37c3cd47",
    ("analyze", "--no-pruning", "--json"):
        "ab4515a4a0aab524a48ba1d18551e4b499898da57f1a9257413edbbe47789855",
    ("compare", "--json"):
        "95ac6bb7355f98802ef628ad58ae00d792942086a66aa4a94e90aa6da9687cdb",
    ("compare",):
        "6f59e2fccf640dd39afcba75afd69e51d738eb18b24c948cb55d38fe3c8961f7",
    ("oracle",):
        "abd6d2fd8629a62299c3d354167ef3c2e47f387269c5d8957a788e326cee68b3",
    ("oracle", "--track-flows"):
        "1330b3a2553860549daf9d3b8f50d3025e0979129c9a8c9514d1b1cf8636d5b6",
    ("oracle", "--oracle-budget", "2"):
        "b9d03b36f7038280af69408ee0a2f354318d821145a379602ed3a0b8b90935ac",
}


def _inputs(tmp_dir):
    for name in CORPUS_NAMES:
        yield name, corpus_path(name)
    for seed in range(50):
        path = tmp_dir / f"progen_{seed}.irq"
        path.write_text(format_program(random_program(random.Random(seed))))
        yield f"progen_{seed}", path


def command_digest(argv: tuple[str, ...], tmp_dir) -> str:
    h = hashlib.sha256()
    for name, path in _inputs(tmp_dir):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([*argv, str(path)])
        h.update(f"{name}\0{code}\0{out.getvalue()}\0".encode())
    return h.hexdigest()


@pytest.mark.parametrize("argv", sorted(PINNED), ids=" ".join)
def test_cli_output_matches_pinned_digest(argv, tmp_path):
    assert command_digest(argv, tmp_path) == PINNED[argv]


STATES_PINNED = "f3dbedf80862b0d20bc2cfeae34e9b34cf3227a3f2d10beda37e84badaae8d2b"


def test_node_states_match_pinned_digest():
    programs = [load_corpus(name) for name in CORPUS_NAMES]
    programs += [random_program(random.Random(seed)) for seed in range(500)]
    programs += [parse_program(text) for text in _perfbench_seed0_texts()]
    h = hashlib.sha256()
    for config in (AnalysisConfig(), AnalysisConfig(pruning=False), AnalysisConfig(widen_delay=1)):
        for program in programs:
            result = analyze(program, config)
            assert certificate_problems(program, config, result) == []
            h.update(f"{result.report!r}\0".encode())
            for node, state in node_states(result).items():
                h.update(f"{node!r}\0{state!r}\0".encode())
    assert h.hexdigest() == STATES_PINNED
