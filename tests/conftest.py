import json
import pathlib

import pytest

from irqverify import parse_file

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"

CORPUS_NAMES = [
    "three_priorities",
    "branch_overwrites",
    "loop_store_overwrite",
    "trace_subset",
    "covered_and_intercepted",
    "covered_only",
    "intercepted_only",
    "uncovered_pair",
]


@pytest.fixture(scope="session")
def corpus_dir() -> pathlib.Path:
    return CORPUS


def corpus_path(name: str) -> pathlib.Path:
    return CORPUS / f"{name}.irq"


def load_corpus(name: str):
    return parse_file(str(corpus_path(name)))


def load_expected(name: str) -> dict:
    return json.loads((CORPUS / f"{name}.expected.json").read_text())


def node_states(result) -> dict:
    """Every node's state of an `AnalysisResult`, keyed by `NodeId`, in handler and then node order."""
    return {n: state for f, post in zip(result.facts, result.states)
            for n, state in zip(f.graph.nodes, post)}


@pytest.fixture(params=CORPUS_NAMES)
def corpus_name(request) -> str:
    return request.param
