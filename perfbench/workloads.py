"""Workload definitions: the seeded input batch and the check of every output.

A workload is a batch of generated `.irq` files and the CLI commands run on
each. Every output is checked twice: against the expectations the generator
derived from the source (assertion ids, pair counts, fact counts, soundness of
`compare`), which hold for any seed, and against a reference digest of the
exit code and stdout.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
from dataclasses import dataclass

import gen


@dataclass(frozen=True)
class Item:
    path: str  # relative to the checkout root
    commands: tuple[tuple[str, ...], ...]
    expected: gen.Expected


# Shapes are (handlers, top-level statements per handler); each batch cycles
# through its shapes. The oracle batch is sized in programs.
WIDE_SHAPES = ((12, 50), (14, 55))
WIDE_FILES = 2
DEEP_SHAPES = ((2, 200), (3, 200))
DEEP_FILES = 2
FACTS_SHAPE = (8, 40)
FACTS_FILES = 4
ORACLE_FILES = 300

WORKLOADS = ("wide", "deep", "facts", "oracle")


# The harness self-check runs every workload on a tiny batch of this shape.
TINY_SHAPE = (3, 12)
TINY_FILES = 2
TINY_ORACLE_FILES = 12


def make_batch(workload: str, seed: int, tiny: bool = False) -> list[tuple[str, str, tuple, gen.Expected]]:
    """(file name, text, commands, expected) for every input of the batch."""
    out = []
    if workload == "oracle":
        for i in range(TINY_ORACLE_FILES if tiny else ORACLE_FILES):
            # Skeleton i is the acceptance sweep's program i; the seed draws
            # the assertions.
            text, expected, budget = gen.sweep_program(
                random.Random(i), random.Random(f"oracle:{seed}:{i}"))
            out.append((f"p{i:04d}.irq", text,
                        (("compare", "--json", "--oracle-budget", str(budget)),), expected))
        return out
    if workload == "wide":
        shapes, count, commands = WIDE_SHAPES, WIDE_FILES, (("analyze",),)
    elif workload == "deep":
        shapes, count, commands = DEEP_SHAPES, DEEP_FILES, (("analyze",),)
    elif workload == "facts":
        shapes, count = (FACTS_SHAPE,), FACTS_FILES
        commands = (("facts",), ("analyze", "--no-pruning", "--json"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if tiny:
        shapes, count = (TINY_SHAPE,), TINY_FILES
    for i in range(count):
        handlers, stmts = shapes[i % len(shapes)]
        text, expected = gen.shaped_program(random.Random(f"{workload}:{seed}:{i}"), handlers, stmts)
        out.append((f"p{i:04d}.irq", text, commands, expected))
    return out


def workdir(root: str, workload: str, seed: int, tiny: bool = False) -> str:
    """Where a run writes its inputs, spans and result."""
    return os.path.join(root, ".perfbench_work", f"{workload}{'-tiny' if tiny else ''}-s{seed}")


def write_inputs(workload: str, seed: int, workdir: str, root: str,
                 tiny: bool = False) -> tuple[list[Item], str]:
    """Write the batch under `workdir`; return its items and input-set digest."""
    os.makedirs(workdir, exist_ok=True)
    for name in os.listdir(workdir):
        if name.endswith(".irq"):
            os.remove(os.path.join(workdir, name))
    digest = hashlib.sha256()
    items = []
    for name, text, commands, expected in make_batch(workload, seed, tiny):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        rel = os.path.relpath(path, root)
        items.append(Item(rel, tuple(c + (rel,) for c in commands), expected))
        for part in (name, text, repr(commands)):
            digest.update(part.encode())
            digest.update(b"\0")
    return items, digest.hexdigest()


def output_digest(rc: int | None, stdout: str) -> str:
    """Short digest of one call: exit code and stdout."""
    return f"{rc}:{hashlib.sha256(stdout.encode()).hexdigest()[:12]}"


# ---------------------------------------------------------------------------
# Checks derived from the generator's expectations
# ---------------------------------------------------------------------------

_PAIRS = re.compile(r"^pairs: total=(\d+) pruned=(\d+)", re.M)


def _check_analyze_text(exp: gen.Expected, rc: int, out: str) -> list[str]:
    lines = out.splitlines()
    ids, verdicts = [], []
    for line in lines[1:]:
        if not line:
            break
        if line != "(no assertions)":
            parts = line.split()
            ids.append(parts[0])
            verdicts.append(parts[-1])
    m = _PAIRS.search(out)
    problems = []
    if ids != exp.assert_ids:
        problems.append("assertion ids differ from the source")
    if not m or int(m.group(1)) != exp.pairs_total:
        problems.append("pairs total differs from the source")
    if rc != (1 if "Warning" in verdicts else 0):
        problems.append(f"exit code {rc} does not match the verdicts")
    return problems


def _check_analyze_json(exp: gen.Expected, rc: int, out: str, pruning: bool) -> tuple[list[str], int | None]:
    data = json.loads(out)
    verdicts = data["verdicts"]
    problems = []
    if [v["assertion_id"] for v in verdicts] != exp.assert_ids:
        problems.append("assertion ids differ from the source")
    if data["pairs"]["total"] != exp.pairs_total:
        problems.append("pairs total differs from the source")
    if data["pruning_enabled"] != pruning:
        problems.append("pruning flag not reported")
    if rc != (1 if any(v["verdict"] == "Warning" for v in verdicts) else 0):
        problems.append(f"exit code {rc} does not match the verdicts")
    return problems, data["pairs"]["pruned"]


def _check_facts(exp: gen.Expected, rc: int, out: str) -> tuple[list[str], int]:
    lines = out.splitlines()
    counts: dict[str, int] = {}
    for line in lines:
        rel = line[:line.find("(")]
        counts[rel] = counts.get(rel, 0) + 1
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if lines != sorted(lines):
        problems.append("facts are not sorted")
    for rel, want in (("Pri", exp.nodes), ("Load", exp.load_sites), ("Store", exp.store_sites),
                      ("NoPreempt", exp.no_preempt)):
        if counts.get(rel, 0) != want:
            problems.append(f"{rel} count {counts.get(rel, 0)} differs from the source ({want})")
    return problems, counts.get("MustNotReadFrom", 0)


def _check_compare_json(exp: gen.Expected, rc: int, out: str) -> list[str]:
    if rc == 3:
        return ["compare found a proved assertion the oracle violates"]
    data = json.loads(out)
    rows = data["rows"]
    problems = []
    if rc != 0 or not data["sound"]:
        problems.append(f"exit code {rc}, sound={data['sound']}")
    if [r["assertion_id"] for r in rows] != exp.assert_ids:
        problems.append("assertion ids differ from the source")
    if data["pairs"]["total"] != exp.pairs_total:
        problems.append("pairs total differs from the source")
    for r in rows:
        if r["oracle"] == "violated" and "Proved" in (r["pruning"], r["no_pruning"]):
            problems.append(f"{r['assertion_id']} proved but violated")
        if r["no_pruning"] == "Proved" and r["pruning"] != "Proved":
            problems.append(f"{r['assertion_id']} pruning lost a proof")
    return problems


def check_item(item: Item, outputs: list[tuple[int | None, str]]) -> list[str]:
    """Problems with one file's outputs, from what its source implies."""
    problems: list[str] = []
    mnrf = pruned = None
    for argv, (rc, out) in zip(item.commands, outputs):
        try:
            if argv[0] == "analyze" and "--json" in argv:
                found, pruned = _check_analyze_json(item.expected, rc, out, "--no-pruning" not in argv)
            elif argv[0] == "analyze":
                found = _check_analyze_text(item.expected, rc, out)
            elif argv[0] == "facts":
                found, mnrf = _check_facts(item.expected, rc, out)
            elif argv[0] == "compare":
                found = _check_compare_json(item.expected, rc, out)
            else:
                found = [f"no check for {argv[0]}"]
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            found = [f"unreadable output ({type(exc).__name__}: {exc})"]
        problems += [f"{' '.join(argv[:-1])}: {p}" for p in found]
    if mnrf is not None and pruned is not None and mnrf != pruned:
        problems.append(f"MustNotReadFrom count {mnrf} differs from analyze's pruned pairs {pruned}")
    return problems
