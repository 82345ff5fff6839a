import argparse
import json
import os
import random
import subprocess
import sys

import pytest

from irqverify.cli import main
from irqverify.ir import format_program
from irqverify.parser import parse_file

from conftest import CORPUS_NAMES, corpus_path
from progen import random_program


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_exit_one_on_warnings(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(corpus_path("three_priorities")))
    assert code == 1
    assert "irq_M#0" in out and "Proved" in out and "Warning" in out


def test_analyze_exit_zero_when_all_proved(capsys, tmp_path):
    src = tmp_path / "ok.irq"
    src.write_text("global x = 0; handler h priority 0 { x = 1; assert(x == 1); }\n")
    code, out, _ = run_cli(capsys, "analyze", str(src))
    assert code == 0
    assert "Proved" in out


def test_analyze_exit_zero_without_assertions(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(corpus_path("trace_subset")))
    assert code == 0
    assert "(no assertions)" in out


def test_analyze_json_schema_and_values(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--json", str(corpus_path("three_priorities")))
    assert code == 1
    payload = json.loads(out)
    verdicts = {v["assertion_id"]: v["verdict"] for v in payload["verdicts"]}
    assert verdicts == {"irq_H#0": "Warning", "irq_L#0": "Warning", "irq_M#0": "Proved"}
    assert payload["pairs"] == {"total": 3, "pruned": 1, "ratio": 1 / 3}
    assert payload["pruning_enabled"] is True


def test_analyze_no_pruning_degrades_verdict(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--json", "--no-pruning",
                           str(corpus_path("three_priorities")))
    payload = json.loads(out)
    verdicts = {v["assertion_id"]: v["verdict"] for v in payload["verdicts"]}
    assert verdicts["irq_M#0"] == "Warning"
    assert payload["pruning_enabled"] is False


def test_analyze_parse_error_exit_two(capsys, tmp_path):
    src = tmp_path / "bad.irq"
    src.write_text("handler h priority 0 { y = 1; }\n")
    code, out, err = run_cli(capsys, "analyze", str(src))
    assert code == 2
    assert "error" in err and "y" in err


def test_analyze_missing_file_exit_two(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent/file.irq")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--max-iters", "0"], "max outer iterations must be at least 1"),
    (["analyze", "--widen-delay", "0"], "widening delay must be at least 1"),
    (["compare", "--widen-delay", "0"], "widening delay must be at least 1"),
    (["oracle", "--oracle-budget", "0"], "oracle bounds must be at least 1"),
    (["oracle", "--unroll", "0"], "oracle bounds must be at least 1"),
], ids=["analyze-max-iters", "analyze-widen-delay", "compare-widen-delay", "oracle-budget",
        "oracle-unroll"])
def test_analyze_bad_config_exit_two(capsys, argv, message):
    # each config record rejects its own bound when built, and the CLI reports that text
    code, out, err = run_cli(capsys, *argv, str(corpus_path("three_priorities")))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits") or sys.get_int_max_str_digits() == 0,
                    reason="the interpreter converts integer strings of any length")
def test_overlong_integer_literal_is_a_positioned_error(capsys, tmp_path):
    src = tmp_path / "long.irq"
    src.write_text("global x = 0; handler h priority 0 { x = " + "1" * 5000 + "; }\n")
    code, _, err = run_cli(capsys, "analyze", str(src))
    assert code == 2
    assert err.startswith("error: 1:42: ")
    assert "Traceback" not in err


DEEP_INPUTS = {
    "long_sum": "global x = 0; handler h priority 0 { x = " + " + ".join(["1"] * 5000) + "; }\n",
    "nested_parens": "global x = 0; handler h priority 0 { x = " + "(" * 3000 + "1"
                     + ")" * 3000 + "; }\n",
    "nested_ifs": "global x = 0; handler h priority 0 { " + "if (*) { " * 1200 + "x = 1; "
                  + "} " * 1200 + "}\n",
}


@pytest.mark.parametrize("name", sorted(DEEP_INPUTS))
def test_input_nested_too_deeply_exit_two(capsys, tmp_path, name):
    src = tmp_path / f"{name}.irq"
    src.write_text(DEEP_INPUTS[name])
    code, _, err = run_cli(capsys, "analyze", str(src))
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def _mutate(rng: random.Random, data: bytes) -> bytes:
    """One to three byte-level edits: overwrite, delete, insert or copy a span."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(4)
        pos = rng.randrange(len(out) + 1)
        if op == 0 and pos < len(out):
            out[pos] = rng.randrange(256)
        elif op == 1 and pos < len(out):
            del out[pos]
        elif op == 2:
            out.insert(pos, rng.choice(b"{}();=+-*<>!&|#/0123456789xyzt \n"))
        else:
            start = rng.randrange(len(out) + 1)
            out[pos:pos] = out[start:start + rng.randint(1, 16)]
    return bytes(out)


def test_mutated_inputs_never_end_in_traceback(capsys, tmp_path):
    # 35 mutants of each corpus program, 5 of each (slow to parse) deep input
    originals = [corpus_path(name).read_bytes() for name in CORPUS_NAMES] * 35
    originals += [DEEP_INPUTS[name].encode() for name in sorted(DEEP_INPUTS)] * 5
    rng = random.Random(2024)
    src = tmp_path / "mutant.irq"
    for i, original in enumerate(originals):
        data = _mutate(rng, original)
        src.write_bytes(data)
        for sub in (["analyze"], ["facts"], ["compare", "--json"]):
            code, _, err = run_cli(capsys, *sub, str(src))
            assert code in (0, 1, 2) and "Traceback" not in err, (i, sub, data, err)


def test_analyze_dump_flags(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--dump-cfg", "--dump-facts",
                           str(corpus_path("loop_store_overwrite")))
    assert "cfg irq0" in out and "cfg irq1" in out
    assert "MustNotReadFrom(irq0:1, irq1:4, x)" in out
    assert any(line.startswith("dom ") for line in out.splitlines())


def test_dump_cfg_prints_the_dominance_the_analysis_computed(capsys, monkeypatch):
    """`analyze --dump-cfg` renders the masks of each handler's facts record:
    dominance is computed once per handler, wherever it is looked up from."""
    import irqverify.cfg as cfg_mod
    import irqverify.feasibility as feasibility_mod

    calls = {"dominators": 0, "post_dominators": 0}
    for name in calls:
        real = getattr(cfg_mod, name)

        def counted(g, name=name, real=real):
            calls[name] += 1
            return real(g)

        for module in (cfg_mod, feasibility_mod):
            monkeypatch.setattr(module, name, counted)
    for name in CORPUS_NAMES:
        path = corpus_path(name)
        handlers = len(parse_file(str(path)).handlers)
        calls.update(dict.fromkeys(calls, 0))
        code, out, _ = run_cli(capsys, "analyze", "--dump-cfg", str(path))
        assert code in (0, 1) and "dom " in out and "postdom " in out
        assert calls == {"dominators": handlers, "post_dominators": handlers}, name


def test_dump_facts_flag_writes_the_facts_dump_before_the_report(capsys, tmp_path):
    """`analyze --dump-facts` and `facts` share one writer: the first prints
    exactly what the second does, then the plain report."""
    paths = [str(corpus_path(name)) for name in CORPUS_NAMES]
    rng = random.Random(17)
    for i in range(3):
        src = tmp_path / f"eight_{i}.irq"
        src.write_text(format_program(random_program(rng, handler_count=8)))
        paths.append(str(src))
    for path in paths:
        _, both, _ = run_cli(capsys, "analyze", "--dump-facts", path)
        _, facts, _ = run_cli(capsys, "facts", path)
        _, report, _ = run_cli(capsys, "analyze", path)
        assert both == facts + report, path


# ---------------------------------------------------------------------------
# facts / oracle / compare
# ---------------------------------------------------------------------------


def test_facts_output_sorted(capsys):
    code, out, _ = run_cli(capsys, "facts", str(corpus_path("three_priorities")))
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert lines == sorted(lines)
    assert any(l.startswith("NoPreempt(") for l in lines)


def test_oracle_json_output(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--track-flows", "--oracle-budget", "1",
                           str(corpus_path("three_priorities")))
    assert code == 0
    payload = json.loads(out)
    assert payload["violated"] == ["irq_H#0", "irq_L#0"]
    assert payload["truncated"] is False
    assert any(f["var"] == "x" for f in payload["flows"])


def test_compare_reports_all_columns(capsys):
    code, out, _ = run_cli(capsys, "compare", "--json", "--oracle-budget", "2",
                           str(corpus_path("loop_store_overwrite")))
    assert code == 0
    payload = json.loads(out)
    (row,) = payload["rows"]
    assert row == {"assertion_id": "irq0#0", "handler": "irq0", "pruning": "Proved",
                   "no_pruning": "Warning", "oracle": "ok"}
    assert payload["sound"] is True
    assert payload["oracle_skipped"] is False
    assert payload["pairs"]["total"] == 2


def test_compare_human_table(capsys):
    code, out, _ = run_cli(capsys, "compare", str(corpus_path("three_priorities")))
    assert code == 0
    assert "no-pruning" in out and "oracle" in out
    assert "violated" in out  # the two genuine warnings


def test_compare_oracle_ceiling_marks_skipped(capsys, tmp_path, monkeypatch):
    import irqverify.cli as cli_mod
    from irqverify import OracleLimitError

    def boom(program, config, built=None):
        raise OracleLimitError("too many executions")

    monkeypatch.setattr(cli_mod, "enumerate_executions", boom)
    code, out, _ = run_cli(capsys, "compare", "--json", str(corpus_path("three_priorities")))
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle_skipped"] is True
    assert all(row["oracle"] == "skipped" for row in payload["rows"])


def test_compare_checks_oracle_bounds_before_analyzing(capsys, monkeypatch):
    def no_analysis(*args, **kwargs):
        raise AssertionError("compare analyzed before it checked its oracle flags")

    monkeypatch.setattr("irqverify.cli.analyze", no_analysis)
    code, out, err = run_cli(capsys, "compare", "--unroll", "0",
                             str(corpus_path("three_priorities")))
    assert (code, out) == (2, "")
    assert err == "error: oracle bounds must be at least 1\n"


def test_compare_builds_graphs_once(capsys, monkeypatch):
    # the oracle reads the graphs and the access facts that prepare computed
    import irqverify.cfg as cfg_mod

    calls = []
    for name in ("build_cfg", "access_info"):
        def counted(*args, real=getattr(cfg_mod, name), name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(cfg_mod, name, counted)
    path = str(corpus_path("three_priorities"))
    code, out, _ = run_cli(capsys, "compare", "--json", path)
    assert code == 0
    assert json.loads(out)["oracle_skipped"] is False
    handlers = len(parse_file(path).handlers)
    assert sorted(calls) == ["access_info"] * handlers + ["build_cfg"] * handlers


@pytest.mark.parametrize("command, keeps_writers", [("compare", False), ("oracle", True)])
def test_only_oracle_keeps_the_writers(capsys, monkeypatch, command, keeps_writers):
    # compare reads nothing but `violated`; oracle prints a writer-distinct execution count
    import irqverify.cli as cli_mod

    configs = []
    real = cli_mod.enumerate_executions

    def capture(program, config, built=None):
        configs.append(config)
        return real(program, config, built)

    monkeypatch.setattr(cli_mod, "enumerate_executions", capture)
    code, _, _ = run_cli(capsys, command, str(corpus_path("three_priorities")))
    assert code == 0
    (config,) = configs
    assert config.violations_only is not keeps_writers and config.track_flows is False


def test_oracle_ceiling_exit_two(capsys, monkeypatch):
    import irqverify.cli as cli_mod
    from irqverify import OracleLimitError

    def boom(program, config):
        raise OracleLimitError("exceeded 3000000 explored scheduler states")

    monkeypatch.setattr(cli_mod, "enumerate_executions", boom)
    code, _, err = run_cli(capsys, "oracle", str(corpus_path("three_priorities")))
    assert code == 2
    assert err.startswith("error:") and "scheduler states" in err
    assert "Traceback" not in err


def test_internal_error_exit_four(capsys, monkeypatch):
    import irqverify.cli as cli_mod

    def boom(program, config):
        raise KeyError("missing")

    monkeypatch.setattr(cli_mod, "analyze", boom)
    code, _, err = run_cli(capsys, "analyze", str(corpus_path("three_priorities")))
    assert code == 4
    assert "Traceback" in err
    assert err.splitlines()[-1] == "error: internal error: KeyError('missing')"


def test_arg_parser_built_once_per_process(capsys, monkeypatch):
    builds = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "irqverify":
            builds.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(2):
        code, out, _ = run_cli(capsys, "facts", str(corpus_path("trace_subset")))
        assert code == 0 and out
    assert len(builds) <= 1


def test_entry_point_via_module():
    proc = subprocess.run(
        [sys.executable, "-m", "irqverify", "analyze", "--json", str(corpus_path("three_priorities"))],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["iterations"] >= 1


def test_cli_byte_identical_across_runs():
    args = [sys.executable, "-m", "irqverify"]
    for sub in (["analyze", "--json"], ["facts"],
                ["oracle", "--track-flows", "--oracle-budget", "1"],
                ["compare", "--json", "--oracle-budget", "1"]):
        cmd = args + sub + [str(corpus_path("branch_overwrites"))]
        a = subprocess.run(cmd, capture_output=True)
        b = subprocess.run(cmd, capture_output=True)
        assert a.stdout == b.stdout and a.returncode == b.returncode


# ---------------------------------------------------------------------------
# cold start: each command imports only what it runs
# ---------------------------------------------------------------------------

_RUN_AND_LIST_ORACLE = """
import sys
from irqverify.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print("oracle loaded:", "irqverify.oracle" in sys.modules,
      "dataclasses loaded:", "dataclasses" in sys.modules, "exit:", code)
"""


def _run_in_fresh_process(*argv):
    proc = subprocess.run([sys.executable, "-c", _RUN_AND_LIST_ORACLE, *argv],
                          capture_output=True, text=True)
    assert proc.stderr == ""
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("argv, code", [
    ([], 0),  # the import alone
    (["analyze", str(corpus_path("three_priorities"))], 1),
    (["analyze", "--json", "--no-pruning", "--dump-cfg", "--dump-facts",
      str(corpus_path("trace_subset"))], 0),
    (["facts", str(corpus_path("three_priorities"))], 0),
])
def test_import_analyze_and_facts_do_not_load_the_oracle(argv, code):
    assert _run_in_fresh_process(*argv) == f"oracle loaded: False dataclasses loaded: False exit: {code}"


@pytest.mark.parametrize("argv", [
    ["oracle", "--track-flows", str(corpus_path("three_priorities"))],
    ["compare", "--json", "--oracle-budget", "2", str(corpus_path("loop_store_overwrite"))],
])
def test_oracle_and_compare_load_the_oracle_when_they_run(argv):
    assert _run_in_fresh_process(*argv) == "oracle loaded: True dataclasses loaded: False exit: 0"


def test_every_public_name_resolves_and_is_listed():
    script = """
import sys
import irqverify
assert "irqverify.oracle" not in sys.modules
listed = dir(irqverify)
missing = [name for name in irqverify.__all__ if name not in listed]
assert not missing, missing
for name in irqverify.__all__:
    getattr(irqverify, name)
from irqverify import OracleLimitError, enumerate_executions
from irqverify.oracle import OracleLimitError as direct
assert OracleLimitError is direct and enumerate_executions.__module__ == "irqverify.oracle"
try:
    irqverify.no_such_name
except AttributeError as exc:
    print(exc)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "module 'irqverify' has no attribute 'no_such_name'\n"


@pytest.mark.parametrize("command", ["analyze", "oracle", "facts", "compare"])
def test_input_nested_too_deeply_exits_two(command, tmp_path):
    src = tmp_path / "deep.irq"
    src.write_text("global x = 0; handler h priority 0 { x = " + "(" * 3000 + "1"
                   + ")" * 3000 + "; }\n")
    proc = subprocess.run([sys.executable, "-m", "irqverify", command, str(src)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: input nests too deeply\n")


@pytest.mark.parametrize("command", ["oracle", "compare"])
def test_long_flat_handler_exits_zero(command, tmp_path):
    # 5,000 statements in a row nest nothing; the oracle's step table must go
    # on over the skips without recursion
    src = tmp_path / "flat.irq"
    src.write_text("global x = 0; handler h priority 0 { " + "skip; " * 5000 + "}\n")
    proc = subprocess.run([sys.executable, "-m", "irqverify", command, str(src)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


# ---------------------------------------------------------------------------
# a reader that closes stdout early
# ---------------------------------------------------------------------------


def _run_with_closed_stdout(*argv):
    """Run the CLI with its stdout a pipe whose read end is closed before it
    writes anything, as `irqverify ... | head` does once head has read enough.

    Stdout is block-buffered, as in a shell pipe, whatever the caller's
    environment says."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with subprocess.Popen([sys.executable, "-m", "irqverify", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()  # the child is still starting the interpreter
        err = proc.stderr.read()
    return proc.returncode, err


@pytest.mark.parametrize("argv", [["analyze"], ["oracle", "--track-flows"], ["facts"], ["compare"]],
                         ids=" ".join)
def test_closed_stdout_exits_141_quietly(argv):
    # output that fits the stdout buffer fails at the final flush
    assert _run_with_closed_stdout(*argv, str(corpus_path("three_priorities"))) == (141, b"")


@pytest.mark.parametrize("argv", [["facts"], ["analyze", "--dump-cfg", "--dump-facts"]], ids=" ".join)
def test_closed_stdout_exits_141_quietly_on_large_output(argv, capsys, tmp_path):
    # output larger than the buffer, and than a pipe holds, fails while the command writes
    src = tmp_path / "eight.irq"
    src.write_text(format_program(random_program(random.Random(5), handler_count=8)))
    _, out, _ = run_cli(capsys, *argv, str(src))
    assert len(out) > 1 << 16
    assert _run_with_closed_stdout(*argv, str(src)) == (141, b"")
