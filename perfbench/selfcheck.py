"""Fast self-check of the benchmark harness on tiny batches.

    python3 perfbench/selfcheck.py

Checks, in a few seconds:

* the oracle workload's generator, given one random stream for skeleton and
  assertions, writes exactly the test suite's sweep programs and budgets;
* every workload runs on a tiny batch with no failure, untraced and traced;
* a pinned reference that matches gives an error rate of 0, and one corrupted
  digest in it gives an error rate above 0;
* an exception escaping `cli.main` counts as a failed file;
* a traced run reports every per-layer metric, and a wrapped name that does
  not exist makes its metrics absent instead of zero or a crash;
* `BENCHMARK.json` declares exactly the metrics and units a run prints.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORK = workloads.workdir(ROOT, "selfcheck", 1, tiny=True)


def worker(workload: str, trace: int = 0, reference: str = "") -> dict:
    out = os.path.join(WORK, f"{workload}-t{trace}.json")
    env = dict(os.environ, PYTHONHASHSEED="7")
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
                    "--seed", "1", "--seconds", "0.1", "--trace", str(trace), "--tiny",
                    "--reference", reference, "--out", out],
                   cwd=ROOT, env=env, check=True, timeout=120)
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def check_sweep_generator(problems: list[str]) -> None:
    try:
        from progen import oracle_budget, random_program
        from irqverify.ir import format_program
    except ImportError as exc:
        print(f"skip: sweep generator comparison ({exc})")
        return
    for s in range(100):
        rng = random.Random(s)
        program = random_program(rng)
        budget = oracle_budget(rng, program)
        shared = random.Random(s)
        text, _expected, got_budget = gen.sweep_program(shared, shared)
        if text != format_program(program) or got_budget != budget:
            problems.append(f"sweep program {s} differs from the test suite's")
            return


def check_absent(problems: list[str]) -> None:
    tracer = spans.Tracer()
    bogus = spans.Target("irqverify.feasibility", "no_such_function", "feasibility.no_preempt")
    tracer.install(tuple(t for t in spans.TARGETS if t.span != "feasibility.no_preempt") + (bogus,))
    tracer.uninstall()
    metrics, absent = tracer.metrics(1)
    want = {"feasibility.no_preempt_s", "feasibility.no_preempt_tuples"}
    if set(absent) != want or want & set(metrics):
        problems.append(f"missing target not reported absent: absent={absent}")


def check_exception_fails(problems: list[str]) -> None:
    """An exception escaping `cli.main` fails its file instead of the run."""
    import worker

    class Broken:
        @staticmethod
        def main(argv):
            raise RuntimeError("boom")

    item = workloads.Item("x.irq", (("analyze", "x.irq"),), gen.Expected())
    batch = worker.Batch(Broken, [item], None)
    batch.run_pass()
    if batch.attempted != 1 or len(batch.failures) != 1 or "RuntimeError" not in batch.failures[0]:
        problems.append(f"an escaped exception was not counted as a failure: {batch.failures}")


def check_declared_metrics(problems: list[str]) -> None:
    """BENCHMARK.json lists exactly the metrics a run prints."""
    import run
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        if declared != units:
            problems.append(f"BENCHMARK.json {key} differs from what a run prints")


def main() -> int:
    os.makedirs(WORK, exist_ok=True)
    problems: list[str] = []
    check_sweep_generator(problems)
    check_absent(problems)
    check_exception_fails(problems)
    check_declared_metrics(problems)

    pinned = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            r = worker(workload, trace)
            if r["failed"] or r["gate_problems"]:
                problems.append(f"{workload} trace={trace}: {r['failures'] + r['gate_problems']}")
            if trace and r.get("absent"):
                problems.append(f"{workload}: absent per-layer metrics {r['absent']}")
            if not trace:
                pinned[workload] = {"1": {"inputs_sha256": r["inputs_sha256"], "outputs": r["digests"]}}

    ref = os.path.join(WORK, "reference.json")
    with open(ref, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh)
    good = worker("oracle", reference=ref)
    if good["reference"] != "pinned" or good["error_rate"] != 0:
        problems.append(f"matching reference gave error rate {good['error_rate']}")
    rc, digest = pinned["oracle"]["1"]["outputs"][0].split(":")
    pinned["oracle"]["1"]["outputs"][0] = f"{rc}:{'0' * len(digest)}"
    with open(ref, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh)
    bad = worker("oracle", reference=ref)
    if not bad["error_rate"] > 0:
        problems.append("a corrupted reference digest left the error rate at 0")

    for p in problems:
        print(f"FAIL: {p}")
    print(f"selfcheck: {'FAIL' if problems else 'ok'} (corrupted digest -> error_rate="
          f"{bad['error_rate']:.3f})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
