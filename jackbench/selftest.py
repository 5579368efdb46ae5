"""Self-test of the benchmark at tiny sizes (about half a minute).

    python3 jackbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that per-layer counts repeat exactly across two traced runs, that each
counter is non-zero on the workload it should move, that traced outputs
equal untraced ones, that the checker counts a one-coefficient
perturbation as a failed operation, and that the benchmark refuses to run
without the program's sources.  Exits 0 when all hold.
"""

import json
import os
import random
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7

# Per-layer metrics that must be non-zero on each workload.
NONZERO = {
    "verify-default": [
        "qalpha.ops", "qalpha.gcd_calls", "qalpha.self_s", "qalpha.max_degree",
        "polyalg.cherednik_calls", "polyalg.kernel_builds", "polyalg.self_s",
        "jack.build_calls", "jack.cache_hit_ratio", "jack.self_s",
        "oracle.solves", "oracle.eliminations", "oracle.solves_per_elimination",
        "oracle.ct_calls", "oracle.weight_s", "oracle.self_s", "scalars.self_s",
        "combinat.self_s", "verify.self_s", "trace.pass_s",
    ] + [f"verify.check_s.{name}" for name in workloads.VERIFY_CHECKS],
    "compute-reach": [
        "qalpha.ops", "qalpha.self_s", "polyalg.self_s", "jack.build_calls",
        "jack.self_s", "cli.self_s", "cli.bytes_out", "trace.pass_s",
    ],
    "oracle-reach": [
        "oracle.solves", "oracle.eliminations", "oracle.solves_per_elimination",
        "oracle.ct_calls", "oracle.weight_s", "oracle.self_s", "combinat.self_s",
        "trace.pass_s",
    ],
}

# The oracles must stay apart from the code they check: their timed pass
# makes no Q(alpha) operation and builds nothing through jack.
ZERO = {"oracle-reach": ["qalpha.ops", "jack.build_calls", "polyalg.cherednik_calls"]}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)

    for w in workloads.WORKLOADS:
        res, _ = run.run_workload(w, SEED, 0, False, tiny=True)
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
               f"{w}: untraced run not clean: {res['attempted']} attempted, "
               f"{res['failed']} failed, correct={res['correct']}")
        expect(_units(res) == end_to_end, f"{w}: end-to-end metrics or units differ")

        traced = [run.run_workload(w, SEED, 0, True, tiny=True)[0] for _ in range(2)]
        for t in traced:
            expect(t["correct"] and t["failed"] == 0, f"{w}: traced run not clean")
            expect(_units(t) == per_layer, f"{w}: per-layer metrics or units differ")
        for name, unit in per_layer.items():
            if unit != "s":
                a, b = (t["metrics"][name]["value"] for t in traced)
                expect(a == b, f"{w}: {name} differs between traced runs: {a} != {b}")
        for name in NONZERO[w]:
            expect(traced[0]["metrics"][name]["value"] > 0, f"{w}: {name} is zero")
        for name in ZERO.get(w, ()):
            expect(traced[0]["metrics"][name]["value"] == 0, f"{w}: {name} is not zero")

        checker = workloads.Checker()
        rng = random.Random(SEED)
        for job in workloads.make_jobs(w, random.Random(SEED), tiny=True):
            deadline = time.perf_counter() + run.DEADLINE_S
            plain, with_trace = run.run_job(job, False, deadline), run.run_job(job, True, deadline)
            expect(plain is not None and with_trace is not None
                   and plain["items"] == with_trace["items"],
                   f"{w}: traced output differs from untraced for {run._job_name(job)}")
            if plain is None:
                continue
            idx, bad = workloads.perturb(job, plain["items"], rng)
            flagged = [i for i, item in enumerate(bad) if not checker.item_ok(job, item)]
            expect(flagged == [idx],
                   f"{w}: perturbed item {idx} of {run._job_name(job)} gave failures {flagged}")

    expect(_refuses_without_sources(), "run.py did not refuse a directory without src/")
    for line in failures:
        print("FAIL", line)
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


def _units(res):
    return {name: m["unit"] for name, m in res["metrics"].items()}


def _refuses_without_sources():
    """A copy holding only BENCHMARK.json and the benchmark must exit
    non-zero and print no result."""
    bare = os.path.join(run.OUT_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "jackbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "jackbench/run.py", "--workload", "verify-default",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        return proc.returncode != 0 and not proc.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
