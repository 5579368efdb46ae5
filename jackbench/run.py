"""Benchmark of jackpoly, measured from outside through its public modules.

    python3 jackbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; jackpoly is imported from its src/.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Per-job timings go to stderr.  See README.md.

A run repeats whole rounds of the workload's jobs until --seconds have
passed.  Every job runs in a fresh interpreter, so every timed pass starts
with all of the program's caches empty, including caches a later change
adds.  Times are speed-normalised against a reference computation timed
in the same interpreter (calibrate.py).  With --trace 1 the rounds
alternate untraced and traced, and the metrics are the per-layer numbers
of the fastest traced round.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

# A run must end within 180 s; a job still running this long after the run
# started is killed and its operations count as failed.
DEADLINE_S = 170.0


def run_job(job, traced, deadline):
    """Run one job in a fresh interpreter; returns its result dict with
    setup_s added, or None when the worker failed."""
    cmd = [sys.executable, WORKER, json.dumps(job), "1" if traced else "0"]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        print(f"jackbench: job timed out: {_job_name(job)}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"jackbench: job failed: {_job_name(job)}\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    result = json.loads(proc.stdout.rstrip("\n").rsplit("\n", 1)[-1])
    result["setup_s"] = result.pop("ready") - spawned
    result["speed"] = calibrate.REFERENCE_S / statistics.mean(result["cal_s"])
    return result


def _job_name(job):
    if job["kind"] == "compute":
        return f"compute {job['family']} {','.join(map(str, job['label']))}"
    if job["kind"] == "ct":
        return f"ct N={job['n']} k={job['k']}"
    return job["kind"]


def run_workload(workload, seed, seconds, trace, tiny=False):
    """Run one workload; returns (result object, per-job details)."""
    import workloads  # imports jackpoly: only once main() has found src/

    start = time.perf_counter()
    deadline = start + DEADLINE_S
    rng = random.Random(seed)
    jobs = workloads.make_jobs(workload, rng, tiny)
    expected = [workloads.op_count(job) for job in jobs]
    first = [None] * len(jobs)      # output items of the first good round
    same = [None] * len(jobs)       # per item: later rounds that agreed
    attempted = failed = 0
    plain, traced = [], []          # rounds: one result (or None) per job
    while True:
        for is_traced in ((False, True) if trace else (False,)):
            results = []
            for j, job in enumerate(jobs):
                res = run_job(job, is_traced, deadline)
                attempted += expected[j]
                if res is None or len(res["items"]) != expected[j]:
                    failed += expected[j]
                    res = None
                elif first[j] is None:
                    first[j] = res["items"]
                    same[j] = [1] * expected[j]
                else:
                    for i, (a, b) in enumerate(zip(res["items"], first[j])):
                        if a == b:
                            same[j][i] += 1
                        else:
                            failed += 1  # output changed between passes
                if res is not None:
                    res.pop("items")
                results.append(res)
            (traced if is_traced else plain).append(results)
        if time.perf_counter() - start >= seconds:
            break

    checker = workloads.Checker()
    correct = True
    for j, job in enumerate(jobs):
        if first[j] is None:
            continue
        for i, item in enumerate(first[j]):
            if not checker.item_ok(job, item):
                failed += same[j][i]
    if workload == "verify-default" and not tiny and first[0] is not None:
        missing = set(workloads.VERIFY_CHECKS) - {item[0] for item in first[0]}
        if missing:
            print(f"jackbench: checks missing from the report: {sorted(missing)}",
                  file=sys.stderr)
            correct = False

    # negative control: one perturbed output item must be counted as failed
    good = [j for j in range(len(jobs)) if first[j] is not None]
    if good:
        j = rng.choice(good)
        idx, bad = workloads.perturb(jobs[j], first[j], rng)
        if checker.item_ok(jobs[j], bad[idx]):
            print(f"jackbench: perturbed output passed the check: {_job_name(jobs[j])}",
                  file=sys.stderr)
            correct = False

    details = _details(jobs, plain, traced)
    if trace:
        metrics = _layer_metrics(workloads, jobs, plain, traced)
        _write_spans(workload, seed, jobs, traced)
    else:
        metrics = _end_to_end_metrics(jobs, plain)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, details


def _pass(rounds, j):
    """Median over rounds of job j's speed-normalised cold pass time."""
    times = [r[j]["pass_s"] * r[j]["speed"] for r in rounds if r[j] is not None]
    return statistics.median(times) if times else float("nan")


def _end_to_end_metrics(jobs, rounds):
    """pass_s: sum over jobs of _pass.  setup_s: median over rounds of the
    round's summed speed-normalised set-up times.  peak_rss_mb: median over
    rounds of the round's largest worker RSS."""
    full = [r for r in rounds if all(res is not None for res in r)] or [[]]
    pass_s = sum(_pass(rounds, j) for j in range(len(jobs)))
    setup_s = statistics.median(sum(res["setup_s"] * res["speed"] for res in r)
                                for r in full)
    rss = statistics.median(max((res["rss_kb"] for res in r), default=0) for r in full)
    return {"setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "peak_rss_mb": {"value": rss / 1024.0, "unit": "MB"}}


def _fastest_traced(traced):
    full = [r for r in traced if all(res is not None for res in r)]
    if not full:
        return None
    return min(full, key=lambda r: sum(res["pass_s"] * res["speed"] for res in r))


def _layer_metrics(workloads, jobs, plain, traced):
    """Per-layer numbers of the fastest traced round, summed over its jobs;
    times are speed-normalised like pass_s."""
    from collections import Counter

    self_s, calls, entries, inclusive = Counter(), Counter(), Counter(), Counter()
    q_ops = q_gcd = q_deg = hits = bytes_out = 0
    for res in _fastest_traced(traced) or []:
        t = res["trace"]
        speed = res["speed"]
        self_s.update({k: v * speed for k, v in t["self_s"].items()})
        calls.update(t["calls"])
        entries.update(t["entries"])
        inclusive.update({k: v * speed for k, v in t["inclusive_s"].items()})
        q_ops += t["qalpha"]["ops"]
        q_gcd += t["qalpha"]["gcd_calls"]
        q_deg = max(q_deg, t["qalpha"]["max_degree"])
        hits += t["builder_hits"]
        bytes_out += res["info"].get("bytes_out", 0)
    builds = calls["jack.build_E"] + calls["jack.build_P"]
    solves, elims = calls["oracle.solve_E_linear"], calls["oracle._solve_exact"]
    kernels = sum(entries[f"polyalg.{name}"] for name in
                  ("omega_truncated", "pi_truncated", "diagonal_kernel_truncated"))
    untraced = sum(_pass(plain, j) for j in range(len(jobs)))
    traced_pass = sum(_pass(traced, j) for j in range(len(jobs)))
    m = {
        "qalpha.ops": (q_ops, "count"),
        "qalpha.gcd_calls": (q_gcd, "count"),
        "qalpha.self_s": (self_s["qalpha"], "s"),
        "qalpha.max_degree": (q_deg, "degree"),
        "polyalg.cherednik_calls": (calls["polyalg.cherednik_apply"], "count"),
        "polyalg.kernel_builds": (kernels, "count"),
        "polyalg.self_s": (self_s["polyalg"], "s"),
        "jack.build_calls": (builds, "count"),
        "jack.cache_hit_ratio": (hits / builds if builds else 0.0, "ratio"),
        "jack.self_s": (self_s["jack"], "s"),
        "oracle.solves": (solves, "count"),
        "oracle.eliminations": (elims, "count"),
        "oracle.solves_per_elimination": (solves / elims if elims else 0.0, "ratio"),
        "oracle.ct_calls": (calls["oracle.ct_inner_product"], "count"),
        "oracle.weight_s": (inclusive["oracle.weight_expand"], "s"),
        "oracle.self_s": (self_s["oracle"], "s"),
        "scalars.self_s": (self_s["scalars"], "s"),
        "combinat.self_s": (self_s["combinat"], "s"),
        "cli.self_s": (self_s["cli"], "s"),
        "cli.bytes_out": (bytes_out, "bytes"),
        "verify.self_s": (self_s["verify"], "s"),
    }
    for name in workloads.VERIFY_CHECKS:
        times = [r[j]["info"]["check_s"][name] * r[j]["speed"]
                 for r in plain for j in range(len(jobs))
                 if r[j] is not None and name in r[j]["info"].get("check_s", {})]
        m[f"verify.check_s.{name}"] = (statistics.median(times) if times else 0.0, "s")
    m["trace.pass_s"] = (traced_pass, "s")
    m["trace.overhead_s"] = (traced_pass - untraced, "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def _write_spans(workload, seed, jobs, traced):
    """Spans of the fastest traced round: [id, parent id, name, start, end]
    per job, with times in seconds from the job's first span."""
    fastest = _fastest_traced(traced)
    if fastest is None:
        return
    out = []
    for job, res in zip(jobs, fastest):
        spans = res["spans"]
        t0 = min((s[3] for s in spans), default=0.0)
        out.append({"job": _job_name(job), "pass_s": res["pass_s"],
                    "self_s": res["trace"]["self_s"],
                    "spans": [[s[0], s[1], s[2], round(s[3] - t0, 7), round(s[4] - t0, 7)]
                              for s in spans]})
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}.trace.json")
    with open(path, "w") as fh:
        json.dump(out, fh)


def _details(jobs, plain, traced):
    return [{"job": _job_name(job),
             "pass_s": [r[j]["pass_s"] for r in plain if r[j] is not None],
             "setup_s": [r[j]["setup_s"] for r in plain if r[j] is not None],
             "cal_s": [r[j]["cal_s"] for r in plain if r[j] is not None],
             "speed": [r[j]["speed"] for r in plain if r[j] is not None],
             "traced_pass_s": [r[j]["pass_s"] for r in traced if r[j] is not None]}
            for j, job in enumerate(jobs)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-default", "compute-reach", "oracle-reach"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "jackpoly", "__init__.py")):
        print("jackbench: src/jackpoly not found; run from a jackpoly checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(1, HERE)
    result, details = run_workload(args.workload, args.seed, args.seconds, args.trace == 1)
    print(json.dumps(details), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
