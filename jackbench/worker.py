"""Run one benchmark job cold, in this fresh interpreter.

    python3 jackbench/worker.py '<job json>' <trace 0|1>

Imports jackpoly from the checkout's src/, builds the job's inputs, then
times the pass, with the reference work of calibrate.py timed right before
and right after it.  The last line of stdout is one JSON object: the
monotonic time at which set-up ended (comparable with the parent's
perf_counter, as both read CLOCK_MONOTONIC), the pass time, the two
reference times, the peak RSS, the output items and, when traced, the
trace summary and spans.
"""

import time  # first, so that set-up is measured from the earliest point

import json
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402  (imports jackpoly)


def main():
    job = json.loads(sys.argv[1])
    trace = sys.argv[2] == "1"
    inputs = workloads.prepare(job)
    ready = time.perf_counter()
    import calibrate
    cal_s = [calibrate.time_reference()]
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    start = time.perf_counter()
    items, info = workloads.run(job, inputs)
    pass_s = time.perf_counter() - start
    cal_s.append(calibrate.time_reference())
    result = {"ready": ready, "pass_s": pass_s, "cal_s": cal_s, "items": items, "info": info,
              "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["trace"] = tracer.summary(pass_s)
        result["spans"] = tracer.spans
    sys.stdout.write("\n" + json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
