"""One round of one workload, in a fresh process.

Started by run.py with EXCOV_CAP, PYTHONHASHSEED and single-threaded
BLAS already in its environment.  It imports excov from the checkout,
builds the round's operations, runs them one after another (a closed
loop with one caller, a speed sample just before each operation), then
checks every output and prints one JSON line:

    {"first_op": <time.monotonic() when set-up ended>,
     "wall_s": ..., "ops": [[name, ms, ok, known_fault, problems], ...],
     "speed": [[py_ms, np_ms], ...], "factor": ...,
     "peak_rss_mb": ..., "layers": {...} (traced rounds only)}

Times are raw wall times.  Just before each operation the worker times
the fixed loads of speed.py, one entry of "speed" per operation, from
which run.py derives the factors it divides the times by; "factor" is
the machine's slowness over the whole round.  "wall_s" is the sum of
the operations' times, without the speed samples.

Usage: python3 bench/worker.py WORKLOAD SEED MODE [SPANS_PATH]

MODE is "run", "trace" (spans on, per-layer metrics in "layers") or
"setup", which stops where the first operation would start, takes
SETUP_SPEED_SAMPLES speed samples and prints only "first_op", "speed"
and "factor": an extra sample of set-up time, whose factor comes from
its first speed sample as an operation's would.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SETUP_SPEED_SAMPLES = 9


def run_round(ops, tracer=None) -> dict:
    """Time each operation, then check each output; never raises for an op."""
    results, samples = [], []
    first = time.monotonic()
    for op in ops:
        samples.append(speed.sample())
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            out, error = op.call(), None
        except Exception as exc:  # a failed operation, counted and reported
            out, error = None, f"{op.name}: raised {type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - t0) * 1000
        if tracer is not None:
            tracer.enabled = False
        results.append((op, out, error, ms))
    rows = []
    for op, out, error, ms in results:
        if error is None:
            try:
                problems = op.check(out)
            except Exception as exc:  # malformed output is a failed check
                problems = [f"{op.name}: check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [error]
        rows.append([op.name, ms, not problems, op.known_fault, problems[:3]])
    wall = sum(ms for *_, ms in results) / 1000
    return {"first_op": first, "wall_s": wall, "ops": rows, "speed": samples, "factor": speed.factor(samples)}


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    sys.path.insert(0, str(ROOT / "src"))
    import excov

    if Path(excov.__file__).resolve().parent != ROOT / "src" / "excov":
        print(f"excov imported from {excov.__file__}, not from the checkout", file=sys.stderr)
        return 2
    import workloads

    ops = workloads.operations(workload, workloads.inputs(workload, seed))
    if mode == "setup":
        first = time.monotonic()
        samples = [speed.sample() for _ in range(SETUP_SPEED_SAMPLES)]
        print(json.dumps({"first_op": first, "speed": samples, "factor": speed.factor(samples)}))
        return 0
    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    result = run_round(ops, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        if len(argv) > 3:
            tracer.write_spans(argv[3])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
