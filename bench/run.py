"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of excov: the program is imported from its ``src``.
A round is every operation of the workload, once, in a fresh worker
process (bench/worker.py) whose environment pins EXCOV_CAP,
PYTHONHASHSEED and single-threaded BLAS before excov is imported, so
each round pays for its field towers and tables as a user's run would.
Rounds repeat for about S seconds: a new round starts only while it is
expected to end less than half a round past S.  Only whole rounds are
run, so the share of failed operations is the same in every run.

Every time reported is a wall time divided by a speed factor that the
worker measured with it (bench/speed.py), raised to the workload's
SPEED_EXPONENT: seconds at the reference speed, so that the machine's
drift does not show as a change of the program.  With --trace 0 the metrics are the end-to-end ones: setup_s
(worker start to its first operation, median over the rounds and over
workers that only set up, added until there are SETUP_SAMPLES), wall_s
(the sum of a round's operation times, median over rounds), op_p50_ms
(median of all operations of all rounds pooled) and peak_rss_mb (the
worker's peak resident set, median over rounds).  Each operation and
each set-up by its own factor from speed.op_factors() (set-up, the
same interpreter and import work in every workload, with exponent 1).
With --trace 1 they are the per-layer metrics of bench/tracing.py,
divided by the round's factor, again medians over rounds.  The last line of
stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where ``correct`` is false if a worker did not finish or an operation
outside the workload's known faults failed.  Every round and operation is
also written to OUT/<workload>.seed<N>.trace<T>.json (default OUT is
.bench_results), and traced rounds write their spans under OUT/spans/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
# a run must end within 180 s; no worker runs past this many seconds
HARD_LIMIT_S = 165
# set-up time is the median of at least this many worker starts
SETUP_SAMPLES = 7


def worker_env(workload: str) -> dict:
    env = dict(os.environ)
    env.update(
        EXCOV_CAP=str(workloads.CAPS[workload]),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_rounds(args, out_dir: Path, start: float) -> tuple[list[dict], bool]:
    """Rounds until the time is up; the flag is false if a worker failed."""
    env = worker_env(args.workload)
    rounds: list[dict] = []
    last = 0.0  # how long the last round took
    while not rounds or time.monotonic() - start + last / 2 < args.seconds:
        cmd = worker_cmd(args, "trace" if args.trace else "run")
        if args.trace:
            spans = out_dir / "spans" / f"{args.workload}.seed{args.seed}.round{len(rounds)}.jsonl"
            spans.parent.mkdir(parents=True, exist_ok=True)
            cmd.append(str(spans))
        spawned = time.monotonic()
        result = run_worker(cmd, env, start + HARD_LIMIT_S - spawned)
        if result is None:
            return rounds, False
        result["setup_s"] = (result["first_op"] - spawned) / speed.op_factors(result["speed"])[0]
        rounds.append(result)
        last = time.monotonic() - spawned
        if time.monotonic() - start + last > HARD_LIMIT_S:
            break
    return rounds, True


def setup_samples(args, rounds: list[dict], start: float) -> list[float]:
    """Set-up times of the rounds, topped up to SETUP_SAMPLES by set-up-only workers."""
    samples = [r["setup_s"] for r in rounds]
    env = worker_env(args.workload)
    while len(samples) < SETUP_SAMPLES:
        spawned = time.monotonic()
        result = run_worker(worker_cmd(args, "setup"), env, start + HARD_LIMIT_S - spawned)
        if result is None:
            break
        samples.append((result["first_op"] - spawned) / speed.op_factors(result["speed"])[0])
    return samples


def worker_cmd(args, mode: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed), mode]


def run_worker(cmd: list[str], env: dict, timeout: float):
    """The worker's JSON result, or None (reported on stderr) if it failed."""
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        print(f"worker did not finish within {timeout:.0f} s: {cmd}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(args, rounds: list[dict], finished: bool, setups: list[float] = ()) -> dict:
    n_ops = len(workloads.inputs(args.workload, args.seed))
    ops = [op for r in rounds for op in r["ops"]]
    # an unfinished round is attempted in full and fails in full
    attempted = len(ops) + (0 if finished else n_ops)
    failed = sum(not op[2] for op in ops) + (0 if finished else n_ops)
    correct = finished and bool(rounds) and all(len(r["ops"]) == n_ops for r in rounds)
    correct = correct and all(op[2] or op[3] for op in ops)
    metrics = {}
    if rounds and args.trace:
        import tracing

        # self times are divided by the factor, rates multiplied by it
        scale = {"s": -1, "1/s": 1}
        for name, unit in tracing.UNITS.items():
            power = scale.get(unit, 0) * workloads.SPEED_EXPONENT[args.workload]
            value = statistics.median(
                r["layers"][name] * r["factor"] ** power if power else r["layers"][name] for r in rounds
            )
            metrics[name] = {"value": value, "unit": unit}
    elif rounds:
        # per round, each operation's time at the reference speed, in ms
        exponent = workloads.SPEED_EXPONENT[args.workload]
        times = [
            [op[1] / f for op, f in zip(r["ops"], speed.op_factors(r["speed"], exponent))]
            for r in rounds
        ]
        values = {
            "setup_s": statistics.median(setups or [r["setup_s"] for r in rounds]),
            "wall_s": statistics.median(sum(t) / 1000 for t in times),
            "op_p50_ms": statistics.median(ms for t in times for ms in t),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_results")
    args = parser.parse_args(argv)
    missing = [p for p in ("src/excov/__init__.py", "schemas/scan.schema.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"not an excov checkout: {', '.join(missing)} missing under {ROOT}", file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    rounds, finished = run_rounds(args, args.out, start)
    setups = setup_samples(args, rounds, start) if finished and not args.trace else []
    summary = summarize(args, rounds, finished, setups)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "summary": summary,
        "setup_samples": setups,
        "rounds": rounds,
    }
    path = args.out / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
