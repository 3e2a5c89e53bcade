"""Benchmark of the bbl library and its CLI, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; bbl is imported from ``src``.  With
``--trace 0`` the workload's ops run in a closed loop with one client for
``--seconds`` and the end-to-end metrics are reported; with ``--trace 1``
a fixed number of cycles runs untraced and then traced, and the per-layer
metrics and the tracing overhead are reported (spans are written to
``.bench_out/``).  Either way every distinct result is checked.  Time
metrics are scaled to a nominal host speed (``hostspeed.py``); the raw ones
are printed too.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import tally as tallies
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# What a fresh process imports before it builds the workload's inputs.
MODULES = {"discrete-beliefs": "bbl", "continuous-sweep": "bbl", "portfolio-shares": "bbl",
           "cli-mix": "bbl.cli"}
SETUP_PROBES = {0: 9, 1: 3}  # fresh set-up processes per run, by --trace
E2E_UNITS = {"setup_s": "s", "throughput_ops_s": "ops/s", "latency_p50_ms": "ms",
             "latency_tail_ms": "ms", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time one fresh set-up and print it as JSON")
    return parser.parse_args(argv)


def setup_probe(name: str, seed: int) -> None:
    """Import, build every input object, warm up once per object; print the times."""
    import inputs

    data = inputs.GENERATORS[name](seed)
    t0 = time.perf_counter()
    importlib.import_module(MODULES[name])
    t1 = time.perf_counter()
    import workloads  # after bbl, so numpy's import is counted in bbl's

    bbl = sys.modules["bbl"]
    workload = workloads.WORKLOADS[name]
    state = workload.build(bbl, data)
    t2 = time.perf_counter()
    workload.warmup(bbl, state)
    t3 = time.perf_counter()
    import hostspeed

    host = hostspeed.median_sample()
    print(json.dumps({"setup_s": t3 - t0, "import_s": t1 - t0, "build_s": t2 - t1, "warmup_s": t3 - t2,
                      "adjusted_setup_s": (t3 - t0) * hostspeed.NOMINAL_S / host}))


def run_probes(name: str, seed: int, count: int) -> dict:
    """Median of each set-up time over ``count`` fresh processes, run one at a time."""
    samples = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(seed), "--setup-probe"],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def closed_loop(workload, ops, tally, seconds=None, cycles=None, tracer=None, speed=None) -> float:
    """One client: each op starts when the previous one returns.  Returns the wall time.

    With ``speed`` (hostspeed), the host speed is sampled before the first op,
    between ops every ``speed.EVERY_S`` seconds, and after the last op.
    """
    clock = time.perf_counter
    count = None if cycles is None else cycles * len(ops)
    start = clock()
    deadline = math.inf if seconds is None else start + seconds
    next_sample = start
    i = 0
    while (clock() < deadline) if count is None else (i < count):
        if speed is not None and clock() >= next_sample:
            _sample_speed(speed, tally)
            next_sample = clock() + speed.EVERY_S
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            result, error = op.call(), None
        except Exception as e:  # a raised error is a failed op; the loop goes on
            result, error = None, f"{type(e).__name__}: {e}"
        latency = clock() - t0
        if error is None:
            error = workload.failure(result)
        tally.record(latency, result, error, error is None and workload.nonconverged(result))
        i += 1
    if speed is not None:
        _sample_speed(speed, tally)
    return clock() - start


def _sample_speed(speed, tally) -> None:
    start = time.perf_counter()
    seconds = speed.sample()
    tally.note_speed(start, time.perf_counter(), seconds)


def run_checks(bbl, workload, state, ops, tally) -> None:
    by_key = {op.key: op for op in ops}
    for key, result in tally.first.items():
        try:
            reason = workload.check(bbl, state, by_key[key], result, tally.first)
        except Exception as e:  # a check that cannot run is a failed check
            reason = f"check raised {type(e).__name__}: {e}"
        if reason:
            tally.check_errors[key] = reason


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(bbl, workload, args):
    import hostspeed

    state = workload.build(bbl, workload.inputs(args.seed))
    workload.warmup(bbl, state)
    ops = workload.ops(bbl, state)
    tally = tallies.Tally(ops)
    wall = closed_loop(workload, ops, tally, seconds=args.seconds, speed=hostspeed)
    rss = peak_rss_mb(children=args.workload == "cli-mix")  # read before any other child runs
    setup = run_probes(args.workload, args.seed, SETUP_PROBES[0])
    run_checks(bbl, workload, state, ops, tally)
    latencies, busy = tally.adjusted(hostspeed.NOMINAL_S)
    tail_pct, tail_value = tallies.tail(latencies)
    values = {"setup_s": setup["adjusted_setup_s"], "throughput_ops_s": tally.attempted / busy,
              "latency_p50_ms": statistics.median(latencies) * 1e3, "latency_tail_ms": tail_value * 1e3,
              "peak_rss_mb": rss}
    metrics = {name: metric(values[name], unit) for name, unit in E2E_UNITS.items()}
    speeds = [s[3] for s in tally.speed]
    notes = [f"samples {tally.attempted} over {wall:.3f} s wall; tail is p{tail_pct:.3f} "
             f"({tallies.TAIL_BEYOND} samples beyond it)",
             f"host speed: {len(speeds)} samples, median {statistics.median(speeds) * 1e3:.4f} ms "
             f"(nominal {hostspeed.NOMINAL_S * 1e3:.4f} ms), range {min(speeds) * 1e3:.4f}-"
             f"{max(speeds) * 1e3:.4f} ms",
             f"raw, before the host-speed adjustment: setup_s {setup['setup_s']:.6g}, throughput_ops_s "
             f"{tally.attempted / wall:.6g}, latency_p50_ms {tally.median() * 1e3:.6g}, latency_tail_ms "
             f"{tallies.tail(tally.latencies)[1] * 1e3:.6g}"]
    for kind, latencies in sorted(tally.by_kind().items()):
        notes.append(f"  {kind:<24} n={len(latencies):<7} p50 {statistics.median(latencies) * 1e3:10.3f} ms"
                     f"  max {max(latencies) * 1e3:10.3f} ms")
    return tally, metrics, notes


def traced_run(bbl, workload, args):
    if args.workload == "cli-mix":
        subprocess_ops = workload.ops(bbl, workload.build(bbl, workload.inputs(args.seed)))
        workload = type(workload)(subprocesses=False)
    tracer = tracing.new_tracer()
    with tracing.Patch(tracer):
        tracer.op = "setup"
        state = workload.build(bbl, workload.inputs(args.seed))
    workload.warmup(bbl, state)
    plain_ops = workload.ops(bbl, state)
    tally = tallies.Tally(plain_ops)
    plain = closed_loop(workload, plain_ops, tally, cycles=workload.trace_cycles)
    with tracing.Patch(tracer):
        traced = closed_loop(workload, workload.ops(bbl, state), tally,
                             cycles=workload.trace_cycles, tracer=tracer)
    run_checks(bbl, workload, state, plain_ops, tally)
    _write_spans(tracer, args)

    values = dict.fromkeys(layers.UNITS, 0.0)
    values.update(layers.span_metrics(tracer))
    setup = run_probes(args.workload, args.seed, SETUP_PROBES[1])
    values.update({"setup.import_ms": setup["import_s"] * 1e3, "setup.build_ms": setup["build_s"] * 1e3,
                   "setup.warmup_ms": setup["warmup_s"] * 1e3,
                   "trace.overhead_ms": (traced - plain) * 1e3,
                   "trace.overhead_frac": (traced - plain) / plain})
    if args.workload == "cli-mix":
        values["cli.import_ms"] = setup["import_s"] * 1e3
        walls = tallies.Tally(subprocess_ops)
        closed_loop(workload, subprocess_ops, walls, cycles=1)
        for kind, latencies in walls.by_kind().items():
            values[f"cli.{kind}.wall_ms"] = statistics.median(latencies) * 1e3
    metrics = {name: metric(values[name], unit) for name, unit in layers.UNITS.items()}
    ops_per_pass = workload.trace_cycles * len(plain_ops)
    notes = [f"tracing overhead {(traced - plain) * 1e3:.3f} ms = {traced:.3f} s traced - {plain:.3f} s "
             f"untraced, base {ops_per_pass} ops per pass ({workload.trace_cycles} cycles)",
             f"{len(tracer.spans)} spans"]
    notes += [f"  {name} base: {base}" for name, base in layers.bases(tracer).items()]
    return tally, metrics, notes


def _write_spans(tracer, args) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps([span.name, span.start, span.end, span.parent, span.op]) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    # One client uses one core: OpenBLAS would otherwise keep a second thread
    # spinning after each numpy dot product.  Children inherit the setting.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "bbl" / "__init__.py").is_file():
        print(f"perfbench: bbl sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    bbl = importlib.import_module("bbl")
    importlib.import_module(MODULES[args.workload])
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tally, metrics, notes = (traced_run if args.trace else timed_run)(bbl, workload, args)
    if args.workload == "cli-mix":
        import smoke

        notes += smoke.readme_examples(ROOT)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"failed_ops_frac {tally.failed / tally.attempted:.6f} ratio "
          f"(base {tally.attempted} attempted, {tally.failed} failed)")
    print(f"nonconverged_ops_frac {tally.nonconverged / tally.attempted:.6f} ratio "
          f"(base {tally.attempted} attempted, {tally.nonconverged} returned converged=false; "
          f"checked, not counted as failed)")
    for line in notes:
        print(line)
    for key, reason in sorted(tally.failures().items()):
        print(f"FAILED {key}: {reason}")
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not tally.check_errors, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
