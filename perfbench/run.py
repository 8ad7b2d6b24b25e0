#!/usr/bin/env python3
"""Benchmark of the stochgames library: solve-small, solve-large, eval-pairs.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload solve-small --seed 1 --seconds 30 --trace 0

One client drives the library in process, in a closed loop: each operation
starts when the previous one has returned.  After set-up (import, input
generation, one warm-up pass over every operation) the benchmark repeats
passes over the same operations until --seconds are used and takes each
operation's time as the median of its times over the passes.  Times are
reported at a fixed reference speed of the machine: during every pass, and
during set-up, the benchmark times fixed pieces of work that do not use the
library (pure-Python work, and for pooled solves the start and stop of a
process pool) and scales the times it measures by the reference time of
that work over its median time.  Every output is checked against the
warm-up pass, against invariants of the workload and, when one is recorded
for the seed, against the reference in perfbench/reference/.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced pass, and
the spans of the last traced pass go to perfbench/out/.  See
perfbench/README.md for the metric definitions and the workload rationale.
"""

import os
import sys
import time

# String hashing is randomized per process, and with it the iteration order
# of some sets, which moved pass times by about 15% between runs of the same
# input.  A fixed hash seed makes runs, and the two sides of a comparison,
# take the same paths.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["solve-small", "solve-large", "eval-pairs"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement time after set-up")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny inputs for the harness self-test")
    parser.add_argument("--reference", type=Path, default=None,
                        help="reference file (default: perfbench/reference/<workload>.json)")
    parser.add_argument("--record", action="store_true",
                        help="write this seed's outputs into the reference file instead of checking them")
    return parser.parse_args(argv)


class Outcome:
    """Outputs, failures and per-op timings accumulated over passes."""

    def __init__(self):
        self.first: dict[str, str] = {}
        self.times: dict[str, list[float]] = {}
        self.failures: list[str] = []
        self.attempted = 0

    def fail(self, message: str) -> None:
        self.failures.append(message)


def run_pass(ops, outcome: Outcome, tracer=None, timed=True, speed=None) -> tuple[float, float]:
    """One pass over ``ops``; returns its wall time, calibration excluded,
    and that wall time at the reference speed.

    With a ``speed`` dict, before every CALIBRATE_EVERY-th op of each
    calibration kind (calibration_kind) the calibration of that kind runs
    and its time is appended to ``speed[kind]``; each op's time is then
    scaled by its kind's reference time over the median calibration time
    of the pass, and recorded when the pass is timed.  The median, unlike
    the mean, is not moved by the few calibration runs that a burst of
    interference slows several-fold.  Time outside the ops is scaled as
    "cpu".  Without ``speed`` both returned times are the wall time.
    """
    start = time.perf_counter()
    pass_times, units, counts, calibrating = {}, {}, {}, 0.0
    for op in ops:
        kind = calibration_kind(op)
        if speed is not None and counts.get(kind, 0) % CALIBRATE_EVERY == 0:
            units.setdefault(kind, []).append(time_of(CALIBRATIONS[kind][0]))
            calibrating += units[kind][-1]
        counts[kind] = counts.get(kind, 0) + 1
        outcome.attempted += 1
        t = time.perf_counter()
        try:
            result = tracer.run_op(op.key, op.kind, op.run) if tracer else op.run()
        except Exception as exc:  # any raise other than the budget's ResourceLimit is a failed op
            outcome.fail(f"{op.key}: raised {type(exc).__name__}: {exc}")
            continue
        elapsed = time.perf_counter() - t
        try:
            output = op.canon(result)
        except Exception as exc:
            outcome.fail(f"{op.key}: {exc}")
            continue
        if op.key not in outcome.first:
            outcome.first[op.key] = output
        elif outcome.first[op.key] != output:
            outcome.fail(f"{op.key}: output {output!r} differs from the first pass {outcome.first[op.key]!r}")
            continue
        pass_times[op.key] = (kind, elapsed)
    wall = time.perf_counter() - start - calibrating
    if speed is None:
        return wall, wall
    scale = {kind: CALIBRATIONS[kind][1] / statistics.median(u) for kind, u in units.items()}
    for kind, u in units.items():
        speed.setdefault(kind, []).extend(u)
    if timed:
        for key, (kind, elapsed) in pass_times.items():
            outcome.times.setdefault(key, []).append(elapsed * scale[kind])
    by_kind = {kind: sum(e for k, e in pass_times.values() if k == kind) for kind in units}
    outside = wall - sum(by_kind.values())
    return wall, outside * scale["cpu"] + sum(by_kind[kind] * scale[kind] for kind in units)


def check_reference(workload, seed: int, outcome: Outcome, path: Path) -> tuple[str, int]:
    """Compare first-pass outputs with the recorded reference for ``seed``.

    Returns (status, newly decided).  A solve the reference has as "capped"
    and that now has a verdict is newly decided, not failed.
    """
    if not path.is_file():
        return "none", 0
    reference = json.loads(path.read_text()).get(str(seed))
    if reference is None:
        return "none", 0
    newly_decided = 0
    for op in workload.ops:
        expected = reference.get(op.key)
        got = outcome.first.get(op.key)
        if got is None:
            continue  # already failed
        if expected is None:
            outcome.fail(f"{op.key}: no reference value")
        elif expected == "capped" and got in ("yes", "no"):
            newly_decided += 1
        elif got != expected:
            outcome.fail(f"{op.key}: output {got!r} != reference {expected!r}")
    return "checked", newly_decided


def record_reference(seed: int, outcome: Outcome, path: Path) -> None:
    data = json.loads(path.read_text()) if path.is_file() else {}
    data[str(seed)] = dict(sorted(outcome.first.items()))
    lines = [f"{json.dumps(key)}: {json.dumps(data[key], separators=(',', ':'))}" for key in sorted(data, key=int)]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def latency_stats(samples: list[float]) -> dict:
    """Median, tail (the highest percentile with TAIL_BEYOND samples beyond
    it; the smallest sample when there are too few) and throughput."""
    ordered = sorted(samples)
    n = len(ordered)
    if not n:
        return {"n": 0, "p50_ms": 0.0, "tail_ms": 0.0, "tail_pct": 0.0, "per_s": 0.0}
    tail_index = max(0, n - 1 - TAIL_BEYOND)
    return {
        "n": n,
        "p50_ms": statistics.median(ordered) * 1000,
        "tail_ms": ordered[tail_index] * 1000,
        "tail_pct": 100.0 * (tail_index + 1) / n,
        "per_s": n / sum(ordered),
    }


def op_times(workload, outcome: Outcome, kind: str) -> list[float]:
    """Each op's median time over the timed passes, which are already
    scaled to the reference speed.

    Over repeated runs of the same solve-small seeds, figures built from
    the per-op median of calibrated times differed between runs of a seed
    by 0.01-0.03 of their value, against 0.09-0.14 for the per-op lower
    quartile of times scaled by the pass's mean calibration time.
    """
    return [
        statistics.median(outcome.times[op.key])
        for op in workload.ops
        if op.kind == kind and op.key in outcome.times
    ]


def kind_figures(workload, outcome: Outcome) -> dict:
    """Latency figures of every op kind, with the verdict mix of solves and
    the play steps per second of simulations."""
    figures = {}
    for kind in dict.fromkeys(op.kind for op in workload.ops):
        entry = latency_stats(op_times(workload, outcome, kind))
        if kind in ("solve", "pooled"):
            verdicts = [outcome.first.get(op.key) for op in workload.ops if op.kind == kind]
            entry["verdicts"] = {v: verdicts.count(v) for v in ("yes", "no", "capped")}
            entry["decided_share"] = (verdicts.count("yes") + verdicts.count("no")) / len(verdicts)
        if kind == "simulate":
            props = workload.properties
            entry["steps_per_s"] = entry["per_s"] * props["mc_samples"] * props["mc_horizon"]
        figures[kind] = entry
    return figures


# Times of one calibration_work() and one pool_calibration_work() at the
# reference speed: about the fastest this machine ran them while the
# baseline was measured.
CALIBRATION_REFERENCE_S = 0.0023
POOL_CALIBRATION_REFERENCE_S = 0.010
CALIBRATE_EVERY = 8


def calibration_work():
    """Fixed pure-Python work with the library's mix of exact rational
    arithmetic and set and dict walks over a graph; it calls nothing in
    stochgames, so no change to the library changes its time."""
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i % 11 + 1, i + 6) * Fraction(3, i % 5 + 2)
    succ = {v: [(v * 7 + k * 13) % 997 for k in range(3)] for v in range(997)}
    seen, stack = {0}, [0]
    while stack:
        for w in succ[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return total, len(seen)


def pool_calibration_work():
    """Start a pool of two worker processes the way a pooled solve does,
    give each a trivial task and shut the pool down.  A pooled solve of
    solve-small spends most of its time starting and stopping its workers:
    pooled solves took three times as long in one phase of the machine as
    in another, while calibration_work() took as long in both."""
    with ProcessPoolExecutor(max_workers=2) as pool:
        list(pool.map(abs, range(2)))


CALIBRATIONS = {
    "cpu": (calibration_work, CALIBRATION_REFERENCE_S),
    "pool": (pool_calibration_work, POOL_CALIBRATION_REFERENCE_S),
}


def calibration_kind(op) -> str:
    """The calibration that scales an op's time."""
    return "pool" if op.kind == "pooled" else "cpu"


def time_of(fn) -> float:
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


def calibration_units(count: int = CALIBRATE_EVERY) -> list[float]:
    """Times of ``count`` consecutive calibration_work() runs."""
    return [time_of(calibration_work) for _ in range(count)]


def measure_passes(seconds: float, pass_fn) -> int:
    """Call pass_fn until the next pass would end after ``seconds``; at least once."""
    start = time.perf_counter()
    durations = []
    while not durations or time.perf_counter() - start + statistics.median(durations) <= seconds:
        durations.append(pass_fn())
    return len(durations)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stochgames" / "__init__.py").is_file():
        print(f"error: no stochgames package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import stochgames

    if Path(stochgames.__file__).resolve().parent != SRC / "stochgames":
        print(f"error: imported stochgames from {stochgames.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    import_s = time.perf_counter() - PROCESS_START
    tiny = args.size == "tiny"
    # calibration before and after every generation scales each to the
    # reference speed; the warm-up pass calibrates itself
    around = [calibration_units()]
    gen_times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        workload = workloads.build(args.workload, args.seed, tiny)
        gen_times.append(time.perf_counter() - t)
        around.append(calibration_units())

    outcome = Outcome()
    traced_ops = [op for op in workload.ops if op.kind != "pooled"]
    # warm-up: every operation the run will time, once, untimed
    setup_speed = {}
    warmup_s, warmup_ref_s = run_pass(traced_ops if args.trace else workload.ops, outcome, timed=False,
                                      speed=setup_speed)
    setup_raw_s = import_s + statistics.median(gen_times) + warmup_s
    gen_scaled = [g / statistics.median(before + after) for g, before, after in zip(gen_times, around, around[1:])]
    setup_s = (CALIBRATION_REFERENCE_S * (import_s / statistics.median(around[0]) + statistics.median(gen_scaled))
               + warmup_ref_s)

    reference_path = args.reference or REFERENCE_DIR / f"{args.workload}.json"
    if args.record:
        record_reference(args.seed, outcome, reference_path)
        reference_status, newly_decided = "recorded", 0
    else:
        reference_status, newly_decided = check_reference(workload, args.seed, outcome, reference_path)
    for problem in workload.cross_check(outcome.first):
        outcome.fail(problem)

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "properties": workload.properties,
        "reference": reference_status,
        "newly_decided": newly_decided,
    }
    if args.trace:
        metrics = traced_run(args, traced_ops, outcome, tracing, summary)
    else:
        pass_speed = {}
        passes = measure_passes(args.seconds, lambda: run_pass(workload.ops, outcome, speed=pass_speed)[0])
        kinds = kind_figures(workload, outcome)
        primary, aux = kinds[workload.primary], kinds[workload.aux]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "op.p50_ms": metric(primary["p50_ms"], "ms"),
            "op.tail_ms": metric(primary["tail_ms"], "ms"),
            "op.per_s": metric(primary["per_s"], "1/s"),
            "aux.per_s": metric(aux["per_s"], "1/s"),
        }
        summary.update({
            "passes": passes,
            "setup": {"raw_s": setup_raw_s, "import_s": import_s, "generate_s": gen_times, "warmup_s": warmup_s},
            "calibration_s": {"reference": {kind: ref for kind, (_, ref) in CALIBRATIONS.items()},
                              "around_generation": [statistics.median(u) for u in around],
                              "warmup_median": {kind: statistics.median(u) for kind, u in setup_speed.items()},
                              "passes_median": {kind: statistics.median(u) for kind, u in pass_speed.items()}},
            "op": workload.primary,
            "aux": workload.aux,
            "kinds": kinds,
        })

    failed = len(outcome.failures)
    summary["error_rate"] = failed / max(1, outcome.attempted)
    summary["failures"] = outcome.failures[:20]
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print("summary " + json.dumps(summary, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def traced_run(args, ops, outcome: Outcome, tracing, summary: dict) -> dict:
    """Alternate untraced and traced passes; per-layer figures are medians
    over the traced passes, and the overhead compares the pass times."""
    untraced, traced, figures = [], [], []
    last = None

    def both():
        nonlocal last
        untraced.append(run_pass(ops, outcome, timed=False)[0])
        tracer = tracing.Tracer()
        tracing.install_layers(tracer)
        try:
            traced.append(run_pass(ops, outcome, tracer=tracer, timed=False)[0])
        finally:
            tracer.uninstall()
        figures.append(tracing.layer_metrics(tracer))
        last = tracer
        return untraced[-1] + traced[-1]

    passes = measure_passes(args.seconds, both)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
    last.write(spans_path)
    summary.update({"passes": passes, "spans": str(spans_path.relative_to(ROOT)),
                    "untraced_pass_s": untraced, "traced_pass_s": traced})
    metrics = {}
    for name, unit in tracing.LAYER_UNITS.items():
        if name == "trace.overhead":
            value = statistics.median(traced) / statistics.median(untraced) - 1
        else:
            value = statistics.median(f[name] for f in figures)
        metrics[name] = metric(value, unit)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
