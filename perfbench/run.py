"""Benchmark of skewhom's exact checkers: one workload, one process, one client.

    python3 perfbench/run.py --workload identities --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; skewhom is imported from ``src/``.  The
workload's requests run in a closed loop, one after another, in whole
rounds, until the next round would end after ``--seconds``.  Every answer is
checked against the oracle in ``oracle.py``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
from one cProfile pass with ``--trace 1``).

The 2-vCPU Xeon host the benchmark was tuned on changes speed by up to 1.9x
for minutes at a time, so every timing is taken at a reference speed: a
fixed pure-Python calibration loop is timed before and after each request,
and the request's time is scaled by ``CAL_REF_S`` over the loop's mean time.  A request's figure is the
median of its rounds, and ``setup_s`` is the median of several fresh set-up
processes scaled the same way.  README.md gives the evidence.

``--self-test`` feeds each workload's checks a corrupted structure constant,
a corrupted rho entry and a wrong witness, and exits 0 only if every one of
them is counted as a failed operation.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
TRACES = BENCH_DIR / "traces"
MIN_ROUNDS = 2
SETUP_PROBES_FIRST = 3
SETUP_PROBES_PER_ROUND = 2
# Times are reported as if the calibration loop had taken exactly this long,
# which is about its time on a 2.0 GHz Xeon vCPU running at full speed.
CAL_REF_S = 0.0075


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true", help="check that corrupted inputs are caught")
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import skewhom from this checkout's src/; exit 2 when it is not there."""
    if not (SRC / "skewhom" / "__init__.py").is_file():
        print(f"error: no skewhom package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads  # noqa: E402  (needs the paths above)

    return workloads


def calibration_loop() -> Fraction:
    """Fixed work of the program's kind (Fractions, tuples, dicts), without skewhom."""
    acc, seen = Fraction(0), {}
    for i in range(1, 900):
        x = Fraction(i, i + 1) * Fraction(3, 7) + Fraction(1, i)
        acc += x
        seen[(i, i % 7)] = (x.numerator % 97, x.denominator % 89)
    return acc


def calibrate() -> float:
    start = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - start


class Clock:
    """Scales a measured time by the host's speed around it."""

    def __init__(self):
        self.last = calibrate()
        self.history = [self.last]

    def scale(self, seconds: float) -> float:
        before, self.last = self.last, calibrate()
        self.history.append(self.last)
        return seconds * CAL_REF_S / ((before + self.last) / 2)


def run_once(req, profiler=None):
    """Run and check one request: (seconds, error text or None, raised?).

    Only the run is timed (and profiled); the check is not.
    """
    start = time.perf_counter()
    if profiler:
        profiler.enable()
    try:
        out = req.run()
    except Exception as exc:  # a request that raises is a failed operation
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}", True
    finally:
        if profiler:
            profiler.disable()
    elapsed = time.perf_counter() - start
    try:
        err = req.check(out)
    except Exception as exc:  # an answer the check cannot read is a wrong answer
        err = f"unreadable answer ({type(exc).__name__}: {exc})"
    return elapsed, err, False


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def add(self, req, err, raised) -> bool:
        self.attempted += 1
        if err is None:
            return True
        self.failed += 1
        self.wrong += not raised
        print(f"FAILED {req.name}: {err}", file=sys.stderr)
        return False


def probe_setup(workload: str, seed: int, directory: Path) -> float:
    """Seconds from starting a fresh process until its first request is ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe", str(directory)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    shutil.rmtree(directory, ignore_errors=True)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return ready


def emit(correct: bool, tally: Tally, metrics: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))


def measure(wl, args, work: Path) -> int:
    clock = Clock()
    setups = []

    def probe(times: int) -> None:
        for _ in range(times):
            setups.append(clock.scale(probe_setup(args.workload, args.seed, work / "probe")))

    probe(SETUP_PROBES_FIRST)
    requests = wl.BUILDERS[args.workload](args.seed, work / "inputs")
    samples = [[] for _ in requests]
    tally = Tally()
    rounds = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for idx, req in enumerate(requests):
            elapsed, err, raised = run_once(req)
            scaled = clock.scale(elapsed)
            if tally.add(req, err, raised):
                samples[idx].append(scaled)
        probe(SETUP_PROBES_PER_ROUND)
        rounds += 1
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS and now - start + (now - round_start) > args.seconds:
            break
    times = [statistics.median(s) for s in samples if s]
    if not times:
        print("error: every request failed", file=sys.stderr)
        return 1
    print(f"{args.workload}: {rounds} rounds of {len(requests)} requests in {now - start:.1f} s; "
          f"calibration loop median {statistics.median(clock.history) * 1e3:.3f} ms "
          f"(reference {CAL_REF_S * 1e3:.3f} ms); request medians at the reference speed:",
          file=sys.stderr)
    for req, s in zip(requests, samples):
        print(f"  {statistics.median(s) if s else float('nan'):9.4f} s  {req.name}", file=sys.stderr)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "pass_s": {"value": sum(times), "unit": "s"},
        "verdict_p50_s": {"value": statistics.median(times), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }
    emit(tally.wrong == 0, tally, metrics)
    return 0


def trace(wl, args, work: Path) -> int:
    import layers
    from skewhom.scalars import QuadExt

    requests = wl.BUILDERS[args.workload](args.seed, work / "inputs")
    codes = {(f.__code__.co_filename, f.__code__.co_firstlineno, f.__code__.co_name)
             for f in vars(QuadExt).values() if hasattr(f, "__code__")}
    layer_map = layers.LayerMap(SRC / "skewhom", BENCH_DIR, codes)
    prof = cProfile.Profile()
    tally = Tally()
    clock = Clock()
    raw = traced = 0.0
    for req in requests:
        elapsed, err, raised = run_once(req, prof)
        raw += elapsed
        traced += clock.scale(elapsed)
        tally.add(req, err, raised)
    prof.create_stats()
    TRACES.mkdir(exist_ok=True)
    prof.dump_stats(TRACES / f"{args.workload}-seed{args.seed}.pstats")
    figures = layers.aggregate(prof.stats, layer_map, traced / raw, traced)
    metrics = {name: {"value": figures[name], "unit": layers.unit_of(name)} for name in layers.PER_LAYER}
    emit(tally.wrong == 0, tally, metrics)
    return 0


def self_test(wl, args, work: Path) -> int:
    """Every corrupted input must come back as a failed operation."""
    tally = Tally()
    missed = []
    for workload in wl.WORKLOADS:
        for kind in wl.CORRUPTIONS:
            requests = wl.BUILDERS[workload](args.seed, work / f"{workload}-{kind}", corrupt=kind)
            for req in requests:
                _, err, raised = run_once(req)
                if tally.add(req, err, raised):
                    missed.append(f"{workload}/{kind}: {req.name}")
                print(f"self-test {workload}/{kind}: {req.name}: "
                      f"{'not caught' if err is None else 'caught'}", file=sys.stderr)
    for name in missed:
        print(f"NOT CAUGHT {name}", file=sys.stderr)
    emit(tally.wrong == 0, tally, {})
    return 0 if not missed and tally.attempted else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = import_program()
    if args.workload not in wl.WORKLOADS and not args.self_test:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        wl.BUILDERS[args.workload](args.seed, Path(args.setup_probe))
        print("ready", flush=True)
        return 0
    work = WORK / str(os.getpid())
    try:
        if args.self_test:
            return self_test(wl, args, work)
        if args.trace:
            return trace(wl, args, work)
        return measure(wl, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
