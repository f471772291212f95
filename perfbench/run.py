"""SLDG benchmark: time to solution, set-up, memory and accuracy per workload.

Run every workload, each in a fresh single-threaded process, and print a
table of the end-to-end metrics (from the repository root):

    python3 perfbench/run.py [--seconds 30] [--trace 0|1]

Run one workload; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics:

    python3 perfbench/run.py --workload swirl-qc --seed 1 --seconds 30 --trace 0

A run repeats whole solves of its workload, each from a fresh set-up, and
starts another only while it can finish within --seconds.  With --trace 0
it reports the end-to-end metrics named in BENCHMARK.json (medians over
the repeats); with --trace 1 it alternates untraced and traced repeats and
reports the per-layer metrics of the traced ones, plus the tracing
overhead.  A repeat fails when the solver raises SolverError or
GeometryError or when a correctness check rejects its output.  Raw samples
and spans go to perfbench/results/.
"""

from __future__ import annotations

import ctypes
import os
import sys

# One BLAS thread, a fixed string-hash seed and a fixed address layout.
# With randomized hashing the peak resident memory of one workload varied
# by 4% between runs; with a randomized layout that of rotate-direct took
# one of four values from 450 to 486 MiB.  All are read when the interpreter
# and numpy start, so the process re-executes itself once with them set.
# SLDG_WORKERS only sizes the thread pool of sldg.bench's studies, which
# the benchmark does not call; it is cleared anyway.
PINNED_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
ADDR_NO_RANDOMIZE = 0x0040000


def _fix_layout() -> bool:
    """Turn off address randomization for this process's next exec.

    Returns whether that changed anything.  It acts on this process alone
    (as ``setarch -R`` does); where the call is refused the run goes on
    with a randomized layout.
    """
    try:
        personality = ctypes.CDLL(None, use_errno=True).personality
    except (OSError, AttributeError):
        return False
    persona = personality(0xFFFFFFFF)
    if persona == -1 or persona & ADDR_NO_RANDOMIZE:
        return False
    return personality(persona | ADDR_NO_RANDOMIZE) != -1


if (_fix_layout() or any(os.environ.get(k) != v for k, v in PINNED_ENV.items())
        or "SLDG_WORKERS" in os.environ):
    os.environ.update(PINNED_ENV)
    os.environ.pop("SLDG_WORKERS", None)
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC_FILE = HERE.parent / "BENCHMARK.json"
RESULTS = HERE / "results"
# set-ups timed before every untraced solve but the first, the last one
# solved.  Spread over the run like the solves, they see the same host
# states: 50 set-ups at the start of a run took 0.2 s on line-source, and
# the medians of two ten-run sets of them differed by 47%.
SETUPS_PER_REPEAT = 10


def _spec() -> dict:
    with open(SPEC_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _metrics(values: dict, declared: list) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"benchmark produced no value for {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads as wl

    spec = _spec()
    w = wl.WORKLOADS[name]
    reference = wl.load_reference() if w.problem == "ex35" else None
    if trace:
        from tracing import Tracer, layer_metrics

    t_begin = time.perf_counter()
    setup_s = []
    attempted = failed = 0
    correct = True
    solve_s = {False: [], True: []}
    l1s, repeat_s, layers, log = [], [], [], []
    spans = []
    work = None
    while True:
        traced = trace and attempted % 2 == 1
        tag = f"{name}/{attempted}"
        attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            if traced:
                tracer = Tracer(tag)
                with tracer:
                    case = tracer.wrap("bench.setup", wl.setup)(w)
                    uT, ends = tracer.wrap("bench.solve", wl.solve)(case)
                t_solve = next(s.seconds for s in tracer.spans if s.name == "bench.solve")
            else:
                # the first solve runs from the process's only set-up, as a
                # user's does, so its peak memory is that of a user's run
                for _ in range(SETUPS_PER_REPEAT if attempted > 1 else 1):
                    case, s = wl.timed(wl.setup, w)
                    setup_s.append(s)
                (uT, ends), t_solve = wl.timed(wl.solve, case)
        except wl.FAILURES as exc:
            failed += 1
            log.append({"repeat": tag, "error": f"{type(exc).__name__}: {exc}"})
            print(f"{tag}: FAILED {type(exc).__name__}: {exc}", flush=True)
        else:
            l1, checks = wl.check(case, uT, ends, reference)
            ok = all(c.passed for c in checks)
            log.append({"repeat": tag, "traced": traced, "solve_s": t_solve,
                        "checks": [c._asdict() for c in checks]})
            for c in checks:
                print(f"{tag}: check {c.name} {'ok' if c.passed else 'FAILED'}: {c.detail}")
            if ok:
                solve_s[traced].append(t_solve)
                l1s.append(l1)
                work = case.mesh.ncells * len(ends)
                if traced:
                    layers.append(layer_metrics(tracer.spans))
                    spans.extend(asdict(s) for s in tracer.spans)
            else:
                failed += 1
                correct = False
            del case, uT
        repeat_s.append(time.perf_counter() - t0)
        if attempted == 1:
            # later repeats reuse the allocator's pages unevenly; the
            # first solve's high-water mark is the repeatable figure
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - t_begin
        need_traced = trace and not solve_s[True] and attempted < 2
        if not need_traced and elapsed + statistics.median(repeat_s) > seconds:
            break

    raw = {"workload": asdict(w), "seed": seed, "seconds": seconds, "trace": trace,
           "setup_s": setup_s, "solve_s": solve_s[False], "traced_solve_s": solve_s[True],
           "peak_rss_mib": peak_rss_mib, "repeats": log}
    if not solve_s[False] or (trace and not solve_s[True]):
        _write_raw(name, seed, trace, raw)
        print(f"{name}: no repeat succeeded", file=sys.stderr)
        return 1

    if trace:
        values = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
        untraced = statistics.median(solve_s[False])
        values["trace.solve_s"] = statistics.median(solve_s[True])
        values["trace.untraced_solve_s"] = untraced
        values["trace.overhead_pct"] = 100.0 * (values["trace.solve_s"] / untraced - 1.0)
        values["trace.spans"] = len(spans) // len(layers)
        raw["layers"] = layers
        raw["spans"] = spans
        metrics = _metrics(values, spec["per_layer"])
    else:
        solve = statistics.median(solve_s[False])
        values = {
            "solve_s": solve,
            "setup_s": statistics.median(setup_s),
            "cell_steps_per_s": work / solve,
            "peak_rss_mib": peak_rss_mib,
            "l1_error": statistics.median(l1s),
        }
        metrics = _metrics(values, spec["end_to_end"])
    _write_raw(name, seed, trace, raw)
    for key, m in metrics.items():
        print(f"{name}: {key} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _write_raw(name: str, seed: int, trace: bool, raw: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(raw) + "\n", encoding="utf-8")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own fresh process; prints one table."""
    names = [w["name"] for w in _spec()["workloads"]]
    attempted = failed = 0
    correct = True
    combined = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=seconds + 150)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: run failed (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for key, m in result["metrics"].items():
            print(f"  {key:34s} {m['value']:14.6g} {m['unit']}")
            combined[f"{name}.{key}"] = m
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if correct and failed == 0 else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one workload name; default: all, each in its own process")
    ap.add_argument("--seed", type=int, default=0,
                    help="recorded with the raw results; the workloads are fixed analytic problems")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="time budget of one run; whole repeats only")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from traced repeats")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    names = [w["name"] for w in _spec()["workloads"]]
    if args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; choose from {names}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
