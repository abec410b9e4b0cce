"""Benchmark for the majorana package: one workload, one seed, one run.

    python3 bench/run.py --workload {roundtrip,kings,dynamics,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  With ``--trace 0`` the
run measures the end-to-end metrics; with ``--trace 1`` it measures the
per-layer metrics, the tracing overhead, and writes the span dump.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print each
metric with its unit and the run record (seed, input digest, environment,
tail latency, failures).  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOADS = ("roundtrip", "kings", "dynamics", "cli")
# Fresh interpreters started to time set-up, besides this process.
SETUP_PROBES = 3

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_up(name: str, seed: int, workdir: str):
    """Import the package from src/ and warm the workload's caches; returns
    (workload, seconds).  Nothing but the standard library is imported
    before the clock starts."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import majorana

    if Path(majorana.__file__).resolve().parent != SRC / "majorana":
        raise SystemExit(f"imported majorana from {majorana.__file__}, not from {SRC}")
    import numpy as np
    import workloads as wl

    workload = {
        "roundtrip": wl.Roundtrip,
        "kings": wl.Kings,
        "dynamics": wl.Dynamics,
        "cli": lambda: wl.Cli(str(SRC), workdir),
    }[name]()
    workload.warm_up(np.random.default_rng([seed, 2 ** 32]))
    return workload, time.perf_counter() - t0


def probe_setups(args) -> list[float]:
    """Set-up time in SETUP_PROBES fresh interpreters, one after another."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


def cycle_count(workload, seconds: float) -> int:
    """Input cycles of a run.  It depends on --seconds alone, never on how
    fast the host is, so a seed fixes every op of a run and, for
    deterministic code, every failure: two runs with the same seed attempt
    and fail exactly the same units."""
    return max(1, round(seconds / (workload.PASSES * workload.CYCLE_S)))


def run_cycles(workload, seed: int, tr, cycles: int, seconds: float):
    """Run the ops of the given number of input cycles workload.PASSES
    times over.

    Each op time is scaled by the host speed measured just before and after
    it (speed.Monitor.scale_at), and an op reports the median of its scaled
    times over the passes.  An op failed if it failed in any pass, so a
    faster pass never hides a failure.  A pass that ends past twice the
    planned time is the last one.  Returns (outcomes, median raw seconds
    per op, passes run, speed monitor)."""
    import numpy as np

    monitor = speed.Monitor()
    ops = [op for k in range(cycles)
           for op in workload.ops(workload.inputs(np.random.default_rng([seed, k]), k))]
    deadline = time.perf_counter() + 2.0 * seconds
    passes, starts = [], []
    while len(passes) < workload.PASSES:
        outcomes = []
        for op in ops:
            starts.append(time.perf_counter())
            outcomes.append(op(tr))
            monitor.between_ops()
        passes.append(outcomes)
        if time.perf_counter() > deadline:
            break
    monitor.sample()  # the sample after the last op
    scales = iter([monitor.scale_at(t) for t in starts])
    scaled = [[next(scales) * o.seconds for o in outcomes] for outcomes in passes]
    combined, raw = [], []
    for runs, times in zip(zip(*passes), zip(*scaled)):
        worst = max(runs, key=lambda o: (o.failed, o.contract_failed, o.timed_out))
        combined.append(dataclasses.replace(worst, seconds=statistics.median(times)))
        raw.append(statistics.median(o.seconds for o in runs))
    return combined, raw, len(passes), monitor


def tail(latencies: list[float]) -> dict | None:
    """Highest percentile that still has 10 samples beyond it."""
    n = len(latencies)
    if n < 11:
        return None
    ordered = sorted(latencies)
    return {"ms": 1e3 * ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def by_class(outcomes) -> dict:
    out: dict[str, dict] = {}
    for o in outcomes:
        row = out.setdefault(o.klass, {"ops": 0, "units": 0, "failed": 0, "timeouts": 0, "ms": []})
        row["ops"] += 1
        row["units"] += o.units
        row["failed"] += o.failed
        row["timeouts"] += int(o.timed_out)
        row["ms"].append(1e3 * o.seconds)
    for row in out.values():
        row["ms_p50"] = statistics.median(row.pop("ms"))
    return out


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    threads = ("MAJORANA_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "click")},
        "git_sha": sha,
        "thread_env": {k: os.environ.get(k) for k in threads},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "majorana" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'majorana'}", file=sys.stderr)
        return 2
    # Searches run single-threaded; the variable would change the workload.
    inherited_threads = os.environ.pop("MAJORANA_NUM_THREADS", None)
    RESULTS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS)
    try:
        return measure(args, workdir, inherited_threads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: str, inherited_threads) -> int:
    loops = [speed.loop() for _ in range(3)]
    workload, setup_raw = set_up(args.workload, args.seed, workdir)
    loops += [speed.loop() for _ in range(3)]
    setup_s = setup_raw * speed.REF_S / statistics.median(loops)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    import numpy as np
    import workloads as wl
    from tracing import NullTracer, Tracer

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": dict(environment(), inherited_MAJORANA_NUM_THREADS=inherited_threads),
    }
    if args.trace:
        import layers

        half = args.seconds / 2.0
        cycles = cycle_count(workload, half)
        plain, _, passes, _ = run_cycles(workload, args.seed, NullTracer(), cycles, half)
        tracer = Tracer()
        traced, _, _, _ = run_cycles(workload, args.seed, tracer, cycles, half)
        suite = layers.Suite(tracer, args.seed, str(SRC), workdir)
        metrics = suite.run()
        busy_plain = sum(o.seconds for o in plain)
        busy_traced = sum(o.seconds for o in traced)
        metrics["trace.overhead_pct"] = 100.0 * (busy_traced - busy_plain) / busy_plain
        outcomes = plain + traced
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        missing = set(units) - set(metrics)
        if missing:
            raise RuntimeError(f"per-layer metrics not measured: {sorted(missing)}")
        metrics = {name: metrics[name] for name in units}
        span_file = RESULTS / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(span_file)
        record.update(cycles=cycles, passes=passes, span_file=str(span_file.relative_to(ROOT)),
                      self_ms_by_layer=tracer.summary()["self_ms_by_layer"],
                      suite_failures=suite.failures[:20])
    else:
        setups = [setup_s] + probe_setups(args)
        cycles = cycle_count(workload, args.seconds)
        outcomes, raw, passes, monitor = run_cycles(workload, args.seed, NullTracer(), cycles,
                                                    args.seconds)
        latencies = [o.seconds for o in outcomes]
        total = sum(o.units for o in outcomes)
        ok = total - sum(o.failed for o in outcomes)
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": ok / sum(latencies),
            "op_ms_p50": 1e3 * statistics.median(latencies),
            "ok_ratio": ok / total,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        record.update(
            cycles=cycles,
            passes=passes,
            setup_samples_s=setups,
            op_ms_tail=tail(latencies),
            host_reference_ms={"median": 1e3 * statistics.median(monitor.samples),
                               "min": 1e3 * min(monitor.samples),
                               "max": 1e3 * max(monitor.samples),
                               "samples": len(monitor.samples)},
            raw={"setup_s": setup_raw, "ops_per_s": ok / sum(raw),
                 "op_ms_p50": 1e3 * statistics.median(raw)},
        )

    record["input_digest"] = wl.digest(
        [workload.inputs(np.random.default_rng([args.seed, k]), k) for k in range(cycles)])
    attempted = sum(o.units for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    contract_failed = sum(o.contract_failed for o in outcomes)
    problems = sorted({p for o in outcomes for p in o.problems})
    record.update(
        unit=workload.unit,
        attempted=attempted,
        failed=failed,
        fail_ratio=failed / attempted,
        contract_failed=contract_failed,
        classes=by_class(outcomes),
        problems=problems[:20],
        metrics=metrics,
    )
    out_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))

    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print("record " + json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps({
        "correct": contract_failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
