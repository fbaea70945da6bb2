"""vouchnet benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload formation_n400 --seed 7 --seconds 40 --trace 0

Run from the root of a checkout; the simulator is imported from its
``src/``. With ``--trace 0`` the workload runs untraced and the end-to-end
metrics are reported; with ``--trace 1`` untraced and traced reps
alternate and the per-layer metrics are reported. Every rep's outputs are
checked. Lines before the last describe the environment, the simulated
statistics and each metric; the last line is the JSON result. Workload
rationale and the layer-to-metric map are in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 11
MIN_REPS = 3


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_workloads():
    """Import the simulator from this checkout's ``src/``, or stop."""
    if not (SRC / "vouchnet" / "__init__.py").is_file():
        fail(f"no simulator source under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import vouchnet
    if Path(vouchnet.__file__).resolve().parent != SRC / "vouchnet":
        fail(f"imported vouchnet from {vouchnet.__file__}, not from {SRC}")
    import workloads
    return workloads


def environment(args) -> dict:
    head = "unknown"
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10).stdout.strip() or head
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "vouchnet").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "head": head,
        "src_sha256": source.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_probe(workload: str, seed: int, tiny: bool) -> float:
    """Set-up time of one fresh child process, as it reports it."""
    command = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    if tiny:
        command.append("--tiny")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        fail(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


class Run:
    """Accounting of one benchmark run: reps, ops, failures, statistics."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.state = workload.setup(seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_summary: dict | None = None
        self.last_summary: dict | None = None

    def rep(self, index: int, tracer=None) -> tuple[float, int]:
        """Prepare, execute (timed) and check one rep; return (seconds, ops).

        The garbage of earlier reps is collected first, untimed, so that no
        rep pays for another's and dead simulations do not pile up in memory.
        """
        wl = self.workload
        gc.collect()
        with tracer.active(f"rep{index}") if tracer else contextlib.nullcontext():
            job = wl.prepare(self.state, index)
            start = time.perf_counter()
            out = wl.execute(self.state, job, tracer)
            elapsed = time.perf_counter() - start
        ops, problems, summary = wl.check(self.state, job, out)
        self.attempted += ops
        if problems:
            self.failed += ops
            self.problems += problems
        if self.first_summary is None:
            self.first_summary = summary
        self.last_summary = summary
        return elapsed, ops

    def finish(self) -> None:
        problems = self.workload.finish(self.state)
        if problems:
            self.failed = self.attempted
            self.problems += problems


def run_untraced(run: Run, seconds: float, probe) -> dict:
    """Reps for ``seconds`` of host time, checks included, after a warm-up
    rep, with the set-up probes spread among them.

    Host speed on a shared machine drifts, and a slow stretch can cover
    many reps, so the time figures are medians over the reps rather than
    totals, and the set-up probes sample the same stretch of time as the
    reps.
    """
    run.rep(0)  # warm-up: fills caches and lazy state; checked, not timed
    times, rates, setup = [], [], []
    index = 0
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or len(times) < MIN_REPS
           or len(setup) < SETUP_PROBES):
        elapsed, ops = run.rep(index)
        times.append(elapsed)
        rates.append(ops / elapsed)
        index += 1
        if (len(setup) < SETUP_PROBES
                and time.perf_counter() - start >= seconds * len(setup) / SETUP_PROBES):
            setup.append(probe())
    return {
        "wall_s": statistics.median(times),
        "ops_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "reps": len(times),
        "rep_times": times,
        "setup_times": setup,
    }


def run_traced(run: Run, seconds: float, tracer: tracing.Tracer) -> dict:
    """Alternate untraced and traced reps of the same inputs."""
    run.rep(0)
    plain, traced = [], []
    index = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(traced) < 1:
        plain.append(run.rep(index)[0])
        traced.append(run.rep(index, tracer)[0])
        index += 1
    overhead = statistics.median(t - p for p, t in zip(plain, traced))
    metrics = tracing.layer_metrics(tracer, len(traced), overhead)
    metrics["reps"] = len(traced)
    return metrics


def main(argv=None) -> None:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, help="default: the workload's scenario seed")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = import_workloads()
    registry = workloads.make_workloads()
    if args.workload == "all":
        run_all(list(registry), args)
        return
    if args.workload not in registry:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(registry)} or all")
    workload = registry[args.workload]
    if args.seed is None:
        args.seed = workload.default_seed

    measure(workload, args, spec)


def run_all(names: list[str], args) -> None:
    """Run every workload, each in its own process so that its peak memory
    is its own, and print each report line prefixed by the workload."""
    results = {}
    for name in names:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            fail(f"{name} failed: {done.stderr.strip()}")
        lines = done.stdout.splitlines()
        for line in lines[:-1]:
            print(f"{name} {line}", flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True), flush=True)


def measure(workload, args, spec, tiny: bool = False) -> dict:
    """Run one measurement, print its report and result line, return the result."""
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    if args.trace:
        tracer = tracing.Tracer()
        run = Run(workload, args.seed)
        figures = run_traced(run, args.seconds, tracer)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload.name}-{args.seed}.jsonl")
    else:
        run = Run(workload, args.seed)
        figures = run_untraced(run, args.seconds,
                               lambda: setup_probe(workload.name, args.seed, tiny))
    run.finish()

    print("simulated " + json.dumps(run.first_summary, sort_keys=True))
    print("simulated_last " + json.dumps(run.last_summary, sort_keys=True))
    for problem in run.problems[:20]:
        print(f"check failed: {problem}")
    print(f"reps {figures['reps']} attempted {run.attempted} failed {run.failed} "
          f"fail_rate {run.failed / run.attempted:.6f} ratio")
    metrics = {}
    for entry in declared:
        value = figures[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"metric {entry['name']} {value!r} {entry['unit']}")
    result = {"correct": not run.problems, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{workload.name}-{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "simulated": run.first_summary,
                                  "rep_times": figures.get("rep_times"),
                                  "setup_times": figures.get("setup_times"),
                                  "result": result}, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(json.dumps(result, sort_keys=True), flush=True)
    return result


if __name__ == "__main__":
    main()
