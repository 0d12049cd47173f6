"""Benchmark of the threestage package: seeded CLI workloads, timed and checked.

    python3 bench/run.py --workload {verify,sweep,message,run,all} --seed N \
        --seconds S --trace {0,1}

Runs in-process, in one thread, with BLAS pinned to one thread, against the
package under ``src/`` of this checkout. A workload repeats passes over the
same seeded inputs until the next pass would end past ``--seconds``; each
operation (one ``cli.main`` call or one library entry call) is timed and its
output checked. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs half the time untraced and half with the span recorder of ``spans.py``
and reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's details and environment. A table goes to standard error.
The exit code is 0 when every operation passed its check, 1 otherwise, and
1 without a result when the package cannot be imported from this checkout.
"""

import os

# Pinned before numpy is first imported, here and in every child process.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("verify", "sweep", "message", "run")

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("units_per_s", "unit/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)
# Fresh processes timed per run for setup_s; the median is reported.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def bootstrap() -> None:
    """Make ``import threestage`` load this checkout's ``src/threestage``, or exit."""
    package = SRC / "threestage"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: {package} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import threestage

    if Path(threestage.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported threestage from {threestage.__file__}, not {package}")


def git_sha():
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "seed": seed,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 **{var: os.environ[var] for var in BLAS_THREAD_VARS}},
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def setup_probes(workload: str, seed: int, speed) -> tuple[list[tuple[float, float]], list[str]]:
    """Time fresh processes that import threestage and generate the inputs.

    Returns each probe's (start, end) and the problems met. The host speed is
    sampled between probes.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--setup-probe"]
    intervals, problems = [], []
    for _ in range(SETUP_PROBES):
        speed.sample()
        speed.sample()
        start = perf_counter()
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S)
        intervals.append((start, perf_counter()))
        if proc.returncode != 0:
            problems.append(f"setup probe exited {proc.returncode}: {proc.stderr[-200:]!r}")
    speed.sample()
    speed.sample()
    return intervals, problems


class Tally:
    """Operations attempted and failed over a run, with the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, run) -> None:
        self.attempted += len(run.latencies)
        self.failed += len(run.failed_ops)
        self.reasons += run.reasons[: max(0, 10 - len(self.reasons))]


def measure(workload, seconds: float, tally: Tally, speed=None, recorder=None) -> list:
    """Run passes until the next one would end past ``seconds``; at least one.

    With a host-speed sampler each pass also gets ``adjusted``: its latencies
    at the reference host speed.
    """
    from workloads import Pass

    passes = []
    start = perf_counter()
    while True:
        gc.collect()
        if recorder is not None:
            recorder.reset()
        began = perf_counter()
        run = Pass(recorder, first_op=tally.attempted, speed=speed)
        try:
            workload.run_pass(run)
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            run.fail(f"malformed output: {exc!r}")
        if speed is not None:
            speed.sample()
            run.adjusted = [speed.adjust(t, *span) for t, span in zip(run.latencies, run.intervals)]
        if recorder is not None:
            run.layers = recorder.stats()
            if not passes:
                run.spans = list(recorder.spans)
        tally.add(run)
        passes.append(run)
        now = perf_counter()
        if now - start + (now - began) > seconds:
            return passes


def timings(workload, passes, field: str) -> dict[str, float]:
    """wall_s (with quartiles), units_per_s and op latency percentiles from ``field``.

    op_p90_ms is the p90 of each pass, median over passes. The p99 is only in
    the details: on a shared host its run-to-run spread is set by sub-second
    stalls the host-speed samples cannot see, beyond any usable bound.
    """
    walls = [sum(getattr(run, field)) for run in passes]
    latencies = [t for run in passes for t in getattr(run, field)]
    q1, median, q3 = quartiles(walls)
    return {
        "wall_s": median,
        "wall_s_q1": q1,
        "wall_s_q3": q3,
        "units_per_s": workload.units * len(passes) / sum(walls),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.median(float(np.percentile(getattr(run, field), 90))
                                       for run in passes) * 1e3,
        "op_p99_ms": float(np.percentile(latencies, 99)) * 1e3,
    }


def traced_layers(workload, untraced, traced) -> tuple[dict[str, float], dict]:
    values, problems = spans.summarize([run.layers for run in traced])
    checks = {}
    for name, want in workload.expected_counts().items():
        checks[name] = {"expected": want, "actual": values[name]}
        if values[name] != want:
            problems.append(f"{name} = {values[name]}, expected {want}")
    # Measured times: the traced passes run without the host-speed sampler,
    # whose kernel would otherwise land inside the spans.
    plain = timings(workload, untraced, "latencies")["wall_s"]
    with_spans = timings(workload, traced, "latencies")["wall_s"]
    values["trace.overhead_s"] = with_spans - plain
    values["trace.count_mismatches"] = len(problems)
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{workload.name}.npz"
    spans.save_spans(spans_file, traced[0].spans)
    detail = {
        "untraced_wall_s": plain,
        "traced_wall_s": with_spans,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "count_checks": checks,
        "problems": problems,
        "spans_file": str(spans_file.relative_to(ROOT)),
        "note": "fidelity.oracle_build.products is computed from n and the Kraus "
                "count, not counted; self_s is raw seconds, the median over traced passes",
    }
    return values, detail


def run_workload(args) -> int:
    from workloads import WORKLOADS, Pass

    workdir = OUT / f"work-{os.getpid()}"
    tally = Tally()
    speed = HostSpeed()
    try:
        probes = []
        if not args.trace:
            probes, problems = setup_probes(args.workload, args.seed, speed)
            tally.attempted += len(probes)
            tally.failed += len(problems)
            tally.reasons += problems
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.prepare()
        warm = Pass()
        workload.warm_up(warm)
        tally.add(warm)
        if args.trace:
            untraced = measure(workload, args.seconds / 2, tally, speed)
            recorder = spans.Recorder()
            with spans.instrument(recorder):
                passes = measure(workload, args.seconds / 2, tally, recorder=recorder)
            values, trace_detail = traced_layers(workload, untraced, passes)
            catalogue = spans.per_layer_metrics()
        else:
            passes = measure(workload, args.seconds, tally, speed)
            values = timings(workload, passes, "adjusted")
            values["setup_s"] = statistics.median(speed.adjust(end - start, start, end)
                                                  for start, end in probes)
            # ru_maxrss is in KiB on Linux.
            values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            catalogue = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    raw = timings(workload, passes, "latencies")
    shown = raw if args.trace else timings(workload, passes, "adjusted")
    detail = {
        "workload": args.workload,
        "trace": bool(args.trace),
        "env": environment(args.seed),
        "unit": workload.unit,
        "units_per_pass": workload.units,
        "passes": len(passes),
        "op_samples": sum(len(run.latencies) for run in passes),
        "raw": raw,
        "host_slowdown": {"samples": len(speed.slowdown),
                          "median": statistics.median(speed.slowdown),
                          "reference_s": REFERENCE_S},
        "setup_s_raw": [end - start for start, end in probes],
        "failed_frac": tally.failed / tally.attempted,
        "failures": tally.reasons,
    }
    if args.trace:
        detail["trace_detail"] = trace_detail
    else:
        detail["adjusted"] = shown
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in catalogue}
    correct = tally.failed == 0

    print(f"threestage bench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} wall_s q1/median/q3 = {shown['wall_s_q1']:.4f}/"
          f"{shown['wall_s']:.4f}/{shown['wall_s_q3']:.4f} "
          f"(raw median {detail['raw']['wall_s']:.4f}, host slowdown "
          f"{detail['host_slowdown']['median']:.3f})", file=sys.stderr)
    for name, entry in metrics.items():
        print(f"  {name:44s} {entry['value']:>16.6g} {entry['unit']}", file=sys.stderr)
    print(f"  {'failed_frac':44s} {detail['failed_frac']:>16.6g} "
          f"({tally.failed} of {tally.attempted} operations)", file=sys.stderr)
    for reason in tally.reasons + (trace_detail["problems"] if args.trace else []):
        print(f"  ! {reason}", file=sys.stderr)

    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"bench: workload {name} printed no result", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import the package, generate the inputs, exit (times setup_s)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    if args.setup_probe:
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed, OUT / "probe")
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
