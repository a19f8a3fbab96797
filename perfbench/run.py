"""Benchmark runner for viewpilot.

    python3 perfbench/run.py --workload train --seed 2026 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --out results.json

One workload runs in this process, single-threaded: BLAS is pinned to one
thread before numpy is imported. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``. Earlier lines name every metric with its
unit and direction and carry a ``record:`` line with the run's metadata
(thread settings, versions, commit, ``src/`` line count) and the host-speed
probe taken before and after the run. ``--workload all`` runs each workload
untraced and traced, each in its own process, and prints their lines.

The program is imported from ``src/`` next to this directory; without it
the runner exits with code 2 and prints no result.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train", "eval", "ingest", "gradcheck")
EXIT_NO_PROGRAM = 2
# A fresh interpreter importing the program: the start-up part of set-up,
# timed in a child process so that it can be repeated.
START_COMMAND = [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import viewpilot"]
START_REPEATS = 5

# End-to-end metrics: every workload reports each of them, and each pairing
# of metric and workload is compared against the parent commit. The two
# rates are each workload's main and second path (README.md).
RATE_SOURCES = {
    "train": ("train_frames_per_s", "agent_eval_frames_per_s"),
    "eval": ("eval_frames_per_s", "pilot_stream_frames_per_s"),
    "ingest": ("load_frames_per_s", "gen_data_frames_per_s"),
    "gradcheck": ("gradcheck_frames_per_s", "trajectory_check_frames_per_s"),
}
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("frames_per_s", "frames/s", "higher"),
    ("aux_frames_per_s", "frames/s", "higher"),
)
# Workload figures printed and recorded beside the end-to-end metrics.
NAMED_UNITS = {
    "train_frames_per_s": ("frames/s", "higher"),
    "agent_mo": ("ratio", "higher"),
    "agent_mvd": ("deg/frame", "lower"),
    "agent_eval_frames_per_s": ("frames/s", "higher"),
    "train_steps": ("count", "samples"),
    "eval_frames_per_s": ("frames/s", "higher"),
    "pilot_step_p50_us": ("us", "lower"),
    "pilot_step_p99_us": ("us", "lower"),
    "pilot_step_samples": ("count", "samples"),
    "pilot_stream_frames_per_s": ("frames/s", "higher"),
    "eval_passes": ("count", "samples"),
    "gen_data_frames_per_s": ("frames/s", "higher"),
    "load_frames_per_s": ("frames/s", "higher"),
    "ingest_shards": ("count", "samples"),
    "gradcheck_s": ("s", "lower"),
    "gradcheck_frames_per_s": ("frames/s", "higher"),
    "trajectory_check_frames_per_s": ("frames/s", "higher"),
    "gradcheck_rounds": ("count", "samples"),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="viewpilot benchmark runner")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=2026, help="2026 reproduces configs/reference.json")
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("reference", "tiny"), default="reference")
    parser.add_argument("--out", help="with --workload all: write every run's record to this JSON file")
    return parser.parse_args(argv)


def import_program():
    """Import viewpilot from this checkout's src/ only."""
    if not (SRC / "viewpilot" / "__init__.py").is_file():
        raise ImportError(f"no viewpilot package under {SRC}")
    sys.path.insert(0, str(SRC))
    import viewpilot

    if Path(viewpilot.__file__).resolve().parent != SRC / "viewpilot":
        raise ImportError(f"viewpilot imported from {viewpilot.__file__}, not {SRC}")


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def metadata() -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict form of the build config
        blas = "unknown"
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "commit": _git_commit(),
        "src_lines": src_lines,
    }


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(args) -> dict:
    """Run one workload in this process and return its record."""
    import statistics

    import clock
    import tracer
    import workloads

    size = workloads.SIZES[args.size]
    setup, measure = workloads.WORKLOADS[args.workload]
    checks = workloads.Checks()
    probe_before = clock.host_probe()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            host = clock.HostClock()
            inputs = setup(size, args.seed, workdir)
            named, plain, samples = measure(size, args.seed, inputs, checks, host, args.seconds, True)
            traced_host = clock.HostClock()
            with tracer.Tracer() as trace:
                inputs = setup(size, args.seed, workdir)
                _, traced, traced_samples = measure(
                    size, args.seed, inputs, checks, traced_host, args.seconds, True
                )
            checks.check(traced == plain, "traced run reproduces the untraced quality bit for bit")
            checks.check(not trace.missing, f"every traced attribute found: {trace.missing}")
            work_s = sum(sum(v) for v in samples.values())
            traced_work_s = sum(sum(v) for v in traced_samples.values())
            metrics = trace.metrics(
                overhead_pct=100.0 * (traced_work_s / work_s - 1.0),
                time_scale=clock.REFERENCE_PROBE_S / statistics.median(traced_host.probes),
            )
            quality = plain
        else:
            with clock.HostClock(interrupts=True) as host:
                start_times = []
                for _ in range(START_REPEATS):
                    _, elapsed = host.time(subprocess.run, START_COMMAND, check=True)
                    start_times.append(elapsed)
                setup_times = []
                for _ in range(size.setup_repeats):
                    inputs, elapsed = host.time(setup, size, args.seed, workdir)
                    setup_times.append(elapsed)
                named, quality, samples = measure(
                    size, args.seed, inputs, checks, host, args.seconds, False
                )
            main, aux = RATE_SOURCES[args.workload]
            values = {
                "setup_s": statistics.median(start_times) + statistics.median(setup_times),
                "peak_rss_mb": _peak_rss_mb(),
                "frames_per_s": named[main],
                "aux_frames_per_s": named[aux],
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
            samples["start_s"] = start_times
            samples["setup_s"] = setup_times
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "named": named,
        "quality": repr(quality),
        "metrics": metrics,
        "samples": samples,
        "checks": {"attempted": checks.attempted, "failed": checks.failed, "failures": checks.failures},
        "meta": metadata(),
        "host": host.summary(),
        "probe_before": probe_before,
        "probe_after": clock.host_probe(),
    }


def _direction(better: str) -> str:
    return {"higher": "higher is better", "lower": "lower is better"}.get(better, better)


def print_record(record: dict) -> None:
    import tracer

    print(f"workload {record['workload']}  seed {record['seed']}  size {record['size']}  trace {record['trace']}")
    for name, value in record["named"].items():
        unit, better = NAMED_UNITS[name]
        print(f"  {name:<32} {value:>16.6g} {unit:<10} ({_direction(better)})")
    spec = {n: (u, b) for n, u, b in END_TO_END}
    spec.update({n: (u, b) for n, u, b in tracer.per_layer_spec()})
    for name, metric in record["metrics"].items():
        print(f"  {name:<32} {metric['value']:>16.6g} {metric['unit']:<10} ({_direction(spec[name][1])})")
    checks = record["checks"]
    print(f"  checks: {checks['attempted']} attempted, {checks['failed']} failed {checks['failures'] or ''}")
    print("record: " + json.dumps(record, sort_keys=True))


def result_line(record: dict) -> str:
    checks = record["checks"]
    return json.dumps(
        {
            "correct": checks["failed"] == 0,
            "attempted": checks["attempted"],
            "failed": checks["failed"],
            "metrics": record["metrics"],
        }
    )


def run_all(args) -> int:
    """Each workload untraced then traced, each in its own process."""
    records = []
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--size", args.size,
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{workload} (trace {trace}) failed with exit code {proc.returncode}")
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            record = json.loads(next(l for l in lines if l.startswith("record: "))[len("record: "):])
            record["result"] = json.loads(lines[-1])
            print("\n".join(l for l in lines[:-1] if not l.startswith("record: ")))
            records.append(record)
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    attempted = sum(r["checks"]["attempted"] for r in records)
    failed = sum(r["checks"]["failed"] for r in records)
    print(f"all workloads: {attempted} checks attempted, {failed} failed")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    if args.workload == "all":
        return run_all(args)
    record = run_workload(args)
    print_record(record)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
