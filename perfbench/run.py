"""nqisim benchmark: four workloads, end-to-end metrics, and a traced run
that gives per-layer metrics.

    python3 perfbench/run.py                      # every workload, one process each
    python3 perfbench/run.py --trace 1            # the same, traced
    python3 perfbench/run.py --workload cavity --seed 3 --seconds 10 --trace 0

One workload runs in this process; with ``--workload all`` (the default)
each runs in a fresh child process, one at a time.  The last line of a
single-workload run is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Results and spans are also written to
``perfbench/out/``.  See README.md beside this file for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# The keys of workloads.WORKLOADS, known here before numpy is imported.
WORKLOAD_NAMES = ("chain-sweep", "chain-long", "witness-scan", "cavity")
SETUP_PROBES = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """Let BLAS use no more threads than there are cores (before numpy loads)."""
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        limit = nproc()
        if current.isdigit() and int(current) > 0:
            limit = min(limit, int(current))
        os.environ[var] = str(limit)


def import_program():
    """Import nqisim from this checkout's sources, never from elsewhere."""
    if not (SRC / "nqisim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no nqisim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nqisim

    if Path(nqisim.__file__).resolve().parent != SRC / "nqisim":
        sys.exit(f"perfbench: imported nqisim from {nqisim.__file__}, not from {SRC}")
    return nqisim


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, when its library can be found."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_thread_limit": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc(),
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(args) -> float:
    """Median wall time of fresh processes that import nqisim and draw the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed_pass(workload, args, pass_index: int, led) -> float:
    inputs = workload.inputs(args.seed, pass_index, args.tiny)
    gc.collect()
    start = time.perf_counter()
    workload.run_pass(inputs, led)
    return time.perf_counter() - start


def run_workload(args) -> int:
    cap_blas_threads()
    import_program()
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        workload.inputs(args.seed, 0, args.tiny)
        return 0

    env = environment()
    setup_s = measure_setup(args)
    led = workloads.Ledger()
    workload.warmup(workload.inputs(args.seed, 0, args.tiny), led)
    led.run_times.clear()

    # Passes run back to back until --seconds have gone by, at least one
    # (one of each kind when traced).
    plain: list[float] = []
    traced: list[float] = []
    tracer = tracing.Tracer()
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < args.seconds:
        plain.append(timed_pass(workload, args, len(plain) + len(traced) + 1, led))
        if args.trace:
            with tracer:
                traced.append(timed_pass(workload, args, len(plain) + len(traced) + 1, led))

    if args.trace:
        metrics = tracer.layer_metrics(len(traced))
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "wall_s": statistics.median(plain),
            "setup_s": setup_s,
            "run_p50_ms": statistics.median(led.run_times) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = {"wall_s": "s", "setup_s": "s", "run_p50_ms": "ms", "peak_rss_mb": "MB"}

    print(f"env {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"passes {len(plain)} untraced {len(traced)} traced, "
          f"{len(led.run_times)} timed protocol runs")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if not args.trace and len(led.run_times) >= 1000:
        # The 99th percentile has at least ten samples beyond it only here.
        p99 = statistics.quantiles(led.run_times, n=100)[98] * 1e3
        print(f"info run_p99_ms {p99:.6g} ms over {len(led.run_times)} runs")
    for check, worst in sorted(led.worst.items()):
        print(f"check {check} worst {worst:.3e} misses {led.misses.get(check, 0)}")
    print(f"fail_frac {led.failed / max(led.attempted, 1):.6g} "
          f"({led.failed} of {led.attempted} runs, warm-up included)")
    if args.trace:
        print("span calls total_s self_s (all traced passes)")
        for name, row in sorted(tracer.layer_table().items()):
            print(f"  {name} {row['calls']} {row['total_s']:.6g} {row['self_s']:.6g}")

    write_results(args, env, metrics, led, plain, traced, tracer)
    result = {
        "correct": led.failed == 0 and led.attempted > 0,
        "attempted": led.attempted,
        "failed": led.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes_max"):
        return "bytes"
    if name.endswith(("_frac", "_per_network")):
        return "ratio"
    return "count"


def write_results(args, env, metrics, led, plain, traced, tracer) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "metrics": metrics,
        "pass_s": plain,
        "traced_pass_s": traced,
        "attempted": led.attempted,
        "failed": led.failed,
        "worst_deviation": led.worst,
        "misses": led.misses,
        "errors": led.errors[:20],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        spans = {"layers": tracer.layer_table(), "spans": tracer.span_records()}
        (OUT / f"{args.workload}-spans.json").write_text(json.dumps(spans) + "\n")


def run_all(args) -> int:
    """Each workload in a fresh process, so peak memory is its own."""
    summary = []
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= 0 if result["correct"] else 1
        for metric, entry in result["metrics"].items():
            summary.append(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
        summary.append(f"{name} fail_frac {result['failed'] / result['attempted']:.6g} ratio")
    print("\n".join(["summary"] + summary))
    return status


def non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=non_negative, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measure passes back to back for this long (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
