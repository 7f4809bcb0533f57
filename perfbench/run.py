"""biortho benchmark: one workload per run, driven in-process as a single
closed-loop client (each call starts after the previous one returns).

    python3 perfbench/run.py --workload kernel-grid --seed 1 --seconds 10 --trace 0

``--trace 0`` measures set-up in fresh processes, runs the timed loop for
``--seconds`` (whole cycles, at least 100 calls), checks every output
against its reference and prints the end-to-end metrics.  ``--trace 1``
runs the workload's first calls untraced and then traced, checks that both
give bitwise equal outputs, and prints the per-layer metrics with the
tracing overhead.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import os

# One BLAS / OpenMP thread, set before numpy is first imported: the only
# parallelism in the load is sample_spectra's two workers.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

# numpy and biortho are imported where they are first needed, never at the
# top of this file: the set-up probe times their import.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
PROBE_EVERY_S = 0.2
PROBE_TIMEOUT_S = 60


@dataclass
class Record:
    index: int
    cls: Any
    inp: Any
    kept: Any
    latency: float  # seconds as measured
    error: str | None
    scale: float = 1.0  # to reference core speed, from the probes around the call


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def use_checkout_sources() -> None:
    """Import biortho from this checkout's src/, never from elsewhere."""
    if not (SRC / "biortho" / "__init__.py").is_file():
        sys.exit(f"perfbench: no biortho package under {SRC}")
    sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# running calls
# ---------------------------------------------------------------------------

def warm_up(wl, seed: int, ctx) -> None:
    """One call of each class, on inputs outside the measured stream."""
    seen = set()
    for index, cls in enumerate(wl.cycle):
        if cls.name in seen:
            continue
        seen.add(cls.name)
        _, inp = wl.inputs(seed, index, ctx, warm=True)
        cls.keep(inp, cls.run(inp))


def run_call(wl, seed: int, ctx, index: int) -> Record:
    """One call, timed on its own; its output is kept after the clock stops."""
    cls, inp = wl.inputs(seed, index, ctx)
    t0 = time.perf_counter()
    try:
        out = cls.run(inp)
    except Exception as exc:  # a failed call is counted and the loop goes on
        return Record(index, cls, inp, None, time.perf_counter() - t0,
                      f"{type(exc).__name__}: {exc}")
    latency = time.perf_counter() - t0
    return Record(index, cls, inp, cls.keep(inp, out), latency, None)


def run_cycle(wl, seed: int, ctx, cycle: int) -> list[Record]:
    k = len(wl.cycle)
    return [run_call(wl, seed, ctx, i) for i in range(cycle * k, (cycle + 1) * k)]


def timed_loop(wl, seed: int, ctx, seconds: float) -> list[Record]:
    """Whole cycles until ``seconds`` have passed and at least
    ``wl.min_calls`` calls were made.  The speed probe runs between calls
    every PROBE_EVERY_S; each call is scaled by the mean of the probes
    before and after it."""
    from speed import SpeedProbe

    probe = SpeedProbe()
    records: list[Record] = []
    pending: list[Record] = []
    k = len(wl.cycle)
    start = time.perf_counter()
    before, probed_at = probe.scale(), time.perf_counter()
    index = 0
    while True:
        if index % k == 0 and index >= wl.min_calls and time.perf_counter() - start >= seconds:
            break
        pending.append(run_call(wl, seed, ctx, index))
        index += 1
        if time.perf_counter() - probed_at >= PROBE_EVERY_S or index % k == 0:
            after, probed_at = probe.scale(), time.perf_counter()
            for r in pending:
                r.scale = (before + after) / 2
            records += pending
            pending, before = [], after
    return records


def check_all(wl, records: list[Record]) -> tuple[int, list[float]]:
    """Checks every output; returns the failure count and the digits of the
    scored calls (the first ``wl.min_calls``, which every run makes, so the
    figure depends on the seed alone)."""
    from workloads import Check

    failed, scored = 0, []
    for r in records:
        if r.error is not None:
            check = Check(False, None, r.error)
        else:
            try:
                check = r.cls.check(r.inp, r.kept)
            except Exception as exc:  # a reference that cannot be formed is a failure
                check = Check(False, None, f"check raised {type(exc).__name__}: {exc}")
        if not check.ok:
            failed += 1
            print(f"FAILED call {r.index} {r.cls.name} {r.inp}: {check.detail}")
        if check.digits is not None and r.index < wl.min_calls:
            scored.append(check.digits)
    return failed, scored


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def blas_threads() -> int | str:
    """Thread count the loaded OpenBLAS reports, where it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "pinned": {v: os.environ[v] for v in THREAD_VARS},
    }


def print_inputs(wl, seed: int, records: list[Record]) -> None:
    digest = hashlib.sha256()
    for r in records:
        digest.update(json.dumps(r.inp, sort_keys=True, default=str).encode())
    print(f"inputs: workload={wl.name} seed={seed} calls={len(records)} "
          f"sha256={digest.hexdigest()[:16]}")
    for r in records[: len(wl.cycle)]:
        print(f"  call {r.index} {r.cls.name}: {json.dumps(r.inp, default=str)}")


def print_result(correct: bool, attempted: int, failed: int,
                 metrics: dict[str, tuple[float, str]]) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def probe_setup(args) -> None:
    """Fresh process: import biortho and make one warm-up call per class."""
    t0 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        warm_up(wl, args.seed, workloads.Context(Path(tmp)))
    raw = time.perf_counter() - t0
    from speed import SpeedProbe

    print(json.dumps({"raw_s": raw, "scale": SpeedProbe().scale()}))


def measure_setup(args) -> list[tuple[float, float]]:
    """(raw seconds, scale to reference speed) of each fresh process."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--trace", "0"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr[-2000:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((probe["raw_s"], probe["scale"]))
    return times


def end_to_end(args, wl, ctx) -> None:
    setup = measure_setup(args)
    warm_up(wl, args.seed, ctx)
    records = timed_loop(wl, args.seed, ctx, args.seconds)
    lat = [r.latency for r in records]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, scored = check_all(wl, records)
    print_inputs(wl, args.seed, records)
    for line in wl.extra_report():
        print(line)

    n = len(lat)
    ref = [r.latency * r.scale for r in records]
    setup_ref = [raw * scale for raw, scale in setup]

    def timings(values, setup_values):
        return {
            "setup_s": statistics.median(setup_values),
            "calls_per_s": n / sum(values),
            "call_ms_p50": statistics.median(values) * 1e3,
            "call_ms_p90": statistics.quantiles(values, n=10)[8] * 1e3,
        }

    raw = timings(lat, [t for t, _ in setup])
    units = {"setup_s": "s", "calls_per_s": "1/s", "call_ms_p50": "ms", "call_ms_p90": "ms"}
    metrics = {k: (v, units[k]) for k, v in timings(ref, setup_ref).items()}
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    metrics["min_digits"] = (min(scored) if scored else 0.0, "digits")
    samples = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "calls_per_s": f"{n} calls",
        "call_ms_p50": f"n={n}",
        "call_ms_p90": f"n={n}, {n - int(0.9 * n)} beyond",
        "peak_rss_mb": "ru_maxrss of this process",
        "min_digits": f"min over {len(scored)} checked outputs of the first {wl.min_calls} calls",
    }
    for key in raw:
        samples[key] += f"; raw {raw[key]:.6g} {units[key]}"
    scales = [r.scale for r in records]
    print(f"speed scale to reference core: median {statistics.median(scales):.3f}, "
          f"range {min(scales):.3f}-{max(scales):.3f} (1 = uncontended reference core)")
    by_class: dict[str, list[float]] = {}
    for r in records:
        by_class.setdefault(r.cls.name, []).append(r.latency * 1e3)
    for name, values in by_class.items():
        print(f"  class {name:24s} n={len(values):4d} median {statistics.median(values):9.3f} ms")
    for key, (value, unit) in metrics.items():
        print(f"{wl.name} {key:12s} {value:14.6f} {unit:7s} ({samples[key]})")
    print(f"{wl.name} failed_frac  {failed / n:14.6f} fraction ({failed}/{n} calls)")
    print_result(failed == 0, n, failed, metrics)


def bitwise_equal(a, b) -> bool:
    import numpy as np

    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes())
    return type(a) is type(b) and repr(a) == repr(b)


def traced(args, wl, ctx) -> None:
    from tracing import Tracer, metric_units

    warm_up(wl, args.seed, ctx)
    # each cycle runs twice on the same inputs, untraced and traced, in
    # alternating order, so a slow spell of the machine hits both sides
    plain: list[Record] = []
    seen: list[Record] = []
    tracer = Tracer()
    for cycle in range(wl.min_calls // len(wl.cycle)):
        for traced_pass in ((False, True) if cycle % 2 == 0 else (True, False)):
            if not traced_pass:
                plain += run_cycle(wl, args.seed, ctx, cycle)
                continue
            tracer.install()
            try:
                seen += run_cycle(wl, args.seed, ctx, cycle)
            finally:
                tracer.uninstall()
    failed, _ = check_all(wl, plain)
    differ = [a.index for a, b in zip(plain, seen)
              if (a.error is None) != (b.error is None) or not bitwise_equal(a.kept, b.kept)]
    for index in differ:
        print(f"FAILED call {index}: traced output differs from untraced output")
    overhead = sum(r.latency for r in seen) / sum(r.latency for r in plain)
    print_inputs(wl, args.seed, plain)
    print(f"{wl.name} traced outputs bitwise equal to untraced: {not differ} "
          f"({len(plain)} calls); tracing overhead {overhead:.3f}x")
    units = metric_units()
    values = tracer.metrics(overhead)
    for key, value in values.items():
        if value:
            print(f"  {key:44s} {value:14.6f} {units[key]}")
    bad = failed + len(set(differ))
    print_result(bad == 0, len(plain), bad, {k: (v, units[k]) for k, v in values.items()})


def run_all(args, names) -> None:
    """Each workload in its own fresh process, one after the other."""
    failed = []
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT)
        if proc.returncode != 0:
            failed.append(name)
    if failed:
        sys.exit(f"perfbench: workloads failed: {', '.join(failed)}")


def main(argv=None) -> None:
    args = parse_args(argv)
    use_checkout_sources()
    if args.probe_setup:
        probe_setup(args)
        return
    import workloads

    if args.workload == "all":
        run_all(args, workloads.WORKLOADS)
        return
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"known: {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    print("env: " + json.dumps(environment()))
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        ctx = workloads.Context(Path(tmp))
        if args.trace:
            traced(args, wl, ctx)
        else:
            end_to_end(args, wl, ctx)


if __name__ == "__main__":
    main()
