"""Benchmark of g2d: certified gamma_2 solves, the AP report and the exact
oracles, measured end to end and, in a separate traced run, per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-dual --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all       # every workload, one table
    python3 perfbench/run.py --baseline           # the ROADMAP baseline table

The load is a closed loop in this one process: each op is one call into
a public function of g2d, and the next op starts when it returns. A run
builds its workload, then calls its ops in order, round after round,
until every op has run once and the measured time reaches
``--seconds``. Every output is checked right after its call, outside
the timed region.

The first round warms up. ``wall_s``, the time of one round, is the sum
of each op's median call time over the later rounds. The gated
``wall_ref_s`` is the same sum over call times rescaled by the host's
speed around each call, as gauged by a fixed kernel timed between the
calls (see gauge.py): on a shared 2-core virtual machine the same round
ran up to twice as slow for minutes at a time.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. ``failed`` counts ops that raised
or whose result failed the gate; an op whose certificate is valid but
did not reach ``tol`` is not wrong, and counts against ``ok_frac``.
"""

from __future__ import annotations

import os
import sys

# BLAS reads its thread count when numpy is first imported, so it is
# fixed here, before anything imports numpy. One thread is faster and
# steadier on small dense kernels than two (T_64: 1.13-1.39 s at one
# thread, 1.42-1.95 s at two, on a 2-core machine).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("solve-dual", "solve-batch", "report-ap", "oracle-enum")

# set-ups per run, all but one in fresh processes; setup_s is their median
SETUP_SAMPLES = 9

# layers shown in each op's time split in the traced output
INSTANCE_LAYERS = (
    "gamma2.dual", "gamma2.upper", "interior", "gamma2.check",
    "oracles.disc", "oracles.herdisc", "oracles.detlb", "reports.write",
)


def units(kind: str) -> dict[str, str]:
    """Metric units of ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--baseline", action="store_true", help="print the ROADMAP baseline table")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload: str, seed: int, tmp: str):
    """Import g2d, build the workload's instances, solve the warm-up."""
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads.build(workload, seed, tmp)


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "blas_threads_runtime": blas_runtime_threads(),
        "seed": seed,
    }


def blas_runtime_threads():
    """The thread count the loaded OpenBLAS reports, or None when the
    library or its symbol is not found."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def measure(ops, seconds: float, tracer=None, gauge=None):
    """Call the ops in order, round after round, until every op has run
    once and the measured time reaches ``seconds``.

    Each output goes through the gate right after its call, outside the
    timed region, and then the gauge, if given, times its kernel.
    Returns the time of each call in call order (call k runs op
    k mod len(ops)), one verdict per call (None = passed) and, when
    traced, the root span of each call.
    """
    times: list[float] = []
    verdicts, roots = [], []
    while len(times) < len(ops) or sum(times) < seconds:
        op = ops[len(times) % len(ops)]
        if tracer is not None:
            roots.append(tracer.begin_op(len(times)))
        t = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # an op failure is a result, not a crash
            out = exc
        dt = time.perf_counter() - t
        if tracer is not None:
            tracer.end_op(roots[-1])
        times.append(dt)
        if isinstance(out, Exception):
            verdicts.append((op.label, ("wrong", f"raised {type(out).__name__}: {out}")))
        else:
            verdicts.append((op.label, op.check(out)))
        if gauge is not None:
            gauge.sample(dt)
    return times, verdicts, roots


def round_s(times: list[float], n: int) -> float:
    """Time of one round of n ops, from the call times in call order:
    the sum of each op's median call time. The first round warms up and
    counts only when no other round ran."""
    later = times[n:] or times
    return sum(statistics.median(later[i::n]) for i in range(n))


def quantile(values, q: int) -> float:
    """The q-th percentile (inclusive method); a lone value is its own."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_probe(args) -> float:
    """Set-up time of a fresh interpreter, measured by a child process."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def report(verdicts) -> tuple[int, int, int]:
    """Print every failed call; returns (attempted, wrong, unconverged)."""
    wrong = unconverged = 0
    for label, v in verdicts:
        if v is None:
            continue
        if v[0] == "wrong":
            wrong += 1
        else:
            unconverged += 1
        print(f"op {label}: {v[0]}: {v[1]}")
    return len(verdicts), wrong, unconverged


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    payload = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(payload))


def scratch_dir() -> str:
    """A fresh directory for report output, inside the checkout."""
    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    return tempfile.mkdtemp(dir=base)


def remove_scratch(tmp: str) -> None:
    shutil.rmtree(tmp, ignore_errors=True)
    with contextlib.suppress(OSError):
        Path(tmp).parent.rmdir()


def run_workload(args) -> int:
    probes = [] if args.trace else [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    tmp = scratch_dir()
    try:
        t0 = time.perf_counter()
        wl = setup(args.workload, args.seed, tmp)
        setup_s = statistics.median(probes + [time.perf_counter() - t0])
        print("env " + json.dumps(environment(args.seed)))
        print(f"workload {wl.name}: {len(wl.ops)} ops per round, closed loop, 1 caller")
        if args.trace:
            return traced_run(wl)
        from gauge import REF_KERNEL_S, Gauge  # after set-up: it imports numpy

        gauge = Gauge()
        times, verdicts, _ = measure(wl.ops, args.seconds, gauge=gauge)
        attempted, wrong, unconverged = report(verdicts)
        ok_frac = (attempted - wrong - unconverged) / attempted
        n = len(wl.ops)
        wall = round_s(times, n)
        wall_ref = round_s([gauge.ref_seconds(k, dt) for k, dt in enumerate(times)], n)
        # raw times, percentiles of all call times and failed_frac are
        # printed but not gated: raw times follow the host's speed, the
        # percentiles mean something on solve-batch only (30 ops of mixed
        # sizes) and failed_frac is 0 when all is well
        print(
            f"raw: wall_s = {wall:.6g} s; ops_per_s = {n * ok_frac / wall:.6g} 1/s; "
            f"gauge kernel mean {1e3 * gauge.mean_s():.4g} ms (reference {1e3 * REF_KERNEL_S:g} ms)"
        )
        print(
            f"per-op: {attempted} samples of {n} ops; "
            f"op_p50_s = {statistics.median(times):.6g} s; op_p90_s = {quantile(times, 90):.6g} s; "
            f"failed_frac = {1 - ok_frac:.6g}"
        )
        metrics = {
            "setup_s": setup_s,
            "wall_ref_s": wall_ref,
            "ops_per_ref_s": n * ok_frac / wall_ref,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": ok_frac,
        }
        emit(wrong == 0, attempted, wrong, metrics, units("end_to_end"))
        return 0
    finally:
        remove_scratch(tmp)


def traced_run(wl) -> int:
    """One untraced round, then one traced round of the same ops; the
    per-layer metrics come from the traced one."""
    import layers
    from spans import Tracer

    plain, verdicts, _ = measure(wl.ops, 0.0)
    tracer = Tracer()
    layers.install(tracer)
    try:
        times, traced_verdicts, roots = measure(wl.ops, 0.0, tracer)
    finally:
        tracer.unwrap_all()
    attempted, wrong, _ = report(verdicts + traced_verdicts)
    wall, plain_wall = sum(times), sum(plain)

    m = layers.metrics(tracer, wl.ops, roots, wl.build_s)
    m["trace.overhead_s"] = wall - plain_wall
    shares = layers.per_op(tracer, roots)
    print(f"traced wall_s = {wall:.6g} s; untraced wall_s = {plain_wall:.6g} s; overhead {wall - plain_wall:+.4g} s")
    print(f"trace.coverage = {m['trace.coverage']:.4f} (layer spans cover this share of op time; want >= 0.95)")
    for claim, holds in layers.split_checks(wl.name, m, wl.ops, shares, sum(times)):
        print(f"split {wl.name}: {claim}: {'holds' if holds else 'NOT MET'}")
    for op, t, sh in zip(wl.ops, times, shares):
        if op.row or wl.name != "solve-batch":
            split = ", ".join(f"{k} {sh[k]:.4g} s" for k in INSTANCE_LAYERS if sh.get(k))
            key = f" [ROADMAP row: {op.row}]" if op.row else ""
            print(f"instance {op.label}: {t:.4g} s; {split}{key}")
    for s in tracer.named("reports.gamma2"):
        print(f"  report solve {s.detail} in {wl.ops[s.op].label}: {s.duration:.4g} s")
    emit(wrong == 0, attempted, wrong, m, units("per_layer"))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "g2d" / "__init__.py").is_file():
        print(f"error: no g2d sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.setup_only:
        tmp = scratch_dir()
        try:
            t0 = time.perf_counter()
            setup(args.workload, args.seed, tmp)
            print(time.perf_counter() - t0)
        finally:
            remove_scratch(tmp)
        return 0
    if args.baseline:
        sys.path.insert(0, str(SRC))
        import baseline

        return baseline.main()
    if args.workload == "all":
        import summary

        return summary.main(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
