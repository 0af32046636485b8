"""``--workload all``: every workload once untraced and twice traced at
the same seed, printed as one table, with the tracing overhead, the
layer coverage, the layer-split checks and whether each count repeated
exactly between the two traced runs."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import run


def child(workload: str, seed: int, seconds: float, trace: int) -> tuple[list[str], dict]:
    cmd = [
        sys.executable, str(Path(run.__file__)), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def value(result: dict, name: str) -> float:
    return result["metrics"][name]["value"]


def main(args) -> int:
    header = [
        "workload", "setup_s (s)", "wall_ref_s (ref-s)", "ops_per_ref_s (1/ref-s)",
        "wall_s (s)", "ops_per_s (1/s)", "op_p50_s (s)", "op_p90_s (s)",
        "op samples", "failed_frac", "peak_rss_mb (MB)",
    ]
    rows, notes, correct = [], [], True
    for name in run.WORKLOADS:
        lines, plain = child(name, args.seed, args.seconds, 0)
        if name == run.WORKLOADS[0]:
            print(next(ln for ln in lines if ln.startswith("env ")))
        traced_lines, traced = child(name, args.seed, args.seconds, 1)
        _, again = child(name, args.seed, args.seconds, 1)
        correct &= plain["correct"] and traced["correct"] and again["correct"]
        printed = {}
        for prefix in ("raw:", "per-op:"):
            printed.update(re.findall(r"(\w+) = ([0-9.e+-]+)", next(ln for ln in lines if ln.startswith(prefix))))
        rows.append([
            name,
            *(f"{value(plain, k):.4g}" for k in ("setup_s", "wall_ref_s", "ops_per_ref_s")),
            *(f"{float(printed[k]):.4g}" for k in ("wall_s", "ops_per_s", "op_p50_s", "op_p90_s")),
            str(plain["attempted"]),
            f"{float(printed['failed_frac']):.4g}",
            f"{value(plain, 'peak_rss_mb'):.4g}",
        ])
        notes.append(f"\n## {name}")
        notes += [ln for ln in lines if ln.startswith("op ")]
        notes += [ln for ln in traced_lines if ln.startswith(("traced ", "trace.", "split ", "instance ", "  report "))]
        for metric, unit in run.units("per_layer").items():
            if unit in ("count", "exact-count"):
                a, b = value(traced, metric), value(again, metric)
                tag = "repeated exactly" if a == b else f"DIFFERS: {a} vs {b}"
                notes.append(f"count {metric} = {a:g}: {tag} (unit {unit})")
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for r in rows:
        print("| " + " | ".join(r) + " |")
    print("\n".join(notes))
    print(f"\nall outputs correct: {correct}")
    return 0 if correct else 1
