"""``--baseline``: the ROADMAP baseline table, one traced solve per row.

AP_32 (about 97 s per solve) is left out for length only.
"""

from __future__ import annotations

import importlib
import time

import numpy as np

import layers
from spans import Tracer


def rows():
    import g2d
    from workloads import criterion_8_pairs, nonzero_binary, pair_ops

    ss = importlib.import_module("g2d.setsystems")
    ap16 = ss.arithmetic_progressions(16).incidence.T
    large = ss.maximal_aps(64).large_difference.incidence
    solve = [
        ("T_32", ss.initial_segments(32).incidence),
        ("T_128", ss.initial_segments(128).incidence),
        ("subcubes d=5 (transposed)", ss.subcubes(5).incidence.T),
        ("AP_16 (transposed)", ap16),
        ("maximal APs, |I|=64, large difference", large),
    ]
    for label, a in solve:
        yield label, f"{a.shape[0]}x{a.shape[1]}", [lambda a=a: g2d.gamma2(a)]
    pairs = criterion_8_pairs(80)
    batch = [op for k, (a, b) in enumerate(pairs) for op in pair_ops(f"pair{k}", a, b)]
    yield "criterion-8 instances, 400 solves", "<= 8x16", [op.run for op in batch]
    disc = nonzero_binary(np.random.default_rng(0), 20, 20)
    oracles = importlib.import_module("g2d.oracles")
    yield "disc_exact", "20x20", [lambda: oracles.disc_exact(disc)]


def describe(results) -> str:
    certs = [r for r in results if hasattr(r, "converged")]
    if not certs:
        return f"value {results[0].value:g}"
    gap = max(c.gap / c.upper for c in certs)
    unconverged = sum(not c.converged for c in certs)
    conv = "all converged" if not unconverged else f"**{unconverged} converged=False**"
    return f"max rel gap {gap:.2g}, {conv}"


def main() -> int:
    print("| instance | shape | wall | where the time goes | result |")
    print("|---|---|---|---|---|")
    for label, shape, calls in rows():
        tracer = Tracer()
        layers.install(tracer)
        try:
            t = time.perf_counter()
            results = []
            for k, call in enumerate(calls):
                root = tracer.begin_op(k)
                results.append(call())
                tracer.end_op(root)
            wall = time.perf_counter() - t
        finally:
            tracer.unwrap_all()
        dual, ip = tracer.total("gamma2.dual"), tracer.total("interior")
        if tracer.calls("oracles.disc"):
            where = f"{tracer.work('oracles.disc') / tracer.total('oracles.disc'):.3g} colorings/s"
        else:
            where = f"dual {dual:.3g} s ({dual / wall:.0%}), IP {ip:.3g} s ({ip / wall:.0%})"
        cell = label.replace("|", "\\|")
        print(f"| {cell} | {shape} | {wall:.3g} s | {where} | {describe(results)} |", flush=True)
    return 0
