"""Per-layer instrumentation: which public functions are wrapped, and the
per-layer metrics, layer-split checks and per-instance times computed
from the recorded spans.

Module objects come from ``importlib.import_module``: ``import
g2d.gamma2`` would yield the function ``gamma2``, because the package
re-exports it under its module's name.
"""

from __future__ import annotations

import importlib
import math
from collections import defaultdict

import numpy as np

from spans import Tracer


def _shape(a):
    return np.shape(a)[-2:]


def svd_gflop(a, full_matrices=True, compute_uv=True, *args, **kwargs) -> float:
    """Golub-Van Loan operation counts of the SVD of an m x n matrix
    (Golub and Van Loan, Matrix Computations, table 8.6.1)."""
    *stack, m, n = a.shape
    m, n = max(m, n), min(m, n)
    batch = math.prod(stack)
    if not compute_uv:
        flops = 4 * m * n * n - 4 * n**3 / 3
    elif full_matrices:
        flops = 4 * m * m * n + 8 * m * n * n + 9 * n**3
    else:
        flops = 14 * m * n * n + 8 * n**3
    return batch * flops / 1e9


def colorings(a, *args, **kwargs) -> float:
    """The Gray-code walk visits 2^(n-1) colorings of n columns."""
    return float(2 ** (_shape(a)[1] - 1))


def determinants(a, k_max, *args, **kwargs) -> float:
    m, n = _shape(a)
    return float(sum(math.comb(m, k) * math.comb(n, k) for k in range(1, min(k_max, m, n) + 1)))


def install(tracer: Tracer) -> None:
    """Wrap the module attributes that sit on layer boundaries."""
    gamma2 = importlib.import_module("g2d.gamma2")
    interior = importlib.import_module("g2d.interior")
    oracles = importlib.import_module("g2d.oracles")
    reports = importlib.import_module("g2d.reports")
    cli = importlib.import_module("g2d.cli")
    w = tracer.wrap
    w(gamma2, "gamma2_lower_dual", "gamma2.dual")
    w(gamma2, "gamma2_upper", "gamma2.upper")
    w(gamma2, "check_certificate", "gamma2.check")
    w(gamma2, "minimum_height_ellipsoid", "interior")
    w(gamma2, "membership_value", "ellipsoid.membership")
    w(interior, "sym_kron", "interior.sym_kron")
    w(oracles, "disc_exact", "oracles.disc", colorings)
    w(oracles, "disc_p_exact", "oracles.disc", colorings)
    w(oracles, "herdisc_exact", "oracles.herdisc")
    w(oracles, "detlb_exact", "oracles.detlb", determinants)
    w(reports, "gamma2", "reports.gamma2", detail=lambda a, **kw: "x".join(map(str, _shape(a))))
    w(reports, "write_csv", "reports.write")
    w(reports, "write_certificate", "reports.write")
    w(cli, "ap_report", "reports.ap_report")
    w(np.linalg, "svd", "linalg.svd", svd_gflop)
    w(np.linalg, "eigh", "linalg.eigh")
    w(np.linalg, "cholesky", "linalg.cholesky")


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def metrics(tracer: Tracer, ops, op_spans: list[int], build_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced round.

    ``op_spans`` holds the index of each op's root span, which the
    benchmark opens around the public call. A root's self time is the
    body of the public function the op entered, outside every wrapped
    layer: for ``g2d.cli.main`` that is the cli layer; otherwise it is
    time no layer accounts for.
    """
    t = tracer
    op_total = sum(t.spans[i].duration for i in op_spans)
    cli_self = sum(t.spans[i].self_s for i, op in zip(op_spans, ops) if op.entry == "cli")
    unattributed = sum(t.spans[i].self_s for i, op in zip(op_spans, ops) if op.entry != "cli")
    disc_s = t.total("oracles.disc")
    detlb_s = t.total("oracles.detlb")
    return {
        "setsystems.build_s": build_s,
        "gamma2.dual.calls": t.calls("gamma2.dual"),
        "gamma2.dual.s": t.total("gamma2.dual"),
        "gamma2.dual.self_s": t.self_total("gamma2.dual"),
        "gamma2.upper.s": t.total("gamma2.upper") - sum(s.duration for s in t.nested("interior", "gamma2.upper")),
        "gamma2.upper.self_s": t.self_total("gamma2.upper"),
        "gamma2.check.s": t.total("gamma2.check"),
        "ellipsoid.membership.calls": t.calls("ellipsoid.membership"),
        "ellipsoid.membership.s": t.total("ellipsoid.membership"),
        "interior.calls": t.calls("interior"),
        "interior.s": t.total("interior"),
        "interior.self_s": t.self_total("interior"),
        # sym_kron builds the Hessian twice per Newton step
        "interior.newton_steps": t.calls("interior.sym_kron") // 2,
        "interior.sym_kron.s": t.total("interior.sym_kron"),
        "linalg.svd.calls": t.calls("linalg.svd"),
        "linalg.svd.s": t.total("linalg.svd"),
        "linalg.svd.gflop_computed": t.work("linalg.svd"),
        "linalg.eigh.calls": t.calls("linalg.eigh"),
        "linalg.eigh.s": t.total("linalg.eigh"),
        "linalg.cholesky.calls": t.calls("linalg.cholesky"),
        "oracles.disc.calls": t.calls("oracles.disc"),
        "oracles.disc.s": disc_s,
        "oracles.disc.colorings_per_s": _ratio(t.work("oracles.disc"), disc_s),
        "oracles.herdisc.s": t.total("oracles.herdisc"),
        "oracles.herdisc.subsets": len(t.nested("oracles.disc", "oracles.herdisc")),
        "oracles.detlb.s": detlb_s,
        "oracles.detlb.dets_per_s": _ratio(t.work("oracles.detlb"), detlb_s),
        "reports.self_s": t.self_total("reports.ap_report"),
        "reports.write_s": t.total("reports.write"),
        "cli.self_s": cli_self,
        "trace.coverage": 1.0 - _ratio(unattributed, op_total),
    }


def per_op(tracer: Tracer, op_spans: list[int]) -> list[dict[str, float]]:
    """Inclusive seconds of each span name inside each op."""
    out = [defaultdict(float) for _ in op_spans]
    for s in tracer.spans:
        if s.parent >= 0:
            out[s.op][s.name] += s.duration
    return out


def split_checks(workload: str, m: dict[str, float], ops, shares: list[dict[str, float]], op_total: float):
    """The layer split each workload was chosen for, as (claim, holds)."""
    if workload == "solve-dual":
        return [
            ("interior.calls == 0", m["interior.calls"] == 0),
            ("gamma2.dual.s >= 90% of op time", m["gamma2.dual.s"] >= 0.9 * op_total),
        ]
    if workload == "report-ap":
        rivals = {
            k: m[k]
            for k in ("gamma2.dual.s", "gamma2.upper.s", "gamma2.check.s", "reports.self_s", "reports.write_s", "cli.self_s")
        }
        return [(f"interior.s is the largest layer share (next: {max(rivals, key=rivals.get)})", m["interior.s"] > max(rivals.values()))]
    if workload == "solve-batch":
        with_ip = sum(1 for sh in shares if sh.get("interior", 0.0) > 0)
        return [(f"interior runs on a minority of solves ({with_ip} of {len(ops)})", 0 < with_ip < len(ops) / 2)]
    if workload == "oracle-enum":
        seen = [k for sh in shares for k in sh if k.startswith(("gamma2.", "interior", "linalg.svd"))]
        return [("no gamma2, interior or linalg.svd span", not seen)]
    return []
