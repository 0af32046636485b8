"""Reproduction reports: CSV tables and certificate bundles.

Each report solves a family of instances with the certified gamma_2
machinery and emits machine-readable CSV (stable headers, floats at 12
significant digits) plus optional certificate bundles that re-validate
through the certificate checker. Constant-free inequalities (dual <=
primal, lower <= upper column ordering, determinant bound below
gamma_2) are asserted at emit time; anything involving an unspecified
absolute constant is reported as a ratio column and never asserted.

Numeric columns are deterministic; wall-clock seconds live on the row
objects but are excluded from the CSV so that reruns are bit-identical.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from .gamma2 import (
    DEFAULT_TOL,
    Gamma2Certificate,
    gamma2,
    uniform_nuclear_lower,
    write_certificate,
)
from .linalg import (
    RefusedError,
    as_matrix,
    atomic_write,
    parse_matrix,
    tn_matrix,
    tn_singular_values_closed_form,
    write_matrix,
)
from .oracles import (
    DET_BUDGET,
    _det_budget,
    detlb2_exact,
    detlb_bucketing,
    detlb_exact,
    disc_exact,
    herdisc_exact,
)
from .setsystems import (
    SetSystem,
    arithmetic_progressions,
    grid_anchored,
    maximal_aps,
    subcubes,
)

TN_FIGURE_CAP = 256
ELLIPSOID_CAP = 128
SUBCUBE_CAP = 8
AP_CAP = 128
TUSNADY_DIRECT_CAP = 512


@dataclass
class ReportRow:
    """One solved instance: identifying fields plus named numeric columns.

    ``seconds`` is measured wall time; it is deliberately not part of
    ``columns`` so CSV output stays bit-identical across reruns.
    """

    label: str
    n: int | None = None
    d: int | None = None
    columns: dict = field(default_factory=dict)
    seconds: float = 0.0
    certificate: Gamma2Certificate | None = None


@dataclass
class BoundsReport:
    """All bounds for one matrix: the gamma_2 interval, determinant
    bounds, the uniform nuclear bound, optional exact oracles, and the
    pairwise ratios. ``failures`` records per-column errors (caps,
    non-convergence) without aborting the report."""

    gamma2_interval: tuple[float, float]
    detlb: float | None
    detlb2: float | None
    nuclear_uniform: float
    disc_exact: float | None
    herdisc_exact: float | None
    ratios: dict
    failures: dict


def format_value(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def write_csv(rows: list[ReportRow], path: str) -> None:
    """Stable-header CSV: label, n, d, then each row's columns in
    insertion order (all rows of one report share a schema)."""
    if not rows:
        raise ValueError("no rows to write")
    headers = ["label", "n", "d"] + list(rows[0].columns.keys())
    with atomic_write(path) as fh:
        fh.write(",".join(headers) + "\n")
        for row in rows:
            cells = [
                row.label,
                "" if row.n is None else str(row.n),
                "" if row.d is None else str(row.d),
            ]
            cells += [format_value(row.columns[k]) for k in headers[3:]]
            fh.write(",".join(cells) + "\n")


def _solve_oriented(a: np.ndarray, *, tol: float):
    """Solve gamma_2 with the smaller side as rows.

    The value is transpose-invariant and the certificate ellipsoid
    lives on the row space, so orienting the small side first keeps
    certificates compact. Returns (certificate, transposed?).
    """
    m, n = a.shape
    if m > n:
        return gamma2(a.T, tol=tol), True
    return gamma2(a, tol=tol), False


def _write_row_certificate(row: ReportRow, certs_dir: str) -> None:
    if row.certificate is None:
        return
    os.makedirs(certs_dir, exist_ok=True)
    path = os.path.join(certs_dir, f"{row.label}.cert.txt")
    write_certificate(path, row.certificate)


# ---------------------------------------------------------------------------
# T_n figure
# ---------------------------------------------------------------------------


def tn_figure(
    ns,
    *,
    tol: float = DEFAULT_TOL,
    out: str | None = None,
    certs_dir: str | None = None,
) -> list[ReportRow]:
    """Bounds on gamma_2(T_n) per n: the log upper bound floor(log2 n)+1,
    the solved (certified) value, the best dual lower bound, and the
    closed-form uniform-weights bound (1/n)||T_n||_*.

    Columns are ordered top curve to bottom; the ordering
    nuclear_uniform <= dual_lower <= gamma2_upper <= log_bound is
    asserted per row. Non-convergence is flagged in the ``converged``
    column, never hidden.
    """
    ns = list(ns)
    for n in ns:
        if not 1 <= n <= TN_FIGURE_CAP:
            raise RefusedError(f"tn_figure caps at n <= {TN_FIGURE_CAP}, got {n}")

    def solve(n: int) -> ReportRow:
        t0 = time.time()
        cert = gamma2(tn_matrix(n), tol=tol)
        log_bound = float(np.floor(np.log2(n))) + 1.0
        closed = float(np.sum(tn_singular_values_closed_form(n))) / n
        row = ReportRow(
            label=f"T_{n}",
            n=n,
            columns={
                "log_bound": log_bound,
                "gamma2_upper": cert.upper,
                "dual_lower": cert.lower,
                "nuclear_uniform": closed,
                "rel_gap": cert.gap / cert.upper if cert.upper > 0 else 0.0,
                "converged": cert.converged,
            },
            seconds=time.time() - t0,
            certificate=cert,
        )
        fp_slack = 1e-9 * max(cert.upper, 1.0)
        assert closed <= cert.lower + fp_slack, f"T_{n}: closed-form above dual"
        assert cert.lower <= cert.upper + fp_slack, f"T_{n}: dual above primal"
        assert cert.upper <= log_bound + fp_slack, f"T_{n}: primal above log bound"
        return row

    rows = [solve(n) for n in ns]
    if certs_dir is not None:
        for row in rows:
            _write_row_certificate(row, certs_dir)
    if out is not None:
        write_csv(rows, out)
    return rows


# ---------------------------------------------------------------------------
# Optimal ellipsoid and dual weight dump
# ---------------------------------------------------------------------------


def ellipsoid_dump(
    n: int,
    out_dir: str,
    *,
    tol: float = DEFAULT_TOL,
) -> dict:
    """Solve T_n and write the optimal-ellipsoid matrix D and the dual
    weights p, q as matrix text files for external plotting.

    Also measures the reversal symmetry of the weights
    (q_i vs p_{n-i+1}) and reports the max deviation; the certificate
    invariant max diag(D) = upper^2 is asserted.
    """
    if not 1 <= n <= ELLIPSOID_CAP:
        raise RefusedError(f"ellipsoid_dump caps at n <= {ELLIPSOID_CAP}, got {n}")
    cert = gamma2(tn_matrix(n), tol=tol)
    os.makedirs(out_dir, exist_ok=True)
    d_path = os.path.join(out_dir, f"T_{n}_D.txt")
    p_path = os.path.join(out_dir, f"T_{n}_p.txt")
    q_path = os.path.join(out_dir, f"T_{n}_q.txt")
    write_matrix(d_path, cert.ellipsoid.d, comments=[f"optimal ellipsoid for T_{n}"])
    write_matrix(p_path, cert.dual_p.reshape(-1, 1), comments=["row weights p"])
    write_matrix(q_path, cert.dual_q.reshape(-1, 1), comments=["column weights q"])
    max_diag = float(np.max(np.diag(cert.ellipsoid.d)))
    assert abs(max_diag - cert.upper**2) <= 1e-6 * max(cert.upper**2, 1.0), (
        "certificate ellipsoid max diagonal must equal the squared value"
    )
    reversal = float(np.max(np.abs(cert.dual_q - cert.dual_p[::-1])))
    summary = {
        "n": n,
        "upper": cert.upper,
        "lower": cert.lower,
        "gap": cert.gap,
        "converged": cert.converged,
        "max_diag_D": max_diag,
        "weight_reversal_deviation": reversal,
        "files": [d_path, p_path, q_path],
    }
    with atomic_write(os.path.join(out_dir, f"T_{n}_summary.txt")) as fh:
        for key in (
            "n",
            "upper",
            "lower",
            "gap",
            "converged",
            "max_diag_D",
            "weight_reversal_deviation",
        ):
            fh.write(f"{key}={format_value(summary[key])}\n")
    return summary


# ---------------------------------------------------------------------------
# Grid (anchored boxes), subcubes, arithmetic progressions
# ---------------------------------------------------------------------------


def _logm_window(upper: float, lower: float, m: int) -> tuple[float, float]:
    """Constant-free hereditary-discrepancy window skeleton: the solved
    interval divided by log2(2m) below and multiplied by sqrt(log2(2m))
    above. Absolute constants are deliberately omitted (the underlying
    two-sided inequality fixes none)."""
    lg = float(np.log2(2 * m))
    return lower / lg, upper * np.sqrt(lg)


def tusnady_report(
    d: int,
    n: int,
    *,
    tol: float = DEFAULT_TOL,
    direct_cap: int = TUSNADY_DIRECT_CAP,
) -> ReportRow:
    """Anchored-box grid on [n]^d: product-rule value gamma_2(T_n)^d,
    the directly solved gamma_2 of the d-fold Kronecker power when
    n^d <= direct_cap, their ratio, and the herdisc window columns.

    When the direct solve is infeasible the product value is still
    emitted with derived=1 flagging the indirect route.

    ``product_value`` and ``product_lower`` are the d-th powers of
    gamma_2(T_n)'s certified upper and lower bounds, which are within
    ``tol`` of it, so each is within about d * ``tol`` of
    gamma_2(T_n)^d, relative: upper^d <= lower^d / (1 - tol)^d.
    """
    if d < 1 or n < 1:
        raise ValueError("d and n must be positive")
    t0 = time.time()
    base = gamma2(tn_matrix(n), tol=tol)
    product_value = base.upper**d
    product_lower = base.lower**d
    size = n**d
    columns = {
        "product_value": product_value,
        "product_lower": product_lower,
        "derived": True,
        "direct_upper": float("nan"),
        "direct_lower": float("nan"),
        "ratio_direct_over_product": float("nan"),
        "converged": base.converged,
    }
    cert = None
    if size <= direct_cap:
        system = grid_anchored(d, n)
        cert, _ = _solve_oriented(system.incidence, tol=tol)
        columns["derived"] = False
        columns["direct_upper"] = cert.upper
        columns["direct_lower"] = cert.lower
        columns["ratio_direct_over_product"] = (
            cert.upper / product_value if product_value > 0 else float("nan")
        )
        columns["converged"] = cert.converged and base.converged
        assert cert.lower <= cert.upper + 1e-9 * max(cert.upper, 1.0)
    window_lo, window_hi = _logm_window(
        columns["direct_upper"] if not columns["derived"] else product_value,
        product_lower,
        size,
    )
    columns["herdisc_window_low"] = window_lo
    columns["herdisc_window_high"] = window_hi
    return ReportRow(
        label=f"grid_{d}_{n}",
        n=n,
        d=d,
        columns=columns,
        seconds=time.time() - t0,
        certificate=cert,
    )


def subcube_report(
    d: int,
    *,
    tol: float = DEFAULT_TOL,
) -> ReportRow:
    """Subcube system on {0,1}^d: closed-form (2/sqrt(3))^d, the direct
    solved value, their ratio, and log2(gamma_2)/d as an estimate of
    the growth exponent (about 0.2075)."""
    if not 1 <= d <= SUBCUBE_CAP:
        raise RefusedError(f"subcube_report caps at d <= {SUBCUBE_CAP}, got {d}")
    t0 = time.time()
    closed = (2.0 / np.sqrt(3.0)) ** d
    cert, _ = _solve_oriented(subcubes(d).incidence, tol=tol)
    exponent = float(np.log2(cert.upper)) / d if cert.upper > 0 else float("nan")
    assert cert.lower <= cert.upper + 1e-9 * max(cert.upper, 1.0)
    return ReportRow(
        label=f"subcubes_{d}",
        d=d,
        columns={
            "closed_form": float(closed),
            "direct_upper": cert.upper,
            "direct_lower": cert.lower,
            "ratio_direct_over_closed": cert.upper / closed,
            "exponent_estimate": exponent,
            "converged": cert.converged,
        },
        seconds=time.time() - t0,
        certificate=cert,
    )


def ap_report(
    ns,
    *,
    tol: float = DEFAULT_TOL,
    out: str | None = None,
    certs_dir: str | None = None,
) -> list[ReportRow]:
    """Arithmetic progressions on [n]: certified gamma_2 interval,
    n^(1/4), their ratio, and the structural split bounds.

    The split rows solve the maximal-AP systems with small and large
    common difference; the proof's degree/size bounds make both
    gamma_2 values at most n^(1/4), which is asserted (tol slack).
    """
    ns = list(ns)
    for n in ns:
        if not 1 <= n <= AP_CAP:
            raise RefusedError(f"ap_report caps at n <= {AP_CAP}, got {n}")

    def solve(n: int) -> ReportRow:
        t0 = time.time()
        system = arithmetic_progressions(n)
        cert, _ = _solve_oriented(system.incidence, tol=tol)
        quarter = float(n) ** 0.25
        small_val = float("nan")
        large_val = float("nan")
        if n >= 2:
            split = maximal_aps(n)
            small_cert, _ = _solve_oriented(split.small_difference.incidence, tol=tol)
            large_cert, _ = _solve_oriented(split.large_difference.incidence, tol=tol)
            small_val = small_cert.upper
            large_val = large_cert.upper
            slack = tol * max(quarter, 1.0) + 1e-9
            assert small_val <= quarter + slack, (
                f"AP_{n}: small-difference bound violated: "
                f"{small_val} > {quarter}"
            )
            assert large_val <= quarter + slack, (
                f"AP_{n}: large-difference bound violated: "
                f"{large_val} > {quarter}"
            )
        assert cert.lower <= cert.upper + 1e-9 * max(cert.upper, 1.0)
        return ReportRow(
            label=f"AP_{n}",
            n=n,
            columns={
                "sets": system.rows,
                "gamma2_upper": cert.upper,
                "gamma2_lower": cert.lower,
                "n_quarter": quarter,
                "ratio_upper_over_quarter": cert.upper / quarter,
                "small_diff_gamma2": small_val,
                "large_diff_gamma2": large_val,
                "converged": cert.converged,
            },
            seconds=time.time() - t0,
            certificate=cert,
        )

    rows = [solve(n) for n in ns]
    if certs_dir is not None:
        for row in rows:
            _write_row_certificate(row, certs_dir)
    if out is not None:
        write_csv(rows, out)
    return rows


# ---------------------------------------------------------------------------
# One-stop audit
# ---------------------------------------------------------------------------


def _load_matrix(source) -> np.ndarray:
    if isinstance(source, SetSystem):
        return source.incidence
    if isinstance(source, (str, os.PathLike)):
        with open(source) as fh:
            text = fh.read()
        a, _ = parse_matrix(text.splitlines())
        # a set-system file must hold a 0/1 incidence matrix
        return SetSystem(a).incidence if "# labels:" in text else a
    return as_matrix(source)


def audit(source, *, tol: float = DEFAULT_TOL, k_max: int | None = None) -> BoundsReport:
    """Full bounds report for one matrix or set-system file.

    Computes the certified gamma_2 interval, the determinant bounds
    (exact when the enumeration budget allows, otherwise the bucketing
    witness from the dual weights), the uniform nuclear bound, and the
    exact disc/herdisc oracles when under their caps. Constant-free
    inequalities are asserted; per-column failures (caps exceeded,
    solver issues) are recorded in ``failures`` without aborting.
    """
    a = _load_matrix(source)
    m, n = a.shape
    failures: dict[str, str] = {}

    if float(np.abs(a).max()) == 0.0:
        return BoundsReport(
            gamma2_interval=(0.0, 0.0),
            detlb=0.0,
            detlb2=0.0,
            nuclear_uniform=0.0,
            disc_exact=0.0 if n <= 26 else None,
            herdisc_exact=0.0 if n <= 16 else None,
            ratios={},
            failures={},
        )

    cert, transposed = _solve_oriented(a, tol=tol)
    nuclear_uniform = uniform_nuclear_lower(a)

    det_val: float | None = None
    km = k_max if k_max is not None else min(m, n)
    try:
        if _det_budget(m, n, min(km, m, n)) <= DET_BUDGET:
            det_val = detlb_exact(a, km)
        else:
            p, q = cert.dual_p, cert.dual_q
            if transposed:
                p, q = q, p
            det_val, _, _ = detlb_bucketing(a, p, q)
    except ValueError as exc:
        failures["detlb"] = str(exc)

    det2_val: float | None = None
    try:
        det2_val = detlb2_exact(a, min(km, n))
    except ValueError as exc:
        failures["detlb2"] = str(exc)

    disc_val: float | None = None
    try:
        disc_val = disc_exact(a).value
    except ValueError as exc:
        failures["disc_exact"] = str(exc)

    herdisc_val: float | None = None
    try:
        herdisc_val = herdisc_exact(a)
    except ValueError as exc:
        failures["herdisc_exact"] = str(exc)

    scale = max(cert.upper, 1.0)
    assert cert.lower <= cert.upper + tol * scale, "dual exceeds primal"
    if det_val is not None:
        assert det_val <= cert.upper + tol * scale, (
            f"determinant bound {det_val} above gamma_2 upper {cert.upper}"
        )
        if herdisc_val is not None:
            assert det_val <= 2.0 * herdisc_val + 1e-9, (
                f"determinant bound {det_val} above twice herdisc {herdisc_val}"
            )

    # monotonicity spot-checks: dropping a column never raises gamma_2
    if n >= 2 and m * n <= 4096:
        for j in (0, n - 1):
            sub = np.delete(a, j, axis=1)
            if float(np.abs(sub).max()) == 0.0:
                continue
            sub_cert, _ = _solve_oriented(sub, tol=tol)
            assert sub_cert.upper <= cert.upper * (1.0 + tol) + tol, (
                f"column {j} removal increased gamma_2: "
                f"{sub_cert.upper} > {cert.upper}"
            )

    ratios: dict[str, float] = {}
    if det_val is not None and det_val > 0:
        ratios["gamma2_upper_over_detlb"] = cert.upper / det_val
    if herdisc_val is not None and herdisc_val > 0:
        ratios["gamma2_upper_over_herdisc"] = cert.upper / herdisc_val
        if det_val is not None:
            ratios["detlb_over_herdisc"] = det_val / herdisc_val
    if disc_val is not None and disc_val > 0:
        ratios["gamma2_upper_over_disc"] = cert.upper / disc_val
    if nuclear_uniform > 0:
        ratios["gamma2_upper_over_nuclear_uniform"] = cert.upper / nuclear_uniform
    window_lo, window_hi = _logm_window(cert.upper, cert.lower, m)
    ratios["herdisc_window_low"] = window_lo
    ratios["herdisc_window_high"] = window_hi

    return BoundsReport(
        gamma2_interval=(cert.lower, cert.upper),
        detlb=det_val,
        detlb2=det2_val,
        nuclear_uniform=nuclear_uniform,
        disc_exact=disc_val,
        herdisc_exact=herdisc_val,
        ratios=ratios,
        failures=failures,
    )
