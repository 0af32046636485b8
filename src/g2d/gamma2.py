"""Certified computation of the factorization norm gamma_2.

gamma_2(A) is the least product of the row-norm bound and column-norm
bound over factorizations A = B C:

    gamma_2(A) = min { max_i ||B_i,:||_2 * max_j ||C_:,j||_2 : A = B C }.

Geometrically it is the smallest L-infinity norm of a 0-centered
ellipsoid containing the columns of A, and it admits the semidefinite
characterization

    gamma_2(A) = min t  s.t.  X psd, X_{ii} <= t, X[:m, m:] = A,

whose dual is a maximization over probability weights on rows and
columns:

    gamma_2(A) = max { || diag(p)^1/2 A diag(q)^1/2 ||_*
                       : p, q >= 0, sum p = sum q = 1 }.

Every routine here returns certified quantities:

* lower bounds are nuclear norms of explicitly weighted matrices
  (any feasible (p, q) certifies);
* upper bounds come from explicit ellipsoids that are re-checked for
  containment of every column, never from unverified solver output.

The solve path:

1. split A into the connected components of its row-column support
   graph; gamma_2 of a block-diagonal matrix is the max over its
   blocks, so each block is solved alone and the certificates are
   assembled block-diagonally;
2. dual ascent for (p, q) from uniform weights: monotone alternating
   maximization of the variational form
   ||M||_* = max_{||Z||_2 <= 1} <M, Z>, one SVD per step;
3. a closed-form primal lift of the dual weights (the first-order
   conditions pair an optimal (p, q) with the optimal ellipsoid
   P^{-1/2} U Sigma U^T P^{-1/2}), certified after the fact and
   compared with the trivial factorizations A = A I and A = I A;
4. an interior-point solve of the enclosing-ellipsoid program on the
   smaller side, only while the certified gap exceeds the requested
   tolerance and that side is small enough.

The path makes no random choices: a matrix always gets the same
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ellipsoid import Ellipsoid, ellipsoid_contains, ellipsoid_inf_norm, membership_value
from .interior import InteriorPointError, minimum_height_ellipsoid
from .linalg import (
    KRON_ENTRY_CAP,
    as_matrix,
    nuclear_norm,
    one_to_two_norm,
    read_matrix_with_comments,
    two_to_infinity_norm,
)

# Relative tolerance on the certified upper/lower gap.
DEFAULT_TOL = 1e-4

# The dual ascent stops after DUAL_MAX_STEPS steps, or earlier once
# DUAL_PLATEAU steps in a row have not raised its best value by a
# relative 1e-13.
DUAL_MAX_STEPS = 300
DUAL_PLATEAU = 30

# Largest small-side dimension passed to the interior-point refiner.
IP_SIDE_CAP = 32

# Relative Frobenius slack allowed in the factorization identity B C = A.
FACT_RTOL = 1e-8

# Slack of the check that the certificate's own weights do not certify
# more than its upper bound, in units of eps * (m + n) * value: the
# float64 error of the two values, not the solver's gap tolerance.
DUAL_FP_SLACK = 16.0


class CertificateError(ValueError):
    """A gamma_2 certificate failed re-validation."""


@dataclass(frozen=True)
class Gamma2Certificate:
    """Certified two-sided estimate of gamma_2(A).

    upper: certified upper bound (the solved value).
    lower: certified lower bound from the dual weights.
    ellipsoid: E(D) containing every column of A, max diag(D) = upper^2.
    factor_left/factor_right: balanced factorization A = B C with
        max row norm of B and max column norm of C both <= sqrt(upper)
        up to tolerance.
    dual_p/dual_q: the probability weights certifying ``lower``.
    gap: upper - lower.
    converged: whether gap <= tol * upper was reached within budget.
    """

    upper: float
    lower: float
    ellipsoid: Ellipsoid
    factor_left: np.ndarray
    factor_right: np.ndarray
    dual_p: np.ndarray
    dual_q: np.ndarray
    gap: float
    converged: bool


def dual_value(a, p, q) -> float:
    """Nuclear norm of diag(p)^1/2 A diag(q)^1/2; a lower bound on
    gamma_2(A) for any probability vectors p, q."""
    a = as_matrix(a)
    p = np.asarray(p, dtype=float).reshape(-1)
    q = np.asarray(q, dtype=float).reshape(-1)
    if p.shape[0] != a.shape[0] or q.shape[0] != a.shape[1]:
        raise ValueError("weight lengths must match the matrix shape")
    if (p < -1e-12).any() or (q < -1e-12).any():
        raise ValueError("weights must be nonnegative")
    m = np.sqrt(np.clip(p, 0.0, None))[:, None] * a
    m = m * np.sqrt(np.clip(q, 0.0, None))[None, :]
    return nuclear_norm(m)


def uniform_nuclear_lower(a) -> float:
    """gamma_2(A) >= ||A||_* / sqrt(m n): the uniform-weights dual point."""
    a = as_matrix(a)
    m, n = a.shape
    return nuclear_norm(a) / float(np.sqrt(m * n))


def gamma2_lower_dual(a) -> tuple[float, np.ndarray, np.ndarray]:
    """Dual lower bound by monotone block-coordinate ascent on (Z, p, q).

    Uses ||M||_* = max_{||Z||_2 <= 1} <M, Z> with M = P^1/2 A Q^1/2 and
    starts from uniform weights. One SVD M = U Sigma V^T per step gives
    both the value of the current weights, sum(Sigma), and the best
    Z = U V^T for the next step. Given Z and q, maximizing
    sum_i sqrt(p_i) c_i with c = (A o Z) sqrt(q) over the simplex has
    the closed form p ~ (c_+)^2, and likewise for q given Z and p. No
    step decreases the objective, and every iterate is feasible, hence
    a valid lower bound. Returns the best iterate as (value, p, q).
    """
    a = as_matrix(a)
    m, n = a.shape
    p, q = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
    if float(np.abs(a).max()) == 0.0:
        return 0.0, p, q
    best = (-np.inf, p, q)
    flat = 0
    for _ in range(DUAL_MAX_STEPS):
        sq = np.sqrt(q)
        u, s, vt = np.linalg.svd(np.sqrt(p)[:, None] * a * sq[None, :], full_matrices=False)
        val = float(s.sum())
        flat = 0 if val > best[0] + 1e-13 * max(best[0], 1.0) else flat + 1
        if val > best[0]:
            best = (val, p, q)
        if flat >= DUAL_PLATEAU:
            break
        az = a * (u @ vt)
        c = np.maximum(az @ sq, 0.0)
        denom = float(c @ c)
        if denom <= 0.0:
            break
        p = c * c / denom
        r = np.maximum(az.T @ np.sqrt(p), 0.0)
        denom = float(r @ r)
        if denom <= 0.0:
            break
        q = r * r / denom
    return best


# ---------------------------------------------------------------------------
# Upper bounds: every candidate is an ellipsoid matrix D (any scale); the
# certification step rescales it so that all columns fit exactly and reads
# off the certified value sqrt(eta * max diag).
# ---------------------------------------------------------------------------

_REG_RTOL = 1e-12


def _certified_value(a: np.ndarray, d0: np.ndarray) -> tuple[float, np.ndarray]:
    """Best upper bound obtainable from the ellipsoid shape d0.

    Returns (value, d_scaled) where d_scaled = eta * (d0 + reg I)
    contains every column of a with max diag = value^2.
    """
    d0 = 0.5 * (d0 + d0.T)
    lam, vec = np.linalg.eigh(d0)
    lmax = float(lam[-1]) if lam.size else 0.0
    if lmax <= 0.0:
        return np.inf, d0
    reg = _REG_RTOL * lmax
    lam = np.clip(lam, 0.0, None) + reg
    w = vec.T @ a
    eta = float(np.max(np.sum(w * w / lam[:, None], axis=0)))
    if eta <= 0.0:  # a == 0
        return 0.0, np.zeros_like(d0)
    d_reg = (vec * lam) @ vec.T
    d_scaled = eta * d_reg
    maxdiag = float(np.max(np.diag(d_scaled)))
    return float(np.sqrt(maxdiag)), d_scaled


def _factors_from_scaled(a: np.ndarray, d_scaled: np.ndarray, value: float):
    """Balanced factors A = B C from a scaled certificate ellipsoid.

    d_scaled contains all columns (quadratic form <= 1) and has max
    diagonal value^2. With D = V L V^T (full rank after the caller's
    regularization), B0 = V L^1/2 and C0 = L^-1/2 V^T A reproduce A
    exactly; balancing spreads value evenly across the two factors.
    """
    lam, vec = np.linalg.eigh(0.5 * (d_scaled + d_scaled.T))
    lam = np.clip(lam, 0.0, None)
    lmax = float(lam[-1]) if lam.size else 0.0
    if lmax <= 0.0 or value <= 0.0:
        m, n = a.shape
        return np.zeros((m, 1)), np.zeros((1, n))
    lam = lam + _REG_RTOL * lmax
    root = np.sqrt(lam)
    b0 = vec * root
    c0 = (vec / root).T @ a
    s = 1.0 / np.sqrt(value)
    return b0 * s, c0 / s


def _lift_candidates(a: np.ndarray, p: np.ndarray, q: np.ndarray, floor: float = 1e-12):
    """Primal ellipsoid shapes implied by dual weights, both sides.

    At a dual optimum with singular decomposition
    P^1/2 A Q^1/2 = U Sigma V^T, complementary slackness pins the
    optimal SDP block to P^{-1/2} U Sigma U^T P^{-1/2} (and the
    column-side analogue). Away from optimality these are merely
    candidate shapes; certification decides their worth.
    """
    m, n = a.shape
    pf = np.maximum(p, floor)
    pf = pf / pf.sum()
    qf = np.maximum(q, floor)
    qf = qf / qf.sum()
    mat = np.sqrt(pf)[:, None] * a * np.sqrt(qf)[None, :]
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    d_row = ((u * s) @ u.T) / np.sqrt(pf)[:, None] / np.sqrt(pf)[None, :]
    v = vt.T
    d_col = ((v * s) @ v.T) / np.sqrt(qf)[:, None] / np.sqrt(qf)[None, :]
    return d_row, d_col


def _zero_certificate(m: int, n: int) -> Gamma2Certificate:
    return Gamma2Certificate(
        upper=0.0,
        lower=0.0,
        ellipsoid=Ellipsoid(np.zeros((m, m))),
        factor_left=np.zeros((m, 1)),
        factor_right=np.zeros((1, n)),
        dual_p=np.full(m, 1.0 / m),
        dual_q=np.full(n, 1.0 / n),
        gap=0.0,
        converged=True,
    )


def _check_ellipsoid_cap(m: int) -> None:
    if m * m > KRON_ENTRY_CAP:
        raise ValueError(
            f"certificate ellipsoid would have {m * m} entries, "
            f"cap is {KRON_ENTRY_CAP}; transpose or use bound-only routines"
        )


def gamma2_upper(
    a,
    *,
    tol: float = DEFAULT_TOL,
    dual: tuple[float, np.ndarray, np.ndarray] | None = None,
    ip_side_cap: int = IP_SIDE_CAP,
) -> tuple[float, Ellipsoid, np.ndarray, np.ndarray, bool]:
    """Certified upper bound on gamma_2(a).

    Returns (value, ellipsoid, B, C, converged): the ellipsoid contains
    every column of ``a`` and has max diagonal = value^2; A = B C with
    balanced norm bounds. ``converged`` is False when the certified gap
    against the best known lower bound still exceeds ``tol`` after the
    refiner (the value is still a valid upper bound).

    ``dual`` may carry a precomputed (value, p, q) triple to avoid
    re-running the dual ascent.
    """
    a = as_matrix(a)
    m, n = a.shape
    _check_ellipsoid_cap(m)
    if float(np.abs(a).max()) == 0.0:
        c = _zero_certificate(m, n)
        return 0.0, c.ellipsoid, c.factor_left, c.factor_right, True

    if dual is None:
        dual = gamma2_lower_dual(a)
    lower, p, q = dual
    lower = max(lower, uniform_nuclear_lower(a) * (1.0 - 1e-12))

    d_row, d_col = _lift_candidates(a, p, q)
    # (shape, transposed?) pairs; transposed shapes enclose the rows of A
    candidates = [
        (a @ a.T, False),  # trivial factorization A = A I
        (np.eye(m) * one_to_two_norm(a) ** 2, False),  # A = I A
        (d_row, False),
        (d_col, True),
    ]

    best_val = np.inf
    best_scaled: np.ndarray | None = None
    best_side_t = False
    for mat, side_t in candidates:
        target = a.T if side_t else a
        val, scaled = _certified_value(target, mat)
        if val < best_val:
            best_val, best_scaled, best_side_t = val, scaled, side_t

    def gap_ok() -> bool:
        return best_val - lower <= tol * max(best_val, 1e-300)

    # interior-point refinement on the small side
    if not gap_ok() and min(m, n) <= ip_side_cap:
        pts = a if m <= n else a.T
        try:
            _, w = minimum_height_ellipsoid(pts, tol=min(tol, 1e-9) * 0.01)
            val, scaled = _certified_value(pts, w)
            if val < best_val:
                best_val, best_scaled, best_side_t = val, scaled, m > n
        except (InteriorPointError, np.linalg.LinAlgError):
            pass

    converged = gap_ok()
    target = a.T if best_side_t else a
    b_t, c_t = _factors_from_scaled(target, best_scaled, best_val)
    if best_side_t:
        b, c = c_t.T, b_t.T
        d_final = best_val * (b @ b.T)
        ell = Ellipsoid(d_final)
    else:
        ell = Ellipsoid(best_scaled)
        b, c = b_t, c_t
    return float(best_val), ell, b, c, converged


def _support_blocks(a: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(rows, cols) of each connected component of the bipartite graph
    whose edges are the nonzeros of a, ordered by first row. All-zero
    rows and columns belong to no block."""
    nz = a != 0
    unseen = nz.any(axis=1)
    blocks = []
    while unseen.any():
        rows = np.zeros_like(unseen)
        rows[np.argmax(unseen)] = True
        while True:
            cols = nz[rows].any(axis=0)
            grown = nz[:, cols].any(axis=1)
            if (grown == rows).all():
                break
            rows = grown
        unseen &= ~rows
        blocks.append((np.flatnonzero(rows), np.flatnonzero(cols)))
    return blocks


def _solve_block(a: np.ndarray, tol: float, ip_side_cap: int) -> Gamma2Certificate:
    """Dual ascent, then the upper-bound stack seeded with its weights."""
    lower, p, q = gamma2_lower_dual(a)
    upper, ell, b, c, converged = gamma2_upper(
        a, tol=tol, dual=(lower, p, q), ip_side_cap=ip_side_cap
    )
    # weak duality must hold between certified quantities
    if lower > upper * (1.0 + 10.0 * max(tol, 1e-12)):
        raise CertificateError(
            f"certified lower {lower} exceeds certified upper {upper}"
        )
    lower = min(lower, upper)  # guard fp-rounding at closed gaps
    return Gamma2Certificate(
        upper=float(upper),
        lower=float(lower),
        ellipsoid=ell,
        factor_left=b,
        factor_right=c,
        dual_p=p,
        dual_q=q,
        gap=float(upper - lower),
        converged=bool(converged),
    )


def _assemble(a: np.ndarray, parts, tol: float) -> Gamma2Certificate:
    """Certificate of A from certificates of its blocks.

    ``parts`` holds (rows, cols, certificate of A[rows][:, cols]) for
    blocks on disjoint rows and columns that hold every nonzero of A.
    D and the factors are block-diagonal, as in block_diag_ellipsoid,
    so the upper bound is the max of the blocks'. The weights are those
    of the block with the best lower bound, zero elsewhere, and certify
    that lower bound for A.
    """
    m, n = a.shape
    k = sum(cert.factor_left.shape[1] for _, _, cert in parts)
    d = np.zeros((m, m))
    b = np.zeros((m, k))
    c = np.zeros((k, n))
    at = 0
    for rows, cols, cert in parts:
        width = cert.factor_left.shape[1]
        d[np.ix_(rows, rows)] = cert.ellipsoid.d
        b[rows, at : at + width] = cert.factor_left
        c[at : at + width, cols] = cert.factor_right
        at += width
    rows, cols, best = max(parts, key=lambda part: part[2].lower)
    p = np.zeros(m)
    p[rows] = best.dual_p
    q = np.zeros(n)
    q[cols] = best.dual_q
    upper = max(cert.upper for _, _, cert in parts)
    return Gamma2Certificate(
        upper=upper,
        lower=best.lower,
        ellipsoid=Ellipsoid(d),
        factor_left=b,
        factor_right=c,
        dual_p=p,
        dual_q=q,
        gap=upper - best.lower,
        converged=upper - best.lower <= tol * upper,
    )


def gamma2(
    a,
    *,
    tol: float = DEFAULT_TOL,
    ip_side_cap: int = IP_SIDE_CAP,
) -> Gamma2Certificate:
    """Two-sided certified gamma_2 computation.

    Splits A into the blocks of its row-column support graph, solves
    each block by the dual ascent and then the upper-bound stack seeded
    with its weights, and re-validates the assembled certificate before
    returning it. gamma_2 of a block-diagonal matrix is the max over its
    blocks, so each block's ascent only has to find its own optimum.
    """
    a = as_matrix(a)
    m, n = a.shape
    _check_ellipsoid_cap(m)
    if float(np.abs(a).max()) == 0.0:
        return _zero_certificate(m, n)
    blocks = _support_blocks(a)
    rows, cols = blocks[0]
    if len(blocks) == 1 and rows.size == m and cols.size == n:
        cert = _solve_block(a, tol, ip_side_cap)
    else:
        parts = [(r, c, _solve_block(a[np.ix_(r, c)], tol, ip_side_cap)) for r, c in blocks]
        cert = _assemble(a, parts, tol)
    check_certificate(cert, a, tol=tol)
    return cert


def check_certificate(cert: Gamma2Certificate, a, *, tol: float = DEFAULT_TOL) -> dict:
    """Re-validate every invariant of a certificate against its matrix.

    Raises CertificateError on any violation; returns measured slacks.
    """
    a = as_matrix(a)
    m, n = a.shape
    scale = max(cert.upper, 1.0)
    report: dict[str, float] = {}

    if not (cert.lower <= cert.upper + tol * scale):
        raise CertificateError(
            f"lower {cert.lower} > upper {cert.upper} + slack"
        )
    report["weak_duality_slack"] = cert.upper - cert.lower

    b, c = cert.factor_left, cert.factor_right
    if b.shape[0] != m or c.shape[1] != n or b.shape[1] != c.shape[0]:
        raise CertificateError(
            f"factor shapes {b.shape} x {c.shape} do not match {a.shape}"
        )
    prod_bound = two_to_infinity_norm(b) * one_to_two_norm(c) if cert.upper > 0 else 0.0
    if prod_bound > cert.upper * (1.0 + tol) + 1e-12:
        raise CertificateError(
            f"factor norms certify {prod_bound}, above upper {cert.upper}"
        )
    report["factor_bound"] = prod_bound

    resid = float(np.linalg.norm(b @ c - a))
    fro = float(np.linalg.norm(a))
    if resid > FACT_RTOL * max(fro, 1e-300):
        raise CertificateError(
            f"factorization residual {resid:.3e} above {FACT_RTOL:.1e} * ||A||_F"
        )
    report["factorization_residual"] = resid

    if cert.ellipsoid.dim != m:
        raise CertificateError(
            f"ellipsoid dim {cert.ellipsoid.dim}, expected {m}"
        )
    inf_norm = ellipsoid_inf_norm(cert.ellipsoid)
    if inf_norm > cert.upper * (1.0 + tol) + 1e-12:
        raise CertificateError(
            f"ellipsoid inf-norm {inf_norm} above upper {cert.upper}"
        )
    worst = 0.0
    for j in range(n):
        worst = max(worst, membership_value(cert.ellipsoid, a[:, j]))
    if fro > 0 and worst > 1.0 + tol:
        raise CertificateError(
            f"column membership value {worst} above 1 + tol"
        )
    report["worst_membership"] = worst

    p, q = cert.dual_p, cert.dual_q
    if (p < -1e-12).any() or (q < -1e-12).any():
        raise CertificateError("dual weights must be nonnegative")
    if abs(p.sum() - 1.0) > 1e-9 or abs(q.sum() - 1.0) > 1e-9:
        if cert.upper > 0:  # zero certificate keeps uniform weights
            raise CertificateError("dual weights must sum to 1")
    lb = dual_value(a, p, q)
    if cert.lower > lb + 1e-8 * scale:
        raise CertificateError(
            f"stored lower {cert.lower} not reproduced by weights ({lb})"
        )
    fp_slack = DUAL_FP_SLACK * np.finfo(float).eps * (m + n) * lb
    if lb > cert.upper + fp_slack:
        raise CertificateError(
            f"weights certify {lb}, above upper {cert.upper}"
        )
    report["dual_value"] = lb
    return report


# ---------------------------------------------------------------------------
# Certificate text bundles: key=value header lines, then the matrices
# D, B, C, p, q in the matrix text format, each introduced by a
# "# <name>" section line.
# ---------------------------------------------------------------------------


def write_certificate(path, cert: Gamma2Certificate) -> None:
    from .linalg import write_matrix  # local import to reuse formatting
    import io

    def fmt_block(mat):
        buf = io.StringIO()
        mm, nn = mat.shape
        buf.write(f"{mm} {nn}\n")
        for row in mat:
            buf.write(" ".join(f"{x:.17g}" for x in row) + "\n")
        return buf.getvalue()

    with open(path, "w") as fh:
        fh.write(f"upper={cert.upper:.17g}\n")
        fh.write(f"lower={cert.lower:.17g}\n")
        fh.write(f"gap={cert.gap:.17g}\n")
        fh.write(f"converged={1 if cert.converged else 0}\n")
        for name, mat in (
            ("D", cert.ellipsoid.d),
            ("B", cert.factor_left),
            ("C", cert.factor_right),
            ("p", cert.dual_p.reshape(-1, 1)),
            ("q", cert.dual_q.reshape(-1, 1)),
        ):
            fh.write(f"# {name}\n")
            fh.write(fmt_block(np.asarray(mat, dtype=float)))


def read_certificate(path) -> Gamma2Certificate:
    header: dict[str, float] = {}
    sections: dict[str, list[str]] = {}
    current: list[str] | None = None
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                name = line[1:].strip()
                current = []
                sections[name] = current
                continue
            if current is None:
                key, _, val = line.partition("=")
                header[key.strip()] = float(val)
            else:
                current.append(line)

    def parse_block(name):
        lines = sections.get(name)
        if not lines:
            raise ValueError(f"certificate file missing section {name!r}")
        mm, nn = (int(x) for x in lines[0].split())
        rows = [[float(x) for x in ln.split()] for ln in lines[1 : 1 + mm]]
        mat = np.array(rows, dtype=float)
        if mat.shape != (mm, nn):
            raise ValueError(f"section {name!r} shape mismatch")
        return mat

    for key in ("upper", "lower", "gap"):
        if key not in header:
            raise ValueError(f"certificate file missing {key}= line")
    return Gamma2Certificate(
        upper=header["upper"],
        lower=header["lower"],
        ellipsoid=Ellipsoid(parse_block("D")),
        factor_left=parse_block("B"),
        factor_right=parse_block("C"),
        dual_p=parse_block("p").reshape(-1),
        dual_q=parse_block("q").reshape(-1),
        gap=header["gap"],
        converged=bool(int(header.get("converged", 0.0))),
    )


def read_matrix_or_system(path) -> np.ndarray:
    """Read a matrix file, tolerating a set-system label block."""
    mat, _ = read_matrix_with_comments(path)
    return mat
