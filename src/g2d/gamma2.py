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
* upper bounds come from explicit factorizations A = B C whose
  ellipsoid D = upper * B B^T contains every column a_j = B c_j
  because ||c_j||^2 <= upper; the check re-verifies B C = A, the norms
  of B and C and D against upper * B B^T, never trusting solver output.
  D is PSD by construction, so neither the solve nor the check
  eigendecomposes it: an ``Ellipsoid`` validates its D only when its
  spectrum is first used, by ``membership_value`` or
  ``ellipsoid_contains``.

The solve path:

1. split A into the connected components of its row-column support
   graph, one block if A is connected; gamma_2 of a block-diagonal
   matrix is the max over its blocks, so each block runs steps 2-4
   alone and one assembly builds the certificate of A;
2. dual ascent for (p, q) from uniform weights: monotone alternating
   maximization of the variational form
   ||M||_* = max_{||Z||_2 <= 1} <M, Z> in x = sqrt(p), y = sqrt(q),
   where each closed-form step is followed by a geometric extrapolation
   along the previous step that is kept only when it does not lower the
   value, and whose exponent resets when it is rejected. Each point
   tried is one evaluation, at most DUAL_MAX_STEPS in all. On a block
   whose small side exceeds GRAM_MIN_SIDE it is one eigendecomposition
   of the small-side Gram matrix, or an SVD once that matrix has been
   ill conditioned, and the best point's value is recomputed by one
   more SVD, counted as an evaluation, unless the ascent's last lift
   was made there; on smaller blocks it is one SVD.
   At each new best point, the step's own matrix-vector products give
   the value that the small-side lift of step 3 would certify there;
   only when that meets ``tol`` does the ascent make the lift, one more
   SVD and one eigendecomposition on top of DUAL_MAX_STEPS, and after
   a lift that misses, the next waits for a restart. It stops once a
   lift's certified upper bound is within ``tol`` of its value. It
   hands step 3 its best weights, their value and, when its last lift
   was of those weights, that lift's certificate, which step 3
   then takes as it is; after a stop on the gap, step 4 does not run;
3. the closed-form primal lift of the dual weights on the smaller side:
   the first-order conditions pair an optimal (p, q) with the optimal
   ellipsoid P^{-1/2} U Sigma U^T P^{-1/2} for the columns of A, and
   with its column-side analogue for the rows. ``ellipsoid.certify``
   turns that shape into its value, its ellipsoid D and balanced
   factors A = B C with D = value * B B^T, from one eigendecomposition;
   on a tall A the shape encloses the rows, so its factors are
   transposed into those of A, and D is rebuilt from them;
4. an interior-point solve of the enclosing-ellipsoid program on the
   same side, only while the certified gap exceeds the requested
   tolerance and that side is small enough. It certifies the ellipsoid
   of each barrier stage once and stops after the first whose value is
   at most lower / (1 - tol), which closes the gap, or at its barrier
   stop. It returns the ``certify`` result of the stage it stopped on,
   which replaces the lift's only if its value is lower.

The path makes no random choices: a matrix always gets the same
certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# membership_value is no longer called here, but the benchmark's tracer
# wraps it as an attribute of this module
from .ellipsoid import Ellipsoid, certify, ellipsoid_inf_norm, membership_value  # noqa: F401
from .interior import InteriorPointError, minimum_height_ellipsoid
from .linalg import (
    KRON_ENTRY_CAP,
    RefusedError,
    as_matrix,
    as_weights,
    atomic_write,
    format_matrix,
    nuclear_norm,
    one_to_two_norm,
    parse_matrix,
    two_to_infinity_norm,
)

# Relative tolerance on the certified upper/lower gap.
DEFAULT_TOL = 1e-4

# The dual ascent stops after DUAL_MAX_STEPS evaluations (the points it
# tries and, on the Gram path, the final SVD of the best one), or
# earlier once DUAL_PLATEAU steps in a row have not raised its best
# value by a relative 1e-13.
DUAL_MAX_STEPS = 300
DUAL_PLATEAU = 30

# Exponent of the ascent's extrapolation: it starts at DUAL_BETA_RESET,
# grows by DUAL_BETA_GROWTH up to DUAL_BETA_MAX while extrapolated
# points are accepted, and resets when one is rejected.
DUAL_BETA_RESET = 0.5
DUAL_BETA_GROWTH = 1.2
DUAL_BETA_MAX = 8.0

# An ascent step on a block whose small side exceeds GRAM_MIN_SIDE takes
# its value and polar factor from the eigendecomposition of the
# small-side Gram matrix instead of an SVD. At one BLAS thread a step
# took 140 -> 47 us on 14x242, 184 -> 94 us on 158x24, 375 -> 275 us on
# 48x48 and 2.9 -> 0.5 ms on 32x1637. On blocks of 8x16 and smaller,
# eigh and the extra products cost more than the SVD saves: the
# criterion-8 solves ran 9% slower on the Gram path.
GRAM_MIN_SIDE = 8

# The Gram path is taken only when its smallest eigenvalue exceeds
# GRAM_RCOND times its largest; otherwise the step makes the SVD. The
# Gram matrix loses the singular values below sqrt(GRAM_RCOND) *
# sigma_max: on a rank-3 20x30 matrix, steps taken from it gave weights
# whose lift missed the gap, and the solve ran the interior point for
# 1.2 s instead of taking 0.02 s.
GRAM_RCOND = 1e-10

# Largest small-side dimension passed to the interior-point refiner.
IP_SIDE_CAP = 32

# Relative slack of the certificate checks (weak duality, factor norms,
# factorization identity B C = A, ellipsoid inf-norm, D against
# upper * B B^T, column norms of C): float64 rounding in the checks' own
# arithmetic, never the solver's gap tolerance. Real certificates exceed
# their bounds by at most about 1.6e-11 relative.
CHECK_RTOL = 1e-8

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
    ellipsoid: E(D) with D = upper * B B^T, which contains every column
        of A, and max diag(D) = upper^2.
    factor_left/factor_right: balanced factorization A = B C with
        max row norm of B and max column norm of C both <= sqrt(upper)
        up to tolerance.
    dual_p/dual_q: the probability weights certifying ``lower``.
    converged: whether upper <= lower / (1 - tol) was reached.
    gap: the property upper - lower.
    """

    upper: float
    lower: float
    ellipsoid: Ellipsoid
    factor_left: np.ndarray
    factor_right: np.ndarray
    dual_p: np.ndarray
    dual_q: np.ndarray
    converged: bool

    @property
    def gap(self) -> float:
        return self.upper - self.lower


def dual_value(a, p, q) -> float:
    """Nuclear norm of diag(p)^1/2 A diag(q)^1/2; a lower bound on
    gamma_2(A) for any probability vectors p, q. Raises ValueError
    unless p and q are nonnegative and each sums to 1 within 1e-9."""
    a = as_matrix(a)
    p, q = as_weights(a, p, q)
    if abs(p.sum() - 1.0) > 1e-9 or abs(q.sum() - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1")
    m = np.sqrt(np.clip(p, 0.0, None))[:, None] * a
    m = m * np.sqrt(np.clip(q, 0.0, None))[None, :]
    return nuclear_norm(m)


def uniform_nuclear_lower(a) -> float:
    """gamma_2(A) >= ||A||_* / sqrt(m n): the uniform-weights dual point."""
    a = as_matrix(a)
    m, n = a.shape
    return nuclear_norm(a) / float(np.sqrt(m * n))


def _unit(v: np.ndarray) -> np.ndarray | None:
    """v / ||v||_2, or None when v is zero or not finite."""
    norm = math.sqrt(v @ v)
    return v / norm if 0.0 < norm < np.inf else None


def _extrapolate(f: np.ndarray, f_prev: np.ndarray, beta: float) -> np.ndarray | None:
    """The unit vector f o (f / f_prev)^beta on the entries positive in
    both, f elsewhere: the geometric step keeps every weight positive
    that f keeps positive. The caller ignores the floating-point errors
    of the discarded entries."""
    both = (f > 0.0) & (f_prev > 0.0)
    return _unit(np.where(both, f * (f / f_prev) ** beta, f))


def _gram_polar(mat: np.ndarray) -> tuple[float, np.ndarray] | None:
    """||mat||_* and the polar factor U V^T of mat = U Sigma V^T from
    the eigendecomposition W Lambda W^T of the small-side Gram matrix:
    ||mat||_* = sum sqrt(Lambda), and U V^T = W Lambda^-1/2 W^T mat on
    a wide mat, mat W Lambda^-1/2 W^T on a tall one. None unless
    lambda_min > GRAM_RCOND * lambda_max."""
    wide = mat.shape[0] <= mat.shape[1]
    lam, w = np.linalg.eigh(mat @ mat.T if wide else mat.T @ mat)
    if not lam[0] > GRAM_RCOND * lam[-1]:
        return None
    root = np.sqrt(lam)
    z = (w / root) @ (w.T @ mat) if wide else (mat @ w) @ (w / root).T
    return float(root.sum()), z


def _lift_guess(az: np.ndarray, x: np.ndarray, y: np.ndarray, ay: np.ndarray, val: float, target: float) -> float:
    """What the small-side lift of the weights (x^2, y^2) certifies,
    read off an ascent point: az = A o U V^T for
    diag(x) A diag(y) = U Sigma V^T, ay = az @ y and val = sum(Sigma).

    With B = P^-1/2 U Sigma^1/2 and C = Sigma^1/2 V^T Q^-1/2, A = B C,
    (A o Z) y = x o r and (A o Z)^T x = y o c for r and c the squared
    row norms of B and column norms of C, and the lift certifies
    sqrt(max r * max c) (Linial & Shraibman, STOC 2007). Weights
    x_i, y_j <= 1e-6, which the lift floors, are skipped: their
    quotients are rounding noise. The p-mean of r and the q-mean of c
    are both val, so once max r * val exceeds target^2 this returns inf
    without computing c.
    """
    live = x > 1e-6
    r = float((ay[live] / x[live]).max())
    if r * val > target * target:
        return np.inf
    live = y > 1e-6
    return math.sqrt(r * float(((az.T @ x)[live] / y[live]).max()))


def gamma2_lower_dual(a, *, tol: float | None = None) -> _DualBound:
    """Dual lower bound by extrapolated block-coordinate ascent on
    (Z, p, q).

    Uses ||M||_* = max_{||Z||_2 <= 1} <M, Z> with M = P^1/2 A Q^1/2 and
    iterates on the unit vectors x = sqrt(p), y = sqrt(q) from uniform
    weights. One evaluation gives both the value of a point, sum(Sigma)
    for M = U Sigma V^T, and the best Z = U V^T there: an SVD, or on a
    block whose small side exceeds GRAM_MIN_SIDE an eigendecomposition
    of the small-side Gram matrix M M^T or M^T M, which costs 1.3-6x
    less, unless that matrix is ill conditioned (``_gram_polar``); after
    the first such fallback the ascent makes SVDs only.
    The plain step F is closed form: given Z and y, maximizing
    sum_i x_i c_i with c = (A o Z) y over the unit sphere gives
    x = c_+ / ||c_+||, and likewise y = r_+ / ||r_+|| with
    r = (A o Z)^T x; it never lowers the value. Each step then tries the
    geometric extrapolation F o (F / F')^beta of F's output along its
    previous output F', one evaluation, and keeps it if its value is at
    least the current one, raising beta by DUAL_BETA_GROWTH up to
    DUAL_BETA_MAX. Otherwise beta resets to DUAL_BETA_RESET and the
    plain point F is taken, one more evaluation
    (adaptive restart, as in O'Donoghue & Candes, FoCM 2015). Every
    iterate is feasible, hence a valid lower bound, and the values do
    not decrease. On the Gram path the returned value is recomputed by
    one SVD of the best point, so that the certified lower bound is an
    SVD value; that SVD is one of the evaluations. When the last lift
    was of the best point, its own SVD gives that value instead, and
    the weights returned are the floored ones it was made at.

    The ascent makes at most DUAL_MAX_STEPS evaluations, and stops
    earlier once DUAL_PLATEAU steps in a row have not raised its best
    value by a relative 1e-13. With ``tol`` >= 0 it also stops at the
    first point whose weights, lifted on the small side of A as in
    ``gamma2_upper``, certify an upper bound of at most value /
    (1 - tol): the gap is then closed at ``tol``, and ``gamma2_upper``
    finds the same certificate without its interior point. At each new
    best point, ``_lift_guess`` reads what that lift would certify from
    one or two matrix-vector products, and only when the guess meets
    the target is the lift made, one SVD and one eigendecomposition on
    top of DUAL_MAX_STEPS; the ascent stops only on the lift's own
    certified value. After a lift that misses, the next one waits for a
    restart (a rejected extrapolation). With ``tol=None`` nothing is
    checked.

    Returns the best iterate as a ``_DualBound``: it unpacks as
    (value, p, q), and when the last lift made was of this very
    iterate, it carries that lift's certificate, which ``gamma2_upper``
    then uses instead of lifting the weights again.
    """
    a = as_matrix(a)
    m, n = a.shape
    if tol is not None:
        _check_tol(tol)
    x, y = np.full(m, 1.0 / np.sqrt(m)), np.full(n, 1.0 / np.sqrt(n))
    if float(np.abs(a).max()) == 0.0:
        return _DualBound(0.0, x * x, y * y, a, None)
    gram = min(m, n) > GRAM_MIN_SIDE
    # on the Gram path the final SVD of the best point is one of the steps
    steps = int(gram)
    # cleared by the first Gram matrix that fails the conditioning
    # test: on a rank-deficient block every later one fails it too
    eig = gram

    def evaluate(x, y):
        nonlocal steps, eig
        steps += 1
        mat = x[:, None] * a * y[None, :]
        polar = _gram_polar(mat) if eig else None
        if polar is not None:
            return polar[0], a * polar[1]
        eig = False
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        return float(s.sum()), a * (u @ vt)

    val, az = evaluate(x, y)
    best = (val, x, y)
    # the last lift and the iterate it lifted
    lift = lifted = None
    armed = tol is not None
    prev = None
    beta = DUAL_BETA_RESET
    flat = 0
    # the extrapolation divides by zero weights and overflows on
    # entries that it then discards
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        while steps < DUAL_MAX_STEPS and flat < DUAL_PLATEAU:
            ay = az @ y
            if armed and best[1] is x:  # the current point is the best
                target = _target(val, tol)
                if _lift_guess(az, x, y, ay, val, target) <= target:
                    lift, lifted = _lift(a, x * x, y * y), x
                    if lift[0][0] <= target:
                        break
                    armed = False
            fx = _unit(np.maximum(ay, 0.0))
            fy = None if fx is None else _unit(np.maximum(az.T @ fx, 0.0))
            if fy is None:
                break
            trial = None
            if prev is not None:
                ex, ey = _extrapolate(fx, prev[0], beta), _extrapolate(fy, prev[1], beta)
                if ex is not None and ey is not None:
                    trial = (ex, ey, *evaluate(ex, ey))
            rejected = trial is not None and trial[2] < val
            if trial is not None and not rejected:
                x, y, val, az = trial
                beta = min(DUAL_BETA_GROWTH * beta, DUAL_BETA_MAX)
            elif steps < DUAL_MAX_STEPS:
                armed |= rejected and tol is not None
                beta = DUAL_BETA_RESET
                x, y = fx, fy
                val, az = evaluate(x, y)
            else:
                break
            prev = (fx, fy)
            flat = 0 if val > best[0] + 1e-13 * max(best[0], 1.0) else flat + 1
            if val > best[0]:
                best = (val, x, y)
    val, x, y = best
    cert, point = lift if lifted is x else (None, None)
    if not gram:
        point = (val, x * x, y * y)
    elif point is None:  # the certified lower bound is an SVD value
        point = (nuclear_norm(x[:, None] * a * y[None, :]), x * x, y * y)
    return _DualBound(*point, a, cert)


# ---------------------------------------------------------------------------
# Upper bounds: the lift and the refiner each give an ellipsoid shape
# (any scale), and ellipsoid.certify turns it into the certified value,
# the ellipsoid and the balanced factors.
# ---------------------------------------------------------------------------

def _floored(p: np.ndarray) -> np.ndarray:
    """p with its weights below 1e-12 raised to 1e-12, so that P^-1/2
    exists, renormalized."""
    pf = np.maximum(p, 1e-12)
    return pf / pf.sum()


def _lift(a: np.ndarray, p: np.ndarray, q: np.ndarray) -> tuple[tuple, tuple[float, np.ndarray, np.ndarray]]:
    """The primal lift of dual weights (p, q) on ``a``, on its small
    side, from one SVD and one ``certify``.

    At a dual optimum with singular decomposition
    P^1/2 A Q^1/2 = U Sigma V^T, complementary slackness pins the
    optimal SDP block to P^{-1/2} U Sigma U^T P^{-1/2}, and the
    column-side block to Q^{-1/2} V Sigma V^T Q^{-1/2}. Away from
    optimality these are merely candidate shapes; certification decides
    their worth. Returns the ``certify`` result (value, D, B, C) of the
    row-side shape against ``a`` when m <= n, else of the column-side
    shape against ``a.T``, whose factors the caller transposes, and the
    dual point (sum(Sigma), pf, qf) of the floored weights pf, qf that
    the SVD was made at: sum(Sigma) is ``dual_value(a, pf, qf)``.
    """
    pf, qf = _floored(p), _floored(q)
    mat = np.sqrt(pf)[:, None] * a * np.sqrt(qf)[None, :]
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    w, root, pts = (vt.T, np.sqrt(qf), a.T) if a.shape[0] > a.shape[1] else (u, np.sqrt(pf), a)
    cert = certify(pts, ((w * s) @ w.T) / root[:, None] / root[None, :])
    return cert, (float(s.sum()), pf, qf)


class _DualBound(tuple):
    """``gamma2_lower_dual``'s (value, p, q) for the matrix ``a``, which
    unpacks as a plain triple. ``cert`` is the certificate of the
    ``_lift`` of these weights (up to its 1e-12 floor) when the ascent
    made one, else None."""

    def __new__(cls, value: float, p: np.ndarray, q: np.ndarray, a: np.ndarray, cert: tuple | None):
        bound = super().__new__(cls, (value, p, q))
        bound.a, bound.cert = a, cert
        return bound


def _zero_certificate(m: int, n: int) -> Gamma2Certificate:
    return Gamma2Certificate(
        upper=0.0,
        lower=0.0,
        ellipsoid=Ellipsoid(np.zeros((m, m))),
        factor_left=np.zeros((m, 1)),
        factor_right=np.zeros((1, n)),
        dual_p=np.full(m, 1.0 / m),
        dual_q=np.full(n, 1.0 / n),
        converged=True,
    )


def _check_tol(tol: float) -> None:
    if not tol >= 0.0:
        raise ValueError(f"tol must be a number >= 0, got {tol}")


def _target(lower: float, tol: float) -> float:
    """The largest upper bound within tol of ``lower``: upper - lower <=
    tol * upper exactly when upper <= lower / (1 - tol); any lower >= 0
    meets tol >= 1."""
    return lower / (1.0 - tol) if tol < 1.0 else np.inf


def _check_ellipsoid_cap(m: int) -> None:
    if m * m > KRON_ENTRY_CAP:
        raise RefusedError(
            f"certificate ellipsoid would have {m * m} entries, "
            f"cap is {KRON_ENTRY_CAP}; transpose or use bound-only routines"
        )


def gamma2_upper(
    a,
    *,
    tol: float = DEFAULT_TOL,
    dual: _DualBound | None = None,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, bool]:
    """Certified upper bound on gamma_2(a).

    Returns (value, D, B, C, converged), as ``certify`` does plus the
    flag: E(D) contains every column of ``a`` and max diag(D) = value^2;
    A = B C with balanced norm bounds. ``converged`` is False when value
    is above lower / (1 - tol), with ``tol`` >= 0, after the refiner (the
    value is still a valid upper bound).

    The bound is the certified small-side lift of the dual weights, and
    only when that misses lower / (1 - tol) and min(m, n) <=
    IP_SIDE_CAP, the interior point on the same side, kept if lower.

    ``dual`` is either None, and the dual ascent runs with this ``tol``,
    or ``gamma2_lower_dual``'s own result for this matrix, which spares
    re-running it; anything else raises TypeError. Its value is the
    lower bound, and its weights are lifted once unless it carries the
    certificate of their lift.
    """
    a = as_matrix(a)
    m, n = a.shape
    _check_tol(tol)
    _check_ellipsoid_cap(m)
    if dual is not None and not (isinstance(dual, _DualBound) and np.array_equal(dual.a, a)):
        raise TypeError("dual must be gamma2_lower_dual's result for this matrix")
    if float(np.abs(a).max()) == 0.0:
        return 0.0, np.zeros((m, m)), np.zeros((m, 1)), np.zeros((1, n)), True

    if dual is None:
        dual = gamma2_lower_dual(a, tol=tol)
    lower, p, q = dual
    best = _lift(a, p, q)[0] if dual.cert is None else dual.cert
    target = _target(lower, tol)

    # interior-point refinement on the same small side; it returns the
    # certificate of the first barrier stage that meets the target, or
    # of its last stage
    if best[0] > target and min(m, n) <= IP_SIDE_CAP:
        try:
            refined = minimum_height_ellipsoid(a.T if m > n else a, target=target)
            if refined[0] < best[0]:
                best = refined
        except (InteriorPointError, np.linalg.LinAlgError):
            pass

    value, d, b, c = best
    if m > n:  # the certificate encloses the rows of A
        b, c = c.T, b.T
        d = value * (b @ b.T)
    return float(value), d, b, c, value <= target


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


def _assemble(a: np.ndarray, parts, tol: float) -> Gamma2Certificate:
    """Certificate of A from the solved blocks.

    ``parts`` holds (rows, cols, (lower, p, q), (upper, D, B, C)) for
    blocks A[rows][:, cols] on disjoint rows and columns that hold
    every nonzero of A, each with D = upper * B B^T. D and the factors
    are block-diagonal, as in block_diag_ellipsoid, so the upper bound
    is the max of the blocks'. A block's B is scaled by
    sqrt(its upper / upper) and its C by the inverse, so that D =
    upper * B B^T still holds, and no row of B or column of C has a
    norm above sqrt(upper). The weights are those of the block with the
    best lower bound, zero elsewhere, and certify that lower bound for
    A.
    """
    m, n = a.shape
    k = sum(up[2].shape[1] for *_, up in parts)
    upper = max(up[0] for *_, up in parts)
    d = np.zeros((m, m))
    b = np.zeros((m, k))
    c = np.zeros((k, n))
    at = 0
    for rows, cols, _, (value, dd, bb, cc) in parts:
        width = bb.shape[1]
        d[np.ix_(rows, rows)] = dd
        b[rows, at : at + width] = bb * math.sqrt(value / upper)
        c[at : at + width, cols] = cc * math.sqrt(upper / value)
        at += width
    rows, cols, (lower, pp, qq), _ = max(parts, key=lambda part: part[2][0])
    p = np.zeros(m)
    p[rows] = pp
    q = np.zeros(n)
    q[cols] = qq
    return Gamma2Certificate(
        upper=upper,
        lower=lower,
        ellipsoid=Ellipsoid(d),
        factor_left=b,
        factor_right=c,
        dual_p=p,
        dual_q=q,
        converged=bool(upper <= _target(lower, tol)),
    )


def gamma2(a, *, tol: float = DEFAULT_TOL) -> Gamma2Certificate:
    """Two-sided certified gamma_2 computation.

    Splits A into the blocks of its row-column support graph, solves
    each block by the dual ascent and then the upper-bound stack seeded
    with its weights, and re-validates the one assembled certificate
    before returning it. gamma_2 of a block-diagonal matrix is the max
    over its blocks, so each block's ascent only has to find its own
    optimum. ``tol`` >= 0 is the relative gap tolerance.
    """
    a = as_matrix(a)
    m, n = a.shape
    _check_tol(tol)
    _check_ellipsoid_cap(m)
    if float(np.abs(a).max()) == 0.0:
        return _zero_certificate(m, n)
    parts = []
    for rows, cols in _support_blocks(a):
        # the block keeps A's memory order, on which BLAS rounding depends
        block = np.empty_like(a, shape=(rows.size, cols.size))
        block[...] = a[np.ix_(rows, cols)]
        dual = gamma2_lower_dual(block, tol=tol)
        lower, p, q = dual
        upper, d, b, c, _ = gamma2_upper(block, tol=tol, dual=dual)
        # weak duality must hold between certified quantities
        if lower > upper * (1.0 + 10.0 * max(tol, 1e-12)):
            raise CertificateError(
                f"certified lower {lower} exceeds certified upper {upper}"
            )
        lower = min(lower, upper)  # guard fp-rounding at closed gaps
        parts.append((rows, cols, (lower, p, q), (upper, d, b, c)))
    cert = _assemble(a, parts, tol)
    check_certificate(cert, a)
    return cert


def check_certificate(cert: Gamma2Certificate, a) -> dict:
    """Re-validate every invariant of a certificate against its matrix.

    The slack of every check is float64 rounding (CHECK_RTOL, and
    DUAL_FP_SLACK for the weights against the upper bound), independent
    of the tolerance the certificate was solved to. Raises
    CertificateError on any violation; returns measured slacks.
    """
    a = as_matrix(a)
    m, n = a.shape
    b, c = cert.factor_left, cert.factor_right
    p, q = cert.dual_p, cert.dual_q
    if b.ndim != 2 or c.ndim != 2 or b.shape[0] != m or c.shape[1] != n or b.shape[1] != c.shape[0]:
        raise CertificateError(
            f"factor shapes {b.shape} x {c.shape} do not match {a.shape}"
        )
    if p.shape != (m,) or q.shape != (n,):
        raise CertificateError(
            f"weight shapes {p.shape}, {q.shape} do not match {a.shape}"
        )
    # upper = inf is a true, if useless, bound
    if np.isnan(cert.upper) or not np.isfinite(cert.lower):
        raise CertificateError(f"lower {cert.lower} must be finite, upper {cert.upper} a number")
    if not all(np.isfinite(x).all() for x in (p, q, b, c)):
        raise CertificateError("weights or factors have non-finite entries")

    scale = max(cert.upper, 1.0)
    report: dict[str, float] = {}
    if not (cert.lower <= cert.upper + CHECK_RTOL * scale):
        raise CertificateError(
            f"lower {cert.lower} > upper {cert.upper} + slack"
        )
    report["weak_duality_slack"] = cert.upper - cert.lower

    # the weights first: a bound scaled below what they certify is
    # reported as such, not as the factor-norm excess it also causes
    try:
        lb = dual_value(a, p, q)
    except ValueError as err:  # negative weights, or sums off 1
        raise CertificateError(f"dual {err}") from None
    if cert.lower > lb + CHECK_RTOL * scale:
        raise CertificateError(
            f"stored lower {cert.lower} not reproduced by weights ({lb})"
        )
    fp_slack = DUAL_FP_SLACK * np.finfo(float).eps * (m + n) * lb
    if lb > cert.upper + fp_slack:
        raise CertificateError(
            f"weights certify {lb}, above upper {cert.upper}"
        )
    report["dual_value"] = lb

    prod_bound = two_to_infinity_norm(b) * one_to_two_norm(c) if cert.upper > 0 else 0.0
    if prod_bound > cert.upper * (1.0 + CHECK_RTOL):
        raise CertificateError(
            f"factor norms certify {prod_bound}, above upper {cert.upper}"
        )
    report["factor_bound"] = prod_bound

    resid = float(np.linalg.norm(b @ c - a))
    fro = float(np.linalg.norm(a))
    if resid > CHECK_RTOL * max(fro, 1e-300):
        raise CertificateError(
            f"factorization residual {resid:.3e} above {CHECK_RTOL:.1e} * ||A||_F"
        )
    report["factorization_residual"] = resid

    if cert.ellipsoid.dim != m:
        raise CertificateError(
            f"ellipsoid dim {cert.ellipsoid.dim}, expected {m}"
        )
    inf_norm = ellipsoid_inf_norm(cert.ellipsoid)
    if inf_norm > cert.upper * (1.0 + CHECK_RTOL):
        raise CertificateError(
            f"ellipsoid inf-norm {inf_norm} above upper {cert.upper}"
        )
    # each column a_j = B c_j lies in E(upper * B B^T) when ||c_j||^2 <=
    # upper: z^T a_j = (B^T z)^T c_j <= ||c_j|| * sqrt(z^T B B^T z)
    shape = cert.upper * (b @ b.T)
    off = float(np.linalg.norm(cert.ellipsoid.d - shape))
    if off > CHECK_RTOL * float(np.linalg.norm(shape)):
        raise CertificateError(
            f"column membership unproven: ||D - upper * B B^T||_F = {off:.3e} "
            f"above {CHECK_RTOL:.1e} * ||upper * B B^T||_F"
        )
    col = float(np.max(np.sum(c * c, axis=0)))
    worst = col / cert.upper if cert.upper > 0 else (np.inf if col > 0 else 0.0)
    if fro > 0 and worst > 1.0 + CHECK_RTOL:
        raise CertificateError(
            f"column membership value {worst} above 1 + {CHECK_RTOL:.1e}"
        )
    report["worst_membership"] = worst
    return report


# ---------------------------------------------------------------------------
# Certificate text bundles: key=value header lines, then the matrices
# D, B, C, p, q in the matrix text format, each introduced by a
# "# <name>" section line.
# ---------------------------------------------------------------------------


def write_certificate(path, cert: Gamma2Certificate) -> None:
    with atomic_write(path) as fh:
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
            fh.write(format_matrix(mat))


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
        if not sections.get(name):
            raise ValueError(f"certificate file missing section {name!r}")
        return parse_matrix(sections[name])[0]

    for key in ("upper", "lower"):
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
        converged=bool(int(header.get("converged", 0.0))),
    )
