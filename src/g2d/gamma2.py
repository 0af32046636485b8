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
* upper bounds are explicit factorizations A = B C. The ellipsoid
  E(upper * B B^T) contains every column a_j = B c_j once
  ||c_j||^2 <= upper, and its height is at most upper once every row
  of B has ||B_i||^2 <= upper; the check re-verifies B C = A and those
  two norm bounds, never trusting solver output. The certificate is
  its factors: no solve, check or file holds the m x m ellipsoid,
  which ``Gamma2Certificate.ellipsoid`` builds only when it is read.

The solve path:

1. split A into the connected components of its row-column support
   graph, one block if A is connected; gamma_2 of a block-diagonal
   matrix is the max over its blocks, so each block runs steps 2-4
   alone and one assembly builds the certificate of A. A block that
   holds every row and column is A itself, and its certificate is A's;
2. dual ascent for (p, q) from uniform weights: monotone alternating
   maximization of the variational form
   ||M||_* = max_{||Z||_2 <= 1} <M, Z> in x = sqrt(p), y = sqrt(q),
   where each closed-form step is followed by a geometric extrapolation
   along the previous step that is kept only when it does not lower the
   value, and whose exponent resets when it is rejected. Each point
   tried is one evaluation. On a block whose small side exceeds
   GRAM_MIN_SIDE it is one eigendecomposition of the small-side Gram
   matrix, or an SVD once that matrix has been ill conditioned; on
   smaller blocks it is one SVD. Each point keeps its small-side
   factorization. At each new best point, the step's own
   matrix-vector products give the value that the small-side lift of
   step 3 would certify there; only when that meets ``tol`` does the
   ascent make the lift, and after a lift that misses, the next waits
   for a restart. The ascent has one exit: a lift's certified upper
   bound within ``tol`` of its value, or DUAL_MAX_STEPS evaluations,
   the closing lift of its best point among them. It hands on that
   lift, the only one a solve makes: its value at its weights is the
   lower bound, and its certificate is step 3's upper bound; after a
   stop on the gap, step 4 does not run;
3. the closed-form primal lift of the dual weights on the smaller side:
   the first-order conditions pair an optimal (p, q) with the optimal
   ellipsoid P^{-1/2} U Sigma U^T P^{-1/2} for the columns of A, and
   with its column-side analogue for the rows, and
   P^1/2 A Q^1/2 = U Sigma V^T factors A as
   (P^-1/2 U Sigma^1/2)(Sigma^1/2 V^T Q^-1/2). When the point's
   small-side singular values have sigma_min > sqrt(GRAM_RCOND)
   sigma_max, which always holds on the Gram path, the lift builds
   these factors from the factorization that evaluated the point, with
   no new factorization and no weight floor (``_factored_lift``).
   Otherwise a small-side weight is 0 or the block has lower rank, and
   the lift floors the weights at 1e-12, makes one SVD there and hands
   the shape to ``ellipsoid.certify``, which turns it into its value
   and balanced factors A = B C from one eigendecomposition
   (``_lift``): two factorizations on top of DUAL_MAX_STEPS. On a tall
   A either lift encloses the rows, so its factors are transposed into
   those of A;
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
from .ellipsoid import certify, membership_value  # noqa: F401
from .interior import InteriorPointError, minimum_height_ellipsoid
from .linalg import (
    KRON_ENTRY_CAP,
    RefusedError,
    as_matrix,
    as_weights,
    atomic_write,
    format_matrix,
    nuclear_norm,
    parse_matrix,
)

# Relative tolerance on the certified upper/lower gap.
DEFAULT_TOL = 1e-4

# The dual ascent stops after DUAL_MAX_STEPS evaluations: the points it
# tries and the closing lift of the best one.
DUAL_MAX_STEPS = 300

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
# 48x48 and 2.9 -> 0.5 ms on 32x1637. On blocks of 8x16 and smaller the
# Gram path is no faster (time ratio 1.02 on the 400 criterion-8 solves
# over 30 rounds, BENCH_small_block_steps.json), so the threshold stays
# and keeps their certificates.
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

# Relative slack of the certificate checks (weak duality, factorization
# identity B C = A, row norms of B, column norms of C): float64 rounding
# in the checks' own arithmetic, never the solver's gap tolerance. Real
# certificates exceed their bounds by at most about 1.6e-11 relative.
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
    factor_left/factor_right: balanced factorization A = B C with
        max row norm of B and max column norm of C both <= sqrt(upper)
        up to tolerance; they are the proof of ``upper``.
    dual_p/dual_q: the probability weights certifying ``lower``.
    converged: whether upper <= lower / (1 - tol) was reached.
    gap: the property upper - lower.
    ellipsoid: the property D = upper * B B^T, an m x m array built on
        each read; E(D) contains every column of A, and max diag D =
        upper^2.
    """

    upper: float
    lower: float
    factor_left: np.ndarray
    factor_right: np.ndarray
    dual_p: np.ndarray
    dual_q: np.ndarray
    converged: bool

    @property
    def gap(self) -> float:
        return self.upper - self.lower

    @property
    def ellipsoid(self) -> np.ndarray:
        """D = upper * B B^T. Raises RefusedError when it would have
        more than KRON_ENTRY_CAP entries."""
        b = self.factor_left
        m = b.shape[0]
        if m * m > KRON_ENTRY_CAP:
            raise RefusedError(
                f"certificate ellipsoid would have {m * m} entries, cap is {KRON_ENTRY_CAP}"
            )
        return self.upper * (b @ b.T)


def dual_value(a, p, q) -> float:
    """Nuclear norm of diag(p)^1/2 A diag(q)^1/2; a lower bound on
    gamma_2(A) for any probability vectors p, q. Raises ValueError
    unless p and q are nonnegative and each sums to 1 within 1e-9."""
    return _dual_value(as_matrix(a), p, q)


def _dual_value(a: np.ndarray, p, q) -> float:
    """``dual_value`` of a matrix that ``as_matrix`` has validated."""
    p, q = as_weights(a, p, q)
    if abs(p.sum() - 1.0) > 1e-9 or abs(q.sum() - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1")
    # the weights are >= -1e-12; the maximum clips them at 0
    m = np.sqrt(np.maximum(p, 0.0))[:, None] * a * np.sqrt(np.maximum(q, 0.0))
    return float(np.linalg.svd(m, compute_uv=False).sum())


def uniform_nuclear_lower(a) -> float:
    """gamma_2(A) >= ||A||_* / sqrt(m n): the uniform-weights dual point."""
    a = as_matrix(a)
    m, n = a.shape
    return nuclear_norm(a) / float(np.sqrt(m * n))


def _gram_polar(mat: np.ndarray) -> tuple[float, np.ndarray, tuple[np.ndarray, np.ndarray]] | None:
    """||mat||_*, the polar factor U V^T of mat = U Sigma V^T and the
    small-side factorization (W, sqrt(Lambda)), from the
    eigendecomposition W Lambda W^T of the small-side Gram matrix:
    ||mat||_* = sum sqrt(Lambda), and U V^T = W Lambda^-1/2 W^T mat on
    a wide mat, mat W Lambda^-1/2 W^T on a tall one, where W is U or V.
    None unless lambda_min > GRAM_RCOND * lambda_max."""
    wide = mat.shape[0] <= mat.shape[1]
    lam, w = np.linalg.eigh(mat @ mat.T if wide else mat.T @ mat)
    if not lam[0] > GRAM_RCOND * lam[-1]:
        return None
    root = np.sqrt(lam)
    z = (w / root) @ (w.T @ mat) if wide else (mat @ w) @ (w / root).T
    return float(root.sum()), z, (w, root)


def _lift_guess(az: np.ndarray, x: np.ndarray, y: np.ndarray, ay: np.ndarray, val: float, target: float) -> float:
    """What the small-side lift of the weights (x^2, y^2) certifies,
    read off an ascent point: az = A o U V^T for
    diag(x) A diag(y) = U Sigma V^T, ay = az @ y and val = sum(Sigma).

    With B = P^-1/2 U Sigma^1/2 and C = Sigma^1/2 V^T Q^-1/2, A = B C,
    (A o Z) y = x o r and (A o Z)^T x = y o c for r and c the squared
    row norms of B and column norms of C, and the lift certifies
    sqrt(max r * max c) (Linial & Shraibman, STOC 2007). Weights
    x_i, y_j <= 1e-6 are skipped: their quotients are rounding noise.
    The p-mean of r and the q-mean of c are both val, so once
    max r * val exceeds target^2 this returns inf without computing c.
    The caller ignores the floating-point errors of the quotients it
    skips.
    """
    r = float(np.where(x > 1e-6, ay / x, -np.inf).max())
    if r * val > target * target:
        return np.inf
    return math.sqrt(r * float(np.where(y > 1e-6, az.T.dot(x) / y, -np.inf).max()))


def _quarter_exponent(a: np.ndarray) -> int | None:
    """The k with max|a| / 4^k in [1, 4), and None for the zero matrix.
    Dividing by 4^k is exact, and 4^k = 1 for every 0/1 matrix."""
    top = float(np.abs(a).max())
    return (math.frexp(top)[1] - 1) // 2 if top else None


def _scaled_up(cert: tuple, k: int) -> tuple:
    """The certificate (value, B, C) of X turned into that of 4^k X:
    (4^k value, 2^k B, 2^k C), all exact."""
    value, b, c = cert
    return math.ldexp(value, 2 * k), np.ldexp(b, k), np.ldexp(c, k)


def gamma2_lower_dual(a, *, tol: float = 0.0) -> _DualBound:
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
    r = (A o Z)^T x; it never lowers the value. The step keeps F's two
    halves in one vector of length m + n. It then tries the geometric
    extrapolation F o (F / F')^beta of F along its previous value F',
    on the entries positive in both and F elsewhere, in one pass over
    that vector with each half renormalized: one evaluation. It keeps
    the extrapolated point if its value is at least the current one,
    raising beta by DUAL_BETA_GROWTH up to DUAL_BETA_MAX. Otherwise
    beta resets to DUAL_BETA_RESET and the plain point F is taken, one
    more evaluation (adaptive restart, as in O'Donoghue & Candes, FoCM
    2015). Every iterate is feasible, hence a valid lower bound, and
    the values do not decrease.

    The ascent stops at the first point whose weights, lifted on the
    small side of A, certify an upper bound of at most value / (1 -
    tol), ``tol`` >= 0: the gap is then closed at ``tol``, and
    ``gamma2_upper`` needs no interior point. At ``tol`` = 0 only an
    exact lift stops it. At each new best point, ``_lift_guess`` reads
    what that lift would certify from one or two matrix-vector
    products, and only when the guess meets the target is the lift
    made; the ascent stops only on the lift's own certified value.
    After a lift that misses, the next one waits for a restart (a
    rejected extrapolation). Otherwise it stops after DUAL_MAX_STEPS
    evaluations, and the closing lift of its best point, made unless
    its last lift was of that point, counts as one of them.

    Each evaluation keeps its small-side factorization, the eigenvectors
    and square-rooted eigenvalues of the Gram matrix or the SVD's U or V
    and Sigma. When its singular values have sigma_min > sqrt(GRAM_RCOND)
    * sigma_max, which always holds on the Gram path, the lift is
    ``_factored_lift``: the factors are built from that factorization,
    with no new one and no weight floor, and the lower bound is the
    point's own value at (x^2, y^2). Otherwise ``_lift`` floors the
    weights at 1e-12 and makes one SVD and one ``certify``
    eigendecomposition, and the lower bound is the SVD value there.

    The ascent runs on A / 4^k, with max|A| / 4^k in [1, 4), so that no
    value or factor underflows or overflows; the value and the lift's
    certificate are scaled back by 4^k, and the weights are those of A.

    Returns the lift of the best iterate as a ``_DualBound``: it
    unpacks as (value, p, q), the lift's weights and their value
    ``dual_value(a, p, q)`` up to float64 rounding, and carries the
    lift's certificate, which ``gamma2_upper`` takes as its upper bound.
    """
    a = as_matrix(a)
    _check_tol(tol)
    k = _quarter_exponent(a)
    if k is None:  # the zero matrix
        x, y = (np.full(side, 1.0 / np.sqrt(side)) for side in a.shape)
        return _DualBound(0.0, x * x, y * y, a, None, a, 0)
    unit = np.ldexp(a, -2 * k) if k else a
    cert, (value, p, q) = _ascent(unit, tol)
    if k:
        value, cert = math.ldexp(value, 2 * k), _scaled_up(cert, k)
    return _DualBound(value, p, q, a, cert, unit, k)


def _ascent(a: np.ndarray, tol: float) -> tuple[tuple, tuple[float, np.ndarray, np.ndarray]]:
    """The ascent of ``gamma2_lower_dual`` on a nonzero ``a``; returns
    the lift of its best iterate, ``_factored_lift``'s or else
    ``_lift``'s."""
    m, n = a.shape
    x, y = np.full(m, 1.0 / math.sqrt(m)), np.full(n, 1.0 / math.sqrt(n))
    # the closing lift of the best point is one of the steps
    steps = 1
    # cleared by the first Gram matrix that fails the conditioning
    # test: on a rank-deficient block every later one fails it too
    eig = min(m, n) > GRAM_MIN_SIDE

    def evaluate(x, y):
        """The value of (x, y), A o U V^T, and the small-side
        factorization (W, sigma) that ``_factored_lift`` reads."""
        nonlocal steps, eig
        steps += 1
        mat = x[:, None] * a * y
        if eig:
            polar = _gram_polar(mat)
            if polar is not None:
                return polar[0], a * polar[1], polar[2]
            eig = False
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        return float(s.sum()), a * u.dot(vt), (u if m <= n else vt.T, s)

    def lift_at(val, x, y, fact):
        return _factored_lift(a, val, x, y, *fact) or _lift(a, x * x, y * y)

    val, az, fact = evaluate(x, y)
    best = (val, x, y, fact)
    # the last lift and the iterate it lifted
    lift = lifted = None
    armed = True
    # the previous plain step, its x and y halves in one vector
    prev = None
    beta = DUAL_BETA_RESET
    # the extrapolation divides by zero weights and overflows on
    # entries that it then discards, and so does _lift_guess
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        while steps < DUAL_MAX_STEPS:
            ay = az.dot(y)
            if armed and best[1] is x:  # the current point is the best
                target = _target(val, tol)
                if _lift_guess(az, x, y, ay, val, target) <= target:
                    lift, lifted = lift_at(val, x, y, fact), x
                    if lift[0][0] <= target:
                        break
                    armed = False
            f = np.empty(m + n)
            fx, fy = f[:m], f[m:]
            np.maximum(ay, 0.0, out=fx)
            norm = math.sqrt(fx.dot(fx))
            if not 0.0 < norm < np.inf:
                break
            fx /= norm
            np.maximum(az.T.dot(fx), 0.0, out=fy)
            norm = math.sqrt(fy.dot(fy))
            if not 0.0 < norm < np.inf:
                break
            fy /= norm
            trial = None
            if prev is not None:
                # f o (f / prev)^beta is f where f = 0 < prev, and f
                # replaces its inf and nan where prev = 0
                e = f / prev
                e **= beta
                e *= f
                np.copyto(e, f, where=prev == 0.0)
                ex, ey = e[:m], e[m:]
                nx, ny = math.sqrt(ex.dot(ex)), math.sqrt(ey.dot(ey))
                if 0.0 < nx < np.inf and 0.0 < ny < np.inf:
                    ex /= nx
                    ey /= ny
                    trial = (ex, ey, *evaluate(ex, ey))
            rejected = trial is not None and trial[2] < val
            if trial is not None and not rejected:
                x, y, val, az, fact = trial
                beta = min(DUAL_BETA_GROWTH * beta, DUAL_BETA_MAX)
            elif steps < DUAL_MAX_STEPS:
                armed |= rejected
                beta = DUAL_BETA_RESET
                x, y = fx, fy
                val, az, fact = evaluate(x, y)
            else:
                break
            prev = f
            if val > best[0]:
                best = (val, x, y, fact)
    if lifted is not best[1]:
        lift = lift_at(*best)
    return lift


# ---------------------------------------------------------------------------
# Upper bounds: the lift and the refiner each give an ellipsoid shape
# (any scale), and ellipsoid.certify turns it into the certified value
# and the balanced factors.
# ---------------------------------------------------------------------------

def _floored(p: np.ndarray) -> np.ndarray:
    """p with its weights below 1e-12 raised to 1e-12, so that P^-1/2
    exists, renormalized."""
    pf = np.maximum(p, 1e-12)
    return pf / pf.sum()


def _lift(a: np.ndarray, p: np.ndarray, q: np.ndarray) -> tuple[tuple, tuple[float, np.ndarray, np.ndarray]]:
    """The primal lift of dual weights (p, q) on ``a``, on its small
    side, from one SVD and one ``certify``: the ascent's lift of a point
    that ``_factored_lift`` declines, one whose small side has a zero
    weight or lower rank. Flooring the weights at 1e-12 makes
    P^-1/2 exist, and ``certify`` scales the shape until every point of
    ``a`` fits, so the floor costs no soundness.

    At a dual optimum with singular decomposition
    P^1/2 A Q^1/2 = U Sigma V^T, complementary slackness pins the
    optimal SDP block to P^{-1/2} U Sigma U^T P^{-1/2}, and the
    column-side block to Q^{-1/2} V Sigma V^T Q^{-1/2}. Away from
    optimality these are merely candidate shapes; certification decides
    their worth. Returns the ``certify`` result (value, B, C) of the
    row-side shape against ``a`` when m <= n, else of the column-side
    shape against ``a.T``, whose factors the caller transposes, and the
    dual point (sum(Sigma), pf, qf) of the floored weights pf, qf that
    the SVD was made at: sum(Sigma) is ``dual_value(a, pf, qf)``.
    """
    pf, qf = _floored(p), _floored(q)
    rp, rq = np.sqrt(pf), np.sqrt(qf)
    u, s, vt = np.linalg.svd(rp[:, None] * a * rq, full_matrices=False)
    w, root, pts = (vt.T, rq, a.T) if a.shape[0] > a.shape[1] else (u, rp, a)
    cert = certify(pts, (w * s) @ w.T / root[:, None] / root)
    return cert, (float(s.sum()), pf, qf)


def _factored_lift(
    a: np.ndarray, val: float, x: np.ndarray, y: np.ndarray, w: np.ndarray, sigma: np.ndarray
) -> tuple[tuple, tuple[float, np.ndarray, np.ndarray]] | None:
    """The small-side lift of the ascent point (x, y), read off the
    factorization that evaluated it, with no new factorization.

    For diag(x) A diag(y) = U Sigma V^T of value ``val`` = sum(Sigma),
    ``w`` is U on a wide ``a`` and V on a tall one, and ``sigma`` holds
    Sigma. A = B C with B = diag(1/x) U Sigma^1/2 and
    C = Sigma^-1/2 U^T diag(x) A on a wide ``a``; on a tall one the same
    formulas on A^T with y give the factors that the caller transposes,
    as it does ``_lift``'s. With r and c the squared row norms of B and
    column norms of C, B t and C / t for t = (max c / max r)^1/4
    certify sqrt(max r * max c) (Linial & Shraibman, STOC 2007).
    Returns (value, B t, C / t) and (val, x^2, y^2), as ``_lift`` does,
    or None unless sigma_min > sqrt(GRAM_RCOND) * sigma_max: then the
    small-side weights are positive and far enough from 0 that B C
    reproduces A to float64 rounding.
    """
    if not sigma.min() > math.sqrt(GRAM_RCOND) * sigma.max():
        return None
    pts, side = (a, x) if a.shape[0] <= a.shape[1] else (a.T, y)
    root = np.sqrt(sigma)
    b = w * root / side[:, None]
    c = (w.T / root[:, None]).dot(side[:, None] * pts)
    r = float((b * b).sum(axis=1).max())
    cmax = float((c * c).sum(axis=0).max())
    t = math.sqrt(math.sqrt(cmax / r))
    return (math.sqrt(r * cmax), b * t, c / t), (val, x * x, y * y)


class _DualBound(tuple):
    """``gamma2_lower_dual``'s (value, p, q) for the matrix ``a``, which
    unpacks as a plain triple. ``cert`` is the certificate of the lift
    of these weights, made at unit scale and scaled to that of ``a``,
    None only for the zero matrix: ``_factored_lift``'s, at the best
    point's own weights, when its small side has full rank, and
    otherwise ``_lift``'s, whose weights are floored at 1e-12. ``unit``
    is a / 4^k, the matrix that the ascent ran on."""

    def __new__(
        cls, value: float, p: np.ndarray, q: np.ndarray, a: np.ndarray, cert: tuple | None, unit: np.ndarray, k: int
    ):
        bound = super().__new__(cls, (value, p, q))
        bound.a, bound.cert, bound.unit, bound.k = a, cert, unit, k
        return bound


def _zero_certificate(m: int, n: int) -> Gamma2Certificate:
    return Gamma2Certificate(
        upper=0.0,
        lower=0.0,
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


def gamma2_upper(
    a,
    *,
    tol: float = DEFAULT_TOL,
    dual: _DualBound | None = None,
) -> tuple[float, np.ndarray, np.ndarray, bool]:
    """Certified upper bound on gamma_2(a).

    Returns (value, B, C, converged), as ``certify`` does plus the
    flag: A = B C with balanced norm bounds, so E(value * B B^T)
    contains every column of ``a`` and has height value. ``converged`` is False when value
    is above lower / (1 - tol), with ``tol`` >= 0, after the refiner (the
    value is still a valid upper bound).

    The bound is the ascent's certified small-side lift of its dual
    weights, and only when that misses lower / (1 - tol) and min(m, n) <=
    IP_SIDE_CAP, the interior point on the same side, kept if lower.
    The interior point runs on the ascent's A / 4^k, with max|A| / 4^k
    in [1, 4), and its certificate is scaled back.

    ``dual`` is either None, and the dual ascent runs with this ``tol``,
    or ``gamma2_lower_dual``'s own result for this matrix, which spares
    re-running it; anything else raises TypeError. Its value is the
    lower bound, and the certificate of its lift is the bound before
    refinement: this function never lifts. When ``a`` is the very array
    that the ascent validated, it is not validated again.
    """
    _check_tol(tol)
    if dual is None:
        dual = gamma2_lower_dual(a, tol=tol)
    elif not isinstance(dual, _DualBound):
        raise TypeError("dual must be gamma2_lower_dual's result for this matrix")
    elif dual.a is not a:
        a = as_matrix(a)
        if not np.array_equal(dual.a, a):
            raise TypeError("dual must be gamma2_lower_dual's result for this matrix")
    a = dual.a
    m, n = a.shape
    lower, best = dual[0], dual.cert
    if best is None:  # the zero matrix
        return 0.0, np.zeros((m, 1)), np.zeros((1, n)), True
    target = _target(lower, tol)

    # interior-point refinement on the same small side; it returns the
    # certificate of the first barrier stage that meets the target, or
    # of its last stage
    if best[0] > target and min(m, n) <= IP_SIDE_CAP:
        unit, k = dual.unit, dual.k
        try:
            refined = minimum_height_ellipsoid(unit.T if m > n else unit, target=math.ldexp(target, -2 * k))
            if math.ldexp(refined[0], 2 * k) < best[0]:
                best = _scaled_up(refined, k) if k else refined
        except (InteriorPointError, np.linalg.LinAlgError):
            pass

    value, b, c = best
    if m > n:  # the certificate encloses the rows of A
        b, c = c.T, b.T
    return float(value), b, c, value <= target


def _support_blocks(a: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(rows, cols) of each connected component of the bipartite graph
    whose edges are the nonzeros of a, ordered by first row. All-zero
    rows and columns belong to no block.

    A component grows from one row by products with the 0/1 matrix of
    the nonzeros: the columns that its rows reach, then the rows that
    those columns reach. Its rows only grow, so it is whole once their
    count stops changing."""
    nz = (a != 0).astype(float)
    unseen = nz.any(axis=1)
    blocks = []
    while unseen.any():
        rows = np.zeros(a.shape[0])
        rows[np.argmax(unseen)] = 1.0
        count = 1
        while True:
            # the products count paths; their signs are the 0/1 sets
            cols = np.sign(rows @ nz)
            rows = np.sign(nz @ cols)
            grown = np.count_nonzero(rows)
            if grown == count:
                break
            count = grown
        rows = rows > 0.0
        unseen &= ~rows
        blocks.append((np.flatnonzero(rows), np.flatnonzero(cols)))
    return blocks


def _assemble(a: np.ndarray, parts) -> tuple[tuple, tuple]:
    """((lower, p, q), (upper, B, C)) of A from the solved blocks.

    ``parts`` holds (rows, cols, (lower, p, q), (upper, B, C)) for
    blocks A[rows][:, cols] on disjoint rows and columns that hold
    every nonzero of A. The factors are block-diagonal, so upper * B B^T
    is the block-diagonal of the blocks' ellipsoids and the upper bound
    is the max of the blocks'. A block's B is scaled by
    sqrt(its upper / upper) and its C by the inverse, so that upper
    * B B^T keeps each block's ellipsoid, and no row of B or column of
    C has a norm above sqrt(upper). The weights are those of the block with the
    best lower bound, zero elsewhere, and certify that lower bound for
    A.
    """
    m, n = a.shape
    k = sum(up[1].shape[1] for *_, up in parts)
    upper = max(up[0] for *_, up in parts)
    b = np.zeros((m, k))
    c = np.zeros((k, n))
    at = 0
    for rows, cols, _, (value, bb, cc) in parts:
        width = bb.shape[1]
        b[rows, at : at + width] = bb * math.sqrt(value / upper)
        c[at : at + width, cols] = cc * math.sqrt(upper / value)
        at += width
    rows, cols, (lower, pp, qq), _ = max(parts, key=lambda part: part[2][0])
    p = np.zeros(m)
    p[rows] = pp
    q = np.zeros(n)
    q[cols] = qq
    return (lower, p, q), (upper, b, c)


def _solve_block(block: np.ndarray, tol: float) -> tuple[tuple, tuple]:
    """((lower, p, q), (upper, B, C)) of one block: the dual ascent, then
    the upper-bound stack seeded with its weights."""
    dual = gamma2_lower_dual(block, tol=tol)
    lower, p, q = dual
    upper, b, c, _ = gamma2_upper(block, tol=tol, dual=dual)
    # weak duality must hold between certified quantities
    if lower > upper * (1.0 + 10.0 * max(tol, 1e-12)):
        raise CertificateError(
            f"certified lower {lower} exceeds certified upper {upper}"
        )
    lower = min(lower, upper)  # guard fp-rounding at closed gaps
    return (lower, p, q), (upper, b, c)


def gamma2(a, *, tol: float = DEFAULT_TOL) -> Gamma2Certificate:
    """Two-sided certified gamma_2 computation.

    Splits A into the blocks of its row-column support graph, solves
    each block by the dual ascent and then the upper-bound stack seeded
    with its weights, and re-validates the one assembled certificate
    before returning it. gamma_2 of a block-diagonal matrix is the max
    over its blocks, so each block's ascent only has to find its own
    optimum. A block that covers every row and column is A itself: it
    is solved as given, and its factors and weights are the
    certificate. ``tol`` >= 0 is the relative gap tolerance.

    Both solvers work on the block divided by 4^k, with its max |entry|
    / 4^k in [1, 4), and scale back: gamma_2(4^k X) = 4^k gamma_2(X),
    with the factors 2^k B and 2^k C and the same weights. So no bound
    or factor underflows or overflows on a matrix far from unit scale,
    and ``a`` is never changed.
    """
    a = as_matrix(a)
    m, n = a.shape
    _check_tol(tol)
    blocks = _support_blocks(a)
    if not blocks:  # the zero matrix
        return _zero_certificate(m, n)
    if blocks[0][0].size == m and blocks[0][1].size == n:
        (lower, p, q), (upper, b, c) = _solve_block(a, tol)
    else:
        parts = []
        for rows, cols in blocks:
            # the block keeps A's memory order, on which BLAS rounding depends
            block = np.empty_like(a, shape=(rows.size, cols.size))
            block[...] = a[np.ix_(rows, cols)]
            parts.append((rows, cols, *_solve_block(block, tol)))
        (lower, p, q), (upper, b, c) = _assemble(a, parts)
    cert = Gamma2Certificate(
        upper=upper,
        lower=lower,
        factor_left=b,
        factor_right=c,
        dual_p=p,
        dual_q=q,
        converged=bool(upper <= _target(lower, tol)),
    )
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
    if math.isnan(cert.upper) or not math.isfinite(cert.lower):
        raise CertificateError(f"lower {cert.lower} must be finite, upper {cert.upper} a number")
    if not all(np.isfinite(x).all() for x in (p, q, b, c)):
        raise CertificateError("weights or factors have non-finite entries")

    report: dict[str, float] = {}
    if not (cert.lower <= cert.upper + CHECK_RTOL * cert.upper):
        raise CertificateError(
            f"lower {cert.lower} > upper {cert.upper} + slack"
        )
    report["weak_duality_slack"] = cert.upper - cert.lower

    # the weights first: a bound scaled below what they certify is
    # reported as such, not as the factor-norm excess it also causes
    try:
        lb = _dual_value(a, p, q)
    except ValueError as err:  # negative weights, or sums off 1
        raise CertificateError(f"dual {err}") from None
    if cert.lower > lb + CHECK_RTOL * cert.upper:
        raise CertificateError(
            f"stored lower {cert.lower} not reproduced by weights ({lb})"
        )
    fp_slack = DUAL_FP_SLACK * np.finfo(float).eps * (m + n) * lb
    if lb > cert.upper + fp_slack:
        raise CertificateError(
            f"weights certify {lb}, above upper {cert.upper}"
        )
    report["dual_value"] = lb

    # the factors are checked at the solve's unit scale, as B / 2^k,
    # C / 2^k, A / 4^k and upper / 4^k, where no norm underflows or
    # overflows; every check compares a ratio, which the scaling keeps
    k = _quarter_exponent(a) or 0
    upper = math.ldexp(cert.upper, -2 * k)
    if k:
        a, b, c = np.ldexp(a, -2 * k), np.ldexp(b, -k), np.ldexp(c, -k)
    resid = float(np.linalg.norm(b @ c - a))
    fro = float(np.linalg.norm(a))
    if resid > CHECK_RTOL * max(fro, 1e-300):
        raise CertificateError(
            f"factorization residual {math.ldexp(resid, 2 * k):.3e} above {CHECK_RTOL:.1e} * ||A||_F"
        )
    report["factorization_residual"] = math.ldexp(resid, 2 * k)

    # E(upper * B B^T) has height sqrt(upper * max_i ||B_i||^2), at most
    # upper when every ||B_i||^2 <= upper; with upper = 0 it is {0}
    row = float((b * b).sum(axis=1).max())
    if upper > 0 and row > upper * (1.0 + CHECK_RTOL):
        raise CertificateError(
            f"factor norms: max row norm^2 of B {math.ldexp(row, 2 * k)} above upper {cert.upper}"
        )
    report["worst_row_norm"] = row / upper if upper > 0 else 0.0
    # each column a_j = B c_j lies in E(upper * B B^T) when ||c_j||^2 <=
    # upper: z^T a_j = (B^T z)^T c_j <= ||c_j|| * sqrt(z^T B B^T z)
    col = float((c * c).sum(axis=0).max())
    worst = col / upper if upper > 0 else (np.inf if col > 0 else 0.0)
    if fro > 0 and worst > 1.0 + CHECK_RTOL:
        raise CertificateError(
            f"column membership value {worst} above 1 + {CHECK_RTOL:.1e}"
        )
    report["worst_membership"] = worst
    return report


# ---------------------------------------------------------------------------
# Certificate text bundles: key=value header lines, then the matrices
# B, C, p, q in the matrix text format, each introduced by a "# <name>"
# section line. Sections of other names are ignored, such as the "# D"
# of older files: the factors and the weights prove everything.
# ---------------------------------------------------------------------------


def write_certificate(path, cert: Gamma2Certificate) -> None:
    with atomic_write(path) as fh:
        fh.write(f"upper={cert.upper:.17g}\n")
        fh.write(f"lower={cert.lower:.17g}\n")
        fh.write(f"gap={cert.gap:.17g}\n")
        fh.write(f"converged={1 if cert.converged else 0}\n")
        for name, mat in (
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
        factor_left=parse_block("B"),
        factor_right=parse_block("C"),
        dual_p=parse_block("p").reshape(-1),
        dual_q=parse_block("q").reshape(-1),
        converged=bool(int(header.get("converged", 0.0))),
    )
