"""Interior-point solver for the minimum-height enclosing ellipsoid program.

The factorization norm of a matrix equals the smallest L-infinity norm of
a 0-centered ellipsoid containing its columns. Writing the ellipsoid as
{x : x^T M x <= 1} with M positive definite, that reads

    minimize   t
    subject to p_j^T M p_j <= 1   for every point p_j   (containment)
               (M^{-1})_ii <= t   for every axis i      (height)
               M > 0,

a convex program in (M, t): the containment constraints are linear and
(M^{-1})_ii is matrix-fractional. The optimum satisfies
gamma_2 = sqrt(t*), and D = (M*)^{-1} is the optimal ellipsoid in dual
form (max diagonal = t*).

This module solves the program by a short-step log-barrier method:

    minimize theta * t
             - sum_j log(1 - p_j^T M p_j)
             - sum_i log det [[M, e_i], [e_i^T, t]]

with the Schur identity log det [[M, e_i], [e_i^T, t]] =
log det M + log(t - (M^{-1})_ii), Newton steps on (svec(M), t), and a
geometric theta schedule. The barrier parameter is
nu = d(d+1) + #points, so the duality gap after a stage is at most
nu / theta.

A stage ends when the Newton decrement falls below 1e-11 or at the
numerical floor: no step passes the line search, or an accepted step
moves M by at most FLOOR_RTOL relative in Frobenius norm.
``ellipsoid.certify`` then turns the stage's W = M^{-1} into its
certificate (value, B, C). The solve returns the certificate of the
first stage that meets either of two rules:

* the certified stop: the certified value is at most the caller's
  ``target``;
* the barrier stop: nu / theta < BARRIER_RTOL * t, which alone applies
  when ``target`` is 0.

Each Newton step assembles the svec Hessian of the log-det terms in one
call, sym_kron(W, d W + W diag(2/r) W), gathered from the rows and
columns of its two factors, so no d^4 tensor is built, and solves the
Newton system with one ``np.linalg.solve``. The line search computes
the barrier pieces of each trial point, and the accepted point passes
them on to the next step.

Dimension guidance: the Newton system is dense of order d(d+1)/2 + 1,
so this is intended for the small side of the input (d up to a few
dozen); the number of points only enters through cheap accumulations.
Fully deterministic.
"""

from __future__ import annotations

import numpy as np

from .ellipsoid import certify

_SQ2 = np.sqrt(2.0)


def svec(s: np.ndarray) -> np.ndarray:
    """Upper-triangle vectorization with sqrt(2) off-diagonal scaling.

    Isometric: <S, T>_F = svec(S) . svec(T) for symmetric S, T.
    """
    d = s.shape[0]
    iu = np.triu_indices(d)
    w = np.where(iu[0] == iu[1], 1.0, _SQ2)
    return s[iu] * w


def unsvec(x: np.ndarray, d: int) -> np.ndarray:
    iu = np.triu_indices(d)
    w = np.where(iu[0] == iu[1], 1.0, 1.0 / _SQ2)
    s = np.zeros((d, d))
    s[iu] = x * w
    return s + s.T - np.diag(np.diag(s))


def sym_kron(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """svec-matrix of the operator Delta -> (P Delta Q + Q Delta P) / 2.

    Its quadratic form is svec(Delta)^T (P (x)_s Q) svec(Delta)
    = tr(Delta P Delta Q). Entry (ij, kl), for svec positions i <= j
    and k <= l, is (p_ik q_jl + p_il q_jk + q_ik p_jl + q_il p_jk) / 4
    times the two svec weights. Each product is gathered from the
    rows i or j and the columns k or l of P and Q, so no d^4 tensor is
    built.
    """
    d = p.shape[0]
    iu, ju = np.triu_indices(d)
    w = np.where(iu == ju, 1.0, _SQ2)
    pi, pj, qi, qj = p[iu], p[ju], q[iu], q[ju]
    m = pi[:, iu] * qj[:, ju] + pi[:, ju] * qj[:, iu] + qi[:, iu] * pj[:, ju] + qi[:, ju] * pj[:, iu]
    return m * (np.outer(w, w) / 4.0)


class InteriorPointError(RuntimeError):
    """The barrier method left its domain or failed to progress."""


# Barrier schedule: theta grows by THETA_MULT after each stage; a stage
# takes at most MAX_NEWTON_PER_STAGE Newton steps, the solve at most
# MAX_STAGES stages. BARRIER_RTOL and FLOOR_RTOL set the stops above.
THETA_MULT = 8.0
MAX_NEWTON_PER_STAGE = 60
MAX_STAGES = 40
BARRIER_RTOL = 1e-11
FLOOR_RTOL = 1e-13


def minimum_height_ellipsoid(
    points: np.ndarray,
    *,
    target: float = 0.0,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Solve the program above for a d x N array of points (columns).

    Returns ``certify(points, W)``, that is (value, B, C), for the
    W = M^{-1} of the stage the solve stopped on: value >= sqrt(t*)
    bounds gamma_2 of the points from above, B C = points, and
    E(value * B B^T) holds every point. A positive ``target`` ends the
    solve after the first barrier stage whose value is at most
    ``target``; otherwise it runs to the barrier stop.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array (columns = points)")
    d, n = pts.shape
    if d < 1 or n < 1:
        raise ValueError(f"bad point array shape {pts.shape}")
    aj = pts.T  # rows are points
    dim = d * (d + 1) // 2
    nu = d * (d + 1) + n
    iu = np.triu_indices(d)
    wgt = np.where(iu[0] == iu[1], 1.0, _SQ2)

    sq_norms = (aj * aj).sum(axis=1)
    smax = float(sq_norms.max())
    if smax == 0.0:
        # all points at the origin: certify's zero certificate
        return 0.0, np.zeros((d, 1)), np.zeros((1, n))

    # strictly feasible start
    m_mat = np.eye(d) / (smax + 1.0)
    t = (smax + 1.0) * 1.5
    # svec of p_j p_j^T for all points, for gradient/Hessian accumulation
    outer_flat = aj[:, iu[0]] * aj[:, iu[1]] * wgt[None, :]

    def parts(m_try, t_try):
        """Domain check plus barrier pieces; None when outside the domain.

        Returns (W, r, c, logs) with logs = (d log det M, sum log r,
        sum log c), the theta-free terms of the objective the line
        search monitors.
        """
        try:
            chol = np.linalg.cholesky(m_try)
        except np.linalg.LinAlgError:
            return None
        w = np.linalg.inv(m_try)
        r = t_try - np.diag(w)
        c = 1.0 - ((aj @ m_try) * aj).sum(axis=1)
        if (r <= 0.0).any() or (c <= 0.0).any():
            return None
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
        return w, r, c, (d * logdet, float(np.sum(np.log(r))), float(np.sum(np.log(c))))

    def objective(theta_now, t_now, logs):
        """theta * t - d log det M - sum log r - sum log c."""
        return theta_now * t_now - logs[0] - logs[1] - logs[2]

    # the parts of the current iterate; each accepted line-search point
    # carries its own into the next step
    pp = parts(m_mat, t)
    if pp is None:
        raise InteriorPointError("iterate left the barrier domain")
    theta = 1.0
    for _stage in range(MAX_STAGES):
        for _ in range(MAX_NEWTON_PER_STAGE):
            w, r, c, logs = pp
            f_cur = objective(theta, t, logs)
            grad_m = -d * w - (w * (1.0 / r)) @ w + (aj.T * (1.0 / c)) @ aj
            g = np.concatenate([svec(grad_m), [theta - float(np.sum(1.0 / r))]])

            # Hessian blocks; s_i = W e_i, so
            #   sum_i (2/r_i) s_i s_i^T = W diag(2/r) W,
            # and sym_kron is bilinear, so the two log-det terms
            # d K(W, W) + K(W, S~) are one K(W, d W + S~)
            stilde = (w * (2.0 / r)) @ w
            h11 = sym_kron(w, d * w + stilde)
            wt = w.T  # row i is s_i
            ui = wt[:, iu[0]] * wt[:, iu[1]] * wgt[None, :]  # svec(s_i s_i^T)
            h11 += (ui.T * (1.0 / r**2)) @ ui
            h11 += (outer_flat.T * (1.0 / c**2)) @ outer_flat
            hcross = ui.T @ (1.0 / r**2)
            h = np.empty((dim + 1, dim + 1))
            h[:dim, :dim] = h11
            h[:dim, dim] = hcross
            h[dim, :dim] = hcross
            h[dim, dim] = float(np.sum(1.0 / r**2))

            h[np.diag_indices(dim + 1)] += 1e-13 * np.trace(h) / (dim + 1)
            delta = -np.linalg.solve(h, g)
            decrement = float(-g @ delta)
            if decrement < 1e-11:
                break
            dm = unsvec(delta[:dim], d)
            dt = float(delta[dim])

            # damped Newton: full steps only inside the quadratic
            # convergence region, 1 / (1 + lambda) otherwise, then
            # Armijo backtracking on the barrier objective
            lam = np.sqrt(decrement)
            step = 1.0 if lam <= 0.25 else 1.0 / (1.0 + lam)
            while step > 1e-14:
                m_try, t_try = m_mat + step * dm, t + step * dt
                pp_new = parts(m_try, t_try)
                if pp_new is not None and objective(theta, t_try, pp_new[3]) <= f_cur - 0.25 * step * decrement:
                    break
                step *= 0.5
            else:
                break  # no step passes: at the numerical floor
            floor = step * np.linalg.norm(dm) <= FLOOR_RTOL * np.linalg.norm(m_mat)
            m_mat, t, pp = m_try, t_try, pp_new
            if floor:
                break
        cert = certify(pts, pp[0])
        if cert[0] <= target or nu / theta < BARRIER_RTOL * max(abs(t), 1.0):
            break
        theta *= THETA_MULT
    return cert
