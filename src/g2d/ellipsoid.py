"""0-centered ellipsoids in dual (support-function) form.

An ellipsoid is described by a PSD matrix D through

    E(D) = { z : z^T x <= sqrt(x^T D x) for all x }
         = { z in range(D) : z^T D^+ z <= 1 },

so for invertible D it is {z : z^T D^{-1} z <= 1}. The L-infinity norm
of E(D) (largest coordinate of any member) is max_i sqrt(D_ii).
Certificates store D in factor form, D = upper * B B^T, and prove
membership from the factors; ``membership_value`` is the reference test
on an explicit D.

``certify`` turns any candidate shape into a certificate for the
columns of a matrix A: it scales the shape until every column fits and
returns the value max_i sqrt(D_ii) and the balanced factors A = B C
with D = value * B B^T, all from one eigendecomposition. Every upper
bound on gamma_2 in the package comes from it.
"""

from __future__ import annotations

import numpy as np

from .linalg import SYM_RTOL, as_matrix

# Eigenvalues below EIG_CLIP_RTOL * lambda_max in magnitude are noise:
# negatives down to -EIG_CLIP_RTOL * lambda_max count as zero,
# anything more negative is rejected as not PSD.
EIG_CLIP_RTOL = 1e-9

# Rank cutoff for membership tests: directions with eigenvalue below
# RANGE_RTOL * lambda_max count as outside the range of D.
RANGE_RTOL = 1e-10


def membership_value(d, v) -> float | np.ndarray:
    """The quadratic form v^T D^+ v of the PSD matrix D, with near-null
    directions charged at the rank cutoff (1.0 is the boundary of E(D)).
    For a matrix v, the array of the forms of its columns, from one
    product with the eigenvectors.

    This is the reference membership test, independent of the factor
    form that certificates store. Raises ValueError unless D is square,
    symmetric up to SYM_RTOL and PSD up to EIG_CLIP_RTOL.
    """
    d = as_matrix(d, name="d")
    if d.shape[0] != d.shape[1]:
        raise ValueError(f"ellipsoid matrix must be square, got {d.shape}")
    if np.linalg.norm(d - d.T) > SYM_RTOL * max(np.linalg.norm(d), 1e-300):
        raise ValueError("ellipsoid matrix is not symmetric")
    lam, vec = np.linalg.eigh(0.5 * (d + d.T))
    lmax = float(lam[-1])
    if lmax < 0.0:
        raise ValueError("ellipsoid matrix is negative definite")
    floor = -EIG_CLIP_RTOL * lmax
    if float(lam[0]) < floor - 1e-300:
        raise ValueError(f"eigenvalue {lam[0]:.3e} below clip floor {floor:.3e}; not PSD")
    v = np.asarray(v, dtype=float)
    if v.ndim != 2:
        v = v.reshape(-1)
    if lmax <= 0.0:
        values = np.where(np.sum(v * v, axis=0) > 0.0, np.inf, 0.0)
    else:
        cutoff = np.maximum(lam, RANGE_RTOL * lmax)
        w = vec.T @ v
        values = np.sum(w * w / cutoff.reshape((-1,) + (1,) * (v.ndim - 1)), axis=0)
    return values if v.ndim == 2 else float(values)


# Ridge added to a candidate shape before certification, relative to its
# largest eigenvalue: it makes the certified ellipsoid full rank.
_REG_RTOL = 1e-12


def certify(a: np.ndarray, shape: np.ndarray):
    """The certificate an ellipsoid shape gives for the columns of a.

    Returns (value, B, C) from one eigendecomposition of the
    symmetrized shape V (L + reg) V^T, with the ridge reg making it full
    rank. With eta the largest quadratic form of a column against it,
    D = eta V (L + reg) V^T contains every column of a and has max
    diag D = value^2, so value bounds gamma_2(a) from above; D, of the
    shape's order, is formed only for its diagonal and not returned.
    The factors B = V S and C = S^-1 V^T a with
    S = diag(sqrt(eta (L + reg) / value)) reproduce a,
    value * B B^T = D, and every row of B and column of C
    has norm at most sqrt(value). A shape with no positive eigenvalue
    certifies nothing: (inf, None, None).
    """
    shape = 0.5 * (shape + shape.T)
    lam, vec = np.linalg.eigh(shape)
    lmax = float(lam[-1]) if lam.size else 0.0
    if lmax <= 0.0:
        return np.inf, None, None
    lam = np.maximum(lam, 0.0) + _REG_RTOL * lmax
    w = vec.T @ a
    eta = float((w * w / lam[:, None]).sum(axis=0).max())
    if eta <= 0.0:  # a == 0
        m, n = a.shape
        return 0.0, np.zeros((m, 1)), np.zeros((1, n))
    # max diag D = eta * max diag V (L + reg) V^T: rounding keeps order
    value = float(np.sqrt(eta * float(((vec * lam) @ vec.T).diagonal().max())))
    root = np.sqrt(eta * lam / value)
    return value, vec * root, w / root[:, None]
