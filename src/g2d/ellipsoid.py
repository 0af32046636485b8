"""0-centered ellipsoids in dual (support-function) form.

An ellipsoid is described by a PSD matrix D through

    E(D) = { z : z^T x <= sqrt(x^T D x) for all x }
         = { z in range(D) : z^T D^+ z <= 1 },

so for invertible D it is {z : z^T D^{-1} z <= 1}. This representation
composes well with the bound calculus:

* the L-infinity norm of E(D) (largest coordinate of any member) is
  max_i sqrt(D_ii);
* E(D1 + D2) contains both E(D1) and E(D2), which powers the
  union bound;
* a block-diagonal D contains the block-wise embeddings of its parts,
  which powers the disjoint-support bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SYM_RTOL, as_matrix

# Eigenvalues below EIG_CLIP_RTOL * lambda_max in magnitude are noise:
# negatives down to -EIG_CLIP_RTOL * lambda_max are clipped to zero,
# anything more negative is rejected as not PSD.
EIG_CLIP_RTOL = 1e-9

# Rank cutoff for membership tests: directions with eigenvalue below
# RANGE_RTOL * lambda_max count as outside the range of D.
RANGE_RTOL = 1e-10


@dataclass(frozen=True)
class Ellipsoid:
    """Dual-form ellipsoid E(D); D is validated and symmetrized on build."""

    d: np.ndarray

    def __post_init__(self):
        d = as_matrix(self.d, name="d")
        if d.shape[0] != d.shape[1]:
            raise ValueError(f"ellipsoid matrix must be square, got {d.shape}")
        fro = np.linalg.norm(d)
        if np.linalg.norm(d - d.T) > SYM_RTOL * max(fro, 1e-300):
            raise ValueError("ellipsoid matrix is not symmetric")
        d = 0.5 * (d + d.T)
        lam, vec = np.linalg.eigh(d)
        lmax = float(lam[-1]) if lam.size else 0.0
        if lmax < 0.0:
            raise ValueError("ellipsoid matrix is negative definite")
        floor = -EIG_CLIP_RTOL * max(lmax, 0.0)
        if float(lam[0]) < floor - 1e-300:
            raise ValueError(
                f"eigenvalue {lam[0]:.3e} below clip floor {floor:.3e}; not PSD"
            )
        lam = np.clip(lam, 0.0, None)
        d = (vec * lam) @ vec.T
        d = 0.5 * (d + d.T)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "_lam", lam)
        object.__setattr__(self, "_vec", vec)

    @property
    def dim(self) -> int:
        return self.d.shape[0]

    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        return self._lam, self._vec


def ellipsoid_inf_norm(e: Ellipsoid) -> float:
    """sup over z in E(D) of ||z||_inf, which is max_i sqrt(D_ii)."""
    return float(np.sqrt(max(np.max(np.diag(e.d)), 0.0)))


def ellipsoid_contains(e: Ellipsoid, v, *, tol: float = 1e-9) -> bool:
    """Whether v lies in E(D), within relative slack tol.

    Membership needs v in range(D) (up to the rank cutoff) and
    v^T D^+ v <= 1 + tol. Components along near-null directions are
    charged at the cutoff eigenvalue, so genuine outliers fail loudly
    while eigensolver noise does not.
    """
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape[0] != e.dim:
        raise ValueError(f"vector has dim {v.shape[0]}, ellipsoid {e.dim}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    if float(v @ v) == 0.0:
        return True
    lam, vec = e.spectrum()
    lmax = float(lam[-1])
    if lmax <= 0.0:
        return False
    cutoff = RANGE_RTOL * lmax
    w = vec.T @ v
    quad = float(np.sum(w * w / np.maximum(lam, cutoff)))
    return quad <= 1.0 + tol


def membership_value(e: Ellipsoid, v) -> float:
    """The quadratic form v^T D^+ v with near-null directions charged
    at the rank cutoff (1.0 is the boundary)."""
    v = np.asarray(v, dtype=float).reshape(-1)
    lam, vec = e.spectrum()
    lmax = float(lam[-1])
    if lmax <= 0.0:
        return np.inf if float(v @ v) > 0.0 else 0.0
    cutoff = RANGE_RTOL * lmax
    w = vec.T @ v
    return float(np.sum(w * w / np.maximum(lam, cutoff)))


def ellipsoid_sum(e1: Ellipsoid, e2: Ellipsoid) -> Ellipsoid:
    """E(D1 + D2); contains the union of E(D1) and E(D2).

    (For z in E(D1): z^T x <= sqrt(x^T D1 x) <= sqrt(x^T (D1+D2) x).)
    Its squared inf-norm is at most the sum of the parts' squares.
    """
    if e1.dim != e2.dim:
        raise ValueError(f"dimension mismatch: {e1.dim} vs {e2.dim}")
    return Ellipsoid(e1.d + e2.d)


def block_diag_ellipsoid(e1: Ellipsoid, e2: Ellipsoid) -> Ellipsoid:
    """Block-diagonal combination for systems on disjoint coordinates.

    Contains (z1, 0) for z1 in E(D1) and (0, z2) for z2 in E(D2); its
    inf-norm is the max of the parts'.
    """
    d1, d2 = e1.dim, e2.dim
    d = np.zeros((d1 + d2, d1 + d2))
    d[:d1, :d1] = e1.d
    d[d1:, d1:] = e2.d
    return Ellipsoid(d)


# Ridge added to a candidate shape before certification, relative to its
# largest eigenvalue: it makes the certified ellipsoid full rank.
_REG_RTOL = 1e-12


def _certified_value(a: np.ndarray, d0: np.ndarray) -> tuple[float, np.ndarray]:
    """Best upper bound on gamma_2 obtainable from the ellipsoid shape d0.

    Rescales d0 so that every column of a fits and reads off the value
    sqrt(eta * max diag). Returns (value, d_scaled) where
    d_scaled = eta * (d0 + reg I) contains every column of a with
    max diag = value^2.
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
