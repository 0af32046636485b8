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

``certify`` turns any candidate shape into a certificate for the
columns of a matrix A: it scales the shape until every column fits and
returns the value max_i sqrt(D_ii) and the balanced factors A = B C
with D = value * B B^T, all from one eigendecomposition. Every upper
bound on gamma_2 in the package comes from it.
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
    """Dual-form ellipsoid E(D). D is checked for shape and symmetry and
    symmetrized on build; its eigendecomposition, which refuses a D that
    is not PSD, is made on the first use of ``spectrum`` and cached."""

    d: np.ndarray

    def __post_init__(self):
        d = as_matrix(self.d, name="d")
        if d.shape[0] != d.shape[1]:
            raise ValueError(f"ellipsoid matrix must be square, got {d.shape}")
        fro = np.linalg.norm(d)
        if np.linalg.norm(d - d.T) > SYM_RTOL * max(fro, 1e-300):
            raise ValueError("ellipsoid matrix is not symmetric")
        object.__setattr__(self, "d", 0.5 * (d + d.T))

    @property
    def dim(self) -> int:
        return self.d.shape[0]

    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """The eigenvalues of D, clipped at 0, and its eigenvectors.
        Raises ValueError unless D is PSD up to EIG_CLIP_RTOL."""
        if "_spectrum" not in self.__dict__:
            lam, vec = np.linalg.eigh(self.d)
            lmax = float(lam[-1]) if lam.size else 0.0
            if lmax < 0.0:
                raise ValueError("ellipsoid matrix is negative definite")
            floor = -EIG_CLIP_RTOL * lmax
            if float(lam[0]) < floor - 1e-300:
                raise ValueError(
                    f"eigenvalue {lam[0]:.3e} below clip floor {floor:.3e}; not PSD"
                )
            object.__setattr__(self, "_spectrum", (np.clip(lam, 0.0, None), vec))
        return self._spectrum


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
    return membership_value(e, v) <= 1.0 + tol


def membership_value(e: Ellipsoid, v) -> float | np.ndarray:
    """The quadratic form v^T D^+ v with near-null directions charged
    at the rank cutoff (1.0 is the boundary). For a matrix v, the array
    of the forms of its columns, from one product with the eigenvectors."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 2:
        v = v.reshape(-1)
    lam, vec = e.spectrum()
    lmax = float(lam[-1])
    if lmax <= 0.0:
        values = np.where(np.sum(v * v, axis=0) > 0.0, np.inf, 0.0)
    else:
        cutoff = np.maximum(lam, RANGE_RTOL * lmax)
        w = vec.T @ v
        values = np.sum(w * w / cutoff.reshape((-1,) + (1,) * (v.ndim - 1)), axis=0)
    return values if v.ndim == 2 else float(values)


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
