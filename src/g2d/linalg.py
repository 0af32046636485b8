"""Dense linear algebra kernels and structured matrices.

Everything downstream (set systems, the gamma_2 solver, the oracles)
funnels through this module, so the contracts here are deliberately
narrow: real dense matrices as float64 numpy arrays, loud failures on
non-finite input, and explicit size caps instead of silent truncation.

Structured families used throughout:

* ``tn_matrix(n)``: the lower-triangular all-ones matrix T_n, the
  incidence matrix of initial segments {1..j} of [n].
* ``sn_tridiagonal(n)``: the tridiagonal inverse of T_n T_n^T.
* ``circulant_interval(n)``: the incidence matrix of the 2n cyclic
  intervals of length n+1 on Z_{2n}, which is the circulant block
  matrix [[T_n, T_n^T], [T_n^T, T_n]].
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# Hard cap on the entry count of any materialized product matrix.
KRON_ENTRY_CAP = 40_000_000

# Relative spectral tolerance: singular values below SVD_RTOL * sigma_max
# are treated as zero by rank-sensitive consumers.
SVD_RTOL = 1e-10

# Relative asymmetry tolerated before symmetric eigensolves refuse input.
SYM_RTOL = 1e-9


class RefusedError(ValueError):
    """An input is over a size cap or an enumeration budget.

    The input may be valid; the package declines the work rather than
    truncating it. The CLI maps this type, and only this type, to exit
    code 3.
    """


def as_matrix(a, *, name: str = "matrix") -> np.ndarray:
    """Validate and convert to a 2-d float64 array with finite entries."""
    out = np.asarray(a, dtype=float)
    if out.ndim == 1:
        out = out.reshape(1, -1)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={out.ndim}")
    if out.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} has non-finite entries")
    return out


def as_weights(a: np.ndarray, p, q) -> tuple[np.ndarray, np.ndarray]:
    """Row and column weights for ``a`` as float vectors; raises
    ValueError unless their lengths match its shape and their entries
    are finite and nonnegative (up to -1e-12)."""
    p = np.asarray(p, dtype=float).reshape(-1)
    q = np.asarray(q, dtype=float).reshape(-1)
    if p.shape[0] != a.shape[0] or q.shape[0] != a.shape[1]:
        raise ValueError("weight lengths must match the matrix shape")
    if not (np.isfinite(p).all() and np.isfinite(q).all()):
        raise ValueError("weights must be finite")
    if (p < -1e-12).any() or (q < -1e-12).any():
        raise ValueError("weights must be nonnegative")
    return p, q


def kron(a, b, *, max_entries: int = KRON_ENTRY_CAP) -> np.ndarray:
    """Kronecker product with an explicit entry-count cap.

    Raises RefusedError instead of materializing anything larger than
    ``max_entries`` entries.
    """
    a = as_matrix(a, name="a")
    b = as_matrix(b, name="b")
    entries = a.size * b.size
    if entries > max_entries:
        raise RefusedError(
            f"kron result would have {entries} entries, cap is {max_entries}"
        )
    return np.kron(a, b)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Thin SVD A = U diag(s) Vt with s sorted nonincreasing."""

    u: np.ndarray
    singular_values: np.ndarray
    vt: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.singular_values) @ self.vt

    def rank(self, rtol: float = SVD_RTOL) -> int:
        s = self.singular_values
        if s.size == 0 or s[0] <= 0.0:
            return 0
        return int(np.count_nonzero(s > rtol * s[0]))


def svd(a) -> SpectralDecomposition:
    """Thin singular value decomposition.

    Non-convergence of the underlying iteration surfaces as
    ``numpy.linalg.LinAlgError``; callers treating that as "pathological
    conditioning" should report the input, not retry.
    """
    a = as_matrix(a)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return SpectralDecomposition(u=u, singular_values=s, vt=vt)


def singular_values(a) -> np.ndarray:
    a = as_matrix(a)
    return np.linalg.svd(a, compute_uv=False)


def nuclear_norm(a) -> float:
    """Sum of singular values (trace norm)."""
    return float(singular_values(a).sum())


def determinant(a) -> float:
    """Determinant via LU with partial pivoting. Square input required."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"determinant needs a square matrix, got {a.shape}")
    return float(np.linalg.det(a))


def psd_project(s) -> np.ndarray:
    """Nearest (Frobenius) positive semidefinite matrix to symmetric s.

    Symmetrizes first; refuses input whose asymmetry exceeds
    ``SYM_RTOL * ||s||_F``. Eigenvalues are clipped at zero.
    """
    s = as_matrix(s, name="s")
    if s.shape[0] != s.shape[1]:
        raise ValueError(f"psd_project needs a square matrix, got {s.shape}")
    fro = np.linalg.norm(s)
    asym = np.linalg.norm(s - s.T)
    if asym > SYM_RTOL * max(fro, 1e-300):
        raise ValueError(
            f"input asymmetry {asym:.3e} exceeds {SYM_RTOL:.1e} * ||s||_F"
        )
    sym = 0.5 * (s + s.T)
    w, v = np.linalg.eigh(sym)
    w = np.clip(w, 0.0, None)
    return (v * w) @ v.T


def tn_matrix(n: int) -> np.ndarray:
    """Lower-triangular all-ones T_n (initial-segment incidence)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return np.tril(np.ones((n, n)))


def tn_singular_values_closed_form(n: int) -> np.ndarray:
    """Singular values of T_n: 1 / (2 sin((2j-1) pi / (4n+2))), j = 1..n.

    Follows from (T_n T_n^T)^{-1} being the tridiagonal second-difference
    matrix with a free boundary, whose eigenvalues are 4 sin^2 of the
    angles above. Returned nonincreasing (j = 1 is the largest).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    j = np.arange(1, n + 1, dtype=float)
    return 1.0 / (2.0 * np.sin((2.0 * j - 1.0) * np.pi / (4.0 * n + 2.0)))


def sn_tridiagonal(n: int) -> np.ndarray:
    """The inverse of T_n T_n^T, in closed form.

    Tridiagonal: 2 on the diagonal except 1 in the lower-right corner,
    -1 on the off-diagonals. (T_n T_n^T is the min(i, j) matrix.)
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    s = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    s[n - 1, n - 1] = 1.0
    return s


def circulant_interval(n: int) -> np.ndarray:
    """Incidence matrix of all cyclic intervals of length n+1 on Z_{2n}.

    Equals the 2n x 2n circulant whose first column is n+1 ones followed
    by n-1 zeros, and has the block form [[T_n, T_n^T], [T_n^T, T_n]].
    Requires n >= 2 (n = 1 degenerates to the all-ones 2x2).
    """
    if n < 2:
        raise ValueError(f"circulant_interval needs n >= 2, got {n}")
    t = tn_matrix(n)
    top = np.hstack([t, t.T])
    bot = np.hstack([t.T, t])
    return np.vstack([top, bot])


def circulant_interval_eigenvalues(n: int) -> np.ndarray:
    """Eigenvalues of circulant_interval(n) via the discrete Fourier symbol.

    With s = n+1 and omega = exp(-2 pi i / (2n)), the j-th eigenvalue is
    the geometric sum 1 + omega^j + ... + omega^{j(s-1)}, i.e.
    (omega^{js} - 1) / (omega^j - 1) for j != 0 and s for j = 0.
    Complex arithmetic stays inside this function; use
    ``np.abs`` of the result for singular values (the matrix is normal).
    """
    if n < 2:
        raise ValueError(f"circulant_interval needs n >= 2, got {n}")
    two_n = 2 * n
    s = n + 1
    idx = np.arange(two_n)
    omega_pow = np.exp(-2.0j * np.pi * idx / two_n)
    vals = np.empty(two_n, dtype=complex)
    vals[0] = s
    vals[1:] = (omega_pow[1:] ** s - 1.0) / (omega_pow[1:] - 1.0)
    return vals


def two_to_infinity_norm(a) -> float:
    """Largest row 2-norm (operator norm from l2 to l-infinity)."""
    a = as_matrix(a)
    return float(np.sqrt((a * a).sum(axis=1).max()))


def one_to_two_norm(a) -> float:
    """Largest column 2-norm (operator norm from l1 to l2)."""
    a = as_matrix(a)
    return float(np.sqrt((a * a).sum(axis=0).max()))


# ---------------------------------------------------------------------------
# Matrix text format: first line "m n", then m whitespace-separated rows.
# Lines whose first nonblank character is '#' are comments. Writes use 17
# significant digits so float64 round-trips exactly.
# ---------------------------------------------------------------------------


@contextmanager
def atomic_write(path):
    """Open a text file that replaces ``path`` only once it is complete.

    Writes go to a new temp file in the same directory, which
    ``os.replace`` renames onto ``path`` when the block exits normally.
    If the block raises, the temp file is removed and ``path`` keeps its
    old content, so no reader ever sees a half-written file.
    """
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
    # O_EXCL: never write through a name that already exists; mode 0o666
    # leaves the permissions to the umask, as open(path, "w") does
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def format_matrix(a) -> str:
    """The "m n" line and the rows of a, one line each."""
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    line = " ".join(["%.17g"] * n) + "\n"
    return f"{m} {n}\n" + "".join(line % tuple(row) for row in a.tolist())


def write_matrix(path, a, *, comments: list[str] | None = None) -> None:
    a = as_matrix(a)
    head = "".join(
        f"# {piece}".rstrip() + "\n"
        for c in comments or []
        for piece in str(c).splitlines() or [""]
    )
    with atomic_write(path) as fh:
        fh.write(head + format_matrix(a))


def read_matrix(path) -> np.ndarray:
    a, _ = read_matrix_with_comments(path)
    return a


def read_matrix_with_comments(path) -> tuple[np.ndarray, list[str]]:
    """Read the matrix plus the leading comment block (without '#')."""
    with open(path) as fh:
        return parse_matrix(fh)


def parse_matrix(lines) -> tuple[np.ndarray, list[str]]:
    """The matrix in an iterable of text lines, plus the leading comment
    block (without '#')."""
    comments: list[str] = []
    rows: list[list[float]] = []
    header: tuple[int, int] | None = None
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if header is None:
                comments.append(line[1:].strip())
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise ValueError(
                    f"expected header 'm n', got {line!r}"
                )
            header = (int(parts[0]), int(parts[1]))
            continue
        rows.append([float(x) for x in parts])
    if header is None:
        raise ValueError("empty matrix file")
    m, n = header
    if m < 1 or n < 1:
        raise ValueError(f"bad dimensions in header: {m} {n}")
    if len(rows) != m:
        raise ValueError(f"header says {m} rows, file has {len(rows)}")
    for i, r in enumerate(rows):
        if len(r) != n:
            raise ValueError(f"row {i} has {len(r)} entries, header says {n}")
    return np.array(rows, dtype=float), comments
