"""Exact brute-force references and determinant lower bounds.

Small-scale oracles used to validate the certified gamma_2 sandwich:

* disc_exact / disc_p_exact: exact combinatorial discrepancy
  min over sign vectors x of ||A x||_inf (or the normalized, optionally
  row-weighted L_p norm m^{-1/p} ||A x||_p), by Gray-code enumeration
  over the 2^(n-1) colorings with x_1 = +1;
* herdisc_exact: hereditary discrepancy, the max of disc_exact over all
  nonempty column subsets;
* detlb_exact / detlb2_exact: the determinant lower bound
  max_k max_B |det B|^{1/k} over k x k submatrices, and its L_2 variant
  max_J sqrt(|J|/m) |det A_J^T A_J|^{1/2|J|} over column subsets;
* detlb_bucketing: a constructive witness extraction that buckets the
  singular values of the dual-weighted matrix by factors of two and
  pulls a concrete submatrix via complete-pivot elimination;
* compose_bounds: gamma_2-level arithmetic for unions, disjoint
  unions, and products of set systems.

Everything here refuses oversized inputs up front (explicit caps and
enumeration budgets, raising RefusedError) rather than truncating
silently. Enumerations are
deterministic: Gray-code order with lexicographic tie-breaking.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, inf

import numpy as np

from .linalg import RefusedError, as_matrix

DISC_VARS_CAP = 26
HERDISC_VARS_CAP = 16
DISC_P_VARS_CAP = 24
DET_BUDGET = 10**7

_SIGV_RANK_RTOL = 1e-12


@dataclass(frozen=True)
class ColoringResult:
    """An exact discrepancy value together with its optimal coloring.

    norm_kind is "linf" for the sup norm, "lp" for the normalized L_p
    norm m^{-1/p} ||A x||_p, or "lpw" for its row-weighted version;
    p and weights are populated accordingly.
    """

    value: float
    coloring: np.ndarray
    norm_kind: str
    p: float | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        x = np.asarray(self.coloring, dtype=float).reshape(-1)
        if not np.all((x == 1.0) | (x == -1.0)):
            raise ValueError("coloring entries must be -1 or +1")
        object.__setattr__(self, "coloring", x)
        if self.norm_kind not in ("linf", "lp", "lpw"):
            raise ValueError(f"unknown norm_kind {self.norm_kind!r}")

    def recompute(self, a) -> float:
        """Evaluate the declared norm of A . coloring from scratch."""
        a = as_matrix(a)
        s = a @ self.coloring
        if self.norm_kind == "linf":
            return float(np.abs(s).max()) if s.size else 0.0
        m = a.shape[0]
        if self.norm_kind == "lpw":
            w = np.asarray(self.weights, dtype=float)
            w = w * (m / w.sum())
            s = np.abs(s) ** self.p * w
            return float((s.sum() / m) ** (1.0 / self.p))
        return float(((np.abs(s) ** self.p).sum() / m) ** (1.0 / self.p))


def _lex_less(x: np.ndarray, y: np.ndarray) -> bool:
    for a, b in zip(x, y):
        if a != b:
            return a < b
    return False


def _gray_walk(a: np.ndarray, norm) -> tuple[float, np.ndarray]:
    """Minimize norm(A x) over the 2^(n-1) colorings with x_1 = +1.

    Gray-code walk from all-ones: consecutive codes differ in one
    variable, so the running image s = A x updates with one column.
    Ties go to the lexicographically smallest coloring.
    """
    n = a.shape[1]
    x = np.ones(n)
    s = a @ x
    best_v = norm(s)
    best_x = x.copy()
    for code in range(1, 1 << (n - 1)):
        b = code & -code
        j = b.bit_length()  # variable index 1..n-1 (0 is pinned)
        x[j] = -x[j]
        s += 2.0 * x[j] * a[:, j]
        v = norm(s)
        if v < best_v or (v == best_v and _lex_less(x, best_x)):
            best_v = v
            best_x = x.copy()
    return best_v, best_x


def disc_exact(a) -> ColoringResult:
    """Exact discrepancy min_{x in {-1,1}^n} ||A x||_inf.

    Sign symmetry fixes x_1 = +1; the global minimum is found by
    enumerating the remaining 2^(n-1) colorings in Gray-code order.
    Ties go to the lexicographically smallest coloring (with -1 < +1).
    Requires n <= 26.
    """
    a = as_matrix(a)
    m, n = a.shape
    if n > DISC_VARS_CAP:
        raise RefusedError(f"disc_exact caps at {DISC_VARS_CAP} columns, got {n}")

    def norm(s):
        return float(np.abs(s).max()) if s.size else 0.0

    v, x = _gray_walk(a, norm)
    return ColoringResult(value=v, coloring=x, norm_kind="linf")


def herdisc_exact(a) -> float:
    """Hereditary discrepancy: max of disc_exact over nonempty column
    subsets. Requires n <= 16 (total work ~ 3^n)."""
    a = as_matrix(a)
    m, n = a.shape
    if n > HERDISC_VARS_CAP:
        raise RefusedError(f"herdisc_exact caps at {HERDISC_VARS_CAP} columns, got {n}")
    best = 0.0
    for mask in range(1, 1 << n):
        cols = [j for j in range(n) if (mask >> j) & 1]
        best = max(best, disc_exact(a[:, cols]).value)
    return best


def disc_p_exact(a, p: float, w=None) -> ColoringResult:
    """Exact normalized L_p discrepancy min_x m^{-1/p} ||A x||_p.

    With row weights w (nonnegative, not identically zero) the weights
    are normalized to sum(w) = m and folded into the rows as
    W^{1/p} A, which makes the weighted objective the plain one of the
    scaled matrix. p = inf drops zero-weight rows and minimizes the
    sup norm. Requires n <= 24 and p >= 1.
    """
    a = as_matrix(a)
    m, n = a.shape
    if n > DISC_P_VARS_CAP:
        raise RefusedError(f"disc_p_exact caps at {DISC_P_VARS_CAP} columns, got {n}")
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    weights = None
    if w is not None:
        weights = np.asarray(w, dtype=float).reshape(-1)
        if weights.shape[0] != m:
            raise ValueError("weight length must equal the row count")
        if (weights < 0).any():
            raise ValueError("weights must be nonnegative")
        if weights.sum() <= 0.0:
            raise ValueError("weights must not be identically zero")

    if p == inf:
        rows = a if weights is None else a[weights > 0]
        if rows.shape[0] == 0:
            rows = np.zeros((1, n))

        def norm(s):
            return float(np.abs(s).max()) if s.size else 0.0

        v, x = _gray_walk(rows, norm)
        kind = "linf" if weights is None else "lpw"
        return ColoringResult(value=v, coloring=x, norm_kind=kind, p=p, weights=weights)

    scaled = a
    if weights is not None:
        wn = weights * (m / weights.sum())
        scaled = (wn ** (1.0 / p))[:, None] * a

    def norm(s):
        return float(((np.abs(s) ** p).sum() / m) ** (1.0 / p)) if s.size else 0.0

    v, x = _gray_walk(scaled, norm)
    kind = "lp" if weights is None else "lpw"
    return ColoringResult(value=v, coloring=x, norm_kind=kind, p=p, weights=weights)


def _det_budget(m: int, n: int, k_max: int) -> int:
    return sum(comb(m, k) * comb(n, k) for k in range(1, k_max + 1))


def detlb_exact(a, k_max: int) -> float:
    """Determinant lower bound max_{k <= k_max} max_B |det B|^{1/k}
    over all k x k submatrices B, by full enumeration.

    Refuses when the enumeration budget
    sum_k C(m,k) C(n,k) exceeds 10^7; lower k_max in that case.
    """
    a = as_matrix(a)
    m, n = a.shape
    k_max = min(k_max, m, n)
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    budget = _det_budget(m, n, k_max)
    if budget > DET_BUDGET:
        raise RefusedError(
            f"enumeration budget {budget} exceeds {DET_BUDGET}; lower k_max"
        )
    best = 0.0
    for k in range(1, k_max + 1):
        for rows in combinations(range(m), k):
            sub_rows = a[list(rows)]
            for cols in combinations(range(n), k):
                d = abs(float(np.linalg.det(sub_rows[:, list(cols)])))
                if d > 0:
                    best = max(best, d ** (1.0 / k))
    return best


def detlb2_exact(a, k_max: int) -> float:
    """L_2 determinant bound max_J sqrt(|J|/m) |det A_J^T A_J|^{1/2|J|}
    over nonempty column subsets J with |J| <= k_max."""
    a = as_matrix(a)
    m, n = a.shape
    k_max = min(k_max, n)
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    budget = sum(comb(n, k) for k in range(1, k_max + 1))
    if budget > DET_BUDGET:
        raise RefusedError(
            f"enumeration budget {budget} exceeds {DET_BUDGET}; lower k_max"
        )
    best = 0.0
    for k in range(1, k_max + 1):
        for cols in combinations(range(n), k):
            sub = a[:, list(cols)]
            gram = sub.T @ sub
            d = abs(float(np.linalg.det(gram)))
            if d > 0:
                best = max(best, np.sqrt(k / m) * d ** (1.0 / (2.0 * k)))
    return float(best)


def detlb_bucketing(a, p, q) -> tuple[float, tuple[int, ...], tuple[int, ...]]:
    """Constructive detlb witness from dual weights.

    Forms the weighted matrix diag(p)^1/2 A diag(q)^1/2, buckets its
    singular values into dyadic ranges (sigma_max 2^-(l+1), sigma_max 2^-l],
    picks the bucket with the largest mass sum(sigma_i), and extracts a
    k x k submatrix (k = bucket size) by Gaussian elimination with
    complete pivoting on the weighted matrix, taking the first k pivot
    rows and columns. Returns (|det A_{I,J}|^{1/k}, I, J) evaluated on
    the original matrix: any submatrix certifies, so the value is a
    sound detlb lower bound regardless of bucket choice.
    """
    a = as_matrix(a)
    m, n = a.shape
    p = np.asarray(p, dtype=float).reshape(-1)
    q = np.asarray(q, dtype=float).reshape(-1)
    if p.shape[0] != m or q.shape[0] != n:
        raise ValueError("weight lengths must match the matrix shape")
    if (p < -1e-12).any() or (q < -1e-12).any():
        raise ValueError("weights must be nonnegative")
    wa = np.sqrt(np.clip(p, 0.0, None))[:, None] * a
    wa = wa * np.sqrt(np.clip(q, 0.0, None))[None, :]
    sig = np.linalg.svd(wa, compute_uv=False)
    smax = float(sig[0]) if sig.size else 0.0
    if smax <= 0.0:
        raise ValueError("weighted matrix has rank 0")
    sig = sig[sig > _SIGV_RANK_RTOL * smax]
    levels = np.floor(np.log2(smax / sig) + 1e-12).astype(int)
    masses: dict[int, float] = {}
    for lev, s in zip(levels, sig):
        masses[lev] = masses.get(lev, 0.0) + float(s)
    best_level = max(masses, key=lambda lev: (masses[lev], -lev))
    k = int(np.sum(levels == best_level))

    # complete-pivot elimination on the weighted matrix
    work = wa.copy()
    row_left = list(range(m))
    col_left = list(range(n))
    piv_rows: list[int] = []
    piv_cols: list[int] = []
    for _ in range(k):
        sub = work[np.ix_(row_left, col_left)]
        flat = int(np.argmax(np.abs(sub)))
        ri, ci = divmod(flat, sub.shape[1])
        prow = row_left[ri]
        pcol = col_left[ci]
        piv = work[prow, pcol]
        if piv == 0.0:
            break
        piv_rows.append(prow)
        piv_cols.append(pcol)
        row_left.remove(prow)
        col_left.remove(pcol)
        if row_left and col_left:
            rl = np.array(row_left)
            cl = np.array(col_left)
            factor = work[rl, pcol] / piv
            work[np.ix_(rl, cl)] -= np.outer(factor, work[prow, cl])
    if not piv_rows:
        raise ValueError("weighted matrix has rank 0")
    k = len(piv_rows)
    rows = tuple(sorted(piv_rows))
    cols = tuple(sorted(piv_cols))
    d = abs(float(np.linalg.det(a[np.ix_(rows, cols)])))
    return d ** (1.0 / k), rows, cols


def compose_bounds(kind: str, parts) -> float:
    """gamma_2-level bound for composite systems.

    parts is a list of (gamma_2 value, multiplicity) pairs. Union
    composes by root-sum-of-squares, disjoint pieces by plain sum,
    product systems multiply.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("parts must be nonempty")
    vals: list[float] = []
    counts: list[int] = []
    for val, count in parts:
        if not val > 0:
            raise ValueError(f"part values must be positive, got {val}")
        if not count >= 1:
            raise ValueError(f"part counts must be >= 1, got {count}")
        vals.append(float(val))
        counts.append(int(count))
    if kind == "union":
        return float(np.sqrt(sum(c * v * v for v, c in zip(vals, counts))))
    if kind == "disjoint_pieces":
        return float(sum(c * v for v, c in zip(vals, counts)))
    if kind == "product":
        out = 1.0
        for v, c in zip(vals, counts):
            out *= v**c
        return float(out)
    raise ValueError(f"unknown composition kind {kind!r}")
