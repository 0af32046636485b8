"""Exact brute-force references and determinant lower bounds.

Small-scale oracles used to validate the certified gamma_2 sandwich:

* disc_exact / disc_p_exact: exact combinatorial discrepancy
  min over sign vectors x of ||A x||_inf (or the normalized, optionally
  row-weighted L_p norm m^{-1/p} ||A x||_p), by blocked Gray
  enumeration of the 2^(n-1) colorings with x_1 = +1, returning the
  lexicographically smallest minimizer;
* herdisc_exact: hereditary discrepancy, the max of disc_exact over all
  nonempty column subsets, each walk stopped once it cannot raise the
  max;
* detlb_exact / detlb2_exact: the determinant lower bound
  max_k max_B |det B|^{1/k} over k x k submatrices, and its L_2 variant
  max_J sqrt(|J|/m) |det A_J^T A_J|^{1/2|J|} over column subsets, one
  np.linalg.det per stack of submatrices;
* detlb_bucketing: a constructive witness extraction that buckets the
  singular values of the dual-weighted matrix by factors of two and
  pulls a concrete submatrix via complete-pivot elimination;
* compose_bounds: gamma_2-level arithmetic for unions, disjoint
  unions, and products of set systems.

Everything here refuses oversized inputs up front (explicit caps and
enumeration budgets, raising RefusedError) rather than truncating
silently. Each numpy call handles a whole block of candidates: a block
of colorings or a stack of submatrices holds at most BLOCK_ENTRIES
float64 entries. Enumerations are deterministic: ties go to the
lexicographically smallest coloring, by an integer key per coloring.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb, inf

import numpy as np

from .linalg import RefusedError, as_matrix

DISC_VARS_CAP = 26
HERDISC_VARS_CAP = 16
DISC_P_VARS_CAP = 24
DET_BUDGET = 10**7
# most float64 entries in one block of colorings or stack of submatrices
BLOCK_ENTRIES = 1 << 16

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
            if self.p == inf:
                return float(np.abs(s[w > 0]).max())
            w = w * (m / w.sum())
            s = np.abs(s) ** self.p * w
            return float((s.sum() / m) ** (1.0 / self.p))
        return float(((np.abs(s) ** self.p).sum() / m) ** (1.0 / self.p))


def _low_vars(m: int, free: int) -> int:
    """The most low variables k <= free whose image table (m x 2^k) and
    sign table (2^k x k) both fit in BLOCK_ENTRIES."""
    k = 0
    while k < free and (2 << k) * max(m, k + 1) <= BLOCK_ENTRIES:
        k += 1
    return k


def _sign_table(k: int) -> np.ndarray:
    """The 2^k x k table of sign rows in lexicographic order (-1 < +1).

    Row r holds +1 in column i exactly when bit k-1-i of r is set, so a
    row's index is its key. The first 2^j rows of the last j columns
    form the j-variable table.
    """
    bits = (np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    return 2.0 * bits - 1.0


def _sup_norms(block: np.ndarray) -> np.ndarray:
    """max_i |block[i, c]| for each column c, overwriting block."""
    return np.abs(block, out=block).max(axis=0)


def _coloring(key: int, n: int) -> np.ndarray:
    """The coloring whose +1 entries are the set bits of key, x_1 first."""
    return np.where((key >> np.arange(n - 1, -1, -1)) & 1, 1.0, -1.0)


def _gray_walk(a: np.ndarray, reduce, table: np.ndarray, stop: float = -inf) -> tuple[float, int]:
    """Minimize reduce(A x) over the 2^(n-1) colorings with x_1 = +1.

    The last k columns are the low variables: their images for all 2^k
    sign rows of table form one m x 2^k block, computed once. The other
    free variables are walked in Gray-code order; each step recomputes
    the high image h and reduces the whole block low + h at once.

    A coloring's key has bit n-1-j set when x_{j+1} = +1, so keys order
    colorings lexicographically with -1 < +1. Returns the least reduced
    value and the smallest key that reaches it, or the first block
    minimum that is <= stop.
    """
    m, n = a.shape
    k = min(n - 1, table.shape[1])
    signs = table[: 1 << k, table.shape[1] - k :]
    low = a[:, n - k :] @ signs.T
    high = a[:, : n - k]
    x = np.ones(n - k)
    key = (1 << (n - k)) - 1
    block = np.empty_like(low)
    best, best_key = inf, 0
    for code in range(1 << (n - k - 1)):
        if code:
            t = (code & -code).bit_length()  # high variable 1..n-k-1
            x[t] = -x[t]
            key ^= 1 << (n - k - 1 - t)
        np.add(low, (high @ x)[:, None], out=block)
        r = reduce(block)
        i = int(r.argmin())
        v, cand = r[i], (key << k) | i
        if v < best or (v == best and cand < best_key):
            best, best_key = v, cand
            if best <= stop:
                break
    return best, best_key


def disc_exact(a) -> ColoringResult:
    """Exact discrepancy min_{x in {-1,1}^n} ||A x||_inf.

    Sign symmetry fixes x_1 = +1; the global minimum is found by
    blocked Gray enumeration of the remaining 2^(n-1) colorings, about
    3*10^7 colorings/s on a 20 x 20 0/1 matrix at one BLAS thread. The
    result is the lexicographically smallest minimizer (with -1 < +1).
    Requires n <= 26.
    """
    a = as_matrix(a)
    m, n = a.shape
    if n > DISC_VARS_CAP:
        raise RefusedError(f"disc_exact caps at {DISC_VARS_CAP} columns, got {n}")
    v, key = _gray_walk(a, _sup_norms, _sign_table(_low_vars(m, n - 1)))
    return ColoringResult(value=float(v), coloring=_coloring(key, n), norm_kind="linf")


def herdisc_exact(a) -> float:
    """Hereditary discrepancy: max of disc_exact over nonempty column
    subsets. Requires n <= 16 (total work ~ 3^n).

    Each subset's walk stops at its first block that reaches the running
    maximum, since such a subset cannot raise it.
    """
    a = as_matrix(a)
    m, n = a.shape
    if n > HERDISC_VARS_CAP:
        raise RefusedError(f"herdisc_exact caps at {HERDISC_VARS_CAP} columns, got {n}")
    table = _sign_table(_low_vars(m, n - 1))
    best = 0.0
    for mask in range(1, 1 << n):
        cols = [j for j in range(n) if (mask >> j) & 1]
        v, _ = _gray_walk(a[:, cols], _sup_norms, table, stop=best)
        best = max(best, float(v))
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

    table = _sign_table(_low_vars(m, n - 1))
    if p == inf:
        rows = a if weights is None else a[weights > 0]
        v, key = _gray_walk(rows, _sup_norms, table)
        kind = "linf" if weights is None else "lpw"
        return ColoringResult(
            value=float(v), coloring=_coloring(key, n), norm_kind=kind, p=p, weights=weights
        )

    scaled = a
    if weights is not None:
        wn = weights * (m / weights.sum())
        scaled = (wn ** (1.0 / p))[:, None] * a

    def power_sums(block):
        np.abs(block, out=block)
        block **= p
        return block.sum(axis=0)

    s, key = _gray_walk(scaled, power_sums, table)
    kind = "lp" if weights is None else "lpw"
    v = float((s / m) ** (1.0 / p))
    return ColoringResult(value=v, coloring=_coloring(key, n), norm_kind=kind, p=p, weights=weights)


def _combination_chunks(n: int, k: int, size: int):
    """The k-subsets of range(n) in lexicographic order, as int arrays
    of at most size rows each."""
    it = combinations(range(n), k)
    while chunk := list(islice(it, size)):
        yield np.array(chunk)


def _det_budget(m: int, n: int, k_max: int) -> int:
    return sum(comb(m, k) * comb(n, k) for k in range(1, k_max + 1))


def detlb_exact(a, k_max: int) -> float:
    """Determinant lower bound max_{k <= k_max} max_B |det B|^{1/k}
    over all k x k submatrices B, by full enumeration in stacks of at
    most BLOCK_ENTRIES entries, one np.linalg.det per stack.

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
        col_chunk = min(comb(n, k), max(1, BLOCK_ENTRIES // (k * k)))
        row_chunk = max(1, BLOCK_ENTRIES // (k * k * col_chunk))
        top = 0.0
        for cols in _combination_chunks(n, k, col_chunk):
            for rows in _combination_chunks(m, k, row_chunk):
                subs = a[rows[:, None, :, None], cols[None, :, None, :]]
                top = max(top, float(np.abs(np.linalg.det(subs)).max()))
        if top > 0:
            best = max(best, top ** (1.0 / k))
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
        top = 0.0
        for cols in _combination_chunks(n, k, max(1, BLOCK_ENTRIES // (m * k))):
            subs = a[:, cols].transpose(1, 0, 2)
            grams = subs.transpose(0, 2, 1) @ subs
            top = max(top, float(np.abs(np.linalg.det(grams)).max()))
        if top > 0:
            best = max(best, np.sqrt(k / m) * top ** (1.0 / (2.0 * k)))
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
