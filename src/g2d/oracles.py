"""Exact brute-force references and determinant lower bounds.

Small-scale oracles used to validate the certified gamma_2 sandwich:

* disc_exact / disc_p_exact: exact combinatorial discrepancy
  min over sign vectors x of ||A x||_inf (or the normalized, optionally
  row-weighted L_p norm m^{-1/p} ||A x||_p), by blocked Gray
  enumeration of the 2^(n-1) colorings with x_1 = +1, returning the
  lexicographically smallest minimizer;
* herdisc_exact: hereditary discrepancy, the max of disc_exact over all
  nonempty column subsets, as the max over supports S of the least
  ||A x||_inf over x in {-1, 0, 1}^n with support S: one table of the
  images of all low vectors, grouped by support, and one reduction of
  it per high vector;
* detlb_exact: the determinant lower bound max_k max_B |det B|^{1/k}
  over k x k submatrices, level by level, each k x k minor from those
  of level k-1 by Laplace expansion along its last column, read as
  row gathers of prefix slices of level k-1;
* detlb2_exact: its L_2 variant max_J sqrt(|J|/m) |det A_J^T A_J|^{1/2|J|}
  over column subsets, one np.linalg.det per stack of Gram matrices;
* detlb_bucketing: a constructive witness extraction that buckets the
  singular values of the dual-weighted matrix by factors of two and
  pulls a concrete submatrix via complete-pivot elimination;
* compose_bounds: gamma_2-level arithmetic for unions, disjoint
  unions, and products of set systems.

Everything here refuses oversized inputs up front (explicit caps and
enumeration budgets, raising RefusedError) rather than truncating
silently. Each numpy call handles a whole block of candidates: a block
of colorings, a table of signed images (of at least 3 columns), a stack
of submatrices or a chunk of minors holds at most BLOCK_ENTRIES float64
entries; detlb_exact also keeps one level of minors whole.
Enumerations are deterministic: ties go to the lexicographically
smallest coloring, by an integer key per coloring.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice, product
from math import comb, inf

import numpy as np

from .linalg import RefusedError, as_matrix, as_weights

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


def _gray_walk(a: np.ndarray, reduce, table: np.ndarray) -> tuple[float, int]:
    """Minimize reduce(A x) over the 2^(n-1) colorings with x_1 = +1.

    The last k columns are the low variables: their images for all 2^k
    sign rows of table form one m x 2^k block, computed once. The other
    free variables are walked in Gray-code order; each step recomputes
    the high image h and reduces the whole block low + h at once.

    A coloring's key has bit n-1-j set when x_{j+1} = +1, so keys order
    colorings lexicographically with -1 < +1. Returns the least reduced
    value and the smallest key that reaches it.
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


def _signed_images(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The images A z of all z in {-1, 0, 1}^k, k = a.shape[1], as the
    columns of an m x 3^k table, and the start of each column run.

    The columns are sorted by the support mask of z (bit j set when
    z_j != 0), so the 2^|S| vectors of each support S form one run and
    the runs come in order of mask.
    """
    images = np.zeros((a.shape[0], 1))
    masks = np.zeros(1, dtype=np.int64)
    for j in range(a.shape[1]):
        col = a[:, j : j + 1]
        images = np.hstack([images, images + col, images - col])
        masks = np.concatenate([masks, masks | (1 << j), masks | (1 << j)])
    order = np.argsort(masks, kind="stable")
    starts = np.searchsorted(masks[order], np.arange(1 << a.shape[1]))
    return np.ascontiguousarray(images[:, order]), starts


def _half_signed(h: int):
    """Yield (y, mask) for y = 0 and each y in {-1, 0, 1}^h whose first
    nonzero entry is +1; bit i of mask is set when y_i != 0."""
    yield np.zeros(h), 0
    for lead in range(h):
        for tail in product((-1.0, 0.0, 1.0), repeat=h - 1 - lead):
            y = (0.0,) * lead + (1.0,) + tail
            yield np.array(y), sum(1 << i for i, v in enumerate(y) if v)


def herdisc_exact(a) -> float:
    """Hereditary discrepancy: the max of disc_exact over nonempty column
    subsets. Requires n <= 16 (total work ~ m 3^n).

    disc_exact of the columns S is the least ||A x||_inf over the x in
    {-1, 0, 1}^n with support S. The last k columns are low, k the most
    (at least 1) with m 3^k <= BLOCK_ENTRIES: the images of all low
    vectors form one m x 3^k table, its columns grouped by support. The
    high vectors y whose first nonzero is +1, and y = 0, are walked one
    at a time; by sign symmetry they cover every x up to its negation.
    Each step takes the sup norms of the table shifted by A_high y in
    one reduction, the least of each low support by np.minimum.reduceat
    over the groups, and folds those into the row of y's support.
    """
    a = as_matrix(a)
    m, n = a.shape
    if n > HERDISC_VARS_CAP:
        raise RefusedError(f"herdisc_exact caps at {HERDISC_VARS_CAP} columns, got {n}")
    k = 1
    while k < n and m * 3 ** (k + 1) <= BLOCK_ENTRIES:
        k += 1
    low, starts = _signed_images(a[:, n - k :])
    high = a[:, : n - k]
    mins = np.full((1 << (n - k), starts.size), inf)  # [high support, low support]
    block = np.empty_like(low)
    for y, mask in _half_signed(n - k):
        np.add(low, (high @ y)[:, None], out=block)
        row = mins[mask]
        np.minimum(row, np.minimum.reduceat(_sup_norms(block), starts), out=row)
    # the empty support's entry is ||A 0||_inf = 0, so it never sets the max
    return float(mins.max())


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


def _colex(prev: np.ndarray, binom: np.ndarray, n: int) -> np.ndarray:
    """All k-subsets of range(n) in colex order, as rows of increasing
    ints, from all (k-1)-subsets prev in colex order.

    The k-subsets whose largest element is c are the first C(c, k-1)
    rows of prev, each followed by c.
    """
    sizes = binom[:n, prev.shape[1]]
    ends = np.cumsum(sizes)
    t = np.arange(ends[-1])
    top = np.searchsorted(ends, t, side="right")
    return np.column_stack([prev[t - ends[top] + sizes[top]], top])


def _drop_ranks(sets: np.ndarray, binom: np.ndarray) -> np.ndarray:
    """Entry [j, t] is the colex rank of sets[t] without its j-th element.

    The colex rank of s_0 < ... < s_{k-1} is sum_i C(s_i, i+1); dropping
    s_j moves each later element down one place.
    """
    k = sets.shape[1]
    stay = binom[sets, np.arange(1, k + 1)]
    moved = binom[sets, np.arange(k)]
    out = np.empty((k, sets.shape[0]), dtype=np.int64)
    for j in range(k):
        out[j] = stay[:, :j].sum(axis=1) + moved[:, j + 1 :].sum(axis=1)
    return out


def detlb_exact(a, k_max: int) -> float:
    """Determinant lower bound max_{k <= k_max} max_B |det B|^{1/k}
    over all k x k submatrices B, by full enumeration level by level.

    The minors of level k, for all k-subsets R = {r_0 < ... < r_{k-1}}
    of rows and C of columns in colex order, come from those of level
    k-1 by Laplace expansion along C's last column c:
    D_k[R, C] = sum_j (-1)^j a[r_j, c] D_{k-1}[R - r_j, C - c].
    This is det A[R, C] times one sign per level, and only |D_k| is
    read. In colex order the column sets whose largest element is c are
    the first C(c, k-1) column sets of level k-1, each followed by c,
    so each term is a row gather of a prefix slice of level k-1, and
    level k's columns come out in colex order. Only level k-1 is kept
    whole. Level k is computed for each c in chunks of row subsets,
    k * rows * C(c, k-1) <= BLOCK_ENTRIES (at least one row per chunk),
    and the last level only for its max. On integer matrices every
    minor is exact, where an LU factorization rounds.

    Refuses when the enumeration budget
    sum_k C(m,k) C(n,k) exceeds 10^7; lower k_max in that case.
    """
    a = as_matrix(a)
    if a.shape[0] > a.shape[1]:
        a = a.T  # |det| is transpose-invariant; rows become the short side
    m, n = a.shape
    k_max = min(k_max, m)
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    budget = _det_budget(m, n, k_max)
    if budget > DET_BUDGET:
        raise RefusedError(
            f"enumeration budget {budget} exceeds {DET_BUDGET}; lower k_max"
        )
    binom = np.array([[comb(c, i) for i in range(k_max + 1)] for c in range(n + 1)])
    rows, level = np.arange(m)[:, None], a
    best = float(np.abs(a).max())
    for k in range(2, k_max + 1):
        rows = _colex(rows, binom, m)
        drop = _drop_ranks(rows, binom)
        kept = np.empty((len(rows), comb(n, k))) if k < k_max else None
        top = 0.0
        for c in range(k - 1, n):
            width, at = comb(c, k - 1), comb(c, k)
            chunk = max(1, BLOCK_ENTRIES // (k * width))
            for lo in range(0, len(rows), chunk):
                r = slice(lo, lo + chunk)
                coef = a[rows[r], c]
                block = level[drop[0, r], :width]
                block *= coef[:, :1]
                for j in range(1, k):
                    term = level[drop[j, r], :width]
                    term *= coef[:, j : j + 1]
                    if j % 2:
                        block -= term
                    else:
                        block += term
                top = max(top, float(np.abs(block).max()))
                if kept is not None:
                    kept[r, at : at + width] = block
        level = kept
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
    p, q = as_weights(a, p, q)
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
