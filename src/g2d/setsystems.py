"""Set systems as 0/1 incidence matrices, plus the canonical families.

A set system on ground set {1..n} is stored as an m x n incidence
matrix (rows = sets, columns = points). Constructors here produce the
families the bound machinery is exercised on: initial segments of a
line, their d-fold grid products, subcube systems, arithmetic
progressions, prefix systems of permutations, and power sets.

Conventions:

* duplicate rows are removed wherever a constructor or combinator can
  produce them (set-level dedup, first occurrence kept);
* empty rows are kept only where they carry meaning (power_set, and
  restriction can create one from a nonempty row);
* everything is deterministic: same call, same matrix, same row order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import RefusedError, as_matrix, kron, tn_matrix

# Largest ground-set size any constructor here will touch.
GROUND_CAP = 4096


def _dedup_rows(rows: np.ndarray, labels: tuple[str, ...] | None):
    seen: dict[bytes, int] = {}
    keep: list[int] = []
    for i in range(rows.shape[0]):
        key = rows[i].tobytes()
        if key not in seen:
            seen[key] = i
            keep.append(i)
    if len(keep) == rows.shape[0]:
        return rows, labels
    kept_labels = tuple(labels[i] for i in keep) if labels is not None else None
    return rows[keep], kept_labels


@dataclass(frozen=True)
class SetSystem:
    """Incidence-matrix view of a finite set system.

    incidence: m x n array with entries in {0, 1} (stored float64).
    labels: optional per-row names, same length as the row count.
    """

    incidence: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        inc = as_matrix(self.incidence, name="incidence")
        if not np.all((inc == 0.0) | (inc == 1.0)):
            raise ValueError("incidence entries must be 0 or 1")
        if inc.shape[1] > GROUND_CAP:
            raise RefusedError(
                f"ground size {inc.shape[1]} exceeds cap {GROUND_CAP}"
            )
        if self.labels is not None and len(self.labels) != inc.shape[0]:
            raise ValueError(
                f"{len(self.labels)} labels for {inc.shape[0]} rows"
            )
        object.__setattr__(self, "incidence", inc)
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def rows(self) -> int:
        return self.incidence.shape[0]

    @property
    def ground_size(self) -> int:
        return self.incidence.shape[1]

    def row_sets(self) -> list[frozenset[int]]:
        """Rows as sets of 1-based points."""
        return [
            frozenset(int(j) + 1 for j in np.flatnonzero(r))
            for r in self.incidence
        ]


def initial_segments(n: int) -> SetSystem:
    """All initial segments {1..j}, j = 1..n; incidence is T_n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    labels = tuple(f"[1..{j}]" for j in range(1, n + 1))
    return SetSystem(tn_matrix(n), labels)


def grid_anchored(d: int, n: int) -> SetSystem:
    """Anchored boxes in the d-dimensional n x ... x n grid.

    The incidence matrix is the d-fold Kronecker power of T_n; rows and
    columns are ordered row-major by coordinate tuples, so the result is
    exactly equal (not just equivalent) to that power.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n**d > GROUND_CAP:
        raise RefusedError(f"ground size {n**d} exceeds cap {GROUND_CAP}")
    inc = tn_matrix(n)
    for _ in range(d - 1):
        inc = kron(inc, tn_matrix(n))
    return SetSystem(inc)


_SUBCUBE_BASE = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])


def subcubes(d: int) -> SetSystem:
    """Subcubes of the Boolean cube {0,1}^d.

    A subcube fixes some coordinates and frees the rest; per coordinate
    the membership pattern over {0,1} is one of (1,1), (1,0), (0,1),
    so the incidence matrix is the d-fold Kronecker power of that 3 x 2
    seed. 3^d rows, 2^d columns.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if 2**d > GROUND_CAP:
        raise RefusedError(f"ground size {2**d} exceeds cap {GROUND_CAP}")
    inc = _SUBCUBE_BASE
    for _ in range(d - 1):
        inc = kron(inc, _SUBCUBE_BASE)
    return SetSystem(inc)


AP_GROUND_CAP = 128


def arithmetic_progressions(n: int) -> SetSystem:
    """All arithmetic progressions inside {1..n}, as distinct sets.

    Includes singletons (k = 1). Two progressions describing the same
    set (only possible for sizes 1 and 2 via different bookkeeping) are
    emitted once. Row order: by size, then lexicographically by the
    sorted element tuple. Capped at n <= 128 because the row count grows
    like n^2 log n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > AP_GROUND_CAP:
        raise RefusedError(f"n = {n} exceeds cap {AP_GROUND_CAP}")
    sets: set[tuple[int, ...]] = set()
    for a in range(1, n + 1):
        sets.add((a,))
    for delta in range(1, n):
        for a in range(1, n + 1 - delta):
            members = list(range(a, n + 1, delta))
            for k in range(2, len(members) + 1):
                sets.add(tuple(members[:k]))
    ordered = sorted(sets, key=lambda t: (len(t), t))
    inc = np.zeros((len(ordered), n))
    for i, t in enumerate(ordered):
        inc[i, [x - 1 for x in t]] = 1.0
    labels = tuple(
        "{" + ",".join(str(x) for x in t) + "}" for t in ordered
    )
    return SetSystem(inc, labels)


@dataclass(frozen=True)
class MaximalAps:
    """Maximal arithmetic progressions of an interval, split by difference.

    For the interval I = {1..s}, the inclusion-maximal progressions with
    difference delta are exactly the congruence classes mod delta inside
    I. ``small_difference`` collects delta <= sqrt(s) (each point lies in
    at most sqrt(s) of them), ``large_difference`` collects delta >
    sqrt(s) (each has at most sqrt(s) elements). ``system`` is their
    union. All three are deduplicated at set level.
    """

    system: SetSystem
    small_difference: SetSystem
    large_difference: SetSystem


def maximal_aps(interval_size: int) -> MaximalAps:
    if interval_size < 1:
        raise ValueError(f"interval_size must be >= 1, got {interval_size}")
    if interval_size > AP_GROUND_CAP:
        raise RefusedError(
            f"interval_size = {interval_size} exceeds cap {AP_GROUND_CAP}"
        )
    s = interval_size
    root = float(np.sqrt(s))
    small: set[tuple[int, ...]] = set()
    large: set[tuple[int, ...]] = set()
    for delta in range(1, s + 1):
        bucket = small if delta <= root else large
        for residue in range(delta):
            members = tuple(range(residue + 1, s + 1, delta))
            if members:
                bucket.add(members)

    def build(sets: set[tuple[int, ...]]) -> SetSystem:
        ordered = sorted(sets, key=lambda t: (len(t), t))
        inc = np.zeros((len(ordered), s))
        for i, t in enumerate(ordered):
            inc[i, [x - 1 for x in t]] = 1.0
        return SetSystem(inc)

    merged = set(small) | set(large)
    return MaximalAps(
        system=build(merged),
        small_difference=build(small),
        large_difference=build(large),
    )


def k_permutations(perms) -> SetSystem:
    """Nonempty prefix sets of the given permutations of {1..n}.

    Each permutation contributes its n initial segments under its own
    order; the empty prefix is excluded. Duplicate prefix sets across
    permutations are emitted once.
    """
    perms = [list(p) for p in perms]
    if not perms:
        raise ValueError("need at least one permutation")
    n = len(perms[0])
    if n < 1:
        raise ValueError("permutations must be nonempty")
    if n > GROUND_CAP:
        raise RefusedError(f"ground size {n} exceeds cap {GROUND_CAP}")
    target = set(range(1, n + 1))
    for p in perms:
        if len(p) != n or set(p) != target:
            raise ValueError(f"not a permutation of 1..{n}: {p}")
    rows = []
    labels = []
    for pi, p in enumerate(perms):
        row = np.zeros(n)
        for k, x in enumerate(p):
            row[x - 1] = 1.0
            rows.append(row.copy())
            labels.append(f"perm{pi}[:{k + 1}]")
    inc, labs = _dedup_rows(np.array(rows), tuple(labels))
    return SetSystem(inc, labs)


POWER_SET_CAP = 20


def power_set(n: int) -> SetSystem:
    """All 2^n subsets of {1..n}, including the empty set.

    Rows ordered by the subset's binary encoding (bit j = point j+1).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > POWER_SET_CAP:
        raise RefusedError(f"n = {n} exceeds cap {POWER_SET_CAP}")
    masks = np.arange(2**n, dtype=np.int64)
    inc = ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(float)
    return SetSystem(inc)


def union(f: SetSystem, g: SetSystem) -> SetSystem:
    """Union of two systems on the same ground set (rows concatenated)."""
    if f.ground_size != g.ground_size:
        raise ValueError(
            f"ground sizes differ: {f.ground_size} vs {g.ground_size}"
        )
    rows = np.vstack([f.incidence, g.incidence])
    if f.labels is not None and g.labels is not None:
        labels: tuple[str, ...] | None = f.labels + g.labels
    else:
        labels = None
    inc, labs = _dedup_rows(rows, labels)
    return SetSystem(inc, labs)


def product(f: SetSystem, g: SetSystem) -> SetSystem:
    """Product system: sets F x G on ground set [m] x [n] (Kronecker)."""
    if f.ground_size * g.ground_size > GROUND_CAP:
        raise RefusedError(
            f"product ground size {f.ground_size * g.ground_size} "
            f"exceeds cap {GROUND_CAP}"
        )
    inc = kron(f.incidence, g.incidence)
    inc, _ = _dedup_rows(inc, None)
    return SetSystem(inc)


def restrict(f: SetSystem, points) -> SetSystem:
    """Trace of the system on a subset of the ground set.

    ``points`` is a nonempty collection of 1-based point indices; the
    restricted system keeps those columns (in increasing point order)
    and deduplicates the resulting rows. A row may restrict to the
    empty set; it is kept (the trace genuinely contains it).
    """
    pts = sorted(set(int(p) for p in points))
    if not pts:
        raise ValueError("points must be nonempty")
    if pts[0] < 1 or pts[-1] > f.ground_size:
        raise ValueError(
            f"points out of range 1..{f.ground_size}: {pts}"
        )
    cols = [p - 1 for p in pts]
    inc, labs = _dedup_rows(f.incidence[:, cols], f.labels)
    return SetSystem(inc, labs)


@dataclass(frozen=True)
class CanonicalInterval:
    """Dyadic interval [offset * 2^level, (offset+1) * 2^level), 0-based.

    ``points(n)`` gives the covered positions clipped to the first n
    points, as 0-based indices.
    """

    offset: int
    level: int

    def __post_init__(self):
        if self.level < 0 or self.offset < 0:
            raise ValueError(
                f"bad canonical interval: offset={self.offset} level={self.level}"
            )

    @property
    def start(self) -> int:
        return self.offset * (1 << self.level)

    @property
    def stop(self) -> int:
        return (self.offset + 1) * (1 << self.level)

    @property
    def size(self) -> int:
        return 1 << self.level

    def points(self, n: int) -> range:
        return range(self.start, min(self.stop, n))


def canonical_decomposition(j: int, n: int) -> list[CanonicalInterval]:
    """Write the first j points as disjoint dyadic intervals.

    Greedy from the largest power of two in the binary expansion of j:
    j = 7, n = 8 gives [0,4), [4,6), [6,7). At most one interval per
    size, hence at most floor(log2 n) + 1 pieces.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if j < 1 or j > n:
        raise ValueError(f"j must be in 1..{n}, got {j}")
    out: list[CanonicalInterval] = []
    pos = 0
    for level in range(j.bit_length() - 1, -1, -1):
        if j & (1 << level):
            out.append(CanonicalInterval(offset=pos >> level, level=level))
            pos += 1 << level
    return out


# ---------------------------------------------------------------------------
# Set-system text format: the matrix format preceded by an optional
# "# labels:" comment block, one "# <label>" line per row.
# ---------------------------------------------------------------------------


def write_set_system(path, f: SetSystem) -> None:
    from .linalg import write_matrix

    comments = None
    if f.labels is not None:
        comments = ["labels:"] + list(f.labels)
    write_matrix(path, f.incidence, comments=comments)


def read_set_system(path) -> SetSystem:
    from .linalg import read_matrix_with_comments

    inc, comments = read_matrix_with_comments(path)
    labels: tuple[str, ...] | None = None
    if comments and comments[0].strip() == "labels:":
        body = [c for c in comments[1:]]
        if len(body) == inc.shape[0]:
            labels = tuple(body)
    return SetSystem(inc, labels)
