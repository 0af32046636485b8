"""Set systems as 0/1 incidence matrices, plus the canonical families.

A set system on ground set {1..n} is stored as an m x n incidence
matrix (rows = sets, columns = points). Constructors here produce the
families the bound machinery is exercised on: initial segments of a
line, their d-fold grid products, subcube systems, arithmetic
progressions, and power sets.

Conventions:

* no constructor emits a set twice;
* the empty set appears only in power_set;
* everything is deterministic: same call, same matrix, same row order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import RefusedError, as_matrix, kron, tn_matrix

# Largest ground-set size any constructor here will touch.
GROUND_CAP = 4096


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
    # (start a, difference d, size k) of each row, singletons first; a
    # set of k >= 2 points is one progression, so its sorted elements
    # order each size by (a, d)
    spec = [(a, 1, 1) for a in range(1, n + 1)]
    spec += [
        (a, d, k) for k in range(2, n + 1) for a in range(1, n + 2 - k) for d in range(1, (n - a) // (k - 1) + 1)
    ]
    names = [str(i) for i in range(n + 1)]
    labels = ["{" + ",".join(names[a : a + d * (k - 1) + 1 : d]) + "}" for a, d, k in spec]
    start, diff, size = np.array(spec).T
    # one scatter: the j-th member of a row is a + j d
    rows = np.repeat(np.arange(len(spec)), size)
    member = np.arange(rows.size) - np.repeat(np.cumsum(size) - size, size)
    inc = np.zeros((len(spec), n))
    inc[rows, np.repeat(start - 1, size) + np.repeat(diff, size) * member] = 1.0
    return SetSystem(inc, tuple(labels))


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
