"""Exhaustive discrepancy oracles and determinant lower bounds."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from g2d.gamma2 import gamma2
from g2d.linalg import RefusedError, tn_matrix
from g2d.oracles import (
    ColoringResult,
    _low_vars,
    detlb2_exact,
    detlb_bucketing,
    detlb_exact,
    disc_exact,
    disc_p_exact,
    herdisc_exact,
)
from g2d.setsystems import power_set, subcubes


def random_binary(rng, m, n, density=0.5):
    return (rng.random((m, n)) < density).astype(float)


def brute_disc(a):
    """Independent reference: try all 2^n sign vectors."""
    m, n = a.shape
    best = np.inf
    for signs in itertools.product((-1.0, 1.0), repeat=n):
        x = np.array(signs)
        best = min(best, np.max(np.abs(a @ x)))
    return best


def reference_min_coloring(a, p=np.inf):
    """Independent reference: evaluate every coloring with x_1 = +1 at once,
    keep those reaching the minimum, and take the lexicographically
    smallest (-1 < +1) by np.lexsort."""
    m, n = a.shape
    codes = np.arange(1 << (n - 1))
    x = np.ones((codes.size, n))
    x[:, 1:] = np.where((codes[:, None] >> np.arange(n - 2, -1, -1)) & 1, 1.0, -1.0)
    v = np.empty(codes.size)
    for lo in range(0, codes.size, 4096):
        s = np.abs(x[lo : lo + 4096] @ a.T)
        v[lo : lo + 4096] = s.max(axis=1) if p == np.inf else ((s**p).sum(axis=1) / m) ** (1.0 / p)
    ties = x[v == v.min()]
    return v.min(), ties[np.lexsort(ties.T[::-1])[0]]


def test_disc_single_odd_row():
    for n in (1, 3, 5, 7):
        res = disc_exact(np.ones((1, n)))
        assert res.value == 1.0
        assert set(np.unique(res.coloring)) <= {-1.0, 1.0}


def test_disc_power_set_4():
    assert disc_exact(power_set(4).incidence).value == 2.0


def test_disc_t5():
    res = disc_exact(tn_matrix(5))
    assert res.value == 1.0
    assert res.value == brute_disc(tn_matrix(5))


def test_disc_matches_brute_force():
    rng = np.random.default_rng(41)
    for _ in range(6):
        a = random_binary(rng, 4, 6)
        assert disc_exact(a).value == brute_disc(a)


def test_disc_minimal_among_sampled_colorings():
    rng = np.random.default_rng(42)
    a = random_binary(rng, 5, 8)
    best = disc_exact(a).value
    for _ in range(1000):
        x = rng.choice([-1.0, 1.0], size=8)
        assert np.max(np.abs(a @ x)) >= best - 1e-12


def test_disc_deterministic_tie_break():
    a = tn_matrix(4)
    r1 = disc_exact(a)
    r2 = disc_exact(a)
    assert np.array_equal(r1.coloring, r2.coloring)
    assert r1.coloring[0] == 1.0


def test_disc_walk_matches_vectorized_reference():
    rng = np.random.default_rng(53)
    cases = [
        np.ones((1, 9)),
        np.ones((3, 12)),
        power_set(4).incidence,
        tn_matrix(7),
        tn_matrix(10),
        random_binary(rng, 6, 11),
        rng.integers(-3, 4, size=(5, 10)).astype(float),
        # several high blocks: m = 20 keeps k below n - 1
        random_binary(rng, 20, 18),
        # tall: k shrinks to 3
        rng.integers(-1, 2, size=(5000, 8)).astype(float),
    ]
    assert _low_vars(20, 17) < 17 and _low_vars(5000, 7) == 3
    for a in cases:
        res = disc_exact(a)
        want_v, want_x = reference_min_coloring(a)
        assert res.value == want_v
        assert np.array_equal(res.coloring, want_x)
        for p in (2.0, np.inf):
            res_p = disc_p_exact(a, p)
            want_v, want_x = reference_min_coloring(a, p)
            assert res_p.value == want_v
            assert np.array_equal(res_p.coloring, want_x)


def test_disc_recompute_and_caps():
    a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    res = disc_exact(a)
    assert abs(res.recompute(a) - res.value) < 1e-12
    with pytest.raises(RefusedError):
        disc_exact(np.ones((1, 27)))


def test_herdisc_zero_matrix():
    assert herdisc_exact(np.zeros((3, 4))) == 0.0


def test_herdisc_t8():
    assert herdisc_exact(tn_matrix(8)) == 1.0


def test_herdisc_subcubes2_consistency():
    a = subcubes(2).incidence
    v = herdisc_exact(a)
    lb = detlb_exact(a, 4)
    assert lb <= 2.0 * v + 1e-9
    cert = gamma2(a)
    m = a.shape[0]
    grain = np.log2(2.0 * m)
    assert v >= cert.lower / grain - 1e-9
    assert v <= cert.upper * np.sqrt(grain) + 1e-9


def test_herdisc_matches_subset_brute_force():
    rng = np.random.default_rng(54)
    mats = [random_binary(rng, 4, 6) for _ in range(4)]
    mats += [rng.integers(-2, 3, size=(4, 6)).astype(float) for _ in range(4)]
    # rows repeated 500 times: 2 low columns, so the walk takes 122 steps
    mats += [np.tile(tn_matrix(7), (500, 1)), np.tile(random_binary(rng, 8, 7), (500, 1))]
    gaussian = np.random.default_rng(57)
    mats += [gaussian.standard_normal((4, 6)) for _ in range(2)]
    for a in mats:
        n = a.shape[1]
        want = max(
            brute_disc(a[:, list(cols)])
            for k in range(1, n + 1)
            for cols in itertools.combinations(range(n), k)
        )
        if np.array_equal(a, np.round(a)):
            assert herdisc_exact(a) == want
        else:
            # image sums are added in another order than a @ x
            assert abs(herdisc_exact(a) - want) <= 1e-12 * want


def test_herdisc_memory_is_blocked():
    a = np.tile(tn_matrix(7), (500, 1))
    tracemalloc.start()
    try:
        herdisc_exact(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one image table of m x 3^2 entries and one block like it
    assert peak < 4 * 2**20


def test_herdisc_monotone():
    rng = np.random.default_rng(43)
    for _ in range(4):
        a = random_binary(rng, 3, 5)
        base = herdisc_exact(a)
        extra = np.vstack([a, random_binary(rng, 1, 5)])
        assert herdisc_exact(extra) >= base - 1e-12
        assert herdisc_exact(a[:, :3]) <= base + 1e-12


def test_herdisc_cap():
    with pytest.raises(RefusedError):
        herdisc_exact(np.ones((1, 17)))


def test_disc_p_balanced_even_row():
    for n in (2, 4, 6):
        res = disc_p_exact(np.ones((1, n)), 2.0)
        assert res.value == 0.0


def test_disc_p_large_p_tracks_sup_norm():
    rng = np.random.default_rng(44)
    for _ in range(5):
        a = random_binary(rng, 4, 6)
        vinf = disc_exact(a).value
        v64 = disc_p_exact(a, 64.0).value
        assert v64 <= vinf + 1e-12
        if vinf > 0:
            assert v64 >= 0.95 * vinf


def test_disc_p_uniform_weights_reduce():
    rng = np.random.default_rng(45)
    a = random_binary(rng, 3, 5)
    plain = disc_p_exact(a, 3.0)
    weighted = disc_p_exact(a, 3.0, w=np.ones(3))
    assert abs(plain.value - weighted.value) < 1e-12
    assert np.array_equal(plain.coloring, weighted.coloring)


def test_disc_p_row_permutation_invariant():
    rng = np.random.default_rng(46)
    a = random_binary(rng, 4, 5)
    perm = rng.permutation(4)
    assert abs(disc_p_exact(a, 2.0).value - disc_p_exact(a[perm], 2.0).value) < 1e-12


def test_disc_p_column_negation_invariant():
    rng = np.random.default_rng(47)
    a = rng.standard_normal((3, 5))
    flipped = a.copy()
    flipped[:, 2] *= -1.0
    assert abs(disc_p_exact(a, 2.5).value - disc_p_exact(flipped, 2.5).value) < 1e-12


def test_disc_p_weighted_infinity_drops_zero_rows():
    a = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
    # zero weight on the odd all-ones row: remaining row is balanceable
    res = disc_p_exact(a, np.inf, w=np.array([0.0, 1.0]))
    assert res.value == 1.0  # single {0,1} row with one 1 cannot vanish
    res2 = disc_p_exact(np.array([[1.0, 1.0], [1.0, 0.0]]), np.inf, w=np.array([1.0, 0.0]))
    assert res2.value == 0.0


def test_disc_p_weighted_infinity_recompute():
    a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
    res = disc_p_exact(a, np.inf, w=[1.0, 0.0, 2.0])
    assert res.value == 0.0
    assert res.recompute(a) == 0.0
    b = np.vstack([a, np.ones(3)])
    res = disc_p_exact(b, np.inf, w=[1.0, 0.0, 0.0, 1.0])
    assert res.recompute(b) == res.value == 1.0


def test_disc_p_validation():
    a = np.ones((2, 3))
    with pytest.raises(ValueError):
        disc_p_exact(a, 0.5)
    with pytest.raises(ValueError):
        disc_p_exact(a, 2.0, w=np.zeros(2))
    with pytest.raises(ValueError):
        disc_p_exact(a, 2.0, w=np.array([-1.0, 1.0]))
    with pytest.raises(ValueError):
        disc_p_exact(np.ones((1, 25)), 2.0)


def test_detlb_paper_pair():
    assert abs(detlb_exact(np.array([[1.0, 1.0], [0.0, 1.0]]), 2) - 1.0) < 1e-12
    assert abs(detlb_exact(np.array([[1.0, 0.0], [-1.0, 1.0]]), 2) - 1.0) < 1e-12
    assert abs(detlb_exact(np.array([[2.0, 1.0], [-1.0, 2.0]]), 2) - np.sqrt(5.0)) < 1e-12


def test_detlb_identity():
    for n in (2, 4):
        assert abs(detlb_exact(np.eye(n), n) - 1.0) < 1e-12
    # Sylvester's Hadamard matrix of order 8: |det| = 8^4 = 4096, exact
    # on integer input, where an LU factorization rounds
    h8 = np.array([[1.0]])
    for _ in range(3):
        h8 = np.block([[h8, h8], [h8, -h8]])
    assert detlb_exact(h8, 8) == math.sqrt(8)


def brute_detlb(a, k_max):
    m, n = a.shape
    best = 0.0
    for k in range(1, k_max + 1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                sub = a[np.ix_(rows, cols)]
                best = max(best, abs(np.linalg.det(sub)) ** (1.0 / k))
    return best


def bareiss_det(rows):
    """The exact determinant of an integer matrix by fraction-free
    (Bareiss) elimination on Python ints."""
    m = [[int(x) for x in row] for row in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def exact_detlb_levels(a):
    """max |det B|^{1/k} over the k x k submatrices B of an integer
    matrix, for each k = 1..min(m, n), from exact determinants."""
    m, n = a.shape
    return [
        max(
            float(abs(bareiss_det(a[np.ix_(rows, cols)]))) ** (1.0 / k)
            for rows in itertools.combinations(range(m), k)
            for cols in itertools.combinations(range(n), k)
        )
        for k in range(1, min(m, n) + 1)
    ]


def test_detlb_matches_brute_force():
    rng = np.random.default_rng(48)
    for _ in range(4):
        a = rng.integers(-2, 3, size=(3, 4)).astype(float)
        best = brute_detlb(a, 3)
        assert abs(detlb_exact(a, 3) - best) < 1e-9 * max(best, 1.0)
    # integers: every minor is exact, so the values are equal; 7 x 5 is
    # the transposed path, 3 x 9 has wide levels
    exact = np.random.default_rng(59)
    for shape in ((5, 7), (7, 5), (3, 9), (6, 6)):
        a = exact.integers(-3, 4, size=shape).astype(float)
        levels = exact_detlb_levels(a)
        for k_max in range(1, len(levels) + 1):
            assert detlb_exact(a, k_max) == max(levels[:k_max])
    # floats: the Laplace expansion rounds, differently from LU
    gaussian = np.random.default_rng(58)
    for _ in range(2):
        a = gaussian.standard_normal((4, 5))
        for k_max in (1, 2, 3, 4):
            best = brute_detlb(a, k_max)
            assert abs(detlb_exact(a, k_max) - best) <= 1e-12 * best


def test_detlb_memory_is_chunked():
    a = random_binary(np.random.default_rng(55), 4, 40)
    tracemalloc.start()
    try:
        detlb_exact(a, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one unchunked stack of all C(40, 4) = 91390 submatrices peaks near 25 MB
    assert peak < 4 * 2**20


def test_detlb_memory_keeps_one_level():
    a = random_binary(np.random.default_rng(56), 12, 16)
    tracemalloc.start()
    try:
        detlb_exact(a, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # level 4 holds C(12, 4) x C(16, 4) minors, 7.2 MB; a gathered copy
    # of it per level would peak above 30 MB
    assert peak < 10 * 2**20


def test_detlb_budget_refusal():
    with pytest.raises(RefusedError):
        detlb_exact(np.ones((30, 30)), 15)


def test_detlb2_identity_and_single_column():
    assert abs(detlb2_exact(np.eye(4), 4) - 1.0) < 1e-12
    col = np.array([[3.0], [4.0]])
    assert abs(detlb2_exact(col, 1) - 5.0 / np.sqrt(2.0)) < 1e-12


def test_detlb2_matches_brute_force():
    rng = np.random.default_rng(49)
    for _ in range(4):
        a = rng.standard_normal((4, 4))
        m = 4
        best = 0.0
        for k in (1, 2, 3, 4):
            for cols in itertools.combinations(range(4), k):
                sub = a[:, cols]
                gram = abs(np.linalg.det(sub.T @ sub))
                best = max(best, np.sqrt(k / m) * gram ** (1.0 / (2.0 * k)))
        assert abs(detlb2_exact(a, 4) - best) < 1e-9 * max(best, 1.0)


def test_bucketing_identity_uniform():
    n = 3
    p = np.full(n, 1.0 / n)
    value, rows, cols = detlb_bucketing(np.eye(n), p, p)
    assert abs(value - 1.0) < 1e-12
    assert len(rows) == len(cols) >= 1


def test_bucketing_value_recomputes_from_witness():
    rng = np.random.default_rng(50)
    a = rng.standard_normal((5, 6))
    p = np.full(5, 0.2)
    q = np.full(6, 1.0 / 6.0)
    value, rows, cols = detlb_bucketing(a, p, q)
    k = len(rows)
    sub = a[np.ix_(rows, cols)]
    assert abs(value - abs(np.linalg.det(sub)) ** (1.0 / k)) < 1e-9 * max(value, 1.0)


def test_bucketing_dominated_by_exact():
    rng = np.random.default_rng(51)
    for _ in range(4):
        a = rng.integers(-2, 3, size=(6, 6)).astype(float)
        if np.linalg.matrix_rank(a) == 0:
            continue
        p = np.full(6, 1.0 / 6.0)
        value, _, _ = detlb_bucketing(a, p, p)
        assert value <= detlb_exact(a, 6) + 1e-9


def test_bucketing_rejects_rank_zero():
    p = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        detlb_bucketing(np.zeros((2, 2)), p, p)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "p, match",
    [
        (np.array([np.nan, 0.5, 0.25, 0.25]), "finite"),
        (np.array([np.inf, 0.0, 0.0, 0.0]), "finite"),
        (np.full(3, 1.0 / 3.0), "length"),
        (np.array([1.5, -0.5, 0.0, 0.0]), "nonnegative"),
    ],
    ids=["nan", "inf", "length", "negative"],
)
def test_bucketing_rejects_bad_weights(p, match):
    # a NaN or inf weight once raised LinAlgError("SVD did not converge")
    # after a RuntimeWarning
    t4 = tn_matrix(4)
    uniform = np.full(4, 0.25)
    for rows, cols in ((p, uniform), (uniform, p)):
        with pytest.raises(ValueError, match=match):
            detlb_bucketing(t4, rows, cols)


def test_detlb_vs_herdisc_and_gamma2():
    rng = np.random.default_rng(52)
    for _ in range(5):
        a = random_binary(rng, 4, 4)
        if not a.any():
            continue
        lb = detlb_exact(a, 4)
        assert lb <= 2.0 * herdisc_exact(a) + 1e-9
        assert lb <= gamma2(a).upper + 1e-4


def test_coloring_result_validation():
    with pytest.raises(ValueError):
        ColoringResult(value=1.0, coloring=np.array([0.5, 1.0]), norm_kind="linf")
