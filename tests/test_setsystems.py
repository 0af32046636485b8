"""Set-system constructors and algebra: incidence matrices, products, traces."""

import itertools

import numpy as np
import pytest

from g2d.gamma2 import gamma2
from g2d.linalg import RefusedError, kron, tn_matrix
from g2d.oracles import disc_exact, herdisc_exact
from g2d.setsystems import (
    CanonicalInterval,
    SetSystem,
    arithmetic_progressions,
    canonical_decomposition,
    grid_anchored,
    initial_segments,
    k_permutations,
    maximal_aps,
    power_set,
    product,
    read_set_system,
    restrict,
    subcubes,
    union,
    write_set_system,
)


def row_set_family(f):
    """Rows as a set of frozensets (order-insensitive comparison)."""
    return set(f.row_sets())


def test_set_system_validates_entries():
    with pytest.raises(ValueError):
        SetSystem(np.array([[0.5, 1.0]]))
    with pytest.raises(ValueError):
        SetSystem(np.eye(2), labels=("only one",))


def test_initial_segments_small():
    assert np.array_equal(initial_segments(1).incidence, [[1.0]])
    assert np.array_equal(
        initial_segments(3).incidence,
        [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]],
    )


def test_initial_segments_herdisc_one():
    for n in range(1, 9):
        assert herdisc_exact(initial_segments(n).incidence) == 1.0


def test_grid_anchored_d1_and_d2():
    for n in (2, 3, 5):
        assert np.array_equal(
            grid_anchored(1, n).incidence, initial_segments(n).incidence
        )
    t2 = tn_matrix(2)
    assert np.array_equal(grid_anchored(2, 2).incidence, kron(t2, t2))


def test_grid_anchored_is_kron_power():
    t3 = tn_matrix(3)
    assert np.array_equal(grid_anchored(3, 3).incidence, kron(kron(t3, t3), t3))


def test_grid_anchored_gamma2_is_square_of_tn():
    cert_grid = gamma2(grid_anchored(2, 4).incidence)
    cert_base = gamma2(tn_matrix(4))
    assert abs(cert_grid.upper - cert_base.upper**2) < 5e-3 * cert_base.upper**2


def test_subcubes_d1_display():
    assert np.array_equal(
        subcubes(1).incidence, [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
    )


def test_subcubes_d2_shape_and_gamma2():
    c2 = subcubes(2)
    assert c2.incidence.shape == (9, 4)
    cert = gamma2(c2.incidence)
    assert abs(cert.upper - 4.0 / 3.0) < 5e-4


def test_subcubes_d2_rows_enumerate_all_subcubes():
    # ground set = {0,1}^2 in kron order: point index 2*x1 + x2 with
    # x1, x2 in {0, 1}. A subcube fixes each coordinate to 0, 1, or *.
    want = set()
    for c1 in (0, 1, None):
        for c2 in (0, 1, None):
            pts = frozenset(
                2 * x1 + x2 + 1
                for x1 in ((c1,) if c1 is not None else (0, 1))
                for x2 in ((c2,) if c2 is not None else (0, 1))
            )
            want.add(pts)
    assert row_set_family(subcubes(2)) == want
    assert len(want) == 9


def test_arithmetic_progressions_n2():
    assert row_set_family(arithmetic_progressions(2)) == {
        frozenset({1}),
        frozenset({2}),
        frozenset({1, 2}),
    }


def test_arithmetic_progressions_n4_members():
    fam = row_set_family(arithmetic_progressions(4))
    assert frozenset({1, 3}) in fam
    assert frozenset({2, 4}) in fam
    assert frozenset({1, 4}) in fam


def brute_force_aps(n):
    fam = set()
    for a in range(1, n + 1):
        for delta in range(1, n + 1):
            members = [a]
            while members[-1] + delta <= n:
                members.append(members[-1] + delta)
                fam.add(frozenset(members))
            fam.add(frozenset({a}))
    return fam


def test_arithmetic_progressions_n10_count():
    fam = brute_force_aps(10)
    sys10 = arithmetic_progressions(10)
    assert sys10.rows == len(fam)
    assert row_set_family(sys10) == fam


def test_arithmetic_progressions_no_duplicate_rows():
    inc = arithmetic_progressions(12).incidence
    assert len({r.tobytes() for r in inc}) == inc.shape[0]


def test_k_permutations_identity_is_initial_segments():
    n = 5
    got = k_permutations([list(range(1, n + 1))])
    assert np.array_equal(got.incidence, initial_segments(n).incidence)


def test_k_permutations_two_perms_n2():
    got = k_permutations([[1, 2], [2, 1]])
    assert row_set_family(got) == {
        frozenset({1}),
        frozenset({2}),
        frozenset({1, 2}),
    }


def test_k_permutations_herdisc_one():
    rng = np.random.default_rng(21)
    for n in (3, 5, 8):
        perm = list(rng.permutation(n) + 1)
        sys_pi = k_permutations([perm])
        assert herdisc_exact(sys_pi.incidence) == 1.0


def test_k_permutations_rejects_malformed():
    with pytest.raises(ValueError):
        k_permutations([[1, 1]])
    with pytest.raises(ValueError):
        k_permutations([[1, 2], [1, 3]])


def test_power_set_n1():
    assert row_set_family(power_set(1)) == {frozenset(), frozenset({1})}


def test_power_set_disc_n4():
    assert disc_exact(power_set(4).incidence).value == 2.0


def test_power_set_gamma2_sqrt_bound():
    n = 6
    cert = gamma2(power_set(n).incidence)
    assert cert.upper <= np.sqrt(n) + 1e-3


def test_union_idempotent_and_small():
    f = arithmetic_progressions(4)
    again = union(f, f)
    assert np.array_equal(again.incidence, f.incidence)
    a = SetSystem(np.array([[1.0, 0.0]]))
    b = SetSystem(np.array([[0.0, 1.0]]))
    assert union(a, b).rows == 2
    assert union(a, a).rows == 1
    with pytest.raises(ValueError):
        union(a, SetSystem(np.array([[1.0, 0.0, 0.0]])))


def test_union_gamma2_root_sum_square():
    rng = np.random.default_rng(22)
    for _ in range(5):
        f = SetSystem((rng.random((3, 4)) < 0.5).astype(float))
        g = SetSystem((rng.random((4, 4)) < 0.5).astype(float))
        u = union(f, g)
        gu = gamma2(u.incidence).upper
        gf = gamma2(f.incidence).upper
        gg = gamma2(g.incidence).upper
        assert gu**2 <= gf**2 + gg**2 + 1e-3


def test_product_with_point_is_identity():
    f = arithmetic_progressions(3)
    one_point = SetSystem(np.array([[1.0]]))
    assert np.array_equal(product(f, one_point).incidence, f.incidence)
    assert np.array_equal(product(one_point, f).incidence, f.incidence)


def test_product_of_initial_segments_is_grid():
    n = 3
    got = product(initial_segments(n), initial_segments(n))
    assert np.array_equal(got.incidence, grid_anchored(2, n).incidence)


def test_product_gamma2_multiplicative():
    rng = np.random.default_rng(23)
    for _ in range(3):
        f = SetSystem((rng.random((3, 3)) < 0.6).astype(float))
        g = SetSystem((rng.random((2, 3)) < 0.6).astype(float))
        p = product(f, g)
        gp = gamma2(p.incidence).upper
        gf = gamma2(f.incidence).upper
        gg = gamma2(g.incidence).upper
        assert abs(gp - gf * gg) <= 5e-3 * max(gf * gg, 1.0)


def test_restrict_full_ground_set():
    f = arithmetic_progressions(4)
    assert np.array_equal(restrict(f, range(1, 5)).incidence, f.incidence)


def test_restrict_initial_segments_example():
    got = restrict(initial_segments(4), [2, 4])
    assert np.array_equal(
        got.incidence, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]
    )


def test_restrict_gamma2_monotone():
    rng = np.random.default_rng(24)
    for _ in range(5):
        f = SetSystem((rng.random((4, 5)) < 0.5).astype(float))
        pts = sorted(rng.choice(np.arange(1, 6), size=3, replace=False))
        sub = restrict(f, pts)
        assert gamma2(sub.incidence).upper <= gamma2(f.incidence).upper + 1e-3


def test_restrict_rejects_bad_points():
    f = initial_segments(3)
    with pytest.raises(ValueError):
        restrict(f, [])
    with pytest.raises(ValueError):
        restrict(f, [0, 1])
    with pytest.raises(ValueError):
        restrict(f, [4])


def test_canonical_decomposition_powers_of_two():
    for k in range(0, 7):
        n = 2**k
        parts = canonical_decomposition(n, n)
        assert len(parts) == 1
        assert parts[0].size == n
        assert parts[0].start == 0


def test_canonical_decomposition_seven_of_eight():
    parts = canonical_decomposition(7, 8)
    assert [(p.start, p.stop) for p in parts] == [(0, 4), (4, 6), (6, 7)]
    assert sorted(p.size for p in parts) == [1, 2, 4]


def test_canonical_decomposition_exhaustive():
    n = 64
    for j in range(1, n + 1):
        parts = canonical_decomposition(j, n)
        covered = []
        for p in parts:
            covered.extend(p.points(n))
        assert covered == list(range(j))
        sizes = [p.size for p in parts]
        assert len(sizes) == len(set(sizes))
        assert len(parts) <= int(np.log2(n)) + 1


def test_canonical_interval_validation():
    with pytest.raises(ValueError):
        CanonicalInterval(offset=-1, level=0)
    with pytest.raises(ValueError):
        canonical_decomposition(0, 4)
    with pytest.raises(ValueError):
        canonical_decomposition(5, 4)


def test_grid_sets_decompose_into_canonical_boxes():
    # every anchored box [1..i] x [1..j] splits into at most
    # (log2(n)+1)^2 products of canonical intervals
    n = 4
    cap = (int(np.log2(n)) + 1) ** 2
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            boxes = [
                (p, q)
                for p in canonical_decomposition(i, n)
                for q in canonical_decomposition(j, n)
            ]
            assert len(boxes) <= cap
            pts = set()
            for p, q in boxes:
                for x in p.points(n):
                    for y in q.points(n):
                        assert (x, y) not in pts
                        pts.add((x, y))
            assert pts == set(itertools.product(range(i), range(j)))


def test_maximal_aps_size2():
    m = maximal_aps(2)
    assert row_set_family(m.system) == {
        frozenset({1, 2}),
        frozenset({1}),
        frozenset({2}),
    }


def test_maximal_aps_small_difference_degree():
    s = 16
    m = maximal_aps(s)
    degree = m.small_difference.incidence.sum(axis=0)
    assert np.max(degree) <= np.sqrt(s)


def test_maximal_aps_large_difference_sizes():
    s = 16
    m = maximal_aps(s)
    sizes = m.large_difference.incidence.sum(axis=1)
    assert np.max(sizes) <= np.sqrt(s)


def test_maximal_aps_buckets_partition_system():
    s = 12
    m = maximal_aps(s)
    merged = row_set_family(m.small_difference) | row_set_family(m.large_difference)
    assert row_set_family(m.system) == merged


def test_constructors_have_no_duplicate_rows():
    systems = [
        initial_segments(6),
        grid_anchored(2, 3),
        subcubes(2),
        arithmetic_progressions(9),
        k_permutations([[2, 1, 3], [3, 1, 2]]),
        maximal_aps(10).system,
    ]
    for f in systems:
        inc = f.incidence
        assert len({r.tobytes() for r in inc}) == inc.shape[0]
        assert np.all((inc == 0.0) | (inc == 1.0))


def test_set_system_io_round_trip(tmp_path):
    f = arithmetic_progressions(5)
    path = tmp_path / "aps.txt"
    write_set_system(path, f)
    back = read_set_system(path)
    assert np.array_equal(back.incidence, f.incidence)
    assert back.labels == f.labels


def test_set_system_io_without_labels(tmp_path):
    f = power_set(3)
    path = tmp_path / "ps.txt"
    write_set_system(path, f)
    back = read_set_system(path)
    assert np.array_equal(back.incidence, f.incidence)


@pytest.mark.parametrize(
    "build",
    [
        lambda: power_set(21),
        lambda: arithmetic_progressions(129),
        lambda: maximal_aps(129),
        lambda: subcubes(13),
        lambda: grid_anchored(2, 65),
        lambda: product(initial_segments(65), initial_segments(64)),
        lambda: SetSystem(np.zeros((1, 4097))),
        lambda: k_permutations([list(range(1, 4098))]),
    ],
    ids=["power_set", "aps", "maximal_aps", "subcubes", "grid", "product", "ground", "perms"],
)
def test_caps_raise_refused_error(build):
    with pytest.raises(RefusedError):
        build()
