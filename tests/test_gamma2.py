"""Factorization-norm solver: primal/dual bounds, certificates, ellipsoids."""

import dataclasses

import numpy as np
import pytest

from g2d.ellipsoid import (
    Ellipsoid,
    block_diag_ellipsoid,
    ellipsoid_contains,
    ellipsoid_inf_norm,
    ellipsoid_sum,
    membership_value,
)
from g2d.gamma2 import (
    CertificateError,
    check_certificate,
    dual_value,
    gamma2,
    gamma2_lower_dual,
    gamma2_upper,
    read_certificate,
    uniform_nuclear_lower,
    write_certificate,
)
from g2d.interior import minimum_height_ellipsoid
from g2d.linalg import nuclear_norm, tn_matrix

C1 = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])

# least-inf-norm ellipse covering the rows of C1: x1^2 + x2^2 - x1 x2 <= 1
D_STAR = np.array([[4.0 / 3.0, 2.0 / 3.0], [2.0 / 3.0, 4.0 / 3.0]])


def random_binary(rng, m, n, density=0.5):
    return (rng.random((m, n)) < density).astype(float)


def test_gamma2_all_ones():
    cert = gamma2(np.ones((4, 4)))
    assert abs(cert.upper - 1.0) <= 2e-4
    assert abs(cert.lower - 1.0) <= 2e-4
    assert cert.converged


def test_gamma2_identity():
    for n in (2, 5):
        cert = gamma2(np.eye(n))
        assert abs(cert.upper - 1.0) <= 2e-4
        assert cert.lower <= cert.upper + 1e-12


def test_gamma2_upper_c1():
    value, ell, b, c, converged = gamma2_upper(C1)
    assert abs(value - 2.0 / np.sqrt(3.0)) <= 1e-4
    assert converged
    # certificate geometry is carried by the ellipsoid
    for j in range(C1.shape[1]):
        assert membership_value(ell, C1[:, j]) <= 1.0 + 1e-6


def test_gamma2_c1_transposed_side_ellipse():
    # on the 2 x 3 transposed problem the optimal dual ellipse is the
    # one whose boundary passes through (1,1), (1,0), (0,1)
    value, ell, _, _, _ = gamma2_upper(C1.T)
    assert abs(value - 2.0 / np.sqrt(3.0)) <= 1e-4
    assert np.max(np.abs(ell.d - D_STAR)) <= 2e-3


def test_gamma2_zero_matrix():
    cert = gamma2(np.zeros((3, 4)))
    assert cert.upper == 0.0
    assert cert.lower == 0.0
    assert cert.converged
    check_certificate(cert, np.zeros((3, 4)))


def test_dual_uniform_weights_give_scaled_nuclear():
    for n in (2, 5, 9):
        t = tn_matrix(n)
        p = np.full(n, 1.0 / n)
        got = dual_value(t, p, p)
        want = nuclear_norm(t) / n
        assert abs(got - want) < 1e-12 * max(want, 1.0)
        assert abs(uniform_nuclear_lower(t) - want) < 1e-12 * max(want, 1.0)


def test_dual_t2_exact_witness():
    t2 = tn_matrix(2)
    p = np.array([1.0 / 3.0, 2.0 / 3.0])
    q = np.array([2.0 / 3.0, 1.0 / 3.0])
    m = np.sqrt(p)[:, None] * t2 * np.sqrt(q)[None, :]
    sigma = np.linalg.svd(m, compute_uv=False)
    root3 = 1.0 / np.sqrt(3.0)
    assert abs(sigma[0] - (root3 + 1.0 / 3.0)) < 1e-10
    assert abs(sigma[1] - (root3 - 1.0 / 3.0)) < 1e-10
    assert abs(dual_value(t2, p, q) - 2.0 * root3) < 1e-10


def test_dual_all_ones_point_masses():
    j = np.ones((4, 6))
    for i, k in [(0, 0), (3, 5), (1, 2)]:
        p = np.zeros(4)
        q = np.zeros(6)
        p[i] = 1.0
        q[k] = 1.0
        assert abs(dual_value(j, p, q) - 1.0) < 1e-12


def test_gamma2_lower_dual_reports_achieved_value():
    rng = np.random.default_rng(31)
    for _ in range(5):
        a = random_binary(rng, 4, 5)
        if not a.any():
            continue
        value, p, q = gamma2_lower_dual(a)
        assert abs(value - dual_value(a, p, q)) < 1e-9 * max(value, 1.0)
        assert np.all(p >= -1e-15) and np.all(q >= -1e-15)
        assert abs(p.sum() - 1.0) < 1e-9 and abs(q.sum() - 1.0) < 1e-9


def test_gamma2_tn16_bracket():
    t = tn_matrix(16)
    cert = gamma2(t)
    assert cert.lower >= nuclear_norm(t) / 16.0 - 1e-9
    assert cert.upper <= 5.0 + 1e-6
    assert cert.gap <= 2e-2 * cert.upper


def test_gamma2_transpose_invariance():
    rng = np.random.default_rng(32)
    for _ in range(3):
        a = random_binary(rng, 5, 7)
        if not a.any():
            continue
        va = gamma2(a).upper
        vt = gamma2(a.T).upper
        assert abs(va - vt) <= 2e-4 * max(va, 1.0) + 1e-9


def test_gamma2_kron_multiplicative():
    rng = np.random.default_rng(33)
    for _ in range(3):
        a = random_binary(rng, 3, 3, 0.6)
        b = random_binary(rng, 3, 3, 0.6)
        if not a.any() or not b.any():
            continue
        va = gamma2(a).upper
        vb = gamma2(b).upper
        vab = gamma2(np.kron(a, b)).upper
        assert abs(vab - va * vb) <= 5e-3 * max(va * vb, 1.0)


def test_gamma2_monotone_under_deletion():
    rng = np.random.default_rng(34)
    for _ in range(4):
        a = random_binary(rng, 4, 5)
        if not a[1:].any() or not a[:, 1:].any():
            continue
        full = gamma2(a).upper
        assert gamma2(a[1:]).upper <= full + 2e-4 * max(full, 1.0)
        assert gamma2(a[:, 1:]).upper <= full + 2e-4 * max(full, 1.0)


def test_gamma2_triangle_inequality():
    rng = np.random.default_rng(35)
    for _ in range(4):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        va = gamma2(a).upper
        vb = gamma2(b).upper
        vs = gamma2(a + b).upper
        assert vs <= va + vb + 3e-4 * max(va + vb, 1.0)


def test_gamma2_union_of_columns():
    rng = np.random.default_rng(36)
    for _ in range(4):
        a = random_binary(rng, 4, 3)
        b = random_binary(rng, 4, 4)
        if not a.any() or not b.any():
            continue
        va = gamma2(a).upper
        vb = gamma2(b).upper
        vu = gamma2(np.hstack([a, b])).upper
        assert vu**2 <= va**2 + vb**2 + 1e-3 * max(va**2 + vb**2, 1.0)


def test_gamma2_block_diag_converges_on_each_block():
    # criterion 8, trial 74: a single ascent from uniform weights moves
    # only slowly towards the better of the two blocks
    rows = ["0010000000", "1111000000", "1111100000", "0000011001", "0000001011", "0000000101"]
    a = np.array([[float(ch) for ch in row] for row in rows])
    cert = gamma2(a)
    assert cert.converged
    blocks = [gamma2(a[:3, :5]).upper, gamma2(a[3:, 5:]).upper]
    assert abs(cert.upper - max(blocks)) <= 1e-4 * cert.upper
    check_certificate(cert, a)
    on_first = cert.dual_p[3:].sum() == 0.0 and cert.dual_q[5:].sum() == 0.0
    on_second = cert.dual_p[:3].sum() == 0.0 and cert.dual_q[:5].sum() == 0.0
    assert on_first != on_second


def test_gamma2_zero_row_and_column():
    a = np.zeros((4, 5))
    a[1:, 1:] = tn_matrix(3)[:, [0, 1, 2, 2]]
    cert = gamma2(a)
    ref = gamma2(a[1:, 1:])
    assert cert.converged
    assert abs(cert.upper - ref.upper) <= 1e-4 * ref.upper
    check_certificate(cert, a)
    assert cert.dual_p[0] == 0.0 and cert.dual_q[0] == 0.0
    assert np.all(cert.factor_left[0] == 0.0) and np.all(cert.factor_right[:, 0] == 0.0)


def test_gamma2_block_diag_is_max():
    t4 = tn_matrix(4)
    j3 = np.ones((3, 3))
    block = np.zeros((7, 7))
    block[:4, :4] = t4
    block[4:, 4:] = j3
    vt = gamma2(t4).upper
    vb = gamma2(block).upper
    assert abs(vb - max(vt, 1.0)) <= 5e-4 * max(vt, 1.0)


def test_weak_duality_random_sweep():
    rng = np.random.default_rng(37)
    for _ in range(10):
        m, n = rng.integers(2, 6, size=2)
        a = random_binary(rng, m, n)
        if not a.any():
            continue
        cert = gamma2(a)
        assert cert.lower <= cert.upper + 1e-4 * max(cert.upper, 1.0)
        assert abs(cert.gap - (cert.upper - cert.lower)) < 1e-12


def test_certificate_checker_accepts_solver_output():
    rng = np.random.default_rng(38)
    a = random_binary(rng, 5, 4)
    a[0, 0] = 1.0
    cert = gamma2(a)
    report = check_certificate(cert, a)
    assert report["factorization_residual"] <= 1e-8 * np.linalg.norm(a)
    assert report["worst_membership"] <= 1.0 + 1e-4


@pytest.mark.parametrize("lower_factor", [1.0 - 9e-5, 1.0])
def test_certificate_checker_rejects_upper_below_own_weights(lower_factor):
    # scaling the bounds by less than tol passes every tol-slack check;
    # the unchanged weights still certify the true value, above upper
    a = tn_matrix(8)
    cert = gamma2(a)
    upper = cert.upper * (1.0 - 9e-5)
    lower = min(cert.lower * lower_factor, upper)
    bad = dataclasses.replace(cert, upper=upper, lower=lower, gap=upper - lower)
    assert dual_value(a, bad.dual_p, bad.dual_q) > bad.upper
    with pytest.raises(CertificateError, match="weights certify"):
        check_certificate(bad, a)


def test_certificate_checker_rejects_wrong_matrix():
    cert = gamma2(C1)
    with pytest.raises(CertificateError):
        check_certificate(cert, C1 + 1.0)


def test_certificate_io_round_trip(tmp_path):
    cert = gamma2(C1)
    path = tmp_path / "cert.txt"
    write_certificate(path, cert)
    back = read_certificate(path)
    assert back.upper == cert.upper
    assert back.lower == cert.lower
    assert back.gap == cert.gap
    assert back.converged == cert.converged
    # the ellipsoid re-projects on construction, so D is equal only up
    # to one eigh round-off; the raw arrays below round-trip exactly
    assert np.max(np.abs(back.ellipsoid.d - cert.ellipsoid.d)) < 1e-14
    assert np.array_equal(back.factor_left, cert.factor_left)
    assert np.array_equal(back.factor_right, cert.factor_right)
    assert np.array_equal(back.dual_p, cert.dual_p)
    assert np.array_equal(back.dual_q, cert.dual_q)
    check_certificate(back, C1)


def test_factor_norms_are_balanced():
    cert = gamma2(tn_matrix(6))
    b, c = cert.factor_left, cert.factor_right
    row = np.sqrt((b * b).sum(axis=1).max())
    col = np.sqrt((c * c).sum(axis=0).max())
    assert abs(row - col) <= 1e-6 * max(row, 1.0)
    assert row * col <= cert.upper * (1.0 + 1e-4) + 1e-12


def test_lift_only_path_matches_default():
    # ip_side_cap=0 disables interior-point refinement so the upper
    # bound comes from the lifted and trivial candidates alone
    t3 = tn_matrix(3)
    ref = gamma2(t3).upper
    value, ell, b, c, _ = gamma2_upper(t3, ip_side_cap=0)
    assert value >= ref - 1e-9
    assert value <= ref * (1.0 + 2e-3)
    for j in range(3):
        assert membership_value(ell, t3[:, j]) <= 1.0 + 1e-6


def test_interior_point_cross_check():
    for n in (3, 5, 8):
        t = tn_matrix(n)
        height, w = minimum_height_ellipsoid(t, tol=1e-10)
        ref = gamma2(t).upper
        assert abs(np.sqrt(height) - ref) <= 1e-5 * ref
        # W is the dual ellipsoid: every column fits, max diag ~ t
        assert abs(np.max(np.diag(w)) - height) <= 1e-6 * height
        ell = Ellipsoid(w * (1.0 + 1e-9))
        for j in range(n):
            assert membership_value(ell, t[:, j]) <= 1.0 + 1e-6


# ---------------------------------------------------------------------------
# ellipsoid utilities
# ---------------------------------------------------------------------------


def test_ellipsoid_inf_norm_identity():
    assert abs(ellipsoid_inf_norm(Ellipsoid(np.eye(3))) - 1.0) < 1e-12


def test_ellipsoid_inf_norm_c1_dual():
    # the inf-norm only reads the diagonal, so the off-diagonal entry
    # does not matter here
    d = np.array([[4.0 / 3.0, 1.0 / 3.0], [1.0 / 3.0, 4.0 / 3.0]])
    assert abs(ellipsoid_inf_norm(Ellipsoid(d)) - 2.0 / np.sqrt(3.0)) < 1e-12
    assert abs(ellipsoid_inf_norm(Ellipsoid(D_STAR)) - 2.0 / np.sqrt(3.0)) < 1e-12


def test_ellipsoid_inf_norm_boundary_sampling():
    rng = np.random.default_rng(39)
    for dim in (2, 3):
        b = rng.standard_normal((dim, dim))
        d = b @ b.T + 0.1 * np.eye(dim)
        ell = Ellipsoid(d)
        lam, vec = np.linalg.eigh(d)
        root = (vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.T
        u = rng.standard_normal((10_000, dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        sampled = np.max(np.abs(u @ root))
        want = ellipsoid_inf_norm(ell)
        assert sampled <= want + 1e-12
        assert sampled >= want - 1e-3 * want


def test_ellipsoid_contains_zero_and_columns():
    ell = Ellipsoid(D_STAR)
    assert ellipsoid_contains(ell, np.zeros(2))
    for v in ([1.0, 1.0], [1.0, 0.0], [0.0, 1.0]):
        assert ellipsoid_contains(ell, np.array(v), tol=1e-9)
        # all three sit exactly on the boundary x1^2+x2^2-x1x2 = 1
        assert abs(membership_value(ell, np.array(v)) - 1.0) < 1e-10


def test_ellipsoid_contains_rejects_out_of_range():
    flat = Ellipsoid(np.diag([1.0, 0.0]))
    assert ellipsoid_contains(flat, np.array([1.0, 0.0]))
    assert not ellipsoid_contains(flat, np.array([0.0, 1.0]))
    assert not ellipsoid_contains(flat, np.array([0.0, 1e-3]))


def test_ellipsoid_sum_zero_identity():
    d = D_STAR
    zero = Ellipsoid(np.zeros((2, 2)))
    got = ellipsoid_sum(Ellipsoid(d), zero)
    assert np.max(np.abs(got.d - d)) < 1e-12


def test_ellipsoid_sum_two_unit_balls():
    s = ellipsoid_sum(Ellipsoid(np.eye(3)), Ellipsoid(np.eye(3)))
    assert abs(ellipsoid_inf_norm(s) - np.sqrt(2.0)) < 1e-12


def test_ellipsoid_sum_contains_both_column_sets():
    rng = np.random.default_rng(40)
    a = random_binary(rng, 4, 3)
    b = random_binary(rng, 4, 5)
    a[0, 0] = 1.0
    b[0, 0] = 1.0
    _, ea, _, _, _ = gamma2_upper(a)
    _, eb, _, _, _ = gamma2_upper(b)
    s = ellipsoid_sum(ea, eb)
    for j in range(a.shape[1]):
        assert membership_value(s, a[:, j]) <= 1.0 + 1e-6
    for j in range(b.shape[1]):
        assert membership_value(s, b[:, j]) <= 1.0 + 1e-6


def test_block_diag_ellipsoid_unit_balls():
    got = block_diag_ellipsoid(Ellipsoid(np.eye(2)), Ellipsoid(np.eye(3)))
    assert got.dim == 5
    assert abs(ellipsoid_inf_norm(got) - 1.0) < 1e-12


def test_block_diag_ellipsoid_degenerate_part():
    d = D_STAR
    got = block_diag_ellipsoid(Ellipsoid(d), Ellipsoid(np.zeros((1, 1))))
    assert got.dim == 3
    assert np.max(np.abs(got.d[:2, :2] - d)) < 1e-12
    assert abs(ellipsoid_inf_norm(got) - ellipsoid_inf_norm(Ellipsoid(d))) < 1e-12
