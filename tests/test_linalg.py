"""Dense linear algebra kernels: spectra, norms, structured matrices."""

import numpy as np
import pytest

from g2d.linalg import (
    RefusedError,
    as_matrix,
    circulant_interval,
    circulant_interval_eigenvalues,
    determinant,
    format_matrix,
    kron,
    nuclear_norm,
    one_to_two_norm,
    psd_project,
    read_matrix,
    read_matrix_with_comments,
    singular_values,
    sn_tridiagonal,
    svd,
    tn_matrix,
    tn_singular_values_closed_form,
    two_to_infinity_norm,
    write_matrix,
)


def cofactor_det(a):
    """Brute-force cofactor expansion along the first row."""
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * a[0, j] * cofactor_det(minor)
    return total


def test_as_matrix_validation():
    a = as_matrix([[1.0, 2.0], [3.0, 4.0]])
    assert a.dtype == np.float64
    # 1-d input becomes a single row
    assert as_matrix([1.0, 2.0, 3.0]).shape == (1, 3)
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 1.0]])


def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_t2_explicit():
    t2 = np.array([[1.0, 0.0], [1.0, 1.0]])
    expected = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [1.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 1.0, 0.0],
            [1.0, 1.0, 1.0, 1.0],
        ]
    )
    assert np.array_equal(kron(t2, t2), expected)


def test_kron_singular_values_are_pairwise_products():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        direct = singular_values(kron(a, b))
        pairwise = np.sort(np.outer(singular_values(a), singular_values(b)).ravel())[::-1]
        assert np.max(np.abs(direct - pairwise)) < 1e-10 * max(pairwise[0], 1.0)


def test_kron_mixed_product_property():
    rng = np.random.default_rng(12)
    for _ in range(10):
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 2))
        c = rng.standard_normal((3, 2))
        d = rng.standard_normal((2, 4))
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(np.max(np.abs(rhs)), 1.0)


def test_kron_entry_cap():
    with pytest.raises(RefusedError):
        kron(np.ones((10, 10)), np.ones((10, 10)), max_entries=9999)


def test_svd_identity():
    dec = svd(np.eye(5))
    assert np.max(np.abs(dec.singular_values - 1.0)) < 1e-12


def test_svd_t3_closed_form():
    expected = np.array(
        [
            1.0 / (2.0 * np.sin(np.pi / 14.0)),
            1.0 / (2.0 * np.sin(3.0 * np.pi / 14.0)),
            1.0 / (2.0 * np.sin(5.0 * np.pi / 14.0)),
        ]
    )
    got = svd(tn_matrix(3)).singular_values
    assert np.max(np.abs(got - expected)) < 1e-10


def test_svd_matches_gram_eigenvalues():
    rng = np.random.default_rng(13)
    for _ in range(8):
        a = rng.standard_normal((4, 6))
        s = svd(a).singular_values
        lam = np.linalg.eigvalsh(a @ a.T)[::-1]
        assert np.max(np.abs(s * s - lam)) < 1e-10 * max(lam[0], 1.0)


def test_svd_reconstruction_and_orthonormality():
    rng = np.random.default_rng(14)
    for _ in range(8):
        m, n = rng.integers(1, 8, size=2)
        a = rng.standard_normal((m, n))
        dec = svd(a)
        fro = np.linalg.norm(a)
        assert np.linalg.norm(dec.reconstruct() - a) <= 1e-10 * max(fro, 1.0)
        k = dec.u.shape[1]
        assert np.max(np.abs(dec.u.T @ dec.u - np.eye(k))) < 1e-10
        assert np.max(np.abs(dec.vt @ dec.vt.T - np.eye(k))) < 1e-10
        assert np.all(np.diff(dec.singular_values) <= 1e-12)


def test_nuclear_norm_identity():
    for n in (1, 3, 7):
        assert abs(nuclear_norm(np.eye(n)) - n) < 1e-10 * n


def test_nuclear_norm_tn_formula():
    n = 10
    j = np.arange(1, n + 1)
    expected = np.sum(1.0 / (2.0 * np.sin((2 * j - 1) * np.pi / (4 * n + 2))))
    assert abs(nuclear_norm(tn_matrix(n)) - expected) < 1e-8 * expected


def test_nuclear_norm_transpose_invariance():
    rng = np.random.default_rng(15)
    for _ in range(10):
        m, n = rng.integers(1, 9, size=2)
        a = rng.standard_normal((m, n))
        va, vt = nuclear_norm(a), nuclear_norm(a.T)
        assert abs(va - vt) < 1e-10 * max(va, 1.0)


def test_circulant_nuclear_bounded_by_four_tn():
    n = 8
    assert nuclear_norm(circulant_interval(n)) <= 4.0 * nuclear_norm(tn_matrix(n)) + 1e-9


def test_determinant_identity():
    for k in (1, 2, 5):
        assert abs(determinant(np.eye(k)) - 1.0) < 1e-12


def test_determinant_sum_example():
    a = np.array([[1.0, 1.0], [0.0, 1.0]]) + np.array([[1.0, 0.0], [-1.0, 1.0]])
    assert np.array_equal(a, np.array([[2.0, 1.0], [-1.0, 2.0]]))
    assert abs(determinant(a) - 5.0) < 1e-12


def test_determinant_vs_cofactor_oracle():
    rng = np.random.default_rng(16)
    for _ in range(10):
        a = rng.integers(-3, 4, size=(4, 4)).astype(float)
        assert abs(determinant(a) - cofactor_det(a)) < 1e-9 * max(abs(cofactor_det(a)), 1.0)


def test_determinant_multiplicative():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        lhs = determinant(a @ b)
        rhs = determinant(a) * determinant(b)
        assert abs(lhs - rhs) < 1e-8 * max(abs(rhs), 1.0)


def test_determinant_rejects_nonsquare():
    with pytest.raises(ValueError):
        determinant(np.ones((2, 3)))


def test_psd_project_idempotent_on_psd():
    rng = np.random.default_rng(18)
    for _ in range(6):
        b = rng.standard_normal((5, 5))
        s = b @ b.T
        assert np.max(np.abs(psd_project(s) - s)) < 1e-10 * max(np.max(np.abs(s)), 1.0)


def test_psd_project_clips_negative_eigenvalue():
    got = psd_project(np.diag([1.0, -1.0]))
    assert np.max(np.abs(got - np.diag([1.0, 0.0]))) < 1e-12


def test_psd_project_is_nearest_among_samples():
    # Frobenius projection beats randomly sampled PSD alternatives.
    rng = np.random.default_rng(19)
    b = rng.standard_normal((6, 6))
    s = 0.5 * (b + b.T)
    p = psd_project(s)
    assert np.min(np.linalg.eigvalsh(p)) > -1e-10
    base = np.linalg.norm(p - s)
    for _ in range(200):
        c = rng.standard_normal((6, 6))
        cand = c @ c.T
        cand *= np.linalg.norm(s) / max(np.linalg.norm(cand), 1e-300)
        assert np.linalg.norm(cand - s) >= base - 1e-9
    # local perturbations of the projection itself do no better
    for _ in range(200):
        c = rng.standard_normal((6, 6))
        cand = psd_project(p + 0.05 * 0.5 * (c + c.T))
        assert np.linalg.norm(cand - s) >= base - 1e-9


def test_psd_project_rejects_asymmetric():
    with pytest.raises(ValueError):
        psd_project(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_tn_matrix_small():
    assert np.array_equal(tn_matrix(1), np.array([[1.0]]))
    assert np.array_equal(
        tn_matrix(3),
        np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]]),
    )


def test_tn_closed_form_n1():
    got = tn_singular_values_closed_form(1)
    assert got.shape == (1,)
    assert abs(got[0] - 1.0) < 1e-14


def test_tn_closed_form_matches_svd():
    for n in (3, 50):
        closed = tn_singular_values_closed_form(n)
        numeric = singular_values(tn_matrix(n))
        tol = 1e-10 if n == 3 else 1e-8
        assert np.max(np.abs(closed - numeric)) < tol * closed[0]


def test_tn_closed_form_matches_svd_sweep():
    for n in range(1, 65):
        closed = tn_singular_values_closed_form(n)
        numeric = singular_values(tn_matrix(n))
        assert np.max(np.abs(closed - numeric)) < 1e-8 * closed[0]


def test_sn_tridiagonal_n2():
    assert np.array_equal(sn_tridiagonal(2), np.array([[2.0, -1.0], [-1.0, 1.0]]))


def test_sn_inverts_gram_n8():
    t = tn_matrix(8)
    prod = sn_tridiagonal(8) @ (t @ t.T)
    assert np.max(np.abs(prod - np.eye(8))) < 1e-10


def test_sn_inverts_gram_sweep():
    for n in range(1, 65):
        t = tn_matrix(n)
        prod = sn_tridiagonal(n) @ (t @ t.T)
        assert np.max(np.abs(prod - np.eye(n))) < 1e-10


def test_sn_eigenvalues_match_singular_values():
    n = 6
    lam = np.sort(np.linalg.eigvalsh(sn_tridiagonal(n)))
    sigma = tn_singular_values_closed_form(n)
    assert np.max(np.abs(lam ** -0.5 - sigma)) < 1e-10 * sigma[0]


def test_circulant_interval_n3_display():
    expected = np.array(
        [
            [1, 0, 0, 1, 1, 1],
            [1, 1, 0, 0, 1, 1],
            [1, 1, 1, 0, 0, 1],
            [1, 1, 1, 1, 0, 0],
            [0, 1, 1, 1, 1, 0],
            [0, 0, 1, 1, 1, 1],
        ],
        dtype=float,
    )
    assert np.array_equal(circulant_interval(3), expected)


def test_circulant_interval_is_circulant():
    c = circulant_interval(4)
    col = c[:, 0]
    for j in range(1, c.shape[1]):
        assert np.array_equal(c[:, j], np.roll(col, j))


def test_circulant_eigenvalue_dc_term():
    for n in (2, 5, 8):
        vals = circulant_interval_eigenvalues(n)
        assert abs(vals[0] - (n + 1)) < 1e-12


def test_circulant_eigenvalue_moduli_are_singular_values():
    n = 8
    moduli = np.sort(np.abs(circulant_interval_eigenvalues(n)))[::-1]
    sigma = singular_values(circulant_interval(n))
    assert np.max(np.abs(moduli - sigma)) < 1e-8 * sigma[0]
    assert abs(np.sum(moduli) - nuclear_norm(circulant_interval(n))) < 1e-8 * np.sum(moduli)


def test_operator_norm_helpers():
    a = np.array([[3.0, 4.0], [1.0, 0.0]])
    assert abs(two_to_infinity_norm(a) - 5.0) < 1e-12
    assert abs(one_to_two_norm(a) - 4.0) < 1e-12


def test_matrix_io_round_trip(tmp_path):
    rng = np.random.default_rng(20)
    a = rng.standard_normal((3, 5)) * np.exp(rng.uniform(-8, 8, size=(3, 5)))
    path = tmp_path / "a.txt"
    write_matrix(path, a, comments=["generated for round-trip test"])
    back = read_matrix(path)
    # 17 significant digits round-trip float64 exactly
    assert np.array_equal(back, a)
    back2, comments = read_matrix_with_comments(path)
    assert np.array_equal(back2, a)
    assert any("round-trip" in c for c in comments)


@pytest.mark.parametrize(
    "a",
    [
        np.array([[-0.0, np.inf, -np.inf], [np.nan, 1e-300, -1e-300], [5e-324, 0.1, -2.5e17]]),
        np.random.default_rng(21).standard_normal((14, 242))
        * np.exp(np.random.default_rng(22).uniform(-600, 600, (14, 242))),
        np.zeros((2, 0)),
    ],
    ids=["special", "random", "empty_rows"],
)
def test_format_matrix_matches_one_f_string_per_entry(a):
    # the text that format_matrix wrote with one f-string per entry
    m, n = a.shape
    text = f"{m} {n}\n" + "".join(" ".join(f"{x:.17g}" for x in row) + "\n" for row in a)
    assert format_matrix(a) == text


def test_matrix_io_header_and_comments(tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("# leading comment\n2 2\n1 0\n# interior comment\n0 1\n")
    assert np.array_equal(read_matrix(path), np.eye(2))


def test_read_matrix_rejects_bad_shape(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("2 2\n1 0 0\n0 1 0\n")
    with pytest.raises(ValueError):
        read_matrix(path)
