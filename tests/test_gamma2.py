"""Factorization-norm solver: primal/dual bounds, certificates, ellipsoids."""

import dataclasses
import functools
import importlib
import math
import tracemalloc

import numpy as np
import pytest

from g2d.ellipsoid import (
    Ellipsoid,
    block_diag_ellipsoid,
    certify,
    ellipsoid_contains,
    ellipsoid_inf_norm,
    ellipsoid_sum,
    membership_value,
)
from g2d.gamma2 import (
    DEFAULT_TOL,
    DUAL_MAX_STEPS,
    CertificateError,
    _gram_polar,
    _lift,
    _lift_guess,
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
from g2d.linalg import RefusedError, format_matrix, nuclear_norm, tn_matrix
from g2d.setsystems import arithmetic_progressions, maximal_aps, subcubes

C1 = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])

# least-inf-norm ellipse covering the rows of C1: x1^2 + x2^2 - x1 x2 <= 1
D_STAR = np.array([[4.0 / 3.0, 2.0 / 3.0], [2.0 / 3.0, 4.0 / 3.0]])

# blocks with gamma_2 of T_4, J_{3x4} = 1 and T_2 on disjoint rows and
# columns
THREE_BLOCKS = np.zeros((9, 10))
THREE_BLOCKS[:4, :4] = tn_matrix(4)
THREE_BLOCKS[4:7, 4:8] = 1.0
THREE_BLOCKS[7:, 8:] = tn_matrix(2)


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
    value, b, c, converged = gamma2_upper(C1)
    ell = Ellipsoid(value * (b @ b.T))
    assert abs(value - 2.0 / np.sqrt(3.0)) <= 1e-4
    assert converged
    # certificate geometry is carried by the ellipsoid
    for j in range(C1.shape[1]):
        assert membership_value(ell, C1[:, j]) <= 1.0 + 1e-6


def test_gamma2_c1_transposed_side_ellipse():
    # on the 2 x 3 transposed problem the optimal dual ellipse is the
    # one whose boundary passes through (1,1), (1,0), (0,1)
    value, b, _, _ = gamma2_upper(C1.T)
    ell = Ellipsoid(value * (b @ b.T))
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


def _count_factorizations(monkeypatch):
    """Record every np.linalg.svd and np.linalg.eigh call: an ascent
    step makes one or the other, or both when the Gram path falls
    back to the SVD."""
    calls = []
    for name in ("svd", "eigh"):
        original = getattr(np.linalg, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def test_dual_ascent_svd_budget_and_simplex(monkeypatch):
    calls = _count_factorizations(monkeypatch)
    for a in (
        arithmetic_progressions(14).incidence.T,  # runs to the step budget
        maximal_aps(24).large_difference.incidence,
        tn_matrix(32),
    ):
        calls.clear()
        value, p, q = gamma2_lower_dual(a)
        # the closing lift, one SVD and one certify eigh, is one of the
        # DUAL_MAX_STEPS evaluations
        assert calls[-2:] == ["svd", "eigh"]
        assert len(calls) - 1 <= DUAL_MAX_STEPS
        for w in (p, q):
            assert np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12
        assert abs(value - dual_value(a, p, q)) <= 1e-12 * value


def test_dual_ascent_values():
    # the plain alternating ascent reached 2.0116422 on AP_14^T,
    # 1.7411668201773158 on the 158x24 maximal-AP system and
    # 1.9054457126407116 on T_32; the extrapolated one is no lower, up
    # to float64 rounding
    assert gamma2_lower_dual(arithmetic_progressions(14).incidence.T)[0] >= 2.0116460
    large24 = maximal_aps(24).large_difference.incidence
    assert gamma2_lower_dual(large24)[0] >= 1.7411668201773158
    assert gamma2_lower_dual(tn_matrix(32))[0] >= 1.9054457126407116 * (1.0 - 1e-15)
    # subcubes(4)^T: the plain ascent gave 1.7777777777777783, and
    # gamma_2 = 16/9
    value = gamma2_lower_dual(subcubes(4).incidence.T)[0]
    assert abs(value - 1.7777777777777783) <= 1e-12


def test_ascent_stops_on_certified_gap(monkeypatch):
    # the ascent made 66 SVDs on T_32 standalone and 68 inside gamma2
    # while it ignored tol
    calls = _count_factorizations(monkeypatch)
    t32 = tn_matrix(32)
    gamma2_lower_dual(t32)
    standalone = len(calls)
    calls.clear()
    cert = gamma2(t32)
    assert cert.converged
    assert 0 < len(calls) <= standalone // 2


def test_ascent_takes_its_lower_bound_from_its_last_lift(monkeypatch):
    # on the Gram path the ascent re-ran an SVD of the best point for
    # its certified value, 2 SVDs on T_32; when its last lift was made
    # at that point, the lift's own SVD gives the value of the floored
    # weights it returns
    calls = _count_factorizations(monkeypatch)
    t32 = tn_matrix(32)
    dual = gamma2_lower_dual(t32, tol=DEFAULT_TOL)
    assert dual.cert is not None
    assert calls.count("svd") == 1
    value, p, q = dual
    assert abs(value - dual_value(t32, p, q)) <= 1e-13 * value
    assert abs(p.sum() - 1.0) <= 1e-12 and abs(q.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "a",
    [
        random_binary(np.random.default_rng(14), 14, 57),
        maximal_aps(24).large_difference.incidence,  # 158x24, tall
    ],
)
def test_gram_path_matches_the_svd(a):
    rng = np.random.default_rng(57)
    mat = rng.random(a.shape[0])[:, None] * a * rng.random(a.shape[1])[None, :]
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    polar = _gram_polar(mat)
    assert polar is not None  # well conditioned: no SVD fallback
    value, z = polar
    assert abs(value - nuclear_norm(mat)) <= 1e-12 * value
    assert np.abs(z - u @ vt).max() <= 1e-9


def test_rank_deficient_block_falls_back_to_the_svd(monkeypatch):
    # the Gram matrix of this rank-3 matrix drops its small singular
    # directions; ascent steps taken from it gave weights whose lift
    # missed the gap, so the interior point ran for about 1.2 s and
    # stopped at a rel gap of 3e-6
    a = np.random.default_rng(1).random((20, 3)) @ np.random.default_rng(2).random((3, 30))
    module = importlib.import_module("g2d.gamma2")  # g2d.gamma2 is also the function

    def refuse(*args, **kwargs):
        raise AssertionError("the interior point ran")

    monkeypatch.setattr(module, "minimum_height_ellipsoid", refuse)
    cert = gamma2(a)
    assert cert.converged
    assert cert.gap <= 1e-9 * cert.upper


def test_rank_deficient_block_stays_on_the_svd(monkeypatch):
    # the ascent tried the Gram matrix again at every step, 78 eigh
    # calls, although this rank-3 block fails its conditioning test at
    # every weight
    a = np.random.default_rng(1).random((20, 3)) @ np.random.default_rng(2).random((3, 30))
    calls = _count_factorizations(monkeypatch)
    gamma2_lower_dual(a)
    assert calls.count("eigh") <= 3


@pytest.mark.parametrize(
    "a",
    [
        np.random.default_rng(6).random((6, 7)),  # the SVD path's size
        np.random.default_rng(7).random((7, 6)),
        np.random.default_rng(14).random((14, 57)),
        maximal_aps(24).large_difference.incidence,  # 158x24, tall
    ],
    ids=["6x7", "7x6", "14x57", "158x24"],
)
def test_lift_guess_is_the_lift_value(a):
    rng = np.random.default_rng(58)
    x, y = (rng.random(k) + 0.1 for k in a.shape)
    x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
    mat = x[:, None] * a * y[None, :]
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    lifted = _lift(a, x * x, y * y)[0][0]
    for val, z in ((s.sum(), u @ vt), _gram_polar(mat)):
        az = a * z
        guess = _lift_guess(az, x, y, az @ y, val, np.inf)
        assert abs(guess - lifted) <= 1e-9 * lifted
        # below the lift's value the guess never meets the target
        assert _lift_guess(az, x, y, az @ y, val, lifted * (1 - 1e-6)) > lifted * (1 - 1e-6)


@pytest.mark.parametrize(
    "a",
    [
        tn_matrix(32),
        tn_matrix(48),
        subcubes(4).incidence.T,
        maximal_aps(24).large_difference.incidence,
        arithmetic_progressions(14).incidence.T,
    ],
    ids=["T_32", "T_48", "subcubes_4_T", "maximal_aps_24", "AP_14_T"],
)
def test_ascent_lifts_only_when_the_gap_closes(monkeypatch, a):
    # every lift that a guessed check makes meets its target, so the
    # first one stops the ascent and gamma2_upper reuses it
    module = importlib.import_module("g2d.gamma2")  # g2d.gamma2 is also the function
    lifts = []

    def recording(*args):
        lifts.append(_lift(*args))
        return lifts[-1]

    monkeypatch.setattr(module, "_lift", recording)
    dual = gamma2_lower_dual(a, tol=DEFAULT_TOL)
    assert len(lifts) == 1 and dual.cert is lifts[0][0]
    assert lifts[0][0][0] <= dual[0] / (1.0 - DEFAULT_TOL) * (1.0 + 1e-12)


def test_ascent_runs_while_its_gap_falls(monkeypatch):
    # a plateau stop once ended this ascent at tol=1e-8 while its gap
    # was still falling; the interior point then took about 40 times as
    # long as the further ascent that converges
    module = importlib.import_module("g2d.gamma2")  # g2d.gamma2 is also the function

    def refuse(*args, **kwargs):
        raise AssertionError("the interior point ran")

    monkeypatch.setattr(module, "minimum_height_ellipsoid", refuse)
    cert = gamma2(maximal_aps(24).large_difference.incidence, tol=1e-8)
    assert cert.converged


@pytest.mark.parametrize(
    "a",
    [
        arithmetic_progressions(14).incidence.T,  # Gram path, runs to its cap
        np.random.default_rng(6).random((6, 7)),  # SVD path
    ],
    ids=["AP_14_T", "6x7"],
)
def test_ascent_is_the_only_lift_site(monkeypatch, a):
    # an ascent that ended without lifting its best point once handed
    # gamma2_upper bare weights, which it then lifted itself
    dual = gamma2_lower_dual(a)
    assert dual.cert is not None
    value, p, q = dual
    assert abs(value - dual_value(a, p, q)) <= 1e-13 * value
    module = importlib.import_module("g2d.gamma2")  # g2d.gamma2 is also the function

    def refuse(*args, **kwargs):
        raise AssertionError("gamma2_upper lifted the weights")

    monkeypatch.setattr(module, "_lift", refuse)
    assert gamma2_upper(a, dual=dual)[0] == dual.cert[0]


@pytest.mark.parametrize("a", [np.eye(5), np.array([[1.0], [-2.0], [0.5]])], ids=["eye5", "column3"])
def test_easy_matrix_stops_early(monkeypatch, a):
    # the ascent checked only at restarts and ran to its plateau: 167
    # factorizations on eye(5) (five 1x1 blocks) and 41 on the column
    calls = _count_factorizations(monkeypatch)
    cert = gamma2(a)
    assert cert.converged
    assert len(calls) <= 20


@pytest.mark.parametrize("tol", [1e-4, 1e-8])
def test_upper_alone_stops_its_ascent_on_tol(tol):
    # without weights gamma2_upper runs the ascent with its own tol, as
    # gamma2 does on a one-block matrix
    t32 = tn_matrix(32)
    assert gamma2_upper(t32, tol=tol)[0] == gamma2(t32, tol=tol).upper


@pytest.mark.parametrize("tol", [1e-6, 1e-8])
def test_ap14_converges_below_plain_ascent_gap(tol):
    # the plain ascent stopped 2e-6 below gamma_2 on AP_14^T, so no
    # tol below that could be met
    cert = gamma2(arithmetic_progressions(14).incidence.T, tol=tol)
    assert cert.converged
    assert cert.gap <= tol * cert.upper


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


def test_gamma2_builds_one_ellipsoid(monkeypatch):
    # a solve, split or not, builds no ellipsoid: the certificate is its
    # factors, and reading its ellipsoid builds one, upper * B B^T
    module = importlib.import_module("g2d.gamma2")  # g2d.gamma2 is also the function
    built = []

    class Counting(Ellipsoid):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(module, "Ellipsoid", Counting)
    for mat in (THREE_BLOCKS, tn_matrix(5)):
        built.clear()
        cert = gamma2(mat)
        assert built == []
        ell = cert.ellipsoid
        assert len(built) == 1 and built[0] is ell
        b = cert.factor_left
        assert np.array_equal(ell.d, cert.upper * (b @ b.T))


@pytest.mark.parametrize(
    "a, inner",
    [
        (arithmetic_progressions(14).incidence.T, 14),
        (THREE_BLOCKS, 4 + 3 + 2),
    ],
    ids=["AP_14T", "three_blocks"],
)
def test_certificate_inner_dimension_is_the_sum_of_small_sides(a, inner):
    # the factors of each block are as wide as its small side; sizing
    # the assembly by the width of a block's C would give AP_14^T a
    # 242 x 242 C
    cert = gamma2(a)
    m, n = a.shape
    assert cert.factor_left.shape == (m, inner)
    assert cert.factor_right.shape == (inner, n)


def test_tall_block_makes_no_m_by_m_array():
    # the certificate once held D = upper * B B^T, 3000 x 3000 here:
    # 72 MB for a block whose small side is 8
    a = random_binary(np.random.default_rng(3000), 3000, 8)
    tracemalloc.start()
    try:
        cert = gamma2(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.converged
    assert peak < 8 * 2**20


def test_split_certificate_ellipsoid_is_upper_times_b_bt():
    # each block's factors are rescaled to the largest upper bound, so
    # the assembled certificate keeps its balance bounds
    a = THREE_BLOCKS
    cert = gamma2(a)
    blocks = [gamma2(a[:4, :4]), gamma2(a[4:7, 4:8]), gamma2(a[7:, 8:])]
    uppers = [blk.upper for blk in blocks]
    assert cert.upper == max(uppers) and min(uppers) < 0.9 * max(uppers)
    # upper * B B^T is the block-diagonal of the blocks' own ellipsoids
    want = blocks[0].ellipsoid
    for blk in blocks[1:]:
        want = block_diag_ellipsoid(want, blk.ellipsoid)
    assert np.linalg.norm(cert.ellipsoid.d - want.d) <= 1e-13 * np.linalg.norm(want.d)
    b, c = cert.factor_left, cert.factor_right
    assert (b * b).sum(axis=1).max() <= cert.upper * (1.0 + 1e-12)
    assert (c * c).sum(axis=0).max() <= cert.upper * (1.0 + 1e-12)
    check_certificate(cert, a)


@pytest.mark.parametrize("tol", [np.nan, -1e-4, -np.inf])
def test_gamma2_rejects_nan_and_negative_tol(tol):
    # a NaN tol once made every comparison with the gap target false and
    # reported converged=True
    for a in (tn_matrix(8), np.zeros((2, 2))):
        with pytest.raises(ValueError, match="tol"):
            gamma2(a, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        gamma2_upper(tn_matrix(8), tol=tol)
    with pytest.raises(ValueError, match="tol"):
        gamma2_lower_dual(tn_matrix(8), tol=tol)


def test_upper_rejects_weights_of_the_wrong_length():
    # a length-1 p once broadcast over both rows and gave a value
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    half = np.full(2, 0.5)
    for p, q in ((np.ones(1), half), (half, np.ones(3))):
        with pytest.raises(ValueError, match="length"):
            dual_value(a, p, q)


def test_upper_rejects_non_finite_weights():
    # a NaN weight once raised LinAlgError("SVD did not converge")
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    half = np.full(2, 0.5)
    for bad in (np.array([np.nan, 1.0]), np.array([np.inf, 0.5])):
        for p, q in ((bad, half), (half, bad)):
            with pytest.raises(ValueError, match="finite"):
                dual_value(a, p, q)


def test_upper_takes_only_the_ascents_own_bound():
    # a caller's (value, p, q) once made the lift of uniform weights
    # (2.13 against gamma_2 = 1.51) "converged" on an inflated value
    t8, t7 = tn_matrix(8), tn_matrix(7)
    uniform = np.full(8, 1.0 / 8.0)
    with pytest.raises(TypeError, match="gamma2_lower_dual"):
        gamma2_upper(t8, dual=(dual_value(t8, uniform, uniform), uniform, uniform))
    for other in (gamma2_lower_dual(t7), gamma2_lower_dual(2.0 * t8)):
        with pytest.raises(TypeError, match="gamma2_lower_dual"):
            gamma2_upper(t8, dual=other)


def test_upper_rejects_negative_weights():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    half = np.full(2, 0.5)
    bad = np.array([1.5, -0.5])
    for p, q in ((bad, half), (half, bad)):
        with pytest.raises(ValueError, match="nonnegative"):
            dual_value(a, p, q)


def test_gamma2_tol_zero_and_above_one():
    t = tn_matrix(4)
    loose = gamma2(t, tol=1.0)
    assert loose.converged
    assert gamma2(t, tol=2.5).upper == loose.upper
    exact = gamma2(t, tol=0.0)
    assert exact.converged == (exact.upper <= exact.lower)
    check_certificate(exact, t)


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


@pytest.mark.parametrize(
    "a",
    [tn_matrix(8), arithmetic_progressions(14).incidence.T],
    ids=["T_8", "AP_14T"],
)
def test_membership_of_all_columns_at_once(a):
    cert = gamma2(a)
    ell = cert.ellipsoid
    values = membership_value(ell, a)
    each = np.array([membership_value(ell, a[:, j]) for j in range(a.shape[1])])
    assert values.shape == each.shape
    assert np.max(np.abs(values - each) / each) <= 1e-14


@pytest.mark.parametrize("lower_factor", [1.0 - 9e-5, 1.0])
def test_certificate_checker_rejects_upper_below_own_weights(lower_factor):
    # the bounds are scaled by less than tol; the unchanged weights
    # still certify the true value, above upper
    a = tn_matrix(8)
    cert = gamma2(a)
    upper = cert.upper * (1.0 - 9e-5)
    lower = min(cert.lower * lower_factor, upper)
    bad = dataclasses.replace(cert, upper=upper, lower=lower)
    assert dual_value(a, bad.dual_p, bad.dual_q) > bad.upper
    with pytest.raises(CertificateError, match="weights certify"):
        check_certificate(bad, a)


def _rescale_inner_column(cert, factor):
    # B diag(r), diag(r)^-1 C keeps B C = A; scaling up the column that
    # holds B's largest entry raises a row norm of B, scaling it down
    # raises a column norm of C
    r = np.ones(cert.factor_left.shape[1])
    r[np.argmax(np.abs(cert.factor_left).max(axis=0))] = factor
    return dataclasses.replace(
        cert, factor_left=cert.factor_left * r, factor_right=cert.factor_right / r[:, None]
    )


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda c: _rescale_inner_column(c, 1.0 / (1.0 + 9e-5)), "membership"),
        (lambda c: _rescale_inner_column(c, 1.0 + 9e-5), "factor norms"),
    ],
    ids=["C_scaled", "B_scaled"],
)
def test_certificate_checker_rejects_tampered_primal(tamper, message):
    # each tamper moves one primal quantity by less than the solver's tol
    # and leaves the others valid; the check's slack is float64 error
    a = tn_matrix(8)
    cert = gamma2(a)
    bad = tamper(cert)
    assert np.linalg.norm(bad.factor_left @ bad.factor_right - a) <= 1e-12 * np.linalg.norm(a)
    with pytest.raises(CertificateError, match=message):
        check_certificate(bad, a)


@pytest.mark.parametrize(
    "tamper",
    [
        lambda c, a: (dataclasses.replace(c, dual_p=c.dual_q, dual_q=c.dual_p), a),
        lambda c, a: (c, a.T),
    ],
    ids=["p_q_swapped", "matrix_transposed"],
)
def test_certificate_checker_rejects_swapped_weights_and_transpose(tamper):
    # T_8 is square, so both tampers keep every shape valid; the weights
    # then certify 1.23, not the stored lower bound 1.51
    a = tn_matrix(8)
    bad, mat = tamper(gamma2(a), a)
    with pytest.raises(CertificateError, match="not reproduced"):
        check_certificate(bad, mat)


def _with_nan(arr):
    arr = arr.copy()
    arr.flat[0] = np.nan
    return arr


@pytest.mark.parametrize(
    "a, tamper",
    [
        (tn_matrix(8), lambda c: dataclasses.replace(c, dual_p=_with_nan(c.dual_p))),
        (tn_matrix(8), lambda c: dataclasses.replace(c, factor_left=_with_nan(c.factor_left))),
        (C1, lambda c: dataclasses.replace(c, dual_p=np.append(c.dual_p, 0.0))),
        (C1, lambda c: dataclasses.replace(c, dual_q=np.append(c.dual_q, 0.0))),
    ],
    ids=["p_nan", "B_nan", "p_too_long", "q_too_long"],
)
def test_certificate_checker_rejects_malformed_parts(a, tamper):
    # a NaN or a wrong weight length is a bad certificate, not a crash
    # of the checker's arithmetic: it raises CertificateError
    bad = tamper(gamma2(a))
    with pytest.raises(CertificateError):
        check_certificate(bad, a)


@pytest.mark.parametrize(
    "scale, n",
    [(1e-300, 4), (1e-160, 4), (1e155, 4), (1e200, 6)],
    ids=["1e-300_T4", "1e-160_T4", "1e155_T4", "1e200_T6"],
)
def test_gamma2_solves_at_unit_scale(scale, n):
    # the block is solved divided by 4^k, max|A| / 4^k in [1, 4); solved
    # as given, the factors or the certified value underflow or overflow
    a = scale * tn_matrix(n)
    k = (math.frexp(scale)[1] - 1) // 2
    cert = gamma2(a)
    assert cert.converged
    check_certificate(cert, a)
    assert math.ldexp(cert.upper, -2 * k) == gamma2(np.ldexp(a, -2 * k)).upper


@pytest.mark.parametrize(
    "scale, n", [(1e-300, 4), (1e155, 4), (1e200, 6)], ids=["1e-300_T4", "1e155_T4", "1e200_T6"]
)
def test_public_solvers_work_at_unit_scale(scale, n):
    # solved as given, gamma2_upper(1e-300 * T_4) returned upper 0.0 with
    # converged=True, below gamma_2 = 1.33e-300, and overflowed to inf on
    # the other two; both solvers now run on A / 4^k and scale back
    a = scale * tn_matrix(n)
    k = (math.frexp(scale)[1] - 1) // 2
    unit = np.ldexp(a, -2 * k)
    value, p, q = gamma2_lower_dual(a)
    unit_value, unit_p, unit_q = gamma2_lower_dual(unit)
    assert math.isfinite(value) and value == math.ldexp(unit_value, 2 * k)
    assert np.array_equal(p, unit_p) and np.array_equal(q, unit_q)
    upper, b, c, converged = gamma2_upper(a)
    unit_upper, unit_b, unit_c, unit_converged = gamma2_upper(unit)
    assert math.isfinite(upper) and upper == math.ldexp(unit_upper, 2 * k)
    assert converged and unit_converged and value <= upper
    assert np.array_equal(b, np.ldexp(unit_b, k)) and np.array_equal(c, np.ldexp(unit_c, k))


# a + b of criterion 8's pair 8, whose lift misses the gap: the
# interior point runs on it
PAIR8_SUM = np.array([[2.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 1.0], [1.0, 1.0, 2.0, 1.0]])


def test_upper_refines_at_unit_scale(monkeypatch):
    module = importlib.import_module("g2d.gamma2")  # g2d.gamma2 is also the function
    refined = []

    def recording(points, **kwargs):
        refined.append(np.abs(points).max())
        return minimum_height_ellipsoid(points, **kwargs)

    monkeypatch.setattr(module, "minimum_height_ellipsoid", recording)
    upper, b, c, converged = gamma2_upper(PAIR8_SUM)
    tiny = gamma2_upper(np.ldexp(PAIR8_SUM, -1000))
    # both refine the same matrix, whose max entry is 2
    assert refined == [2.0, 2.0]
    assert converged and tiny[3]
    assert tiny[0] == math.ldexp(upper, -1000)
    assert np.array_equal(tiny[1], np.ldexp(b, -500)) and np.array_equal(tiny[2], np.ldexp(c, -500))


@pytest.mark.parametrize(
    "a",
    [
        tn_matrix(8),
        random_binary(np.random.default_rng(5), 7, 3),  # tall: the factors are transposed
        PAIR8_SUM,  # the interior point runs
        1e200 * tn_matrix(6),
        2.0**-10 * tn_matrix(8),
    ],
    ids=["T8", "7x3", "pair8_sum", "1e200_T6", "2^-10_T8"],
)
def test_whole_matrix_path_matches_the_gathered_one(a):
    # a one-block A is solved as given and its factors and weights are
    # the certificate; with a zero row and column it is gathered and
    # assembled, and must come out the same on A's rows and columns
    padded = np.zeros((a.shape[0] + 1, a.shape[1] + 1))
    padded[1:, :-1] = a
    whole, gathered = gamma2(a), gamma2(padded)
    assert whole.upper == gathered.upper and whole.lower == gathered.lower
    assert whole.converged == gathered.converged
    assert np.array_equal(gathered.factor_left[1:], whole.factor_left)
    assert np.array_equal(gathered.factor_right[:, :-1], whole.factor_right)
    assert np.array_equal(gathered.dual_p[1:], whole.dual_p)
    assert np.array_equal(gathered.dual_q[:-1], whole.dual_q)
    assert not gathered.factor_left[0].any() and not gathered.factor_right[:, -1].any()
    assert gathered.dual_p[0] == 0.0 and gathered.dual_q[-1] == 0.0


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("a", [1e200 * tn_matrix(6), 2.0**-10 * tn_matrix(8)], ids=["1e200_T6", "2^-10_T8"])
def test_gamma2_leaves_its_input_unchanged(a, order):
    # the solve at unit scale divides a new array by 4^k, never A itself
    a = np.array(a, order=order)
    before = a.copy(order="A")
    cert = gamma2(a)
    assert np.array_equal(a, before)
    assert a.flags.c_contiguous == (order == "C") and a.flags.f_contiguous == (order == "F")
    check_certificate(cert, a)


def _criterion_8_solves(pairs):
    """The solves of the first ``pairs`` pairs (a, b) that acceptance
    criterion 8 draws, nonzero binary m x n with m, n in 2..8: a, b,
    a^T, [a b] and a + b."""

    def nonzero_binary(rng, m, n):
        while True:
            a = random_binary(rng, m, n)
            if a.any():
                return a

    rng = np.random.default_rng(8)
    for _ in range(pairs):
        m, n = rng.integers(2, 9, size=2)
        a, b = nonzero_binary(rng, m, n), nonzero_binary(rng, m, n)
        yield from (a, b, a.T, np.hstack([a, b]), a + b)


def test_small_solves_make_the_recorded_factorizations(monkeypatch):
    # the 30 solves of criterion 8's first 6 pairs, which the benchmark's
    # solve-batch permutes; a refactor of the ascent must not add
    # evaluations, and these are the counts recorded before the step
    # was fused
    calls = _count_factorizations(monkeypatch)
    certs = [gamma2(a) for a in _criterion_8_solves(6)]
    assert len(certs) == 30 and all(cert.converged for cert in certs)
    assert (calls.count("svd"), calls.count("eigh")) == (553, 30)


@functools.cache
def _scaled_certificate(scale, n):
    return gamma2(scale * tn_matrix(n))


@pytest.mark.parametrize(
    "tamper, message",
    [
        (
            lambda c: dataclasses.replace(
                c, factor_left=c.factor_left / 10.0, factor_right=c.factor_right * 10.0
            ),
            "membership",
        ),
        (lambda c: dataclasses.replace(c, factor_right=c.factor_right * 1.5), "residual"),
        (lambda c: dataclasses.replace(c, lower=c.lower * (1.0 + 1e-6)), "not reproduced"),
    ],
    ids=["C_x10_B_div10", "C_x1.5", "lower_up_1e-6"],
)
@pytest.mark.parametrize(
    "scale, n", [(1.0, 4), (1e-300, 4), (1.0, 8), (2.0**-10, 8)], ids=["T4", "1e-300_T4", "T8", "2^-10_T8"]
)
def test_certificate_checker_is_scale_free(scale, n, tamper, message):
    # the residual is taken at unit scale and the slacks on lower are
    # relative to upper, so a tamper caught at scale 1 is caught at any
    # scale: at 1e-300 the norms of A and of B C - A taken as given
    # underflow to 0, and at 2^-10 a slack absolute below 1 would pass
    # the raised lower
    a = scale * tn_matrix(n)
    cert = _scaled_certificate(scale, n)
    check_certificate(cert, a)
    with pytest.raises(CertificateError, match=message):
        check_certificate(tamper(cert), a)


def test_gamma2_solves_tall_block_and_refuses_its_ellipsoid():
    # 6325^2 entries are over KRON_ENTRY_CAP: the solve, which once
    # refused this matrix, needs no m x m array, and only reading the
    # ellipsoid is refused
    cert = gamma2(np.ones((6325, 1)))
    assert cert.converged
    assert abs(cert.upper - 1.0) <= 1e-12
    with pytest.raises(RefusedError):
        cert.ellipsoid


def test_certificate_checker_rejects_wrong_matrix():
    cert = gamma2(C1)
    with pytest.raises(CertificateError):
        check_certificate(cert, C1 + 1.0)


def test_dual_value_refuses_unnormalized_weights():
    # 100x the uniform row weights once gave 14.38 on T_8, whose
    # gamma_2 is 1.51
    t8 = tn_matrix(8)
    u = np.full(8, 1.0 / 8.0)
    with pytest.raises(ValueError, match="sum to 1"):
        dual_value(t8, 100.0 * u, u)
    with pytest.raises(ValueError, match="sum to 1"):
        dual_value(t8, u, u * (1.0 + 1e-8))
    assert abs(dual_value(t8, u, u) - nuclear_norm(t8) / 8.0) <= 1e-12


@pytest.mark.parametrize("a", [np.zeros((3, 2)), C1], ids=["zero", "C1"])
def test_zero_upper_certificate_with_unnormalized_weights(a):
    # a certificate error, not the ValueError of dual_value
    m, n = a.shape
    zero = gamma2(np.zeros((m, n)))
    check_certificate(zero, np.zeros((m, n)))
    bad = dataclasses.replace(zero, dual_p=2.0 * zero.dual_p)
    with pytest.raises(CertificateError, match="sum to 1"):
        check_certificate(bad, a)


def _recording_eigh(monkeypatch):
    """The shapes of every np.linalg.eigh call."""
    shapes = []
    original = np.linalg.eigh

    def recording(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return original(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return shapes


def test_certificate_membership_needs_no_eigendecomposition(monkeypatch):
    # the check proves membership from the norms of the factors, and
    # the solve builds no ellipsoid: the 158x24 solve once made a
    # 158x158 eigh for its ellipsoid
    shapes = _recording_eigh(monkeypatch)
    for a in (maximal_aps(24).large_difference.incidence, tn_matrix(8), C1):
        shapes.clear()
        cert = gamma2(a)
        assert shapes and max(max(s) for s in shapes) <= min(a.shape)
        shapes.clear()
        report = check_certificate(cert, a)
        assert shapes == []
        assert report["worst_membership"] <= 1.0 + 1e-12


def test_certificate_io_round_trip(tmp_path):
    cert = gamma2(C1)
    path = tmp_path / "cert.txt"
    write_certificate(path, cert)
    back = read_certificate(path)
    assert back.upper == cert.upper
    assert back.lower == cert.lower
    assert back.gap == cert.gap
    assert back.converged == cert.converged
    assert np.array_equal(back.factor_left, cert.factor_left)
    assert np.array_equal(back.factor_right, cert.factor_right)
    assert np.array_equal(back.dual_p, cert.dual_p)
    assert np.array_equal(back.dual_q, cert.dual_q)
    check_certificate(back, C1)
    # files of the earlier format also hold D before B; it loads, is
    # ignored, and the factors pass the check on their own
    text = path.read_text()
    assert "# D" not in text
    old = text.replace("# B\n", "# D\n" + format_matrix(cert.ellipsoid.d) + "# B\n")
    path.write_text(old)
    back = read_certificate(path)
    assert np.array_equal(back.factor_left, cert.factor_left)
    assert np.array_equal(back.factor_right, cert.factor_right)
    check_certificate(back, C1)


def test_certificate_gap_is_derived_from_bounds(tmp_path):
    cert = gamma2(tn_matrix(6))
    path = tmp_path / "cert.txt"
    write_certificate(path, cert)
    lines = path.read_text().splitlines()
    assert f"gap={cert.gap:.17g}" in lines
    edited = [("gap=12345" if line.startswith("gap=") else line) for line in lines]
    path.write_text("\n".join(edited) + "\n")
    back = read_certificate(path)
    assert back.gap == back.upper - back.lower == cert.gap
    path.write_text("\n".join(l for l in lines if not l.startswith("gap=")) + "\n")
    assert read_certificate(path).gap == cert.gap


def test_factor_norms_are_balanced():
    cert = gamma2(tn_matrix(6))
    b, c = cert.factor_left, cert.factor_right
    row = np.sqrt((b * b).sum(axis=1).max())
    col = np.sqrt((c * c).sum(axis=0).max())
    assert abs(row - col) <= 1e-6 * max(row, 1.0)
    assert row * col <= cert.upper * (1.0 + 1e-4) + 1e-12


def test_lift_only_path_matches_default():
    # tol=1.0 makes the gap check pass, so the interior point is
    # skipped and the upper bound is the small-side lift alone
    t3 = tn_matrix(3)
    # the default tol leaves gamma2's own gap at up to 1e-4
    ref = gamma2(t3, tol=1e-9).upper
    # weights from the ascent run to its cap at tol=0: given no
    # weights, gamma2_upper stops its ascent at tol=1.0 too
    value, b, c, _ = gamma2_upper(t3, tol=1.0, dual=gamma2_lower_dual(t3))
    ell = Ellipsoid(value * (b @ b.T))
    assert value >= ref - 1e-9
    assert value <= ref * (1.0 + 2e-3)
    for j in range(3):
        assert membership_value(ell, t3[:, j]) <= 1.0 + 1e-6


def test_interior_point_cross_check():
    for n in (3, 5, 8):
        t = tn_matrix(n)
        value, b, _ = minimum_height_ellipsoid(t)
        d = value * (b @ b.T)
        ref = gamma2(t, tol=1e-9).upper
        assert abs(value - ref) <= 1e-5 * ref
        # D is the certified ellipsoid: every column fits, max diag = value^2
        assert abs(np.max(np.diag(d)) - value**2) <= 1e-6 * value**2
        ell = Ellipsoid(d * (1.0 + 1e-9))
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


def test_ellipsoid_contains_refuses_a_matrix_that_is_not_psd():
    # built without an eigendecomposition, the ellipsoid is validated
    # on the first use of its spectrum
    e = Ellipsoid(np.diag([1.0, -1.0]))
    for v in (np.zeros(2), np.array([1.0, 0.0])):
        with pytest.raises(ValueError, match="not PSD"):
            ellipsoid_contains(e, v)
    with pytest.raises(ValueError, match="negative definite"):
        membership_value(Ellipsoid(-np.eye(2)), np.zeros(2))


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
    va, ba, _, _ = gamma2_upper(a)
    vb, bb, _, _ = gamma2_upper(b)
    ea, eb = Ellipsoid(va * (ba @ ba.T)), Ellipsoid(vb * (bb @ bb.T))
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


@pytest.mark.parametrize("d", range(1, 7))
def test_certify_gives_one_consistent_certificate(d):
    # random PSD shapes of every rank 1..d against random A: B C = A,
    # and D = value B B^T contains every column with max diag D = value^2
    rng = np.random.default_rng(500 + d)
    for rank in range(1, d + 1):
        g = rng.standard_normal((d, rank))
        a = rng.standard_normal((d, int(rng.integers(1, 9))))
        value, b, c = certify(a, g @ g.T)
        dmat = value * (b @ b.T)
        assert np.linalg.norm(b @ c - a) <= 1e-12 * np.linalg.norm(a)
        # D is a multiple of the shape with certify's ridge
        shape = g @ g.T + 1e-12 * np.linalg.eigvalsh(g @ g.T)[-1] * np.eye(d)
        shape *= np.trace(dmat) / np.trace(shape)
        assert np.linalg.norm(shape - dmat) <= 1e-12 * np.linalg.norm(dmat)
        assert abs(np.max(np.diag(dmat)) - value**2) <= 1e-12 * value**2
        ell = Ellipsoid(dmat)
        assert max(membership_value(ell, a[:, j]) for j in range(a.shape[1])) <= 1.0 + 1e-9
        bound = np.sqrt(value) * (1.0 + 1e-12)
        assert np.sqrt((b * b).sum(axis=1)).max() <= bound
        assert np.sqrt((c * c).sum(axis=0)).max() <= bound
