"""Interior-point refiner: the svec Hessian kernel, Newton-step counts and
the certificate it returns."""

import importlib

import numpy as np
import pytest

from g2d.ellipsoid import certify
from g2d.gamma2 import gamma2
from g2d.interior import minimum_height_ellipsoid, svec, sym_kron
from g2d.linalg import tn_matrix
from g2d.setsystems import arithmetic_progressions, maximal_aps, subcubes

interior = importlib.import_module("g2d.interior")
gamma2_module = importlib.import_module("g2d.gamma2")


def _sym_kron_reference(p, q):
    """The four-einsum formula: the full d^4 tensor of
    Delta -> (P Delta Q + Q Delta P) / 2, restricted to svec entries."""
    d = p.shape[0]
    iu, ju = np.triu_indices(d)
    w = np.where(iu == ju, 1.0, np.sqrt(2.0))
    t4 = (
        np.einsum("ik,jl->ijkl", p, q)
        + np.einsum("il,jk->ijkl", p, q)
        + np.einsum("ik,jl->ijkl", q, p)
        + np.einsum("il,jk->ijkl", q, p)
    ) / 4.0
    m = t4[iu[:, None], ju[:, None], iu[None, :], ju[None, :]]
    return m * w[:, None] * w[None, :]


def _random_symmetric(rng, d):
    x = rng.standard_normal((d, d))
    return x + x.T


def test_sym_kron_matches_reference_and_identities():
    rng = np.random.default_rng(50)
    for d in range(1, 7):
        p, q, s, delta = (_random_symmetric(rng, d) for _ in range(4))
        got = sym_kron(p, q)
        ref = _sym_kron_reference(p, q)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        # bilinear: the Newton step's two log-det terms are one call
        merged = sym_kron(p, d * p + s)
        split = d * sym_kron(p, p) + sym_kron(p, s)
        assert np.max(np.abs(merged - split)) <= 1e-13 * np.max(np.abs(split))
        # the quadratic form is tr(Delta P Delta Q)
        x = svec(delta)
        form = float(x @ got @ x)
        trace = float(np.trace(delta @ p @ delta @ q))
        assert abs(form - trace) <= 1e-12 * max(abs(trace), 1.0)


def _count_hessians(monkeypatch):
    # one sym_kron call builds one Newton step's Hessian
    calls = []
    original = interior.sym_kron

    def counting(p, q):
        calls.append(p.shape[0])
        return original(p, q)

    monkeypatch.setattr(interior, "sym_kron", counting)
    return calls


# a + b of criterion 8's pairs 0 and 12: the refiner ran on both until
# the ascent stopped on the certified gap of its own lift
PAIR0_SUM = np.array(
    [
        [1.0, 1.0, 1.0, 1.0],
        [2.0, 2.0, 2.0, 2.0],
        [1.0, 1.0, 2.0, 1.0],
        [1.0, 0.0, 2.0, 2.0],
        [0.0, 0.0, 1.0, 1.0],
        [2.0, 2.0, 1.0, 1.0],
        [1.0, 2.0, 1.0, 1.0],
    ]
)
PAIR12_SUM = np.array(
    [
        [0.0, 2.0, 2.0, 1.0, 1.0],
        [1.0, 0.0, 2.0, 2.0, 1.0],
        [0.0, 2.0, 2.0, 1.0, 1.0],
        [2.0, 1.0, 1.0, 1.0, 2.0],
        [1.0, 0.0, 1.0, 2.0, 0.0],
    ]
)

# a + b of criterion 8's pair 8: the default gamma2 still runs the
# refiner on it
PAIR8_SUM = np.array(
    [
        [2.0, 0.0, 1.0, 1.0],
        [0.0, 1.0, 1.0, 0.0],
        [1.0, 1.0, 0.0, 1.0],
        [1.0, 1.0, 2.0, 1.0],
    ]
)


def test_refiner_stops_on_certified_gap(monkeypatch):
    calls = _count_hessians(monkeypatch)
    cert = gamma2(PAIR8_SUM)
    # 363 Newton steps when the refiner runs to its barrier stop
    assert 0 < len(calls) <= 58
    assert cert.converged


def test_ascent_stop_skips_refiner(monkeypatch):
    # 62 and 251 Newton steps while the ascent ignored tol
    calls = _count_hessians(monkeypatch)
    for a in (PAIR0_SUM, PAIR12_SUM):
        assert gamma2(a).converged
    assert len(calls) == 0


def test_ap14_converges_without_refiner(monkeypatch):
    calls = _count_hessians(monkeypatch)
    a = arithmetic_progressions(14).incidence.T  # the small side first
    assert a.shape == (14, 242)
    cert = gamma2(a)
    # 129 Newton steps when the plain ascent's lift left a gap above tol
    assert len(calls) == 0
    assert cert.converged


def test_gaussian_4x4_refiner_steps(monkeypatch):
    # the 12 solves of test_gamma2_triangle_inequality: 2080 Newton
    # steps when the refiner ran to a 1e-11 barrier gap
    calls = _count_hessians(monkeypatch)
    rng = np.random.default_rng(35)
    for _ in range(4):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        for mat in (a, b, a + b):
            assert gamma2(mat).converged
    assert len(calls) <= 500


def test_refiner_stops_at_the_floor(monkeypatch):
    # barrier-only solves: 358 Newton steps on T_8 and 489 on AP_14
    # while stages ran on at the numerical floor
    calls = _count_hessians(monkeypatch)
    t8 = tn_matrix(8)
    value = minimum_height_ellipsoid(t8)[0]
    assert len(calls) <= 260
    # the default tol leaves gamma2's own gap at about 7e-9 on T_8
    assert abs(value - gamma2(t8, tol=1e-9).upper) <= 1e-9 * value
    calls.clear()
    minimum_height_ellipsoid(arithmetic_progressions(14).incidence.T)
    assert 0 < len(calls) <= 400


def _record_certify(monkeypatch):
    # the shape of every certify call, in the lift and in the refiner
    shapes = []

    def recording(a, shape):
        shapes.append(np.array(shape))
        return certify(a, shape)

    monkeypatch.setattr(gamma2_module, "certify", recording)
    monkeypatch.setattr(interior, "certify", recording)
    return shapes


def test_refiner_certifies_each_shape_once(monkeypatch):
    shapes = _record_certify(monkeypatch)
    gamma2(PAIR8_SUM)
    # the small-side lifts of the ascent's four gap checks, each one
    # guessed to meet the target and each missing it (the last one's
    # lift is reused as the closed-form candidate), then one per barrier
    # stage
    assert len(shapes) == 9
    for i, s in enumerate(shapes):
        assert not any(np.array_equal(s, o) for o in shapes[:i])

    value, b, c = minimum_height_ellipsoid(np.zeros((3, 4)))
    d = value * (b @ b.T)
    assert value == 0.0
    assert d.shape == (3, 3) and not d.any()
    assert not (b @ c).any() and (b @ c).shape == (3, 4)


@pytest.mark.parametrize(
    "a",
    [maximal_aps(24).large_difference.incidence, subcubes(5).incidence.T],
    ids=["maximal_aps_24_tall", "subcubes_5_wide"],
)
def test_upper_certifies_only_the_small_side(monkeypatch, a):
    # 158 x 158 shapes on the tall matrix, and a 243 x 243 one on the
    # wide matrix, while the upper bound also certified A = A I, A = I A
    # and the large-side lift
    shapes = _record_certify(monkeypatch)
    upper = gamma2_module.gamma2_upper
    added = []

    def counting_upper(*args, **kwargs):
        before = len(shapes)
        result = upper(*args, **kwargs)
        added.append(len(shapes) - before)
        return result

    monkeypatch.setattr(gamma2_module, "gamma2_upper", counting_upper)
    assert gamma2(a).converged
    k = min(a.shape)
    assert shapes and all(s.shape == (k, k) for s in shapes)
    # the lift of the ascent's last check meets the target: the upper
    # bound certifies nothing more
    assert added == [0]
