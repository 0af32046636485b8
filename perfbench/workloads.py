"""The four benchmark workloads: their instances, ops and correctness gate.

Every op takes at most a few seconds, so that a run of ``--seconds``
times each op several times (see ``run.measure``). Instances that take
longer, such as T_128 or the unconverged 1052x64 maximal-AP system, are
timed by ``--baseline`` instead.

Each op is one call into a public function of g2d. Its output is
checked right after the call, outside the timed region. A check returns
None when the op passed, or ``(kind, message)``:

* ``"wrong"``: the op raised, its result failed re-validation, or it
  contradicts a reference value. Such an op makes the run incorrect.
* ``"unconverged"``: the result is a valid certified interval, but its
  gap is above ``tol``. Such an op counts against ``ok_frac`` and in
  the printed ``failed_frac``, but the run stays correct.

Reference values labelled "seed commit" were recorded with the solver as
first committed (seed 0, one BLAS thread). Any sound solver must agree
with them: both intervals enclose the true value, so they must overlap,
and two converged upper bounds differ by at most ``tol``.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import io
import math
import os
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

import g2d

g2d_gamma2 = importlib.import_module("g2d.gamma2")
g2d_cli = importlib.import_module("g2d.cli")
g2d_oracles = importlib.import_module("g2d.oracles")
g2d_setsystems = importlib.import_module("g2d.setsystems")

TOL = g2d_gamma2.DEFAULT_TOL

# gamma2 values at the seed commit: (upper, lower, converged)
RECORDED = {
    "T_32": (1.9054457218526268, 1.9054457126407114, True),
    "T_48": (2.025404445557167, 2.0254044450463873, True),
    "subcubes d=4 (transposed)": (1.7777777777813897, 1.7777777777777781, True),
    "maximal APs |I|=24 large difference": (1.7411688553904023, 1.7411668331991073, True),
}

# ratio_upper_over_quarter of AP_14, recorded at the seed commit. The
# band is 1e-2 relative, as in the acceptance test's AP_RATIO_BAND.
AP_RATIO = {14: 1.039967084096427}
AP_RATIO_RTOL = 1e-2

# The fixed warm-up matrix: the 3 x 2 subcube seed, gamma_2 = 2/sqrt(3).
WARMUP = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], "tuple[str, str] | None"]
    # public layer the op enters: "gamma2", "cli" or "oracles"
    entry: str = "gamma2"
    # row of the ROADMAP baseline table this op's time is keyed to
    row: str | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # seconds spent in g2d.setsystems constructors while building it
    build_s: float


class _SetTimer:
    """Accumulates the time spent in set-system constructor calls."""

    def __init__(self):
        self.seconds = 0.0

    def __call__(self, fn, *args):
        t = time.perf_counter()
        out = fn(*args)
        self.seconds += time.perf_counter() - t
        return out


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _trivial_upper(a: np.ndarray) -> float:
    """min of the trivial factorizations A = A I and A = I A."""
    return min(float(np.linalg.norm(a, axis=1).max()), float(np.linalg.norm(a, axis=0).max()))


def _recorded_ref(label: str):
    upper, lower, converged = RECORDED[label]

    def ref(cert):
        if cert.lower > upper * (1 + 1e-9) or cert.upper < lower * (1 - 1e-9):
            return f"[{cert.lower}, {cert.upper}] misses seed-commit [{lower}, {upper}]"
        if converged and cert.converged and abs(cert.upper - upper) > TOL * upper:
            return f"upper {cert.upper} differs from seed-commit {upper} by more than tol"
        return None

    return ref


def _tn_ref(n: int, a: np.ndarray):
    nuc = g2d.uniform_nuclear_lower(a)
    top = math.floor(math.log2(n)) + 1

    def ref(cert):
        if not nuc * (1 - 1e-12) <= cert.lower <= cert.upper <= top:
            return f"chain {nuc} <= {cert.lower} <= {cert.upper} <= {top} broken"
        return _recorded_ref(f"T_{n}")(cert)

    return ref


def _subcube_ref(d: int):
    value = (2.0 / math.sqrt(3.0)) ** d

    def ref(cert):
        if cert.lower > value * (1 + 1e-9) or cert.upper < value * (1 - 1e-9):
            return f"[{cert.lower}, {cert.upper}] misses closed form {value}"
        if cert.converged and cert.upper > value * (1 + TOL):
            return f"upper {cert.upper} above closed form {value} by more than tol"
        return _recorded_ref(f"subcubes d={d} (transposed)")(cert)

    return ref


def solve_check(a: np.ndarray, ref=None):
    """Gate for a certificate of gamma_2(a): re-validation, the sound
    bounds every certificate obeys, an optional reference, then tol."""

    def check(cert):
        try:
            g2d.check_certificate(cert, a)
        except g2d.CertificateError as exc:
            return "wrong", f"re-validation failed: {exc}"
        if not cert.lower <= cert.upper:
            return "wrong", f"lower {cert.lower} above upper {cert.upper}"
        if cert.upper < g2d.uniform_nuclear_lower(a) * (1 - 1e-9):
            return "wrong", "upper below the uniform nuclear lower bound"
        if cert.upper > _trivial_upper(a) * (1 + 1e-9):
            return "wrong", "upper above the trivial factorization bound"
        msg = ref(cert) if ref else None
        if msg:
            return "wrong", msg
        if not cert.converged:
            return "unconverged", f"gap {cert.gap:.3e} above tol (converged=False)"
        return None

    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _solve_op(label: str, a: np.ndarray, ref=None, row=None) -> Op:
    return Op(label, lambda: g2d.gamma2(a), solve_check(a, ref), row=row)


def build_solve_dual() -> Workload:
    """Fixed instances, each solved by dual ascent alone; the seed does
    not change them."""
    st = _SetTimer()
    t32 = st(g2d_setsystems.initial_segments, 32).incidence
    t48 = st(g2d_setsystems.initial_segments, 48).incidence
    sub4 = st(g2d_setsystems.subcubes, 4).incidence.T
    large = st(g2d_setsystems.maximal_aps, 24).large_difference.incidence
    lab = "maximal APs |I|=24 large difference"
    ops = [
        _solve_op("T_32", t32, _tn_ref(32, t32), row="T_32"),
        _solve_op("T_48", t48, _tn_ref(48, t48)),
        _solve_op("subcubes d=4 (transposed)", sub4, _subcube_ref(4)),
        _solve_op(lab, large, _recorded_ref(lab)),
    ]
    return Workload("solve-dual", ops, st.seconds)


def nonzero_binary(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    while True:
        a = (rng.random((m, n)) < 0.5).astype(float)
        if a.any():
            return a


# 30 solves; the interior point runs on one of them (pair0.sum) at every
# seed tried. The seventh pair is left out: whether its [a b] solve runs
# the interior point depends on the permutation, which moved the round's
# time by up to 15% between seeds.
BATCH_PAIRS = 6

# the generator seed of the acceptance test's criterion 8
CRITERION_8_SEED = 8


def criterion_8_pairs(count: int):
    """The first ``count`` pairs (a, b) that the acceptance test's
    criterion 8 draws: m, n from 2..8, nonzero binary entries."""
    rng = np.random.default_rng(CRITERION_8_SEED)
    for _ in range(count):
        m, n = (int(x) for x in rng.integers(2, 9, size=2))
        yield nonzero_binary(rng, m, n), nonzero_binary(rng, m, n)


def pair_ops(tag: str, a: np.ndarray, b: np.ndarray) -> list[Op]:
    """Five solves of a pair: a, b, a^T, [a b] and a + b.

    The later three are also checked against the first two: transpose
    invariance, the triangle inequality, the column-union bound and
    submatrix monotonicity, each with the acceptance test's tol slack.
    """
    done: dict[str, object] = {}

    def relation(ok, what):
        def ref(cert):
            if "a" not in done or "b" not in done:
                return None  # their own failure is already counted
            return None if ok(cert, done["a"], done["b"]) else f"{what} violated"

        return ref

    def transpose(c, ca, cb):
        return abs(c.upper - ca.upper) <= 2 * TOL * max(ca.upper, 1.0)

    def union(c, ca, cb):
        sq = ca.upper**2 + cb.upper**2
        return c.upper**2 <= sq + 3 * TOL * max(sq, 1.0) and c.upper >= max(ca.lower, cb.lower) * (1 - 1e-9)

    def triangle(c, ca, cb):
        s = ca.upper + cb.upper
        return c.upper <= s + 3 * TOL * max(s, 1.0)

    def keep(name, inner):
        def check(cert):
            verdict = inner(cert)
            done[name] = cert
            return verdict

        return check

    ops = []
    for name, x, ref in (
        ("a", a, None),
        ("b", b, None),
        ("aT", a.T, relation(transpose, "transpose invariance")),
        ("ab", np.hstack([a, b]), relation(union, "union bound or submatrix monotonicity")),
        ("sum", a + b, relation(triangle, "triangle inequality")),
    ):
        label = f"{tag}.{name} {x.shape[0]}x{x.shape[1]}"
        ops.append(Op(label, (lambda x=x: g2d.gamma2(x)), keep(name, solve_check(x, ref))))
    return ops


def build_solve_batch(seed: int) -> Workload:
    """Criterion 8's first pairs, with rows and columns permuted by the
    seed (one permutation per pair, shared by a and b).

    Permutations keep every gamma_2 value, so the solver's work stays
    close between seeds: fresh random pairs varied it by 14% in SVD
    calls and from 2 to 7 interior-point solves per 100. The solver's
    path still depends on the order of rows and columns (see
    BATCH_PAIRS).
    """
    rng = np.random.default_rng(seed)
    ops: list[Op] = []
    for k, (a, b) in enumerate(criterion_8_pairs(BATCH_PAIRS)):
        rows, cols = rng.permutation(a.shape[0]), rng.permutation(a.shape[1])
        ops += pair_ops(f"pair{k}", a[rows][:, cols], b[rows][:, cols])
    return Workload("solve-batch", ops, 0.0)


# the smallest n at which the report's AP_n solve runs the interior point
AP_NS = (14,)


def build_report_ap(tmp: str) -> Workload:
    """Fixed instances; the seed does not change them. Output goes to tmp."""
    st = _SetTimer()
    ops = []
    for n in AP_NS:
        inc = st(g2d_setsystems.arithmetic_progressions, n).incidence
        oriented = inc.T if inc.shape[0] > inc.shape[1] else inc
        out = os.path.join(tmp, f"ap{n}.csv")
        certs = os.path.join(tmp, f"certs{n}")
        argv = ["ap", "--ns", str(n), "--out", out, "--certs-dir", certs]

        def run(argv=argv):
            with contextlib.redirect_stdout(io.StringIO()):
                return g2d_cli.main(argv)

        ops.append(Op(f"ap --ns {n}", run, _ap_check(n, oriented, out, certs), entry="cli"))
    return Workload("report-ap", ops, st.seconds)


def _ap_check(n: int, oriented: np.ndarray, out: str, certs: str):
    quarter = n**0.25
    cert_path = os.path.join(certs, f"AP_{n}.cert.txt")

    def check(rc):
        try:
            if rc != 0:
                return "wrong", f"g2d ap exited {rc}"
            with open(out, newline="") as fh:
                rows = list(csv.DictReader(fh))
            cert = g2d.read_certificate(cert_path)
        except (OSError, ValueError) as exc:
            return "wrong", f"report output unreadable: {exc}"
        finally:
            # the next round must write both files again
            for path in (out, cert_path):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
        if len(rows) != 1 or rows[0]["label"] != f"AP_{n}":
            return "wrong", f"CSV rows {[r.get('label') for r in rows]}, want AP_{n}"
        row = rows[0]
        verdict = solve_check(oriented)(cert)
        if verdict and verdict[0] == "wrong":
            return "wrong", f"certificate file: {verdict[1]}"
        upper, lower = float(row["gamma2_upper"]), float(row["gamma2_lower"])
        if abs(upper - cert.upper) > 1e-11 * cert.upper:
            return "wrong", f"CSV upper {upper} differs from certificate {cert.upper}"
        if not lower <= upper:
            return "wrong", f"CSV lower {lower} above upper {upper}"
        ratio = float(row["ratio_upper_over_quarter"])
        pinned = AP_RATIO[n]
        if abs(ratio - pinned) > AP_RATIO_RTOL * pinned:
            return "wrong", f"ratio {ratio} outside the band around {pinned}"
        for key in ("small_diff_gamma2", "large_diff_gamma2"):
            if float(row[key]) > quarter + 1e-3:
                return "wrong", f"{key} {row[key]} above n^(1/4)"
        if row["converged"] != "1" or verdict:
            return "unconverged", "AP_n certificate did not reach tol"
        return None

    return check


# ---------------------------------------------------------------------------
# exact oracles and their independent vectorized references
# ---------------------------------------------------------------------------


def _all_colorings(n: int, chunk: int = 1 << 15):
    """Every sign vector with x_1 = +1, in blocks of rows."""
    free = n - 1
    bits = np.arange(free)
    for lo in range(0, 1 << free, chunk):
        codes = np.arange(lo, min(lo + chunk, 1 << free))
        x = np.ones((codes.size, n))
        x[:, 1:] = 1.0 - 2.0 * ((codes[:, None] >> bits[None, :]) & 1)
        yield x


def reference_disc(a: np.ndarray, p: float) -> float:
    m, n = a.shape
    best = math.inf
    for x in _all_colorings(n):
        s = x @ a.T
        if p == math.inf:
            v = np.abs(s).max(axis=1)
        else:
            v = ((np.abs(s) ** p).sum(axis=1) / m) ** (1.0 / p)
        best = min(best, float(v.min()))
    return best


def reference_detlb(a: np.ndarray, k_max: int) -> float:
    m, n = a.shape
    best = 0.0
    for k in range(1, min(k_max, m, n) + 1):
        cols = np.array(list(combinations(range(n), k)))
        for rows in combinations(range(m), k):
            sub = a[list(rows)][:, cols].transpose(1, 0, 2)  # (col sets, k, k)
            d = np.abs(np.linalg.det(sub)).max()
            if d > 0:
                best = max(best, float(d) ** (1.0 / k))
    return best


def _coloring_check(a: np.ndarray, p: float, rtol: float):
    reference = functools.cache(lambda: reference_disc(a, p))

    def check(res):
        want = reference()
        if abs(res.recompute(a) - res.value) > rtol * max(res.value, 1.0):
            return "wrong", f"coloring recomputes to {res.recompute(a)}, reported {res.value}"
        if abs(res.value - want) > rtol * max(want, 1.0):
            return "wrong", f"value {res.value}, exhaustive reference {want}"
        return None

    return check


def _value_check(reference: Callable[[], float], rtol: float):
    reference = functools.cache(reference)

    def check(value):
        want = reference()
        if abs(value - want) > rtol * max(want, 1.0):
            return "wrong", f"value {value}, reference {want}"
        return None

    return check


DETLB_KMAX = 4


def build_oracle_enum(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    st = _SetTimer()
    a = nonzero_binary(rng, 24, 17)
    a15 = a[:, :15]
    b = nonzero_binary(rng, 10, 10)
    t10 = st(g2d_setsystems.initial_segments, 10).incidence
    ops = [
        Op("disc_exact 24x17", lambda: g2d_oracles.disc_exact(a), _coloring_check(a, math.inf, 0.0), "oracles"),
        Op("disc_p_exact p=2 24x15", lambda: g2d_oracles.disc_p_exact(a15, 2.0), _coloring_check(a15, 2.0, 1e-12), "oracles"),
        Op("herdisc_exact T_10", lambda: g2d_oracles.herdisc_exact(t10), _value_check(lambda: 1.0, 0.0), "oracles"),
        Op(
            f"detlb_exact 10x10 k_max={DETLB_KMAX}",
            lambda: g2d_oracles.detlb_exact(b, DETLB_KMAX),
            _value_check(lambda: reference_detlb(b, DETLB_KMAX), 1e-9),
            "oracles",
        ),
    ]
    return Workload("oracle-enum", ops, st.seconds)


def build(name: str, seed: int, tmp: str) -> Workload:
    """Build a workload's instances, then solve the fixed warm-up matrix."""
    builders = {
        "solve-dual": build_solve_dual,
        "solve-batch": lambda: build_solve_batch(seed),
        "report-ap": lambda: build_report_ap(tmp),
        "oracle-enum": lambda: build_oracle_enum(seed),
    }
    wl = builders[name]()
    g2d.gamma2(WARMUP)
    return wl
