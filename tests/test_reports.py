"""Report suite: figure data, dumps, audits, CSV determinism."""

import dataclasses
import gc
import warnings

import numpy as np
import pytest

from g2d.gamma2 import check_certificate, gamma2, read_certificate, write_certificate
from g2d.linalg import nuclear_norm, read_matrix, tn_matrix, write_matrix
from g2d.reports import (
    ReportRow,
    _load_matrix,
    ap_report,
    audit,
    ellipsoid_dump,
    subcube_report,
    tn_figure,
    tusnady_report,
    write_csv,
)
from g2d.setsystems import power_set, write_set_system


def test_tn_figure_small(tmp_path):
    out = tmp_path / "tn.csv"
    certs = tmp_path / "certs"
    rows = tn_figure([2, 4], out=str(out), certs_dir=str(certs))
    assert [r.n for r in rows] == [2, 4]
    r2 = rows[0].columns
    closed = 0.5 * (
        1.0 / (2.0 * np.sin(np.pi / 10.0)) + 1.0 / (2.0 * np.sin(3.0 * np.pi / 10.0))
    )
    assert abs(r2["nuclear_uniform"] - closed) < 1e-10
    assert r2["log_bound"] == 2.0
    for row in rows:
        c = row.columns
        assert c["nuclear_uniform"] <= c["dual_lower"] + 1e-9
        assert c["dual_lower"] <= c["gamma2_upper"] + 1e-9
        assert c["gamma2_upper"] <= c["log_bound"] + 1e-9
        assert c["rel_gap"] <= 2e-2
    # shipped certificates re-validate against their matrices
    for row in rows:
        cert = read_certificate(certs / f"{row.label}.cert.txt")
        side = tn_matrix(row.n)
        try:
            check_certificate(cert, side)
        except Exception:
            check_certificate(cert, side.T)
    header = out.read_text().splitlines()[0]
    assert header.split(",")[:3] == ["label", "n", "d"]
    assert "gamma2_upper" in header


def test_tn_figure_rerun_is_bit_identical(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    tn_figure([2, 3, 4], out=str(out1))
    tn_figure([2, 3, 4], out=str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_ellipsoid_dump_t2(tmp_path):
    # the default tol leaves the weights about 6e-6 from 1/3 and 2/3
    summary = ellipsoid_dump(2, str(tmp_path), tol=1e-8)
    assert summary["converged"]
    p = read_matrix(tmp_path / "T_2_p.txt").reshape(-1)
    q = read_matrix(tmp_path / "T_2_q.txt").reshape(-1)
    assert np.max(np.abs(p - np.array([1.0 / 3.0, 2.0 / 3.0]))) < 1e-6
    assert np.max(np.abs(q - np.array([2.0 / 3.0, 1.0 / 3.0]))) < 1e-6
    d = read_matrix(tmp_path / "T_2_D.txt")
    assert np.max(np.abs(d - d.T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(d)) > -1e-9
    assert abs(summary["max_diag_D"] - summary["upper"] ** 2) < 1e-6
    assert summary["weight_reversal_deviation"] < 1e-6
    assert (tmp_path / "T_2_summary.txt").exists()


def test_ellipsoid_dump_reversal_symmetry_measured():
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        summary = ellipsoid_dump(6, tmp)
        # measured, not proven: the optimal weights reverse cleanly at
        # desk scale
        assert summary["weight_reversal_deviation"] < 1e-3


def test_tusnady_direct_matches_product():
    row = tusnady_report(2, 4)
    c = row.columns
    assert not c["derived"]
    assert abs(c["direct_upper"] - c["product_value"]) <= 5e-3 * c["product_value"]
    assert 0.99 <= c["ratio_direct_over_product"] <= 1.01
    assert c["herdisc_window_low"] <= c["herdisc_window_high"]


def test_tusnady_d1_reduces_to_tn():
    row = tusnady_report(1, 8)
    c = row.columns
    ref = tn_figure([8])[0].columns["gamma2_upper"]
    assert abs(c["product_value"] - ref) <= 1e-6 * ref
    assert abs(c["direct_upper"] - ref) <= 5e-3 * ref


def test_tusnady_cap_flags_derived():
    row = tusnady_report(3, 4, direct_cap=32)
    c = row.columns
    assert c["derived"]
    assert np.isnan(c["direct_upper"])
    assert c["product_value"] > 0


def test_subcube_report_d1_and_d3():
    r1 = subcube_report(1).columns
    assert abs(r1["direct_upper"] - 2.0 / np.sqrt(3.0)) <= 1e-4
    r3 = subcube_report(3).columns
    want = (2.0 / np.sqrt(3.0)) ** 3
    assert abs(r3["direct_upper"] - want) <= 5e-3 * want
    assert abs(r3["exponent_estimate"] - 0.2075) <= 5e-3


def test_ap_report_small(tmp_path):
    out = tmp_path / "ap.csv"
    rows = ap_report([1, 4, 8], out=str(out))
    by_n = {r.n: r.columns for r in rows}
    assert abs(by_n[1]["gamma2_upper"] - 1.0) <= 1e-4
    for n in (4, 8):
        c = by_n[n]
        quarter = n**0.25
        assert c["gamma2_upper"] > 0
        assert c["small_diff_gamma2"] <= quarter + 1e-3
        assert c["large_diff_gamma2"] <= quarter + 1e-3
        assert c["gamma2_lower"] <= c["gamma2_upper"] + 1e-9
    assert out.exists()


def test_audit_t8():
    report = audit(tn_matrix(8))
    lower, upper = report.gamma2_interval
    t8 = tn_matrix(8)
    assert lower >= nuclear_norm(t8) / 8.0 - 1e-9
    assert upper <= 4.0 + 1e-6
    assert report.herdisc_exact == 1.0
    assert report.detlb is not None
    assert report.detlb <= upper + 1e-4
    assert report.detlb <= 2.0 * report.herdisc_exact + 1e-9
    assert "gamma2_upper_over_detlb" in report.ratios
    assert report.failures == {}


def test_audit_power_set_4():
    report = audit(power_set(4))
    assert report.disc_exact == 2.0
    assert report.gamma2_interval[1] <= 2.0 + 1e-3


def test_audit_zero_matrix():
    report = audit(np.zeros((3, 3)))
    assert report.gamma2_interval == (0.0, 0.0)
    assert report.detlb == 0.0
    assert report.nuclear_uniform == 0.0
    assert report.disc_exact == 0.0
    assert report.herdisc_exact == 0.0


def test_audit_records_cap_failures_without_abort():
    # 18 columns exceeds the herdisc cap; the column is absent and the
    # failure is recorded, everything else still computes
    a = np.hstack([np.eye(18), np.zeros((18, 0))])
    report = audit(a)
    assert report.herdisc_exact is None
    assert "herdisc_exact" in report.failures
    assert report.gamma2_interval[1] > 0


def test_audit_reads_set_system_file(tmp_path):
    path = tmp_path / "ps3.txt"
    write_set_system(path, power_set(3))
    report = audit(str(path))
    assert report.disc_exact is not None
    assert report.gamma2_interval[1] <= np.sqrt(3.0) + 1e-3


def test_write_csv_schema(tmp_path):
    rows = [
        ReportRow(label="one", n=1, columns={"a": 1.5, "flag": True}),
        ReportRow(label="two", n=2, columns={"a": 2.5, "flag": False}),
    ]
    path = tmp_path / "r.csv"
    write_csv(rows, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "label,n,d,a,flag"
    assert lines[1] == "one,1,,1.5,1"
    assert lines[2] == "two,2,,2.5,0"
    with pytest.raises(ValueError):
        write_csv([], str(path))


def _bad_csv(path):
    # the second row lacks a column: KeyError after the header and the
    # first row are written
    rows = [ReportRow(label="one", columns={"a": 1.0}), ReportRow(label="two", columns={})]
    write_csv(rows, path)


def _bad_certificate(path):
    # q is not numeric: ValueError after D, B, C and p are written
    cert = gamma2(np.eye(2))
    write_certificate(path, dataclasses.replace(cert, dual_q=np.array(["x", "y"])))


@pytest.mark.parametrize("bad_write, error", [(_bad_csv, KeyError), (_bad_certificate, ValueError)])
def test_interrupted_write_keeps_old_file(tmp_path, bad_write, error):
    path = tmp_path / "out.txt"
    path.write_text("old content\n")
    with pytest.raises(error):
        bad_write(str(path))
    assert path.read_text() == "old content\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@pytest.mark.parametrize(
    "write",
    [lambda path: write_matrix(path, tn_matrix(3)), lambda path: write_set_system(path, power_set(2))],
    ids=["matrix", "set_system"],
)
def test_load_matrix_closes_its_file(tmp_path, write):
    path = str(tmp_path / "in.txt")
    write(path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        a = _load_matrix(path)
        gc.collect()
    assert a.shape in ((3, 3), (4, 2))
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
