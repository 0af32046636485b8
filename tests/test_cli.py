"""Command-line interface: subcommands, flags, exit codes."""

import os
import subprocess
import sys

import numpy as np
import pytest

import g2d
from g2d.cli import main, parse_ns
from g2d.gamma2 import check_certificate, read_certificate
from g2d.linalg import read_matrix, tn_matrix, write_matrix
from g2d.setsystems import power_set, write_set_system


def test_parse_ns_plain():
    assert parse_ns("2,4,8") == [2, 4, 8]
    assert parse_ns(" 3 , 5 ") == [3, 5]


def test_parse_ns_geometric_elision():
    assert parse_ns("2,4,...,128") == [2, 4, 8, 16, 32, 64, 128]
    assert parse_ns("1,3,...,81") == [1, 3, 9, 27, 81]


def test_parse_ns_arithmetic_elision():
    assert parse_ns("3,5,...,11") == [3, 5, 7, 9, 11]


def test_parse_ns_bad_final_term():
    with pytest.raises(ValueError):
        parse_ns("2,4,...,100")
    with pytest.raises(ValueError):
        parse_ns("...,8")


def test_tn_figure_command(tmp_path, capsys):
    out = tmp_path / "tn.csv"
    code = main(["tn-figure", "--ns", "2,4", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("label,n,d,")
    assert len(lines) == 3
    assert "T_2" in lines[1]


def test_ellipsoid_command(tmp_path, capsys):
    # the default tol leaves the weights about 6e-6 from 1/3 and 2/3
    code = main(["ellipsoid", "--n", "2", "--out", str(tmp_path), "--tol", "1e-8"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "upper=" in stdout
    assert (tmp_path / "T_2_D.txt").exists()
    p = read_matrix(tmp_path / "T_2_p.txt").reshape(-1)
    assert abs(p[0] - 1.0 / 3.0) < 1e-6


def test_tusnady_command(capsys):
    code = main(["tusnady", "--d", "2", "--n", "4"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "product_value=" in stdout
    assert "direct_upper=" in stdout


def test_subcubes_command(capsys):
    code = main(["subcubes", "--d", "1"])
    assert code == 0
    stdout = capsys.readouterr().out
    line = next(l for l in stdout.splitlines() if l.startswith("direct_upper="))
    assert abs(float(line.split("=")[1]) - 2.0 / np.sqrt(3.0)) < 1e-4


def test_ap_command(tmp_path, capsys):
    out = tmp_path / "ap.csv"
    code = main(["ap", "--ns", "4,8", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 3


def test_audit_command(tmp_path, capsys):
    path = tmp_path / "t5.txt"
    write_matrix(path, tn_matrix(5))
    code = main(["audit", "--in", str(path)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "gamma2_upper=" in stdout
    assert "herdisc_exact=1" in stdout


def test_solve_command_writes_certificate(tmp_path, capsys):
    path = tmp_path / "c1.txt"
    write_matrix(path, np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]))
    cert_path = tmp_path / "c1.cert.txt"
    code = main(["solve", "--in", str(path), "--out", str(cert_path)])
    assert code == 0
    cert = read_certificate(cert_path)
    assert abs(cert.upper - 2.0 / np.sqrt(3.0)) < 1e-4
    stdout = capsys.readouterr().out
    assert "upper=" in stdout


def test_solve_command_at_extreme_scale(tmp_path):
    path = tmp_path / "t4.txt"
    write_matrix(path, 1e-300 * tn_matrix(4))
    cert_path = tmp_path / "t4.cert.txt"
    assert main(["solve", "--in", str(path), "--out", str(cert_path)]) == 0
    cert = read_certificate(cert_path)
    assert cert.converged
    check_certificate(cert, read_matrix(path))


@pytest.mark.parametrize("tol", ["nan", "-0.5"])
def test_solve_command_rejects_bad_tol(tmp_path, capsys, tol):
    path = tmp_path / "t8.txt"
    write_matrix(path, tn_matrix(8))
    assert main(["solve", "--in", str(path), "--tol", tol]) == 2
    assert "converged" not in capsys.readouterr().out


def test_oracle_disc_command(tmp_path, capsys):
    path = tmp_path / "ps4.txt"
    write_set_system(path, power_set(4))
    coloring_out = tmp_path / "x.txt"
    code = main(["oracle", "disc", "--in", str(path), "--coloring-out", str(coloring_out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "value=2" in stdout
    x = read_matrix(coloring_out).reshape(-1)
    assert set(np.unique(x)) <= {-1.0, 1.0}
    # recompute the reported value from the written coloring
    assert np.max(np.abs(power_set(4).incidence @ x)) == 2.0


def test_oracle_herdisc_command(tmp_path, capsys):
    path = tmp_path / "t6.txt"
    write_matrix(path, tn_matrix(6))
    code = main(["oracle", "herdisc", "--in", str(path)])
    assert code == 0
    assert "value=1" in capsys.readouterr().out


def test_oracle_detlb_commands(tmp_path, capsys):
    path = tmp_path / "m.txt"
    write_matrix(path, np.array([[2.0, 1.0], [-1.0, 2.0]]))
    code = main(["oracle", "detlb", "--in", str(path), "--kmax", "2"])
    assert code == 0
    line = next(
        l for l in capsys.readouterr().out.splitlines() if l.startswith("value=")
    )
    assert abs(float(line.split("=")[1]) - np.sqrt(5.0)) < 1e-12
    code = main(["oracle", "detlb2", "--in", str(path), "--kmax", "2"])
    assert code == 0
    assert "value=" in capsys.readouterr().out


def test_oracle_discp_command(tmp_path, capsys):
    path = tmp_path / "row.txt"
    write_matrix(path, np.ones((1, 4)))
    code = main(["oracle", "discp", "--in", str(path), "--p", "2"])
    assert code == 0
    assert "value=0" in capsys.readouterr().out


def test_oracle_discp_weighted(tmp_path, capsys):
    path = tmp_path / "m.txt"
    write_matrix(path, np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]]))
    wpath = tmp_path / "w.txt"
    write_matrix(wpath, np.array([[0.0], [1.0]]))
    code = main(
        ["oracle", "discp", "--in", str(path), "--p", "inf", "--weights", str(wpath)]
    )
    assert code == 0
    assert "value=1" in capsys.readouterr().out


def test_exit_code_cap_refusal(tmp_path, capsys):
    path = tmp_path / "wide.txt"
    write_matrix(path, np.ones((1, 30)))
    code = main(["oracle", "disc", "--in", str(path)])
    assert code == 3


def test_exit_code_cap_refusal_in_report(capsys):
    assert main(["tn-figure", "--ns", "300"]) == 3


def test_exit_code_parse_error_is_not_a_refusal(capsys):
    # exit 3 is chosen by the exception type, not by words in the message
    assert main(["tn-figure", "--ns", "2,cap"]) == 2
    assert main(["tn-figure", "--ns", "2,x"]) == 2


def test_exit_code_missing_file(capsys):
    code = main(["audit", "--in", "/nonexistent/never.txt"])
    assert code != 0


def test_budget_flag_accepted(tmp_path, capsys):
    path = tmp_path / "t3.txt"
    write_matrix(path, tn_matrix(3))
    code = main(["audit", "--in", str(path), "--budget-minutes", "5"])
    assert code == 0


def test_oracle_takes_no_tol(tmp_path, capsys):
    # the exact oracles accepted --tol and ignored it
    path = tmp_path / "t3.txt"
    write_matrix(path, tn_matrix(3))
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "disc", "--in", str(path), "--tol", "1e-3"])
    assert exc.value.code == 2
    assert main(["oracle", "disc", "--in", str(path), "--budget-minutes", "5"]) == 0


def test_seed_determinism_via_cli(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["ap", "--ns", "4", "--out", str(out1)]) == 0
    assert main(["ap", "--ns", "4", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_flag_is_a_usage_error(capsys):
    # the solver makes no random choices, so there is no seed to set
    with pytest.raises(SystemExit) as exc:
        main(["ap", "--ns", "4", "--seed", "3"])
    assert exc.value.code == 2


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of main(argv); a SystemExit code is
    returned as ("exit", code)."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("exit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    # the first main call builds the parser and later calls reuse it;
    # each call must give the outputs of a fresh parser
    import g2d.cli as cli

    path = tmp_path / "t4.txt"
    write_matrix(path, tn_matrix(4))
    ps = tmp_path / "ps3.txt"
    write_set_system(ps, power_set(3))
    argvs = [
        ["solve", "--in", str(path), "--tol", "1e-8"],
        ["solve", "--in", str(path)],  # no --tol: the default again
        ["oracle", "disc", "--in", str(ps)],
        ["oracle", "detlb", "--in", str(path), "--kmax", "2"],
        ["-h"],
        ["oracle", "-h"],
        ["solve"],  # --in missing
        ["nope"],
        ["oracle", "disc", "--in", str(ps), "--tol", "1e-3"],
        ["solve", "--in", str(path), "--tol", "-0.5"],
        ["tn-figure", "--ns", "2,x"],
    ]
    built = []

    def counting():
        built.append(build())
        return built[-1]

    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_parser", None)
    shared = [_outcome(argv, capsys) for argv in argvs]
    assert len(built) == 1 and cli._parser is built[0]
    for argv, outcome in zip(argvs, shared):
        monkeypatch.setattr(cli, "_parser", None)
        assert _outcome(argv, capsys) == outcome
    assert len(built) == 1 + len(argvs)
    codes = [outcome[0] for outcome in shared]
    assert codes == [0, 0, 0, 0, ("exit", 0), ("exit", 0), ("exit", 2), ("exit", 2), ("exit", 2), 2, 2]
    assert "usage: g2d" in shared[4][1] and "disc" in shared[5][1]


def test_package_import_is_serial_and_numpy_only():
    # the package runs one serial path on numpy alone
    src = os.path.dirname(os.path.dirname(g2d.__file__))
    code = (
        "import sys, g2d, g2d.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'scipy') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
