"""Command-line interface.

Subcommands mirror the report suite and the exact oracles:

    g2d tn-figure --ns 2,4,...,128 --out tn.csv
    g2d ellipsoid --n 50 --out dumps/
    g2d tusnady --d 2 --n 8
    g2d subcubes --d 6
    g2d ap --ns 8,16,32,64 --out ap.csv
    g2d audit --in system.txt
    g2d solve --in matrix.txt --out cert.txt
    g2d oracle disc --in system.txt [--coloring-out x.txt]
    g2d oracle herdisc --in system.txt
    g2d oracle detlb --in matrix.txt --kmax 4
    g2d oracle detlb2 --in matrix.txt --kmax 4
    g2d oracle discp --in matrix.txt --p 2 [--weights w.txt]

Flags given after the subcommand: --budget-minutes on every command,
and --tol on the seven solver commands, not on ``oracle``, whose exact
enumerations have no tolerance. Exit codes: 0 success, 2 assertion or
validation failure, 3 refusal: a RefusedError (an input over a size cap
or an enumeration budget) or an expired budget.

``--ns`` accepts a plain comma list or an elided progression like
2,4,...,128 (geometric when the leading terms double, otherwise
arithmetic).
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from math import inf

import numpy as np

from .gamma2 import (
    DEFAULT_TOL,
    CertificateError,
    gamma2,
    write_certificate,
)
from .linalg import RefusedError, read_matrix, write_matrix
from .oracles import (
    detlb2_exact,
    detlb_exact,
    disc_exact,
    disc_p_exact,
    herdisc_exact,
)
from .reports import (
    _load_matrix,
    ap_report,
    audit,
    ellipsoid_dump,
    format_value,
    subcube_report,
    tn_figure,
    tusnady_report,
    write_csv,
)

EXIT_OK = 0
EXIT_ASSERTION = 2
EXIT_REFUSED = 3

# The parser, built by the first ``main`` call and reused by later ones:
# parse_args reads it and never changes it.
_parser: argparse.ArgumentParser | None = None


def parse_ns(text: str) -> list[int]:
    """Parse '2,4,8' or an elided progression '2,4,...,128'."""
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if "..." not in tokens:
        return [int(t) for t in tokens]
    idx = tokens.index("...")
    head = [int(t) for t in tokens[:idx]]
    tail = [int(t) for t in tokens[idx + 1 :]]
    if len(head) < 2 or len(tail) != 1:
        raise ValueError("elided list needs two leading terms and one final term")
    last = tail[0]
    a, b = head[-2], head[-1]
    if a > 0 and b % a == 0 and b // a > 1:
        ratio = b // a
        seq = head[:]
        while seq[-1] * ratio <= last:
            seq.append(seq[-1] * ratio)
        if seq[-1] != last:
            raise ValueError(f"{last} is not on the geometric progression {head}")
        return seq
    diff = b - a
    if diff <= 0 or (last - b) % diff != 0:
        raise ValueError(f"cannot infer a progression from {text!r}")
    seq = head[:]
    while seq[-1] + diff <= last:
        seq.append(seq[-1] + diff)
    return seq


def _print_kv(pairs) -> None:
    for key, val in pairs:
        print(f"{key}={format_value(val)}")


def _row_kv(row) -> list:
    pairs = [("label", row.label)]
    if row.n is not None:
        pairs.append(("n", row.n))
    if row.d is not None:
        pairs.append(("d", row.d))
    pairs += list(row.columns.items())
    return pairs


def _read_weights(path: str) -> np.ndarray:
    return read_matrix(path).reshape(-1)


def _add_budget(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--budget-minutes", type=float, default=argparse.SUPPRESS,
                     help="hard wall-clock budget; exceeding it exits 3")


def _add_solver_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                     help=f"relative gap tolerance, a number >= 0 (default {DEFAULT_TOL:g})")
    _add_budget(sub)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="g2d",
        description="Certified gamma_2 factorization-norm solver and "
        "discrepancy bound reports.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("tn-figure", help="bounds table for initial segments")
    p.add_argument("--ns", required=True, help="comma list, elision allowed")
    p.add_argument("--out", help="CSV path")
    p.add_argument("--certs-dir", help="directory for per-row certificates")
    _add_solver_flags(p)

    p = subs.add_parser("ellipsoid", help="dump optimal ellipsoid and weights")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    _add_solver_flags(p)

    p = subs.add_parser("tusnady", help="anchored-box grid report")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", help="CSV path")
    _add_solver_flags(p)

    p = subs.add_parser("subcubes", help="subcube system report")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out", help="CSV path")
    _add_solver_flags(p)

    p = subs.add_parser("ap", help="arithmetic-progression report")
    p.add_argument("--ns", required=True)
    p.add_argument("--out", help="CSV path")
    p.add_argument("--certs-dir", help="directory for per-row certificates")
    _add_solver_flags(p)

    p = subs.add_parser("audit", help="all bounds for one matrix or system")
    p.add_argument("--in", dest="path", required=True)
    p.add_argument("--kmax", type=int, help="k cap for determinant bounds")
    _add_solver_flags(p)

    p = subs.add_parser("solve", help="certified gamma_2 of a matrix file")
    p.add_argument("--in", dest="path", required=True)
    p.add_argument("--out", help="certificate bundle path")
    _add_solver_flags(p)

    p = subs.add_parser("oracle", help="exact brute-force oracles")
    osubs = p.add_subparsers(dest="oracle", required=True)

    o = osubs.add_parser("disc", help="exact discrepancy")
    o.add_argument("--in", dest="path", required=True)
    o.add_argument("--coloring-out", help="write the optimal coloring")
    _add_budget(o)

    o = osubs.add_parser("herdisc", help="exact hereditary discrepancy")
    o.add_argument("--in", dest="path", required=True)
    _add_budget(o)

    o = osubs.add_parser("detlb", help="exact determinant lower bound")
    o.add_argument("--in", dest="path", required=True)
    o.add_argument("--kmax", type=int, required=True)
    _add_budget(o)

    o = osubs.add_parser("detlb2", help="exact L2 determinant bound")
    o.add_argument("--in", dest="path", required=True)
    o.add_argument("--kmax", type=int, required=True)
    _add_budget(o)

    o = osubs.add_parser("discp", help="exact Lp discrepancy")
    o.add_argument("--in", dest="path", required=True)
    o.add_argument("--p", required=True, help="p >= 1, or 'inf'")
    o.add_argument("--weights", help="row weight file (k x 1 matrix)")
    o.add_argument("--coloring-out", help="write the optimal coloring")
    _add_budget(o)

    return parser


def _dispatch(args: argparse.Namespace) -> int:
    tol = getattr(args, "tol", DEFAULT_TOL)

    if args.command == "tn-figure":
        rows = tn_figure(
            parse_ns(args.ns),
            tol=tol,
            out=args.out,
            certs_dir=args.certs_dir,
        )
        for row in rows:
            _print_kv(_row_kv(row))
        return EXIT_OK

    if args.command == "ellipsoid":
        summary = ellipsoid_dump(args.n, args.out, tol=tol)
        _print_kv((k, v) for k, v in summary.items() if k != "files")
        for path in summary["files"]:
            print(f"file={path}")
        return EXIT_OK

    if args.command == "tusnady":
        row = tusnady_report(args.d, args.n, tol=tol)
        _print_kv(_row_kv(row))
        if args.out:
            write_csv([row], args.out)
        return EXIT_OK

    if args.command == "subcubes":
        row = subcube_report(args.d, tol=tol)
        _print_kv(_row_kv(row))
        if args.out:
            write_csv([row], args.out)
        return EXIT_OK

    if args.command == "ap":
        rows = ap_report(
            parse_ns(args.ns),
            tol=tol,
            out=args.out,
            certs_dir=args.certs_dir,
        )
        for row in rows:
            _print_kv(_row_kv(row))
        return EXIT_OK

    if args.command == "audit":
        report = audit(args.path, tol=tol, k_max=args.kmax)
        pairs = [
            ("gamma2_lower", report.gamma2_interval[0]),
            ("gamma2_upper", report.gamma2_interval[1]),
            ("nuclear_uniform", report.nuclear_uniform),
        ]
        for name in ("detlb", "detlb2", "disc_exact", "herdisc_exact"):
            val = getattr(report, name)
            if val is not None:
                pairs.append((name, val))
        pairs += sorted(report.ratios.items())
        pairs += [(f"failure.{k}", v) for k, v in sorted(report.failures.items())]
        _print_kv(pairs)
        return EXIT_OK

    if args.command == "solve":
        a = _load_matrix(args.path)
        cert = gamma2(a, tol=tol)
        _print_kv(
            [
                ("upper", cert.upper),
                ("lower", cert.lower),
                ("gap", cert.gap),
                ("converged", cert.converged),
            ]
        )
        if args.out:
            write_certificate(args.out, cert)
            print(f"file={args.out}")
        return EXIT_OK

    if args.command == "oracle":
        a = _load_matrix(args.path)
        if args.oracle == "disc":
            res = disc_exact(a)
            _print_kv([("value", res.value), ("norm_kind", res.norm_kind)])
            if args.coloring_out:
                write_matrix(args.coloring_out, res.coloring.reshape(-1, 1))
                print(f"file={args.coloring_out}")
            return EXIT_OK
        if args.oracle == "herdisc":
            _print_kv([("value", herdisc_exact(a))])
            return EXIT_OK
        if args.oracle == "detlb":
            _print_kv([("value", detlb_exact(a, args.kmax)), ("kmax", args.kmax)])
            return EXIT_OK
        if args.oracle == "detlb2":
            _print_kv([("value", detlb2_exact(a, args.kmax)), ("kmax", args.kmax)])
            return EXIT_OK
        if args.oracle == "discp":
            p = inf if args.p.strip().lower() in ("inf", "infinity") else float(args.p)
            w = _read_weights(args.weights) if args.weights else None
            res = disc_p_exact(a, p, w)
            _print_kv([("value", res.value), ("p", args.p), ("norm_kind", res.norm_kind)])
            if args.coloring_out:
                write_matrix(args.coloring_out, res.coloring.reshape(-1, 1))
                print(f"file={args.coloring_out}")
            return EXIT_OK

    raise ValueError(f"unhandled command {args.command!r}")


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)

    timer = None
    budget = getattr(args, "budget_minutes", None)
    if budget is not None:
        def _expire():
            sys.stderr.write(f"budget of {budget} minutes exceeded\n")
            sys.stderr.flush()
            os._exit(EXIT_REFUSED)

        timer = threading.Timer(budget * 60.0, _expire)
        timer.daemon = True
        timer.start()
    try:
        return _dispatch(args)
    except AssertionError as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except CertificateError as exc:
        print(f"certificate check failed: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except RefusedError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    finally:
        if timer is not None:
            timer.cancel()


if __name__ == "__main__":
    sys.exit(main())
