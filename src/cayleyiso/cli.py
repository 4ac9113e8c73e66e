"""Command-line front end.

Subcommands: growth, ball, boundary, depth, varopoulos, separation,
counterexample {stats|find|torus}, ringlike {check|cover}, sweep ratio.

Exit codes: 0 when every asserted claim holds, 2 when a checked mathematical
claim fails (the report is still emitted), 1 for usage, input, and resource
errors. JSON output carries numbers only as exact integers or rational
strings "p/q"; CSV is available for growth tables and parameter sweeps. The
ISO_BUDGET environment variable overrides the BFS vertex budget; the
--budget flag overrides both. Whichever applies must be a positive integer.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from typing import Optional

from . import counterexample, isoperimetry, ringlike
from .groups import DEFAULT_BUDGET, BudgetExceeded, ball, classify_growth, parse_group

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2

WINDOW_HELP = "block window, validated (>= 1) and echoed; q does not depend on it"


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; this CLI reserves 2 for
    claim violations, so usage errors are remapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _jsonify(obj):
    """Restrict payloads to ints, bools, strings, rationals, lists, dicts.

    Fractions become "p/q" strings; floats are rejected outright so no
    inexact number can reach persisted output.
    """
    if isinstance(obj, bool) or isinstance(obj, int):
        return obj
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, float):
        raise TypeError(f"refusing to serialize a float: {obj!r}")
    if isinstance(obj, str) or obj is None:
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__} value {obj!r}")


def _render(result: tuple) -> str:
    """The whole text of a handler's ``("json", payload)`` or
    ``("csv", header, rows)`` result, before any of it is written."""
    if result[0] == "json":
        return json.dumps(_jsonify(result[1]), indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(result[1])
    for row in result[2]:
        writer.writerow([_jsonify(cell) for cell in row])
    return buf.getvalue()


def _write_output(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"expected a rational number like 1/2 or 0.5, got {text!r}")


def _resolve_budget(args) -> int:
    """--budget, else ISO_BUDGET, else DEFAULT_BUDGET; it must be positive."""
    source, raw = "--budget", args.budget
    if raw is None:
        source, raw = "ISO_BUDGET", os.environ.get("ISO_BUDGET", DEFAULT_BUDGET)
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{source} must be a positive integer, got {raw!r}")
    return value


def _resolve_set(args, budget: int) -> isoperimetry.VertexSet:
    """Load --set PATH, or grow --random SIZE on --group with --seed."""
    if args.set is not None:
        A = isoperimetry.load_set(args.set)
        if args.group is not None and parse_group(args.group).family != A.host.family:
            raise ValueError(
                f"--group {args.group!r} does not match set file group "
                f"{A.host.family!r}"
            )
        return A
    if args.random is not None:
        if args.group is None:
            raise ValueError("--random requires --group")
        if args.random > budget:
            raise BudgetExceeded(budget, args.random)
        g = parse_group(args.group)
        return isoperimetry.random_connected_set(g, args.random, seed=args.seed)
    raise ValueError("provide a set via --set PATH or --random SIZE")


def _add_set_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--group", help="group grammar string, e.g. z^2 or cyl:3")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--set", help="path to a JSON set file")
    src.add_argument("--random", type=int, metavar="SIZE",
                     help="grow a random connected set of SIZE vertices")
    p.add_argument("--seed", type=int, default=0,
                   help="PRNG seed for --random (default 0)")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.add_argument("--budget", type=int,
                   help=f"BFS vertex budget (default {DEFAULT_BUDGET}; "
                        "env ISO_BUDGET also honored)")


def _cmd_growth(args, budget):
    g = parse_group(args.group)
    report = classify_growth(g, args.max_radius, budget=budget)
    if args.format == "csv":
        rows = list(enumerate(report.ball_sizes))
        return ("csv", ["r", "ballSize"], rows), [], None
    return ("json", report.to_dict()), [], None


def _cmd_ball(args, budget):
    g = parse_group(args.group)
    vertices = ball(g, g.identity(), args.radius, budget=budget)
    A = isoperimetry.VertexSet._trusted(g, vertices)
    payload = {"group": g.family, "radius": args.radius, "size": len(A)}
    return ("json", payload), [], A if args.emit_set else None


def _cmd_boundary(args, budget):
    A = _resolve_set(args, budget)
    B = isoperimetry.boundary(A)
    payload = {
        "group": A.host.family,
        "sizeA": len(A),
        "boundarySize": len(B),
    }
    return ("json", payload), [], B if args.emit_set else None


def _cmd_depth(args, budget):
    A = _resolve_set(args, budget)
    payload = {
        "group": A.host.family,
        "sizeA": len(A),
        "depth": isoperimetry.depth(A),
    }
    return ("json", payload), [], None


def _cmd_varopoulos(args, budget):
    A = _resolve_set(args, budget)
    report = isoperimetry.varopoulos_check(A, budget=budget)
    payload = {"group": A.host.family, "sizeA": len(A)}
    payload.update(report.to_dict())
    return ("json", payload), report.violations(), None


def _cmd_separation(args, budget):
    A = _resolve_set(args, budget)
    report = isoperimetry.classify_separation(A)
    return ("json", report.to_dict()), report.violations(), None


def _cmd_counterexample_stats(args, budget):
    params = counterexample.GridParams(args.i, args.k)
    st = counterexample.stats(params, budget=budget)
    emitted = counterexample.build(params, budget=budget) if args.emit_set else None
    return ("json", st.to_dict()), st.violations(), emitted


def _cmd_counterexample_find(args, budget):
    target = _parse_fraction(args.c)
    params, st = counterexample.find_params(target, budget=budget)
    emitted = counterexample.build(params, budget=budget) if args.emit_set else None
    payload = {"target": target}
    payload.update(st.to_dict())
    return ("json", payload), st.violations(), emitted


def _cmd_counterexample_torus(args, budget):
    params = counterexample.GridParams(args.i, args.k)
    embedding = counterexample.embed_torus(params, budget=budget)
    emitted = embedding.vertex_set if args.emit_set else None
    return ("json", embedding.report.to_dict()), embedding.report.violations(), emitted


def _cmd_ringlike_check(args, budget):
    host = parse_group(args.group)
    system = ringlike.cyclic_system(host, window=args.window)
    return ("json", system.to_dict()), system.violations(), None


def _cmd_ringlike_cover(args, budget):
    A = _resolve_set(args, budget)
    system = ringlike.cyclic_system(A.host, window=args.window)
    report = ringlike.interval_cover(system, A)
    return ("json", report.to_dict()), report.violations(), None


def _cmd_sweep_ratio(args, budget):
    if args.diag is not None:
        try:
            diag = sorted({int(x) for x in args.diag.split(",") if x.strip()})
        except ValueError:
            raise ValueError(f"--diag expects comma-separated integers, got {args.diag!r}")
        pairs = [(j, j) for j in diag]
    elif args.imax is not None and args.kmax is not None:
        pairs = [(i, k) for i in range(2, args.imax + 1) for k in range(2, args.kmax + 1)]
    else:
        raise ValueError("provide --imax and --kmax, or --diag LIST")
    rows = []
    violations = []
    for i, k in sorted(pairs):
        st = counterexample.stats(counterexample.GridParams(i, k), budget=budget)
        violations += [f"{name} at i={i}, k={k}" for name in st.violations()]
        rows.append([i, k, st.sizeA, st.boundarySize, st.depthOracle, st.ratio])
    header = ["i", "k", "sizeA", "boundarySize", "depthOracle", "ratio"]
    if args.format == "json":
        payload = {
            "rows": [dict(zip(header, row)) for row in rows],
        }
        return ("json", payload), violations, None
    return ("csv", header, rows), violations, None


def build_parser() -> _Parser:
    parser = _Parser(prog="cayleyiso",
                     description="Isoperimetry on implicit Cayley graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("growth", help="ball sizes and growth dichotomy branch")
    p.add_argument("--group", required=True)
    p.add_argument("--max-radius", type=int, default=20)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_common(p)
    p.set_defaults(handler=_cmd_growth)

    p = sub.add_parser("ball", help="ball around the identity")
    p.add_argument("--group", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--emit-set", metavar="PATH",
                   help="also write the ball as a JSON set file")
    _add_common(p)
    p.set_defaults(handler=_cmd_ball)

    for name, handler, description in [
        ("boundary", _cmd_boundary, "exterior vertex boundary of a set"),
        ("depth", _cmd_depth, "max distance from a member to the complement"),
        ("varopoulos", _cmd_varopoulos, "|A| <= 2m|boundary(A)| check"),
        ("separation", _cmd_separation, "small-set / ring-like classification"),
    ]:
        p = sub.add_parser(name, help=description)
        _add_set_source(p)
        if name == "boundary":
            p.add_argument("--emit-set", metavar="PATH",
                           help="also write the boundary as a JSON set file")
        _add_common(p)
        p.set_defaults(handler=handler)

    p = sub.add_parser("counterexample",
                       help="perforated-grid family operations")
    csub = p.add_subparsers(dest="subcommand", required=True)

    q = csub.add_parser("stats", help="exact statistics of A(i,k)")
    q.add_argument("--i", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--emit-set", metavar="PATH")
    _add_common(q)
    q.set_defaults(handler=_cmd_counterexample_stats)

    q = csub.add_parser("find", help="first diagonal member with ratio < c")
    q.add_argument("--c", required=True, help="target ratio, e.g. 0.5 or 1/2")
    q.add_argument("--emit-set", metavar="PATH")
    _add_common(q)
    q.set_defaults(handler=_cmd_counterexample_find)

    q = csub.add_parser("torus", help="embed A(i,k) into the torus of side 3ki+1")
    q.add_argument("--i", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--emit-set", metavar="PATH",
                   help="write the embedded torus set as a JSON set file")
    _add_common(q)
    q.set_defaults(handler=_cmd_counterexample_torus)

    p = sub.add_parser("ringlike", help="cylinder block-system checks")
    rsub = p.add_subparsers(dest="subcommand", required=True)

    q = rsub.add_parser("check", help="block system of a cylinder and its cohesiveness")
    q.add_argument("--group", required=True)
    q.add_argument("--window", type=int, default=50, help=WINDOW_HELP)
    _add_common(q)
    q.set_defaults(handler=_cmd_ringlike_check)

    q = rsub.add_parser("cover", help="interval cover slack bound for a set")
    _add_set_source(q)
    q.add_argument("--window", type=int, default=50, help=WINDOW_HELP)
    _add_common(q)
    q.set_defaults(handler=_cmd_ringlike_cover)

    p = sub.add_parser("sweep", help="parameter sweeps")
    ssub = p.add_subparsers(dest="subcommand", required=True)

    q = ssub.add_parser("ratio", help="ratio table over (i,k) parameters")
    q.add_argument("--imax", type=int)
    q.add_argument("--kmax", type=int)
    q.add_argument("--diag", help="comma-separated diagonal values, e.g. 4,8,16")
    q.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_common(q)
    q.set_defaults(handler=_cmd_sweep_ratio)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        budget = _resolve_budget(args)
        result, violations, emitted = args.handler(args, budget)
        # rendered whole before the set file or the output is written, so a
        # failure to render leaves no partial output
        text = _render(result)
        if emitted is not None:
            isoperimetry.save_set(emitted, args.emit_set)
        _write_output(text, args.out)
    except (ValueError, OSError, json.JSONDecodeError, BudgetExceeded,
            counterexample.SearchCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if violations:
        for name in violations:
            print(f"claim violated: {name}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
