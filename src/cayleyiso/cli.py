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
import stat
import sys
from fractions import Fraction

from .groups import DEFAULT_BUDGET, BudgetExceeded, ball, classify_growth, parse_group

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2

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


def _write_all(targets: list) -> None:
    """Write the text of every ``(path, text)`` target.

    A target that is a regular file, or does not exist yet, is written to a
    temporary beside it, after symlinks are followed; the temporaries are
    renamed onto their targets only after every write has succeeded, and
    are removed if one fails. An existing file keeps its permission bits.
    Other targets (``/dev/null``, a FIFO, a terminal) cannot be replaced and
    are written directly, after the temporaries and before the renames.
    """
    staged, direct = [], []
    for n, (path, text) in enumerate(targets):
        if os.path.exists(path) and not os.path.isfile(path):
            direct.append((path, text))
        else:
            real = os.path.realpath(path)
            staged.append((path, real, f"{real}.{os.getpid()}.{n}.tmp", text))
    try:
        for path, real, tmp, text in staged:
            try:
                with open(tmp, "w", encoding="utf-8") as fh:
                    fh.write(text)
                if os.path.exists(real):
                    os.chmod(tmp, stat.S_IMODE(os.stat(real).st_mode))
            except OSError as exc:  # name the target, not the temporary
                raise OSError(exc.errno, exc.strerror, path) from None
        for path, text in direct:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        for path, real, tmp, _ in staged:
            try:
                os.replace(tmp, real)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        for _, _, tmp, _ in staged:
            if os.path.exists(tmp):
                os.remove(tmp)


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
    from . import isoperimetry

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
        g = parse_group(args.group)
        return isoperimetry.random_connected_set(g, args.random, seed=args.seed,
                                                 budget=budget)
    raise ValueError("provide a set via --set PATH or --random SIZE")


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
    payload = {"group": g.family, "radius": args.radius, "size": len(vertices)}
    if not args.emit_set:
        return ("json", payload), [], None
    from .isoperimetry import VertexSet

    return ("json", payload), [], VertexSet._trusted(g, map(g._encode, vertices))


def _cmd_boundary(args, budget):
    from . import isoperimetry

    A = _resolve_set(args, budget)
    B = isoperimetry.boundary(A)
    payload = {
        "group": A.host.family,
        "sizeA": len(A),
        "boundarySize": len(B),
    }
    return ("json", payload), [], B if args.emit_set else None


def _cmd_depth(args, budget):
    from . import isoperimetry

    A = _resolve_set(args, budget)
    payload = {
        "group": A.host.family,
        "sizeA": len(A),
        "depth": isoperimetry.depth(A),
    }
    return ("json", payload), [], None


def _cmd_varopoulos(args, budget):
    from . import isoperimetry

    A = _resolve_set(args, budget)
    report = isoperimetry.varopoulos_check(A, budget=budget)
    payload = {"group": A.host.family, "sizeA": len(A)}
    payload.update(report.to_dict())
    return ("json", payload), report.violations(), None


def _cmd_separation(args, budget):
    from . import isoperimetry

    A = _resolve_set(args, budget)
    report = isoperimetry.classify_separation(A, budget=budget)
    return ("json", report.to_dict()), report.violations(), None


def _cmd_counterexample_stats(args, budget):
    from . import counterexample

    params = counterexample.GridParams(args.i, args.k)
    st = counterexample.stats(params, budget=budget)
    emitted = counterexample.build(params, budget=budget) if args.emit_set else None
    return ("json", st.to_dict()), st.violations(), emitted


def _cmd_counterexample_find(args, budget):
    from . import counterexample

    target = counterexample._parse_fraction(args.c, "--c")
    params, st = counterexample.find_params(target, budget=budget)
    emitted = counterexample.build(params, budget=budget) if args.emit_set else None
    payload = {"target": target}
    payload.update(st.to_dict())
    return ("json", payload), st.violations(), emitted


def _cmd_counterexample_torus(args, budget):
    from . import counterexample

    params = counterexample.GridParams(args.i, args.k)
    embedding = counterexample.embed_torus(params, budget=budget)
    emitted = embedding.vertex_set if args.emit_set else None
    return ("json", embedding.report.to_dict()), embedding.report.violations(), emitted


def _cmd_ringlike_check(args, budget):
    from . import ringlike

    host = parse_group(args.group)
    system = ringlike.cyclic_system(host, window=args.window, budget=budget)
    return ("json", system.to_dict()), system.violations(), None


def _cmd_ringlike_cover(args, budget):
    from . import ringlike

    A = _resolve_set(args, budget)
    system = ringlike.cyclic_system(A.host, window=args.window, budget=budget)
    report = ringlike.interval_cover(system, A)
    return ("json", report.to_dict()), report.violations(), None


def _cmd_sweep_ratio(args, budget):
    from . import counterexample

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
    # each shared flag is declared once, in a parent parser that the leaves
    # using it inherit. A leaf's own flags are parents too, so its help lists
    # its flags in the order given, with ``common`` (--out, --budget) last.
    def parent(*names, **options) -> argparse.ArgumentParser:
        flags = argparse.ArgumentParser(add_help=False)
        flags.add_argument(*names, **options)
        return flags

    common = parent("--out", help="write output to this path instead of stdout")
    common.add_argument("--budget", type=int,
                        help=f"BFS vertex budget (default {DEFAULT_BUDGET}; "
                             "env ISO_BUDGET also honored)")
    source = parent("--group", help="group grammar string, e.g. z^2 or cyl:3")
    one_of = source.add_mutually_exclusive_group()
    one_of.add_argument("--set", help="path to a JSON set file")
    one_of.add_argument("--random", type=int, metavar="SIZE",
                        help="grow a random connected set of SIZE vertices")
    source.add_argument("--seed", type=int, default=0,
                        help="PRNG seed for --random (default 0)")
    emit = parent("--emit-set", metavar="PATH",
                  help="also write the resulting set as a JSON set file")
    window = parent("--window", type=int, default=50,
                    help="block window, validated (>= 1) and echoed; q does not depend on it")
    grid = parent("--i", type=int, required=True)
    grid.add_argument("--k", type=int, required=True)
    group = parent("--group", required=True)
    fmt = parent("--format", choices=["csv", "json"], default="csv")

    def leaf(sub, name, handler, description, *parents) -> None:
        p = sub.add_parser(name, help=description, parents=[*parents, common])
        p.set_defaults(handler=handler)

    def branch(name, description):
        p = sub.add_parser(name, help=description)
        return p.add_subparsers(dest="subcommand", required=True)

    parser = _Parser(prog="cayleyiso",
                     description="Isoperimetry on implicit Cayley graphs.")
    sub = parser.add_subparsers(dest="command", required=True)
    leaf(sub, "growth", _cmd_growth, "ball sizes and growth dichotomy branch", group,
         parent("--max-radius", type=int, default=20), fmt)
    leaf(sub, "ball", _cmd_ball, "ball around the identity", group,
         parent("--radius", type=int, required=True), emit)
    for name, handler, description, *parents in [
        ("boundary", _cmd_boundary, "exterior vertex boundary of a set", source, emit),
        ("depth", _cmd_depth, "max distance from a member to the complement", source),
        ("varopoulos", _cmd_varopoulos, "|A| <= 2m|boundary(A)| check", source),
        ("separation", _cmd_separation, "small-set / ring-like classification", source),
    ]:
        leaf(sub, name, handler, description, *parents)

    csub = branch("counterexample", "perforated-grid family operations")
    leaf(csub, "stats", _cmd_counterexample_stats, "exact statistics of A(i,k)", grid, emit)
    leaf(csub, "find", _cmd_counterexample_find, "first diagonal member with ratio < c",
         parent("--c", required=True, help="target ratio, e.g. 0.5 or 1/2"), emit)
    leaf(csub, "torus", _cmd_counterexample_torus,
         "embed A(i,k) into the torus of side 3ki+1", grid, emit)

    rsub = branch("ringlike", "cylinder block-system checks")
    leaf(rsub, "check", _cmd_ringlike_check,
         "block system of a cylinder and its cohesiveness", group, window)
    leaf(rsub, "cover", _cmd_ringlike_cover, "interval cover slack bound for a set",
         source, window)

    ssub = branch("sweep", "parameter sweeps")
    ranges = parent("--imax", type=int)
    ranges.add_argument("--kmax", type=int)
    ranges.add_argument("--diag", help="comma-separated diagonal values, e.g. 4,8,16")
    leaf(ssub, "ratio", _cmd_sweep_ratio, "ratio table over (i,k) parameters", ranges, fmt)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        budget = _resolve_budget(args)
        result, violations, emitted = args.handler(args, budget)
        # rendered whole, and the files written together, so a run that fails
        # leaves no partial output and no set file
        text = _render(result)
        targets = []
        if emitted is not None:
            from .isoperimetry import set_file_text

            targets.append((args.emit_set, set_file_text(emitted)))
        if args.out:
            targets.append((args.out, text))
        _write_all(targets)
        if not args.out:
            sys.stdout.write(text)
    except (ValueError, OSError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if violations:
        for name in violations:
            print(f"claim violated: {name}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
