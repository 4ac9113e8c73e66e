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
import os
import stat
import sys

from ._budget import DEFAULT_BUDGET, BudgetExceeded

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2

class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; this CLI reserves 2 for
    claim violations, so usage errors are remapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _exact(obj):
    """``obj``, or "p/q" for a Fraction; floats are rejected outright so no
    inexact number can reach persisted output. Until some module imports
    ``fractions``, no value can be a Fraction, so this does not import it."""
    if isinstance(obj, float):
        raise TypeError(f"refusing to serialize a float: {obj!r}")
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(obj, fractions.Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    return obj


def _json_text(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` of a payload of ints, bools, None,
    strings, rationals (``_exact``), lists, tuples and dicts (keys as
    ``str(key)``), without loading ``json`` unless a string needs escaping."""
    obj = _exact(obj)
    if isinstance(obj, str):
        if obj.isascii() and obj.isprintable() and '"' not in obj and "\\" not in obj:
            return f'"{obj}"'
        import json

        return json.dumps(obj)
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        items = [f"{_json_text(str(k))}: {_json_text(v, inner)}" for k, v in obj.items()]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        items, brackets = [_json_text(x, inner) for x in obj], "[]"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} value {obj!r}")
    inside = f",{inner}".join(items)
    return f"{brackets[0]}{inner}{inside}{indent}{brackets[1]}" if items else brackets


def _render(result: tuple) -> str:
    """The whole text of a handler's ``("json", payload)`` or
    ``("csv", header, rows)`` result, before any of it is written. A CSV
    cell is an int, a "p/q" or a header name, so none needs quoting."""
    if result[0] == "json":
        return _json_text(result[1]) + "\n"
    rows = [result[1], *result[2]]
    return "".join(",".join(str(_exact(cell)) for cell in row) + "\n" for row in rows)


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
    from .groups import parse_group

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
    from .groups import classify_growth, parse_group

    g = parse_group(args.group)
    report = classify_growth(g, args.max_radius, budget=budget)
    if args.format == "csv":
        rows = list(enumerate(report.ball_sizes))
        return ("csv", ["r", "ballSize"], rows), [], None
    return ("json", report.to_dict()), [], None


def _cmd_ball(args, budget):
    from .groups import _ball_keys, parse_group

    g = parse_group(args.group)
    keys = _ball_keys(g, g.identity(), args.radius, budget)
    payload = {"group": g.family, "radius": args.radius, "size": len(keys)}
    if not args.emit_set:
        return ("json", payload), [], None
    from .isoperimetry import VertexSet

    return ("json", payload), [], VertexSet._trusted(g, keys)


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
    from .groups import parse_group

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
        # stats would refuse the largest member's patch only after every
        # smaller member ran, so refuse the range before the first
        if args.imax >= 2 and args.kmax >= 2:
            counterexample._patch(counterexample.GridParams(args.imax, args.kmax), budget)
        pairs = ((i, k) for i in range(2, args.imax + 1) for k in range(2, args.kmax + 1))
    else:
        raise ValueError("provide --imax and --kmax, or --diag LIST")
    rows = []
    violations = []
    for i, k in pairs:
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


def _flag(*names, **options):
    """A flag, as a function that adds it to the parser of a leaf taking it."""
    return lambda parser: parser.add_argument(*names, **options)


def _source(parser) -> None:
    """The flags that give a command its set: --set PATH, or --random SIZE on --group."""
    parser.add_argument("--group", help="group grammar string, e.g. z^2 or cyl:3")
    one_of = parser.add_mutually_exclusive_group()
    one_of.add_argument("--set", help="path to a JSON set file")
    one_of.add_argument("--random", type=int, metavar="SIZE",
                        help="grow a random connected set of SIZE vertices")
    parser.add_argument("--seed", type=int, default=0,
                        help="PRNG seed for --random (default 0)")


# every leaf takes these, after its own flags
_COMMON = (_flag("--out", help="write output to this path instead of stdout"),
           _flag("--budget", type=int, help=f"BFS vertex budget (default {DEFAULT_BUDGET}; "
                                            "env ISO_BUDGET also honored)"))
_GROUP = _flag("--group", required=True)
_EMIT = _flag("--emit-set", metavar="PATH",
              help="also write the resulting set as a JSON set file")
_WINDOW = _flag("--window", type=int, default=50,
                help="block window, validated (>= 1) and echoed; q does not depend on it")
_GRID = (_flag("--i", type=int, required=True), _flag("--k", type=int, required=True))
_FORMAT = _flag("--format", choices=["csv", "json"], default="csv")

# the command tree, in help order: a leaf is (handler, help, its flags in
# help order), a branch is (help, {name: leaf})
_COMMANDS = {
    "growth": (_cmd_growth, "ball sizes and growth dichotomy branch", _GROUP,
               _flag("--max-radius", type=int, default=20), _FORMAT),
    "ball": (_cmd_ball, "ball around the identity", _GROUP,
             _flag("--radius", type=int, required=True), _EMIT),
    "boundary": (_cmd_boundary, "exterior vertex boundary of a set", _source, _EMIT),
    "depth": (_cmd_depth, "max distance from a member to the complement", _source),
    "varopoulos": (_cmd_varopoulos, "|A| <= 2m|boundary(A)| check", _source),
    "separation": (_cmd_separation, "small-set / ring-like classification", _source),
    "counterexample": ("perforated-grid family operations", {
        "stats": (_cmd_counterexample_stats, "exact statistics of A(i,k)", *_GRID, _EMIT),
        "find": (_cmd_counterexample_find, "first diagonal member with ratio < c",
                 _flag("--c", required=True, help="target ratio, e.g. 0.5 or 1/2"), _EMIT),
        "torus": (_cmd_counterexample_torus, "embed A(i,k) into the torus of side 3ki+1",
                  *_GRID, _EMIT),
    }),
    "ringlike": ("cylinder block-system checks", {
        "check": (_cmd_ringlike_check, "block system of a cylinder and its cohesiveness",
                  _GROUP, _WINDOW),
        "cover": (_cmd_ringlike_cover, "interval cover slack bound for a set",
                  _source, _WINDOW),
    }),
    "sweep": ("parameter sweeps", {
        "ratio": (_cmd_sweep_ratio, "ratio table over (i,k) parameters",
                  _flag("--imax", type=int), _flag("--kmax", type=int),
                  _flag("--diag", help="comma-separated diagonal values, e.g. 4,8,16"),
                  _FORMAT),
    }),
}


def _leaf_path(argv) -> tuple:
    """The names of the leaf command that the first words of ``argv`` name,
    e.g. ``("counterexample", "stats")``; empty when they name none."""
    commands, words = _COMMANDS, tuple(argv or ())[:2]
    for n, word in enumerate(words):
        spec = commands.get(word)
        if spec is None:
            return ()
        if not isinstance(spec[1], dict):
            return words[:n + 1]
        commands = spec[1]
    return ()


def _add_commands(parser, dest: str, commands: dict, path: tuple) -> None:
    """Add ``commands`` as subcommands of ``parser``: all of them, or with a
    ``path``, only the one it names, down to its leaf. The usage still lists
    every name."""
    listing = "{" + ",".join(commands) + "}" if path else None
    sub = parser.add_subparsers(dest=dest, required=True, metavar=listing)
    for name, spec in commands.items():
        if path and name != path[0]:
            continue
        if isinstance(spec[1], dict):
            _add_commands(sub.add_parser(name, help=spec[0]), "subcommand", spec[1], path[1:])
            continue
        handler, description, *flags = spec
        leaf = sub.add_parser(name, help=description)
        for add in (*flags, *_COMMON):
            add(leaf)
        leaf.set_defaults(handler=handler)


def build_parser(argv=None) -> _Parser:
    """The parser of every command or, when the first words of ``argv`` name
    a leaf command (``growth``, ``counterexample stats``), of that leaf
    alone, with the same flags, help and usage. ``argv`` missing, starting
    with an option or naming no leaf selects every command, so help and
    usage errors read as from the whole tree."""
    parser = _Parser(prog="cayleyiso",
                     description="Isoperimetry on implicit Cayley graphs.")
    _add_commands(parser, "command", _COMMANDS, _leaf_path(argv))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
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
