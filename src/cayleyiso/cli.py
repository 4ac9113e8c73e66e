"""Command-line front end.

Subcommands: growth, ball, boundary, depth, varopoulos, separation,
counterexample {stats|find|torus}, ringlike {check|cover}, sweep ratio.

Exit codes: 0 when every asserted claim holds, 2 when a checked mathematical
claim fails (the report is still emitted), 1 for usage, input, and resource
errors. JSON output carries numbers only as exact integers or rational
strings "p/q"; CSV is available for growth tables and parameter sweeps. The
ISO_BUDGET environment variable overrides the BFS vertex budget; the
--budget flag overrides both. Whichever applies must be a positive integer.

A well-formed command line is read off the command tree without loading
argparse; argparse, built for the whole tree, writes help and usage errors.
"""

from __future__ import annotations

import os
import stat
import sys
from types import SimpleNamespace

from ._budget import DEFAULT_BUDGET, BudgetExceeded

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2

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


def _flag(name, **options):
    """A flag, as its name and the options that ``add_argument`` takes."""
    return name, options


# the flags that give a command its set: --set PATH, or --random SIZE on --group
_SOURCE = (_flag("--group", help="group grammar string, e.g. z^2 or cyl:3"),
           _flag("--set", help="path to a JSON set file"),
           _flag("--random", type=int, metavar="SIZE",
                 help="grow a random connected set of SIZE vertices"),
           _flag("--seed", type=int, default=0, help="PRNG seed for --random (default 0)"))
_ONE_OF = ("--set", "--random")  # mutually exclusive

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
    "boundary": (_cmd_boundary, "exterior vertex boundary of a set", *_SOURCE, _EMIT),
    "depth": (_cmd_depth, "max distance from a member to the complement", *_SOURCE),
    "varopoulos": (_cmd_varopoulos, "|A| <= 2m|boundary(A)| check", *_SOURCE),
    "separation": (_cmd_separation, "small-set / ring-like classification", *_SOURCE),
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
                  *_SOURCE, _WINDOW),
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
    e.g. ``("counterexample", "stats")``, and the leaf; ``((), None)`` when
    they name none."""
    commands, words = _COMMANDS, tuple(argv)[:2]
    for n, word in enumerate(words):
        spec = commands.get(word)
        if spec is None:
            break
        if not isinstance(spec[1], dict):
            return words[:n + 1], spec
        commands = spec[1]
    return (), None


def _fast_args(argv):
    """The namespace that ``build_parser().parse_args(argv)`` returns, read
    without argparse where ``argv`` is a leaf's words, then each of its flags
    at most once, spelled whole and followed by a value that does not start
    with "-". None for anything else (help, "--", "--flag=value", a bad int
    or choice, a missing required flag, --set with --random, a stray word),
    so that argparse alone writes help and usage errors."""
    path, spec = _leaf_path(argv)
    if spec is None:
        return None
    handler, _, *flags = spec
    flags = dict((*flags, *_COMMON))
    given, words = {}, iter(argv[len(path):])
    for word in words:
        options, value = flags.get(word), next(words, "-")  # "-": no value left
        # choices are tested on the string: no flag with choices has a type
        if (options is None or word in given or value.startswith("-")
                or value not in options.get("choices", [value])):
            return None
        try:
            given[word] = options.get("type", str)(value)
        except ValueError:
            return None
    if all(name in given for name in _ONE_OF) or any(
            options.get("required") and name not in given for name, options in flags.items()):
        return None
    args = dict(zip(("command", "subcommand"), path), handler=handler)
    for name, options in flags.items():
        args[name[2:].replace("-", "_")] = given.get(name, options.get("default"))
    return SimpleNamespace(**args)


def _add_commands(parser, dest: str, commands: dict) -> None:
    """Add ``commands`` as subcommands of ``parser``, down to every leaf."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, spec in commands.items():
        if isinstance(spec[1], dict):
            _add_commands(sub.add_parser(name, help=spec[0]), "subcommand", spec[1])
            continue
        handler, description, *flags = spec
        leaf, one_of = sub.add_parser(name, help=description), None
        for flag, options in (*flags, *_COMMON):
            if flag in _ONE_OF:
                one_of = one_of or leaf.add_mutually_exclusive_group()
            (one_of if flag in _ONE_OF else leaf).add_argument(flag, **options)
        leaf.set_defaults(handler=handler)


def build_parser():
    """The argparse parser of every command, which ``main`` builds only for
    a command line that ``_fast_args`` does not read."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse exits with code 2 on usage errors; this CLI reserves 2 for
        claim violations, so usage errors are remapped to exit code 1."""

        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")

    parser = _Parser(prog="cayleyiso",
                     description="Isoperimetry on implicit Cayley graphs.")
    _add_commands(parser, "command", _COMMANDS)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _fast_args(argv) or build_parser().parse_args(argv)
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
