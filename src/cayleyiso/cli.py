"""Command-line front end.

Subcommands: growth, ball, boundary, depth, varopoulos, separation,
counterexample {stats|find|torus}, ringlike {check|cover}, sweep ratio.

Exit codes: 0 when every asserted claim holds, 2 when a checked mathematical
claim fails (the report is still emitted), 1 for usage, input, and resource
errors. JSON output carries numbers only as exact integers or rational
strings "p/q"; CSV is available for growth tables and parameter sweeps. The
ISO_BUDGET environment variable overrides the BFS vertex budget; the
--budget flag overrides both. Whichever applies must be a positive integer.

This module holds only what every command runs: the command tree, its
reader, the budget and the renderer. A leaf of the tree names its
handler's module and function, and a command loads that one module:
``_cli_sets`` for the commands on a vertex set, ``_cli_hosts`` for those on
a host alone and ``_cli_grid`` for the perforated family. A well-formed
command line is read off the tree without loading argparse; ``_cli_parser``
builds argparse for the whole tree to write help and usage errors, and
``_cli_write`` writes --out and --emit-set files.
"""

from __future__ import annotations

import os
import sys
from importlib import import_module
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

# the command tree, in help order: a leaf is ((handler module, handler
# function), help, its flags in help order), a branch is (help, {name: leaf}).
# A handler takes (args, budget) and returns (result, violations, set or None)
_COMMANDS = {
    "growth": (("_cli_hosts", "_cmd_growth"), "ball sizes and growth dichotomy branch",
               _GROUP, _flag("--max-radius", type=int, default=20), _FORMAT),
    "ball": (("_cli_hosts", "_cmd_ball"), "ball around the identity", _GROUP,
             _flag("--radius", type=int, required=True), _EMIT),
    "boundary": (("_cli_sets", "_cmd_boundary"), "exterior vertex boundary of a set",
                 *_SOURCE, _EMIT),
    "depth": (("_cli_sets", "_cmd_depth"), "max distance from a member to the complement",
              *_SOURCE),
    "varopoulos": (("_cli_sets", "_cmd_varopoulos"), "|A| <= 2m|boundary(A)| check",
                   *_SOURCE),
    "separation": (("_cli_sets", "_cmd_separation"), "small-set / ring-like classification",
                   *_SOURCE),
    "counterexample": ("perforated-grid family operations", {
        "stats": (("_cli_grid", "_cmd_counterexample_stats"), "exact statistics of A(i,k)",
                  *_GRID, _EMIT),
        "find": (("_cli_grid", "_cmd_counterexample_find"),
                 "first diagonal member with ratio < c",
                 _flag("--c", required=True, help="target ratio, e.g. 0.5 or 1/2"), _EMIT),
        "torus": (("_cli_grid", "_cmd_counterexample_torus"),
                  "embed A(i,k) into the torus of side 3ki+1", *_GRID, _EMIT),
    }),
    "ringlike": ("cylinder block-system checks", {
        "check": (("_cli_hosts", "_cmd_ringlike_check"),
                  "block system of a cylinder and its cohesiveness", _GROUP, _WINDOW),
        "cover": (("_cli_sets", "_cmd_ringlike_cover"), "interval cover slack bound for a set",
                  *_SOURCE, _WINDOW),
    }),
    "sweep": ("parameter sweeps", {
        "ratio": (("_cli_grid", "_cmd_sweep_ratio"), "ratio table over (i,k) parameters",
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
    """The namespace argparse, built for this tree by ``_cli_parser``,
    returns for ``argv``, read without it where ``argv`` is a leaf's words,
    then each of its flags at most once, spelled whole, with a value not
    starting with "-"; None for anything else (help, "--", "--flag=value",
    a bad int or choice, a missing required flag, --set with --random, a
    stray word), so that argparse alone writes help and usage errors."""
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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _fast_args(argv)
    if args is None:
        from ._cli_parser import build_parser

        args = build_parser(_COMMANDS, _COMMON, _ONE_OF).parse_args(argv)
    try:
        budget = _resolve_budget(args)
        module, name = args.handler
        handler = getattr(import_module(f".{module}", __package__), name)
        result, violations, emitted = handler(args, budget)
        # rendered whole, and the files written together, so a run that fails
        # leaves no partial output and no set file
        text = _render(result)
        targets = []
        if emitted is not None:
            from .isoperimetry import set_file_text

            targets.append((args.emit_set, set_file_text(emitted)))
        if args.out:
            targets.append((args.out, text))
        if targets:
            from ._cli_write import _write_all

            _write_all(targets)
        if not args.out:
            sys.stdout.write(text)
    except (ValueError, OSError, BudgetExceeded, MemoryError) as exc:
        # a MemoryError's text is often empty
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_ERROR
    if violations:
        for name in violations:
            print(f"claim violated: {name}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
