"""The CLI's argparse parser, which ``cli.main`` builds only for help and
usage errors. It takes the command table from its caller: importing ``cli``
would load a second copy of it under ``python -m cayleyiso.cli``."""

from __future__ import annotations

import argparse
import sys


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; this CLI reserves 2 for
    claim violations, so usage errors exit 1, as input errors do."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_commands(parser, dest: str, commands: dict, common: tuple, one_of: tuple) -> None:
    """Add ``commands`` as subcommands of ``parser``, down to every leaf,
    each leaf with its own flags and then ``common``; the flags named in
    ``one_of`` exclude each other."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, spec in commands.items():
        if isinstance(spec[1], dict):
            _add_commands(sub.add_parser(name, help=spec[0]), "subcommand", spec[1],
                          common, one_of)
            continue
        handler, description, *flags = spec
        leaf, exclusive = sub.add_parser(name, help=description), None
        for flag, options in (*flags, *common):
            if flag in one_of:
                exclusive = exclusive or leaf.add_mutually_exclusive_group()
            (exclusive if flag in one_of else leaf).add_argument(flag, **options)
        leaf.set_defaults(handler=handler)


def build_parser(commands: dict, common: tuple, one_of: tuple) -> argparse.ArgumentParser:
    """The parser of every command in ``commands``, the table ``cli._COMMANDS``
    with its ``_COMMON`` flags and its ``_ONE_OF`` pair."""
    parser = _Parser(prog="cayleyiso", description="Isoperimetry on implicit Cayley graphs.")
    _add_commands(parser, "command", commands, common, one_of)
    return parser
