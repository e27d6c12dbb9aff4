"""Command-line interface: ``python -m repro <command>``.

:data:`COMMANDS` is the one table of commands; ``repro --help`` prints
it.  Each row is declared with ``@command`` on its handler, in the
module of the subsystem it drives, and each handler imports that
subsystem only when it runs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import checking, durability, model, service, simulator
from .common import Command

COMMANDS = (
    model.classify,
    model.examples,
    model.census,
    model.admission,
    simulator.showdown,
    simulator.trace,
    model.dot,
    service.serve,
    service.top,
    service.promote,
    durability.recover,
    service.loadgen,
    checking.fuzz,
    Command(
        "sim",
        "multi-node discrete-event cluster simulator "
        "(exit 0 = all checks pass, 1 = violation, 2 = usage error)",
        commands=(checking.sim_list, checking.sim_run, checking.sim_sweep),
    ),
)


def _version() -> str:
    """The installed distribution's version, or the source tree's."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        from .. import __version__

        return __version__


class _VersionAction(argparse.Action):
    """``--version``: looks the version up only when it is asked for
    (``importlib.metadata`` costs every other command its import)."""

    def __init__(self, option_strings: Sequence[str], dest: str) -> None:
        super().__init__(
            option_strings,
            dest=argparse.SUPPRESS,
            default=argparse.SUPPRESS,
            nargs=0,
            help="show program's version number and exit",
        )

    def __call__(self, parser, namespace, values, option_string=None):
        print(f"{parser.prog} {_version()}")
        parser.exit()


def _add_commands(
    parser: argparse.ArgumentParser,
    commands: Sequence[Command],
    dest: str,
    required: bool,
) -> None:
    sub = parser.add_subparsers(dest=dest, required=required)
    for command in commands:
        child = sub.add_parser(command.name, help=command.help)
        for flags, options in command.args:
            child.add_argument(*flags, **options)
        if command.handler is not None:
            child.set_defaults(func=command.handler)
        if command.commands:
            _add_commands(
                child,
                command.commands,
                f"{command.name}_command",
                required=command.handler is None,
            )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Korth & Speegle (SIGMOD 1988), 'Formal Model of "
            "Correctness Without Serializability' — reproduction tools"
        ),
    )
    parser.add_argument("--version", action=_VersionAction)
    _add_commands(parser, COMMANDS, "command", required=True)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that exited early.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
