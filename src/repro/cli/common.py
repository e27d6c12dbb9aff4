"""What every command module shares: the table row, argparse types,
the two argument groups, and the JSON report writer.

Nothing here imports a subsystem, so building the parser stays cheap.
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Callable, NamedTuple


class Command(NamedTuple):
    """One row of the command table: a (sub-)command of ``repro``."""

    name: str
    help: str
    args: tuple = ()
    handler: Callable[[argparse.Namespace], int] | None = None
    #: Sub-commands; required when the command has no handler itself.
    commands: tuple["Command", ...] = ()


def command(name: str, help: str, *args: tuple, commands: tuple = ()):
    """Declare the decorated handler as the table row ``name``."""
    return lambda handler: Command(name, help, args, handler, commands)


def arg(*flags: str, **options: Any) -> tuple[tuple[str, ...], dict[str, Any]]:
    """One ``add_argument`` call, as data for the command table."""
    return flags, options


def positive_int(text: str) -> int:
    """argparse type for options that must be an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def write_json(path: str, doc: Any) -> None:
    """Write a report the way every command does: sorted, indented."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def host_port(**port_options: Any) -> tuple:
    """``--host``/``--port`` of a server (serve binds, top/loadgen dial)."""
    return (
        arg("--host", default="127.0.0.1"),
        arg("--port", type=int, default=7455, **port_options),
    )


#: The workload ``serve`` builds its schema from and ``loadgen`` replays;
#: the two sides must agree on every value.
WORKLOAD = (
    arg("--workload", choices=("cad", "oltp"), default="cad",
        help="workload whose schema and scripts to use (serve and loadgen "
        "must match)"),
    arg("--transactions", type=positive_int, default=16),
    arg("--seed", type=int, default=0),
    arg("--key-dist", choices=("uniform", "zipf"), default="uniform",
        help="entity-access distribution (uniform keeps the historical "
        "stream; zipf skews contention onto hot entities; serve and loadgen "
        "must match)"),
)
