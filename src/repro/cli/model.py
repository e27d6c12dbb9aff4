"""The Section-4 model: classify schedules, the worked examples, the
Figure-2 census, the admission ladder and precedence-graph export."""

from __future__ import annotations

import argparse

from .common import arg, command, positive_int


def _parse_objects(text: str | None, schedule) -> list[set[str]]:
    """Parse ``"x,y;z"`` into conjunct objects; default = one conjunct."""
    if not text:
        return [set(schedule.entities)]
    groups = []
    for chunk in text.split(";"):
        names = {name.strip() for name in chunk.split(",") if name.strip()}
        if names:
            groups.append(names)
    return groups or [set(schedule.entities)]


@command(
    "classify",
    "classify a schedule into the Section-4 classes",
    arg("schedule", help='e.g. "r1(x) w1(x) r2(x) r2(y) w2(y)"'),
    arg("--objects",
        help='conjunct objects, e.g. "x;y" or "x,y;z" (default: one '
        "conjunct)"),
)
def classify(args: argparse.Namespace) -> int:
    from ..analysis import text_table
    from ..classes import REGION_LABELS, figure2_region
    from ..classes import classify as classify_schedule
    from ..schedules import Schedule

    schedule = Schedule.parse(args.schedule)
    objects = _parse_objects(args.objects, schedule)
    membership = classify_schedule(schedule, objects)
    region = figure2_region(membership)
    print(f"schedule:  {schedule}")
    print(f"objects:   {[sorted(group) for group in objects]}")
    rows = [
        {"class": name, "member": "yes" if member else "no"}
        for name, member in membership.as_dict().items()
    ]
    print(text_table(rows))
    print(f"Figure-2 region: {region} ({REGION_LABELS[region]})")
    return 0


@command("examples", "verify the paper's worked examples")
def examples(args: argparse.Namespace) -> int:
    from ..analysis import text_table
    from ..classes import ALL_EXAMPLES

    rows = []
    failures = 0
    for example in ALL_EXAMPLES:
        bad = example.check()
        failures += len(bad)
        rows.append(
            {
                "example": example.name,
                "region": example.region(),
                "status": "OK" if not bad else "; ".join(bad),
            }
        )
    print(text_table(rows))
    return 1 if failures else 0


@command(
    "census",
    "the Figure-2 census",
    arg("--random", type=int, default=0,
        help="classify N random schedules instead of the exhaustive census"),
    arg("--transactions", type=int, default=3),
    arg("--ops", type=int, default=3),
    arg("--seed", type=int, default=0),
    arg("--jobs", type=positive_int, default=1,
        help="stripe the exhaustive census over N worker processes (must be "
        ">= 1)"),
    arg("--limit", type=int, default=None,
        help="cap the number of interleavings examined"),
    arg("--exact", action="store_true",
        help="run every class tester on every schedule (disable the staged "
        "fast path)"),
)
def census(args: argparse.Namespace) -> int:
    from ..analysis import (
        census_of_programs,
        census_of_random_schedules,
        example1_programs,
        region_report,
    )

    if args.random:
        result = census_of_random_schedules(
            args.random,
            num_transactions=args.transactions,
            ops_per_transaction=args.ops,
            entities=("x", "y"),
            objects=[{"x"}, {"y"}],
            seed=args.seed,
            exact=args.exact,
        )
        print(
            f"random census: {result.total} schedules "
            f"({args.transactions} txns x {args.ops} ops)"
        )
    else:
        result = census_of_programs(
            example1_programs(),
            [{"x"}, {"y"}],
            limit=args.limit,
            exact=args.exact,
            jobs=args.jobs,
        )
        mode = "exact" if args.exact else "fast"
        workers = f", {args.jobs} jobs" if args.jobs > 1 else ""
        print(
            f"exhaustive census of Example 1's programs "
            f"({mode} classifier{workers})"
        )
    print(region_report(result.by_region))
    print(f"containment violations: {result.containment_failures}")
    if not args.random:
        print(
            f"classification cache hits: {result.cache_hits}"
            f"/{result.total}"
        )
    print("strict gains:")
    for label, gain in result.strict_gains().items():
        print(f"  {label:14s} {gain}")
    return 1 if result.containment_failures else 0


@command("admission", "the admitted-interleavings ladder (D1)")
def admission(args: argparse.Namespace) -> int:
    from ..analysis import admission_report, example1_programs, text_table

    result = admission_report(example1_programs(), [{"x"}, {"y"}])
    print(
        f"admitted interleavings per criterion "
        f"({result.total} interleavings of Example 1's programs)"
    )
    print(text_table(result.rows()))
    return 0


@command(
    "dot",
    "export precedence graphs as Graphviz DOT",
    arg("schedule"),
    arg("--graph", choices=("conflict", "mv", "cpc"), default="conflict"),
    arg("--objects"),
)
def dot(args: argparse.Namespace) -> int:
    from ..classes.export import (
        conflict_graph_dot,
        cpc_graphs_dot,
        mv_conflict_graph_dot,
    )
    from ..schedules import Schedule

    schedule = Schedule.parse(args.schedule)
    if args.graph == "conflict":
        print(conflict_graph_dot(schedule))
    elif args.graph == "mv":
        print(mv_conflict_graph_dot(schedule))
    else:
        objects = _parse_objects(args.objects, schedule)
        print(cpc_graphs_dot(schedule, objects))
    return 0
