"""repro — *Formal Model of Correctness Without Serializability*.

A complete, executable reproduction of Korth & Speegle (SIGMOD 1988):
the formal model (versions, nested transactions, pre/postconditions),
the correctness-class lattice of Section 4 with membership testers and
the paper's worked examples, the Section-5 concurrency-control protocol
as a runnable transaction manager, classical baselines, and a
discrete-event simulator for long-duration workloads.

Quickstart::

    from repro.schedules import Schedule
    from repro.classes import classify, figure2_region

    schedule = Schedule.parse("r1(x) w1(x) r2(x) r2(y) w2(y) r1(y) w1(y)")
    membership = classify(schedule, [{"x"}, {"y"}])
    print(membership)                 # MVSR but not SR, PWSR, ...
    print(figure2_region(membership)) # 4

See ``examples/`` for protocol-level walkthroughs and ``benchmarks/``
for the experiment suite (DESIGN.md maps experiments to modules).
"""

from importlib import import_module

from .errors import ReproError

__version__ = "1.0.0"

# The subpackages load on first attribute access (PEP 562), so
# importing one part of ``repro`` (the serving stack behind ``repro
# serve``) does not load the Section-4 model with it.
# ``repro.baselines`` and ``repro.sim`` are imported where used.
__all__ = [
    "ReproError",
    "__version__",
    "analysis",
    "classes",
    "core",
    "protocol",
    "sat",
    "schedules",
    "storage",
]


def __getattr__(name: str):
    if name in __all__:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
