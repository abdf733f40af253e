"""Materialization budgets.

Symbolic formulas work at any size; anything that enumerates a field,
builds a graph or runs an exhaustive check is capped.
Every cap is resolved by ``budget``: an explicit value first (0 refuses
every size), then ``GPG_MAX_ORDER`` from the environment, then the default
of its kind. The environment may raise or lower the ``table`` and
``graph`` caps, but only lower the others: exhaustive checks grow much
faster than the graphs they run on. ``require`` is the one place that
refuses a size.
"""

import os

from .arith import require_int
from .errors import BudgetExceeded

DEFAULTS = {
    "table": 2**22,  # log/exp/Zech tables
    # built graphs: connection sets, the adjacency built from them in row
    # blocks when read, and the Waring witnesses
    "graph": 2**13,
    # Kirchhoff tree counts; the cap stays only because bench/checks.py's
    # expected_check_names pins trees-* to 512 vertices or fewer, so
    # deleting it is a change to the benchmark
    "tree": 512,
    "coset": 1024,  # coset decomposition of the complement's edges
    "arc": 256,  # affine witnesses for every arc
}

_RAISABLE = ("table", "graph")


def budget(kind: str, explicit: int | None = None) -> int:
    """The size limit of ``kind`` (a key of ``DEFAULTS``). An explicit
    value or a ``GPG_MAX_ORDER`` that is not an integer, or is negative,
    raises ValueError."""
    default = DEFAULTS[kind]
    if explicit is not None:
        require_int(explicit, f"the {kind} budget")
        if explicit < 0:
            raise ValueError(f"the {kind} budget must be 0 or more, not {explicit}")
        return explicit
    raw = os.environ.get("GPG_MAX_ORDER")
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"GPG_MAX_ORDER={raw!r} is not an integer") from None
    if value < 0:
        raise ValueError(f"GPG_MAX_ORDER={raw!r} is negative")
    return value if kind in _RAISABLE else min(value, default)


def require(kind: str, size: int, explicit: int | None = None) -> None:
    """Refuse ``size`` above the ``kind`` budget with BudgetExceeded."""
    limit = budget(kind, explicit)
    if size > limit:
        raise BudgetExceeded(f"{size} exceeds the {kind} budget {limit}")
