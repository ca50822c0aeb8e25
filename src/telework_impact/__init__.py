"""Energy accounting for co-working days versus employer-office and
home-office days: diary validation, day-type profiles, per-coworker-day
energy allocation, and break-even scenario analysis.

The root exports the names the README and ``demos/`` use; every other name
imports from its module (``telework_impact.errors``, ``.model``, ...). The
names of :mod:`.diary` and :mod:`.quality` import their module on first use,
so that importing the package loads neither."""

from importlib import import_module

from .aggregation import aggregate_profiles
from .config import load_config
from .energy import compare_day_types, direct_components, equipment_energy, travel_energy
from .model import Activity, DayType, TransportMode
from .scenario import Scenario, break_even, evaluate_scenario, sweep, weekly_net_mj

__version__ = "0.1.0"

__all__ = [
    "Activity",
    "DayType",
    "Scenario",
    "TransportMode",
    "aggregate_profiles",
    "apply_quality_filter",
    "break_even",
    "compare_day_types",
    "direct_components",
    "equipment_energy",
    "evaluate_scenario",
    "load_config",
    "parse_diary_file",
    "parse_diary_path",
    "sweep",
    "travel_energy",
    "weekly_net_mj",
    "__version__",
]

_LAZY = {"parse_diary_file": ".diary", "parse_diary_path": ".diary", "apply_quality_filter": ".quality"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_LAZY[name], __name__), name)


def __dir__():
    return sorted({*globals(), *_LAZY})
