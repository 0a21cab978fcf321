"""Stable-network toolkit for the hiders' game.

Players join or rewire a network to sit next to high-degree nodes while
keeping their own degree low.  This package computes, verifies,
enumerates, and analyses the pairwise Nash stable states of that game.
"""

from .errors import BudgetExceededError, HidenetError, PreconditionError, ValidationError
from .model import (
    Edge,
    GameSpec,
    Network,
    UtilityVector,
    build_network,
    utility,
)
from .moves import DeviationMove
from .stability import StabilityVerdict, is_k_nash, is_k_strong, is_nash_stable, is_pane
from .fixpoint import (
    OpCounter,
    max_included_pans,
    min_including_k_pans,
    min_including_pans,
)
from .lattice import (
    LatticeSummary,
    enumerate_lattice,
    greatest_pans,
    join_pans,
    least_pans,
    meet_pans,
)
from .analytics import (
    ClosedFormResult,
    EfficiencyReport,
    EqualAlphaStructure,
    MonotonicityReport,
    StrengthReport,
    additive_bound,
    check_equal_alpha,
    check_one_distinct,
    efficiency,
    equal_alpha_efficiency,
    equal_alpha_max_sw,
    greatest_closed_form,
    large_m_check,
    least_closed_form,
    monotonicity_check,
    one_distinct_efficiency,
    strength_equivalences,
)
from .detection import (
    DetectionReport,
    detect_infiltration,
    detect_network,
    predict_equilibrium_shape,
)
from .gamefile import parse_game_file, parse_graph_file, serialize_game, serialize_graph

# The oracle needs numpy, which costs most of the package's import time, so
# it and its names load on first use (PEP 562); commands without it never pay.
_ORACLE_NAMES = (
    "CrossValidationReport",
    "FeasibleGraphSet",
    "cross_validate",
    "enumerate_feasible_graphs",
    "exhaustive_stability",
    "max_social_welfare",
)

__all__ = sorted(
    [name for name in dir() if not name.startswith("_")] + ["oracle", *_ORACLE_NAMES]
)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name != "oracle" and name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    oracle = importlib.import_module(".oracle", __name__)
    return oracle if name == "oracle" else getattr(oracle, name)
