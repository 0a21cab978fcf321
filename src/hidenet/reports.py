"""Machine-readable report rendering.

Every CLI answer has a fixed JSON layout; the text format carries the
same fields line by line.  Rationals travel as exact strings ("3/2",
"4"), infinity as "inf", so nothing is ever rounded on the wire.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .analytics import ClosedFormResult, EfficiencyReport
from .detection import DetectionReport
from .errors import ValidationError
from .lattice import LatticeSummary
from .model import Network, UtilityVector
from .moves import DeviationMove
from .stability import StabilityVerdict

if TYPE_CHECKING:
    from .oracle import CrossValidationReport


def rational_str(value) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        raise ValueError(f"refusing to serialise inexact float {value}")
    frac = Fraction(value)
    try:
        return str(frac.numerator) if frac.denominator == 1 else f"{frac.numerator}/{frac.denominator}"
    except ValueError:  # past the interpreter's limit on int-to-str digits
        size = max(abs(frac.numerator), frac.denominator).bit_length()
        raise ValidationError(
            f"a rational with a {size}-bit numerator or denominator is too long to print"
        ) from None


def network_dict(net: Network) -> dict:
    return {
        "num_players": net.num_players,
        "num_nonplayers": net.num_nonplayers,
        "original_edges": [list(e) for e in sorted(net.original_edges)],
        "edges": [list(e) for e in net.sorted_edges()],
        "sustainers": [[j, l, k] for (j, l), k in sorted(net.sustainers.items())],
    }


def utility_dict(u: UtilityVector) -> dict:
    return {
        "per_player": [rational_str(x) for x in u.per_player],
        "sw": rational_str(u.sw),
    }


def move_dict(move: DeviationMove) -> dict:
    return {
        "coalition": list(move.coalition),
        "deleted_edges": [list(e) for e in sorted(move.deleted_edges)],
        "added_edges": [list(e) for e in sorted(move.added_edges)],
        "deltas": {str(i): rational_str(d) for i, d in sorted(move.deltas.items())},
    }


def verdict_dict(verdict: StabilityVerdict) -> dict:
    out = {
        "stable": verdict.stable,
        "class": verdict.class_checked,
        "k": verdict.strength,
        "condition": verdict.condition,
        "witness": move_dict(verdict.witness) if verdict.witness else None,
    }
    return out


def efficiency_dict(report: EfficiencyReport) -> dict:
    return {
        "k": report.strength,
        "max_sw": rational_str(report.max_sw),
        "min_eq_sw": rational_str(report.min_eq_sw),
        "max_eq_sw": rational_str(report.max_eq_sw),
        "poa": rational_str(report.poa),
        "pos": rational_str(report.pos),
        "additive_bound": rational_str(report.additive_bound),
        "max_sw_witness": network_dict(report.max_sw_witness)
        if report.max_sw_witness
        else None,
    }


def closed_form_dict(result: ClosedFormResult) -> dict:
    return {
        "threshold_index": result.threshold_index,
        "clique_members": sorted(result.clique_members),
        "welfare": rational_str(result.welfare),
        "predicted": network_dict(result.predicted),
    }


def lattice_dict(summary: LatticeSummary) -> dict:
    return {
        "k": summary.strength,
        "count": len(summary.elements),
        "least": network_dict(summary.least),
        "greatest": network_dict(summary.greatest),
        "elements": [network_dict(n) for n in summary.elements],
        "hasse_edges": [list(e) for e in summary.hasse_edges],
    }


def detection_dict(report: DetectionReport) -> dict:
    prior = report.prior_probability
    return {
        "matches_signature": report.matches_signature,
        "clique": sorted(report.clique),
        "isolated": sorted(report.isolated),
        "other": sorted(report.other),
        "prior_probability": rational_str(prior)
        if isinstance(prior, (Fraction, int))
        else repr(prior),
        "suspected_players": sorted(report.suspected_players),
        "slack": report.tolerance_used,
        "edits_needed": report.edits_needed,
    }


def cross_validation_dict(report: CrossValidationReport) -> dict:
    return {
        "num_feasible": report.num_feasible,
        "pans_counts": {str(k): v for k, v in sorted(report.pans_counts.items())},
        "clean": report.clean,
        "disagreements": [
            {
                "kind": d.kind,
                "k": d.strength,
                "edges": [list(e) for e in d.edges],
                "fast": d.fast_verdict,
                "oracle": d.oracle_verdict,
            }
            for d in report.disagreements
        ],
        "algorithm_failures": list(report.algorithm_failures),
    }


def to_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def to_text(payload: dict, indent: int = 0) -> str:
    """Flat key/value rendering of the same payload."""
    lines = []
    pad = "  " * indent
    for key, value in payload.items():
        if isinstance(value, dict) and value:
            lines.append(f"{pad}{key}:")
            lines.append(to_text(value, indent + 1).rstrip("\n"))
        elif isinstance(value, (dict, list)):
            lines.append(f"{pad}{key}: {json.dumps(value)}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines) + "\n"
