"""Infiltration diagnostics for an outside observer.

Hiding players steering a network into its most profitable stable state
leave a recognisable footprint: one clique plus isolated nodes.  Natural
graphs rarely look like that; under a scale-free prior, a clique on x
nodes appears with probability about 1/x^beta for beta between 2 and 3.
The detector tests whether an observed plain graph is within a few edge
edits of the footprint, scores the clique's natural-occurrence prior, and
flags the disconnected nodes as the suspected hiders (the clique itself
says nothing about who is hiding).  A non-matching graph does not certify
absence of infiltration; the test is one-sided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

from .analytics import greatest_closed_form
from .errors import ValidationError
from .model import GameSpec, Network, edge_set

DEFAULT_BETA = Fraction(5, 2)

Prior = Union[Fraction, float]


@dataclass(frozen=True)
class DetectionReport:
    matches_signature: bool
    clique: frozenset[int]
    isolated: frozenset[int]
    other: frozenset[int]
    prior_probability: Prior
    suspected_players: frozenset[int]
    tolerance_used: int
    edits_needed: int


def _integer_root(n: int, d: int) -> int:
    """floor(n^(1/d)) for n >= 1, in integers only (Newton's step from above)."""
    if d == 2:
        return math.isqrt(n)
    if d >= n.bit_length():  # n < 2^d
        return 1
    x = 1 << -(-n.bit_length() // d)  # 2^ceil(bits/d) > n^(1/d)
    while True:
        y = ((d - 1) * x + n // x ** (d - 1)) // d
        if y >= x:
            return x
        x = y


def _clique_prior(size: int, beta: Fraction) -> Prior:
    """1 / size^beta, exact when size is a perfect power matching beta's
    denominator, float otherwise (0.0 once it underflows)."""
    if size <= 1:
        return Fraction(1)
    root = _integer_root(size, beta.denominator)
    if root**beta.denominator == size:
        return Fraction(1, root**beta.numerator)
    try:
        return 1.0 / math.pow(size, float(beta))
    except OverflowError:
        return math.exp(-float(beta) * math.log(size))


def detect_infiltration(
    num_nodes: int,
    edges: Iterable,
    beta: Fraction = DEFAULT_BETA,
    slack: int = 0,
) -> DetectionReport:
    """Test a plain graph (no player labels) for the clique-plus-isolated
    footprint within ``slack`` edge edits.

    Clique candidates are degree-greedy prefixes: nodes sorted by degree
    (descending, then label), each prefix scored by the insertions needed
    to complete it plus the deletions to isolate the rest.
    """
    beta = Fraction(beta)
    if not 2 < beta < 3:
        raise ValidationError("beta must lie strictly between 2 and 3")
    if slack < 0:
        raise ValidationError("slack must be non-negative")
    if num_nodes < 1:
        raise ValidationError(f"a plain graph needs at least one node, got {num_nodes}")
    es = edge_set(edges)
    for a, b in es:
        if not 1 <= a <= num_nodes or not 1 <= b <= num_nodes:
            raise ValidationError(f"edge ({a}, {b}) references unknown nodes")
    deg = {v: 0 for v in range(1, num_nodes + 1)}
    for a, b in es:
        deg[a] += 1
        deg[b] += 1
    order = sorted(deg, key=lambda v: (-deg[v], v))
    best: Optional[tuple[int, int]] = None  # (edits, -size)
    best_prefix = 0
    for x in range(1, num_nodes + 1):
        members = set(order[:x])
        inside = sum(1 for a, b in es if a in members and b in members)
        insertions = x * (x - 1) // 2 - inside
        deletions = len(es) - inside
        edits = insertions + deletions
        key = (edits, -x)
        if best is None or key < best:
            best = key
            best_prefix = x
    assert best is not None
    edits = best[0]
    clique = frozenset(order[:best_prefix])
    outside = [v for v in range(1, num_nodes + 1) if v not in clique]
    isolated = frozenset(v for v in outside if deg[v] == 0)
    other = frozenset(v for v in outside if deg[v] > 0)
    matches = edits <= slack
    return DetectionReport(
        matches_signature=matches,
        clique=clique,
        isolated=isolated,
        other=other,
        prior_probability=_clique_prior(best_prefix, beta),
        suspected_players=isolated,
        tolerance_used=slack,
        edits_needed=edits,
    )


def detect_network(net: Network, beta: Fraction = DEFAULT_BETA, slack: int = 0) -> DetectionReport:
    return detect_infiltration(net.num_nodes, net.edges, beta, slack)


def predict_equilibrium_shape(
    game: GameSpec, num_nonplayers: int, original_edges: Iterable = ()
) -> Network:
    """The stable state that fully informed hiders coordinate on.

    Each player computes the largest i with i + m - 1 >= alpha_(i) over
    ascending alphas; a positive threshold means a clique on those players
    plus all non-players, otherwise everyone stays put.
    """
    return greatest_closed_form(game, num_nonplayers, original_edges).predicted
