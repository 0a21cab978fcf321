"""Closed forms, characterisations, and efficiency analysis.

The greatest stable graph is always "one clique plus isolated players":
sort the visibility aversions ascending and let p be the largest index
with p + m - 1 >= alpha_(p); the clique holds the first p players and all
non-players.  The least stable graph has the same shape with threshold
q = min{i : alpha_(i) >= max(1, i + m - 1)}.  On top of these sit full
membership characterisations for two game classes (all alphas equal; all
but one below 1), welfare formulas, prices of anarchy/stability with the
0/0 := 1 convention, an additive welfare-gap bound, and checkers for the
inclusion-monotonicity and strength-equals-max-utility facts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

from .errors import PreconditionError, ValidationError
from .lattice import least_pans
from .model import (
    GameSpec,
    Network,
    build_network,
    clique_edges,
    edge,
    require_alpha_count,
    require_strength,
    utility,
)
from .stability import first_violation, is_nash_stable, is_pane

Ratio = Union[Fraction, float]


def _ratio(num: Fraction, den: Fraction) -> Ratio:
    """num/den with the efficiency conventions: 0/0 is 1, x/0 is +inf."""
    if den == 0:
        return Fraction(1) if num == 0 else math.inf
    return num / den


def _sorted_alphas(game: GameSpec) -> list[tuple[Fraction, int]]:
    """(alpha, original player label) ascending; ties keep label order."""
    return sorted(((a, i + 1) for i, a in enumerate(game.alphas)), key=lambda t: (t[0], t[1]))


def _clique_network(
    game: GameSpec, num_nonplayers: int, members: frozenset[int], original_edges
) -> Network:
    return build_network(game.num_players, num_nonplayers, clique_edges(members), original_edges)


@dataclass(frozen=True)
class ClosedFormResult:
    threshold_index: int
    clique_members: frozenset[int]
    predicted: Network
    welfare: Fraction


def _clique_form(
    game: GameSpec,
    num_nonplayers: int,
    original_edges,
    threshold: int,
    ranked_in: list[tuple[Fraction, int]],
) -> ClosedFormResult:
    """The clique of the ``ranked_in`` (alpha, label) players and every
    non-player, or no clique when no player joins, and its welfare."""
    n, m = game.num_players, num_nonplayers
    members = frozenset()
    if ranked_in:
        members = frozenset(label for _, label in ranked_in) | frozenset(range(n + 1, n + m + 1))
    predicted = _clique_network(game, m, members, original_edges)
    size = len(ranked_in) + m - 1
    welfare = Fraction(size) * sum((size - a for a, _ in ranked_in), Fraction(0))
    return ClosedFormResult(threshold, members, predicted, welfare)


def greatest_closed_form(
    game: GameSpec, num_nonplayers: int, original_edges: Iterable = ()
) -> ClosedFormResult:
    """Shape and welfare of the greatest stable graph, without fixpoints.

    The clique boundary can never split a group of equal alphas (the
    membership condition is monotone in the sorted index within a group),
    so the label choice under ties is immaterial.  No missing player pair
    blocks the clique, ties included, since p is the largest i with
    i + m - 1 >= alpha_(i): an outsider strictly loses by linking to a
    member (alpha > p + m, the member's degree plus one), and of two
    outsiders the one with the larger alpha strictly loses by linking
    (alpha > 1, as alpha_(i) > i + m - 1 for every outsider i).
    """
    n, m = game.num_players, num_nonplayers
    ranked = _sorted_alphas(game)
    p = 0
    for i in range(1, n + 1):
        if i + m - 1 >= ranked[i - 1][0]:
            p = i
    return _clique_form(game, m, original_edges, p, ranked[:p])


def least_closed_form(
    game: GameSpec, num_nonplayers: int, original_edges: Iterable = ()
) -> ClosedFormResult:
    """Shape and welfare of the least stable graph, without fixpoints.

    The threshold formula assumes joining is strictly attractive or
    strictly repellent; when an alpha equals a post-addition degree
    exactly, an indifferent player can still be pulled in by a strictly
    gaining partner.  When the clique admits such a blocking player pair,
    the least fixpoint is authoritative.
    """
    n, m = game.num_players, num_nonplayers
    ranked = _sorted_alphas(game)
    q = n + 1
    for i in range(1, n + 1):
        if ranked[i - 1][0] >= max(1, i + m - 1):
            q = i
            break
    form = _clique_form(game, m, original_edges, q, ranked[: q - 1])
    if first_violation(form.predicted, game, ("missing-player-pair",)) is None:
        return form
    settled = least_pans(game, m, original_edges)
    members = frozenset(v for v in settled.nodes if settled.degree(v) > 0)
    return ClosedFormResult(q, members, settled, utility(settled, game).sw)


# -- equal alphas --------------------------------------------------------------


@dataclass(frozen=True)
class EqualAlphaStructure:
    alpha: Fraction
    component_D: frozenset[int]
    D_boundary_counts: dict[int, int]
    D0: int
    component_C: frozenset[int]


def _equal_alpha(game: GameSpec) -> Fraction:
    values = set(game.alphas)
    if len(values) != 1:
        raise ValidationError("alphas are not all equal")
    return game.alphas[0]


def check_equal_alpha(net: Network, game: GameSpec) -> tuple[bool, EqualAlphaStructure]:
    """Stable-membership test for equal alphas, by structure alone.

    Below max(1, m) only the complete graph is stable; above n+m-1 only
    the original graph.  In between, the player-attached non-players D
    must form a clique joined to every player with min boundary-degree
    condition D(0) + |D| >= alpha + 1 - n, the player graph must be one
    clique C with |C| >= alpha + 1 - |D|, nothing else may be added, and
    when alpha < m + 1 with D covering all non-players, C must be all
    players.

    The clean shape is exact whenever every player-adjacent non-player
    has degree at least alpha.  At tie values a player can keep an
    attachment to a node below the threshold because dropping it would
    also forfeit pairs only she covers, and such states escape the shape;
    they are decided by the full structural verifier instead (still a
    single-graph test, no enumeration).
    """
    require_alpha_count(net, game)
    alpha = _equal_alpha(game)
    n, m = net.num_players, net.num_nonplayers
    D = frozenset(j for j in net.nonplayers if net.player_degree(j) > 0)
    boundary = {
        j: sum(1 for x in net.neighbours(j) if not net.is_player(x) and x not in D)
        for j in sorted(D)
    }
    d0 = min(boundary.values()) if boundary else 0
    C = frozenset(i for i in net.players if net.player_degree(i) > 0)
    structure = EqualAlphaStructure(alpha, D, boundary, d0, C)

    total = n + m
    if alpha < max(1, m):
        return net.edges == clique_edges(range(1, total + 1)), structure
    if alpha > total - 1:
        return net.edges == net.original_edges, structure

    shape_ok = True
    expected = set(net.original_edges)
    expected |= clique_edges(D)
    expected |= {edge(i, j) for i in net.players for j in sorted(D)}
    expected |= clique_edges(C)
    if net.edges != frozenset(expected):
        shape_ok = False
    elif D and Fraction(d0 + len(D)) < alpha + 1 - n:
        shape_ok = False
    elif C and Fraction(len(C)) < alpha + 1 - len(D):
        shape_ok = False
    elif alpha < m + 1 and D == frozenset(net.nonplayers) and m > 0 and C != frozenset(net.players):
        shape_ok = False
    elif first_violation(net, game, ("missing-player-pair", "nonplayer-set-addition")):
        # a clique member indifferent to an outsider still blocks when the
        # outsider strictly gains; and interconnecting a fresh target with
        # the existing attachments also raises their degrees, so a
        # set-addition can pay even when the target's own degree only
        # reaches alpha.  Both are possible only at tie values of alpha
        shape_ok = False
    if shape_ok:
        return True, structure
    slack_held = any(
        not net.is_player(j) and Fraction(net.degree(j)) < alpha
        for i in net.players
        for j in net.neighbours(i)
    )
    if not slack_held:
        return False, structure
    return bool(is_pane(net, game)), structure


def equal_alpha_max_sw(num_players: int, num_nonplayers: int, alpha: Fraction) -> Fraction:
    """Exact optimum social welfare under equal alphas.

    The complete graph is optimal whenever alpha <= n + m - 1; each of its
    n players then contributes (n+m-1)(n+m-1-alpha), giving
    n (n+m-1) (n+m-1-alpha).  Beyond that threshold no edge pays for
    itself and the optimum is the untouched original graph at welfare 0.
    """
    n, m = num_players, num_nonplayers
    top = n + m - 1
    if alpha > top:
        return Fraction(0)
    return Fraction(n) * top * (Fraction(top) - alpha)


@dataclass(frozen=True)
class EfficiencyReport:
    strength: int
    max_sw: Fraction
    min_eq_sw: Fraction
    max_eq_sw: Fraction
    poa: Ratio
    pos: Ratio
    additive_bound: Fraction
    max_sw_witness: Optional[Network] = None


def equal_alpha_efficiency(
    game: GameSpec, num_nonplayers: int, k: int = 1, *, original_edges: Iterable = ()
) -> EfficiencyReport:
    """Welfare extremes and prices for equal alphas, by the case split.

    Outside the middle band the unique stable graph is optimal and strong,
    so every strength level prices at 1.  Inside it the complete graph and
    the original graph are both stable, so the price of stability is 1
    while the price of anarchy is infinite whenever any welfare is
    attainable at all (at alpha = n + m - 1 the optimum itself is 0 and
    the 0/0 convention gives 1).  Only k = 1 is characterised there.
    """
    require_strength(k, game.num_players)
    alpha = _equal_alpha(game)
    n, m = game.num_players, num_nonplayers
    max_sw = equal_alpha_max_sw(n, m, alpha)
    bound = additive_bound(game, num_nonplayers)
    complete = _clique_network(game, m, frozenset(range(1, n + m + 1)), original_edges)
    empty = build_network(n, m, (), original_edges)
    if alpha < max(1, m):
        return EfficiencyReport(k, max_sw, max_sw, max_sw, Fraction(1), Fraction(1), bound, complete)
    if alpha > n + m - 1:
        return EfficiencyReport(k, Fraction(0), Fraction(0), Fraction(0), Fraction(1), Fraction(1), bound, empty)
    if k != 1:
        raise ValidationError(
            "the equal-alpha middle band is only characterised for k = 1"
        )
    min_eq = Fraction(0)
    max_eq = max_sw
    return EfficiencyReport(
        1, max_sw, min_eq, max_eq, _ratio(max_sw, min_eq), _ratio(max_sw, max_eq), bound, complete
    )


# -- one distinct alpha --------------------------------------------------------


def _one_distinct_common(game: GameSpec) -> Fraction:
    rest = set(game.alphas[1:])
    if len(rest) != 1:
        raise ValidationError("players 2..n must share one alpha")
    alpha = game.alphas[1]
    if alpha >= 1:
        raise ValidationError("the shared alpha of players 2..n must be below 1")
    return alpha


def check_one_distinct(net: Network, game: GameSpec, k: int = 1) -> bool:
    """Stable-membership test when players 2..n all have alpha below 1.

    Everything except player 1 is completely interconnected; player 1
    joins all of it, none of it, or (exactly at alpha_1 = n + m - 1) all
    players with arbitrary non-player attachments.  Coalitions of size two
    or more remove that freedom: at the threshold only the complete graph
    stays stable.
    """
    require_alpha_count(net, game)
    require_strength(k, game.num_players)
    for i in range(2, game.num_players + 1):
        if game.alpha(i) >= 1:
            raise ValidationError(f"player {i} has alpha >= 1; characterisation inapplicable")
    n, m = net.num_players, net.num_nonplayers
    rest = range(2, n + m + 1)
    ones = {e for e in net.edges if 1 in e}
    if net.edges - ones != clique_edges(rest):
        return False
    a1 = game.alpha(1)
    threshold = Fraction(n + m - 1)
    if a1 < threshold:
        return ones == {edge(1, v) for v in rest}
    if a1 > threshold:
        return not ones
    player_part = {edge(1, i) for i in range(2, n + 1)}
    if not player_part <= ones:
        return False
    if k >= 2:
        return ones == {edge(1, v) for v in rest}
    return True  # non-player attachments of player 1 are free at the threshold


def one_distinct_efficiency(
    game: GameSpec, num_nonplayers: int, k: int = 1, *, original_edges: Iterable = ()
) -> EfficiencyReport:
    """Welfare extremes and prices for one distinct alpha.

    With nodes 2..n+m fully interconnected (welfare base
    (n-1)(n+m-2)(n+m-2-alpha)), attaching player 1 everywhere adds
    (n+m-1)(n+m-1-alpha_1) + (n-1)(2(n+m-1)-1-alpha); the optimum keeps
    the attachment only when that quantity is positive.  Equilibrium
    welfare follows the player-1 trichotomy; exactly at
    alpha_1 = n + m - 1 the stable set spans from the players-only
    attachment up to the complete graph, and coalition strength two or
    more collapses it to the complete graph.
    """
    require_strength(k, game.num_players)
    alpha = _one_distinct_common(game)
    a1 = game.alpha(1)
    n, m = game.num_players, num_nonplayers
    t = Fraction(n + m - 1)
    base = Fraction(n - 1) * (n + m - 2) * (Fraction(n + m - 2) - alpha)
    extra = t * (t - a1) + (n - 1) * (2 * t - 1 - alpha)
    max_sw = base + max(Fraction(0), extra)
    full = (n - 1) * (t * t - alpha * t) + t * t - a1 * t
    rest_only = (
        Fraction(n - 1)
        * ((n - 1) + (n - 2) * t + m * (n + m - 2) - alpha * t)
        + (n - 1) * t
        - a1 * (n - 1)
    )
    bound = additive_bound(game, num_nonplayers)
    all_nodes = frozenset(range(1, n + m + 1))
    witness = _clique_network(
        game, m, all_nodes if extra > 0 else all_nodes - {1}, original_edges
    )
    if a1 < t:
        min_eq = max_eq = full
    elif a1 > t:
        min_eq = max_eq = base
    elif k >= 2:
        min_eq = max_eq = full
    else:
        min_eq, max_eq = rest_only, full
    report = EfficiencyReport(
        k, max_sw, min_eq, max_eq, _ratio(max_sw, min_eq), _ratio(max_sw, max_eq), bound, witness
    )
    if a1 != t or k >= 2:
        assert report.poa == report.pos, "prices must coincide off the threshold"
    return report


def large_m_check(game: GameSpec, num_nonplayers: int) -> bool:
    """True when non-players outnumber every alpha, forcing one stable
    graph: the complete one, which is strong and optimal."""
    if Fraction(num_nonplayers) <= max(game.alphas):
        return False
    n, m = game.num_players, num_nonplayers
    complete_edges = clique_edges(range(1, n + m + 1))
    top = greatest_closed_form(game, m)
    bottom = least_closed_form(game, m)
    if top.predicted.edges != complete_edges or bottom.predicted.edges != complete_edges:
        raise AssertionError("large-m instance did not collapse to the complete graph")
    return True


# -- oracle-backed efficiency ---------------------------------------------------


def efficiency(
    game: GameSpec,
    num_nonplayers: int,
    original_edges: Iterable = (),
    k: int = 1,
) -> EfficiencyReport:
    """Exact welfare extremes and prices over the enumerated k-strong set."""
    from .oracle import enumerate_feasible_graphs

    fgs = enumerate_feasible_graphs(game, num_nonplayers, original_edges)
    max_sw, witness = fgs.max_welfare()
    sws = [fgs.utilities(mask).sw for mask in fgs.pans_masks(k)]
    if not sws:
        raise AssertionError("no stable graph found; a stable graph always exists")
    min_eq, max_eq = min(sws), max(sws)
    return EfficiencyReport(
        k,
        max_sw,
        min_eq,
        max_eq,
        _ratio(max_sw, min_eq),
        _ratio(max_sw, max_eq),
        additive_bound(game, num_nonplayers),
        witness,
    )


def additive_bound(game: GameSpec, num_nonplayers: int) -> Fraction:
    """Additive cap on (optimum welfare) - (worst Nash-stable welfare)."""
    n, m = game.num_players, num_nonplayers
    cheap = [a for a in game.alphas if a < n + m - 1]
    return (
        Fraction(n * (n - 1) * (n - 2), 2)
        + Fraction(len(cheap) * (n - 1) * (n + m - 1))
        - sum(cheap, Fraction(0))
        + Fraction(n * m * (n - 1 + n * m))
    )


# -- structural law checkers ------------------------------------------------------


@dataclass(frozen=True)
class MonotonicityReport:
    deltas: tuple[Fraction, ...]
    all_nonnegative: bool
    all_equal: bool
    conditions_hold: bool

    @property
    def consistent(self) -> bool:
        return self.all_nonnegative and self.all_equal == self.conditions_hold


def monotonicity_check(net_f: Network, net_g: Network, game: GameSpec) -> MonotonicityReport:
    """Utilities along a strict edge inclusion into a Nash stable graph.

    Every player must weakly gain in the larger graph; all gains vanish
    exactly when every extra edge joins nodes with no player neighbours in
    the smaller graph and closes on degrees equal to the other side's
    alpha.
    """
    if not net_g.edges < net_f.edges:
        raise PreconditionError("the first network must strictly edge-include the second")
    if not is_nash_stable(net_f, game):
        raise PreconditionError("the including network must be Nash stable")
    uf, ug = utility(net_f, game), utility(net_g, game)
    deltas = tuple(uf.of(i) - ug.of(i) for i in net_f.players)
    conditions = True
    for a, b in sorted(net_f.edges - net_g.edges):
        if net_g.player_degree(a) != 0 or net_g.player_degree(b) != 0:
            conditions = False
            break
        if net_f.is_player(b) and Fraction(net_f.degree(a)) != game.alpha(b):
            conditions = False
            break
        if net_f.is_player(a) and Fraction(net_f.degree(b)) != game.alpha(a):
            conditions = False
            break
    return MonotonicityReport(
        deltas,
        all(d >= 0 for d in deltas),
        all(d == 0 for d in deltas),
        conditions,
    )


@dataclass(frozen=True)
class StrengthReport:
    strength: int
    num_elements: int
    num_strong: int
    strong_iff_max_utility: bool
    strong_utilities_identical: bool
    effective_uniqueness: bool
    k_poa: Ratio
    k_pos: Ratio

    @property
    def all_hold(self) -> bool:
        return (
            self.strong_iff_max_utility
            and self.strong_utilities_identical
            and self.effective_uniqueness
        )


def strength_equivalences(
    game: GameSpec,
    num_nonplayers: int,
    original_edges: Iterable = (),
    k: int = 1,
) -> StrengthReport:
    """Check strength/utility equivalences over the enumerated k-strong set:
    an element is strong iff it gives every player her maximum across the
    set; all strong elements share one utility vector; and the prices at
    strength k coincide iff the k-strong and fully-strong sets are equal."""
    from .oracle import enumerate_feasible_graphs

    fgs = enumerate_feasible_graphs(game, num_nonplayers, original_edges)
    n = game.num_players
    k_masks = fgs.pans_masks(k)
    strong_masks = set(fgs.pans_masks(n))
    utils = {mask: fgs.utilities(mask) for mask in k_masks}
    best = [max(utils[mask].of(i) for mask in k_masks) for i in range(1, n + 1)]
    strong_iff_max = all(
        (mask in strong_masks)
        == all(utils[mask].of(i) == best[i - 1] for i in range(1, n + 1))
        for mask in k_masks
    )
    strong_utils = [utils[mask].per_player for mask in k_masks if mask in strong_masks]
    identical = len(set(strong_utils)) <= 1
    max_sw, _ = fgs.max_welfare()
    sws = [utils[mask].sw for mask in k_masks]
    k_poa = _ratio(max_sw, min(sws))
    k_pos = _ratio(max_sw, max(sws))
    uniqueness = (k_poa == k_pos) == (set(k_masks) == strong_masks)
    return StrengthReport(
        k, len(k_masks), len(strong_masks & set(k_masks)), strong_iff_max, identical, uniqueness, k_poa, k_pos
    )
