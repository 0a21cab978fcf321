"""Stability verification: pairwise Nash and k-strong classes.

Two routes are provided on purpose.  :func:`is_pane` applies the six
structural equilibrium conditions of :data:`CONDITIONS` (degree
thresholds, subset-addition search, blocking pairs, interconnection, plus
a set-deletion completion), whose moves the fixpoints also apply, while
:func:`is_k_strong` runs a literal deviation search over coalition moves.
The oracle module re-implements the search a third way on bitmask tables;
cross-validation compares all of them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .model import Edge, GameSpec, Network, edge, require_alpha_count, require_strength
from .moves import (
    DeviationMove,
    blocking_pair,
    blocking_partner,
    bundles_can_pay,
    check_move_budget,
    coalition_adjacency_choices,
    first_coalition_move,
    improving_pure_deletion,
    make_move,
    profitable_drops,
    pure_deletion,
)


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    class_checked: str
    strength: int
    witness: Optional[DeviationMove] = None
    condition: Optional[str] = None

    def __bool__(self) -> bool:
        return self.stable


def _missing_pairs(net: Network, nodes) -> set[Edge]:
    """Pairs among ``nodes`` that are not joined."""
    return {edge(j, l) for j, l in itertools.combinations(nodes, 2) if l not in net.neighbours(j)}


def _set_addition_gain(
    net: Network, game: GameSpec, i: int, targets: tuple[int, ...]
) -> tuple[int, set[Edge]]:
    """q_i times i's gain from connecting to ``targets`` and interconnecting
    all her non-player neighbours afterwards, and the edges this adds: each
    target adds deg + 1 to S_i and one to deg(i), and each new pair adds 2."""
    p, q = game.ratio(i)
    pairs = _missing_pairs(net, net.nonplayer_neighbours(i) + list(targets))
    score = q * (sum(net.degree(t) + 1 for t in targets) + 2 * len(pairs)) - p * len(targets)
    return score, pairs | {edge(i, t) for t in targets}


# -- the six PANE conditions ----------------------------------------------------
#
# A finder maps (net, game, i) to the move that breaks its condition at
# player i, as (coalition, edge set after the move), or to None.

Move = tuple[tuple[int, ...], frozenset[Edge]]


def _drops_of(players: bool):
    def finder(net: Network, game: GameSpec, i: int) -> Optional[Move]:
        drops = profitable_drops(net, game, i, players)
        return ((i,), pure_deletion(net, i, drops)) if drops else None

    return finder


def improving_set_addition(net: Network, game: GameSpec, i: int) -> Optional[Move]:
    """i's move to her inclusion-minimal strictly-improving non-player
    target set.  Candidate sets run over non-player non-neighbours in
    ascending cardinality, lexicographic within one cardinality, so the
    first hit is inclusion-minimal and deterministic."""
    candidates = sorted(v for v in net.nonplayers if v not in net.neighbours(i))
    for r in range(1, len(candidates) + 1):
        for targets in itertools.combinations(candidates, r):
            score, added = _set_addition_gain(net, game, i, targets)
            if score > 0:
                return (i,), net.edges | added
    return None


def _player_pair(net: Network, game: GameSpec, i: int) -> Optional[Move]:
    j = blocking_partner(net, game, i)
    return ((i, j), net.edges | {(i, j)}) if j is not None else None


def _interconnection(net: Network, game: GameSpec, i: int) -> Optional[Move]:
    missing = _missing_pairs(net, net.nonplayer_neighbours(i))
    return ((i,), net.edges | missing) if missing else None


def _set_deletion(net: Network, game: GameSpec, i: int) -> Optional[Move]:
    if not bundles_can_pay(net, i):
        return None
    new_edges = improving_pure_deletion(net, game, i)
    return ((i,), new_edges) if new_edges is not None else None


CONDITIONS = {
    "nonplayer-edge-deletion": _drops_of(players=False),
    "nonplayer-set-addition": improving_set_addition,
    "player-edge-deletion": _drops_of(players=True),
    "missing-player-pair": _player_pair,
    "uninterconnected-neighbours": _interconnection,
    "set-deletion": _set_deletion,
}
DELETIONS = ("player-edge-deletion", "nonplayer-edge-deletion", "set-deletion")
ADDITIONS = ("uninterconnected-neighbours", "nonplayer-set-addition", "missing-player-pair")


def first_violation(
    net: Network, game: GameSpec, names
) -> Optional[tuple[str, tuple[int, ...], frozenset[Edge]]]:
    """First (condition, coalition, edge set after the move) over ``names``
    in the given order, each condition tried on every player in turn."""
    for name in names:
        finder = CONDITIONS[name]
        for i in net.players:
            found = finder(net, game, i)
            if found is not None:
                return (name, *found)
    return None


def is_pane(net: Network, game: GameSpec) -> StabilityVerdict:
    """Structural pairwise-Nash test.

    Conditions, in reporting order, each with the witness it reports for
    the first player who breaks it:

    a. ``nonplayer-edge-deletion``: every player-to-non-player edge (i, j)
       keeps its owner: deg(j) plus the pairs only i holds together is at
       least alpha_i.  Witness: i drops all such edges whose single drop
       pays, with the pairs only she holds together there.  One drop leaves
       the others paying, so they go together.
    b. ``nonplayer-set-addition``: no player has a strictly improving
       set-addition to non-players.  Witness: the inclusion-minimal target
       set, first by size and then lexicographically, with all her
       non-player neighbours then interconnected.
    c. ``player-edge-deletion``: every player-player edge satisfies
       deg(j) >= alpha_i both ways.  Witness: as in a, for i's player edges.
    d. ``missing-player-pair``: no missing player pair blocks (both weakly
       gain, one strictly).  Witness: the lexicographically first such pair.
    e. ``uninterconnected-neighbours``: any two non-player neighbours of a
       player are interconnected.  Witness: i adds every missing pair
       among her non-player neighbours.
    f. ``set-deletion``: no player gains from deleting a *set* of her
       edges.  Conditions a and c cover single deletions; when a player
       alone holds non-player pairs together, dropped bundles share the
       collateral and can beat every single drop, so the bundle search
       completes the test.  Other players' drop marginals add up
       (complementarity), so a and c settle their case and f skips them.
       Witness: her best deletion (largest gain, then fewest deletions),
       one small minimum cut rather than 2^deg(i) subsets.

    The fixpoints apply exactly these witnesses.
    """
    require_alpha_count(net, game)
    found = first_violation(net, game, CONDITIONS)
    if found is None:
        return StabilityVerdict(True, "PANE", 1)
    condition, coalition, new_edges = found
    move = make_move(net, game, coalition, new_edges)
    return StabilityVerdict(False, "PANE", 1, move, condition)


def is_k_nash(net: Network, game: GameSpec, k: int) -> StabilityVerdict:
    """k-strong Nash stability by exhaustive coalition-deviation search."""
    require_alpha_count(net, game)
    require_strength(k, net.num_players)
    check_move_budget(net, k)
    label = "NE" if k == 1 else "k-NE"
    found = first_coalition_move(net, game, k, coalition_adjacency_choices)
    if found is not None:
        coalition, new_edges = found
        return StabilityVerdict(False, label, k, make_move(net, game, coalition, new_edges))
    return StabilityVerdict(True, label, k)


def is_nash_stable(net: Network, game: GameSpec) -> StabilityVerdict:
    return is_k_nash(net, game, 1)


def is_k_strong(net: Network, game: GameSpec, k: int) -> StabilityVerdict:
    """Pairwise k-strong Nash stability (k-PANS membership) by search.

    For k >= 2 a blocking pair is itself a two-member coalition move, so
    pairwise stability is implied by the coalition search; the implication
    is asserted rather than trusted.
    """
    label = "PANE" if k == 1 else "k-PANE"
    nash = is_k_nash(net, game, k)
    if not nash.stable:
        return StabilityVerdict(False, label, k, nash.witness)
    pair = blocking_pair(net, game)
    if pair is not None:
        if k >= 2:
            raise AssertionError(
                f"coalition search found no deviation but pair {pair} blocks; "
                "pairwise stability should be implied for k >= 2"
            )
        i, j = pair
        return StabilityVerdict(
            False, label, k, make_move(net, game, [i, j], frozenset(net.edges | {pair}))
        )
    return StabilityVerdict(True, label, k)
