"""Stability verification: pairwise Nash and k-strong classes.

Two routes are provided on purpose.  :func:`is_pane` applies the
structural equilibrium conditions (degree thresholds, subset-addition
search, blocking pairs, interconnection, plus a set-deletion completion),
while :func:`is_k_strong` runs a literal deviation search over coalition
moves.  The oracle module re-implements the search a third way on bitmask
tables; cross-validation compares all of them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import ValidationError
from .model import Edge, GameSpec, Network, edge
from .moves import (
    DeviationMove,
    blocking_pair,
    bundles_can_pay,
    check_move_budget,
    improving_coalition_move,
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


def _check_game(net: Network, game: GameSpec) -> None:
    if net.num_players != game.num_players:
        raise ValidationError("alpha count does not match the player set")


def _set_addition_gain(
    net: Network, game: GameSpec, i: int, targets: tuple[int, ...]
) -> tuple[int, set[Edge]]:
    """q_i times i's gain from connecting to ``targets`` and interconnecting
    all her non-player neighbours afterwards, and the edges this adds: each
    target adds deg + 1 to S_i and one to deg(i), and each new pair adds 2."""
    p, q = game.ratio(i)
    mine = net.nonplayer_neighbours(i) + list(targets)
    pairs = {edge(j, l) for j, l in itertools.combinations(mine, 2) if l not in net.neighbours(j)}
    score = q * (sum(net.degree(t) + 1 for t in targets) + 2 * len(pairs)) - p * len(targets)
    return score, pairs | {edge(i, t) for t in targets}


def missing_interconnection(net: Network, i: int) -> Optional[Edge]:
    """First pair of i's non-player neighbours that is not joined, if any."""
    for j, l in itertools.combinations(net.nonplayer_neighbours(i), 2):
        if l not in net.neighbours(j):
            return (j, l)
    return None


def improving_set_addition(
    net: Network, game: GameSpec, i: int
) -> Optional[tuple[tuple[int, ...], frozenset[Edge]]]:
    """Inclusion-minimal strictly-improving non-player target set for i.

    Candidate sets run over non-player non-neighbours in ascending
    cardinality, lexicographic within one cardinality, so the first hit is
    inclusion-minimal and deterministic.
    """
    candidates = sorted(v for v in net.nonplayers if v not in net.neighbours(i))
    for r in range(1, len(candidates) + 1):
        for targets in itertools.combinations(candidates, r):
            score, added = _set_addition_gain(net, game, i, targets)
            if score > 0:
                return targets, net.edges | added
    return None


def is_pane(net: Network, game: GameSpec) -> StabilityVerdict:
    """Structural pairwise-Nash test.

    Conditions, in reporting order:

    a. every player-to-non-player edge (i, j) keeps its owner:
       deg(j) plus the pairs only i holds together is at least alpha_i;
    b. no player has a strictly improving set-addition to non-players;
    c. every player-player edge satisfies deg(j) >= alpha_i both ways;
    d. no missing player pair blocks (both weakly gain, one strictly);
    e. any two non-player neighbours of a player are interconnected;
    f. no player gains from deleting a *set* of her edges.  Conditions a
       and c cover single deletions; when a player alone holds non-player
       pairs together, dropped bundles share the collateral and can beat
       every single drop, so the subset search completes the test.  Other
       players' drop marginals add up, so a and c settle their case.
    """
    _check_game(net, game)

    def unstable(condition: str, coalition, new_edges) -> StabilityVerdict:
        move = make_move(net, game, coalition, new_edges)
        return StabilityVerdict(False, "PANE", 1, move, condition)

    # (a) player-to-non-player deletions
    for i in net.players:
        drops = profitable_drops(net, game, i, players=False)
        if drops:
            return unstable("nonplayer-edge-deletion", [i], pure_deletion(net, i, drops[:1]))
    # (b) set additions to non-players
    for i in net.players:
        found = improving_set_addition(net, game, i)
        if found is not None:
            return unstable("nonplayer-set-addition", [i], found[1])
    # (c) player-player deletions
    for i in net.players:
        drops = profitable_drops(net, game, i, players=True)
        if drops:
            return unstable("player-edge-deletion", [i], pure_deletion(net, i, drops[:1]))
    # (d) pairwise stability
    pair = blocking_pair(net, game)
    if pair is not None:
        return unstable("missing-player-pair", list(pair), frozenset(net.edges | {pair}))
    # (e) neighbour interconnection
    for i in net.players:
        missing = missing_interconnection(net, i)
        if missing is not None:
            return unstable("uninterconnected-neighbours", [i], net.edges | {missing})
    # (f) set deletions (only players with sole-covered pairs can differ here)
    for i in net.players:
        new_edges = improving_pure_deletion(net, game, i) if bundles_can_pay(net, i) else None
        if new_edges is not None:
            return unstable("set-deletion", [i], new_edges)
    return StabilityVerdict(True, "PANE", 1)


def _deviation_search(
    net: Network, game: GameSpec, k: int
) -> Optional[tuple[list[int], frozenset[Edge]]]:
    for size in range(1, min(k, net.num_players) + 1):
        for coalition in itertools.combinations(net.players, size):
            found = improving_coalition_move(net, game, list(coalition))
            if found is not None:
                return list(coalition), found
    return None


def is_k_nash(net: Network, game: GameSpec, k: int) -> StabilityVerdict:
    """k-strong Nash stability by exhaustive coalition-deviation search."""
    _check_game(net, game)
    if not 1 <= k <= net.num_players:
        raise ValidationError(f"strength k={k} outside 1..{net.num_players}")
    check_move_budget(net, k)
    label = "NE" if k == 1 else "k-NE"
    found = _deviation_search(net, game, k)
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
    pair = blocking_pair(net, game)
    if not nash.stable:
        return StabilityVerdict(False, label, k, nash.witness)
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
