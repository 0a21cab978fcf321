"""Constructive fixpoint algorithms over network states.

``min_including_pans`` grows a graph to the smallest pairwise Nash stable
superset by repeatedly interconnecting non-player neighbours, applying
inclusion-minimal profitable set-additions, and adding blocking player
pairs.  ``max_included_pans`` shrinks a graph to the largest stable subset
by profitable deletions.
``min_including_k_pans`` generalises the growth process to coalition
additions of size up to k.

Entry conditions are enforced rather than assumed: growth requires that no
player can profit by pure deletion, shrinking that no profitable
unilateral or bilateral addition exists.  Both checks raise
:class:`PreconditionError` when violated, since the fixpoints are only
canonical under them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import PreconditionError
from .model import Edge, GameSpec, Network, edge, sole_covered_pairs
from .moves import (
    blocking_pair,
    blocks,
    bundles_can_pay,
    closure,
    has_improving_pure_deletion,
    improves_all,
    improving_pure_deletion,
    player_incident_edges,
    profitable_drops,
    pure_deletion,
    utility_pair,
)
from .stability import improving_set_addition, missing_interconnection


@dataclass
class OpCounter:
    """Counts elementary steps so runtime growth can be budget-tested."""

    ops: int = 0

    def tick(self, amount: int = 1) -> None:
        self.ops += amount


def _tick(counter: Optional[OpCounter], amount: int = 1) -> None:
    if counter is not None:
        counter.tick(amount)


def _player_order(net: Network, order) -> list[int]:
    players = list(order) if order is not None else list(net.players)
    if sorted(players) != list(net.players):
        raise ValueError("player order must be a permutation of the players")
    return players


def _interconnect_pass(net: Network, players, counter) -> Network:
    # new pairs join non-players only, so one pass reaches the fixpoint
    new_edges = set(net.edges)
    for i in players:
        mine = net.nonplayer_neighbours(i)
        _tick(counter, len(mine) * (len(mine) - 1) // 2)
        new_edges.update(itertools.combinations(mine, 2))
    if len(new_edges) == len(net.edges):
        return net
    return net.with_edges_unchecked(new_edges)


def require_no_profitable_deletion(net: Network, game: GameSpec) -> None:
    offender = has_improving_pure_deletion(net, game)
    if offender is not None:
        raise PreconditionError(
            f"player {offender} has a profitable deletion; the minimal "
            "including stable graph is not defined from here"
        )


def require_no_profitable_addition(net: Network, game: GameSpec) -> None:
    for i in net.players:
        missing = missing_interconnection(net, i)
        if missing is not None:
            raise PreconditionError(
                f"player {i} profits from interconnecting {missing[0]} and {missing[1]}"
            )
        if improving_set_addition(net, game, i) is not None:
            raise PreconditionError(f"player {i} has a profitable set-addition")
    pair = blocking_pair(net, game)
    if pair is not None:
        raise PreconditionError(f"player pair {pair} profits from connecting")


def min_including_pans(
    net: Network,
    game: GameSpec,
    counter: Optional[OpCounter] = None,
    _order=None,
) -> Network:
    """Smallest pairwise Nash stable graph containing ``net``."""
    require_no_profitable_deletion(net, game)
    players = _player_order(net, _order)
    current = net
    changed = True
    while changed:
        changed = False
        grown = _interconnect_pass(current, players, counter)
        if grown is not current:
            current, changed = grown, True
        for i in players:
            while True:
                found = improving_set_addition(current, game, i)
                _tick(counter, 1 << current.num_nonplayers)
                if found is None:
                    break
                current, changed = current.with_edges_unchecked(found[1]), True
        for i, j in itertools.combinations(sorted(players), 2):
            _tick(counter)
            e = edge(i, j)
            if e not in current.edges and blocks(current, game, i, j):
                current, changed = current.with_edges_unchecked(current.edges | {e}), True
    return net if current is net else net.with_edges(current.edges)


def max_included_pans(
    net: Network,
    game: GameSpec,
    counter: Optional[OpCounter] = None,
    _order=None,
    check_entry: bool = True,
) -> Network:
    """Largest pairwise Nash stable graph contained in ``net``.

    The per-edge deletion thresholds mirror the exact drop marginals:
    deleting a player-player edge (i, j) gains alpha_i - deg(j); deleting a
    player-to-non-player edge additionally forfeits every pair only i was
    holding together.  A final guard removes profitable deletion *bundles*,
    which can exist with no profitable single drop when a player alone
    covers pairs among her neighbours (the collateral is shared).  It skips
    every other player, whose drop marginals add up (complementarity), and
    solves one small minimum cut, not 2^deg(i) subsets, for the rest.
    Gains are integer scores of the mover alone; only the result is validated.

    ``check_entry=False`` skips the entry condition, for a start state that
    is the intersection of two stable graphs (see ``lattice.meet_pans``).
    """
    if check_entry:
        require_no_profitable_addition(net, game)
    players = _player_order(net, _order)
    current = net
    while True:
        # profitable single drops, players then non-players, to a fixpoint
        deleting = True
        while deleting:
            deleting = False
            for to_players in (True, False):
                for i in players:
                    _tick(counter, current.degree(i))
                    drops = profitable_drops(current, game, i, to_players)
                    if drops:
                        current = current.with_edges_unchecked(
                            pure_deletion(current, i, drops)
                        )
                        deleting = True
        # bundle guard: shared collateral can hide behind single-drop tests
        for i in players:
            if not bundles_can_pay(current, i):
                continue
            _tick(counter, current.degree(i) + len(sole_covered_pairs(current, i)))
            new_edges = improving_pure_deletion(current, game, i)
            if new_edges is not None:
                current = current.with_edges_unchecked(new_edges)
                break
        else:
            return net if current is net else net.with_edges(current.edges)


def _subsets(pool, smallest: int = 0) -> list[tuple]:
    """Subsets of ``pool`` as tuples, by size and then lexicographic."""
    return [
        c for r in range(smallest, len(pool) + 1) for c in itertools.combinations(pool, r)
    ]


def _coalition_addition(
    net: Network, game: GameSpec, k: int, counter: Optional[OpCounter]
) -> Optional[frozenset[Edge]]:
    """First improving coalition addition, smallest coalition first.

    A move connects every player of U to every target in T, adds the
    chosen missing pairs among W, and interconnects everything a member
    then covers.  All of U union W must weakly profit and someone strictly.
    Ordered by coalition size, then lexicographic coalition, then bundle
    size, so the applied move is a deterministic inclusion-minimal choice.
    """
    base = utility_pair(net, game, net.edges)
    adjacency = player_incident_edges(net)
    for size in range(1, min(k, net.num_players) + 1):
        for coalition in itertools.combinations(net.players, size):
            cset = set(coalition)
            pair_pool = [
                e for e in itertools.combinations(coalition, 2) if e not in net.edges
            ]
            candidates = sorted(
                (len(t) + len(pairs), u, t, pairs)
                for u in _subsets(coalition)
                for t in (_subsets(sorted(net.nonplayers), 1) if u else [()])
                for pairs in _subsets(pair_pool)
                if set(u).union(*pairs) == cset
            )
            for _, u, t, pairs in candidates:
                _tick(counter)
                extra = {edge(i, j) for i in u for j in t} | set(pairs)
                new_adj = frozenset(adjacency | extra)
                new_edges = closure(net, sorted(coalition), new_adj, allow_new=True)
                if new_edges == net.edges:
                    continue
                if improves_all(base, utility_pair(net, game, new_edges), coalition):
                    return new_edges
    return None


def min_including_k_pans(
    net: Network,
    game: GameSpec,
    k: int,
    counter: Optional[OpCounter] = None,
    _order=None,
) -> Network:
    """Smallest k-strong pairwise Nash stable graph containing ``net``."""
    if k == 1:
        return min_including_pans(net, game, counter, _order)
    require_no_profitable_deletion(net, game)
    players = _player_order(net, _order)
    current = net
    changed = True
    while changed:
        changed = False
        grown = _interconnect_pass(current, players, counter)
        if grown is not current:
            current, changed = grown, True
        while True:
            found = _coalition_addition(current, game, k, counter)
            if found is None:
                break
            current, changed = current.with_edges_unchecked(found), True
    return net if current is net else net.with_edges(current.edges)
