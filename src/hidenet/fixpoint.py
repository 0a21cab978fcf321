"""Constructive fixpoint algorithms over network states.

Both fixpoints are one sweep over :func:`stability.is_pane`'s conditions:
for each condition and each player in turn, the sweep applies the move
that condition's finder reports (the witness ``is_pane`` would report) for
as long as it reports one, and repeats until a whole sweep changes
nothing.  ``min_including_pans`` sweeps the additions (interconnection,
inclusion-minimal profitable set-additions, blocking player pairs) and
grows a graph to the smallest pairwise Nash stable superset;
``max_included_pans`` sweeps the deletions (single drops to players, then
to non-players, then deletion bundles) and shrinks a graph to the largest
stable subset.  ``min_including_k_pans`` generalises the growth process
to coalition additions of size up to k.

Entry conditions are enforced rather than assumed: growth requires that
no deletion condition is broken, shrinking that no addition condition is.
Both checks raise :class:`PreconditionError` naming the condition and the
player, since the fixpoints are only canonical under them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import PreconditionError
from .model import Edge, GameSpec, Network, edge, utilities_from_edges
from .moves import closure, improves_all, player_incident_edges
from .stability import ADDITIONS, CONDITIONS, DELETIONS, first_violation


@dataclass
class OpCounter:
    """Counts elementary steps so runtime growth can be budget-tested: one
    per condition finder call and per coalition move tried."""

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


def _sweep(net: Network, game: GameSpec, names, players, counter) -> Network:
    """Apply the moves of the named conditions, player by player, until a
    whole sweep changes nothing.  Intermediate states are not validated."""
    current = net
    changed = True
    while changed:
        changed = False
        for name in names:
            finder = CONDITIONS[name]
            for i in players:
                while True:
                    _tick(counter)
                    found = finder(current, game, i)
                    if found is None:
                        break
                    current, changed = current.with_edges_unchecked(found[1]), True
    return current


def _require_none(net: Network, game: GameSpec, names, kind: str, fixpoint: str) -> None:
    found = first_violation(net, game, names)
    if found is not None:
        condition, coalition, _ = found
        who = " with player ".join(map(str, coalition))
        raise PreconditionError(
            f"player {who} has a profitable {kind} ({condition}); the {fixpoint} "
            "stable graph is not defined from here"
        )


def require_no_profitable_deletion(net: Network, game: GameSpec) -> None:
    _require_none(net, game, DELETIONS, "deletion", "minimal including")


def require_no_profitable_addition(net: Network, game: GameSpec) -> None:
    _require_none(net, game, ADDITIONS, "addition", "maximal included")


def min_including_pans(
    net: Network,
    game: GameSpec,
    counter: Optional[OpCounter] = None,
    _order=None,
) -> Network:
    """Smallest pairwise Nash stable graph containing ``net``."""
    require_no_profitable_deletion(net, game)
    current = _sweep(net, game, ADDITIONS, _player_order(net, _order), counter)
    return net if current is net else net.with_edges(current.edges)


def max_included_pans(
    net: Network,
    game: GameSpec,
    counter: Optional[OpCounter] = None,
    _order=None,
    check_entry: bool = True,
) -> Network:
    """Largest pairwise Nash stable graph contained in ``net``.

    The moves are ``is_pane``'s deletion witnesses; its docstring gives
    why the bundle search runs only for players who alone cover an added
    non-player pair.  Gains are integer scores of the mover alone; only the
    result is validated.

    ``check_entry=False`` skips the entry condition, for a start state that
    is the intersection of two stable graphs (see ``lattice.meet_pans``).
    """
    if check_entry:
        require_no_profitable_addition(net, game)
    current = _sweep(net, game, DELETIONS, _player_order(net, _order), counter)
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
    base = utilities_from_edges(net.num_players, net.num_nodes, net.edges, game.alphas)
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
                after = utilities_from_edges(
                    net.num_players, net.num_nodes, new_edges, game.alphas
                )
                if improves_all(base, after, coalition):
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
    # coalition moves only add edges and interconnect what their members
    # cover, so one interconnection sweep up front keeps every player
    # interconnected
    current = _sweep(net, game, ("uninterconnected-neighbours",), players, counter)
    while (found := _coalition_addition(current, game, k, counter)) is not None:
        current = current.with_edges_unchecked(found)
    return net if current is net else net.with_edges(current.edges)
