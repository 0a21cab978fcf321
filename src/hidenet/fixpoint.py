"""Constructive fixpoint algorithms over network states.

Both fixpoints are one sweep over :func:`stability.is_pane`'s conditions:
for each condition and each player in turn, the sweep applies the move
that condition's finder reports (the witness ``is_pane`` would report) for
as long as it reports one, and repeats until a whole sweep changes
nothing.  ``min_including_pans`` sweeps the additions (interconnection,
best profitable set-additions, blocking player pairs) and grows a graph
to a pairwise Nash stable superset.  That is the smallest one when no
stable superset has another player cover a pair that an applied
set-addition paid for; ``stability.improving_set_addition`` gives the
bound and a start where it fails.
``max_included_pans`` sweeps the deletions (single drops to players, then
to non-players, then deletion bundles) and shrinks a graph to the largest
stable subset.  ``min_including_k_pans`` grows a graph by the coalition
search's own moves (``moves.first_coalition_move``), restricted to pure
additions and taken inclusion-minimal, for coalitions of size up to k.

Entry conditions are enforced rather than assumed: growth requires that
no deletion condition is broken, shrinking that no addition condition is.
Both checks raise :class:`PreconditionError` naming the condition and the
player, since the fixpoints are only canonical under them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import PreconditionError
from .model import Edge, GameSpec, Network, require_alpha_count, require_strength
from .moves import coalition_additions, first_coalition_move
from .stability import ADDITIONS, CONDITIONS, DELETIONS, first_violation


@dataclass
class OpCounter:
    """Counts elementary steps so runtime growth can be budget-tested: one
    per condition finder call and per coalition move tried."""

    ops: int = 0


def _tick(counter: Optional[OpCounter]) -> None:
    if counter is not None:
        counter.ops += 1


def _sweep(net: Network, game: GameSpec, names, counter) -> Network:
    """Apply the moves of the named conditions, player by player, until a
    whole sweep changes nothing."""
    require_alpha_count(net, game)
    current = net
    changed = True
    while changed:
        changed = False
        for name in names:
            finder = CONDITIONS[name]
            for i in net.players:
                while True:
                    _tick(counter)
                    found = finder(current, game, i)
                    if found is None:
                        break
                    current, changed = current.with_edges(found[1]), True
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
) -> Network:
    """Pairwise Nash stable graph containing ``net``, grown by ``is_pane``'s
    addition moves: the smallest one under the condition in the module
    docstring."""
    require_no_profitable_deletion(net, game)
    return _sweep(net, game, ADDITIONS, counter)


def max_included_pans(
    net: Network,
    game: GameSpec,
    counter: Optional[OpCounter] = None,
    check_entry: bool = True,
) -> Network:
    """Largest pairwise Nash stable graph contained in ``net``.

    The moves are ``is_pane``'s deletion witnesses; its docstring gives
    why the bundle search runs only for players who alone cover an added
    non-player pair.  Gains are integer scores of the mover alone.

    ``check_entry=False`` skips the entry condition, for a start state that
    is the intersection of two stable graphs (see ``lattice.meet_pans``).
    """
    if check_entry:
        require_no_profitable_addition(net, game)
    return _sweep(net, game, DELETIONS, counter)


def min_including_k_pans(
    net: Network,
    game: GameSpec,
    k: int,
    counter: Optional[OpCounter] = None,
) -> Network:
    """Smallest k-strong pairwise Nash stable graph containing ``net``.

    For k >= 2 the growth applies the coalition search's own moves,
    restricted to pure additions (``moves.coalition_additions``): the
    first coalition, by size and then lexicographically, with an improving
    addition applies its inclusion-minimal one, until no coalition of size
    up to k has one.  Each step replays the witness the search returns, as
    ``(edges - deleted) | added``.  The counter ticks once per addition
    tried.
    """
    require_strength(k, game.num_players)
    if k == 1:
        return min_including_pans(net, game, counter)
    require_no_profitable_deletion(net, game)

    def additions(state: Network, coalition) -> Iterator[frozenset[Edge]]:
        for adjacency in coalition_additions(state, coalition):
            _tick(counter)
            yield adjacency

    current = net
    while (move := first_coalition_move(current, game, k, additions)) is not None:
        current = current.with_edges((current.edges - move.deleted_edges) | move.added_edges)
    return current
