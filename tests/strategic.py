"""The hiders' game in literal strategies, as a reference for the tests.

hidenet works on graphs: it reads each state as its minimal strategy
profile and decides every move through one convention (the closing
function ``moves.closure(net)`` returns, the oracle's folded closure and
the fast route's sole-cover rules all follow it), so cross-validating
those routes cannot catch an error in the convention itself.  This module
keeps the game as it is played: each player chooses the nodes she
connects to and the non-player pairs she interconnects, and the resulting
graph follows from everyone's choices.  It reads which players cover a
pair from the neighbour sets itself, not through the model's cover
helpers, which decide the sustainers it checks.  ``test_strategic.py``
compares literal deviations with the convention's coalition moves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from hidenet import GameSpec, Network, ValidationError, build_network
from hidenet.model import Edge, edge, edge_set, scaled_utilities
from hidenet.moves import coalition_adjacency_choices, first_coalition_move, improves_all


@dataclass(frozen=True)
class PlayerStrategy:
    """One player's action set: own connections plus interconnect actions."""

    connect_self: frozenset[int]
    connect_pairs: frozenset[Edge]


@dataclass(frozen=True)
class StrategyProfile:
    strategies: tuple[PlayerStrategy, ...]

    def of(self, i: int) -> PlayerStrategy:
        return self.strategies[i - 1]


def effective_degree(net: Network, j: int, k: int) -> int:
    """Number of k's neighbours that k alone interconnects with j.

    Counts added non-player edges (j, l) whose sustainer is k.  Deletion
    marginals in the stability code count ``model.sole_covered_pairs``
    instead, which is attribution-free.
    """
    if net.is_player(j):
        raise ValidationError(f"effective degree is defined for non-players, got player {j}")
    if not net.is_player(k):
        raise ValidationError(f"effective degree needs a player as second argument, got {k}")
    return sum(1 for e, s in net.sustainers.items() if s == k and j in e)


def minimal_profile(net: Network) -> StrategyProfile:
    """The inclusion-wise minimal profile producing ``net``.

    Both endpoints of a player-player edge connect; a player connects to
    each of her non-player neighbours; every added non-player edge is the
    interconnect action of exactly its sustainer.
    """
    return StrategyProfile(
        tuple(
            PlayerStrategy(
                frozenset(net.neighbours(i)),
                frozenset(e for e, s in net.sustainers.items() if s == i),
            )
            for i in net.players
        )
    )


def covering_profile(net: Network) -> StrategyProfile:
    """The profile producing ``net`` in which every player interconnects
    each added non-player pair she covers."""
    pairs = [e for e in net.added_edges if not net.is_player(e[0])]
    reach = {i: set(net.neighbours(i)) for i in net.players}
    return StrategyProfile(
        tuple(
            PlayerStrategy(
                frozenset(reach[i]),
                frozenset((j, l) for j, l in pairs if j in reach[i] and l in reach[i]),
            )
            for i in net.players
        )
    )


def played_edges(
    profile: StrategyProfile,
    num_players: int,
    num_nonplayers: int,
    original_edges: frozenset[Edge],
) -> tuple[set[Edge], dict[Edge, int]]:
    """Edges of the resulting graph, and the lowest player interconnecting
    each added non-player pair.

    Player pairs need mutual consent; player-to-non-player links are
    unilateral; a non-player pair appears when some player neighbours both
    and plays the interconnect action.
    """
    n, m = num_players, num_nonplayers
    if len(profile.strategies) != n:
        raise ValidationError("profile size does not match the player count")
    edges = set(original_edges)
    for i in range(1, n + 1):
        for j in profile.of(i).connect_self:
            if not (1 <= j <= n + m) or j == i:
                raise ValidationError(f"player {i} connects to invalid node {j}")
            if j > n or i in profile.of(j).connect_self:
                edges.add(edge(i, j))
    sustainers: dict[Edge, int] = {}
    for i in range(1, n + 1):
        si = profile.of(i)
        for j, l in si.connect_pairs:
            if j <= n or l <= n:
                raise ValidationError(f"interconnect action of player {i} names player nodes")
            e = edge(j, l)
            if j in si.connect_self and l in si.connect_self and e not in original_edges:
                edges.add(e)
                sustainers.setdefault(e, i)
    return edges, sustainers


def resulting_network(
    profile: StrategyProfile,
    num_players: int,
    num_nonplayers: int,
    original_edges: Iterable[Sequence[int]] = (),
) -> Network:
    """Resulting graph of a profile: E0 plus the added-edge rule, with the
    lowest interconnecting player recorded as each pair's sustainer."""
    e0 = edge_set(original_edges)
    edges, sustainers = played_edges(profile, num_players, num_nonplayers, e0)
    return build_network(num_players, num_nonplayers, edges, e0, sustainers)


def is_minimal_profile(
    profile: StrategyProfile,
    num_players: int,
    num_nonplayers: int,
    original_edges: Iterable[Sequence[int]] = (),
) -> bool:
    """Round-trip test: profile -> graph -> minimal profile is the identity."""
    net = resulting_network(profile, num_players, num_nonplayers, original_edges)
    return minimal_profile(net) == profile


def strategies(net: Network, i: int) -> Iterator[PlayerStrategy]:
    """Every strategy of player i that can change the graph.

    Interconnecting a pair she does not connect to both ends of, or an
    original pair, produces nothing, so those actions are left out.
    """
    others = [v for v in net.nodes if v != i]
    for r in range(len(others) + 1):
        for chosen in itertools.combinations(others, r):
            ends = [v for v in chosen if not net.is_player(v)]
            pairs = [e for e in itertools.combinations(ends, 2) if e not in net.original_edges]
            for s in range(len(pairs) + 1):
                for interconnected in itertools.combinations(pairs, s):
                    yield PlayerStrategy(frozenset(chosen), frozenset(interconnected))


def improving_deviation(
    net: Network, game: GameSpec, profile: StrategyProfile, coalition: Sequence[int]
) -> Optional[StrategyProfile]:
    """First joint change of the coalition's strategies in ``profile`` that
    weakly raises every member's utility and strictly raises one's, or None.

    For a single player this is a strictly improving unilateral deviation.
    """
    members = sorted(coalition)
    n, m, e0 = net.num_players, net.num_nonplayers, net.original_edges
    base = scaled_utilities(net.edges, net.num_nodes, game.ratios, members)
    for joint in itertools.product(*(list(strategies(net, i)) for i in members)):
        per = list(profile.strategies)
        for i, s in zip(members, joint):
            per[i - 1] = s
        deviated = StrategyProfile(tuple(per))
        edges, _ = played_edges(deviated, n, m, e0)
        if improves_all(base, scaled_utilities(edges, net.num_nodes, game.ratios, members)):
            return deviated
    return None


def improving_coalition_move(
    net: Network,
    game: GameSpec,
    coalition: Sequence[int],
) -> Optional[frozenset[Edge]]:
    """First interconnect-maximal move that weakly improves every member
    and strictly improves at least one, or None: the coalition search's
    loop with every other coalition given no choices."""
    members = tuple(sorted(coalition))

    def choices(state: Network, c: Sequence[int]) -> Iterable[frozenset[Edge]]:
        return coalition_adjacency_choices(state, c) if c == members else ()

    move = first_coalition_move(net, game, len(members), choices)
    return None if move is None else (net.edges - move.deleted_edges) | move.added_edges
