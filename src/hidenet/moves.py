"""Deviation semantics shared by the stability checkers.

States are identified with graphs: a graph stands for the profile in
which players connect along its edges only and every player interconnects
each added non-player pair she covers.  A coalition move is then a graph
transition subject to consent rules:

* player pairs inside the coalition may be added or removed freely;
* an edge from a member to an outside player can be severed but not
  created (the outsider does not connect to her);
* member-to-non-player edges are entirely under the member's control;
* a non-player pair outside E0 survives a move when some player remains
  adjacent to both endpoints, and can be newly interconnected only by a
  member adjacent to both after the move.

Interconnect actions cost nothing and raise neighbour degrees, so keeping
or adding every feasible one weakly improves every member.  Improving-move
search therefore only visits interconnect-maximal moves, each closed by
the function :func:`closure` returns for its network; the fast route builds
a player's pure deletions with ``stability.pure_deletion``.

:func:`first_coalition_move` is the one coalition loop: the coalition
search runs it over every adjacency choice, the k-strong growth over the
pure additions among them.  A blocking pair is a coalition move too, the
two members adding only their own edge, so the pairwise test at k = 1
runs the same loop to pairs, with each missing player pair trying that
link alone (:func:`pairwise_choices`).  ``tests/strategic.py`` plays the
game in literal strategies, and ``tests/test_strategic.py`` checks this
convention against it.

Both routes compare integers: with alpha_i = p_i / q_i, q_i * u_i is
q_i * S_i - p_i * deg(i), S_i being the sum of her neighbours' degrees.
The coalition search scores each member so on the edge sets before and
after a move (:func:`model.scaled_utilities`, which reads nothing cached
on the network), and returns its own witness, the ``Fraction`` gains built
from the scores it compared.  :func:`make_move` builds the witness of a
move found elsewhere (the structural checker's, the oracle's).  The search
builds its closing function once, so the free non-player pairs, those
outside E0, are listed once; without any, a move's closure is its
adjacency plus E0.  The fast route's single-player marginals live in
``stability``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import BudgetExceededError, count_text
from .model import Edge, GameSpec, Network, edge, scaled_utilities

DEFAULT_MOVE_BUDGET = 2_000_000


@dataclass(frozen=True)
class DeviationMove:
    """A profitable coalition deviation: who moves, which edges change, and
    each member's exact utility gain.  It replays on the base network as
    ``(net.edges - deleted_edges) | added_edges``."""

    coalition: tuple[int, ...]
    deleted_edges: frozenset[Edge]
    added_edges: frozenset[Edge]
    deltas: dict[int, Fraction]


def closure(net: Network) -> Callable[[Sequence[int], frozenset[Edge]], frozenset[Edge]]:
    """The function that closes a move on ``net``: given a coalition and
    ``adjacency``, every player-incident edge after the move, it returns the
    full post-move edge set.  The non-player pairs are forced: E0 persists,
    an existing added pair survives iff some player still covers it, and any
    pair covered by a coalition member is interconnected.

    The free pairs (the non-player pairs outside E0) are listed once, here;
    without any, a move's closure is its adjacency plus E0."""
    e0 = net.original_edges
    free = [p for p in itertools.combinations(net.nonplayers, 2) if p not in e0]
    if not free:
        return lambda coalition, adjacency: adjacency | e0
    n, edges, players = net.num_players, net.edges, net.players

    def close(coalition: Sequence[int], adjacency: frozenset[Edge]) -> frozenset[Edge]:
        reach: dict[int, set[int]] = {i: set() for i in players}
        for a, b in adjacency:
            if a <= n < b:
                reach[a].add(b)
        everyone = list(reach.values())
        members = [reach[i] for i in coalition]
        out = set(adjacency)
        out |= e0
        for j, l in free:
            covering = everyone if (j, l) in edges else members
            if any(j in s and l in s for s in covering):
                out.add((j, l))
        return frozenset(out)

    return close


def player_incident_edges(net: Network) -> frozenset[Edge]:
    """The edges with a player end: a normalised edge ``(a, b)`` has one
    exactly when ``a`` is a player."""
    n = net.num_players
    return frozenset(e for e in net.edges if e[0] <= n)


def move_count_bound(net: Network, k: int) -> int:
    """Upper bound on adjacency choices over all coalitions of size <= k."""
    n, m = net.num_players, net.num_nonplayers
    total = 0
    for size in range(1, min(k, n) + 1):
        free = size * (size - 1) // 2 + size * m + size * (n - size)
        total += math.comb(n, size) * (1 << free)
    return total


def coalition_adjacency_choices(
    net: Network, coalition: Sequence[int]
) -> Iterator[frozenset[Edge]]:
    """All legal post-move player-incident edge sets for a coalition.

    Deterministic order: choices enumerate binary counters over the sorted
    list of controllable positions, so identical inputs replay identically.
    """
    n = net.num_players
    members = sorted(coalition)
    member_set = set(members)
    kept, to_outside = [], []
    for e in net.edges:
        if e[0] > n:
            continue
        a_in, b_in = e[0] in member_set, e[1] in member_set
        if not (a_in or b_in):
            kept.append(e)
        elif a_in != b_in and e[1] <= n:
            to_outside.append(e)
    inside = [edge(a, b) for a, b in itertools.combinations(members, 2)]
    to_nonplayers = [edge(i, j) for i in members for j in net.nonplayers]
    positions = sorted(inside + to_nonplayers) + sorted(to_outside)
    fixed = frozenset(kept)
    width = range(len(positions))
    for bits in range(1 << len(positions)):
        yield fixed.union([positions[t] for t in width if bits >> t & 1])


def pairwise_choices(
    net: Network,
) -> Callable[[Network, Sequence[int]], Iterable[frozenset[Edge]]]:
    """The choices of the pairwise test at k = 1: every adjacency choice of
    a single player, and for a missing player pair its link alone, the
    player-incident edges plus that pair.  Run to pairs, the coalition loop
    reaches the links only once no single player has an improving move;
    every non-player pair a player covers is then interconnected, so a link
    closes to ``net.edges`` plus that pair.  The player-incident edges are
    listed when the first link is tried."""
    incident: Optional[frozenset[Edge]] = None

    def choices(state: Network, coalition: Sequence[int]) -> Iterable[frozenset[Edge]]:
        nonlocal incident
        if len(coalition) == 1:
            return coalition_adjacency_choices(state, coalition)
        if coalition in state.edges:
            return ()
        if incident is None:
            incident = player_incident_edges(net)
        return (incident.union((coalition,)),)

    return choices


def _witness(
    net: Network,
    game: GameSpec,
    members: Sequence[int],
    new_edges: frozenset[Edge],
    base: Sequence[int],
    after: Sequence[int],
) -> DeviationMove:
    """The move to ``new_edges``, its deltas read from the members' scores
    (``model.scaled_utilities``) before and after it."""
    return DeviationMove(
        coalition=tuple(members),
        deleted_edges=net.edges - new_edges,
        added_edges=new_edges - net.edges,
        deltas={i: Fraction(a - b, game.ratio(i)[1]) for i, b, a in zip(members, base, after)},
    )


def make_move(
    net: Network, game: GameSpec, coalition: Sequence[int], new_edges: frozenset[Edge]
) -> DeviationMove:
    """The witness for a move found without the coalition loop's scores."""
    members = sorted(coalition)
    base = scaled_utilities(net.edges, net.num_nodes, game.ratios, members)
    after = scaled_utilities(new_edges, net.num_nodes, game.ratios, members)
    return _witness(net, game, members, new_edges, base, after)


def coalition_additions(net: Network, coalition: Sequence[int]) -> Iterator[frozenset[Edge]]:
    """The pure additions among a coalition's adjacency choices.

    A member may add a missing pair to another member or an edge to a
    non-player; nothing is removed.  Fewest added edges first, then
    lexicographic, so the first improving choice is inclusion-minimal.
    """
    members = sorted(coalition)
    current = player_incident_edges(net)
    inside = itertools.combinations(members, 2)
    to_nonplayers = (edge(i, j) for i in members for j in net.nonplayers)
    missing = sorted(set(itertools.chain(inside, to_nonplayers)) - current)
    for r in range(len(missing) + 1):
        for added in itertools.combinations(missing, r):
            yield current.union(added)


def first_coalition_move(
    net: Network,
    game: GameSpec,
    k: int,
    choices: Callable[[Network, Sequence[int]], Iterable[frozenset[Edge]]],
) -> Optional[DeviationMove]:
    """The first move that weakly improves every member of its coalition
    and strictly improves one, as its witness, or None.

    Coalitions run by size up to k, then lexicographically, and each tries
    ``choices(net, coalition)`` in order, closed with every pair a member
    covers interconnected.  Closure keeps the adjacency as the
    player-incident part, so distinct choices never repeat a move.
    """
    close = closure(net)
    ratios, num_nodes = game.ratios, net.num_nodes
    scores = scaled_utilities(net.edges, num_nodes, ratios, net.players)
    for size in range(1, min(k, net.num_players) + 1):
        for coalition in itertools.combinations(net.players, size):
            base = [scores[i - 1] for i in coalition]
            for adjacency in choices(net, coalition):
                new_edges = close(coalition, adjacency)
                if new_edges == net.edges:
                    continue
                after = scaled_utilities(new_edges, num_nodes, ratios, coalition)
                if improves_all(base, after):
                    return _witness(net, game, coalition, new_edges, base, after)
    return None


def improves_all(base: Sequence[int], after: Sequence[int]) -> bool:
    """Whether every member weakly gains from ``base`` to ``after`` (their
    scores, in one order), one strictly."""
    deltas = [a - b for b, a in zip(base, after)]
    return min(deltas) >= 0 and max(deltas) > 0


def check_move_budget(net: Network, k: int) -> None:
    bound = move_count_bound(net, k)
    if bound > DEFAULT_MOVE_BUDGET:
        raise BudgetExceededError(
            f"coalition search needs ~{count_text(bound)} moves for k={k}, "
            f"over the budget of {DEFAULT_MOVE_BUDGET}"
        )
