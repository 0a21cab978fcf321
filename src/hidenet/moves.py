"""Deviation semantics shared by the stability checkers.

States are identified with graphs through the minimal-profile convention,
so a coalition move is a graph transition subject to consent rules:

* player pairs inside the coalition may be added or removed freely;
* an edge from a member to an outside player can be severed but not
  created (the outsider's consent action is absent in a minimal profile);
* member-to-non-player edges are entirely under the member's control;
* a non-player pair outside E0 survives a move when some player remains
  adjacent to both endpoints, and can be newly interconnected only by a
  member adjacent to both after the move.

Interconnect actions cost nothing and raise neighbour degrees, so keeping
or adding every feasible one weakly improves every member.  Improving-move
search therefore only visits interconnect-maximal moves; pure-deletion
search uses the survive-only closure.

The coalition search evaluates full ``Fraction`` utility vectors.  The
fast route (the structural checker and the fixpoints) scores the moving
player alone, on integers: with alpha_i = p_i / q_i it compares q_i * dS_i
with p_i * d deg(i), S_i being the sum of her neighbours' degrees.  Her
deletion bundles are searched only if she alone covers an added
non-player pair; otherwise her drop scores add up (complementarity).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .errors import BudgetExceededError
from .model import (
    Edge,
    GameSpec,
    Network,
    UtilityVector,
    build_network,
    edge,
    sole_cover_count,
    sole_covered_pairs,
    utilities_from_edges,
)

DEFAULT_MOVE_BUDGET = 2_000_000


@dataclass(frozen=True)
class DeviationMove:
    """A profitable coalition deviation, replayable on the base network."""

    coalition: tuple[int, ...]
    deleted_edges: frozenset[Edge]
    added_edges: frozenset[Edge]
    result: Network
    deltas: dict[int, Fraction]


def closure(
    net: Network,
    coalition: Sequence[int],
    adjacency: frozenset[Edge],
    allow_new: bool,
) -> frozenset[Edge]:
    """Full post-move edge set implied by the players' adjacency choices.

    ``adjacency`` holds every player-incident edge after the move.  The
    non-player pairs are then forced: E0 persists, an existing added pair
    survives iff some player still covers it, and (when ``allow_new``) any
    pair covered by a coalition member is interconnected.
    """
    n = net.num_players
    adj: dict[int, set[int]] = {i: set() for i in net.players}
    for a, b in adjacency:
        if a <= n:
            adj[a].add(b)
        if b <= n:
            adj[b].add(a)
    out = set(adjacency) | set(net.original_edges)
    members = set(coalition)
    for j, l in itertools.combinations(net.nonplayers, 2):
        if (j, l) in net.original_edges:
            continue
        covers = [i for i in net.players if j in adj[i] and l in adj[i]]
        if (j, l) in net.edges:
            if covers:
                out.add((j, l))
        elif allow_new and any(i in members for i in covers):
            out.add((j, l))
    return frozenset(out)


def player_incident_edges(net: Network) -> frozenset[Edge]:
    return frozenset(e for e in net.edges if net.is_player(e[0]) or net.is_player(e[1]))


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
    members = sorted(coalition)
    member_set = set(members)
    fixed = frozenset(
        e
        for e in player_incident_edges(net)
        if not (e[0] in member_set or e[1] in member_set)
    )
    inside = [edge(a, b) for a, b in itertools.combinations(members, 2)]
    to_nonplayers = [edge(i, j) for i in members for j in net.nonplayers]
    to_outside = sorted(
        e
        for e in net.edges
        if (e[0] in member_set) != (e[1] in member_set)
        and net.is_player(e[0])
        and net.is_player(e[1])
    )
    positions = sorted(set(inside + to_nonplayers)) + to_outside
    for bits in range(1 << len(positions)):
        chosen = {positions[t] for t in range(len(positions)) if bits >> t & 1}
        yield frozenset(fixed | chosen)


def make_move(
    net: Network, game: GameSpec, coalition: Sequence[int], new_edges: frozenset[Edge]
) -> DeviationMove:
    result = build_network(
        net.num_players, net.num_nonplayers, new_edges, net.original_edges
    )
    base = utilities_from_edges(net.num_players, net.num_nodes, net.edges, game.alphas)
    after = utilities_from_edges(net.num_players, net.num_nodes, new_edges, game.alphas)
    deltas = {i: after.of(i) - base.of(i) for i in sorted(coalition)}
    return DeviationMove(
        coalition=tuple(sorted(coalition)),
        deleted_edges=net.edges - new_edges,
        added_edges=new_edges - net.edges,
        result=result,
        deltas=deltas,
    )


def improving_coalition_move(
    net: Network,
    game: GameSpec,
    coalition: Sequence[int],
) -> Optional[frozenset[Edge]]:
    """First interconnect-maximal move that weakly improves every member
    and strictly improves at least one, or None."""
    base = utilities_from_edges(net.num_players, net.num_nodes, net.edges, game.alphas)
    members = sorted(coalition)
    seen = set()
    for adjacency in coalition_adjacency_choices(net, coalition):
        new_edges = closure(net, members, adjacency, allow_new=True)
        if new_edges == net.edges or new_edges in seen:
            continue
        seen.add(new_edges)
        after = utilities_from_edges(net.num_players, net.num_nodes, new_edges, game.alphas)
        if improves_all(base, after, members):
            return new_edges
    return None


def improves_all(base: UtilityVector, after: UtilityVector, members: Sequence[int]) -> bool:
    """Whether every member weakly gains from ``base`` to ``after``, one strictly."""
    deltas = [after.of(i) - base.of(i) for i in members]
    return min(deltas) >= 0 and max(deltas) > 0


# -- exact single-player marginals of the fast route --------------------------


def drop_score(net: Network, game: GameSpec, i: int, j: int) -> int:
    """q_i times i's gain from dropping her edge to j alone: alpha_i - deg(j),
    less the pairs at j that only i holds together."""
    p, q = game.ratio(i)
    return p - q * (net.degree(j) + sole_cover_count(net, j, i))


def profitable_drops(net: Network, game: GameSpec, i: int, players: bool) -> list[int]:
    """i's player (or non-player) neighbours whose single drop pays, ascending.

    A drop leaves i's other drop scores as they were (a forfeited pair
    takes a degree and a sole cover at once), so all can go together.
    """
    return [
        j
        for j in sorted(net.neighbours(i))
        if net.is_player(j) == players and drop_score(net, game, i, j) > 0
    ]


def pure_deletion(net: Network, i: int, dropped) -> frozenset[Edge]:
    """Edge set after i drops her edges to ``dropped``, with the pairs only
    she holds together there (the survive-only closure of a feasible state)."""
    gone = {edge(i, j) for j in dropped}
    gone.update(e for e in sole_covered_pairs(net, i) if e[0] in dropped or e[1] in dropped)
    return net.edges - gone


def bundles_can_pay(net: Network, i: int) -> bool:
    """Whether a deletion bundle of i can pay when no single drop does: only
    if she alone covers some added non-player pair.  Otherwise her drop
    scores add up (complementarity) and the single-drop tests settle her."""
    return bool(sole_covered_pairs(net, i))


def improving_pure_deletion(
    net: Network, game: GameSpec, i: int
) -> Optional[frozenset[Edge]]:
    """Best strictly-improving pure-deletion move of a single player.

    Returns the edge set of the best move (largest gain, then fewest
    deletions, then lexicographic), or None when no deletion pays.  Drop
    scores add up over the nodes that end no pair only i covers.  Over the
    other nodes j, the sum of p_i - q_i deg(j) less q_i per such pair cut
    in two is a cut function: its best sets are closed under union and
    intersection, so the one with fewest deletions is unique, and it is
    the smallest minimum cut of a small flow network.  Nothing is enumerated.
    """
    p, q = game.ratio(i)
    pairs = sole_covered_pairs(net, i)
    loss = {j: q * net.degree(j) - p for e in pairs for j in e}
    bundle = _smallest_min_cut_side(loss, pairs, q)
    cut = sum((a in bundle) != (b in bundle) for a, b in pairs)
    free = {j for j in net.neighbours(i) - loss.keys() if drop_score(net, game, i, j) > 0}
    if not free and sum(loss[j] for j in bundle) + q * cut >= 0:
        return None
    return pure_deletion(net, i, free | bundle)


def _smallest_min_cut_side(
    weight: dict[int, int], pairs: Sequence[Edge], pair_cost: int
) -> set[int]:
    """Smallest D minimising sum(weight over D) + pair_cost * (pairs with one
    end in D): what the source still reaches after an Edmonds-Karp flow."""
    source, sink = 0, -1
    cap = {source: {j: -w for j, w in weight.items() if w < 0}, sink: {}}
    cap.update((j, {sink: w} if w > 0 else {}) for j, w in weight.items())
    for a, b in pairs:
        cap[a][b] = cap[b][a] = pair_cost
    while True:
        parent = {source: source}
        queue = [source]
        for u in queue:
            for v, c in cap[u].items():
                if c > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return set(parent) - {source}
        path = [sink]
        while path[-1] != source:
            path.append(parent[path[-1]])
        flow = min(cap[u][v] for v, u in zip(path, path[1:]))
        for v, u in zip(path, path[1:]):
            cap[u][v] -= flow
            cap[v][u] = cap[v].get(u, 0) + flow


def has_improving_pure_deletion(net: Network, game: GameSpec) -> Optional[int]:
    """Player with a strictly-improving pure-deletion move, if any."""
    for i in net.players:
        if any(drop_score(net, game, i, j) > 0 for j in net.neighbours(i)):
            return i
        if bundles_can_pay(net, i) and improving_pure_deletion(net, game, i) is not None:
            return i
    return None


def link_score(net: Network, game: GameSpec, i: int, j: int) -> int:
    """q_i times i's gain from a new edge to player j: deg(j) + 1 - alpha_i."""
    p, q = game.ratio(i)
    return q * (net.degree(j) + 1) - p


def blocks(net: Network, game: GameSpec, i: int, j: int) -> bool:
    """Whether both players weakly gain from a new edge (i, j), one strictly."""
    gi, gj = link_score(net, game, i, j), link_score(net, game, j, i)
    return gi >= 0 and gj >= 0 and (gi > 0 or gj > 0)


def blocking_pair(net: Network, game: GameSpec) -> Optional[Edge]:
    """Missing player pair both sides weakly want, one strictly (first in
    lexicographic order)."""
    for i, j in itertools.combinations(net.players, 2):
        if edge(i, j) not in net.edges and blocks(net, game, i, j):
            return (i, j)
    return None


def check_move_budget(net: Network, k: int) -> None:
    bound = move_count_bound(net, k)
    if bound > DEFAULT_MOVE_BUDGET:
        raise BudgetExceededError(
            f"coalition search needs ~{bound} moves for k={k}, "
            f"over the budget of {DEFAULT_MOVE_BUDGET}"
        )
