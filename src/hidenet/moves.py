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
search therefore only visits interconnect-maximal moves; pure-deletion
search uses the survive-only closure.

:func:`first_coalition_move` is the one coalition loop: the coalition
search runs it over every adjacency choice, the k-strong growth over the
pure additions among them.  ``tests/strategic.py`` plays the game in
literal strategies, and ``tests/test_strategic.py`` checks this convention
against it.

Both routes compare integers: with alpha_i = p_i / q_i, q_i * u_i is
q_i * S_i - p_i * deg(i), S_i being the sum of her neighbours' degrees.
The coalition search scores each member so on the edge sets before and
after a move (:func:`model.scaled_utilities`, which reads nothing cached
on the network), and builds ``Fraction`` gains only for the witness it
returns.
The fast route (the structural checker and the fixpoints) scores the
moving player alone, from marginals: it compares q_i * dS_i with
p_i * d deg(i).  Her deletion bundles are searched only if she alone
covers an added non-player pair; otherwise her drop scores add up
(complementarity).
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import BudgetExceededError
from .model import (
    Edge,
    GameSpec,
    Network,
    adjacency,
    edge,
    scaled_utilities,
    sole_cover_counts,
    sole_covered_pairs,
)

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
    members = sorted(coalition)
    base = scaled_utilities(net.edges, net.num_nodes, game.ratios, members)
    after = scaled_utilities(new_edges, net.num_nodes, game.ratios, members)
    deltas = {
        i: Fraction(a - b, game.ratio(i)[1]) for i, b, a in zip(members, base, after)
    }
    return DeviationMove(
        coalition=tuple(members),
        deleted_edges=net.edges - new_edges,
        added_edges=new_edges - net.edges,
        deltas=deltas,
    )


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
            yield current | frozenset(added)


def first_coalition_move(
    net: Network,
    game: GameSpec,
    k: int,
    choices: Callable[[Network, Sequence[int]], Iterable[frozenset[Edge]]],
) -> Optional[tuple[tuple[int, ...], frozenset[Edge]]]:
    """First (coalition, edge set after the move) whose move weakly improves
    every member and strictly improves one.

    Coalitions run by size up to k, then lexicographically, and each tries
    ``choices(net, coalition)`` in order, closed with every pair a member
    covers interconnected.  Closure keeps the adjacency as the
    player-incident part, so distinct choices never repeat a move.
    """
    scores = scaled_utilities(net.edges, net.num_nodes, game.ratios, net.players)
    for size in range(1, min(k, net.num_players) + 1):
        for coalition in itertools.combinations(net.players, size):
            base = [scores[i - 1] for i in coalition]
            for adjacency in choices(net, coalition):
                new_edges = closure(net, coalition, adjacency, allow_new=True)
                if new_edges == net.edges:
                    continue
                after = scaled_utilities(new_edges, net.num_nodes, game.ratios, coalition)
                if improves_all(base, after):
                    return coalition, new_edges
    return None


def improves_all(base: Sequence[int], after: Sequence[int]) -> bool:
    """Whether every member weakly gains from ``base`` to ``after`` (their
    scores, in one order), one strictly."""
    deltas = [a - b for b, a in zip(base, after)]
    return min(deltas) >= 0 and max(deltas) > 0


# -- exact single-player marginals of the fast route --------------------------
#
# Each marginal has one formula, and the scans read the state's index once
# per call (``model.adjacency``, ``model.sole_cover_counts``): the drop
# gains are a batch over nodes (one drop is a batch of one), the link gain
# a formula over plain integers.


def _drop_gains(net: Network, game: GameSpec, i: int, nodes: Sequence[int]) -> list[int]:
    """q_i times i's gain from dropping her edge to each of ``nodes`` alone:
    alpha_i - deg(j), less the pairs at j that only i holds together."""
    nbrs, sole = adjacency(net), sole_cover_counts(net)
    p, q = game.ratio(i)
    return [p - q * (len(nbrs[j]) + sole.get((j, i), 0)) for j in nodes]


def _link_gain(p: int, q: int, degree: int) -> int:
    """q times the gain, at alpha = p / q, from a new edge to a node of
    ``degree``: it adds degree + 1 to S and one to the mover's degree."""
    return q * (degree + 1) - p


def drop_score(net: Network, game: GameSpec, i: int, j: int) -> int:
    """q_i times i's gain from dropping her edge to j alone."""
    return _drop_gains(net, game, i, (j,))[0]


def profitable_drops(net: Network, game: GameSpec, i: int, players: bool) -> list[int]:
    """i's player (or non-player) neighbours whose single drop pays, ascending.

    A drop never lowers i's other drop scores (a forfeited pair (j, l)
    takes one from deg(l) and one from l's sole covers at once), so all
    can go together; afterwards more of them may pay.
    """
    own = adjacency(net)[i]
    split = bisect_right(own, net.num_players)
    scan = own[:split] if players else own[split:]
    if not scan:
        return []
    return [j for j, gain in zip(scan, _drop_gains(net, game, i, scan)) if gain > 0]


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
    nbrs = adjacency(net)
    pairs = sole_covered_pairs(net, i)
    loss = {j: q * len(nbrs[j]) - p for e in pairs for j in e}
    bundle = _smallest_min_cut_side(loss, pairs, q)
    cut = sum((a in bundle) != (b in bundle) for a, b in pairs)
    others = [j for j in nbrs[i] if j not in loss]
    free = {j for j, gain in zip(others, _drop_gains(net, game, i, others)) if gain > 0}
    if not free and sum(loss[j] for j in bundle) + q * cut >= 0:
        return None
    return pure_deletion(net, i, free | bundle)


def _smallest_min_cut_side(
    weight: dict[int, int], pairs: Iterable[Edge], pair_cost: int
) -> set[int]:
    """Smallest D minimising sum(weight over D) + pair_cost * (pairs with one
    end in D): what the source still reaches after an Edmonds-Karp flow.

    Every node of ``pairs`` must have a weight.  Both bundle searches use
    it: deletions (D the dropped nodes) and additions (D the targets, see
    ``stability.improving_set_addition``).
    """
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


def blocking_partner(net: Network, game: GameSpec, i: int) -> Optional[int]:
    """First player j > i whose missing edge to i blocks (both weakly gain,
    one strictly), if any."""
    nbrs, ratios = adjacency(net), game.ratios
    own = nbrs[i]
    p, q = ratios[i - 1]
    for j in range(i + 1, net.num_players + 1):
        if j in own:
            continue
        gain_i, gain_j = _link_gain(p, q, len(nbrs[j])), _link_gain(*ratios[j - 1], len(own))
        if gain_i >= 0 and gain_j >= 0 and (gain_i > 0 or gain_j > 0):
            return j
    return None


def blocking_pair(net: Network, game: GameSpec) -> Optional[Edge]:
    """Missing player pair both sides weakly want, one strictly (first in
    lexicographic order).

    The coalition search's pair check: each link is scored as
    :func:`first_coalition_move` scores a move, on the edge sets before and
    after it, and not by the fast route's marginals (``blocking_partner``).
    """
    scores = scaled_utilities(net.edges, net.num_nodes, game.ratios, net.players)
    for pair in itertools.combinations(net.players, 2):
        if pair in net.edges:
            continue
        after = scaled_utilities(net.edges | {pair}, net.num_nodes, game.ratios, pair)
        if improves_all([scores[i - 1] for i in pair], after):
            return pair
    return None


def check_move_budget(net: Network, k: int) -> None:
    bound = move_count_bound(net, k)
    if bound > DEFAULT_MOVE_BUDGET:
        raise BudgetExceededError(
            f"coalition search needs ~{bound} moves for k={k}, "
            f"over the budget of {DEFAULT_MOVE_BUDGET}"
        )
