"""Stability verification: pairwise Nash and k-strong classes.

Two routes are provided on purpose.  :func:`is_pane` applies the six
structural equilibrium conditions of :data:`CONDITIONS` (degree
thresholds, a best set-addition by one minimum cut, blocking pairs,
interconnection, plus a set-deletion completion by another), whose moves
the fixpoints also apply, while
:func:`is_k_strong` runs a literal deviation search over coalition moves.
The oracle module re-implements the search a third way on bitmask tables;
cross-validation compares all of them.

The fast route (the structural checker and the fixpoints) lives here and
scores the moving player alone, from marginals: with alpha_i = p_i / q_i
it compares q_i * dS_i with p_i * d deg(i).  Her deletion bundles are
searched only if she alone covers an added non-player pair; otherwise her
drop scores add up (complementarity).  From ``moves`` it takes only the
witness a verdict reports; the coalition route there scores whole edge
sets and reads none of these marginals.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .model import (
    Edge,
    GameSpec,
    Network,
    edge,
    require_alpha_count,
    require_strength,
    sole_covered_pairs,
)
from .moves import (
    DeviationMove,
    check_move_budget,
    coalition_adjacency_choices,
    first_coalition_move,
    make_move,
    pairwise_choices,
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


# -- exact single-player marginals -------------------------------------------
#
# Each marginal has one formula, and the scans read the state's index once
# per call (``net.adjacency``, ``model.sole_covered_pairs``): the drop
# gains are a batch over nodes, the link gain a formula over plain integers.


def _drop_gains(net: Network, game: GameSpec, i: int, nodes: Sequence[int]) -> list[int]:
    """q_i times i's gain from dropping her edge to each of ``nodes`` alone:
    alpha_i - deg(j), less the pairs at j that only i holds together."""
    nbrs = net.adjacency
    sole: dict[int, int] = {}
    for e in sole_covered_pairs(net, i):
        for j in e:
            sole[j] = sole.get(j, 0) + 1
    p, q = game.ratio(i)
    return [p - q * (len(nbrs[j]) + sole.get(j, 0)) for j in nodes]


def _link_gain(p: int, q: int, degree: int) -> int:
    """q times the gain, at alpha = p / q, from a new edge to a node of
    ``degree``: it adds degree + 1 to S and one to the mover's degree."""
    return q * (degree + 1) - p


def pure_deletion(net: Network, i: int, dropped) -> frozenset[Edge]:
    """Edge set after i drops her edges to ``dropped``, with the pairs only
    she holds together there (the survive-only closure of a feasible state)."""
    gone = {edge(i, j) for j in dropped}
    gone.update(e for e in sole_covered_pairs(net, i) if e[0] in dropped or e[1] in dropped)
    return net.edges - gone


def _smallest_min_cut_side(
    weight: dict[int, int], pairs: Iterable[Edge], pair_cost: int
) -> set[int]:
    """Smallest D minimising sum(weight over D) + pair_cost * (pairs with one
    end in D): what the source still reaches after an Edmonds-Karp flow.

    Every node of ``pairs`` must have a weight.  Both bundle searches use
    it: deletions (D the dropped nodes, :func:`_set_deletion`) and additions
    (D the targets, :func:`improving_set_addition`).
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


def _missing_pairs(net: Network, nodes) -> set[Edge]:
    """Pairs among ``nodes`` that are not joined."""
    if len(nodes) < 2:
        return set()
    nbrs = net.adjacency
    return {(j, l) for j, l in itertools.combinations(sorted(nodes), 2) if l not in nbrs[j]}


def _set_addition_gain(
    net: Network, game: GameSpec, i: int, targets: tuple[int, ...]
) -> tuple[int, set[Edge]]:
    """q_i times i's gain from connecting to ``targets`` and interconnecting
    all her non-player neighbours afterwards, and the edges this adds: each
    target adds deg + 1 to S_i and one to deg(i), and each new pair adds 2."""
    p, q = game.ratio(i)
    nbrs = net.adjacency
    pairs = _missing_pairs(net, net.nonplayer_neighbours(i) + list(targets))
    score = sum(_link_gain(p, q, len(nbrs[t])) for t in targets) + 2 * q * len(pairs)
    return score, pairs | {edge(i, t) for t in targets}


# -- the six PANE conditions ----------------------------------------------------
#
# A finder maps (net, game, i) to the move that breaks its condition at
# player i, as (coalition, edge set after the move), or to None.

Move = tuple[tuple[int, ...], frozenset[Edge]]


def _drops_of(players: bool):
    def finder(net: Network, game: GameSpec, i: int) -> Optional[Move]:
        """i drops every player (or non-player) neighbour whose single drop
        pays.  A drop never lowers her other drop scores (a forfeited pair
        (j, l) takes one from deg(l) and one from l's sole covers at once),
        so all can go together; afterwards more of them may pay."""
        own = net.adjacency[i]
        split = bisect_right(own, net.num_players)
        scan = own[:split] if players else own[split:]
        if not scan:
            return None
        drops = [j for j, gain in zip(scan, _drop_gains(net, game, i, scan)) if gain > 0]
        return ((i,), pure_deletion(net, i, drops)) if drops else None

    return finder


def improving_set_addition(net: Network, game: GameSpec, i: int) -> Optional[Move]:
    """i's best strictly-improving move to a set T of non-player
    non-neighbours (largest gain, then fewest targets, then lexicographic),
    with all her non-player neighbours then interconnected.

    Over T, ``_set_addition_gain`` is c0 + sum(w_t) + 2 q_i (missing pairs
    inside T): c0 counts the missing pairs among her held non-players H,
    and w_t = q_i (deg(t) + 1) - p_i + 2 q_i (members of H not joined to t).
    With d_t the missing candidate pairs at t, 2 q_i (pairs inside T) is
    q_i sum(d_t) - q_i (pairs with one end in T), so the best sets are the
    minimum cuts of weight -(w_t + q_i d_t) and pair cost q_i.  Their
    smallest one is inside every other, so it is the best move whenever it
    is not empty; when it is empty only c0 > 0 can pay, and one cut with
    each candidate forced in gives the best non-empty set.

    Growth applies this move (``fixpoint.min_including_pans``).  It lies
    inside a stable G' containing the state whenever G' adds no pair
    between a target i lacks there and a non-player she holds: were U, a
    non-empty part of T, missing from her neighbours in G', T would gain
    strictly more than T minus U (no proper subset of the smallest best
    set is best), and adding U in G' would gain at least as much, since
    the gain is supermodular, G' has every edge of the state, and G'
    interconnects her non-player neighbours.  Each pair that G' adds there,
    covered by another player, lowers that bound by q_i, and then the move
    can overshoot: from the state 1-4, 1-5, 2-4, 2-5, 3-4, 3-5, 4-5 at
    alphas (4, 0, 4), growth joins 1 to 6, yet the least stable graph
    containing that state covers 4-6 and 5-6 by player 2 and lacks 1-6.
    """
    nbrs = net.adjacency
    own = nbrs[i]
    held = set(own[bisect_right(own, net.num_players):])
    if len(held) == net.num_nonplayers:
        return None  # no candidate
    candidates = [t for t in net.nonplayers if t not in held]
    p, q = game.ratio(i)
    pool = set(candidates)
    # -(w_t + q_i d_t), from the held and the candidate non-players that t
    # is not joined to
    weight = {
        t: -_link_gain(p, q, len(nbrs[t]))
        - 2 * q * (len(held) - len(held.intersection(nbrs[t])))
        - q * (len(pool) - 1 - len(pool.intersection(nbrs[t])))
        for t in candidates
    }
    interconnected = not _missing_pairs(net, held)  # c0 = 0
    if interconnected and all(w >= 0 for w in weight.values()):
        return None
    pairs = _missing_pairs(net, candidates)
    targets = tuple(sorted(_smallest_min_cut_side(weight, pairs, q)))
    if not targets and not interconnected:
        forced = 1 + sum(map(abs, weight.values()))
        sides = (
            tuple(sorted(_smallest_min_cut_side({**weight, t: -forced}, pairs, q)))
            for t in candidates
        )
        best = min((-_set_addition_gain(net, game, i, side)[0], len(side), side) for side in sides)
        targets = best[2] if best[0] < 0 else ()
    if not targets:
        return None
    return (i,), net.edges | _set_addition_gain(net, game, i, targets)[1]


def _player_pair(net: Network, game: GameSpec, i: int) -> Optional[Move]:
    """i and the first player j > i whose missing edge to her blocks (both
    weakly gain, one strictly) add it."""
    nbrs, ratios = net.adjacency, game.ratios
    own = nbrs[i]
    p, q = ratios[i - 1]
    for j in range(i + 1, net.num_players + 1):
        if j in own:
            continue
        gain_i, gain_j = _link_gain(p, q, len(nbrs[j])), _link_gain(*ratios[j - 1], len(own))
        if gain_i >= 0 and gain_j >= 0 and (gain_i > 0 or gain_j > 0):
            return (i, j), net.edges | {(i, j)}
    return None


def _interconnection(net: Network, game: GameSpec, i: int) -> Optional[Move]:
    missing = _missing_pairs(net, net.nonplayer_neighbours(i))
    return ((i,), net.edges | missing) if missing else None


def _set_deletion(net: Network, game: GameSpec, i: int) -> Optional[Move]:
    """i's best strictly-improving pure deletion (largest gain, then fewest
    deletions, then lexicographic), searched only if she alone covers some
    added non-player pair.  Otherwise her drop scores add up
    (complementarity), and the single-drop conditions settle her.

    Drop scores add up over the nodes that end no pair only i covers.  Over
    the other nodes j, the sum of p_i - q_i deg(j) less q_i per such pair
    cut in two is a cut function: its best sets are closed under union and
    intersection, so the one with fewest deletions is unique, and it is the
    smallest minimum cut of a small flow network.  Nothing is enumerated.
    """
    pairs = sole_covered_pairs(net, i)
    if not pairs:
        return None
    p, q = game.ratio(i)
    nbrs = net.adjacency
    loss = {j: q * len(nbrs[j]) - p for e in pairs for j in e}
    bundle = _smallest_min_cut_side(loss, pairs, q)
    cut = sum((a in bundle) != (b in bundle) for a, b in pairs)
    others = [j for j in nbrs[i] if j not in loss]
    free = {j for j, gain in zip(others, _drop_gains(net, game, i, others)) if gain > 0}
    if not free and sum(loss[j] for j in bundle) + q * cut >= 0:
        return None
    return (i,), pure_deletion(net, i, free | bundle)


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
    require_alpha_count(net, game)
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
       set-addition to non-players.  Witness: her best target set (largest
       gain, then fewest targets, then lexicographic), with all her
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
       Witness: her best deletion (largest gain, then fewest deletions).

    The fixpoints apply exactly these witnesses.
    """
    found = first_violation(net, game, CONDITIONS)
    if found is None:
        return StabilityVerdict(True, "PANE", 1)
    condition, coalition, new_edges = found
    move = make_move(net, game, coalition, new_edges)
    return StabilityVerdict(False, "PANE", 1, move, condition)


def _search_verdict(
    net: Network, game: GameSpec, k: int, label: str, size: int, choices
) -> StabilityVerdict:
    """The coalition search's verdict at strength k: coalitions of up to
    ``size`` members try ``choices``, and the first improving move is the
    witness."""
    require_alpha_count(net, game)
    require_strength(k, net.num_players)
    check_move_budget(net, k)
    move = first_coalition_move(net, game, size, choices)
    return StabilityVerdict(move is None, label, k, move)


def is_k_nash(net: Network, game: GameSpec, k: int) -> StabilityVerdict:
    """k-strong Nash stability by exhaustive coalition-deviation search."""
    label = "NE" if k == 1 else "k-NE"
    return _search_verdict(net, game, k, label, k, coalition_adjacency_choices)


def is_k_strong(net: Network, game: GameSpec, k: int) -> StabilityVerdict:
    """Pairwise k-strong Nash stability (k-PANS membership) by search.

    A blocking pair is the two-member move that adds only their own edge.
    For k >= 2 that link is one of the pair's adjacency choices, so the
    search is :func:`is_k_nash`'s.  At k = 1 the same loop runs on to
    pairs, each missing player pair trying its link alone
    (``moves.pairwise_choices``).
    """
    if k >= 2:
        return _search_verdict(net, game, k, "k-PANE", k, coalition_adjacency_choices)
    return _search_verdict(net, game, k, "PANE", 2, pairwise_choices(net))
