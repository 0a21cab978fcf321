"""The coalition search's building blocks against literal references.

On every feasible state of seeded instances, the two choice generators are
held to a binary counter over their sorted positions, and the function
``closure(net)`` returns to a covering scan over every non-player pair.
The instances include states with E0 pairs and with two or more
non-player pairs outside E0, so that both of ``closure``'s paths run.
"""

import itertools
import random

from hidenet import GameSpec, enumerate_feasible_graphs
from hidenet.model import edge
from hidenet.moves import closure, coalition_additions, coalition_adjacency_choices


def _incident(net):
    return frozenset(e for e in net.edges if net.is_player(e[0]) or net.is_player(e[1]))


def _controlled(net, members):
    """Pairs a coalition sets alone: among its members, and to non-players."""
    inside = {edge(a, b) for a, b in itertools.combinations(members, 2)}
    return sorted(inside | {edge(i, j) for i in members for j in net.nonplayers})


def _subsets(positions):
    """Binary counter over ``positions``: bit t of the counter holds ``positions[t]``."""
    return [
        frozenset(p for t, p in enumerate(positions) if bits >> t & 1)
        for bits in range(2 ** len(positions))
    ]


def reference_choices(net, coalition):
    """Every adjacency choice: the coalition sets its own pairs and may
    sever its edges to outside players; other players' edges stay."""
    members = sorted(coalition)
    incident = _incident(net)
    fixed = frozenset(e for e in incident if e[0] not in members and e[1] not in members)
    severable = sorted(
        e for e in incident
        if net.is_player(e[0]) and net.is_player(e[1]) and (e[0] in members) != (e[1] in members)
    )
    return [fixed | chosen for chosen in _subsets(_controlled(net, members) + severable)]


def reference_additions(net, coalition):
    """The pure additions, fewest added edges first, then lexicographic."""
    current = _incident(net)
    missing = sorted(set(_controlled(net, sorted(coalition))) - current)
    added = sorted(_subsets(missing), key=lambda s: (len(s), sorted(s)))
    return [current | s for s in added]


def reference_closure(net, coalition, adjacency):
    """Scan every non-player pair: E0 stays, an added pair survives while a
    player covers it, and a pair a member covers is interconnected."""
    out = set(adjacency) | net.original_edges
    for j, l in itertools.combinations(net.nonplayers, 2):
        if (j, l) in net.original_edges:
            continue
        covers = [i for i in net.players if (i, j) in adjacency and (i, l) in adjacency]
        if covers if (j, l) in net.edges else set(covers) & set(coalition):
            out.add((j, l))
    return frozenset(out)


# (n, m, E0): without free pairs (the non-player pairs outside E0), with one
# and with two; moves ignore alpha, so every player's is 1
SHAPES = [
    (2, 1, []),
    (3, 1, []),
    (4, 0, []),
    (2, 2, [(3, 4)]),
    (3, 2, [(4, 5)]),
    (2, 2, []),
    (2, 3, [(3, 5)]),
    (2, 3, [(4, 5)]),
]


def _spaces():
    for n, m, e0 in SHAPES:
        yield enumerate_feasible_graphs(GameSpec([1] * n), m, e0)


def test_choices_and_closure_match_their_references():
    rng = random.Random(5)
    states_by_free, with_e0, closed = {}, 0, 0
    for space in _spaces():
        free = space.m * (space.m - 1) // 2 - len(space.e0)
        for mask in map(int, space.masks):
            net = space.network(mask)
            close = closure(net)
            states_by_free[free] = states_by_free.get(free, 0) + 1
            with_e0 += bool(net.original_edges)
            for size in (1, 2):
                for coalition in itertools.combinations(net.players, size):
                    choices = reference_choices(net, coalition)
                    assert list(coalition_adjacency_choices(net, coalition)) == choices
                    additions = reference_additions(net, coalition)
                    assert list(coalition_additions(net, coalition)) == additions
                    assert set(additions) == {c for c in choices if c >= _incident(net)}
                    for adjacency in rng.sample(choices, min(4, len(choices))):
                        want = reference_closure(net, coalition, adjacency)
                        assert close(coalition, adjacency) == want
                        closed += 1
    assert states_by_free == {0: 680, 1: 46, 2: 548} and with_e0 == 1092
    assert closed > 20000
