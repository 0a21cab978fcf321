import itertools
import random
from fractions import Fraction as F

import pytest

from hidenet import (
    GameSpec,
    PreconditionError,
    build_network,
    enumerate_feasible_graphs,
    enumerate_lattice,
    greatest_pans,
    join_pans,
    least_pans,
    meet_pans,
)

from conftest import complete_edges


def test_least_examples(fig2_game, example1, example5_game):
    assert least_pans(fig2_game, 0).edges == frozenset()
    _, game1 = example1
    assert least_pans(game1, 3).edges == frozenset(complete_edges(5))
    lazy = GameSpec([F(9)] * 3)
    e0 = [(4, 5)]
    assert least_pans(lazy, 2, e0).edges == frozenset({(4, 5)})


def test_greatest_examples(fig2_game, fig3_game, example5_game):
    assert greatest_pans(fig2_game, 0).edges == frozenset(complete_edges(4))
    assert greatest_pans(example5_game, 0).edges == frozenset()
    assert greatest_pans(fig3_game, 0).edges == frozenset(complete_edges(5))


def test_greatest_is_strong(fig2_game, example5_game):
    greatest_pans(fig2_game, 0, verify_strong=True)
    greatest_pans(example5_game, 0, verify_strong=True)


def test_join_examples(fig2_game):
    tri123 = build_network(4, 0, [(1, 2), (1, 3), (2, 3)])
    tri124 = build_network(4, 0, [(1, 2), (1, 4), (2, 4)])
    assert join_pans(fig2_game, tri123, tri124).edges == frozenset(complete_edges(4))
    assert join_pans(fig2_game, tri123, tri123).edges == tri123.edges
    empty = build_network(4, 0, [])
    assert join_pans(fig2_game, empty, tri123).edges == tri123.edges


def test_meet_examples(fig2_game):
    tri123 = build_network(4, 0, [(1, 2), (1, 3), (2, 3)])
    tri124 = build_network(4, 0, [(1, 2), (1, 4), (2, 4)])
    assert meet_pans(fig2_game, tri123, tri124).edges == frozenset()
    assert meet_pans(fig2_game, tri123, tri123).edges == tri123.edges
    k4 = build_network(4, 0, complete_edges(4))
    assert meet_pans(fig2_game, k4, tri123).edges == tri123.edges


def test_join_meet_require_stable_inputs(fig2_game):
    unstable = build_network(4, 0, [(1, 2)])
    tri = build_network(4, 0, [(1, 2), (1, 3), (2, 3)])
    with pytest.raises(PreconditionError):
        join_pans(fig2_game, unstable, tri)
    with pytest.raises(PreconditionError):
        meet_pans(fig2_game, tri, unstable)


def test_enumerate_fig2_lattice(fig2_game):
    summary = enumerate_lattice(fig2_game, 0, k=1)
    sets = sorted(tuple(sorted(n.edges)) for n in summary.elements)
    triangles = [
        tuple(sorted({(a, b), (a, c), (b, c)}))
        for a, b, c in [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    ]
    expected = sorted([()] + triangles + [tuple(sorted(complete_edges(4)))])
    assert sets == expected
    assert summary.least.edges == frozenset()
    assert summary.greatest.edges == frozenset(complete_edges(4))
    # bottom covers the four triangles, the four triangles cover the top
    assert summary.hasse_edges == [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 5), (3, 5), (4, 5)]


def test_enumerate_fig2_strong_levels(fig2_game):
    for k in (3, 4):
        summary = enumerate_lattice(fig2_game, 0, k=k)
        assert len(summary.elements) == 1
        assert summary.elements[0].edges == frozenset(complete_edges(4))


def test_enumerate_fig3_contains_chain(fig3_game, fig3_graphs):
    summary = enumerate_lattice(fig3_game, 0, k=1)
    element_sets = {n.edges for n in summary.elements}
    g1, g2, g3 = fig3_graphs
    assert {g1.edges, g2.edges, g3.edges} <= element_sets
    assert g1.edges < g2.edges < g3.edges


def test_enumerate_nesting_example5(example5_game):
    for k in (1, 2):
        summary = enumerate_lattice(example5_game, 0, k=k)
        assert [n.edges for n in summary.elements] == [frozenset()]


def test_meet_drops_nonplayer_pairs_the_intersection_leaves_uncovered():
    # (4, 5) is held by player 1 on the left and player 2 on the right;
    # neither covers it in the intersection, so no stable subgraph keeps it
    game = GameSpec([F(3)] * 3)
    left = build_network(3, 2, [(1, 4), (1, 5), (2, 4), (3, 4), (4, 5)])
    right = build_network(3, 2, [(1, 4), (2, 4), (2, 5), (3, 4), (4, 5)])
    met = meet_pans(game, left, right)
    assert met.edges == frozenset({(1, 4), (2, 4), (3, 4)})
    summary = enumerate_lattice(game, 2)  # checks every meet against the GLB
    assert met.edges in {n.edges for n in summary.elements}


def test_meet_is_the_glb_on_seeded_instances():
    # alphas near 3 at (3, 2) make many stable graphs that hold one
    # non-player pair through different players
    rng = random.Random(0x3EE7)
    uncovered = 0
    for _ in range(8):
        game = GameSpec([F(rng.randint(5, 7), 2) for _ in range(3)])
        fgs = enumerate_feasible_graphs(game, 2)
        nets = fgs.pans_networks(1)
        sets = [n.edges for n in nets]
        for a, b in itertools.combinations(nets, 2):
            glb = max((s for s in sets if s <= a.edges & b.edges), key=len)
            assert meet_pans(game, a, b).edges == glb
            common = a.with_edges_unchecked(a.edges & b.edges)
            uncovered += any(
                not common.common_player_neighbours(*e) for e in common.added_nonplayer_edges()
            )
    assert uncovered > 0
