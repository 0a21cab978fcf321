import itertools
import random
from fractions import Fraction as F

import pytest

from hidenet import (
    GameSpec,
    OpCounter,
    PreconditionError,
    ValidationError,
    build_network,
    enumerate_feasible_graphs,
    is_k_strong,
    is_pane,
    max_included_pans,
    min_including_k_pans,
    min_including_pans,
)
from hidenet.oracle import candidate_edge_count

from conftest import complete_edges, random_instance, relabel_edges, relabel_game


def test_min_including_empty_fig2_stays_empty(fig2_game):
    net = build_network(4, 0, [])
    assert min_including_pans(net, fig2_game).edges == frozenset()


def test_min_including_two_triangles_gives_clique(fig2_game):
    net = build_network(4, 0, [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)])
    out = min_including_pans(net, fig2_game)
    assert out.edges == frozenset(complete_edges(4))


def test_min_including_example1_from_empty(example1):
    _, game = example1
    net = build_network(2, 3, [])
    out = min_including_pans(net, game)
    assert out.edges == frozenset(complete_edges(5))


def test_min_including_rejects_profitable_deletion(fig2_game):
    net = build_network(4, 0, [(1, 2)])  # both sides want out
    with pytest.raises(PreconditionError, match="profitable deletion"):
        min_including_pans(net, fig2_game)


def test_max_included_k4_fixed_point(fig2_game):
    k4 = build_network(4, 0, complete_edges(4))
    assert max_included_pans(k4, fig2_game).edges == k4.edges


def test_max_included_k2_example5(example5_game):
    k2 = build_network(2, 0, [(1, 2)])
    assert max_included_pans(k2, example5_game).edges == frozenset()


def test_max_included_single_edge(fig2_game):
    net = build_network(4, 0, [(1, 2)])
    assert max_included_pans(net, fig2_game).edges == frozenset()


def test_max_included_rejects_profitable_addition(fig2_game):
    tri_plus = build_network(4, 0, [(1, 2), (1, 3), (2, 3), (1, 4)])
    with pytest.raises(PreconditionError):
        max_included_pans(tri_plus, fig2_game)


def test_bundle_guard_in_deletion_fixpoint():
    # per-edge thresholds hold this state together, the bundle guard
    # tears it down to the true stable subset
    game = GameSpec((F(3), F(8)))
    net = build_network(2, 2, [(1, 3), (1, 4), (3, 4)])
    out = max_included_pans(net, game)
    assert out.edges == frozenset()
    assert is_pane(out, game).stable


def test_outputs_grow_and_shrink(fig2_game):
    tri = build_network(4, 0, [(1, 2), (1, 3), (2, 3)])
    grown = min_including_pans(tri, fig2_game)
    assert tri.edges <= grown.edges
    assert is_pane(grown, fig2_game).stable
    k4 = build_network(4, 0, complete_edges(4))
    shrunk = max_included_pans(k4, fig2_game)
    assert shrunk.edges <= k4.edges
    assert is_pane(shrunk, fig2_game).stable


def test_order_independence(fig2_game, fig3_game):
    # renaming the players renames the fixpoints: neither the sweep order
    # nor any finder's label-based tie-break changes the result
    net = build_network(4, 0, [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)])
    grown = min_including_pans(net, fig2_game).edges
    for perm in itertools.permutations(range(1, 5)):
        renamed = build_network(4, 0, relabel_edges(perm, net.edges))
        out = min_including_pans(renamed, relabel_game(perm, fig2_game))
        assert out.edges == relabel_edges(perm, grown)
    k5 = build_network(5, 0, complete_edges(5))
    shrunk = max_included_pans(k5, fig3_game).edges
    for perm in itertools.islice(itertools.permutations(range(1, 6)), 24):
        out = max_included_pans(k5, relabel_game(perm, fig3_game))
        assert out.edges == relabel_edges(perm, shrunk)


def test_k_strong_growth_examples(fig2_game, fig3_game):
    empty4 = build_network(4, 0, [])
    assert min_including_k_pans(empty4, fig2_game, 3).edges == frozenset(complete_edges(4))
    assert min_including_k_pans(empty4, fig2_game, 1).edges == frozenset()
    empty5 = build_network(5, 0, [])
    assert min_including_k_pans(empty5, fig3_game, 5).edges == frozenset(complete_edges(5))


def test_k_strong_growth_is_the_oracles_least_k_pans():
    # a member may gain without acting: (1, 2, 3) adds (1, 3) to K4 - (1, 3)
    # and player 2 gains, so the least 3-PANS is K4
    game = GameSpec((F(3), F(0), F(3), F(1)))
    for k in (3, 4):
        grown = min_including_k_pans(build_network(4, 0, []), game, k)
        assert grown.edges == frozenset(complete_edges(4))
    rng = random.Random(11)
    cases = 0
    while cases < 60:
        game, m, e0 = random_instance(rng, max_players=4, max_nonplayers=3)
        n = game.num_players
        if candidate_edge_count(n, m) > 10:
            continue
        fgs = enumerate_feasible_graphs(game, m, e0)
        for k in range(2, n + 1):
            cases += 1
            least, *others = sorted(map(fgs.edges_of, fgs.pans_masks(k)), key=len)
            grown = min_including_k_pans(build_network(n, m, e0, e0), game, k)
            assert grown.edges == least
            assert all(least <= other for other in others)
            assert is_k_strong(grown, game, k).stable


@pytest.mark.parametrize("k", [0, -2, 5])
def test_k_strong_growth_rejects_strengths_outside_1_to_n(fig2_game, k):
    with pytest.raises(ValidationError, match="strength"):
        min_including_k_pans(build_network(4, 0, []), fig2_game, k)


def test_op_counter_reports_work(fig2_game):
    counter = OpCounter()
    net = build_network(4, 0, [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)])
    min_including_pans(net, fig2_game, counter=counter)
    assert counter.ops > 0


def test_entry_checks_name_the_condition_and_the_player(fig2_game):
    net = build_network(4, 0, [(1, 2)])
    deletion = r"player 1 has a profitable deletion \(player-edge-deletion\)"
    with pytest.raises(PreconditionError, match=deletion):
        min_including_pans(net, fig2_game)
    tri_plus = build_network(4, 0, [(1, 2), (1, 3), (2, 3), (1, 4)])
    addition = r"player 2 with player 4 has a profitable addition \(missing-player-pair\)"
    with pytest.raises(PreconditionError, match=addition):
        max_included_pans(tri_plus, fig2_game)
