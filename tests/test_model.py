import random
from fractions import Fraction as F

import pytest

from hidenet import GameSpec, ValidationError, build_network, utility
from hidenet.model import edge, sole_covered_pairs, utilities_from_edges
from hidenet.oracle import enumerate_feasible_graphs

from conftest import complete_edges, random_instance
from strategic import (
    PlayerStrategy,
    StrategyProfile,
    effective_degree,
    is_minimal_profile,
    minimal_profile,
    resulting_network,
)


def test_example1_is_valid(example1):
    net, game = example1
    assert net.with_edges(net.edges) == net
    assert net.sustainers == {(3, 4): 1}


def test_empty_network_valid():
    net = build_network(2, 0, [])
    assert net.edges == frozenset()


def test_unsustainable_nonplayer_edge_rejected():
    with pytest.raises(ValidationError, match="unsustainable non-player edge"):
        build_network(2, 2, [(3, 4)])


def test_e0_touching_player_rejected():
    with pytest.raises(ValidationError, match="touches a player"):
        build_network(2, 1, [], original_edges=[(1, 3)])


def test_game_needs_two_players():
    with pytest.raises(ValidationError):
        GameSpec((F(1),))
    with pytest.raises(ValidationError, match="negative alpha"):
        GameSpec((F(1), F(-1)))


def test_alpha_count_mismatch(example1):
    net, _ = example1
    with pytest.raises(ValidationError, match="alphas"):
        utility(net, GameSpec((F(1), F(1), F(1))))


def test_float_alpha_rejected():
    with pytest.raises(ValidationError, match="float"):
        GameSpec((1.5, 1.5))


@pytest.mark.parametrize(
    "n, m, edges, e0, sustainers, message",
    [
        (2, 1, [(1, 5), (1, 4)], [], None, "edge (1, 4) references unknown nodes (|V| = 3)"),
        (2, 2, [], [(3, 6), (3, 5)], None,
         "original edge (3, 5) references unknown nodes (|V| = 4)"),
        (2, 2, [], [(2, 3), (1, 4)], None, "original edge (1, 4) touches a player"),
        (2, 3, [(4, 5), (3, 4)], [], None,
         "unsustainable non-player edge (3, 4): no common player neighbour"),
        (2, 3, [(1, 3), (1, 4), (1, 5), (3, 4), (3, 5)], [], {(3, 5): 2, (3, 4): 2},
         "sustainer 2 of edge (3, 4) is not a player adjacent to both endpoints"),
        (2, 3, [(1, 3)], [(4, 5)], {(4, 5): 1, (1, 3): 1},
         "sustainer given for (1, 3), which is not an added non-player edge"),
    ],
    ids=["edge-range", "original-range", "original-touches-player", "uncovered",
         "illegal-sustainer", "sustainer-without-pair"],
)
def test_build_network_names_the_smallest_offending_pair(n, m, edges, e0, sustainers, message):
    with pytest.raises(ValidationError) as exc:
        build_network(n, m, edges, e0, sustainers)
    assert str(exc.value) == message


def test_wrong_sustainer_rejected():
    with pytest.raises(ValidationError, match="sustainer"):
        build_network(2, 2, [(1, 3), (1, 4), (3, 4)], sustainers={(3, 4): 2})


def test_degrees(example1):
    net, _ = example1
    assert (net.degree(3), net.player_degree(3)) == (2, 1)
    assert (net.degree(5), net.player_degree(5)) == (1, 1)
    k4 = build_network(4, 0, complete_edges(4))
    assert all((k4.degree(v), k4.player_degree(v)) == (3, 3) for v in k4.nodes)
    iso = build_network(2, 1, [(1, 2)])
    assert (iso.degree(3), iso.player_degree(3)) == (0, 0)
    with pytest.raises(ValidationError):
        net.degree(9)


def test_example1_utilities(example1):
    net, game = example1
    u = utility(net, game)
    assert u.per_player == (F(3), F(3))
    assert u.sw == F(6)


def test_empty_graph_utilities():
    net = build_network(3, 0, [])
    u = utility(net, GameSpec([F(5), F(0), F(1)]))
    assert u.per_player == (F(0), F(0), F(0)) and u.sw == 0


def test_k4_utilities_three_halves():
    net = build_network(4, 0, complete_edges(4))
    u = utility(net, GameSpec([F(3, 2)] * 4))
    assert u.per_player == (F(9, 2),) * 4
    assert u.sw == 18


def test_utility_ignores_sustainers():
    game = GameSpec((F(1), F(2)))
    edges = [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    a = build_network(2, 2, edges, sustainers={(3, 4): 1})
    b = build_network(2, 2, edges, sustainers={(3, 4): 2})
    assert utility(a, game) == utility(b, game)


def test_effective_degree(example1):
    net, _ = example1
    assert effective_degree(net, 3, 1) == 1
    assert effective_degree(net, 4, 1) == 1
    assert effective_degree(net, 3, 2) == 0
    assert effective_degree(net, 5, 2) == 0
    with pytest.raises(ValidationError):
        effective_degree(net, 1, 2)
    with pytest.raises(ValidationError):
        effective_degree(net, 3, 4)


def test_effective_degree_ignores_original_edges():
    net = build_network(2, 2, [(1, 3), (1, 4)], original_edges=[(3, 4)])
    assert effective_degree(net, 3, 1) == 0
    assert net.sustainers == {}


def _assert_index_is_recomputed(net, given=None):
    """The state's adjacency, sole pairs and sustainers equal a brute-force
    recomputation from its edge set alone."""
    nodes = range(1, net.num_nodes + 1)
    assert net.adjacency == ((),) + tuple(
        tuple(v for v in nodes if v != u and edge(u, v) in net.edges) for u in nodes
    )
    covers = {
        (j, l): [i for i in net.players if edge(i, j) in net.edges and edge(i, l) in net.edges]
        for j, l in sorted(net.edges - net.original_edges)
        if j > net.num_players
    }
    sole = {}
    for e, cover in covers.items():
        if len(cover) == 1:
            sole.setdefault(cover[0], []).append(e)
    assert net.sole_pairs == sole
    assert all(sole_covered_pairs(net, i) == sole.get(i, []) for i in net.players)
    assert net.sustainers == {e: (given or {}).get(e, cover[0]) for e, cover in covers.items()}


def test_sole_cover_depends_on_coverage_not_attribution():
    # both players cover (3, 4): nobody holds it alone
    net = build_network(2, 2, [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert effective_degree(net, 3, 1) == 1  # canonical attribution
    assert sole_covered_pairs(net, 1) == []
    solo = build_network(2, 2, [(1, 3), (1, 4), (3, 4)])
    assert sole_covered_pairs(solo, 1) == [(3, 4)]
    # every feasible state of seeded instances, with default sustainers and
    # with each pair given its highest covering player
    rng = random.Random(20)
    states = given_states = 0
    for _ in range(12):
        game, m, e0 = random_instance(rng, 3, 3)
        fgs = enumerate_feasible_graphs(game, m, e0)
        for mask in fgs.masks:
            net = fgs.network(int(mask))
            _assert_index_is_recomputed(net)
            states += 1
            if net.sustainers:
                given = {
                    (j, l): max(i for i in net.players if {edge(i, j), edge(i, l)} <= net.edges)
                    for j, l in net.sustainers
                }
                again = build_network(
                    net.num_players, m, net.edges, net.original_edges, sustainers=given
                )
                _assert_index_is_recomputed(again, given)
                given_states += given != net.sustainers
    assert states > 1000 and given_states > 100


def test_minimal_profile_example1(example1):
    net, _ = example1
    prof = minimal_profile(net)
    assert prof.of(1) == PlayerStrategy(frozenset({2, 3, 4}), frozenset({(3, 4)}))
    assert prof.of(2) == PlayerStrategy(frozenset({1, 5}), frozenset())
    assert is_minimal_profile(prof, 2, 3)


def test_minimal_profile_empty():
    net = build_network(2, 0, [])
    prof = minimal_profile(net)
    assert all(s == PlayerStrategy(frozenset(), frozenset()) for s in prof.strategies)


def test_one_sided_connect_produces_no_edge():
    # a lone connect action toward another player is not minimal: the
    # round trip through the resulting graph drops it
    prof = StrategyProfile(
        (
            PlayerStrategy(frozenset(), frozenset()),
            PlayerStrategy(frozenset({1}), frozenset()),
        )
    )
    net = resulting_network(prof, 2, 0)
    assert net.edges == frozenset()
    assert not is_minimal_profile(prof, 2, 0)


def test_roundtrip_identity_on_minimal_profiles(example1):
    net, _ = example1
    prof = minimal_profile(net)
    again = resulting_network(prof, 2, 3)
    assert again.edges == net.edges and again.sustainers == net.sustainers


def test_single_edge_addition_changes_degrees_and_sw():
    game = GameSpec([F(1, 3)] * 3)
    net = build_network(3, 0, [(1, 2)])
    grown = net.with_edges(net.edges | {(1, 3)})
    assert grown.degree(1) == net.degree(1) + 1
    assert grown.degree(3) == net.degree(3) + 1
    delta = utility(grown, game).sw - utility(net, game).sw
    recomputed = sum(
        utility(grown, game).of(i) - utility(net, game).of(i) for i in net.players
    )
    assert delta == recomputed


def test_utilities_from_edges_matches_network_utility(example1):
    net, game = example1
    assert utilities_from_edges(2, 5, net.edges, game.alphas) == utility(net, game)


def test_neighbours_are_a_sorted_tuple_and_unknown_nodes_raise(example1):
    net, _ = example1
    assert net.neighbours(1) == (2, 3, 4)
    assert net.neighbours(3) == (1, 4)
    assert net.neighbours(5) == (2,)
    assert build_network(2, 1, [(1, 2)]).neighbours(3) == ()
    # tuple indexing would wrap -1 and reach the unused slot 0 silently
    for v in (0, -1, net.num_nodes + 1):
        with pytest.raises(ValidationError, match=f"unknown node {v}"):
            net.neighbours(v)


def test_a_validated_state_sorts_its_adjacency_once(monkeypatch):
    from hidenet import model

    calls = []
    real = model._sorted_adjacency
    monkeypatch.setattr(model, "_sorted_adjacency", lambda *a: calls.append(1) or real(*a))
    edges = complete_edges(12)
    net = build_network(8, 4, edges)
    assert net.neighbours(9) == tuple(v for v in range(1, 13) if v != 9)
    assert sole_covered_pairs(net, 1) == []
    assert len(calls) == 1
    # player 2 covers (3, 4) too, so player 1 alone holds (3, 5) and (4, 5)
    shared = build_network(2, 3, [(1, 3), (1, 4), (1, 5), (3, 4), (3, 5), (4, 5), (2, 3), (2, 4)])
    assert sole_covered_pairs(shared, 1) == [(3, 5), (4, 5)]
    assert sole_covered_pairs(shared.with_edges(shared.edges), 1) == [(3, 5), (4, 5)]
    assert len(calls) == 3  # one sort per build: net, shared and its copy


REMOVED = (
    "PlayerStrategy",
    "StrategyProfile",
    "effective_degree",
    "is_minimal_profile",
    "minimal_profile",
    "resulting_network",
    "social_welfare",
    "validate_network",
)


def test_every_public_name_resolves_and_the_strategy_layer_is_not_exported():
    import hidenet

    oracle_names = {
        "CrossValidationReport",
        "FeasibleGraphSet",
        "cross_validate",
        "enumerate_feasible_graphs",
        "exhaustive_stability",
        "max_social_welfare",
    }
    assert oracle_names <= set(hidenet.__all__)
    for name in hidenet.__all__:
        assert getattr(hidenet, name) is not None, name
    for name in REMOVED:
        assert name not in hidenet.__all__
        assert not hasattr(hidenet, name)
        assert not hasattr(hidenet.model, name)
