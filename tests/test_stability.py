import itertools
import random
import types
from fractions import Fraction as F

import pytest

from hidenet import (
    GameSpec,
    ValidationError,
    build_network,
    check_equal_alpha,
    check_one_distinct,
    is_k_nash,
    is_k_strong,
    is_nash_stable,
    is_pane,
    join_pans,
    max_included_pans,
    meet_pans,
    min_including_k_pans,
    min_including_pans,
    utility,
)
from hidenet.model import utilities_from_edges
from hidenet.moves import (
    closure,
    coalition_additions,
    coalition_adjacency_choices,
    first_coalition_move,
    make_move,
)
from hidenet.oracle import FeasibleGraphSet, candidate_edge_count
from hidenet.stability import ADDITIONS, CONDITIONS, DELETIONS

from conftest import random_instance, replay
from strategic import PlayerStrategy, StrategyProfile, minimal_profile, resulting_network


def test_example1_not_an_equilibrium(example1):
    net, game = example1
    verdict = is_pane(net, game)
    assert not verdict.stable
    assert verdict.witness is not None


def test_example2_empty_graph_is_pane(example2_game):
    net = build_network(2, 0, [])
    assert is_pane(net, example2_game).stable
    assert is_k_strong(net, example2_game, 1).stable


def test_fig2_triangle_is_pane(fig2_game):
    tri = build_network(4, 0, [(1, 2), (1, 3), (2, 3)])
    assert is_pane(tri, fig2_game).stable


def test_fig2_single_edge_unstable(fig2_game):
    net = build_network(4, 0, [(1, 2)])
    verdict = is_pane(net, fig2_game)
    assert not verdict.stable
    assert verdict.condition == "player-edge-deletion"


def test_fig2_empty_strength_profile(fig2_game):
    empty = build_network(4, 0, [])
    assert is_k_strong(empty, fig2_game, 2).stable
    verdict = is_k_strong(empty, fig2_game, 3)
    assert not verdict.stable
    move = verdict.witness
    assert len(move.coalition) == 3
    assert sorted(move.deltas.values()) == [F(1), F(1), F(1)]


def test_fig3_strength_strata(fig3_game, fig3_graphs):
    g1, g2, g3 = fig3_graphs
    assert is_k_strong(g1, fig3_game, 3).stable
    assert is_k_strong(g2, fig3_game, 2).stable
    assert not is_k_strong(g2, fig3_game, 3).stable
    assert is_k_strong(g3, fig3_game, 5).stable


def test_k_must_be_in_range(fig2_game):
    net = build_network(4, 0, [])
    with pytest.raises(ValidationError):
        is_k_strong(net, fig2_game, 0)
    with pytest.raises(ValidationError):
        is_k_strong(net, fig2_game, 5)


def test_witness_replays_exactly(fig2_game):
    empty = build_network(4, 0, [])
    move = is_k_strong(empty, fig2_game, 3).witness
    before = utility(empty, fig2_game)
    after = utility(replay(empty, move), fig2_game)
    for i in move.coalition:
        assert after.of(i) - before.of(i) == move.deltas[i]
    assert all(d >= 0 for d in move.deltas.values())
    assert any(d > 0 for d in move.deltas.values())


def test_set_deletion_completes_the_edge_checks():
    # singles tie at zero gain but dropping both connections pays:
    # the per-edge thresholds alone would wrongly accept this state
    game = GameSpec((F(3), F(8)))
    net = build_network(2, 2, [(1, 3), (1, 4), (3, 4)])
    verdict = is_pane(net, game)
    assert not verdict.stable
    assert verdict.condition == "set-deletion"
    assert verdict.witness.deltas[1] > 0


def test_nash_without_pairwise(example2_game):
    # both-want-it edge: Nash stable alone, the pair condition kills it
    game = GameSpec((F(1, 10), F(1, 10)))
    empty = build_network(2, 0, [])
    assert is_k_nash(empty, game, 1).stable
    assert not is_k_strong(empty, game, 1).stable
    assert is_nash_stable(empty, game).stable


def test_pairwise_subsumed_for_k2(fig2_game):
    # a blocking pair is itself a two-member move, so the k=2 verdict
    # must already be unstable wherever the pair condition bites
    game = GameSpec((F(1, 10), F(1, 10)))
    empty = build_network(2, 0, [])
    assert not is_k_strong(empty, game, 2).stable


def test_minimal_profile_convention_example2(example2_game):
    # the non-minimal profile that wants the edge is not an equilibrium,
    # but the graph classification works on the minimal profile
    eager = StrategyProfile(
        (
            PlayerStrategy(frozenset(), frozenset()),
            PlayerStrategy(frozenset({1}), frozenset()),
        )
    )
    net = resulting_network(eager, 2, 0)
    assert minimal_profile(net) != eager
    assert is_pane(net, example2_game).stable


def _replays(net, game, verdict):
    """The witness is a profitable move: recomputed utilities give its
    deltas, every member weakly gains and one strictly."""
    move = verdict.witness
    before, after = utility(net, game), utility(replay(net, move), game)
    gains = [after.of(i) - before.of(i) for i in move.coalition]
    assert gains == [move.deltas[i] for i in move.coalition]
    return min(gains) >= 0 and max(gains) > 0


@pytest.mark.parametrize(
    "alphas, m, edges, condition, coalition, deleted, added",
    [
        # player 1 would drop both non-players; the witness drops both
        ((F(3), F(9)), 2, [(1, 3), (1, 4)], "nonplayer-edge-deletion", (1,),
         {(1, 3), (1, 4)}, set()),
        # a free player connects to the lone non-player
        ((F(0), F(9)), 1, [], "nonplayer-set-addition", (1,), set(), {(1, 3)}),
        # player 1 would drop both player edges; the witness drops both
        ((F(3), F(3), F(3)), 0, [(1, 2), (1, 3)], "player-edge-deletion", (1,),
         {(1, 2), (1, 3)}, set()),
        ((F(1, 10), F(1, 10)), 0, [], "missing-player-pair", (1, 2), set(), {(1, 2)}),
        # at alpha 1 every drop ties, so only interconnection is missing;
        # the witness adds all three pairs
        ((F(1), F(9)), 3, [(1, 3), (1, 4), (1, 5)], "uninterconnected-neighbours", (1,),
         set(), {(3, 4), (3, 5), (4, 5)}),
        # single drops tie, dropping both pays (see the test above)
        ((F(3), F(8)), 2, [(1, 3), (1, 4), (3, 4)], "set-deletion", (1,),
         {(1, 3), (1, 4), (3, 4)}, set()),
    ],
)
def test_each_condition_reports_its_whole_move(alphas, m, edges, condition, coalition,
                                               deleted, added):
    game = GameSpec(alphas)
    net = build_network(len(alphas), m, edges)
    verdict = is_pane(net, game)
    assert not verdict.stable
    assert verdict.condition == condition
    assert verdict.witness.coalition == coalition
    assert verdict.witness.deleted_edges == deleted
    assert verdict.witness.added_edges == added
    assert _replays(net, game, verdict)


def test_conditions_table_orders_is_pane_and_the_entry_checks():
    assert list(CONDITIONS) == [
        "nonplayer-edge-deletion",
        "nonplayer-set-addition",
        "player-edge-deletion",
        "missing-player-pair",
        "uninterconnected-neighbours",
        "set-deletion",
    ]
    assert sorted(DELETIONS + ADDITIONS) == sorted(CONDITIONS)


def _fraction_first_move(net, game, k, choices):
    """Reference coalition loop on ``Fraction`` utility vectors."""
    def utilities(edges):
        return utilities_from_edges(net.num_players, net.num_nodes, edges, game.alphas)

    base = utilities(net.edges)
    for size in range(1, min(k, net.num_players) + 1):
        for coalition in itertools.combinations(net.players, size):
            for adjacency in choices(net, coalition):
                new_edges = closure(net, coalition, adjacency)
                if new_edges == net.edges:
                    continue
                after = utilities(new_edges)
                deltas = [after.of(i) - base.of(i) for i in coalition]
                if min(deltas) >= 0 and max(deltas) > 0:
                    return coalition, new_edges
    return None


def test_integer_coalition_scores_match_fraction_utilities():
    rng = random.Random(12)
    big = 10**9 + 7
    checked = moved = 0
    for trial in range(80):
        game, m, e0 = random_instance(rng)
        if candidate_edge_count(game.num_players, m) - len(e0) > 10:
            continue
        if trial % 4 == 3:  # large p/q, just either side of an integer or on it
            game = GameSpec([F(rng.randint(1, 6) * big + rng.choice([-1, 0, 1]), big)
                             for _ in game.alphas])
        fgs = FeasibleGraphSet(game, m, e0)
        masks = rng.sample(list(map(int, fgs.masks)), min(4, len(fgs))) + fgs.pans_masks(1)[:1]
        for mask in masks:
            net = fgs.network(mask)
            for k in net.players:
                for choices in (coalition_adjacency_choices, coalition_additions):
                    found = first_coalition_move(net, game, k, choices)
                    assert found == _fraction_first_move(net, game, k, choices)
                    checked += 1
                    if found is None:
                        continue
                    moved += 1
                    coalition, new_edges = found
                    move = make_move(net, game, coalition, new_edges)
                    base, after = utility(net, game), utility(replay(net, move), game)
                    assert move.deltas == {i: after.of(i) - base.of(i) for i in coalition}
    assert moved and moved < checked


def _reachable_functions(roots):
    """Every Python function the roots reach by calling global names: the
    names in their code objects, nested code included, resolved through
    each function's ``__globals__``."""
    seen, todo = set(), list(roots)
    while todo:
        f = todo.pop()
        if f in seen:
            continue
        seen.add(f)
        codes = [f.__code__]
        for code in codes:
            codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            for name in code.co_names:
                value = f.__globals__.get(name)
                if isinstance(value, types.FunctionType):
                    todo.append(value)
    return seen


def test_the_fast_route_shares_no_code_with_the_coalition_route():
    # cross-validation means something only while the routes are independent
    reached = _reachable_functions(CONDITIONS.values())
    assert {"_drop_gains", "_link_gain", "sole_covered_pairs"} <= {f.__name__ for f in reached}
    assert sorted(f.__name__ for f in reached if f.__module__ == "hidenet.moves") == []


@pytest.mark.parametrize("count", [2, 4], ids=["too-few", "too-many"])
@pytest.mark.parametrize(
    "check",
    [
        is_pane,
        min_including_pans,
        max_included_pans,
        lambda net, game: max_included_pans(net, game, check_entry=False),
        lambda net, game: min_including_k_pans(net, game, 2),
        check_equal_alpha,
        lambda net, game: check_one_distinct(
            net, GameSpec((5,) + (F(1, 2),) * (game.num_players - 1))
        ),
        lambda net, game: join_pans(game, net, net),
        lambda net, game: meet_pans(game, net, net),
    ],
    ids=["is_pane", "min_including_pans", "max_included_pans", "max_included_pans-unchecked",
         "min_including_k_pans", "check_equal_alpha", "check_one_distinct", "join_pans",
         "meet_pans"],
)
def test_a_game_with_the_wrong_number_of_alphas_is_rejected(check, count):
    net = build_network(3, 1)
    with pytest.raises(ValidationError, match=f"game has {count} alphas but network has 3"):
        check(net, GameSpec((5,) * count))
