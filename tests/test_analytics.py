import itertools
import math
import random
from fractions import Fraction as F

import pytest

from hidenet import GameSpec, ValidationError, analytics, build_network, utility
from hidenet.analytics import (
    additive_bound,
    check_equal_alpha,
    check_one_distinct,
    efficiency,
    equal_alpha_efficiency,
    equal_alpha_max_sw,
    greatest_closed_form,
    least_closed_form,
    large_m_check,
    monotonicity_check,
    one_distinct_efficiency,
    strength_equivalences,
)
from hidenet.errors import PreconditionError
from hidenet.lattice import greatest_pans, least_pans
from hidenet.oracle import enumerate_feasible_graphs, max_social_welfare
from hidenet.stability import is_k_nash, is_pane

from conftest import complete_edges


# -- closed forms ---------------------------------------------------------------


def test_greatest_closed_form_examples(fig2_game, example5_game, example1):
    cf = greatest_closed_form(fig2_game, 0)
    assert cf.threshold_index == 4
    assert cf.predicted.edges == frozenset(complete_edges(4))
    assert cf.welfare == 18
    cf5 = greatest_closed_form(example5_game, 0)
    assert cf5.threshold_index == 1
    assert cf5.predicted.edges == frozenset()
    assert cf5.welfare == 0
    _, game1 = example1
    cf1 = greatest_closed_form(game1, 3)
    assert cf1.threshold_index == 2
    assert cf1.predicted.edges == frozenset(complete_edges(5))


def test_least_closed_form_examples(fig2_game, example1):
    lf = least_closed_form(fig2_game, 0)
    assert lf.threshold_index == 1 and lf.predicted.edges == frozenset()
    _, game1 = example1
    lf1 = least_closed_form(game1, 3)
    assert lf1.threshold_index == 3  # sentinel n + 1
    assert lf1.predicted.edges == frozenset(complete_edges(5))
    eager = GameSpec([F(0)] * 3)
    lf0 = least_closed_form(eager, 0)
    assert lf0.threshold_index == 4
    assert lf0.predicted.edges == frozenset(complete_edges(3))


def test_closed_form_welfare_matches_utilities(fig2_game, example1):
    _, game1 = example1
    for game, m in ((fig2_game, 0), (game1, 3)):
        for cf in (greatest_closed_form(game, m), least_closed_form(game, m)):
            assert utility(cf.predicted, game).sw == cf.welfare


def test_closed_forms_defer_at_threshold_ties():
    # the low player strictly gains, its partner is exactly indifferent:
    # the pair still forms, so the clean threshold undershoots
    game = GameSpec((F(0), F(1)))
    lf = least_closed_form(game, 0)
    assert lf.predicted.edges == frozenset({(1, 2)})
    assert lf.predicted.edges == least_pans(game, 0).edges


def test_greatest_closed_form_is_the_greatest_fixpoint_at_ties():
    # every alpha on the half-integer grid up to n + m meets each degree a
    # clique member or outsider can have, so all threshold ties occur
    checked = 0
    for n, m in [(2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2), (3, 3), (4, 0), (4, 1)]:
        values = [F(k, 2) for k in range(2 * (n + m) + 1)]
        for e0 in ([], [(n + 1, n + 2)]) if m >= 2 else ([],):
            for alphas in itertools.combinations_with_replacement(values, n):
                game = GameSpec(alphas)
                cf = greatest_closed_form(game, m, e0)
                greatest = greatest_pans(game, m, e0)
                assert cf.predicted == greatest, (alphas, m, e0)
                assert cf.welfare == utility(greatest, game).sw
                checked += 1
    assert checked > 3000


# -- equal alphas ---------------------------------------------------------------


def test_check_equal_alpha_examples(fig2_game):
    tri = build_network(4, 0, [(1, 2), (1, 3), (2, 3)])
    ok, structure = check_equal_alpha(tri, fig2_game)
    assert ok
    assert structure.component_C == frozenset({1, 2, 3})
    assert structure.component_D == frozenset()
    single = build_network(4, 0, [(1, 2)])
    assert not check_equal_alpha(single, fig2_game)[0]
    low = GameSpec([F(1, 2)] * 3)
    assert check_equal_alpha(build_network(3, 0, complete_edges(3)), low)[0]
    assert not check_equal_alpha(build_network(3, 0, [(1, 2)]), low)[0]


def test_check_equal_alpha_boundary_counts():
    game = GameSpec([F(3)] * 2)
    # D = {3, 4} attached to both players, with an original edge leaving D
    net = build_network(
        2,
        3,
        [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (3, 5)],
        original_edges=[(3, 5)],
    )
    ok, structure = check_equal_alpha(net, game)
    assert structure.component_D == frozenset({3, 4})
    assert structure.D_boundary_counts == {3: 1, 4: 0}
    assert structure.D0 == 0


def test_check_equal_alpha_requires_equal(example1):
    net, game = example1
    with pytest.raises(ValidationError):
        check_equal_alpha(net, game)


def test_equal_alpha_max_sw_matches_oracle():
    for n, m, a in [(4, 0, F(3, 2)), (2, 1, F(1)), (3, 2, F(2)), (2, 3, F(1, 2)), (2, 2, F(5))]:
        game = GameSpec([a] * n)
        assert equal_alpha_max_sw(n, m, a) == max_social_welfare(game, m)[0]


def test_equal_alpha_efficiency_cases(fig2_game):
    rep = equal_alpha_efficiency(fig2_game, 0)
    assert rep.max_sw == 18 and rep.pos == 1 and rep.poa == math.inf
    low = equal_alpha_efficiency(GameSpec([F(1, 2)] * 3), 0, k=2)
    assert low.poa == 1 and low.pos == 1
    high = equal_alpha_efficiency(GameSpec([F(2)] * 2), 0, k=2)
    assert high.poa == 1 and high.pos == 1  # 0/0 convention
    with pytest.raises(ValidationError):
        equal_alpha_efficiency(fig2_game, 0, k=2)


def test_equal_alpha_efficiency_zero_optimum_boundary():
    # at the upper boundary with no non-players the optimum itself is 0,
    # so the anarchy ratio collapses to 1 by the 0/0 convention
    rep = equal_alpha_efficiency(GameSpec([F(1)] * 2), 0)
    assert rep.max_sw == 0 and rep.poa == 1 and rep.pos == 1


# -- one distinct alpha ----------------------------------------------------------


def test_check_one_distinct_examples():
    game = GameSpec((F(10), F(1, 2), F(1, 2)))
    rest_clique = build_network(3, 1, [(2, 3), (2, 4), (3, 4)])
    assert check_one_distinct(rest_clique, game)
    full = build_network(3, 1, complete_edges(4))
    assert not check_one_distinct(full, game)


def test_check_one_distinct_threshold():
    game = GameSpec((F(1), F(1, 2)))  # alpha_1 equals n + m - 1 = 1
    edge = build_network(2, 0, [(1, 2)])
    empty = build_network(2, 0, [])
    assert check_one_distinct(edge, game, k=1)
    assert check_one_distinct(edge, game, k=2)
    # the empty graph is blocked: the cheap player strictly gains from the
    # pair while the threshold player is only indifferent
    assert not check_one_distinct(empty, game, k=1)
    from hidenet import exhaustive_stability

    assert not exhaustive_stability(empty, game, 1).stable
    assert exhaustive_stability(edge, game, 1).stable


def test_check_one_distinct_nonplayer_freedom():
    game = GameSpec((F(2), F(1, 2)))  # n + m - 1 = 2 with one non-player
    base = [(2, 3)]
    partial = build_network(2, 1, base + [(1, 2)])
    full = build_network(2, 1, base + [(1, 2), (1, 3)])
    naked = build_network(2, 1, base)
    assert check_one_distinct(partial, game, k=1)
    assert check_one_distinct(full, game, k=1)
    assert not check_one_distinct(naked, game, k=1)
    assert not check_one_distinct(partial, game, k=2)
    assert check_one_distinct(full, game, k=2)


def test_check_one_distinct_precondition(example1):
    net, _ = example1
    with pytest.raises(ValidationError):
        check_one_distinct(net, GameSpec((F(1), F(1))))


def test_one_distinct_efficiency_examples():
    rep = one_distinct_efficiency(GameSpec((F(1, 2), F(1, 4), F(1, 4))), 0)
    assert rep.poa == rep.pos == 1
    game = GameSpec((F(5), F(1, 2)))
    rep2 = one_distinct_efficiency(game, 0)
    assert rep2.max_sw == 0 and rep2.min_eq_sw == 0
    assert rep2.poa == rep2.pos == 1  # 0/0 convention


@pytest.mark.parametrize(
    "alphas, message",
    [
        ((F(1, 2), F(1, 4), F(1, 2)), "players 2..n must share one alpha"),
        ((F(1, 2), F(1), F(1)), "the shared alpha of players 2..n must be below 1"),
        ((F(1, 2), F(3, 2), F(3, 2)), "the shared alpha of players 2..n must be below 1"),
    ],
    ids=["unequal", "shared-one", "shared-above-one"],
)
def test_one_distinct_efficiency_refuses_a_game_outside_its_class(alphas, message):
    with pytest.raises(ValidationError, match=message):
        one_distinct_efficiency(GameSpec(alphas), 1)


def test_one_distinct_efficiency_matches_oracle():
    for a1 in (F(1, 2), F(2), F(3), F(9, 2)):
        game = GameSpec((a1, F(1, 4), F(1, 4)))
        rep = one_distinct_efficiency(game, 1)
        assert rep.max_sw == max_social_welfare(game, 1)[0]
        top = greatest_pans(game, 1)
        assert rep.max_eq_sw == utility(top, game).sw


def test_one_distinct_threshold_split_and_k2_collapse():
    game = GameSpec((F(2), F(1, 2)))  # alpha_1 = n + m - 1 = 2, m = 1
    rep = one_distinct_efficiency(game, 1, k=1)
    assert rep.min_eq_sw < rep.max_eq_sw
    assert rep.poa != rep.pos
    rep2 = one_distinct_efficiency(game, 1, k=2)
    assert rep2.poa == rep2.pos
    assert rep2.min_eq_sw == rep.max_eq_sw


def test_large_m_examples(example1):
    _, game1 = example1
    assert large_m_check(game1, 3)
    assert not large_m_check(GameSpec((F(1), F(1, 2))), 0)
    assert not large_m_check(GameSpec((F(2), F(2))), 2)


def test_large_m_closed_forms_are_the_complete_graph():
    # m > max alpha: every player meets the greatest form's threshold and
    # none the least form's, so both forms are the complete graph, E0 or not
    rng = random.Random(0x1A4)
    with_e0 = 0
    for _ in range(60):
        n, m, den = rng.randint(2, 5), rng.randint(1, 6), rng.choice([1, 2, 3, 7])
        game = GameSpec([F(rng.randrange(m * den), den) for _ in range(n)])
        nonplayers = range(n + 1, n + m + 1)
        e0 = [p for p in itertools.combinations(nonplayers, 2) if rng.random() < 0.4]
        with_e0 += bool(e0)
        complete = frozenset(complete_edges(n + m))
        assert large_m_check(game, m)
        assert greatest_closed_form(game, m, e0).predicted.edges == complete
        assert least_closed_form(game, m, e0).predicted.edges == complete
    assert with_e0 > 20


# -- oracle-backed efficiency ----------------------------------------------------


def test_efficiency_example5(example5_game):
    rep = efficiency(example5_game, 0)
    assert rep.max_sw == F(1, 2)
    assert rep.max_eq_sw == 0
    assert rep.pos == math.inf and rep.poa == math.inf
    assert rep.additive_bound == 1
    assert rep.max_sw - rep.min_eq_sw == F(1, 2) <= rep.additive_bound


def test_efficiency_fig2(fig2_game):
    rep1 = efficiency(fig2_game, 0, k=1)
    assert rep1.poa == math.inf and rep1.pos == 1
    rep4 = efficiency(fig2_game, 0, k=4)
    assert rep4.poa == rep4.pos == 1


def test_additive_bound_values(fig2_game, example5_game):
    assert additive_bound(fig2_game, 0) == 42
    assert additive_bound(example5_game, 0) == 1
    assert additive_bound(GameSpec((F(2), F(2))), 0) == 0


# -- structural law checkers --------------------------------------------------------


def test_monotonicity_along_fig3_chain(fig3_game, fig3_graphs):
    g1, g2, g3 = fig3_graphs
    r12 = monotonicity_check(g2, g1, fig3_game)
    r23 = monotonicity_check(g3, g2, fig3_game)
    assert r12.all_nonnegative and r23.all_nonnegative
    assert not r12.all_equal and not r23.all_equal
    assert r12.consistent and r23.consistent


def test_monotonicity_equality_characterisation():
    game = GameSpec((F(1), F(1)))
    f = build_network(2, 0, [(1, 2)])
    g = build_network(2, 0, [])
    rep = monotonicity_check(f, g, game)
    assert rep.all_equal and rep.conditions_hold and rep.consistent


def test_monotonicity_player_to_nonplayer_edge_off_alpha():
    # the extra edge 1-3 closes on deg(3) = 1, not alpha_1 = 0: player 1
    # gains, so the equality conditions fail, as the report says
    game = GameSpec((F(0), F(100)))
    f = build_network(2, 1, [(1, 3)])
    g = build_network(2, 1, [])
    rep = monotonicity_check(f, g, game)
    assert rep.deltas == (1, 0)
    assert not rep.conditions_hold and not rep.all_equal and rep.consistent


def test_monotonicity_requires_strict_inclusion(fig2_game):
    tri = build_network(4, 0, [(1, 2), (1, 3), (2, 3)])
    with pytest.raises(PreconditionError):
        monotonicity_check(tri, tri, fig2_game)


def test_monotonicity_requires_stable_top(fig2_game):
    single = build_network(4, 0, [(1, 2)])
    empty = build_network(4, 0, [])
    with pytest.raises(PreconditionError):
        monotonicity_check(single, empty, fig2_game)


def test_monotonicity_on_a_pans_past_the_search_budget():
    # the coalition search needs ~1.07e10 moves on this greatest PANS, yet it
    # is pairwise stable and so Nash stable
    rng = random.Random(3)
    n, m = 20, 10
    den = rng.choice([1, 2, 3, 4])
    game = GameSpec([F(rng.randint(0, 32 * den), den) for _ in range(n)])
    e0 = [(a, b) for a in range(n + 1, n + m + 1) for b in range(a + 1, n + m + 1)
          if rng.random() < 0.3]
    least, greatest = least_pans(game, m, e0), greatest_pans(game, m, e0)
    assert (len(least.edges), len(greatest.edges)) == (253, 325)
    rep = monotonicity_check(greatest, least, game)
    assert rep.consistent and rep.all_nonnegative


def test_monotonicity_on_a_nash_stable_top_with_a_blocking_pair(monkeypatch):
    # 1-3 and 2-3 at alphas (0, 0): no player gains alone, but the players'
    # link gains both 2, so is_pane rejects the graph and the search decides
    game = GameSpec((F(0), F(0)))
    f = build_network(2, 1, [(1, 3), (2, 3)])
    g = build_network(2, 1, [])
    space = enumerate_feasible_graphs(game, 1)
    assert space.nash_flags(1)[space.mask_of(f.edges)]
    assert is_pane(f, game).condition == "missing-player-pair"
    searched = []

    def counting(net, game, k):
        searched.append(net)
        return is_k_nash(net, game, k)

    monkeypatch.setattr(analytics, "is_k_nash", counting)
    rep = monotonicity_check(f, g, game)
    assert searched == [f]
    assert rep.deltas == (2, 2) and not rep.conditions_hold and rep.consistent


def test_strength_equivalences(fig2_game, fig3_game, example5_game):
    rep = strength_equivalences(fig2_game, 0, k=1)
    assert rep.all_hold
    assert rep.num_strong == 1
    rep3 = strength_equivalences(fig3_game, 0, k=1)
    assert rep3.all_hold and rep3.num_strong == 1
    rep5 = strength_equivalences(example5_game, 0, k=1)
    assert rep5.all_hold
    assert rep5.k_poa == rep5.k_pos
