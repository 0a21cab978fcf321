"""The move convention against the game played in literal strategies.

Every route in hidenet moves on graphs by the closing function
``moves.closure(net)`` returns.  Here, on sampled feasible states of seeded
games, each player (and each pair of players) searches its literal
strategies instead, and the result is compared with the coalition
search's answer for that coalition.

The convention reads a graph as its covering profile: players connect
along its edges and every player interconnects each added pair she covers.
From that profile, some literal deviation improves exactly when the search
finds a move.  From the minimal profile, where only each pair's sustainer
interconnects it, a player who leaves a pair also ends it for the other
covering players, so literal deviations there are weakly worse: every one
that improves is matched by a search move, but not the other way round.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from hidenet import GameSpec, build_network, enumerate_feasible_graphs

from conftest import random_instance
from strategic import (
    covering_profile,
    improving_coalition_move,
    improving_deviation,
    minimal_profile,
    resulting_network,
)

INSTANCES = 40
STATES = 24  # sampled feasible states per instance


def sample_states():
    """(net, game) for up to STATES feasible states of each seeded game."""
    rng = random.Random(0x57AA7)
    out = []
    for _ in range(INSTANCES):
        game, m, e0 = random_instance(rng)
        space = enumerate_feasible_graphs(game, m, e0)
        masks = sorted(int(t) for t in space.masks)
        out.extend((space.network(t), game) for t in rng.sample(masks, min(STATES, len(masks))))
    return out


@pytest.fixture(scope="module")
def sampled_states():
    return sample_states()


def disagreements(states, size):
    """(profile name, edges, alphas, coalition) wherever literal deviations
    and the coalition search disagree beyond what the profile allows."""
    out = []
    for net, game in states:
        profiles = {"covering": covering_profile(net), "minimal": minimal_profile(net)}
        for name, profile in profiles.items():
            again = resulting_network(
                profile, net.num_players, net.num_nonplayers, net.original_edges
            )
            assert again.edges == net.edges
            for coalition in itertools.combinations(net.players, size):
                literal = improving_deviation(net, game, profile, coalition) is not None
                searched = improving_coalition_move(net, game, coalition) is not None
                if literal != searched and (name == "covering" or literal):
                    out.append((name, sorted(net.edges), game.alphas, coalition))
    return out


def test_single_player_deviations_agree_with_the_coalition_search(sampled_states):
    assert disagreements(sampled_states, 1) == []


def test_pair_deviations_agree_with_the_coalition_search(sampled_states):
    states = [(net, game) for net, game in sampled_states if net.num_nonplayers <= 2]
    assert len(states) > 300
    assert disagreements(states, 2) == []


def test_outside_players_do_not_interconnect_for_a_mover():
    # player 2 covers the missing pair (5, 6); player 1 sits next to 5 and
    # every move of hers breaks even, so she has none that pays as long as
    # only members interconnect
    net = build_network(4, 2, [(1, 5), (2, 5), (2, 6), (3, 5), (4, 5)])
    game = GameSpec([F(4)] * 4)
    assert disagreements([(net, game)], 1) == []
    assert improving_coalition_move(net, game, (1,)) is None


def test_a_pair_left_by_its_sustainer_outlives_her_only_in_the_covering_profile():
    # players 1 and 2 both cover (4, 6) and (5, 6); 1 sustains them.  Her
    # best move drops 5 and 6, which pays only if the pairs survive
    net = build_network(
        3,
        3,
        [(1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (3, 4), (4, 6), (5, 6)],
        original_edges=[(4, 5)],
    )
    game = GameSpec((F(13, 3), F(5, 3), F(7)))
    assert net.sustainers == {(4, 6): 1, (5, 6): 1}
    assert improving_coalition_move(net, game, (1,)) == net.edges - {(1, 5), (1, 6)}
    assert improving_deviation(net, game, covering_profile(net), (1,)) is not None
    assert improving_deviation(net, game, minimal_profile(net), (1,)) is None
