import itertools
import random
from fractions import Fraction as F

import pytest

from hidenet import GameSpec, build_network


def complete_edges(num_nodes):
    return [(a, b) for a, b in itertools.combinations(range(1, num_nodes + 1), 2)]


def relabel_game(perm, game):
    """The game with player i renamed perm[i - 1]."""
    alphas = [None] * len(perm)
    for i, alpha in zip(perm, game.alphas):
        alphas[i - 1] = alpha
    return GameSpec(alphas)


def relabel_edges(perm, edges):
    """``edges`` with player i renamed perm[i - 1]; non-players keep their labels."""
    name = {i: j for i, j in enumerate(perm, start=1)}
    return frozenset(
        tuple(sorted((name.get(a, a), name.get(b, b)))) for a, b in edges
    )


@pytest.fixture
def example1():
    """Two infiltrators, three bystanders, the played (unstable) state."""
    game = GameSpec((F(1), F(1, 2)))
    net = build_network(
        2, 3, [(1, 2), (1, 3), (1, 4), (3, 4), (2, 5)], sustainers={(3, 4): 1}
    )
    return net, game


@pytest.fixture
def example2_game():
    return GameSpec((F(1, 10), F(2)))


@pytest.fixture
def fig2_game():
    return GameSpec([F(3, 2)] * 4)


@pytest.fixture
def fig3_game():
    return GameSpec([F("1.1")] * 3 + [F("3.1")] * 2)


@pytest.fixture
def fig3_graphs():
    g1 = build_network(5, 0, [(1, 2), (1, 3), (2, 3)])
    g2 = build_network(5, 0, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (1, 4), (1, 5)])
    g3 = build_network(5, 0, complete_edges(5))
    return g1, g2, g3


@pytest.fixture
def example5_game():
    """One player connects for free, the other demands 3/2 per edge."""
    return GameSpec((F(0), F(3, 2)))


def random_instance(rng: random.Random, max_players=3, max_nonplayers=3, equal=False,
                    one_distinct=False):
    """A seeded random game within the oracle budget."""
    n = rng.randint(2, max_players)
    m = rng.randint(0, max_nonplayers)
    den = rng.choice([1, 2, 3, 4])
    if equal:
        alphas = [F(rng.randint(0, 8 * den), den)] * n
    elif one_distinct:
        shared = F(rng.randint(0, den - 1), den)
        alphas = [F(rng.randint(0, 8 * den), den)] + [shared] * (n - 1)
    else:
        alphas = [F(rng.randint(0, 8 * den), den) for _ in range(n)]
    e0 = [
        (a, b)
        for a in range(n + 1, n + m + 1)
        for b in range(a + 1, n + m + 1)
        if rng.random() < 0.3
    ]
    return GameSpec(alphas), m, e0
