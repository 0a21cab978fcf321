"""The fast route's integer scores, its bundle-guard skip and its scale.

The structural checker and the fixpoints score one player's move on
integers and search deletion bundles only for players who alone cover an
added non-player pair.  These tests hold that route to independent
references: subset enumeration over full utility vectors, the oracle, and
the closed forms at sizes far beyond the oracle budget.
"""

import itertools
import random
from fractions import Fraction as F

from hidenet import (
    GameSpec,
    OpCounter,
    PreconditionError,
    build_network,
    enumerate_feasible_graphs,
    greatest_closed_form,
    greatest_pans,
    is_pane,
    least_closed_form,
    least_pans,
    max_included_pans,
)
from hidenet.fixpoint import require_no_profitable_deletion
from hidenet.model import sole_cover_count, sole_covered_pairs, utilities_from_edges
from hidenet.moves import (
    bundles_can_pay,
    closure,
    drop_score,
    improving_pure_deletion,
    player_incident_edges,
    pure_deletion,
)

from conftest import complete_edges


def _enumerated_pure_deletion(net, game, i):
    """Best pure deletion of player i by trying every subset of her edges."""

    def u(edges):
        return utilities_from_edges(net.num_players, net.num_nodes, edges, game.alphas).of(i)

    base = u(net.edges)
    incident = sorted(e for e in net.edges if i in e)
    adjacency = player_incident_edges(net)
    best = None
    for r in range(1, len(incident) + 1):
        for drop in itertools.combinations(incident, r):
            new_edges = closure(net, [i], adjacency - set(drop), allow_new=False)
            assert new_edges == pure_deletion(net, i, {a + b - i for a, b in drop})
            gain = u(new_edges) - base
            if gain > 0 and (best is None or (-gain, r, drop) < best[0]):
                best = ((-gain, r, drop), new_edges)
    return None if best is None else best[1]


def _state_with_sole_covers(rng):
    n, m = rng.randint(2, 4), rng.randint(2, 5)
    edges = {e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.4}
    edges |= {
        (i, j) for i in range(1, n + 1) for j in range(n + 1, n + m + 1) if rng.random() < 0.5
    }
    for a, b in itertools.combinations(range(n + 1, n + m + 1), 2):
        covered = any((i, a) in edges and (i, b) in edges for i in range(1, n + 1))
        if covered and rng.random() < 0.8:
            edges.add((a, b))
    den = rng.randint(1, 4)
    game = GameSpec([F(rng.randint(0, den * (n + m + 1)), den) for _ in range(n)])
    return build_network(n, m, edges), game


def test_pure_deletion_search_matches_subset_enumeration():
    rng = random.Random(0xB0D)
    searched = bundle_only = 0
    for _ in range(500):
        net, game = _state_with_sole_covers(rng)
        for i in net.players:
            if not bundles_can_pay(net, i):
                continue
            searched += 1
            want = _enumerated_pure_deletion(net, game, i)
            assert improving_pure_deletion(net, game, i) == want
            singles_fail = all(drop_score(net, game, i, j) <= 0 for j in net.neighbours(i))
            if want is not None and singles_fail:
                bundle_only += 1
    # the bundles that no single-drop threshold sees are really exercised
    assert searched > 400 and bundle_only > 10


def test_players_without_sole_covers_have_additive_drops():
    rng = random.Random(0xADD)
    for _ in range(300):
        net, game = _state_with_sole_covers(rng)
        for i in net.players:
            if bundles_can_pay(net, i):
                continue
            singles_fail = all(drop_score(net, game, i, j) <= 0 for j in net.neighbours(i))
            assert (_enumerated_pure_deletion(net, game, i) is None) == singles_fail


def test_sole_cover_skip_against_oracle():
    # feasible states where some player alone covers an added non-player
    # pair: is_pane must match the oracle, and wherever the shrink's entry
    # check passes it must return the largest oracle-stable subgraph
    rng = random.Random(0x5C)
    checked = shrunk = moved = 0
    for _ in range(8):
        n, m = rng.choice([(2, 2), (2, 3), (3, 2)])
        den = rng.choice([1, 2, 3, 4])
        game = GameSpec([F(rng.randint(0, (n + m) * den), den) for _ in range(n)])
        fgs = enumerate_feasible_graphs(game, m)
        stable = set(fgs.pans_masks(1))
        stable_sets = [fgs.edges_of(t) for t in stable]
        for mask in fgs.masks:
            net = fgs.network(int(mask))
            if not any(sole_covered_pairs(net, i) for i in net.players):
                continue
            checked += 1
            assert is_pane(net, game).stable == (int(mask) in stable)
            try:
                out = max_included_pans(net, game)
            except PreconditionError:
                continue
            shrunk += 1
            below = [s for s in stable_sets if s <= net.edges]
            top = max(below, key=len)
            assert all(s <= top for s in below)
            assert out.edges == top
            moved += out.edges != net.edges
    assert checked > 1000 and shrunk > 30 and moved > 10


def _large_instance(rng, n, m):
    den = rng.choice([1, 2, 3, 4])
    game = GameSpec([F(rng.randint(0, 2 * (n + m) * den), den) for _ in range(n)])
    e0 = [e for e in itertools.combinations(range(n + 1, n + m + 1), 2) if rng.random() < 0.3]
    return game, e0


def test_greatest_closed_form_equals_fixpoint_up_to_n40():
    rng = random.Random(0x40)
    for n in (10, 20, 30, 40):
        for _ in range(3):
            m = n // 2
            game, e0 = _large_instance(rng, n, m)
            closed = greatest_closed_form(game, m, e0).predicted
            assert closed.edges == greatest_pans(game, m, e0).edges
    # one cheap player alone holds every non-player pair together
    lone = GameSpec([F(0)] + [F(100)] * 39)
    assert greatest_pans(lone, 20).edges == greatest_closed_form(lone, 20).predicted.edges


def test_least_closed_form_equals_fixpoint_up_to_n20():
    rng = random.Random(0x20)
    for n in (5, 10, 15, 20):
        for _ in range(2):
            m = n // 2
            game, e0 = _large_instance(rng, n, m)
            assert least_closed_form(game, m, e0).predicted.edges == least_pans(game, m, e0).edges


def test_shrink_work_is_polynomial_from_the_complete_graph():
    n, m = 12, 6
    full = build_network(n, m, complete_edges(n + m))
    rng = random.Random(0xC0)
    games = [_large_instance(rng, n, m)[0] for _ in range(5)]
    games.append(GameSpec([F(0)] + [F(100)] * (n - 1)))
    for game in games:
        counter = OpCounter()
        out = max_included_pans(full, game, counter=counter)
        assert is_pane(out, game).stable
        assert counter.ops <= (n + m) ** 3


def test_growth_entry_check_is_exact_on_pure_deletions():
    # the deletion conditions of is_pane raise exactly when some player
    # has a strictly improving pure deletion, bundles included; the tied
    # game sets each alpha_i to her cheapest single drop's loss, so that
    # only bundles can pay there
    rng = random.Random(0xE7)
    raised = bundle_only = kept = 0
    for _ in range(150):
        net, game = _state_with_sole_covers(rng)
        tied = GameSpec([
            min((net.degree(j) + sole_cover_count(net, j, i) for j in net.neighbours(i)),
                default=0)
            for i in net.players
        ])
        for g in (game, tied):
            offenders = [
                i for i in net.players if _enumerated_pure_deletion(net, g, i) is not None
            ]
            try:
                require_no_profitable_deletion(net, g)
            except PreconditionError as exc:
                raised += 1
                assert offenders and "profitable deletion" in str(exc)
                bundle_only += all(
                    drop_score(net, g, i, j) <= 0 for i in net.players for j in net.neighbours(i)
                )
            else:
                kept += 1
                assert not offenders
    assert raised > 100 and kept > 100 and bundle_only > 30
