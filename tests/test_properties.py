"""Invariant sweeps: seeded randomised checks of the model's laws.

Edge-calculus facts (complementarity, no-mixed-change, single-deletion
sufficiency) are checked on raw edge sets; game-level facts (fixpoint
monotonicity, verifier agreement, utility monotonicity along inclusions,
strength equivalences) are checked against the enumerating oracle.
"""

import itertools
import random
from fractions import Fraction as F

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hidenet import (
    GameSpec,
    OpCounter,
    build_network,
    enumerate_feasible_graphs,
    is_k_nash,
    is_k_strong,
    is_pane,
    max_included_pans,
    min_including_pans,
    utility,
)
from hidenet.analytics import monotonicity_check, strength_equivalences
from hidenet.model import utilities_from_edges
from hidenet.moves import move_count_bound

from conftest import complete_edges, random_instance, relabel_edges, relabel_game
from strategic import minimal_profile, resulting_network


def _u(num_players, num_nodes, edges, alphas, i):
    return utilities_from_edges(num_players, num_nodes, frozenset(edges), alphas).of(i)


def _random_edge_sets(rng, num_nodes):
    pool = complete_edges(num_nodes)
    base = frozenset(e for e in pool if rng.random() < 0.4)
    extra = frozenset(e for e in pool if e not in base and rng.random() < 0.5)
    rest = [e for e in pool if e not in base | extra]
    addition = frozenset(e for e in rest if rng.random() < 0.5)
    return base, base | extra, addition


def test_edge_addition_complementarity():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randint(2, 4)
        nodes = n + rng.randint(0, 2)
        alphas = [F(rng.randint(0, 12), rng.choice([1, 2, 3])) for _ in range(n)]
        small, large, extra = _random_edge_sets(rng, nodes)
        for i in range(1, n + 1):
            gain_large = _u(n, nodes, large | extra, alphas, i) - _u(n, nodes, large, alphas, i)
            gain_small = _u(n, nodes, small | extra, alphas, i) - _u(n, nodes, small, alphas, i)
            assert gain_large >= gain_small


def test_no_mixed_change_observation():
    # a profitable add-and-delete move implies a profitable pure move
    rng = random.Random(202)
    for _ in range(400):
        n = rng.randint(2, 4)
        nodes = n + rng.randint(0, 2)
        alphas = [F(rng.randint(0, 12), rng.choice([1, 2, 4])) for _ in range(n)]
        pool = complete_edges(nodes)
        base = frozenset(e for e in pool if rng.random() < 0.5)
        adds = frozenset(e for e in pool if e not in base and rng.random() < 0.5)
        drops = frozenset(e for e in base if rng.random() < 0.5)
        for i in range(1, n + 1):
            u0 = _u(n, nodes, base, alphas, i)
            mixed = _u(n, nodes, (base | adds) - drops, alphas, i)
            if mixed > u0:
                pure_add = _u(n, nodes, base | adds, alphas, i)
                pure_del = _u(n, nodes, base - drops, alphas, i)
                assert pure_add > u0 or pure_del > u0


def test_single_deletion_sufficiency():
    # an improving group deletion implies an improving single-edge deletion
    rng = random.Random(303)
    for _ in range(400):
        n = rng.randint(2, 4)
        nodes = n + rng.randint(0, 2)
        alphas = [F(rng.randint(0, 12), rng.choice([1, 2, 3])) for _ in range(n)]
        pool = complete_edges(nodes)
        base = frozenset(e for e in pool if rng.random() < 0.6)
        players = list(range(1, n + 1))
        coalition = rng.sample(players, rng.randint(1, n))
        incident = [e for e in base if any(i in e for i in coalition)]
        if not incident:
            continue
        drop = frozenset(rng.sample(incident, rng.randint(1, len(incident))))
        after = base - drop
        gains = {i: _u(n, nodes, after, alphas, i) - _u(n, nodes, base, alphas, i) for i in coalition}
        if all(g >= 0 for g in gains.values()) and any(g > 0 for g in gains.values()):
            found = False
            for i in players:
                for e in base:
                    if i in e and _u(n, nodes, base - {e}, alphas, i) > _u(n, nodes, base, alphas, i):
                        found = True
            assert found


def _stable_inputs(rng, count, **kwargs):
    out = []
    while len(out) < count:
        game, m, e0 = random_instance(rng, **kwargs)
        out.append((game, m, e0))
    return out


def test_fixpoints_bracket_input_and_stabilise():
    rng = random.Random(404)
    for game, m, e0 in _stable_inputs(rng, 25, max_players=4, max_nonplayers=2):
        n = game.num_players
        empty = build_network(n, m, e0, e0)
        grown = min_including_pans(empty, game)
        assert empty.edges <= grown.edges
        assert is_pane(grown, game).stable
        full = build_network(n, m, complete_edges(n + m), e0)
        shrunk = max_included_pans(full, game)
        assert shrunk.edges <= full.edges
        assert is_pane(shrunk, game).stable
        assert shrunk.edges >= grown.edges  # least below greatest


def test_fixpoint_order_independence_random():
    rng = random.Random(505)
    for game, m, e0 in _stable_inputs(rng, 10, max_players=4, max_nonplayers=2):
        n = game.num_players
        empty = build_network(n, m, e0, e0)
        full = build_network(n, m, complete_edges(n + m), e0)
        grown = min_including_pans(empty, game).edges
        shrunk = max_included_pans(full, game).edges
        for perm in list(itertools.permutations(range(1, n + 1)))[:6]:
            renamed = relabel_game(perm, game)
            assert min_including_pans(empty, renamed).edges == relabel_edges(perm, grown)
            assert max_included_pans(full, renamed).edges == relabel_edges(perm, shrunk)


def test_verifier_agreement_with_oracle():
    # the structural test, the search, and the mask oracle must coincide
    rng = random.Random(606)
    for game, m, e0 in _stable_inputs(rng, 8, max_players=3, max_nonplayers=2):
        fgs = enumerate_feasible_graphs(game, m, e0)
        pans = set(fgs.pans_masks(1))
        for mask in fgs.masks:
            mask = int(mask)
            net = fgs.network(mask)
            assert bool(is_pane(net, game)) == (mask in pans)
        two = set(fgs.pans_masks(2))
        sample = rng.sample(sorted(int(t) for t in fgs.masks), min(12, len(fgs)))
        for mask in sample:
            net = fgs.network(mask)
            assert bool(is_k_strong(net, game, 2)) == (mask in two)


def test_pairwise_explicit_check_redundant_for_k2():
    rng = random.Random(707)
    for game, m, e0 in _stable_inputs(rng, 6, max_players=3, max_nonplayers=1):
        fgs = enumerate_feasible_graphs(game, m, e0)
        for mask in fgs.masks:
            net = fgs.network(int(mask))
            nash2 = is_k_nash(net, game, 2).stable
            assert nash2 == is_k_strong(net, game, 2).stable
            if nash2:
                assert not fgs._blocking_pairs(np.array([mask])).any()


def test_utility_monotone_along_stable_inclusions():
    rng = random.Random(808)
    instances = [(GameSpec([F(3, 2)] * 4), 0, [])] + _stable_inputs(
        rng, 6, max_players=3, max_nonplayers=2
    )
    for game, m, e0 in instances:
        fgs = enumerate_feasible_graphs(game, m, e0)
        nash = fgs.nash_flags(1)
        ns = [int(t) for t in fgs.masks if nash[t]]
        sets = {mask: fgs.edges_of(mask) for mask in ns}
        for a, b in itertools.permutations(ns, 2):
            if sets[b] < sets[a]:
                report = monotonicity_check(fgs.network(a), fgs.network(b), game)
                assert report.all_nonnegative
                assert report.consistent


def test_strength_equivalences_random():
    rng = random.Random(909)
    for game, m, e0 in _stable_inputs(rng, 6, max_players=3, max_nonplayers=2):
        for k in (1, 2):
            assert strength_equivalences(game, m, e0, k=k).all_hold


def test_nesting_across_strength():
    rng = random.Random(111)
    for game, m, e0 in _stable_inputs(rng, 6, max_players=3, max_nonplayers=2):
        fgs = enumerate_feasible_graphs(game, m, e0)
        previous = None
        for k in range(1, game.num_players + 1):
            current = set(fgs.pans_masks(k))
            if previous is not None:
                assert current <= previous
            previous = current


def test_join_stays_in_stronger_lattices():
    # the join computed by the growth fixpoint is the bound at every
    # strength level at which both operands live
    from hidenet.lattice import join_pans

    game = GameSpec([F(3, 2)] * 4)
    fgs = enumerate_feasible_graphs(game, 0)
    for k in (1, 2):
        masks = fgs.pans_masks(k)
        nets = [fgs.network(t) for t in masks]
        for a, b in itertools.combinations(nets, 2):
            joined = join_pans(game, a, b)
            mask = fgs.mask_of(joined.edges)
            assert mask in set(fgs.pans_masks(k))


def test_inclusive_target_reading_is_the_correct_one():
    # connecting to every non-player at once can pay while every proper
    # subset loses; a reading that excludes the full set misses the move
    game = GameSpec([F(3, 2)] * 2)
    net = build_network(2, 2, [])
    verdict = is_pane(net, game)
    assert not verdict.stable
    assert verdict.condition == "nonplayer-set-addition"
    assert verdict.witness.deltas[1] == F(1)
    from hidenet import exhaustive_stability

    assert not exhaustive_stability(net, game, 1).stable
    # every single-target move loses: deg 1 against alpha 3/2
    from hidenet.stability import _set_addition_gain

    gain_one, _ = _set_addition_gain(net, game, 1, (3,))
    gain_both, _ = _set_addition_gain(net, game, 1, (3, 4))
    assert gain_one < 0 < gain_both


def test_runtime_stays_under_cubic_budget():
    # coarse instrumented bound: (n+m)^3 * n * (n + m^2 * 2^m)
    for n, m in [(4, 0), (3, 2), (2, 3), (5, 0)]:
        game = GameSpec([F(3, 2)] * n)
        counter = OpCounter()
        net = build_network(n, m, [])
        min_including_pans(net, game, counter=counter)
        full = build_network(n, m, complete_edges(n + m))
        max_included_pans(full, game, counter=counter)
        bound = (n + m) ** 3 * n * (n + m * m * 2**m)
        assert counter.ops <= bound


def test_move_budget_bound_is_safe(fig3_game):
    net = build_network(5, 0, [])
    assert move_count_bound(net, 5) >= 31


@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=2),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_hypothesis_utilities_ignore_attribution(n, m, data):
    pool = complete_edges(n + m)
    edges = data.draw(st.sets(st.sampled_from(pool)) if pool else st.just(set()))
    try:
        net = build_network(n, m, edges)
    except Exception:
        return
    game = GameSpec([F(1, 2)] * n)
    base = utility(net, game)
    nonplayer_pairs = sorted(e for e in net.added_edges if not net.is_player(e[0]))
    for e in nonplayer_pairs:
        common = set(net.neighbours(e[0])) & set(net.neighbours(e[1]))
        for k in sorted(v for v in common if net.is_player(v)):
            relabeled = build_network(n, m, net.edges, sustainers={e: k})
            assert utility(relabeled, game) == base


@given(st.integers(min_value=2, max_value=4), st.data())
@settings(max_examples=60, deadline=None)
def test_hypothesis_minimal_profile_roundtrip(n, data):
    m = data.draw(st.integers(min_value=0, max_value=2))
    pool = complete_edges(n + m)
    edges = data.draw(st.sets(st.sampled_from(pool)) if pool else st.just(set()))
    try:
        net = build_network(n, m, edges)
    except Exception:
        return
    prof = minimal_profile(net)
    again = resulting_network(prof, n, m, net.original_edges)
    assert again.edges == net.edges
    assert again.sustainers == net.sustainers
