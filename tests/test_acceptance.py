"""Acceptance suite: ten exact criteria, one pass/fail line each.

Everything is exact rational arithmetic, so every comparison is at
tolerance zero; the only non-exact assertions are wall-clock ceilings.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import math
import random
import time
from fractions import Fraction as F

from hidenet import (
    GameSpec,
    enumerate_feasible_graphs,
    enumerate_lattice,
    exhaustive_stability,
    greatest_pans,
    is_k_strong,
    is_pane,
    join_pans,
    least_pans,
    max_social_welfare,
    utility,
)
from hidenet.analytics import (
    additive_bound,
    check_equal_alpha,
    check_one_distinct,
    efficiency,
    equal_alpha_efficiency,
    equal_alpha_max_sw,
    greatest_closed_form,
    least_closed_form,
    monotonicity_check,
    strength_equivalences,
)
from hidenet.detection import detect_infiltration
from hidenet.model import utilities_from_edges

from conftest import complete_edges


def report(num: int, text: str) -> None:
    print(f"[criterion {num:2d}] PASS  {text}")


def test_criterion_01_example_one(example1):
    start = time.monotonic()
    net, game = example1
    u = utility(net, game)
    assert u.per_player == (F(3), F(3))
    assert not is_pane(net, game).stable
    k5 = frozenset(complete_edges(5))
    assert least_pans(game, 3).edges == k5
    assert greatest_pans(game, 3).edges == k5
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"u=(3,3) exactly, unstable, least=greatest=K5 ({elapsed:.2f}s < 1s)")


def test_criterion_02_fig2_lattice(fig2_game):
    start = time.monotonic()
    triangles = {
        frozenset({(a, b), (a, c), (b, c)})
        for a, b, c in [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    }
    expected = {frozenset()} | triangles | {frozenset(complete_edges(4))}
    for k in (1, 2):
        summary = enumerate_lattice(fig2_game, 0, k=k)
        assert {n.edges for n in summary.elements} == expected
    hasse = enumerate_lattice(fig2_game, 0, k=1).hasse_edges
    assert hasse == [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 5), (3, 5), (4, 5)]
    for k in (3, 4):
        summary = enumerate_lattice(fig2_game, 0, k=k)
        assert [n.edges for n in summary.elements] == [frozenset(complete_edges(4))]
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(2, f"k in {{1,2}}: empty+4 triangles+K4; k in {{3,4}}: K4 only ({elapsed:.2f}s < 5s)")


def test_criterion_03_fig3_strength_strata(fig3_game, fig3_graphs):
    start = time.monotonic()
    g1, g2, g3 = fig3_graphs
    assert is_k_strong(g1, fig3_game, 3).stable
    assert is_k_strong(g2, fig3_game, 2).stable
    assert not is_k_strong(g2, fig3_game, 3).stable
    assert is_k_strong(g3, fig3_game, 5).stable
    # independent route: the mask oracle
    assert exhaustive_stability(g1, fig3_game, 3).stable
    assert not exhaustive_stability(g2, fig3_game, 3).stable
    assert exhaustive_stability(g3, fig3_game, 5).stable
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(3, f"G1 3-strong, G2 2- but not 3-strong, G3 5-strong ({elapsed:.2f}s < 60s)")


def test_criterion_04_example5_efficiency(example5_game):
    summary = enumerate_lattice(example5_game, 0, k=1)
    assert [n.edges for n in summary.elements] == [frozenset()]
    rep = efficiency(example5_game, 0, k=1)
    assert rep.max_sw == F(1, 2)
    assert rep.pos == math.inf
    report(4, "unique stable graph is empty, max_sw=1/2, PoS=+inf exactly")


def test_criterion_05_closed_forms_equal_algorithms():
    start = time.monotonic()
    rng = random.Random(0xC5)
    for trial in range(200):
        n = rng.randint(2, 5)
        m = rng.randint(0, 3)
        den = rng.choice([1, 2, 3, 4, 6])
        game = GameSpec([F(rng.randint(0, 8 * den), den) for _ in range(n)])
        e0 = [
            (a, b)
            for a in range(n + 1, n + m + 1)
            for b in range(a + 1, n + m + 1)
            if rng.random() < 0.3
        ]
        assert greatest_closed_form(game, m, e0).predicted.edges == greatest_pans(game, m, e0).edges
        assert least_closed_form(game, m, e0).predicted.edges == least_pans(game, m, e0).edges
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(5, f"200 random instances, closed forms == fixpoints edge-exact ({elapsed:.1f}s < 300s)")


def _oracle_sizes(rng):
    return rng.choice([(2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2)])


def test_criterion_06_characterisations_equal_oracle():
    start = time.monotonic()
    rng = random.Random(0xC6)
    for trial in range(100):
        n, m = _oracle_sizes(rng)
        den = rng.choice([1, 2, 3, 4])
        game = GameSpec([F(rng.randint(0, 8 * den), den)] * n)
        e0 = [
            (a, b)
            for a in range(n + 1, n + m + 1)
            for b in range(a + 1, n + m + 1)
            if rng.random() < 0.3
        ]
        fgs = enumerate_feasible_graphs(game, m, e0)
        stable = set(fgs.pans_masks(1))
        for mask in fgs.masks:
            mask = int(mask)
            assert check_equal_alpha(fgs.network(mask), game)[0] == (mask in stable)
    for trial in range(100):
        n, m = _oracle_sizes(rng)
        den = rng.choice([2, 3, 4])
        shared = F(rng.randint(0, den - 1), den)
        game = GameSpec([F(rng.randint(0, 8 * den), den)] + [shared] * (n - 1))
        fgs = enumerate_feasible_graphs(game, m)
        stable = set(fgs.pans_masks(1))
        strong2 = set(fgs.pans_masks(2)) if trial < 25 else None
        for mask in fgs.masks:
            mask = int(mask)
            net = fgs.network(mask)
            assert check_one_distinct(net, game) == (mask in stable)
            if strong2 is not None:
                assert check_one_distinct(net, game, k=2) == (mask in strong2)
    elapsed = time.monotonic() - start
    report(6, f"100+100 random instances, characterisations == oracle everywhere ({elapsed:.1f}s)")


def _law_instances():
    rng = random.Random(0xC7)
    fixtures = [
        (GameSpec([F(3, 2)] * 4), 0, []),
        (GameSpec([F("1.1")] * 3 + [F("3.1")] * 2), 0, []),
        (GameSpec((F(0), F(3, 2))), 0, []),
        (GameSpec((F(1), F(1, 2))), 3, []),
    ]
    for _ in range(6):
        n, m = rng.choice([(2, 1), (2, 2), (3, 0), (3, 1), (3, 2)])
        den = rng.choice([1, 2, 4])
        game = GameSpec([F(rng.randint(0, 8 * den), den) for _ in range(n)])
        e0 = [
            (a, b)
            for a in range(n + 1, n + m + 1)
            for b in range(a + 1, n + m + 1)
            if rng.random() < 0.3
        ]
        fixtures.append((game, m, e0))
    return fixtures


def test_criterion_07_structural_law_suites():
    start = time.monotonic()
    rng = random.Random(0x7777)
    for game, m, e0 in _law_instances():
        n = game.num_players
        fgs = enumerate_feasible_graphs(game, m, e0)
        # utility monotonicity with equality characterisation over NS pairs
        nash = fgs.nash_flags(1)
        ns = [int(t) for t in fgs.masks if nash[t]]
        sets = {mask: fgs.edges_of(mask) for mask in ns}
        pairs = [(a, b) for a, b in itertools.permutations(ns, 2) if sets[b] < sets[a]]
        for a, b in rng.sample(pairs, min(len(pairs), 120)):
            rep = monotonicity_check(fgs.network(a), fgs.network(b), game)
            assert rep.all_nonnegative and rep.consistent
        # nesting of stronger stable sets
        previous = None
        for k in range(1, n + 1):
            current = set(fgs.pans_masks(k))
            if previous is not None:
                assert current <= previous
            previous = current
        # strength <=> per-player maximum utility, identical strong utilities,
        # effective uniqueness
        for k in range(1, n + 1):
            assert strength_equivalences(game, m, e0, k=k).all_hold
        # single-deletion sufficiency and mixed-change reduction on edge sets
        alphas = game.alphas
        nodes = n + m
        sample = rng.sample(sorted(int(t) for t in fgs.masks), min(25, len(fgs)))
        for mask in sample:
            base = fgs.edges_of(mask)
            incident = sorted(e for e in base if e[0] <= n or e[1] <= n)
            for _ in range(10):
                if not incident:
                    break
                drop = frozenset(rng.sample(incident, rng.randint(1, len(incident))))
                members = sorted({i for e in drop for i in e if i <= n})
                gains = {
                    i: utilities_from_edges(n, nodes, base - drop, alphas).of(i)
                    - utilities_from_edges(n, nodes, base, alphas).of(i)
                    for i in members
                }
                if all(g >= 0 for g in gains.values()) and any(g > 0 for g in gains.values()):
                    assert any(
                        utilities_from_edges(n, nodes, base - {e}, alphas).of(i)
                        > utilities_from_edges(n, nodes, base, alphas).of(i)
                        for i in range(1, n + 1)
                        for e in base
                        if i in e
                    )
            pool = complete_edges(nodes)
            adds = frozenset(e for e in pool if e not in base and rng.random() < 0.5)
            drops = frozenset(e for e in base if rng.random() < 0.5)
            for i in range(1, n + 1):
                u0 = utilities_from_edges(n, nodes, base, alphas).of(i)
                mixed = utilities_from_edges(n, nodes, (base | adds) - drops, alphas).of(i)
                if mixed > u0:
                    assert (
                        utilities_from_edges(n, nodes, base | adds, alphas).of(i) > u0
                        or utilities_from_edges(n, nodes, base - drops, alphas).of(i) > u0
                    )
                # complementarity of additions
                small = frozenset(e for e in base if rng.random() < 0.6)
                gain_large = (
                    utilities_from_edges(n, nodes, base | adds, alphas).of(i) - u0
                )
                gain_small = utilities_from_edges(n, nodes, small | adds, alphas).of(
                    i
                ) - utilities_from_edges(n, nodes, small, alphas).of(i)
                assert gain_large >= gain_small
    elapsed = time.monotonic() - start
    report(7, f"monotonicity, nesting, strength, deletion/mixed-change laws hold ({elapsed:.1f}s)")


def test_criterion_08_formula_checks(fig2_game, example5_game):
    equal_fixtures = [(4, 0, F(3, 2)), (2, 1, F(1)), (3, 2, F(2)), (2, 3, F(1, 2)), (3, 1, F(5, 2)), (2, 2, F(7, 2))]
    for n, m, a in equal_fixtures:
        game = GameSpec([a] * n)
        assert equal_alpha_max_sw(n, m, a) == max_social_welfare(game, m)[0]
    rep = equal_alpha_efficiency(fig2_game, 0)
    assert rep.max_sw == 18 and rep.pos == 1 and rep.poa == math.inf
    low = equal_alpha_efficiency(GameSpec([F(1, 2)] * 3), 0, k=3)
    assert low.poa == low.pos == 1
    high = equal_alpha_efficiency(GameSpec([F(4)] * 2), 0, k=2)
    assert high.poa == high.pos == 1
    # additive bound never violated: named instances plus a random sweep
    fig2_eff = efficiency(fig2_game, 0)
    assert additive_bound(fig2_game, 0) == 42 and fig2_eff.max_sw - F(0) == 18 <= 42
    ex5_eff = efficiency(example5_game, 0)
    assert additive_bound(example5_game, 0) == 1 and ex5_eff.max_sw - ex5_eff.min_eq_sw == F(1, 2)
    rng = random.Random(0xC8)
    for _ in range(12):
        n, m = _oracle_sizes(rng)
        den = rng.choice([1, 2, 3])
        game = GameSpec([F(rng.randint(0, 8 * den), den) for _ in range(n)])
        fgs = enumerate_feasible_graphs(game, m)
        nash = fgs.nash_flags(1)
        worst_ns = min(fgs.utilities(int(t)).sw for t in fgs.masks if nash[t])
        assert max_social_welfare(game, m)[0] - worst_ns <= additive_bound(game, m)
    report(8, "optimum formula == oracle, price cases reproduced, additive bound holds")


def test_criterion_09_lattice_axioms(fig2_game, fig3_game, example5_game, example1):
    # enumerate_lattice verifies join/meet against LUB/GLB, least/greatest
    # bounds, and nesting internally; any violation raises
    _, game1 = example1
    jobs = [
        (fig2_game, 0, [], (1, 2, 3, 4)),
        (fig3_game, 0, [], (1, 2, 3)),
        (example5_game, 0, [], (1, 2)),
        (game1, 3, [], (1, 2)),
    ]
    for game, m, e0, ks in jobs:
        for k in ks:
            summary = enumerate_lattice(game, m, e0, k=k)
            assert summary.elements
    # joins agree across strength levels: a join of two (k+1)-strong states
    # is again (k+1)-strong and equals the k-level join
    fgs = enumerate_feasible_graphs(fig2_game, 0)
    for k in (1, 2, 3):
        stronger = fgs.pans_masks(k + 1)
        for a, b in itertools.combinations(stronger, 2):
            joined = join_pans(fig2_game, fgs.network(a), fgs.network(b))
            assert fgs.mask_of(joined.edges) in set(fgs.pans_masks(k + 1))
    report(9, "join/meet are LUB/GLB on every fixture; joins agree across strengths")


def test_criterion_10_detection(fig2_game, fig3_game, example1):
    rep = detect_infiltration(6, complete_edges(4), F(5, 2), 0)
    assert rep.matches_signature
    assert rep.prior_probability == F(1, 32)
    assert rep.suspected_players == frozenset({5, 6})
    _, game1 = example1
    games = [(fig2_game, 0), (fig3_game, 0), (game1, 3)]
    rng = random.Random(0xCA)
    for _ in range(20):
        n = rng.randint(2, 5)
        m = rng.randint(0, 3)
        den = rng.choice([1, 2, 4])
        games.append((GameSpec([F(rng.randint(0, 8 * den), den) for _ in range(n)]), m))
    closed = 0
    for game, m in games:
        predicted = greatest_closed_form(game, m).predicted
        if not predicted.edges:
            continue
        assert detect_infiltration(predicted.num_nodes, predicted.edges, slack=0).matches_signature
        closed += 1
    assert closed >= 3
    report(10, f"prior 1/32 with exact suspects; loop closed on {closed} nontrivial shapes")
