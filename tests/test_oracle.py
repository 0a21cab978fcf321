import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest

from hidenet import (
    BudgetExceededError,
    GameSpec,
    ValidationError,
    build_network,
    cross_validate,
    efficiency,
    enumerate_feasible_graphs,
    enumerate_lattice,
    exhaustive_stability,
    is_k_strong,
    is_pane,
    max_social_welfare,
    strength_equivalences,
    utility,
)
from hidenet import oracle
from hidenet.oracle import candidate_edge_count

from conftest import complete_edges, random_instance
from strategic import improving_coalition_move


def test_two_player_space():
    game = GameSpec((F(1), F(1)))
    fgs = enumerate_feasible_graphs(game, 0)
    assert len(fgs) == 2


def test_fig2_space_has_64_graphs(fig2_game):
    assert len(enumerate_feasible_graphs(fig2_game, 0)) == 64


def test_feasibility_filter_matches_direct_count():
    # every subset of the 7 candidate edges whose non-player edge is
    # covered by a common player neighbour, recounted by brute force
    game = GameSpec((F(1), F(1)))
    fgs = enumerate_feasible_graphs(game, 2)
    import itertools

    cand = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    count = 0
    for r in range(len(cand) + 1):
        for subset in itertools.combinations(cand, r):
            es = set(subset)
            if (3, 4) in es and not (
                {(1, 3), (1, 4)} <= es or {(2, 3), (2, 4)} <= es
            ):
                continue
            count += 1
    assert len(fgs) == count == 46


def test_budget_guard(monkeypatch):
    game = GameSpec([F(1)] * 5)
    assert candidate_edge_count(5, 3) == 28
    with pytest.raises(BudgetExceededError):
        enumerate_feasible_graphs(game, 3)
    monkeypatch.setenv("HIDENET_ORACLE_BUDGET", "10")
    with pytest.raises(BudgetExceededError):
        enumerate_feasible_graphs(game, 2)


def test_budget_counts_only_the_pairs_outside_e0(monkeypatch):
    # 21 node pairs, three of them original: 2^18 graphs, within the default
    game, e0 = GameSpec([F(1)] * 4), [(5, 6), (5, 7), (6, 7)]
    assert len(oracle.FeasibleGraphSet(game, 3, e0).cand) == 18
    monkeypatch.setenv("HIDENET_ORACLE_BUDGET", "17")
    with pytest.raises(BudgetExceededError, match=r"\(2\^18 = 262144 graphs\)$"):
        oracle.FeasibleGraphSet(game, 3, e0)
    # E0 is validated before the budget is checked
    with pytest.raises(ValidationError, match="touches a player"):
        oracle.FeasibleGraphSet(game, 3, [(1, 5)])
    with pytest.raises(ValidationError, match="unknown nodes"):
        oracle.FeasibleGraphSet(game, 0, [(5, 6)])


def test_budget_refuses_a_huge_instance_before_listing_its_pairs():
    # 5 * 10^11 node pairs: listing them, or printing 2^count, would not finish
    with pytest.raises(BudgetExceededError, match=r"\(2\^500001500001 graphs\)$"):
        oracle.FeasibleGraphSet(GameSpec([1, 1]), 10**6)


def test_budget_env_override(monkeypatch, fig2_game):
    monkeypatch.setenv("HIDENET_ORACLE_BUDGET", "3")
    with pytest.raises(BudgetExceededError):
        enumerate_feasible_graphs(fig2_game, 0)


def test_exhaustive_stability_examples(fig2_game, fig3_game, fig3_graphs):
    tri = build_network(4, 0, [(1, 2), (1, 3), (2, 3)])
    assert exhaustive_stability(tri, fig2_game, 1).stable
    empty = build_network(4, 0, [])
    verdict = exhaustive_stability(empty, fig2_game, 3)
    assert not verdict.stable
    assert sorted(verdict.witness.deltas.values()) == [F(1), F(1), F(1)]
    _, g2, _ = fig3_graphs
    assert not exhaustive_stability(g2, fig3_game, 3).stable


def test_max_social_welfare_examples(fig2_game, example5_game):
    value, witness = max_social_welfare(fig2_game, 0)
    assert value == 18 and witness.edges == frozenset(complete_edges(4))
    value, witness = max_social_welfare(example5_game, 0)
    assert value == F(1, 2) and witness.edges == frozenset({(1, 2)})
    big = GameSpec((F(9), F(7)))
    value, witness = max_social_welfare(big, 0)
    assert value == 0 and witness.edges == frozenset()


def test_max_social_welfare_agrees_with_utilities(fig2_game):
    fgs = enumerate_feasible_graphs(fig2_game, 0)
    best = max(fgs.utilities(int(t)).sw for t in fgs.masks)
    assert best == max_social_welfare(fig2_game, 0)[0]


def test_utilities_table_matches_model(example1):
    net, game = example1
    fgs = enumerate_feasible_graphs(game, 3)
    mask = fgs.mask_of(net.edges)
    assert fgs.utilities(mask) == utility(net, game)


def test_cross_validate_fig2(fig2_game):
    report = cross_validate(fig2_game, 0, max_k=2)
    assert report.clean
    assert report.pans_counts == {1: 6, 2: 6, 3: 1, 4: 1}


def test_cross_validate_fig3_strata(fig3_game, fig3_graphs):
    report = cross_validate(fig3_game, 0, max_k=1)
    assert report.clean
    assert report.pans_counts[1] == report.pans_counts[2] == 6
    assert report.pans_counts[3] == 2 and report.pans_counts[5] == 1
    fgs = enumerate_feasible_graphs(fig3_game, 0)
    g1, g2, g3 = fig3_graphs
    masks = {k: set(fgs.pans_masks(k)) for k in (1, 2, 3, 5)}
    m1, m2, m3 = (fgs.mask_of(g.edges) for g in fig3_graphs)
    assert {m1, m2, m3} <= masks[1] and {m1, m2, m3} <= masks[2]
    assert m1 in masks[3] and m2 not in masks[3] and m3 in masks[3]
    assert masks[5] == {m3}


def test_cross_validate_random_instance_seeded():
    import random

    rng = random.Random(20240817)
    game, m, e0 = random_instance(rng, max_players=3, max_nonplayers=2)
    report = cross_validate(game, m, e0, max_k=2)
    assert report.clean


def test_oracle_reports_are_deterministic(fig2_game):
    from hidenet.reports import cross_validation_dict, to_json

    a = to_json(cross_validation_dict(cross_validate(fig2_game, 0, max_k=2)))
    b = to_json(cross_validation_dict(cross_validate(fig2_game, 0, max_k=2)))
    assert a == b


def test_witness_replay_through_model(fig3_game, fig3_graphs):
    _, g2, _ = fig3_graphs
    move = exhaustive_stability(g2, fig3_game, 3).witness
    before = utility(g2, fig3_game)
    after = utility(move.result, fig3_game)
    for i in move.coalition:
        assert after.of(i) - before.of(i) == move.deltas[i]
    rebuilt = g2.with_edges((g2.edges - move.deleted_edges) | move.added_edges)
    assert rebuilt.edges == move.result.edges


def _count_builds(monkeypatch) -> list:
    """Clear the shared space, then record every ``FeasibleGraphSet`` build."""
    oracle._shared_space.cache_clear()
    built = []
    init = oracle.FeasibleGraphSet.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(oracle.FeasibleGraphSet, "__init__", counting_init)
    return built


def test_oracle_backed_calls_share_one_space(monkeypatch, fig2_game):
    built = _count_builds(monkeypatch)
    assert efficiency(fig2_game, 0).max_sw == 18
    assert strength_equivalences(fig2_game, 0).all_hold
    assert len(enumerate_lattice(fig2_game, 0, (), 2).elements) == 6
    assert max_social_welfare(fig2_game, 0)[0] == 18
    assert cross_validate(fig2_game, 0, max_k=2).clean
    tri = build_network(4, 0, [(1, 2), (1, 3), (2, 3)])
    assert exhaustive_stability(tri, fig2_game, 2).stable
    assert len(built) == 1


def test_lowered_budget_after_a_cached_build_still_raises(monkeypatch, fig2_game):
    enumerate_feasible_graphs(fig2_game, 0)
    monkeypatch.setenv("HIDENET_ORACLE_BUDGET", "5")
    with pytest.raises(BudgetExceededError, match=r"\(2\^6 = 64 graphs\)$"):
        enumerate_feasible_graphs(fig2_game, 0)
    with pytest.raises(BudgetExceededError):
        efficiency(fig2_game, 0)


def test_original_edges_in_any_order_or_form_reuse_the_space(monkeypatch):
    game = GameSpec((F(1), F(2)))
    built = _count_builds(monkeypatch)
    first = enumerate_feasible_graphs(game, 3, ((3, 4), (4, 5)))
    assert enumerate_feasible_graphs(game, 3, [[5, 4], [4, 3]]) is first
    assert enumerate_feasible_graphs(game, 3, {(4, 5), (3, 4)}) is first
    assert len(built) == 1


def test_a_second_instance_evicts_the_first(monkeypatch, fig2_game, example5_game):
    built = _count_builds(monkeypatch)
    first = enumerate_feasible_graphs(fig2_game, 0)
    assert enumerate_feasible_graphs(example5_game, 0) is not first
    again = enumerate_feasible_graphs(fig2_game, 0)
    assert again is not first and len(built) == 3
    assert again.pans_masks(1) == first.pans_masks(1)


def test_shared_arrays_are_read_only(fig2_game):
    fgs = enumerate_feasible_graphs(fig2_game, 0)
    shared = [fgs.deg, fgs.qu, fgs.feasible, fgs.masks, fgs.pairwise_flags()]
    shared += [fgs.nash_flags(k) for k in range(1, fgs.n + 1)]
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array[..., 0] = 1
    assert fgs.pans_masks(1) == enumerate_feasible_graphs(fig2_game, 0).pans_masks(1)


def test_one_mask_blocking_pairs_match_the_whole_table():
    for game, m, e0 in _kernel_instances():
        fgs = enumerate_feasible_graphs(game, m, e0)
        whole = [(t, blocking) for t, blocking in fgs._blocking_pairs()]
        for mask in map(int, fgs.masks):
            one = fgs._blocking_pairs(np.array([mask], dtype=np.int64))
            assert [(t, bool(b[0])) for t, b in one] == [(t, bool(b[mask])) for t, b in whole]


def test_cross_validate_reports_an_element_that_fails_is_pane(monkeypatch, fig2_game):
    from hidenet import lattice

    greatest = frozenset(complete_edges(4))
    checked = []

    def rejecting(net, game):
        checked.append(net.edges)
        return is_pane(net, game) and net.edges != greatest

    monkeypatch.setattr(lattice, "is_pane", rejecting)
    report = cross_validate(fig2_game, 0)
    assert not report.clean
    assert report.algorithm_failures == [f"{sorted(greatest)} is not pairwise Nash stable"]
    # one check per element, none per pair
    assert len(checked) == len(set(checked)) == report.pans_counts[1]


# -- int64 input bound ------------------------------------------------------------


def test_alphas_that_would_wrap_int64_are_rejected():
    # q*(n+m)^2 + p*(n+m) = 3*2^63 + 16: unchecked, the tables wrap and the
    # oracle calls the empty graph unstable, while is_pane calls it stable
    game = GameSpec((F(3 * 2**61), F(3 * 2**61)))
    assert is_pane(build_network(2, 2, []), game)
    with pytest.raises(ValidationError, match="int64"):
        enumerate_feasible_graphs(game, 2)
    with pytest.raises(ValidationError, match="int64"):
        cross_validate(game, 2)


def test_alpha_beyond_int64_is_a_validation_error():
    # unchecked, building the int64 tables raises a bare OverflowError
    with pytest.raises(ValidationError, match="int64"):
        enumerate_feasible_graphs(GameSpec((F(10**20), F(1))), 0)


def test_int64_bound_is_exact_at_the_edge():
    # n = 2, m = 0: q*4 + p*2 must stay within 2^63 - 1
    top = (2**63 - 1 - 4) // 2
    fgs = enumerate_feasible_graphs(GameSpec((F(top), F(top))), 0)
    assert fgs.pans_masks(1) == [0]
    assert fgs.utilities(1).per_player == (1 - F(top), 1 - F(top))
    with pytest.raises(ValidationError, match="int64"):
        enumerate_feasible_graphs(GameSpec((F(top + 1), F(top))), 0)


def test_lcm_scaled_welfare_beyond_int64_is_a_validation_error():
    # each table fits, but lcm(2^40, 2^40 - 1) * (n+m)^2 does not
    game = GameSpec((F(1, 2**40), F(1, 2**40 - 1)))
    assert len(enumerate_feasible_graphs(game, 0)) == 2
    with pytest.raises(ValidationError, match="welfare"):
        max_social_welfare(game, 0)
    with pytest.raises(ValidationError, match="welfare"):
        efficiency(game, 0)


def test_cli_efficiency_on_overflowing_game_exits_2(tmp_path):
    path = tmp_path / "huge.game"
    path.write_text(f"[players]\n1 {10**20}\n2 1\n")
    src = str(pathlib.Path(oracle.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "hidenet.cli", "efficiency", "--game", str(path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "int64" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


# -- the stability kernel against the independent routes --------------------------


def _kernel_instances():
    """Twelve seeded instances with at most 10 candidate edges."""
    rng = random.Random(0x0AC1E)
    sizes = [(2, 2), (3, 1), (4, 0), (3, 2), (2, 3), (4, 1)]
    out = []
    for t in range(12):
        n, m = sizes[t % len(sizes)]
        den = rng.choice([1, 2, 3])
        alphas = [F(rng.randint(0, 6 * den), den) for _ in range(n)]
        e0 = [(a, b) for a in range(n + 1, n + m + 1) for b in range(a + 1, n + m + 1)
              if rng.random() < 0.3]
        assert candidate_edge_count(n, m) - len(e0) <= 10
        out.append((GameSpec(alphas), m, e0))
    return out


def test_pans_masks_equal_the_structural_and_search_routes():
    for game, m, e0 in _kernel_instances():
        fgs = enumerate_feasible_graphs(game, m, e0)
        nets = {int(t): fgs.network(int(t)) for t in fgs.masks}
        assert fgs.pans_masks(1) == [t for t, net in nets.items() if is_pane(net, game)]
        assert fgs.pans_masks(2) == [
            t for t, net in nets.items() if is_k_strong(net, game, 2)
        ]


def test_exhaustive_stability_agrees_and_witnesses_replay():
    for game, m, e0 in _kernel_instances():
        fgs = enumerate_feasible_graphs(game, m, e0)
        stable = {k: set(fgs.pans_masks(k)) for k in (1, 2)}
        for t in fgs.masks:
            net = fgs.network(int(t))
            before = utility(net, game)
            checked = []
            for k in (1, 2):
                verdict = exhaustive_stability(net, game, k)
                assert verdict.stable == (int(t) in stable[k])
                move = verdict.witness
                if verdict.stable or move in checked:
                    continue
                checked.append(move)
                after = utility(move.result, game)
                gains = [after.of(i) - before.of(i) for i in move.coalition]
                assert gains == [move.deltas[i] for i in move.coalition]
                assert min(gains) >= 0 and max(gains) > 0
                # the same first move as the coalition search, else a blocking pair
                searched = (
                    improving_coalition_move(net, game, move.coalition)
                    if len(move.coalition) <= k else None
                )
                if searched is None:
                    assert not move.deleted_edges and len(move.added_edges) == 1
                    assert move.coalition == next(iter(move.added_edges))
                else:
                    assert move.result.edges == searched


def test_nash_flags_do_not_depend_on_the_block_size(monkeypatch):
    spaces = [enumerate_feasible_graphs(g, m, e0) for g, m, e0 in _kernel_instances()]
    whole = [[space.nash_flags(k).copy() for k in range(1, space.n + 1)] for space in spaces]
    witnesses = [space.first_improving_moves(space.masks, (1,)) for space in spaces]
    # 8 moves a block: every coalition's masks span several blocks, down to
    # one mask a block for coalitions with more than 8 moves
    monkeypatch.setattr(oracle, "_BLOCK_ELEMENTS", 8)
    for space, flags, first in zip(spaces, whole, witnesses):
        space._nash_cache.clear()
        for k in range(1, space.n + 1):
            assert np.array_equal(space.nash_flags(k), flags[k - 1])
        assert np.array_equal(space.first_improving_moves(space.masks, (1,)), first)
