import itertools
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

from conftest import complete_edges, limit_address_space, random_instance, replay
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


def test_a_budget_error_states_the_bytes_the_space_would_hold(monkeypatch, fig2_game):
    # every one of fig2's 64 states is feasible, so the stated bound is met
    fgs = enumerate_feasible_graphs(fig2_game, 0)
    layout = fgs.layout
    held = sum(table.nbytes for table in (fgs.qu, fgs.feasible, fgs.masks, layout.deg, layout.sums))
    monkeypatch.setenv("HIDENET_ORACLE_BUDGET", "5")
    with pytest.raises(BudgetExceededError, match=f"whose space keeps up to {held} bytes,"):
        oracle.FeasibleGraphSet(fig2_game, 0)
    with pytest.raises(BudgetExceededError, match=r"up to 39 \* 2\^500001500001 bytes"):
        oracle.FeasibleGraphSet(GameSpec([1, 1]), 10**6)


def test_a_space_the_machine_cannot_allocate_exits_3_with_its_size(tmp_path):
    # 2^28 states: the mask range alone takes 2 GiB, past the 1.5 GiB limit
    game = tmp_path / "c28.game"
    game.write_text("[players]\n1 1\n2 2\n3 3/2\n[nonplayers]\n4 5 6 7 8\n")
    src = pathlib.Path(__file__).parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "hidenet.cli", "enumerate", "--game", str(game)],
        capture_output=True, text=True, timeout=60, preexec_fn=limit_address_space(3 << 29),
        # one BLAS thread, so that importing numpy reserves no per-core buffers
        env={**os.environ, "PYTHONPATH": str(src), "HIDENET_ORACLE_BUDGET": "30",
             "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == (
        "error: 28 candidate edges, whose space keeps up to 13421772800 bytes, "
        "do not fit in memory\n"
    )


@pytest.mark.parametrize(
    "players, nonplayers, e0, message",
    [(12, 0, (), "66 candidate edges, whose space keeps up to 149 * 2^66 bytes,"),
     # 2^60 int64 entries take more bytes than numpy can address
     (2, 10, [(3, 4), (3, 5), (3, 6), (3, 7), (3, 8), (3, 9)],
      "60 candidate edges, whose space keeps up to 39 * 2^60 bytes,")],
)
def test_a_space_past_int64_masks_is_refused_before_its_layout(
    monkeypatch, players, nonplayers, e0, message
):
    oracle._layout.cache_clear()
    monkeypatch.setenv("HIDENET_ORACLE_BUDGET", "100")
    with pytest.raises(BudgetExceededError) as refused:
        oracle.FeasibleGraphSet(GameSpec([F(1)] * players), nonplayers, e0)
    assert str(refused.value) == f"{message} do not fit in memory"
    assert oracle._layout.cache_info().currsize == 0


def test_cli_on_64_or_more_candidate_edges_exits_3(tmp_path):
    game = tmp_path / "twelve.game"
    game.write_text("[players]\n" + "".join(f"{i} 1\n" for i in range(1, 13)))
    src = pathlib.Path(__file__).parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "hidenet.cli", "enumerate", "--game", str(game)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src), "HIDENET_ORACLE_BUDGET": "100"},
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: 66 candidate edges")
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_budget_env_override(monkeypatch, fig2_game):
    monkeypatch.setenv("HIDENET_ORACLE_BUDGET", "3")
    with pytest.raises(BudgetExceededError):
        enumerate_feasible_graphs(fig2_game, 0)


@pytest.mark.parametrize(
    "pair, phrase",
    [((0, 3), "unknown nodes"), ((-1, 3), "unknown nodes"), ((3, 9), "unknown nodes"),
     ((1, 3), "touches a player")],
)
def test_one_e0_rule_for_both_constructors(pair, phrase):
    with pytest.raises(ValidationError, match=phrase) as built:
        build_network(2, 2, [], [pair])
    with pytest.raises(ValidationError) as tabled:
        oracle.FeasibleGraphSet(GameSpec([1, 1]), 2, [pair])
    assert str(tabled.value) == str(built.value)


def test_every_route_checks_the_alpha_count():
    net, game = build_network(2, 2, []), GameSpec([1, 1, 1])
    message = "game has 3 alphas but network has 2 players"
    with pytest.raises(ValidationError, match=message):
        is_pane(net, game)
    for search in (is_k_strong, exhaustive_stability):
        with pytest.raises(ValidationError, match=message):
            search(net, game, 1)


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


def test_mask_of_refuses_an_edge_outside_the_instance(fig2_game):
    fgs = enumerate_feasible_graphs(fig2_game, 0)
    with pytest.raises(ValidationError, match=r"edge \(4, 5\) outside this instance"):
        fgs.mask_of(frozenset({(1, 2), (4, 5)}))


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
    assert move.deleted_edges <= g2.edges and not move.added_edges & g2.edges
    before = utility(g2, fig3_game)
    after = utility(replay(g2, move), fig3_game)
    for i in move.coalition:
        assert after.of(i) - before.of(i) == move.deltas[i]


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
    shared = [fgs.qu, fgs.feasible, fgs.masks]
    shared += [fgs.nash_flags(k) for k in range(1, fgs.n + 1)]
    layout = fgs.layout
    shared += [layout.feasible, layout.masks, layout._link_ends, layout._link_bits]
    shared += [layout.pair_bits, layout.patterns, layout.deg, layout.sums]
    for plan in layout._plans.values():
        shared += [plan.members, plan.keep, plan.allow, plan.choices, plan.covers]
    assert sorted(layout._plans) == [1, 2, 3, 4]
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array[..., 0] = 1
    assert fgs.pans_masks(1) == enumerate_feasible_graphs(fig2_game, 0).pans_masks(1)


def test_games_of_one_shape_share_one_layout():
    first = oracle.FeasibleGraphSet(GameSpec((F(1), F(2), F(3))), 2, [(4, 5)])
    second = oracle.FeasibleGraphSet(GameSpec((F(5, 2), F(0), F(1, 3))), 2, [[5, 4]])
    assert second.layout is first.layout
    assert second.cand is first.cand and second.masks is first.masks
    second.nash_flags(3)
    plans = first.layout._plans
    assert sorted(plans) == [1, 2, 3]
    assert sum(len(plan.coalitions) for plan in plans.values()) == 7
    for k, plan in plans.items():
        assert first.layout.plan(k) is plan
    without_e0 = oracle.FeasibleGraphSet(GameSpec((F(1), F(2), F(3))), 2)
    assert without_e0.layout is not first.layout


def _answers(space):
    strengths = range(1, space.n + 1)
    flags = [space.nash_flags(k).tolist() for k in strengths]
    sw, witness = space.max_welfare()
    return flags, [space.pans_masks(k) for k in strengths], sw, witness.edges


def test_a_warm_layout_gives_the_answers_of_a_cold_one():
    rng = random.Random(0x1A70)
    instances = _kernel_instances() + [
        (GameSpec([F(rng.randint(0, 12), 2) for _ in range(3)]), 2, e0)
        for e0 in ((), [(4, 5)], (), [(4, 5)])
    ]
    for game, m, e0 in instances:
        oracle._layout.cache_clear()
        cold = _answers(oracle.FeasibleGraphSet(game, m, e0))
        oracle._layout.cache_clear()
        # another game of the shape builds the layout and every plan first
        other = GameSpec([F(rng.randint(0, 12), 2) for _ in game.alphas])
        oracle.FeasibleGraphSet(other, m, e0).nash_flags(game.num_players)
        warm = oracle.FeasibleGraphSet(game, m, e0)
        assert oracle._layout.cache_info().currsize == 1
        assert _answers(warm) == cold


def test_a_game_refused_before_its_layout_caches_none(monkeypatch):
    oracle._layout.cache_clear()
    with pytest.raises(ValidationError, match="int64"):
        oracle.FeasibleGraphSet(GameSpec((F(2**62), F(1))), 0)
    monkeypatch.setenv("HIDENET_ORACLE_BUDGET", "5")
    with pytest.raises(BudgetExceededError):
        oracle.FeasibleGraphSet(GameSpec([F(1)] * 4), 0)
    assert oracle._layout.cache_info().currsize == 0


@pytest.mark.parametrize(
    "alpha", [F(200, 3), F(255, 7), F(1000, 3), F(1, 70001), F(1, 2**30 + 1), F(10**12, 7)]
)
def test_utilities_at_numerators_past_a_byte_match_the_model(alpha):
    # the layout keeps degrees in one byte each and neighbour-degree sums in
    # two; times these numerators a byte would wrap (200, 255) or numpy would
    # raise (1000), and q_i * S_i past 2^16 (70001) or 2^32 (2^30 + 1), or
    # p_i * deg_i past 2^32 (10^12), wraps, raises or leaves the integers
    # under either promotion rule
    for n, m, e0 in ((3, 2, ()), (3, 2, [(4, 5)]), (4, 1, ())):
        game = GameSpec([alpha, F(3, 2)] + [alpha] * (n - 2))
        fgs = oracle.FeasibleGraphSet(game, m, e0)
        assert fgs.qu.dtype == np.int64
        for mask in map(int, fgs.masks):
            assert fgs.utilities(mask) == utility(fgs.network(mask), game)


def test_pans_masks_hands_out_a_new_list_each_call(fig2_game):
    fgs = oracle.FeasibleGraphSet(fig2_game, 0)
    first = fgs.pans_masks(1)
    kept = list(first)
    first.reverse()
    first.append(-1)
    assert fgs.pans_masks(1) == kept
    assert fgs.pans_masks(1) is not fgs.pans_masks(1)


def test_max_welfare_is_computed_once_per_space(monkeypatch, fig2_game):
    fgs = oracle.FeasibleGraphSet(fig2_game, 0)
    first = fgs.max_welfare()
    assert first[0] == 18

    def no_second_witness(mask):
        raise AssertionError("max_welfare ran again")

    monkeypatch.setattr(fgs, "network", no_second_witness)
    assert fgs.max_welfare() is first
    assert oracle.FeasibleGraphSet(fig2_game, 0).max_welfare() == first


def test_one_mask_blocking_pairs_match_the_whole_table():
    for game, m, e0 in _kernel_instances():
        fgs = enumerate_feasible_graphs(game, m, e0)
        whole = fgs._blocking_pairs(fgs.masks)
        assert whole.shape == (len(fgs.links), len(fgs))
        for c, mask in enumerate(fgs.masks):
            one = fgs._blocking_pairs(np.array([mask], dtype=np.int64))
            assert one.shape == (len(fgs.links), 1)
            assert (one[:, 0] == whole[:, c]).all()


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
    # unchecked, building the int64 tables raises a bare OverflowError; the
    # message gives the bound's size, since 1e5000 has too many digits to print
    for alpha, size in ((F(10**20), 68), (F("1e5000"), 16611)):
        with pytest.raises(ValidationError, match=rf"about 2\^{size}, beyond .* int64"):
            enumerate_feasible_graphs(GameSpec((alpha, F(1))), 0)


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
    """On every feasible state, the three routes agree with the oracle's
    tables, and each witness replays to a feasible state whose utilities
    give its deltas: every member weakly gains, one strictly."""
    for game, m, e0 in _kernel_instances():
        fgs = enumerate_feasible_graphs(game, m, e0)
        stable = {k: set(fgs.pans_masks(k)) for k in (1, 2)}
        for t in fgs.masks:
            net = fgs.network(int(t))
            before = utility(net, game)
            oracle_verdicts = {k: exhaustive_stability(net, game, k) for k in (1, 2)}
            verdicts = [(1, is_pane(net, game)), *oracle_verdicts.items()]
            verdicts += [(k, is_k_strong(net, game, k)) for k in (1, 2)]
            checked = []
            for k, verdict in verdicts:
                assert verdict.stable == (int(t) in stable[k])
                move = verdict.witness
                if verdict.stable or move in checked:
                    continue
                checked.append(move)
                after = utility(replay(net, move), game)
                gains = [after.of(i) - before.of(i) for i in move.coalition]
                assert gains == [move.deltas[i] for i in move.coalition]
                assert min(gains) >= 0 and max(gains) > 0
            for k, verdict in oracle_verdicts.items():
                if verdict.stable:
                    continue
                move = verdict.witness
                # the same first move as the coalition search, else a blocking pair
                searched = (
                    improving_coalition_move(net, game, move.coalition)
                    if len(move.coalition) <= k else None
                )
                if searched is None:
                    assert not move.deleted_edges and len(move.added_edges) == 1
                    assert move.coalition == next(iter(move.added_edges))
                else:
                    assert replay(net, move).edges == searched


def _parity_instances():
    """Seeded games of eight shapes with non-players (m >= 2), original
    edges and at most 10 candidate edges."""
    rng = random.Random(0x57AC)
    out = {}
    while len(out) < 8:
        game, m, e0 = random_instance(rng, 3, 3)
        if m >= 2 and e0 and candidate_edge_count(game.num_players, m) - len(e0) <= 10:
            out.setdefault((game.num_players, m, tuple(e0)), (game, m, e0))
    return list(out.values())


def _coalition_reference(space, coalition):
    """One coalition's moves, built edge by edge from ``space.cand`` and
    ``space.pos`` alone: (clear, outside, choices, kept).  ``clear`` has the
    bit of every member-incident edge and every non-player pair, ``outside``
    those of the edges to outside players.  Counter c sets the free edges
    (member pairs, member-to-non-player edges), then the outside ones, each
    ascending, by its bits; members then cover non-player pairs.  ``kept``
    lists each non-player pair's bit with the two-edge patterns by which
    each outside player, ascending, covers it."""
    n, pos = space.n, space.pos
    members = set(coalition)
    free = [pos[(a, b)] for a, b in space.cand if a in members and (b in members or b > n)]
    outside = [pos[(a, b)] for a, b in space.cand if b <= n and (a in members) != (b in members)]
    pairs = [(j, l) for j, l in space.cand if j > n]
    counters = np.arange(2 ** (len(free) + len(outside)), dtype=np.int64)
    choices = np.zeros_like(counters)
    for idx, t in enumerate(sorted(free) + sorted(outside)):
        choices += ((counters >> idx) & 1) * 2**t

    def holds(moves, a, b):
        return (moves >> pos[(a, b)]) & 1 == 1

    for j, l in pairs:
        covered = np.zeros(len(choices), dtype=bool)
        for i in coalition:
            covered |= holds(choices, i, j) & holds(choices, i, l)
        choices[covered] |= 2 ** pos[(j, l)]
    clear = sum(2**t for t in free + outside) + sum(2 ** pos[p] for p in pairs)
    outsiders = [i for i in range(1, n + 1) if i not in members]
    kept = [
        (2 ** pos[(j, l)], [2 ** pos[(i, j)] + 2 ** pos[(i, l)] for i in outsiders])
        for j, l in pairs
    ]
    return clear, sum(2**t for t in outside), choices, kept


def _first_moves_per_coalition(space, masks, coalition):
    """One coalition's first improving move at each mask, or -1: the
    coalition-by-coalition scoring the stacked kernel replaced, 64 masks at
    a time, on the moves of ``_coalition_reference``."""
    clear, outside, choices, kept = _coalition_reference(space, coalition)
    players = np.array(coalition)[:, None, None]
    found = []
    for lo in range(0, len(masks), 64):
        rows = masks[lo : lo + 64]
        base = rows & ~clear
        for pair_bit, patterns in kept:
            covered = np.zeros(len(rows), dtype=bool)
            for pattern in patterns:
                covered |= (rows & pattern) == pattern
            base |= (rows & pair_bit) * covered
        moves = (choices & (rows | ~outside)[:, None]) | base[:, None]
        after, before = space.qu[players, moves], space.qu[players, rows[:, None]]
        hit = (after >= before).all(axis=0) & (after > before).any(axis=0)
        first = moves[np.arange(len(rows)), hit.argmax(axis=1)]
        found += np.where(hit.any(axis=1), first, -1).tolist()
    return found


@pytest.mark.parametrize("shape", ["parity", "C18"])
def test_every_plan_equals_the_per_coalition_reference(shape):
    if shape == "parity":
        layouts = [enumerate_feasible_graphs(g, m, e0).layout for g, m, e0 in _parity_instances()]
    else:
        # four players, three non-players whose three pairs are original
        layouts = [oracle._Layout(4, 3, frozenset({(5, 6), (5, 7), (6, 7)}))]
        assert len(layouts[0].cand) == 18
    for layout in layouts:
        for k in range(1, layout.n + 1):
            plan = layout.plan(k)
            assert plan.coalitions == list(itertools.combinations(range(1, layout.n + 1), k))
            assert plan.members.tolist() == [list(c) for c in plan.coalitions]
            rows = [_coalition_reference(layout, c) for c in plan.coalitions]
            assert plan.keep.tolist() == [~clear for clear, _, _, _ in rows]
            assert plan.allow.tolist() == [~outside for _, outside, _, _ in rows]
            assert plan.choices.tolist() == [choices.tolist() for _, _, choices, _ in rows]
            kept = rows[0][3]
            assert layout.pair_bits.tolist() == [pair_bit for pair_bit, _ in kept]
            assert plan.covers.shape == (len(kept), layout.n - k, len(rows))
            for g, row in enumerate(rows):
                assert plan.covers[:, :, g].tolist() == [patterns for _, patterns in row[3]]


def test_the_stacked_kernel_matches_a_per_coalition_reference(monkeypatch):
    for game, m, e0 in _parity_instances():
        space = enumerate_feasible_graphs(game, m, e0)
        for k in range(1, space.n + 1):
            coalitions = space.layout.plan(k).coalitions
            want = [_first_moves_per_coalition(space, space.masks, c) for c in coalitions]
            for block in (8, 100, 1 << 16):
                monkeypatch.setattr(oracle, "_BLOCK_ELEMENTS", block)
                assert space.first_improving_moves(space.masks, k).tolist() == want
                for size in (1, 2):
                    for start in range(0, len(coalitions), size):
                        got = space.first_improving_moves(space.masks, k, start, start + size)
                        assert got.tolist() == want[start : start + size]


def test_nash_flags_do_not_depend_on_the_block_size(monkeypatch):
    instances = _kernel_instances() + _parity_instances()
    spaces = [enumerate_feasible_graphs(g, m, e0) for g, m, e0 in instances]
    whole = [[space.nash_flags(k).copy() for k in range(1, space.n + 1)] for space in spaces]
    witnesses = [space.first_improving_moves(space.masks, 1) for space in spaces]
    # the flags the per-coalition reference gives
    for space, flags in zip(spaces, whole):
        stable = space.feasible.copy()
        for k in range(1, space.n + 1):
            for coalition in space.layout.plan(k).coalitions:
                found = np.array(_first_moves_per_coalition(space, space.masks, coalition))
                stable[space.masks[found >= 0]] = False
            assert np.array_equal(flags[k - 1], stable)
    # 8 moves a block: every coalition's masks span several blocks, down to
    # one mask a block for coalitions with more than 8 moves; groups from one
    # coalition at a time to every coalition at once
    for block, group in ((8, 1), (8, 1 << 20), (1000, 64), (1 << 16, 1 << 30)):
        monkeypatch.setattr(oracle, "_BLOCK_ELEMENTS", block)
        monkeypatch.setattr(oracle, "_GROUP_MOVES", group)
        for space, flags, first in zip(spaces, whole, witnesses):
            space._nash_cache.clear()
            for k in range(1, space.n + 1):
                assert np.array_equal(space.nash_flags(k), flags[k - 1])
            assert np.array_equal(space.first_improving_moves(space.masks, 1), first)
