import pathlib
import resource
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

from hidenet import GameSpec, ValidationError
from hidenet.detection import (
    DEFAULT_BETA,
    _clique_prior,
    _integer_root,
    detect_infiltration,
    detect_network,
    predict_equilibrium_shape,
)
from hidenet.analytics import greatest_closed_form

from conftest import complete_edges


def test_clique_plus_isolated_matches():
    rep = detect_infiltration(6, complete_edges(4), F(5, 2), 0)
    assert rep.matches_signature
    assert rep.prior_probability == F(1, 32)
    assert rep.suspected_players == frozenset({5, 6})
    assert rep.clique == frozenset({1, 2, 3, 4})
    assert rep.edits_needed == 0


def test_path_does_not_match():
    rep = detect_infiltration(5, [(1, 2), (2, 3), (3, 4), (4, 5)], F(5, 2), 0)
    assert not rep.matches_signature
    assert rep.edits_needed > 0


def test_complete_graph_matches_with_no_suspects():
    rep = detect_infiltration(5, complete_edges(5), F(5, 2), 0)
    assert rep.matches_signature
    assert rep.suspected_players == frozenset()


def test_slack_tolerates_imperfect_agents():
    almost = [e for e in complete_edges(4) if e != (3, 4)] + [(5, 6)]
    strict = detect_infiltration(6, almost, F(5, 2), 0)
    loose = detect_infiltration(6, almost, F(5, 2), 2)
    assert not strict.matches_signature
    assert loose.matches_signature
    assert loose.edits_needed == 2


def test_beta_validation():
    with pytest.raises(ValidationError):
        detect_infiltration(4, [], F(2), 0)
    with pytest.raises(ValidationError):
        detect_infiltration(4, [], F(3), 0)
    with pytest.raises(ValidationError):
        detect_infiltration(4, [], F(5, 2), -1)


def test_prior_decreases_in_clique_size_and_beta():
    priors = [
        detect_infiltration(x, complete_edges(x), F(5, 2), 0).prior_probability
        for x in (2, 4, 9)
    ]
    assert priors[0] > priors[1] > priors[2]
    loose = detect_infiltration(4, complete_edges(4), F(21, 10), 0).prior_probability
    tight = detect_infiltration(4, complete_edges(4), F(29, 10), 0).prior_probability
    assert loose > tight > 0


def test_prior_in_unit_interval():
    rep = detect_infiltration(3, [], DEFAULT_BETA, 0)
    assert 0 < rep.prior_probability <= 1


@pytest.mark.parametrize("beta", [F(5, 2), F(11, 5), F(8, 3), F(21, 10), F(17, 7)])
@pytest.mark.parametrize(
    "root", [2, 3, 10**6 + 3, 2**61 + 1, 3**400], ids=["2", "3", "1e6+3", "2^61+1", "3^400"]
)
def test_prior_is_exact_on_large_perfect_powers(beta, root):
    # a float root misses these, and sizes beyond ~1.8e308 overflow a float
    d = beta.denominator
    assert _clique_prior(root**d, beta) == F(1, root**beta.numerator)
    assert type(_clique_prior(root**d, beta)) is F
    for size in (root**d - 1, root**d + 1):
        prior = _clique_prior(size, beta)
        assert type(prior) is float and 0 <= prior < 1


def test_prediction_examples(fig2_game, example1):
    assert predict_equilibrium_shape(fig2_game, 0).edges == frozenset(complete_edges(4))
    _, game1 = example1
    assert predict_equilibrium_shape(game1, 3).edges == frozenset(complete_edges(5))
    shy = GameSpec((F(9), F(9)))
    assert predict_equilibrium_shape(shy, 0).edges == frozenset()


def test_prediction_matches_closed_form(fig3_game):
    assert (
        predict_equilibrium_shape(fig3_game, 0).edges
        == greatest_closed_form(fig3_game, 0).predicted.edges
    )


def test_detection_loop_closure(fig2_game, fig3_game, example1):
    _, game1 = example1
    for game, m in ((fig2_game, 0), (fig3_game, 0), (game1, 3)):
        predicted = predict_equilibrium_shape(game, m)
        if not predicted.edges:
            continue
        assert detect_network(predicted).matches_signature


def test_partition_covers_all_nodes():
    rep = detect_infiltration(7, complete_edges(4) + [(5, 6)], F(5, 2), 1)
    assert rep.clique | rep.isolated | rep.other == frozenset(range(1, 8))
    assert rep.suspected_players <= rep.isolated


def _brute_root(n, d):
    x = 1
    while (x + 1) ** d <= n:
        x += 1
    return x


def test_integer_root_is_the_floor_root():
    for n in range(1, 300):
        for d in range(1, 12):
            assert _integer_root(n, d) == _brute_root(n, d), (n, d)
        bits = n.bit_length()
        for d in (bits, bits + 1, 2 * bits + 3):
            assert _integer_root(n, d) == _brute_root(n, d) == 1, (n, d)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("beta", ["2.500000000001", "2.50000000000000000001"])
def test_detect_with_a_long_decimal_beta_exits_0_within_a_second(beta):
    # beta's denominator is the root's degree; the address-space limit keeps
    # a root that grows with it from taking the machine's memory
    src = pathlib.Path(__file__).parents[1] / "src"
    graph = pathlib.Path(__file__).parent / "fixtures" / "observed.graph"
    argv = [sys.executable, "-m", "hidenet.cli", "detect", "--graph", str(graph), "--beta", beta]
    start = time.perf_counter()
    proc = subprocess.run(
        argv, capture_output=True, text=True, timeout=10,
        env={"PYTHONPATH": str(src)}, preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - start < 1.0
