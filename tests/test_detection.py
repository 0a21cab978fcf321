import ast
import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

from hidenet import BudgetExceededError, GameSpec, ValidationError, detection
from hidenet.detection import (
    DEFAULT_BETA,
    _clique_prior,
    _integer_root,
    detect_infiltration,
)
from hidenet.analytics import greatest_closed_form
from hidenet.lattice import greatest_pans

from conftest import complete_edges, limit_address_space


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


def _predicted(game, m):
    """The state fully informed hiders coordinate on: the greatest PANS."""
    return greatest_closed_form(game, m).predicted


def test_prediction_examples(fig2_game, example1):
    assert _predicted(fig2_game, 0).edges == frozenset(complete_edges(4))
    _, game1 = example1
    assert _predicted(game1, 3).edges == frozenset(complete_edges(5))
    shy = GameSpec((F(9), F(9)))
    assert _predicted(shy, 0).edges == frozenset()


def test_prediction_matches_closed_form(fig3_game):
    # the closed form's shape is the state the greatest fixpoint reaches
    assert _predicted(fig3_game, 0).edges == greatest_pans(fig3_game, 0).edges


def test_detection_loop_closure(fig2_game, fig3_game, example1):
    _, game1 = example1
    for game, m in ((fig2_game, 0), (fig3_game, 0), (game1, 3)):
        predicted = _predicted(game, m)
        if not predicted.edges:
            continue
        assert detect_infiltration(predicted.num_nodes, predicted.edges).matches_signature


def test_detection_imports_only_errors_and_model():
    # the observer needs no game, so none of the solver stack
    tree = ast.parse(pathlib.Path(detection.__file__).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    local = {node.module for node in imports if node.level}
    assert local == {"errors", "model"}


def test_node_limit_is_checked_before_any_per_node_table(monkeypatch):
    monkeypatch.setattr(detection, "MAX_NODES", 5)
    assert detect_infiltration(5, [(1, 2)]).clique == frozenset({1, 2})
    with pytest.raises(BudgetExceededError, match="6 nodes exceeds the detection limit of 5"):
        detect_infiltration(6, [(1, 2)])
    with pytest.raises(BudgetExceededError, match=r"2\^16610 nodes"):
        detect_infiltration(10**5000, [(1, 2)])


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
        env={**os.environ, "PYTHONPATH": str(src)}, preexec_fn=limit_address_space(2 << 30),
    )
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - start < 1.0


def test_detect_on_200000_nodes_exits_0_within_seconds(tmp_path):
    # the prefix scan must stay linear in the node count: one quadratic in
    # it takes minutes here
    plain = tmp_path / "large.graph"
    plain.write_text("[nodes]\n200000\n[edges]\n1 2\n")
    src = pathlib.Path(__file__).parents[1] / "src"
    argv = [sys.executable, "-m", "hidenet.cli", "detect", "--graph", str(plain)]
    proc = subprocess.run(
        argv, capture_output=True, text=True, timeout=20,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)["report"]
    assert report["clique"] == [1, 2] and report["edits_needed"] == 0
    assert len(report["isolated"]) == 199998


def test_detect_over_the_node_limit_exits_3_with_an_error(tmp_path):
    # a table over 10^12 nodes cannot fit: under the address-space limit it
    # would end in MemoryError (exit 1), without it in the OOM killer
    plain = tmp_path / "huge.graph"
    plain.write_text("[nodes]\n1000000000000\n[edges]\n1 2\n")
    src = pathlib.Path(__file__).parents[1] / "src"
    argv = [sys.executable, "-m", "hidenet.cli", "detect", "--graph", str(plain)]
    proc = subprocess.run(
        argv, capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": str(src)}, preexec_fn=limit_address_space(2 << 30),
    )
    assert proc.returncode == 3
    assert proc.stderr == (
        "error: a plain graph of 1000000000000 nodes exceeds the detection limit "
        "of 10000000 nodes\n"
    )
