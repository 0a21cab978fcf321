import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from conftest import limit_address_space, random_instance, replay
from hidenet import DeviationMove, GameSpec, build_network, greatest_pans, is_k_strong, utility
from hidenet.cli import main, run_command
from hidenet.gamefile import serialize_game, serialize_graph
from hidenet.oracle import FeasibleGraphSet, candidate_edge_count
from hidenet.reports import rational_str
from hidenet.stability import CONDITIONS

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = pathlib.Path(__file__).parent / "golden"


def fx(name: str) -> str:
    return str(FIXTURES / name)


def run(*argv):
    return run_command(list(argv))


def test_verify_triangle_is_stable():
    code, out = run(
        "verify", "--game", fx("fig2.game"), "--graph", fx("triangle123.graph"), "--k", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["stable"] is True
    assert payload["verdict"]["class"] == "PANE"


def test_verify_unstable_carries_witness(example1):
    code, out = run("verify", "--game", fx("ex1.game"))
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["stable"] is False
    assert payload["verdict"]["witness"] is not None
    assert payload["verdict"]["condition"] in CONDITIONS
    assert payload["utilities"]["per_player"] == ["3", "3"]


def test_greatest_example5_empty():
    code, out = run("greatest", "--game", fx("ex5.game"))
    assert code == 0
    assert json.loads(out)["network"]["edges"] == []


def test_enumerate_fig2_k3_single_element():
    code, out = run("enumerate", "--game", fx("fig2.game"), "--k", "3")
    assert code == 0
    payload = json.loads(out)["lattice"]
    assert payload["count"] == 1
    assert len(payload["elements"][0]["edges"]) == 6


def test_join_and_meet():
    code, out = run(
        "join",
        "--game",
        fx("fig2.game"),
        "--graph",
        fx("triangle123.graph"),
        "--graph",
        fx("triangle124.graph"),
    )
    assert code == 0
    assert len(json.loads(out)["network"]["edges"]) == 6
    code, out = run(
        "meet",
        "--game",
        fx("fig2.game"),
        "--graph",
        fx("k4.graph"),
        "--graph",
        fx("triangle123.graph"),
    )
    assert code == 0
    assert len(json.loads(out)["network"]["edges"]) == 3


def test_efficiency_and_bound():
    code, out = run("efficiency", "--game", fx("ex5.game"))
    assert code == 0
    payload = json.loads(out)["report"]
    assert payload["max_sw"] == "1/2" and payload["pos"] == "inf"
    code, out = run("bound", "--game", fx("fig2.game"))
    assert json.loads(out)["additive_bound"] == "42"


def test_characterize_equal_alpha():
    code, out = run("characterize", "--game", fx("fig2.game"), "--graph", fx("k4.graph"))
    assert code == 0
    payload = json.loads(out)["report"]
    assert payload["class"] == "equal-alpha"
    assert payload["graph_is_stable"] is True
    assert payload["efficiency"]["poa"] == "inf"


@pytest.mark.parametrize(
    "alphas, m, e0",
    [((F(2), F(2)), 3, [(3, 4), (3, 5), (4, 5)]), ((F(9), F(1, 2), F(1, 2)), 2, [(4, 5)])],
    ids=["equal-alpha", "one-distinct-alpha"],
)
def test_characterize_efficiency_witness_keeps_the_original_edges(tmp_path, alphas, m, e0):
    game_file = tmp_path / "e0.game"
    game_file.write_text(serialize_game(build_network(len(alphas), m, e0, e0), GameSpec(alphas)))
    code, out = run("characterize", "--game", str(game_file))
    assert code == 0
    witness = json.loads(out)["report"]["efficiency"]["max_sw_witness"]
    assert witness["original_edges"] == [list(e) for e in e0]
    assert not {(j, l) for j, l, _ in witness["sustainers"]} & set(e0)


def test_characterize_general_class():
    code, out = run("characterize", "--game", fx("fig3.game"))
    assert code == 0
    payload = json.loads(out)["report"]
    assert payload["class"] == "general"
    assert set(payload) == {"greatest", "least", "large_m", "class"}
    assert payload["greatest"]["clique_members"] == [1, 2, 3, 4, 5]
    assert payload["least"]["clique_members"] == []
    assert payload["large_m"] is False


def test_detect_command():
    code, out = run("detect", "--graph", fx("observed.graph"), "--beta", "5/2", "--slack", "0")
    assert code == 0
    payload = json.loads(out)["report"]
    assert payload["prior_probability"] == "1/32"
    assert payload["suspected_players"] == [5, 6]


def test_oracle_check_clean():
    code, out = run("oracle-check", "--game", fx("fig2.game"), "--max-k", "2")
    assert code == 0
    payload = json.loads(out)["report"]
    assert payload["clean"] is True
    assert payload["pans_counts"] == {"1": 6, "2": 6, "3": 1, "4": 1}


def test_exit_code_2_on_bad_input(tmp_path):
    bad = tmp_path / "bad.game"
    bad.write_text("[players]\n1 -1\n")
    code, out = run("verify", "--game", str(bad))
    assert code == 2 and "error" in out
    code, _ = run("verify", "--game", str(tmp_path / "missing.game"))
    assert code == 2
    code, _ = run("nonsense", "--game", fx("fig2.game"))
    assert code == 2


def test_help_exits_0_and_usage_errors_exit_2(capsys):
    assert run("--help") == (0, "")
    assert capsys.readouterr().out.startswith("usage:")
    assert run()[0] == 2
    assert run("verify", "--k", "one")[0] == 2


def test_exit_code_2_on_precondition(tmp_path):
    # joining a non-stable graph violates the operation's contract
    code, out = run(
        "join",
        "--game",
        fx("fig2.game"),
        "--graph",
        fx("triangle123.graph"),
        "--graph",
        str(_single_edge_graph(tmp_path)),
    )
    assert code == 2 and "not pairwise Nash stable" in out


def _single_edge_graph(tmp_path):
    path = tmp_path / "edge.graph"
    path.write_text("[edges]\n1 2\n")
    return path


def test_exit_code_3_on_budget(tmp_path):
    lines = ["[players]"] + [f"{i} 1" for i in range(1, 6)] + ["[nonplayers]", "6 7 8"]
    big = tmp_path / "big.game"
    big.write_text("\n".join(lines) + "\n")
    code, out = run("enumerate", "--game", str(big))
    assert code == 3 and "budget" in out
    code, out = run("verify", "--game", fx("isolated20.game"), "--k", "2")
    assert code == 3 and out == (
        "error: coalition search needs ~2199027449856 moves for k=2, "
        "over the budget of 2000000\n"
    )
    # past 64 bits the bound prints as 2^N: at k = 170 it has over 4,300
    # digits, which str() refuses
    many = tmp_path / "players170.game"
    many.write_text("\n".join(["[players]"] + [f"{i} 1000" for i in range(1, 171)]) + "\n")
    for k, bits in (("20", 3276), ("170", 14387)):
        code, out = run("verify", "--game", str(many), "--k", k)
        assert code == 3 and out == (
            f"error: coalition search needs ~2^{bits} moves for k={k}, "
            "over the budget of 2000000\n"
        )


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "report.json"
    code, out = run("least", "--game", fx("fig2.game"), "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["network"]["edges"] == []


def _text_lines(payload, depth=0):
    """The lines ``--format text`` should print for a JSON payload: a
    non-empty object nests, every other value sits on its key's line."""
    for key, value in payload.items():
        pad = "  " * depth
        if isinstance(value, dict) and value:
            yield f"{pad}{key}:"
            yield from _text_lines(value, depth + 1)
        elif isinstance(value, (dict, list)):
            yield f"{pad}{key}: {json.dumps(value)}"
        else:
            yield f"{pad}{key}: {'None' if value is None else value}"


def test_text_format_carries_same_information():
    for argv in (
        ["bound", "--game", fx("ex5.game")],
        # nests an empty object (D_boundary_counts) beside non-empty ones
        ["characterize", "--game", fx("fig2.game")],
        # unstable, with a witness move and its per-player deltas
        ["verify", "--game", fx("ex1.game")],
    ):
        code_j, out_j = run(*argv)
        code_t, out_t = run(*argv, "--format", "text")
        assert code_j == code_t == 0
        lines = out_t.splitlines()
        assert "" not in lines
        assert lines == list(_text_lines(json.loads(out_j)))


@pytest.mark.parametrize(
    "argv",
    [
        [command, "--game", fx("huge_alpha.game")]
        for command in ("verify", "efficiency", "enumerate", "oracle-check")
    ]
    + [["detect", "--graph", fx("observed.graph"), "--beta", "1e5000"]],
    ids=["verify", "efficiency", "enumerate", "oracle-check", "detect"],
)
def test_a_value_too_long_to_print_exits_2(argv):
    # 1e5000 parses, but str() refuses its 5,001 digits
    code, out = run(*argv)
    assert code == 2
    assert out.startswith("error:") and len(out) < 200


@pytest.mark.parametrize(
    "value, message",
    [("1e100000000", "decimal exponent"), ("1E+1_0000_0000", "decimal exponent"),
     ("-1e-100000000", "decimal exponent"), ("1e" + "0" * 100000 + "x", "bad rational")],
    ids=["plain", "signed", "negative", "long-and-bad"],
)
def test_a_huge_decimal_exponent_exits_2_within_seconds(tmp_path, value, message):
    # Fraction would expand the exponent into 10^8 digits, which takes minutes;
    # the guard itself must not backtrack over a long token Fraction refuses
    game = tmp_path / "exponent.game"
    game.write_text(f"[players]\n1 {value}\n2 1\n")
    for argv in (
        ["verify", "--game", str(game)],
        ["detect", "--graph", fx("observed.graph"), f"--beta={value}"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "hidenet.cli", *argv], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=10,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:") and message in proc.stderr
        assert value in proc.stderr and "Traceback" not in proc.stderr


def test_rational_str_refuses_an_inexact_float():
    assert rational_str(math.inf) == "inf" and rational_str(F(3, 2)) == "3/2"
    with pytest.raises(ValueError, match="inexact float 1.5"):
        rational_str(1.5)


def test_reports_are_byte_identical_across_runs():
    a = run("enumerate", "--game", fx("fig2.game"), "--k", "1")
    b = run("enumerate", "--game", fx("fig2.game"), "--k", "1")
    assert a == b


@pytest.mark.parametrize(
    "name, argv",
    [
        ("verify_triangle.json", ["verify", "--game", fx("fig2.game"), "--graph", fx("triangle123.graph")]),
        ("greatest_ex5.json", ["greatest", "--game", fx("ex5.game")]),
        ("efficiency_ex5.json", ["efficiency", "--game", fx("ex5.game")]),
        ("detect_observed.json", ["detect", "--graph", fx("observed.graph")]),
        ("enumerate_fig2_k3.json", ["enumerate", "--game", fx("fig2.game"), "--k", "3"]),
    ],
)
def test_golden_reports(name, argv):
    """The JSON schema is pinned: any layout change must update a golden."""
    code, out = run(*argv)
    assert code == 0
    golden = GOLDEN / name
    assert out == golden.read_text(), f"schema drift against {name}"


def test_meet_of_graphs_sharing_a_pair_through_different_players(tmp_path):
    game = tmp_path / "three.game"
    game.write_text("[players]\n1 3\n2 3\n3 3\n[nonplayers]\n4 5\n")
    left = tmp_path / "left.graph"
    left.write_text("[edges]\n1 4\n1 5\n2 4\n3 4\n4 5\n")
    right = tmp_path / "right.graph"
    right.write_text("[edges]\n1 4\n2 4\n2 5\n3 4\n4 5\n")
    code, out = run("meet", "--game", str(game), "--graph", str(left), "--graph", str(right))
    assert code == 0
    assert json.loads(out)["network"]["edges"] == [[1, 4], [2, 4], [3, 4]]


@pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
def test_bad_oracle_budget_exits_2(monkeypatch, value):
    monkeypatch.setenv("HIDENET_ORACLE_BUDGET", value)
    code, out = run("enumerate", "--game", fx("fig2.game"))
    assert code == 2
    assert "HIDENET_ORACLE_BUDGET" in out and "non-negative integer" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["efficiency", "--k", "0"],
        ["efficiency", "--k", "-1"],
        ["enumerate", "--k", "-1"],
        ["efficiency", "--k", "5000"],
        ["enumerate", "--k", "5000"],
        ["oracle-check", "--max-k", "0"],
        ["oracle-check", "--max-k", "-3"],
        ["characterize", "--k", "0"],
        ["characterize", "--k", "5"],
        ["characterize", "--k", "0", "--game", fx("ex1.game")],
        ["characterize", "--k", "6", "--game", fx("fig3.game")],
        ["characterize", "--k", "3", "--game", fx("ex1.game")],
    ],
)
def test_strength_outside_1_to_n_exits_2(monkeypatch, capsys, argv):
    if "--game" not in argv:
        argv = [*argv, "--game", fx("fig2.game")]
    n = {fx("ex1.game"): 2, fx("fig3.game"): 5}.get(argv[-1], 4)
    monkeypatch.setattr(sys, "argv", ["hidenet", *argv])
    with pytest.raises(SystemExit) as exc:
        main()
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("error:") and f"outside 1..{n}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["least", "greatest", "join", "meet"])
@pytest.mark.parametrize("k", ["0", "2", "3", "5"])
def test_lattice_commands_refuse_strength_other_than_1(command, k):
    graphs = ["--graph", fx("triangle123.graph"), "--graph", fx("triangle123.graph")]
    argv = [command, "--game", fx("fig2.game"), "--k", k]
    code, out = run(*argv, *(graphs if command in ("join", "meet") else []))
    assert code == 2 and out.startswith("error:")
    assert ("outside 1..4" in out) if k in ("0", "5") else (command in out)
    assert run(*argv[:-2], *(graphs if command in ("join", "meet") else []))[0] == 0


def test_verify_of_twenty_isolated_nonplayers_is_fast_and_stable():
    code, out = run("verify", "--game", fx("isolated20.game"))
    assert code == 0
    assert json.loads(out)["verdict"]["stable"] is True


def _exits_2_without_traceback(monkeypatch, capsys, argv):
    monkeypatch.setattr(sys, "argv", ["hidenet", *argv])
    with pytest.raises(SystemExit) as exc:
        main()
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("error:") and "Traceback" not in err
    return err


@pytest.mark.parametrize(
    "text", ["[nodes]\n0\n", "[nodes]\n-3\n", ""], ids=["zero", "negative", "empty"]
)
def test_detect_without_nodes_exits_2(monkeypatch, capsys, tmp_path, text):
    plain = tmp_path / "plain.graph"
    plain.write_text(text)
    err = _exits_2_without_traceback(monkeypatch, capsys, ["detect", "--graph", str(plain)])
    assert "at least one node" in err


def test_detect_past_the_memory_limit_exits_3(tmp_path):
    # about 270 bytes a node: a million nodes peak near 275 MB, past the
    # 200 MiB the child may address, in the detector or in rendering
    plain = tmp_path / "million.graph"
    plain.write_text("[nodes]\n1000000\n[edges]\n1 2\n")
    proc = subprocess.run(
        [sys.executable, "-m", "hidenet.cli", "detect", "--graph", str(plain)],
        capture_output=True, text=True, timeout=60, preexec_fn=limit_address_space(200 << 20),
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == "error: detect on these inputs does not fit in memory\n"


def test_out_to_a_directory_exits_2(monkeypatch, capsys, tmp_path):
    argv = ["bound", "--game", fx("fig2.game"), "--out", str(tmp_path)]
    _exits_2_without_traceback(monkeypatch, capsys, argv)


_GAME = "[players]\n1 1\n2 1\n[nonplayers]\n3\n"
_ONE = ["--graph", fx("observed.graph")]
_TWO = _ONE * 2


@pytest.mark.parametrize(
    "argv, text, message",
    [
        pytest.param(["verify", "--game", "INPUT"], "[players]\nx 1\n2 1\n",
                     "line 2: expected an integer, got 'x'", id="non-integer-token"),
        pytest.param(["verify", "--game", "INPUT"], _GAME + "[edges]\n1 2 3\n",
                     "line 7: edge lines are 'a b'", id="edge-fields"),
        pytest.param(["verify", "--game", "INPUT"], _GAME + "[sustainers]\n1 3\n",
                     "line 7: sustainer lines are 'j l k'", id="sustainer-fields"),
        pytest.param(["verify", "--game", "INPUT"], _GAME + "[nodes]\n3\n",
                     "line 7: [nodes] belongs to standalone graph files", id="nodes-in-game"),
        pytest.param(["detect", "--graph", "INPUT"], "[nodes]\n3 4\n",
                     "line 2: [nodes] holds a single count", id="nodes-tokens"),
        pytest.param(["detect", "--graph", "INPUT"], "[nodes]\n3\n[sustainers]\n1 2 3\n",
                     "line 4: plain graphs only carry [nodes] and [edges]", id="plain-section"),
        pytest.param(["detect", "--graph", "INPUT"], "[nodes]\n3\n[edges]\n1 4\n",
                     "edge (1, 4) references unknown nodes", id="plain-edge-range"),
        pytest.param(["verify"], "", "verify needs --game", id="no-game"),
        pytest.param(["verify", "--game", fx("fig2.game"), *_TWO], "",
                     "verify needs exactly 1 --graph file(s), got 2", id="verify-graphs"),
        pytest.param(["join", "--game", fx("fig2.game"), *_ONE], "",
                     "join needs exactly 2 --graph file(s), got 1", id="join-graphs"),
        pytest.param(["detect"], "", "detect needs exactly one --graph file", id="detect-none"),
        pytest.param(["detect", *_TWO], "", "detect needs exactly one --graph file",
                     id="detect-two"),
        pytest.param(["bound", "--game", fx("fig2.game"), "--k", "5"], "",
                     "strength k=5 outside 1..4", id="bound-strength"),
        pytest.param(["oracle-check", "--game", fx("fig2.game"), "--k", "5"], "",
                     "strength k=5 outside 1..4", id="oracle-check-strength"),
    ],
)
def test_input_errors_exit_2_with_their_message(
    monkeypatch, capsys, tmp_path, argv, text, message
):
    path = tmp_path / "input.txt"
    path.write_text(text)
    argv = [str(path) if a == "INPUT" else a for a in argv]
    err = _exits_2_without_traceback(monkeypatch, capsys, argv)
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("reader", ["game", "graph", "detect"])
def test_a_file_that_is_not_utf8_exits_2(monkeypatch, capsys, tmp_path, reader):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"[players]\n1 1\n2 \xff\n")
    argv = {
        "game": ["verify", "--game", str(bad)],
        "graph": ["verify", "--game", fx("fig2.game"), "--graph", str(bad)],
        "detect": ["detect", "--graph", str(bad)],
    }[reader]
    err = _exits_2_without_traceback(monkeypatch, capsys, argv)
    assert str(bad) in err and "UTF-8" in err


# -- numpy only for the oracle commands ------------------------------------------

SRC = pathlib.Path(__file__).parent.parent / "src"

# Runs hidenet.cli as ``python -m`` does, then reports on stderr whether
# numpy was loaded by the time the command finished.
_RUN_AS_MAIN = """
import runpy, sys
code = 0
try:
    runpy.run_module("hidenet.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
sys.stderr.write(f"numpy loaded: {'numpy' in sys.modules}\\n")
sys.exit(code)
"""


def _fresh_cli(*argv):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", _RUN_AS_MAIN, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--game", fx("fig2.game"), "--graph", fx("triangle123.graph")],
        ["least", "--game", fx("fig2.game")],
        ["greatest", "--game", fx("ex5.game")],
        ["join", "--game", fx("fig2.game"), "--graph", fx("triangle123.graph"),
         "--graph", fx("triangle124.graph")],
        ["meet", "--game", fx("fig2.game"), "--graph", fx("k4.graph"),
         "--graph", fx("triangle123.graph")],
        ["characterize", "--game", fx("fig2.game"), "--graph", fx("k4.graph")],
        ["bound", "--game", fx("fig2.game")],
        ["detect", "--graph", fx("observed.graph")],
    ],
    ids=lambda argv: argv[0],
)
def test_commands_without_the_oracle_never_load_numpy(argv):
    proc = _fresh_cli(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "numpy loaded: False\n"


def test_oracle_commands_load_it_on_demand():
    proc = _fresh_cli("enumerate", "--game", fx("fig2.game"), "--k", "3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "enumerate_fig2_k3.json").read_text()
    assert proc.stderr == "numpy loaded: True\n"
    import hidenet
    from hidenet import cross_validate

    assert hidenet.FeasibleGraphSet is FeasibleGraphSet
    assert callable(cross_validate)
    assert {"FeasibleGraphSet", "cross_validate", "exhaustive_stability"} <= set(hidenet.__all__)


@pytest.mark.parametrize("command", ["enumerate", "efficiency", "oracle-check"])
def test_oracle_commands_without_numpy_exit_2(monkeypatch, command):
    monkeypatch.setitem(sys.modules, "numpy", None)  # import numpy now fails
    monkeypatch.delitem(sys.modules, "hidenet.oracle", raising=False)
    code, out = run(command, "--game", fx("fig2.game"))
    assert code == 2
    assert out.startswith("error:") and "numpy" in out and out.count("\n") == 1


# -- verify runs the structural check first --------------------------------------


def _write_state(tmp_path, net, game, name="state"):
    base = build_network(net.num_players, net.num_nonplayers, net.original_edges, net.original_edges)
    game_file, graph_file = tmp_path / f"{name}.game", tmp_path / f"{name}.graph"
    game_file.write_text(serialize_game(base, game))
    graph_file.write_text(serialize_graph(net))
    return str(game_file), str(graph_file)


def test_verify_k1_settles_large_graphs_without_coalition_search(tmp_path):
    # the coalition search would need ~5e8 moves here and exits 3 for budget
    rng = random.Random(1)
    n, m = 16, 10
    den = rng.choice([1, 2, 3, 4])
    game = GameSpec([F(rng.randint(0, 30 * den), den) for _ in range(n)])
    e0 = [(a, b) for a, b in itertools.combinations(range(n + 1, n + m + 1), 2) if rng.random() < 0.3]
    game_file, graph_file = _write_state(tmp_path, greatest_pans(game, m, e0), game)
    code, out = run("verify", "--game", game_file, "--graph", graph_file, "--k", "1")
    assert code == 0, out
    verdict = json.loads(out)["verdict"]
    assert verdict == {"stable": True, "class": "PANE", "k": 1, "condition": None, "witness": None}


def _replays(net, game, witness):
    """The reported move, rebuilt from the JSON, gives its deltas through
    ``model.utility``; every member weakly gains and one strictly."""
    move = DeviationMove(
        tuple(witness["coalition"]),
        frozenset(tuple(e) for e in witness["deleted_edges"]),
        frozenset(tuple(e) for e in witness["added_edges"]),
        {int(i): F(d) for i, d in witness["deltas"].items()},
    )
    before, now = utility(net, game), utility(replay(net, move), game)
    gains = {str(i): now.of(i) - before.of(i) for i in witness["coalition"]}
    assert {i: str(g) for i, g in gains.items()} == witness["deltas"]
    return min(gains.values()) >= 0 and max(gains.values()) > 0


def test_verify_agrees_with_the_coalition_search(tmp_path):
    rng = random.Random(0xC11)
    checked = {True: 0, False: 0}
    while sum(checked.values()) < 120:
        game, m, e0 = random_instance(rng)
        if candidate_edge_count(game.num_players, m) > 10:
            continue
        fgs = FeasibleGraphSet(game, m, e0)
        # random states are nearly all unstable, so half are drawn from PANS
        stable, every = fgs.pans_masks(1), list(fgs.masks)
        for mask in rng.sample(stable, min(2, len(stable))) + rng.sample(every, 2):
            net = fgs.network(int(mask))
            game_file, graph_file = _write_state(tmp_path, net, game)
            for k in (1, 2):
                code, out = run("verify", "--game", game_file, "--graph", graph_file, "--k", str(k))
                assert code == 0, out
                verdict = json.loads(out)["verdict"]
                assert verdict["stable"] == is_k_strong(net, game, k).stable
                assert verdict["class"] == ("PANE" if k == 1 else "k-PANE") and verdict["k"] == k
                checked[verdict["stable"]] += 1
                if not verdict["stable"]:
                    assert verdict["condition"] in CONDITIONS
                    assert len(verdict["witness"]["coalition"]) <= 2  # a k-move
                    assert _replays(net, game, verdict["witness"])
    assert min(checked.values()) >= 10
