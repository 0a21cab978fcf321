import json
import pathlib
import sys

import pytest

from hidenet.cli import main, run_command

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


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "report.json"
    code, out = run("least", "--game", fx("fig2.game"), "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["network"]["edges"] == []


def test_text_format_carries_same_information():
    code_j, out_j = run("bound", "--game", fx("ex5.game"))
    code_t, out_t = run("bound", "--game", fx("ex5.game"), "--format", "text")
    assert code_j == code_t == 0
    assert json.loads(out_j)["additive_bound"] == "1"
    assert "additive_bound: 1" in out_t


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


def test_out_to_a_directory_exits_2(monkeypatch, capsys, tmp_path):
    argv = ["bound", "--game", fx("fig2.game"), "--out", str(tmp_path)]
    _exits_2_without_traceback(monkeypatch, capsys, argv)
