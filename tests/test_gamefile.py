from fractions import Fraction as F

import pytest

from hidenet import GameSpec, build_network
from hidenet.cli import run_command
from hidenet.gamefile import (
    GameFileError,
    parse_game_file,
    parse_graph_file,
    parse_plain_graph,
    serialize_game,
    serialize_graph,
)
from hidenet.errors import ValidationError

EX1 = """\
# industrial infiltration fixture
[players]
1 1
2 1/2
[nonplayers]
3 4 5
[original_edges]
[edges]
1 2
1 3
1 4
2 5
3 4
[sustainers]
3 4 1
"""


def test_parse_example1_fixture(example1):
    net, game = parse_game_file(EX1)
    expected_net, expected_game = example1
    assert net.edges == expected_net.edges
    assert net.sustainers == expected_net.sustainers
    assert game == expected_game


def test_roundtrip_is_identity(example1):
    net, game = example1
    text = serialize_game(net, game)
    net2, game2 = parse_game_file(text)
    assert (net2.edges, net2.original_edges, net2.sustainers) == (
        net.edges,
        net.original_edges,
        net.sustainers,
    )
    assert game2 == game
    assert serialize_game(net2, game2) == text


def test_decimal_alphas_parse_exactly():
    text = "[players]\n1 1.1\n2 3.1\n[nonplayers]\n"
    _, game = parse_game_file(text)
    assert game.alphas == (F(11, 10), F(31, 10))


def test_negative_alpha_rejected_with_line():
    text = "[players]\n1 1\n2 -1\n[nonplayers]\n"
    with pytest.raises(GameFileError, match="line 3"):
        parse_game_file(text)


def test_e0_touching_player_rejected():
    text = "[players]\n1 1\n2 1\n[nonplayers]\n3\n[original_edges]\n1 3\n"
    with pytest.raises(ValidationError, match="touches a player"):
        parse_game_file(text)


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(GameFileError, match="line 1"):
        parse_game_file("1 2\n")
    with pytest.raises(GameFileError, match="unknown section"):
        parse_game_file("[plays]\n")
    with pytest.raises(GameFileError, match="line 2"):
        parse_game_file("[players]\n1 1 extra\n")


def test_player_ids_must_be_contiguous():
    with pytest.raises(ValidationError, match="player ids"):
        parse_game_file("[players]\n1 1\n3 1\n[nonplayers]\n")
    with pytest.raises(ValidationError, match="non-player ids"):
        parse_game_file("[players]\n1 1\n2 1\n[nonplayers]\n5\n")


def test_edges_default_to_the_original_edges():
    head = "[players]\n1 1\n2 1\n[nonplayers]\n3 4 5\n[original_edges]\n3 4\n4 5\n"
    for text in (head, head + "[edges]\n"):
        net, _ = parse_game_file(text)
        assert net.edges == net.original_edges == {(3, 4), (4, 5)}
    assert parse_graph_file("[edges]\n", net).edges == net.original_edges


def test_graph_file_resolves_against_game(example1):
    net, _ = example1
    text = serialize_graph(build_network(2, 3, [(1, 2), (2, 5)]))
    resolved = parse_graph_file(text, net)
    assert resolved.edges == frozenset({(1, 2), (2, 5)})
    assert resolved.num_nonplayers == 3


def test_graph_file_rejects_foreign_sections(example1):
    net, _ = example1
    with pytest.raises(GameFileError):
        parse_graph_file("[players]\n1 1\n", net)


def test_plain_graph_for_detection():
    num_nodes, edges = parse_plain_graph("[nodes]\n6\n[edges]\n1 2\n3 4\n")
    assert num_nodes == 6
    assert sorted(edges) == [(1, 2), (3, 4)]
    inferred, _ = parse_plain_graph("[edges]\n2 7\n")
    assert inferred == 7


def test_repeated_records_are_rejected_with_their_line(example1, tmp_path):
    net, _ = example1
    game = "[players]\n1 1\n2 1\n[nonplayers]\n3 4\n[edges]\n1 3\n1 4\n2 3\n2 4\n3 4\n"
    for first, second in (("1", "2"), ("2", "1"), ("1", "1")):
        text = f"{game}[sustainers]\n3 4 {first}\n4 3 {second}\n"
        with pytest.raises(GameFileError, match=r"line 14: repeated sustainer for pair \(3, 4\)"):
            parse_game_file(text)
    (tmp_path / "x.game").write_text(text)
    code, output = run_command(["verify", "--game", str(tmp_path / "x.game")])
    assert code == 2 and output.startswith("error: line 14: repeated sustainer")
    graph = "[edges]\n1 3\n1 4\n3 4\n[sustainers]\n3 4 1\n3 4 1\n"
    with pytest.raises(GameFileError, match="line 7: repeated sustainer"):
        parse_graph_file(graph, net)
    with pytest.raises(GameFileError, match=r"line 3: repeated \[nodes\] count"):
        parse_plain_graph("[nodes]\n6\n7\n[edges]\n1 2\n")


def test_an_alpha_too_long_to_print_is_a_validation_error():
    with pytest.raises(ValidationError, match="alpha of player 1 is too long to print"):
        serialize_game(build_network(2, 0), GameSpec((F("1e5000"), 1)))
