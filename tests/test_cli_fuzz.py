"""Every CLI command on generated game, graph and plain-graph texts.

Whatever the files hold, a run ends in a report (exit 0; valid JSON under
``--format json``), a validation or precondition error (2) or a budget
refusal (3), both printed as one ``error: `` message, never in an uncaught
exception.  Node counts stay between -2 and 8 and the oracle budget at 6
candidate edges, so no example allocates or searches much.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hidenet.cli import COMMANDS, run_command

NODE = st.integers(-2, 8)
ALPHA = st.sampled_from(["0", "1/2", "1", "3/2", "2.5", "4", "9", "-1", "x", "1/0"])
EDGES = st.lists(st.tuples(NODE, NODE), max_size=6)


def _section(name, lines):
    return "\n".join([f"[{name}]", *lines])


@st.composite
def game_texts(draw):
    n, m = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    if draw(st.booleans()):
        players, nonplayers = list(range(1, n + 1)), list(range(n + 1, n + m + 1))
    else:
        players, nonplayers = draw(st.lists(NODE, max_size=4)), draw(st.lists(NODE, max_size=4))
    sections = [
        _section("players", [f"{i} {draw(ALPHA)}" for i in players]),
        _section("nonplayers", [" ".join(map(str, nonplayers))] if nonplayers else []),
        _section("original_edges", [f"{a} {b}" for a, b in draw(EDGES)]),
        _section("edges", [f"{a} {b}" for a, b in draw(EDGES)]),
    ]
    return "\n".join(draw(st.permutations(sections))[: draw(st.integers(0, 4))]) + "\n"


@st.composite
def graph_texts(draw):
    edges = _section("edges", [f"{a} {b}" for a, b in draw(EDGES)])
    triples = draw(st.lists(st.tuples(NODE, NODE, NODE), max_size=2))
    sustainers = [f"{j} {l} {k}" for j, l, k in triples]
    return edges + "\n" + (_section("sustainers", sustainers) + "\n" if sustainers else "")


@st.composite
def plain_texts(draw):
    sections = [
        _section("nodes", [str(draw(NODE))]),
        _section("edges", [f"{a} {b}" for a, b in draw(EDGES)]),
    ]
    return "\n".join(s for s in sections if draw(st.booleans())) + "\n"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(COMMANDS),
    game=game_texts(),
    graphs=st.lists(graph_texts(), max_size=2),
    plain=plain_texts(),
    k=st.integers(-1, 3),
    slack=st.integers(-1, 2),
    beta=st.sampled_from(["5/2", "2", "2.9", "abc", "2.50000000000000000001"]),
    fmt=st.sampled_from(["json", "text"]),
    out=st.sampled_from([None, "dir", "file"]),
)
def test_cli_exits_0_2_or_3_on_generated_files(
    workdir, command, game, graphs, plain, k, slack, beta, fmt, out
):
    (workdir / "x.game").write_text(game)
    paths = []
    for t, text in enumerate(graphs):
        paths.append(workdir / f"g{t}.graph")
        paths[-1].write_text(text)
    if command == "detect":
        paths = [workdir / "plain.graph"]
        paths[0].write_text(plain)
    argv = [command, "--game", str(workdir / "x.game"), "--k", str(k), "--max-k", str(k)]
    argv += ["--slack", str(slack), "--beta", beta, "--format", fmt]
    for path in paths:
        argv += ["--graph", str(path)]
    if out is not None:
        argv += ["--out", str(workdir if out == "dir" else workdir / "report.out")]
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("HIDENET_ORACLE_BUDGET", "6")
        code, output = run_command(argv)
    assert code in (0, 2, 3)
    if code in (2, 3):
        assert output.startswith("error: ") and "Traceback" not in output
    elif fmt == "json" and out is None:
        json.loads(output)
