"""Plain-text game and graph files.

A game file is sectioned, one record per line, ``#`` comments allowed:

    [players]
    1 1
    2 1/2
    [nonplayers]
    3 4 5
    [original_edges]
    3 4
    [edges]
    1 2
    1 3
    [sustainers]
    3 4 1

Alphas are exact rationals ("3/2") or decimal strings ("1.5"), never
binary floats.  ``edges`` defaults to the original edges; ``sustainers``
lists ``j l k`` triples naming the player k holding added edge (j, l).
A graph file reuses the same syntax with only ``edges``/``sustainers``
(plus ``[nodes]`` with a node count when no game supplies the universe).
Parsing and serialising round-trip exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ValidationError
from .model import Edge, GameSpec, Network, as_fraction, build_network


class GameFileError(ValidationError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_SECTIONS = ("players", "nonplayers", "original_edges", "edges", "sustainers", "nodes")


def _tokenise(text: str):
    """Yield (line_number, section, tokens) for every record line."""
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise GameFileError(f"unknown section [{name}]", lineno)
            section = name
            continue
        if section is None:
            raise GameFileError("content before any [section] header", lineno)
        yield lineno, section, line.split()


def _int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise GameFileError(f"expected an integer, got {token!r}", lineno) from None


def _edge_line(tokens: list[str], lineno: int) -> Edge:
    if len(tokens) != 2:
        raise GameFileError("edge lines are 'a b'", lineno)
    a, b = (_int(t, lineno) for t in tokens)
    return a, b


def _sustainer_line(tokens: list[str], lineno: int, sustainers: dict[Edge, int]) -> None:
    """Record a 'j l k' line in ``sustainers``; a pair may be given once."""
    if len(tokens) != 3:
        raise GameFileError("sustainer lines are 'j l k'", lineno)
    j, l, k = (_int(t, lineno) for t in tokens)
    key = (j, l) if j < l else (l, j)
    if key in sustainers:
        raise GameFileError(f"repeated sustainer for pair {key}", lineno)
    sustainers[key] = k


def parse_game_file(text: str) -> tuple[Network, GameSpec]:
    players: list[tuple[int, Fraction]] = []
    nonplayers: list[int] = []
    original: list[Edge] = []
    edges: list[Edge] = []
    sustainers: dict[Edge, int] = {}
    for lineno, section, tokens in _tokenise(text):
        if section == "players":
            if len(tokens) != 2:
                raise GameFileError("player lines are 'id alpha'", lineno)
            ident = _int(tokens[0], lineno)
            try:
                alpha = as_fraction(tokens[1])
            except ValidationError as exc:
                raise GameFileError(str(exc), lineno) from None
            if alpha < 0:
                raise GameFileError(f"negative alpha for player {ident}", lineno)
            players.append((ident, alpha))
        elif section == "nonplayers":
            nonplayers.extend(_int(t, lineno) for t in tokens)
        elif section in ("original_edges", "edges"):
            (edges if section == "edges" else original).append(_edge_line(tokens, lineno))
        elif section == "sustainers":
            _sustainer_line(tokens, lineno, sustainers)
        elif section == "nodes":
            raise GameFileError("[nodes] belongs to standalone graph files", lineno)
    if not players:
        raise GameFileError("no [players] section", 1)
    ids = [ident for ident, _ in players]
    n = len(ids)
    if sorted(ids) != list(range(1, n + 1)):
        raise ValidationError(f"player ids must be exactly 1..{n}, got {sorted(ids)}")
    m = len(nonplayers)
    if sorted(nonplayers) != list(range(n + 1, n + m + 1)):
        raise ValidationError(
            f"non-player ids must be exactly {n + 1}..{n + m}, got {sorted(nonplayers)}"
        )
    game = GameSpec(tuple(alpha for _, alpha in sorted(players)))
    return build_network(n, m, edges, original, sustainers or None), game


def parse_graph_file(text: str, base: Network) -> Network:
    """Graph file resolved against a game's node universe and E0."""
    edges: list[Edge] = []
    sustainers: dict[Edge, int] = {}
    for lineno, section, tokens in _tokenise(text):
        if section == "edges":
            edges.append(_edge_line(tokens, lineno))
        elif section == "sustainers":
            _sustainer_line(tokens, lineno, sustainers)
        else:
            raise GameFileError(f"graph files only carry [edges]/[sustainers]", lineno)
    return build_network(
        base.num_players, base.num_nonplayers, edges, base.original_edges, sustainers or None
    )


def parse_plain_graph(text: str) -> tuple[int, list[Edge]]:
    """Standalone graph for detection: [nodes] count plus [edges]."""
    num_nodes = None
    edges: list[Edge] = []
    for lineno, section, tokens in _tokenise(text):
        if section == "nodes":
            if len(tokens) != 1:
                raise GameFileError("[nodes] holds a single count", lineno)
            if num_nodes is not None:
                raise GameFileError("repeated [nodes] count", lineno)
            num_nodes = _int(tokens[0], lineno)
        elif section == "edges":
            edges.append(_edge_line(tokens, lineno))
        else:
            raise GameFileError("plain graphs only carry [nodes] and [edges]", lineno)
    if num_nodes is None:
        num_nodes = max((max(e) for e in edges), default=0)
    return num_nodes, edges


def serialize_game(net: Network, game: GameSpec) -> str:
    lines = ["[players]"]
    for i in net.players:
        try:
            lines.append(f"{i} {game.alpha(i)}")
        except ValueError:  # past the interpreter's limit on int-to-str digits
            raise ValidationError(f"alpha of player {i} is too long to print") from None
    lines.append("[nonplayers]")
    if net.num_nonplayers:
        lines.append(" ".join(str(v) for v in net.nonplayers))
    lines.append("[original_edges]")
    lines.extend(f"{a} {b}" for a, b in sorted(net.original_edges))
    lines.append("[edges]")
    lines.extend(f"{a} {b}" for a, b in net.sorted_edges())
    lines.append("[sustainers]")
    lines.extend(f"{j} {l} {k}" for (j, l), k in sorted(net.sustainers.items()))
    return "\n".join(lines) + "\n"


def serialize_graph(net: Network) -> str:
    lines = ["[edges]"]
    lines.extend(f"{a} {b}" for a, b in net.sorted_edges())
    lines.append("[sustainers]")
    lines.extend(f"{j} {l} {k}" for (j, l), k in sorted(net.sustainers.items()))
    return "\n".join(lines) + "\n"
