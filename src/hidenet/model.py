"""Core data model for the hiders' game.

Nodes are labelled 1..n+m with the n strategic players first and the m
passive non-players after them.  A network state is an undirected graph
over those nodes together with the set of original (pre-play) edges E0,
which may only join non-players.  Player utility is

    u_i = sum(deg(j) for j in neighbours(i)) - alpha_i * deg(i)

with alpha_i an exact rational, so every stability question reduces to
exact integer/rational comparisons; ties are semantically meaningful and
floating point is never used.

The package works on graphs; the game's literal strategy layer lives in
``tests/strategic.py``, which checks the move convention of ``moves``.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Collection, Iterable, Mapping, Optional, Sequence

from .errors import ValidationError

Edge = tuple[int, int]


def edge(a: int, b: int) -> Edge:
    """Normalise an unordered node pair."""
    if a == b:
        raise ValidationError(f"self-loop on node {a}")
    return (a, b) if a < b else (b, a)


def edge_set(pairs: Iterable[Sequence[int]]) -> frozenset[Edge]:
    return frozenset(edge(a, b) for a, b in pairs)


def clique_edges(nodes: Iterable[int]) -> frozenset[Edge]:
    """Every pair of the given distinct nodes."""
    return frozenset(itertools.combinations(sorted(nodes), 2))


def _require_nodes(pairs: frozenset[Edge], num_nodes: int, what: str) -> None:
    bad = [e for e in pairs if e[0] < 1 or e[1] > num_nodes]
    if bad:
        raise ValidationError(f"{what} {min(bad)} references unknown nodes (|V| = {num_nodes})")


def original_edge_set(
    num_players: int, num_nonplayers: int, pairs: Iterable[Sequence[int]]
) -> frozenset[Edge]:
    """The original edges E0 of an instance, normalised and validated: every
    pair must name nodes of the instance, and then join two non-players."""
    e0 = edge_set(pairs)
    _require_nodes(e0, num_players + num_nonplayers, "original edge")
    touching = [e for e in e0 if e[0] <= num_players]
    if touching:
        raise ValidationError(f"original edge {min(touching)} touches a player")
    return e0


def as_fraction(value) -> Fraction:
    """Exact conversion; accepts Fraction, int, or strings like '3/2' / '1.1'."""
    if isinstance(value, float):
        raise ValidationError(
            f"refusing float alpha {value!r}: pass a string or Fraction for exactness"
        )
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad rational {value!r}: {exc}") from None


def require_strength(k: int, num_players: int) -> None:
    """A coalition strength k must lie in 1..n."""
    if not 1 <= k <= num_players:
        raise ValidationError(f"strength k={k} outside 1..{num_players}")


@dataclass(frozen=True)
class GameSpec:
    """Per-player visibility-aversion coefficients alpha_1..alpha_n."""

    alphas: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(as_fraction(a) for a in self.alphas))
        if len(self.alphas) < 2:
            raise ValidationError("a game needs at least two players")
        for i, a in enumerate(self.alphas, start=1):
            if a < 0:
                raise ValidationError(f"negative alpha for player {i}")

    @property
    def num_players(self) -> int:
        return len(self.alphas)

    def alpha(self, i: int) -> Fraction:
        return self.alphas[i - 1]

    @cached_property
    def ratios(self) -> tuple[tuple[int, int], ...]:
        """Every alpha_i as (p_i, q_i), player i at index i - 1."""
        return tuple((a.numerator, a.denominator) for a in self.alphas)

    def ratio(self, i: int) -> tuple[int, int]:
        """alpha_i as (p_i, q_i), for scores compared on integers."""
        return self.ratios[i - 1]


@dataclass(frozen=True)
class Network:
    """An immutable, validated graph state of the hiders' game.

    Every state comes from :func:`build_network` (``with_edges`` included),
    which validates it and computes its index once.  ``edges`` always
    contains ``original_edges``.  Every added edge between two non-players
    carries a sustainer: a player adjacent to both ends, named in game and
    graph files.  Sustainers are input/output metadata only: utilities,
    stability verdicts and every move ignore them.  Two index fields are
    filled by the builder and left out of equality: ``adjacency``, the
    sorted neighbour tuples by node (slot 0 empty), and ``sole_pairs``, the
    added non-player pairs keyed by their only covering player (read it
    through :func:`sole_covered_pairs`).
    """

    num_players: int
    num_nonplayers: int
    original_edges: frozenset[Edge]
    edges: frozenset[Edge]
    sustainers: Mapping[Edge, int]
    adjacency: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)
    sole_pairs: dict[int, list[Edge]] = field(repr=False, compare=False)

    @property
    def num_nodes(self) -> int:
        return self.num_players + self.num_nonplayers

    @property
    def players(self) -> range:
        return range(1, self.num_players + 1)

    @property
    def nonplayers(self) -> range:
        return range(self.num_players + 1, self.num_nodes + 1)

    @property
    def nodes(self) -> range:
        return range(1, self.num_nodes + 1)

    def is_player(self, v: int) -> bool:
        return 1 <= v <= self.num_players

    def neighbours(self, v: int) -> tuple[int, ...]:
        """v's neighbours, ascending (players first)."""
        if v > 0:  # a negative index would wrap silently
            try:
                return self.adjacency[v]
            except IndexError:
                pass
        raise ValidationError(f"unknown node {v}")

    def degree(self, v: int) -> int:
        return len(self.neighbours(v))

    def nonplayer_neighbours(self, v: int) -> list[int]:
        nbrs = self.neighbours(v)
        return list(nbrs[bisect_right(nbrs, self.num_players):])

    def player_degree(self, v: int) -> int:
        return bisect_right(self.neighbours(v), self.num_players)

    @property
    def added_edges(self) -> frozenset[Edge]:
        return self.edges - self.original_edges

    def added_nonplayer_edges(self) -> frozenset[Edge]:
        return frozenset(
            e for e in self.added_edges if not self.is_player(e[0]) and not self.is_player(e[1])
        )

    def common_player_neighbours(self, j: int, l: int) -> tuple[int, ...]:
        """Players adjacent to both j and l, ascending."""
        return tuple(_common_players(self.neighbours(j), self.neighbours(l), self.num_players))

    def with_edges(self, edges: Iterable[Sequence[int]]) -> "Network":
        """A validated copy of this network with a different edge set."""
        return build_network(self.num_players, self.num_nonplayers, edges, self.original_edges)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


def _sorted_adjacency(edges: Iterable[Edge], num_nodes: int) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbour tuples indexed by node, slot 0 empty."""
    adj: list[list[int]] = [[] for _ in range(num_nodes + 1)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    for s in adj:
        s.sort()
    return tuple(map(tuple, adj))


def _common_players(a: tuple[int, ...], b: tuple[int, ...], num_players: int) -> list[int]:
    """The players, ascending, in both of two sorted neighbour tuples."""
    return [i for i in a[: bisect_right(a, num_players)] if i in b]


def build_network(
    num_players: int,
    num_nonplayers: int,
    edges: Iterable[Sequence[int]] = (),
    original_edges: Iterable[Sequence[int]] = (),
    sustainers: Optional[Mapping[Edge, int]] = None,
) -> Network:
    """Construct and fully validate a :class:`Network`, in one pass over
    the added non-player pairs.  A pair no player covers cannot exist in any
    strategy profile and is rejected.  Its sustainer is the given one, which
    must cover it, or else its lowest covering player; a pair with one
    covering player is also one of her ``sole_pairs``."""
    if num_players < 2:
        raise ValidationError(f"need at least 2 players, got {num_players}")
    if num_nonplayers < 0:
        raise ValidationError("negative non-player count")
    n, m = num_players, num_nonplayers
    e0 = original_edge_set(n, m, original_edges)
    es = edge_set(edges)
    _require_nodes(es, n + m, "edge")
    es |= e0
    nbrs = _sorted_adjacency(es, n + m)
    given = dict(sustainers or {})
    chosen: dict[Edge, int] = {}
    sole: dict[int, list[Edge]] = {}
    for e in sorted(p for p in es - e0 if p[0] > n):
        cover = _common_players(nbrs[e[0]], nbrs[e[1]], n)
        if not cover:
            raise ValidationError(f"unsustainable non-player edge {e}: no common player neighbour")
        k = given.pop(e, cover[0])
        if k not in cover:
            raise ValidationError(
                f"sustainer {k} of edge {e} is not a player adjacent to both endpoints"
            )
        chosen[e] = k
        if len(cover) == 1:
            sole.setdefault(k, []).append(e)
    if given:
        raise ValidationError(
            f"sustainer given for {min(given)}, which is not an added non-player edge"
        )
    return Network(n, m, e0, es, chosen, nbrs, sole)


@dataclass(frozen=True)
class UtilityVector:
    per_player: tuple[Fraction, ...]

    @property
    def sw(self) -> Fraction:
        return sum(self.per_player, Fraction(0))

    def of(self, i: int) -> Fraction:
        return self.per_player[i - 1]


def scaled_utilities(
    edges: Collection[Edge],
    num_nodes: int,
    ratios: Sequence[tuple[int, int]],
    members: Iterable[int],
) -> list[int]:
    """q_i * u_i for each member i of an arbitrary edge set, as integers:
    q_i * S_i - p_i * deg(i), with (p_i, q_i) = ``ratios[i - 1]`` and S_i
    the sum of i's neighbours' degrees.

    Utility depends on the graph alone, so this is also the evaluation core
    for hypothetical states inside deviation and welfare searches.  It runs
    no feasibility check and reads nothing cached on a network.
    """
    deg = [0] * (num_nodes + 1)
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    S = dict.fromkeys(members, 0)
    for a, b in edges:
        if a in S:
            S[a] += deg[b]
        if b in S:
            S[b] += deg[a]
    return [ratios[i - 1][1] * s - ratios[i - 1][0] * deg[i] for i, s in S.items()]


def utilities_from_edges(
    num_players: int, num_nodes: int, edges: Collection[Edge], alphas: Sequence[Fraction]
) -> UtilityVector:
    """Utilities of an arbitrary edge set, without feasibility checks."""
    ratios = [(a.numerator, a.denominator) for a in alphas]
    scores = scaled_utilities(edges, num_nodes, ratios, range(1, num_players + 1))
    return UtilityVector(tuple(Fraction(s, q) for s, (_, q) in zip(scores, ratios)))


def require_alpha_count(net: Network, game: GameSpec) -> None:
    """A game must give one alpha per player of the network."""
    if game.num_players != net.num_players:
        raise ValidationError(
            f"game has {game.num_players} alphas but network has {net.num_players} players"
        )


def utility(net: Network, game: GameSpec) -> UtilityVector:
    require_alpha_count(net, game)
    return utilities_from_edges(net.num_players, net.num_nodes, net.edges, game.alphas)


def sole_covered_pairs(net: Network, i: int) -> list[Edge]:
    """Added non-player pairs whose only common player neighbour is i: the
    pairs that die if she drops an edge to either end.  An added non-player
    pair needs some player adjacent to both endpoints, and outlives i's
    withdrawal exactly when another player covers it."""
    return net.sole_pairs.get(i, [])
