"""Brute-force ground truth over the full feasible graph space.

Every subset of candidate edges (all pairs outside E0) is a potential
state; a subset is feasible when each added non-player edge has a player
adjacent to both endpoints.  One ``FeasibleGraphSet`` holds the tables of
an instance and answers every question about them.  Its one table of
utilities holds q_i times each player's utility for every subset as an
integer, so stability and welfare questions reduce to exact integer
comparisons (alpha_i = p_i / q_i is cross-multiplied, never evaluated in
floating point).  Inputs whose table could leave int64 are rejected up
front.  The coalitions of one size are scored in stacked numpy blocks:
one coalition over many masks while many are live, many coalitions in one
call once few masks are left; a blocking pair is scored by looking up both
players' utilities with its link added, for all player pairs at once.

``enumerate_feasible_graphs`` keeps the last instance's space alive until
an instance with other alphas, non-player count, original edges or budget
asks for one, so the oracle-backed calls on one instance (``efficiency``,
``strength_equivalences``, ``enumerate_lattice``, ``max_social_welfare``,
``cross_validate``, ``exhaustive_stability``) build its table once, and
the space keeps its answers: ``nash_flags(k)``, ``pans_masks(k)`` and
``max_welfare()`` each compute once.  What does not depend on the alphas
is laid out once per shape (n, m, E0) and shared by every game of that
shape: the candidate edges and their bits, the cover rule (each candidate
non-player pair's bit in ``pair_bits`` and the edge patterns by which each
player covers it in ``patterns``), the feasibility flags, the feasible
masks, each player's degree and neighbour-degree-sum rows, and each
strength's move plan.  ``_layout`` keeps the last eight shapes' layouts; a
space adds only its utility table, two int64 vector operations per player.
Every shared array is read-only.  The bytes a space keeps, the figure its
budget errors state, are counted in ``FeasibleGraphSet.__init__``; README
"Oracle budget" gives them measured.

The deviation semantics mirror ``moves.py`` but are re-implemented on the
bitmask representation: the two routes share nothing except the model
definition, which is what makes cross-validation meaningful.  That
definition includes the instance: E0 is validated by
``model.original_edge_set``, the same check ``build_network`` runs.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .errors import BudgetExceededError, ValidationError
from .model import (
    Edge,
    GameSpec,
    Network,
    UtilityVector,
    build_network,
    edge,
    edge_set,
    original_edge_set,
    require_alpha_count,
    require_strength,
)
from .moves import make_move
from .stability import StabilityVerdict

DEFAULT_EDGE_BUDGET = 18
_BUDGET_ENV = "HIDENET_ORACLE_BUDGET"
# Most moves one block of the stability kernel holds; (coalition, mask) rows
# are chunked to fit.
_BLOCK_ELEMENTS = 1 << 16
# About how many moves one kernel call of ``nash_flags`` scores.  A call costs
# 13-18 us of numpy overhead whatever its size and 5-11 ns a move, so below
# some 1,600-3,100 moves the overhead dominates and stacking coalitions pays,
# while above it each coalition's pruning of the next one's masks saves more
# (measured at (5,0), (4,1) and (3,2), NumPy 2.4, 2 vCPUs; groups of 2^11 and
# 2^13 moves scored the ``oracle`` benchmark within its run-to-run spread).
_GROUP_MOVES = 1 << 12
_INT64_MAX = int(np.iinfo(np.int64).max)
# Most candidate edges a space can have: 2^60 int64 entries take 2^63 bytes,
# past the 2^63 - 1 one numpy array can address, and from 64 on a mask no
# longer fits in int64.
_MOST_EDGES = 59


def _require_int64(bound: int, what: str) -> None:
    if bound > _INT64_MAX:
        raise ValidationError(
            f"{what} is about 2^{bound.bit_length()}, beyond the oracle's int64 tables "
            "(at most 2^63 - 1)"
        )


def edge_budget() -> int:
    raw = os.environ.get(_BUDGET_ENV)
    if not raw:
        return DEFAULT_EDGE_BUDGET
    try:
        limit = int(raw)
    except ValueError:
        limit = -1
    if limit < 0:
        raise ValidationError(f"{_BUDGET_ENV} must be a non-negative integer, got {raw!r}")
    return limit


def candidate_edge_count(num_players: int, num_nonplayers: int) -> int:
    n, m = num_players, num_nonplayers
    return n * (n - 1) // 2 + n * m + m * (m - 1) // 2


def _covered(masks: np.ndarray, patterns: np.ndarray) -> np.ndarray:
    """Whether each mask holds every bit of one of ``patterns``, the entries
    along its first axis, each broadcast against ``masks``."""
    covered = np.zeros(masks.shape, dtype=bool)
    for pattern in patterns:
        covered = covered | ((masks & pattern) == pattern)
    return covered


@dataclass(frozen=True)
class _Plan:
    """Every coalition of one size, in ``itertools.combinations`` order,
    with its moves laid out as the rows of stacked arrays.

    A coalition's moves rewrite the bits of ``~keep`` (every member-incident
    edge and every candidate non-player pair) and may only delete the bits
    of ``~allow`` (its edges to outside players).  ``choices[g]`` sets the
    free positions (member pairs and member-to-non-player edges), then the
    outside ones, each ascending, by counter, and adds the non-player pairs
    that members then cover.  Coalitions of one size touch the same number
    of positions, so every row of ``choices`` has the same length.
    ``covers[p, :, g]`` holds the patterns by which each player outside
    coalition ``g`` covers the layout's pair ``pair_bits[p]``: a present
    pair survives such a cover.
    """

    coalitions: list[tuple[int, ...]]
    members: np.ndarray  # (coalitions, size)
    keep: np.ndarray  # (coalitions,)
    allow: np.ndarray  # (coalitions,)
    choices: np.ndarray  # (coalitions, moves)
    covers: np.ndarray  # (pairs, n - size, coalitions)


class _Layout:
    """The part of a space that depends on its shape (n, m, E0) alone, not
    on the alphas: the candidate edges and their bit positions, the cover
    rule (``pair_bits``, each candidate non-player pair's bit, and
    ``patterns[p, i - 1]``, the two edges by which player i covers pair p),
    the player links, the feasibility flags, the feasible masks, each
    player's degree and neighbour-degree-sum rows, and each strength's
    ``_Plan``, built on first use.  ``_layout`` shares one per shape between
    the spaces of every game of that shape, so its arrays are read-only.
    """

    def __init__(self, n: int, m: int, e0: frozenset[Edge]):
        self.n, self.m = n, m
        cand = [edge(i, j) for i, j in itertools.combinations(range(1, n + m + 1), 2)]
        self.cand = [e for e in cand if e not in e0]
        self.pos = {e: t for t, e in enumerate(self.cand)}
        bit = {e: 1 << t for e, t in self.pos.items()}
        pairs = [(j, l) for j, l in self.cand if j > n]
        self.pair_bits = np.array([bit[p] for p in pairs], dtype=np.int64)
        self.patterns = np.array(
            [[bit[edge(i, j)] | bit[edge(i, l)] for i in range(1, n + 1)] for j, l in pairs],
            dtype=np.int64,
        ).reshape(len(pairs), n)
        # the player links, lexicographic, as the rows of ``_blocking_pairs``
        self.links = list(itertools.combinations(range(1, n + 1), 2))
        self._link_ends = np.array(self.links, dtype=np.int64).T[..., None]
        self._link_bits = np.array([[bit[p]] for p in self.links], dtype=np.int64)
        every = np.arange(1 << len(self.cand), dtype=np.int64)
        self.feasible = np.ones(len(every), dtype=bool)
        for pair_bit, patterns in zip(self.pair_bits, self.patterns):
            self.feasible &= ((every & pair_bit) == 0) | _covered(every, patterns)
        self.masks = np.flatnonzero(self.feasible)
        self.deg, self.sums = self._degrees(every, e0)
        for table in (self.pair_bits, self.patterns, self.feasible, self.masks,
                      self._link_ends, self._link_bits, self.deg, self.sums):
            table.setflags(write=False)
        self._plans: dict[int, _Plan] = {}

    def _degrees(self, every: np.ndarray, e0: frozenset[Edge]) -> tuple[np.ndarray, np.ndarray]:
        """Per player i (row i - 1) and mask, deg_i and S_i, the degree sum
        of i's neighbours.  Every node but player 1 is joined to player 1 by
        a candidate edge, so a degree is at most n + m - 1 <= C, and a mask
        fits in int64 only while C < 64: a degree fits in a byte and S_i,
        below 64^2, in two."""
        n, m = self.n, self.m
        deg = np.zeros((n + m + 1, len(every)), dtype=np.uint8)
        for t, (a, b) in enumerate(self.cand):
            bit = ((every >> t) & 1).astype(np.uint8)
            deg[a] += bit
            deg[b] += bit
        for a, b in e0:
            deg[a] += 1
            deg[b] += 1
        sums = np.zeros((n, len(every)), dtype=np.uint16)
        for i in range(1, n + 1):
            for j in range(1, n + m + 1):
                if j != i:
                    sums[i - 1] += ((every >> self.pos[edge(i, j)]) & 1).astype(np.uint8) * deg[j]
        return deg[1 : n + 1].copy(), sums

    def plan(self, k: int) -> _Plan:
        """The ``_Plan`` of the coalitions of size k, built once per strength.
        Row g of ``positions`` lists coalition g's free positions, then its
        outside ones, each ascending, so bit idx of a counter sets the edge at
        ``positions[g, idx]``."""
        if k in self._plans:
            return self._plans[k]
        n, m, pos = self.n, self.m, self.pos
        coalitions = list(itertools.combinations(range(1, n + 1), k))
        outsiders = [[j for j in range(1, n + 1) if j not in c] for c in coalitions]
        positions = np.array(
            [
                sorted(
                    {pos[edge(a, b)] for a, b in itertools.combinations(c, 2)}
                    | {pos[edge(i, j)] for i in c for j in range(n + 1, n + m + 1)}
                )
                + sorted(pos[edge(i, j)] for i in c for j in outside)
                for c, outside in zip(coalitions, outsiders)
            ],
            dtype=np.int64,
        )
        bits = np.int64(1) << positions
        width = bits.shape[1]
        # the moves of counters below 2^(idx + 1) are those below 2^idx, then
        # the same with position idx set
        choices = np.zeros((len(coalitions), 1 << width), dtype=np.int64)
        for idx in range(width):
            half = 1 << idx
            np.bitwise_or(choices[:, :half], bits[:, idx, None], out=choices[:, half : 2 * half])
        members = np.array(coalitions, dtype=np.int64)
        for pair_bit, patterns in zip(self.pair_bits, self.patterns):
            choices |= _covered(choices, patterns[members.T - 1, None]) * pair_bit
        # the last k(n - k) positions are the edges to outside players
        outside = np.bitwise_or.reduce(bits[:, width - k * (n - k) :], axis=1)
        plan = _Plan(
            coalitions,
            members,
            ~(np.bitwise_or.reduce(bits, axis=1) | np.bitwise_or.reduce(self.pair_bits)),
            ~outside,
            choices,
            self.patterns[:, np.array(outsiders, dtype=np.int64).T - 1],
        )
        for table in (plan.members, plan.keep, plan.allow, plan.choices, plan.covers):
            table.setflags(write=False)
        self._plans[k] = plan
        return plan


class FeasibleGraphSet:
    """All feasible states of one instance as bitmask tables, with their
    stability classification and welfare.

    ``masks`` lists the feasible masks ascending; ``qu``, ``feasible`` and
    the flags range over all 2^C masks.  The alpha-free tables (``cand``,
    ``pos``, ``links``, ``feasible``, ``masks``) are the shape's shared
    ``layout``; the space adds ``qu`` and keeps its answers.  Every array
    the space holds is read-only, since callers of
    ``enumerate_feasible_graphs`` share one space.
    """

    def __init__(self, game: GameSpec, num_nonplayers: int, original_edges: Iterable = ()):
        n, m = game.num_players, num_nonplayers
        self.e0 = original_edge_set(n, m, original_edges)
        # exact: the validated E0 pairs are distinct non-player pairs in range
        limit, count = edge_budget(), candidate_edge_count(n, m) - len(self.e0)
        # bytes per mask: q_i * u_i per player, the feasible mask and its flag,
        # and each player's degree (one byte) and neighbour-degree sum (two);
        # spell the powers of two out only while they are short to compute and print
        per_mask = 8 * (n + 2) + 1 + 3 * n
        if count <= _MOST_EDGES:
            held, graphs = f"up to {per_mask << count} bytes", f"2^{count} = {1 << count}"
        else:
            held, graphs = f"up to {per_mask} * 2^{count} bytes", f"2^{count}"
        if count > limit:
            raise BudgetExceededError(
                f"{count} candidate edges, whose space keeps {held}, exceed the "
                f"oracle budget of {limit} ({graphs} graphs)"
            )
        unfit = BudgetExceededError(
            f"{count} candidate edges, whose space keeps {held}, do not fit in memory"
        )
        if count > _MOST_EDGES:
            raise unfit
        nodes = n + m
        for i, a in enumerate(game.alphas, start=1):
            _require_int64(
                a.denominator * nodes**2 + a.numerator * nodes,
                f"the scaled utility bound of player {i}",
            )
        self.game = game
        self.n, self.m = n, m
        try:
            self.layout = _layout(n, m, self.e0)
            self.qu = self._table()
        except MemoryError:
            raise unfit from None
        self.qu.setflags(write=False)
        self.cand, self.pos, self.links = self.layout.cand, self.layout.pos, self.layout.links
        self.feasible, self.masks = self.layout.feasible, self.layout.masks
        self._nash_cache: dict[int, np.ndarray] = {}
        self._pans_cache: dict[int, tuple[int, ...]] = {}
        self._welfare: Optional[tuple[Fraction, Network]] = None

    def _table(self) -> np.ndarray:
        """q_i * u_i = q_i * S_i - p_i * deg_i over all 2^C masks, one row
        per player, from the layout's degree rows.  Each product is taken in
        int64 (``dtype``), never in the rows' narrow dtypes, where it would
        wrap or raise, and where NumPy 1 and 2 (NEP 50) promote differently."""
        layout = self.layout
        qu = np.zeros((self.n + 1, len(layout.feasible)), dtype=np.int64)
        for i, (p, q) in enumerate(self.game.ratios, start=1):
            np.multiply(layout.sums[i - 1], q, out=qu[i], dtype=np.int64)
            qu[i] -= np.multiply(layout.deg[i - 1], p, dtype=np.int64)
        return qu

    def __len__(self) -> int:
        return len(self.masks)

    # -- mask/edge translation ------------------------------------------------

    def mask_of(self, edges: frozenset[Edge]) -> int:
        mask = 0
        for e in edges - self.e0:
            try:
                mask |= 1 << self.pos[e]
            except KeyError:
                raise ValidationError(f"edge {e} outside this instance") from None
        return mask

    def edges_of(self, mask: int) -> frozenset[Edge]:
        return frozenset(
            e for t, e in enumerate(self.cand) if mask >> t & 1
        ) | self.e0

    def network(self, mask: int) -> Network:
        return build_network(self.n, self.m, self.edges_of(mask), self.e0)

    def utilities(self, mask: int) -> UtilityVector:
        per = zip(self.qu[1:, mask], self.game.alphas)
        return UtilityVector(tuple(Fraction(int(qu), a.denominator) for qu, a in per))

    # -- stability ------------------------------------------------------------

    def first_improving_moves(
        self, masks: np.ndarray, k: int, start: int = 0, stop: Optional[int] = None
    ) -> np.ndarray:
        """(coalitions x masks): for the coalitions of size k from ``start``
        to ``stop`` in ``itertools.combinations`` order, each one's first
        improving move at each mask in counter order (closure applied), or
        -1 where it has none.

        The moves of coalition g at a mask are ``base | (choices[g] & (mask
        | allow[g]))``, where ``base`` keeps the edges no member touches and
        the non-player pairs an outside player still covers.  The (coalition,
        mask) grid is cut into blocks of at most ``_BLOCK_ELEMENTS`` moves,
        or one pair's moves where those are more (at most 2^C, which the
        budget bounds).
        """
        plan = self.layout.plan(k)
        group = slice(start, stop)
        members, choices = plan.members[group], plan.choices[group, None]
        base = masks & plan.keep[group, None]
        for pair_bit, patterns in zip(self.layout.pair_bits, plan.covers):
            base |= (masks & pair_bit) * _covered(masks, patterns[:, group, None])
        allowed = masks | plan.allow[group, None]
        found = np.empty(base.shape, dtype=np.int64)
        # a block spans ``cols`` masks of ``rows`` coalitions: all the masks
        # and as many coalitions as fit, else as many masks as fit
        width = choices.shape[2]
        span = max(1, _BLOCK_ELEMENTS // width)
        cols = max(1, min(len(masks), span))
        rows = max(1, span // cols)
        for lo in range(0, len(members), rows):
            gs = slice(lo, lo + rows)
            for col in range(0, len(masks), cols):
                ls = slice(col, col + cols)
                moves = choices[gs] & allowed[gs, ls, None]
                moves |= base[gs, ls, None]
                for j, player in enumerate(members[gs].T):
                    after = self._scores(player, moves)
                    before = self._scores(player, masks[None, ls, None])
                    if j == 0:
                        hit, weak = after > before, after >= before if k > 1 else None
                    else:
                        hit |= after > before
                        weak &= after >= before
                if k > 1:
                    hit &= weak
                # the first hit of each (coalition, mask) row, read at its flat index
                first = hit.argmax(axis=2).ravel()
                first += np.arange(0, hit.size, width)
                moved = np.where(hit.ravel()[first], moves.ravel()[first], -1)
                found[gs, ls] = moved.reshape(hit.shape[:2])
        return found

    def _scores(self, players: np.ndarray, moves: np.ndarray) -> np.ndarray:
        """``qu[players[g], moves[g]]`` for each coalition row g: one player's
        row is indexed directly, several through their offsets in flat ``qu``."""
        if len(players) == 1:
            return self.qu[players[0]][moves]
        return self.qu.ravel()[moves + (players * self.qu.shape[1])[:, None, None]]

    def _blocking_pairs(self, masks: np.ndarray) -> np.ndarray:
        """(links x masks): whether the player pair ``links[r]`` blocks at
        the mask.  Adding a player link changes no cover, so the pair's move
        is ``mask | bit``, and it blocks when both players' ``qu`` weakly
        rise there, one strictly.  A present link leaves the mask unchanged,
        so it never blocks."""
        ends, bits = self.layout._link_ends, self.layout._link_bits
        gains = self.qu[ends, masks | bits] - self.qu[ends, masks]
        return (gains >= 0).all(axis=0) & (gains > 0).any(axis=0)

    def nash_flags(self, k: int) -> np.ndarray:
        """Boolean array over all masks: feasible, and no improving coalition
        of size <= k.

        The coalitions of size k are scored in groups against the masks still
        live, each group sized to about ``_GROUP_MOVES`` moves: one coalition
        at a time while many masks are live, so each prunes the masks the
        next one scores, and many in one call once few are left."""
        require_strength(k, self.n)
        if k in self._nash_cache:
            return self._nash_cache[k]
        live = np.flatnonzero(self.nash_flags(k - 1) if k > 1 else self.feasible)
        count, width = self.layout.plan(k).choices.shape
        start = 0
        while start < count and len(live):
            stop = start + max(1, _GROUP_MOVES // (len(live) * width))
            live = live[(self.first_improving_moves(live, k, start, stop) < 0).all(axis=0)]
            start = stop
        flags = np.zeros(len(self.feasible), dtype=bool)
        flags[live] = True
        flags.setflags(write=False)
        self._nash_cache[k] = flags
        return flags

    def pans_masks(self, k: int = 1) -> list[int]:
        """The masks ``nash_flags(k)`` keeps at which no player pair blocks,
        as a new list on every call."""
        if k not in self._pans_cache:
            live = np.flatnonzero(self.nash_flags(k))
            pans = live[~self._blocking_pairs(live).any(axis=0)]
            self._pans_cache[k] = tuple(int(t) for t in pans)
        return list(self._pans_cache[k])

    # -- welfare --------------------------------------------------------------

    def max_welfare(self) -> tuple[Fraction, Network]:
        """Exact maximum social welfare over the feasible states, with
        witness, summed as L * welfare = sum_i (L / q_i) * qu_i with L the
        lcm of the q_i.  Computed once per space."""
        if self._welfare is not None:
            return self._welfare
        alphas = self.game.alphas
        nodes = self.n + self.m
        L = math.lcm(*(a.denominator for a in alphas))
        _require_int64(
            sum(L * nodes**2 + L // a.denominator * a.numerator * nodes for a in alphas),
            "the lcm-scaled welfare bound",
        )
        swL = np.zeros(len(self.masks), dtype=np.int64)
        for i, a in enumerate(alphas, start=1):
            swL += L // a.denominator * self.qu[i, self.masks]
        best = int(np.argmax(swL))
        self._welfare = Fraction(int(swL[best]), L), self.network(int(self.masks[best]))
        return self._welfare


# eight shapes cover a caller that cycles through a few, as the oracle and
# verify benchmarks do with four each; README "Oracle budget" gives the bytes
@functools.lru_cache(maxsize=8)
def _layout(n: int, m: int, e0: frozenset[Edge]) -> _Layout:
    return _Layout(n, m, e0)


@functools.lru_cache(maxsize=1)
def _shared_space(
    game: GameSpec, num_nonplayers: int, e0: frozenset[Edge], budget: int
) -> FeasibleGraphSet:
    # ``budget`` only keys the cache: under a changed budget the space is
    # built again, so the budget is checked again
    return FeasibleGraphSet(game, num_nonplayers, e0)


def enumerate_feasible_graphs(
    game: GameSpec, num_nonplayers: int, original_edges: Iterable = ()
) -> FeasibleGraphSet:
    """The instance's space, shared with the previous call when that asked
    for the same instance (E0 in any order) under the same budget."""
    return _shared_space(game, num_nonplayers, edge_set(original_edges), edge_budget())


def exhaustive_stability(net: Network, game: GameSpec, k: int) -> StabilityVerdict:
    """Literal deviation search on the mask tables, with witness."""
    require_alpha_count(net, game)
    require_strength(k, net.num_players)
    fgs = enumerate_feasible_graphs(game, net.num_nonplayers, net.original_edges)
    mask = fgs.mask_of(net.edges)
    label = "PANE" if k == 1 else "k-PANE"
    one = np.array([mask], dtype=np.int64)
    for size in range(1, k + 1):
        found = fgs.first_improving_moves(one, size)[:, 0]
        hits = np.flatnonzero(found >= 0)
        if len(hits):
            coalition = fgs.layout.plan(size).coalitions[hits[0]]
            move = make_move(net, game, list(coalition), fgs.edges_of(int(found[hits[0]])))
            return StabilityVerdict(False, label, k, move)
    blocking = np.flatnonzero(fgs._blocking_pairs(one)[:, 0])
    if len(blocking):
        pair = fgs.links[blocking[0]]
        move = make_move(net, game, list(pair), fgs.edges_of(mask | 1 << fgs.pos[pair]))
        return StabilityVerdict(False, label, k, move)
    return StabilityVerdict(True, label, k)


def max_social_welfare(
    game: GameSpec, num_nonplayers: int, original_edges: Iterable = ()
) -> tuple[Fraction, Network]:
    """Exact maximum social welfare over all feasible states, with witness."""
    return enumerate_feasible_graphs(game, num_nonplayers, original_edges).max_welfare()


@dataclass
class Disagreement:
    kind: str
    strength: int
    edges: tuple[Edge, ...]
    fast_verdict: bool
    oracle_verdict: bool


@dataclass
class CrossValidationReport:
    num_feasible: int
    pans_counts: dict[int, int]
    disagreements: list[Disagreement]
    algorithm_failures: list[str]

    @property
    def clean(self) -> bool:
        return not self.disagreements and not self.algorithm_failures


def cross_validate(
    game: GameSpec,
    num_nonplayers: int,
    original_edges: Iterable = (),
    max_k: int = 1,
) -> CrossValidationReport:
    """Compare the structural checkers and fixpoint algorithms against the
    oracle on every feasible graph of the instance."""
    from .lattice import bound_failures, greatest_pans, least_pans
    from .stability import is_k_strong, is_pane

    require_strength(max_k, game.num_players)
    fgs = enumerate_feasible_graphs(game, num_nonplayers, original_edges)
    disagreements: list[Disagreement] = []
    failures: list[str] = []
    pans_counts = {}
    for k in range(1, game.num_players + 1):
        pans_counts[k] = len(fgs.pans_masks(k))

    pans1 = set(fgs.pans_masks(1))
    strong = {k: set(fgs.pans_masks(k)) for k in range(2, max_k + 1)}
    pans_nets: list[Network] = []
    for mask in fgs.masks:
        mask = int(mask)
        net = fgs.network(mask)
        fast = bool(is_pane(net, game))
        truth = mask in pans1
        if truth:
            pans_nets.append(net)
        if fast != truth:
            disagreements.append(
                Disagreement("is_pane", 1, tuple(sorted(net.edges)), fast, truth)
            )
        for k in range(2, max_k + 1):
            fast_k = bool(is_k_strong(net, game, k))
            truth_k = mask in strong[k]
            if fast_k != truth_k:
                disagreements.append(
                    Disagreement("is_k_strong", k, tuple(sorted(net.edges)), fast_k, truth_k)
                )

    pans_edge_sets = [net.edges for net in pans_nets]
    least = least_pans(game, num_nonplayers, original_edges)
    greatest = greatest_pans(game, num_nonplayers, original_edges)
    if pans_edge_sets:
        failures += bound_failures(game, pans_nets)
        if least.edges != min(pans_edge_sets, key=len):
            failures.append("least_pans differs from the oracle minimum")
        if greatest.edges != max(pans_edge_sets, key=len):
            failures.append("greatest_pans differs from the oracle maximum")
    else:
        failures.append("oracle found no PANS at all (lattice should be non-empty)")

    return CrossValidationReport(len(fgs), pans_counts, disagreements, failures)
