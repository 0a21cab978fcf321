"""Brute-force ground truth over the full feasible graph space.

Every subset of candidate edges (all pairs outside E0) is a potential
state; a subset is feasible when each added non-player edge has a player
adjacent to both endpoints.  One ``FeasibleGraphSet`` holds the tables of
an instance and answers every question about them.  Its one table of
utilities holds q_i times each player's utility for every subset as an
integer, so stability and welfare questions reduce to exact integer
comparisons (alpha_i = p_i / q_i is cross-multiplied, never evaluated in
floating point).  Inputs whose table could leave int64 are rejected up
front.  A coalition's deviations are scored for many masks at once, one
numpy block per coalition; a blocking pair is scored by looking up both
players' utilities with its link added, for all player pairs at once.

``enumerate_feasible_graphs`` keeps the last instance's space alive until
an instance with other alphas, non-player count, original edges or budget
asks for one, so the oracle-backed calls on one instance (``efficiency``,
``strength_equivalences``, ``enumerate_lattice``, ``max_social_welfare``,
``cross_validate``, ``exhaustive_stability``) build its tables, classify
it and lay out each coalition's moves once.  The shared arrays are
read-only.  With C candidate edges, the utility table takes 8 * 2^C *
(n + 1) bytes, and the feasible masks and their flags at most 9 * 2^C
more.  The budget bounds C, the pairs outside E0, so the default of 18
admits a space of about 13 MB at four players (C = 15 at five players
takes about 2 MB); its build peaks at some three times that.  The
errors for a space too large state the bytes the space keeps.

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
from typing import Iterable

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
# Most moves one block of the stability kernel holds; mask rows are chunked to fit.
_BLOCK_ELEMENTS = 1 << 16
_INT64_MAX = int(np.iinfo(np.int64).max)


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


def _covered(masks: np.ndarray, patterns: Iterable[int]) -> np.ndarray:
    """Per mask, whether it holds every bit of one of ``patterns``."""
    covered = np.zeros(masks.shape, dtype=bool)
    for pattern in patterns:
        covered |= (masks & pattern) == pattern
    return covered


class FeasibleGraphSet:
    """All feasible states of one instance as bitmask tables, with their
    stability classification and welfare.

    ``masks`` lists the feasible masks ascending; ``qu``, ``feasible`` and
    the flags range over all 2^C masks.  Every array the space holds is
    read-only, since callers of ``enumerate_feasible_graphs`` share one
    space.
    """

    def __init__(self, game: GameSpec, num_nonplayers: int, original_edges: Iterable = ()):
        n, m = game.num_players, num_nonplayers
        self.e0 = original_edge_set(n, m, original_edges)
        # exact: the validated E0 pairs are distinct non-player pairs in range
        limit, count = edge_budget(), candidate_edge_count(n, m) - len(self.e0)
        # bytes per mask: q_i * u_i per player, the feasible mask and its flag;
        # spell the powers of two out only while they are short to compute and print
        per_mask = 8 * (n + 2) + 1
        if count <= 64:
            held, graphs = f"up to {per_mask << count} bytes", f"2^{count} = {1 << count}"
        else:
            held, graphs = f"up to {per_mask} * 2^{count} bytes", f"2^{count}"
        if count > limit:
            raise BudgetExceededError(
                f"{count} candidate edges, whose space keeps {held}, exceed the "
                f"oracle budget of {limit} ({graphs} graphs)"
            )
        nodes = n + m
        for i, a in enumerate(game.alphas, start=1):
            _require_int64(
                a.denominator * nodes**2 + a.numerator * nodes,
                f"the scaled utility bound of player {i}",
            )
        self.game = game
        self.n, self.m = n, m
        cand = [edge(i, j) for i, j in itertools.combinations(range(1, n + m + 1), 2)]
        self.cand = [e for e in cand if e not in self.e0]
        self.pos = {e: t for t, e in enumerate(self.cand)}
        # each candidate non-player pair's bit, with the pattern of the two
        # edges by which each player in turn covers it
        bit = {e: 1 << t for e, t in self.pos.items()}
        self._covers = [
            (bit[(j, l)], [bit[edge(i, j)] | bit[edge(i, l)] for i in range(1, n + 1)])
            for j, l in self.cand
            if j > n
        ]
        # the player links, lexicographic, as the rows of ``_blocking_pairs``
        self.links = list(itertools.combinations(range(1, n + 1), 2))
        self._link_ends = np.array(self.links, dtype=np.int64).T[..., None]
        self._link_bits = np.array([[bit[p]] for p in self.links], dtype=np.int64)
        try:
            self.feasible, self.qu = self._tables()
            self.masks = np.flatnonzero(self.feasible)
        except MemoryError:
            raise BudgetExceededError(
                f"{count} candidate edges, whose space keeps {held}, do not fit in memory"
            ) from None
        for table in (self.feasible, self.masks, self.qu, self._link_ends, self._link_bits):
            table.setflags(write=False)
        self._nash_cache: dict[int, np.ndarray] = {}
        self._plans: dict[tuple[int, ...], tuple] = {}

    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Over all 2^C masks: the feasibility flags, and q_i * u_i as one
        row per player."""
        n, m = self.n, self.m
        every = np.arange(1 << len(self.cand), dtype=np.int64)
        feasible = np.ones(len(every), dtype=bool)
        for pair_bit, patterns in self._covers:
            feasible &= ((every & pair_bit) == 0) | _covered(every, patterns)
        # one row per node, so that every update below is contiguous
        deg = np.zeros((n + m + 1, len(every)), dtype=np.int64)
        for t, (a, b) in enumerate(self.cand):
            bit = (every >> t) & 1
            deg[a] += bit
            deg[b] += bit
        for a, b in self.e0:
            deg[a] += 1
            deg[b] += 1
        # q_i * u_i = q_i * S_i - p_i * deg_i, S_i the degree sum of i's neighbours
        qu = np.zeros((n + 1, len(every)), dtype=np.int64)
        for i, a in enumerate(self.game.alphas, start=1):
            others = (j for j in range(1, n + m + 1) if j != i)
            S = sum(((every >> self.pos[edge(i, j)]) & 1) * deg[j] for j in others)
            qu[i] = a.denominator * S - a.numerator * deg[i]
        return feasible, qu

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

    def _move_plan(self, coalition: tuple[int, ...]) -> tuple:
        """Bit layout of a coalition's moves, built once per coalition:
        (clear, outside, choices, kept).

        ``clear`` holds every member-incident edge and every candidate
        non-player pair; the move rewrites them.  Member pairs and
        member-to-non-player edges are free, edges to outside players
        (``outside``) are delete only.  ``choices`` sets the free positions,
        then the outside ones, each ascending, by counter, and adds the
        non-player pairs that members then cover.  ``kept`` lists each
        non-player pair's bit with the patterns by which an outside player
        covers it: a present pair survives such a cover.
        """
        if coalition in self._plans:
            return self._plans[coalition]
        n, m = self.n, self.m
        members = set(coalition)
        free = sorted(
            {self.pos[edge(a, b)] for a, b in itertools.combinations(coalition, 2)}
            | {self.pos[edge(i, j)] for i in coalition for j in range(n + 1, n + m + 1)}
        )
        outside = sorted(
            self.pos[edge(i, j)] for i in coalition for j in range(1, n + 1) if j not in members
        )
        counters = np.arange(1 << (len(free) + len(outside)), dtype=np.int64)
        choices = np.zeros_like(counters)
        clear = 0
        for idx, t in enumerate(free + outside):
            choices |= ((counters >> idx) & 1) << t
            clear |= 1 << t
        kept = []
        for pair_bit, patterns in self._covers:
            clear |= pair_bit
            choices |= _covered(choices, [patterns[i - 1] for i in coalition]) * pair_bit
            kept.append((pair_bit, [c for i, c in enumerate(patterns, 1) if i not in members]))
        choices.setflags(write=False)
        plan = clear, sum(1 << t for t in outside), choices, kept
        self._plans[coalition] = plan
        return plan

    def first_improving_moves(self, masks: np.ndarray, coalition: tuple[int, ...]) -> np.ndarray:
        """Per mask, the coalition's first improving move in counter order
        (closure applied), or -1 where it has none.

        The moves of a mask row are ``base | (choices & (mask | ~outside))``,
        where ``base`` keeps the edges no member touches and the non-player
        pairs an outside player still covers.  Rows are chunked so that one
        block holds at most ``_BLOCK_ELEMENTS`` moves, or one mask's moves
        where those are more (at most 2^C, which the budget bounds).
        """
        clear, outside, choices, kept = self._move_plan(coalition)
        base = masks & ~clear
        for pair_bit, patterns in kept:
            base |= (masks & pair_bit) * _covered(masks, patterns)
        allowed = masks | ~outside
        found = np.full(len(masks), -1, dtype=np.int64)
        rows = max(1, _BLOCK_ELEMENTS // len(choices))
        for lo in range(0, len(masks), rows):
            span = slice(lo, lo + rows)
            moves = choices & allowed[span, None]
            moves |= base[span, None]
            ok = np.ones(moves.shape, dtype=bool)
            strict = np.zeros(moves.shape, dtype=bool)
            for i in coalition:
                table = self.qu[i]
                after, before = table[moves], table[masks[span], None]
                ok &= after >= before
                strict |= after > before
            hit = ok & strict
            rows_hit = np.flatnonzero(hit.any(axis=1))
            found[lo + rows_hit] = moves[rows_hit, hit[rows_hit].argmax(axis=1)]
        return found

    def _blocking_pairs(self, masks: np.ndarray) -> np.ndarray:
        """(links x masks): whether the player pair ``links[r]`` blocks at
        the mask.  Adding a player link changes no cover, so the pair's move
        is ``mask | bit``, and it blocks when both players' ``qu`` weakly
        rise there, one strictly.  A present link leaves the mask unchanged,
        so it never blocks."""
        gains = self.qu[self._link_ends, masks | self._link_bits] - self.qu[self._link_ends, masks]
        return (gains >= 0).all(axis=0) & (gains > 0).any(axis=0)

    def nash_flags(self, k: int) -> np.ndarray:
        """Boolean array over all masks: feasible, and no improving coalition
        of size <= k."""
        require_strength(k, self.n)
        if k in self._nash_cache:
            return self._nash_cache[k]
        flags = (self.nash_flags(k - 1) if k > 1 else self.feasible).copy()
        for coalition in itertools.combinations(range(1, self.n + 1), k):
            live = np.flatnonzero(flags)
            if len(live) == 0:
                break
            flags[live[self.first_improving_moves(live, coalition) >= 0]] = False
        flags.setflags(write=False)
        self._nash_cache[k] = flags
        return flags

    def pans_masks(self, k: int = 1) -> list[int]:
        """The masks ``nash_flags(k)`` keeps at which no player pair blocks."""
        live = np.flatnonzero(self.nash_flags(k))
        return [int(t) for t in live[~self._blocking_pairs(live).any(axis=0)]]

    # -- welfare --------------------------------------------------------------

    def max_welfare(self) -> tuple[Fraction, Network]:
        """Exact maximum social welfare over the feasible states, with
        witness, summed as L * welfare = sum_i (L / q_i) * qu_i with L the
        lcm of the q_i."""
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
        return Fraction(int(swL[best]), L), self.network(int(self.masks[best]))


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
        for coalition in itertools.combinations(range(1, net.num_players + 1), size):
            hit = int(fgs.first_improving_moves(one, coalition)[0])
            if hit >= 0:
                move = make_move(net, game, list(coalition), fgs.edges_of(hit))
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
