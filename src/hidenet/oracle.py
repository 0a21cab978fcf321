"""Brute-force ground truth over the full feasible graph space.

Every subset of candidate edges (all pairs outside E0) is a potential
state; a subset is feasible when each added non-player edge has a player
adjacent to both endpoints.  Degrees and neighbour-degree sums are
precomputed for every subset as integer tables, so stability and welfare
questions reduce to exact integer comparisons (alpha_i = p_i / q_i is
cross-multiplied, never evaluated in floating point).

The deviation semantics mirror ``moves.py`` but are re-implemented on the
bitmask representation: the two routes share nothing except the model
definition, which is what makes cross-validation meaningful.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
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
)
from .moves import make_move
from .stability import StabilityVerdict

DEFAULT_EDGE_BUDGET = 18
_BUDGET_ENV = "HIDENET_ORACLE_BUDGET"


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


class OracleSpace:
    """Bitmask tables for one game instance."""

    def __init__(
        self,
        game: GameSpec,
        num_nonplayers: int,
        original_edges: Iterable = (),
        budget: Optional[int] = None,
    ):
        n, m = game.num_players, num_nonplayers
        limit = edge_budget() if budget is None else budget
        if candidate_edge_count(n, m) > limit:
            raise BudgetExceededError(
                f"{candidate_edge_count(n, m)} candidate edges exceed the "
                f"oracle budget of {limit}"
            )
        self.game = game
        self.n, self.m = n, m
        self.e0 = edge_set(original_edges)
        for a, b in self.e0:
            if a <= n or b <= n:
                raise ValidationError(f"original edge ({a}, {b}) touches a player")
        cand = [edge(i, j) for i, j in itertools.combinations(range(1, n + m + 1), 2)]
        self.cand = [e for e in cand if e not in self.e0]
        self.pos = {e: t for t, e in enumerate(self.cand)}
        self.np_pairs = [e for e in self.cand if e[0] > n and e[1] > n]
        self.size = 1 << len(self.cand)
        masks = np.arange(self.size, dtype=np.int64)
        self.masks = masks

        deg = np.zeros((self.size, n + m + 1), dtype=np.int64)
        for t, (a, b) in enumerate(self.cand):
            bit = (masks >> t) & 1
            deg[:, a] += bit
            deg[:, b] += bit
        for a, b in self.e0:
            deg[:, a] += 1
            deg[:, b] += 1
        self.deg = deg

        S = np.zeros((self.size, n + 1), dtype=np.int64)
        for t, (a, b) in enumerate(self.cand):
            bit = (masks >> t) & 1
            if a <= n:
                S[:, a] += bit * deg[:, b]
            if b <= n:
                S[:, b] += bit * deg[:, a]
        self.S = S

        feasible = np.ones(self.size, dtype=bool)
        for j, l in self.np_pairs:
            present = ((masks >> self.pos[(j, l)]) & 1).astype(bool)
            cover = np.zeros(self.size, dtype=bool)
            for i in range(1, n + 1):
                bi = ((masks >> self.pos[edge(i, j)]) & 1).astype(bool)
                bl = ((masks >> self.pos[edge(i, l)]) & 1).astype(bool)
                cover |= bi & bl
            feasible &= ~present | cover
        self.feasible = feasible
        self.feasible_masks = np.flatnonzero(feasible).astype(np.int64)

        self.p = np.array([0] + [a.numerator for a in game.alphas], dtype=np.int64)
        self.q = np.array([1] + [a.denominator for a in game.alphas], dtype=np.int64)
        self._nash_cache: dict[int, np.ndarray] = {}
        self._pairwise: Optional[np.ndarray] = None

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

    def network_of(self, mask: int) -> Network:
        return build_network(self.n, self.m, self.edges_of(mask), self.e0)

    def utilities(self, mask: int) -> UtilityVector:
        per = tuple(
            Fraction(int(self.S[mask, i])) - self.game.alpha(i) * int(self.deg[mask, i])
            for i in range(1, self.n + 1)
        )
        return UtilityVector(per)

    # -- stability ------------------------------------------------------------

    def _player_adjacency_bit(self, player_part: np.ndarray, i: int, j: int) -> np.ndarray:
        return ((player_part >> self.pos[edge(i, j)]) & 1).astype(bool)

    def _coalition_positions(self, coalition: tuple[int, ...], mask: int):
        """(variable positions, cleared positions) of a coalition's move.

        Variable: member pairs and member-to-non-player edges (free) plus
        present member-to-outside-player edges (delete only).  Cleared:
        every member-incident player edge; absent member-to-outside pairs
        stay absent because they are cleared but not variable.
        """
        members = set(coalition)
        inside = [
            self.pos[edge(a, b)] for a, b in itertools.combinations(sorted(members), 2)
        ]
        to_nonplayers = [
            self.pos[edge(i, j)]
            for i in sorted(members)
            for j in range(self.n + 1, self.n + self.m + 1)
        ]
        to_outside = [
            self.pos[edge(i, j)]
            for i in sorted(members)
            for j in range(1, self.n + 1)
            if j not in members and mask >> self.pos[edge(i, j)] & 1
        ]
        cleared = [
            self.pos[edge(i, x)]
            for i in sorted(members)
            for x in range(1, self.n + self.m + 1)
            if x != i and not (x in members and x < i)
        ]
        return sorted(set(inside + to_nonplayers)) + sorted(to_outside), cleared

    def _moves_for(self, mask: int, coalition: tuple[int, ...]) -> np.ndarray:
        """All reachable full-edge-set masks for a coalition move, closure
        applied, in ascending enumeration order."""
        members = set(coalition)
        var_pos, cleared = self._coalition_positions(coalition, mask)
        np_positions = [self.pos[e] for e in self.np_pairs]
        clear = 0
        for t in cleared:
            clear |= 1 << t
        for t in np_positions:
            clear |= 1 << t
        base = mask & ~clear
        f = len(var_pos)
        moves = np.full(1 << f, base, dtype=np.int64)
        counters = np.arange(1 << f, dtype=np.int64)
        for idx, t in enumerate(var_pos):
            moves |= ((counters >> idx) & 1) << t
        # closure for non-player pairs
        for j, l in self.np_pairs:
            any_cover = np.zeros(len(moves), dtype=bool)
            member_cover = np.zeros(len(moves), dtype=bool)
            for i in range(1, self.n + 1):
                v = self._player_adjacency_bit(moves, i, j) & self._player_adjacency_bit(
                    moves, i, l
                )
                any_cover |= v
                if i in members:
                    member_cover |= v
            present = bool(mask >> self.pos[(j, l)] & 1)
            keep = (any_cover & present) | member_cover
            moves |= keep.astype(np.int64) << self.pos[(j, l)]
        return moves

    def _improving_move(self, mask: int, coalition: tuple[int, ...]) -> Optional[int]:
        moves = self._moves_for(mask, coalition)
        ok = np.ones(len(moves), dtype=bool)
        strict = np.zeros(len(moves), dtype=bool)
        for i in coalition:
            dS = self.S[moves, i] - self.S[mask, i]
            dd = self.deg[moves, i] - self.deg[mask, i]
            gain = self.q[i] * dS - self.p[i] * dd
            ok &= gain >= 0
            strict |= gain > 0
        hit = np.flatnonzero(ok & strict)
        if len(hit) == 0:
            return None
        return int(moves[hit[0]])

    def nash_flags(self, k: int) -> np.ndarray:
        """Boolean array over all masks: no improving coalition of size <= k."""
        if k in self._nash_cache:
            return self._nash_cache[k]
        if k > 1:
            flags = self.nash_flags(k - 1).copy()
            sizes = [k]
        else:
            flags = self.feasible.copy()
            sizes = [1]
        for size in sizes:
            if size > self.n:
                break
            for coalition in itertools.combinations(range(1, self.n + 1), size):
                for mask in np.flatnonzero(flags):
                    if self._improving_move(int(mask), coalition) is not None:
                        flags[mask] = False
        self._nash_cache[k] = flags
        return flags

    def pairwise_flags(self) -> np.ndarray:
        """Boolean array: no missing player pair blocks (vectorised)."""
        if self._pairwise is not None:
            return self._pairwise
        ok = np.ones(self.size, dtype=bool)
        for i, j in itertools.combinations(range(1, self.n + 1), 2):
            t = self.pos[edge(i, j)]
            present = ((self.masks >> t) & 1).astype(bool)
            gi = self.q[i] * (self.deg[:, j] + 1) - self.p[i]
            gj = self.q[j] * (self.deg[:, i] + 1) - self.p[j]
            blocking = ~present & (gi >= 0) & (gj >= 0) & ((gi > 0) | (gj > 0))
            ok &= ~blocking
        self._pairwise = ok
        return ok

    def pans_flags(self, k: int) -> np.ndarray:
        return self.nash_flags(k) & self.pairwise_flags()


@dataclass
class FeasibleGraphSet:
    """All feasible states of one instance, with stability classification."""

    game: GameSpec
    num_nonplayers: int
    original_edges: frozenset[Edge]
    space: OracleSpace = field(repr=False)

    @property
    def masks(self) -> np.ndarray:
        return self.space.feasible_masks

    def __len__(self) -> int:
        return len(self.space.feasible_masks)

    def network(self, mask: int) -> Network:
        return self.space.network_of(mask)

    def networks(self) -> list[Network]:
        return [self.network(int(t)) for t in self.masks]

    def utilities(self, mask: int) -> UtilityVector:
        return self.space.utilities(mask)

    def nash_masks(self, k: int = 1) -> list[int]:
        flags = self.space.nash_flags(k)
        return [int(t) for t in np.flatnonzero(flags)]

    def pans_masks(self, k: int = 1) -> list[int]:
        flags = self.space.pans_flags(k)
        return [int(t) for t in np.flatnonzero(flags)]

    def pans_networks(self, k: int = 1) -> list[Network]:
        return [self.network(t) for t in self.pans_masks(k)]


def enumerate_feasible_graphs(
    game: GameSpec,
    num_nonplayers: int,
    original_edges: Iterable = (),
    budget: Optional[int] = None,
) -> FeasibleGraphSet:
    space = OracleSpace(game, num_nonplayers, original_edges, budget)
    return FeasibleGraphSet(game, num_nonplayers, space.e0, space)


def exhaustive_stability(
    net: Network, game: GameSpec, k: int, budget: Optional[int] = None
) -> StabilityVerdict:
    """Literal deviation search on the mask tables, with witness."""
    if not 1 <= k <= net.num_players:
        raise ValidationError(f"strength k={k} outside 1..{net.num_players}")
    space = OracleSpace(game, net.num_nonplayers, net.original_edges, budget)
    mask = space.mask_of(net.edges)
    label = "PANE" if k == 1 else "k-PANE"
    for size in range(1, min(k, net.num_players) + 1):
        for coalition in itertools.combinations(range(1, net.num_players + 1), size):
            hit = space._improving_move(mask, coalition)
            if hit is not None:
                move = make_move(net, game, list(coalition), space.edges_of(hit))
                return StabilityVerdict(False, label, k, move)
    if not bool(space.pairwise_flags()[mask]):
        for i, j in itertools.combinations(range(1, net.num_players + 1), 2):
            t = space.pos[edge(i, j)]
            if mask >> t & 1:
                continue
            gi = Fraction(int(space.deg[mask, j]) + 1) - game.alpha(i)
            gj = Fraction(int(space.deg[mask, i]) + 1) - game.alpha(j)
            if gi >= 0 and gj >= 0 and (gi > 0 or gj > 0):
                move = make_move(net, game, [i, j], frozenset(net.edges | {edge(i, j)}))
                return StabilityVerdict(False, label, k, move)
        raise AssertionError("pairwise flag disagreed with pair scan")
    return StabilityVerdict(True, label, k)


def max_social_welfare(
    game: GameSpec,
    num_nonplayers: int,
    original_edges: Iterable = (),
    budget: Optional[int] = None,
) -> tuple[Fraction, Network]:
    """Exact maximum social welfare over all feasible states, with witness."""
    space = OracleSpace(game, num_nonplayers, original_edges, budget)
    L = math.lcm(*(a.denominator for a in game.alphas))
    swL = np.zeros(space.size, dtype=np.int64)
    for i in range(1, space.n + 1):
        swL += L * space.S[:, i] - (L // space.q[i]) * space.p[i] * space.deg[:, i]
    sub = swL[space.feasible_masks]
    winner = int(space.feasible_masks[int(np.argmax(sub))])
    return Fraction(int(swL[winner]), L), space.network_of(winner)


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
    check_algorithms: bool = True,
    budget: Optional[int] = None,
) -> CrossValidationReport:
    """Compare the structural checkers and fixpoint algorithms against the
    oracle on every feasible graph of the instance."""
    from .lattice import bound_failures, greatest_pans, least_pans
    from .stability import is_k_strong, is_pane

    fgs = enumerate_feasible_graphs(game, num_nonplayers, original_edges, budget)
    space = fgs.space
    disagreements: list[Disagreement] = []
    failures: list[str] = []
    pans_counts = {}
    for k in range(1, game.num_players + 1):
        pans_counts[k] = len(fgs.pans_masks(k))

    pans1 = set(fgs.pans_masks(1))
    for mask in fgs.masks:
        mask = int(mask)
        net = fgs.network(mask)
        fast = bool(is_pane(net, game))
        truth = mask in pans1
        if fast != truth:
            disagreements.append(
                Disagreement("is_pane", 1, tuple(sorted(net.edges)), fast, truth)
            )
        for k in range(2, max_k + 1):
            fast_k = bool(is_k_strong(net, game, k))
            truth_k = mask in set(fgs.pans_masks(k))
            if fast_k != truth_k:
                disagreements.append(
                    Disagreement("is_k_strong", k, tuple(sorted(net.edges)), fast_k, truth_k)
                )

    if check_algorithms:
        pans_edge_sets = [frozenset(space.edges_of(t)) for t in sorted(pans1)]
        least = least_pans(game, num_nonplayers, original_edges)
        greatest = greatest_pans(game, num_nonplayers, original_edges)
        if pans_edge_sets:
            failures += bound_failures(game, num_nonplayers, space.e0, pans_edge_sets)
            if least.edges != min(pans_edge_sets, key=len):
                failures.append("least_pans differs from the oracle minimum")
            if greatest.edges != max(pans_edge_sets, key=len):
                failures.append("greatest_pans differs from the oracle maximum")
        else:
            failures.append("oracle found no PANS at all (lattice should be non-empty)")

    return CrossValidationReport(len(fgs), pans_counts, disagreements, failures)
