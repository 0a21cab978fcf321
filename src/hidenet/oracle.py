"""Brute-force ground truth over the full feasible graph space.

Every subset of candidate edges (all pairs outside E0) is a potential
state; a subset is feasible when each added non-player edge has a player
adjacent to both endpoints.  One ``FeasibleGraphSet`` holds the tables of
an instance and answers every question about them: degrees and q_i times
each player's utility are precomputed for every subset as integer tables,
so stability and welfare questions reduce to exact integer comparisons
(alpha_i = p_i / q_i is cross-multiplied, never evaluated in floating
point).  Inputs whose tables could leave int64 are rejected up front.  A
coalition's deviations are scored for many masks at once, one numpy block
per coalition; blocking pairs are found by one integer test, for all masks
or for some.

``enumerate_feasible_graphs`` keeps the last instance's space alive until
an instance with other alphas, non-player count, original edges or budget
asks for one, so the oracle-backed calls on one instance (``efficiency``,
``strength_equivalences``, ``enumerate_lattice``, ``max_social_welfare``,
``cross_validate``, ``exhaustive_stability``) build its tables, classify
it and lay out each coalition's moves once.  The shared arrays are
read-only.  With C candidate edges, the tables take 8 bytes per mask for
each node and each player, 8 * 2^C * (2n + m + 2) bytes.  The budget
bounds C, the pairs outside E0, so the default of 18 admits a space of
24 to 30 MB (C = 15 takes about 4 MB).

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
from typing import Iterable, Iterator, Optional

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


class FeasibleGraphSet:
    """All feasible states of one instance as bitmask tables, with their
    stability classification and welfare.

    ``masks`` lists the feasible masks ascending; the per-mask tables
    (``deg``, ``qu``, ``feasible`` and the flags) range over all 2^C masks.
    Every array the space holds is read-only, since callers of
    ``enumerate_feasible_graphs`` share one space.
    """

    def __init__(self, game: GameSpec, num_nonplayers: int, original_edges: Iterable = ()):
        n, m = game.num_players, num_nonplayers
        self.e0 = original_edge_set(n, m, original_edges)
        # exact: the validated E0 pairs are distinct non-player pairs in range
        limit, count = edge_budget(), candidate_edge_count(n, m) - len(self.e0)
        if count > limit:
            # spell 2^count out only while it is short to compute and print
            graphs = f"2^{count} = {1 << count}" if count <= 64 else f"2^{count}"
            raise BudgetExceededError(
                f"{count} candidate edges exceed the oracle budget of {limit} "
                f"({graphs} graphs)"
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
        self.np_pairs = [e for e in self.cand if e[0] > n and e[1] > n]
        self.size = 1 << len(self.cand)
        every = np.arange(self.size, dtype=np.int64)

        # one row per node, so that every update below is contiguous
        deg = np.zeros((n + m + 1, self.size), dtype=np.int64)
        for t, (a, b) in enumerate(self.cand):
            bit = (every >> t) & 1
            deg[a] += bit
            deg[b] += bit
        for a, b in self.e0:
            deg[a] += 1
            deg[b] += 1
        self.deg = deg

        S = np.zeros((n + 1, self.size), dtype=np.int64)
        for t, (a, b) in enumerate(self.cand):
            bit = (every >> t) & 1
            if a <= n:
                S[a] += bit * deg[b]
            if b <= n:
                S[b] += bit * deg[a]

        feasible = np.ones(self.size, dtype=bool)
        for j, l in self.np_pairs:
            present = ((every >> self.pos[(j, l)]) & 1).astype(bool)
            cover = np.zeros(self.size, dtype=bool)
            for i in range(1, n + 1):
                bi = ((every >> self.pos[edge(i, j)]) & 1).astype(bool)
                bl = ((every >> self.pos[edge(i, l)]) & 1).astype(bool)
                cover |= bi & bl
            feasible &= ~present | cover
        self.feasible = feasible
        self.masks = np.flatnonzero(feasible).astype(np.int64)

        self.p = np.array([0] + [a.numerator for a in game.alphas], dtype=np.int64)
        self.q = np.array([1] + [a.denominator for a in game.alphas], dtype=np.int64)
        # qu[i, mask] = q_i * u_i(mask) = q_i * S_i - p_i * deg_i, one row per player
        self.qu = np.zeros((n + 1, self.size), dtype=np.int64)
        for i in range(1, n + 1):
            self.qu[i] = self.q[i] * S[i] - self.p[i] * deg[i]
        for table in (self.deg, self.feasible, self.masks, self.p, self.q, self.qu):
            table.setflags(write=False)
        self._nash_cache: dict[int, np.ndarray] = {}
        self._pairwise: Optional[np.ndarray] = None
        self._plans: dict[tuple[int, ...], tuple] = {}

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
        per = tuple(
            Fraction(int(self.qu[i, mask]), int(self.q[i])) for i in range(1, self.n + 1)
        )
        return UtilityVector(per)

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

        def cover(i: int, j: int, l: int) -> int:
            return 1 << self.pos[edge(i, j)] | 1 << self.pos[edge(i, l)]

        kept = []
        for j, l in self.np_pairs:
            t = self.pos[(j, l)]
            clear |= 1 << t
            covered = np.zeros(len(choices), dtype=bool)
            for i in coalition:
                pattern = cover(i, j, l)
                covered |= (choices & pattern) == pattern
            choices |= covered.astype(np.int64) << t
            kept.append((1 << t, [cover(i, j, l) for i in range(1, n + 1) if i not in members]))
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
            covered = np.zeros(len(masks), dtype=bool)
            for pattern in patterns:
                covered |= (masks & pattern) == pattern
            base |= (masks & pair_bit) * covered
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

    def _blocking_pairs(
        self, masks: Optional[np.ndarray] = None
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Yield each player pair's bit, in lexicographic order, with whether
        the pair blocks at ``masks`` (all 2^C by default): it is missing, and
        both players weakly gain, one strictly.  The gains are compared on
        integers, q_i * (deg_j + 1) against p_i."""
        if masks is None:
            masks, deg = np.arange(self.size, dtype=np.int64), self.deg
        else:
            deg = self.deg[:, masks]
        for i, j in itertools.combinations(range(1, self.n + 1), 2):
            t = self.pos[edge(i, j)]
            gi = self.q[i] * (deg[j] + 1) - self.p[i]
            gj = self.q[j] * (deg[i] + 1) - self.p[j]
            absent = ((masks >> t) & 1) == 0
            yield t, absent & (gi >= 0) & (gj >= 0) & ((gi > 0) | (gj > 0))

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

    def pairwise_flags(self) -> np.ndarray:
        """Boolean array over all masks: no missing player pair blocks."""
        if self._pairwise is None:
            flags = np.ones(self.size, dtype=bool)
            for _, blocking in self._blocking_pairs():
                flags &= ~blocking
            flags.setflags(write=False)
            self._pairwise = flags
        return self._pairwise

    def pans_masks(self, k: int = 1) -> list[int]:
        return [int(t) for t in np.flatnonzero(self.nash_flags(k) & self.pairwise_flags())]

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
    pair = next((t for t, blocking in fgs._blocking_pairs(one) if blocking[0]), None)
    if pair is not None:
        move = make_move(net, game, list(fgs.cand[pair]), fgs.edges_of(mask | 1 << pair))
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
