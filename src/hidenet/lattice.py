"""Lattice operations over the pairwise Nash stable graphs.

The stable graphs of an instance form a non-empty lattice under edge
inclusion; the least element grows out of the original graph, the
greatest shrinks out of the complete graph, and join/meet run the same
fixpoints from the union/intersection of two stable states, except where
one contains the other: that union or intersection is one of the states.
``enumerate_lattice`` materialises the whole k-strong lattice via the
oracle and re-verifies the lattice axioms on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable

from .errors import PreconditionError
from .fixpoint import max_included_pans, min_including_pans
from .model import Edge, GameSpec, Network, build_network, clique_edges
from .stability import is_k_strong, is_pane


def _require_pans(net: Network, game: GameSpec, name: str) -> None:
    if not is_pane(net, game):
        raise PreconditionError(f"{name} is not pairwise Nash stable")


def least_pans(
    game: GameSpec, num_nonplayers: int, original_edges: Iterable = ()
) -> Network:
    """Inclusion-minimum stable graph: grow from the original graph."""
    start = build_network(game.num_players, num_nonplayers, (), original_edges)
    return min_including_pans(start, game)


def greatest_pans(
    game: GameSpec, num_nonplayers: int, original_edges: Iterable = ()
) -> Network:
    """Inclusion-maximum stable graph: shrink from the complete graph."""
    n, m = game.num_players, num_nonplayers
    start = build_network(n, m, clique_edges(range(1, n + m + 1)), original_edges)
    return max_included_pans(start, game)


def join_pans(game: GameSpec, net_s: Network, net_t: Network) -> Network:
    """Smallest stable graph containing both inputs (edge union, grown)."""
    _require_pans(net_s, game, "left join operand")
    _require_pans(net_t, game, "right join operand")
    return _join(game, net_s, net_t)


def _comparable(net_s: Network, net_t: Network) -> bool:
    """Whether two states of one instance are ordered by inclusion, so that
    their union and intersection are the two operands themselves.

    Both callers of ``_join`` and ``_meet``, ``join_pans``/``meet_pans``
    (through ``_require_pans``) and ``bound_failures``, have just run
    ``is_pane`` on both operands.  A fixpoint's entry check and its sweep
    call the same ``stability.CONDITIONS`` finders on the same edges, so on
    an operand they find no move and the fixpoint returns the state it was
    given.  A state of another instance is not that state: its original
    pairs would be added pairs here."""
    return (
        net_s.num_nonplayers == net_t.num_nonplayers
        and net_s.original_edges == net_t.original_edges
        and (net_s.edges <= net_t.edges or net_t.edges <= net_s.edges)
    )


def _join(game: GameSpec, net_s: Network, net_t: Network) -> Network:
    """``join_pans`` on operands already known to be stable.  When one
    contains the other, the union is returned without the growth, which
    could apply no move (``_comparable``)."""
    merged = net_s.with_edges(net_s.edges | net_t.edges)
    if _comparable(net_s, net_t):
        return merged
    return min_including_pans(merged, game)


def meet_pans(game: GameSpec, net_s: Network, net_t: Network) -> Network:
    """Largest stable graph inside both inputs (edge intersection, shrunk)."""
    _require_pans(net_s, game, "left meet operand")
    _require_pans(net_t, game, "right meet operand")
    return _meet(game, net_s, net_t)


def _meet(game: GameSpec, net_s: Network, net_t: Network) -> Network:
    """``meet_pans`` on operands already known to be stable.  When one
    contains the other, the intersection is returned without the shrink,
    which could apply no move (``_comparable``)."""
    common = net_s.edges & net_t.edges
    if _comparable(net_s, net_t):
        return net_s.with_edges(common)
    # a pair added in both operands can lose every covering player here
    uncovered = {
        (j, l) for j, l in common - net_s.original_edges
        if j > net_s.num_players
        and not any((i, j) in common and (i, l) in common for i in net_s.players)
    }
    # both operands are stable, so the shrink needs no entry check
    return max_included_pans(net_s.with_edges(common - uncovered), game, check_entry=False)


def bound_failures(game: GameSpec, nets: list[Network]) -> list[str]:
    """How the networks ``nets``, the stable graphs of one instance, fail
    to form a lattice whose joins and meets the fixpoints compute (empty if
    they do).

    Each network is checked with ``is_pane`` once; one that fails is
    reported and the pairs are not compared, since join and meet are
    defined only on stable operands."""
    sets = [net.edges for net in nets]
    least, greatest = min(sets, key=len), max(sets, key=len)
    if any(not least <= s or not s <= greatest for s in sets):
        return ["stable set has no least or greatest element"]
    failures = [
        f"{sorted(s)} is not pairwise Nash stable"
        for s, net in zip(sets, nets) if not is_pane(net, game)
    ]
    if failures:
        return failures
    for (ea, na), (eb, nb) in itertools.combinations(zip(sets, nets), 2):
        ups = [s for s in sets if ea | eb <= s]
        downs = [s for s in sets if s <= ea & eb]
        lub, glb = min(ups, key=len), max(downs, key=len)
        if any(not lub <= s for s in ups) or _join(game, na, nb).edges != lub:
            failures.append(f"join is not the LUB of {sorted(ea)} and {sorted(eb)}")
        if any(not s <= glb for s in downs) or _meet(game, na, nb).edges != glb:
            failures.append(f"meet is not the GLB of {sorted(ea)} and {sorted(eb)}")
    return failures


@dataclass
class LatticeSummary:
    strength: int
    least: Network
    greatest: Network
    elements: list[Network]
    hasse_edges: list[tuple[int, int]] = field(default_factory=list)


def _hasse(edge_sets: list[frozenset[Edge]]) -> list[tuple[int, int]]:
    covers = []
    for a, b in itertools.permutations(range(len(edge_sets)), 2):
        if edge_sets[a] < edge_sets[b] and not any(
            edge_sets[a] < edge_sets[c] < edge_sets[b] for c in range(len(edge_sets))
        ):
            covers.append((a, b))
    return sorted(covers)


def enumerate_lattice(
    game: GameSpec, num_nonplayers: int, original_edges: Iterable = (), k: int = 1
) -> LatticeSummary:
    """All k-strong stable graphs of an instance, verified as a lattice.

    Ground truth comes from the oracle; each element is re-checked with
    the search-based verifier, the join/meet fixpoints are compared with
    the enumerated LUB/GLB, and the (k+1)-strong set is confirmed to nest
    inside the k-strong one.  Any disagreement raises, since it means two
    independent implementations of the model diverge.
    """
    from .oracle import enumerate_feasible_graphs

    fgs = enumerate_feasible_graphs(game, num_nonplayers, original_edges)
    masks = fgs.pans_masks(k)
    if not masks:
        raise AssertionError("stable set is empty; a stable graph always exists")
    elements = [fgs.network(t) for t in masks]
    for net in elements:
        if not is_k_strong(net, game, k).stable:
            raise AssertionError(
                f"oracle marks {sorted(net.edges)} {k}-strong stable, "
                "the deviation search disagrees"
            )
    sets = [n.edges for n in elements]
    failures = bound_failures(game, elements)
    if failures:
        raise AssertionError(failures[0])
    if k < game.num_players and not set(fgs.pans_masks(k + 1)) <= set(masks):
        raise AssertionError(f"{k + 1}-strong stable graphs do not nest in {k}-strong")
    order = sorted(range(len(elements)), key=lambda t: (len(sets[t]), sorted(sets[t])))
    elements = [elements[t] for t in order]
    sets = [sets[t] for t in order]
    return LatticeSummary(k, elements[0], elements[-1], elements, _hasse(sets))
