"""Command-line front end.

    hidenet verify --game fig2.game --graph triangle.graph --k 1
    hidenet greatest --game ex5.game
    hidenet enumerate --game fig2.game --k 3
    hidenet detect --graph observed.graph --beta 5/2 --slack 1

``verify`` runs the polynomial structural check (``is_pane``) first.  Every
k-strong stable graph is pairwise Nash stable, so that check settles k = 1
and every unstable graph, and its verdict names the violated condition;
only a stable graph at k >= 2 goes on to the coalition search.  The oracle,
and with it numpy, is imported only by ``enumerate``, ``efficiency`` and
``oracle-check``.

Exit codes: 0 success, 2 validation or precondition failure, 3 oracle or
coalition-search budget exceeded, or a command whose work or report does not
fit in memory.  Reports are deterministic given the
inputs; JSON is the canonical format and ``--format text`` prints the same
fields flat.
"""

from __future__ import annotations

import argparse
import sys
from . import analytics, detection, lattice, reports
from .errors import BudgetExceededError, HidenetError, ValidationError
from .gamefile import parse_game_file, parse_graph_file, parse_plain_graph
from .model import GameSpec, Network, as_fraction, require_strength, utility
from .stability import StabilityVerdict, is_k_strong, is_pane

COMMANDS = (
    "verify",
    "least",
    "greatest",
    "join",
    "meet",
    "enumerate",
    "characterize",
    "efficiency",
    "bound",
    "detect",
    "oracle-check",
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hidenet", description="stable networks of the hiders' game"
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--game", help="game file")
    parser.add_argument("--graph", action="append", default=[], help="graph file (repeatable)")
    parser.add_argument("--k", type=int, default=1, help="coalition strength (default 1)")
    parser.add_argument("--beta", default="5/2", help="scale-free exponent in (2,3)")
    parser.add_argument("--slack", type=int, default=0, help="edge edits tolerated by detect")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--max-k", type=int, default=1, dest="max_k",
                        help="largest k cross-checked by oracle-check")
    return parser


def _read(path: str) -> str:
    """An input file's text; one that is not UTF-8 is a validation error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from None


def _load_game(args) -> tuple[Network, GameSpec]:
    if not args.game:
        raise ValidationError(f"{args.command} needs --game")
    return parse_game_file(_read(args.game))


def _load_graphs(args, base: Network, want: int) -> list[Network]:
    if len(args.graph) != want:
        raise ValidationError(
            f"{args.command} needs exactly {want} --graph file(s), got {len(args.graph)}"
        )
    return [parse_graph_file(_read(path), base) for path in args.graph]


def _characterize(net: Network, game: GameSpec, args, m: int, e0) -> dict:
    payload: dict = {
        "greatest": reports.closed_form_dict(analytics.greatest_closed_form(game, m, e0)),
        "least": reports.closed_form_dict(analytics.least_closed_form(game, m, e0)),
        "large_m": analytics.large_m_check(game, m),
    }
    if len(set(game.alphas)) == 1:
        payload["class"] = "equal-alpha"
        ok, structure = analytics.check_equal_alpha(net, game)
        payload["graph_is_stable"] = ok
        payload["structure"] = {
            "alpha": reports.rational_str(structure.alpha),
            "component_D": sorted(structure.component_D),
            "D_boundary_counts": {str(j): c for j, c in sorted(structure.D_boundary_counts.items())},
            "D0": structure.D0,
            "component_C": sorted(structure.component_C),
        }
        payload["efficiency"] = reports.efficiency_dict(
            analytics.equal_alpha_efficiency(game, m, args.k, original_edges=e0)
        )
    elif all(a < 1 for a in game.alphas[1:]):
        payload["class"] = "one-distinct-alpha"
        payload["graph_is_stable"] = analytics.check_one_distinct(net, game, args.k)
        if len(set(game.alphas[1:])) == 1:
            payload["efficiency"] = reports.efficiency_dict(
                analytics.one_distinct_efficiency(game, m, args.k, original_edges=e0)
            )
    else:
        payload["class"] = "general"
    return payload


def _verify(net: Network, game: GameSpec, k: int) -> StabilityVerdict:
    """k-PANS lies inside PANS, so ``is_pane`` settles k = 1 and every
    unstable graph; its witness has at most two members, so it is a k-move.
    Only a pairwise stable graph at k >= 2 needs the coalition search."""
    verdict = is_pane(net, game)
    if k == 1:
        return verdict
    if verdict.stable:
        return is_k_strong(net, game, k)
    return StabilityVerdict(False, "k-PANE", k, verdict.witness, verdict.condition)


def run_command(argv) -> tuple[int, str]:
    """Execute one CLI invocation; returns (exit code, rendered report)."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code), ""
    try:
        payload = _dispatch(args)
        rendered = reports.to_json(payload) if args.format == "json" else reports.to_text(payload)
    except BudgetExceededError as exc:
        return 3, f"error: {exc}\n"
    except MemoryError:
        return 3, f"error: {args.command} on these inputs does not fit in memory\n"
    except (HidenetError, OSError) as exc:
        return 2, f"error: {exc}\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            return 2, f"error: {exc}\n"
        return 0, ""
    return 0, rendered


def _dispatch(args) -> dict:
    command = args.command
    if command == "detect":
        if len(args.graph) != 1:
            raise ValidationError("detect needs exactly one --graph file")
        num_nodes, edges = parse_plain_graph(_read(args.graph[0]))
        report = detection.detect_infiltration(
            num_nodes, edges, as_fraction(args.beta), args.slack
        )
        return {"command": "detect", "report": reports.detection_dict(report)}

    base, game = _load_game(args)
    require_strength(args.k, game.num_players)  # also where the command never reads k
    if command in ("enumerate", "efficiency", "oracle-check"):
        from importlib.util import find_spec

        if find_spec("numpy") is None:  # the oracle's tables are numpy arrays
            raise ValidationError(f"{command} needs numpy, which is not installed")
    m = base.num_nonplayers
    e0 = base.original_edges

    if command == "verify":
        nets = _load_graphs(args, base, 1) if args.graph else [base]
        return {
            "command": "verify",
            "verdict": reports.verdict_dict(_verify(nets[0], game, args.k)),
            "utilities": reports.utility_dict(utility(nets[0], game)),
        }
    if command in ("least", "greatest", "join", "meet") and args.k != 1:
        raise ValidationError(f"{command} builds pairwise Nash stable graphs only (k = 1)")
    if command in ("least", "greatest"):
        op = lattice.least_pans if command == "least" else lattice.greatest_pans
        net = op(game, m, e0)
        return {
            "command": command,
            "network": reports.network_dict(net),
            "utilities": reports.utility_dict(utility(net, game)),
        }
    if command in ("join", "meet"):
        a, b = _load_graphs(args, base, 2)
        op = lattice.join_pans if command == "join" else lattice.meet_pans
        net = op(game, a, b)
        return {"command": command, "network": reports.network_dict(net)}
    if command == "enumerate":
        summary = lattice.enumerate_lattice(game, m, e0, args.k)
        return {"command": "enumerate", "lattice": reports.lattice_dict(summary)}
    if command == "characterize":
        nets = _load_graphs(args, base, 1) if args.graph else [base]
        return {
            "command": "characterize",
            "report": _characterize(nets[0], game, args, m, e0),
        }
    if command == "efficiency":
        report = analytics.efficiency(game, m, e0, args.k)
        return {"command": "efficiency", "report": reports.efficiency_dict(report)}
    if command == "bound":
        return {
            "command": "bound",
            "additive_bound": reports.rational_str(analytics.additive_bound(game, m)),
        }
    if command == "oracle-check":
        from .oracle import cross_validate

        report = cross_validate(game, m, e0, max_k=args.max_k)
        return {"command": "oracle-check", "report": reports.cross_validation_dict(report)}
    raise ValidationError(f"unknown command {command!r}")


def main() -> None:
    code, output = run_command(sys.argv[1:])
    if output:
        stream = sys.stdout if code == 0 else sys.stderr
        stream.write(output)
    sys.exit(code)


if __name__ == "__main__":
    main()
