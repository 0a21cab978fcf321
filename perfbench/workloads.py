"""The four workloads: seeded inputs, references, and one op each.

Every workload is a closed loop with one client: the runner in ``run.py``
starts the next op only when the previous one has returned.  A workload
builds its whole schedule of ops from the seed during set-up, together with
the reference each op's output is checked against, and hands ``hidenet``
only the generated inputs.

Alphas follow ``tests/conftest.py::random_instance``: a denominator drawn
from 1..4 and numerators up to 8 times it, so every alpha is a rational in
[0, 8].  That range stays clear of the oracle's int64 overflow (ROADMAP
item 3); the tests, not the benchmark, own that defect.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from hidenet import analytics, cli, fixpoint, gamefile, lattice, model, moves, oracle, reports
from hidenet import stability
from spans import Tracer


@dataclass(frozen=True)
class Instance:
    n: int
    m: int
    game: model.GameSpec
    e0: tuple[model.Edge, ...]

    @property
    def label(self) -> str:
        return f"n{self.n}m{self.m}"

    def __str__(self) -> str:
        alphas = " ".join(str(a) for a in self.game.alphas)
        return f"{self.label} alphas=[{alphas}] e0={list(self.e0)}"

    @property
    def candidate_edges(self) -> int:
        return oracle.candidate_edge_count(self.n, self.m) - len(self.e0)


def random_instance(rng: random.Random, n: int, m: int) -> Instance:
    """Alphas and original edges drawn as the test suite draws them."""
    den = rng.choice([1, 2, 3, 4])
    alphas = [Fraction(rng.randint(0, 8 * den), den) for _ in range(n)]
    e0 = tuple(
        (a, b)
        for a in range(n + 1, n + m + 1)
        for b in range(a + 1, n + m + 1)
        if rng.random() < 0.3
    )
    return Instance(n, m, model.GameSpec(alphas), e0)


def _complete(num_nodes: int) -> list[model.Edge]:
    return list(itertools.combinations(range(1, num_nodes + 1), 2))


def _first(problems) -> Optional[str]:
    return next((p for cond, p in problems if cond), None)


def own_peak_rss_mb() -> float:
    """Peak resident size of this process's own memory, in MB.

    ``getrusage``'s ``ru_maxrss`` is no use here: Linux carries the parent's
    size at fork across ``exec``, so it would report whichever process
    launched the benchmark.  ``VmHWM`` covers only the memory since ``exec``.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("/proc/self/status has no VmHWM line")


class Workload:
    """Interface the runner drives; ``schedule`` cycles until time is up."""

    name = ""

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed, self.tiny, self.workdir = seed, tiny, workdir
        self.schedule: list = []
        self.min_ops = 2  # the timed loop runs at least this many ops

    def setup(self) -> None:
        raise NotImplementedError

    def item_at(self, op: int):
        """The schedule item that op number ``op`` of the timed loop runs."""
        return self.schedule[op % len(self.schedule)]

    def label(self, item) -> str:
        raise NotImplementedError

    def describe(self, item) -> str:
        """The op's input, as recorded in a trace file."""
        raise NotImplementedError

    def run(self, item, tr) -> Optional[str]:
        """Execute one op; return a description of the first mismatch, or None."""
        raise NotImplementedError

    def corrupted(self, item):
        """A copy of ``item`` whose reference is wrong, for the self-check."""
        raise NotImplementedError

    def probe(self, tr) -> None:
        """Traced-run extras measured after the timed loop."""

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process doing the work."""
        return own_peak_rss_mb()

    def warm(self, stop: int, start: int = 0) -> None:
        """Run schedule items ``start:stop`` untimed, then the self-check: the
        first of them with a corrupted reference must be reported as failed.

        A warm-up op that fails is not an error of the benchmark: the timed
        loop starts at the head of the schedule and runs at least ``stop``
        ops, so it runs the same op again and counts the failure there.
        """
        untraced = Tracer(False)
        items = self.schedule[start:stop]
        for item in items:
            try:
                problem = self.run(item, untraced)
            except Exception as exc:  # counted when the timed loop reaches it
                problem = f"{type(exc).__name__}: {exc}"
            if problem is not None:
                print(f"{self.name}: warm-up op {self.label(item)} failed: {problem}",
                      file=sys.stderr)
        self.min_ops = max(self.min_ops, stop)
        if self.run(self.corrupted(items[0]), untraced) is None:
            raise SelfCheckError(f"{self.name}: an op with a corrupted reference passed")


class SelfCheckError(RuntimeError):
    """The benchmark's own checks did not hold during set-up."""


# -- construct ------------------------------------------------------------------


@dataclass(frozen=True)
class ConstructItem:
    inst: Instance
    corrupt: bool = False


class Construct(Workload):
    """Least and greatest stable graphs by fixpoint, checked against closed forms.

    Every run starts with one (8,4) op, and then cycles through 360 ops
    alternating one (4,2) and two (6,3) instances, so the median and the 90th
    percentile both fall inside the (6,3) ops rather than on a boundary
    between rungs.  The (8,4) op runs once whatever the program's speed: a
    second one, at 1 s to 4 s, would land on either side of the deadline.
    """

    name = "construct"

    def setup(self) -> None:
        rng = random.Random(f"construct/{self.seed}")
        if self.tiny:
            pattern = [(4, 2)] * 3
        else:
            pattern = [(8, 4)] + [(4, 2), (6, 3), (6, 3)] * 120
        self.schedule = [ConstructItem(random_instance(rng, n, m)) for n, m in pattern]
        self.warm(start=1, stop=4)  # the small ops after the (8,4) op

    def item_at(self, op: int) -> ConstructItem:
        if op == 0 or self.tiny:
            return super().item_at(op)
        return self.schedule[1 + (op - 1) % (len(self.schedule) - 1)]

    def label(self, item: ConstructItem) -> str:
        return item.inst.label

    def describe(self, item: ConstructItem) -> str:
        return str(item.inst)

    def corrupted(self, item: ConstructItem) -> ConstructItem:
        return dataclasses.replace(item, corrupt=True)

    def run(self, item: ConstructItem, tr) -> Optional[str]:
        inst = item.inst
        n, m, game, e0 = inst.n, inst.m, inst.game, inst.e0
        start = tr.call("model.build_network", model.build_network, n, m, e0, e0)
        full = tr.call("model.build_network", model.build_network, n, m, _complete(n + m), e0)
        grow_ops, shrink_ops = fixpoint.OpCounter(), fixpoint.OpCounter()
        low = tr.call("fixpoint.min_including_pans", fixpoint.min_including_pans,
                      start, game, grow_ops)
        high = tr.call("fixpoint.max_included_pans", fixpoint.max_included_pans,
                       full, game, shrink_ops)
        tr.count("fixpoint.min_including_pans.ops", grow_ops.ops)
        tr.count("fixpoint.max_included_pans.ops", shrink_ops.ops)
        join = tr.call("lattice.join_pans", lattice.join_pans, game, low, high)
        meet = tr.call("lattice.meet_pans", lattice.meet_pans, game, low, high)
        low_ok = tr.call("stability.is_pane", stability.is_pane, low, game)
        high_ok = tr.call("stability.is_pane", stability.is_pane, high, game)
        least = tr.call("analytics.least_closed_form", analytics.least_closed_form, game, m, e0)
        greatest = tr.call("analytics.greatest_closed_form", analytics.greatest_closed_form,
                           game, m, e0)
        expected_least = least.predicted.edges
        if item.corrupt:
            expected_least = expected_least ^ {(1, 2)}
        return _first([
            (not low_ok.stable, "min_including_pans result is not pairwise Nash stable"),
            (not high_ok.stable, "max_included_pans result is not pairwise Nash stable"),
            (low.edges != expected_least, "least closed form differs from min_including_pans"),
            (high.edges != greatest.predicted.edges,
             "greatest closed form differs from max_included_pans"),
            (join.edges != high.edges, "join of least and greatest is not the greatest"),
            (meet.edges != low.edges, "meet of least and greatest is not the least"),
        ])


# -- oracle ---------------------------------------------------------------------


@dataclass(frozen=True)
class OracleItem:
    inst: Instance
    least: frozenset
    greatest: frozenset


class Oracle(Workload):
    """Full enumeration and classification of one instance per op.

    The timed schedule holds 150 instances with at most 10 candidate edges,
    rotating through (4,1), (5,0) and (3,2), so the mix of sizes is the same
    however many ops a run completes.  The 15-edge sizes in ``LARGE`` are not
    timed here: one such op costs from about 3 s to 15 s depending on the
    alphas, so within a run whether and which one was reached would decide
    the figures.  ``record.py`` measures one op at each of them on its own,
    with its time, layers and peak memory.
    """

    name = "oracle"
    LARGE = ((6, 0), (5, 1), (4, 2), (3, 3))
    SMALL = ((4, 1), (5, 0), (3, 2))

    def setup(self) -> None:
        rng = random.Random(f"oracle/{self.seed}")
        if self.tiny:
            small = [random_instance(rng, 3, 1) for _ in range(3)]
        else:
            small = [random_instance(rng, *self.SMALL[j % 3]) for j in range(150)]
        self.schedule = [self.item(inst) for inst in small]
        self.warm(stop=3)

    @staticmethod
    def item(inst: Instance) -> OracleItem:
        least = analytics.least_closed_form(inst.game, inst.m, inst.e0)
        greatest = analytics.greatest_closed_form(inst.game, inst.m, inst.e0)
        return OracleItem(inst, least.predicted.edges, greatest.predicted.edges)

    def label(self, item: OracleItem) -> str:
        return item.inst.label

    def describe(self, item: OracleItem) -> str:
        return str(item.inst)

    def corrupted(self, item: OracleItem) -> OracleItem:
        return dataclasses.replace(item, greatest=item.greatest ^ {(1, 2)})

    def run(self, item: OracleItem, tr) -> Optional[str]:
        inst = item.inst
        game, m, e0 = inst.game, inst.m, inst.e0
        fgs = tr.call("oracle.enumerate_feasible_graphs", oracle.enumerate_feasible_graphs,
                      game, m, e0)
        pans1 = tr.call("oracle.pans_masks", fgs.pans_masks, 1)
        pans2 = tr.call("oracle.pans_masks", fgs.pans_masks, 2)
        max_sw, _ = tr.call("oracle.max_social_welfare", oracle.max_social_welfare, game, m, e0)
        summary = tr.call("lattice.enumerate_lattice", lattice.enumerate_lattice, game, m, e0, 1)
        eff = tr.call("analytics.efficiency", analytics.efficiency, game, m, e0, 1)
        tr.count("oracle.candidate_edges", inst.candidate_edges)
        tr.count("oracle.feasible_masks", len(fgs))
        tr.count("oracle.stable_masks", len(pans1))
        return _first([
            (summary.least.edges != item.least, "least lattice element differs from closed form"),
            (summary.greatest.edges != item.greatest,
             "greatest lattice element differs from closed form"),
            (not set(pans2) <= set(pans1), "2-strong masks are not a subset of 1-strong masks"),
            (eff.max_sw < eff.max_eq_sw, "max_sw is below max_eq"),
            (eff.max_sw != max_sw, "efficiency and max_social_welfare disagree on max_sw"),
        ])


# -- verify ---------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyItem:
    label: str
    game: model.GameSpec
    net: model.Network
    k: int
    pane: bool
    strong: bool


class Verify(Workload):
    """One verification request per op: ``is_pane`` then ``is_k_strong(k)``.

    Graphs come from 90 seeded instances with 6 candidate edges, 30 at each
    of (2,2), (3,1) and (4,0).  Every feasible graph of every instance is
    asked once with k = 1 and once with k = 2, so the share of stable graphs
    in the schedule is the program's, not the benchmark's.  The truth is the
    oracle's ``pans_masks(k)``.  Instances with 10 candidate edges are left
    out: one 2-strong check there can take 70 ms, and the few such instances
    a set-up can afford made ``ops_per_s`` differ by about 25% from seed to
    seed.
    """

    name = "verify"
    SIZES = ((2, 2), (3, 1), (4, 0))
    PER_SIZE = 30

    def setup(self) -> None:
        rng = random.Random(f"verify/{self.seed}")
        per_size = 2 if self.tiny else self.PER_SIZE
        items: list[VerifyItem] = []
        for n, m in self.SIZES * per_size:
            inst = random_instance(rng, n, m)
            fgs = oracle.enumerate_feasible_graphs(inst.game, inst.m, inst.e0)
            pans = {1: set(fgs.pans_masks(1)), 2: set(fgs.pans_masks(2))}
            for t in map(int, fgs.masks):
                net = fgs.network(t)
                items.extend(VerifyItem(inst.label, inst.game, net, k, t in pans[1], t in pans[k])
                             for k in (1, 2))
        rng.shuffle(items)
        self.schedule = items
        self.warm(stop=50)

    def stable_share(self) -> float:
        """Share of the schedule's requests whose graph is k-strong stable."""
        return sum(item.strong for item in self.schedule) / len(self.schedule)

    def label(self, item: VerifyItem) -> str:
        return item.label

    def describe(self, item: VerifyItem) -> str:
        return f"{item.label} k={item.k} edges={item.net.sorted_edges()}"

    def corrupted(self, item: VerifyItem) -> VerifyItem:
        return dataclasses.replace(item, strong=not item.strong)

    def run(self, item: VerifyItem, tr) -> Optional[str]:
        pane = tr.call("stability.is_pane", stability.is_pane, item.net, item.game)
        strong = tr.call("stability.is_k_strong", stability.is_k_strong,
                         item.net, item.game, item.k)
        return _first([
            (pane.stable != item.pane, "is_pane disagrees with the oracle"),
            (strong.stable != item.strong, f"is_k_strong(k={item.k}) disagrees with the oracle"),
        ])

    def move_count_bound(self) -> int:
        """Summed coalition-move bound over the distinct requests."""
        return sum(moves.move_count_bound(item.net, item.k) for item in self.schedule)


# -- cli ------------------------------------------------------------------------


@dataclass(frozen=True)
class CliItem:
    argv: tuple[str, ...]
    expected: bytes
    reference_error: Optional[str] = None  # the in-process reference run failed


FIXTURES = "tests/fixtures"
GOLDEN = Path("tests/golden")

# The five argvs pinned by tests/golden, which must match byte for byte.
GOLDEN_ARGVS = {
    "verify_triangle.json": ("verify", "--game", f"{FIXTURES}/fig2.game",
                             "--graph", f"{FIXTURES}/triangle123.graph"),
    "greatest_ex5.json": ("greatest", "--game", f"{FIXTURES}/ex5.game"),
    "efficiency_ex5.json": ("efficiency", "--game", f"{FIXTURES}/ex5.game"),
    "detect_observed.json": ("detect", "--graph", f"{FIXTURES}/observed.graph"),
    "enumerate_fig2_k3.json": ("enumerate", "--game", f"{FIXTURES}/fig2.game", "--k", "3"),
}


def _random_state(rng: random.Random, inst: Instance) -> model.Network:
    """A feasible graph: random player edges, then random covered interconnections."""
    n, m = inst.n, inst.m
    edges = set(inst.e0)
    for i in range(1, n + 1):
        for v in range(i + 1, n + m + 1):
            if rng.random() < 0.5:
                edges.add((i, v))
    for j, l in itertools.combinations(range(n + 1, n + m + 1), 2):
        covered = any((i, j) in edges and (i, l) in edges for i in range(1, n + 1))
        if covered and rng.random() < 0.5:
            edges.add((j, l))
    return model.build_network(n, m, edges, inst.e0)


def _plain_graph(num_nodes: int, edges) -> str:
    lines = ["[nodes]", str(num_nodes), "[edges]"]
    lines.extend(f"{a} {b}" for a, b in sorted(edges))
    return "\n".join(lines) + "\n"


# Runs hidenet.cli as ``python -m`` does, then leaves the process's own peak
# resident size (see own_peak_rss_mb) in the file named by the environment.
_CLI_CHILD = """\
import os, runpy
try:
    runpy.run_module("hidenet.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status", encoding="ascii") as status:
        peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(os.environ["PERFBENCH_PEAK_RSS_FILE"], "w", encoding="ascii") as out:
        out.write(peak)
"""


class Cli(Workload):
    """One ``hidenet.cli`` subprocess per op, run as ``python -m`` runs it.

    The cycle of 20 slots covers all 11 commands.  The seven commands that
    need no oracle, ``verify``, ``least``, ``greatest``, ``join``, ``meet``,
    ``bound`` and ``detect``, take two slots each, and ``verify`` two more,
    as the command whose end-to-end time ROADMAP item 1 tracks.  The other
    four take one each, so the three oracle-backed commands, 15% of the ops,
    can fill the slowest tenth, where ``op_p90_ms`` reads.  Each slot takes the next argv
    of its command's pool.  ``enumerate``, ``efficiency`` and ``oracle-check`` run
    only on fixtures with at most 10 candidate edges.  Each child reports its
    own peak resident size, and ``peak_rss_mb`` is the largest.
    """

    name = "cli"
    CYCLE = ("verify", "least", "greatest", "join", "meet", "bound", "detect", "verify",
             "enumerate", "characterize", "verify", "least", "greatest", "join", "meet",
             "bound", "detect", "verify", "efficiency", "oracle-check")

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        super().__init__(seed, tiny, workdir)
        self.peak_file = workdir / "child-peak-rss-kb"
        self.env = dict(os.environ, PYTHONPATH="src", PERFBENCH_PEAK_RSS_FILE=str(self.peak_file))
        self.child_peak_kb = 0

    def _write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return os.path.relpath(path)

    def _pools(self) -> dict[str, list[tuple[str, ...]]]:
        rng = random.Random(f"cli/{self.seed}")
        fx = FIXTURES
        pools: dict[str, list[tuple[str, ...]]] = {c: [] for c in cli.COMMANDS}
        for argv in GOLDEN_ARGVS.values():
            pools[argv[0]].append(argv)
        pools["verify"] += [("verify", "--game", f"{fx}/ex1.game"),
                            ("verify", "--game", f"{fx}/fig2.game", "--graph", f"{fx}/k4.graph",
                             "--k", "2")]
        pools["least"] += [("least", "--game", f"{fx}/ex1.game")]
        pools["join"] += [("join", "--game", f"{fx}/fig2.game", "--graph",
                           f"{fx}/triangle123.graph", "--graph", f"{fx}/triangle124.graph")]
        pools["meet"] += [("meet", "--game", f"{fx}/fig2.game", "--graph",
                           f"{fx}/triangle123.graph", "--graph", f"{fx}/triangle124.graph")]
        pools["bound"] += [("bound", "--game", f"{fx}/fig3.game", "--format", "text")]
        pools["characterize"] += [("characterize", "--game", f"{fx}/fig2.game"),
                                  ("characterize", "--game", f"{fx}/ex2.game")]
        pools["enumerate"] += [("enumerate", "--game", f"{fx}/ex1.game"),
                               ("enumerate", "--game", f"{fx}/fig2.game", "--k", "2")]
        pools["efficiency"] += [("efficiency", "--game", f"{fx}/ex1.game"),
                                ("efficiency", "--game", f"{fx}/fig3.game", "--k", "2")]
        pools["oracle-check"] += [("oracle-check", "--game", f"{fx}/fig2.game", "--max-k", "2"),
                                  ("oracle-check", "--game", f"{fx}/ex1.game")]
        sizes = [(4, 2)] if self.tiny else [(4, 2), (6, 3)]
        for s, (n, m) in enumerate(sizes):
            inst = random_instance(rng, n, m)
            state = _random_state(rng, inst)
            game = self._write(f"s{s}.game", gamefile.serialize_game(state, inst.game))
            least = lattice.least_pans(inst.game, m, inst.e0)
            greatest = lattice.greatest_pans(inst.game, m, inst.e0)
            low = self._write(f"s{s}.least.graph", gamefile.serialize_graph(least))
            high = self._write(f"s{s}.greatest.graph", gamefile.serialize_graph(greatest))
            rand = self._write(f"s{s}.state.graph", gamefile.serialize_graph(state))
            footprint = self._write(f"s{s}.footprint.plain", _plain_graph(n + m, greatest.edges))
            noisy = self._write(f"s{s}.noisy.plain", _plain_graph(n + m, [
                e for e in _complete(n + m) if rng.random() < 0.4]))
            strong_k = "2" if n <= 4 else "1"
            pools["verify"] += [("verify", "--game", game),
                                ("verify", "--game", game, "--graph", low),
                                ("verify", "--game", game, "--graph", high, "--k", strong_k),
                                ("verify", "--game", game, "--graph", rand, "--k", strong_k)]
            pools["least"] += [("least", "--game", game)]
            pools["greatest"] += [("greatest", "--game", game, "--format", "text")]
            pools["join"] += [("join", "--game", game, "--graph", low, "--graph", high)]
            pools["meet"] += [("meet", "--game", game, "--graph", high, "--graph", low)]
            pools["bound"] += [("bound", "--game", game)]
            pools["characterize"] += [("characterize", "--game", game, "--graph", high)]
            pools["detect"] += [("detect", "--graph", footprint, "--slack", "1"),
                                ("detect", "--graph", noisy, "--beta", "9/4")]
        for pool in pools.values():
            rng.shuffle(pool)
        return pools

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        pools = self._pools()
        references: dict[tuple[str, ...], CliItem] = {}
        for name, argv in GOLDEN_ARGVS.items():
            references[argv] = CliItem(argv, (GOLDEN / name).read_bytes())
        for pool in pools.values():
            for argv in pool:
                if argv not in references:
                    references[argv] = self._reference(argv)
        rotation = {c: itertools.cycle(pool) for c, pool in pools.items() if pool}
        self.schedule = [references[next(rotation[command])]
                         for _ in range(6) for command in self.CYCLE]
        self.warm(stop=1)

    @staticmethod
    def _reference(argv: tuple[str, ...]) -> CliItem:
        """The in-process output; if that run fails, every op on ``argv`` fails."""
        try:
            code, out = cli.run_command(list(argv))
        except Exception as exc:  # the program's failure, counted per op
            return CliItem(argv, b"", f"reference run raised {type(exc).__name__}: {exc}")
        if code != 0:
            return CliItem(argv, b"", f"reference run exited {code}: {out.strip()}")
        return CliItem(argv, out.encode("utf-8"))

    def label(self, item: CliItem) -> str:
        return item.argv[0]

    def describe(self, item: CliItem) -> str:
        return " ".join(item.argv)

    def corrupted(self, item: CliItem) -> CliItem:
        return dataclasses.replace(item, expected=item.expected + b" ")

    def run(self, item: CliItem, tr) -> Optional[str]:
        proc = tr.call("cli.main", self._spawn, item.argv)
        self.child_peak_kb = max(self.child_peak_kb, int(self.peak_file.read_text()))
        return _first([
            (item.reference_error is not None, item.reference_error),
            (proc.returncode != 0, f"exit code {proc.returncode}"),
            (proc.stderr != b"", "output on stderr"),
            (proc.stdout != item.expected, "stdout differs from the reference"),
        ])

    def _spawn(self, argv) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-c", _CLI_CHILD, *argv],
                              env=self.env, capture_output=True, check=False)

    def peak_rss_mb(self) -> float:
        return self.child_peak_kb / 1024

    def probe(self, tr) -> None:
        """In-process replay of one cycle: run_command, parsing and rendering."""
        for op, item in enumerate(self.schedule[: len(self.CYCLE)], start=1):
            tr.begin_op(-op, item.argv[0])
            _, out = tr.call("cli.run_command", cli.run_command, list(item.argv))
            if "--game" in item.argv:
                text = Path(item.argv[item.argv.index("--game") + 1]).read_text(encoding="utf-8")
                tr.call("gamefile.parse_game_file", gamefile.parse_game_file, text)
            if "--format" not in item.argv:
                tr.call("reports.to_json", reports.to_json, json.loads(out))
            tr.end_op()


WORKLOADS = {w.name: w for w in (Cli, Construct, Oracle, Verify)}
