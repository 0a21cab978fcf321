"""hidenet benchmark: one workload per run, closed loop, outputs checked.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 30 --trace 0

Set-up (generating inputs, computing references, warming up) runs three
times and ``setup_s`` is its median; the last set-up's inputs are used.  Its
warm-up ends with a self-check that feeds one op a corrupted reference and
aborts unless the op is reported as failed.  The timed loop runs ops from the
schedule, one at a time, until ``--seconds`` have passed and at least the
warmed-up ops have run again, so that a warm-up op that failed is counted.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Any failed op makes
the exit code 1.  Exit code 2, with no result line, means the program is not
there or the self-check failed; exit code 1 with no result line means the
program raised while set-up computed references.  A traced run also
writes its spans to ``perfbench/out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
IMPORT_REPEATS = 7


def _quantiles(values: list[float]) -> tuple[float, float]:
    """(median, 90th percentile) as statistics.quantiles computes them."""
    deciles = statistics.quantiles(values, n=10)
    return statistics.median(values), deciles[8]


def fresh_interpreter_ms(code: str) -> float:
    """Median wall time of a fresh interpreter running ``code``."""
    env = dict(os.environ, PYTHONPATH="src")
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def _import_probe() -> dict[str, float]:
    interpreter = fresh_interpreter_ms("pass")
    imported = fresh_interpreter_ms("import hidenet.cli")
    modules = subprocess.run(
        [sys.executable, "-c", "import sys, hidenet.cli; print(len(sys.modules))"],
        env=dict(os.environ, PYTHONPATH="src"), capture_output=True, text=True, check=True,
    ).stdout
    return {
        "cli.interpreter_ms": interpreter,
        "cli.import_ms": imported - interpreter,
        "cli.import_modules": int(modules),
    }


END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "correct_ratio": "ratio",
    "peak_rss_mb": "MB",
}

_FIXPOINTS = ("fixpoint.min_including_pans", "fixpoint.max_included_pans")
_RUNGS = ("n4m2", "n6m3", "n8m4")


def per_layer_units() -> dict[str, str]:
    units = {
        "cli.interpreter_ms": "ms",
        "cli.import_ms": "ms",
        "cli.import_modules": "count",
        "cli.run_command_ms": "ms",
        "gamefile.parse_game_file.busy_s": "s",
        "reports.to_json.busy_s": "s",
        "model.build_network.calls": "count",
        "model.build_network.busy_s": "s",
    }
    for fn in _FIXPOINTS:
        units.update({f"{fn}.calls": "count", f"{fn}.busy_s": "s", f"{fn}.ops": "count"})
        units.update({f"{fn}.{rung}.p50_ms": "ms" for rung in _RUNGS})
    units.update({
        "lattice.join_pans.busy_s": "s",
        "lattice.meet_pans.busy_s": "s",
        "analytics.closed_form.busy_s": "s",
        "oracle.enumerate_feasible_graphs.busy_s": "s",
        "oracle.candidate_edges": "count",
        "oracle.feasible_masks": "count",
        "oracle.pans_masks.busy_s": "s",
        "oracle.stable_ratio": "ratio",
        "oracle.max_social_welfare.busy_s": "s",
        "analytics.efficiency.busy_s": "s",
        "lattice.enumerate_lattice.busy_s": "s",
        "stability.is_pane.calls": "count",
        "stability.is_pane.busy_s": "s",
        "stability.is_k_strong.calls": "count",
        "stability.is_k_strong.busy_s": "s",
        "moves.move_count_bound": "count",
        "traced.ops_per_s": "1/s",
        "traced.op_p50_ms": "ms",
    })
    return units


def _per_layer(workload, tr, ops_per_s: float, p50_ms: float) -> dict[str, float]:
    """Every per-layer metric; a layer the workload never calls reads 0."""
    values = _import_probe()
    run_command = tr.durations("cli.run_command")
    values["cli.run_command_ms"] = (
        statistics.fmean(run_command) * 1e3 if run_command else 0.0
    )
    for name in ("gamefile.parse_game_file", "reports.to_json", "model.build_network",
                 "lattice.join_pans", "lattice.meet_pans", "oracle.enumerate_feasible_graphs",
                 "oracle.pans_masks", "oracle.max_social_welfare", "analytics.efficiency",
                 "lattice.enumerate_lattice", "stability.is_pane", "stability.is_k_strong",
                 *_FIXPOINTS):
        values[f"{name}.busy_s"] = tr.busy(name)
        values[f"{name}.calls"] = tr.calls(name)
    for fn in _FIXPOINTS:
        calls = tr.calls(fn)
        values[f"{fn}.ops"] = tr.counters[f"{fn}.ops"] / calls if calls else 0.0
        for rung in _RUNGS:
            times = tr.durations(fn, rung)
            values[f"{fn}.{rung}.p50_ms"] = statistics.median(times) * 1e3 if times else 0.0
    values["analytics.closed_form.busy_s"] = (
        tr.busy("analytics.least_closed_form") + tr.busy("analytics.greatest_closed_form")
    )
    enumerations = tr.calls("oracle.enumerate_feasible_graphs")
    feasible = tr.counters["oracle.feasible_masks"]
    values["oracle.candidate_edges"] = (
        tr.counters["oracle.candidate_edges"] / enumerations if enumerations else 0.0
    )
    values["oracle.feasible_masks"] = feasible
    values["oracle.stable_ratio"] = tr.counters["oracle.stable_masks"] / feasible if feasible else 0.0
    values["moves.move_count_bound"] = (
        workload.move_count_bound() if hasattr(workload, "move_count_bound") else 0
    )
    values["traced.ops_per_s"] = ops_per_s
    values["traced.op_p50_ms"] = p50_ms
    units = per_layer_units()
    return {name: values[name] for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli", "construct", "oracle", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest instances only; for the smoke check")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/hidenet/__init__.py", "tests/fixtures", "tests/golden")
               if not (ROOT / p).exists()]
    if missing:
        print(f"error: the program is not here: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    from spans import Tracer  # after main() has put src/ on the path
    from workloads import WORKLOADS, SelfCheckError

    workload = None
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, args.tiny, workdir)
        try:
            workload.setup()
        except SelfCheckError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except Exception as exc:  # the program failed while computing references
            print(f"error: set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        setups.append(time.perf_counter() - start)

    tr = Tracer(bool(args.trace))
    latencies: list[float] = []
    problems: list[str] = []
    start = time.perf_counter()
    elapsed = 0.0
    while elapsed < args.seconds or len(latencies) < workload.min_ops:
        item = workload.item_at(len(latencies))
        tr.begin_op(len(latencies), workload.label(item))
        op_start = time.perf_counter()
        try:
            problem = workload.run(item, tr)
        except Exception as exc:  # any exception is a failed op, reported below
            problem = f"{type(exc).__name__}: {exc}"
        op_end = time.perf_counter()
        tr.end_op()
        latencies.append(op_end - op_start)
        if problem is not None:
            problems.append(f"op {len(latencies) - 1} ({workload.label(item)}): {problem}")
        elapsed = op_end - start

    attempted = len(latencies)
    ops_per_s = attempted / elapsed
    p50, p90 = _quantiles(latencies)
    if args.trace:
        workload.probe(tr)
        values = _per_layer(workload, tr, ops_per_s, p50 * 1e3)
        units = per_layer_units()
        OUT.mkdir(exist_ok=True)
        tr.write(OUT / f"trace-{args.workload}-seed{args.seed}.json", {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "op_details": {str(op): workload.describe(workload.item_at(op))
                           for op in range(attempted)},
            "metrics": values,
        })
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": ops_per_s,
            "op_p50_ms": p50 * 1e3,
            "op_p90_ms": p90 * 1e3,
            "correct_ratio": (attempted - len(problems)) / attempted,
            "peak_rss_mb": workload.peak_rss_mb(),
        }
        units = END_TO_END_UNITS
    for line in problems[:5]:
        print(f"failed {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
