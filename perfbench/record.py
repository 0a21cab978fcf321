"""Write a results file: every workload untraced and traced, plus baselines.

    python3 perfbench/record.py --seed 1 --out perfbench/results/BENCH_<name>.json

For each workload this runs ``run.py`` once with ``--trace 0`` and once with
``--trace 1`` on the same seed and run length.  The tracing overhead is the
traced run's ``traced.*`` figures against the untraced run's; since that
difference also holds the machine's drift between the two runs, it is
recorded next to spans per op times the measured cost of one span.  The busiest
layers come from the traced run's spans.  The baselines of ROADMAP item 1 are
read from the span files, each with the instance and seed it was measured on.
The oracle's 15-edge sizes, which its timed schedule leaves out, are measured
here one op each, every op in a fresh interpreter that reports the op's time,
its layers and its own peak memory.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
from run import OUT, fresh_interpreter_ms  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import Oracle, Verify, own_peak_rss_mb, random_instance  # noqa: E402

WORKLOADS = ("cli", "construct", "oracle", "verify")

# ROADMAP item 1's rough figures, measured once on a scratch copy.
ROADMAP_MS = {
    "greatest_pans at (8,4)": 1100,
    "pans_masks(1) at (6,0)": 4800,
    "pans_masks(1) at (5,1)": 1900,
    "CLI verify, end to end": 265,
    "import hidenet": 165,
    "import numpy": 110,
}


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run's result line; a run whose ops failed (exit code 1) still has one."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{workload}: run.py exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]) | {"stderr": proc.stderr}


def _trace(workload: str, seed: int) -> dict:
    return json.loads((OUT / f"trace-{workload}-seed{seed}.json").read_text(encoding="utf-8"))


def _spans_by_label(trace: dict, name: str, label: str) -> list[tuple[str, float]]:
    """(op id, duration) of every ``name`` span in ops with ``label``, in order."""
    return [
        (str(span["op"]), span["end"] - span["start"])
        for span in trace["spans"]
        if span["name"] == name and trace["ops"].get(str(span["op"])) == label
    ]


def _span_cost_s(calls: int = 200_000) -> float:
    """Extra seconds one recorded span costs over a disabled tracer's call."""
    per_call = []
    for enabled in (False, True):
        tr = Tracer(enabled)
        tr.begin_op(0, "probe")
        start = time.perf_counter()
        for _ in range(calls):
            tr.call("probe", int)
        per_call.append((time.perf_counter() - start) / calls)
    return per_call[1] - per_call[0]


def _overhead(trace: dict, e2e: dict, layers: dict, span_cost: float) -> dict:
    """Tracing overhead two ways: traced against untraced run, which includes
    the machine's run-to-run drift, and spans per op times the cost of one span."""
    ops = [s for s in trace["spans"] if s["name"] == "op" and s["op"] >= 0]
    children = sum(1 for s in trace["spans"] if s["name"] != "op" and s["op"] >= 0)
    mean_op = statistics.fmean(s["end"] - s["start"] for s in ops)
    return {
        "ops_per_s_change": layers["traced.ops_per_s"] / e2e["ops_per_s"] - 1,
        "op_p50_ms_change": layers["traced.op_p50_ms"] / e2e["op_p50_ms"] - 1,
        "spans_per_op": children / len(ops),
        "span_cost_us": span_cost * 1e6,
        "estimated_share_of_op_time": children / len(ops) * span_cost / mean_op,
    }


def _busiest(trace: dict) -> list[dict]:
    """Layer busy time as a share of the timed ops' wall time."""
    op_time = sum(s["end"] - s["start"] for s in trace["spans"]
                  if s["name"] == "op" and s["op"] >= 0)
    busy: dict[str, float] = {}
    for span in trace["spans"]:
        if span["name"] != "op" and span["op"] >= 0:
            busy[span["name"]] = busy.get(span["name"], 0.0) + span["end"] - span["start"]
    ranked = sorted(busy.items(), key=lambda kv: -kv[1])
    return [{"span": name, "busy_s": b, "share": b / op_time} for name, b in ranked]


def _baseline(what: str, durations: list[tuple[str, float]], trace: dict, seed: int,
              source: str) -> dict:
    ms = [d * 1e3 for _, d in durations]
    return {
        "what": what,
        "measured_ms": statistics.median(ms) if ms else None,  # None: the run never got there
        "samples_ms": ms,
        "roadmap_ms": ROADMAP_MS[what],
        "seed": seed,
        "instances": sorted({trace["op_details"][op] for op, _ in durations}),
        "source": source,
    }


def _large_oracle_op(seed: int, n: int, m: int) -> dict:
    """One oracle op at a 15-edge size, run by ``--large-op`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--large-op", f"{n},{m}",
         "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def _run_large_op(seed: int, size: str) -> None:
    """Child side of ``_large_oracle_op``: print the op's figures as JSON."""
    n, m = map(int, size.split(","))
    inst = random_instance(random.Random(f"oracle-large/{seed}/{size}"), n, m)
    workload = Oracle(seed, False, OUT)
    item = workload.item(inst)
    tr = Tracer(True)
    tr.begin_op(0, inst.label)
    start = time.perf_counter()
    try:
        problem = workload.run(item, tr)
    except Exception as exc:  # the program's failure, recorded with the op
        problem = f"{type(exc).__name__}: {exc}"
    op_ms = (time.perf_counter() - start) * 1e3
    tr.end_op()
    print(json.dumps({
        "instance": str(inst),
        "candidate_edges": inst.candidate_edges,
        "problem": problem,
        "op_ms": op_ms,
        "spans_ms": [(name, (end - begin) * 1e3)
                     for _, name, begin, end, parent, _ in tr.spans if parent is not None],
        "peak_rss_mb": own_peak_rss_mb(),
    }))


def _large_baseline(what: str, op: dict, seed: int) -> dict:
    """The op's first ``pans_masks`` span, which is k = 1."""
    ms = next(ms for name, ms in op["spans_ms"] if name == "oracle.pans_masks")
    return {
        "what": what,
        "measured_ms": ms,
        "samples_ms": [ms],
        "roadmap_ms": ROADMAP_MS[what],
        "seed": seed,
        "instances": [op["instance"]],
        "source": "one oracle op in a fresh interpreter (record.py --large-op): "
                  "its first pans_masks span",
    }


def _verify_stable_share(seed: int) -> float:
    """Share of the verify schedule's requests whose graph is k-strong stable."""
    workload = Verify(seed, False, OUT)
    workload.setup()
    return workload.stable_share()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--large-op", metavar="N,M", help=argparse.SUPPRESS)
    args = parser.parse_args()
    seed = args.seed
    if args.large_op:
        _run_large_op(seed, args.large_op)
        return 0
    if args.out is None:
        parser.error("--out is required")

    results: dict = {
        "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "machine": {
            "cpu": _cpu_model(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "seed": seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    traces = {}
    span_cost = _span_cost_s()
    for workload in WORKLOADS:
        plain = _run(workload, seed, args.seconds, 0)
        traced = _run(workload, seed, args.seconds, 1)
        traces[workload] = _trace(workload, seed)
        e2e = {k: v["value"] for k, v in plain["metrics"].items()}
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        results["workloads"][workload] = {
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "failures": plain["stderr"].splitlines(),
            "end_to_end": e2e,
            "traced_attempted": traced["attempted"],
            "per_layer": layers,
            "tracing_overhead": _overhead(traces[workload], e2e, layers, span_cost),
            "busiest_layers": _busiest(traces[workload]),
        }

    large = {f"({n},{m})": _large_oracle_op(seed, n, m) for n, m in Oracle.LARGE}
    results["oracle_large_ops"] = large
    results["verify_stable_share"] = _verify_stable_share(seed)
    interpreter = fresh_interpreter_ms("pass")
    cli_layers = results["workloads"]["cli"]["per_layer"]
    results["baselines"] = [
        _baseline("greatest_pans at (8,4)",
                  _spans_by_label(traces["construct"], "fixpoint.max_included_pans", "n8m4"),
                  traces["construct"], seed,
                  "construct trace: max_included_pans from the complete graph, which is "
                  "greatest_pans less one build_network"),
        _large_baseline("pans_masks(1) at (6,0)", large["(6,0)"], seed),
        _large_baseline("pans_masks(1) at (5,1)", large["(5,1)"], seed),
        _baseline("CLI verify, end to end",
                  _spans_by_label(traces["cli"], "cli.main", "verify"),
                  traces["cli"], seed, "cli trace: cli.main spans of verify ops"),
        {
            "what": "import hidenet",
            "measured_ms": cli_layers["cli.import_ms"],
            "roadmap_ms": ROADMAP_MS["import hidenet"],
            "interpreter_ms": cli_layers["cli.interpreter_ms"],
            "modules": cli_layers["cli.import_modules"],
            "seed": seed,
            "source": "cli trace: cli.import_ms, a fresh `import hidenet.cli` less a bare "
                      "interpreter, median of 7",
        },
        {
            "what": "import numpy",
            "measured_ms": fresh_interpreter_ms("import numpy") - interpreter,
            "roadmap_ms": ROADMAP_MS["import numpy"],
            "seed": seed,
            "source": "a fresh `import numpy` less a bare interpreter, median of 7",
        },
    ]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    return 0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


if __name__ == "__main__":
    sys.exit(main())
