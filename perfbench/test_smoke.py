"""Smoke check of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, kind):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[kind]}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if kind == "end_to_end":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_corrupted_reference_counts_as_failed(workload, monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    from spans import Tracer
    from workloads import WORKLOADS as CLASSES

    bench = CLASSES[workload](3, True, tmp_path)
    bench.setup()
    item = bench.schedule[0]
    assert bench.run(item, Tracer(False)) is None
    assert bench.run(bench.corrupted(item), Tracer(False)) is not None


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_failed_cli_reference_run_fails_its_ops(monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    from spans import Tracer
    from workloads import Cli

    bench = Cli(3, True, tmp_path)
    item = bench._reference(("verify", "--game", str(tmp_path / "missing.game")))
    assert item.reference_error is not None
    assert bench.run(item, Tracer(False)) is not None
