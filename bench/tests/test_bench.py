"""Tests of the benchmark itself: its output check, its printed names and its refusal to run without sources."""
from __future__ import annotations

import dataclasses
import importlib.util
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load_bench():
    spec = importlib.util.spec_from_file_location("ssdfi_bench", BENCH_DIR / "bench.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


bench = _load_bench()


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/bench.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_output_check_rejects_a_dropped_record():
    ssdfi = bench.import_ssdfi()
    expected = bench.load_expected()["stress-maintenance"]["0"]
    inputs = bench.WORKLOADS["stress-maintenance"].inputs(0)
    rows, _ = bench.run_missions(ssdfi, inputs, [0], None)
    for seed, code, result, _, error in rows:
        assert error is None
        assert bench.mission_mismatch(expected, seed, code, result) is None
    seed, code, result, _, _ = max(rows, key=lambda row: len(row[2].records))
    dropped = dataclasses.replace(result, records=result.records[:-1])
    assert bench.mission_mismatch(expected, seed, code, dropped) is not None


def test_grid_check_rejects_changed_report_bytes():
    universe = bench.load_expected()["grid-run"]
    workload_seed = sorted(universe, key=int)[0]
    cells = universe[workload_seed]["cells"]
    reports = {f"{key}.json": b"{}" for key in cells}
    problems = bench.grid_mismatches(universe, int(workload_seed), reports)
    assert len(problems) == len(cells)


def test_same_seed_same_missions_one_per_stratum():
    universe = bench.load_expected()["stress-maintenance"]["0"]
    a = bench.stratified_seeds(universe, 10, random.Random(5))
    b = bench.stratified_seeds(universe, 10, random.Random(5))
    assert a == b and len(set(a)) == 10


def test_declared_names_match_benchmark_json():
    # stress-maintenance is runnable but left out of BENCHMARK.json (see NOTES.md).
    assert [w for w in bench.WORKLOADS if w != "stress-maintenance"] == [
        w["name"] for w in SPEC["workloads"]
    ]
    assert bench.END_TO_END == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert bench.PER_LAYER == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _bench_result(trace: int) -> tuple[dict, str]:
    """(result line, counts line) of a short stress-maintenance run."""
    proc = _run(ROOT, "--workload", "stress-maintenance", "--seed", "1",
                "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    counts = next((line for line in lines if line.startswith("counts ")), "")
    return json.loads(lines[-1]), counts


def test_printed_names_match_benchmark_json():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, _ = _bench_result(trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in SPEC[key]}


def test_two_traced_runs_print_the_same_counts():
    first, second = _bench_result(1), _bench_result(1)
    assert first[1] and first[1] == second[1]
    for name in bench.DETERMINISTIC:
        assert first[0]["metrics"][name] == second[0]["metrics"][name]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "stress-maintenance", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
