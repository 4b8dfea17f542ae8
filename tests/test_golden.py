"""Golden outputs: a fixed sample of the benchmark's stored missions, replayed.

`bench/expected.json` stores, for every mission of the benchmark's
universe, the SHA-256 of its `SimResult`, its `uncorrectable` call count
and its record count.  This test replays stock-mission log variant 0,
seeds 0-7, and stress-maintenance seeds 0-19, each under all three codes,
and checks all three values, so a change that alters any output or the
judge-call count fails the ordinary test run.  It also runs the grid-run
workload's grid for workload seed 0 through `run_experiment`, pool
generation to written reports, and checks each cell's report against its
stored SHA-256.  The workloads, the stored table, the digest and the call
tracer all come from `bench/bench.py`.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench" / "bench.py"
SAMPLES = {"stock-mission": range(8), "stress-maintenance": range(20)}


def _load_bench():
    module = sys.modules.get("ssdfi_bench")  # the benchmark's own tests load it too
    if module is None:
        spec = importlib.util.spec_from_file_location("ssdfi_bench", BENCH)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", SAMPLES)
def test_stored_missions_replay(name):
    bench = _load_bench()
    ssdfi = bench.import_ssdfi()
    seeds = SAMPLES[name]
    tracer = bench.Tracer()
    tracer.patch_engine_layers(ssdfi)
    try:
        rows, _ = bench.run_missions(ssdfi, bench.WORKLOADS[name].inputs(0), seeds, tracer)
    finally:
        tracer.restore()
    assert [row[4] for row in rows] == [None] * len(rows)  # no mission raised
    missions = tracer.named("engine.run_simulation")
    got = {
        (str(seed), code): (bench.result_digest(result), span["judge_calls"], len(result.records))
        for (seed, code, result, _, _), span in zip(rows, missions)
    }
    stored = bench.load_expected()[name]["0"]
    want = {
        (str(seed), code): (entry["sha256"], entry["judge_calls"], entry["records"])
        for seed in seeds
        for code, entry in stored[str(seed)].items()
    }
    assert got == want


def test_grid_run_reports_replay(tmp_path):
    bench = _load_bench()
    ssdfi = bench.import_ssdfi()
    reports, _ = bench.run_grid(ssdfi, bench.WORKLOADS["grid-run"], 0, 1, tmp_path / "grid")
    assert len(reports) == 7  # six cells and the manifest
    assert bench.grid_mismatches(bench.load_expected()["grid-run"], 0, reports) == []
