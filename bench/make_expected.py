"""Regenerate `bench/expected.json`, the stored digests the benchmark checks against.

Run from the repository root only when a change is meant to alter simulation
output (and bumps `ENGINE_VERSION` or `SCHEMA_VERSION`):

    python3 bench/make_expected.py

For each mission workload it runs every seed of the universe under all three
codes and stores the SHA-256 of the canonical `SimResult`, its judge-call
count and its record count.  For `grid-run` it runs the 1-worker grid once per
workload seed of the universe and stores each report's SHA-256 and the
grid's judge-call and record counts.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path

import bench

GRID_UNIVERSE = 16


def mission_table(ssdfi, workload: bench.MissionWorkload) -> dict:
    table: dict = {}
    for log_seed in range(workload.log_seeds):
        inputs = workload.inputs(log_seed)
        tracer = bench.Tracer()
        tracer.patch_engine_layers(ssdfi)
        try:
            rows, _ = bench.run_missions(ssdfi, inputs, range(workload.universe_seeds), tracer)
        finally:
            tracer.restore()
        missions = tracer.named("engine.run_simulation")
        variant = table.setdefault(str(log_seed), {})
        for (seed, code, result, _, error), span in zip(rows, missions):
            if error:
                raise RuntimeError(f"{workload.name} seed {seed} {code}: {error}")
            variant.setdefault(str(seed), {})[code] = {
                "sha256": bench.result_digest(result),
                "judge_calls": span["judge_calls"],
                "records": len(result.records),
            }
        print(f"{workload.name} log seed {log_seed} done", flush=True)
    return table


def grid_table(ssdfi, workload: bench.GridWorkload, size: int) -> dict:
    table = {}
    bench.OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="expected-", dir=bench.OUT_DIR))
    try:
        for workload_seed in range(size):
            tracer = bench.Tracer()
            tracer.patch_cli_layers(ssdfi, engine=True)
            out = scratch / str(workload_seed)
            try:
                reports, _ = bench.run_grid(ssdfi, workload, workload_seed, 1, out)
            finally:
                tracer.restore()
            counts, _ = bench.layer_metrics(tracer)
            table[str(workload_seed)] = {
                "cells": {
                    name[: -len(".json")]: hashlib.sha256(data).hexdigest()
                    for name, data in reports.items()
                    if name != "manifest.json"
                },
                "judge_calls": counts["codes.judge_calls"],
                "records": counts["engine.records"],
            }
            print(f"grid-run workload seed {workload_seed} done", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid-universe", type=int, default=GRID_UNIVERSE)
    parser.add_argument("--workloads", nargs="+", default=sorted(bench.WORKLOADS),
                        choices=sorted(bench.WORKLOADS))
    args = parser.parse_args()
    ssdfi = bench.import_ssdfi()
    expected = {}
    if bench.EXPECTED_PATH.exists():
        expected = bench.load_expected()
    expected["engine_version"] = ssdfi.engine.ENGINE_VERSION
    for name in args.workloads:
        workload = bench.WORKLOADS[name]
        if isinstance(workload, bench.GridWorkload):
            expected[name] = grid_table(ssdfi, workload, args.grid_universe)
        else:
            expected[name] = mission_table(ssdfi, workload)
        print(f"{name} done", flush=True)
    tmp = bench.EXPECTED_PATH.with_suffix(".tmp")
    with tmp.open("w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, bench.EXPECTED_PATH)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
