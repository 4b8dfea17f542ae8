"""Repeat the benchmark over several seeds and summarize each metric's spread.

Run from the repository root, for example:

    python3 bench/measure.py --workloads stock-mission grid-run --seeds 1 2 3 4 5
    python3 bench/measure.py --seeds 1 2 3 4 5 6 7 8 9 10 --out bench/baseline.json

Each run is the command from BENCHMARK.json with that file's `run_seconds`.
For every end-to-end metric it prints the median, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the quartile distance as
a share of the median next to the metric's bound.  A spread under a third of
the bound is marked steady; `setup_s` is exempt from the spread rule.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(result line, env line) of one benchmark run."""
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output\n{proc.stderr}")
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), {})
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        print("\n".join(lines[-25:]), file=sys.stderr)
    return result, env


def summarize(values: list[float], bound: float | None) -> dict:
    out = {"values": values, "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"] if out["median"] else 0.0)
        if bound is not None:
            out.update(bound=bound, steady=out["spread"] < bound / 3)
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report: dict = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result, env = run_once(spec, workload, seed, args.trace)
            report["env"] = env
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = summarize(values, bounds.get(name) if not args.trace else None)
            metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
            m = metrics[name]
            line = f"  {name:28s} median {m['median']:.6g} {m['unit']}"
            if "spread" in m:
                line += f"  q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {m['spread']:.4f}"
            if "bound" in m:
                line += f" (bound {m['bound']}, {'steady' if m['steady'] else 'NOT steady'})"
            print(line, flush=True)
        report["workloads"][workload] = {
            "seeds": args.seeds,
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": metrics,
        }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if all(w["correct"] for w in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
