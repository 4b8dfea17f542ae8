"""Command line interface."""
from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import sys
from pathlib import Path

from .codes import UPDATE_STRATEGIES, ErasureCode, encode_xor_count, erf, update_penalty
from .engine import MISSION_HOURS, run_simulation
from .geometry import ArrayGeometry
from .pool import (
    BC_GT5_SHARE,
    COND_MEDIAN_TARGETS,
    COND_TOLERANCE,
    generate_pool,
    validate_pool,
)
from .profiles import profile_by_name
from .reporting import aggregate_results, atomic_open, emit_report
from .workload import (
    SynthWorkloadParams,
    parse_usage_log,
    synthesize_usage_log,
    write_usage_log,
)

# The grid's cells, as `run_simulation` keyword arguments without the
# seed; set in each worker process by `_worker_init`.
_WORKER_CELLS: list[dict] = []


def derive_seed(master_seed: int, grid_key: str, index: int) -> int:
    """Stable per-simulation seed from the master seed and grid cell."""
    digest = hashlib.sha256(f"{master_seed}|{grid_key}|{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") & ((1 << 63) - 1)


def _worker_init(cells: list[dict]) -> None:
    _WORKER_CELLS[:] = cells


def _worker_run(job: tuple[int, int]):
    cell, seed = job
    return run_simulation(**_WORKER_CELLS[cell], seed=seed)


def _grid_key(code: ErasureCode, model: str, tts: float, ttr: float, stripe_kb: int) -> str:
    return f"{code.value}-{model}-tts{tts:g}-ttr{ttr:g}-s{stripe_kb}"


def run_experiment(
    *,
    codes: list[ErasureCode],
    models: list[str],
    tts_values: list[float],
    ttr_values: list[float],
    stripe_kbs: list[int],
    n_sims: int,
    master_seed: int,
    out_dir: Path,
    n_devices: int = 8,
    geometry_blocks: int = 131_072,
    pool_size: int = 10_000,
    pool_blocks: int = 16_384,
    pool_seed: int | None = None,
    mission: float = MISSION_HOURS,
    workers: int = 1,
    usage_log_path: Path | None = None,
    workload_seed: int = 0,
    fmt: str = "json",
) -> dict:
    """Run the full configuration grid and write one report per cell.

    Every mission of every cell is one (cell, seed) job.  With more than
    one worker, all jobs go to a single `multiprocessing.Pool` in one
    `map`, so no cell waits for the slowest mission of the cell before
    it; cells of one model share its pool, and all cells share the usage
    logs.  Results come back in job order and are aggregated per cell as
    if each cell had run alone, so the reports do not depend on the
    worker count.  Reports and `manifest.json` are written atomically.

    Raises `ValueError` for fewer than one worker or mission, for a
    mission length outside 1..`MISSION_HOURS`, and for a usage-log file
    that does not hold exactly one log per device.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if n_sims < 1:
        raise ValueError(f"n_sims must be at least 1, got {n_sims}")
    if not 1 <= mission <= MISSION_HOURS:
        raise ValueError(f"mission must be between 1 and {MISSION_HOURS} hours, got {mission:g}")
    if usage_log_path is not None:
        logs = parse_usage_log(usage_log_path)
        if len(logs) != n_devices:
            raise ValueError(
                f"{usage_log_path} holds {len(logs)} device log(s); the array has {n_devices}"
            )
    else:
        logs = [
            synthesize_usage_log(SynthWorkloadParams(), f"dev{i}", workload_seed + i)
            for i in range(n_devices)
        ]
    out_dir.mkdir(parents=True, exist_ok=True)
    cells: list[dict] = []
    keys: list[str] = []
    for model in models:
        profile = profile_by_name(model)
        pool = generate_pool(
            profile,
            pool_size=pool_size,
            blocks_per_device=pool_blocks,
            seed=pool_seed if pool_seed is not None else master_seed,
        )
        for stripe_kb in stripe_kbs:
            geometry = ArrayGeometry(
                n_devices=n_devices,
                blocks_per_device=geometry_blocks,
                stripe_size=stripe_kb * 1024,
            )
            for code in codes:
                for tts in tts_values:
                    for ttr in ttr_values:
                        keys.append(_grid_key(code, model, tts, ttr, stripe_kb))
                        cells.append({
                            "geometry": geometry,
                            "code": code,
                            "profile": profile,
                            "pool": pool,
                            "usage_logs": logs,
                            "tts": tts,
                            "ttr": ttr,
                            "mission": mission,
                        })
    jobs = [
        (cell, derive_seed(master_seed, key, i))
        for cell, key in enumerate(keys)
        for i in range(n_sims)
    ]
    if workers > 1:
        with multiprocessing.Pool(
            workers, initializer=_worker_init, initargs=(cells,)
        ) as mp_pool:
            results = mp_pool.map(_worker_run, jobs, chunksize=1)
    else:
        results = [run_simulation(**cells[cell], seed=seed) for cell, seed in jobs]

    manifest: dict = {"master_seed": master_seed, "n_sims": n_sims, "reports": {}}
    ext = "json" if fmt == "json" else "csv"
    for cell, key in enumerate(keys):
        report = aggregate_results(results[cell * n_sims : (cell + 1) * n_sims], experiment_id=key)
        path = out_dir / f"{key}.{ext}"
        emit_report(report, path, fmt=fmt)
        manifest["reports"][key] = {
            "path": path.name,
            "mean_stripes": report.mean_stripes,
            "mean_bytes": report.mean_bytes,
        }
    with atomic_open(out_dir / "manifest.json") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        manifest = run_experiment(
            codes=[ErasureCode(c.upper()) for c in args.codes],
            models=args.models,
            tts_values=args.tts,
            ttr_values=args.ttr,
            stripe_kbs=args.stripe_kb,
            n_sims=args.sims,
            master_seed=args.seed,
            out_dir=Path(args.out),
            n_devices=args.devices,
            geometry_blocks=args.blocks,
            pool_size=args.pool_size,
            pool_blocks=args.pool_blocks,
            pool_seed=args.pool_seed,
            mission=args.mission,
            workers=args.workers,
            usage_log_path=Path(args.usage_log) if args.usage_log else None,
            fmt=args.format,
        )
    except ValueError as exc:  # a rejected input: report it as a usage error
        args.parser.error(str(exc))
    print(f"wrote {len(manifest['reports'])} report(s) to {args.out}")
    return 0


def _cmd_validate_pool(args: argparse.Namespace) -> int:
    profile = profile_by_name(args.model)
    pool = generate_pool(
        profile, pool_size=args.pool_size, blocks_per_device=args.pool_blocks, seed=args.seed
    )
    report = validate_pool(pool)
    n = len(pool.drives)
    checks = [
        ("drives_with_bb", report.drives_with_bb, round(profile.pct_bad_block * n),
         report.drives_with_bb == round(profile.pct_bad_block * n)),
        ("drives_with_bc", report.drives_with_bc, round(profile.pct_bad_chip * n),
         report.drives_with_bc == round(profile.pct_bad_chip * n)),
        ("bc_gt5_ratio", report.bc_gt5_ratio, BC_GT5_SHARE,
         abs(report.bc_gt5_ratio - BC_GT5_SHARE) <= 0.01),
        ("median_bb", report.median_bb, profile.median_bb,
         report.median_bb == profile.median_bb),
        ("mean_bb", report.mean_bb, profile.mean_bb,
         abs(report.mean_bb - profile.mean_bb) <= 0.15 * profile.mean_bb),
    ]
    for k, target in COND_MEDIAN_TARGETS[profile.technology].items():
        got = report.cond_medians[k]
        checks.append(
            (f"cond_median[{k}]", got, target, abs(got - target) <= COND_TOLERANCE * target)
        )
    ok = True
    for name, got, want, passed in checks:
        ok = ok and passed
        print(f"{name}: got={got} target={want} {'ok' if passed else 'MISS'}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_cost(args: argparse.Namespace) -> int:
    code = ErasureCode(args.code.upper())
    n, r = args.devices, args.chunk_pages
    print(f"code={code.value} n={n} r={r}")
    print(f"encode_xors_per_stripe={encode_xor_count(code, n, r)}")
    print(f"erf={erf(code, n, r):.6f}")
    for strategy in UPDATE_STRATEGIES:
        pen = update_penalty(code, strategy, n, r)
        print(f"update[{strategy}]: writes={pen.writes} reads={pen.reads}")
    return 0


def _cmd_synth_log(args: argparse.Namespace) -> int:
    logs = [
        synthesize_usage_log(SynthWorkloadParams(), f"dev{i}", args.seed + i)
        for i in range(args.devices)
    ]
    write_usage_log(logs, Path(args.out))
    print(f"wrote {args.devices} device log(s) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssdfi", description="Monte Carlo fault injection for SSD arrays"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    code_names = [c.value.lower() for c in ErasureCode]

    run_p = sub.add_parser("run", help="run a simulation grid and write reports")
    run_p.add_argument("--codes", nargs="+", default=code_names, choices=code_names)
    run_p.add_argument("--models", nargs="+", default=["MLC-A"])
    run_p.add_argument("--tts", nargs="+", type=float, default=[10_000.0])
    run_p.add_argument("--ttr", nargs="+", type=float, default=[10.0])
    run_p.add_argument("--stripe-kb", nargs="+", type=int, default=[128])
    run_p.add_argument("--sims", type=int, default=1000)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--devices", type=int, default=8)
    run_p.add_argument("--blocks", type=int, default=131_072,
                       help="blocks per device in the array geometry")
    run_p.add_argument("--pool-size", type=int, default=10_000)
    run_p.add_argument("--pool-blocks", type=int, default=16_384)
    run_p.add_argument("--pool-seed", type=int, default=None)
    run_p.add_argument("--mission", type=float, default=MISSION_HOURS,
                       help=f"mission length in hours, at most {MISSION_HOURS} "
                            "(the span of the pool's fault schedules)")
    run_p.add_argument("--workers", type=int, default=1)
    run_p.add_argument("--usage-log", default=None, help="CSV of per-device usage logs")
    run_p.add_argument("--format", choices=["json", "csv"], default="json")
    run_p.add_argument("--out", default="reports")
    run_p.set_defaults(func=_cmd_run, parser=run_p)

    val_p = sub.add_parser("validate-pool", help="generate a drive pool and check calibration")
    val_p.add_argument("--model", default="MLC-A")
    val_p.add_argument("--pool-size", type=int, default=10_000)
    val_p.add_argument("--pool-blocks", type=int, default=16_384)
    val_p.add_argument("--seed", type=int, default=0)
    val_p.set_defaults(func=_cmd_validate_pool)

    cost_p = sub.add_parser("cost", help="print encoding and update cost figures")
    cost_p.add_argument("--code", default="pmds11", choices=code_names)
    cost_p.add_argument("--devices", type=int, default=8)
    cost_p.add_argument("--chunk-pages", type=int, default=4)
    cost_p.set_defaults(func=_cmd_cost)

    synth_p = sub.add_parser("synth-log", help="synthesize per-device usage logs")
    synth_p.add_argument("--devices", type=int, default=8)
    synth_p.add_argument("--seed", type=int, default=0)
    synth_p.add_argument("--out", default="usage_log.csv")
    synth_p.set_defaults(func=_cmd_synth_log)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
