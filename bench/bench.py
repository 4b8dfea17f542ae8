"""Benchmark of the ssdfi simulator: mission throughput, grid dispatch, per-layer traces.

Run from the repository root:

    python3 bench/bench.py --workload stock-mission --seed 1 --seconds 45 --trace 0

`--trace 0` prints the end-to-end metrics; `--trace 1` wraps the package's
layer boundaries, prints the per-layer metrics and writes the spans to
`.bench_out/`.  The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.  Every result is checked
against the SHA-256 digests stored in `bench/expected.json`; a mismatch makes
the command exit with status 1.  See `bench/NOTES.md` for why each workload
exists and which layer each metric belongs to.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import multiprocessing
import os
import pickle
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
EXPECTED_PATH = BENCH_DIR / "expected.json"

# name -> unit.  The JSON result carries exactly these keys.
END_TO_END = {
    "missions_per_s": "1/s",
    "mission_ms_p50": "ms",
    "mission_ms_p90": "ms",
    "grid_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "codes.judge_calls": "count",
    "codes.judge_s": "s",
    "codes.judge_hit_ratio": "ratio",
    "engine.self_s": "s",
    "engine.missions": "count",
    "engine.records": "count",
    "engine.stripes_lost": "count",
    "workload.dense_arrays_calls": "count",
    "workload.dense_arrays_s": "s",
    "pool.generate_s": "s",
    "pool.drives": "count",
    "pool.pickle_mb": "MB",
    "cli.mp_pools_created": "count",
    "cli.map_wait_s": "s",
    "cli.parallel_efficiency": "ratio",
    "reporting.aggregate_s": "s",
    "reporting.emit_s": "s",
    "reporting.report_bytes": "bytes",
    "trace_overhead_pct": "%",
}
# Per-layer metrics that are counts: two traced runs on the same inputs must
# print the same values.
DETERMINISTIC = (
    "codes.judge_calls",
    "engine.missions",
    "engine.records",
    "engine.stripes_lost",
    "workload.dense_arrays_calls",
    "pool.drives",
    "cli.mp_pools_created",
    "reporting.report_bytes",
)

STOCK_POOL_SEED = 20_240_811
STRESS_POOL_SEED = 7
GRID_MASTER_SEED = 2021
GRID_SIMS = 16
GRID_TTS = (10_000.0, 1_000.0)


class BenchError(RuntimeError):
    """The benchmark cannot run in this directory."""


def import_ssdfi():
    """Import the package from the checkout's `src/`, never from site-packages."""
    if not (SRC / "ssdfi" / "__init__.py").is_file():
        raise BenchError(f"no ssdfi sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ssdfi  # noqa: F401  (imported for its submodules)
    import ssdfi.cli
    import ssdfi.engine

    return ssdfi


# ---------------------------------------------------------------------------
# Workloads


@dataclasses.dataclass(frozen=True)
class MissionWorkload:
    """Missions called through `run_simulation`, one per (seed, code)."""

    name: str
    seeds_per_second: float  # mission seeds (x3 codes) per second of --seconds
    setup_reps: int
    log_seeds: int  # usage-log variants in the stored universe
    universe_seeds: int  # mission seeds per log variant in the stored universe

    def inputs(self, log_seed: int):
        """(profile, pool, geometry, logs, tts, ttr) as a user would build them."""
        from ssdfi.geometry import ArrayGeometry
        from ssdfi.pool import generate_pool
        from ssdfi.profiles import RberCurve, SsdModelProfile, profile_by_name
        from ssdfi.workload import SynthWorkloadParams, UsageLog, synthesize_usage_log

        if self.name == "stock-mission":
            profile = profile_by_name("MLC-A")
            pool = generate_pool(profile, 10_000, 16_384, seed=STOCK_POOL_SEED)
            logs = [
                synthesize_usage_log(SynthWorkloadParams(), f"d{i}", 8 * log_seed + i)
                for i in range(8)
            ]
            return profile, pool, ArrayGeometry(), logs, 10_000.0, 10.0
        # Criterion-8 stress profile: most drives carry bad chips and bad
        # blocks, so boundary events (scrub, bad chip, rebuild) dominate.
        profile = SsdModelProfile(
            name="stress",
            technology="MLC",
            pct_bad_chip=0.8,
            pct_bad_block=0.6,
            median_bb=1,
            mean_bb=2.0,
            factory_bb_mean=0.0,
            factory_bb_std=0.0,
            wol=10**8,
            bb_escalation_threshold=1,
            bb_escalation_factor=1.0,
            rber_curve=RberCurve(points=((0.0, 1e-8), (1e9, 1e-8))),
        )
        pool = generate_pool(profile, 2_000, 2_048, seed=STRESS_POOL_SEED)
        hours = 168
        log = UsageLog(
            device_id="flat",
            hours=tuple(range(hours)),
            bits_read=(1e6,) * hours,
            bits_written=(1e6,) * hours,
            pe_cycles=(0.0,) * hours,
        )
        return profile, pool, ArrayGeometry(blocks_per_device=512), [log], 100.0, 100.0


@dataclasses.dataclass(frozen=True)
class GridWorkload:
    """One `run_experiment` grid on MLC-B, run at 1 worker and at `nproc` workers."""

    name: str
    setup_reps: int

    def grid_kwargs(self, workload_seed: int) -> dict:
        from ssdfi.codes import ErasureCode

        return dict(
            codes=list(ErasureCode),
            models=["MLC-B"],
            tts_values=list(GRID_TTS),
            ttr_values=[10.0],
            stripe_kbs=[128],
            n_sims=GRID_SIMS,
            master_seed=GRID_MASTER_SEED,
            geometry_blocks=16_384,
            pool_size=10_000,
            pool_blocks=16_384,
            workload_seed=workload_seed,
        )

    def inputs(self, workload_seed: int):
        """The pool and logs `run_experiment` builds for this grid."""
        from ssdfi.pool import generate_pool
        from ssdfi.profiles import profile_by_name
        from ssdfi.workload import SynthWorkloadParams, synthesize_usage_log

        pool = generate_pool(profile_by_name("MLC-B"), 10_000, 16_384, seed=GRID_MASTER_SEED)
        logs = [
            synthesize_usage_log(SynthWorkloadParams(), f"dev{i}", workload_seed + i)
            for i in range(8)
        ]
        return pool, logs


# Stock missions are heavy tailed (a drive with thousands of bad blocks costs
# up to 20x the median), so every run replays the same 80 drive draws and
# --seed picks one of 12 usage-log variants.  Stress missions cost about the
# same each, so --seed samples them by cost stratum from 400 drive draws.
# stress-maintenance is runnable but not listed in BENCHMARK.json: its runs
# were too noisy on the baseline host for the run length the budget allows.
WORKLOADS = {
    "stock-mission": MissionWorkload(
        "stock-mission", seeds_per_second=1.78, setup_reps=3, log_seeds=12, universe_seeds=80
    ),
    "stress-maintenance": MissionWorkload(
        "stress-maintenance", seeds_per_second=3.5, setup_reps=5, log_seeds=1, universe_seeds=400
    ),
    "grid-run": GridWorkload("grid-run", setup_reps=3),
}


# ---------------------------------------------------------------------------
# Output check


def result_digest(result) -> str:
    """SHA-256 of a `SimResult` serialized canonically (records in order)."""
    payload = json.dumps(dataclasses.asdict(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def load_expected() -> dict:
    with EXPECTED_PATH.open() as fh:
        return json.load(fh)


def mission_mismatch(expected: dict, seed: int, code: str, result) -> str | None:
    """Why a mission result differs from the stored digest, or None."""
    entry = expected.get(str(seed), {}).get(code)
    if entry is None:
        return f"no stored digest for seed {seed} {code}"
    if result_digest(result) != entry["sha256"]:
        return f"digest mismatch for seed {seed} {code}"
    return None


def stratified_seeds(universe: dict, n: int, rng: random.Random) -> list[int]:
    """One mission seed from each of `n` cost strata of the stored universe.

    The universe's seeds are sorted by their stored judge-call count (summed
    over codes) and cut into `n` contiguous strata, so every sample carries
    the same mix of cheap, typical and tail missions.
    """
    cost = {int(s): sum(e["judge_calls"] for e in codes.values()) for s, codes in universe.items()}
    ordered = sorted(cost, key=lambda s: (cost[s], s))
    n = max(1, min(n, len(ordered)))
    bounds = [round(k * len(ordered) / n) for k in range(n + 1)]
    return [rng.choice(ordered[a:b]) for a, b in zip(bounds, bounds[1:])]


def grid_mismatches(expected: dict, workload_seed: int, reports: dict[str, bytes]) -> list[str]:
    cells = expected.get(str(workload_seed), {}).get("cells", {})
    out = []
    for key, digest in cells.items():
        data = reports.get(f"{key}.json")
        if data is None:
            out.append(f"missing report {key}")
        elif hashlib.sha256(data).hexdigest() != digest:
            out.append(f"report digest mismatch for {key}")
    if not cells:
        out.append(f"no stored digests for workload seed {workload_seed}")
    return out


def count_mismatches(counts: dict, stored: list[dict]) -> list[str]:
    """Compare a traced pass's counts with the sums the table's traced run stored."""
    out = []
    for metric, key in (("codes.judge_calls", "judge_calls"), ("engine.records", "records")):
        want = sum(entry[key] for entry in stored)
        if counts[metric] != want:
            out.append(f"{metric} {counts[metric]} != stored {want}")
    return out


# ---------------------------------------------------------------------------
# Tracing


class Tracer:
    """Spans recorded around the package's layer boundaries, kept in memory.

    Judge calls are too many to keep one span each (up to ~470k per
    mission), so each mission span carries their count, hits and busy time.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.mission: str | None = None
        self.judge = [0, 0, 0.0]  # calls, uncorrectable verdicts, seconds

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "mission": self.mission,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def mission_span(self, mission_id: str):
        self.mission = mission_id
        before = list(self.judge)
        try:
            with self.span("engine.run_simulation", records=0, stripes_lost=0) as rec:
                yield rec
        finally:
            rec["judge_calls"] = self.judge[0] - before[0]
            rec["judge_hits"] = self.judge[1] - before[1]
            rec["judge_s"] = self.judge[2] - before[2]
            self.mission = None

    def patch(self, module, name: str, make_wrapper) -> None:
        original = getattr(module, name)
        self._patches.append((module, name, original))
        setattr(module, name, make_wrapper(original))

    def restore(self) -> None:
        while self._patches:
            module, name, original = self._patches.pop()
            setattr(module, name, original)

    def spanned(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)

            return wrapper

        return make

    def patch_engine_layers(self, ssdfi) -> None:
        """Wrap the codes and workload calls the engine makes, as it sees them."""

        def make_judge(fn):
            judge = self.judge
            clock = time.perf_counter

            def uncorrectable(code, faulty, multi):
                t0 = clock()
                verdict = fn(code, faulty, multi)
                judge[2] += clock() - t0
                judge[0] += 1
                if verdict:
                    judge[1] += 1
                return verdict

            return uncorrectable

        self.patch(ssdfi.engine, "uncorrectable", make_judge)
        self.patch(ssdfi.engine, "dense_arrays", self.spanned("workload.dense_arrays"))

    def patch_cli_layers(self, ssdfi, *, engine: bool) -> None:
        """Wrap what `run_experiment` calls, as seen from `ssdfi.cli`."""
        tracer = self
        self.patch(ssdfi.cli, "generate_pool", self.spanned("pool.generate_pool"))
        self.patch(ssdfi.cli, "aggregate_results", self.spanned("reporting.aggregate_results"))

        def make_emit(fn):
            def emit_report(report, path, fmt="json"):
                with tracer.span("reporting.emit_report") as rec:
                    fn(report, path, fmt=fmt)
                rec["bytes"] = Path(path).stat().st_size

            return emit_report

        self.patch(ssdfi.cli, "emit_report", make_emit)

        def make_pool(cls):
            def Pool(*args, **kwargs):
                with tracer.span("cli.mp_pool_created"):
                    mp_pool = cls(*args, **kwargs)
                inner_map = mp_pool.map

                def timed_map(*a, **k):
                    with tracer.span("cli.map"):
                        return inner_map(*a, **k)

                mp_pool.map = timed_map
                return mp_pool

            return Pool

        self.patch(ssdfi.cli.multiprocessing, "Pool", make_pool)
        if engine:
            self.patch_engine_layers(ssdfi)

            def make_run(fn):
                def run_simulation(**kwargs):
                    with tracer.mission_span(f"{kwargs['code'].value}:{kwargs['seed']}") as rec:
                        result = fn(**kwargs)
                    rec["records"] = len(result.records)
                    rec["stripes_lost"] = result.stripes_lost
                    return result

                return run_simulation

            self.patch(ssdfi.cli, "run_simulation", make_run)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name))


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """(counts, timings) of the traced pass."""
    missions = tracer.named("engine.run_simulation")
    calls = sum(m["judge_calls"] for m in missions)
    hits = sum(m["judge_hits"] for m in missions)
    judge_s = sum(m["judge_s"] for m in missions)
    mission_ids = {m["id"] for m in missions}
    dense = tracer.named("workload.dense_arrays")
    dense_in_missions = sum(s["end"] - s["start"] for s in dense if s["parent"] in mission_ids)
    engine_self = tracer.total("engine.run_simulation") - dense_in_missions - judge_s
    generate = [s["end"] - s["start"] for s in tracer.named("pool.generate_pool")]
    counts = {
        "codes.judge_calls": calls,
        "engine.missions": len(missions),
        "engine.records": sum(m["records"] for m in missions),
        "engine.stripes_lost": sum(m["stripes_lost"] for m in missions),
        "workload.dense_arrays_calls": len(dense),
        "cli.mp_pools_created": len(tracer.named("cli.mp_pool_created")),
        "reporting.report_bytes": sum(s["bytes"] for s in tracer.named("reporting.emit_report")),
    }
    timings = {
        "codes.judge_s": judge_s,
        "codes.judge_hit_ratio": hits / calls if calls else 0.0,
        "engine.self_s": engine_self,
        "workload.dense_arrays_s": tracer.total("workload.dense_arrays"),
        "pool.generate_s": statistics.median(generate) if generate else 0.0,
        "cli.map_wait_s": tracer.total("cli.map"),
        "reporting.aggregate_s": tracer.total("reporting.aggregate_results"),
        "reporting.emit_s": tracer.total("reporting.emit_report"),
    }
    return counts, timings


# ---------------------------------------------------------------------------
# Runs


def environment() -> dict:
    try:
        # The ceiling keeps git from finding a repository above the checkout.
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "ssdfi").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src_digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            src_digest.update(path.read_bytes())
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": src_digest.hexdigest(),
        "mp_start_method": multiprocessing.get_start_method(),
        "machine": platform.machine(),
    }


def peak_rss_mb(children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def timed_setup(build, reps: int, tracer: Tracer | None):
    """Build the inputs `reps` times; return the last inputs and the median time."""
    times = []
    inputs = None
    for _ in range(reps):
        inputs = None  # release the previous copy before building the next
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer.span("pool.generate_pool"):
                inputs = build()
        else:
            inputs = build()
        times.append(time.perf_counter() - t0)
    return inputs, statistics.median(times)


def run_missions(ssdfi, inputs, seeds, tracer: Tracer | None):
    """Run every (seed, code) mission; return (rows, wall seconds).

    Each row is (seed, code, result or None, host seconds, error or None).
    """
    from ssdfi.codes import ErasureCode

    profile, pool, geometry, logs, tts, ttr = inputs
    run_simulation = ssdfi.engine.run_simulation
    rows = []
    clock = time.perf_counter
    t_start = clock()
    for seed in seeds:
        for code in ErasureCode:
            t0 = clock()
            try:
                if tracer is None:
                    result = run_simulation(geometry, code, profile, pool, logs, tts, ttr, seed=seed)
                else:
                    with tracer.mission_span(f"{code.value}:{seed}") as rec:
                        result = run_simulation(
                            geometry, code, profile, pool, logs, tts, ttr, seed=seed
                        )
                    rec["records"] = len(result.records)
                    rec["stripes_lost"] = result.stripes_lost
                error = None
            except Exception as exc:  # a failed mission counts against the run
                result, error = None, f"{type(exc).__name__}: {exc}"
            rows.append((seed, code.value, result, clock() - t0, error))
    return rows, clock() - t_start


def run_grid(ssdfi, workload: GridWorkload, workload_seed: int, workers: int, out_dir: Path):
    """One `run_experiment` call; return (report bytes by file name, wall seconds)."""
    t0 = time.perf_counter()
    ssdfi.cli.run_experiment(out_dir=out_dir, workers=workers, **workload.grid_kwargs(workload_seed))
    wall = time.perf_counter() - t0
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}, wall


def grid_missions(ssdfi, inputs, rng: random.Random, out_dir: Path):
    """Run the grid's missions directly, in shuffled order, and build its reports.

    This is what `run_experiment(workers=1)` computes, with the missions
    interleaved across cells so that each percentile samples the whole pass.
    Returns (host seconds per mission, report bytes by file name).
    """
    from ssdfi.codes import ErasureCode
    from ssdfi.geometry import ArrayGeometry
    from ssdfi.profiles import profile_by_name
    from ssdfi.reporting import aggregate_results, emit_report

    pool, logs = inputs
    profile = profile_by_name("MLC-B")
    geometry = ArrayGeometry(blocks_per_device=16_384, stripe_size=128 * 1024)
    jobs = []
    for code in ErasureCode:
        for tts in GRID_TTS:
            key = f"{code.value}-MLC-B-tts{tts:g}-ttr10-s128"  # run_experiment's cell key
            jobs += [(key, code, tts, ssdfi.cli.derive_seed(GRID_MASTER_SEED, key, i))
                     for i in range(GRID_SIMS)]
    rng.shuffle(jobs)
    times, results = [], {}
    for key, code, tts, seed in jobs:
        t0 = time.perf_counter()
        result = ssdfi.engine.run_simulation(
            geometry, code, profile, pool, logs, tts, 10.0, seed=seed
        )
        times.append(time.perf_counter() - t0)
        results.setdefault(key, []).append(result)
    out_dir.mkdir(parents=True)
    for key, cell in results.items():
        emit_report(aggregate_results(cell, experiment_id=key), out_dir / f"{key}.json")
    return times, {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def quantile_ms(times: list[float]) -> tuple[float, float]:
    ms = sorted(1000.0 * t for t in times)
    if len(ms) == 1:
        return ms[0], ms[0]
    return statistics.median(ms), statistics.quantiles(ms, n=10, method="inclusive")[8]


def mission_pass(ssdfi, inputs, seeds, expected, tracer=None):
    rows, wall = run_missions(ssdfi, inputs, seeds, tracer)
    problems = []
    for seed, code, result, _, error in rows:
        why = error or mission_mismatch(expected, seed, code, result)
        if why:
            problems.append(why)
    return rows, wall, problems


def bench_missions(ssdfi, workload: MissionWorkload, args, expected: dict, tracer: Tracer | None):
    rng = random.Random(args.seed)
    log_seed = rng.choice(sorted(int(k) for k in expected[workload.name]))
    universe = expected[workload.name][str(log_seed)]
    n_seeds = max(4, round(args.seconds * workload.seeds_per_second))
    seeds = stratified_seeds(universe, n_seeds, rng)
    # Run cheap and costly missions interleaved, so that each percentile
    # samples the host's speed over the whole run rather than one stretch.
    rng.shuffle(seeds)
    inputs, setup_s = timed_setup(
        lambda: workload.inputs(log_seed), workload.setup_reps, tracer
    )
    pool = inputs[1]
    info = {"log_seed": log_seed, "mission_seeds": len(seeds), "missions": 3 * len(seeds),
            "setup_reps": workload.setup_reps}

    if tracer is None:
        rows, wall, problems = mission_pass(ssdfi, inputs, seeds, universe)
        ok_times = [t for _, _, result, t, _ in rows if result is not None]
        p50, p90 = quantile_ms(ok_times) if ok_times else (0.0, 0.0)
        metrics = {
            "missions_per_s": len(ok_times) / wall,
            "mission_ms_p50": p50,
            "mission_ms_p90": p90,
            "grid_wall_s": wall,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(children=False),
        }
        info["samples"] = len(ok_times)
        return metrics, len(rows), problems, info

    # Traced: an untraced pass as the overhead reference, then a traced pass
    # whose counts must equal those the table's own traced run stored.
    _, untraced_wall, problems = mission_pass(ssdfi, inputs, seeds, universe)
    tracer.patch_engine_layers(ssdfi)
    try:
        rows, traced_wall, more = mission_pass(ssdfi, inputs, seeds, universe, tracer)
    finally:
        tracer.restore()
    problems += more
    counts, timings = layer_metrics(tracer)
    stored = [universe[str(seed)][code] for seed, code, *_ in rows]
    problems += count_mismatches(counts, stored)
    counts["pool.drives"] = len(pool.drives)
    timings["pool.pickle_mb"] = len(pickle.dumps(pool, protocol=pickle.HIGHEST_PROTOCOL)) / 1e6
    timings["cli.parallel_efficiency"] = 0.0
    timings["trace_overhead_pct"] = 100.0 * (traced_wall - untraced_wall) / untraced_wall
    info.update(untraced_wall_s=untraced_wall, traced_wall_s=traced_wall)
    return {**counts, **timings}, 2 * len(rows), problems, info


def bench_grid(ssdfi, workload: GridWorkload, args, expected: dict, tracer: Tracer | None):
    universe = expected[workload.name]
    workload_seed = random.Random(args.seed).choice(sorted(int(s) for s in universe))
    workers = min(2, os.cpu_count() or 1)
    inputs, setup_s = timed_setup(lambda: workload.inputs(workload_seed), workload.setup_reps, tracer)
    pool_mb = 0.0
    n_drives = len(inputs[0].drives)
    if tracer is not None:
        pool_mb = len(pickle.dumps(inputs[0], protocol=pickle.HIGHEST_PROTOCOL)) / 1e6
    info = {"workload_seed": workload_seed, "workers": workers, "sims_per_cell": GRID_SIMS}

    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="grid-", dir=OUT_DIR))
    try:
        def grid_pass(tag: str, n_workers: int, pass_tracer: Tracer | None, engine: bool):
            out = scratch / tag
            if pass_tracer is not None:
                pass_tracer.patch_cli_layers(ssdfi, engine=engine)
            try:
                return run_grid(ssdfi, workload, workload_seed, n_workers, out)
            finally:
                if pass_tracer is not None:
                    pass_tracer.restore()

        def checked_pair(pass_tracer: Tracer | None):
            """run_experiment at 1 worker, then at `workers` workers."""
            one, wall_1 = grid_pass("w1", 1, pass_tracer, engine=True)
            many, wall_n = grid_pass("wn", workers, pass_tracer, engine=False)
            problems = []
            for tag, reports in (("1-worker", one), (f"{workers}-worker", many)):
                problems += [f"{tag}: {p}" for p in grid_mismatches(universe, workload_seed, reports)]
            if one != many:
                problems.append("report bytes differ between 1 and %d workers" % workers)
            cells = 2 * (len(one) - 1)  # manifest.json is not a cell
            for sub in ("w1", "wn"):
                shutil.rmtree(scratch / sub, ignore_errors=True)
            return wall_1, wall_n, cells, problems

        if tracer is None:
            # The 1-worker reports come from the direct pass; the stored
            # digests come from run_experiment(workers=1).
            rng = random.Random(args.seed)
            times, one = grid_missions(ssdfi, inputs, rng, scratch / "direct")
            inputs = None
            many, wall_n = run_grid(ssdfi, workload, workload_seed, workers, scratch / "wn")
            problems = [f"1-worker: {p}" for p in grid_mismatches(universe, workload_seed, one)]
            problems += [f"{workers}-worker: {p}"
                         for p in grid_mismatches(universe, workload_seed, many)]
            if one != {k: v for k, v in many.items() if k != "manifest.json"}:
                problems.append("report bytes differ between 1 and %d workers" % workers)
            cells = len(one) + len(many) - 1  # manifest.json is not a cell
            p50, p90 = quantile_ms(times)
            n_missions = len(times)
            metrics = {
                "missions_per_s": n_missions / wall_n,
                "mission_ms_p50": p50,
                "mission_ms_p90": p90,
                "grid_wall_s": wall_n,
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb(children=True),
            }
            info.update(samples=n_missions, wall_n_workers_s=wall_n)
            return metrics, cells, problems, info

        inputs = None
        wall_1, wall_n, cells, problems = checked_pair(None)
        traced_1, traced_n, more_cells, more = checked_pair(tracer)
        counts, timings = layer_metrics(tracer)
        problems += more + count_mismatches(counts, [universe[str(workload_seed)]])
        counts["pool.drives"] = n_drives
        timings["pool.pickle_mb"] = pool_mb
        timings["cli.parallel_efficiency"] = wall_1 / (workers * wall_n)
        untraced, traced = wall_1 + wall_n, traced_1 + traced_n
        timings["trace_overhead_pct"] = 100.0 * (traced - untraced) / untraced
        info.update(untraced_wall_s=untraced, traced_wall_s=traced)
        return {**counts, **timings}, cells + more_cells, problems, info
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def write_trace(tracer: Tracer, path: Path, header: dict, counts: dict, timings: dict) -> None:
    path.parent.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with tmp.open("w") as fh:
        fh.write(json.dumps({"kind": "header", **header}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps({"kind": "span", **span}) + "\n")
        fh.write(json.dumps({"kind": "summary", "counts": counts, "timings": timings}) + "\n")
    os.replace(tmp, path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        ssdfi = import_ssdfi()
        expected = load_expected()
    except (BenchError, ImportError, OSError, ValueError) as exc:
        print(f"bench: cannot start: {exc}", file=sys.stderr)
        return 2

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    if expected.get("engine_version") != ssdfi.engine.ENGINE_VERSION:
        print("bench: stored digests were made with engine_version "
              f"{expected.get('engine_version')}; regenerate bench/expected.json", file=sys.stderr)
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    runner = bench_grid if isinstance(workload, GridWorkload) else bench_missions
    metrics, attempted, problems, info = runner(ssdfi, workload, args, expected, tracer)
    failed = min(len(problems), attempted)

    units = PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(units):
        raise AssertionError(f"metric names {sorted(metrics)} != {sorted(units)}")
    print("run " + json.dumps({"workload": workload.name, "seed": args.seed,
                               "seconds": args.seconds, "trace": args.trace, **info},
                              sort_keys=True))
    if args.trace:
        counts = {k: metrics[k] for k in DETERMINISTIC}
        timings = {k: v for k, v in metrics.items() if k not in DETERMINISTIC}
        print("counts " + json.dumps(counts, sort_keys=True))
        print("timings " + json.dumps(timings, sort_keys=True))
        print("note: pool.pickle_mb is computed as len(pickle.dumps(pool)), not measured")
        trace_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl"
        write_trace(tracer, trace_path, {"env": env, "run": vars(args)}, counts, timings)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(f"failed_fraction = {failed}/{attempted} = {failed / attempted:.6g}")
    for problem in problems[:20]:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
