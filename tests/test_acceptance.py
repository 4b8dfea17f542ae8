"""Acceptance gate: one pass/fail line per criterion.

Shared heavy artifacts (calibrated pools, simulation sweeps) are module
scoped fixtures so each criterion stays independent while the suite
stays fast.  All simulations share fault timelines per seed across
codes, scrub intervals and stripe sizes, so sweep comparisons use
common random numbers.
"""
import itertools
import math
import statistics
import time

import numpy as np
import pytest

from ssdfi.cli import run_experiment
from ssdfi.codes import (
    ErasureCode,
    encode_xor_count,
    erf,
    stripe_counts,
    uncorrectable,
    update_penalty,
)
from ssdfi.engine import EventKind, _Draw, _Simulation, run_simulation
from ssdfi.geometry import ArrayGeometry
from ssdfi.pool import COND_MEDIAN_TARGETS, PooledSsd, SsdPool, generate_pool, validate_pool
from ssdfi.profiles import MISSION_HOURS, RberCurve, SsdModelProfile, default_profiles
from ssdfi.reporting import aggregate_results
from ssdfi.workload import SynthWorkloadParams, UsageLog, synthesize_usage_log
from stripe_oracle import (
    ChunkFault,
    StripeFaultState,
    brute_force_correctable,
    check_stripe_dl,
    chunk_sets,
)
from test_engine import scheduled

R5, R6, PMDS = ErasureCode.RAID5, ErasureCode.RAID6, ErasureCode.PMDS11

POOL_SIZE = 10_000
POOL_BLOCKS = 16_384
POOL_SEED = 20_240_811

# Field statistics targets at a pool of 10,000 drives.
TARGET_BB_DRIVES = {
    "MLC-A": 3100, "MLC-B": 7930, "MLC-C": 3070,
    "MLC-D": 3240, "SLC-A": 3900, "SLC-B": 6460,
}
TARGET_BC_DRIVES = {
    "MLC-A": 560, "MLC-B": 650, "MLC-C": 660,
    "MLC-D": 420, "SLC-A": 380, "SLC-B": 230,
}
TARGET_MEDIAN_BB = {
    "MLC-A": 2, "MLC-B": 3, "MLC-C": 2, "MLC-D": 3, "SLC-A": 2, "SLC-B": 2,
}
TARGET_MEAN_BB = {
    "MLC-A": 772, "MLC-B": 578, "MLC-C": 555,
    "MLC-D": 312, "SLC-A": 584, "SLC-B": 570,
}


def announce(capfd, criterion, ok, detail=""):
    line = f"criterion {criterion:>2}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# Shared artifacts


@pytest.fixture(scope="module")
def pools():
    """Calibrated pools for all six models, with build times."""
    out = {}
    for profile in default_profiles():
        t0 = time.perf_counter()
        pool = generate_pool(profile, POOL_SIZE, POOL_BLOCKS, seed=POOL_SEED)
        out[profile.name] = (pool, time.perf_counter() - t0)
    return out


def flat_curve(rber):
    return RberCurve(points=((0.0, rber), (1e9, rber)))


def flat_log(bits_per_hour, hours=168):
    half = bits_per_hour / 2.0
    return UsageLog(
        device_id="flat",
        hours=tuple(range(hours)),
        bits_read=(half,) * hours,
        bits_written=(half,) * hours,
        pe_cycles=(0.0,) * hours,
    )


def stress_profile(**overrides):
    kwargs = dict(
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
        rber_curve=flat_curve(1e-8),
    )
    kwargs.update(overrides)
    return SsdModelProfile(**kwargs)


@pytest.fixture(scope="module")
def field_sweep(pools):
    """MLC-A field statistics, three codes, 200 shared seeds.

    Seed-major: the second and third codes of a seed replay its schedule.
    """
    profile = next(p for p in default_profiles() if p.name == "MLC-A")
    pool, _ = pools["MLC-A"]
    geometry = ArrayGeometry(blocks_per_device=65_536)
    logs = [synthesize_usage_log(SynthWorkloadParams(), f"d{i}", i) for i in range(8)]
    results = {R5: [], R6: [], PMDS: []}
    for seed in range(200):
        for code, cell in results.items():
            cell.append(
                run_simulation(
                    geometry=geometry, code=code, profile=profile, pool=pool,
                    usage_logs=logs, tts=10_000.0, ttr=5.0, seed=seed,
                )
            )
    return results


@pytest.fixture(scope="module")
def maintenance_sweep():
    """Scrub/rebuild sweep on a stressed synthetic profile.

    High bad chip and bad block incidence on a small array makes every
    loss mechanism visible at 100 seeds per cell.
    """
    profile = stress_profile()
    pool = generate_pool(profile, 2_000, 2_048, seed=7)
    geometry = ArrayGeometry(blocks_per_device=512)
    logs = [flat_log(2e6)]
    grid = {}
    for tts, ttr in itertools.product((100.0, 1000.0, 10_000.0), (10.0, 100.0)):
        lost = {R5: [], R6: []}
        for seed in range(100):  # seed-major: RAID6 replays RAID5's schedule
            for code, cell in lost.items():
                cell.append(
                    run_simulation(
                        geometry=geometry, code=code, profile=profile, pool=pool,
                        usage_logs=logs, tts=tts, ttr=ttr, seed=seed,
                    ).stripes_lost
                )
        for code, cell in lost.items():
            grid[(code, tts, ttr)] = statistics.fmean(cell)
    return grid


@pytest.fixture(scope="module")
def stripe_sweep():
    """Stripe size sweep with long rebuilds so whole-extent losses dominate."""
    profile = stress_profile(pct_bad_chip=0.3, pct_bad_block=0.2)
    pool = generate_pool(profile, 2_000, 2_048, seed=9)
    logs = [flat_log(1e6)]
    grid = {}
    for kb in (128, 64, 32):
        geometry = ArrayGeometry(blocks_per_device=4_096, stripe_size=kb * 1024)
        sims = {R5: [], R6: [], PMDS: []}
        for seed in range(100):  # seed-major: later codes replay the first's schedule
            for code, cell in sims.items():
                cell.append(
                    run_simulation(
                        geometry=geometry, code=code, profile=profile, pool=pool,
                        usage_logs=logs, tts=10_000.0, ttr=3_000.0, seed=seed,
                    )
                )
        for code, cell in sims.items():
            grid[(code, kb)] = (
                statistics.fmean(r.stripes_lost for r in cell),
                statistics.fmean(r.bytes_lost for r in cell),
            )
    return grid


# ---------------------------------------------------------------------------
# Criteria 1-3: pool calibration


def test_criterion_01_pool_exact(pools, capfd):
    ok = True
    details = []
    for name, (pool, elapsed) in pools.items():
        report = validate_pool(pool)
        ok &= report.drives_with_bb == TARGET_BB_DRIVES[name]
        ok &= report.drives_with_bc == TARGET_BC_DRIVES[name]
        ok &= report.median_bb == TARGET_MEDIAN_BB[name]
        ok &= abs(report.bc_gt5_ratio - 0.67) <= 0.01
        ok &= elapsed < 10.0
        details.append(f"{name} {elapsed:.1f}s")
    announce(capfd, 1, ok, "exact quotas/medians/ratio; " + ", ".join(details))


def test_criterion_02_pool_means(pools, capfd):
    ok = True
    details = []
    for name, (pool, _) in pools.items():
        mean = validate_pool(pool).mean_bb
        target = TARGET_MEAN_BB[name]
        err = abs(mean - target) / target
        ok &= err <= 0.15
        details.append(f"{name} {err:.1%}")
    announce(capfd, 2, ok, "mean errors: " + ", ".join(details))


def test_criterion_03_conditional_medians(pools, capfd):
    ok = True
    worst = 0.0
    for name, (pool, _) in pools.items():
        tech = name.split("-")[0]
        report = validate_pool(pool)
        for k, target in COND_MEDIAN_TARGETS[tech].items():
            err = abs(report.cond_medians[k] - target) / target
            worst = max(worst, err)
            ok &= err <= 0.10
    announce(capfd, 3, ok, f"worst conditional median error {worst:.1%}")


# ---------------------------------------------------------------------------
# Criterion 4: the eight single-array fault scenarios

FAILED = ChunkFault(device_failed=True)
BLOCK = ChunkFault(bad_block=True)


def _syms(*idx):
    return ChunkFault(bad_symbols=frozenset(idx))


def _state(chunks):
    return StripeFaultState(n_devices=8, chunk_pages=4, chunks=chunks)


def _package_dl(code, state):
    """The package's judge of a stripe state; `check_stripe_dl` is the oracles' frozen copy."""
    faulty, multi, _, _ = stripe_counts(*chunk_sets(state))
    return uncorrectable(code, faulty, multi)


# Each entry: stripes in the scenario and the expected per-code
# uncorrectable flags (RAID5, RAID6, PMDS11); a multi-stripe scenario is
# uncorrectable when any of its stripes is.
SCENARIOS = {
    1: ([{0: FAILED, 1: FAILED}], (True, False, True)),
    2: ([{0: FAILED, 3: _syms(1)}], (True, False, False)),
    3: ([{0: FAILED, 3: BLOCK}], (True, False, True)),
    4: ([{0: FAILED, 3: BLOCK, 5: _syms(2)}], (True, True, True)),
    5: ([{0: FAILED, 3: _syms(1), 5: _syms(2)}], (True, True, True)),
    6: ([{0: FAILED, 3: _syms(1)}, {0: FAILED, 5: _syms(2)}], (True, False, False)),
    7: ([{1: _syms(0), 3: _syms(1), 5: _syms(2)}], (True, True, True)),
    8: ([{3: _syms(1), 5: _syms(2)}], (True, False, False)),
}


def test_criterion_04_scenario_fidelity(capfd):
    ok = True
    for num, (stripes, expected) in SCENARIOS.items():
        for code, want in zip((R5, R6, PMDS), expected):
            for judge in (check_stripe_dl, _package_dl):
                ok &= any(judge(code, _state(c)) for c in stripes) == want
    announce(capfd, 4, ok, "8 scenarios x 3 codes, zero tolerance")


# ---------------------------------------------------------------------------
# Criterion 5: judge vs brute force, exhaustively


def test_criterion_05_judge_oracle(capfd):
    options = [
        ChunkFault(),
        FAILED,
        BLOCK,
        _syms(0),
        _syms(1),
        _syms(0, 1),
    ]
    t0 = time.perf_counter()
    agree = total = 0
    for combo in itertools.product(options, repeat=4):
        chunks = {
            i: f for i, f in enumerate(combo) if f.device_failed or f.bad_block or f.bad_symbols
        }
        s = StripeFaultState(n_devices=4, chunk_pages=2, chunks=chunks)
        for code in (R5, R6, PMDS):
            total += 1
            lost = not brute_force_correctable(code, s)
            agree += check_stripe_dl(code, s) == lost and _package_dl(code, s) == lost
    elapsed = time.perf_counter() - t0
    ok = agree == total and elapsed < 1.0
    announce(capfd, 5, ok, f"{agree}/{total} states agree in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 6: cost model tables


def test_criterion_06_cost_tables(capfd):
    ok = True
    for n, r in ((8, 4), (4, 2), (16, 8)):
        ok &= math.isclose(erf(R5, n, r), (n + 1) / n)
        ok &= math.isclose(erf(R6, n, r), (n + 2) / n)
        ok &= math.isclose(erf(PMDS, n, r), (n + 1) * r / (n * r - 1))
        ok &= encode_xor_count(R5, n, r) == (n - 1) * r
        ok &= encode_xor_count(R6, n, r) == 2 * (n - 1) * r
        ok &= encode_xor_count(PMDS, n, r) == 2 * (n - 1) * r + (r - 1)
        ok &= update_penalty(R5, "sector", n, r) == (2, 2)
        ok &= update_penalty(R6, "sector", n, r) == (3, 3)
        ok &= update_penalty(PMDS, "sector", n, r) == (4, 4)
        ok &= update_penalty(R5, "row", n, r) == (n + 1, 0)
        ok &= update_penalty(R6, "row", n, r) == (n + 2, 0)
        ok &= update_penalty(PMDS, "row", n, r) == (n + 3, n + 2)
        ok &= update_penalty(R5, "stripe", n, r) == ((n + 1) * r, 0)
        ok &= update_penalty(R6, "stripe", n, r) == ((n + 2) * r, 0)
        ok &= update_penalty(PMDS, "stripe", n, r) == ((n + 1) * r, 0)
    announce(capfd, 6, ok, "every cell for (8,4), (4,2), (16,8)")


# ---------------------------------------------------------------------------
# Criterion 7: per-seed strength ordering


def test_criterion_07_strength_ordering(field_sweep, capfd):
    violations = sum(
        not (a.stripes_lost <= b.stripes_lost <= c.stripes_lost)
        for a, b, c in zip(field_sweep[R6], field_sweep[PMDS], field_sweep[R5])
    )
    announce(capfd, 7, violations == 0, f"200 seeds, {violations} ordering violations")


# ---------------------------------------------------------------------------
# Criteria 8-9: scrub interval and rebuild time sweeps


def test_criterion_08_tts_sweep(maintenance_sweep, capfd):
    g = maintenance_sweep
    ok = True
    for code in (R5, R6):
        for ttr in (10.0, 100.0):
            ok &= g[(code, 100.0, ttr)] < g[(code, 1000.0, ttr)] < g[(code, 10_000.0, ttr)]
    ratio5 = g[(R5, 10_000.0, 10.0)] / g[(R5, 1000.0, 10.0)]
    ratio6 = g[(R6, 10_000.0, 10.0)] / g[(R6, 1000.0, 10.0)]
    ok &= ratio6 > ratio5
    announce(capfd, 8, ok, f"RAID5 x{ratio5:.1f}, RAID6 x{ratio6:.1f} for 1k->10k scrub")


def test_criterion_09_ttr_sweep(maintenance_sweep, capfd):
    g = maintenance_sweep
    ok = True
    for code in (R5, R6):
        for tts in (100.0, 1000.0, 10_000.0):
            ok &= g[(code, tts, 100.0)] >= g[(code, tts, 10.0)]
    rel = {
        tts: g[(R5, tts, 100.0)] / g[(R5, tts, 10.0)]
        for tts in (100.0, 10_000.0)
    }
    ok &= rel[100.0] > rel[10_000.0]
    announce(
        capfd, 9, ok,
        f"RAID5 rebuild effect x{rel[100.0]:.1f} at 100h scrub vs x{rel[10_000.0]:.2f} at 10kh",
    )


# ---------------------------------------------------------------------------
# Criterion 10: stripe size scaling


def test_criterion_10_stripe_scaling(stripe_sweep, capfd):
    g = stripe_sweep
    ok = True
    ratios = {}
    for code in (R5, R6):
        ratios[code] = g[(code, 32)][0] / g[(code, 64)][0]
        ok &= abs(ratios[code] - 2.0) <= 0.3
    pmds_bytes = [g[(PMDS, kb)][1] for kb in (128, 64, 32)]
    ok &= pmds_bytes[0] > pmds_bytes[1] > pmds_bytes[2]
    announce(
        capfd, 10, ok,
        f"halving 64->32KB: RAID5 x{ratios[R5]:.2f}, RAID6 x{ratios[R6]:.2f}; "
        f"PMDS bytes {['%.3g' % b for b in pmds_bytes]}",
    )


# ---------------------------------------------------------------------------
# Criterion 11: loss breakdown dominance


def _cause_fraction(results, want):
    totals = {}
    for r in results:
        for label, (_, stripes) in r.cause_totals.items():
            totals[label] = totals.get(label, 0) + stripes
    grand = sum(totals.values())
    picked = sum(s for label, s in totals.items() if want(label.split("+")))
    return picked / grand if grand else 0.0


def test_criterion_11_breakdown_dominance(field_sweep, capfd):
    pmds_bcbb = _cause_fraction(
        field_sweep[PMDS], lambda parts: "BC" in parts and "BB" in parts
    )
    raid5_bc = _cause_fraction(
        field_sweep[R5],
        lambda parts: "BC" in parts and ("BB" in parts or "BS" in parts),
    )
    ok = pmds_bcbb > 0.90 and raid5_bc > 0.54
    announce(
        capfd, 11, ok,
        f"PMDS BC+BB {pmds_bcbb:.1%} (>90%), RAID5 BC-coincident {raid5_bc:.1%} (>54%)",
    )


# ---------------------------------------------------------------------------
# Criterion 12: sampler statistics


def test_criterion_12_sampler_statistics(capfd):
    # The engine's bad-symbol sampler on one flat-bits log whose P/E ramp
    # crosses the upper knot of a two-knot RBER curve at hour 30,000.
    mission = MISSION_HOURS
    bits, pe_per_hour, knot, r0, r1 = 1e9, 0.1, 3000.0, 1e-8, 5e-8
    hours = tuple(range(mission))
    log = UsageLog(
        device_id="ramp",
        hours=hours,
        bits_read=(bits,) * mission,
        bits_written=(0.0,) * mission,
        pe_cycles=tuple(h * pe_per_hour for h in hours),
    )
    profile = stress_profile(rber_curve=RberCurve(points=((0.0, r0), (knot, r1))))
    pool = SsdPool("stress", 2_048, 0, tuple(PooledSsd(i, (), None) for i in range(3)))
    geometry = ArrayGeometry(n_devices=3, blocks_per_device=512, stripe_size=3 * 4096 * 4)
    draw = _Draw(geometry, profile, pool, [log], 10_000.0, 10.0, mission, 2024)
    times, locs = scheduled(_Simulation(draw.timeline(), R5), 0, EventKind.BAD_SYMBOL)

    pe = np.arange(mission) * pe_per_hour
    rate = np.minimum(r0 + (r1 - r0) * pe / knot, r1) * bits  # expected arrivals per hour
    count_err = abs(len(times) - rate.sum()) / rate.sum()
    bins = 32  # 1,095-hour bins
    observed = np.bincount((times // (mission // bins)).astype(np.int64), minlength=bins)
    expected = rate.reshape(bins, -1).sum(axis=1)
    chi2_times = float(((observed - expected) ** 2 / expected).sum())
    spd = geometry.symbols_per_device
    observed = np.bincount(locs * bins // spd, minlength=bins)
    expected = len(locs) / bins
    chi2_locs = float(((observed - expected) ** 2 / expected).sum())

    late, kinds, *_ = draw._install(1, pool.drives[0], mission / 2, 1)
    late = late[kinds == EventKind.BAD_SYMBOL]
    ok = (
        len(times) >= 1_000_000
        and count_err <= 0.01
        and chi2_times < 46.194  # chi-square df=32 at 95%: expected counts are not fitted
        and chi2_locs < 44.985  # chi-square df=31 at 95%
        and 0 <= locs.min() and locs.max() < spd
        and len(late) > 0 and late.min() > mission / 2
    )
    announce(
        capfd, 12, ok,
        f"{len(times)} arrivals, count error {count_err:.2%}, time chi2 {chi2_times:.1f} "
        f"< 46.194, location chi2 {chi2_locs:.1f} < 44.985",
    )


# ---------------------------------------------------------------------------
# Criterion 13: determinism and merge


def test_criterion_13_determinism(tmp_path, capfd):
    kwargs = dict(
        codes=[R5, PMDS],
        models=["MLC-A"],
        tts_values=[10_000.0],
        ttr_values=[10.0],
        stripe_kbs=[128],
        n_sims=6,
        master_seed=41,
        geometry_blocks=4_096,
        pool_size=300,
        pool_blocks=2_048,
    )
    dirs = {}
    for label, workers in (("a1", 1), ("b8", 8), ("c1", 1)):
        out = tmp_path / label
        run_experiment(out_dir=out, workers=workers, **kwargs)
        dirs[label] = {p.name: p.read_bytes() for p in out.iterdir()}
    ok = dirs["a1"] == dirs["b8"] == dirs["c1"]

    # Merge order independence on raw results.
    profile = stress_profile()
    pool = generate_pool(profile, 200, 2_048, seed=3)
    sims = [
        run_simulation(
            geometry=ArrayGeometry(blocks_per_device=512), code=R5, profile=profile,
            pool=pool, usage_logs=[flat_log(2e6)], tts=1000.0, ttr=10.0, seed=s,
        )
        for s in range(8)
    ]
    ok &= aggregate_results(sims) == aggregate_results(list(reversed(sims)))
    announce(capfd, 13, ok, "byte-identical at workers {1,8}; merge order-free")


# ---------------------------------------------------------------------------
# Criterion 14: performance envelope


def test_criterion_14_performance(pools, capfd):
    profile = next(p for p in default_profiles() if p.name == "MLC-A")
    pool, _ = pools["MLC-A"]
    geometry = ArrayGeometry()  # stock geometry: 8 devices, 128 KB stripes
    logs = [synthesize_usage_log(SynthWorkloadParams(), f"d{i}", i) for i in range(8)]
    t0 = time.perf_counter()
    for seed in range(1000):
        run_simulation(
            geometry=geometry, code=R5, profile=profile, pool=pool,
            usage_logs=logs, tts=10_000.0, ttr=10.0, seed=seed,
        )
    elapsed = time.perf_counter() - t0
    announce(capfd, 14, elapsed < 600.0, f"1000 missions in {elapsed:.0f}s < 600s")
