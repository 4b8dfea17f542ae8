import heapq
import math

import numpy as np
import pytest

import ssdfi.engine
from ssdfi.codes import ErasureCode
from ssdfi.engine import (
    MISSION_HOURS,
    DataLossRecord,
    EngineError,
    EventKind,
    _Simulation,
    run_simulation,
)
from ssdfi.geometry import ArrayGeometry
from ssdfi.pool import PooledSsd, SsdPool
from ssdfi.profiles import RberCurve, SsdModelProfile
from ssdfi.workload import SynthWorkloadParams, UsageLog, synthesize_usage_log

R5, R6, PMDS = ErasureCode.RAID5, ErasureCode.RAID6, ErasureCode.PMDS11

GEOMETRY = ArrayGeometry(
    n_devices=3,
    page_size=4096,
    pages_per_block=64,
    blocks_per_device=64,
    stripe_size=3 * 4096 * 4,
)


def flat_profile(rber=1e-12):
    return SsdModelProfile(
        name="flat",
        technology="MLC",
        pct_bad_chip=0.1,
        pct_bad_block=0.1,
        median_bb=1,
        mean_bb=1.0,
        factory_bb_mean=0.0,
        factory_bb_std=0.0,
        wol=10**8,
        bb_escalation_threshold=1,
        bb_escalation_factor=1.0,
        rber_curve=RberCurve(points=((0.0, rber), (1e9, rber))),
    )


def quiet_log(pe_per_hour=0.0, hours=200, bits=0.0):
    pe = tuple(float(int(h * pe_per_hour)) for h in range(hours))
    return UsageLog(
        device_id="q",
        hours=tuple(range(hours)),
        bits_read=(bits,) * hours,
        bits_written=(0.0,) * hours,
        pe_cycles=pe,
    )


def scripted_pool(drives):
    return SsdPool(profile_name="flat", blocks_per_device=64, seed=0, drives=tuple(drives))


def drive(drive_id, bb_times=(), bc_time=None):
    return PooledSsd(
        drive_id=drive_id,
        mission_bb_times=tuple(bb_times),
        bad_chip_time=bc_time,
        marked_bb_gt_5pct=False,
    )


def run(pool, code=R5, mission=150, tts=1_000_000.0, ttr=1_000_000.0, seed=0, **kw):
    return run_simulation(
        geometry=GEOMETRY,
        code=code,
        profile=flat_profile(),
        pool=pool,
        usage_logs=[quiet_log()],
        tts=tts,
        ttr=ttr,
        mission=mission,
        seed=seed,
        **kw,
    )


def make_sim(pool, rber=1e-12, bits=0.0):
    """A simulation set up like `run`, for driving its handlers directly."""
    return _Simulation(
        GEOMETRY, R5, flat_profile(rber), pool, [quiet_log(bits=bits)],
        1_000_000.0, 1_000_000.0, 150, 0, 1.0,
    )


def clean_pool():
    return scripted_pool([drive(i) for i in range(3)])


def plant_block(sim, i, block, time):
    sim.handle_bad_block(i, block, time)


def schedule_symbols(sim, i, symbols, times):
    """Put bay i's bad-symbol arrivals on the simulation's timeline."""
    slot = sim.slots[i]
    slot.bs_times, slot.bs_locs = np.array(times, dtype=float), np.array(symbols, dtype=np.int64)
    sim._merge_arrivals(i)


def plant_symbol(sim, i, symbol, time):
    schedule_symbols(sim, i, [symbol], [time])
    sim._consume_arrivals(math.nextafter(time, math.inf))


class TestSamplers:
    """The bad-symbol and bad-block schedules `_install` draws."""

    def test_offset_value(self):
        # A constant rate of 2/h: arrival times are unit exponential
        # sums divided by the rate.
        sim = make_sim(clean_pool(), rber=2e-6, bits=1e6)
        times = sim._draw_bs_times(sim.slots[0], 0.0, np.random.default_rng(7))
        assert 250 < len(times) < 350
        gaps = np.random.default_rng(7).exponential(1.0, size=len(times))
        assert times == pytest.approx(np.cumsum(gaps) / 2.0, rel=1e-9)

    def test_offset_validation(self):
        assert len(make_sim(clean_pool()).slots[0].bs_times) == 0  # zero hazard
        sim = make_sim(clean_pool(), rber=1e-6, bits=1e6)
        sim._replace(0, 75.5)
        times = sim.slots[0].bs_times
        assert len(times) > 0
        assert times.min() > 75.5 and times.max() < 150

    def test_location_value(self):
        sim = make_sim(clean_pool(), rber=1e-3, bits=1e6)
        slot = sim.slots[0]
        assert len(slot.bs_locs) == len(slot.bs_times) > 100_000
        assert slot.bs_locs.min() >= 0
        assert slot.bs_locs.max() < GEOMETRY.symbols_per_device

    def test_location_validation(self):
        sim = make_sim(scripted_pool([drive(i, bb_times=(10.0, 60.0, 140.0)) for i in range(3)]))
        assert list(sim.slots[0].bb_times) == [10.0, 60.0, 140.0]
        sim._replace(0, 75.0)
        slot = sim.slots[0]
        # Pool times count from the install; those past the mission drop.
        assert list(slot.bb_times) == [85.0, 135.0]
        assert len(slot.bb_locs) == 2
        assert all(0 <= b < GEOMETRY.blocks_per_device for b in slot.bb_locs)


class TestAffectedStripes:
    """Which stripes each fault marks and judges."""

    def test_bad_chip_spans_array(self):
        sim = make_sim(clean_pool())
        last = GEOMETRY.symbols_per_device - 1
        plant_block(sim, 1, 0, 10.0)
        plant_symbol(sim, 2, last, 20.0)
        assert sim.records == []
        sim.handle_bad_chip(0, 30.0)
        cpb = GEOMETRY.chunks_per_block
        assert sorted(sim.recorded) == list(range(cpb)) + [GEOMETRY.array_stripes - 1]
        assert [(r.scope, r.cause, r.stripes_lost) for r in sim.records] == [
            ("SDL", "BC+BS", 1),
            ("BDL", "BC+BB", cpb),
        ]

    def test_bad_block_spans_block(self):
        sim = make_sim(clean_pool())
        plant_block(sim, 0, 3, 10.0)
        cpb = GEOMETRY.chunks_per_block
        assert sim.bb_block == {3: {0}}
        assert sim._latent_stripes() == list(range(3 * cpb, 4 * cpb))

    def test_bad_symbol_single_stripe(self):
        sim = make_sim(clean_pool())
        plant_symbol(sim, 0, 9, 10.0)
        cp = GEOMETRY.chunk_pages
        assert sim.bs_stripe == {9 // cp: {0: {9 % cp}}}

    def test_out_of_range_location(self):
        # Faults at the very end of a device stay inside the array.
        sim = make_sim(clean_pool())
        plant_block(sim, 0, GEOMETRY.blocks_per_device - 1, 10.0)
        plant_symbol(sim, 1, GEOMETRY.symbols_per_device - 1, 20.0)
        last = GEOMETRY.array_stripes - 1
        assert list(sim.bb_block) == [GEOMETRY.blocks_per_device - 1]
        assert sim._latent_stripes()[-1] == last
        assert list(sim.bs_stripe) == [last]

    def test_non_failure_event(self):
        # Scrubs, rebuilds and wear-out replacements mark no stripe.
        sim = make_sim(clean_pool())
        plant_block(sim, 0, 3, 10.0)
        sim.apply_scrub(20.0)
        assert not sim.bb_block
        sim.replace_worn_out(1, 30.0)
        sim.apply_reconstruct(2, 40.0)
        assert not sim.bb_block and not sim.bs_stripe
        assert sim.records == []

    def test_symbol_at_bad_chip_hour_comes_after_the_chip(self, monkeypatch):
        # The chip fails bay 1 at 30 h first; the symbol then lands on a
        # stripe already short one chunk, and its own judgement is the one
        # that records the loss (judged first, it would pass, and the
        # chip's latent scan would judge the stripe a second time).
        calls = []
        judge = ssdfi.engine.uncorrectable
        monkeypatch.setattr(
            ssdfi.engine, "uncorrectable", lambda *a: calls.append(a) or judge(*a)
        )
        sim = make_sim(clean_pool())
        schedule_symbols(sim, 2, [9], [30.0])
        heapq.heappush(sim.heap, (30.0, EventKind.BAD_CHIP, 1, 0))
        result = sim.run()
        assert result.records == (DataLossRecord(30.0, "SDL", "BC+BS", 1),)
        assert calls == [(R5, 2, 1)]

    def test_arrivals_on_failed_bay_leave_no_latent_fault(self):
        # Bay 0 fails at 10 h and is rebuilt at 60 h; its arrivals at 20 h
        # and 30 h are subsumed, so bay 1's bad chip at 100 h meets no
        # latent fault and loses nothing.
        sim = make_sim(clean_pool())
        sim.ttr = 50.0
        schedule_symbols(sim, 0, [9, 70], [20.0, 30.0])
        heapq.heappush(sim.heap, (10.0, EventKind.BAD_CHIP, 0, 0))
        heapq.heappush(sim.heap, (100.0, EventKind.BAD_CHIP, 1, 0))
        result = sim.run()
        assert sim.slots[0].gen == 1  # rebuilt
        assert not sim.bs_stripe
        assert result.records == ()


class TestScriptedScenarios:
    def test_no_faults_no_records(self):
        pool = scripted_pool([drive(i) for i in range(3)])
        result = run(pool)
        assert result.records == ()
        assert result.stripes_lost == 0

    def test_single_bad_chip_reconstructs_without_loss(self):
        pool = scripted_pool([drive(0, bc_time=100.0), drive(1), drive(2)])
        # All drives identical per slot anyway; only one BC fires per slot.
        result = run(pool, ttr=10.0)
        # At most one device failed at a time: no loss under RAID5.
        assert result.records == ()
        assert result.ddf == 0

    def test_concurrent_bad_chips_adl_raid5(self):
        pool = scripted_pool([drive(i, bc_time=100.0) for i in range(3)])
        result = run(pool, code=R5)
        adl = [r for r in result.records if r.scope == "ADL"]
        assert len(adl) == 1
        assert adl[0].cause == "BC+BC"
        assert adl[0].stripes_lost == GEOMETRY.array_stripes
        assert result.ddf >= 1

    def test_concurrent_bad_chips_tolerated_by_raid6(self):
        pool = scripted_pool(
            [drive(0, bc_time=100.0), drive(1, bc_time=100.0), drive(2)]
        )
        result = run(pool, code=R6, seed=3)
        # Only two of three slots can fail here when the third drive is
        # clean; seed 3 draws distinct drives for the three slots.
        if result.ddf:
            assert all(r.scope != "ADL" for r in result.records)

    def test_bad_block_then_bad_chip_is_bdl(self):
        pool = scripted_pool([drive(0, bb_times=(50.0,)), drive(1, bc_time=100.0), drive(2)])
        # Force distinct drives per slot by trying seeds until slot
        # assignment separates the BB drive from the BC drive.
        for seed in range(20):
            result = run(pool, code=R5, seed=seed)
            bdl = [r for r in result.records if r.scope == "BDL"]
            if bdl:
                assert bdl[0].cause == "BC+BB"
                assert bdl[0].stripes_lost == GEOMETRY.chunks_per_block
                assert all(r.scope == "BDL" for r in result.records)
                return
        pytest.fail("no seed produced the BB+BC coincidence")

    def test_scrub_clears_latent_faults(self):
        pool = scripted_pool([drive(0, bb_times=(50.0,)), drive(1, bc_time=100.0), drive(2)])
        for seed in range(20):
            degraded = run(pool, code=R5, seed=seed)
            if any(r.scope == "BDL" for r in degraded.records):
                scrubbed = run(pool, code=R5, seed=seed, tts=75.0)
                assert all(r.scope != "BDL" for r in scrubbed.records)
                return
        pytest.fail("no seed produced the BB+BC coincidence")

    def test_worn_out_replacement_is_lossless(self):
        pool = scripted_pool([drive(i, bb_times=(120.0,)) for i in range(3)])
        profile = flat_profile()
        wol_profile = SsdModelProfile(
            **{**profile.__dict__, "wol": 50, "rber_curve": profile.rber_curve}
        )
        result = run_simulation(
            geometry=GEOMETRY,
            code=R5,
            profile=wol_profile,
            pool=pool,
            usage_logs=[quiet_log(pe_per_hour=1.0)],
            tts=1_000_000.0,
            ttr=1_000_000.0,
            mission=150,
            seed=0,
        )
        # Wear-out at hour 50 swaps every drive before its BB arrives;
        # the replacement drives re-run their own schedules relative to
        # install, and the mission ends before those fire.
        assert all(r.scope != "ADL" for r in result.records)

    def test_worn_out_drive_drops_its_latent_faults(self):
        # Bay 0 takes a bad block at 40 h, bay 1 a bad chip at 100 h; a
        # wear-out copy of bay 0 at 50 h leaves no bad block to coincide.
        for wear_out, bdl in ((False, ["BC+BB"]), (True, [])):
            sim = make_sim(clean_pool())
            slot = sim.slots[0]
            slot.bb_times, slot.bb_locs = np.array([40.0]), np.array([5])
            sim._merge_arrivals(0)
            heapq.heappush(sim.heap, (100.0, EventKind.BAD_CHIP, 1, 0))
            if wear_out:
                heapq.heappush(sim.heap, (50.0, EventKind.WEAR_OUT, 0, 0))
            result = sim.run()
            assert [r.cause for r in result.records if r.scope == "BDL"] == bdl


class TestDeterminism:
    def test_identical_runs(self):
        profile = flat_profile(rber=1e-9)
        logs = [synthesize_usage_log(SynthWorkloadParams(), f"d{i}", i) for i in range(3)]
        pool = scripted_pool(
            [drive(i, bb_times=(20.0 * i + 10.0,), bc_time=None) for i in range(8)]
        )
        kwargs = dict(
            geometry=GEOMETRY,
            code=PMDS,
            profile=profile,
            pool=pool,
            usage_logs=logs,
            tts=40.0,
            ttr=5.0,
            mission=150,
            seed=42,
        )
        assert run_simulation(**kwargs) == run_simulation(**kwargs)

    def test_config_echo_has_no_timestamps(self):
        pool = scripted_pool([drive(i) for i in range(3)])
        result = run(pool)
        # Only static configuration values: a second run must echo the
        # exact same mapping (no wall clock, no host data).
        assert all(isinstance(v, (int, float, str)) for v in result.config.values())
        assert result.config == run(pool).config


class TestSetUp:
    def test_mission_limited_to_pool_schedules(self):
        pool = clean_pool()
        assert run(pool, mission=MISSION_HOURS).stripes_lost == 0
        for mission in (0, MISSION_HOURS + 1):
            with pytest.raises(EngineError, match="mission"):
                run(pool, mission=mission)

    def test_bays_on_one_log_share_its_arrays(self, monkeypatch):
        calls = []

        def dense_arrays(log, mission_hours):
            calls.append(log.device_id)
            return original(log, mission_hours)

        original = ssdfi.engine.dense_arrays
        monkeypatch.setattr(ssdfi.engine, "dense_arrays", dense_arrays)
        logs = [quiet_log(), quiet_log(bits=1e6)]
        sim = _Simulation(GEOMETRY, R5, flat_profile(), clean_pool(), logs, 1e6, 1e6, 150, 0, 1.0)
        assert len(calls) == 2  # three bays cycle over two logs
        assert sim.log_bits[0] is sim.log_bits[2] and sim.log_pe[0] is sim.log_pe[2]
        assert sim.log_bits[1] is not sim.log_bits[0]
