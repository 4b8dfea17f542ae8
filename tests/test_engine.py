import numpy as np
import pytest

import ssdfi.engine
from ssdfi.codes import ErasureCode
from ssdfi.engine import (
    MISSION_HOURS,
    DataLossRecord,
    EngineError,
    EventKind,
    _columns,
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


def make_sim(pool, rber=1e-12, bits=0.0, geometry=GEOMETRY):
    """A simulation set up like `run`, for driving its handlers directly."""
    return _Simulation(
        geometry, R5, flat_profile(rber), pool, [quiet_log(bits=bits)],
        1_000_000.0, 1_000_000.0, 150, 0,
    )


def clean_pool(n=3):
    return scripted_pool([drive(i) for i in range(n)])


def count_judge_calls(monkeypatch):
    """Patch the engine's judge to log its arguments; return the log."""
    calls = []
    judge = ssdfi.engine.uncorrectable
    monkeypatch.setattr(ssdfi.engine, "uncorrectable", lambda *a: calls.append(a) or judge(*a))
    return calls


def plant_block(sim, i, block, time):
    sim.handle_bad_block(i, block, time)


def schedule(sim, kind, i, times, locs=()):
    """Put scripted events of one kind on bay i onto the simulation's untaken timeline.

    `locs` are blocks for bad blocks and device symbols for bad symbols; a
    bad chip also schedules its rebuild `sim.ttr` hours later.
    """
    stripes, syms = -1, -1
    if kind == EventKind.BAD_BLOCK:
        stripes = np.asarray(locs) * sim.cpb
    elif kind == EventKind.BAD_SYMBOL:
        stripes, syms = np.divmod(np.asarray(locs), sim.cp)
    new = [_columns(i, times, kind, stripes, syms)]
    if kind == EventKind.BAD_CHIP:
        new.append(_columns(i, np.asarray(times) + sim.ttr, EventKind.RECONSTRUCT))
    k = sim.next_event
    sim._set_timeline(*(np.concatenate((old[k:], *c)) for old, *c in zip(sim.untaken, *new)))


def scheduled(sim, i, kind):
    """Bay i's untaken events of one kind: (times, locs), locs as `schedule` takes them."""
    times, kinds, bays, stripes, syms = (c[sim.next_event:] for c in sim.untaken)
    mine = (bays == i) & (kinds == kind)
    if kind == EventKind.BAD_BLOCK:
        return times[mine], stripes[mine] // sim.cpb
    return times[mine], stripes[mine] * sim.cp + syms[mine]


def plant_symbol(sim, i, symbol, time):
    schedule(sim, EventKind.BAD_SYMBOL, i, [time], [symbol])
    sim._consume_arrivals(int(np.searchsorted(sim.untaken[0], time, side="right")))


class TestSamplers:
    """The bad-symbol and bad-block schedules `_install` draws."""

    def test_offset_value(self):
        # A constant rate of 2/h: arrival times are unit exponential
        # sums divided by the rate.
        sim = make_sim(clean_pool(), rber=2e-6, bits=1e6)
        times = sim._draw_bs_times(sim._hazard(0, 0.0), 0.0, np.random.default_rng(7))
        assert 250 < len(times) < 350
        gaps = np.random.default_rng(7).exponential(1.0, size=len(times))
        assert times == pytest.approx(np.cumsum(gaps) / 2.0, rel=1e-9)

    def test_offset_validation(self):
        times, _ = scheduled(make_sim(clean_pool()), 0, EventKind.BAD_SYMBOL)
        assert len(times) == 0  # zero hazard
        sim = make_sim(clean_pool(), rber=1e-6, bits=1e6)
        sim._replace(0, 75.5)
        times, _ = scheduled(sim, 0, EventKind.BAD_SYMBOL)
        assert len(times) > 0
        assert times.min() > 75.5 and times.max() < 150

    def test_location_value(self):
        sim = make_sim(clean_pool(), rber=1e-3, bits=1e6)
        times, locs = scheduled(sim, 0, EventKind.BAD_SYMBOL)
        assert len(locs) == len(times) > 100_000
        assert locs.min() >= 0
        assert locs.max() < GEOMETRY.symbols_per_device

    def test_location_validation(self):
        sim = make_sim(scripted_pool([drive(i, bb_times=(10.0, 60.0, 140.0)) for i in range(3)]))
        assert list(scheduled(sim, 0, EventKind.BAD_BLOCK)[0]) == [10.0, 60.0, 140.0]
        sim._replace(0, 75.0)
        times, blocks = scheduled(sim, 0, EventKind.BAD_BLOCK)
        # Pool times count from the install; those past the mission drop.
        assert list(times) == [85.0, 135.0]
        assert len(blocks) == 2
        assert all(0 <= b < GEOMETRY.blocks_per_device for b in blocks)


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
        assert sim.bs_lone == {9 // cp: (0, 9 % cp)}
        assert not sim.bs_stripe

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
        calls = count_judge_calls(monkeypatch)
        sim = make_sim(clean_pool())
        schedule(sim, EventKind.BAD_SYMBOL, 2, [30.0], [9])
        schedule(sim, EventKind.BAD_CHIP, 1, [30.0])
        result = sim.run()
        assert result.records == (DataLossRecord(30.0, "SDL", "BC+BS", 1),)
        assert calls == [(R5, 2, 1)]

    def test_arrivals_on_failed_bay_leave_no_latent_fault(self):
        # Bay 0 fails at 10 h and is rebuilt at 60 h; its arrivals at 20 h
        # and 30 h are subsumed, so bay 1's bad chip at 100 h meets no
        # latent fault and loses nothing.
        sim = make_sim(clean_pool())
        sim.ttr = 50.0
        schedule(sim, EventKind.BAD_SYMBOL, 0, [20.0, 30.0], [9, 70])
        schedule(sim, EventKind.BAD_CHIP, 0, [10.0])
        schedule(sim, EventKind.BAD_CHIP, 1, [100.0])
        result = sim.run()
        assert sim.installs[0] == 1  # rebuilt
        assert not sim.bs_stripe and not sim.bs_lone
        assert result.records == ()


class TestLoneSymbols:
    """A stripe's only bad symbol waits in `bs_lone` and is judged in a batch.

    Each test covers one way a stripe leaves `bs_lone` or one batch, and
    checks the records and the judge calls the engine makes.
    """

    CP = GEOMETRY.chunk_pages
    CPB = GEOMETRY.chunks_per_block

    def test_second_symbol_from_another_bay(self):
        sim = make_sim(clean_pool())
        plant_symbol(sim, 0, 9, 10.0)
        plant_symbol(sim, 1, 10, 20.0)
        assert sim.records == [DataLossRecord(20.0, "SDL", "BS+BS", 1)]
        assert not sim.bs_lone
        assert sim.bs_stripe == {9 // self.CP: {0: {9 % self.CP}, 1: {10 % self.CP}}}

    def test_same_symbol_again_is_judged_again(self, monkeypatch):
        # The symbol arrives unjudged in an ADL epoch; after a rebuild the
        # array is short one bay, and its second arrival records the loss.
        calls = count_judge_calls(monkeypatch)
        sim = make_sim(clean_pool())
        sim.handle_bad_chip(0, 10.0)
        sim.handle_bad_chip(1, 11.0)
        plant_symbol(sim, 2, 9, 20.0)
        assert sim.bs_lone == {9 // self.CP: (2, 9 % self.CP)} and calls == []
        sim.apply_reconstruct(0, 30.0)
        plant_symbol(sim, 2, 9, 40.0)
        assert sim.records[1:] == [DataLossRecord(40.0, "SDL", "BC+BS", 1)]
        assert calls == [(R5, 2, 1)]
        assert not sim.bs_lone and sim.recorded == {9 // self.CP}

    @pytest.mark.parametrize("block_bay, causes", [(0, []), (1, ["BB+BS"])])
    def test_bad_block_on_a_lone_stripe_then_scrub(self, monkeypatch, block_bay, causes):
        # On its own bay the bad block covers the symbol; on another bay
        # the two chunks lose the stripe.  Either way the scrub judges each
        # stripe of the block once.
        calls = count_judge_calls(monkeypatch)
        sim = make_sim(clean_pool())
        plant_symbol(sim, 0, 5 * self.CPB * self.CP + 2, 10.0)
        plant_block(sim, block_bay, 5, 20.0)
        assert not sim.bs_lone
        assert [r.cause for r in sim.records] == causes
        del calls[:]
        sim.apply_scrub(30.0)
        assert [r.cause for r in sim.records] == causes
        assert len(calls) == self.CPB - len(causes)

    def test_bad_chip_on_the_lone_symbols_bay(self, monkeypatch):
        # Bay 0's chip drops bay 0's symbol; bay 2's lone symbol is lost.
        calls = count_judge_calls(monkeypatch)
        sim = make_sim(clean_pool())
        plant_symbol(sim, 0, 9, 10.0)
        plant_symbol(sim, 2, 70, 20.0)
        del calls[:]
        sim.handle_bad_chip(0, 30.0)
        assert sim.records == [DataLossRecord(30.0, "SDL", "BC+BS", 1)]
        assert calls == [(R5, 2, 1)]
        stripe, sym = divmod(70, self.CP)
        assert not sim.bs_lone and sim.bs_stripe == {stripe: {2: {sym}}}
        assert sim.recorded == {stripe}

    def test_scrub_with_a_failed_bay_merges_lone_losses_in_stripe_order(self, monkeypatch):
        # Four bays; 0 and 1 fail, so bays 2 and 3 collect faults unjudged:
        # lone symbols on stripes 40 and 3, two symbols on stripe 20 and a
        # bad block.  After bay 0's rebuild the scrub loses all of them.
        geometry = ArrayGeometry(
            n_devices=4, page_size=4096, pages_per_block=64, blocks_per_device=64,
            stripe_size=4 * 4096 * 4,
        )
        cp, cpb = geometry.chunk_pages, geometry.chunks_per_block
        sim = make_sim(clean_pool(4), geometry=geometry)
        sim.handle_bad_chip(0, 10.0)
        sim.handle_bad_chip(1, 11.0)
        plant_symbol(sim, 3, 40 * cp + 1, 20.0)
        plant_symbol(sim, 2, 3 * cp, 21.0)
        plant_symbol(sim, 2, 20 * cp, 22.0)
        plant_symbol(sim, 3, 20 * cp + 3, 23.0)
        plant_block(sim, 3, 5, 24.0)
        sim.apply_reconstruct(0, 30.0)
        calls = count_judge_calls(monkeypatch)
        sim.apply_scrub(40.0)
        assert [(r.time, r.scope, r.cause, r.stripes_lost) for r in sim.records[1:]] == [
            (40.0, "SDL", "BC+BS", 1),  # stripe 3
            (40.0, "SDL", "BC+BS+BS", 1),  # stripe 20
            (40.0, "SDL", "BC+BS", 1),  # stripe 40
            (40.0, "BDL", "BC+BB", cpb),
        ]
        assert len(calls) == 2 + 1 + cpb

    def test_lone_losses_around_a_bad_block_keep_arrival_order(self, monkeypatch):
        # Bay 0 is down; in one pass, lone symbols at 10 h and 30 h are
        # lost, and so is bay 2's bad block at 20 h.
        calls = count_judge_calls(monkeypatch)
        sim = make_sim(clean_pool())
        schedule(sim, EventKind.BAD_CHIP, 0, [5.0])
        schedule(sim, EventKind.BAD_SYMBOL, 1, [10.0, 30.0], [9, 70])
        schedule(sim, EventKind.BAD_BLOCK, 2, [20.0], [5])
        result = sim.run()
        assert result.records == (
            DataLossRecord(10.0, "SDL", "BC+BS", 1),
            DataLossRecord(20.0, "BDL", "BC+BB", self.CPB),
            DataLossRecord(30.0, "SDL", "BC+BS", 1),
        )
        assert len(calls) == 2 + self.CPB


class TestTimeline:
    """The mission end, and the same-hour order of the six event kinds.

    The order is scrub, rebuild, wear-out, bad chip, bad block, bad symbol;
    each order test fails if its pair of kinds swaps.
    """

    def test_nothing_happens_at_mission_end(self):
        # Bay 0 fails at 100 h; its rebuild would fall at 150 h, the mission
        # end, so it stays failed, and a symbol at 150 h on bay 1 is no loss.
        sim = make_sim(clean_pool())
        sim.ttr = 50.0
        schedule(sim, EventKind.BAD_CHIP, 0, [100.0])
        schedule(sim, EventKind.BAD_SYMBOL, 1, [149.5, 150.0], [9, 70])
        result = sim.run()
        assert result.records == (DataLossRecord(149.5, "SDL", "BC+BS", 1),)
        assert sim.failed == {0} and sim.installs == [0, 0, 0]

    def test_scrub_before_rebuild(self):
        # Bays 0 and 1 fail (ADL); bay 2's symbol at 30 h is not judged in
        # the ADL epoch.  The scrub at 50 h still sees the epoch and clears
        # the symbol; after bay 0's rebuild it would judge it as BC+BS.
        sim = make_sim(clean_pool())
        sim.ttr = 40.0
        schedule(sim, EventKind.BAD_CHIP, 0, [10.0])
        schedule(sim, EventKind.BAD_CHIP, 1, [20.0])
        schedule(sim, EventKind.BAD_SYMBOL, 2, [30.0], [9])
        schedule(sim, EventKind.SCRUB, -1, [50.0])
        result = sim.run()
        assert [(r.time, r.scope) for r in result.records] == [(20.0, "ADL")]

    def test_rebuild_before_wear_out(self, monkeypatch):
        sim = make_sim(clean_pool())
        sim.ttr = 40.0
        schedule(sim, EventKind.BAD_CHIP, 1, [10.0])
        schedule(sim, EventKind.WEAR_OUT, 0, [50.0])
        replaced = []
        replace = sim._replace
        monkeypatch.setattr(sim, "_replace", lambda i, time: replaced.append(i) or replace(i, time))
        sim.run()
        assert replaced == [1, 0]

    def test_wear_out_before_bad_chip(self):
        # Bay 1's wear-out copy at 50 h drops its bad block before bay 0's
        # chip fails; a chip of the worn-out drive itself never fires.
        for chip_bay, failed, causes in ((0, {0}, ["BC+BS"]), (1, set(), [])):
            sim = make_sim(clean_pool())
            schedule(sim, EventKind.BAD_BLOCK, 1, [40.0], [5])
            schedule(sim, EventKind.WEAR_OUT, 1, [50.0])
            schedule(sim, EventKind.BAD_CHIP, chip_bay, [50.0])
            schedule(sim, EventKind.BAD_SYMBOL, 2, [60.0], [9])
            result = sim.run()
            assert sim.failed == failed
            assert [r.cause for r in result.records] == causes

    def test_bad_chip_before_bad_block(self):
        # Bay 2 is down; bay 1's chip at 30 h starts an ADL epoch, in which
        # bay 0's bad block at the same hour is not judged.
        sim = make_sim(clean_pool())
        schedule(sim, EventKind.BAD_CHIP, 2, [10.0])
        schedule(sim, EventKind.BAD_CHIP, 1, [30.0])
        schedule(sim, EventKind.BAD_BLOCK, 0, [30.0], [5])
        result = sim.run()
        assert [(r.time, r.scope, r.cause) for r in result.records] == [(30.0, "ADL", "BC+BC")]

    def test_bad_block_before_bad_symbol(self):
        # Bay 2 is down; bay 1's bad block at 30 h loses its whole block
        # as one BDL record, which already holds bay 0's symbol of that hour.
        sim = make_sim(clean_pool())
        schedule(sim, EventKind.BAD_CHIP, 2, [10.0])
        schedule(sim, EventKind.BAD_BLOCK, 1, [30.0], [0])
        schedule(sim, EventKind.BAD_SYMBOL, 0, [30.0], [9])
        result = sim.run()
        assert result.records == (
            DataLossRecord(30.0, "BDL", "BC+BB", GEOMETRY.chunks_per_block),
        )


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
            schedule(sim, EventKind.BAD_BLOCK, 0, [40.0], [5])
            schedule(sim, EventKind.BAD_CHIP, 1, [100.0])
            if wear_out:
                schedule(sim, EventKind.WEAR_OUT, 0, [50.0])
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
        ssdfi.engine._fresh_hazard.cache_clear()
        logs = [quiet_log(), quiet_log(bits=1e6)]
        sim = _Simulation(GEOMETRY, R5, flat_profile(), clean_pool(), logs, 1e6, 1e6, 150, 0)
        assert len(calls) == 2  # three bays cycle over two logs
        assert sim.log_bits[0] is sim.log_bits[2] and sim.log_pe[0] is sim.log_pe[2]
        assert sim.log_bits[1] is not sim.log_bits[0]
        # Later missions on equal logs reuse the arrays, which nobody can write.
        again = _Simulation(
            GEOMETRY, PMDS, flat_profile(), clean_pool(), [quiet_log(), quiet_log(bits=1e6)],
            1e6, 1e6, 150, 1,
        )
        assert len(calls) == 2
        assert again.log_bits[1] is sim.log_bits[1] and again.fresh_hazard[0] is sim.fresh_hazard[0]
        for arrays in (sim.log_bits, sim.log_pe, sim.fresh_hazard):
            assert not any(a.flags.writeable for a in arrays)
