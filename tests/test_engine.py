import dataclasses
import heapq
import json

import numpy as np
import pytest

import reference_engine
import ssdfi.engine
from ssdfi.codes import ErasureCode
from ssdfi.engine import (
    MISSION_HOURS,
    DataLossRecord,
    EngineError,
    EventKind,
    _columns,
    _Draw,
    _Simulation,
    _sorted,
    _Timeline,
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


# 4,096 blocks of 16 stripes: a bay's bad blocks and symbols seldom meet.
WIDE = ArrayGeometry(
    n_devices=3,
    page_size=4096,
    pages_per_block=64,
    blocks_per_device=4096,
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


def make_draw(pool, rber=1e-12, bits=0.0, geometry=GEOMETRY, ttr=1_000_000.0):
    """The draws of a mission set up like `run`."""
    return _Draw(geometry, flat_profile(rber), pool, [quiet_log(bits=bits)], 1e6, ttr, 150, 0)


def make_sim(pool, code=R5, **kw):
    """A judge set up like `run`, for driving its handlers directly.

    It keeps its draw, through which `schedule` walks planted events.
    """
    draw = make_draw(pool, **kw)
    sim = _Simulation(draw.timeline(), code)
    sim.draw = draw
    return sim


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
    """Put scripted events of one kind on bay i onto the simulation's timeline.

    `locs` are blocks for bad blocks and device symbols for bad symbols; a
    bad chip also schedules its rebuild `ttr` hours later.  The events join
    the timeline's columns, which then go through the draw's replacement
    walk, and the judge takes the new timeline.  `make_sim`'s drives
    neither fail nor wear out, so its timeline is the set-up one; the walk
    takes a replaced bay's later events out again, so a timeline that has
    walked once walks to itself.
    """
    stripes, syms = -1, -1
    if kind == EventKind.BAD_BLOCK:
        stripes = np.asarray(locs) * sim.cpb
    elif kind == EventKind.BAD_SYMBOL:
        stripes, syms = np.divmod(np.asarray(locs), sim.timeline.geometry.chunk_pages)
    new = [_columns(i, times, kind, stripes, syms)]
    if kind == EventKind.BAD_CHIP:
        new.append(_columns(i, np.asarray(times) + sim.draw.ttr, EventKind.RECONSTRUCT))
    columns = (np.concatenate((old, *c)) for old, *c in zip(sim.columns, *new))
    sim.timeline = sim.draw._walk(columns)
    sim.columns = sim.timeline.columns


def scheduled(sim, i, kind):
    """Bay i's events from `next_event` on of one kind: (times, locs), as `schedule` takes them."""
    times, kinds, bays, stripes, syms = (c[sim.next_event:] for c in sim.columns)
    mine = (bays == i) & (kinds == kind)
    if kind == EventKind.BAD_BLOCK:
        return times[mine], stripes[mine] // sim.cpb
    return times[mine], stripes[mine] * sim.timeline.geometry.chunk_pages + syms[mine]


def replaced(sim):
    """The bays that the timeline's rebuilds and wear-outs replace, in order."""
    kinds = (EventKind.RECONSTRUCT, EventKind.WEAR_OUT)
    return [i for _, _, kind, i in sim.timeline.boundaries if kind in kinds]


def consume(sim, time=np.inf):
    """Take the timeline's arrivals up to `time` in one pass, as the main loop does."""
    sim._consume_arrivals(int(np.searchsorted(sim.columns[0], time, side="right")))


def plant_symbol(sim, i, symbol, time):
    schedule(sim, EventKind.BAD_SYMBOL, i, [time], [symbol])
    consume(sim, time)


def pending_stripes(sim):
    """The stripes of the pending isolated bad symbols, in timeline order."""
    return [s for k in sim.pending for s in sim.columns[3][k].tolist()]


def pending_blocks(sim):
    """The blocks of the pending isolated bad blocks, in timeline order."""
    return [s // sim.cpb for k in sim.pending_bb for s in sim.columns[3][k].tolist()]


def lost_stripes(sim):
    """The stripes lost in this fault epoch, from every block's entry in `lost`."""
    return {s for stripes in sim.lost.values() for s in stripes}


def symbol_map(sim):
    """The bad symbols in `bs_block`, flattened to {stripe: {bay: symbols}}."""
    return {s: per for stripes in sim.bs_block.values() for s, per in stripes.items()}


def check_layout(sim):
    """Each block's entries in `bs_block` and `lost` hold its own stripes, and none is empty."""
    cpb = sim.cpb
    for block, stripes in sim.bs_block.items():
        assert stripes
        assert all(s // cpb == block and per and all(per.values()) for s, per in stripes.items())
    for block, stripes in sim.lost.items():
        assert stripes and all(s // cpb == block for s in stripes)


class TestSamplers:
    """The bad-symbol and bad-block schedules `_install` draws."""

    def test_offset_value(self):
        # A constant rate of 2/h: arrival times are unit exponential
        # sums divided by the rate.
        draw = make_draw(clean_pool(), rber=2e-6, bits=1e6)
        times = draw._draw_bs_times(draw._hazard(0, 0.0), 0.0, np.random.default_rng(7))
        assert 250 < len(times) < 350
        gaps = np.random.default_rng(7).exponential(1.0, size=len(times))
        assert times == pytest.approx(np.cumsum(gaps) / 2.0, rel=1e-9)

    def test_offset_validation(self):
        times, _ = scheduled(make_sim(clean_pool()), 0, EventKind.BAD_SYMBOL)
        assert len(times) == 0  # zero hazard
        draw = make_draw(clean_pool(), rber=1e-6, bits=1e6)
        times, kinds, *_ = draw._install(0, drive(9), 75.5, 1)
        times = times[kinds == EventKind.BAD_SYMBOL]
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
        times, kinds, _, stripes, _ = sim.draw._install(0, sim.draw.pool.drives[0], 75.0, 1)
        bad_block = kinds == EventKind.BAD_BLOCK
        times, blocks = times[bad_block], stripes[bad_block] // sim.cpb
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
        assert sorted(lost_stripes(sim)) == list(range(cpb)) + [GEOMETRY.array_stripes - 1]
        assert [(r.scope, r.cause, r.stripes_lost) for r in sim.records] == [
            ("SDL", "BC+BS", 1),
            ("BDL", "BC+BB", cpb),
        ]

    def test_bad_block_spans_block(self, monkeypatch):
        # A scrub judges the block's stripes; a bad chip's scan, which
        # scrubs share, loses exactly those stripes.
        calls = count_judge_calls(monkeypatch)
        sim = make_sim(clean_pool())
        plant_block(sim, 0, 3, 10.0)
        cpb = GEOMETRY.chunks_per_block
        assert sim.bb_block == {3: {0}}
        del calls[:]
        sim.apply_scrub(20.0)
        assert calls == [(R5, 1, 1)] * cpb
        plant_block(sim, 0, 3, 30.0)
        sim.handle_bad_chip(1, 40.0)
        assert sorted(lost_stripes(sim)) == list(range(3 * cpb, 4 * cpb))

    def test_bad_symbol_single_stripe(self):
        # An isolated symbol waits as pending; a bad chip's scan loses its
        # stripe and no other.
        sim = make_sim(clean_pool())
        plant_symbol(sim, 0, 9, 10.0)
        cp = GEOMETRY.chunk_pages
        assert pending_stripes(sim) == [9 // cp]
        assert not sim.bs_block
        sim.handle_bad_chip(1, 20.0)
        assert lost_stripes(sim) == {9 // cp}
        assert sim.records == [DataLossRecord(20.0, "SDL", "BC+BS", 1)]

    def test_out_of_range_location(self, monkeypatch):
        # Faults at the very end of a device stay inside the array.
        calls = count_judge_calls(monkeypatch)
        sim = make_sim(clean_pool())
        schedule(sim, EventKind.BAD_BLOCK, 0, [10.0], [GEOMETRY.blocks_per_device - 1])
        schedule(sim, EventKind.BAD_SYMBOL, 1, [20.0], [GEOMETRY.symbols_per_device - 1])
        consume(sim)
        last = GEOMETRY.array_stripes - 1
        cpb = GEOMETRY.chunks_per_block
        assert list(sim.bb_block) == [GEOMETRY.blocks_per_device - 1]
        assert list(symbol_map(sim)) == [last]
        assert sim.records == [DataLossRecord(20.0, "SDL", "BB+BS", 1)]
        del calls[:]
        sim.handle_bad_chip(2, 30.0)  # the scan a scrub makes, short one bay
        assert calls == [(R5, 2, 2)] * (cpb - 1)
        assert sorted(lost_stripes(sim)) == list(range(last + 1 - cpb, last + 1))

    def test_non_failure_event(self):
        # Scrubs, rebuilds and wear-out replacements mark no stripe.
        sim = make_sim(clean_pool())
        plant_block(sim, 0, 3, 10.0)
        sim.apply_scrub(20.0)
        assert not sim.bb_block
        sim.replace_worn_out(1, 30.0)
        sim.apply_reconstruct(2, 40.0)
        assert not sim.bb_block and not sim.bs_block
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
        sim = make_sim(clean_pool(), ttr=50.0)
        schedule(sim, EventKind.BAD_SYMBOL, 0, [20.0, 30.0], [9, 70])
        schedule(sim, EventKind.BAD_CHIP, 0, [10.0])
        schedule(sim, EventKind.BAD_CHIP, 1, [100.0])
        result = sim.run()
        assert replaced(sim) == [0]  # rebuilt
        assert not sim.bs_block
        assert result.records == ()


class TestLoneSymbols:
    """A stripe's only bad symbol: pending when isolated, else in `bs_block`.

    An isolated symbol waits as pending and is judged in a scan's batch;
    any other symbol on a clean stripe enters `bs_block` as {stripe: {bay:
    {symbol}}} under its block and is judged on its own.  Each test covers one way such a
    stripe is judged or leaves, and checks the records and the judge calls
    the engine makes.
    """

    CP = GEOMETRY.chunk_pages
    CPB = GEOMETRY.chunks_per_block

    def test_second_symbol_from_another_bay(self):
        sim = make_sim(clean_pool())
        schedule(sim, EventKind.BAD_SYMBOL, 0, [10.0], [9])
        schedule(sim, EventKind.BAD_SYMBOL, 1, [20.0], [10])
        consume(sim, 10.0)
        assert symbol_map(sim) == {9 // self.CP: {0: {9 % self.CP}}} and not sim.pending
        consume(sim)
        assert sim.records == [DataLossRecord(20.0, "SDL", "BS+BS", 1)]
        assert symbol_map(sim) == {9 // self.CP: {0: {9 % self.CP}, 1: {10 % self.CP}}}

    def test_same_symbol_again_is_judged_again(self, monkeypatch):
        # The symbol arrives unjudged in an ADL epoch; after a rebuild the
        # array is short one bay, and its second arrival records the loss.
        calls = count_judge_calls(monkeypatch)
        sim = make_sim(clean_pool())
        sim.handle_bad_chip(0, 10.0)
        sim.handle_bad_chip(1, 11.0)
        plant_symbol(sim, 2, 9, 20.0)
        assert symbol_map(sim) == {9 // self.CP: {2: {9 % self.CP}}} and calls == []
        sim.apply_reconstruct(0, 30.0)
        plant_symbol(sim, 2, 9, 40.0)
        assert sim.records[1:] == [DataLossRecord(40.0, "SDL", "BC+BS", 1)]
        assert calls == [(R5, 2, 1)]
        assert symbol_map(sim) == {9 // self.CP: {2: {9 % self.CP}}}
        assert lost_stripes(sim) == {9 // self.CP}

    @pytest.mark.parametrize("block_bay, causes", [(0, []), (1, ["BB+BS"])])
    def test_bad_block_on_a_lone_stripe_then_scrub(self, monkeypatch, block_bay, causes):
        # On its own bay the bad block covers the symbol; on another bay
        # the two chunks lose the stripe.  Either way the scrub judges each
        # stripe of the block once.
        calls = count_judge_calls(monkeypatch)
        sim = make_sim(clean_pool())
        schedule(sim, EventKind.BAD_SYMBOL, 0, [10.0], [5 * self.CPB * self.CP + 2])
        schedule(sim, EventKind.BAD_BLOCK, block_bay, [20.0], [5])
        consume(sim)
        assert symbol_map(sim) == {5 * self.CPB: {0: {2}}}
        assert [r.cause for r in sim.records] == causes
        del calls[:]
        sim.apply_scrub(30.0)
        assert [r.cause for r in sim.records] == causes
        assert len(calls) == self.CPB - len(causes)

    def test_bad_chip_on_the_lone_symbols_bay(self, monkeypatch):
        # Bay 0's chip drops bay 0's symbol; bay 2's pending symbol is lost:
        # its stripe joins its block's entry in `lost`, with no `bs_block` entry.
        calls = count_judge_calls(monkeypatch)
        sim = make_sim(clean_pool())
        plant_symbol(sim, 0, 9, 10.0)
        plant_symbol(sim, 2, 70, 20.0)
        del calls[:]
        sim.handle_bad_chip(0, 30.0)
        assert sim.records == [DataLossRecord(30.0, "SDL", "BC+BS", 1)]
        assert calls == [(R5, 2, 1)]
        stripe, sym = divmod(70, self.CP)
        assert not sim.bs_block
        assert sim.lost == {stripe // self.CPB: {stripe}}

    def test_a_lost_lone_stripe_is_not_judged_again(self, monkeypatch):
        # Bay 0's chip loses bay 2's lone stripe.  A second symbol on it
        # (bay 1) and then a bad block on its block (bay 1) judge only the
        # block's other stripes, and record it no more.
        calls = count_judge_calls(monkeypatch)
        sim = make_sim(clean_pool())
        stripe = 5 * self.CPB + 3
        plant_symbol(sim, 2, stripe * self.CP, 10.0)
        sim.handle_bad_chip(0, 20.0)
        assert sim.records == [DataLossRecord(20.0, "SDL", "BC+BS", 1)]
        del calls[:]
        plant_symbol(sim, 1, stripe * self.CP + 1, 30.0)
        assert calls == [] and len(sim.records) == 1
        plant_block(sim, 1, 5, 40.0)
        assert calls == [(R5, 2, 2)] * (self.CPB - 1)
        assert sim.records[1:] == [DataLossRecord(40.0, "BDL", "BC+BB", self.CPB - 1)]

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

    def test_scan_after_an_adl_epoch_splices_pending_losses_by_stripe(self, monkeypatch):
        # Five bays.  Drives 0 and 1 fail at 25 h and 26 h, an ADL epoch that
        # drive 0's rebuild ends at 35 h; drive 1's rebuild at 36 h leaves a
        # healthy array.  Drive 4's chip at 45 h then loses three stripes of
        # block 5.  The epoch took its symbols row by row and unjudged: a
        # lone symbol (lo + 1) and one symbol from each of drives 2 and 3
        # (lo + 9), both in `bs_block`.  Drive 2's symbol at 40 h came in a
        # healthy pass and waits as pending (lo + 4).  Its record goes
        # between the other two, as the reference engine puts it.
        geometry = ArrayGeometry(
            n_devices=5, page_size=4096, pages_per_block=64, blocks_per_device=64,
            stripe_size=5 * 4096 * 4,
        )
        cp, lo = geometry.chunk_pages, 5 * geometry.chunks_per_block
        planted = {  # drive id -> (hours, device symbols) of its initial install
            2: ([27.0, 28.0, 40.0], [(lo + 1) * cp + 2, (lo + 9) * cp, (lo + 4) * cp]),
            3: ([29.0], [(lo + 9) * cp + 1]),
        }
        plant_initial_symbols(monkeypatch, planted)
        # A replacement drive's chip comes 25 h or more after its install,
        # after the mission end.
        chips = (25.0, 26.0, None, None, 45.0)
        pool = scripted_pool([drive(i, bc_time=t) for i, t in enumerate(chips)])
        scans = []

        class Judge(_Simulation):
            def _judge_latent(self, time):
                scans.append((time, pending_stripes(self), sorted(symbol_map(self))))
                super()._judge_latent(time)

        draw = (geometry, flat_profile(), pool, [quiet_log()], 1e6, 10.0, 60, 0)
        sim, result = judge_like_reference(monkeypatch, draw, Judge)
        assert [(time, kind) for _, time, kind, _ in sim.timeline.boundaries] == [
            (25.0, EventKind.BAD_CHIP), (26.0, EventKind.BAD_CHIP),
            (35.0, EventKind.RECONSTRUCT), (36.0, EventKind.RECONSTRUCT),
            (45.0, EventKind.BAD_CHIP), (55.0, EventKind.RECONSTRUCT),
        ]
        assert scans == [(25.0, [], []), (45.0, [lo + 4], [lo + 1, lo + 9])]
        assert result.records == (
            DataLossRecord(26.0, "ADL", "BC+BC", geometry.array_stripes),
            DataLossRecord(45.0, "SDL", "BC+BS", 1),  # lo + 1
            DataLossRecord(45.0, "SDL", "BC+BS", 1),  # lo + 4, pending
            DataLossRecord(45.0, "SDL", "BC+BS+BS", 1),  # lo + 9
        )


def plant_initial_symbols(monkeypatch, planted):
    """Give each drive's initial install these bad symbols, in both engines.

    `planted` maps a drive id to the (hours, device symbols) of its bad
    symbols; the drives must draw none of their own (a zero hazard).
    Planted in `_install`, where both engines draw them, so the walk and
    the reference engine's heap take them as drawn ones.
    """
    install = _Draw._install

    def planted_install(self, i, drive, now, n):
        columns = install(self, i, drive, now, n)
        if now or drive.drive_id not in planted:
            return columns
        hours, symbols = planted[drive.drive_id]
        stripes, syms = np.divmod(symbols, self.geometry.chunk_pages)
        more = _columns(i, hours, EventKind.BAD_SYMBOL, stripes, syms)
        return tuple(np.concatenate(c) for c in zip(columns, more))

    ref_install = reference_engine._Simulation._install

    def ref_planted_install(self, i, drive_idx, now):
        ref_install(self, i, drive_idx, now)
        drive_id = self.pool.drives[drive_idx].drive_id
        if now or drive_id not in planted:
            return
        slot = self.slots[i]
        assert not len(slot.bs_times)
        slot.bs_times, slot.bs_locs = (np.asarray(c) for c in planted[drive_id])
        heapq.heappush(self.heap, (slot.bs_times[0], EventKind.BAD_SYMBOL, i, slot.gen))

    monkeypatch.setattr(_Draw, "_install", planted_install)
    monkeypatch.setattr(reference_engine._Simulation, "_install", ref_planted_install)


class TestBadBlocks:
    """A bad block's marked stripes are judged one by one, its other stripes as one unit."""

    CP = GEOMETRY.chunk_pages
    CPB = GEOMETRY.chunks_per_block

    def test_clean_block_is_lost_as_one_bdl(self, monkeypatch):
        sim = make_sim(clean_pool())
        sim.handle_bad_chip(0, 5.0)
        calls = count_judge_calls(monkeypatch)
        plant_block(sim, 1, 5, 10.0)
        assert calls == [(R5, 2, 2)] * self.CPB
        assert sim.records == [DataLossRecord(10.0, "BDL", "BC+BB", self.CPB)]
        assert lost_stripes(sim) == set(range(5 * self.CPB, 6 * self.CPB))
        # The same block from another bay: every stripe is already lost.
        del calls[:]
        plant_block(sim, 2, 5, 20.0)
        assert calls == [] and len(sim.records) == 1

    def plant_touched_block(self, sim):
        """Block 5 on bay 2 over a lost stripe (bays 0 and 1) and bay 0's lone symbol.

        Also isolated symbols on stripes before and after block 5 (bay 1,
        then bay 2) and an isolated bad block 9 on bay 0 that arrives first:
        these three wait as pending.  The whole timeline is planted, then
        taken in one pass.
        """
        cp, cpb = self.CP, self.CPB
        lost, lone = 5 * cpb + 2, 5 * cpb + 7
        symbols = [  # (hour, bay, device symbol)
            (10.0, 0, lost * cp),
            (11.0, 1, lost * cp + 1),
            (12.0, 0, lone * cp + 3),
            (13.0, 1, (2 * cpb + 1) * cp),
            (14.0, 2, 8 * cpb * cp),
        ]
        for time, i, symbol in symbols:
            schedule(sim, EventKind.BAD_SYMBOL, i, [time], [symbol])
        schedule(sim, EventKind.BAD_BLOCK, 0, [19.0], [9])
        schedule(sim, EventKind.BAD_BLOCK, 2, [20.0], [5])
        consume(sim)
        return lost, lone

    def test_touched_block_on_arrival_then_scrub(self, monkeypatch):
        calls = count_judge_calls(monkeypatch)
        sim = make_sim(clean_pool())
        lost, lone = self.plant_touched_block(sim)
        expected = [
            DataLossRecord(11.0, "SDL", "BS+BS", 1),
            DataLossRecord(20.0, "SDL", "BB+BS", 1),  # the lone symbol's stripe
        ]
        assert sim.records == expected
        # Block 5: its unmarked stripes as one unit at the first of them,
        # then its marked ones: the lost stripe is skipped and the lone
        # symbol's stripe is judged.
        assert calls[-(self.CPB - 1):] == [(R5, 1, 1)] * (self.CPB - 2) + [(R5, 2, 1)]
        assert lost_stripes(sim) == {lost, lone}
        assert pending_stripes(sim) == [2 * self.CPB + 1, 8 * self.CPB]
        assert symbol_map(sim) == {lost: {0: {0}, 1: {1}}, lone: {0: {3}}}
        assert pending_blocks(sim) == [9] and list(sim.bb_block) == [5]
        del calls[:]
        sim.apply_scrub(30.0)
        assert sim.records == expected
        # Two lone symbols, block 9, block 5 but its two lost stripes.
        assert calls == [(R5, 1, 0)] * 2 + [(R5, 1, 1)] * (self.CPB + self.CPB - 2)
        assert not (sim.lost or sim.bb_block or sim.bs_block)
        assert not (sim.pending or sim.pending_bb)

    def test_touched_block_at_a_bad_chip_scan(self):
        # Bay 1 fails: its symbols go, bay 2's lone symbol is lost, and both
        # bad blocks are lost but for the two stripes of block 5 lost before.  SDL
        # records come in stripe order, then BDL records in block order.
        sim = make_sim(clean_pool())
        self.plant_touched_block(sim)
        sim.handle_bad_chip(1, 30.0)
        assert sim.records[2:] == [
            DataLossRecord(30.0, "SDL", "BC+BS", 1),
            DataLossRecord(30.0, "BDL", "BC+BB", self.CPB - 2),
            DataLossRecord(30.0, "BDL", "BC+BB", self.CPB),
        ]
        cpb = self.CPB
        assert lost_stripes(sim) == (
            set(range(5 * cpb, 6 * cpb)) | set(range(9 * cpb, 10 * cpb)) | {8 * cpb}
        )

    def test_marked_stripes_below_and_between_the_unit(self, monkeypatch):
        # Under PMDS(1,1), block 5 on bay 1 keeps two marked stripes below
        # its first unmarked stripe, one with a bay-2 symbol and one with
        # bay 1's, which counts as the block does; one with a bay-2 symbol
        # between its unmarked stripes; and a stripe that two bay-2 symbols
        # on one chunk lose when the block arrives.  Bay 0's chip then loses
        # the block at its scan: the bay-1 stripe joins the unit's BDL
        # count, and the bay-2 stripes make one count that comes first, as
        # its first stripe lies below the unit.
        calls = count_judge_calls(monkeypatch)
        sim = make_sim(clean_pool(), code=PMDS)
        cp, cpb = self.CP, self.CPB
        lo = 5 * cpb
        symbols = [  # (hour, bay, device symbol)
            (10.0, 2, lo * cp),
            (11.0, 1, (lo + 1) * cp),
            (12.0, 2, (lo + 3) * cp),
            (14.0, 2, (lo + 5) * cp),
            (15.0, 2, (lo + 5) * cp + 1),
        ]
        for time, i, symbol in symbols:
            schedule(sim, EventKind.BAD_SYMBOL, i, [time], [symbol])
        schedule(sim, EventKind.BAD_BLOCK, 1, [20.0], [5])
        consume(sim)
        assert sim.records == [DataLossRecord(20.0, "SDL", "BB+BS", 1)]
        # Four fresh lone symbols, the fifth's stripe, then block 5: its two
        # stripes below the unit, the unit, and its other marked stripes.
        assert calls == (
            [(PMDS, 1, 0)] * 4 + [(PMDS, 1, 1)]
            + [(PMDS, 2, 1)] + [(PMDS, 1, 1)] * (cpb - 3) + [(PMDS, 2, 1), (PMDS, 2, 2)]
        )
        assert lost_stripes(sim) == {lo + 5}
        del calls[:]
        sim.handle_bad_chip(0, 30.0)
        assert sim.records[1:] == [
            DataLossRecord(30.0, "BDL", "BC+BB+BS", 2),
            DataLossRecord(30.0, "BDL", "BC+BB", cpb - 3),
        ]
        # The lost stripe is skipped.
        assert calls == [(PMDS, 3, 2)] + [(PMDS, 2, 2)] * (cpb - 3) + [(PMDS, 3, 2)]
        assert lost_stripes(sim) == set(range(lo, lo + cpb))

    def test_a_mission_of_blocks_lost_around_marked_stripes_matches_the_reference(
        self, monkeypatch
    ):
        # Bay 1's drive takes a bad block every 4 hours and bay 0's chip
        # fails at 100 h, on 64 blocks that collect about one bad symbol per
        # bay-hour: under PMDS(1,1) the chip's scan loses bad blocks around
        # marked stripes, with the results and judge-call count of the
        # reference engine, which judges every stripe in turn.
        layouts = []

        class Judge(_Simulation):
            def _judge_block(self, block, time, bdl_groups, unit_lost=False):
                stripes = range(block * self.cpb, (block + 1) * self.cpb)
                lost, symbols = set(self.lost.get(block, ())), self.bs_block.get(block, {})
                marked = [s for s in stripes if s in lost or s in symbols]
                plain = [s for s in stripes if s not in marked]
                own = any(
                    s not in lost and symbols[s].keys() <= self.bb_block[block] for s in marked
                )
                super()._judge_block(block, time, bdl_groups, unit_lost)
                if self.failed and plain and lost_stripes(self).issuperset(plain):
                    between = any(plain[0] < s < plain[-1] for s in marked)
                    layouts.append((bool(marked) and marked[0] < plain[0], between, own))

        pool = scripted_pool([drive(0, bc_time=100.0), drive(1, range(1, 100, 4)), drive(2)])
        draw = (GEOMETRY, flat_profile(1e-6), pool, [quiet_log(bits=1e6)], 1e6, 1e6, 150, 0)
        judge_like_reference(monkeypatch, draw, Judge, PMDS)
        assert (True, True, True) in layouts


class TestTimeline:
    """The mission end, and the same-hour order of the six event kinds.

    The order is scrub, rebuild, wear-out, bad chip, bad block, bad symbol;
    each order test fails if its pair of kinds swaps.
    """

    def test_nothing_happens_at_mission_end(self):
        # Bay 0 fails at 100 h; its rebuild would fall at 150 h, the mission
        # end, so it stays failed, and a symbol at 150 h on bay 1 is no loss.
        sim = make_sim(clean_pool(), ttr=50.0)
        schedule(sim, EventKind.BAD_CHIP, 0, [100.0])
        schedule(sim, EventKind.BAD_SYMBOL, 1, [149.5, 150.0], [9, 70])
        result = sim.run()
        assert result.records == (DataLossRecord(149.5, "SDL", "BC+BS", 1),)
        assert sim.failed == {0} and replaced(sim) == []

    def test_scrub_before_rebuild(self):
        # Bays 0 and 1 fail (ADL); bay 2's symbol at 30 h is not judged in
        # the ADL epoch.  The scrub at 50 h still sees the epoch and clears
        # the symbol; after bay 0's rebuild it would judge it as BC+BS.
        sim = make_sim(clean_pool(), ttr=40.0)
        schedule(sim, EventKind.BAD_CHIP, 0, [10.0])
        schedule(sim, EventKind.BAD_CHIP, 1, [20.0])
        schedule(sim, EventKind.BAD_SYMBOL, 2, [30.0], [9])
        schedule(sim, EventKind.SCRUB, -1, [50.0])
        result = sim.run()
        assert [(r.time, r.scope) for r in result.records] == [(20.0, "ADL")]

    def test_rebuild_before_wear_out(self):
        sim = make_sim(clean_pool(), ttr=40.0)
        schedule(sim, EventKind.BAD_CHIP, 1, [10.0])
        schedule(sim, EventKind.WEAR_OUT, 0, [50.0])
        assert replaced(sim) == [1, 0]
        assert sim.run().records == ()

    def test_wear_out_of_a_failed_bay_is_dropped(self):
        # Bay 0 fails at 10 h and is rebuilt at 60 h.  Its wear-out at 30 h
        # falls while it is down: the walk drops it, and only the rebuild
        # replaces the drive.
        sim = make_sim(clean_pool(), ttr=50.0)
        schedule(sim, EventKind.BAD_CHIP, 0, [10.0])
        schedule(sim, EventKind.WEAR_OUT, 0, [30.0])
        assert [row[2] for row in sim.timeline.boundaries] == [
            EventKind.BAD_CHIP, EventKind.RECONSTRUCT
        ]
        assert sim.run().records == () and not sim.failed

    def test_replacement_as_the_last_event_installs_its_drive(self):
        # Every drive takes a bad block half an hour after its install.  Bay
        # 0's wear-out at 149 h is the last event of the set-up timeline; its
        # new drive still brings its bad block at 149.5 h.
        sim = make_sim(scripted_pool([drive(i, bb_times=(0.5,)) for i in range(3)]))
        schedule(sim, EventKind.WEAR_OUT, 0, [149.0])
        assert list(scheduled(sim, 0, EventKind.BAD_BLOCK)[0]) == [0.5, 149.5]

    def test_arrivals_at_a_replacement_hour(self):
        # Every drive takes a bad block at its install hour.  Bay 0 wears out
        # at 50 h: its old drive's bad block and bad symbol at 50 h sort after
        # the wear-out and leave with the drive, while bay 1's symbol at 50 h
        # stays, and so does the new drive's bad block, after the wear-out.
        sim = make_sim(scripted_pool([drive(i, bb_times=(0.0,)) for i in range(3)]))
        schedule(sim, EventKind.BAD_SYMBOL, 0, [50.0], [9])
        schedule(sim, EventKind.BAD_BLOCK, 0, [50.0], [5])
        schedule(sim, EventKind.BAD_SYMBOL, 1, [50.0], [70])
        schedule(sim, EventKind.WEAR_OUT, 0, [50.0])
        # The replacement's own draw puts its bad block in block 12.
        _, kinds, _, stripes, _ = sim.draw._install(0, drive(0, bb_times=(0.0,)), 50.0, 1)
        assert stripes[kinds == EventKind.BAD_BLOCK].tolist() == [12 * sim.cpb]
        rows = [row for row in zip(*(c.tolist() for c in sim.columns)) if row[0] == 50.0]
        assert rows == [
            (50.0, EventKind.WEAR_OUT, 0, -1, -1),
            (50.0, EventKind.BAD_BLOCK, 0, 12 * sim.cpb, -1),
            (50.0, EventKind.BAD_SYMBOL, 1, *divmod(70, GEOMETRY.chunk_pages)),
        ]
        assert replaced(sim) == [0]

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

    def test_scrub_wear_out_and_bad_chip_at_one_hour(self):
        # Equal times sort by kind, then bay; a sort by time alone would keep
        # the order the events are given in, bad chip first.
        columns = [
            _columns(0, [50.0], EventKind.BAD_CHIP),
            _columns(1, [50.0], EventKind.WEAR_OUT),
            _columns(-1, [50.0, 100.0], EventKind.SCRUB),
            _columns(2, [10.0, 60.0], EventKind.BAD_SYMBOL, 3, 1),
        ]
        columns = [np.concatenate(c) for c in zip(*columns)]
        timeline = _Timeline(_sorted(columns, 150), GEOMETRY, 0, ())
        order = np.lexsort(columns[2::-1])
        assert [c.tolist() for c in timeline.columns] == [c[order].tolist() for c in columns]
        assert [row[2] for row in timeline.boundaries] == [
            EventKind.SCRUB, EventKind.WEAR_OUT, EventKind.BAD_CHIP, EventKind.SCRUB
        ]

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


class TestIsolation:
    """Which arrivals a timeline's isolation index holds, and the bulk path that takes them."""

    CPB = GEOMETRY.chunks_per_block

    def timeline(self):
        # A scrub at 100 h splits two intervals; block b's first stripe is 16 b.
        cpb = self.CPB
        symbols = [  # (hour, bay, stripe)
            (10.0, 0, cpb), (20.0, 1, cpb),  # two on one stripe
            (30.0, 0, 2 * cpb),  # alone; its stripe is hit again at 170 h
            (40.0, 0, 3 * cpb),  # alone; block 3 goes bad at 150 h
            (45.0, 1, 4 * cpb),  # block 4 went bad at 5 h
            (90.0, 2, 5 * cpb), (100.0, 2, 5 * cpb),  # the scrub at 100 h comes first
            (110.0, 0, 7 * cpb + 1),  # block 7 goes bad at 120 h
            (160.0, 1, 3 * cpb),
            (170.0, 1, 2 * cpb),
        ]
        bad_blocks = [  # (hour, bay, block)
            (5.0, 2, 4),  # a symbol on its block after it
            (150.0, 2, 3),  # a symbol on its block after it; one before it, but a scrub between
            (120.0, 1, 7),  # a symbol on its block before it
            (60.0, 0, 8),  # alone
            (130.0, 2, 9),  # alone
            (20.0, 0, 10), (70.0, 0, 10),  # twice on one block from one bay
            (110.0, 0, 11), (180.0, 1, 11),  # on one block from two bays
            (95.0, 1, 12), (105.0, 1, 12),  # once on each side of the scrub
        ]
        columns = [
            _columns(-1, [100.0], EventKind.SCRUB),
            *(_columns(i, [t], EventKind.BAD_BLOCK, b * cpb) for t, i, b in bad_blocks),
            *(_columns(i, [t], EventKind.BAD_SYMBOL, s, 0) for t, i, s in symbols),
        ]
        columns = _sorted((np.concatenate(c) for c in zip(*columns)), 200)
        timeline = _Timeline(columns, GEOMETRY, 0, ())
        return timeline, timeline.columns[0].tolist()

    def test_isolated_symbols(self):
        timeline, hours = self.timeline()
        positions, blocks, rest, rows = timeline.isolation
        assert [hours[k] for k in positions] == [30.0, 40.0, 90.0, 100.0, 170.0]
        arrivals = np.flatnonzero(timeline.columns[1] >= EventKind.BAD_BLOCK).tolist()
        assert rest == tuple(
            sorted(set(arrivals) - set(positions.tolist()) - set(blocks.tolist()))
        )
        times, _, bays, stripes, syms = (c.tolist() for c in timeline.columns)
        assert rows == tuple((times[k], bays[k], stripes[k], syms[k]) for k in rest)
        assert timeline.isolation[0] is positions  # computed once

    def test_isolated_bad_blocks(self):
        timeline, hours = self.timeline()
        _, blocks, *_ = timeline.isolation
        assert [hours[k] for k in blocks] == [60.0, 95.0, 105.0, 130.0]
        kinds = timeline.columns[1]
        assert (kinds[blocks] == EventKind.BAD_BLOCK).all()

    def test_a_one_arrival_pass_takes_its_isolated_arrival_in_bulk(self, monkeypatch):
        # On a healthy array the intake does not depend on the pass's size:
        # an isolated symbol alone in its pass waits as pending with one judge
        # call, and an isolated bad block alone in its pass with cpb calls.
        calls = count_judge_calls(monkeypatch)
        sim = make_sim(clean_pool())
        schedule(sim, EventKind.BAD_SYMBOL, 0, [10.0], [9])
        schedule(sim, EventKind.BAD_BLOCK, 1, [20.0], [5])
        consume(sim, 10.0)
        assert pending_stripes(sim) == [9 // GEOMETRY.chunk_pages] and not sim.bs_block
        assert calls == [(R5, 1, 0)]
        del calls[:]
        consume(sim, 20.0)
        assert pending_blocks(sim) == [5] and not sim.bb_block
        assert calls == [(R5, 1, 1)] * self.CPB
        assert not (sim.lost or sim.bs_block or sim.records)

    def test_bulk_path_raises_on_a_lost_lone_verdict(self, monkeypatch):
        # A healthy array's lone bad symbol is never lost (tests/test_codes.py);
        # a judge that says otherwise stops the bulk path instead of being ignored.
        judge = ssdfi.engine.uncorrectable
        monkeypatch.setattr(ssdfi.engine, "uncorrectable", lambda c, f, m: f > 0 or judge(c, f, m))
        sim = make_sim(clean_pool(), rber=1e-6, bits=1e6)  # about one symbol per bay-hour
        with pytest.raises(EngineError, match="loses a lone bad symbol"):
            sim.run()

    def test_bulk_path_raises_on_a_lost_lone_bad_block_verdict(self, monkeypatch):
        # No code loses a clean bad block on a healthy array: a judge that loses
        # a multi-symbol chunk there stops the bulk path at its isolated bad blocks.
        judge = ssdfi.engine.uncorrectable
        monkeypatch.setattr(ssdfi.engine, "uncorrectable", lambda c, f, m: m > 0 or judge(c, f, m))
        sim = make_sim(self.bad_block_pool(), rber=1e-6, bits=1e6, geometry=WIDE)
        assert len(sim.timeline.isolation[1])
        with pytest.raises(EngineError, match="loses a lone bad block"):
            sim.run()

    @staticmethod
    def bad_block_pool():
        # Every bay takes a bad block every other hour.
        return scripted_pool([drive(i, bb_times=range(1, 150, 2)) for i in range(3)])

    def test_one_index_spans_a_replacement(self, monkeypatch):
        # Every bay's drive wears out at 75 h, inside the mission's one scrub
        # interval.  The mission timeline's one index lists isolated symbols
        # and bad blocks on both sides of the wear-outs, the new drives'
        # included; the judge takes those after the wear-outs in bulk, with
        # the results and judge calls of the reference engine, which takes
        # every arrival one by one.
        profile = dataclasses.replace(flat_profile(1e-6), wol=75)
        log = quiet_log(pe_per_hour=1.0, bits=1e6)
        draw = (WIDE, profile, self.bad_block_pool(), [log], 1e6, 1e6, 150, 0)
        sim, result = judge_like_reference(monkeypatch, draw)
        assert replaced(sim) == [0, 1, 2]
        assert {row[1] for row in sim.timeline.boundaries} == {75.0}
        times = sim.columns[0]
        symbols, blocks, *_ = sim.timeline.isolation
        for isolated in (symbols, blocks):
            assert (times[isolated] < 75).any() and (times[isolated] > 75).any()
        # The wear-outs dropped what came before them; what is left came after.
        for pending in (sim.pending, sim.pending_bb):
            after = times[np.concatenate(pending)]
            assert len(after) and after.min() > 75
        assert result.records

    def drops(self, monkeypatch, pool, geometry):
        """Judge a mission whose bay 1 wears out at 100 h and whose bay 0's chip fails at 149 h.

        Bay 1's wear-out drops its pending arrivals; bay 0's chip drops bay
        0's, and its scan (RAID5, one bay down) loses every lone stripe and
        clean bad block, pending ones included.  Returns the result and, per
        drop, how many arrivals of each kind were pending before and after.
        """
        profile = dataclasses.replace(flat_profile(1e-6), wol=100)
        logs = [quiet_log(bits=1e6), quiet_log(pe_per_hour=1.0, bits=1e6)]
        drops = []

        class Judge(_Simulation):
            def counts(self):
                return sum(map(len, self.pending)), sum(map(len, self.pending_bb))

            def _drop_latent(self, i):
                before = self.counts()
                super()._drop_latent(i)
                drops.append((before, self.counts()))

        draw = (geometry, profile, pool, logs, 1e6, 1e6, 150, 0)
        sim, result = judge_like_reference(monkeypatch, draw, Judge)
        boundaries = [(time, kind, i) for _, time, kind, i in sim.timeline.boundaries]
        assert boundaries[:2] == [(100.0, EventKind.WEAR_OUT, 1), (149.0, EventKind.BAD_CHIP, 0)]
        assert not (sim.pending or sim.pending_bb)
        check_layout(sim)
        return result, drops

    def test_pending_symbols_drop_and_materialise_like_taken_ones(self, monkeypatch):
        # Pending symbols leave with their bay's drop, and the chip's scan
        # records the rest, as the reference engine does with every symbol
        # taken one by one.
        pool = scripted_pool([drive(0, bc_time=149.0), drive(1), drive(2)])
        result, drops = self.drops(monkeypatch, pool, GEOMETRY)
        (pending, _), (left, _) = drops[0]
        assert pending > 100 and 0 < pending - left < pending
        assert [r.cause for r in result.records].count("BC+BS") > 100

    def test_pending_bad_blocks_drop_and_materialise_like_taken_ones(self, monkeypatch):
        # As above, on an array wide enough that most bad blocks are isolated.
        # A dropped symbol leaves no mark on its block, which adds no call.
        bb_times = range(1, 150, 2)
        pool = scripted_pool(
            [drive(0, bb_times, bc_time=149.0), drive(1, bb_times), drive(2, bb_times)]
        )
        result, drops = self.drops(monkeypatch, pool, WIDE)
        (_, pending), (_, left) = drops[0]
        assert pending > 100 and 0 < pending - left < pending
        assert [r.cause for r in result.records].count("BC+BB") > 50


def judge_like_reference(monkeypatch, draw, judge=_Simulation, code=R5):
    """Judge the timeline of these `_Draw` arguments under `code`, as the reference engine does.

    The result and the number of judge calls must be the reference
    engine's.  Returns the judge and its result.
    """
    calls = count_judge_calls(monkeypatch)
    sim = judge(_Draw(*draw).timeline(), code)
    result = sim.run()
    ref_calls = []
    ref_judge = reference_engine.uncorrectable
    monkeypatch.setattr(
        reference_engine, "uncorrectable", lambda *a: ref_calls.append(a) or ref_judge(*a)
    )
    geometry, *rest = draw
    assert result == reference_engine._Simulation(geometry, code, *rest, 1.0).run()
    assert len(calls) == len(ref_calls)
    return sim, result


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
        for mission in (0, MISSION_HOURS + 1, 200.5):
            with pytest.raises(EngineError, match="mission"):
                run(pool, mission=mission)

    @pytest.mark.parametrize("tts, ttr", [
        (float("nan"), 10.0), (10.0, float("nan")), (float("inf"), 10.0), (10.0, -float("inf")),
    ])
    def test_rejects_non_finite_tts_and_ttr(self, tts, ttr):
        with pytest.raises(EngineError, match="tts and ttr must be finite and positive"):
            run(clean_pool(), tts=tts, ttr=ttr)

    @pytest.mark.parametrize("n_logs, seed, message", [
        (4, 0, "need 1 to 3 usage logs, one per bay, got 4"),
        (1, -1, "seed must be >= 0, got -1"),
        (1, True, "seed must be an integer, got True"),
        (1, np.True_, "seed must be an integer, got "),  # its repr varies with numpy
        (1, 2.0, "seed must be an integer, got 2.0"),
        (1, "1", "seed must be an integer, got '1'"),
    ], ids=["more-logs-than-bays", "negative-seed", "bool", "numpy-bool", "float", "str"])
    def test_rejects_inputs_before_any_hazard(self, monkeypatch, n_logs, seed, message):
        # A fourth log on three bays would be ignored, and a negative or a
        # float seed would fail inside numpy after the hazards are computed.
        monkeypatch.setattr(ssdfi.engine, "_fresh_hazard", lambda *a: pytest.fail("hazard"))
        with pytest.raises(EngineError, match=message):
            run_simulation(
                GEOMETRY, R5, flat_profile(), clean_pool(), [quiet_log()] * n_logs,
                1e6, 1e6, 150, seed,
            )

    @pytest.mark.parametrize("code", ["RAID5", None], ids=["name", "none"])
    def test_rejects_a_code_that_is_not_a_member_before_any_draw(self, monkeypatch, code):
        # A code name must fail here, not with a KeyError once the mission is drawn.
        monkeypatch.setattr(ssdfi.engine, "_fresh_hazard", lambda *a: pytest.fail("hazard"))
        with pytest.raises(EngineError, match=f"code must be an ErasureCode, got {code!r}"):
            run_simulation(
                GEOMETRY, code, flat_profile(), clean_pool(), [quiet_log()], 1e6, 1e6, 150, 0
            )

    def test_rejects_a_bool_seed_after_its_integer_was_drawn(self):
        # True == 1 with the same hash: the memo alone would judge seed 1's timeline.
        pool = clean_pool()
        assert run(pool, seed=1).seed == 1
        with pytest.raises(EngineError, match="seed must be an integer, got True"):
            run(pool, seed=True)

    def test_numpy_integer_seed_is_echoed_as_an_int(self):
        seed = np.int64(3)
        draw = _Draw(GEOMETRY, flat_profile(), clean_pool(), [quiet_log()], 1e6, 1e6, 150, seed)
        assert type(draw.seed) is int
        result = run(clean_pool(), seed=seed)
        assert type(result.seed) is int and result == run(clean_pool(), seed=3)
        json.dumps(dataclasses.asdict(result))

    def test_bays_on_one_log_share_its_arrays(self, monkeypatch):
        calls = []

        def dense_arrays(log, mission_hours):
            calls.append(log.device_id)
            return original(log, mission_hours)

        original = ssdfi.engine.dense_arrays
        monkeypatch.setattr(ssdfi.engine, "dense_arrays", dense_arrays)
        ssdfi.engine._fresh_hazard.cache_clear()
        logs = [quiet_log(), quiet_log(bits=1e6)]
        draw = _Draw(GEOMETRY, flat_profile(), clean_pool(), logs, 1e6, 1e6, 150, 0)
        assert len(calls) == 2  # three bays cycle over two logs
        assert draw.log_bits[0] is draw.log_bits[2] and draw.log_pe[0] is draw.log_pe[2]
        assert draw.log_bits[1] is not draw.log_bits[0]
        # Later missions on equal logs reuse the arrays, which nobody can write.
        again = _Draw(
            GEOMETRY, flat_profile(), clean_pool(), [quiet_log(), quiet_log(bits=1e6)],
            1e6, 1e6, 150, 1,
        )
        assert len(calls) == 2
        assert again.log_bits[1] is draw.log_bits[1]
        assert again.fresh_hazard[0] is draw.fresh_hazard[0]
        for arrays in (draw.log_bits, draw.log_pe, draw.fresh_hazard):
            assert not any(a.flags.writeable for a in arrays)


class TestScheduleMemo:
    """Timelines drawn once per pool and draw inputs, and judged again by later missions."""

    POOL_DRIVES = (
        drive(0, bb_times=(5.0, 40.0), bc_time=20.0),
        drive(1, bb_times=(8.0, 90.0)),
        drive(2, bb_times=(12.0, 60.0)),
    )

    def mission(self, pool, code=R5):
        """A judge of `code` on the timeline that `run_simulation` keeps for the pool."""
        run_simulation(GEOMETRY, code, flat_profile(), pool, [quiet_log()], 1e6, 10.0, 150, 0)
        return _Simulation(ssdfi.engine._SCHEDULES[pool][1], code)

    def test_shared_timelines_are_read_only(self):
        pool = scripted_pool(self.POOL_DRIVES)
        first = self.mission(pool)
        drawn = first.columns
        first.run()
        again = self.mission(pool, PMDS)
        assert again.columns is drawn
        again.run()
        assert replaced(again)
        for sim in (first, again):
            assert sim.timeline is ssdfi.engine._SCHEDULES[pool][1]
            assert not any(c.flags.writeable for c in sim.columns)
            assert isinstance(sim.timeline.boundaries, tuple)
            assert all(isinstance(row, tuple) for row in sim.timeline.boundaries)
            assert all(isinstance(c, tuple) for c in sim.timeline.isolation[2:])
            assert isinstance(sim.timeline.config, tuple)

    def test_memo_does_not_keep_a_pool_alive(self):
        pool = scripted_pool(self.POOL_DRIVES)
        self.mission(pool).run()
        entries = len(ssdfi.engine._SCHEDULES)
        del pool
        assert len(ssdfi.engine._SCHEDULES) == entries - 1

    def test_changed_timelines_stay_out_of_the_memo(self):
        # A mission whose timeline gets planted events leaves a later mission
        # of the same inputs as it would run on a fresh memo.
        pool = scripted_pool(self.POOL_DRIVES)
        want = self.mission(pool).run()
        assert [r.time for r in want.records] == [20.0, 20.0]  # both before the rebuild
        del ssdfi.engine._SCHEDULES[pool]
        sim = self.mission(pool)
        sim.draw = _Draw(GEOMETRY, flat_profile(), pool, [quiet_log()], 1e6, 10.0, 150, 0)
        for i in (1, 2):
            schedule(sim, EventKind.BAD_CHIP, i, [100.0])
        assert sim.run() != want
        assert self.mission(pool).run() == want
        assert self.mission(pool).run() == want
