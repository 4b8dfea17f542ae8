"""Differential test: the production engine against the per-event reference.

`reference_engine._Simulation` pushes and pops every event as its own
heap entry, pushes a rebuild when a bad chip fires, installs replacement
drives as it goes and skips the events of replaced drives by a generation
check.  `ssdfi.engine._Draw` draws the whole mission before judging: one
timeline sorted by time, kind and bay, each drive's rebuild drawn when the
drive is installed, and each replacement drive's events spliced in after
its rebuild or wear-out in place of the old drive's.  `ssdfi.engine._Simulation`
judges that timeline, consuming bad blocks and bad symbols in one pass
between boundary events.  Both engines must judge the same stripes in the
same order at the same times, so the results (records and their order
included) and the number of `uncorrectable` calls must be equal.  The
comparison draws each seed's timeline once and judges it under every code,
as a code sweep does; one test per code and one for the shared timeline
read its outcome.  The reference engine still takes the `mirror_copy_hours`
argument that the production engine dropped; it gets the value that
production results still echo.

The configurations are small and dense so that every path runs within a
short mission: a 4-device array of 32 stripes whose stripes collect
several bad symbols between scrubs, bad chips and bad blocks from the
criterion-8 stress profile compressed into the mission, short scrub and
rebuild times (ADL epochs and rebuilds), and a P/E ramp that wears drives
out every 300 hours.  Half of the seeds round every bad-symbol arrival
and every pool bad-block time up to a whole hour, so bad blocks and bad
symbols tie with each other, across bays, and with scrubs and wear-outs,
which exercises the same-time order.  Every pass with no failed device
takes its isolated arrivals in bulk, however few it holds: over the 1,000
seeds, 35,479 of the 289,057 arrivals in such passes (12.3%) wait as
pending, and the rest go through the engine's containers one by one.
Under each code, `handle_bad_symbol` takes 52,344 bad symbols on a
degraded array, and 39,333 (RAID5), 21,997 (RAID6) and 6,302 (PMDS11)
of the symbols it takes are lost as they arrive.
The bulk-intake test widens the
array to 1,024 stripes and raises the bad-symbol rate tenfold, so that
passes hold hundreds of isolated bad symbols (and a mission about twenty
isolated bad blocks), which the production engine takes in bulk and keeps
pending, across replacements, until a scan or a drop; a scan that loses
pending bad blocks there often loses walked bad blocks on both sides of
them, and the production engine sorts their records in among the walk's
by block.  The splice test keeps that rate on sixteen blocks, so that the
lone stripes a bad chip loses share blocks with multi-symbol stripes and
lie around touched bad blocks, where the production engine splices their
records in among the walk's by stripe.  A last sub-sweep of five bays
whose drives never wear out reaches scans where those records splice
around SDL records of another label (BC+BS+BS), from stripes that an
ADL epoch left unjudged.  The judges read their state only through
`judge_view`.
"""
import dataclasses
from collections import Counter

import numpy as np
import pytest

import reference_engine
import ssdfi.engine
from judge_view import Latent, judgements, latent, losses, replaced
from ssdfi.codes import ErasureCode
from ssdfi.geometry import ArrayGeometry
from ssdfi.pool import SsdPool, generate_pool
from ssdfi.profiles import MISSION_HOURS, RberCurve, SsdModelProfile
from ssdfi.workload import UsageLog

SEEDS = 1000
MISSION = 1_200
TTS = (30.0, 150.0, 800.0)
TTR = (5.0, 60.0, 400.0)

GEOMETRY = ArrayGeometry(
    n_devices=4, page_size=4096, pages_per_block=8, blocks_per_device=8, stripe_size=4 * 4096 * 2
)

PROFILE = SsdModelProfile(
    name="stress",
    technology="MLC",
    pct_bad_chip=0.8,
    pct_bad_block=0.6,
    median_bb=1,
    mean_bb=2.0,
    factory_bb_mean=0.0,
    factory_bb_std=0.0,
    wol=300,
    bb_escalation_threshold=1,
    bb_escalation_factor=1.0,
    rber_curve=RberCurve(points=((0.0, 5e-8), (1e9, 5e-8))),
)

# About 0.05 bad symbols per device-hour, one P/E cycle per hour.
LOG = UsageLog(
    device_id="ramp",
    hours=tuple(range(24)),
    bits_read=(5e5,) * 24,
    bits_written=(5e5,) * 24,
    pe_cycles=tuple(float(h) for h in range(24)),
)


@pytest.fixture(scope="module")
def pool():
    """The criterion-8 stress pool with its schedules compressed into the mission."""
    stress = dataclasses.replace(PROFILE, wol=10**8)
    base = generate_pool(stress, 400, 2_048, seed=7)
    scale = MISSION / MISSION_HOURS
    drives = tuple(
        dataclasses.replace(
            d,
            mission_bb_times=tuple(t * scale for t in d.mission_bb_times),
            bad_chip_time=None if d.bad_chip_time is None else d.bad_chip_time * scale,
        )
        for d in base.drives
    )
    return SsdPool(base.profile_name, base.blocks_per_device, base.seed, drives)


@pytest.fixture(scope="module")
def hourly_pool(pool):
    """`pool` with every bad-block time rounded up to a whole hour."""
    drives = tuple(
        dataclasses.replace(d, mission_bb_times=np.unique(np.ceil(d.mission_bb_times)))
        for d in pool.drives
    )
    return SsdPool(pool.profile_name, pool.blocks_per_device, pool.seed, drives)


def _hourly(cls):
    """`cls` with every bad-symbol arrival rounded up to a whole hour."""

    class Hourly(cls):
        def _draw_bs_times(self, *args):
            return np.ceil(super()._draw_bs_times(*args))

    return Hourly


@pytest.fixture(scope="module")
def setups(pool, hourly_pool):
    """(production draw class, reference engine class, pool), by whether arrivals are hourly."""
    return {
        False: (ssdfi.engine._Draw, reference_engine._Simulation, pool),
        True: (_hourly(ssdfi.engine._Draw), _hourly(reference_engine._Simulation), hourly_pool),
    }


@pytest.fixture(scope="module")
def sweep(setups):
    """Each seed's timeline drawn once and judged under every code, by both engines.

    Seed-major, as a code sweep runs: one timeline per seed, its replacement
    drives included.  Returns, per code, the first seed whose result or
    judge-call count differs from the reference (None if none) and the path
    totals, plus the first (seed, code) at which the judge drew a drive.
    Among the totals are the bad symbols that `handle_bad_symbol` takes on
    a degraded array and those whose arrival it records as a loss.
    """
    keys = ("records", "ADL", "BDL", "SDL", "judged", "replaced", "degraded", "lost_on_arrival")
    totals = {code: dict.fromkeys(keys, 0) for code in ErasureCode}
    result_diff = dict.fromkeys(ErasureCode)
    calls_diff = dict.fromkeys(ErasureCode)
    judge_drew = None
    with pytest.MonkeyPatch.context() as monkeypatch:
        new_calls = judgements(monkeypatch)
        ref_calls = judgements(monkeypatch, reference_engine)
        draws = [0]  # drive installs, initial and replacement
        install = ssdfi.engine._Draw._install
        monkeypatch.setattr(
            ssdfi.engine._Draw,
            "_install",
            lambda *a: draws.__setitem__(0, draws[0] + 1) or install(*a),
        )
        handle = ssdfi.engine._Simulation.handle_bad_symbol

        def handle_bad_symbol(sim, *args):
            counts, records = totals[sim.code], len(losses(sim))
            counts["degraded"] += bool(sim.failed)
            handle(sim, *args)
            counts["lost_on_arrival"] += len(losses(sim)) > records

        monkeypatch.setattr(ssdfi.engine._Simulation, "handle_bad_symbol", handle_bad_symbol)
        for seed in range(SEEDS):
            tts, ttr = TTS[seed % 3], TTR[seed // 3 % 3]
            draw, ref, seed_pool = setups[seed % 2 == 1]
            timeline = draw(GEOMETRY, PROFILE, seed_pool, [LOG], tts, ttr, MISSION, seed).timeline()
            drawn = draws[0]
            for code in ErasureCode:
                args = (GEOMETRY, code, PROFILE, seed_pool, [LOG], tts, ttr, MISSION, seed)
                del new_calls[:], ref_calls[:]
                sim = ssdfi.engine._Simulation(timeline, code)
                got, want = sim.run(), ref(*args, 1.0).run()
                if got != want and result_diff[code] is None:
                    result_diff[code] = seed
                if len(new_calls) != len(ref_calls) and calls_diff[code] is None:
                    calls_diff[code] = seed
                if draws[0] != drawn and judge_drew is None:
                    judge_drew = seed, code.value
                counts = totals[code]
                counts["records"] += len(got.records)
                counts["judged"] += len(new_calls)
                counts["replaced"] += len(replaced(sim))
                for rec in got.records:
                    counts[rec.scope] += 1
    return {"totals": totals, "result": result_diff, "calls": calls_diff, "drew": judge_drew}


@pytest.mark.parametrize("code", list(ErasureCode), ids=lambda c: c.value)
def test_engine_matches_reference(sweep, code):
    assert sweep["result"][code] is None, f"seed {sweep['result'][code]}: results differ"
    assert sweep["calls"][code] is None, f"seed {sweep['calls'][code]}: judge calls differ"
    # The configuration must reach every path it is meant to cover, among
    # them `handle_bad_symbol` on a degraded array and a loss on arrival.
    assert min(sweep["totals"][code].values()) > 0, sweep["totals"][code]


def test_one_timeline_judged_under_each_code_matches_reference(sweep):
    # One drawn timeline serves every code: judging never draws, each code
    # judges the drawn replacements again, and every code matches the reference.
    assert sweep["drew"] is None, f"seed {sweep['drew'][0]}, {sweep['drew'][1]}: the judge drew"
    for code, counts in sweep["totals"].items():
        assert counts["replaced"] > SEEDS, (code.value, counts)
        assert sweep["result"][code] is None, (code.value, sweep["result"][code])
        assert sweep["calls"][code] is None, (code.value, sweep["calls"][code])


def _mission(**changes):
    """The `run_simulation` result of one dense RAID6 mission, with some inputs changed."""
    kwargs = dict(
        geometry=GEOMETRY, code=ErasureCode.RAID6, profile=PROFILE, pool=None,
        usage_logs=[LOG], tts=150.0, ttr=60.0, mission=MISSION, seed=11,
    )
    kwargs.update(changes)
    return ssdfi.engine.run_simulation(**kwargs)


def test_every_draw_input_keys_the_schedule(pool, hourly_pool):
    # A mission that changes one input of the draws after a first mission on
    # the same pool must not judge the first's timeline.
    ten_pe = dataclasses.replace(LOG, pe_cycles=tuple(10 * p for p in LOG.pe_cycles))
    changes = {
        "tts": dict(tts=30.0),
        "ttr": dict(ttr=5.0),
        "mission": dict(mission=MISSION - 200),
        "seed": dict(seed=12),
        "logs": dict(usage_logs=[ten_pe]),
        "geometry": dict(geometry=dataclasses.replace(GEOMETRY, blocks_per_device=6)),
        "profile": dict(profile=dataclasses.replace(PROFILE, wol=150)),
        "pool": dict(pool=hourly_pool),
    }
    base = _mission(pool=pool)
    for name, change in changes.items():
        change = {"pool": pool, **change}
        ssdfi.engine._SCHEDULES.clear()
        want = _mission(**change)
        assert want != base, name  # the input changes the mission
        ssdfi.engine._SCHEDULES.clear()
        assert _mission(pool=pool) == base
        assert _mission(**change) == want, name


# A wider array (1,024 stripes) under ten times the bad-symbol rate: a scrub
# interval holds hundreds of arrivals, most of them alone on their stripe, so
# the production engine takes them in bulk and keeps them pending.
WIDE = dataclasses.replace(GEOMETRY, blocks_per_device=256)
WIDE_PROFILE = dataclasses.replace(PROFILE, rber_curve=RberCurve(points=((0.0, 5e-7), (1e9, 5e-7))))
BULK_SEEDS = 60


# The two kinds of pending arrival, as `_Pending` counts them.
KINDS = ("", " bad blocks")


def _judge_like_reference(
    monkeypatch, setups, judge, geometry, profile, seeds, log=LOG, times=None
):
    """Judge each seed's mission under every code with `judge`, as the reference does.

    Seed-major, so a seed's codes share one timeline and its isolation
    index.  A seed's (tts, ttr) are `times`, or the sweep's by default.
    Each result and its judge-call count must be the reference engine's.
    Returns the judge's `counts`, cleared first.
    """
    new_calls = judgements(monkeypatch)
    ref_calls = judgements(monkeypatch, reference_engine)
    judge.counts.clear()
    for seed in range(seeds):
        tts, ttr = times or (TTS[seed % 3], TTR[seed // 3 % 3])
        draw, ref, seed_pool = setups[seed % 2 == 1]
        timeline = draw(geometry, profile, seed_pool, [log], tts, ttr, MISSION, seed).timeline()
        for code in ErasureCode:
            args = (geometry, code, profile, seed_pool, [log], tts, ttr, MISSION, seed)
            del new_calls[:], ref_calls[:]
            got, want = judge(timeline, code).run(), ref(*args, 1.0).run()
            assert got == want, f"seed {seed}, {code.value}"
            assert len(new_calls) == len(ref_calls), f"seed {seed}, {code.value}"
    return judge.counts


def _pending(state) -> tuple[tuple, tuple]:
    """The two kinds of pending arrival of a `Latent`, in `KINDS` order."""
    return state.pending_symbols, state.pending_blocks


class _Pending(ssdfi.engine._Simulation):
    """The production judge, counting how its pending isolated arrivals come and go.

    `state` is the judge's state after its last intake, scan, drop or
    scrub; each of them counts, per kind, what it changed.  `kept` holds
    the stripes pending after the last rebuild or wear-out (an isolated
    arrival's stripe, or its block, is the only one of its scrub
    interval); the next scan or scrub counts those still pending.  A scan
    interleaves the pending bad blocks it loses with its walk's BDL groups
    when, in block order, neither side comes wholly first.  It loses
    pending bad blocks only on a degraded array, where every stripe it
    loses on a bad block of the walk is in a BDL group.
    """

    counts: Counter = Counter()
    state, kept = Latent(), None  # a new judge's

    def _step(self, key, count):
        """Count, per kind, `count(before, after)` of the step that has just run."""
        before, self.state = self.state, latent(self)
        for kind, b, a in zip(KINDS, _pending(before), _pending(self.state)):
            self.counts[key + kind] += count(b, a)
        return before

    def _consume_arrivals(self, end):
        super()._consume_arrivals(end)
        self._step("bulk arrivals", lambda b, a: len(a) - len(b))

    def _judge_latent(self, time):
        super()._judge_latent(time)
        before = self._step("scans that lose them", lambda b, a: bool(b) and not a)
        after = self.state
        lost = set(before.pending_blocks) - set(after.pending_blocks)
        newly = after.lost_stripes - before.lost_stripes
        walked = {s // self.cpb for s in newly} & before.bad_blocks.keys()
        if lost and walked:
            mixed = min(walked) < max(lost) and min(lost) < max(walked)
            self.counts["scans interleaving lost bad blocks"] += mixed

    def _drop_latent(self, i):
        super()._drop_latent(i)
        self._step("pending drops", lambda b, a: len(b) > len(a))

    def _count_kept(self):
        if self.kept is not None:
            for kind, kept, now in zip(KINDS, self.kept, _pending(self.state)):
                self.counts["pending across replacements" + kind] += len(set(kept) & set(now))
            self.kept = None

    def apply_scrub(self, time):
        self._count_kept()
        super().apply_scrub(time)
        self.state = latent(self)

    def handle_bad_chip(self, i, time):
        self._count_kept()
        super().handle_bad_chip(i, time)

    def apply_reconstruct(self, i, time):
        super().apply_reconstruct(i, time)
        self.kept = _pending(self.state)

    def replace_worn_out(self, i, time):
        super().replace_worn_out(i, time)
        self.kept = _pending(self.state)


def test_bulk_intake_matches_reference(setups, monkeypatch):
    counts = _judge_like_reference(monkeypatch, setups, _Pending, WIDE, WIDE_PROFILE, BULK_SEEDS)
    # Every way a pending arrival of either kind comes and leaves must have been taken.
    ways = "bulk arrivals", "scans that lose them", "pending across replacements", "pending drops"
    keys = [way + kind for way in ways for kind in KINDS] + ["scans interleaving lost bad blocks"]
    assert min(counts[k] for k in keys) > 0, counts


def test_judging_leaves_the_timeline_as_drawn(pool):
    # One timeline judged under every code gives the results of one
    # `run_simulation` call per code on a cleared memo, and its shared
    # columns stay as drawn and read-only.
    for seed in range(20):
        kwargs = dict(
            geometry=WIDE, profile=WIDE_PROFILE, pool=pool, usage_logs=[LOG],
            tts=TTS[seed % 3], ttr=TTR[seed // 3 % 3], mission=MISSION, seed=seed,
        )
        timeline = ssdfi.engine._Draw(**kwargs).timeline()
        drawn = [c.copy() for c in timeline.columns]
        for code in ErasureCode:
            got = ssdfi.engine._Simulation(timeline, code).run()
            ssdfi.engine._SCHEDULES.clear()
            assert got == ssdfi.engine.run_simulation(code=code, **kwargs), f"seed {seed}"
        assert all(np.array_equal(c, d) for c, d in zip(timeline.columns, drawn))
        assert not any(c.flags.writeable for c in timeline.columns)


# Sixteen blocks of four stripes under ten times the bad-symbol rate: a bad chip
# often loses lone stripes in blocks that also hold a multi-symbol stripe, and
# on both sides of a bad block that bad symbols or losses touch.
DENSE = dataclasses.replace(GEOMETRY, blocks_per_device=16)
SPLICE_SEEDS = 40


class _Splice(ssdfi.engine._Simulation):
    """The production judge, counting the scans whose lost pending stripes meet other faults.

    A scan loses pending symbols only on a degraded array, where a stripe
    it loses on a bad block is a BDL and any other is an SDL.  An SDL whose
    stripe holds symbols from two bays or more has another label than the
    lost pending stripes' shared record; when it lies above one of them,
    only the splice by stripe puts the records in the reference's order.
    """

    counts: Counter = Counter()

    def _judge_latent(self, time):
        before = latent(self)
        super()._judge_latent(time)
        after = latent(self)
        if not before.pending_symbols or after.pending_symbols:
            return  # no pending symbol lost
        cpb = self.cpb
        lone = sorted(before.pending_symbols)
        multi = {s // cpb for s, per in before.symbols.items() if sum(map(len, per.values())) > 1}
        shared = not multi.isdisjoint(s // cpb for s in lone)
        touched = {s // cpb for s in (*before.symbols, *before.lost_stripes)}
        around = any(lone[0] < b * cpb <= lone[-1] for b in before.bad_blocks if b in touched)
        self.counts["lone in multi-symbol blocks"] += shared
        self.counts["lone around touched bad blocks"] += around
        self.counts["both"] += shared and around
        newly = after.lost_stripes - before.lost_stripes
        sdl = [s for s in newly if s // cpb not in before.bad_blocks]
        if any(s > lone[0] and len(before.symbols[s]) > 1 for s in sdl):
            self.counts["lone below an SDL of another label"] += 1


def test_lost_lone_stripes_splice_into_the_scan(setups, monkeypatch):
    # A scan records lost pending stripes from their positions, with no container
    # entry, and splices their records in among its walk's by stripe: the records
    # and their order must still be the reference engine's.
    counts = _judge_like_reference(monkeypatch, setups, _Splice, DENSE, WIDE_PROFILE, SPLICE_SEEDS)
    assert min(counts.values()) > 0 and len(counts) >= 3, counts


# Five bays whose drives never wear out, four times the base bad-symbol rate,
# long rebuilds and no scrub in the mission.  Under RAID5 an ADL epoch takes
# symbols unjudged, some of them on stripes that another bay's symbol holds;
# once both bays are rebuilt, the next bad chip's scan loses those stripes
# (BC+BS+BS) together with the pending lone stripes (BC+BS) around them.
FIVE = dataclasses.replace(WIDE, n_devices=5, stripe_size=5 * 4096 * 2)
FIVE_PROFILE = dataclasses.replace(PROFILE, rber_curve=RberCurve(points=((0.0, 2e-7), (1e9, 2e-7))))
UNWORN_LOG = dataclasses.replace(LOG, pe_cycles=(0.0,) * len(LOG.hours))
TIMES = (2.0 * MISSION, 300.0)  # tts, ttr
EPOCH_SEEDS = 20


def test_lost_lone_stripes_splice_around_sdl_records_of_another_label(setups, monkeypatch):
    # Appending the shared records after the walk's would put them after a
    # BC+BS+BS record of a higher stripe: only the splice matches the reference.
    counts = _judge_like_reference(
        monkeypatch, setups, _Splice, FIVE, FIVE_PROFILE, EPOCH_SEEDS, UNWORN_LOG, TIMES
    )
    assert counts["lone below an SDL of another label"] > 0, counts
