"""Discrete-event Monte Carlo simulation of one SSD array mission.

Drives drawn from a pool replay their pre-drawn fault schedules (bad
chips and bad blocks) while bad symbols arrive as a Poisson process
whose hourly rate follows the workload (accessed bits) and the wear
state (RBER at the current P/E count).  Latent faults persist until a
scrub rewrites them or a reconstruction replaces the device.  Every
fault arrival judges the stripes it touches under the configured
erasure code; uncorrectable stripes produce data loss records:

  * ADL: concurrent device failures exceed the code tolerance; the
    whole array is lost.
  * BDL: a bad block participates together with another whole-chunk
    fault; the lost stripes are confined to one block's range.
  * SDL: everything else; a single stripe.

A stripe is recorded at most once per fault epoch (until its latent
faults are cleared), so repeated scans never double count.

Every event of a mission sits on one timeline of columns (times, kinds,
bays, stripes, symbols), sorted by `np.lexsort((bays, kinds, times))`:
by time, then `EventKind` (scrub, rebuild, wear-out, bad chip, bad
block, bad symbol), then bay; the sort is stable, so a bay's draws of
one kind keep their order.  Events at or after the mission end are
dropped.  Scrubs are placed once, at set-up.  Each drive contributes its
whole schedule when it is installed: bad blocks, bad symbols, wear-out,
and its bad chip together with the rebuild `ttr` hours later.  The
rebuild can be drawn at install because a bay fails only through its own
drive's chip and a failed bay skips its wear-out: a chip and its rebuild
both fire, or both belong to a drive that was replaced before the chip.
Replacing a drive swaps the bay's untaken events for the new drive's, so
no stale event stays on the timeline.  The loop consumes the bad blocks
and bad symbols up to the next boundary event (scrub, rebuild, wear-out,
bad chip) in one pass, then handles that event.  Arrivals on a failed
bay are dropped.

Latent faults live in four containers: `bb_block` maps a block to the
bays whose chunk of it is bad, `bs_stripe` maps a stripe to its bays'
bad symbol sets, `recorded` holds the stripes lost in this fault epoch,
and `bs_lone` maps a stripe to the (bay, symbol) of its one bad symbol
when that symbol is the stripe's only latent fault, the stripe is not
recorded and its block is not bad.  Most arrivals land on clean stripes
and stay lone.  A lone stripe moves to `bs_stripe` when anything else
touches it: another arrival, a bad block on its block, or a loss.

Every judged stripe costs exactly one `uncorrectable` call, read through
this module's global, because traced runs of the benchmark pin the call
count (`codes.judge_calls`) and the differential test compares it with
the reference engine.  A lone symbol's counts depend only on the number
of failed bays, so lone verdicts are issued in batches: a pass's fresh
lone arrivals in one `map` just before the pass's next other judgement
and at its end, and every lone stripe in one `map` at a scrub or bad
chip.  Losses keep their record order: arrival order in a pass, stripe
order among the SDL records of a scan.

A drive installed at P/E offset 0 (every drive at the mission start)
has a hazard that depends only on its usage log, the RBER curve and the
mission length.  `_fresh_hazard` computes it once per such value and
shares the read-only arrays with every mission in the process.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import IntEnum
from itertools import repeat

import numpy as np

from .codes import DEVICE_TOLERANCE, ErasureCode, stripe_counts, uncorrectable
from .geometry import ArrayGeometry
from .pool import PooledSsd, SsdPool
from .profiles import MISSION_HOURS, RberCurve, SsdModelProfile
from .workload import UsageLog, dense_arrays

ENGINE_VERSION = 1


class EngineError(ValueError):
    """Invalid simulation parameters or events."""


class EventKind(IntEnum):
    """Event kinds; the numeric value is the same-time order."""

    SCRUB = 0
    RECONSTRUCT = 1
    WEAR_OUT = 2
    BAD_CHIP = 3
    BAD_BLOCK = 4
    BAD_SYMBOL = 5


@dataclass(frozen=True)
class DataLossRecord:
    time: float
    scope: str  # "ADL" | "BDL" | "SDL"
    cause: str  # canonical label, e.g. "BC+BB"
    stripes_lost: int


@dataclass(frozen=True)
class SimResult:
    seed: int
    records: tuple[DataLossRecord, ...]
    stripes_lost: int
    bytes_lost: int
    scope_stripes: dict[str, int]
    cause_totals: dict[str, tuple[int, int]]  # label -> (records, stripes)
    ddf: int
    tdf: int
    config: dict


def _cause_label(n_bc: int, n_bb: int, n_bs: int) -> str:
    return "+".join(["BC"] * n_bc + ["BB"] * n_bb + ["BS"] * n_bs)


def _columns(bay: int, times, kinds, stripes=-1, syms=-1) -> tuple[np.ndarray, ...]:
    """Timeline columns (times, kinds, bays, stripes, symbols) of one bay's events.

    A bad block's stripe is its block's first; events other than bad
    symbols have symbol -1.
    """
    times = np.asarray(times, dtype=float)
    return (times, *(
        np.broadcast_to(np.asarray(c, dtype=np.int64), times.shape)
        for c in (kinds, bay, stripes, syms)
    ))


def _cumulative_hazard(bits: np.ndarray, pe: np.ndarray, curve: RberCurve) -> np.ndarray:
    """Cumulative bad-symbol hazard by hour of a drive at these hourly bits and P/E counts."""
    rber = np.interp(pe, *zip(*curve.points))
    # Summed from hour 0 even on a late install: a sum from the install
    # hour rounds differently and moves the arrival times' float bits.
    return np.concatenate(([0.0], np.cumsum(rber * bits)))


@functools.lru_cache(maxsize=32)  # about 0.84 MB per entry at MISSION_HOURS
def _fresh_hazard(
    log: UsageLog, curve: RberCurve, mission: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bits, P/E, cumulative hazard) by hour of a fresh drive on `log`; read-only, shared."""
    bits, pe = dense_arrays(log, mission)
    arrays = (bits, pe, _cumulative_hazard(bits, pe, curve))
    for array in arrays:
        array.flags.writeable = False
    return arrays


class _Simulation:
    def __init__(
        self,
        geometry: ArrayGeometry,
        code: ErasureCode,
        profile: SsdModelProfile,
        pool: SsdPool,
        usage_logs: list[UsageLog],
        tts: float,
        ttr: float,
        mission: int,
        seed: int,
    ):
        if not usage_logs:
            raise EngineError("need at least one usage log")
        if tts <= 0 or ttr <= 0:
            raise EngineError("tts and ttr must be positive")
        if not 1 <= mission <= MISSION_HOURS:
            # Pool schedules end at MISSION_HOURS; a longer mission would
            # silently see no bad blocks or bad chips after that hour.
            raise EngineError(f"mission must be between 1 and {MISSION_HOURS} hours")
        if len(pool.drives) < geometry.n_devices:
            raise EngineError("pool smaller than the array")
        self.geometry = geometry
        self.code = code
        self.profile = profile
        self.pool = pool
        self.tts = float(tts)
        self.ttr = float(ttr)
        self.mission = int(mission)
        self.seed = seed
        self.tolerance = DEVICE_TOLERANCE[code]
        self.cp = geometry.chunk_pages
        self.cpb = geometry.chunks_per_block

        n = geometry.n_devices
        self.rng_repl = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        rng_sel = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        initial = rng_sel.choice(len(pool.drives), size=n, replace=False)

        # Hazard ingredients per bay.  Logs are cycled over the bays, and
        # bays on one log share its read-only arrays.
        fresh = [_fresh_hazard(log, profile.rber_curve, self.mission) for log in usage_logs[:n]]
        self.log_bits, self.log_pe, self.fresh_hazard = map(list, zip(*(fresh * n)[:n]))
        self.hour_grid = np.arange(self.mission + 1, dtype=float)

        self.installs = [0] * n  # replacements per bay; part of each install's seed
        self.failed: set[int] = set()
        self.bb_block: dict[int, set[int]] = {}
        self.bs_stripe: dict[int, dict[int, set[int]]] = {}
        self.bs_lone: dict[int, tuple[int, int]] = {}
        self.recorded: set[int] = set()
        self.records: list[DataLossRecord] = []
        self.ddf = 0
        self.tdf = 0
        self.adl_epoch = False

        scrubs = []
        t = self.tts
        while t < self.mission:
            scrubs.append(t)
            t += self.tts
        events = [self._install(i, pool.drives[int(initial[i])], 0.0) for i in range(n)]
        events.append(_columns(-1, scrubs, EventKind.SCRUB))
        self._set_timeline(*(np.concatenate(column) for column in zip(*events)))

    # -- installation and schedules -------------------------------------

    def _install(self, i: int, drive: PooledSsd, now: float) -> tuple[np.ndarray, ...]:
        """Draw the schedule of `drive` installed in bay i at `now`; return its columns."""
        pe_offset = float(self.log_pe[i][min(int(now), self.mission - 1)]) if now else 0.0
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 3, i, self.installs[i]]))

        # Cut at the mission end before drawing locations: later draws
        # depend on how many are drawn.
        bb = drive.mission_bb_times + now
        bb = bb[bb < self.mission]
        blocks = (rng.random(len(bb)) * self.geometry.blocks_per_device).astype(np.int64)

        bs = self._draw_bs_times(self._hazard(i, pe_offset), now, rng)
        symbols = (rng.random(len(bs)) * self.geometry.symbols_per_device).astype(np.int64)
        stripes, syms = np.divmod(symbols, self.cp)

        events = [
            _columns(i, bb, EventKind.BAD_BLOCK, blocks * self.cpb),
            _columns(i, bs, EventKind.BAD_SYMBOL, stripes, syms),
        ]
        if drive.bad_chip_time is not None:
            t_bc = now + drive.bad_chip_time
            events.append(
                _columns(i, [t_bc, t_bc + self.ttr], [EventKind.BAD_CHIP, EventKind.RECONSTRUCT])
            )
        wear = np.searchsorted(self.log_pe[i], self.profile.wol + pe_offset)
        if wear > now:
            events.append(_columns(i, [float(wear)], EventKind.WEAR_OUT))
        return tuple(np.concatenate(column) for column in zip(*events))

    def _hazard(self, i: int, pe_offset: float) -> np.ndarray:
        """Bay i's cumulative bad-symbol hazard by hour, `pe_offset` P/E cycles below its log."""
        if not pe_offset:
            return self.fresh_hazard[i]
        return _cumulative_hazard(
            self.log_bits[i], self.log_pe[i] - pe_offset, self.profile.rber_curve
        )

    def _draw_bs_times(self, cum: np.ndarray, now: float, rng: np.random.Generator) -> np.ndarray:
        h0 = float(np.interp(now, self.hour_grid, cum))
        total = float(cum[-1]) - h0
        if total <= 0:
            return np.zeros(0)
        chunks = []
        drawn = 0.0
        while drawn <= total:
            size = max(16, int(total - drawn + 10 * math.sqrt(total) + 10))
            exp = rng.exponential(1.0, size=size)
            chunks.append(exp)
            drawn += float(exp.sum())
        targets = h0 + np.cumsum(np.concatenate(chunks))
        targets = targets[targets < cum[-1]]
        times = np.interp(targets, cum, self.hour_grid)
        return times[times > now]

    # -- judging ----------------------------------------------------------

    def _judge_stripes(self, stripes, time: float, lone_lost=()) -> None:
        """Judge stripes, emit records for newly uncorrectable ones.

        `lone_lost` holds lone stripes that their batch has just judged
        lost (and recorded); their SDL records take their stripe's place.
        """
        code = self.code
        nf = len(self.failed)
        cpb = self.cpb
        bb_block = self.bb_block
        bs_stripe = self.bs_stripe
        recorded = self.recorded
        judge = uncorrectable  # read per call: wrappers patch the module global
        bdl_groups: dict[tuple[int, str], int] = {}
        block = -1
        block_counts = None
        for stripe in stripes:
            if stripe in recorded:
                if stripe in lone_lost:
                    self.records.append(DataLossRecord(time, "SDL", _cause_label(nf, 0, 1), 1))
                continue
            bs = bs_stripe.get(stripe)
            if bs is None:
                # No bad symbols: the stripe counts as its block does.
                if stripe // cpb != block:
                    block = stripe // cpb
                    block_counts = stripe_counts(nf, bb_block.get(block), None)
                faulty, multi, n_bb, n_bs = block_counts
            else:
                faulty, multi, n_bb, n_bs = stripe_counts(nf, bb_block.get(stripe // cpb), bs)
            if not judge(code, faulty, multi):
                continue
            recorded.add(stripe)
            label = _cause_label(nf, n_bb, n_bs)
            if n_bb >= 1 and nf + n_bb >= 2:
                key = (stripe // cpb, label)
                bdl_groups[key] = bdl_groups.get(key, 0) + 1
            else:
                self.records.append(DataLossRecord(time, "SDL", label, 1))
        for (_, label), count in bdl_groups.items():
            self.records.append(DataLossRecord(time, "BDL", label, count))

    def _lone_verdicts(self, n: int) -> list[bool]:
        """Verdicts on n lone bad symbols: one `uncorrectable` call each, in one batch."""
        faulty, multi, _, _ = stripe_counts(len(self.failed), None, {-1: (0,)})
        return list(map(uncorrectable, repeat(self.code, n), repeat(faulty, n), repeat(multi, n)))

    def _promote(self, stripe: int) -> None:
        """Move a lone stripe's symbol to `bs_stripe`."""
        i, sym = self.bs_lone.pop(stripe)
        self.bs_stripe[stripe] = {i: {sym}}

    def _lose_lone(self, stripe: int) -> None:
        """Mark a lone stripe lost: it is recorded and leaves `bs_lone`."""
        self._promote(stripe)
        self.recorded.add(stripe)

    def _judge_pending(self, pending: list[int]) -> None:
        """Judge the fresh lone symbols at these timeline indices; losses are recorded at their times."""
        lost = self._lone_verdicts(len(pending))
        if any(lost):
            times, stripes = self.timeline[0], self.timeline[3]
            label = _cause_label(len(self.failed), 0, 1)
            for k, is_lost in zip(pending, lost):
                if is_lost:
                    self._lose_lone(stripes[k])
                    self.records.append(DataLossRecord(times[k], "SDL", label, 1))
        pending.clear()

    def _judge_latent(self, time: float) -> None:
        """Judge every latent stripe: the lone ones in one batch, the rest one by one."""
        lost = self._lone_verdicts(len(self.bs_lone))
        if any(lost):
            lost = {stripe for stripe, is_lost in zip(self.bs_lone, lost) if is_lost}
            for stripe in lost:
                self._lose_lone(stripe)
        else:
            lost = ()
        self._judge_stripes(self._latent_stripes(), time, lost)

    def _latent_stripes(self):
        """Sorted stripes on a bad block or in `bs_stripe`: every latent stripe but the lone ones."""
        if not self.bb_block:
            return sorted(self.bs_stripe)
        blocks = np.fromiter(self.bb_block, np.int64, len(self.bb_block))
        stripes = (blocks[:, None] * self.cpb + np.arange(self.cpb)).ravel()
        if self.bs_stripe:
            bs = np.fromiter(self.bs_stripe, np.int64, len(self.bs_stripe))
            stripes = np.concatenate((stripes, bs))
        return np.unique(stripes).tolist()

    # -- timeline -----------------------------------------------------------

    def _set_timeline(self, *columns: np.ndarray) -> None:
        """Make these (times, kinds, bays, stripes, symbols) the untaken timeline.

        Events at or after the mission end are dropped.  `boundaries`
        yields the indices of its scrubs, rebuilds, wear-outs and bad chips.
        """
        times, kinds, bays, _, _ = columns
        order = np.lexsort((bays, kinds, times))
        order = order[times[order] < self.mission]
        self.untaken = tuple(c[order] for c in columns)
        self.timeline = tuple(c.tolist() for c in self.untaken)
        self.boundaries = iter(np.flatnonzero(self.untaken[1] < EventKind.BAD_BLOCK).tolist())
        self.next_event = 0

    def _consume_arrivals(self, end: int) -> None:
        """Mark and judge, in timeline order, the untaken bad blocks and symbols before `end`.

        Fresh lone symbols wait in `pending` and get their verdicts in one
        batch before the pass's next other judgement and at its end.
        """
        times, _, bays, stripes, syms = self.timeline
        start = self.next_event
        if end == start:
            return
        self.next_event = end
        failed = self.failed
        bs_lone = self.bs_lone
        bs_stripe = self.bs_stripe
        bb_block = self.bb_block
        recorded = self.recorded
        cpb = self.cpb
        judging = not self.adl_epoch
        pending: list[int] = []  # fresh lone symbols awaiting their batch verdict
        for k in range(start, end):
            i = bays[k]
            if i in failed:
                continue  # arrivals on a failed device are subsumed
            stripe, sym = stripes[k], syms[k]
            if (
                sym >= 0
                and stripe not in bs_lone
                and stripe not in bs_stripe
                and stripe not in recorded
                and stripe // cpb not in bb_block
            ):
                bs_lone[stripe] = (i, sym)
                if judging:
                    pending.append(k)
                continue
            if pending:  # their losses come first, and may record this stripe
                self._judge_pending(pending)
            if sym < 0:  # a bad block
                self.handle_bad_block(i, stripe // cpb, times[k])
                continue
            if stripe in bs_lone:
                self._promote(stripe)
            bs_stripe.setdefault(stripe, {}).setdefault(i, set()).add(sym)
            if judging:
                self._judge_stripes((stripe,), times[k])
        if pending:
            self._judge_pending(pending)

    # -- handlers ----------------------------------------------------------

    def handle_bad_chip(self, i: int, time: float) -> None:
        # The failed device's latent faults are subsumed by the failure.
        self._drop_latent(i)
        self.failed.add(i)
        if len(self.failed) > 1:
            self.ddf += 1
        if len(self.failed) > 2:
            self.tdf += 1
        if len(self.failed) > self.tolerance:
            if not self.adl_epoch:
                self.adl_epoch = True
                self.records.append(
                    DataLossRecord(
                        time,
                        "ADL",
                        _cause_label(len(self.failed), 0, 0),
                        self.geometry.array_stripes,
                    )
                )
        else:
            self._judge_latent(time)

    def handle_bad_block(self, i: int, block: int, time: float) -> None:
        self.bb_block.setdefault(block, set()).add(i)
        stripes = range(block * self.cpb, (block + 1) * self.cpb)
        for stripe in self.bs_lone.keys() & stripes:
            self._promote(stripe)
        if not self.adl_epoch:
            self._judge_stripes(stripes, time)

    def apply_scrub(self, time: float) -> None:
        if not self.adl_epoch:
            self._judge_latent(time)
        self.bb_block.clear()
        self.bs_stripe.clear()
        self.bs_lone.clear()
        self.recorded.clear()

    def apply_reconstruct(self, i: int, time: float) -> None:
        self.failed.discard(i)
        if len(self.failed) <= self.tolerance:
            self.adl_epoch = False
        self._replace(i, time)

    def replace_worn_out(self, i: int, time: float) -> None:
        # Mirror copy onto a fresh drive: no degraded window, no records.
        self._drop_latent(i)
        self._replace(i, time)

    def _drop_latent(self, i: int) -> None:
        """Forget device i's bad blocks and bad symbols (rare: a bad chip or wear-out)."""
        for block, devs in list(self.bb_block.items()):
            devs.discard(i)
            if not devs:
                del self.bb_block[block]
        for stripe, per in list(self.bs_stripe.items()):
            per.pop(i, None)
            if not per:
                del self.bs_stripe[stripe]
        for stripe in [s for s, (bay, _) in self.bs_lone.items() if bay == i]:
            del self.bs_lone[stripe]

    def _replace(self, i: int, time: float) -> None:
        """Install a fresh pool drive in bay i in place of the old drive's untaken events."""
        self.installs[i] += 1
        drive = self.pool.drives[int(self.rng_repl.integers(len(self.pool.drives)))]
        k = self.next_event
        keep = self.untaken[2][k:] != i
        self._set_timeline(*(
            np.concatenate((old[k:][keep], new))
            for old, new in zip(self.untaken, self._install(i, drive, time))
        ))

    # -- main loop ----------------------------------------------------------

    def run(self) -> SimResult:
        while True:
            times, kinds, bays, _, _ = self.timeline
            k = next(self.boundaries, len(times))
            self._consume_arrivals(k)
            if k == len(times):
                return self._result()
            self.next_event = k + 1
            time, kind, i = times[k], kinds[k], bays[k]
            if kind == EventKind.SCRUB:
                self.apply_scrub(time)
            elif kind == EventKind.RECONSTRUCT:
                self.apply_reconstruct(i, time)
            elif i in self.failed:
                continue  # a failed device neither fails again nor wears out
            elif kind == EventKind.BAD_CHIP:
                self.handle_bad_chip(i, time)
            else:
                self.replace_worn_out(i, time)

    def _result(self) -> SimResult:
        scope_stripes = {"ADL": 0, "BDL": 0, "SDL": 0}
        cause: dict[str, list[int]] = {}
        total = 0
        for rec in self.records:
            scope_stripes[rec.scope] += rec.stripes_lost
            total += rec.stripes_lost
            c = cause.setdefault(rec.cause, [0, 0])
            c[0] += 1
            c[1] += rec.stripes_lost
        config = {
            "engine_version": ENGINE_VERSION,
            "code": self.code.value,
            "profile": self.profile.name,
            "pool_seed": self.pool.seed,
            "pool_size": len(self.pool.drives),
            "pool_blocks_per_device": self.pool.blocks_per_device,
            "n_devices": self.geometry.n_devices,
            "page_size": self.geometry.page_size,
            "pages_per_block": self.geometry.pages_per_block,
            "blocks_per_device": self.geometry.blocks_per_device,
            "stripe_size": self.geometry.stripe_size,
            "tts": self.tts,
            "ttr": self.ttr,
            "mission": self.mission,
            # No longer a parameter; echoed until the next ENGINE_VERSION.
            "mirror_copy_hours": 1.0,
        }
        return SimResult(
            seed=self.seed,
            records=tuple(self.records),
            stripes_lost=total,
            bytes_lost=total * self.geometry.stripe_size,
            scope_stripes=scope_stripes,
            cause_totals={k: (v[0], v[1]) for k, v in sorted(cause.items())},
            ddf=self.ddf,
            tdf=self.tdf,
            config=config,
        )


def run_simulation(
    geometry: ArrayGeometry,
    code: ErasureCode,
    profile: SsdModelProfile,
    pool: SsdPool,
    usage_logs: list[UsageLog],
    tts: float,
    ttr: float,
    mission: int = MISSION_HOURS,
    seed: int = 0,
) -> SimResult:
    """Simulate one array mission; deterministic in all arguments."""
    return _Simulation(geometry, code, profile, pool, usage_logs, tts, ttr, mission, seed).run()
