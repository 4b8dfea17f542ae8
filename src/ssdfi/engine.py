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

Array-level boundary events (scrub, rebuild, wear-out, bad chip) go
through a heap; events at the same time run in `EventKind` order, then
by bay.  A drive's pre-drawn bad blocks and bad symbols stay off the
heap: all bays' arrivals form one timeline sorted by time, then bad
blocks before bad symbols, then bay, then draw order.  Before the loop
handles a boundary event at time T (and once more at the end of the
mission) it consumes every arrival before T in one pass, so an arrival
at exactly T comes after every boundary event at T.  The full order at
one time is therefore scrub, rebuild, wear-out, bad chip, bad block, bad
symbol.  Arrivals on a failed bay are dropped; a replaced bay's
remaining arrivals leave the timeline and its new drive's arrivals are
merged in.
"""
from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .codes import DEVICE_TOLERANCE, ErasureCode, stripe_counts, uncorrectable
from .geometry import ArrayGeometry
from .pool import SsdPool
from .profiles import SsdModelProfile, MISSION_HOURS
from .workload import UsageLog, dense_arrays

ENGINE_VERSION = 1


class EngineError(ValueError):
    """Invalid simulation parameters or events."""


class EventKind(IntEnum):
    """Event kinds; the numeric value is the same-time tie-break order."""

    SCRUB = 0
    RECONSTRUCT = 1
    WEAR_OUT = 2
    BAD_CHIP = 3


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


class _Slot:
    """Mutable per-device-bay state."""

    __slots__ = (
        "gen",
        "cum",
        "bb_times",
        "bb_locs",
        "bs_times",
        "bs_locs",
    )


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
        mirror_copy_hours: float,
    ):
        if not usage_logs:
            raise EngineError("need at least one usage log")
        if tts <= 0 or ttr <= 0:
            raise EngineError("tts and ttr must be positive")
        if not 1 <= mission <= MISSION_HOURS:
            # Pool schedules end at MISSION_HOURS; a longer mission would
            # silently see no bad blocks or bad chips after that hour.
            raise EngineError(f"mission must be between 1 and {MISSION_HOURS} hours")
        if mirror_copy_hours < 0:
            raise EngineError("mirror_copy_hours must be >= 0")
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
        self.mirror_copy_hours = float(mirror_copy_hours)
        self.tolerance = DEVICE_TOLERANCE[code]
        self.cp = geometry.chunk_pages
        self.cpb = geometry.chunks_per_block

        n = geometry.n_devices
        self.rng_repl = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        rng_sel = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        initial = rng_sel.choice(len(pool.drives), size=n, replace=False)

        # Hazard ingredients per bay (P/E offset zero); slots recompute
        # after replacements.  Logs are cycled over the bays, and bays on
        # one log share its arrays, which nothing writes to.
        dense = [dense_arrays(log, self.mission) for log in usage_logs[:n]]
        self.log_bits = [dense[i % len(dense)][0] for i in range(n)]
        self.log_pe = [dense[i % len(dense)][1] for i in range(n)]
        self.hour_grid = np.arange(self.mission + 1, dtype=float)
        self.curve_x = np.array([p for p, _ in profile.rber_curve.points])
        self.curve_y = np.array([r for _, r in profile.rber_curve.points])

        self.heap: list[tuple[float, int, int, int]] = []
        self.slots: list[_Slot] = []
        self.failed: set[int] = set()
        self.bb_block: dict[int, set[int]] = {}
        self.bs_stripe: dict[int, dict[int, set[int]]] = {}
        self.recorded: set[int] = set()
        self.records: list[DataLossRecord] = []
        self.ddf = 0
        self.tdf = 0
        self.adl_epoch = False

        for i in range(n):
            slot = _Slot()
            slot.gen = 0
            self.slots.append(slot)
            self._install(i, int(initial[i]), 0.0)
        per_bay = [self._bay_arrivals(i) for i in range(n)]
        self._set_arrivals(*(np.concatenate(column) for column in zip(*per_bay)))

        t = self.tts
        while t < self.mission:
            heapq.heappush(self.heap, (t, EventKind.SCRUB, -1, 0))
            t += self.tts

    # -- installation and schedules -------------------------------------

    def _install(self, i: int, drive_idx: int, now: float) -> None:
        slot = self.slots[i]
        drive = self.pool.drives[drive_idx]
        pe_offset = float(self.log_pe[i][min(int(now), self.mission - 1)]) if now else 0.0
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 3, i, slot.gen]))

        rber = np.interp(self.log_pe[i] - pe_offset, self.curve_x, self.curve_y)
        # Summed from hour 0 even on a late install: a sum from `now` rounds
        # differently and moves the arrival times' float bits.
        slot.cum = np.concatenate(([0.0], np.cumsum(rber * self.log_bits[i])))

        bb = drive.mission_bb_times + now
        bb = bb[bb < self.mission]
        slot.bb_times = bb
        slot.bb_locs = (rng.random(len(bb)) * self.geometry.blocks_per_device).astype(np.int64)

        slot.bs_times = self._draw_bs_times(slot, now, rng)
        slot.bs_locs = (
            rng.random(len(slot.bs_times)) * self.geometry.symbols_per_device
        ).astype(np.int64)

        if drive.bad_chip_time is not None:
            t_bc = now + drive.bad_chip_time
            if t_bc < self.mission:
                heapq.heappush(self.heap, (t_bc, EventKind.BAD_CHIP, i, slot.gen))

        wear = np.searchsorted(self.log_pe[i], self.profile.wol + pe_offset)
        if wear < self.mission and wear > now:
            heapq.heappush(self.heap, (float(wear), EventKind.WEAR_OUT, i, slot.gen))

    def _draw_bs_times(self, slot: _Slot, now: float, rng: np.random.Generator) -> np.ndarray:
        h0 = float(np.interp(now, self.hour_grid, slot.cum))
        total = float(slot.cum[-1]) - h0
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
        targets = targets[targets < slot.cum[-1]]
        times = np.interp(targets, slot.cum, self.hour_grid)
        return times[times > now]

    # -- judging ----------------------------------------------------------

    def _judge_stripes(self, stripes, time: float) -> None:
        """Judge stripes, emit records for newly uncorrectable ones."""
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

    def _latent_stripes(self):
        if not self.bb_block:
            return sorted(self.bs_stripe)
        blocks = np.fromiter(self.bb_block, np.int64, len(self.bb_block))
        stripes = (blocks[:, None] * self.cpb + np.arange(self.cpb)).ravel()
        if self.bs_stripe:
            bs = np.fromiter(self.bs_stripe, np.int64, len(self.bs_stripe))
            stripes = np.concatenate((stripes, bs))
        return np.unique(stripes).tolist()

    # -- arrival timeline ---------------------------------------------------

    def _bay_arrivals(self, i: int) -> tuple[np.ndarray, ...]:
        """Bay i's (times, bays, stripes, symbols): its bad blocks, then its bad symbols.

        A bad block is its block's first stripe with symbol -1.
        """
        slot = self.slots[i]
        n_bb = len(slot.bb_times)
        stripes, syms = np.divmod(slot.bs_locs, self.cp)
        return (
            np.concatenate((slot.bb_times, slot.bs_times)),
            np.full(n_bb + len(slot.bs_times), i),
            np.concatenate((slot.bb_locs * self.cpb, stripes)),
            np.concatenate((np.full(n_bb, -1), syms)),
        )

    def _set_arrivals(self, *arrivals: np.ndarray) -> None:
        """Make these (times, bays, stripes, symbols) the untaken timeline.

        Ordered by time, then bad blocks before bad symbols, then bay; the
        sort is stable, so a bay's draws keep their order.
        """
        times, bays, _, syms = arrivals
        order = np.lexsort((bays, syms >= 0, times))
        self.untaken = tuple(a[order] for a in arrivals)
        self.arrivals = tuple(a.tolist() for a in self.untaken)
        self.next_arrival = 0

    def _merge_arrivals(self, i: int) -> None:
        """Swap bay i's untaken arrivals for those of its newly installed drive."""
        k = self.next_arrival
        keep = self.untaken[1][k:] != i
        self._set_arrivals(*(
            np.concatenate((old[k:][keep], new))
            for old, new in zip(self.untaken, self._bay_arrivals(i))
        ))

    def _consume_arrivals(self, until: float) -> None:
        """Mark and judge, in timeline order, every untaken arrival before `until`."""
        times, bays, stripes, syms = self.arrivals
        start = self.next_arrival
        end = bisect_left(times, until, start)
        if end == start:
            return
        self.next_arrival = end
        failed = self.failed
        bs_stripe = self.bs_stripe
        bb_block = self.bb_block
        recorded = self.recorded
        cpb = self.cpb
        judging = not self.adl_epoch
        # A lone bad symbol on a clean stripe always counts the same.
        nf = len(failed)
        faulty, multi, _, _ = stripe_counts(nf, None, {-1: (0,)})
        judge = uncorrectable
        code = self.code
        for k in range(start, end):
            i = bays[k]
            if i in failed:
                continue  # arrivals on a failed device are subsumed
            stripe, sym = stripes[k], syms[k]
            if sym < 0:
                self.handle_bad_block(i, stripe // cpb, times[k])
                continue
            per = bs_stripe.get(stripe)
            if per is None:
                bs_stripe[stripe] = {i: {sym}}
            else:
                per.setdefault(i, set()).add(sym)
            if not judging:
                continue
            if per is None and stripe not in recorded and stripe // cpb not in bb_block:
                if judge(code, faulty, multi):
                    recorded.add(stripe)
                    self.records.append(DataLossRecord(times[k], "SDL", _cause_label(nf, 0, 1), 1))
                continue
            self._judge_stripes((stripe,), times[k])

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
            self._judge_stripes(self._latent_stripes(), time)
        heapq.heappush(self.heap, (time + self.ttr, EventKind.RECONSTRUCT, i, self.slots[i].gen))

    def handle_bad_block(self, i: int, block: int, time: float) -> None:
        self.bb_block.setdefault(block, set()).add(i)
        if not self.adl_epoch:
            start = block * self.cpb
            self._judge_stripes(range(start, start + self.cpb), time)

    def apply_scrub(self, time: float) -> None:
        if not self.adl_epoch:
            self._judge_stripes(self._latent_stripes(), time)
        self.bb_block.clear()
        self.bs_stripe.clear()
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

    def _replace(self, i: int, time: float) -> None:
        """Install a fresh pool drive in bay i; the old drive's events go stale."""
        self.slots[i].gen += 1
        self._install(i, int(self.rng_repl.integers(len(self.pool.drives))), time)
        self._merge_arrivals(i)

    # -- main loop ----------------------------------------------------------

    def run(self) -> SimResult:
        heap = self.heap
        slots = self.slots
        while heap:
            time, kind, i, gen = heapq.heappop(heap)
            if time >= self.mission:
                break
            self._consume_arrivals(time)
            if kind == EventKind.SCRUB:
                self.apply_scrub(time)
                continue
            slot = slots[i]
            if gen != slot.gen:
                continue  # event belongs to a replaced drive
            if kind == EventKind.RECONSTRUCT:
                self.apply_reconstruct(i, time)
            elif i in self.failed:
                continue  # arrivals on a failed device are subsumed
            elif kind == EventKind.BAD_CHIP:
                self.handle_bad_chip(i, time)
            elif kind == EventKind.WEAR_OUT:
                self.replace_worn_out(i, time)
        self._consume_arrivals(self.mission)
        return self._result()

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
            "mirror_copy_hours": self.mirror_copy_hours,
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
    mirror_copy_hours: float = 1.0,
) -> SimResult:
    """Simulate one array mission; deterministic in all arguments."""
    sim = _Simulation(
        geometry, code, profile, pool, usage_logs, tts, ttr, mission, seed, mirror_copy_hours
    )
    return sim.run()
