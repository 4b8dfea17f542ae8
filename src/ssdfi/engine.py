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

A stripe is lost at most once per fault epoch (until its latent faults
are cleared): it then joins `lost` and is not judged again, so repeated
scans never double count.

Every event of a mission sits on one timeline of columns (times, kinds,
bays, stripes, symbols), sorted by time, then `EventKind` (scrub,
rebuild, wear-out, bad chip, bad block, bad symbol), then bay, then draw
order.  With no two times equal, the time order is the only one, and
`np.argsort(times)` finds it; otherwise (a scrub and a wear-out may
share an hour) the stable `np.lexsort((bays, kinds, times))` does.
Events at or after the mission end are dropped.  `_Draw` draws the whole
timeline, and the judge (`_Simulation`) is handed it.  Each drive adds
its whole schedule when it is installed: bad blocks, bad symbols,
wear-out, and its bad chip together with the rebuild `ttr` hours later.
The walk pops the boundary events (rebuild, wear-out, bad chip) of the
installed drives from a heap in timeline order and tracks which bays
have failed; scrubs, bad blocks and bad symbols never change it.  A
rebuild, and a wear-out of a bay that has not failed, replace the bay's
drive: the old drive's events that sort after that event leave, and the
new drive's events, which all sort after it, join, their boundary events
on the heap.  A wear-out of a failed bay is dropped, so every boundary
event on the timeline happens.  Each install's events stay in its own
columns under a keep mask, and the kept events of all installs are
sorted once, at the end of the walk.  A bay fails only through
its own drive's chip, and a failed bay does not wear out, so a chip and
its rebuild both stay, or both belong to a drive that was replaced before
the chip.  The loop consumes the bad blocks and bad symbols up to the
next boundary event (scrub, rebuild, wear-out, bad chip) in one pass,
then handles that event.  Arrivals on a failed bay are dropped.

Latent faults live in three containers, each keyed by block, as the
judge walks them: `bb_block` maps a block to the bays whose chunk of it
is bad, `bs_block` maps a block to its stripes with bad symbols, each to
its bays' bad symbol sets, and `lost` maps a block to its stripes lost
in this fault epoch.  A block with no such fault has no entry.  Isolated symbols are pending
(below); every other symbol is in `bs_block`, whether or not its stripe
is lost.  A scan that loses the pending symbols adds their stripes to
`lost` and gives them no `bs_block` entry, as a lost stripe is never
judged again in its epoch.

Most bad symbols and bad blocks stay out of the containers.  A bad
symbol is isolated when, within its scrub interval, no other bad symbol
hits its stripe and no bad block hits its block: until the next scrub it
can only be a lone stripe.  A bad block is isolated when, within its
scrub interval, no other arrival hits its block (no bad block from any
bay, the same bay included, and no bad symbol): until the next scrub it
is a clean bad block on one bay.  The timeline lists both kinds in an
index (`_Timeline.isolation`), computed on first use and shared by every
mission that shares the timeline.  The index keys every arrival by
(scrub interval, stripe), a bad block by its block's first stripe, and
sorts the keys once: a symbol is isolated when its key is unique and
its block's run of keys holds no bad block, and a bad block when its
block's run holds only itself.  The array state alone picks a pass's
intake.  A pass with no failed device makes its isolated symbols' judge
calls in one batch and its isolated bad blocks' in another, and keeps
their timeline positions, which no replacement moves, as one `pending`
and one `pending_bb` entry; only its other arrivals go through the
containers.  A pass with a failed device takes every arrival row by
row: there a lone symbol or a clean bad block may be lost, and its
record must keep its place in arrival order.  A pending symbol counts
as a lone stripe at every scan, and a pending bad block as a clean one;
both leave with their bay's latent faults and at a scrub.
Pending bad blocks are copied into `bb_block` only when a scan finds the
clean bad blocks lost (a bad chip under RAID5 or PMDS(1,1), or two under
RAID6).  A scan that finds the pending symbols lost (a bad chip under
RAID5, or two under RAID6) records their stripes straight from their
positions and adds them to `lost`.

Every judged stripe costs exactly one `uncorrectable` call, read through
this module's global, because traced runs of the benchmark pin the call
count (`codes.judge_calls`) and the differential test compares it with
the reference engine.  A call that sees fewer than two faulty chunks
(96-98% of them) returns at its first comparison, before the code is
looked at, so such a call costs little more than the Python call itself.
A lone symbol's counts depend only on the number of failed bays, which
no arrival changes: a pass makes one call per isolated symbol, and a
scrub or bad chip one per pending symbol, and each gives them all that
one verdict.  Every stripe of `bs_block`, one bad symbol or more, is
judged on its own, on arrival (`handle_bad_symbol`) and at every scan.
A bad block is judged one way, on arrival and at every scan: its marked
stripes, those with bad symbols or a loss of the epoch (the block's own
entries in `bs_block` and `lost`), one by one, and its other stripes,
which all count as the block does, as one unit at the first of them:
they share one count and make their calls in a tight loop, and when they
are lost they join `lost` at once and one BDL count.  A scan makes the
calls of all pending bad blocks in one loop and gives them that one
verdict; when it is lost, the block walk records each of them as one
BDL, in block order, without a second call.  With no failed bay every
code corrects a lone symbol and a clean bad block, so a healthy pass
that gets any other verdict raises `EngineError` rather than drop the
loss.  A scan (scrub or bad chip) walks the blocks of `bb_block` and
`bs_block` in ascending order, and splices the SDL records of lost
pending stripes into the walk by stripe.  Losses keep their record order:
arrival order in a pass, stripe order among the SDL records of a scan,
and first-lost-stripe order among its BDL records.

A drive installed at P/E offset 0 (every drive at the mission start)
has a hazard that depends only on its usage log, the RBER curve and the
mission length.  `_fresh_hazard` computes it once per such value and
shares the read-only arrays with every mission in the process.

No draw depends on the code: a seed's initial drives, bad blocks, bad
symbols, scrubs, bad chips, rebuilds, wear-outs and replacement drives
are the same under every code, and only the verdicts differ.  So
`run_simulation` keeps, per pool, the timeline of the last inputs drawn
on it (`_SCHEDULES`), and a later mission with the same inputs (its code
aside) judges it without drawing.  A timeline is read-only arrays and
tuples, shared by every mission that judges it; it holds no pool.
"""
from __future__ import annotations

import functools
import heapq
import math
import weakref
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import IntEnum
from itertools import repeat

import numpy as np

from .codes import DEVICE_TOLERANCE, ErasureCode, stripe_counts, uncorrectable
from .geometry import ArrayGeometry
from .pool import PooledSsd, SsdPool
from .profiles import MISSION_HOURS, RberCurve, SsdModelProfile
from .seeds import check_seed
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


def check_tts_ttr(tts: float, ttr: float) -> None:
    """Reject a time to scrub or a time to repair that is not finite and positive."""
    if not (math.isfinite(tts) and math.isfinite(ttr) and tts > 0 and ttr > 0):
        raise EngineError(
            f"tts and ttr must be finite and positive, got tts={tts:g} and ttr={ttr:g}"
        )


def check_mission(mission: float) -> None:
    """Reject a mission that is not a whole number of hours in 1..`MISSION_HOURS`.

    Pool schedules end at `MISSION_HOURS`; a longer mission would silently
    see no bad blocks or bad chips after that hour.
    """
    if not 1 <= mission <= MISSION_HOURS or mission != int(mission):
        raise EngineError(
            f"mission must be between 1 and {MISSION_HOURS} whole hours, got {mission:g}"
        )


def check_code(code) -> None:
    """Reject a code that is not an `ErasureCode` member, such as its name as a string."""
    if not isinstance(code, ErasureCode):
        raise EngineError(f"code must be an ErasureCode, got {code!r}")


def _columns(bay: int, times, kinds, stripes=-1, syms=-1) -> tuple[np.ndarray, ...]:
    """Timeline columns (times, kinds, bays, stripes, symbols) of one bay's events.

    A bad block's stripe is its block's first; events other than bad
    symbols have symbol -1.  The scrubs use it; `_Draw._install` builds a
    drive's columns in one go.
    """
    times = np.asarray(times, dtype=float)
    return (times, *(np.full(times.shape, c, np.int64) for c in (kinds, bay, stripes, syms)))


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


# The latent faults of a lone stripe (one bad symbol) and of a stripe of a
# clean bad block (one bay's chunk), as `stripe_counts` takes them.
_ONE_SYMBOL = {-1: (0,)}
_ONE_BAY = frozenset((-1,))


def _judge_many(code: ErasureCode, faulty: int, multi: int, calls: int) -> bool:
    """The verdict of `calls` judge calls that share their arguments; False for none."""
    judge = uncorrectable  # read per batch: wrappers patch the module global
    lost = False
    for _ in repeat(None, calls):
        lost = judge(code, faulty, multi)
    return lost


def _rows(columns: tuple[np.ndarray, ...], k) -> zip:
    """(time, bay, stripe, symbol) rows of the events at `k`, an index array or a slice."""
    times, _, bays, stripes, syms = columns
    return zip(times[k].tolist(), bays[k].tolist(), stripes[k].tolist(), syms[k].tolist())


@dataclass(eq=False)
class _Timeline:
    """A mission's whole timeline: read-only columns and the rows of its boundary events.

    The columns hold every event that happens, replacement drives' events
    included, so a position names one event for the whole mission and one
    isolation index covers it.  `boundaries` holds a (position, time, kind, bay) row per scrub,
    rebuild, wear-out and bad chip.  Arrivals (bad blocks and bad symbols)
    stay in the columns: most of them never reach the arrival loop, which
    reads the rows of the rest from `isolation` or from its pass's slice.
    `config` holds the code-independent (key, value) pairs of the config
    echo.  No reference to the pool: the memo, keyed by pool, would keep it.
    """

    columns: tuple[np.ndarray, ...]
    geometry: ArrayGeometry
    seed: int
    config: tuple[tuple[str, object], ...]
    boundaries: tuple[tuple, ...] = field(init=False)

    def __post_init__(self):
        for column in self.columns:
            column.flags.writeable = False
        at = np.flatnonzero(self.columns[1] < EventKind.BAD_BLOCK)
        self.boundaries = tuple(zip(at.tolist(), *(c[at].tolist() for c in self.columns[:3])))

    @functools.cached_property
    def isolation(self) -> tuple[np.ndarray, np.ndarray, tuple[int, ...], tuple[tuple, ...]]:
        """(symbols, bad blocks, rest, rest rows): positions of its isolated arrivals and the rest.

        A bad symbol is isolated when, within its scrub interval, no other
        bad symbol hits its stripe and no bad block hits its block: it can
        only ever be a lone stripe.  A bad block is isolated when no other
        arrival (a bad block from any bay, or a bad symbol) hits its block
        within its scrub interval: it stays a clean bad block on one bay.
        The other arrivals come as positions and as their (time, bay,
        stripe, symbol) rows.  Computed on first use and kept.
        """
        cpb = self.geometry.chunks_per_block
        _, kinds, _, stripes, _ = self.columns
        interval = np.cumsum(kinds == EventKind.SCRUB)
        arrival = np.flatnonzero(kinds >= EventKind.BAD_BLOCK)
        # (interval, stripe) as one key; a bad block's stripe is its block's
        # first, and `span` is a multiple of cpb, so key // cpb is the block.
        span = -(-(int(stripes.max(initial=0)) + 1) // cpb) * cpb
        keys = interval[arrival] * span + stripes[arrival]
        # Each flag depends only on its key's and block's group sizes, so
        # the order of equal keys is free: no stable sort needed.
        order = np.argsort(keys)
        keys = keys[order]
        bad_block = kinds[arrival[order]] == EventKind.BAD_BLOCK
        stripe_id = np.cumsum(np.diff(keys, prepend=-1) != 0) - 1
        block_id = np.cumsum(np.diff(keys // cpb, prepend=-1) != 0) - 1
        alone = np.empty((2, len(keys)), bool)  # symbols, bad blocks; timeline order
        alone[0, order] = (np.bincount(stripe_id)[stripe_id] == 1) & (
            np.bincount(block_id, bad_block)[block_id] == 0
        )
        alone[1, order] = bad_block & (np.bincount(block_id)[block_id] == 1)
        symbols, blocks = arrival[alone[0]], arrival[alone[1]]
        symbols.flags.writeable = blocks.flags.writeable = False
        rest = arrival[~(alone[0] | alone[1])]
        return symbols, blocks, tuple(rest.tolist()), tuple(_rows(self.columns, rest))


def _sorted(columns, mission: int) -> tuple[np.ndarray, ...]:
    """These (times, kinds, bays, stripes, symbols) columns before the mission end, sorted."""
    times, kinds, bays, _, _ = columns = tuple(columns)
    order = np.argsort(times)
    order = order[times[order] < mission]
    sorted_times = times[order]
    if (sorted_times[1:] == sorted_times[:-1]).any():
        # Equal times: order them by kind, then bay, then draw (a stable sort).
        order = np.lexsort((bays, kinds, times))
        order = order[times[order] < mission]
        sorted_times = times[order]
    return (sorted_times, *(c[order] for c in columns[1:]))


class _Draw:
    """The draws of one mission: every input of its timeline, and no code."""

    def __init__(
        self,
        geometry: ArrayGeometry,
        profile: SsdModelProfile,
        pool: SsdPool,
        usage_logs: list[UsageLog],
        tts: float,
        ttr: float,
        mission: int,
        seed: int,
    ):
        n = geometry.n_devices
        if not 1 <= len(usage_logs) <= n:
            raise EngineError(f"need 1 to {n} usage logs, one per bay, got {len(usage_logs)}")
        seed = check_seed(seed, EngineError)
        check_tts_ttr(tts, ttr)
        check_mission(mission)
        if len(pool.drives) < n:
            raise EngineError("pool smaller than the array")
        self.geometry = geometry
        self.profile = profile
        self.pool = pool
        self.tts = float(tts)
        self.ttr = float(ttr)
        self.mission = int(mission)
        self.seed = seed

        # Hazard ingredients per bay.  Logs are cycled over the bays, and
        # bays on one log share its read-only arrays.
        fresh = [_fresh_hazard(log, profile.rber_curve, self.mission) for log in usage_logs]
        self.log_bits, self.log_pe, self.fresh_hazard = map(list, zip(*(fresh * n)[:n]))
        self.hour_grid = np.arange(self.mission + 1, dtype=float)
        self.config = (
            ("profile", profile.name),
            ("pool_seed", pool.seed),
            ("pool_size", len(pool.drives)),
            ("pool_blocks_per_device", pool.blocks_per_device),
            ("n_devices", n),
            ("page_size", geometry.page_size),
            ("pages_per_block", geometry.pages_per_block),
            ("blocks_per_device", geometry.blocks_per_device),
            ("stripe_size", geometry.stripe_size),
            ("tts", self.tts),
            ("ttr", self.ttr),
            ("mission", self.mission),
            # No longer a parameter; echoed until the next ENGINE_VERSION.
            ("mirror_copy_hours", 1.0),
        )

    def timeline(self) -> _Timeline:
        """Draw the initial drives and the scrubs, and walk them into the mission timeline."""
        n = self.geometry.n_devices
        rng_sel = np.random.default_rng(np.random.SeedSequence([self.seed, 1]))
        initial = rng_sel.choice(len(self.pool.drives), size=n, replace=False)
        scrubs = []
        t = self.tts
        while t < self.mission:
            scrubs.append(t)
            t += self.tts
        events = [self._install(i, self.pool.drives[int(initial[i])], 0.0, 0) for i in range(n)]
        events.append(_columns(-1, scrubs, EventKind.SCRUB))
        return self._walk(np.concatenate(c) for c in zip(*events))

    def _walk(self, columns) -> _Timeline:
        """The mission timeline of these set-up columns: every event that happens, in order.

        Each install's columns are one part with a keep mask; the set-up
        columns are the first.  A heap walks the boundary rows (rebuild,
        wear-out, bad chip) of every part before the mission end in timeline
        order and tracks the failed bays.  A rebuild, and a wear-out of a bay
        that has not failed, replace the bay's drive: its events that sort
        after the row (at the row's hour, those of a later kind) leave their
        part, and a new pool drive's columns, all of which sort after the
        row, join as a part (drawn from `rng_repl` in walk order; the bay's
        install count is part of its seed).  A wear-out of a failed bay
        leaves, and a row that has left is skipped.  The kept events of all
        parts are sorted once.
        """
        rng_repl = np.random.default_rng(np.random.SeedSequence([self.seed, 2]))
        installs = [0] * self.geometry.n_devices
        failed: set[int] = set()
        parts: list[tuple[tuple[np.ndarray, ...], np.ndarray]] = []
        heap: list[tuple] = []

        def add(columns):
            times, kinds, bays, _, _ = columns
            boundary = (kinds > EventKind.SCRUB) & (kinds < EventKind.BAD_BLOCK)
            at = np.flatnonzero(boundary & (times < self.mission))
            for row in zip(times[at].tolist(), kinds[at].tolist(), bays[at].tolist(), at.tolist()):
                heapq.heappush(heap, (*row, len(parts)))
            parts.append((columns, np.ones(len(times), bool)))

        add(tuple(columns))
        while heap:
            t, kind, i, k, p = heapq.heappop(heap)
            (times, kinds, bays, _, _), keep = parts[p]
            if not keep[k]:
                continue
            if kind == EventKind.BAD_CHIP:
                failed.add(i)
            elif kind == EventKind.WEAR_OUT and i in failed:
                keep[k] = False
            else:
                failed.discard(i)
                keep &= (bays != i) | (times < t) | ((times == t) & (kinds <= kind))
                installs[i] += 1
                drive = self.pool.drives[int(rng_repl.integers(len(self.pool.drives)))]
                add(self._install(i, drive, t, installs[i]))
        kept = (tuple(c[keep] for c in columns) for columns, keep in parts)
        columns = _sorted((np.concatenate(c) for c in zip(*kept)), self.mission)
        return _Timeline(columns, self.geometry, self.seed, self.config)

    def _install(self, i: int, drive: PooledSsd, now: float, n: int) -> tuple[np.ndarray, ...]:
        """Draw the columns of `drive` installed in bay i at `now`, the bay's n-th replacement."""
        pe_offset = float(self.log_pe[i][min(int(now), self.mission - 1)]) if now else 0.0
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 3, i, n]))
        geometry = self.geometry

        # Cut at the mission end before drawing locations: later draws
        # depend on how many are drawn.
        bb = drive.mission_bb_times + now
        bb = bb[bb < self.mission]
        blocks = (rng.random(len(bb)) * geometry.blocks_per_device).astype(np.int64)

        bs = self._draw_bs_times(self._hazard(i, pe_offset), now, rng)
        symbols = (rng.random(len(bs)) * geometry.symbols_per_device).astype(np.int64)
        stripes, syms = np.divmod(symbols, geometry.chunk_pages)

        # One array per column, in draw order (bad blocks, bad symbols, bad
        # chip and rebuild, wear-out): the timeline's stable sort breaks
        # ties by it.
        times = [bb, bs]
        kinds = [EventKind.BAD_BLOCK, EventKind.BAD_SYMBOL]
        if drive.bad_chip_time is not None:
            t_bc = now + drive.bad_chip_time
            times += [[t_bc], [t_bc + self.ttr]]
            kinds += [EventKind.BAD_CHIP, EventKind.RECONSTRUCT]
        wear = np.searchsorted(self.log_pe[i], self.profile.wol + pe_offset)
        if wear > now:
            times.append([float(wear)])
            kinds.append(EventKind.WEAR_OUT)
        sizes = [len(t) for t in times]
        rest = np.full(sum(sizes[2:]), -1, np.int64)
        return (
            np.concatenate(times, dtype=float),
            np.repeat(np.array(kinds, np.int64), sizes),
            np.full(sum(sizes), i, np.int64),
            np.concatenate((blocks * geometry.chunks_per_block, stripes, rest)),
            np.concatenate((np.full(len(bb), -1, np.int64), syms, rest)),
        )

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


# The (draw inputs, timeline) last drawn on each live pool; an entry goes with its pool.
_SCHEDULES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class _Simulation:
    """The judge of one mission: `code`'s verdicts and records on a drawn timeline."""

    def __init__(self, timeline: _Timeline, code: ErasureCode):
        self.timeline = timeline
        self.columns = timeline.columns
        self.code = code
        self.tolerance = DEVICE_TOLERANCE[code]
        self.cpb = timeline.geometry.chunks_per_block

        self.failed: set[int] = set()
        self.bb_block: dict[int, set[int]] = {}
        self.bs_block: dict[int, dict[int, dict[int, set[int]]]] = {}
        self.lost: dict[int, set[int]] = {}
        self.pending: list[np.ndarray] = []
        self.pending_bb: list[np.ndarray] = []
        self.records: list[DataLossRecord] = []
        self.ddf = 0
        self.tdf = 0
        self.adl_epoch = False
        self.next_event = 0

    # -- judging ----------------------------------------------------------

    def _judge_stripes(self, block, stripes, time: float, bdl_groups: dict, lone_lost=()) -> None:
        """Judge these stripes of `block` one by one: record SDL losses, count BDL losses.

        Every stripe is lost or has bad symbols (`bs_block`).  A stripe that
        is lost joins `lost`.  BDL losses are counted in `bdl_groups` by
        (block, label); the caller records them with `_record_bdl`.
        `lone_lost` holds pending stripes that their batch has just judged
        lost (and added to `lost`); their SDL records take their stripe's
        place.
        """
        code = self.code
        nf = len(self.failed)
        bb_devs = self.bb_block.get(block)
        symbols = self.bs_block.get(block)
        lost = self.lost.get(block, ())
        judge = uncorrectable  # read per call: wrappers patch the module global
        for stripe in stripes:
            if stripe in lost:
                if stripe in lone_lost:
                    self.records.append(DataLossRecord(time, "SDL", _cause_label(nf, 0, 1), 1))
                continue
            faulty, multi, n_bb, n_bs = stripe_counts(nf, bb_devs, symbols[stripe])
            if not judge(code, faulty, multi):
                continue
            # The local `lost` may stay `()`: no stripe comes twice.
            self.lost.setdefault(block, set()).add(stripe)
            label = _cause_label(nf, n_bb, n_bs)
            if n_bb >= 1 and nf + n_bb >= 2:
                key = (block, label)
                bdl_groups[key] = bdl_groups.get(key, 0) + 1
            else:
                self.records.append(DataLossRecord(time, "SDL", label, 1))

    def _judge_block(self, block: int, time: float, bdl_groups: dict, unit_lost=False) -> None:
        """Judge bad block `block`: its marked stripes one by one, the rest as one unit.

        A marked stripe is lost or has bad symbols: the block's entries in
        `lost` and `bs_block`.  The unmarked stripes count as the block does:
        their calls share one count, and when they are lost they join `lost`
        at once and one BDL count, as every code loses a stripe only to two
        whole-chunk faults, one of them the bad block.  The unit goes at its
        first stripe, after the marked stripes below it, so the BDL groups
        keep their first-lost-stripe order.  `unit_lost` says that the
        caller has made the calls of a block with no marked stripe already
        and they found it lost.  A block whose stripes are all lost has
        nothing left to judge.
        """
        lost = self.lost.get(block, ())
        if len(lost) == self.cpb:
            return  # every stripe is lost already: no call and no record
        lo = block * self.cpb
        marked, plain = self.bs_block.get(block, {}).keys() | lost, range(lo, lo + self.cpb)
        if marked:
            plain = [s for s in plain if s not in marked]
            marked = sorted(marked)
            below = plain[0] - lo if plain else len(marked)
            self._judge_stripes(block, marked[:below], time, bdl_groups)
            marked = marked[below:]
        nf = len(self.failed)
        faulty, multi, n_bb, _ = stripe_counts(nf, self.bb_block[block], None)
        if plain and (unit_lost or _judge_many(self.code, faulty, multi, len(plain))):
            self.lost.setdefault(block, set()).update(plain)
            key = (block, _cause_label(nf, n_bb, 0))
            bdl_groups[key] = bdl_groups.get(key, 0) + len(plain)
        if marked:
            self._judge_stripes(block, marked, time, bdl_groups)

    def _record_bdl(self, bdl_groups: dict, time: float) -> None:
        """Record one BDL per (block, label) group, in the order the groups were first lost."""
        for (_, label), count in bdl_groups.items():
            self.records.append(DataLossRecord(time, "BDL", label, count))

    def _verdict(self, calls: int, bb_devs, bs_map) -> bool:
        """The verdict of `calls` judge calls on a stripe whose only latent faults are these.

        `bb_devs` and `bs_map` are as `stripe_counts` takes them; the calls
        share their arguments and so their verdict.
        """
        faulty, multi, _, _ = stripe_counts(len(self.failed), bb_devs, bs_map)
        return _judge_many(self.code, faulty, multi, calls)

    def _lose_pending(self) -> list[int]:
        """Add the stripes of the pending symbols to `lost` by block; return them in stripe order.

        They leave `pending`.  A lost stripe is never judged again in its
        epoch, so no later decision reads their symbols, and they get no
        `bs_block` entry.
        """
        lone = sorted(self.columns[3][np.concatenate(self.pending)].tolist())
        self.pending = []
        for stripe in lone:
            self.lost.setdefault(stripe // self.cpb, set()).add(stripe)
        return lone

    def _judge_latent(self, time: float) -> None:
        """Judge every latent stripe: the pending ones in one batch, the rest block by block.

        Pending symbols share one verdict; when it is lost, every one of
        their stripes joins `lost` at once.  Pending bad blocks share
        another; when it is lost, they join `bb_block` and the walk records
        each without judging it again.  Blocks go in ascending order: a bad
        block through `_judge_block`, any other block's `bs_block` stripes
        one by one.  The lost pending stripes' SDL records are spliced into
        the walk by stripe: those below a block of `bs_block` stripes come
        before it, and those in it are judged with its stripes as
        `lone_lost`.  No pending stripe lies in a bad block, and a bad block
        adds no SDL record to a scan that loses pending stripes: there a bay
        has failed, so each lost stripe of the block is a BDL.  The scan
        shares one set of BDL groups, so the records come out as a judge of
        all latent stripes in stripe order would make them.
        """
        lone = []
        if self._verdict(sum(map(len, self.pending)), None, _ONE_SYMBOL):
            lone = self._lose_pending()
            sdl = DataLossRecord(time, "SDL", _cause_label(len(self.failed), 0, 1), 1)
        cpb = self.cpb
        lost_blocks = ()
        if self._verdict(cpb * sum(map(len, self.pending_bb)), _ONE_BAY, None):
            lost_blocks = self._materialise_blocks()
        bb_block, bs_block = self.bb_block, self.bs_block
        bdl_groups: dict[tuple[int, str], int] = {}
        j, n = 0, len(lone)  # lone[:j] have their records
        for block in sorted(bb_block.keys() | bs_block.keys()):
            if block in bb_block:
                self._judge_block(block, time, bdl_groups, block in lost_blocks)
                continue
            stripes, inside = list(bs_block[block]), ()
            hi = (block + 1) * cpb
            if j < n and lone[j] < hi:
                k = bisect_left(lone, hi - cpb, j)
                self.records.extend(repeat(sdl, k - j))
                j = bisect_left(lone, hi, k)
                inside = lone[k:j]
                stripes += inside
            self._judge_stripes(block, sorted(stripes), time, bdl_groups, inside)
        if j < n:
            self.records.extend(repeat(sdl, n - j))
        self._record_bdl(bdl_groups, time)

    # -- timeline -----------------------------------------------------------

    def _materialise_blocks(self) -> set[int]:
        """Put the pending isolated bad blocks in `bb_block`; return their blocks."""
        _, _, bays, stripes, _ = self.columns
        k = np.concatenate(self.pending_bb)
        self.pending_bb = []
        blocks = (stripes[k] // self.cpb).tolist()
        self.bb_block.update(zip(blocks, ({i} for i in bays[k].tolist())))
        return set(blocks)

    def _consume_arrivals(self, end: int) -> None:
        """Mark and judge, in timeline order, the bad blocks and symbols left before `end`.

        With no failed device, a pass takes its isolated bad symbols and
        bad blocks first: for each kind, their judge calls in one batch,
        then one pending entry of their positions, if it has any.  Every
        other arrival (with a failed device, every arrival) goes row by
        row to `handle_bad_block` or `handle_bad_symbol`, unless its bay
        has failed.
        """
        start = self.next_event
        if end == start:
            return
        self.next_event = end
        if self.failed:
            rows = _rows(self.columns, slice(start, end))
        else:
            symbols, blocks, rest, rest_rows = self.timeline.isolation
            lo, hi = symbols.searchsorted((start, end)).tolist()
            if self._verdict(hi - lo, None, _ONE_SYMBOL):
                raise EngineError(f"{self.code.value} loses a lone bad symbol on a healthy array")
            if hi > lo:
                self.pending.append(symbols[lo:hi])
            lo, hi = blocks.searchsorted((start, end)).tolist()
            if self._verdict(self.cpb * (hi - lo), _ONE_BAY, None):
                raise EngineError(f"{self.code.value} loses a lone bad block on a healthy array")
            if hi > lo:
                self.pending_bb.append(blocks[lo:hi])
            rows = rest_rows[bisect_left(rest, start) : bisect_left(rest, end)]
        failed = self.failed
        for time, i, stripe, sym in rows:
            if i in failed:
                continue  # arrivals on a failed device are subsumed
            if sym < 0:  # a bad block
                self.handle_bad_block(i, stripe // self.cpb, time)
            else:
                self.handle_bad_symbol(i, stripe, sym, time)

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
                        self.timeline.geometry.array_stripes,
                    )
                )
        else:
            self._judge_latent(time)

    def handle_bad_block(self, i: int, block: int, time: float) -> None:
        self.bb_block.setdefault(block, set()).add(i)
        if not self.adl_epoch:
            bdl_groups: dict[tuple[int, str], int] = {}
            self._judge_block(block, time, bdl_groups)
            self._record_bdl(bdl_groups, time)

    def handle_bad_symbol(self, i: int, stripe: int, sym: int, time: float) -> None:
        block = stripe // self.cpb
        self.bs_block.setdefault(block, {}).setdefault(stripe, {}).setdefault(i, set()).add(sym)
        if not self.adl_epoch:
            bdl_groups: dict[tuple[int, str], int] = {}
            self._judge_stripes(block, (stripe,), time, bdl_groups)
            self._record_bdl(bdl_groups, time)

    def apply_scrub(self, time: float) -> None:
        if not self.adl_epoch:
            self._judge_latent(time)
        self.bb_block.clear()
        self.bs_block.clear()
        self.lost.clear()
        self.pending.clear()
        self.pending_bb.clear()

    def apply_reconstruct(self, i: int, time: float) -> None:
        # The new drive's events are on the timeline since set-up.
        self.failed.discard(i)
        if len(self.failed) <= self.tolerance:
            self.adl_epoch = False

    def replace_worn_out(self, i: int, time: float) -> None:
        # Mirror copy onto a fresh drive: no degraded window, no records.
        self._drop_latent(i)

    def _drop_latent(self, i: int) -> None:
        """Forget device i's bad blocks and bad symbols (rare: a bad chip or wear-out).

        A stripe left with no bad symbol leaves its block's entry, and a
        block left with no stripe leaves `bs_block`, so every entry marks a
        stripe.  Losses stay in `lost` until the scrub.
        """
        for block, devs in list(self.bb_block.items()):
            devs.discard(i)
            if not devs:
                del self.bb_block[block]
        for block, symbols in list(self.bs_block.items()):
            for stripe, per in list(symbols.items()):
                if per.pop(i, None) is not None and not per:
                    del symbols[stripe]
            if not symbols:
                del self.bs_block[block]
        bays = self.columns[2]
        self.pending = [k[bays[k] != i] for k in self.pending]
        self.pending_bb = [k[bays[k] != i] for k in self.pending_bb]

    # -- main loop ----------------------------------------------------------

    def run(self) -> SimResult:
        for k, time, kind, i in self.timeline.boundaries:
            self._consume_arrivals(k)
            self.next_event = k + 1
            if kind == EventKind.SCRUB:
                self.apply_scrub(time)
            elif kind == EventKind.RECONSTRUCT:
                self.apply_reconstruct(i, time)
            elif kind == EventKind.BAD_CHIP:
                self.handle_bad_chip(i, time)
            else:
                self.replace_worn_out(i, time)
        self._consume_arrivals(len(self.columns[0]))
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
        config = (("engine_version", ENGINE_VERSION), ("code", self.code.value))
        return SimResult(
            seed=self.timeline.seed,
            records=tuple(self.records),
            stripes_lost=total,
            bytes_lost=total * self.timeline.geometry.stripe_size,
            scope_stripes=scope_stripes,
            cause_totals={k: (v[0], v[1]) for k, v in sorted(cause.items())},
            ddf=self.ddf,
            tdf=self.tdf,
            config=dict(config + self.timeline.config),
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
    """Simulate one array mission; deterministic in all arguments.

    Judges the pool's stored timeline when its draw inputs are these; draws and stores one if not.
    """
    check_code(code)
    seed = check_seed(seed, EngineError)
    # Every input of the mission's draws but the pool, which keys `_SCHEDULES`.
    key = (geometry, profile, tuple(usage_logs), tts, ttr, mission, seed)
    memo = _SCHEDULES.get(pool)
    if memo is None or memo[0] != key:
        draw = _Draw(geometry, profile, pool, usage_logs, tts, ttr, mission, seed)
        memo = _SCHEDULES[pool] = (key, draw.timeline())
    return _Simulation(memo[1], code).run()
