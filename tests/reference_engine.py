"""Per-event reference engine: a frozen oracle for the differential test.

This is the mission simulator as it stood when every bad-symbol arrival
was its own heap event (one push, one pop and one single-stripe judge
per arrival) and bad blocks were tracked per stripe.  It is kept only so
that `test_differential.py` can check the production engine in
`ssdfi.engine` against it; nothing in `src/` imports it.  Do not change
its behaviour: it defines what the production engine must reproduce.
It judges stripes with the frozen kernel of `stripe_oracle`, not the
package's, and reads `uncorrectable` through this module's global, so
that a test can count its calls.
"""
from __future__ import annotations

import heapq
import math
from enum import IntEnum

import numpy as np

from ssdfi.codes import DEVICE_TOLERANCE, ErasureCode
from ssdfi.engine import ENGINE_VERSION, DataLossRecord, EngineError, SimResult
from ssdfi.geometry import ArrayGeometry
from ssdfi.pool import SsdPool
from ssdfi.profiles import SsdModelProfile
from ssdfi.workload import UsageLog, dense_arrays
from stripe_oracle import stripe_counts, uncorrectable


class EventKind(IntEnum):
    """Event kinds; the numeric value is the same-time tie-break order."""

    SCRUB = 0
    RECONSTRUCT = 1
    WEAR_OUT = 2
    BAD_CHIP = 3
    BAD_BLOCK = 4
    BAD_SYMBOL = 5


def _cause_label(n_bc: int, n_bb: int, n_bs: int) -> str:
    return "+".join(["BC"] * n_bc + ["BB"] * n_bb + ["BS"] * n_bs)


class _Slot:
    """Mutable per-device-bay state."""

    __slots__ = (
        "drive",
        "gen",
        "pe_offset",
        "cum",
        "bb_times",
        "bb_locs",
        "bb_ptr",
        "bs_times",
        "bs_locs",
        "bs_ptr",
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
        if mission < 1:
            raise EngineError("mission must be >= 1 hour")
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

        n = geometry.n_devices
        self.rng_repl = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        rng_sel = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        initial = rng_sel.choice(len(pool.drives), size=n, replace=False)

        # Hazard ingredients per log (P/E offset zero); slots recompute
        # after replacements.
        self.log_bits: list[np.ndarray] = []
        self.log_pe: list[np.ndarray] = []
        for i in range(n):
            log = usage_logs[i % len(usage_logs)]
            bits, pe = dense_arrays(log, self.mission)
            self.log_bits.append(bits)
            self.log_pe.append(pe)
        self.hour_grid = np.arange(self.mission + 1, dtype=float)
        self.curve_x = np.array([p for p, _ in profile.rber_curve.points])
        self.curve_y = np.array([r for _, r in profile.rber_curve.points])

        self.heap: list[tuple[float, int, int, int]] = []
        self.slots: list[_Slot] = []
        self.failed: set[int] = set()
        self.bb_stripe: dict[int, set[int]] = {}
        self.slot_blocks: dict[int, set[int]] = {i: set() for i in range(n)}
        self.bs_stripe: dict[int, dict[int, set[int]]] = {}
        self.slot_bs: dict[int, set[int]] = {i: set() for i in range(n)}
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

        t = self.tts
        while t < self.mission:
            heapq.heappush(self.heap, (t, EventKind.SCRUB, -1, 0))
            t += self.tts

    # -- installation and schedules -------------------------------------

    def _install(self, i: int, drive_idx: int, now: float) -> None:
        slot = self.slots[i]
        slot.drive = self.pool.drives[drive_idx]
        slot.pe_offset = float(self.log_pe[i][min(int(now), self.mission - 1)]) if now else 0.0
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 3, i, slot.gen]))

        rber = np.interp(self.log_pe[i] - slot.pe_offset, self.curve_x, self.curve_y)
        slot.cum = np.concatenate(([0.0], np.cumsum(rber * self.log_bits[i])))

        bb = np.asarray(slot.drive.mission_bb_times) + now
        bb = bb[bb < self.mission]
        slot.bb_times = bb
        slot.bb_locs = (rng.random(len(bb)) * self.geometry.blocks_per_device).astype(np.int64)
        slot.bb_ptr = 0
        if len(bb):
            heapq.heappush(self.heap, (float(bb[0]), EventKind.BAD_BLOCK, i, slot.gen))

        slot.bs_times = self._draw_bs_times(slot, now, rng)
        slot.bs_locs = (
            rng.random(len(slot.bs_times)) * self.geometry.symbols_per_device
        ).astype(np.int64)
        slot.bs_ptr = 0
        if len(slot.bs_times):
            heapq.heappush(
                self.heap, (float(slot.bs_times[0]), EventKind.BAD_SYMBOL, i, slot.gen)
            )

        if slot.drive.bad_chip_time is not None:
            t_bc = now + slot.drive.bad_chip_time
            if t_bc < self.mission:
                heapq.heappush(self.heap, (t_bc, EventKind.BAD_CHIP, i, slot.gen))

        wear = np.searchsorted(self.log_pe[i], self.profile.wol + slot.pe_offset)
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
        cpb = self.geometry.chunks_per_block
        bdl_groups: dict[tuple[int, str], int] = {}
        for stripe in stripes:
            if stripe in self.recorded:
                continue
            faulty, multi, n_bb, n_bs = stripe_counts(
                nf, self.bb_stripe.get(stripe), self.bs_stripe.get(stripe)
            )
            if not uncorrectable(code, faulty, multi):
                continue
            self.recorded.add(stripe)
            label = _cause_label(nf, n_bb, n_bs)
            if n_bb >= 1 and nf + n_bb >= 2:
                key = (stripe // cpb, label)
                bdl_groups[key] = bdl_groups.get(key, 0) + 1
            else:
                self.records.append(DataLossRecord(time, "SDL", label, 1))
        for (_, label), count in bdl_groups.items():
            self.records.append(DataLossRecord(time, "BDL", label, count))

    def _latent_stripes(self):
        if self.bb_stripe or self.bs_stripe:
            return sorted(set(self.bb_stripe) | set(self.bs_stripe))
        return ()

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

    def handle_bad_block(self, i: int, time: float) -> None:
        slot = self.slots[i]
        block = int(slot.bb_locs[slot.bb_ptr])
        self.slot_blocks[i].add(block)
        start = block * self.geometry.chunks_per_block
        stripes = range(start, start + self.geometry.chunks_per_block)
        for s in stripes:
            self.bb_stripe.setdefault(s, set()).add(i)
        if not self.adl_epoch:
            self._judge_stripes(stripes, time)
        slot.bb_ptr += 1
        if slot.bb_ptr < len(slot.bb_times):
            heapq.heappush(
                self.heap,
                (float(slot.bb_times[slot.bb_ptr]), EventKind.BAD_BLOCK, i, slot.gen),
            )

    def handle_bad_symbol(self, i: int, time: float) -> None:
        slot = self.slots[i]
        sym = int(slot.bs_locs[slot.bs_ptr])
        stripe = sym // self.geometry.chunk_pages
        self.bs_stripe.setdefault(stripe, {}).setdefault(i, set()).add(
            sym % self.geometry.chunk_pages
        )
        self.slot_bs[i].add(stripe)
        if not self.adl_epoch:
            self._judge_stripes((stripe,), time)
        slot.bs_ptr += 1
        if slot.bs_ptr < len(slot.bs_times):
            heapq.heappush(
                self.heap,
                (float(slot.bs_times[slot.bs_ptr]), EventKind.BAD_SYMBOL, i, slot.gen),
            )

    def apply_scrub(self, time: float) -> None:
        if not self.adl_epoch:
            self._judge_stripes(self._latent_stripes(), time)
        self.bb_stripe.clear()
        self.bs_stripe.clear()
        for i in range(self.geometry.n_devices):
            self.slot_blocks[i].clear()
            self.slot_bs[i].clear()
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
        """Forget device i's bad blocks and bad symbols."""
        cpb = self.geometry.chunks_per_block
        for block in self.slot_blocks[i]:
            for s in range(block * cpb, (block + 1) * cpb):
                devs = self.bb_stripe.get(s)
                if devs is not None:
                    devs.discard(i)
                    if not devs:
                        del self.bb_stripe[s]
        self.slot_blocks[i].clear()
        for s in self.slot_bs[i]:
            per = self.bs_stripe.get(s)
            if per is not None:
                per.pop(i, None)
                if not per:
                    del self.bs_stripe[s]
        self.slot_bs[i].clear()

    def _replace(self, i: int, time: float) -> None:
        """Install a fresh pool drive in bay i; the old drive's events go stale."""
        self.slots[i].gen += 1
        self._install(i, int(self.rng_repl.integers(len(self.pool.drives))), time)

    # -- main loop ----------------------------------------------------------

    def run(self) -> SimResult:
        heap = self.heap
        slots = self.slots
        while heap:
            time, kind, i, gen = heapq.heappop(heap)
            if time >= self.mission:
                break
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
            elif kind == EventKind.BAD_BLOCK:
                self.handle_bad_block(i, time)
            elif kind == EventKind.BAD_SYMBOL:
                self.handle_bad_symbol(i, time)
            elif kind == EventKind.WEAR_OUT:
                self.replace_worn_out(i, time)
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
