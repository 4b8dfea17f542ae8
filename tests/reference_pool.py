"""Eager reference pool generator: a frozen oracle for the pool test.

This is `generate_pool` as it stood when a generated pool drew, tie-broke
and stored every drive's bad block times up front, in one flat read-only
buffer.  It is kept only so that `test_pool.py` can check, drive by
drive, that the production pool in `ssdfi.pool` rebuilds the same bytes;
nothing in `src/` imports it.  Its counts come from the per-quantile loop
that the production pool's array-built counts must reproduce.  Do not
change its behaviour: it defines what the production pool must reproduce.
"""
from __future__ import annotations

import math

import numpy as np

from ssdfi.pool import (
    BC_GT5_SHARE,
    GT5_FRACTION,
    PoolError,
    PooledSsd,
    SsdPool,
    _build_segments,
    _Segment,
    _truncated_exp_time,
)
from ssdfi.profiles import MISSION_HOURS, SsdModelProfile


def _quantile(segments: list[_Segment], q: float) -> float:
    total = sum(s.mass for s in segments)
    target = q * total
    acc = 0.0
    for s in segments:
        if target <= acc + s.mass or s is segments[-1]:
            if s.lo == s.hi:
                return s.lo
            f = min(1.0, max(0.0, (target - acc) / s.mass))
            return s.lo + f * (s.hi - s.lo)
        acc += s.mass
    return segments[-1].hi


def _unmarked_counts(segments: list[_Segment], n: int, rng: np.random.Generator) -> np.ndarray:
    """Deterministic mid-quantile counts, randomly assigned to drives."""
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    qs = (np.arange(n) + 0.5) / n
    counts = np.array([max(1, round(_quantile(segments, q))) for q in qs], dtype=np.int64)
    rng.shuffle(counts)
    return counts


def _bb_times(rng: np.random.Generator, count: int, threshold: int, factor: float) -> np.ndarray:
    """Arrival times for `count` bad blocks over one mission.

    Exponential inter-arrival construction conditioned on the count:
    unit-rate gaps up to the escalation threshold, gaps shrunk by the
    escalation factor afterwards, then normalized onto [0, mission).
    """
    k = min(count, threshold)
    gaps = np.empty(count + 1)
    gaps[:k] = rng.exponential(1.0, size=k)
    gaps[k:] = rng.exponential(1.0, size=count + 1 - k) / factor
    cum = gaps.cumsum()
    # Non-decreasing: scaling a non-decreasing `cum` by a positive factor
    # keeps its order under IEEE rounding.  `generate_pool` breaks ties.
    return MISSION_HOURS * cum[:count] / cum[-1]


def generate_pool(
    profile: SsdModelProfile,
    pool_size: int,
    blocks_per_device: int,
    seed: int,
) -> SsdPool:
    """Build a drive pool whose statistics match the profile.

    Deterministic in all arguments.  Quotas are exact: round(pool_size *
    pct) drives receive bad blocks / bad chips, and two thirds of the
    bad chip drives (rounded) are marked with more than 5% failed
    blocks.  Bad chip drives outside the marked share carry no mission
    bad blocks, keeping the 2/3 ratio exact.
    """
    if pool_size < 1:
        raise PoolError("pool_size must be >= 1")
    if blocks_per_device < 64:
        raise PoolError("blocks_per_device must be >= 64")

    n_bc = round(pool_size * profile.pct_bad_chip)
    n_bb = round(pool_size * profile.pct_bad_block)
    n_marked = round(n_bc * BC_GT5_SHARE)
    if n_marked > n_bb:
        raise PoolError("marked bad chip drives exceed the bad block quota")
    if n_bb - n_marked > pool_size - n_bc:
        raise PoolError("bad block quota does not fit outside the bad chip set")

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x500D]))
    threshold_count = math.floor(GT5_FRACTION * blocks_per_device) + 1
    f_marked = n_marked / n_bb if n_bb else 0.0
    if n_bb:
        segments, marked_mean = _build_segments(profile, f_marked, blocks_per_device)

    perm = rng.permutation(pool_size)
    bc_ids = set(int(i) for i in perm[:n_bc])
    marked_ids = set(int(i) for i in perm[:n_marked])
    unmarked_bb_ids = [int(i) for i in perm[n_bc : n_bc + n_bb - n_marked]]

    counts = np.zeros(pool_size, dtype=np.int64)
    if unmarked_bb_ids:
        counts[unmarked_bb_ids] = _unmarked_counts(segments, len(unmarked_bb_ids), rng)
    if n_marked:
        draws = rng.normal(marked_mean, 0.08 * marked_mean, size=n_marked)
        draws = np.clip(np.rint(draws), threshold_count, blocks_per_device)
        counts[sorted(marked_ids)] = draws.astype(np.int64)

    # Factory bad block counts are no longer kept, but drawing them keeps
    # every later draw, and so every schedule, at its established value.
    rng.normal(profile.factory_bb_mean, profile.factory_bb_std, size=pool_size)

    # Drive k's bad block times are flat[starts[k]:ends[k]].
    ends = np.cumsum(counts)
    starts = ends - counts
    flat = np.empty(int(ends[-1]))
    bc_times: list[float | None] = []
    for drive_id in range(pool_size):
        if counts[drive_id]:
            flat[starts[drive_id] : ends[drive_id]] = _bb_times(
                rng,
                int(counts[drive_id]),
                profile.bb_escalation_threshold,
                profile.bb_escalation_factor,
            )
        bc_times.append(
            _truncated_exp_time(rng, profile.pct_bad_chip) if drive_id in bc_ids else None
        )
    # Guard against duplicate floats after normalization: within a drive,
    # a time no later than the one before becomes the next float above it,
    # in ascending order, until no tie is left (a nudged time can tie with
    # the raw time after it).  A drive's first time is never moved.
    while True:
        dup = np.flatnonzero(flat[1:] <= flat[:-1]) + 1
        dup = dup[~np.isin(dup, starts)]
        if not dup.size:
            break
        for i in dup.tolist():
            flat[i] = np.nextafter(flat[i - 1], np.inf)
    flat.flags.writeable = False
    drives = [
        PooledSsd(
            drive_id=drive_id,
            mission_bb_times=flat[starts[drive_id] : ends[drive_id]],
            bad_chip_time=bc_times[drive_id],
        )
        for drive_id in range(pool_size)
    ]
    return SsdPool(
        profile_name=profile.name,
        blocks_per_device=blocks_per_device,
        seed=seed,
        drives=tuple(drives),
    )
