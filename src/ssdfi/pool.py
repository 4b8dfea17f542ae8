"""Drive pool generation calibrated against field failure statistics.

A pool is a population of simulated drives.  Each drive carries a
pre-drawn fault schedule for one mission: an optional bad chip time and
a set of mission bad block arrival times.  The simulator draws array
members from the pool and replays their schedules.

A generated pool stores every drive's bad block times, in drive order,
in one contiguous read-only float64 array; each drive's
`mission_bb_times` is a view of its own slice of that array.  Holding
millions of arrival times this way costs 8 bytes each, and a forked
worker shares the buffer instead of touching millions of Python floats.

Counts of mission bad blocks are heavily skewed in the field: the
median among affected drives is 2-3 while the mean is in the hundreds,
and drives that have already seen a few bad blocks tend to collect
hundreds more.  A single normal distribution cannot reproduce the
median, the mean and the conditional medians at the same time, so the
generator builds an explicit piecewise count distribution:

  * atoms at small counts position the population median,
  * piecewise uniform bands place the conditional medians (the median
    count among drives that reach k prior bad blocks, k in 2..5),
  * an open-ended top band absorbs whatever mass is needed to match the
    population mean,
  * drives marked as "bad chip with >5% failed blocks" sit above the 5%
    threshold; their mean is solved from the overall mean target.

Counts are realized through deterministic mid-quantiles of that
distribution and shuffled across drives, so a generated pool matches
the calibration targets tightly at any realistic pool size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .profiles import MISSION_HOURS, SsdModelProfile

GT5_FRACTION = 0.05  # "more than 5% of blocks failed" marking threshold
BC_GT5_SHARE = 2.0 / 3.0  # share of bad chip drives marked above the threshold

# Conditional median targets: median total mission bad blocks among
# drives that reach k prior bad blocks, per technology.
COND_MEDIAN_TARGETS = {
    "MLC": {2: 143, 3: 155, 4: 159, 5: 183},
    "SLC": {2: 5, 3: 20, 4: 43, 5: 77},
}
COND_TOLERANCE = 0.10

# Atom layout (count value -> probability mass) per technology and
# population median.  Mass below the median is 0.45 and through the
# median 0.58, keeping the empirical median pinned with margin on both
# sides.  SLC needs atoms up to 5 because its k=2 conditional target is
# itself a small count.
_ATOMS = {
    ("MLC", 2): {1: 0.45, 2: 0.13},
    ("MLC", 3): {1: 0.35, 2: 0.10, 3: 0.13},
    ("SLC", 2): {1: 0.45, 2: 0.13, 3: 0.05, 4: 0.07, 5: 0.05},
    ("SLC", 3): {1: 0.35, 2: 0.10, 3: 0.13, 4: 0.06, 5: 0.05},
}
_CONT_START = 6  # continuous bands start above the largest atom


class PoolError(ValueError):
    """Invalid pool parameters or infeasible calibration."""


@dataclass(frozen=True, eq=False)
class PooledSsd:
    """One drive's pre-drawn fault schedule for a full mission.

    `mission_bb_times` may be given as any sequence of floats; it is
    stored as a read-only float64 array.  Drives compare by identity.
    """

    drive_id: int
    mission_bb_times: np.ndarray  # ascending, within [0, mission)
    bad_chip_time: float | None  # in-mission hour, or None
    marked_bb_gt_5pct: bool

    def __post_init__(self):
        times = np.asarray(self.mission_bb_times, dtype=np.float64)
        if times.ndim != 1:
            raise PoolError("mission_bb_times must be one-dimensional")
        if times.flags.writeable:
            times = times.copy()
            times.flags.writeable = False
        object.__setattr__(self, "mission_bb_times", times)
        if times.size > 1 and (times[1:] <= times[:-1]).any():
            raise PoolError("mission_bb_times must be strictly ascending")
        if times.size and (times[0] < 0 or times[-1] >= MISSION_HOURS):
            raise PoolError("mission_bb_times must lie within [0, mission)")
        if self.bad_chip_time is not None and not 0 <= self.bad_chip_time < MISSION_HOURS:
            raise PoolError("bad_chip_time must lie within [0, mission)")
        if self.marked_bb_gt_5pct and self.bad_chip_time is None:
            raise PoolError("marked_bb_gt_5pct requires a bad chip time")


@dataclass(frozen=True, eq=False)
class SsdPool:
    profile_name: str
    blocks_per_device: int
    seed: int
    drives: tuple[PooledSsd, ...]

    def __reduce__(self):
        # All bad block times as one bytes object plus per-drive counts: an
        # unpickled pool, as a `spawn` or `forkserver` worker gets it,
        # holds one read-only buffer rather than a writeable array per drive.
        drives = self.drives
        times = b"".join(d.mission_bb_times.tobytes() for d in drives)
        counts = [d.mission_bb_times.size for d in drives]
        rest = [(d.drive_id, d.bad_chip_time, d.marked_bb_gt_5pct) for d in drives]
        return _unpickle_pool, (
            self.profile_name, self.blocks_per_device, self.seed, times, counts, rest
        )


def _unpickle_pool(profile_name, blocks_per_device, seed, times, counts, rest) -> SsdPool:
    flat = np.frombuffer(times, dtype=np.float64)  # read-only: bytes are immutable
    ends = np.cumsum(counts, dtype=np.int64).tolist()
    drives = tuple(
        PooledSsd(drive_id, flat[end - count : end], bad_chip_time, marked)
        for (drive_id, bad_chip_time, marked), count, end in zip(rest, counts, ends)
    )
    return SsdPool(profile_name, blocks_per_device, seed, drives)


@dataclass(frozen=True)
class PoolValidationReport:
    pool_size: int
    drives_with_bb: int
    drives_with_bc: int
    drives_bc_gt5: int
    bc_gt5_ratio: float
    median_bb: float  # among drives having bad blocks
    mean_bb: float
    cond_medians: dict[int, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Count distribution construction


@dataclass(frozen=True)
class _Segment:
    mass: float
    lo: float
    hi: float  # lo == hi: atom; otherwise uniform on (lo, hi]

    def mean(self) -> float:
        return self.lo if self.lo == self.hi else 0.5 * (self.lo + self.hi)


def _merge_targets(sk: dict[int, float], targets: dict[int, int]) -> list[tuple[float, float]]:
    """Knot positions for the conditional medians.

    Consecutive k with identical survival mass S(k) cannot have distinct
    conditional medians, so their targets merge into one knot placed in
    the intersection of their tolerance intervals.  Returns ascending
    (value, tail_mass) knots.
    """
    knots = []
    ks = sorted(targets)
    group = [ks[0]]
    for k in ks[1:]:
        if abs(sk[k] - sk[group[-1]]) < 1e-12:
            group.append(k)
        else:
            knots.append(group)
            group = [k]
    knots.append(group)
    out = []
    for group in knots:
        lo = max(targets[k] * (1 - COND_TOLERANCE) for k in group)
        hi = min(targets[k] * (1 + COND_TOLERANCE) for k in group)
        if lo > hi:
            raise PoolError(f"conditional median targets {group} are incompatible")
        out.append((0.5 * (lo + hi), 0.5 * sk[group[0]]))
    for (v0, t0), (v1, t1) in zip(out, out[1:]):
        if not (v1 > v0 and t1 < t0):
            raise PoolError("conditional median knots are not monotone")
    return out


def _build_segments(profile: SsdModelProfile, f_marked: float, blocks_per_device: int):
    """Unmarked-count segments plus the marked-drive mean.

    Returns (segments, marked_mean).  Masses are fractions of the whole
    bad-block drive population; the marked stratum holds mass f_marked
    above the 5% threshold and is sampled separately.
    """
    atoms = _ATOMS.get((profile.technology, profile.median_bb))
    targets = COND_MEDIAN_TARGETS[profile.technology]
    threshold_count = math.floor(GT5_FRACTION * blocks_per_device) + 1
    cap = max(int(0.95 * blocks_per_device), threshold_count + 1)

    if atoms is None:
        # Uncalibrated fallback for synthetic profiles: a plain normal
        # count model around the requested mean.
        marked_mean = min(cap, max(threshold_count + 1, profile.mean_bb))
        if f_marked < 1.0:
            unmarked_mean = (profile.mean_bb - f_marked * marked_mean) / (1 - f_marked)
        else:
            unmarked_mean = profile.mean_bb
        unmarked_mean = max(1.0, unmarked_mean)
        spread = 0.5 * unmarked_mean
        seg = [_Segment(1.0, max(1.0, unmarked_mean - spread), unmarked_mean + spread)]
        return seg, marked_mean

    total_atom_mass = sum(atoms.values())
    # Survival mass S(k) = P(count >= k) for k = 2..5; continuous bands
    # start above the largest atom, so only atoms matter here.
    sk = {k: 1.0 - sum(m for v, m in atoms.items() if v < k) for k in targets}
    # Targets inside the atom region are realized by the atom layout
    # itself (small SLC conditional medians); only larger targets become
    # band knots.
    knots = [(v, t) for v, t in _merge_targets(sk, targets) if v > _CONT_START]
    if not knots:
        raise PoolError("no conditional targets above the atom region")

    segments = [_Segment(m, float(v), float(v)) for v, m in sorted(atoms.items())]
    prev_x, prev_tail = float(_CONT_START), 1.0 - total_atom_mass
    for value, tail in knots:
        mass = prev_tail - tail
        if mass < 0:
            raise PoolError("non-monotone tail in band construction")
        if mass > 0:
            segments.append(_Segment(mass, prev_x, value))
        prev_x, prev_tail = value, tail

    top_mass = prev_tail - f_marked
    if top_mass <= 1e-9:
        raise PoolError(
            f"profile {profile.name}: marked fraction {f_marked:.3f} leaves no "
            "room for the calibrated top band"
        )

    # A narrow shoulder band right after the last knot keeps the
    # empirical conditional median from jumping into the wide top band
    # when the half-mass point falls exactly on the knot.
    shoulder_mass = min(0.02, top_mass / 3)
    shoulder_hi = prev_x + max(2.0, 0.06 * prev_x)
    segments.append(_Segment(shoulder_mass, prev_x, shoulder_hi))
    top_mass -= shoulder_mass
    lo_top = shoulder_hi

    fixed_mean = sum(s.mass * s.mean() for s in segments)
    marked_mean = float(min(cap, max(1.6 * threshold_count, threshold_count + 32)))
    top_mean = (profile.mean_bb - fixed_mean - f_marked * marked_mean) / top_mass
    if top_mean < lo_top + 1:
        # Mean target is low; push the marked stratum down toward the
        # threshold before clamping the top band at its floor.
        if f_marked > 0:
            marked_mean = (profile.mean_bb - fixed_mean - top_mass * (lo_top + 1)) / f_marked
            marked_mean = float(min(cap, max(threshold_count + 1, marked_mean)))
        top_mean = max(lo_top + 1, (profile.mean_bb - fixed_mean - f_marked * marked_mean) / top_mass)
    hi = 2 * top_mean - lo_top
    if hi > cap:
        # Top band saturates; shift the shortfall onto the marked stratum.
        shortfall = (top_mean - 0.5 * (lo_top + cap)) * top_mass
        hi = float(cap)
        if f_marked > 0:
            marked_mean = float(min(cap, marked_mean + shortfall / f_marked))
    segments.append(_Segment(top_mass, lo_top, float(hi)))
    return segments, marked_mean


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
    cum = np.cumsum(gaps)
    times = MISSION_HOURS * cum[:count] / cum[-1]
    # Guard against duplicate floats after normalization.
    times = np.maximum.accumulate(times)
    dup = np.flatnonzero(np.diff(times) <= 0)
    for i in dup:
        times[i + 1] = np.nextafter(times[i], np.inf)
    return times


def _truncated_exp_time(rng: np.random.Generator, pct: float) -> float:
    """Bad chip hour: exponential conditioned on landing inside the mission."""
    lam = -math.log(1.0 - pct) / MISSION_HOURS
    u = rng.random()
    return -math.log1p(-u * (1.0 - math.exp(-lam * MISSION_HOURS))) / lam


# ---------------------------------------------------------------------------


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
    flat.flags.writeable = False
    drives = [
        PooledSsd(
            drive_id=drive_id,
            mission_bb_times=flat[starts[drive_id] : ends[drive_id]],
            bad_chip_time=bc_times[drive_id],
            marked_bb_gt_5pct=drive_id in marked_ids,
        )
        for drive_id in range(pool_size)
    ]
    return SsdPool(
        profile_name=profile.name,
        blocks_per_device=blocks_per_device,
        seed=seed,
        drives=tuple(drives),
    )


def validate_pool(pool: SsdPool) -> PoolValidationReport:
    """Summary statistics used to check a pool against its targets."""
    counts = np.array([len(d.mission_bb_times) for d in pool.drives], dtype=np.int64)
    bb_counts = counts[counts > 0]
    bc = [d for d in pool.drives if d.bad_chip_time is not None]
    threshold = GT5_FRACTION * pool.blocks_per_device
    gt5 = sum(1 for d in bc if len(d.mission_bb_times) > threshold)
    cond = {}
    for k in (2, 3, 4, 5):
        sub = bb_counts[bb_counts >= k]
        cond[k] = float(np.median(sub)) if sub.size else float("nan")
    return PoolValidationReport(
        pool_size=len(pool.drives),
        drives_with_bb=int(bb_counts.size),
        drives_with_bc=len(bc),
        drives_bc_gt5=gt5,
        bc_gt5_ratio=gt5 / len(bc) if bc else float("nan"),
        median_bb=float(np.median(bb_counts)) if bb_counts.size else float("nan"),
        mean_bb=float(np.mean(bb_counts)) if bb_counts.size else float("nan"),
        cond_medians=cond,
    )
