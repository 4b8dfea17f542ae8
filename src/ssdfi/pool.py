"""Drive pool generation calibrated against field failure statistics.

A pool is a population of simulated drives.  Each drive carries a
pre-drawn fault schedule for one mission: an optional bad chip time and
a set of mission bad block arrival times.  The simulator draws array
members from the pool and replays their schedules.

A generated pool does not store its drives' bad block times.  For each
drive it keeps the bad block count, the bad chip time and the position
of the pool's random stream just before that drive's times were drawn.
Reading `pool.drives[k]` redraws drive k's times from that position, so
a mission pays only for the drives it installs, and a pool pickles (to
a `spawn` or `forkserver` worker, say) as three small arrays.  A
hand-built pool holds the `PooledSsd` drives it is given.

Generating a pool costs about what its random draws cost.  The counts
are computed as arrays, and one walk of the stream then visits the
drives in order: for each drive with bad blocks it reads the stream
state once and draws the drive's gaps in one call, into a buffer that
every drive reuses.

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
import operator
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .profiles import MISSION_HOURS, SsdModelProfile
from .seeds import check_seed

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


@dataclass(frozen=True, eq=False)
class SsdPool:
    """A drive population: `drives[k]` is drive k.

    A hand-built pool passes its drives as a tuple of `PooledSsd`.  A
    generated pool's `drives` rebuilds a drive each time it is read.
    """

    profile_name: str
    blocks_per_device: int
    seed: int
    drives: Sequence[PooledSsd]


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


def _unmarked_counts(segments: list[_Segment], n: int, rng: np.random.Generator) -> np.ndarray:
    """Deterministic mid-quantile counts, randomly assigned to drives.

    The count at quantile q is the value where the cumulative mass
    reaches q times the total: an atom's value, or the point of a band
    (lo, hi] that far into its mass.  Every quantile is found at once; a
    quantile on a segment's upper cumulative mass stays in that segment.
    """
    masses, lo, hi = np.array([(s.mass, s.lo, s.hi) for s in segments], dtype=np.float64).T
    ends = np.cumsum(masses)  # added left to right, as a running sum would
    starts = np.concatenate(([0.0], ends[:-1]))
    total = sum(s.mass for s in segments)  # not ends[-1]: Python 3.12's `sum` compensates
    targets = (np.arange(n) + 0.5) / n * total
    seg = np.minimum(np.searchsorted(ends, targets, side="left"), len(segments) - 1)
    f = np.minimum(1.0, np.maximum(0.0, (targets - starts[seg]) / masses[seg]))
    values = lo[seg] + f * (hi[seg] - lo[seg])  # an atom's value when lo == hi
    counts = np.maximum(1, np.rint(values)).astype(np.int64)
    rng.shuffle(counts)
    return counts


def _unit_gaps(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill `out` with unit-rate exponential gaps drawn from `rng`.

    The one routine through which a drive's gaps leave the stream:
    `generate_pool` steps past each drive with it, and `_gaps` redraws the
    drive with it when the drive is read.
    """
    return rng.standard_exponential(out=out)


def _gaps(rng: np.random.Generator, count: int, threshold: int, factor: float) -> np.ndarray:
    """The `count + 1` exponential inter-arrival gaps of `count` bad blocks.

    Unit-rate gaps up to the escalation threshold, gaps shrunk by the
    escalation factor afterwards.  The draws go through `_unit_gaps`, which
    `generate_pool` also uses to step past the drive, so both take the
    same draws from the stream.
    """
    gaps = _unit_gaps(rng, np.empty(count + 1))
    gaps[min(count, threshold) :] /= factor
    return gaps


def _bb_times(rng: np.random.Generator, count: int, threshold: int, factor: float) -> np.ndarray:
    """Arrival times for `count` bad blocks over one mission.

    Exponential inter-arrival construction conditioned on the count: the
    gaps of `_gaps`, normalized onto [0, mission).
    """
    cum = _gaps(rng, count, threshold, factor).cumsum()
    # Non-decreasing: scaling a non-decreasing `cum` by a positive factor
    # keeps its order under IEEE rounding.  `_break_ties` breaks ties.
    return MISSION_HOURS * cum[:count] / cum[-1]


def _break_ties(times: np.ndarray) -> None:
    """Make one drive's bad block times strictly ascending, in place.

    Guards against duplicate floats after normalization: a time no later
    than the one before becomes the next float above it, in ascending
    order, until no tie is left (a nudged time can tie with the raw time
    after it).  The first time is never moved.
    """
    while True:
        dup = np.flatnonzero(times[1:] <= times[:-1]) + 1
        if not dup.size:
            return
        for i in dup.tolist():
            times[i] = np.nextafter(times[i - 1], np.inf)


def _truncated_exp_time(rng: np.random.Generator, pct: float) -> float:
    """Bad chip hour: exponential conditioned on landing inside the mission."""
    lam = -math.log(1.0 - pct) / MISSION_HOURS
    u = rng.random()
    return -math.log1p(-u * (1.0 - math.exp(-lam * MISSION_HOURS))) / lam


# ---------------------------------------------------------------------------
# Generated pools


def _stream_state(bit_generator: np.random.BitGenerator) -> tuple[int, tuple]:
    """A PCG64 state as (128-bit position, the rest of the state)."""
    state = bit_generator.state
    inner = state["state"]
    return inner["state"], (
        state["bit_generator"], inner["inc"], state["has_uint32"], state["uinteger"]
    )


# One generator per thread redraws every drive read in that thread: each
# rebuild sets the whole state first, and making a generator costs about
# as much as the rebuild itself.
_REBUILD = threading.local()


def _thread_rng() -> np.random.Generator:
    rng = getattr(_REBUILD, "rng", None)
    if rng is None:
        rng = _REBUILD.rng = np.random.Generator(np.random.PCG64())
    return rng


_NO_TIMES = np.empty(0)
_NO_TIMES.flags.writeable = False


@dataclass(frozen=True, eq=False)
class _GeneratedDrives(Sequence):
    """A generated pool's drives, each rebuilt when it is read.

    Drive k has `counts[k]` bad blocks, whose gaps the pool's PCG64
    stream drew from position `positions[k]` (high and low 64-bit words),
    and a bad chip at hour `bad_chip_times[k]` (NaN: none).  `stream` is
    the rest of the generator's state, which no drive's draws change.
    """

    counts: np.ndarray
    bad_chip_times: np.ndarray
    positions: np.ndarray
    stream: tuple
    threshold: int
    factor: float

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, k: int) -> PooledSsd:
        k = range(len(self.counts))[operator.index(k)]  # IndexError when out of range
        times = _NO_TIMES
        count = int(self.counts[k])
        if count:
            rng = _thread_rng()
            high, low = self.positions[k].tolist()
            name, inc, has_uint32, uinteger = self.stream
            rng.bit_generator.state = {
                "bit_generator": name,
                "state": {"state": high << 64 | low, "inc": inc},
                "has_uint32": has_uint32,
                "uinteger": uinteger,
            }
            times = _bb_times(rng, count, self.threshold, self.factor)
            _break_ties(times)
            times.flags.writeable = False  # so `PooledSsd` keeps it without a copy
        bad_chip_time = float(self.bad_chip_times[k])
        return PooledSsd(k, times, None if math.isnan(bad_chip_time) else bad_chip_time)


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

    Every draw is made here, in a fixed order, but a drive's bad block
    gaps are dropped once drawn: the pool keeps where in the stream they
    start and draws them again whenever the drive is read.
    """
    if pool_size < 1:
        raise PoolError("pool_size must be >= 1")
    if blocks_per_device < 64:
        raise PoolError("blocks_per_device must be >= 64")
    seed = check_seed(seed, PoolError)  # echoed as every result's `pool_seed`

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

    threshold, factor = profile.bb_escalation_threshold, profile.bb_escalation_factor
    bit_generator = rng.bit_generator
    _, stream = _stream_state(bit_generator)
    buffer = np.empty(int(counts.max()) + 1)  # takes every drive's gaps in turn
    positions = []
    bc_times = np.full(pool_size, np.nan)
    for drive_id, count in enumerate(counts.tolist()):
        if count:
            position, rest = _stream_state(bit_generator)
            # Exponential and uniform draws move only the 128-bit position,
            # so that position alone restarts the drive's draws.
            if rest != stream:
                raise RuntimeError(f"drawing moved the PCG64 state beyond its position: {rest}")
            positions.append(position.to_bytes(16, "big"))
            _unit_gaps(rng, buffer[: count + 1])
        else:
            positions.append(bytes(16))
        if drive_id in bc_ids:
            bc_times[drive_id] = _truncated_exp_time(rng, profile.pct_bad_chip)
    # One row of (high, low) 64-bit words per drive.
    positions = np.frombuffer(b"".join(positions), dtype=">u8").reshape(pool_size, 2)
    positions = positions.astype(np.uint64)
    for column in (counts, bc_times, positions):
        column.flags.writeable = False
    return SsdPool(
        profile_name=profile.name,
        blocks_per_device=blocks_per_device,
        seed=seed,
        drives=_GeneratedDrives(counts, bc_times, positions, stream, threshold, factor),
    )


def validate_pool(pool: SsdPool) -> PoolValidationReport:
    """Summary statistics used to check a pool against its targets."""
    counts, bc_counts = [], []
    for d in pool.drives:  # a generated pool rebuilds each drive as it is read
        counts.append(len(d.mission_bb_times))
        if d.bad_chip_time is not None:
            bc_counts.append(counts[-1])
    counts = np.array(counts, dtype=np.int64)
    bb_counts = counts[counts > 0]
    threshold = GT5_FRACTION * pool.blocks_per_device
    gt5 = sum(1 for count in bc_counts if count > threshold)
    cond = {}
    for k in (2, 3, 4, 5):
        sub = bb_counts[bb_counts >= k]
        cond[k] = float(np.median(sub)) if sub.size else float("nan")
    return PoolValidationReport(
        pool_size=len(pool.drives),
        drives_with_bb=int(bb_counts.size),
        drives_with_bc=len(bc_counts),
        drives_bc_gt5=gt5,
        bc_gt5_ratio=gt5 / len(bc_counts) if bc_counts else float("nan"),
        median_bb=float(np.median(bb_counts)) if bb_counts.size else float("nan"),
        mean_bb=float(np.mean(bb_counts)) if bb_counts.size else float("nan"),
        cond_medians=cond,
    )
