import pickle
import re

import numpy as np
import pytest

from ssdfi.pool import (
    BC_GT5_SHARE,
    GT5_FRACTION,
    PoolError,
    PooledSsd,
    _build_segments,
    _Segment,
    _unmarked_counts,
    generate_pool,
    validate_pool,
)
from ssdfi.profiles import (
    MISSION_HOURS,
    RberCurve,
    SsdModelProfile,
    default_profiles,
    profile_by_name,
)

import reference_pool

BLOCKS = 2048


def synthetic_profile(**overrides):
    kwargs = dict(
        name="synthetic",
        technology="MLC",
        pct_bad_chip=0.3,
        pct_bad_block=0.5,
        median_bb=5,  # no atom layout for this median -> plain normal counts
        mean_bb=200.0,
        factory_bb_mean=10.0,
        factory_bb_std=3.0,
        wol=10**9,
        bb_escalation_threshold=2,
        bb_escalation_factor=10.0,
        rber_curve=RberCurve(points=((0.0, 1e-8), (1e9, 1e-8))),
    )
    kwargs.update(overrides)
    return SsdModelProfile(**kwargs)


def snapshot(pool):
    """Every field of a pool and of its drives, with the times as bytes."""
    return (
        pool.profile_name,
        pool.blocks_per_device,
        pool.seed,
        [
            (
                d.drive_id,
                d.mission_bb_times.dtype.str,
                d.mission_bb_times.tobytes(),
                d.bad_chip_time,
            )
            for d in pool.drives
        ],
    )


def is_marked(drive, blocks):
    """A bad chip drive with more than 5% of its blocks bad in the mission."""
    return drive.bad_chip_time is not None and len(drive.mission_bb_times) > GT5_FRACTION * blocks


class TestPooledSsd:
    def test_times_must_ascend(self):
        with pytest.raises(PoolError):
            PooledSsd(0, (5.0, 5.0), None)

    def test_times_inside_mission(self):
        with pytest.raises(PoolError):
            PooledSsd(0, (float(MISSION_HOURS),), None)

    def test_hand_built_times_become_a_read_only_array(self):
        times = [1.0, 2.5]
        d = PooledSsd(0, times, None)
        times[0] = 3.0
        assert d.mission_bb_times.dtype == np.float64
        assert list(d.mission_bb_times) == [1.0, 2.5]
        assert not d.mission_bb_times.flags.writeable


class TestGeneratePool:
    def test_deterministic(self):
        p = synthetic_profile()
        a = generate_pool(p, 300, BLOCKS, seed=7)
        b = generate_pool(p, 300, BLOCKS, seed=7)
        assert snapshot(a) == snapshot(b)

    def test_seed_changes_pool(self):
        p = synthetic_profile()
        a = generate_pool(p, 300, BLOCKS, seed=7)
        b = generate_pool(p, 300, BLOCKS, seed=8)
        assert snapshot(a) != snapshot(b)

    @pytest.mark.parametrize("protocol", [2, pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL])
    def test_pickled_pool_rebuilds_the_same_read_only_drives(self, protocol):
        pool = generate_pool(synthetic_profile(), 300, BLOCKS, seed=7)
        copy = pickle.loads(pickle.dumps(pool, protocol=protocol))
        assert snapshot(copy) == snapshot(pool)
        for drives in (pool.drives, copy.drives):
            assert all(not d.mission_bb_times.flags.writeable for d in drives)

    def test_a_full_size_pool_pickles_without_its_times(self):
        # 10,000 MLC-B drives hold about 4.6M bad block times (37 MB as
        # float64); the pickle holds three small arrays instead.
        pool = generate_pool(profile_by_name("MLC-B"), 10_000, 16_384, seed=2021)
        assert len(pickle.dumps(pool, protocol=pickle.HIGHEST_PROTOCOL)) < 1_000_000

    def test_drives_read_as_a_sequence(self):
        pool = generate_pool(synthetic_profile(), 300, BLOCKS, seed=7)
        drives = pool.drives
        assert len(drives) == 300
        assert [d.drive_id for d in drives] == list(range(300))
        assert drives[-1].drive_id == 299
        with pytest.raises(IndexError):
            drives[300]
        with pytest.raises(TypeError):
            drives[1.0]

    def test_exact_quotas(self):
        p = synthetic_profile()
        pool = generate_pool(p, 1000, BLOCKS, seed=1)
        n_bb = sum(1 for d in pool.drives if len(d.mission_bb_times))
        n_bc = sum(1 for d in pool.drives if d.bad_chip_time is not None)
        n_marked = sum(1 for d in pool.drives if is_marked(d, BLOCKS))
        assert n_bb == round(1000 * p.pct_bad_block)
        assert n_bc == round(1000 * p.pct_bad_chip)
        assert n_marked == round(n_bc * BC_GT5_SHARE)

    def test_marked_drives_exceed_threshold(self):
        p = synthetic_profile()
        pool = generate_pool(p, 500, BLOCKS, seed=2)
        for d in pool.drives:
            if d.bad_chip_time is not None and len(d.mission_bb_times):
                assert is_marked(d, BLOCKS)

    def test_unmarked_bad_chip_drives_have_no_mission_bb(self):
        p = synthetic_profile()
        pool = generate_pool(p, 500, BLOCKS, seed=2)
        for d in pool.drives:
            if d.bad_chip_time is not None and not is_marked(d, BLOCKS):
                assert len(d.mission_bb_times) == 0

    def test_zero_rates(self):
        p = synthetic_profile(pct_bad_chip=0.0, pct_bad_block=0.0)
        pool = generate_pool(p, 200, BLOCKS, seed=3)
        assert all(d.bad_chip_time is None for d in pool.drives)
        assert all(len(d.mission_bb_times) == 0 for d in pool.drives)

    def test_bb_times_within_mission(self):
        p = synthetic_profile()
        pool = generate_pool(p, 200, BLOCKS, seed=4)
        for d in pool.drives:
            times = np.asarray(d.mission_bb_times)
            if times.size:
                assert times[0] >= 0
                assert times[-1] < MISSION_HOURS
                assert (np.diff(times) > 0).all()

    def test_ties_are_broken_within_a_drive_only(self, monkeypatch):
        # Every drive's raw times tie at 1 h.  Inside a drive each later
        # time moves one float above the one before; a drive's first time
        # stays at 1 h, though it equals the last time of the drive before.
        monkeypatch.setattr("ssdfi.pool._bb_times", lambda rng, count, *_: np.full(count, 1.0))
        pool = generate_pool(synthetic_profile(), 50, BLOCKS, seed=3)
        schedules = [d.mission_bb_times.tolist() for d in pool.drives if len(d.mission_bb_times)]
        assert len(schedules) >= 2 and max(map(len, schedules)) >= 2
        for times in schedules:
            expected = [1.0]
            while len(expected) < len(times):
                expected.append(float(np.nextafter(expected[-1], np.inf)))
            assert times == expected

    def test_a_nudged_time_that_ties_the_next_is_nudged_again(self, monkeypatch):
        # Raw times [1, 1, 1+, 1+, ...]: the second time moves to 1+, where
        # it ties the third, which moves to 1++, and so on down the drive.
        up = float(np.nextafter(1.0, np.inf))

        def raw(rng, count, *_):
            return np.array(([1.0, 1.0] + [up] * count)[:count])

        monkeypatch.setattr("ssdfi.pool._bb_times", raw)
        pool = generate_pool(synthetic_profile(), 50, BLOCKS, seed=3)
        schedules = [d.mission_bb_times.tolist() for d in pool.drives if len(d.mission_bb_times)]
        assert max(map(len, schedules)) >= 3
        for times in schedules:
            expected = [1.0]
            while len(expected) < len(times):
                expected.append(float(np.nextafter(expected[-1], np.inf)))
            assert times == expected

    def test_escalation_compresses_later_gaps(self):
        # After the threshold, arrival gaps shrink by the escalation
        # factor; with factor 100 the post-threshold spans must be far
        # shorter than the pre-threshold spans on average.
        p = synthetic_profile(bb_escalation_factor=100.0)
        pool = generate_pool(p, 400, BLOCKS, seed=5)
        pre, post = [], []
        for d in pool.drives:
            t = np.asarray(d.mission_bb_times)
            if len(t) > 10:
                pre.append(np.mean(np.diff(t[: p.bb_escalation_threshold + 1])))
                post.append(np.mean(np.diff(t[p.bb_escalation_threshold + 1 :])))
        assert np.mean(pre) > 10 * np.mean(post)

    def test_parameter_validation(self):
        p = synthetic_profile()
        with pytest.raises(PoolError):
            generate_pool(p, 0, BLOCKS, seed=0)
        with pytest.raises(PoolError):
            generate_pool(p, 100, 32, seed=0)

    def test_rejects_negative_seed_before_any_draw(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(PoolError, match="seed must be >= 0, got -1"):
            generate_pool(synthetic_profile(), 100, BLOCKS, seed=-1)

    @pytest.mark.parametrize("seed", [True, 7.0, "7"], ids=["bool", "float", "str"])
    def test_rejects_a_seed_that_is_not_an_integer_before_any_draw(self, monkeypatch, seed):
        # Every result echoes the pool's seed as `pool_seed`.
        def no_draws(*args, **kwargs):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(PoolError, match=re.escape(f"seed must be an integer, got {seed!r}")):
            generate_pool(synthetic_profile(), 100, BLOCKS, seed=seed)

    def test_numpy_integer_seed_is_kept_as_an_int(self):
        pool = generate_pool(synthetic_profile(), 100, BLOCKS, seed=np.int64(7))
        assert type(pool.seed) is int
        assert snapshot(pool) == snapshot(generate_pool(synthetic_profile(), 100, BLOCKS, seed=7))

    def test_marked_quota_must_fit(self):
        p = synthetic_profile(pct_bad_chip=0.9, pct_bad_block=0.1)
        with pytest.raises(PoolError):
            generate_pool(p, 100, BLOCKS, seed=0)


def marked_fraction(profile, pool_size):
    """The marked share of bad block drives that `generate_pool` computes."""
    n_marked = round(round(pool_size * profile.pct_bad_chip) * BC_GT5_SHARE)
    return n_marked / round(pool_size * profile.pct_bad_block)


def assert_counts_match_loop(segments, n, seed=5):
    """Array-built counts equal the frozen per-quantile loop's, draw for draw."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    counts = _unmarked_counts(segments, n, rng)
    expected = reference_pool._unmarked_counts(segments, n, ref_rng)
    assert counts.dtype == np.int64
    assert counts.tolist() == expected.tolist()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return counts


class TestUnmarkedCounts:
    """The array-built mid-quantile counts against the frozen loop."""

    @pytest.mark.parametrize("name", [p.name for p in default_profiles()])
    def test_calibrated_segments(self, name):
        profile = profile_by_name(name)
        for blocks in (2_048, 16_384, 131_072):
            segments, _ = _build_segments(profile, marked_fraction(profile, 10_000), blocks)
            assert len(segments) > 1
            for n in (0, 1, 2, 3, 7, 7_497):
                assert len(assert_counts_match_loop(segments, n)) == n

    def test_fallback_segment(self):
        profile = synthetic_profile()
        segments, _ = _build_segments(profile, marked_fraction(profile, 1_000), BLOCKS)
        assert len(segments) == 1
        for n in (0, 1, 2, 3, 7, 7_497):
            assert_counts_match_loop(segments, n)

    def test_target_on_a_cumulative_mass_stays_in_the_lower_segment(self):
        # Targets 1/6, 1/2 and 5/6 of the mass: 1/2 is exactly where the
        # atom ends, so it is the atom's count, not the band's lower edge.
        segments = [_Segment(0.5, 1.0, 1.0), _Segment(0.5, 10.0, 20.0)]
        counts = assert_counts_match_loop(segments, 3)
        assert sorted(counts.tolist()) == [1, 1, 17]


class TestMatchesEagerReference:
    """Every drive, rebuilt on reading, equals the eagerly drawn reference."""

    @pytest.mark.parametrize("name, seed", [("MLC-A", 20_240_811), ("MLC-B", 2021)])
    def test_benchmark_pools(self, name, seed):
        # The full-size pools the benchmark replays: a walk that drifts
        # late in a long stream shows only here.
        profile = profile_by_name(name)
        pool = generate_pool(profile, 10_000, 16_384, seed)
        assert snapshot(pool) == snapshot(reference_pool.generate_pool(profile, 10_000, 16_384, seed))

    @pytest.mark.parametrize("seed", [11, 2021])
    @pytest.mark.parametrize("name", [p.name for p in default_profiles()])
    def test_calibrated_profiles(self, name, seed):
        profile = profile_by_name(name)
        pool = generate_pool(profile, 2_000, 16_384, seed)
        assert snapshot(pool) == snapshot(reference_pool.generate_pool(profile, 2_000, 16_384, seed))

    @pytest.mark.parametrize(
        "overrides",
        [
            {},  # the synthetic profile as is; every variant uses the fallback count model
            {"bb_escalation_threshold": 1, "bb_escalation_factor": 1.0},
            {"bb_escalation_threshold": 7, "bb_escalation_factor": 3.5},
            {"bb_escalation_threshold": 10**6},
        ],
        ids=["fallback", "factor-1", "threshold-7", "never-escalates"],
    )
    def test_synthetic_profiles(self, overrides):
        profile = synthetic_profile(**overrides)
        for seed in (3, 4):
            pool = generate_pool(profile, 1_000, BLOCKS, seed)
            assert snapshot(pool) == snapshot(reference_pool.generate_pool(profile, 1_000, BLOCKS, seed))


class TestValidatePool:
    def test_reports_consistent_stats(self):
        p = synthetic_profile()
        pool = generate_pool(p, 1000, BLOCKS, seed=6)
        report = validate_pool(pool)
        assert report.pool_size == 1000
        assert report.drives_with_bb == round(1000 * p.pct_bad_block)
        assert report.drives_with_bc == round(1000 * p.pct_bad_chip)
        assert abs(report.bc_gt5_ratio - BC_GT5_SHARE) <= 0.01
        assert report.mean_bb == pytest.approx(p.mean_bb, rel=0.25)

    def test_calibrated_profile_median(self):
        p = profile_by_name("MLC-A")
        pool = generate_pool(p, 2000, 16_384, seed=11)
        report = validate_pool(pool)
        assert report.median_bb == p.median_bb
