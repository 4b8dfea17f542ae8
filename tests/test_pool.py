import pickle

import numpy as np
import pytest

from ssdfi.pool import (
    BC_GT5_SHARE,
    GT5_FRACTION,
    PoolError,
    PooledSsd,
    generate_pool,
    validate_pool,
)
from ssdfi.profiles import MISSION_HOURS, RberCurve, SsdModelProfile, profile_by_name

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
                d.marked_bb_gt_5pct,
            )
            for d in pool.drives
        ],
    )


class TestPooledSsd:
    def test_times_must_ascend(self):
        with pytest.raises(PoolError):
            PooledSsd(0, (5.0, 5.0), None, False)

    def test_times_inside_mission(self):
        with pytest.raises(PoolError):
            PooledSsd(0, (float(MISSION_HOURS),), None, False)

    def test_marked_requires_bad_chip(self):
        with pytest.raises(PoolError):
            PooledSsd(0, (1.0,), None, True)

    def test_hand_built_times_become_a_read_only_array(self):
        times = [1.0, 2.5]
        d = PooledSsd(0, times, None, False)
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

    def test_schedules_share_one_read_only_buffer(self):
        pool = generate_pool(synthetic_profile(), 300, BLOCKS, seed=7)
        flat = pool.drives[0].mission_bb_times.base
        assert flat is not None and not flat.flags.writeable
        assert all(d.mission_bb_times.base is flat for d in pool.drives)
        assert all(not d.mission_bb_times.flags.writeable for d in pool.drives)
        # The drives' slices tile the buffer in drive order.
        assert np.array_equal(np.concatenate([d.mission_bb_times for d in pool.drives]), flat)

    @pytest.mark.parametrize("protocol", [2, pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL])
    def test_pickled_pool_keeps_one_read_only_buffer(self, protocol):
        pool = generate_pool(synthetic_profile(), 300, BLOCKS, seed=7)
        copy = pickle.loads(pickle.dumps(pool, protocol=protocol))
        assert snapshot(copy) == snapshot(pool)
        flat = copy.drives[0].mission_bb_times.base
        assert flat is not None and not flat.flags.writeable
        assert all(d.mission_bb_times.base is flat for d in copy.drives)
        assert all(not d.mission_bb_times.flags.writeable for d in copy.drives)

    def test_exact_quotas(self):
        p = synthetic_profile()
        pool = generate_pool(p, 1000, BLOCKS, seed=1)
        n_bb = sum(1 for d in pool.drives if len(d.mission_bb_times))
        n_bc = sum(1 for d in pool.drives if d.bad_chip_time is not None)
        n_marked = sum(1 for d in pool.drives if d.marked_bb_gt_5pct)
        assert n_bb == round(1000 * p.pct_bad_block)
        assert n_bc == round(1000 * p.pct_bad_chip)
        assert n_marked == round(n_bc * BC_GT5_SHARE)

    def test_marked_drives_exceed_threshold(self):
        p = synthetic_profile()
        pool = generate_pool(p, 500, BLOCKS, seed=2)
        threshold = GT5_FRACTION * BLOCKS
        for d in pool.drives:
            if d.marked_bb_gt_5pct:
                assert d.bad_chip_time is not None
                assert len(d.mission_bb_times) > threshold

    def test_unmarked_bad_chip_drives_have_no_mission_bb(self):
        p = synthetic_profile()
        pool = generate_pool(p, 500, BLOCKS, seed=2)
        for d in pool.drives:
            if d.bad_chip_time is not None and not d.marked_bb_gt_5pct:
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

    def test_marked_quota_must_fit(self):
        p = synthetic_profile(pct_bad_chip=0.9, pct_bad_block=0.1)
        with pytest.raises(PoolError):
            generate_pool(p, 100, BLOCKS, seed=0)


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
