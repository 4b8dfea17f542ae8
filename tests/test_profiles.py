import numpy as np
import pytest

from judge_view import scheduled
from ssdfi.engine import EventKind, _Draw
from ssdfi.geometry import ArrayGeometry
from ssdfi.pool import PooledSsd, SsdPool
from ssdfi.profiles import (
    MISSION_HOURS,
    ProfileError,
    RberCurve,
    SsdModelProfile,
    default_profiles,
    load_profiles,
    load_rber_curve,
    profile_by_name,
)
from ssdfi.workload import UsageLog, WorkloadError


def make_curve():
    return RberCurve(points=((0.0, 1e-8), (1000.0, 1e-6), (3000.0, 1e-4)))


def hourly_rates(curve, bits, pe):
    """Bad-symbol arrivals per hour the engine sets up for a fresh drive.

    One log hour per `pe` entry, each accessing `bits` bits.
    """
    hours = len(pe)
    log = UsageLog("d", tuple(range(hours)), (bits,) * hours, (0.0,) * hours, tuple(pe))
    profile = SsdModelProfile(
        name="X", technology="MLC", pct_bad_chip=0.0, pct_bad_block=0.0,
        median_bb=1, mean_bb=1.0, factory_bb_mean=0.0, factory_bb_std=0.0,
        wol=10**8, bb_escalation_threshold=1, bb_escalation_factor=1.0, rber_curve=curve,
    )
    pool = SsdPool("X", 64, 0, (PooledSsd(0, (), None),) * 3)
    geometry = ArrayGeometry(n_devices=3, blocks_per_device=64, stripe_size=3 * 4096 * 4)
    draw = _Draw(geometry, profile, pool, [log], 1e6, 1e6, hours, 0)
    return np.diff(draw._hazard(0, 0.0)), scheduled(draw.timeline(), 0, EventKind.BAD_SYMBOL)[0]


class TestRberCurve:
    def test_requires_two_points(self):
        with pytest.raises(ProfileError):
            RberCurve(points=((0.0, 1e-8),))

    def test_requires_ascending_pe(self):
        with pytest.raises(ProfileError):
            RberCurve(points=((10.0, 1e-8), (10.0, 1e-7)))

    def test_requires_positive_rber(self):
        with pytest.raises(ProfileError):
            RberCurve(points=((0.0, 0.0), (10.0, 1e-7)))

    def test_interpolates_linearly(self):
        rates, _ = hourly_rates(make_curve(), 1.0, (500.0, 2000.0))
        assert rates == pytest.approx([0.5 * (1e-8 + 1e-6), 0.5 * (1e-6 + 1e-4)])

    def test_clamps_at_ends(self):
        rates, _ = hourly_rates(make_curve(), 1.0, (0.0, 1e9))
        assert rates == pytest.approx([1e-8, 1e-4])

    def test_rejects_negative_pe(self):
        # The engine reads P/E counts only from usage logs, which reject
        # negative ones.
        with pytest.raises(WorkloadError):
            UsageLog("d", (0,), (0.0,), (0.0,), (-1.0,))


class TestBadSymbolRate:
    def test_product(self):
        rates, _ = hourly_rates(RberCurve(((0.0, 1e-8), (1e9, 1e-8))), 4e6, (0.0, 5.0))
        assert rates == pytest.approx([0.04, 0.04])

    def test_zero_bits(self):
        rates, times = hourly_rates(make_curve(), 0.0, (0.0, 2000.0))
        assert list(rates) == [0.0, 0.0]
        assert len(times) == 0

    def test_rejects_negative(self):
        # Both factors of the rate reject negative inputs.
        with pytest.raises(ProfileError):
            RberCurve(points=((0.0, -1e-8), (10.0, 1e-7)))
        with pytest.raises(WorkloadError):
            UsageLog("d", (0,), (0.0,), (-1.0,), (0.0,))


class TestSsdModelProfile:
    def base_kwargs(self):
        return dict(
            name="X",
            technology="MLC",
            pct_bad_chip=0.05,
            pct_bad_block=0.3,
            median_bb=2,
            mean_bb=500.0,
            factory_bb_mean=20.0,
            factory_bb_std=5.0,
            wol=3000,
            bb_escalation_threshold=2,
            bb_escalation_factor=100.0,
            rber_curve=make_curve(),
        )

    def test_valid(self):
        SsdModelProfile(**self.base_kwargs())

    @pytest.mark.parametrize(
        "field,value",
        [
            ("technology", "TLC"),
            ("pct_bad_chip", 1.5),
            ("pct_bad_block", -0.1),
            ("median_bb", 0),
            ("mean_bb", 1.0),  # below median
            ("wol", 0),
            ("bb_escalation_threshold", 0),
            ("bb_escalation_factor", 0.5),
            ("factory_bb_std", -1.0),
        ],
    )
    def test_invalid_fields(self, field, value):
        kwargs = self.base_kwargs()
        kwargs[field] = value
        with pytest.raises(ProfileError):
            SsdModelProfile(**kwargs)


class TestDefaultProfiles:
    def test_six_models(self):
        profiles = default_profiles()
        names = [p.name for p in profiles]
        assert names == ["MLC-A", "MLC-B", "MLC-C", "MLC-D", "SLC-A", "SLC-B"]

    def test_technologies(self):
        for p in default_profiles():
            assert p.technology == p.name.split("-")[0]

    def test_lookup(self):
        p = profile_by_name("SLC-B")
        assert p.name == "SLC-B"
        with pytest.raises(ProfileError):
            profile_by_name("QLC-A")

    def test_curves_cover_wol(self):
        for p in default_profiles():
            assert p.rber_curve.points[-1][0] >= p.wol


class TestLoading:
    def test_bad_curve_header(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("cycles,rber\n0,1e-8\n10,1e-7\n")
        with pytest.raises(ProfileError):
            load_rber_curve(f)

    def test_bad_profile_header(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("name,technology\nX,MLC\n")
        with pytest.raises(ProfileError):
            load_profiles(f)

    def test_curve_roundtrip(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("pe_cycles,rber\n0,1e-8\n10,1e-7\n")
        curve = load_rber_curve(f)
        assert curve.points == ((0.0, 1e-8), (10.0, 1e-7))

    def test_mission_constant(self):
        assert MISSION_HOURS == 35_040
