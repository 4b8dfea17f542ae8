import numpy as np
import pytest

from ssdfi.workload import (
    SynthWorkloadParams,
    UsageLog,
    WorkloadError,
    dense_arrays,
    parse_usage_log,
    synthesize_usage_log,
    write_usage_log,
)


def make_log():
    return UsageLog(
        device_id="d0",
        hours=(0, 1, 3),
        bits_read=(100.0, 200.0, 50.0),
        bits_written=(10.0, 20.0, 5.0),
        pe_cycles=(0.0, 1.0, 2.0),
    )


class TestUsageLog:
    def test_cycle_hours(self):
        assert make_log().cycle_hours == 4

    def test_columns_become_tuples(self):
        log = make_log()
        listed = UsageLog(
            "d0", list(log.hours), list(log.bits_read), np.array(log.bits_written),
            list(log.pe_cycles),
        )
        assert listed == log and hash(listed) == hash(log)

    def test_requires_samples(self):
        with pytest.raises(WorkloadError):
            UsageLog("d", (), (), (), ())

    def test_hours_strictly_increasing(self):
        with pytest.raises(WorkloadError):
            UsageLog("d", (0, 0), (1.0, 1.0), (0.0, 0.0), (0.0, 0.0))

    def test_pe_non_decreasing(self):
        with pytest.raises(WorkloadError):
            UsageLog("d", (0, 1), (1.0, 1.0), (0.0, 0.0), (2.0, 1.0))

    def test_negative_bits_rejected(self):
        with pytest.raises(WorkloadError):
            UsageLog("d", (0,), (-1.0,), (0.0,), (0.0,))


class TestBitsAccessed:
    # Bits read plus written per mission hour, as dense_arrays lays them out.
    def test_sampled_hour(self):
        bits, _ = dense_arrays(make_log(), 4)
        assert bits[1] == 220.0 and bits[3] == 55.0

    def test_unsampled_hour_is_zero(self):
        bits, _ = dense_arrays(make_log(), 4)
        assert bits[2] == 0.0

    def test_cyclic_replay(self):
        bits, _ = dense_arrays(make_log(), 8)
        assert list(bits[4:]) == list(bits[:4])


class TestDenseArrays:
    def test_shapes_and_tiling(self):
        log = make_log()
        bits, pe = dense_arrays(log, 10)
        assert bits.shape == pe.shape == (10,)
        assert bits[0] == 110.0 and bits[4] == 110.0 and bits[2] == 0.0

    def test_pe_accumulates_across_replays(self):
        log = make_log()
        _, pe = dense_arrays(log, 12)
        # One replay adds the final cycle P/E total.
        assert pe[3] == 2.0
        assert pe[4] == 2.0  # replay hour 0 carries 2.0 + 0.0
        assert pe[7] == 4.0
        assert pe[11] == 6.0

    def test_pe_forward_filled(self):
        log = make_log()
        _, pe = dense_arrays(log, 4)
        assert pe[2] == 1.0  # unsampled hour keeps last known P/E


class TestSynthesis:
    def test_deterministic(self):
        p = SynthWorkloadParams()
        a = synthesize_usage_log(p, "d0", seed=5)
        b = synthesize_usage_log(p, "d0", seed=5)
        assert a == b
        c = synthesize_usage_log(p, "d0", seed=6)
        assert a != c

    def test_rates_within_jitter(self):
        p = SynthWorkloadParams(read_rate=1000.0, write_rate=500.0, jitter=0.1)
        log = synthesize_usage_log(p, "d0", seed=1)
        reads = np.asarray(log.bits_read) / 8.0
        writes = np.asarray(log.bits_written) / 8.0
        assert (reads >= 900.0).all() and (reads <= 1100.0).all()
        assert (writes >= 450.0).all() and (writes <= 550.0).all()

    def test_pe_growth(self):
        p = SynthWorkloadParams(
            write_rate=1e9, device_capacity=1e9, write_amplification=2.0, duration_hours=24
        )
        log = synthesize_usage_log(p, "d0", seed=2)
        pe = np.asarray(log.pe_cycles)
        assert (np.diff(pe) >= 0).all()
        assert pe[-1] == pytest.approx(2.0 * 24, rel=0.15)

    def test_rejects_negative_seed_before_any_draw(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(WorkloadError, match="seed must be >= 0, got -1"):
            synthesize_usage_log(SynthWorkloadParams(), "d0", seed=-1)

    @pytest.mark.parametrize("seed", [True, 2.0, "3", None])
    def test_rejects_a_seed_that_is_not_an_integer(self, seed):
        with pytest.raises(WorkloadError, match="seed must be an integer"):
            synthesize_usage_log(SynthWorkloadParams(), "d0", seed=seed)

    def test_takes_a_numpy_integer_seed_as_an_int(self):
        p = SynthWorkloadParams()
        assert synthesize_usage_log(p, "d0", seed=np.int64(3)) == synthesize_usage_log(
            p, "d0", seed=3
        )

    def test_param_validation(self):
        with pytest.raises(WorkloadError):
            SynthWorkloadParams(duration_hours=0)
        with pytest.raises(WorkloadError):
            SynthWorkloadParams(jitter=1.0)
        with pytest.raises(WorkloadError):
            SynthWorkloadParams(write_amplification=0.5)


class TestRoundTrip:
    def test_write_then_parse(self, tmp_path):
        p = SynthWorkloadParams(duration_hours=24)
        logs = [synthesize_usage_log(p, f"d{i}", seed=i) for i in range(3)]
        f = tmp_path / "logs.csv"
        write_usage_log(logs, f)
        parsed = parse_usage_log(f)
        assert parsed == logs

    def test_bad_header(self, tmp_path):
        f = tmp_path / "logs.csv"
        f.write_text("device,hour\nd0,0\n")
        with pytest.raises(WorkloadError):
            parse_usage_log(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "logs.csv"
        f.write_text("device_id,hour,bits_read,bits_written,pe_cycles\n")
        with pytest.raises(WorkloadError):
            parse_usage_log(f)
