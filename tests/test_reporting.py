import json
import random

import pytest

from ssdfi.engine import DataLossRecord, SimResult
from ssdfi.reporting import AggregateReport, ReportingError, aggregate_results, emit_report

CONFIG = {"code": "RAID5", "tts": 100.0}


def result(seed, records):
    stripes = sum(r.stripes_lost for r in records)
    scope = {"ADL": 0, "BDL": 0, "SDL": 0}
    cause = {}
    for r in records:
        scope[r.scope] += r.stripes_lost
        c = cause.setdefault(r.cause, [0, 0])
        c[0] += 1
        c[1] += r.stripes_lost
    return SimResult(
        seed=seed,
        records=tuple(records),
        stripes_lost=stripes,
        bytes_lost=stripes * 131_072,
        scope_stripes=scope,
        cause_totals={k: tuple(v) for k, v in cause.items()},
        ddf=0,
        tdf=0,
        config=dict(CONFIG),
    )


def sample_results():
    return [
        result(3, [DataLossRecord(10.0, "SDL", "BS+BS", 1)]),
        result(1, [DataLossRecord(20.0, "BDL", "BC+BB", 16)]),
        result(2, []),
        result(7, [DataLossRecord(5.0, "SDL", "BB+BS", 1), DataLossRecord(6.0, "SDL", "BS+BS", 1)]),
    ]


class TestAggregate:
    def test_order_independence(self):
        results = sample_results()
        base = aggregate_results(results, "exp")
        for _ in range(5):
            random.shuffle(results)
            assert aggregate_results(results, "exp") == base

    def test_per_seed_sorted(self):
        report = aggregate_results(sample_results(), "exp")
        seeds = [s for s, _ in report.per_seed_stripes]
        assert seeds == sorted(seeds)

    def test_summary_stats(self):
        report = aggregate_results(sample_results(), "exp")
        assert report.n_sims == 4
        assert report.mean_stripes == pytest.approx((1 + 16 + 0 + 2) / 4)
        assert report.median_stripes == pytest.approx(1.5)
        assert report.scope_stripes == {"ADL": 0, "BDL": 16, "SDL": 3}

    def test_config_mismatch_rejected(self):
        results = sample_results()
        bad = result(9, [])
        object.__setattr__(bad, "config", {"code": "RAID6"})
        with pytest.raises(ReportingError):
            aggregate_results(results + [bad])

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ReportingError):
            aggregate_results([result(1, []), result(1, [])])

    def test_empty_rejected(self):
        with pytest.raises(ReportingError):
            aggregate_results([])


class TestBreakdown:
    def test_fractions_sum_to_one(self):
        results = [
            result(1, [DataLossRecord(1.0, "SDL", "BS+BS", 3)]),
            result(2, [DataLossRecord(2.0, "BDL", "BC+BB", 97)]),
        ]
        bd = aggregate_results(results).breakdown
        assert sum(v["fraction"] for v in bd.values()) == pytest.approx(1.0)
        assert bd["BC+BB"]["stripes"] == 97

    def test_sums_each_results_cause_totals(self):
        bd = aggregate_results(sample_results()).breakdown
        assert list(bd) == sorted(bd)
        assert bd == {
            "BB+BS": {"records": 1, "stripes": 1, "fraction": 1 / 19},
            "BC+BB": {"records": 1, "stripes": 16, "fraction": 16 / 19},
            "BS+BS": {"records": 2, "stripes": 2, "fraction": 2 / 19},
        }

    def test_empty(self):
        assert aggregate_results([result(1, []), result(2, [])]).breakdown == {}


class TestSerialization:
    def test_round_trip(self, tmp_path):
        # The JSON report carries every field of the report.
        report = aggregate_results(sample_results(), "exp")
        emit_report(report, tmp_path / "r.json")
        data = json.loads((tmp_path / "r.json").read_text())
        data["per_seed_stripes"] = tuple(map(tuple, data["per_seed_stripes"]))
        assert AggregateReport(**data) == report

    def test_json_byte_identical(self, tmp_path):
        report = aggregate_results(sample_results(), "exp")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(report, a)
        emit_report(report, b)
        assert a.read_bytes() == b.read_bytes()
        data = json.loads(a.read_text())
        assert data["schema_version"] == 1

    def test_csv_has_sections(self, tmp_path):
        report = aggregate_results(sample_results(), "exp")
        f = tmp_path / "r.csv"
        emit_report(report, f, fmt="csv")
        text = f.read_text()
        assert "mean_stripes" in text and "BC+BB" in text

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_interrupted_write_leaves_no_partial_report(self, tmp_path, monkeypatch, fmt):
        report = aggregate_results(sample_results(), "exp")
        old = tmp_path / f"old.{fmt}"
        emit_report(aggregate_results(sample_results()[:1], "exp"), old, fmt=fmt)
        before = old.read_bytes()

        def fail(*args, **kwargs):
            args[-1].write("partial")
            raise OSError("disk full")

        # Each writer gets one chunk of text out, then fails.
        monkeypatch.setattr("ssdfi.reporting.json.dump", fail)
        monkeypatch.setattr("ssdfi.reporting.csv.writer", lambda fh: fail(fh))
        for path in (tmp_path / f"new.{fmt}", old):
            with pytest.raises(OSError, match="disk full"):
                emit_report(report, path, fmt=fmt)
        assert old.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"old.{fmt}"]

    def test_unknown_format(self, tmp_path):
        report = aggregate_results(sample_results(), "exp")
        with pytest.raises(ReportingError):
            emit_report(report, tmp_path / "r.xml", fmt="xml")
