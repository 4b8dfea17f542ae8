import json

import pytest

from ssdfi import cli
from ssdfi.cli import derive_seed, main, run_experiment
from ssdfi.codes import ErasureCode
from ssdfi.profiles import MISSION_HOURS
from ssdfi.workload import parse_usage_log


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(1, "k", 0) == derive_seed(1, "k", 0)

    def test_distinct_inputs(self):
        seeds = {
            derive_seed(1, "k", 0),
            derive_seed(1, "k", 1),
            derive_seed(2, "k", 0),
            derive_seed(1, "j", 0),
        }
        assert len(seeds) == 4

    def test_range(self):
        s = derive_seed(123, "grid", 456)
        assert 0 <= s < 2**63


class TestSynthLogCommand:
    def test_writes_parseable_logs(self, tmp_path):
        out = tmp_path / "logs.csv"
        assert main(["synth-log", "--devices", "3", "--out", str(out)]) == 0
        logs = parse_usage_log(out)
        assert len(logs) == 3


class TestCostCommand:
    def test_prints_costs(self, capsys):
        assert main(["cost", "--code", "pmds11", "--devices", "8", "--chunk-pages", "4"]) == 0
        out = capsys.readouterr().out
        assert "erf=1.161290" in out
        assert "encode_xors_per_stripe=59" in out


@pytest.fixture(scope="module")
def small_kwargs():
    return dict(
            codes=[ErasureCode.RAID5, ErasureCode.PMDS11],
            models=["MLC-A"],
            tts_values=[10_000.0],
            ttr_values=[10.0],
            stripe_kbs=[128],
            n_sims=4,
            master_seed=99,
            geometry_blocks=4096,
            pool_size=200,
            pool_blocks=2048,
    )


class TestRunExperiment:
    def test_reports_and_manifest(self, tmp_path, small_kwargs):
        out = tmp_path / "rep"
        manifest = run_experiment(out_dir=out, **small_kwargs)
        assert len(manifest["reports"]) == 2
        on_disk = json.loads((out / "manifest.json").read_text())
        assert on_disk["master_seed"] == 99
        for key, entry in on_disk["reports"].items():
            data = json.loads((out / entry["path"]).read_text())
            assert data["experiment_id"] == key
            assert data["n_sims"] == 4
        paths = [entry["path"] for entry in on_disk["reports"].values()]
        assert sorted(p.name for p in out.iterdir()) == sorted(paths + ["manifest.json"])

    def test_workers_byte_identical(self, tmp_path, small_kwargs):
        d1, d2 = tmp_path / "w1", tmp_path / "w2"
        run_experiment(out_dir=d1, workers=1, **small_kwargs)
        run_experiment(out_dir=d2, workers=2, **small_kwargs)
        files = sorted(p.name for p in d1.iterdir())
        assert files == sorted(p.name for p in d2.iterdir())
        for name in files:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_one_process_pool_per_grid(self, tmp_path, small_kwargs, monkeypatch):
        created = []
        original = cli.multiprocessing.Pool

        def counting_pool(*args, **kwargs):
            created.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli.multiprocessing, "Pool", counting_pool)
        manifest = run_experiment(out_dir=tmp_path / "w2", workers=2, **small_kwargs)
        assert len(manifest["reports"]) == 2
        assert len(created) == 1

    @pytest.mark.parametrize(
        "name, value",
        [
            ("workers", 0), ("workers", -3), ("n_sims", 0), ("n_sims", -1),
            ("mission", 0), ("mission", MISSION_HOURS + 1),
        ],
    )
    def test_rejects_bad_counts_before_any_pool(
        self, tmp_path, small_kwargs, monkeypatch, name, value
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("pool generated before the check")

        monkeypatch.setattr(cli, "generate_pool", no_pool)
        with pytest.raises(ValueError, match=name):
            run_experiment(out_dir=tmp_path / "out", **{**small_kwargs, name: value})
        assert not (tmp_path / "out").exists()

    def test_rejects_usage_log_of_other_device_count(self, tmp_path, small_kwargs):
        logs = tmp_path / "logs.csv"
        assert main(["synth-log", "--devices", "3", "--out", str(logs)]) == 0
        with pytest.raises(ValueError, match="3 device log"):
            run_experiment(
                out_dir=tmp_path / "out", n_devices=8, usage_log_path=logs, **small_kwargs
            )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--workers", "0"], "workers must be at least 1"),
            (["--sims", "0"], "n_sims must be at least 1"),
            (["--mission", "40000"], "mission must be between 1 and"),
            (["--usage-log", "LOGS"], "3 device log"),
        ],
        ids=["workers", "sims", "mission", "usage-log"],
    )
    def test_command_reports_rejected_input_as_usage_error(self, tmp_path, capsys, argv, message):
        logs = tmp_path / "logs.csv"
        assert main(["synth-log", "--devices", "3", "--out", str(logs)]) == 0
        capsys.readouterr()
        argv = [str(logs) if a == "LOGS" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(["run", "--out", str(tmp_path / "out"), *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ssdfi run")
        assert "ssdfi run: error: " in err and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_csv_format(self, tmp_path, small_kwargs):
        kwargs = dict(small_kwargs, codes=[ErasureCode.RAID5], n_sims=2, fmt="csv")
        out = tmp_path / "csv"
        manifest = run_experiment(out_dir=out, **kwargs)
        (name,) = [e["path"] for e in manifest["reports"].values()]
        assert name.endswith(".csv")
        assert "mean_stripes" in (out / name).read_text()


class TestValidatePoolCommand:
    def test_synthetic_pool_passes(self, capsys):
        code = main(
            [
                "validate-pool",
                "--model",
                "SLC-A",
                "--pool-size",
                "10000",
                "--pool-blocks",
                "16384",
                "--seed",
                "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip().endswith("PASS")
