import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

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

    def test_rejects_no_devices_before_writing(self, tmp_path, capsys):
        out = tmp_path / "logs.csv"
        with pytest.raises(SystemExit) as exc:
            main(["synth-log", "--devices", "0", "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: ssdfi synth-log")
        assert "--devices must be at least 1, got 0" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_rejects_negative_seed_before_writing(self, tmp_path, capsys):
        out = tmp_path / "logs.csv"
        with pytest.raises(SystemExit) as exc:
            main(["synth-log", "--seed", "-1", "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: ssdfi synth-log")
        assert "ssdfi synth-log: error: seed must be >= 0, got -1" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_reports_unwritable_path_as_usage_error(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "logs.csv"
        with pytest.raises(SystemExit) as exc:
            main(["synth-log", "--devices", "2", "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: ssdfi synth-log")
        assert f"ssdfi synth-log: error: cannot write {out}: " in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestCostCommand:
    def test_prints_costs(self, capsys):
        assert main(["cost", "--code", "pmds11", "--devices", "8", "--chunk-pages", "4"]) == 0
        out = capsys.readouterr().out
        assert "erf=1.161290" in out
        assert "encode_xors_per_stripe=59" in out

    def test_reports_rejected_input_as_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cost", "--devices", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: ssdfi cost")
        assert "ssdfi cost: error: need at least 3 devices" in captured.err
        assert captured.out == ""

    def test_runs_as_module(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-m", "ssdfi", "cost", "--code", "raid5"],
            capture_output=True, text=True, env=env, check=False,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[:3] == [
            "code=RAID5 n=8 r=4", "encode_xors_per_stripe=28", "erf=1.125000",
        ]


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


# Criterion 13's grid (tests/test_acceptance.py).
CRITERION_13_GRID = dict(
    codes=[ErasureCode.RAID5, ErasureCode.PMDS11],
    models=["MLC-A"],
    tts_values=[10_000.0],
    ttr_values=[10.0],
    stripe_kbs=[128],
    n_sims=6,
    master_seed=41,
    geometry_blocks=4_096,
    pool_size=300,
    pool_blocks=2_048,
)


@pytest.fixture(scope="module")
def one_worker_grid(tmp_path_factory):
    """The files, by name, of criterion 13's grid run at one worker."""
    out = tmp_path_factory.mktemp("grid") / "w1"
    run_experiment(out_dir=out, workers=1, **CRITERION_13_GRID)
    return {p.name: p.read_bytes() for p in out.iterdir()}


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

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_start_methods_byte_identical(self, tmp_path, monkeypatch, one_worker_grid, method):
        # Workers that import the package afresh, as macOS does and as Linux
        # will by default from Python 3.14, write the same bytes as one worker.
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        monkeypatch.setattr(cli, "multiprocessing", multiprocessing.get_context(method))
        out = tmp_path / method
        run_experiment(out_dir=out, workers=2, **CRITERION_13_GRID)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == one_worker_grid

    @pytest.mark.parametrize(
        "name, value",
        [
            ("workers", 0), ("workers", -3), ("n_sims", 0), ("n_sims", -1),
            ("mission", 0), ("mission", MISSION_HOURS + 1), ("mission", 200.5), ("fmt", "xml"),
            ("pool_size", 5),
            # A bool would pass for 1, and a string fail with a TypeError.
            ("workers", True), ("n_sims", True), ("n_sims", 2.0), ("mission", True),
            ("mission", "100"),
            pytest.param("tts_values", [0.0], id="tts_values-0"),
            pytest.param("ttr_values", [-1.0], id="ttr_values--1"),
            pytest.param("stripe_kbs", [100], id="stripe_kbs-100"),
            pytest.param("models", ["MLC-A", "QLC-Z"], id="models-QLC-Z"),
        ],
    )
    def test_rejects_bad_counts_before_any_pool(
        self, tmp_path, small_kwargs, monkeypatch, name, value
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("pool generated before the check")

        # The grid's lists are rejected by the engine's and the geometry's own checks.
        message = {
            "tts_values": "tts=0 ", "ttr_values": "ttr=-1$", "stripe_kbs": "stripe_size",
            "models": "no profile named 'QLC-Z'",
        }
        monkeypatch.setattr(cli, "generate_pool", no_pool)
        with pytest.raises(ValueError, match=message.get(name, name)):
            run_experiment(out_dir=tmp_path / "out", **{**small_kwargs, name: value})
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "name, value, key",
        [
            ("tts_values", [10_000.0, 1e4], "RAID5-MLC-A-tts10000-ttr10-s128"),
            ("ttr_values", [10.0, 10.0000001], "PMDS11-MLC-A-tts10000-ttr10-s128"),
            ("codes", [ErasureCode.RAID5, ErasureCode.RAID5], "RAID5-MLC-A-tts10000-ttr10-s128"),
            ("models", ["MLC-A", "MLC-A"], "RAID5-MLC-A-tts10000-ttr10-s128"),
            ("stripe_kbs", [128, 128], "PMDS11-MLC-A-tts10000-ttr10-s128"),
        ],
        ids=["tts", "ttr", "codes", "models", "stripe_kbs"],
    )
    def test_rejects_repeated_cells_before_any_pool(
        self, tmp_path, small_kwargs, monkeypatch, name, value, key
    ):
        # Two cells with one report key would write one report twice.
        def no_pool(*args, **kwargs):
            raise AssertionError("pool generated before the check")

        monkeypatch.setattr(cli, "generate_pool", no_pool)
        with pytest.raises(ValueError, match=f"repeat the report key.*{key}"):
            run_experiment(out_dir=tmp_path / "out", **{**small_kwargs, name: value})
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "name, value",
        [("tts_values", [10_000.0, float("nan")]), ("ttr_values", [float("inf")])],
        ids=["tts-nan", "ttr-inf"],
    )
    def test_rejects_non_finite_tts_and_ttr_before_any_pool(
        self, tmp_path, small_kwargs, monkeypatch, name, value
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("pool generated before the check")

        monkeypatch.setattr(cli, "generate_pool", no_pool)
        with pytest.raises(ValueError, match="tts and ttr must be finite and positive"):
            run_experiment(out_dir=tmp_path / "out", **{**small_kwargs, name: value})
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("tts_values", [10_000.0, True], "tts must be a number, got True"),
            ("ttr_values", ["10"], "ttr must be a number, got '10'"),
        ],
        ids=["tts-bool", "ttr-str"],
    )
    def test_rejects_a_bool_or_a_non_number_tts_or_ttr_before_any_pool(
        self, tmp_path, small_kwargs, monkeypatch, name, value, message
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("pool generated before the check")

        monkeypatch.setattr(cli, "generate_pool", no_pool)
        with pytest.raises(ValueError, match=message):
            run_experiment(out_dir=tmp_path / "out", **{**small_kwargs, name: value})
        assert not (tmp_path / "out").exists()

    def test_rejects_a_code_that_is_not_a_member_before_any_pool(
        self, tmp_path, small_kwargs, monkeypatch
    ):
        # A code name must fail here, not with an AttributeError from the report key.
        def no_pool(*args, **kwargs):
            raise AssertionError("pool generated before the check")

        monkeypatch.setattr(cli, "generate_pool", no_pool)
        with pytest.raises(ValueError, match="code must be an ErasureCode, got 'raid5'"):
            run_experiment(out_dir=tmp_path / "out", **{**small_kwargs, "codes": ["raid5"]})
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
            (["--mission", "200.5"], "whole hours, got 200.5"),
            (["--pool-size", "5"], "smaller than the array"),
            (["--pool-blocks", "10"], "blocks_per_device must be >= 64"),
            (["--usage-log", "LOGS"], "3 device log"),
            (["--models", "MLC-A", "QLC-Z"], "no profile named 'QLC-Z'"),
            (["--tts", "10000", "1e4"], "repeat the report key"),
            (["--tts", "nan"], "tts and ttr must be finite and positive"),
            (["--seed", "-3"], "seed must be >= 0, got -3"),
        ],
        ids=[
            "workers", "sims", "mission", "fractional-mission", "pool-size", "pool-blocks",
            "usage-log", "models", "repeated-tts", "tts-nan", "seed",
        ],
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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--usage-log", "{missing}"], "cannot read usage log {missing}: "),
            (["--usage-log", "{dir}"], "cannot read usage log {dir}: "),
            (["--out", "{file}"], "cannot make report directory {file}: {file} is not a dir"),
            (["--out", "{file}/out"], "cannot make report directory {file}/out: {file} is not a"),
        ],
        ids=["missing-log", "log-is-a-directory", "out-is-a-file", "out-under-a-file"],
    )
    def test_command_reports_bad_path_as_usage_error_before_any_pool(
        self, tmp_path, capsys, monkeypatch, argv, message
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("pool generated before the check")

        monkeypatch.setattr(cli, "generate_pool", no_pool)
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("kept\n")
        paths = {name: tmp_path / name for name in ("missing", "dir", "file")}
        argv = [a.format(**paths) for a in argv]
        message = message.format(**paths)
        if "--out" not in argv:
            argv += ["--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main(["run", "--sims", "1", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ssdfi run")
        assert f"ssdfi run: error: {message}" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
        assert list((tmp_path / "dir").iterdir()) == []
        assert (tmp_path / "file").read_text() == "kept\n"

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--pool-blocks", "10"], "blocks_per_device must be >= 64"),
            (["--pool-size", "0"], "pool_size must be >= 1"),
            (["--seed", "-1"], "seed must be >= 0, got -1"),
        ],
        ids=["pool-blocks", "pool-size", "seed"],
    )
    def test_reports_rejected_input_as_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["validate-pool", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: ssdfi validate-pool")
        assert f"ssdfi validate-pool: error: {message}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
