import json
from collections import Counter
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from spacinglab import experiment
from spacinglab.cli import main
from spacinglab.experiment import (
    ExperimentConfig,
    canonical_json,
    config_hash,
    load_config,
    run_identity,
    run_verify,
    stream_id,
)
from spacinglab.gaps import build_universal_cdf

QUARTIC = (0.0, 0.0, 0.0, 0.0, 16.0)

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src/spacinglab/summary_schema.json").read_text()
)


@pytest.fixture
def tiny_cdf(traj):
    return build_universal_cdf(2, s_max=6.0, m_nodes=10, traj=traj)


def tiny_config(tmp_path, **kw):
    base = dict(
        beta=2, sizes=(32, 64), draws=4, node_count=10, s_max=6.0, seed=0,
        out_dir=str(tmp_path), workers=1,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_canonical_json_sorted_and_compact(self):
        cfg = ExperimentConfig(sizes=(64, 32))
        text = canonical_json(cfg)
        assert text.index('"beta"') < text.index('"sizes"')
        assert ": " not in text
        # canonicalization does not reorder data, only keys
        assert json.loads(text)["sizes"] == [64, 32]

    def test_hash_deterministic_and_sensitive(self):
        a = ExperimentConfig(seed=1)
        b = ExperimentConfig(seed=1)
        c = ExperimentConfig(seed=2)
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(sizes=(4,))
        with pytest.raises(ValueError):
            ExperimentConfig(draws=0)
        with pytest.raises(ValueError):
            ExperimentConfig(node_count=1)
        with pytest.raises(ValueError):
            ExperimentConfig(workers=0)

    def test_seed_and_draws_ranges(self):
        ExperimentConfig(seed=2**64 - 1, draws=2**20 - 1)
        for seed in (-1, 2**64, 1.5):
            with pytest.raises(ValueError, match="seed"):
                ExperimentConfig(seed=seed)
        # stream_id packs the draw into 20 bits: (32, 2**20) would be (33, 0).
        for draws in (2**20, 2.5):
            with pytest.raises(ValueError, match="draws"):
                ExperimentConfig(draws=draws)

    def test_load_config_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"beta": 2, "bogus": 1}')
        with pytest.raises(ValueError, match="bogus"):
            load_config(path)

    def test_stream_ids_unique(self):
        ids = {stream_id(n, d) for n in (32, 64, 1600) for d in range(500)}
        assert len(ids) == 3 * 500


class TestVerifyRun:
    def test_summary_schema_and_contents(self, tmp_path, tiny_cdf):
        cfg = tiny_config(tmp_path)
        summary = run_verify(cfg, cdf=tiny_cdf)
        jsonschema.validate(summary, SCHEMA)
        assert summary["beta"] == 2
        assert set(summary["per_size"]) == {"32", "64"}
        rows = (tmp_path / "results_beta2.csv").read_text().splitlines()
        assert rows[0].startswith("beta,n,draw")
        assert len(rows) == 1 + 2 * 4
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_digest"] == config_hash(cfg)
        assert manifest["partial"] is False

    def test_deterministic_outputs(self, tmp_path, tiny_cdf):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_verify(tiny_config(out_a), cdf=tiny_cdf)
        run_verify(tiny_config(out_b), cdf=tiny_cdf)
        assert (out_a / "results_beta2.csv").read_bytes() == (
            out_b / "results_beta2.csv"
        ).read_bytes()
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

    def test_resume_completes_missing_rows(self, tmp_path, tiny_cdf):
        cfg = tiny_config(tmp_path)
        run_verify(cfg, cdf=tiny_cdf)
        path = tmp_path / "results_beta2.csv"
        full = path.read_text()
        lines = full.splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")  # drop the last two rows
        run_verify(cfg, cdf=tiny_cdf)
        assert path.read_text() == full
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert any("resumed" in w for w in manifest["warnings"])

    def test_corrupt_row_detected(self, tmp_path, tiny_cdf):
        cfg = tiny_config(tmp_path)
        run_verify(cfg, cdf=tiny_cdf)
        path = tmp_path / "results_beta2.csv"
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace(lines[1].split(",")[6], "0.123456")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RuntimeError, match="corrupt"):
            run_verify(cfg, cdf=tiny_cdf)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["partial"] is True

    def test_parallel_matches_serial(self, tmp_path, tiny_cdf):
        out_a, out_b = tmp_path / "serial", tmp_path / "pool"
        run_verify(tiny_config(out_a, workers=1), cdf=tiny_cdf)
        run_verify(tiny_config(out_b, workers=2), cdf=tiny_cdf)
        assert (out_a / "results_beta2.csv").read_bytes() == (
            out_b / "results_beta2.csv"
        ).read_bytes()

    def test_small_parallel_run_matches_serial(self, tmp_path, tiny_cdf):
        # Four tasks on two workers: the pool splits them into two chunks.
        out_a, out_b = tmp_path / "serial", tmp_path / "pool"
        run_verify(tiny_config(out_a, sizes=(32,), workers=1), cdf=tiny_cdf)
        run_verify(tiny_config(out_b, sizes=(32,), workers=2), cdf=tiny_cdf)
        for name in ("results_beta2.csv", "summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_resume_refuses_other_config(self, tmp_path, tiny_cdf):
        run_verify(tiny_config(tmp_path), cdf=tiny_cdf)
        rows = (tmp_path / "results_beta2.csv").read_bytes()
        manifest = (tmp_path / "manifest.json").read_bytes()
        with pytest.raises(RuntimeError, match="config digest"):
            run_verify(tiny_config(tmp_path, seed=1), cdf=tiny_cdf)
        assert (tmp_path / "results_beta2.csv").read_bytes() == rows
        assert (tmp_path / "manifest.json").read_bytes() == manifest
        # Rows without a manifest cannot be attributed to any config.
        (tmp_path / "manifest.json").unlink()
        with pytest.raises(RuntimeError, match="config digest"):
            run_verify(tiny_config(tmp_path), cdf=tiny_cdf)

    def test_mcmc_chain_drawn_once_per_row(self, tmp_path, tiny_cdf, monkeypatch):
        # 34 draws: 32 pilot spectra become rows, the pool draws the last two.
        cfg = dict(sizes=(8,), draws=34, potential=QUARTIC)
        run_verify(tiny_config(tmp_path / "pool", workers=2, **cfg), cdf=tiny_cdf)
        streams = Counter()
        real = experiment.sample_mcmc

        def counted(spec, state, steps, burn_in, thin=1):
            streams[state.stream] += 1
            yield from real(spec, state, steps, burn_in, thin)
            state.warnings.append("injected")

        monkeypatch.setattr(experiment, "sample_mcmc", counted)
        out = tmp_path / "serial"
        run_verify(tiny_config(out, workers=1, **cfg), cdf=tiny_cdf)
        assert streams == Counter(stream_id(8, d) for d in range(34))
        for name in ("results_beta2.csv", "summary.json"):
            assert (out / name).read_bytes() == (tmp_path / "pool" / name).read_bytes()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["warnings"][0] == "n=8, draw=0: injected"
        assert len(manifest["warnings"]) == 34
        health = manifest["mcmc_acceptance"]["8"]
        assert health["chains"] == 34
        assert 0.05 < health["min"] <= health["median"] <= health["max"] < 0.95

    def test_gaussian_manifest_has_no_mcmc_health(self, tmp_path, tiny_cdf):
        run_verify(tiny_config(tmp_path), cdf=tiny_cdf)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["mcmc_acceptance"] == {}
        assert manifest["warnings"] == []

    def test_failed_pilot_names_its_size(self, tmp_path, tiny_cdf):
        # A double well leaves no eigenvalue near the window centre at 0.
        cfg = tiny_config(tmp_path, sizes=(8,), draws=1, potential=(0.3, 0, -1.0, 0, 0.25))
        message = r"n=8.* 1 spectra.*bandwidth 0\.1; run more draws"
        with pytest.raises(ValueError, match=message):
            run_verify(cfg, cdf=tiny_cdf)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["partial"] is True

    def test_single_draw_has_undefined_ci(self, tmp_path, tiny_cdf):
        cfg = tiny_config(tmp_path, draws=1)
        summary = run_verify(cfg, cdf=tiny_cdf)
        jsonschema.validate(summary, SCHEMA)
        assert summary["per_size"]["32"]["ci95"] is None

    def test_node_count_mismatch(self, tmp_path, tiny_cdf):
        cfg = tiny_config(tmp_path, node_count=20)
        with pytest.raises(ValueError, match="node count"):
            run_verify(cfg, cdf=tiny_cdf)


class TestIdentityRun:
    def test_clean_run_has_no_violations(self, tmp_path):
        report = run_identity(tiny_config(tmp_path, sizes=(64,), draws=20))
        assert report["ok"]
        assert report["checked_jump_points"] > 0

    def test_corrupt_mode_reports_violation(self, tmp_path):
        report = run_identity(tiny_config(tmp_path, sizes=(64,), draws=3), corrupt=True)
        assert not report["ok"]
        assert report["violations"][0]["detail"] == "injected corruption"


    def test_mcmc_chain_drawn_once(self, tmp_path, monkeypatch):
        streams = Counter()
        real = experiment.sample_mcmc

        def counted(spec, state, steps, burn_in, thin=1):
            streams[state.stream] += 1
            return real(spec, state, steps, burn_in, thin)

        monkeypatch.setattr(experiment, "sample_mcmc", counted)
        cfg = tiny_config(tmp_path, sizes=(8,), draws=33, potential=QUARTIC)
        report = run_identity(cfg)
        assert report["ok"]
        assert streams == Counter(stream_id(8, d) for d in range(33))


class TestCli:
    def test_universal_writes_files(self, tmp_path, capsys):
        rc = main(
            ["universal", "--beta", "2", "--s-max", "8", "--nodes", "100",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        cdf_file = tmp_path / "F_beta2.csv"
        nodes_file = tmp_path / "nodes_beta2.csv"
        assert cdf_file.exists() and nodes_file.exists()
        data = np.array(
            [[float(x) for x in line.split(",")]
             for line in cdf_file.read_text().splitlines()[1:]]
        )
        assert np.all(np.diff(data[:, 1]) >= 0)
        assert data[-1, 1] > 0.9999
        first = cdf_file.read_bytes()
        assert main(
            ["universal", "--beta", "2", "--s-max", "8", "--nodes", "100",
             "--out", str(tmp_path)]
        ) == 0
        assert cdf_file.read_bytes() == first  # idempotent rerun

    def test_universal_median_node(self, tmp_path):
        main(["universal", "--beta", "2", "--s-max", "6", "--nodes", "2",
              "--out", str(tmp_path)])
        lines = (tmp_path / "nodes_beta2.csv").read_text().splitlines()
        assert len(lines) == 2  # header + single median node

    def test_gap_tiny_s(self, capsys):
        assert main(["gap", "--beta", "2", "--s", "1e-9"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(1.0, abs=1e-8)

    def test_gap_cross_route(self, capsys):
        assert main(["gap", "--beta", "2", "--s", "2", "--method", "painleve"]) == 0
        painleve = float(capsys.readouterr().out.strip())
        assert main(["gap", "--beta", "2", "--s", "2", "--method", "fredholm"]) == 0
        fredholm = float(capsys.readouterr().out.strip())
        assert painleve == pytest.approx(fredholm, abs=1e-6)

    def test_gap_series_route(self, capsys):
        assert main(["gap", "--beta", "4", "--s", "0.3", "--method", "series"]) == 0
        series = float(capsys.readouterr().out.strip())
        assert main(["gap", "--beta", "4", "--s", "0.3", "--method", "painleve"]) == 0
        painleve = float(capsys.readouterr().out.strip())
        assert series == pytest.approx(painleve, abs=1e-3)

    def test_gap_usage_errors(self, capsys):
        assert main(["gap", "--beta", "1", "--s", "2", "--method", "fredholm"]) == 2
        assert main(["gap", "--beta", "2", "--s", "2", "--method", "series"]) == 2

    def test_gap_past_trajectory_fails(self, capsys):
        # pi * 70 lies beyond the largest trajectory (t <= 200).
        assert main(["gap", "--beta", "2", "--s", "70"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: trajectory covers")

    def test_verify_refuses_other_seed(self, tmp_path, capsys):
        # A seed-1 run into a seed-0 directory used to reuse every seed-0 row.
        args = ["verify", "--beta", "2", "--sizes", "100", "--draws", "20",
                "--out", str(tmp_path / "d")]
        assert main(args + ["--seed", "0"]) == 0
        capsys.readouterr()
        assert main(args + ["--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config digest" in captured.err

    def test_verify_refuses_second_config_in_one_directory(self, tmp_path, capsys):
        # manifest.json and summary.json are shared by every beta in a directory,
        # so a beta-2 run used to make beta 1's rows impossible to resume.
        out = tmp_path / "d"
        args = ["verify", "--sizes", "16", "--draws", "2", "--out", str(out)]
        assert main(args + ["--beta", "1"]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(args + ["--beta", "2"]) == 1
        assert "config digest" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert main(args + ["--beta", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["beta"] == 1

    @pytest.mark.parametrize(
        "flags", [["--seed", "-1"], ["--seed", str(2**64)], ["--draws", str(2**20)]]
    )
    def test_verify_rejects_out_of_range(self, tmp_path, capsys, flags):
        rc = main(["verify", "--sizes", "32", "--out", str(tmp_path)] + flags)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_identity_exit_codes(self, tmp_path, capsys):
        ok = main(
            ["identity", "--sizes", "64", "--draws", "5", "--seed", "0",
             "--out", str(tmp_path)]
        )
        assert ok == 0
        bad = main(
            ["identity", "--sizes", "64", "--draws", "2", "--seed", "0",
             "--out", str(tmp_path), "--corrupt"]
        )
        assert bad == 1

    def test_sample_dump(self, tmp_path, capsys):
        rc = main(
            ["sample", "--beta", "2", "--n", "16", "--draws", "2",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        path = Path(capsys.readouterr().out.strip())
        lines = path.read_text().splitlines()
        assert lines[0] == "draw_id,index,eigenvalue"
        assert len(lines) == 1 + 2 * 16

    def test_env_override(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SPACINGLAB_OUT", str(tmp_path / "envout"))
        rc = main(["sample", "--beta", "2", "--n", "8", "--draws", "1"])
        assert rc == 0
        assert (tmp_path / "envout" / "spectra_beta2_n8.csv").exists()

    def test_verify_smoke(self, tmp_path, capsys):
        rc = main(
            ["verify", "--beta", "2", "--sizes", "32", "--draws", "2",
             "--seed", "3", "--out", str(tmp_path), "--config", "/dev/null"]
        )
        assert rc == 1  # /dev/null is not valid JSON -> numeric failure path
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"node_count": 10, "s_max": 6.0}))
        rc = main(
            ["verify", "--beta", "2", "--sizes", "32", "--draws", "2",
             "--seed", "3", "--out", str(tmp_path), "--config", str(cfg)]
        )
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        jsonschema.validate(summary, SCHEMA)
