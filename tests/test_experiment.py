import concurrent.futures
import dataclasses
import gzip
import json
import math
import multiprocessing
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import spacinglab
from spacinglab import ensembles, experiment
from spacinglab.cli import main
from spacinglab.experiment import (
    ExperimentConfig,
    canonical_json,
    config_hash,
    load_config,
    run_identity,
    run_sample,
    run_verify,
    stream_id,
    write_table,
)
from spacinglab.gaps import S_MAX_LIMIT, build_universal_cdf

QUARTIC = (0.0, 0.0, 0.0, 0.0, 16.0)

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src/spacinglab/summary_schema.json").read_text()
)


@pytest.fixture
def tiny_cdf():
    return build_universal_cdf(2, s_max=6.0, m_nodes=10)


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

    def test_digests_are_pinned(self):
        # A digest names the rows a directory holds: changing how a config is
        # written would orphan every result written before.
        assert config_hash(ExperimentConfig()) == (
            "7c91a66744b94ca9129f0a4bc097e8f63ba6032f5f3d1b7e8f1fdfe2483d8175"
        )
        ci = ExperimentConfig(beta=1, potential=[0, 0, 0, 0, 16], sizes=[16, 32], draws=2)
        assert config_hash(ci) == (
            "01b8f077581e5459f9fd36a8b4def2aa5210bfe69f7343f553b631c62f9f8e7f"
        )

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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resume_filling_a_hole_keeps_task_order(self, tmp_path, tiny_cdf, workers):
        # Row (32, 1) deleted: its resume used to append it after (64, 2).
        cfg = tiny_config(tmp_path / "fresh", draws=3, workers=workers)
        run_verify(cfg, cdf=tiny_cdf)
        rows = (tmp_path / "fresh" / "results_beta2.csv").read_bytes()
        out = tmp_path / "resumed"
        out.mkdir()
        for name in ("results_beta2.csv", "manifest.json"):
            (out / name).write_bytes((tmp_path / "fresh" / name).read_bytes())
        lines = rows.splitlines(keepends=True)
        (out / "results_beta2.csv").write_bytes(b"".join(lines[:2] + lines[3:]))
        run_verify(tiny_config(out, draws=3, workers=workers), cdf=tiny_cdf)
        for name in ("results_beta2.csv", "summary.json"):
            assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "results_beta2.csv", "summary.json"
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("edit", ["blank", "blank-for-row", "repeat", "outside"])
    def test_resume_rescores_from_the_first_row_out_of_place(
        self, tmp_path, tiny_cdf, workers, edit
    ):
        # The last row cut and, after row (32, 1), a blank line, a blank line
        # in place of row (32, 2), a copy of row (32, 0) or a row of draw 7 in
        # this 3-draw config: a blank line or a copy inserted used to stay in
        # the resumed file.  The kept rows end there, and the rest are scored
        # again to the fresh run's bytes.
        fresh, out = tmp_path / "fresh", tmp_path / "resumed"
        run_verify(tiny_config(fresh, draws=3), cdf=tiny_cdf)
        lines = (fresh / "results_beta2.csv").read_bytes().splitlines(keepends=True)
        fields = lines[1].decode().split(",")[:-1]
        fields[2] = "7"
        payload = ",".join(fields)
        outside = f"{payload},{experiment._checksum(payload)}\n".encode()
        inserted = {"repeat": lines[1], "outside": outside}.get(edit, b"\n")
        after = lines[4:-1] if edit == "blank-for-row" else lines[3:-1]
        out.mkdir()
        (out / "manifest.json").write_bytes((fresh / "manifest.json").read_bytes())
        (out / "results_beta2.csv").write_bytes(b"".join(lines[:3] + [inserted] + after))
        run_verify(tiny_config(out, draws=3, workers=workers), cdf=tiny_cdf)
        for name in ("results_beta2.csv", "summary.json"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes()
        manifest = json.loads((out / "manifest.json").read_text())
        assert "resumed: 2 rows already present" in manifest["warnings"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_killed_run_keeps_rows_and_resumes(self, tmp_path, tiny_cdf, monkeypatch, workers):
        if workers > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched sampler reaches pool workers only through fork")
        fresh = tmp_path / "fresh"
        run_verify(tiny_config(fresh, draws=6), cdf=tiny_cdf)
        rows = (fresh / "results_beta2.csv").read_bytes()
        summary = (fresh / "summary.json").read_bytes()
        real = experiment.sample_tridiagonal

        def killed(spec, state):
            if state.stream == stream_id(64, 3):
                raise RuntimeError("killed at (64, 3)")
            return real(spec, state)

        out = tmp_path / "run"
        cfg = tiny_config(out, draws=6, workers=workers)
        path = out / "results_beta2.csv"
        with monkeypatch.context() as patch:
            patch.setattr(experiment, "sample_tridiagonal", killed)
            with pytest.raises(RuntimeError, match="killed"):
                run_verify(cfg, cdf=tiny_cdf)
        # Rows reach the file in task order as they are scored: one worker
        # keeps all six rows of n=32 and the first three of n=64.
        kept = path.read_bytes()
        assert rows.startswith(kept)
        assert kept.count(b"\n") >= 1 + 6
        if workers == 1:
            assert kept.count(b"\n") == 1 + 9
        run_verify(cfg, cdf=tiny_cdf)
        assert path.read_bytes() == rows
        assert (out / "summary.json").read_bytes() == summary
        # A row cut mid-line, a dropped final newline and half a header each
        # count as missing, and the resume restores the fresh run's bytes.
        header = rows.index(b"\n")
        for cut in (rows[:-7], rows[:-1], rows[: header // 2]):
            path.write_bytes(cut)
            run_verify(cfg, cdf=tiny_cdf)
            assert path.read_bytes() == rows
            assert (out / "summary.json").read_bytes() == summary

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

    def test_resume_refuses_a_header_of_another_layout(self, tmp_path, capsys):
        # A header with a column more, its last row dropped: the resume used
        # to exit 0 and append a 10-field row under the 11-field header.
        args = ["verify", "--sizes", "32", "--draws", "3", "--out", str(tmp_path)]
        assert main(args) == 0
        path = tmp_path / "results_beta2.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[0] = lines[0].replace("bound,crc", "bound,ks,crc")
        path.write_text("".join(lines[:-1]))
        rows = path.read_bytes()
        manifest = (tmp_path / "manifest.json").read_bytes()
        capsys.readouterr()
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bound,ks,crc" in err and err.count("\n") == 1
        assert path.read_bytes() == rows
        assert (tmp_path / "manifest.json").read_bytes() == manifest

    def test_undecodable_row_is_a_corrupt_row(self, tmp_path, capsys):
        # A byte that is not UTF-8 used to fail as the codec's "can't decode
        # byte 0xff in position 72", naming neither the file nor the row.
        args = ["verify", "--sizes", "16", "--draws", "2", "--out", str(tmp_path)]
        assert main(args) == 0
        path = tmp_path / "results_beta2.csv"
        rows = bytearray(path.read_bytes())
        rows[len(experiment.RESULT_HEADER) + 2] = 0xFF
        path.write_bytes(rows)
        capsys.readouterr()
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: corrupt result row in {path}: ") and err.count("\n") == 1
        assert path.read_bytes() == rows
        assert json.loads((tmp_path / "manifest.json").read_text())["partial"] is True

    def test_pool_scores_pilot_rows(self, tmp_path, tiny_cdf, monkeypatch):
        # All three draws are pilot spectra; each row is scored in a worker,
        # not in the parent.
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched scorer reaches pool workers only through fork")
        log = tmp_path / "pids"
        real = experiment.sigma_cdf

        def logged(rs):
            with log.open("a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real(rs)

        monkeypatch.setattr(experiment, "sigma_cdf", logged)
        cfg = tiny_config(tmp_path / "run", sizes=(8,), draws=3, potential=QUARTIC, workers=2)
        run_verify(cfg, cdf=tiny_cdf)
        pids = log.read_text().split()
        assert len(pids) == 3
        assert str(os.getpid()) not in pids

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

    def test_complete_resume_draws_no_pilot(self, tmp_path, monkeypatch):
        cdf = build_universal_cdf(1, s_max=6.0, m_nodes=10)
        cfg = tiny_config(tmp_path, beta=1, sizes=(16, 32), draws=2, potential=QUARTIC)
        run_verify(cfg, cdf=cdf)
        path = tmp_path / "results_beta1.csv"
        rows = path.read_bytes()
        summary = (tmp_path / "summary.json").read_bytes()
        psi = json.loads((tmp_path / "manifest.json").read_text())["psi"]
        assert set(psi) == {"16", "32"}
        streams = Counter()
        real = experiment.sample_mcmc

        def counted(spec, state, steps, burn_in, thin=1):
            streams[state.stream] += 1
            return real(spec, state, steps, burn_in, thin)

        monkeypatch.setattr(experiment, "sample_mcmc", counted)
        run_verify(cfg, cdf=cdf)
        assert streams == Counter()
        assert path.read_bytes() == rows
        assert (tmp_path / "summary.json").read_bytes() == summary
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["mcmc_acceptance"] == {}
        assert manifest["psi"] == psi
        assert "resumed: 4 rows already present" in manifest["warnings"]
        # A missing row is drawn alone: its size's recorded psi stands.
        path.write_bytes(rows[: rows.rstrip(b"\n").rindex(b"\n") + 1])
        run_verify(cfg, cdf=cdf)
        assert streams == Counter([stream_id(32, 1)])
        assert path.read_bytes() == rows
        assert (tmp_path / "summary.json").read_bytes() == summary

    @pytest.mark.parametrize("psi_32", [None, "nan", "abc", pytest.param("32.0", id="key-32.0")])
    def test_resume_estimates_the_psi_its_manifest_lacks(self, tmp_path, monkeypatch, psi_32):
        # The 16x^4 config of CI, its last row dropped and size 32's psi
        # missing from the manifest, garbled, or recorded under a key that is
        # no integer: only that size's pilot is drawn again, and the resume
        # ends as the fresh run did.
        cdf = build_universal_cdf(1, s_max=10.0, m_nodes=50)
        ci = dict(beta=1, potential=QUARTIC, sizes=(16, 32), draws=2)
        fresh, out = tmp_path / "fresh", tmp_path / "resumed"
        run_verify(ExperimentConfig(out_dir=str(fresh), **ci), cdf=cdf)
        rows = (fresh / "results_beta1.csv").read_bytes()
        manifest = json.loads((fresh / "manifest.json").read_text())
        out.mkdir()
        (out / "results_beta1.csv").write_bytes(rows[: rows.rstrip(b"\n").rindex(b"\n") + 1])
        psi = dict(manifest["psi"])
        if psi_32 is None:
            del manifest["psi"]["32"]
        elif psi_32 == "32.0":
            manifest["psi"]["32.0"] = manifest["psi"].pop("32")
        else:
            manifest["psi"]["32"] = psi_32
        (out / "manifest.json").write_text(json.dumps(manifest))
        streams = Counter()
        real = experiment.sample_mcmc

        def counted(spec, state, steps, burn_in, thin=1):
            streams[state.stream] += 1
            return real(spec, state, steps, burn_in, thin)

        monkeypatch.setattr(experiment, "sample_mcmc", counted)
        run_verify(ExperimentConfig(out_dir=str(out), **ci), cdf=cdf)
        assert streams == Counter([stream_id(32, 0), stream_id(32, 1)])
        for name in ("results_beta1.csv", "summary.json"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes()
        assert json.loads((out / "manifest.json").read_text())["psi"] == psi

    def test_verdict_reads_sizes_in_increasing_order(self, tmp_path, tiny_cdf):
        # Listed as (64, 32), the decreasing bounds used to read as increasing.
        ordered = run_verify(tiny_config(tmp_path / "a"), cdf=tiny_cdf)
        listed = run_verify(tiny_config(tmp_path / "b", sizes=(64, 32)), cdf=tiny_cdf)
        assert ordered["mean_bounds_strictly_decreasing"] is True
        assert listed["mean_bounds_strictly_decreasing"] is True
        assert listed["per_size"] == ordered["per_size"]
        assert listed["sizes"] == [64, 32]

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

    def test_failed_pilot_binds_no_config(self, tmp_path, capsys):
        # The failed pilot leaves a result file with its header alone; a run
        # with more draws used to be refused there under the config digest.
        config = tmp_path / "p.json"
        config.write_text(json.dumps({
            "potential": [0.3, 0, -1.0, 0, 0.25], "sizes": [8], "draws": 1,
            "node_count": 10, "s_max": 6.0,
        }))
        pilot, fresh = tmp_path / "pil", tmp_path / "fresh"
        assert main(["verify", "--config", str(config), "--out", str(pilot)]) == 1
        assert capsys.readouterr().err.startswith("error: density pilot at n=8 failed")
        path = pilot / "results_beta2.csv"
        assert path.read_text() == experiment.RESULT_HEADER + "\n"
        # A psi recorded under another config's digest places no window here.
        manifest = json.loads((pilot / "manifest.json").read_text())
        (pilot / "manifest.json").write_text(json.dumps({**manifest, "psi": {"8": 9.0}}))
        for out in (pilot, fresh):
            argv = ["verify", "--config", str(config), "--draws", "32", "--out", str(out)]
            assert main(argv) == 0
        for name in ("results_beta2.csv", "summary.json"):
            assert (pilot / name).read_bytes() == (fresh / name).read_bytes()

    def test_single_draw_has_undefined_ci(self, tmp_path, tiny_cdf):
        cfg = tiny_config(tmp_path, draws=1)
        summary = run_verify(cfg, cdf=tiny_cdf)
        jsonschema.validate(summary, SCHEMA)
        assert summary["per_size"]["32"]["ci95"] is None

    def test_node_count_mismatch(self, tmp_path, tiny_cdf):
        cfg = tiny_config(tmp_path, node_count=20)
        with pytest.raises(ValueError, match="node count"):
            run_verify(cfg, cdf=tiny_cdf)

    @pytest.mark.parametrize("field", [{"beta": 1}, {"s_max": 8.0}])
    def test_cdf_of_another_law_writes_nothing(self, tmp_path, tiny_cdf, field):
        # A beta=2 law would score a beta=1 run against F_2 under beta 1's digest.
        out = tmp_path / "d"
        with pytest.raises(ValueError, match="does not match the config"):
            run_verify(tiny_config(out, **field), cdf=tiny_cdf)
        assert not out.exists()


class TestIdentityRun:
    def test_clean_run_has_no_violations(self, tmp_path):
        report = run_identity(tiny_config(tmp_path, sizes=(64,), draws=20))
        assert report["ok"]
        assert report["checked_jump_points"] > 0
        assert run_identity(tiny_config(tmp_path, sizes=(64,), draws=20, workers=2)) == report

    def test_corrupt_mode_reports_violation(self, tmp_path):
        # The control runs the detector itself, on every draw it can corrupt.
        report = run_identity(tiny_config(tmp_path, sizes=(64,), draws=3), corrupt=True)
        assert not report["ok"]
        assert report["violations"][0]["kind"] == "identity"
        assert {v["draw"] for v in report["violations"]} == {0, 1, 2}

    def test_corrupt_mode_fails_when_nothing_is_corrupted(self, tmp_path, capsys):
        # At this seed the one n=8 window holds fewer than two eigenvalues:
        # the control used to exit 0 without having corrupted anything.
        cfg = tiny_config(tmp_path, sizes=(8,), draws=1, seed=1)
        assert run_identity(cfg)["checked_jump_points"] == 0
        with pytest.raises(RuntimeError, match="nothing could be corrupted"):
            run_identity(cfg, corrupt=True)
        args = ["identity", "--sizes", "8", "--draws", "1", "--seed", "1", "--corrupt",
                "--out", str(tmp_path / "c")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: nothing could be corrupted") and err.count("\n") == 1

    def test_identity_reads_the_scored_spacing_counts(self, tmp_path, monkeypatch):
        # A spacing counter that drops its largest jump must fail the check:
        # the spacing side is the sigma_cdf count that verify scores.
        real = experiment.sigma_cdf

        def dropped(rs):
            ecdf = real(rs)
            return dataclasses.replace(ecdf, jumps=ecdf.jumps[:-1])

        monkeypatch.setattr(experiment, "sigma_cdf", dropped)
        report = run_identity(tiny_config(tmp_path, sizes=(64,), draws=3))
        assert not report["ok"]
        assert {v["kind"] for v in report["violations"]} >= {"identity"}
        assert {v["draw"] for v in report["violations"]} == {0, 1, 2}


    def test_mcmc_chain_drawn_once(self, tmp_path, monkeypatch):
        # 34 draws: the 32 pilot spectra travel to the task map with their
        # tasks, the last two are drawn there, every spectrum is checked there,
        # and the report does not depend on workers.
        cfg = dict(sizes=(8,), draws=34, potential=QUARTIC)
        pooled = run_identity(tiny_config(tmp_path, workers=2, **cfg))
        streams = Counter()
        real = experiment.sample_mcmc

        def counted(spec, state, steps, burn_in, thin=1):
            streams[state.stream] += 1
            return real(spec, state, steps, burn_in, thin)

        monkeypatch.setattr(experiment, "sample_mcmc", counted)
        report = run_identity(tiny_config(tmp_path, **cfg))
        assert report["ok"]
        assert streams == Counter(stream_id(8, d) for d in range(34))
        assert report == pooled


# A small Gaussian config and the 16x^4 log gas that CI runs at 1 and 2 workers.
RUN_CONFIGS = {
    "gaussian": dict(beta=2, sizes=(16, 50), draws=3),
    "quartic": dict(beta=1, potential=QUARTIC, sizes=(16, 32), draws=2),
}


class TestRuns:
    @pytest.mark.parametrize("name", sorted(RUN_CONFIGS))
    def test_sample_and_identity_files_repeat_at_two_workers(self, tmp_path, name):
        files = {}
        for workers in (1, 2):
            config = ExperimentConfig(
                **RUN_CONFIGS[name], out_dir=str(tmp_path / str(workers)), workers=workers
            )
            paths = run_sample(config)
            assert [p.name for p in paths] == [
                f"spectra_beta{config.beta}_n{n}.csv" for n in config.sizes
            ]
            report = run_identity(config)
            record = json.loads((tmp_path / str(workers) / "identity.json").read_text())
            assert record == {**report, "config_digest": config_hash(config)}
            files[workers] = {p.name: p.read_bytes() for p in (tmp_path / str(workers)).iterdir()}
        assert sorted(files[1]) == sorted([p.name for p in paths] + ["identity.json"])
        assert files[2] == files[1]

    @pytest.mark.parametrize(
        "config, expected",
        [
            # verify-gauss's 240 tasks, at small sizes: no pilot, chunks of 8.
            (dict(beta=4, sizes=(16, 32, 64), draws=80), [(0, 1), (240, 8)]),
            # verify-quartic: in chunks of 2 one worker would draw both n = 32 chains.
            (RUN_CONFIGS["quartic"], [(4, 1), (4, 1)]),
        ],
        ids=["gaussian", "quartic"],
    )
    def test_pool_chunks(self, tmp_path, monkeypatch, config, expected):
        chunks = []
        real = concurrent.futures.ProcessPoolExecutor.map

        def recorded(self, fn, tasks, **kwargs):
            chunks.append((len(tasks), kwargs["chunksize"]))
            return real(self, fn, tasks, **kwargs)

        monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "map", recorded)
        config = tiny_config(tmp_path, workers=2, **config)
        cdf = build_universal_cdf(config.beta, s_max=config.s_max, m_nodes=config.node_count)
        run_verify(config, cdf=cdf)
        assert chunks == expected


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

    @pytest.mark.parametrize("s_max", ["40", "0"])
    def test_universal_rejects_s_max_past_reach(self, tmp_path, capsys, s_max):
        # 2*pi*40 lies past the trajectory's reach; the message used to name
        # t_max, which the user never set.
        rc = main(["universal", "--beta", "2", "--s-max", s_max, "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: s_max must lie in (0, 100/pi")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"s_max": float(s_max)}))
        rc = main(["verify", "--sizes", "16", "--draws", "2", "--config", str(cfg),
                   "--out", str(tmp_path / "d")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: s_max must lie in")

    @pytest.mark.parametrize("s_max", ["9.9996", "17.5", "25", repr(S_MAX_LIMIT)])
    @pytest.mark.parametrize("beta", ["1", "2", "4"])
    def test_universal_builds_every_s_max_in_range(self, tmp_path, capsys, beta, s_max):
        # G_4 underflows to 0 from s = 17.37 on and G_2 from 24.554, and the
        # grids of 9.9996 and 100/pi ended past s_max: each used to exit 1.
        argv = ["universal", "--beta", beta, "--s-max", s_max, "--out", str(tmp_path)]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_verify_builds_law_past_underflow(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"s_max": 25, "sizes": [16], "draws": 1}))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["config_digest"] == config_hash(load_config(cfg))

    def test_workers_past_cpu_count_fail_before_a_pool(self, tmp_path, capsys, monkeypatch):
        # A pool starts all its workers at once, so --workers 100000 used to
        # fork 100000 processes.  Nothing here may start one.
        pools = []
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda **kw: pools.append(kw))
        out = tmp_path / "d"
        argv = ["verify", "--sizes", "16", "--draws", "1", "--workers", "3", "--out", str(out)]
        assert main(argv) == 1
        assert "exceed the 2 CPUs" in capsys.readouterr().err
        assert pools == [] and not out.exists()

    def test_import_leaves_scipy_integrate_unloaded(self, tmp_path):
        # scipy serves two LAPACK routines from scipy.linalg._flapack alone:
        # importing the CLI loads no scipy module; the sigma-BVP of universal
        # and gap --method painleve loads that module and nothing else of
        # scipy, and the Gaussian draws of a verify at one or two workers
        # reuse it.  None loads scipy.linalg, scipy.special or the three
        # subpackages above.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(spacinglab.__file__).parents[1]), env.get("PYTHONPATH")])
        )
        quartic = tmp_path / "q.json"
        quartic.write_text(json.dumps(
            {"beta": 1, "potential": [0, 0, 0, 0, 16], "sizes": [16, 32], "draws": 2}
        ))
        code = (
            "import sys, spacinglab.cli as c\n"
            "def loaded():\n"
            "    return [m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.interpolate')"
            " if m in sys.modules]\n"
            "def scipy():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print('loaded:', loaded(), scipy())\n"
            "assert c.main(['universal', '--beta', '1', '--s-max', '10', '--nodes', '10',"
            f" '--out', {str(tmp_path)!r}]) == 0\n"
            "assert c.main(['gap', '--beta', '4', '--s', '1.3', '--method', 'painleve']) == 0\n"
            "assert c.main(['gap', '--beta', '2', '--s', '1.3', '--method', 'fredholm']) == 0\n"
            "assert c.main(['gap', '--beta', '1', '--s', '0.8', '--method', 'series']) == 0\n"
            f"assert c.main(['verify', '--config', {str(quartic)!r}, '--workers', '1',"
            f" '--out', {str(tmp_path / 'q')!r}]) == 0\n"
            "print('loaded:', loaded(), scipy())\n"
            "assert c.main(['verify', '--sizes', '16', '--draws', '2', '--workers', '2',"
            f" '--out', {str(tmp_path / 'v2')!r}]) == 0\n"
            "print('loaded:', loaded(), 'scipy.linalg' in sys.modules,"
            " 'scipy.special' in sys.modules, scipy())\n"
            "assert c.main(['verify', '--sizes', '16', '--draws', '2', '--workers', '1',"
            f" '--out', {str(tmp_path / 'v')!r}]) == 0\n"
            "print('loaded:', loaded(), 'scipy.linalg' in sys.modules,"
            " 'scipy.special' in sys.modules, scipy())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        ).stdout
        lines = [line for line in out.splitlines() if line.startswith("loaded:")]
        assert lines == [
            "loaded: [] []",
            "loaded: [] ['scipy.linalg._flapack']",
            "loaded: [] False False ['scipy.linalg._flapack']",
            "loaded: [] False False ['scipy.linalg._flapack']",
        ]

    def test_failed_eigensolve_is_one_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ensembles, "_lapack", lambda name: lambda d, e: (d, 1))
        argv = ["sample", "--sizes", "16", "--draws", "1", "--workers", "1",
                "--out", str(tmp_path / "s")]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: LAPACK dsterf failed on the tridiagonal draw at n=16 (info=1)"
        ]

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
        for argv, message in (
            (["--beta", "1", "--s", "2", "--method", "fredholm"], "beta=2 only"),
            (["--beta", "2", "--s", "2", "--method", "series"], "s <= 1"),
        ):
            with pytest.raises(SystemExit) as exc:
                main(["gap", *argv])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == "" and message in captured.err

    @pytest.mark.parametrize("method", ["painleve", "fredholm", "series"])
    @pytest.mark.parametrize("s", ["nan", "inf", "-1", "0"])
    def test_gap_rejects_s_not_finite_and_positive(self, capsys, method, s):
        # --s nan used to print nan (fredholm) or blame t_max (painleve).
        with pytest.raises(SystemExit) as exc:
            main(["gap", "--beta", "2", "--s", s, "--method", method])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--s must be finite and positive" in captured.err

    def test_gap_past_trajectory_fails(self, capsys):
        # G_beta(s) needs the trajectory at t = pi*s (2*pi*s for beta=4), which
        # reaches t = 200; the message names --s, the value the user set, and
        # a flag out of its route's range is a usage error.  The fredholm
        # route (beta=2) has the same reach: past it 60 nodes no longer
        # resolve the sine kernel, and s = 200 used to print 57639462.07.
        for beta, method, inside, s, limit in (
            ("2", "painleve", "63.66", "70", "200/pi = 63.6620"),
            ("4", "painleve", "31.8", "40", "100/pi = 31.8310"),
            ("2", "fredholm", "63.66", "70", "200/pi = 63.6620"),
        ):
            assert main(["gap", "--beta", beta, "--s", inside, "--method", method]) == 0
            capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                main(["gap", "--beta", beta, "--s", s, "--method", method])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.endswith(
                f"error: --s must lie in (0, {limit}] for beta={beta}, got {s}\n"
            )

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
        # identity --out used to write nothing; its report is now identity.json,
        # the same bytes at any worker count, and written on a violation too.
        args = ["identity", "--sizes", "64", "--draws", "5", "--seed", "0"]
        reports = []
        for workers in ("1", "2"):
            out = tmp_path / workers
            assert main(args + ["--workers", workers, "--out", str(out)]) == 0
            reports.append((out / "identity.json").read_bytes())
        assert reports[0] == reports[1]
        report = json.loads(reports[0])
        assert report["config_digest"] == config_hash(ExperimentConfig(sizes=(64,), draws=5))
        assert report["ok"] and report["checked_jump_points"] > 0
        capsys.readouterr()
        assert main(args + ["--corrupt", "--out", str(tmp_path / "c")]) == 1
        assert "violation:" in capsys.readouterr().err
        assert not json.loads((tmp_path / "c" / "identity.json").read_text())["ok"]

    def test_sample_dump(self, tmp_path, capsys):
        dumps = []
        for workers in ("1", "2"):
            rc = main(
                ["sample", "--beta", "2", "--sizes", "16", "--draws", "2",
                 "--workers", workers, "--out", str(tmp_path / workers)]
            )
            assert rc == 0
            path = Path(capsys.readouterr().out.strip())
            dumps.append(path.read_bytes())
        lines = dumps[0].decode().splitlines()
        assert lines[0] == "draw_id,index,eigenvalue"
        assert len(lines) == 1 + 2 * 16
        assert dumps[1] == dumps[0]

    def test_sample_dumps_the_verify_spectra(self, tmp_path, capsys):
        # A polynomial potential dumps the MCMC spectra that verify scores.
        cfg = tmp_path / "q.json"
        cfg.write_text(json.dumps({"potential": list(QUARTIC)}))
        rc = main(["sample", "--beta", "1", "--sizes", "8", "--draws", "2", "--seed", "3",
                   "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        path = Path(capsys.readouterr().out.strip())
        config = ExperimentConfig(beta=1, potential=QUARTIC, seed=3)
        expected = ["draw_id,index,eigenvalue"] + [
            f"{draw},{i},{format(float(x), '.12g')}"
            for draw in range(2)
            for i, x in enumerate(experiment._draw_spectrum(config, (8, draw))[0])
        ]
        assert path.read_text().splitlines() == expected

    def test_env_override(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SPACINGLAB_OUT", str(tmp_path / "envout"))
        rc = main(["sample", "--beta", "2", "--sizes", "8", "--draws", "1"])
        assert rc == 0
        assert (tmp_path / "envout" / "spectra_beta2_n8.csv").exists()

    def test_sample_reads_the_config_file(self, tmp_path, capsys):
        # The parser's own --beta 2 and --draws 1 used to beat the file.
        cfg = tmp_path / "f.json"
        cfg.write_text(json.dumps({"beta": 1, "draws": 3, "sizes": [8]}))
        assert main(["sample", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        path = Path(capsys.readouterr().out.strip())
        assert path == tmp_path / "a" / "spectra_beta1_n8.csv"
        draws = [line.split(",")[0] for line in path.read_text().splitlines()[1:]]
        assert Counter(draws) == {"0": 8, "1": 8, "2": 8}
        # A typed flag still beats the file.
        assert main(["sample", "--config", str(cfg), "--draws", "1",
                     "--out", str(tmp_path / "b")]) == 0
        assert len((tmp_path / "b" / "spectra_beta1_n8.csv").read_text().splitlines()) == 9

    @pytest.mark.parametrize("content", [b'{"beta": 2,\n', b"\xff{}"], ids=["json", "utf8"])
    def test_malformed_config_file_is_named(self, tmp_path, capsys, content):
        # The line used to read only json's "Expecting property name ..." or
        # the codec's "can't decode byte 0xff ...".
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(content)
        out = tmp_path / "d"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {cfg} is not valid JSON: ")
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("name, raw", [("SEED", "1.5"), ("WORKERS", "two")])
    def test_malformed_env_variable_is_named(self, tmp_path, monkeypatch, capsys, name, raw):
        # The line used to read only int's "invalid literal for int() ...".
        monkeypatch.setenv(f"SPACINGLAB_{name}", raw)
        out = tmp_path / "d"
        assert main(["verify", "--sizes", "16", "--draws", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: SPACINGLAB_{name} must be int, got {raw!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, argv",
        [("CONFIG", ["verify", "--sizes", "16", "--draws", "2"]),
         ("OUT", ["verify", "--sizes", "16", "--draws", "2"]),
         ("OUT", ["universal", "--beta", "2", "--nodes", "10"]),
         ("SEED", ["sample", "--sizes", "8", "--draws", "1"]),
         ("WORKERS", ["identity", "--sizes", "16", "--draws", "1"])],
    )
    def test_empty_env_variable_is_named(self, tmp_path, monkeypatch, capsys, name, argv):
        # An empty SPACINGLAB_CONFIG used to fail as "[Errno 21] Is a
        # directory: '.'", and an empty SPACINGLAB_OUT to write the run into
        # the current directory and exit 0.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(f"SPACINGLAB_{name}", "")
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: SPACINGLAB_{name} is empty\n"
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--sizes", "16", "--draws", "2"],
         ["identity", "--sizes", "16", "--draws", "1"],
         ["sample", "--sizes", "8", "--draws", "1"],
         ["universal", "--beta", "2", "--nodes", "10"]],
    )
    def test_empty_out_is_refused(self, tmp_path, monkeypatch, capsys, argv):
        # verify --out "" used to write its run into the current directory
        # and exit 0; universal --out "" fell through to SPACINGLAB_OUT.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("SPACINGLAB_OUT", str(tmp_path / "env"))
        assert main([*argv, "--out", ""]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "empty" in captured.err
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    def test_flag_beats_env_beats_file(self, tmp_path, monkeypatch):
        from spacinglab.cli import _build_parser, _config_from_args

        cfg = tmp_path / "f.json"
        cfg.write_text(json.dumps({"seed": 1, "workers": 2, "draws": 3}))
        monkeypatch.setenv("SPACINGLAB_CONFIG", str(cfg))
        monkeypatch.setenv("SPACINGLAB_SEED", "5")
        args = _build_parser().parse_args(["verify", "--workers", "1"])
        config = _config_from_args(args)
        assert (config.seed, config.workers, config.draws) == (5, 1, 3)

    @pytest.mark.parametrize(
        "argv",
        [["universal", "--beta", "2", "--config", "x"], ["gap", "--beta", "2", "--s", "1",
         "--seed", "1"], ["gap", "--beta", "2", "--s", "1", "--out", "d"]],
    )
    def test_unread_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "field",
        [{"workers": 1.5}, {"node_count": "5"}, {"s_max": "10"}, {"window_a": "0"},
         {"window_delta_exponent": "x"}, {"window_delta_exponent": 0.5},
         {"sizes": [16.5]}, {"sizes": 16}, {"potential": "quartic"}, {"beta": 1.0},
         # JSON true is a bool, and bool an Integral: it used to run as 1.
         {"beta": True}, {"draws": True}, {"seed": True}, {"workers": True},
         {"window_a": True}, {"s_max": True},
         # Past the trajectory's reach, below zero, outside the semicircle.
         {"s_max": 40}, {"s_max": -1}, {"window_a": 3.0},
         # A repeated size used to write each of its rows twice.
         {"sizes": [16, 16]},
         # stream_id has 44 bits for the size: 2**44 used to overflow Philox's key.
         {"sizes": [2**44]}],
    )
    def test_bad_config_fails_before_writing(self, tmp_path, capsys, field):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(field))
        out = tmp_path / "d"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, argv",
        [("build_universal_cdf", ["universal", "--beta", "2", "--nodes", "1000000000000"]),
         ("run_verify", ["verify", "--sizes", "1000000000000", "--draws", "1"])],
    )
    def test_memory_error_is_one_line(self, monkeypatch, tmp_path, capsys, name, argv):
        # Such sizes used to end in numpy's _ArrayMemoryError traceback; the
        # allocation fails here by stand-in, so that no test allocates it.
        def too_big(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        # Each stand-in replaces the name where the subcommand looks it up.
        module = experiment if name == "build_universal_cdf" else spacinglab.cli
        monkeypatch.setattr(module, name, too_big)
        assert main([*argv, "--out", str(tmp_path / "d")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Unable to allocate 7.28 TiB for an array\n"

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


def _reference_line(row) -> str:
    """The per-value CSV format that the one field format replaced, frozen
    here as the reference every written byte is checked against."""
    return ",".join(format(float(v), ".12g") for v in row)


# Edge values of the 12-significant-digit field, one per row.
EDGE_ROWS = [
    (-0.0, 0.0), (math.inf, -math.inf), (math.nan, -math.nan), (5e-324, -5e-324),
    (1e12 - 1, 1e12), (7, -3), (np.int64(2**60), np.int64(-1)),
    (np.float64(1 / 3), np.float64(-2.0)), (2**53 + 1, True),
]


@pytest.mark.parametrize("row", EDGE_ROWS)
def test_line_matches_the_reference(row):
    assert experiment._line(*row) == _reference_line(row)
    assert experiment._line(*row, *row) == _reference_line(row + row)


def test_write_table_matches_the_reference(tmp_path, monkeypatch):
    text = "".join(f"{_reference_line(row)}\n" for row in EDGE_ROWS)
    assert write_table(tmp_path / "t.csv", "a,b", EDGE_ROWS).read_text() == "a,b\n" + text
    assert write_table(tmp_path / "e.csv", "a,b", iter(())).read_text() == "a,b\n"
    # One row of three fields, as the spectrum dump writes them.
    row = (np.int64(3), 12, np.float64(-1.25e-7))
    path = write_table(tmp_path / "s.csv", "draw_id,index,eigenvalue", [row])
    assert path.read_text() == f"draw_id,index,eigenvalue\n{_reference_line(row)}\n"
    # The same bytes go gzipped, as path.gz, only above GZIP_ROWS rows.
    monkeypatch.setattr(experiment, "GZIP_ROWS", len(EDGE_ROWS))
    at = write_table(tmp_path / "at.csv", "a,b", EDGE_ROWS)
    assert at == tmp_path / "at.csv" and at.read_text() == "a,b\n" + text
    monkeypatch.setattr(experiment, "GZIP_ROWS", len(EDGE_ROWS) - 1)
    above = write_table(tmp_path / "above.csv", "a,b", EDGE_ROWS)
    assert above == tmp_path / "above.csv.gz" and not (tmp_path / "above.csv").exists()
    with gzip.open(above, "rt") as fh:
        assert fh.read() == "a,b\n" + text


def test_write_table_gzips_above_threshold(tmp_path, monkeypatch):
    monkeypatch.setattr(experiment, "GZIP_ROWS", 3)
    # A numpy scalar is written like a float, into a directory made for it.
    rows = [(1, 0.5), (2, 1 / 3), (3, np.float64(-2.0))]
    text = "i,s\n1,0.5\n2,0.333333333333\n3,-2\n"
    at = write_table(tmp_path / "new" / "at.csv", "i,s", rows)
    assert at == tmp_path / "new" / "at.csv" and at.read_text() == text
    above = write_table(tmp_path / "above.csv", "i,s", rows + [(4, 1e-20)])
    assert above == tmp_path / "above.csv.gz"
    assert not (tmp_path / "above.csv").exists()
    with gzip.open(above, "rt") as fh:
        assert fh.read() == text + "4,1e-20\n"


def test_sample_leaves_one_form_of_each_table(tmp_path, monkeypatch):
    # 2 x 16 rows go plain, 3 x 16 gzipped: a rerun into the same directory
    # used to leave the other form beside the fresh one, in either order.
    monkeypatch.setattr(experiment, "GZIP_ROWS", 40)
    for draws, name in ((2, "spectra_beta2_n16.csv"), (3, "spectra_beta2_n16.csv.gz"),
                        (2, "spectra_beta2_n16.csv")):
        config = tiny_config(tmp_path, sizes=(16,), draws=draws)
        assert run_sample(config) == [tmp_path / name]
        assert [p.name for p in tmp_path.iterdir()] == [name]


def _fresh_python(code: str, **env) -> list:
    """The words that ``code`` prints in a fresh interpreter that imports
    this spacinglab, run with the environment of this one updated by ``env``
    (a value of None removes its variable)."""
    base = dict(os.environ)
    base["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(spacinglab.__file__).parents[1]), base.get("PYTHONPATH")])
    )
    for key, value in env.items():
        if value is None:
            base.pop(key, None)
        else:
            base[key] = value
    return subprocess.run(
        [sys.executable, "-c", code], env=base, capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout.split()


# One Gaussian draw loads LAPACK's dsterf from scipy.linalg._flapack, and with
# it scipy's own OpenBLAS (a library mapped by the draw, where /proc exists),
# but not the scipy.linalg or scipy.special packages.
GAUSSIAN_DRAW = (
    "import os, sys, spacinglab\n"
    "def openblas():\n"
    "    return {line.split()[-1] for line in open('/proc/self/maps') if 'openblas' in line}\n"
    "proc = os.path.exists('/proc/self/maps')\n"
    "before = openblas() if proc else set()\n"
    "spacinglab.sample_tridiagonal(spacinglab.EnsembleSpec(beta=2, n=16),"
    " spacinglab.SamplerState(seed=0))\n"
    "assert 'scipy.linalg._flapack' in sys.modules\n"
    "assert 'scipy.linalg' not in sys.modules and 'scipy.special' not in sys.modules\n"
    "assert not proc or openblas() - before, 'the draw mapped no OpenBLAS'\n"
    "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
)


class TestProcessStartup:
    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
    def test_one_blas_thread_by_default(self):
        code = GAUSSIAN_DRAW + (
            "print(*[line.split()[1] for line in open('/proc/self/status')"
            " if line.startswith('Threads:')])\n"
        )
        # numpy's and scipy's OpenBLAS used to start one more thread each.
        assert _fresh_python(code, OPENBLAS_NUM_THREADS=None) == ["1", "1"]

    def test_exported_blas_threads_win(self):
        assert _fresh_python(GAUSSIAN_DRAW, OPENBLAS_NUM_THREADS="2") == ["2"]

    def test_file_load_gives_the_bits_of_scipy_linalg(self):
        # The first draw loads dsterf from its file, without scipy.linalg; an
        # import of scipy.linalg afterwards reuses that module; with the file
        # load refused, the public scipy.linalg.lapack.dsterf is called.
        code = (
            "import hashlib, sys, spacinglab\n"
            "from spacinglab import ensembles\n"
            "def digest():\n"
            "    ensembles._lapack.cache_clear()\n"
            "    spec = spacinglab.EnsembleSpec(beta=4, n=400)\n"
            "    draws = [spacinglab.sample_tridiagonal(spec, spacinglab.SamplerState(9, k))"
            " for k in range(3)]\n"
            "    return hashlib.sha256(b''.join(d.tobytes() for d in draws)).hexdigest()\n"
            "print(digest(), 'scipy.linalg' in sys.modules)\n"
            "import scipy.linalg.lapack\n"
            "print(digest(), ensembles._lapack('dsterf') is scipy.linalg.lapack.dsterf)\n"
            "def refused():\n"
            "    raise ImportError('refused')\n"
            "ensembles._load_flapack = refused\n"
            "del sys.modules['scipy.linalg._flapack']\n"
            "print(digest(), ensembles._lapack('dsterf') is scipy.linalg.lapack.dsterf)\n"
        )
        by_file, linalg_loaded, reused, same, public, fallback = _fresh_python(code)
        assert (linalg_loaded, same, fallback) == ("False", "True", "True")
        assert by_file == reused == public

    def test_verify_loads_no_masked_arrays(self, tmp_path):
        # np.median used to load numpy.ma for the manifest's acceptance
        # median; statistics.median would load decimal and fractions.
        code = (
            "import sys\n"
            "from spacinglab.experiment import ExperimentConfig, run_verify\n"
            "run_verify(ExperimentConfig(beta=1, potential=(0, 0, 0, 0, 16), sizes=(16,),"
            f" draws=3, out_dir={str(tmp_path)!r}))\n"
            "print(*[m for m in ('numpy.ma', 'statistics', 'decimal') if m in sys.modules])\n"
        )
        assert _fresh_python(code) == []
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["mcmc_acceptance"]["16"]["chains"] == 3

    @pytest.mark.parametrize("chains", [1, 2, 5, 8])
    def test_acceptance_median_equals_numpy(self, chains):
        rng = np.random.default_rng(chains)
        proposed = rng.integers(900, 1100, chains)
        health = {
            (8, draw): spacinglab.SamplerState(
                seed=0, stream=draw, accepted=int(rng.integers(1, p)), proposed=int(p)
            )
            for draw, p in enumerate(proposed)
        }
        rates = [state.acceptance_rate for state in health.values()]
        manifest = experiment.RunManifest(config_digest="", code_version="", started_at="")
        experiment._record_health(manifest, health)
        assert manifest.mcmc_acceptance == {"8": {
            "chains": chains, "min": float(np.min(rates)),
            "median": float(np.median(rates)), "max": float(np.max(rates)),
        }}
