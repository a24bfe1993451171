import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import anensolar
from anensolar import anen, cli, driver, tensorio, weights, workflow
from anensolar.cli import main
from anensolar.coredata import align_observations

SMALL = [
    "--set", "synth.n_locations=4",
    "--set", "synth.n_days=30",
    "--set", "anen.search_days=24",
    "--set", "anen.members=8",
]


def run_cli(args, capsys=None):
    rc = main([str(a) for a in args])
    return rc


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture()
def outdir(tmp_path):
    return tmp_path / "out"


def run_small_chain(outdir, extra=()):
    base = ["-o", str(outdir), *SMALL, *extra]
    assert run_cli([*base, "synth"]) == 0
    assert run_cli([*base, "anen"]) == 0
    assert run_cli([*base, "simulate", "--source", "ensemble"]) == 0
    assert run_cli([*base, "simulate", "--source", "analysis"]) == 0
    assert run_cli([*base, "verify"]) == 0


class TestPipeline:
    def test_chain_produces_report_and_manifest(self, outdir):
        run_small_chain(outdir)
        report = read_csv(outdir / "report.csv")
        assert report[0] == ["group", "rmse", "bias", "crps", "spread", "count"]
        assert len(report) > 1
        manifest = json.loads((outdir / "manifest.json").read_text())
        for command in ("synth", "anen", "simulate", "verify"):
            assert command in manifest
            assert "config_hash" in manifest[command]
        assert any(str(outdir / "report.csv") in k for k in manifest["verify"]["outputs"])

    def test_rerun_bit_identical(self, tmp_path):
        out = tmp_path / "a"
        run_small_chain(out)
        first_report = (out / "report.csv").read_bytes()
        first_power = (out / "power.ansr").read_bytes()
        first_manifest = (out / "manifest.json").read_bytes()
        run_small_chain(out)
        assert (out / "report.csv").read_bytes() == first_report
        assert (out / "power.ansr").read_bytes() == first_power
        # identical manifests imply identical outputs
        assert (out / "manifest.json").read_bytes() == first_manifest


class TestValidation:
    def test_bad_weights_named_in_error(self, outdir, capsys):
        assert run_cli(["-o", str(outdir), *SMALL, "synth"]) == 0
        rc = main(["-o", str(outdir), *SMALL, "anen", "--weights", "0.5,0.4,0.2,0.2,0.2"])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()[-1]
        payload = json.loads(err)
        assert payload["error"] == "config-validation"
        assert any("anen.weights" in p for p in payload["problems"])

    def test_all_problems_enumerated(self, outdir, capsys):
        rc = main([
            "-o", str(outdir), "anen",
            "--weights", "0.9,0.9,0.9,0.9,0.9",
            "--members", "0",
        ])
        assert rc == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        text = " ".join(payload["problems"])
        assert "paths.forecasts" in text
        assert "paths.observations" in text
        assert len(payload["problems"]) >= 2

    def test_missing_input_fails_nonzero(self, outdir, capsys):
        rc = main(["-o", str(outdir), "sigma"])
        assert rc == 2


class TestOverrides:
    def test_flag_overrides_config_file(self, tmp_path, outdir):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("synth:\n  n_days: 9999\n")
        rc = main(["-c", str(cfg), "-o", str(outdir), "--set", "synth.n_days=12",
                   "--set", "synth.n_locations=2", "synth"])
        assert rc == 0
        from anensolar.tensorio import read_tensor
        fc = read_tensor(outdir / "forecasts.ansr")
        assert len(fc.init_times) == 12

    def test_env_overrides_file(self, tmp_path, outdir, monkeypatch):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("synth:\n  n_days: 9999\n  n_locations: 2\n")
        monkeypatch.setenv("ANENSOLAR_SYNTH__N_DAYS", "11")
        rc = main(["-c", str(cfg), "-o", str(outdir), "synth"])
        assert rc == 0
        from anensolar.tensorio import read_tensor
        fc = read_tensor(outdir / "forecasts.ansr")
        assert len(fc.init_times) == 11

    def test_seed_flag_changes_outputs(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run_cli(["-o", out1, *SMALL, "--seed", "1", "synth"]) == 0
        assert run_cli(["-o", out2, *SMALL, "--seed", "2", "synth"]) == 0
        assert (out1 / "forecasts.ansr").read_bytes() != (out2 / "forecasts.ansr").read_bytes()

    def test_precedence_file_env_set_flag(self, tmp_path, outdir, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_anen", lambda run, args: seen.append(run.cfg["anen"]["members"]) or 0)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("anen:\n  members: 3\n")
        base = ["-c", cfg, "-o", outdir]
        assert run_cli([*base, "anen"]) == 0
        monkeypatch.setenv("ANENSOLAR_ANEN__MEMBERS", "4")
        assert run_cli([*base, "anen"]) == 0
        assert run_cli([*base, "--set", "anen.members=5", "anen"]) == 0
        assert run_cli([*base, "--set", "anen.members=5", "anen", "--members", "6"]) == 0
        assert seen == [3, 4, 5, 6]


class TestConfigKeys:
    @pytest.mark.parametrize("source", ["file", "env", "set"])
    def test_unknown_key_is_config_error(self, tmp_path, outdir, monkeypatch, capsys, source):
        argv = ["-o", str(outdir)]
        if source == "file":
            cfg = tmp_path / "cfg.yaml"
            cfg.write_text("optimise:\n  step: 0.5\n")
            argv += ["-c", str(cfg)]
            key, origin = "optimise.step", str(cfg)
        elif source == "env":
            monkeypatch.setenv("ANENSOLAR_ANEN__MEMBRS", "3")
            key, origin = "anen.membrs", "ANENSOLAR_ANEN__MEMBRS"
        else:
            argv += ["--set", "parallel=4"]
            key, origin = "parallel", "--set parallel=4"
        assert main([*argv, "synth"]) == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "config-validation"
        assert any(p.startswith(key + ":") and origin in p for p in payload["problems"]), payload
        assert not (outdir / "forecasts.ansr").exists()

    def test_label_flags_set_no_config(self, outdir):
        base = ["-o", str(outdir), *SMALL]
        assert run_cli([*base, "synth"]) == 0
        assert run_cli([*base, "anen"]) == 0
        hashes = []
        for labels in ((), ("--weights", "0.5,0.5", "--strategy", "NN")):
            assert run_cli([*base, "simulate", *labels]) == 0
            hashes.append(json.loads((outdir / "manifest.json").read_text())["simulate"]["config_hash"])
        assert hashes[0] == hashes[1]


class TestInputs:
    def test_module_file_and_region_map_are_hashed(self, outdir):
        base = ["-o", str(outdir), *SMALL]
        assert run_cli([*base, "synth"]) == 0
        assert run_cli([*base, "anen"]) == 0
        catalog = read_csv(Path(anensolar.__file__).parent / "catalog" / "modules.csv")
        modules = outdir / "modules.csv"
        with open(modules, "w", newline="") as fh:
            csv.writer(fh).writerows([catalog[0]] + [r for r in catalog[1:] if r[0] == "STU300"])
        regions = outdir / "regions.csv"
        regions.write_text("location,region\n0,east\n1,east\n2,west\n3,west\n")
        files = ["--set", f"paths.module_file={modules}", "--set", f"paths.region_map={regions}"]
        assert run_cli([*base, *files, "simulate", "--source", "ensemble"]) == 0
        assert run_cli([*base, *files, "simulate", "--source", "analysis"]) == 0
        assert run_cli([*base, *files, "verify", "--grouping", "region"]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert str(modules) in manifest["simulate"]["inputs"]
        assert str(regions) in manifest["verify"]["inputs"]

    def test_relative_weights_file_is_under_output_dir(self, tmp_path, outdir, monkeypatch):
        base = ["-o", str(outdir), *SMALL]
        assert run_cli([*base, "synth"]) == 0
        assert run_cli([*base, "optimize-weights", "--strategy", "EW"]) == 0
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        (outdir / "ensemble.ansr").unlink(missing_ok=True)
        assert run_cli([*base, "anen", "--weights-file", "weights.csv"]) == 0
        assert (outdir / "ensemble.ansr").exists()
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert str(outdir / "weights.csv") in manifest["anen"]["inputs"]


class TestCommands:
    def test_sigma_command(self, outdir):
        assert run_cli(["-o", outdir, *SMALL, "synth"]) == 0
        assert run_cli(["-o", outdir, *SMALL, "sigma"]) == 0
        from anensolar.anen import SigmaTensor
        sigma = SigmaTensor.read(outdir / "sigma.ansr")
        assert sigma.values.shape == (5, 4, 24)
        assert np.all(sigma.values[np.isfinite(sigma.values)] >= 0)

    def test_cluster_command(self, outdir):
        assert run_cli(["-o", outdir, *SMALL, "synth"]) == 0
        assert run_cli(["-o", outdir, *SMALL, "cluster", "--clusters", "2"]) == 0
        rows = read_csv(outdir / "clustering.csv")
        assert rows[0] == ["location", "label"]
        labels = {int(r[1]) for r in rows[1:]}
        assert labels == {1, 2}
        assert len(rows) == 1 + 4

    def test_optimize_weights_ew(self, outdir):
        assert run_cli(["-o", outdir, *SMALL, "synth"]) == 0
        assert run_cli(["-o", outdir, *SMALL, "optimize-weights", "--strategy", "EW"]) == 0
        rows = read_csv(outdir / "weights.csv")
        assert rows[0] == ["location", "ghi", "temperature", "wind_speed", "albedo", "cloud_cover"]
        assert len(rows) == 1 + 4
        for row in rows[1:]:
            np.testing.assert_allclose([float(v) for v in row[1:]], 0.2)

    def test_anen_searches_once(self, outdir, monkeypatch):
        assert run_cli(["-o", outdir, *SMALL, "synth"]) == 0
        calls = []

        def counting_search(*args, **kwargs):
            calls.append(args)
            return anen.search_analogs(*args, **kwargs)

        monkeypatch.setattr(cli, "search_analogs", counting_search)
        monkeypatch.setattr(driver, "search_analogs", counting_search)
        assert run_cli(["-o", outdir, *SMALL, "anen"]) == 0
        assert len(calls) == 1

        forecasts = tensorio.read_tensor(outdir / "forecasts.ansr")
        analysis = tensorio.read_tensor(outdir / "observations.ansr")
        config = anen.AnEnConfig(weights=anen.equal_weights(5), members=8, half_window=1,
                                 operational=True)
        indices = anen.search_analogs(forecasts, config, range(24, 30), range(0, 24))
        aligned = align_observations(analysis, forecasts.init_times, forecasts.lead_times)
        expected = outdir / "expected"
        expected.mkdir()
        indices.write(expected / "analogs.ansr")
        tensorio.write_tensor(anen.build_multivariate_ensemble(indices, aligned),
                              expected / "ensemble.ansr")
        for name in ("analogs.ansr", "ensemble.ansr"):
            assert (outdir / name).read_bytes() == (expected / name).read_bytes()

    def test_anen_with_weights_file(self, outdir):
        assert run_cli(["-o", outdir, *SMALL, "synth"]) == 0
        assert run_cli(["-o", outdir, *SMALL, "optimize-weights", "--strategy", "EW"]) == 0
        rc = run_cli(["-o", outdir, *SMALL, "anen",
                      "--weights-file", str(outdir / "weights.csv")])
        assert rc == 0
        assert (outdir / "ensemble.ansr").exists()

    def test_anen_with_weights_file_is_the_one_search(self, outdir, monkeypatch):
        assert run_cli(["-o", outdir, *SMALL, "synth"]) == 0
        assert run_cli(["-o", outdir, *SMALL, "anen"]) == 0
        plain = {name: (outdir / name).read_bytes() for name in ("analogs.ansr", "ensemble.ansr")}
        assert run_cli(["-o", outdir, *SMALL, "optimize-weights", "--strategy", "EW"]) == 0
        for name in plain:
            (outdir / name).unlink()
        calls = []
        monkeypatch.setattr(cli, "search_analogs",
                            lambda *args: calls.append(args) or anen.search_analogs(*args))
        assert run_cli(["-o", outdir, *SMALL, "anen",
                        "--weights-file", str(outdir / "weights.csv")]) == 0
        assert len(calls) == 1 and calls[0][1].weights.shape == (4, 5)
        # the EW rows equal the default weights, so the outputs do too
        for name, data in plain.items():
            assert (outdir / name).read_bytes() == data

    @pytest.mark.parametrize("edit, problem", [
        (lambda rows: [rows[0][:1] + rows[0][2:3] + rows[0][1:2] + rows[0][3:]] + rows[1:],
         "are not the predictors"),
        (lambda rows: rows[:-1] + [["4"] + rows[-1][1:]], "location ids must be 0..3"),
        (lambda rows: rows[:2] + [[rows[2][0], "0.6", "-0.2", "0.2", "0.2", "0.2"]] + rows[3:],
         "non-negative in row 1"),
        (lambda rows: rows[:3] + [[rows[3][0], "0.3", "0.2", "0.2", "0.2", "0.2"]] + rows[4:],
         "sum to 1 in row 2"),
    ], ids=["permuted-columns", "location-ids", "negative-row", "row-sum"])
    def test_bad_weights_file_is_config_error(self, outdir, capsys, edit, problem):
        assert run_cli(["-o", outdir, *SMALL, "synth"]) == 0
        assert run_cli(["-o", outdir, *SMALL, "optimize-weights", "--strategy", "EW"]) == 0
        bad = outdir / "bad.csv"
        with open(bad, "w", newline="") as fh:
            csv.writer(fh).writerows(edit(read_csv(outdir / "weights.csv")))
        capsys.readouterr()
        assert main(["-o", str(outdir), *SMALL, "anen", "--weights-file", str(bad)]) == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "config-validation"
        assert any(p.startswith("paths.weights_file:") and problem in p
                   for p in payload["problems"]), payload["problems"]
        assert not (outdir / "analogs.ansr").exists()

    def test_failed_manifest_write_keeps_the_old_manifest(self, outdir, monkeypatch):
        assert run_cli(["-o", outdir, *SMALL, "synth"]) == 0
        before = (outdir / "manifest.json").read_bytes()

        def crash(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", crash)
        assert run_cli(["-o", outdir, *SMALL, "sigma"]) == 1
        assert (outdir / "manifest.json").read_bytes() == before
        assert sorted(p.name for p in outdir.iterdir() if "manifest" in p.name) == ["manifest.json"]

    def test_report_pivots_verify_output(self, outdir, tmp_path):
        run_small_chain(outdir)
        ref = outdir / "report.csv"
        alt = tmp_path / "alt.csv"
        alt.write_bytes(ref.read_bytes())
        rc = run_cli(["-o", outdir, "report", "--labels", "anen,raw",
                      "--metric", "rmse", ref, alt])
        assert rc == 0
        wide = read_csv(outdir / "report_wide.csv")
        assert wide[0] == ["group", "rmse_anen", "rmse_raw"]
        source = {r[0]: r[1] for r in read_csv(ref)[1:]}
        for row in wide[1:]:
            assert row[1] == source[row[0]]
            assert row[2] == source[row[0]]

    def test_raw_baseline_comparison_flow(self, outdir):
        # anen ensemble vs raw deterministic forecast, verified per lead slot
        base = ["-o", str(outdir), *SMALL]
        assert run_cli([*base, "synth"]) == 0
        assert run_cli([*base, "anen"]) == 0
        assert run_cli([*base, "simulate", "--source", "ensemble"]) == 0
        assert run_cli([*base, "simulate", "--source", "forecast", "--output", "raw_power.ansr"]) == 0
        assert run_cli([*base, "simulate", "--source", "analysis"]) == 0
        assert run_cli([*base, "verify"]) == 0
        assert run_cli([*base, "--set", "paths.report=report_raw.csv",
                        "verify", "--power", "raw_power.ansr"]) == 0
        assert run_cli(["-o", str(outdir), "report", "--labels", "anen,raw",
                        str(outdir / "report.csv"), str(outdir / "report_raw.csv")]) == 0
        wide = read_csv(outdir / "report_wide.csv")
        assert wide[0] == ["group", "rmse_anen", "rmse_raw"]
        assert len(wide) > 5
        # both method columns populated with finite metric values per lead slot
        values = [(float(r[1]), float(r[2])) for r in wide[1:] if r[1] and r[2]]
        assert len(values) > 5
        assert all(a >= 0 and b >= 0 for a, b in values)

    def test_optimize_weights_rb(self, outdir):
        base = ["-o", str(outdir), *SMALL,
                "--set", "optimize.step=0.5",
                "--set", "optimize.opt_days=8",
                "--set", "optimize.total_samples=2",
                "--set", "anen.members=6"]
        assert run_cli([*base, "synth"]) == 0
        rc = run_cli([*base, "optimize-weights", "--strategy", "RB"])
        assert rc == 0
        rows = read_csv(outdir / "weights.csv")
        assert len(rows) == 1 + 4
        for row in rows[1:]:
            vec = [float(v) for v in row[1:]]
            assert abs(sum(vec) - 1.0) < 1e-9
        assert (outdir / "clustering.csv").exists()

    def test_workflow_run_command(self, outdir, tmp_path):
        wf = tmp_path / "wf.yaml"
        wf.write_text(
            "worker_budget: 2\n"
            "pipelines:\n"
            "  - id: p0\n"
            "    stages:\n"
            "      - id: s0\n"
            "        tasks:\n"
            "          - id: t0\n"
            "            command: [echo, one]\n"
            "          - id: t1\n"
            "            command: [echo, two]\n"
            "      - id: s1\n"
            "        tasks:\n"
            "          - id: t2\n"
            "            command: [echo, three]\n"
        )
        rc = run_cli(["-o", outdir, "workflow", "run", wf])
        assert rc == 0
        log = (outdir / "events.log").read_text().strip().splitlines()
        assert len(log) == 9  # three tasks x three transitions
        assert all(len(line.split()) == 4 for line in log)

    def test_workflow_run_failure_exit_code(self, outdir, tmp_path):
        wf = tmp_path / "wf.yaml"
        wf.write_text(
            "worker_budget: 1\n"
            "pipelines:\n"
            "  - id: p0\n"
            "    stages:\n"
            "      - id: s0\n"
            "        tasks:\n"
            "          - id: t0\n"
            "            command: [sh, -c, 'exit 2']\n"
            "            max_retries: 0\n"
        )
        rc = run_cli(["-o", outdir, "workflow", "run", wf])
        assert rc == 1


def test_cli_import_does_not_load_scipy():
    # scipy takes about a second to import; every CLI process would pay it
    src = str(Path(anensolar.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code = ("import anensolar.cli, sys; "
            "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_weight_search_workflow_commands_parse():
    wf = workflow.build_weight_search_workflow(weights.enumerate_weights(3, 0.5))
    argvs = [task.argv for p in wf.pipelines for stage in p.stages for task in stage.tasks]
    assert len(argvs) == 6 * 3 * 2
    parser = cli.build_parser()
    for argv in argvs:
        assert argv[0] == "anensolar"
        args = parser.parse_args(list(argv[1:]))
        assert args.command == argv[1]
