import contextlib
import csv
import dataclasses
import fcntl
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        # each output is recorded with the digest its writer returned: the file's
        for entry in manifest.values():
            for path, digest in entry["outputs"].items():
                assert digest == hashlib.sha256(Path(path).read_bytes()).hexdigest(), path

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

    def test_every_unknown_key_is_reported(self, tmp_path, outdir, capsys):
        cfg = tmp_path / "two.yaml"
        cfg.write_text("anen:\n  membrs: 3\noptimise:\n  step: 0.5\n")
        assert main(["-o", str(outdir), "-c", str(cfg), "--set", "parallel=4", "synth"]) == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "config-validation"
        assert payload["problems"] == [
            f"anen.membrs: unknown config key (from config file {cfg})",
            f"optimise.step: unknown config key (from config file {cfg})",
            "parallel: unknown config key (from --set parallel=4)",
        ]
        assert not (outdir / "forecasts.ansr").exists()


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

    def test_lead_time_grouping_is_the_lead_grouping(self, outdir):
        run_small_chain(outdir)
        base = ["-o", str(outdir), *SMALL]
        assert run_cli([*base, "--set", "paths.report=lead_time.csv",
                        "verify", "--grouping", "lead_time"]) == 0
        assert (outdir / "lead_time.csv").read_bytes() == (outdir / "report.csv").read_bytes()

    @pytest.mark.parametrize("source", ["flag", "module_file"])
    def test_empty_module_list_is_config_error(self, outdir, capsys, source):
        base = ["-o", str(outdir), *SMALL]
        assert run_cli([*base, "synth"]) == 0
        assert run_cli([*base, "anen"]) == 0
        if source == "flag":
            argv, key = ["simulate", "--modules", ","], "modules:"
        else:
            modules = outdir / "modules.csv"
            modules.write_text(",".join(read_csv(Path(anensolar.__file__).parent / "catalog"
                                                 / "modules.csv")[0]) + "\n")
            argv, key = ["--set", f"paths.module_file={modules}", "simulate"], "paths.module_file:"
        capsys.readouterr()
        assert main([*base, *argv]) == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "config-validation"
        assert any(p.startswith(key) for p in payload["problems"]), payload["problems"]
        assert not (outdir / "power.ansr").exists()

    def test_tensor_input_is_read_once_and_hashed(self, outdir, monkeypatch):
        assert run_cli(["-o", outdir, *SMALL, "synth"]) == 0
        forecasts = outdir / "forecasts.ansr"
        digest = hashlib.sha256(forecasts.read_bytes()).hexdigest()
        opened = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            opened.append(Path(file))
            return real_open(file, *args, **kwargs)

        # builtins.open and pathlib's io.open are one function under two names
        monkeypatch.setattr("builtins.open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)
        assert run_cli(["-o", outdir, *SMALL, "sigma"]) == 0
        monkeypatch.undo()
        assert opened.count(forecasts) == 1
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["sigma"]["inputs"] == {str(forecasts): digest}

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
        sigma = tensorio.read_tensor(outdir / "sigma.ansr")
        assert isinstance(sigma, anen.SigmaTensor)
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
        search = anen.search_analogs

        def counting_search(*args, **kwargs):
            calls.append((args, kwargs))
            return search(*args, **kwargs)

        monkeypatch.setattr(anen, "search_analogs", counting_search)
        assert run_cli(["-o", outdir, *SMALL, "anen"]) == 0
        # each location is searched once, on its own slab, and named as itself
        assert [(len(args[0].locations), kwargs["first_location"]) for args, kwargs in calls] == \
            [(1, loc) for loc in range(4)]

        forecasts = tensorio.read_tensor(outdir / "forecasts.ansr")
        analysis = tensorio.read_tensor(outdir / "observations.ansr")
        config = anen.AnEnConfig(weights=anen.equal_weights(5), members=8, half_window=1,
                                 operational=True)
        indices = anen.search_analogs(forecasts, config, range(24, 30), range(0, 24))
        aligned = align_observations(analysis, forecasts.init_times, forecasts.lead_times)
        expected = outdir / "expected"
        expected.mkdir()
        tensorio.write_tensor(indices, expected / "analogs.ansr")
        tensorio.write_tensor(anen.build_multivariate_ensemble(indices, aligned),
                              expected / "ensemble.ansr")
        for name in ("analogs.ansr", "ensemble.ansr"):
            assert (outdir / name).read_bytes() == (expected / name).read_bytes()

    def test_anen_takes_its_inputs_one_location_at_a_time(self, outdir, monkeypatch):
        assert run_cli(["-o", outdir, *SMALL, "synth"]) == 0
        taken = []
        real_take = tensorio.Container.take

        def recording_take(container, locations, names=None):
            taken.append((container.header.kind, list(locations)))
            return real_take(container, locations, names)

        monkeypatch.setattr(tensorio.Container, "read", lambda container: pytest.fail("an input was read whole"))
        monkeypatch.setattr(tensorio.Container, "take", recording_take)
        assert run_cli(["-o", outdir, *SMALL, "anen"]) == 0
        assert taken == [(kind, [loc]) for loc in range(4) for kind in ("forecast", "observation")]

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
        search = anen.search_analogs
        monkeypatch.setattr(anen, "search_analogs",
                            lambda *args, **kwargs: calls.append(args) or search(*args, **kwargs))
        assert run_cli(["-o", outdir, *SMALL, "anen",
                        "--weights-file", str(outdir / "weights.csv")]) == 0
        # each location's search takes that location's row of the file
        rows = [[float(w) for w in row[1:]] for row in read_csv(outdir / "weights.csv")[1:]]
        assert [args[1].weights.tolist() for args in calls] == [[row] for row in rows]
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

    def test_commands_sharing_a_directory_keep_each_others_manifest_entries(self, outdir):
        assert run_cli(["-o", outdir, *SMALL, "synth"]) == 0
        src = str(Path(anensolar.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        # hold the lock a command takes to update the manifest
        fd = os.open(outdir, os.O_RDONLY)
        fcntl.flock(fd, fcntl.LOCK_EX)
        proc = subprocess.Popen([sys.executable, "-m", "anensolar.cli", "-o", str(outdir), *SMALL,
                                 "cluster"], env=env, stderr=subprocess.PIPE, text=True)
        try:
            # the command writes its output, then waits for the lock
            deadline = time.monotonic() + 120
            while (not (outdir / "clustering.csv").exists() and proc.poll() is None
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            time.sleep(1.0)
            waiting = json.loads((outdir / "manifest.json").read_text())
        finally:
            os.close(fd)
            _, err = proc.communicate(timeout=120)
        assert "cluster" not in waiting
        assert proc.returncode == 0, err
        assert {"synth", "cluster"} <= json.loads((outdir / "manifest.json").read_text()).keys()

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
        assert run_cli([*base, "--set", "paths.power=raw_power.ansr", "simulate", "--source", "forecast"]) == 0
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

    def test_optimize_weights_nn(self, outdir):
        # six locations in a 4 x 7 degree box span at most three 4.5 x 3.5 degree tiles
        base = ["-o", str(outdir), *SMALL,
                "--set", "synth.n_locations=6",
                "--set", "synth.lat_range=[40.0, 44.0]",
                "--set", "synth.lon_range=[-100.0, -93.0]",
                "--set", "optimize.step=0.5",
                "--set", "optimize.opt_days=8",
                "--set", "anen.members=6"]
        assert run_cli([*base, "synth"]) == 0
        assert run_cli([*base, "optimize-weights", "--strategy", "NN"]) == 0
        rows = read_csv(outdir / "weights.csv")
        assert len(rows) == 1 + 6
        assert [int(r[0]) for r in rows[1:]] == list(range(6))
        grid = {tuple(v) for v in weights.enumerate_weights(5, 0.5).vectors}
        assert all(tuple(float(v) for v in r[1:]) in grid for r in rows[1:])
        tiles = weights.nn_sample_grid(tensorio.read_tensor(outdir / "forecasts.ansr").locations).sample_of
        assert len(set(tiles.tolist())) < 6
        for a in range(6):
            for b in range(6):
                if tiles[a] == tiles[b]:
                    assert rows[1 + a][1:] == rows[1 + b][1:]
        assert not (outdir / "clustering.csv").exists()

    def test_short_candidate_pool_exits_2_unless_partial(self, outdir, capsys):
        # SMALL: 30 inits, 24 searched, 8 members
        base = ["-o", str(outdir), *SMALL]
        assert run_cli([*base, "synth"]) == 0
        for argv, key in ((["--set", "anen.search_days=7", "anen"], "anen.search_days"),
                          (["--set", "optimize.opt_days=17", "optimize-weights"], "optimize.opt_days")):
            capsys.readouterr()
            assert run_cli([*base, *argv]) == 2, argv
            payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert any(p.startswith(key + ":") and "7 candidates" in p and "anen.members 8" in p
                       for p in payload["problems"]), payload["problems"]
        assert not (outdir / "analogs.ansr").exists() and not (outdir / "weights.csv").exists()
        # partial lists are allowed on request, and EW searches nothing
        assert run_cli([*base, "--set", "anen.allow_partial=true", "--set", "anen.search_days=7", "anen"]) == 0
        assert run_cli([*base, "--set", "optimize.opt_days=17", "optimize-weights", "--strategy", "EW"]) == 0

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

    def test_workflow_rerun_leaves_the_same_manifest(self, outdir, tmp_path):
        # the event log's wall-clock stamps differ between runs; the manifest must not
        wf = tmp_path / "wf.yaml"
        wf.write_text(
            "worker_budget: 1\n"
            "pipelines:\n"
            "  - id: p0\n"
            "    stages:\n"
            "      - id: s0\n"
            "        tasks:\n"
            "          - id: t0\n"
            "            command: [echo, one]\n"
        )
        assert run_cli(["-o", outdir, "workflow", "run", wf]) == 0
        first_log = (outdir / "events.log").read_bytes()
        first_manifest = (outdir / "manifest.json").read_bytes()
        time.sleep(0.01)
        assert run_cli(["-o", outdir, "workflow", "run", wf]) == 0
        assert (outdir / "events.log").read_bytes() != first_log
        assert (outdir / "manifest.json").read_bytes() == first_manifest

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

    def test_workflow_run_prints_the_stderr_of_a_failed_task(self, outdir, tmp_path, capsys):
        command = [sys.executable, "-c", "import sys; sys.exit('boom')"]
        wf = tmp_path / "wf.yaml"
        wf.write_text(
            "worker_budget: 1\n"
            "pipelines:\n"
            "  - stages:\n"
            "      - tasks:\n"
            f"          - {{id: t0, command: {json.dumps(command)}, max_retries: 0}}\n"
        )
        assert run_cli(["-o", outdir, "workflow", "run", wf]) == 1
        failed = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [(f["error"], f["task"], f["attempts"]) for f in failed] == [("task-failed", "t0", 1)]
        assert "boom" in failed[0]["stderr_tail"]


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


@pytest.fixture(scope="module")
def chain_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("chain")
    run_small_chain(out)
    return out


# each forecast-chain command, run again in a fresh process on the inputs of
# the chain above, with the modules it must not load besides the common ones
CHAIN_COMMANDS = [
    (["sigma"], ["anensolar.pvchain", "anensolar.solar", "anensolar.verify", "anensolar.driver"]),
    (["anen"], []),
    (["simulate", "--source", "ensemble"], ["anensolar.anen", "anensolar.verify"]),
    (["simulate", "--source", "analysis"], ["anensolar.anen", "anensolar.verify"]),
    (["verify"], []),
]


@pytest.mark.parametrize("argv, also_absent", CHAIN_COMMANDS, ids=[" ".join(a) for a, _ in CHAIN_COMMANDS])
def test_chain_command_loads_only_its_modules(chain_dir, argv, also_absent):
    src = str(Path(anensolar.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    absent = ["anensolar.workflow", "anensolar.synth", "anensolar.weights", "scipy", *also_absent]
    code = ("import sys, anensolar.cli\n"
            f"assert anensolar.cli.main({['-o', str(chain_dir), *SMALL, *argv]!r}) == 0\n"
            f"loaded = [m for m in {absent!r} if any(k == m or k.startswith(m + '.') for k in sys.modules)]\n"
            "assert not loaded, loaded\n")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def _argvs(wf):
    return [task.argv for p in wf.pipelines for stage in p.stages for task in stage.tasks]


def test_weight_search_workflow_commands_parse():
    wf = workflow.build_weight_search_workflow(weights.enumerate_weights(3, 0.5))
    assert len(_argvs(wf)) == 6 * 3 * 2
    parser = cli.build_parser()
    for i, pipeline in enumerate(wf.pipelines):
        for stage, command in zip(pipeline.stages, ("anen", "simulate", "verify")):
            for task, strategy in zip(stage.tasks, ("NN", "RB")):
                assert task.argv[0] == "anensolar" and "--strategy" not in task.argv
                args = parser.parse_args(list(task.argv[1:]))
                # the three stages of one (vector, strategy) share its directory
                assert (args.command, vars(args)["=output_dir"]) == (command, f"w{i:05d}-{strategy}")
                assert (vars(args).get("=anen.weights") is not None) == (command == "anen")
    # the simulation builder's tasks run in their partition's output directory
    argvs = _argvs(workflow.build_simulation_workflow([("d0", 1.0), ("d1", 2.0)], ["SP128", "KS20"]))
    assert len(argvs) == 2 * 2
    for argv, (command, partition) in zip(argvs, [("anen", "d0"), ("anen", "d1"),
                                                  ("simulate", "d0"), ("simulate", "d1")]):
        assert argv[0] == "anensolar"
        args = parser.parse_args(list(argv[1:]))
        assert (args.command, vars(args)["=output_dir"]) == (command, partition)


def test_simulation_workflow_runs_each_partition_in_its_directory(tmp_path, monkeypatch):
    src = str(Path(anensolar.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    monkeypatch.chdir(tmp_path)
    partitions = [("d0", 1.0), ("d1", 2.0)]
    for seed, (name, _) in enumerate(partitions):
        assert main(["-o", name, "--seed", str(seed), "--set", "synth.n_locations=2", "synth"]) == 0
        shutil.copytree(name, f"{name}-cli")
    wf = workflow.build_simulation_workflow(partitions, ["SP128", "KS20"],
                                            command_prefix=(sys.executable, "-m", "anensolar.cli"))
    run = workflow.submit(wf, workflow.LocalProcessBackend())
    assert run.wait(300) is workflow.RunState.DONE
    for name, _ in partitions:
        assert main(["-o", f"{name}-cli", "anen"]) == 0
        assert main(["-o", f"{name}-cli", "simulate", "--modules", "SP128,KS20"]) == 0
        power = (Path(name) / "power.ansr").read_bytes()
        assert power == (Path(f"{name}-cli") / "power.ansr").read_bytes()


def test_weight_search_workflow_matches_a_hand_run_chain(tmp_path, monkeypatch):
    src = str(Path(anensolar.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    monkeypatch.chdir(tmp_path)
    data = tmp_path / "data"
    assert main(["-o", str(data), *SMALL, "synth"]) == 0
    assert main(["-o", str(data), *SMALL, "simulate", "--source", "analysis"]) == 0
    # every task reads the archive and the truth through absolute paths
    config = tmp_path / "search.yaml"
    config.write_text("paths:\n" + "".join(f"  {key}: {data / key}.ansr\n"
                                           for key in ("forecasts", "observations", "truth_power")))
    prefix = ("-c", str(config), *SMALL)
    grid = weights.WeightGrid(0.25, 5, False, np.array([[0.25, 0.25, 0.0, 0.5, 0.0]]))
    wf = workflow.build_weight_search_workflow(
        grid, command_prefix=(sys.executable, "-m", "anensolar.cli", *prefix))
    run = workflow.submit(wf, workflow.LocalProcessBackend())
    assert run.wait(300) is workflow.RunState.DONE
    hand = [*prefix, "-o", "hand"]
    assert main([*hand, "anen", "--weights", "0.25,0.25,0.0,0.5,0.0"]) == 0
    assert main([*hand, "simulate"]) == 0
    assert main([*hand, "verify"]) == 0
    report = Path("hand", "report.csv").read_bytes()
    for strategy in ("NN", "RB"):
        assert Path(f"w00000-{strategy}", "report.csv").read_bytes() == report, strategy


def test_report_rejects_an_unknown_metric(chain_dir, tmp_path, capsys):
    out = tmp_path / "rep"
    assert main(["-o", str(out), "report", "--metric", "rmsee", str(chain_dir / "report.csv")]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "config-validation"
    header = read_csv(chain_dir / "report.csv")[0]
    assert any("'rmsee'" in p and str(header) in p for p in payload["problems"]), payload["problems"]
    # a CSV that is not a verify report has no group column
    other = tmp_path / "other.csv"
    other.write_text("lead,rmse\n0,1.5\n")
    assert main(["-o", str(out), "report", str(other)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert any("'group'" in p for p in payload["problems"]), payload["problems"]
    assert not (out / "report_wide.csv").exists()


def test_report_rejects_duplicate_labels(chain_dir, tmp_path, capsys):
    out = tmp_path / "rep"
    ref = str(chain_dir / "report.csv")
    other = tmp_path / "other" / "report.csv"
    other.parent.mkdir()
    other.write_bytes((chain_dir / "report.csv").read_bytes())
    # given twice, or two files of one name without --labels
    for argv in (["--labels", "a,a", ref, ref], [ref, str(other)]):
        capsys.readouterr()
        assert main(["-o", str(out), "report", *argv]) == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert any("labels must differ" in p for p in payload["problems"]), payload["problems"]
    assert not (out / "report_wide.csv").exists()


def test_verify_rejects_a_module_the_truth_file_lacks(chain_dir, tmp_path, capsys):
    out = tmp_path / "ks"
    shutil.copytree(chain_dir, out)
    base = ["-o", str(out), *SMALL]
    assert main([*base, "--set", "paths.power=pks.ansr", "simulate", "--modules", "KS20"]) == 0
    capsys.readouterr()
    # the chain's truth holds STU300 alone
    assert main([*base, "verify", "--power", "pks.ansr", "--module", "KS20"]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "config-validation"
    assert any(p.startswith("verify.module:") and "truth" in p and "STU300" in p
               for p in payload["problems"]), payload["problems"]
    assert (out / "report.csv").read_bytes() == (chain_dir / "report.csv").read_bytes()
    # with a truth of that module it verifies
    assert main([*base, "--set", "paths.truth_power=tks.ansr", "simulate", "--source", "analysis",
                 "--modules", "KS20"]) == 0
    assert main([*base, "verify", "--power", "pks.ansr", "--truth", "tks.ansr",
                 "--module", "KS20"]) == 0


def test_report_on_an_empty_csv_is_a_problem(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["-o", str(tmp_path / "rep"), "report", str(empty)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "config-validation"
    assert any("no column 'group'" in p for p in payload["problems"]), payload["problems"]


@pytest.mark.parametrize("text, row", [("\nlocation,region\n0,east\n", "row 1"),
                                       ("location,region\n0,east\nx,a\n", "row 3")],
                         ids=["blank_first_row", "non_integer_location"])
def test_verify_rejects_a_malformed_region_map(chain_dir, tmp_path, capsys, text, row):
    regions = tmp_path / "regions.csv"
    regions.write_text(text)
    out = tmp_path / "v"
    shutil.copytree(chain_dir, out)
    capsys.readouterr()
    assert main(["-o", str(out), *SMALL, "--set", f"paths.region_map={regions}",
                 "verify", "--grouping", "region"]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "config-validation"
    assert any(p.startswith("paths.region_map:") and row in p
               for p in payload["problems"]), payload["problems"]
    assert (out / "report.csv").read_bytes() == (chain_dir / "report.csv").read_bytes()


def _problems(capsys) -> list:
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "config-validation"
    return payload["problems"]


@pytest.mark.parametrize("other", [["--set", "synth.n_locations=3"], ["--seed", "7"]],
                         ids=["count", "coordinates"])
def test_observations_of_other_locations_exit_2(chain_dir, tmp_path, capsys, other):
    # observations of 3 locations, or of 4 at other coordinates, beside the
    # chain's 4-location forecasts
    elsewhere = tmp_path / "elsewhere"
    assert main(["-o", str(elsewhere), *SMALL, *other, "synth"]) == 0
    out = tmp_path / "run"
    shutil.copytree(chain_dir, out)
    (out / "weights.csv").unlink(missing_ok=True)
    base = ["-o", str(out), *SMALL, "--set", f"paths.observations={elsewhere / 'observations.ansr'}"]
    for argv in (["anen"], ["simulate", "--source", "analysis"],
                 *(["optimize-weights", "--strategy", s] for s in ("EW", "NN", "RB"))):
        capsys.readouterr()
        assert main([*base, *argv]) == 2, argv
        assert any(p.startswith("paths.observations:") for p in _problems(capsys)), argv
    for name in ("ensemble.ansr", "truth_power.ansr"):
        assert (out / name).read_bytes() == (chain_dir / name).read_bytes()
    assert not (out / "weights.csv").exists()


@pytest.mark.parametrize("other, flag, axis", [
    (["--set", "synth.start=2019-06-01"], True, "init_times"),
    (["--set", "synth.n_locations=3"], False, "locations"),
    (["--set", "anen.search_days=20"], True, "init_times"),
], ids=["june", "locations", "search_days"])
def test_a_truth_on_other_axes_exits_2(chain_dir, tmp_path, capsys, other, flag, axis):
    # a truth of other init times, locations or test days beside the chain's
    # power, chosen by verify --truth or by --set; the problem names its key
    elsewhere = tmp_path / "elsewhere"
    assert main(["-o", str(elsewhere), *SMALL, *other, "synth"]) == 0
    assert main(["-o", str(elsewhere), *SMALL, *other, "simulate", "--source", "analysis"]) == 0
    truth = elsewhere / "truth_power.ansr"
    out = tmp_path / "v"
    shutil.copytree(chain_dir, out)
    (out / "report.csv").unlink()
    chosen = ["verify", "--truth", truth] if flag else ["--set", f"paths.truth_power={truth}", "verify"]
    capsys.readouterr()
    assert run_cli(["-o", out, *SMALL, *chosen]) == 2
    assert any(p.startswith("paths.truth_power: ") and axis in p for p in _problems(capsys))
    assert not (out / "report.csv").exists()
    # the chain's own truth, chosen the same way, still verifies
    assert run_cli(["-o", out, *SMALL, "verify", "--truth", out / "truth_power.ansr"]) == 0
    assert (out / "report.csv").read_bytes() == (chain_dir / "report.csv").read_bytes()


@pytest.mark.parametrize("chosen", [["verify", "--truth", "power.ansr"],
                                    ["--set", "paths.truth_power=power.ansr", "verify"]],
                         ids=["--truth", "paths.truth_power"])
def test_a_truth_of_many_members_exits_2(chain_dir, tmp_path, capsys, chosen):
    # the power ensemble itself, on the truth's axes, as the truth
    out = tmp_path / "v"
    shutil.copytree(chain_dir, out)
    (out / "report.csv").unlink()
    capsys.readouterr()
    assert run_cli(["-o", out, *SMALL, *chosen]) == 2
    assert any(p.startswith("paths.truth_power: ") and "members" in p for p in _problems(capsys))
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize("flag, key", [("--truth", "paths.truth_power"), ("--power", "paths.power")])
def test_a_missing_file_given_to_verify_names_its_key(chain_dir, capsys, flag, key):
    capsys.readouterr()
    assert run_cli(["-o", chain_dir, *SMALL, "verify", flag, "nothere.ansr"]) == 2
    assert any(p.startswith(f"{key}: file not found") for p in _problems(capsys))


def test_no_simulate_source_or_verify_flag_writes_over_the_archive(tmp_path, capsys):
    # a file is named by its paths key alone: a key's name given as a file
    # ("observations") names a file of that name, and simulate has no --output
    out = tmp_path / "q"
    base = ["-c", Path(__file__).resolve().parents[1] / "demos" / "quickstart.yaml", "-o", out]
    assert run_cli([*base, "synth"]) == 0
    archive = {name: (out / name).read_bytes() for name in ("forecasts.ansr", "observations.ansr")}
    runs = [(["anen"], 0), *((["simulate", "--source", s], 0) for s in ("ensemble", "forecast", "analysis")),
            (["verify"], 0), (["verify", "--power", "power.ansr", "--truth", "truth_power.ansr"], 0),
            (["verify", "--power", "observations"], 2), (["verify", "--truth", "forecasts"], 2),
            (["simulate", "--source", "ensemble", "--output", "observations"], 2)]
    for argv, rc in runs:
        capsys.readouterr()
        assert run_cli([*base, *argv]) == rc, argv
        assert {name: (out / name).read_bytes() for name in archive} == archive, argv
        if rc:
            assert _problems(capsys), argv
    capsys.readouterr()
    assert run_cli([*base, "verify", "--power", "observations"]) == 2
    assert _problems(capsys) == [f"paths.power: file not found: {out / 'observations'}"]


def _snapshot(out: Path) -> dict:
    return {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()}


def _refused(problems) -> list:
    """The {victim, output} labels of each "<victim>: is the file of output <output>: ..." problem."""
    return [set(m.groups()) for p in problems if (m := re.match(r"(.+?): is the file of output (.+?): ", p))]


# the file of each paths key in the directory of every_file
FILE_OF = {**cli.DEFAULT_CONFIG["paths"], "weights_file": "given_weights.csv", "module_file": "modules.csv",
           "region_map": "regions.csv"}
OPTIONAL = [arg for key in ("weights_file", "module_file", "region_map")
            for arg in ("--set", f"paths.{key}={FILE_OF[key]}")]
# each command line, the paths keys it reads with OPTIONAL set, and the ones it writes
COMMAND_FILES = [
    (["synth"], (), ("observations", "forecasts")),
    (["sigma"], ("forecasts",), ("sigma",)),
    (["anen"], ("forecasts", "observations", "weights_file"), ("analogs", "ensemble")),
    (["simulate", "--source", "ensemble"], ("ensemble", "module_file"), ("power",)),
    (["simulate", "--source", "forecast"], ("forecasts", "module_file"), ("power",)),
    (["simulate", "--source", "analysis"], ("forecasts", "observations", "module_file"), ("truth_power",)),
    (["optimize-weights", "--strategy", "EW"], ("forecasts", "observations"), ("weights",)),
    (["optimize-weights", "--strategy", "NN"], ("forecasts", "observations"), ("weights",)),
    (["optimize-weights", "--strategy", "RB"], ("forecasts", "observations"), ("weights", "clustering")),
    (["cluster"], ("observations",), ("clustering",)),
    (["verify"], ("power", "truth_power"), ("report",)),
    (["verify", "--grouping", "region"], ("power", "truth_power", "region_map"), ("report",)),
    (["workflow", "run", "wf.yaml"], (), ("events",)),
]
WRITTEN_KEYS = sorted({key for _, _, outputs in COMMAND_FILES for key in outputs})


@pytest.fixture(scope="module")
def every_file(weighed_chain, tmp_path_factory):
    """A directory that holds the file of every paths key and a workflow file."""
    out = tmp_path_factory.mktemp("every") / "run"
    shutil.copytree(weighed_chain, out)
    assert main(["-o", str(out), *SMALL, "sigma"]) == 0
    assert main(["-o", str(out), *SMALL, "cluster"]) == 0
    shutil.copyfile(out / "weights.csv", out / FILE_OF["weights_file"])
    catalog = read_csv(Path(anensolar.__file__).parent / "catalog" / "modules.csv")
    (out / FILE_OF["module_file"]).write_text("\n".join(",".join(row) for row in catalog[:2]) + "\n")
    (out / FILE_OF["region_map"]).write_text("location,region\n0,east\n1,east\n2,west\n3,west\n")
    (out / FILE_OF["events"]).write_text("1 0.5 t0 pending scheduled\n")
    (out / "wf.yaml").write_text("worker_budget: 1\npipelines:\n  - id: p0\n    stages:\n      - id: s0\n"
                                 "        tasks:\n          - id: t0\n            command: [echo, one]\n")
    assert sorted(p.name for p in out.iterdir()) == sorted({*FILE_OF.values(), "manifest.json", "wf.yaml"})
    return out


def test_the_written_keys_are_the_outputs_of_the_files_table():
    assert cli.WRITTEN == WRITTEN_KEYS


@st.composite
def _collisions(draw):
    argv, inputs, outputs = draw(st.sampled_from(COMMAND_FILES))
    output = draw(st.sampled_from(outputs))
    victim = draw(st.sampled_from(sorted({*inputs, *outputs, *WRITTEN_KEYS} - {output})))
    return argv, output, victim


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_collisions())
def test_an_output_on_the_file_of_another_key_exits_2_naming_both(every_file, case):
    # the victim is an input of the command, another of its outputs, or a key
    # that some other command writes: either way nothing is read or written
    argv, output, victim = case
    argv = [str(every_file / arg) if arg == "wf.yaml" else arg for arg in argv]
    before = _snapshot(every_file)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["-o", str(every_file), *SMALL, *OPTIONAL, "--set", f"paths.{output}={FILE_OF[victim]}", *argv])
    assert rc == 2, (case, err.getvalue())
    problems = json.loads(err.getvalue().strip().splitlines()[-1])["problems"]
    assert {f"paths.{output}", f"paths.{victim}"} in _refused(problems), problems
    assert _snapshot(every_file) == before


@pytest.mark.parametrize("setting, argv, problem", [
    ("paths.power=observations.ansr", ["simulate", "--source", "ensemble"],
     "paths.observations: is the file of output paths.power: observations.ansr"),
    ("paths.forecasts=ensemble.ansr", ["anen"], "paths.forecasts: is the file of output paths.ensemble: ensemble.ansr"),
    ("paths.analogs=ensemble.ansr", ["anen"], "paths.ensemble: is the file of output paths.analogs: ensemble.ansr"),
    ("paths.power=symlink.ansr", ["simulate", "--source", "ensemble"],
     "paths.observations: is the file of output paths.power: observations.ansr"),
    ("paths.power=hardlink.ansr", ["simulate", "--source", "ensemble"],
     "paths.observations: is the file of output paths.power: observations.ansr"),
], ids=["simulate over the analysis", "an input", "another output", "symlink", "hard link"])
def test_a_refused_output_is_one_problem_naming_both_keys(every_file, tmp_path, capsys, setting, argv, problem):
    out = tmp_path / "run"
    shutil.copytree(every_file, out)
    (out / "symlink.ansr").symlink_to(out / "observations.ansr")
    os.link(out / "observations.ansr", out / "hardlink.ansr")
    before = _snapshot(out)
    capsys.readouterr()
    assert main(["-o", str(out), *SMALL, "--set", setting, *argv]) == 2
    victim, _, name = problem.rpartition(": ")
    assert _problems(capsys) == [f"{victim}: {out / name}"]
    assert _snapshot(out) == before


def test_report_refuses_an_output_over_its_own_input(every_file, tmp_path, capsys):
    out = tmp_path / "run"
    shutil.copytree(every_file, out)
    shutil.copyfile(out / "report.csv", out / "mine.csv")
    before = _snapshot(out)
    capsys.readouterr()
    assert main(["-o", str(out), "report", str(out / "mine.csv"), "--output", "mine.csv"]) == 2
    assert _problems(capsys) == [f"report: is the file of output --output: {out / 'mine.csv'}"]
    assert _snapshot(out) == before


def test_workflow_run_refuses_an_event_log_over_its_workflow_file(every_file, tmp_path, capsys):
    out = tmp_path / "run"
    shutil.copytree(every_file, out)
    before = _snapshot(out)
    capsys.readouterr()
    assert main(["-o", str(out), "--set", "paths.events=wf.yaml", "workflow", "run", str(out / "wf.yaml")]) == 2
    assert _problems(capsys) == [f"workflow file: is the file of output paths.events: {out / 'wf.yaml'}"]
    assert _snapshot(out) == before


def test_the_weights_then_anen_chain_shares_one_file(chain_dir, tmp_path):
    # paths.weights_file is read by anen alone: it may name the file that optimize-weights writes
    out = tmp_path / "run"
    shutil.copytree(chain_dir, out)
    base = ["-o", str(out), *SMALL, "--set", "paths.weights_file=weights.csv"]
    assert main([*base, "optimize-weights", "--strategy", "EW"]) == 0
    assert main([*base, "anen"]) == 0
    assert str(out / "weights.csv") in json.loads((out / "manifest.json").read_text())["anen"]["inputs"]


@pytest.mark.parametrize("bad", ["missing", "not YAML", "not UTF-8"])
def test_a_config_file_that_cannot_be_read_exits_2_naming_it(chain_dir, tmp_path, capsys, bad):
    config = {"missing": tmp_path / "nothere.yaml", "not YAML": tmp_path / "bad.yaml",
              "not UTF-8": chain_dir / "forecasts.ansr"}[bad]
    if bad == "not YAML":
        config.write_text("anen: [1")
    capsys.readouterr()
    assert main(["-c", str(config), "-o", str(tmp_path / "out"), "sigma"]) == 2
    problems = _problems(capsys)
    assert len(problems) == 1 and problems[0].startswith(f"config file {config}: "), problems
    assert not (tmp_path / "out").exists()


def test_an_output_dir_that_is_a_file_exits_2(chain_dir, capsys):
    capsys.readouterr()
    assert main(["-o", str(chain_dir / "forecasts.ansr"), "sigma"]) == 2
    problems = _problems(capsys)
    assert len(problems) == 1 and problems[0].startswith("output_dir: "), problems


@pytest.mark.parametrize("argv, label", [(["report"], "report"), (["workflow", "run"], "workflow file")],
                         ids=["report", "workflow run"])
def test_a_directory_given_as_an_input_file_exits_2(tmp_path, capsys, argv, label):
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["-o", str(out), *argv, str(tmp_path)]) == 2
    assert _problems(capsys) == [f"{label}: file not found: {tmp_path}"]
    assert list(out.iterdir()) == []


def test_an_output_that_is_a_directory_exits_2_before_any_read(chain_dir, tmp_path, capsys):
    out, adir = tmp_path / "run", tmp_path / "adir"
    shutil.copytree(chain_dir, out)
    adir.mkdir()
    before = _snapshot(out)
    capsys.readouterr()
    assert main(["-o", str(out), *SMALL, "--set", f"paths.sigma={adir}", "sigma"]) == 2
    assert _problems(capsys) == [f"paths.sigma: is a directory: {adir}"]
    assert _snapshot(out) == before
    assert list(adir.iterdir()) == []


def test_report_refuses_an_output_that_is_a_directory(every_file, tmp_path, capsys):
    out, adir = tmp_path / "run", tmp_path / "adir"
    shutil.copytree(every_file, out)
    adir.mkdir()
    before = _snapshot(out)
    capsys.readouterr()
    assert main(["-o", str(out), "report", str(out / "report.csv"), "--output", str(adir)]) == 2
    assert _problems(capsys) == [f"--output: is a directory: {adir}"]
    assert _snapshot(out) == before
    assert list(adir.iterdir()) == []


def test_an_argument_error_is_one_json_problem(tmp_path, capsys):
    out = tmp_path / "never"
    for argv, named in [(["sigma", "--set", "seed=1"], "unrecognized arguments: --set seed=1"),
                        (["simulate", "--output", "p.ansr"], "unrecognized arguments: --output p.ansr"),
                        (["bogus"], "invalid choice: 'bogus'"),
                        (["workflow"], "the following arguments are required: workflow_command"),
                        ([], "the following arguments are required: command")]:
        capsys.readouterr()
        assert main(["-o", str(out), *argv]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "usage:" not in captured.err, argv
        payload = json.loads(captured.err.strip().splitlines()[-1])
        assert payload["error"] == "config-validation"
        assert len(payload["problems"]) == 1 and named in payload["problems"][0], (argv, payload)
    assert not out.exists()
    # help is not an error: it prints and exits 0
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--truth" in capsys.readouterr().out


@pytest.mark.parametrize("key, name, argv", [
    ("paths.forecasts", "power.ansr", ["anen"]),
    ("paths.observations", "forecasts.ansr", ["anen"]),
    ("paths.ensemble", "forecasts.ansr", ["simulate"]),
    ("paths.observations", "analogs.ansr", ["cluster"]),
    ("paths.forecasts", "observations.ansr", ["optimize-weights"]),
    ("paths.observations", "ensemble.ansr", ["simulate", "--source", "analysis"]),
    ("paths.power", "forecasts.ansr", ["verify"]),
])
def test_an_input_of_another_kind_exits_2_naming_its_key(chain_dir, tmp_path, capsys, key, name, argv):
    out = tmp_path / "run"
    shutil.copytree(chain_dir, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert run_cli(["-o", out, *SMALL, "--set", f"{key}={name}", *argv]) == 2
    assert any(p.startswith(f"{key}: ") and "tensor" in p for p in _problems(capsys))
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.fixture(scope="module")
def weighed_chain(chain_dir, tmp_path_factory):
    """The chain's directory with its weights.csv, a text file, beside the tensors."""
    out = tmp_path_factory.mktemp("weighed") / "run"
    shutil.copytree(chain_dir, out)
    assert main(["-o", str(out), *SMALL, "optimize-weights", "--strategy", "EW"]) == 0
    return out


# every command and each tensor key it reads
TENSOR_INPUTS = [
    (["sigma"], "forecasts"),
    (["anen"], "forecasts"),
    (["anen"], "observations"),
    (["simulate", "--source", "ensemble"], "ensemble"),
    (["simulate", "--source", "forecast"], "forecasts"),
    (["simulate", "--source", "analysis"], "forecasts"),
    (["simulate", "--source", "analysis"], "observations"),
    (["optimize-weights", "--strategy", "EW"], "forecasts"),
    (["optimize-weights", "--strategy", "EW"], "observations"),
    (["optimize-weights", "--strategy", "RB"], "forecasts"),
    (["optimize-weights", "--strategy", "RB"], "observations"),
    (["cluster"], "observations"),
    (["verify"], "power"),
    (["verify"], "truth_power"),
]


@pytest.mark.parametrize("bad", ["text", "cut", "other kind"])
@pytest.mark.parametrize("argv, key", TENSOR_INPUTS,
                         ids=[f"{' '.join(argv)}:{key}" for argv, key in TENSOR_INPUTS])
def test_a_tensor_input_that_is_not_a_container_of_its_kind_exits_2(weighed_chain, tmp_path, capsys,
                                                                    argv, key, bad):
    # a text file, a copy of the key's own file cut off mid-payload, or a
    # container of another kind: each is a problem of the key, whatever its suffix
    out = tmp_path / "run"
    shutil.copytree(weighed_chain, out)
    # copies, so that no case names a file that the command itself writes
    given = {"text": "text.csv", "cut": "cut.ansr", "other kind": "other.ansr"}[bad]
    shutil.copyfile(out / "weights.csv", out / "text.csv")
    shutil.copyfile(out / "analogs.ansr", out / "other.ansr")
    data = (out / Path(cli.DEFAULT_CONFIG["paths"][key])).read_bytes()
    payload = data.index(b"\x00\n") + 2
    (out / "cut.ansr").write_bytes(data[:(payload + len(data)) // 2])
    before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()}
    capsys.readouterr()
    assert main(["-o", str(out), *SMALL, "--set", f"paths.{key}={given}", *argv]) == 2
    problems = _problems(capsys)
    assert any(p.startswith(f"paths.{key}: ") for p in problems), problems
    # no output is written, and the manifest is left as it was
    assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()} == before


@pytest.mark.parametrize("argv, key", TENSOR_INPUTS,
                         ids=[f"{' '.join(argv)}:{key}" for argv, key in TENSOR_INPUTS])
def test_a_tensor_input_of_no_location_exits_2(weighed_chain, tmp_path, capsys, argv, key):
    # the key's own file cut to no location: no command has a location to
    # compute, and no location's tensor could give an output its header
    out = tmp_path / "run"
    shutil.copytree(weighed_chain, out)
    whole = tensorio.read_tensor(out / Path(cli.DEFAULT_CONFIG["paths"][key]))
    tensorio.write_tensor(whole.at_locations(0, 0), out / "none.ansr")
    before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()}
    capsys.readouterr()
    assert main(["-o", str(out), *SMALL, "--set", f"paths.{key}=none.ansr", *argv]) == 2
    assert _problems(capsys) == [f"paths.{key}: holds no location"]
    assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()} == before


@pytest.mark.parametrize("argv", [["anen"], ["optimize-weights", "--strategy", "NN"]],
                         ids=["whole", "at the samples"])
def test_forecasts_holding_inf_exit_2_naming_their_key(chain_dir, tmp_path, capsys, argv):
    # the file opens cleanly; its rows are refused as they are read, whole or
    # at the samples alone once the observations are closed
    out = tmp_path / "run"
    shutil.copytree(chain_dir, out)
    path = out / "forecasts.ansr"
    with tensorio.open_container(path) as container:
        _, n_loc, *axes = container.header.shape
    data = bytearray(path.read_bytes())
    start, row = data.index(b"\x00\n") + 2, 8 * int(np.prod(axes))
    for loc in range(n_loc):
        data[start + loc * row:start + loc * row + 8] = np.float64(np.inf).tobytes()
    path.write_bytes(bytes(data))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(["-o", str(out), *SMALL, *argv]) == 2
    assert _problems(capsys) == ["paths.forecasts: ForecastTensor.values contains +-inf; encode missing data as NaN"]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("bad", ["area", "no area", "short row", "encoding"])
def test_a_module_file_that_does_not_parse_exits_2(chain_dir, tmp_path, capsys, bad):
    out = tmp_path / "run"
    shutil.copytree(chain_dir, out)
    catalog = read_csv(Path(anensolar.__file__).parent / "catalog" / "modules.csv")
    header, row = catalog[0], next(r for r in catalog[1:] if r[0] == "STU300")
    encoding = "utf-8"
    if bad == "area":
        row[header.index("area")] = "abc"
        named = "line 2: could not convert string to float: 'abc'"
    elif bad == "no area":
        del header[1], row[1]
        named = "required positional argument: 'area'"
    elif bad == "short row":
        row = row[:3]
        named = "line 2: "
    else:
        row[header.index("material")] = "c-Si \u00e9"
        named, encoding = "can't decode", "latin-1"
    modules = tmp_path / "mods.csv"
    modules.write_bytes("\n".join(map(",".join, [header, row])).encode(encoding))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(["-o", str(out), *SMALL, "--set", f"paths.module_file={modules}", "simulate"]) == 2
    problems = _problems(capsys)
    assert any(p.startswith("paths.module_file: ") and named in p for p in problems), problems
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_a_report_input_that_is_not_utf8_text_exits_2(chain_dir, tmp_path, capsys):
    out = tmp_path / "rep"
    given = chain_dir / "forecasts.ansr"
    capsys.readouterr()
    assert main(["-o", str(out), "report", str(given)]) == 2
    problems = _problems(capsys)
    assert any(p.startswith("report: ") and str(given) in p for p in problems), problems
    assert not (out / "report_wide.csv").exists()


def test_an_empty_weight_grid_exits_2_unless_ew(chain_dir, tmp_path, capsys):
    out = tmp_path / "run"
    shutil.copytree(chain_dir, out)
    base = ["-o", str(out), *SMALL, "--set", "optimize.step=1", "--set", "optimize.exclude_unit_vectors=true"]
    for strategy in ("NN", "RB"):
        capsys.readouterr()
        assert main([*base, "optimize-weights", "--strategy", strategy]) == 2
        assert any(p.startswith("optimize.exclude_unit_vectors:") for p in _problems(capsys)), strategy
    assert not (out / "weights.csv").exists()
    assert main([*base, "optimize-weights", "--strategy", "EW"]) == 0


@pytest.mark.parametrize("text, problem", [("location,region\n0,east\n1,east\n", "no region for locations [2, 3]"),
                                           ("0,east\n1,east\n2,west\n3,west\n99,west\n",
                                            "locations [99] are outside 0..3")],
                         ids=["missing", "unknown"])
def test_a_region_map_must_cover_the_power_locations(chain_dir, tmp_path, capsys, text, problem):
    regions = tmp_path / "regions.csv"
    regions.write_text(text)
    out = tmp_path / "v"
    shutil.copytree(chain_dir, out)
    capsys.readouterr()
    assert main(["-o", str(out), *SMALL, "--set", f"paths.region_map={regions}",
                 "verify", "--grouping", "region"]) == 2
    assert any(p.startswith("paths.region_map:") and problem in p
               for p in _problems(capsys)), problem
    assert (out / "report.csv").read_bytes() == (chain_dir / "report.csv").read_bytes()


# six locations in a 4 x 7 degree box: fewer NN tiles than locations
WEIGHT_RUN = [*SMALL, "--set", "synth.n_locations=6", "--set", "synth.lat_range=[40.0, 44.0]",
              "--set", "synth.lon_range=[-100.0, -93.0]", "--set", "optimize.step=0.5",
              "--set", "optimize.opt_days=8", "--set", "optimize.total_samples=2",
              "--set", "anen.members=6"]


@pytest.mark.parametrize("strategy", ["EW", "NN", "RB"])
def test_optimize_weights_reads_forecasts_at_its_samples_as_a_full_read_would(tmp_path, monkeypatch, strategy):
    out = tmp_path / "w"
    base = ["-o", str(out), *WEIGHT_RUN]
    assert main([*base, "synth"]) == 0
    real = tensorio.read_tensor
    # (kind, how) of every read of a container's rows: whole, streamed in
    # blocks, or at a location selection
    rows, container = [], tensorio.Container

    def recording(how, method):
        def record(self, *args):
            rows.append((self.header.kind, how(*args)))
            return method(self, *args)
        return record

    monkeypatch.setattr(container, "read", recording(lambda: "whole", container.read))
    monkeypatch.setattr(container, "blocks", recording(lambda: "blocks", container.blocks))
    monkeypatch.setattr(container, "take", recording(lambda locations, names: list(locations), container.take))
    assert main([*base, "optimize-weights", "--strategy", strategy]) == 0
    names = ("weights.csv", "clustering.csv", "manifest.json")
    selective = {n: (out / n).read_bytes() for n in names if (out / n).exists()}
    # neither file is read whole: RB streams the observations, and the
    # objective's rows and the forecasts are read at the samples alone
    samples = rows[-1][1]
    streamed = [("observation", "blocks")] if strategy == "RB" else []
    assert rows == [*streamed, ("observation", samples), ("forecast", samples)]
    forecasts = real(out / "forecasts.ansr")
    analysis = real(out / "observations.ansr")
    if strategy == "EW":
        assert samples == []
    elif strategy == "NN":
        assert samples == weights.nn_sample_grid(forecasts.locations).representatives.tolist()
    else:
        clustering = weights.regime_clustering(analysis, 2)
        assert samples == weights.rb_sample_points(clustering, 2, seed=42)
    assert len(samples) < len(forecasts.locations)

    # a full-read run: both files whole, and the objective on the whole archive
    class WholeRead:
        """A file read whole, behind the interface of the container."""

        def __init__(self, tensor):
            self.tensor = tensor
            self.header = tensorio.Header.of(tensor)

        def blocks(self):
            return zip(self.header.names, self.tensor.values)

        def take(self, locations):
            return self.tensor.take_locations(list(locations))

    @contextlib.contextmanager
    def whole_open(self, key, kind):
        yield WholeRead(real(self.path(key), self.inputs))

    whole = []
    objective = driver.WeightObjective

    def whole_objective(fc, an, *args, locations=None):
        whole.append((len(fc.locations), len(an.locations)))
        return objective(forecasts, analysis, *args)

    monkeypatch.setattr(cli.Runner, "open", whole_open)
    monkeypatch.setattr(driver, "WeightObjective", whole_objective)
    # the run replaces its own manifest entry
    for n in ("weights.csv", "clustering.csv"):
        (out / n).unlink(missing_ok=True)
    assert main([*base, "optimize-weights", "--strategy", strategy]) == 0
    # the rows at the samples, now taken from the whole tensors
    assert whole == ([] if strategy == "EW" else [(len(samples), len(samples))])
    assert {n: (out / n).read_bytes() for n in selective} == selective
    # and the manifest records both files' own digests
    entry = json.loads(selective["manifest.json"])["optimize-weights"]
    assert entry["inputs"] == {str(out / n): hashlib.sha256((out / n).read_bytes()).hexdigest()
                               for n in ("forecasts.ansr", "observations.ansr")}


# 200 locations x 120 days in a 4 x 7 degree box: two NN tiles, and an
# analysis of 23 MB
HELD_RUN = ["--set", "synth.n_locations=200", "--set", "synth.n_days=120",
            "--set", "synth.lat_range=[40.0, 44.0]", "--set", "synth.lon_range=[-100.0, -93.0]",
            "--set", "optimize.step=0.5", "--set", "optimize.opt_days=8", "--set", "anen.members=6"]


@pytest.fixture(scope="module")
def held_archive(tmp_path_factory):
    out = tmp_path_factory.mktemp("held")
    assert main(["-o", str(out), *HELD_RUN, "synth"]) == 0
    return out


@pytest.mark.parametrize("argv", [["optimize-weights", "--strategy", "RB"], ["optimize-weights", "--strategy", "NN"],
                                  ["optimize-weights", "--strategy", "EW"], ["cluster"]],
                         ids=["RB", "NN", "EW", "cluster"])
def test_the_weight_commands_never_hold_the_analysis(held_archive, tmp_path, argv):
    # RB and cluster reduce the analysis to its regime features one block of
    # rows at a time, and every strategy reads the objective's rows at its
    # samples alone (measured: RB 3.7 MiB, NN 1.8, EW 0.6, cluster 2.2,
    # against 22.0 MiB of values; a whole read held 22.4 to 25.6)
    import tracemalloc

    out = tmp_path / "run"
    shutil.copytree(held_archive, out)
    with tensorio.open_container(out / "observations.ansr") as observations:
        payload_bytes = 8 * int(np.prod(observations.header.shape))
    tracemalloc.start()
    try:
        assert main(["-o", str(out), *HELD_RUN, *argv]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < payload_bytes / 4
    entry = json.loads((out / "manifest.json").read_text())[argv[0]]
    observations = out / "observations.ansr"
    assert entry["inputs"][str(observations)] == hashlib.sha256(observations.read_bytes()).hexdigest()


def _ghi_missing_at(out, index):
    """Rewrite the observations of ``out`` with their ghi values (location x
    valid time) at ``index`` missing; returns the tensor written."""
    observations = tensorio.read_tensor(out / "observations.ansr")
    values = np.array(observations.values)
    values[observations.variable_index("ghi")][index] = np.nan
    tensorio.write_tensor(dataclasses.replace(observations, values=values), out / "observations.ansr")
    return tensorio.read_tensor(out / "observations.ansr")


def test_a_missing_analysis_value_is_skipped_and_a_location_without_one_exits_2(tmp_path, capsys):
    out = tmp_path / "q"
    base = ["-o", str(out), *SMALL]
    assert main([*base, "synth"]) == 0
    analysis = _ghi_missing_at(out, (1, 5))
    expected = weights.regime_clustering(analysis, 2).labels.tolist()
    for argv in (["cluster"], ["optimize-weights", "--strategy", "RB"]):
        (out / "clustering.csv").unlink(missing_ok=True)
        assert main([*base, *argv]) == 0, argv
        assert [int(r[1]) for r in read_csv(out / "clustering.csv")[1:]] == expected
    assert len(read_csv(out / "weights.csv")) == 5

    # no finite ghi value at location 1: no feature, and nothing is written
    _ghi_missing_at(out, 1)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    for argv in (["cluster"], ["optimize-weights", "--strategy", "RB"]):
        capsys.readouterr()
        assert main([*base, *argv]) == 2, argv
        assert _problems(capsys) == ["paths.observations: location 1 has no finite ghi value"]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # the strategies that read no regime feature still run
    assert main([*base, "optimize-weights", "--strategy", "NN"]) == 0

    # observations without a regime variable exit 2 before a row is read
    observations = tensorio.read_tensor(out / "observations.ansr")
    keep = [name for name in observations.variable_names if name != "cloud_cover"]
    tensorio.write_tensor(dataclasses.replace(
        observations, variable_names=tuple(keep),
        values=observations.values[[observations.variable_index(n) for n in keep]]), out / "observations.ansr")
    for argv in (["cluster"], ["optimize-weights", "--strategy", "RB"]):
        capsys.readouterr()
        assert main([*base, *argv]) == 2, argv
        assert _problems(capsys) == ["paths.observations: lacks the variables ['cloud_cover'] that the regimes need"]


def test_a_short_member_list_at_a_later_location_leaves_the_previous_outputs(tmp_path, capsys):
    # the search of location 2 goes short after the rows of locations 0 and 1
    # are in both temporary files: the command exits 1 naming location 2 of
    # the file, and the previous analogs and ensemble stay whole
    out = tmp_path / "q"
    base = ["-o", str(out), *SMALL, "--set", "anen.allow_partial=false"]
    assert main([*base, "synth"]) == 0
    assert main([*base, "anen"]) == 0
    forecasts = tensorio.read_tensor(out / "forecasts.ansr")
    values = np.array(forecasts.values)
    values[1, 2, :24, 5] = np.nan  # every search init lacks a temperature the windows of leads 4 and 6 need
    tensorio.write_tensor(dataclasses.replace(forecasts, values=values), out / "forecasts.ansr")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main([*base, "anen"]) == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "InsufficientCandidatesError",
                       "message": "0 finite-distance candidates for location 2, test init 24, lead 4; need 8"}
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_simulate_ensemble_holds_a_few_slabs_beyond_its_power(tmp_path):
    # The weather ensemble is read one location's slab at a time: beyond the
    # power array, the command holds the slab being simulated, the next one,
    # the PV chain's temporaries for one location (about three slabs) and the
    # solar cache, about 6 slabs in all (measured 5.8); reading the whole
    # ensemble, 32 slabs, held 36.6.
    import tracemalloc

    from anensolar.coredata import EnsembleTensor, LeadTimeAxis, TimeAxis
    from anensolar.pvchain import SystemConfig, load_module_catalog
    from conftest import make_locations

    n_loc, n_init, n_lead, members = 32, 10, 24, 21
    rng = np.random.default_rng(9)
    shape = (n_loc, n_init, n_lead, members)
    weather = EnsembleTensor(("ghi", "albedo", "temperature", "wind_speed"), make_locations(n_loc),
                             TimeAxis(1_623_456_000 + 86400 * np.arange(n_init)),
                             LeadTimeAxis(3600 * np.arange(n_lead)), members,
                             np.stack([rng.uniform(0, 800, shape), rng.uniform(0.05, 0.6, shape),
                                       rng.uniform(-5, 35, shape), rng.uniform(0, 12, shape)]))
    out = tmp_path / "out"
    out.mkdir()
    tensorio.write_tensor(weather, out / "ensemble.ansr")
    stu300 = [spec for spec in load_module_catalog() if spec.code == "STU300"]
    whole = driver.power_from_weather(weather, stu300, SystemConfig())
    del weather
    slab_bytes = 4 * n_init * n_lead * members * 8
    tracemalloc.start()
    try:
        assert main(["-o", str(out), "simulate", "--source", "ensemble"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    power = tensorio.read_tensor(out / "power.ansr")
    assert power.variable_names == ("STU300",)
    np.testing.assert_array_equal(power.values.view(np.uint64), whole.values.view(np.uint64))
    assert peak - power.values.nbytes < 8 * slab_bytes
    # and the manifest records the whole ensemble file's digest
    entry = json.loads((out / "manifest.json").read_text())["simulate"]
    assert entry["inputs"] == {str(out / "ensemble.ansr"):
                               hashlib.sha256((out / "ensemble.ansr").read_bytes()).hexdigest()}


def test_anen_holds_one_location_of_its_inputs_and_outputs(tmp_path):
    # Each location's forecasts and observations are taken, searched and
    # gathered, and its rows put in both outputs, so the command holds one
    # location of each, with the search's three work buffers: measured 3.8
    # locations' bytes at 40 locations; holding every location peaked at 19.8.
    import tracemalloc

    out = tmp_path / "out"
    run = ["-o", str(out), "--set", "synth.n_locations=40", "--set", "synth.n_days=90",
           "--set", "anen.search_days=60", "--set", "anen.members=21"]
    assert main([*run, "synth"]) == 0
    n_pred, n_init, n_lead, n_test, members = 5, 90, 24, 30, 21
    location_bytes = 8 * (n_pred * n_init * n_lead            # forecasts
                          + n_pred * n_init * n_lead          # observations
                          + (2 + n_pred) * n_test * n_lead * members)  # analogs and ensemble rows
    tracemalloc.start()
    try:
        assert main([*run, "anen"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    with tensorio.open_container(out / "ensemble.ansr") as ensemble:
        assert ensemble.header.shape == (n_pred, 40, n_test, n_lead, members)
    assert peak < 6 * location_bytes


def test_simulate_of_every_catalog_module_holds_one_location(tmp_path):
    # Each location's power rows are put in the file as its slab is
    # simulated, so beyond the interpreter the command holds about one weather
    # slab and its 11 modules' power rows, with the PV chain's temporaries
    # (measured 2.7 of them, 29 MB); holding the whole power, 20 locations'
    # rows, peaked at 16.6 (181 MB).
    import tracemalloc

    from anensolar.coredata import EnsembleTensor, LeadTimeAxis, TimeAxis
    from anensolar.pvchain import load_module_catalog
    from conftest import make_locations

    n_loc, n_init, n_lead, members = 20, 180, 24, 21
    rng = np.random.default_rng(9)
    shape = (n_loc, n_init, n_lead, members)
    out = tmp_path / "out"
    out.mkdir()
    tensorio.write_tensor(EnsembleTensor(("ghi", "albedo", "temperature", "wind_speed"), make_locations(n_loc),
                                         TimeAxis(1_623_456_000 + 86400 * np.arange(n_init)),
                                         LeadTimeAxis(3600 * np.arange(n_lead)), members,
                                         np.stack([rng.uniform(0, 800, shape), rng.uniform(0.05, 0.6, shape),
                                                   rng.uniform(-5, 35, shape), rng.uniform(0, 12, shape)])),
                          out / "ensemble.ansr")
    codes = [spec.code for spec in load_module_catalog()]
    assert len(codes) == 11
    slab_bytes = 4 * n_init * n_lead * members * 8
    power_row_bytes = len(codes) * n_init * n_lead * members * 8
    tracemalloc.start()
    try:
        assert main(["-o", str(out), "simulate", "--source", "ensemble", "--modules", ",".join(codes)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    with tensorio.open_container(out / "power.ansr") as power:
        assert power.header.shape == (11, *shape)
    assert peak < 4 * (slab_bytes + power_row_bytes)


def test_weather_without_a_pv_chain_variable_exits_2_before_a_slab_is_read(chain_dir, tmp_path, capsys,
                                                                           monkeypatch):
    out = tmp_path / "run"
    shutil.copytree(chain_dir, out)
    monkeypatch.setattr(tensorio.Container, "take", lambda *args: pytest.fail("a slab was read"))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    # the power file is an ensemble of module codes: no weather variable
    assert run_cli(["-o", out, *SMALL, "--set", "paths.ensemble=power.ansr",
                    "--set", "paths.power=again.ansr", "simulate", "--source", "ensemble"]) == 2
    assert any(p.startswith("paths.ensemble: lacks the variables ['ghi', 'albedo', 'temperature', "
                            "'wind_speed']") for p in _problems(capsys))

    observations = tensorio.read_tensor(out / "observations.ansr")
    keep = [name for name in observations.variable_names if name != "ghi"]
    tensorio.write_tensor(dataclasses.replace(
        observations, variable_names=tuple(keep),
        values=observations.values[[observations.variable_index(n) for n in keep]]), tmp_path / "no_ghi.ansr")
    assert run_cli(["-o", out, *SMALL, "--set", f"paths.observations={tmp_path / 'no_ghi.ansr'}",
                    "--set", "paths.truth_power=again.ansr", "simulate", "--source", "analysis"]) == 2
    assert any(p.startswith("paths.observations: lacks the variables ['ghi']") for p in _problems(capsys))
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_the_manifest_hashes_an_unhashed_input_in_chunks(tmp_path):
    import tracemalloc

    big = tmp_path / "big.bin"
    big.write_bytes(np.random.default_rng(1).bytes(4 << 20))
    run = cli.Runner(cli.load_config(None, [f"output_dir={tmp_path}"]), "report")
    run.inputs[str(big)] = None
    tracemalloc.start()
    try:
        run.write_manifest()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    entry = json.loads((tmp_path / "manifest.json").read_text())["report"]
    assert entry["inputs"] == {str(big): hashlib.sha256(big.read_bytes()).hexdigest()}
    assert peak < 1 << 20


def _module_files(out: Path, codes, shape, members, seed=9):
    """A power ensemble of ``members`` over the modules ``codes`` and its
    one-member truth, random on ``shape`` (locations, inits, leads), in
    ``out``; returns their axes."""
    from anensolar.coredata import EnsembleTensor, LeadTimeAxis, TimeAxis
    from conftest import make_locations

    n_loc, n_init, n_lead = shape
    rng = np.random.default_rng(seed)
    axes = (make_locations(n_loc), TimeAxis(1_623_456_000 + 86400 * np.arange(n_init)),
            LeadTimeAxis(3600 * np.arange(n_lead)))
    out.mkdir(exist_ok=True)
    for name, m in (("power.ansr", members), ("truth_power.ansr", 1)):
        values = rng.gamma(2.0, 300.0, size=(len(codes), *shape, m))
        values[rng.random(values.shape) < 0.01] = np.nan
        tensorio.write_tensor(EnsembleTensor(tuple(codes), *axes, m, values), out / name)
    return axes


def test_verify_of_one_module_out_of_eleven_holds_one_location_of_it(tmp_path):
    # verify checks both headers, then takes each location's row of the
    # scored module from both files and puts its scores into four (L, I, J)
    # fields under that location's solar cache: beyond the fields and the
    # cache it holds a few rows of one location (measured 4.2), against the
    # 88 rows of the power file (11 modules x 8 locations) a whole read holds
    import tracemalloc

    from anensolar.pvchain import load_module_catalog
    from anensolar.solar import precompute_solar
    from anensolar.verify import aggregate, align_solar_noon

    codes = [spec.code for spec in load_module_catalog()]
    assert len(codes) == 11
    shape, members = (8, 30, 24), 21
    out = tmp_path / "out"
    locations, init_times, lead_times = _module_files(out, codes, shape, members)
    row_bytes = shape[1] * shape[2] * members * 8
    fields_bytes = int(np.prod(shape)) * (1 + 3 * 8)
    cache_bytes = 4 * shape[1] * shape[2] * 8
    tracemalloc.start()
    try:
        assert main(["-o", str(out), "verify", "--module", "KS20"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < fields_bytes + cache_bytes + 6 * row_bytes
    assert peak < (out / "power.ansr").stat().st_size / 10
    # the report is that of the module's whole field
    power, truth = (tensorio.read_tensor(out / name) for name in ("power.ansr", "truth_power.ansr"))
    cache = precompute_solar(locations, init_times, lead_times)
    aggregate(power.values[power.variable_index("KS20")], truth.values[truth.variable_index("KS20"), ..., 0],
              "lead", init_times=init_times, alignment=align_solar_noon(cache),
              daylight=cache.daylight_mask()).to_csv(tmp_path / "whole.csv")
    assert (out / "report.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    # and the manifest records each whole file's digest
    entry = json.loads((out / "manifest.json").read_text())["verify"]
    assert entry["inputs"] == {str(out / name): hashlib.sha256((out / name).read_bytes()).hexdigest()
                               for name in ("power.ansr", "truth_power.ansr")}


def test_every_verify_problem_exits_2_before_a_row_is_read(chain_dir, tmp_path, capsys, monkeypatch):
    from anensolar.coredata import TimeAxis

    out = tmp_path / "v"
    shutil.copytree(chain_dir, out)
    (out / "report.csv").unlink()
    power = tensorio.read_tensor(out / "power.ansr")
    truth = tensorio.read_tensor(out / "truth_power.ansr")
    tensorio.write_tensor(dataclasses.replace(power, variable_names=("KS20",)), out / "pks.ansr")
    tensorio.write_tensor(dataclasses.replace(truth, init_times=TimeAxis(truth.init_times.instants + 86400)),
                          out / "later.ansr")
    (out / "regions.csv").write_text("\nlocation,region\n0,east\n")
    monkeypatch.setattr(tensorio.Container, "take", lambda *args: pytest.fail("a row was read"))
    cases = [
        (["verify", "--power", "pks.ansr", "--module", "KS20"], "verify.module: 'KS20' not in truth"),
        (["verify", "--truth", "later.ansr"], "paths.truth_power: does not pair with paths.power: init_times"),
        (["verify", "--truth", "power.ansr"], "paths.truth_power: holds 8 members, need 1"),
        (["--set", "paths.region_map=regions.csv", "verify", "--grouping", "region"], "paths.region_map: row 1"),
    ]
    for argv, problem in cases:
        capsys.readouterr()
        assert run_cli(["-o", out, *SMALL, *argv]) == 2, argv
        assert any(p.startswith(problem) for p in _problems(capsys)), argv
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize("argv, output", [(["simulate", "--source", "ensemble"], "power.ansr"),
                                          (["simulate", "--source", "analysis"], "truth_power.ansr"),
                                          (["verify"], "report.csv")],
                         ids=["simulate ensemble", "simulate analysis", "verify"])
def test_a_command_computes_the_ephemeris_time_terms_once(chain_dir, tmp_path, monkeypatch, argv, output):
    # one solar cache per location, each adding its place to the declination,
    # equation of time and irradiance of the command's one SunTerms
    from anensolar import solar

    out = tmp_path / "run"
    shutil.copytree(chain_dir, out)
    calls = []
    geometry, precompute = solar._sun_geometry, solar.precompute_solar
    monkeypatch.setattr(solar, "_sun_geometry", lambda t: calls.append("sun") or geometry(t))
    monkeypatch.setattr(solar, "precompute_solar", lambda *a: calls.append(len(a[0])) or precompute(*a))
    assert run_cli(["-o", out, *SMALL, *argv]) == 0
    assert calls == ["sun", 1, 1, 1, 1]
    assert (out / output).read_bytes() == (chain_dir / output).read_bytes()
