"""Command-line interface.

Subcommands wire the library modules into file-based pipelines: ``synth``,
``sigma``, ``anen``, ``simulate``, ``optimize-weights``, ``cluster``,
``verify``, ``workflow run``, and ``report``. A single YAML config file
drives every command. Later sources override earlier ones: defaults < config
file < ``ANENSOLAR_*`` environment variables (double underscore nests, e.g.
``ANENSOLAR_ANEN__MEMBERS=25``) < ``--set KEY=VALUE`` < flags; a key that the
defaults do not hold is a config error. Every input file resolves relative to
the output directory, and every run writes its artifacts there together with
a manifest of input/output hashes and the effective config hash. On failure
a machine-readable JSON error line goes to stderr and the exit code is
nonzero.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import datetime as _dt
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np
import yaml

from . import driver, synth, tensorio, verify, weights, workflow
from .anen import (
    AnEnConfig,
    build_multivariate_ensemble,
    compute_sigma,
    equal_weights,
    search_analogs,
    validate_weights,
)
from .coredata import LocationSet, align_observations
from .errors import AnensolarError, ConfigValidationError
from .pvchain import SystemConfig, load_module_catalog, load_module_specs
from .solar import precompute_solar

ENV_PREFIX = "ANENSOLAR_"

DEFAULT_CONFIG = {
    "seed": 42,
    "output_dir": "out",
    "paths": {
        "forecasts": "forecasts.ansr",
        "observations": "observations.ansr",
        "sigma": "sigma.ansr",
        "analogs": "analogs.ansr",
        "ensemble": "ensemble.ansr",
        "power": "power.ansr",
        "truth_power": "truth_power.ansr",
        "weights": "weights.csv",
        "clustering": "clustering.csv",
        "report": "report.csv",
        "events": "events.log",
        "region_map": "",
        "module_file": "",
        "weights_file": "",
    },
    "synth": {
        "n_locations": 5,
        "n_days": 40,
        "n_leads": 24,
        "start": "2019-01-01",
        "ar_coeff": 0.8,
        "cloud_noise": 0.12,
        "sky_base": 0.78,
        "lat_range": [32.0, 45.0],
        "lon_range": [-115.0, -80.0],
        "ghi_bias": 0.18,
        "ghi_noise": 0.08,
    },
    "anen": {
        "members": 21,
        "half_window": 1,
        "weights": "equal",
        "operational": True,
        "allow_partial": False,
        "sigma_epsilon": 1e-6,
        "search_days": 30,
    },
    "system": {"capacity": 10000.0, "tilt": 0.0, "azimuth": 180.0},
    "modules": ["STU300"],
    "simulate": {"source": "ensemble", "output": ""},
    "verify": {"grouping": "lead", "align_noon": True, "module": "", "power": "", "truth": ""},
    "optimize": {
        "strategy": "RB",
        "step": 0.25,
        "exclude_unit_vectors": False,
        "total_samples": 3,
        "clusters": 2,
        "opt_days": 10,
        "module": "STU300",
    },
    "cluster": {"clusters": 2},
}


# -- config plumbing -----------------------------------------------------------

def _override(cfg: dict, key: str, value, source: str):
    """Set the dotted config ``key`` to ``value``; a mapping value sets each of
    its leaves. A key that DEFAULT_CONFIG does not hold is a config error."""
    if isinstance(value, dict):
        for sub, leaf_value in value.items():
            _override(cfg, f"{key}.{sub}" if key else str(sub), leaf_value, source)
        return
    *parents, leaf = key.split(".")
    node = cfg
    for part in parents:
        node = node.get(part) if isinstance(node, dict) else None
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigValidationError([f"{key}: unknown config key (from {source})"])
    if isinstance(node[leaf], dict):
        raise ConfigValidationError([f"{key}: a config section takes a mapping (from {source})"])
    node[leaf] = value


def load_config(config_path, sets=(), environ=None) -> dict:
    """Defaults < config file < ``ANENSOLAR_*`` variables < ``--set`` items;
    main() applies the flags last."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if config_path:
        with open(config_path) as fh:
            doc = yaml.safe_load(fh) or {}
        if not isinstance(doc, dict):
            raise ConfigValidationError(["config file must hold a mapping"])
        _override(cfg, "", doc, f"config file {config_path}")
    for name, raw in sorted((os.environ if environ is None else environ).items()):
        if name.startswith(ENV_PREFIX):
            _override(cfg, name[len(ENV_PREFIX):].lower().replace("__", "."),
                      yaml.safe_load(raw), name)
    for item in sets:
        key, eq, raw = item.partition("=")
        if not eq:
            raise ConfigValidationError([f"--set needs KEY=VALUE, got {item!r}"])
        _override(cfg, key.strip(), yaml.safe_load(raw), f"--set {item}")
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()


def _parse_start(value) -> int:
    if isinstance(value, (int, float)):
        return int(value)
    dt = _dt.datetime.fromisoformat(str(value)).replace(tzinfo=_dt.timezone.utc)
    return int(dt.timestamp())


def _hash_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    """Shared context for one subcommand run: paths, manifest, config."""

    def __init__(self, cfg: dict, command: str):
        self.cfg = cfg
        self.command = command
        self.out_dir = Path(cfg["output_dir"])
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.inputs: dict = {}
        self.outputs: dict = {}

    def path(self, name: str) -> Path:
        """A ``paths`` key or a filename, relative to the output directory."""
        p = Path(self.cfg["paths"].get(name, name))
        return p if p.is_absolute() else self.out_dir / p

    def input_path(self, name: str, problems: list) -> Path:
        """``path(name)``, checked to exist and hashed into the manifest."""
        p = self.path(name)
        if not p.is_file():
            field = f"paths.{name}" if name in self.cfg["paths"] else "input"
            problems.append(f"{field}: file not found: {p}")
        else:
            self.inputs[str(p)] = _hash_file(p)
        return p

    def register_output(self, path: Path):
        self.outputs[str(path)] = _hash_file(Path(path))

    def write_manifest(self):
        manifest_path = self.out_dir / "manifest.json"
        data = {}
        if manifest_path.exists():
            data = json.loads(manifest_path.read_text())
        data[self.command] = {
            "config_hash": config_hash(self.cfg),
            "inputs": dict(sorted(self.inputs.items())),
            "outputs": dict(sorted(self.outputs.items())),
        }
        # a crash mid-write must not leave a truncated manifest for the next command
        tmp = manifest_path.with_name(f"manifest.json.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        try:
            os.replace(tmp, manifest_path)
        finally:
            tmp.unlink(missing_ok=True)


def _fail_if(problems):
    if problems:
        raise ConfigValidationError(problems)


def _anen_split(cfg, n_inits, problems) -> tuple:
    days = cfg["anen"]["search_days"]
    if not isinstance(days, int) or not 0 < days < n_inits:
        problems.append(f"anen.search_days: need an integer in 1..{n_inits - 1}, got {days!r}")
        return range(0), range(0)
    return range(days, n_inits), range(0, days)


def _parse_weight_vector(value, n_predictors, field, problems):
    if value in ("equal", "", None):
        return equal_weights(n_predictors)
    try:
        if isinstance(value, str):
            value = [float(v) for v in value.split(",")]
        if np.ndim(value) != 1:
            raise ValueError("need one list of weights")
        return validate_weights(value, n_predictors)
    except ValueError as exc:
        problems.append(f"{field}: {exc}")
        return None


def _anen_config(cfg, n_predictors, problems) -> AnEnConfig | None:
    a = cfg["anen"]
    weight_vector = _parse_weight_vector(a["weights"], n_predictors, "anen.weights", problems)
    if not isinstance(a["members"], int) or a["members"] < 1:
        problems.append(f"anen.members: need a positive integer, got {a['members']!r}")
    if not isinstance(a["half_window"], int) or a["half_window"] < 0:
        problems.append(f"anen.half_window: need a non-negative integer, got {a['half_window']!r}")
    if not (isinstance(a["sigma_epsilon"], (int, float)) and a["sigma_epsilon"] > 0):
        problems.append(f"anen.sigma_epsilon: need a positive number, got {a['sigma_epsilon']!r}")
    if problems or weight_vector is None:
        return None
    return AnEnConfig(
        weights=weight_vector,
        members=a["members"],
        half_window=a["half_window"],
        operational=bool(a["operational"]),
        allow_partial=bool(a["allow_partial"]),
        sigma_epsilon=float(a["sigma_epsilon"]),
    )


def _load_specs(run: Runner, problems):
    if run.cfg["paths"]["module_file"]:
        module_file = run.input_path("module_file", problems)
        return load_module_specs(module_file) if module_file.is_file() else []
    catalog = {spec.code: spec for spec in load_module_catalog()}
    specs = []
    for code in run.cfg["modules"]:
        if code not in catalog:
            problems.append(f"modules: unknown module code {code!r}")
        else:
            specs.append(catalog[code])
    return specs


def _system(cfg, problems) -> SystemConfig | None:
    s = cfg["system"]
    try:
        return SystemConfig(float(s["capacity"]), float(s["tilt"]), float(s["azimuth"]))
    except (ValueError, KeyError) as exc:
        problems.append(f"system: {exc}")
        return None


# -- subcommands ----------------------------------------------------------------

def cmd_synth(run: Runner, args) -> int:
    cfg = run.cfg
    s = cfg["synth"]
    problems = []
    if s["n_locations"] < 1:
        problems.append("synth.n_locations: must be >= 1")
    if not 0 <= s["ar_coeff"] < 1:
        problems.append("synth.ar_coeff: AR coefficient must be in [0, 1)")
    if s["cloud_noise"] < 0 or s["ghi_noise"] < 0:
        problems.append("synth: noise scales must be >= 0")
    try:
        start = _parse_start(s["start"])
    except ValueError:
        problems.append(f"synth.start: cannot parse {s['start']!r} as a date")
        start = 0
    _fail_if(problems)

    rng = np.random.default_rng(cfg["seed"])
    lat = rng.uniform(*s["lat_range"], size=s["n_locations"])
    lon = rng.uniform(*s["lon_range"], size=s["n_locations"])
    elev = rng.uniform(0.0, 2000.0, size=s["n_locations"])
    locations = LocationSet.from_coords(lat, lon, elev)

    errors = synth.default_error_models()
    errors["ghi"] = synth.PredictorErrorModel(s["ghi_bias"], s["ghi_noise"], "cloud_cover")
    gen_cfg = synth.SynthConfig(
        seed=cfg["seed"], locations=locations, start=start,
        n_days=s["n_days"], n_leads=s["n_leads"], ar_coeff=s["ar_coeff"],
        cloud_noise=s["cloud_noise"], sky_base=s["sky_base"], errors=errors,
    )
    analysis, forecasts = synth.generate(gen_cfg)
    obs_path = run.path("observations")
    fc_path = run.path("forecasts")
    tensorio.write_tensor(analysis, obs_path)
    tensorio.write_tensor(forecasts, fc_path)
    run.register_output(obs_path)
    run.register_output(fc_path)
    return 0


def cmd_sigma(run: Runner, args) -> int:
    problems = []
    fc_path = run.input_path("forecasts", problems)
    _fail_if(problems)
    forecasts = tensorio.read_tensor(fc_path)
    _, search = _anen_split(run.cfg, len(forecasts.init_times), problems)
    _fail_if(problems)
    sigma = compute_sigma(forecasts, search)
    out = run.path("sigma")
    sigma.write(out)
    run.register_output(out)
    return 0


def cmd_anen(run: Runner, args) -> int:
    cfg = run.cfg
    problems = []
    fc_path = run.input_path("forecasts", problems)
    obs_path = run.input_path("observations", problems)
    _fail_if(problems)
    forecasts = tensorio.read_tensor(fc_path)
    analysis = tensorio.read_tensor(obs_path)

    test, search = _anen_split(cfg, len(forecasts.init_times), problems)
    per_loc = None
    if cfg["paths"]["weights_file"] and (wf := run.input_path("weights_file", problems)).is_file():
        try:
            per_loc = validate_weights(weights.read_weights_csv(wf, forecasts.predictor_names),
                                       len(forecasts.predictor_names), len(forecasts.locations))
        except ValueError as exc:
            problems.append(f"paths.weights_file: {exc}")
    config = _anen_config(cfg, len(forecasts.predictor_names), problems)
    _fail_if(problems)
    if per_loc is not None:
        config = dataclasses.replace(config, weights=per_loc)

    sigma = compute_sigma(forecasts, search)
    indices = search_analogs(forecasts, config, test, search, sigma)
    aligned = align_observations(analysis, forecasts.init_times, forecasts.lead_times)
    ensemble = build_multivariate_ensemble(indices, aligned)
    analog_path = run.path("analogs")
    indices.write(analog_path)
    run.register_output(analog_path)
    ens_path = run.path("ensemble")
    tensorio.write_tensor(ensemble, ens_path)
    run.register_output(ens_path)
    return 0


def cmd_simulate(run: Runner, args) -> int:
    cfg = run.cfg
    problems = []
    source = cfg["simulate"]["source"]
    if source not in ("ensemble", "forecast", "analysis"):
        problems.append(f"simulate.source: must be ensemble|forecast|analysis, got {source!r}")
    specs = _load_specs(run, problems)
    system = _system(cfg, problems)
    _fail_if(problems)

    if source == "ensemble":
        ens_path = run.input_path("ensemble", problems)
        _fail_if(problems)
        weather = tensorio.read_tensor(ens_path)
        default_out = "power"
    elif source == "forecast":
        fc_path = run.input_path("forecasts", problems)
        _fail_if(problems)
        forecasts = tensorio.read_tensor(fc_path)
        test, _ = _anen_split(cfg, len(forecasts.init_times), problems)
        _fail_if(problems)
        weather = driver.forecast_weather_ensemble(forecasts, test)
        default_out = "power"
    else:
        fc_path = run.input_path("forecasts", problems)
        obs_path = run.input_path("observations", problems)
        _fail_if(problems)
        forecasts = tensorio.read_tensor(fc_path)
        analysis = tensorio.read_tensor(obs_path)
        test, _ = _anen_split(cfg, len(forecasts.init_times), problems)
        _fail_if(problems)
        weather = driver.analysis_weather_ensemble(
            analysis, forecasts.init_times, forecasts.lead_times, test
        )
        default_out = "truth_power"

    power = driver.power_from_weather(weather, specs, system)
    out_path = run.path(cfg["simulate"]["output"] or default_out)
    tensorio.write_tensor(power, out_path)
    run.register_output(out_path)
    return 0


def cmd_optimize_weights(run: Runner, args) -> int:
    cfg = run.cfg
    o = cfg["optimize"]
    problems = []
    fc_path = run.input_path("forecasts", problems)
    obs_path = run.input_path("observations", problems)
    strategy = str(o["strategy"]).upper()
    if strategy not in ("EW", "NN", "RB"):
        problems.append(f"optimize.strategy: must be EW|NN|RB, got {o['strategy']!r}")
    system = _system(cfg, problems)
    specs = {s.code: s for s in load_module_catalog()}
    if o["module"] not in specs:
        problems.append(f"optimize.module: unknown module code {o['module']!r}")
    _fail_if(problems)

    forecasts = tensorio.read_tensor(fc_path)
    analysis = tensorio.read_tensor(obs_path)
    n_pred = len(forecasts.predictor_names)
    try:
        grid = weights.enumerate_weights(n_pred, float(o["step"]), bool(o["exclude_unit_vectors"]))
    except ValueError as exc:
        _fail_if([f"optimize.step: {exc}"])

    _, search = _anen_split(cfg, len(forecasts.init_times), problems)
    opt_days = o["opt_days"]
    if not isinstance(opt_days, int) or not 0 < opt_days < len(search):
        problems.append(f"optimize.opt_days: need an integer in 1..{len(search) - 1}, got {opt_days!r}")
    base = _anen_config(cfg, n_pred, problems)
    _fail_if(problems)
    opt_search = range(0, search.stop - opt_days)
    opt_test = range(search.stop - opt_days, search.stop)

    if strategy == "EW":
        out_weights = weights.optimize_weights(grid, None, "EW", n_locations=len(forecasts.locations))
    else:
        objective = driver.WeightObjective(
            forecasts, analysis, base, opt_test, opt_search, specs[o["module"]], system
        )
        if strategy == "NN":
            assignment = weights.nn_sample_grid(forecasts.locations)
            out_weights = weights.optimize_weights(grid, objective.scores, "NN", assignment=assignment)
        else:
            feats, names = regime_feature_matrix(analysis)
            clustering = weights.hierarchical_cluster(feats, int(o["clusters"]), names)
            samples = weights.rb_sample_points(clustering, int(o["total_samples"]), seed=cfg["seed"])
            clus_path = run.path("clustering")
            clustering.write_csv(clus_path)
            run.register_output(clus_path)
            out_weights = weights.optimize_weights(
                grid, objective.scores, "RB", clustering=clustering, regime_samples=samples
            )

    out_path = run.path("weights")
    weights.write_weights_csv(out_path, out_weights, forecasts.predictor_names)
    run.register_output(out_path)
    return 0


def regime_feature_matrix(analysis):
    """Location features for regime clustering: orography, annual daily-max
    GHI, annual daily-max temperature, mean cloud cover."""
    names = ("orography", "daily_max_ghi", "daily_max_temperature", "mean_cloud_cover")
    t0 = analysis.valid_times.instants[0]
    day = ((analysis.valid_times.instants - t0) // 86400).astype(int)
    n_days = int(day.max()) + 1
    ghi = analysis.values[analysis.variable_index("ghi")]
    temp = analysis.values[analysis.variable_index("temperature")]
    cloud = analysis.values[analysis.variable_index("cloud_cover")]
    n_loc = ghi.shape[0]
    dmax_ghi = np.full((n_loc, n_days), -np.inf)
    dmax_temp = np.full((n_loc, n_days), -np.inf)
    for d in range(n_days):
        sel = day == d
        dmax_ghi[:, d] = ghi[:, sel].max(axis=1)
        dmax_temp[:, d] = temp[:, sel].max(axis=1)
    feats = np.column_stack([
        analysis.locations.elevation,
        dmax_ghi.mean(axis=1),
        dmax_temp.mean(axis=1),
        cloud.mean(axis=1),
    ])
    return feats, names


def cmd_cluster(run: Runner, args) -> int:
    problems = []
    obs_path = run.input_path("observations", problems)
    k = run.cfg["cluster"]["clusters"]
    if not isinstance(k, int) or k < 1:
        problems.append(f"cluster.clusters: need a positive integer, got {k!r}")
    _fail_if(problems)
    analysis = tensorio.read_tensor(obs_path)
    if k > len(analysis.locations):
        _fail_if([f"cluster.clusters: {k} exceeds the {len(analysis.locations)} locations"])
    feats, names = regime_feature_matrix(analysis)
    clustering = weights.hierarchical_cluster(feats, k, names)
    out = run.path("clustering")
    clustering.write_csv(out)
    run.register_output(out)
    return 0


def cmd_verify(run: Runner, args) -> int:
    cfg = run.cfg
    v = cfg["verify"]
    problems = []
    power_path = run.input_path(v["power"] or "power", problems)
    truth_path = run.input_path(v["truth"] or "truth_power", problems)
    grouping = v["grouping"]
    if grouping not in ("lead", "lead-time", "location", "region", "season", "daypart"):
        problems.append(f"verify.grouping: unknown grouping {grouping!r}")
    region_map = None
    if grouping == "region":
        if not cfg["paths"]["region_map"]:
            problems.append("paths.region_map: required for region grouping")
        elif (rm := run.input_path("region_map", problems)).is_file():
            region_map = verify.read_region_map(rm)
    _fail_if(problems)

    power = tensorio.read_tensor(power_path)
    truth = tensorio.read_tensor(truth_path)
    module = v["module"] or power.variable_names[0]
    try:
        p_idx = power.variable_index(module)
    except KeyError:
        _fail_if([f"verify.module: {module!r} not in power file variables {power.variable_names}"])
    t_idx = truth.variable_index(module) if module in truth.variable_names else 0
    ens = power.values[p_idx]
    tru = truth.values[t_idx, ..., 0]

    cache = precompute_solar(power.locations, power.init_times, power.lead_times)
    alignment = verify.align_solar_noon(cache) if v["align_noon"] else None
    report = verify.aggregate(
        ens, tru, grouping,
        init_times=power.init_times,
        alignment=alignment,
        daylight=cache.daylight_mask(),
        region_map=region_map,
    )
    out = run.path("report")
    report.to_csv(out)
    run.register_output(out)
    return 0


def cmd_workflow_run(run: Runner, args) -> int:
    problems = []
    wf_path = Path(args.file)
    if not wf_path.exists():
        problems.append(f"workflow file not found: {wf_path}")
    _fail_if(problems)
    run.inputs[str(wf_path)] = _hash_file(wf_path)
    wf = workflow.load_workflow_file(wf_path)
    handle = workflow.submit(wf)
    final = handle.wait()
    events_path = run.path("events")
    workflow.write_event_log(handle.events(), events_path)
    run.register_output(events_path)
    print(f"workflow finished: {final.value}")
    return 0 if final is workflow.RunState.DONE else 1


def cmd_report(run: Runner, args) -> int:
    problems = []
    if not args.inputs:
        problems.append("report: need at least one verify CSV")
    labels = args.labels.split(",") if args.labels else None
    if labels and len(labels) != len(args.inputs):
        problems.append("report: --labels count must match inputs")
    for p in args.inputs:
        if not Path(p).exists():
            problems.append(f"report: file not found: {p}")
    _fail_if(problems)
    if labels is None:
        labels = [Path(p).stem for p in args.inputs]

    import csv as _csv

    metric = args.metric
    series = {}
    groups: list = []
    for label, path in zip(labels, args.inputs):
        run.inputs[str(Path(path))] = _hash_file(Path(path))
        with open(path, newline="") as fh:
            rows = list(_csv.DictReader(fh))
        series[label] = {r["group"]: r[metric] for r in rows}
        for r in rows:
            if r["group"] not in groups:
                groups.append(r["group"])

    out = run.out_dir / (args.output or "report_wide.csv")
    with open(out, "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(["group"] + [f"{metric}_{label}" for label in labels])
        for g in groups:
            w.writerow([g] + [series[label].get(g, "") for label in labels])
    run.register_output(out)
    return 0


# -- entry point -----------------------------------------------------------------

# help of the flags that the workflow builders pass and the commands ignore
LABEL_ONLY = "a label for workflow tasks; does not change what the command computes"


# A flag whose dest is "=KEY" sets the dotted config key KEY (its help shows
# "=KEY"); main() applies these after load_config. Other dests are plain args.
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anensolar",
        description="Analog-ensemble solar power forecasting toolkit.",
    )
    parser.add_argument("-c", "--config", help="YAML config file")
    parser.add_argument("-o", "--output-dir", dest="=output_dir", help="output directory (overrides config)")
    parser.add_argument("--seed", dest="=seed", type=int, help="random seed (overrides config)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override any config key (dotted path)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("synth", help="generate a synthetic forecast/analysis archive").set_defaults(handler=cmd_synth)
    sub.add_parser("sigma", help="compute the per-predictor spread table").set_defaults(handler=cmd_sigma)

    p_anen = sub.add_parser("anen", help="search analogs and build the weather ensemble")
    p_anen.add_argument("--weights", dest="=anen.weights", help="comma list or 'equal' (overrides config)")
    p_anen.add_argument("--weights-file", dest="=paths.weights_file", help="per-location weights CSV")
    p_anen.add_argument("--members", dest="=anen.members", type=int)
    p_anen.add_argument("--search-days", dest="=anen.search_days", type=int)
    p_anen.add_argument("--strategy", help=LABEL_ONLY)
    p_anen.set_defaults(handler=cmd_anen)

    p_sim = sub.add_parser("simulate", help="run the power simulation chain")
    p_sim.add_argument("--source", dest="=simulate.source", choices=["ensemble", "forecast", "analysis"])
    p_sim.add_argument("--modules", dest="=modules", type=lambda s: [m for m in s.split(",") if m],
                       help="comma list of catalog codes")
    p_sim.add_argument("--output", dest="=simulate.output", help="output path key or filename")
    p_sim.add_argument("--partition", help=LABEL_ONLY)
    p_sim.add_argument("--weights", help=LABEL_ONLY)
    p_sim.add_argument("--strategy", help=LABEL_ONLY)
    p_sim.set_defaults(handler=cmd_simulate)

    p_opt = sub.add_parser("optimize-weights", help="grid-search predictor weights")
    p_opt.add_argument("--strategy", dest="=optimize.strategy", type=str.upper, choices=["EW", "NN", "RB"])
    p_opt.add_argument("--step", dest="=optimize.step", type=float)
    p_opt.add_argument("--samples", dest="=optimize.total_samples", type=int, help="total RB sample points")
    p_opt.add_argument("--clusters", dest="=optimize.clusters", type=int)
    p_opt.set_defaults(handler=cmd_optimize_weights)

    p_clu = sub.add_parser("cluster", help="hierarchical regime clustering of locations")
    p_clu.add_argument("--clusters", dest="=cluster.clusters", type=int)
    p_clu.set_defaults(handler=cmd_cluster)

    p_ver = sub.add_parser("verify", help="compute grouped skill metrics")
    p_ver.add_argument("--grouping", dest="=verify.grouping")
    p_ver.add_argument("--power", dest="=verify.power", help="path key or file of the power ensemble")
    p_ver.add_argument("--truth", dest="=verify.truth", help="path key or file of the truth power")
    p_ver.add_argument("--module", dest="=verify.module", help="module code to verify")
    p_ver.add_argument("--weights", help=LABEL_ONLY)
    p_ver.add_argument("--strategy", help=LABEL_ONLY)
    p_ver.set_defaults(handler=cmd_verify)

    p_wf = sub.add_parser("workflow", help="execution engine")
    wf_sub = p_wf.add_subparsers(dest="workflow_command", required=True)
    p_run = wf_sub.add_parser("run", help="execute a declarative workflow file")
    p_run.add_argument("file")
    p_run.set_defaults(handler=cmd_workflow_run)

    p_rep = sub.add_parser("report", help="pivot verify CSVs into per-lead series")
    p_rep.add_argument("inputs", nargs="*")
    p_rep.add_argument("--labels", help="comma list matching the inputs")
    p_rep.add_argument("--metric", default="rmse")
    p_rep.add_argument("--output")
    p_rep.set_defaults(handler=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.set)
        for dest, value in vars(args).items():
            if dest.startswith("=") and value is not None:
                _override(cfg, dest[1:], value, "a command-line flag")
        command = args.command if args.command != "workflow" else "workflow-run"
        run = Runner(cfg, command)
        rc = args.handler(run, args)
        run.write_manifest()
        return rc
    except ConfigValidationError as exc:
        print(json.dumps({"error": "config-validation", "problems": exc.problems}), file=sys.stderr)
        return 2
    except AnensolarError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1
    except Exception as exc:  # keep the contract: machine-readable line, nonzero exit
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
