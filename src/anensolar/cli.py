"""Command-line interface.

Subcommands wire the library modules into file-based pipelines: ``synth``,
``sigma``, ``anen``, ``simulate``, ``optimize-weights``, ``cluster``,
``verify``, ``workflow run``, and ``report``. A single YAML config file
drives every command. Later sources override earlier ones: defaults < config
file < ``ANENSOLAR_*`` environment variables (double underscore nests, e.g.
``ANENSOLAR_ANEN__MEMBERS=25``) < ``--set KEY=VALUE`` < flags; a key that the
defaults do not hold is a config error.

Every value must have its default's type (an int key rejects ``true``, a float
key takes an int, a bool key takes only ``true`` or ``false``) and meet its
key's bound or choice in ``RULES``. ``FILES`` is the one table of each
command's input and output ``paths`` keys, and ``Runner.claim`` checks them
before any read: an input must be a regular file, and no output may be a
directory or the file of an input, another output or a key that some command
writes. A run's one list of problems holds the values, then the files, then
the checks that need data, and exits 2 with all of them in one JSON line on
stderr before any write. Every input file resolves relative to the output
directory, where each run writes its artifacts and a manifest of input/output
hashes and the effective config hash. A tensor input that is not a container
of its kind (another kind, a text file, a file cut short), or that holds no
location, is a problem of its ``paths`` key, whatever the file's name:
``Runner.open`` opens every tensor input once under that rule. Any other
failure prints a JSON error line and exits 1.

Each command imports the library modules it runs inside its own function, so
a process that runs ``sigma`` never loads the PV chain, the weight search or
the workflow engine.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import datetime as _dt
import fcntl
import hashlib
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
import yaml

from ._atomic import atomic_write, atomic_write_csv, file_sha256
from .errors import ConfigValidationError

if TYPE_CHECKING:
    from .anen import AnEnConfig
    from .pvchain import SystemConfig

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
    "simulate": {"source": "ensemble"},
    "verify": {"grouping": "lead", "align_noon": True, "module": ""},
    "optimize": {
        "strategy": "RB",
        "step": 0.25,
        "exclude_unit_vectors": False,
        "total_samples": 3,
        "clusters": 2,
        "opt_days": 10,
        "module": "STU300",
    },
}


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_start(value) -> int | None:
    """Epoch seconds of a number or an ISO date (UTC); None for anything else."""
    try:
        if isinstance(value, (int, float)):
            return int(value)
        return int(_dt.datetime.fromisoformat(str(value)).replace(tzinfo=_dt.timezone.utc).timestamp())
    except (ValueError, OverflowError):
        return None


# The keys whose valid values their default's type does not say alone, as
# (own type test, bound test, text): an own type test replaces the default's
# type and its text names the whole type; a bound or choice applies on top of
# the default's type, and its text follows the type's name in a problem.
# Checks that need data stay in the commands, and so do the bounds that
# SystemConfig and enumerate_weights check.
RULES = {
    **dict.fromkeys(("seed", "synth.cloud_noise", "synth.ghi_noise", "anen.half_window"),
                    (None, lambda v: v >= 0, ">= 0")),
    **dict.fromkeys(("synth.n_locations", "synth.n_days", "synth.n_leads", "anen.members",
                     "anen.search_days", "optimize.total_samples", "optimize.clusters",
                     "optimize.opt_days"), (None, lambda v: v >= 1, ">= 1")),
    **dict.fromkeys(("synth.lat_range", "synth.lon_range"),
                    (lambda v: isinstance(v, list) and len(v) == 2 and all(map(_number, v)), None, "two numbers")),
    "synth.start": (lambda v: not isinstance(v, bool) and _parse_start(v) is not None, None,
                    "an ISO date or a number of seconds"),
    "synth.ar_coeff": (None, lambda v: 0 <= v < 1, "in [0, 1)"),
    "anen.weights": (lambda v: isinstance(v, str) or isinstance(v, list) and all(map(_number, v)),
                     None, "'equal', a comma list or a list of numbers"),
    "anen.sigma_epsilon": (None, lambda v: v > 0, "> 0"),
    "modules": (lambda v: isinstance(v, list) and all(isinstance(c, str) for c in v),
                None, "a list of module codes"),
    "simulate.source": (None, lambda v: v in ("ensemble", "forecast", "analysis"),
                        "in ensemble|forecast|analysis"),
    "optimize.strategy": (None, lambda v: v.upper() in ("EW", "NN", "RB"), "in EW|NN|RB, any case"),
}

_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string", list: "a list"}


def check_config(cfg: dict, defaults: dict = DEFAULT_CONFIG, prefix: str = "") -> list:
    """One problem for each value of ``cfg`` that does not have its default's
    type or breaks its key's rule in ``RULES``, in DEFAULT_CONFIG's key order.
    A float key also takes an int; no key takes a bool but a bool key."""
    problems = []
    for name, default in defaults.items():
        key, value = prefix + name, cfg[name]
        if isinstance(default, dict):
            problems += check_config(value, default, key + ".")
            continue
        own_type, bound, text = RULES.get(key, (None, None, ""))
        if own_type is not None:
            typed, wanted = own_type(value), text
        else:
            typed = _number(value) if isinstance(default, float) else type(value) is type(default)
            wanted = f"{_TYPE_NAMES[type(default)]} {text}".rstrip()
        if not typed or bound is not None and not bound(value):
            problems.append(f"{key}: need {wanted}, got {value!r}")
    return problems


# -- config plumbing -----------------------------------------------------------

def _override(cfg: dict, key: str, value, source: str) -> list:
    """Set the dotted config ``key`` to ``value``; a mapping value sets each of
    its leaves. Returns a problem for each key that DEFAULT_CONFIG does not hold."""
    if isinstance(value, dict):
        return [problem for sub, leaf_value in value.items()
                for problem in _override(cfg, f"{key}.{sub}" if key else str(sub), leaf_value, source)]
    *parents, leaf = key.split(".")
    node = cfg
    for part in parents:
        node = node.get(part) if isinstance(node, dict) else None
    if not isinstance(node, dict) or leaf not in node:
        return [f"{key}: unknown config key (from {source})"]
    if isinstance(node[leaf], dict):
        return [f"{key}: a config section takes a mapping (from {source})"]
    node[leaf] = value
    return []


def load_config(config_path, sets=(), environ=None, flags=None) -> dict:
    """Defaults < config file < ``ANENSOLAR_*`` variables < ``--set`` items <
    ``flags`` (dotted key -> value). Every unknown key is reported in one
    error; the values are checked by ``check_config`` when a run starts."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    problems = []
    if config_path:
        try:
            with open(config_path) as fh:
                doc = yaml.safe_load(fh) or {}
        except (OSError, ValueError, yaml.YAMLError) as exc:  # ValueError: not UTF-8 text
            doc, problems = {}, [f"config file {config_path}: {exc}"]
        if not isinstance(doc, dict):
            problems.append("config file must hold a mapping")
        else:
            problems += _override(cfg, "", doc, f"config file {config_path}")
    for name, raw in sorted((os.environ if environ is None else environ).items()):
        if name.startswith(ENV_PREFIX):
            problems += _override(cfg, name[len(ENV_PREFIX):].lower().replace("__", "."),
                                  yaml.safe_load(raw), name)
    for item in sets:
        key, eq, raw = item.partition("=")
        if not eq:
            problems.append(f"--set needs KEY=VALUE, got {item!r}")
        else:
            problems += _override(cfg, key.strip(), yaml.safe_load(raw), f"--set {item}")
    for key, value in (flags or {}).items():
        problems += _override(cfg, key, value, "a command-line flag")
    if problems:
        raise ConfigValidationError(problems)
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()


# Each command's (input keys, output keys) in ``paths``; "<command> <value>"
# is its row where simulate.source, optimize.strategy or verify.grouping
# chooses its files. A key ending in "?" counts only when it is set.
FILES = {
    "synth": ((), ("observations", "forecasts")),
    "sigma": (("forecasts",), ("sigma",)),
    "anen": (("forecasts", "observations", "weights_file?"), ("analogs", "ensemble")),
    "simulate ensemble": (("ensemble", "module_file?"), ("power",)),
    "simulate forecast": (("forecasts", "module_file?"), ("power",)),
    "simulate analysis": (("forecasts", "observations", "module_file?"), ("truth_power",)),
    "optimize-weights": (("forecasts", "observations"), ("weights",)),
    "optimize-weights RB": (("forecasts", "observations"), ("weights", "clustering")),
    "cluster": (("observations",), ("clustering",)),
    "verify": (("power", "truth_power"), ("report",)),
    "verify region": (("power", "truth_power", "region_map"), ("report",)),
    "workflow-run": ((), ("events",)),
}
WRITTEN = sorted({key for _, outputs in FILES.values() for key in outputs})


def _file_id(path: Path):
    """The device and inode of an existing file, so links count; else its resolved path."""
    with contextlib.suppress(OSError):
        st = os.stat(path)
        return st.st_dev, st.st_ino
    return os.path.realpath(path)


class Runner:
    """Shared context for one subcommand run: paths, manifest, config, and the
    one list of problems that ``check`` reports."""

    def __init__(self, cfg: dict, command: str):
        self.cfg = cfg
        self.command = command
        self.problems = check_config(cfg)
        if not isinstance(cfg["output_dir"], str):
            self.check()  # no directory to look for the inputs in
        self.out_dir = Path(cfg["output_dir"])
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file of that name, say
            raise ConfigValidationError([*self.problems, f"output_dir: {exc}"]) from None
        self.inputs: dict = {}
        self.outputs: dict = {}

    def check(self):
        """Raise every problem found so far in one error."""
        if self.problems:
            raise ConfigValidationError(self.problems)

    def path(self, key: str) -> Path:
        """The file of ``paths.<key>``, relative to the output directory; a
        path that is not a string, a problem already, stands as its text."""
        p = Path(str(self.cfg["paths"][key]))
        return p if p.is_absolute() else self.out_dir / p

    def claim(self, inputs=(), outputs=()):
        """Check the files of this command's ``FILES`` row and the (label,
        path) pairs ``inputs`` and ``outputs``, record the inputs for the
        manifest and raise every problem so far: an input that is not a
        regular file, an output that is a directory, and an output that is the
        file of an input, another output or a ``WRITTEN`` key, a problem of the
        label it would overwrite."""
        choice = {"simulate": self.cfg["simulate"]["source"], "verify": self.cfg["verify"]["grouping"],
                  "optimize-weights": str(self.cfg["optimize"]["strategy"]).upper()}.get(self.command)
        row = FILES.get(f"{self.command} {choice}") or FILES.get(self.command, ((), ()))

        def keyed(keys):
            return [(f"paths.{k}", self.path(k)) for k in keys]
        inputs, outputs = (keyed(k.rstrip("?") for k in keys if not k.endswith("?") or self.cfg["paths"][k[:-1]])
                           + list(pairs) for keys, pairs in zip(row, (inputs, outputs)))
        self.inputs.update(dict.fromkeys(str(path) for _, path in inputs))
        self.problems += [f"{label}: file not found: {path}" for label, path in inputs if not path.is_file()]
        self.problems += [f"{label}: is a directory: {path}" for label, path in outputs if path.is_dir()]
        others = dict.fromkeys([*inputs, *outputs, *keyed(WRITTEN)])
        ids = {path: _file_id(path) for _, path in others}
        for i, (out_label, out_path) in enumerate(outputs):
            for label, path in others:  # outputs[:i] have each met this output already
                if (label, path) not in outputs[:i + 1] and ids[path] == ids[out_path]:
                    self.problems.append(f"{label}: is the file of output {out_label}: {path}")
        self.check()

    @contextlib.contextmanager
    def refusing(self, key: str):
        """Make a ``TensorFormatError`` raised in the ``with`` block a problem
        of ``paths.<key>``, raised at once, as no later step could read that file."""
        from .errors import TensorFormatError

        try:
            yield
        except TensorFormatError as exc:
            self.problems.append(f"paths.{key}: {exc}")
            self.check()

    @contextlib.contextmanager
    def open(self, key: str, kind: str):
        """An ``Input`` over the file of ``paths.<key>``, whose rows come from
        that one open file and whose digest the manifest records. A
        ``TensorFormatError`` raised while the file is opened or read (no
        container, a block of the wrong size, +-inf values, ...) is a problem
        of ``paths.<key>``, and so is a container of a kind other than
        ``kind`` or of no location: either is raised at once. Any other error
        raised in the ``with`` block passes through as it is, so where several
        inputs are open at once, each read's error names its own key."""
        from . import tensorio
        from .errors import TensorFormatError

        with contextlib.ExitStack() as stack:
            with self.refusing(key):
                container = stack.enter_context(tensorio.open_container(self.path(key), self.inputs))
                if container.header.kind != kind:
                    raise TensorFormatError(f"holds tensor kind {container.header.kind}, need {kind}")
                if not len(container.header.locations):
                    raise TensorFormatError("holds no location")
            yield Input(self, key, container)

    def pair(self, key: str, given, ref_key: str, reference, axes=None):
        """A ``key`` problem when ``coredata.axis_mismatch`` finds an axis on
        which ``given`` differs from ``reference``, which ``ref_key`` chose."""
        from .coredata import axis_mismatch

        if mismatch := axis_mismatch(given, reference, axes):
            self.problems.append(f"{key}: does not pair with {ref_key}: {mismatch}")

    def write(self, key: str, write):
        """Write the output ``path(key)`` with ``write(path)``, and record it
        with the digest that ``write`` returns."""
        path = self.path(key)
        self.outputs[str(path)] = write(path)

    def write_tensor(self, key: str, tensor):
        from . import tensorio

        self.write(key, lambda path: tensorio.write_tensor(tensor, path))

    @contextlib.contextmanager
    def rows(self, key: str, locations):
        """A ``tensorio.RowWriter`` of the output ``path(key)``, a container
        over ``locations``, whose location slabs the ``with`` block puts;
        recorded with its digest once the block has put every location and
        the file is in place."""
        from . import tensorio

        path = self.path(key)
        with tensorio.open_rows(path, locations) as out:
            yield out
        self.outputs[str(path)] = out.sha256

    def write_manifest(self):
        """Add this command's entry to ``manifest.json`` under a lock on the
        directory itself, so concurrent commands keep each other's entries."""
        entry = {
            "config_hash": config_hash(self.cfg),
            # an input no read hashed (a CSV, say) is hashed here, in chunks
            "inputs": {p: digest or file_sha256(p)
                       for p, digest in sorted(self.inputs.items())},
            "outputs": dict(sorted(self.outputs.items())),
        }
        manifest_path = self.out_dir / "manifest.json"
        fd = os.open(self.out_dir, os.O_RDONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            data = json.loads(manifest_path.read_text()) if manifest_path.exists() else {}
            data[self.command] = entry
            atomic_write(manifest_path, [(json.dumps(data, indent=2, sort_keys=True) + "\n").encode()])
        finally:
            os.close(fd)  # releases the lock


class Input:
    """An input container open in a ``Runner``: its ``header``, and reads
    whose ``TensorFormatError`` is a problem of its ``paths`` key alone (see
    ``Runner.open``); ``tensorio.Container`` gives each read."""

    def __init__(self, run: Runner, key: str, container):
        self.header = container.header
        self._run, self._key, self._container = run, key, container

    def blocks(self):
        with self._run.refusing(self._key):
            yield from self._container.blocks()

    def take(self, locations, names=None):
        with self._run.refusing(self._key):
            return self._container.take(locations, names)


def _anen_split(run: Runner, n_inits: int, min_search: int = 1) -> tuple:
    """(test, search) init ranges: the search period is the first search_days,
    at least ``min_search`` of them, and the test period holds the rest. A
    problem leaves both empty; it names the forecasts when no search_days
    could split their inits."""
    days = run.cfg["anen"]["search_days"]
    if n_inits <= min_search:
        run.problems.append(f"paths.forecasts: need at least {min_search + 1} init times to split into "
                            f"search and test periods, got {n_inits}")
    elif not min_search <= days < n_inits:
        run.problems.append(f"anen.search_days: need an integer in {min_search}..{n_inits - 1}, got {days!r}")
    else:
        return range(days, n_inits), range(0, days)
    return range(0), range(0)


def _check_pool(run: Runner, key: str, value: int, pool: int):
    """A problem of ``key``, whose ``value`` left the first test init a pool of
    ``pool`` candidates (one per earlier search init, in fixed and operational
    mode alike), when that pool is smaller than ``anen.members``: unless
    ``anen.allow_partial`` is set, no search could fill it."""
    a = run.cfg["anen"]
    if pool < a["members"] and not a["allow_partial"]:
        run.problems.append(f"{key}: {value} leaves the first test init {pool} candidates, fewer than "
                            f"anen.members {a['members']}; set anen.allow_partial to keep short lists")


def _anen_config(run: Runner, n_predictors: int) -> AnEnConfig | None:
    from .anen import AnEnConfig, equal_weights, validate_weights

    a = run.cfg["anen"]
    weights = equal_weights(n_predictors) if a["weights"] in ("equal", "") else a["weights"]
    try:
        if isinstance(weights, str):
            weights = [float(w) for w in weights.split(",")]
        weights = validate_weights(weights, n_predictors)
    except ValueError as exc:
        run.problems.append(f"anen.weights: {exc}")
        return None
    return AnEnConfig(weights, **{key: a[key] for key in
                                  ("members", "half_window", "operational", "allow_partial", "sigma_epsilon")})


def _load_specs(run: Runner):
    from .pvchain import load_module_catalog, load_module_specs

    if run.cfg["paths"]["module_file"]:
        module_file = run.path("module_file")
        try:
            specs = load_module_specs(module_file)
        except ValueError as exc:  # a bad value, or a file that is not UTF-8 text
            run.problems.append(f"paths.module_file: {exc}")
            return []
        if not specs:
            run.problems.append(f"paths.module_file: no module rows in {module_file}")
        return specs
    if not run.cfg["modules"]:
        run.problems.append("modules: need at least one module code")
    catalog = {spec.code: spec for spec in load_module_catalog()}
    specs = []
    for code in run.cfg["modules"]:
        if code not in catalog:
            run.problems.append(f"modules: unknown module code {code!r}")
        else:
            specs.append(catalog[code])
    return specs


def _system(run: Runner) -> SystemConfig | None:
    from .pvchain import SystemConfig

    s = run.cfg["system"]
    try:
        return SystemConfig(s["capacity"], s["tilt"], s["azimuth"])
    except ValueError as exc:
        run.problems.append(f"system: {exc}")
        return None


# -- subcommands ----------------------------------------------------------------

def cmd_synth(run: Runner, args) -> int:
    from . import synth
    from .coredata import LocationSet

    run.claim()
    cfg = run.cfg
    s = cfg["synth"]
    rng = np.random.default_rng(cfg["seed"])
    lat = rng.uniform(*s["lat_range"], size=s["n_locations"])
    lon = rng.uniform(*s["lon_range"], size=s["n_locations"])
    elev = rng.uniform(0.0, 2000.0, size=s["n_locations"])
    locations = LocationSet.from_coords(lat, lon, elev)

    errors = synth.default_error_models()
    errors["ghi"] = synth.PredictorErrorModel(s["ghi_bias"], s["ghi_noise"], "cloud_cover")
    gen_cfg = synth.SynthConfig(
        seed=cfg["seed"], locations=locations, start=_parse_start(s["start"]),
        n_days=s["n_days"], n_leads=s["n_leads"], ar_coeff=s["ar_coeff"],
        cloud_noise=s["cloud_noise"], sky_base=s["sky_base"], errors=errors,
    )
    analysis, forecasts = synth.generate(gen_cfg)
    run.write_tensor("observations", analysis)
    run.write_tensor("forecasts", forecasts)
    return 0


def cmd_sigma(run: Runner, args) -> int:
    from .anen import compute_sigma

    run.claim()
    with run.open("forecasts", "forecast") as fc:
        locations = fc.header.locations
        _, search = _anen_split(run, len(fc.header.sections["init_times"]))
        run.check()
        with run.rows("sigma", locations) as out:
            for loc in range(len(locations)):
                out.put(loc, compute_sigma(fc.take([loc]), search))
    return 0


def cmd_anen(run: Runner, args) -> int:
    from .anen import build_multivariate_ensemble, compute_sigma, search_analogs, validate_weights
    from .coredata import align_observations

    cfg = run.cfg
    run.claim()
    # one location at a time: its forecasts and observations are taken, its
    # analogs searched and gathered, and its rows put in both outputs
    with run.open("forecasts", "forecast") as fc, run.open("observations", "observation") as obs:
        run.pair("paths.observations", obs.header, "paths.forecasts", fc.header, ("locations",))
        locations = fc.header.locations
        test, search = _anen_split(run, len(fc.header.sections["init_times"]))
        if search:
            _check_pool(run, "anen.search_days", cfg["anen"]["search_days"], len(search))
        per_loc = None
        if cfg["paths"]["weights_file"]:
            from . import weights

            try:
                per_loc = validate_weights(weights.read_weights_csv(run.path("weights_file"), fc.header.names),
                                           len(fc.header.names), len(locations))
            except ValueError as exc:
                run.problems.append(f"paths.weights_file: {exc}")
        config = _anen_config(run, len(fc.header.names))
        run.check()

        with run.rows("analogs", locations) as analogs, run.rows("ensemble", locations) as ensemble:
            for loc in range(len(locations)):
                forecasts = fc.take([loc])
                if per_loc is not None:
                    config = dataclasses.replace(config, weights=per_loc[loc:loc + 1])
                indices = search_analogs(forecasts, config, test, search, compute_sigma(forecasts, search),
                                         first_location=loc)
                analogs.put(loc, indices)
                aligned = align_observations(obs.take([loc]), forecasts.init_times, forecasts.lead_times)
                ensemble.put(loc, build_multivariate_ensemble(indices, aligned))
    return 0


def cmd_simulate(run: Runner, args) -> int:
    source = run.cfg["simulate"]["source"]
    run.claim()
    specs = _load_specs(run)
    system = _system(run)
    if source == "ensemble":
        # the header now, each location's slab while the chain runs
        with run.open("ensemble", "ensemble") as ensemble:
            header = ensemble.header
            _check_weather(run, "paths.ensemble", header.names)
            _write_power(run, "power", header.locations,
                         (ensemble.take([loc]) for loc in range(len(header.locations))), specs, system)
        return 0

    from . import driver

    with run.open("forecasts", "forecast") as fc:
        axes = fc.header.axes
        test, _ = _anen_split(run, len(axes.init_times))
        locations = range(len(axes.locations))
        # the truth reads the forecasts' axes alone
        with run.open("observations", "observation") if source == "analysis" else contextlib.nullcontext() as obs:
            if obs is None:
                _check_weather(run, "paths.forecasts", fc.header.names)
                slabs = (driver.forecast_weather_ensemble(fc.take([loc]), test) for loc in locations)
            else:
                run.pair("paths.observations", obs.header, "paths.forecasts", fc.header, ("locations",))
                _check_weather(run, "paths.observations", obs.header.names)
                slabs = (driver.analysis_weather_ensemble(obs.take([loc]), axes.init_times, axes.lead_times, test)
                         for loc in locations)
            _write_power(run, "power" if obs is None else "truth_power", axes.locations, slabs, specs, system)
    return 0


def _write_power(run: Runner, key: str, locations, slabs, specs, system):
    """Simulate each one-location weather slab of ``slabs``, in the order of
    ``locations``, and put its power, one variable per module of ``specs``,
    in the output ``paths.<key>``. Every slab has the same init and lead
    times, so the ephemeris' time-only terms are computed once, and each
    location's solar cache adds only its place."""
    from . import driver
    from .solar import precompute_solar, sun_terms

    sun = None
    with run.rows(key, locations) as out:
        for loc, slab in enumerate(slabs):
            if sun is None:
                sun = sun_terms(slab.init_times, slab.lead_times)
            cache = precompute_solar(slab.locations, slab.init_times, slab.lead_times, sun)
            out.put(loc, driver.power_from_weather(slab, specs, system, cache))


def _check_weather(run: Runner, key: str, names):
    """Raise every problem found so far, with one of ``key`` when its
    ``names`` lack a variable that the PV chain needs."""
    from .pvchain import REQUIRED_VARIABLES

    if missing := [name for name in REQUIRED_VARIABLES if name not in names]:
        run.problems.append(f"{key}: lacks the variables {missing} that the PV chain needs")
    run.check()


def cmd_optimize_weights(run: Runner, args) -> int:
    from . import driver, weights
    from .anen import equal_weights
    from .pvchain import load_module_catalog

    cfg = run.cfg
    o = cfg["optimize"]
    run.claim()
    strategy = o["strategy"].upper()
    system = _system(run)
    specs = {s.code: s for s in load_module_catalog()}
    if o["module"] not in specs:
        run.problems.append(f"optimize.module: unknown module code {o['module']!r}")

    # the forecasts' rows are read last, at the sample locations alone; the
    # observations stay open until the objective's rows are taken from them
    with run.open("forecasts", "forecast") as fc:
        header = fc.header
        with run.open("observations", "observation") as observations:
            locations = observations.header.locations
            run.pair("paths.observations", observations.header, "paths.forecasts", header, ("locations",))
            n_pred = len(header.names)
            try:
                grid = weights.enumerate_weights(n_pred, o["step"], o["exclude_unit_vectors"])
            except ValueError as exc:
                run.problems.append(f"optimize.step: {exc}")
            else:
                if len(grid) == 0 and strategy != "EW":  # EW reads no grid
                    run.problems.append(f"optimize.exclude_unit_vectors: leaves no weight vector at "
                                        f"optimize.step {o['step']!r}")
            # the search period splits again, into the objective's search and test days
            _, search = _anen_split(run, len(header.sections["init_times"]), min_search=2)
            opt_days = o["opt_days"]
            if search:  # else the split is a problem already
                if opt_days >= len(search):
                    run.problems.append(f"optimize.opt_days: need an integer in 1..{len(search) - 1}, got {opt_days!r}")
                elif strategy != "EW":  # EW searches nothing
                    _check_pool(run, "optimize.opt_days", opt_days, len(search) - opt_days)
            base = _anen_config(run, n_pred)
            if strategy == "RB":
                _check_regimes(run, observations.header, o["clusters"])
            run.check()
            opt_search = range(0, search.stop - opt_days)
            opt_test = range(search.stop - opt_days, search.stop)

            if strategy == "EW":
                samples = []
            elif strategy == "NN":
                assignment = weights.nn_sample_grid(locations)
                labels, samples = assignment.sample_of, assignment.representatives
            else:
                clustering = _regime_clustering(run, observations, o["clusters"])
                labels = clustering.labels
                samples = weights.rb_sample_points(clustering, o["total_samples"], seed=cfg["seed"])
                run.write("clustering", clustering.write_csv)
            analysis = observations.take(samples)
        # EW scores nothing, but its manifest records the forecasts' digest too
        forecasts = fc.take(samples)
    if strategy == "EW":
        out_weights = np.tile(equal_weights(n_pred), (len(locations), 1))
    else:
        objective = driver.WeightObjective(
            forecasts, analysis, base, opt_test, opt_search,
            specs[o["module"]], system, locations=samples,
        )
        out_weights = weights.optimize_weights(grid, objective.scores, labels, samples)

    run.write("weights", lambda path: weights.write_weights_csv(path, out_weights, header.names))
    return 0


def _check_regimes(run: Runner, header, k: int):
    """The problems that would keep the observations of ``header`` from
    being clustered into ``k`` regimes."""
    from .weights import REGIME_VARIABLES

    if k > len(header.locations):
        run.problems.append(f"optimize.clusters: {k} exceeds the {len(header.locations)} locations")
    if missing := [name for name in REGIME_VARIABLES if name not in header.names]:
        run.problems.append(f"paths.observations: lacks the variables {missing} that the regimes need")


def _regime_clustering(run: Runner, observations, k: int):
    """The k regimes of the open ``observations``' locations, clustered on
    their regime features, which one front-to-back pass over the file
    computes block by block. A location with no finite value of a feature's
    variable is a problem of ``paths.observations``, raised at once."""
    from . import weights

    header = observations.header
    feats, names = weights.regime_features(header.locations, header.axes.valid_times, observations.blocks())
    variables = ("elevation", *weights.REGIME_VARIABLES)
    for loc, feature in zip(*np.nonzero(~np.isfinite(feats))):
        run.problems.append(f"paths.observations: location {loc} has no finite {variables[feature]} value")
    run.check()
    return weights.hierarchical_cluster(feats, k, names)


def cmd_cluster(run: Runner, args) -> int:
    run.claim()
    with run.open("observations", "observation") as observations:
        k = run.cfg["optimize"]["clusters"]
        _check_regimes(run, observations.header, k)
        run.check()
        clustering = _regime_clustering(run, observations, k)
    run.write("clustering", clustering.write_csv)
    return 0


def cmd_verify(run: Runner, args) -> int:
    """Score one module of the power ensemble against the truth: every
    check reads the two headers alone; then, one location at a time, the
    module's row of each file is taken and its cells are put into the four
    (L, I, J) fields of ``verify.CellFields``, under that location's solar
    cache and noon alignment, which ``verify.group_cells`` reduces."""
    from . import verify
    from .solar import precompute_solar, sun_terms

    v = run.cfg["verify"]
    run.claim()
    with run.open("power", "ensemble") as power, run.open("truth_power", "ensemble") as truth:
        axes = power.header.axes
        run.pair("paths.truth_power", truth.header.axes, "paths.power", axes,
                 ("locations", "init_times", "lead_times"))
        if truth.header.sections["members"] != 1:
            run.problems.append(f"paths.truth_power: holds {truth.header.sections['members']} members, need 1")
        module = v["module"] or power.header.names[0]
        if v["grouping"] not in verify.GROUPINGS:
            run.problems.append(f"verify.grouping: unknown grouping {v['grouping']!r}")
        for what, names in (("power", power.header.names), ("truth", truth.header.names)):
            if module not in names:
                run.problems.append(f"verify.module: {module!r} not in {what} file variables {tuple(names)}")
        n_loc = len(axes.locations)
        region_map = None
        if v["grouping"] == "region":
            try:
                region_map = verify.read_region_map(run.path("region_map"))
            except ValueError as exc:
                run.problems.append(f"paths.region_map: {exc}")
            else:
                unmapped, unknown = set(range(n_loc)) - set(region_map), set(region_map) - set(range(n_loc))
                if unmapped:
                    run.problems.append(f"paths.region_map: no region for locations {sorted(unmapped)}")
                if unknown:
                    run.problems.append(f"paths.region_map: locations {sorted(unknown)} are outside 0..{n_loc - 1}")
        run.check()

        fields = verify.CellFields.empty((n_loc, len(axes.init_times), len(axes.lead_times)))
        offsets = np.empty(n_loc, dtype=np.int64)
        sun = sun_terms(axes.init_times, axes.lead_times)
        for loc in range(n_loc):
            cache = precompute_solar(axes.locations.take([loc]), axes.init_times, axes.lead_times, sun)
            offsets[loc] = verify.align_solar_noon(cache).offsets[0]
            fields.put(loc, power.take([loc], [module]).values[0], truth.take([loc], [module]).values[0, ..., 0],
                       cache.daylight_mask())
    report = verify.group_cells(
        fields, v["grouping"],
        init_times=axes.init_times,
        alignment=verify.SolarNoonAlignment(offsets) if v["align_noon"] else None,
        region_map=region_map,
    )
    run.write("report", report.to_csv)
    return 0


def cmd_workflow_run(run: Runner, args) -> int:
    from . import workflow

    run.claim([("workflow file", Path(args.file))])
    wf = workflow.load_workflow_file(Path(args.file))
    backend = workflow.LocalProcessBackend()
    handle = workflow.submit(wf, backend)
    final = handle.wait()
    # a timing record, not an output: its clock stamps differ on every run
    workflow.write_event_log(handle.events(), run.path("events"))
    for task in (t for p in wf.pipelines for s in p.stages for t in s.tasks):
        if task.state is workflow.TaskState.FAILED:
            tail = backend.stderr_tail.get(task.id, b"").decode("utf-8", "replace")
            print(json.dumps({"error": "task-failed", "task": task.id, "attempts": task.attempts,
                              "stderr_tail": tail}), file=sys.stderr)
    print(f"workflow finished: {final.value}")
    return 0 if final is workflow.RunState.DONE else 1


def cmd_report(run: Runner, args) -> int:
    import csv as _csv

    if not args.inputs:
        run.problems.append("report: need at least one verify CSV")
    labels = args.labels.split(",") if args.labels else [Path(p).stem for p in args.inputs]
    if len(labels) != len(args.inputs):
        run.problems.append("report: --labels count must match inputs")
    elif len(set(labels)) < len(labels):
        run.problems.append(f"report: labels must differ, got {labels} (set them with --labels)")
    out = run.out_dir / (args.output or "report_wide.csv")
    run.claim([("report", Path(p)) for p in args.inputs], [("--output", out)])

    metric = args.metric
    series, groups = {}, {}  # groups: a dict for its first-seen order
    for label, path in zip(labels, args.inputs):
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                reader = _csv.DictReader(fh)
                fields, rows = reader.fieldnames, list(reader)
        except (UnicodeDecodeError, _csv.Error) as exc:
            run.problems.append(f"report: {path} is not UTF-8 CSV text: {exc}")
            continue
        for column in sorted({"group", metric} - set(fields or ())):
            run.problems.append(f"report: no column {column!r} in {path}, whose columns are {fields}")
        series[label] = {r.get("group"): r.get(metric) for r in rows}
        groups.update(dict.fromkeys(r.get("group") for r in rows))
    run.check()
    run.outputs[str(out)] = atomic_write_csv(
        out, ["group"] + [f"{metric}_{label}" for label in labels],
        ([g] + [series[label].get(g, "") for label in labels] for g in groups))
    return 0


# -- entry point -----------------------------------------------------------------

def _parsed_or_text(cast):
    """A flag's argparse type: ``cast(text)`` when the text parses, else the
    text itself, so that check_config, not argparse, reports a bad value."""
    def convert(text: str):
        try:
            return cast(text)
        except ValueError:
            return text
    return convert


class _Parser(argparse.ArgumentParser):
    """An argument error, in the command or a subcommand (which argparse
    builds of this class too), is one problem of the exit-2 JSON line, not
    argparse's usage text; ``--help`` still prints help and exits 0."""

    def error(self, message):
        raise ConfigValidationError([f"{self.prog}: {message}"])


# A flag whose dest is "=KEY" sets the dotted config key KEY (its help shows
# "=KEY"); main() passes these to load_config last. Other dests are plain args.
def build_parser() -> argparse.ArgumentParser:
    integer, number = _parsed_or_text(int), _parsed_or_text(float)
    parser = _Parser(
        prog="anensolar",
        description="Analog-ensemble solar power forecasting toolkit.",
    )
    parser.add_argument("-c", "--config", help="YAML config file")
    parser.add_argument("-o", "--output-dir", dest="=output_dir", help="output directory (overrides config)")
    parser.add_argument("--seed", dest="=seed", type=integer, help="random seed (overrides config)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override any config key (dotted path)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("synth", help="generate a synthetic forecast/analysis archive").set_defaults(handler=cmd_synth)
    sub.add_parser("sigma", help="compute the per-predictor spread table, a diagnostic no command reads").set_defaults(handler=cmd_sigma)

    p_anen = sub.add_parser("anen", help="search analogs and build the weather ensemble")
    p_anen.add_argument("--weights", dest="=anen.weights", help="comma list or 'equal' (overrides config)")
    p_anen.add_argument("--weights-file", dest="=paths.weights_file", help="per-location weights CSV")
    p_anen.add_argument("--members", dest="=anen.members", type=integer)
    p_anen.add_argument("--search-days", dest="=anen.search_days", type=integer)
    p_anen.set_defaults(handler=cmd_anen)

    p_sim = sub.add_parser("simulate", help="run the power simulation chain")
    p_sim.add_argument("--source", dest="=simulate.source")
    p_sim.add_argument("--modules", dest="=modules", type=lambda s: [m for m in s.split(",") if m],
                       help="comma list of catalog codes")
    p_sim.set_defaults(handler=cmd_simulate)

    p_opt = sub.add_parser("optimize-weights", help="grid-search predictor weights")
    p_opt.add_argument("--strategy", dest="=optimize.strategy", type=str.upper)
    p_opt.add_argument("--step", dest="=optimize.step", type=number)
    p_opt.add_argument("--samples", dest="=optimize.total_samples", type=integer, help="total RB sample points")
    p_opt.add_argument("--clusters", dest="=optimize.clusters", type=integer)
    p_opt.set_defaults(handler=cmd_optimize_weights)

    p_clu = sub.add_parser("cluster", help="hierarchical regime clustering of locations")
    p_clu.add_argument("--clusters", dest="=optimize.clusters", type=integer)
    p_clu.set_defaults(handler=cmd_cluster)

    p_ver = sub.add_parser("verify", help="compute grouped skill metrics")
    p_ver.add_argument("--grouping", dest="=verify.grouping")
    p_ver.add_argument("--power", dest="=paths.power", help="power ensemble file")
    p_ver.add_argument("--truth", dest="=paths.truth_power", help="truth power file")
    p_ver.add_argument("--module", dest="=verify.module", help="module code to verify")
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
    try:
        args = build_parser().parse_args(argv)
        flags = {dest[1:]: value for dest, value in vars(args).items()
                 if dest.startswith("=") and value is not None}
        cfg = load_config(args.config, args.set, flags=flags)
        run = Runner(cfg, args.command if args.command != "workflow" else "workflow-run")
        rc = args.handler(run, args)
        run.write_manifest()
        return rc
    except ConfigValidationError as exc:
        print(json.dumps({"error": "config-validation", "problems": exc.problems}), file=sys.stderr)
        return 2
    except Exception as exc:  # keep the contract: machine-readable line, nonzero exit
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
