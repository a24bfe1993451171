"""Every config value is checked before a command reads or writes a file: a
value of the wrong type or out of its range exits 2 with a problem that names
its key, in the one error that also lists the missing inputs."""

import hashlib
import json
from pathlib import Path

import pytest
import yaml

from anensolar import cli
from anensolar.cli import main

SMALL = [
    "--set", "synth.n_locations=4",
    "--set", "synth.n_days=30",
    "--set", "anen.search_days=24",
    "--set", "anen.members=8",
]

QUICKSTART = Path(__file__).resolve().parents[1] / "demos" / "quickstart.yaml"


def leaves(tree, prefix=""):
    for name, value in tree.items():
        if isinstance(value, dict):
            yield from leaves(value, f"{prefix}{name}.")
        else:
            yield prefix + name, value


# wrong-type values by the type of the key's default; a float key takes an
# int, so only a bool and a string are wrong for it
WRONG_TYPE = {int: ["abc", "true"], float: ["abc", "true"], bool: ["maybe", '"false"'],
              str: ["5"], list: ["abc"]}
# the keys whose default's type does not say what they take
OWN_TYPE = {
    "anen.weights": ["true", "[a, b]"],
    "synth.start": ["nope", "true"],
    "modules": ["STU300", "[1]"],
    "synth.lat_range": ["[1.0]", "abc"],
    "synth.lon_range": ["[1.0, 2.0, 3.0]", "[a, b]"],
}
OUT_OF_RANGE = {
    "seed": "-1", "synth.n_locations": "0", "synth.n_days": "0", "synth.n_leads": "0",
    "synth.ar_coeff": "1.0", "synth.cloud_noise": "-0.1", "synth.ghi_noise": "-0.1",
    "anen.members": "0", "anen.half_window": "-1", "anen.sigma_epsilon": "0.0",
    "anen.search_days": "0", "simulate.source": "raw", "optimize.strategy": "XX",
    "optimize.total_samples": "0", "optimize.clusters": "0", "optimize.opt_days": "0",
}
# keys that earlier versions held, with the values they were swept with: a
# config that still sets one exits 2 naming it, as it does any unknown key,
# rather than running with the key ignored
RETIRED = {"simulate.output": ["5"], "verify.power": ["5"], "verify.truth": ["5"],
           "cluster.clusters": ["abc", "true", "0", "50"]}

EVERY_COMMAND = [["synth"], ["sigma"], ["anen"], ["simulate"], ["optimize-weights"], ["cluster"],
                 ["verify"], ["report", "{dir}/report.csv"], ["workflow", "run", "{wf}"]]


def _value_cases():
    cases = []
    for key, default in leaves(cli.DEFAULT_CONFIG):
        for raw in OWN_TYPE.get(key) or WRONG_TYPE[type(default)]:
            cases.append((["--set", f"{key}={raw}"], key, EVERY_COMMAND))
        if key in OUT_OF_RANGE:
            cases.append((["--set", f"{key}={OUT_OF_RANGE[key]}"], key, EVERY_COMMAND))
    for key, raws in RETIRED.items():
        cases += [(["--set", f"{key}={raw}"], key, EVERY_COMMAND) for raw in raws]
    return cases


# bounds that need the data (the chain has 30 inits, 24 of them searched, and
# 4 locations) or that a library constructor checks, run on the commands
# that read the key
DATA_CASES = [
    (["--set", "optimize.clusters=50"], "optimize.clusters", [["optimize-weights"], ["cluster"]]),
    (["--set", "anen.search_days=30"], "anen.search_days",
     [["sigma"], ["anen"], ["simulate", "--source", "forecast"], ["simulate", "--source", "analysis"],
      ["optimize-weights"]]),
    (["--set", "optimize.opt_days=24"], "optimize.opt_days", [["optimize-weights"]]),
    # a first test init's pool shorter than the 8 members
    (["--set", "anen.search_days=7"], "anen.search_days", [["anen"]]),
    (["--set", "optimize.opt_days=17"], "optimize.opt_days", [["optimize-weights"]]),
    (["--set", "optimize.step=0.3"], "optimize.step", [["optimize-weights"]]),
    (["--set", "anen.weights=0.5,0.5"], "anen.weights", [["anen"], ["optimize-weights"]]),
    (["--set", "modules=[STU300, XX]"], "modules", [["simulate"]]),
    (["--set", "optimize.module=XX"], "optimize.module", [["optimize-weights"]]),
    (["--set", "verify.grouping=weekly"], "verify.grouping", [["verify"]]),
    (["--set", "verify.module=XX"], "verify.module", [["verify"]]),
    (["--set", "system.capacity=0"], "system", [["simulate"], ["optimize-weights"]]),
    (["--set", "system.tilt=91"], "system", [["simulate"], ["optimize-weights"]]),
]

CASES = _value_cases() + DATA_CASES + [(["--seed", "-1"], "seed", EVERY_COMMAND)]


def _digests(root: Path) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """A directory holding a small chain's inputs and outputs, and a workflow file."""
    root = tmp_path_factory.mktemp("sweep")
    out = root / "chain"
    base = ["-o", str(out), *SMALL]
    for argv in (["synth"], ["anen"], ["simulate"], ["simulate", "--source", "analysis"], ["verify"]):
        assert main([*base, *argv]) == 0
    wf = root / "wf.yaml"
    wf.write_text("worker_budget: 1\npipelines:\n  - id: p0\n    stages:\n      - id: s0\n"
                  "        tasks:\n          - id: t0\n            command: [echo, one]\n")
    return out, wf


def test_the_sweep_covers_every_key_and_bound():
    swept = {key for _, key, _ in CASES}
    assert swept >= {key for key, _ in leaves(cli.DEFAULT_CONFIG)}
    assert set(OUT_OF_RANGE) == {key for key, (_, bound, _) in cli.RULES.items() if bound is not None}


@pytest.mark.parametrize("argv, key, commands", CASES, ids=[" ".join(c[0]) for c in CASES])
def test_bad_value_exits_2_naming_its_key(chain, tmp_path, monkeypatch, capsys, argv, key, commands):
    out, wf = chain
    monkeypatch.chdir(tmp_path)  # an output_dir case has no -o and must not make one here
    before = _digests(out.parent)
    for command in commands:
        command = [part.format(dir=out, wf=wf) for part in command]
        target = [] if key == "output_dir" else ["-o", str(out)]
        capsys.readouterr()
        assert main([*target, *SMALL, *argv, *command]) == 2, command
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "config-validation"
        assert any(p.startswith(key + ":") for p in payload["problems"]), (command, payload["problems"])
        assert _digests(out.parent) == before, command
        assert list(tmp_path.iterdir()) == [], command


def test_a_module_string_is_one_problem(chain, capsys):
    out, _ = chain
    assert main(["-o", str(out), *SMALL, "--set", "modules=STU300", "simulate"]) == 2
    problems = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["problems"]
    assert problems == ["modules: need a list of module codes, got 'STU300'"]


def test_bad_values_and_missing_inputs_are_one_error(tmp_path, capsys):
    assert main(["-o", str(tmp_path), "--set", "anen.operational=maybe", "--set", "seed=abc",
                 "anen", "--members", "0"]) == 2
    problems = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["problems"]
    assert [p.split(":")[0] for p in problems] == [
        "seed", "anen.members", "anen.operational", "paths.forecasts", "paths.observations"]


def test_valid_values_of_every_form_pass():
    cfg = cli.load_config(None, ["synth.start=2019-01-01", "synth.ar_coeff=0", "anen.weights=[1, 0, 0, 0, 0]",
                                 "optimize.strategy=nn", "system.capacity=5000", "anen.sigma_epsilon=1"])
    assert cli.check_config(cfg) == []
    assert cli.check_config(cli.load_config(None, ["synth.start=1546300800", "anen.weights=equal"])) == []


def test_quickstart_names_every_key_and_passes_the_check():
    doc = yaml.safe_load(QUICKSTART.read_text())
    assert sorted(key for key, _ in leaves(doc)) == sorted(key for key, _ in leaves(cli.DEFAULT_CONFIG))
    assert cli.check_config(cli.load_config(QUICKSTART, environ={})) == []


def test_a_retired_key_in_a_config_file_is_an_unknown_key(tmp_path):
    assert not set(RETIRED) & {key for key, _ in leaves(cli.DEFAULT_CONFIG)}
    cfg = tmp_path / "old.yaml"
    cfg.write_text("simulate:\n  output: observations\ncluster:\n  clusters: 3\n")
    with pytest.raises(cli.ConfigValidationError) as exc:
        cli.load_config(cfg, environ={})
    assert exc.value.problems == [f"simulate.output: unknown config key (from config file {cfg})",
                                  f"cluster.clusters: unknown config key (from config file {cfg})"]


def _split_problems(tmp_path, capsys, sets, argv):
    """The problems of ``argv`` on a 4-location archive made with ``sets``."""
    out = tmp_path / "split"
    base = ["-o", str(out), "--set", "synth.n_locations=4", *(a for s in sets for a in ("--set", s))]
    assert main([*base, "synth"]) == 0
    capsys.readouterr()
    assert main([*base, *argv]) == 2
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])["problems"]


@pytest.mark.parametrize("days", ["1000", "1"])
def test_a_bad_search_days_is_the_one_split_problem_of_optimize_weights(tmp_path, capsys, days):
    # optimize-weights splits the search period again, so it needs two search
    # days; opt_days is not checked against a split that failed
    problems = _split_problems(tmp_path, capsys, ["synth.n_days=30", f"anen.search_days={days}"],
                               ["optimize-weights"])
    assert problems == [f"anen.search_days: need an integer in 2..29, got {days}"]


@pytest.mark.parametrize("n_days, argv, least", [
    (1, ["sigma"], 2), (1, ["anen"], 2), (1, ["simulate", "--source", "forecast"], 2),
    (1, ["optimize-weights"], 3), (2, ["optimize-weights"], 3),
])
def test_an_archive_too_short_to_split_names_the_forecasts(tmp_path, capsys, n_days, argv, least):
    problems = _split_problems(tmp_path, capsys, [f"synth.n_days={n_days}"], argv)
    assert f"paths.forecasts: need at least {least} init times to split into search and test periods, " \
           f"got {n_days}" in problems
    assert not any(p.startswith(("anen.search_days", "optimize.opt_days")) for p in problems), problems


# every flag that takes a number or one of a few words, with a bad value:
# argparse passes any text on, and check_config names the flag's key
BAD_FLAGS = [
    (["--seed", "abc", "synth"], "seed"),
    (["anen", "--members", "abc"], "anen.members"),
    (["anen", "--search-days", "1.5"], "anen.search_days"),
    (["simulate", "--source", "raw"], "simulate.source"),
    (["optimize-weights", "--strategy", "xx"], "optimize.strategy"),
    (["optimize-weights", "--step", "abc"], "optimize.step"),
    (["optimize-weights", "--samples", "abc"], "optimize.total_samples"),
    (["optimize-weights", "--clusters", "two"], "optimize.clusters"),
    (["cluster", "--clusters", "two"], "optimize.clusters"),
]


def _flag_keys(parser):
    """The config key of every flag of ``parser`` and its subcommands."""
    for action in parser._actions:
        if action.dest.startswith("="):
            yield action.dest[1:]
        for sub in (action.choices or {}).values() if action.dest == "command" else ():
            yield from _flag_keys(sub)


def test_the_flag_sweep_covers_every_numeric_and_chosen_flag():
    defaults = dict(leaves(cli.DEFAULT_CONFIG))
    numeric = {key for key in _flag_keys(cli.build_parser()) if type(defaults[key]) in (int, float)}
    assert {key for _, key in BAD_FLAGS} == numeric | {"simulate.source", "optimize.strategy"}


@pytest.mark.parametrize("argv, key", BAD_FLAGS, ids=[" ".join(argv) for argv, _ in BAD_FLAGS])
def test_bad_flag_value_exits_2_naming_its_key(chain, capsys, argv, key):
    out, _ = chain
    before = _digests(out)
    assert main(["-o", str(out), *SMALL, *argv]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "config-validation"
    assert any(p.startswith(key + ":") for p in payload["problems"]), payload["problems"]
    assert _digests(out) == before


@pytest.mark.parametrize("flags, sets", [
    (["--seed", "7", "anen", "--members", "8", "--search-days", "24"],
     ["seed=7", "anen.members=8", "anen.search_days=24"]),
    (["simulate", "--source", "analysis"], ["simulate.source=analysis"]),
    (["optimize-weights", "--strategy", "nn", "--step", "0.2", "--samples", "4", "--clusters", "3"],
     ["optimize.strategy=NN", "optimize.step=0.2", "optimize.total_samples=4", "optimize.clusters=3"]),
    (["optimize-weights", "--step", "1"], ["optimize.step=1.0"]),
    (["cluster", "--clusters", "3"], ["optimize.clusters=3"]),
])
def test_valid_flag_values_keep_their_config_hash(flags, sets):
    args = cli.build_parser().parse_args(flags)
    cfg = cli.load_config(None, environ={}, flags={dest[1:]: value for dest, value in vars(args).items()
                                                    if dest.startswith("=") and value is not None})
    assert cli.check_config(cfg) == []
    assert cli.config_hash(cfg) == cli.config_hash(cli.load_config(None, sets, environ={}))
