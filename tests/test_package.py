import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anensolar

# every name the package exported when its __init__ imported all its modules
EXPORTED = {
    "coredata": [
        "MISSING", "AlignedObservations", "EnsembleTensor", "ForecastTensor", "LeadTimeAxis",
        "LocationSet", "ObservationTensor", "TimeAxis", "align_observations",
    ],
    "tensorio": ["read_tensor", "write_tensor"],
    "anen": [
        "AnalogIndexSet", "AnEnConfig", "SigmaTensor", "build_multivariate_ensemble",
        "compute_sigma", "equal_weights", "search_analogs", "similarity", "validate_weights",
    ],
    "solar": [
        "SOLAR_CONSTANT", "SolarCacheTable", "SolarPosition", "SolarSample",
        "extraterrestrial_normal", "precompute_solar", "relative_airmass", "solar_position",
    ],
    "pvchain": [
        "IrradianceComponents", "PoaComponents", "PvModuleSpec", "SystemConfig", "WeatherSample",
        "cell_temperature", "disc_decompose", "load_module_catalog", "load_module_specs",
        "module_power", "simulate_ensemble", "simulate_system", "system_scale", "transpose_poa",
    ],
    "weights": [
        "RegimeClustering", "SampleAssignment", "WeightGrid", "average_linkage_merges",
        "enumerate_weights", "hierarchical_cluster", "nn_sample_grid", "optimize_weights",
        "rb_sample_points",
    ],
    "verify": [
        "SolarNoonAlignment", "VerifyReport", "aggregate", "align_solar_noon", "bias", "crps",
        "crps_field", "paired_significance", "rmse",
    ],
    "synth": ["PredictorErrorModel", "SynthConfig", "generate"],
    "workflow": [
        "ExecutionBackend", "LocalProcessBackend", "Pipeline", "RunState", "Stage", "Task",
        "TaskState", "Workflow", "WorkflowRun", "build_simulation_workflow",
        "build_weight_search_workflow", "load_workflow_file", "submit", "validate_workflow",
    ],
    "errors": [],
}
SUBMODULES = ["anen", "cli", "coredata", "driver", "errors", "pvchain", "solar", "synth",
              "tensorio", "verify", "weights", "workflow"]


def _python(code):
    src = str(Path(anensolar.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_exported_names_are_the_modules_objects(module):
    owner = importlib.import_module(f"anensolar.{module}")
    for name in EXPORTED[module]:
        namespace = {}
        exec(f"from anensolar import {name}", namespace)
        assert namespace[name] is getattr(owner, name), name


def test_public_names_are_unchanged():
    public = sorted({*(n for names in EXPORTED.values() for n in names), *EXPORTED})
    assert anensolar.__all__ == public
    listed = {n for n in dir(anensolar) if not n.startswith("_")}
    # importing anensolar.cli or anensolar.driver binds it on the package, as before
    assert set(public) <= listed <= {*public, "cli", "driver"}
    namespace = {}
    exec("from anensolar import *", namespace)
    assert sorted(n for n in namespace if not n.startswith("_")) == public


def test_bare_import_loads_no_submodule_and_resolves_each():
    code = ("import sys, types, anensolar\n"
            "assert [m for m in sys.modules if m.startswith('anensolar.')] == []\n"
            f"for name in {SUBMODULES!r}:\n"
            "    module = getattr(anensolar, name)\n"
            "    assert isinstance(module, types.ModuleType)\n"
            "    assert module is sys.modules['anensolar.' + name]\n")
    result = _python(code)
    assert result.returncode == 0, result.stderr


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        anensolar.no_such_name
    with pytest.raises(ImportError):
        exec("from anensolar import no_such_name", {})
