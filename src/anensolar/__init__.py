"""Analog-ensemble solar power forecasting toolkit.

Builds multivariate forecast ensembles from a deterministic archive by analog
search, drives a photovoltaic simulation chain with them, optimizes predictor
weights by spatial sampling and regime clustering, verifies ensemble skill,
and schedules the embarrassingly parallel workload through a
pipeline/stage/task execution engine.

Importing the package loads none of its modules: each public name below, and
each submodule, is imported on first access (PEP 562), so a CLI process pays
only for the modules its command runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names the package exports from it
_EXPORTS = {
    "coredata": (
        "MISSING", "AlignedObservations", "EnsembleTensor", "ForecastTensor", "LeadTimeAxis",
        "LocationSet", "ObservationTensor", "TimeAxis", "align_observations",
    ),
    "tensorio": ("read_tensor", "write_tensor"),
    "anen": (
        "AnalogIndexSet", "AnEnConfig", "SigmaTensor", "build_multivariate_ensemble",
        "compute_sigma", "equal_weights", "search_analogs", "similarity", "validate_weights",
    ),
    "solar": (
        "SOLAR_CONSTANT", "SolarCacheTable", "SolarPosition", "SolarSample",
        "extraterrestrial_normal", "precompute_solar", "relative_airmass", "solar_position",
    ),
    "pvchain": (
        "IrradianceComponents", "PoaComponents", "PvModuleSpec", "SystemConfig", "WeatherSample",
        "cell_temperature", "disc_decompose", "load_module_catalog", "load_module_specs",
        "module_power", "simulate_ensemble", "simulate_system", "system_scale", "transpose_poa",
    ),
    "weights": (
        "RegimeClustering", "SampleAssignment", "WeightGrid", "average_linkage_merges",
        "enumerate_weights", "hierarchical_cluster", "nn_sample_grid", "optimize_weights",
        "rb_sample_points",
    ),
    "verify": (
        "SolarNoonAlignment", "VerifyReport", "aggregate", "align_solar_noon", "bias", "crps",
        "crps_field", "paired_significance", "rmse",
    ),
    "synth": ("PredictorErrorModel", "SynthConfig", "generate"),
    "workflow": (
        "ExecutionBackend", "LocalProcessBackend", "Pipeline", "RunState", "Stage", "Task",
        "TaskState", "Workflow", "WorkflowRun", "build_simulation_workflow",
        "build_weight_search_workflow", "load_workflow_file", "submit", "validate_workflow",
    ),
    "errors": (),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli", "driver"})

__all__ = sorted({*_OWNER, *_EXPORTS})


def __getattr__(name):
    if name in _OWNER:
        value = getattr(_import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
