"""Analog-ensemble solar power forecasting toolkit.

Builds multivariate forecast ensembles from a deterministic archive by analog
search, drives a photovoltaic simulation chain with them, optimizes predictor
weights by spatial sampling and regime clustering, verifies ensemble skill,
and schedules the embarrassingly parallel workload through a
pipeline/stage/task execution engine.
"""

from .coredata import (
    MISSING,
    AlignedObservations,
    EnsembleTensor,
    ForecastTensor,
    LeadTimeAxis,
    LocationSet,
    ObservationTensor,
    TimeAxis,
    align_observations,
)
from .tensorio import read_tensor, write_tensor
from .anen import (
    AnalogIndexSet,
    AnEnConfig,
    SigmaTensor,
    build_multivariate_ensemble,
    compute_sigma,
    equal_weights,
    search_analogs,
    similarity,
    validate_weights,
)
from .solar import (
    SOLAR_CONSTANT,
    SolarCacheTable,
    SolarPosition,
    SolarSample,
    extraterrestrial_normal,
    precompute_solar,
    relative_airmass,
    solar_position,
)
from .pvchain import (
    IrradianceComponents,
    PoaComponents,
    PvModuleSpec,
    SystemConfig,
    WeatherSample,
    cell_temperature,
    disc_decompose,
    load_module_catalog,
    load_module_specs,
    module_power,
    simulate_ensemble,
    simulate_system,
    system_scale,
    transpose_poa,
)
from .weights import (
    RegimeClustering,
    SampleAssignment,
    WeightGrid,
    average_linkage_merges,
    enumerate_weights,
    hierarchical_cluster,
    nn_sample_grid,
    optimize_weights,
    rb_sample_points,
)
from .verify import (
    SolarNoonAlignment,
    VerifyReport,
    aggregate,
    align_solar_noon,
    bias,
    crps,
    crps_field,
    paired_significance,
    rmse,
)
from .synth import PredictorErrorModel, SynthConfig, generate
from .workflow import (
    ExecutionBackend,
    LocalProcessBackend,
    Pipeline,
    RunState,
    Stage,
    Task,
    TaskState,
    Workflow,
    WorkflowRun,
    build_simulation_workflow,
    build_weight_search_workflow,
    load_workflow_file,
    submit,
    validate_workflow,
)
from . import errors

__version__ = "0.1.0"
