"""Predictor-weight optimization: the simplex grid and the three spatial
strategies (equal weights everywhere, nearest sample point, regime based).

A regime-dependent bias is planted in the synthetic data: in one regime the
GHI forecast error follows the wind state, in the other the albedo state.
The regime-based search discovers different weights per regime and beats the
uniform vector.
"""

import numpy as np

from anensolar import (
    AnEnConfig,
    LocationSet,
    SynthConfig,
    SystemConfig,
    enumerate_weights,
    equal_weights,
    generate,
    hierarchical_cluster,
    load_module_catalog,
    nn_sample_grid,
    optimize_weights,
    rb_sample_points,
)
from anensolar.cli import regime_feature_matrix
from anensolar.driver import WeightObjective
from anensolar.synth import PredictorErrorModel, default_error_models

# the simplex lattice: every vector sums to one exactly
grid = enumerate_weights(5, 1.0 / 3.0)
print("weight grid: %d vectors at step 1/3, e.g." % len(grid))
for vec in grid.vectors[:4]:
    print("  ", np.round(vec, 3))
full = enumerate_weights(7, 0.1, exclude_unit_vectors=True)
print("a 7-predictor grid at step 0.1 has %d vectors without unit vectors" % len(full))

# synthetic archive with two planted regimes, separable by climate features
rng = np.random.default_rng(3)
n_loc = 12
regimes = (np.arange(n_loc) >= 6).astype(int)
elevation = np.where(regimes == 0, rng.uniform(1400, 2000, n_loc), rng.uniform(0, 200, n_loc))
locations = LocationSet.from_coords(
    rng.uniform(32, 45, n_loc), rng.uniform(-110, -85, n_loc), elevation
)
errors = default_error_models()
errors["ghi"] = PredictorErrorModel(0.30, 0.06, "cloud_cover")
cfg = SynthConfig(
    seed=5, locations=locations, start=1546300800, n_days=180,
    regimes=regimes, regime_drivers={0: "wind_speed", 1: "albedo"},
    location_temp_offset=np.where(regimes == 0, -6.0, 6.0),
)
analysis, forecasts = generate(cfg)

# regimes are recovered from (orography, daily-max GHI, daily-max temp, cloud)
features, names = regime_feature_matrix(analysis)
clustering = hierarchical_cluster(features, 2, names)
print("\nclustered labels:", clustering.labels.tolist())
print("planted regimes: ", (regimes + 1).tolist())

# nearest-neighbor tiling of the bounding box for comparison
assignment = nn_sample_grid(locations)
print("NN tiling produced %d sample points, representatives %s"
      % (assignment.n_samples, assignment.representatives.tolist()))

# the objective: CRPS of simulated power on a 300 W module over a held-out
# slice of the search period
base = AnEnConfig(weights=equal_weights(5), members=10, half_window=1, operational=True)
spec = next(s for s in load_module_catalog() if s.code == "STU300")
objective = WeightObjective(
    forecasts, analysis, base, range(120, 150), range(0, 120), spec, SystemConfig()
)

samples = rb_sample_points(clustering, 2, seed=5)
print("\nRB sample locations:", samples)
rb = optimize_weights(grid, objective.scores, "RB",
                      clustering=clustering, regime_samples=samples)
ew = optimize_weights(grid, None, "EW", n_locations=n_loc)

order = ("ghi", "temp", "wind", "albedo", "cloud")
print("\nselected weights (%s):" % ", ".join(order))
print("  EW everywhere:  ", np.round(ew[0], 3))
print("  RB regime 1:    ", np.round(rb[0], 3))
print("  RB regime 2:    ", np.round(rb[-1], 3))
# one scores call per sample location scores its EW and RB vectors together
rows = [objective.scores([ew[loc], rb[loc]], loc) for loc in samples]
score_ew, score_rb = np.mean(rows, axis=0)
print("\nmean CRPS at the sample points: EW %.1f W vs RB %.1f W" % (score_ew, score_rb))
