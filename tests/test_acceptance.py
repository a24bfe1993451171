"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The synthetic-skill
criterion builds a 50-location, 720-day dataset and runs the full analog ->
power -> verification chain for the equal-weight and regime-based strategies;
everything else is exact or oracle-checked.
"""

import dataclasses
import hashlib
import math
import time

import numpy as np
import pytest

from anensolar.anen import AnEnConfig, compute_sigma, equal_weights, search_analogs
from anensolar.cli import regime_feature_matrix
from anensolar.coredata import (
    MISSING,
    ForecastTensor,
    LeadTimeAxis,
    LocationSet,
    TimeAxis,
    align_observations,
)
from anensolar.driver import (
    WeightObjective,
    analysis_weather_ensemble,
    anen_weather_ensemble,
    build_multivariate_ensemble,
    forecast_weather_ensemble,
    power_from_weather,
)
from anensolar.pvchain import (
    SystemConfig,
    disc_decompose,
    load_module_catalog,
    module_power,
    system_scale,
    transpose_poa,
)
from anensolar.solar import precompute_solar, relative_airmass, solar_position
from anensolar.synth import PredictorErrorModel, SynthConfig, default_error_models, generate
from anensolar.verify import align_solar_noon, crps, rmse
from anensolar.weights import (
    average_linkage_merges,
    enumerate_weights,
    hierarchical_cluster,
    optimize_weights,
    rb_sample_points,
)
from anensolar.workflow import (
    ExecutionBackend,
    Pipeline,
    RunState,
    Stage,
    Task,
    TaskState,
    Workflow,
    build_simulation_workflow,
    build_weight_search_workflow,
    submit,
)

from oracles import brute_force_search, disc_reference, naive_average_linkage
from test_solar import ALMANAC_SPOTS


def report(number, ok, detail):
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# -- criterion 3 fixture: the full synthetic chain -------------------------------

N_LOC = 50
SEARCH = range(0, 540)
TEST = range(540, 720)
MEMBERS = 21


@pytest.fixture(scope="module")
def skill_run():
    rng = np.random.default_rng(77)
    regimes = (np.arange(N_LOC) >= N_LOC // 2).astype(int)
    elev = np.where(regimes == 0, rng.uniform(1200, 2000, N_LOC), rng.uniform(0, 300, N_LOC))
    locations = LocationSet.from_coords(
        rng.uniform(30, 45, N_LOC), rng.uniform(-115, -80, N_LOC), elev
    )
    errors = default_error_models()
    errors["ghi"] = PredictorErrorModel(0.30, 0.06, "cloud_cover")
    cfg = SynthConfig(
        seed=42, locations=locations, start=1483228800, n_days=720,
        regimes=regimes, regime_drivers={0: "wind_speed", 1: "albedo"},
        location_temp_offset=np.where(regimes == 0, -6.0, 6.0),
    )
    analysis, forecasts = generate(cfg)

    base = AnEnConfig(weights=equal_weights(5), members=MEMBERS, half_window=1, operational=True)
    sigma = compute_sigma(forecasts, SEARCH)
    indices = search_analogs(forecasts, base, TEST, SEARCH, sigma)
    aligned = align_observations(analysis, forecasts.init_times, forecasts.lead_times)
    weather = build_multivariate_ensemble(indices, aligned)

    spec = next(s for s in load_module_catalog() if s.code == "STU300")
    system = SystemConfig()
    cache = precompute_solar(weather.locations, weather.init_times, weather.lead_times)
    ew_power = power_from_weather(weather, [spec], system, cache).values[0]
    raw_power = power_from_weather(
        forecast_weather_ensemble(forecasts, TEST), [spec], system, cache
    ).values[0, ..., 0]
    truth_power = power_from_weather(
        analysis_weather_ensemble(analysis, forecasts.init_times, forecasts.lead_times, TEST),
        [spec], system, cache,
    ).values[0, ..., 0]
    return {
        "analysis": analysis, "forecasts": forecasts, "regimes": regimes,
        "base": base, "indices": indices, "aligned": aligned, "weather": weather,
        "spec": spec, "system": system, "cache": cache,
        "ew_power": ew_power, "raw_power": raw_power, "truth_power": truth_power,
        "daylight": cache.daylight_mask(),
    }


# -- 1: similarity-search oracle equivalence -------------------------------------

def test_criterion_1_search_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.time()
    instances = 0
    while instances < 100:
        n_pred = int(rng.integers(1, 6))
        n_loc = int(rng.integers(1, 5))
        n_init = int(rng.integers(16, 61))
        n_lead = int(rng.integers(1, 9))
        half_window = int(rng.integers(0, 3))
        members = int(rng.integers(1, 5))
        operational = bool(rng.integers(0, 2))
        values = rng.normal(0, 5, size=(n_pred, n_loc, n_init, n_lead))
        values[rng.random(values.shape) < 0.08] = MISSING
        fc = ForecastTensor(
            tuple(f"p{k}" for k in range(n_pred)),
            LocationSet.from_coords(rng.uniform(-60, 60, n_loc), rng.uniform(-170, 170, n_loc)),
            TimeAxis(86400 * np.arange(n_init)),
            LeadTimeAxis(3600 * np.arange(n_lead)),
            values,
        )
        split = int(rng.integers(10, n_init - 4))
        test_r, search_r = range(split, n_init), range(0, split)
        w = rng.dirichlet(np.ones(n_pred))
        w = w / w.sum()
        cfg = AnEnConfig(weights=w, members=members, half_window=half_window,
                         operational=operational, allow_partial=True)
        sigma = compute_sigma(fc, search_r)
        out = search_analogs(fc, cfg, test_r, search_r, sigma)
        idx, dist = brute_force_search(
            fc.values, cfg.weights, members, half_window, cfg.sigma_epsilon,
            test_r, search_r, operational, sigma.values, allow_partial=True,
        )
        np.testing.assert_array_equal(out.search_index, idx)
        np.testing.assert_array_equal(out.distance, dist)
        instances += 1
    elapsed = time.time() - start
    report(1, elapsed < 60.0,
           f"{instances} random instances exactly match the brute-force oracle in {elapsed:.1f} s")


# -- 2: shared-analog property -----------------------------------------------------

def test_criterion_2_shared_analog_property(skill_run):
    indices = skill_run["indices"]
    aligned = skill_run["aligned"]
    weather = skill_run["weather"]
    src = indices.search_index
    filled = np.isfinite(src)
    assert filled.all()
    safe = src.astype(np.int64)
    n_loc, n_test, n_lead, m = safe.shape
    l_ix = np.arange(n_loc)[:, None, None, None]
    j_ix = np.arange(n_lead)[None, None, :, None]
    checked = 0
    for v in range(len(weather.variable_names)):
        expected = aligned.values[v, l_ix, safe, j_ix]
        same = (weather.values[v] == expected) | (
            np.isnan(weather.values[v]) & np.isnan(expected)
        )
        assert same.all()
        checked += same.size
    report(2, True,
           f"member sources identical across all {len(weather.variable_names)} variables "
           f"({checked} cells checked exhaustively)")


# -- 3: synthetic skill ---------------------------------------------------------------

def test_criterion_3_synthetic_skill(skill_run):
    start = time.time()
    day = skill_run["daylight"]
    truth = skill_run["truth_power"]
    ew_rmse = rmse(skill_run["ew_power"].mean(axis=-1)[day], truth[day])
    raw_rmse = rmse(skill_run["raw_power"][day], truth[day])
    improvement = 100.0 * (1.0 - ew_rmse / raw_rmse)

    feats, names = regime_feature_matrix(skill_run["analysis"])
    clustering = hierarchical_cluster(feats, 2, names)
    grid = enumerate_weights(5, 1.0 / 3.0)
    samples = rb_sample_points(clustering, 4, seed=42)
    objective = WeightObjective(
        skill_run["forecasts"], skill_run["analysis"], skill_run["base"],
        range(450, 540), range(0, 450), skill_run["spec"], skill_run["system"],
    )
    rb_weights = optimize_weights(grid, objective.scores, "RB",
                                  clustering=clustering, regime_samples=samples)
    rb_weather = anen_weather_ensemble(
        skill_run["forecasts"], skill_run["analysis"],
        dataclasses.replace(skill_run["base"], weights=rb_weights), TEST, SEARCH,
    )
    rb_power = power_from_weather(
        rb_weather, [skill_run["spec"]], skill_run["system"], skill_run["cache"]
    ).values[0]
    rb_rmse = rmse(rb_power.mean(axis=-1)[day], truth[day])
    elapsed = time.time() - start

    ok = improvement >= 5.0 and rb_rmse <= ew_rmse and elapsed < 15 * 60
    report(3, ok,
           f"ensemble mean improves on the deterministic forecast by {improvement:.1f}% "
           f"(needs >= 5%); RB {rb_rmse:.2f} W <= EW {ew_rmse:.2f} W; "
           f"strategy comparison took {elapsed:.0f} s")


# -- 4: weight-grid counts ---------------------------------------------------------------

def test_criterion_4_weight_grid_counts():
    full = enumerate_weights(7, 0.1)
    reduced = enumerate_weights(7, 0.1, exclude_unit_vectors=True)
    six = enumerate_weights(3, 0.5)
    expected_six = [
        (1.0, 0.0, 0.0), (0.5, 0.5, 0.0), (0.5, 0.0, 0.5),
        (0.0, 1.0, 0.0), (0.0, 0.5, 0.5), (0.0, 0.0, 1.0),
    ]
    ok = (len(full) == 8008 and len(reduced) == 8001
          and [tuple(v) for v in six.vectors] == expected_six)
    report(4, ok, f"N=7 step 0.1 -> {len(full)} vectors, {len(reduced)} without unit "
                  f"vectors; N=3 step 0.5 -> the 6 expected vectors")


# -- 5: PV chain identities ----------------------------------------------------------------

def test_criterion_5_pv_chain_identities():
    rng = np.random.default_rng(55)
    system = SystemConfig(capacity=10_000.0, tilt=0.0, azimuth=180.0)
    worst = 0.0
    for _ in range(500):
        z = float(rng.uniform(0.0, 89.9))
        e0n = float(rng.uniform(1320.0, 1410.0))
        ghi = float(rng.uniform(1.0, 1.05 * e0n * max(math.cos(math.radians(z)), 0.0) + 1.0))
        comp = disc_decompose(ghi, z, relative_airmass(z), e0n)
        poa = transpose_poa(comp, ghi, float(rng.uniform(0, 1)), z,
                            float(rng.uniform(0, 360)), e0n, system)
        worst = max(worst, abs(float(poa.global_) - ghi) / max(ghi, 1.0))
    catalog = load_module_catalog()
    stc_exact = all(float(module_power(1000.0, 25.0, spec)) == spec.stc_rating
                    for spec in catalog)
    sp128 = next(s for s in catalog if s.code == "SP128")
    scale = system_scale(sp128, system)
    ok = worst <= 1e-6 and stc_exact and scale == 25.0 and len(catalog) == 11
    report(5, ok,
           f"horizontal POA matches GHI to {worst:.2e} relative; all 11 modules hit their "
           f"STC rating exactly; SP128 scaling factor = {scale}")


# -- 6: DISC oracle ---------------------------------------------------------------------------

def test_criterion_6_disc_oracle():
    rng = np.random.default_rng(66)
    worst_rel = 0.0
    closure_ok = True
    for _ in range(1000):
        z = float(rng.uniform(0.0, 89.9))
        e0n = float(rng.uniform(1320.0, 1410.0))
        ghi = float(rng.uniform(0.0, 1.08) * e0n * max(math.cos(math.radians(z)), 0.0))
        am = relative_airmass(z)
        comp = disc_decompose(ghi, z, am, e0n)
        dni_o, dhi_o, _ = disc_reference(ghi, z, am, e0n)
        for got, ref in ((float(comp.dni), dni_o), (float(comp.dhi), dhi_o)):
            worst_rel = max(worst_rel, abs(got - ref) / max(abs(ref), 1e-9))
        if z < 87.5:
            closure = float(comp.dni) * math.cos(math.radians(z)) + float(comp.dhi) - ghi
            closure_ok &= abs(closure) <= 1e-6 * max(ghi, 1.0)
    ok = worst_rel <= 1e-6 and closure_ok
    report(6, ok, f"1000 daylight decompositions match the independent DISC reference "
                  f"(worst {worst_rel:.2e} relative); closure holds on all of them")


# -- 7: CRPS unit values -------------------------------------------------------------------------

def test_criterion_7_crps_unit_values():
    rng = np.random.default_rng(7)
    two = crps([0.0, 2.0], 1.0)
    perfect = crps([4.0, 4.0, 4.0], 4.0)
    singles_exact = all(
        crps([x], y) == abs(x - y)
        for x, y in rng.normal(0, 10, size=(200, 2))
    )
    ok = two == 0.5 and perfect == 0.0 and singles_exact
    report(7, ok, f"crps({{0,2}}, 1) = {two}; perfect ensemble = {perfect}; "
                  f"single member reduces to absolute error on 200 random pairs")


# -- 8: clustering oracle -------------------------------------------------------------------------

def test_criterion_8_clustering_oracle():
    rng = np.random.default_rng(88)
    trials = 200
    for _ in range(trials):
        n = int(rng.integers(2, 11))
        pts = rng.normal(0, 3, size=(n, int(rng.integers(1, 5))))
        merges, _ = average_linkage_merges(pts, stop_at=1)
        expected, _ = naive_average_linkage(pts, stop_at=1)
        assert len(merges) == len(expected) == n - 1
        for (ai, aj, ad), (bi, bj, bd) in zip(merges, expected):
            assert set(ai) == set(bi) and set(aj) == set(bj)
            assert ad == pytest.approx(bd, rel=1e-9, abs=1e-12)
    report(8, True, f"average-linkage merge sequences match the O(n^3) oracle on "
                    f"{trials} random instances (n <= 10)")


# -- 9: workflow engine chaos run ------------------------------------------------------------------

class _ChaosBackend(ExecutionBackend):
    def __init__(self, fail_rate, seed):
        self.fail_rate = fail_rate
        self.seed = seed

    def would_fail(self, task_id, attempt):
        digest = hashlib.sha256(f"{self.seed}:{task_id}:{attempt}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64 < self.fail_rate

    def run(self, task):
        return 1 if self.would_fail(task.id, task.attempts) else 0


_VALID_NEXT = {
    TaskState.PENDING: {TaskState.SCHEDULED, TaskState.CANCELED},
    TaskState.SCHEDULED: {TaskState.RUNNING, TaskState.CANCELED},
    TaskState.RUNNING: {TaskState.DONE, TaskState.FAILED, TaskState.CANCELED},
    TaskState.FAILED: {TaskState.SCHEDULED, TaskState.CANCELED},
}


def test_criterion_9_workflow_chaos_run():
    start = time.time()
    pipelines = [
        Pipeline(id=f"p{p}", stages=[
            Stage(id=f"p{p}s{s}", tasks=[
                Task(id=f"p{p}s{s}t{t}", argv=("noop",), max_retries=3)
                for t in range(10)
            ])
            for s in range(3)
        ])
        for p in range(100)
    ]
    wf = Workflow(pipelines, worker_budget=16)
    backend = _ChaosBackend(0.1, seed=0)
    run = submit(wf, backend)
    final = run.wait(300)
    elapsed = time.time() - start
    records = run.events()

    all_done = final is RunState.DONE and all(
        s is TaskState.DONE for s in run.task_states().values()
    )

    chains = {}
    for r in records:
        chains.setdefault(r.task_id, []).append(r)
    chains_valid = True
    for chain in chains.values():
        current = TaskState.PENDING
        for r in chain:
            chains_valid &= r.from_state is current and r.to_state in _VALID_NEXT[current]
            current = r.to_state
        chains_valid &= current is TaskState.DONE

    stage_ordered = True
    for p in range(100):
        for s in range(1, 3):
            prev_end = max(r.seq for r in records
                           if r.task_id.startswith(f"p{p}s{s-1}t") and r.to_state is TaskState.DONE)
            this_start = min(r.seq for r in records
                             if r.task_id.startswith(f"p{p}s{s}t") and r.to_state is TaskState.SCHEDULED)
            stage_ordered &= this_start > prev_end

    budget_ok = True
    running = set()
    for r in sorted(records, key=lambda r: r.seq):
        if r.to_state is TaskState.RUNNING:
            running.add(r.task_id)
        elif r.from_state is TaskState.RUNNING:
            running.discard(r.task_id)
        budget_ok &= len(running) <= wf.worker_budget

    injected = sum(1 for r in records if r.to_state is TaskState.FAILED)

    grid = enumerate_weights(7, 0.1, exclude_unit_vectors=True)
    search_wf = build_weight_search_workflow(grid)
    shape_a = (len(search_wf.pipelines) == 8001
               and all(len(p.stages) == 3 and sum(len(s.tasks) for s in p.stages) == 6
                       for p in search_wf.pipelines))
    sim_wf = build_simulation_workflow([(f"d{i}", 1.0) for i in range(99)], ["SP128"])
    shape_b = (len(sim_wf.pipelines) == 1
               and [len(s.tasks) for s in sim_wf.pipelines[0].stages] == [99, 99])

    ok = all_done and chains_valid and stage_ordered and budget_ok and elapsed < 300 and shape_a and shape_b
    report(9, ok,
           f"3000 tasks all DONE after {injected} injected failures in {elapsed:.1f} s; "
           f"state chains valid, stage order and budget held; builder shapes 8001x6 and 2x99")


# -- 10: solar geometry -----------------------------------------------------------------------------

def test_criterion_10_solar_geometry():
    worst = 0.0
    for epoch, lat, lon, zen, _az in ALMANAC_SPOTS:
        got = solar_position(epoch, lat, lon).apparent_zenith
        worst = max(worst, abs(got - zen))
    spots_ok = worst < 0.5

    equinox = solar_position(1616241600 + 7 * 60, 0.0, 0.0).apparent_zenith
    equinox_ok = equinox < 1.5

    locs = LocationSet.from_coords([45.0], [0.0])
    cache = precompute_solar(locs, TimeAxis([1623456000]), LeadTimeAxis(3600 * np.arange(24)))
    alignment = align_solar_noon(cache)
    noon_lead = int(np.argmin(cache.apparent_zenith[0, 0]))
    slot_ok = alignment.offsets[0] == 0 and (noon_lead - alignment.offsets[0]) == 12

    ok = spots_ok and equinox_ok and slot_ok
    report(10, ok,
           f"10 almanac spot checks within {worst:.3f} deg (< 0.5); equator equinox noon "
           f"zenith {equinox:.2f} deg (< 1.5); longitude-0 noon maps to slot 12 exactly")
