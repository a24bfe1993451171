"""Seeded inputs of each workload (the benchmark's set-up).

Every generator writes the files the program reads into a directory and
returns nothing else: the program only ever sees these files. The same
(size, variant) always gives byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import yaml

from anensolar import synth, tensorio
from anensolar.coredata import ForecastTensor, LocationSet
from anensolar.workflow import Pipeline, Stage, Task, Workflow, dump_workflow_file

START = 1546300800  # 2019-01-01T00:00:00Z
LAT_RANGE = (32.0, 45.0)
LON_RANGE = (-115.0, -80.0)


def _archive(seed: int, n_locations: int, n_days: int, n_leads: int):
    rng = np.random.default_rng([seed, 11])
    lat = rng.uniform(*LAT_RANGE, size=n_locations)
    lon = rng.uniform(*LON_RANGE, size=n_locations)
    elev = rng.uniform(0.0, 2000.0, size=n_locations)
    cfg = synth.SynthConfig(
        seed=seed, locations=LocationSet.from_coords(lat, lon, elev), start=START,
        n_days=n_days, n_leads=n_leads,
    )
    return synth.generate(cfg)


def _with_missing(forecasts: ForecastTensor, share: float, seed: int) -> ForecastTensor:
    """The same archive with exactly round(share * size) forecast values set to NaN."""
    values = np.array(forecasts.values)
    count = int(round(share * values.size))
    rng = np.random.default_rng([seed, 12])
    values.reshape(-1)[rng.choice(values.size, size=count, replace=False)] = np.nan
    return ForecastTensor(forecasts.predictor_names, forecasts.locations,
                          forecasts.init_times, forecasts.lead_times, values)


def _write_config(out: Path, seed: int, sections: dict):
    doc = {"seed": seed}
    doc.update(sections)
    (out / "config.yaml").write_text(yaml.safe_dump(doc, sort_keys=True))


def forecast_chain(out: Path, seed: int, shape: dict):
    analysis, forecasts = _archive(seed, shape["n_locations"], shape["n_days"], shape["n_leads"])
    forecasts = _with_missing(forecasts, shape["missing_share"], seed)
    tensorio.write_tensor(analysis, out / "observations.ansr")
    tensorio.write_tensor(forecasts, out / "forecasts.ansr")
    _write_config(out, seed, {
        "anen": {
            "members": shape["members"], "half_window": shape["half_window"],
            "operational": True, "search_days": shape["search_days"],
        },
        "verify": {"grouping": "lead", "align_noon": True},
    })


def weight_search(out: Path, seed: int, shape: dict):
    analysis, forecasts = _archive(seed, shape["n_locations"], shape["n_days"], shape["n_leads"])
    tensorio.write_tensor(analysis, out / "observations.ansr")
    tensorio.write_tensor(forecasts, out / "forecasts.ansr")
    _write_config(out, seed, {
        "anen": {
            "members": shape["members"], "half_window": shape["half_window"],
            "operational": False, "search_days": shape["search_days"],
        },
        "optimize": {
            "strategy": "RB", "step": shape["step"], "clusters": shape["clusters"],
            "total_samples": shape["total_samples"], "opt_days": shape["opt_days"],
            "module": "STU300",
        },
    })


def fanout_workflow(shape: dict) -> Workflow:
    pipelines = [
        Pipeline(id=f"p{p}", stages=[
            Stage(id=f"p{p}s{s}", tasks=[
                Task(id=f"p{p}s{s}t{t}", argv=("noop",), max_retries=shape["max_retries"])
                for t in range(shape["tasks"])
            ])
            for s in range(shape["stages"])
        ])
        for p in range(shape["pipelines"])
    ]
    return Workflow(pipelines, worker_budget=shape["worker_budget"])


def workflow_fanout(out: Path, seed: int, shape: dict):
    dump_workflow_file(fanout_workflow(shape), out / "workflow.yaml")


GENERATORS = {
    "forecast_chain": forecast_chain,
    "weight_search": weight_search,
    "workflow_fanout": workflow_fanout,
}
