"""Five-step photovoltaic power simulation chain.

GHI decomposition (DISC) -> plane-of-array transposition (Hay-Davies) ->
cell temperature -> module power -> linear system scaling. Every operation
is pure, elementwise and broadcastable over numpy arrays, with the astronomy
read from a shared precomputed cache. The first two steps depend only on the
weather, the sun and the system's orientation, not on the module: an
ensemble is simulated one location at a time, running them once per location
and then the last three once per module, so no temporary spans more than one
location of the ensemble.

The electrical model is a temperature-corrected linear power model with a
per-module power temperature coefficient; effective irradiance equals the
plane-of-array global irradiance.
"""

from __future__ import annotations

import csv
import typing
from dataclasses import dataclass, fields
from importlib import resources

import numpy as np

from .coredata import EnsembleTensor, _Owned, axis_mismatch
from .errors import DimensionMismatchError, MissingVariableError
from .solar import SolarCacheTable, SolarSample

_DEG = np.pi / 180.0

# DISC validity: no direct component at or beyond this zenith
DISC_ZENITH_CUTOFF = 87.5
KT_MAX = 1.1

# Anti-blowup guard for the Hay-Davies beam ratio. Kept at the DISC cutoff so
# that for horizontal panels and DISC-consistent components the transposition
# reduces exactly to GHI at every daylight zenith.
_RB_MIN_COS_ZENITH = np.cos(DISC_ZENITH_CUTOFF * _DEG)


@dataclass(frozen=True)
class WeatherSample:
    """Surface weather driving one simulation: W/m^2, fraction, deg C, m/s."""

    ghi: float
    albedo: float
    ambient_temp: float
    wind_speed: float

    def __post_init__(self):
        if self.ghi < 0:
            raise ValueError("ghi must be >= 0")
        if not 0.0 <= self.albedo <= 1.0:
            raise ValueError("albedo must be in [0, 1]")


@dataclass(frozen=True)
class IrradianceComponents:
    """GHI split into direct-normal and diffuse-horizontal, plus clearness index."""

    dni: np.ndarray
    dhi: np.ndarray
    kt: np.ndarray


@dataclass(frozen=True)
class PoaComponents:
    """Plane-of-array irradiance terms in W/m^2."""

    direct: np.ndarray
    sky_diffuse: np.ndarray
    ground_diffuse: np.ndarray
    global_: np.ndarray


@dataclass(frozen=True)
class PvModuleSpec:
    """Panel electrical and thermal parameters.

    ``gamma`` is the power temperature coefficient (1/degC), ``thermal_a`` and
    ``thermal_b`` the exponential mount-model constants, ``delta_t`` the
    module-to-cell temperature offset at 1000 W/m^2.
    """

    code: str
    area: float
    material: str
    cells_in_series: int
    stc_rating: float
    efficiency: float
    gamma: float = -0.0045
    thermal_a: float = -3.56
    thermal_b: float = -0.075
    delta_t: float = 3.0

    def __post_init__(self):
        if self.stc_rating <= 0:
            raise ValueError("stc_rating must be positive")
        if self.area <= 0:
            raise ValueError("area must be positive")


@dataclass(frozen=True)
class SystemConfig:
    """Installed system: capacity in W, panel tilt and azimuth in degrees."""

    capacity: float = 10_000.0
    tilt: float = 0.0
    azimuth: float = 180.0

    def __post_init__(self):
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 <= self.tilt <= 90.0:
            raise ValueError("tilt must be in [0, 90] degrees")


def disc_decompose(ghi, apparent_zenith, airmass, e0n) -> IrradianceComponents:
    """Estimate DNI and DHI from GHI with the DISC empirical model.

    Parameters
    ----------
    ghi : array_like
        Global horizontal irradiance, W/m^2, >= 0.
    apparent_zenith : array_like
        Solar zenith in degrees.
    airmass : array_like
        Relative air mass for that zenith (NaN below the horizon).
    e0n : array_like
        Extraterrestrial normal irradiance, W/m^2.

    The clearness index is clamped to [0, 1.1]; DNI comes from the published
    piecewise cubic polynomials in kt and air mass (clear-sky direct index
    minus the delta index), clipped to [0, e0n], and is forced to zero at
    zenith >= 87.5 degrees or zero GHI. DHI closes the budget:
    ghi - dni*cos(zenith), floored at zero.
    """
    ghi = np.asarray(ghi, dtype=float)
    z = np.asarray(apparent_zenith, dtype=float)
    am = np.asarray(airmass, dtype=float)
    e0n = np.asarray(e0n, dtype=float)

    cos_z = np.cos(z * _DEG)
    with np.errstate(divide="ignore", invalid="ignore"):
        kt = ghi / (e0n * cos_z)
    kt = np.clip(np.where(np.isfinite(kt), kt, 0.0), 0.0, KT_MAX)

    night = (z >= DISC_ZENITH_CUTOFF) | (ghi <= 0.0)
    am_safe = np.where(np.isfinite(am), am, 0.0)

    low = kt <= 0.6
    a = np.where(
        low,
        0.512 - 1.56 * kt + 2.286 * kt**2 - 2.222 * kt**3,
        -5.743 + 21.77 * kt - 27.49 * kt**2 + 11.56 * kt**3,
    )
    b = np.where(low, 0.37 + 0.962 * kt, 41.4 - 118.5 * kt + 66.05 * kt**2 + 31.9 * kt**3)
    c = np.where(low, -0.28 + 0.932 * kt - 2.048 * kt**2, -47.01 + 184.2 * kt - 222.0 * kt**2 + 73.81 * kt**3)

    delta_kn = a + b * np.exp(c * am_safe)
    knc = 0.866 - 0.122 * am_safe + 0.0121 * am_safe**2 - 0.000653 * am_safe**3 + 1.4e-5 * am_safe**4
    kn = knc - delta_kn

    dni = np.clip(kn * e0n, 0.0, e0n)
    dni = np.where(night, 0.0, dni)
    dhi = np.maximum(ghi - dni * cos_z, 0.0)
    kt = np.where(night & (ghi <= 0.0), 0.0, kt)
    return IrradianceComponents(dni, dhi, kt)


def transpose_poa(components: IrradianceComponents, ghi, albedo, apparent_zenith,
                  azimuth, e0n, system: SystemConfig) -> PoaComponents:
    """Project irradiance components onto the panel plane (Hay-Davies sky diffuse).

    Direct is dni * max(cos aoi, 0); sky diffuse mixes isotropic and
    circumsolar parts with anisotropy index dni/e0n; ground-reflected diffuse
    is ghi * albedo * (1 - cos tilt)/2.
    """
    ghi = np.asarray(ghi, dtype=float)
    albedo = np.asarray(albedo, dtype=float)
    z = np.asarray(apparent_zenith, dtype=float)
    az = np.asarray(azimuth, dtype=float)
    e0n = np.asarray(e0n, dtype=float)
    dni = np.asarray(components.dni, dtype=float)
    dhi = np.asarray(components.dhi, dtype=float)

    tilt = system.tilt * _DEG
    cos_aoi = np.cos(tilt) * np.cos(z * _DEG) + np.sin(tilt) * np.sin(z * _DEG) * np.cos((az - system.azimuth) * _DEG)
    cos_aoi = np.maximum(cos_aoi, 0.0)

    direct = dni * cos_aoi
    rb = cos_aoi / np.maximum(np.cos(z * _DEG), _RB_MIN_COS_ZENITH)
    ai = dni / e0n
    sky = dhi * ((1.0 - ai) * (1.0 + np.cos(tilt)) / 2.0 + ai * rb)
    ground = ghi * albedo * (1.0 - np.cos(tilt)) / 2.0
    return PoaComponents(direct, sky, ground, direct + sky + ground)


def cell_temperature(poa_global, ambient_temp, wind_speed, spec: PvModuleSpec):
    """Cell temperature in deg C from the exponential mount heating model."""
    poa = np.asarray(poa_global, dtype=float)
    t_module = poa * np.exp(spec.thermal_a + spec.thermal_b * np.asarray(wind_speed, dtype=float))
    t_module = t_module + np.asarray(ambient_temp, dtype=float)
    return t_module + (poa / 1000.0) * spec.delta_t


def module_power(poa_global, t_cell, spec: PvModuleSpec):
    """Module DC power in W: linear in irradiance, temperature-corrected, floored at 0."""
    poa = np.asarray(poa_global, dtype=float)
    p = spec.stc_rating * (poa / 1000.0) * (1.0 + spec.gamma * (np.asarray(t_cell, dtype=float) - 25.0))
    return np.maximum(p, 0.0)


def system_scale(spec: PvModuleSpec, system: SystemConfig) -> float:
    """Number of modules (exact real ratio) that linearly scale to system capacity."""
    return system.capacity / spec.stc_rating


def _poa_global(ghi, albedo, zenith, azimuth, airmass, e0n, system: SystemConfig):
    """The module-independent steps: plane-of-array global irradiance, and
    the night mask (zenith >= 90 degrees)."""
    comp = disc_decompose(ghi, zenith, airmass, e0n)
    poa = transpose_poa(comp, ghi, albedo, zenith, azimuth, e0n, system)
    return poa.global_, np.asarray(zenith, dtype=float) >= 90.0


def _module_system_power(poa_global, night, ambient_temp, wind_speed, spec: PvModuleSpec,
                         system: SystemConfig):
    """The per-module steps: system power in W from ``_poa_global``'s output, 0 at night."""
    t_cell = cell_temperature(poa_global, ambient_temp, wind_speed, spec)
    power = module_power(poa_global, t_cell, spec) * system_scale(spec, system)
    return np.where(night, 0.0, power)


def _chain(ghi, albedo, ambient_temp, wind_speed, zenith, azimuth, airmass, e0n,
           spec: PvModuleSpec, system: SystemConfig):
    poa_global, night = _poa_global(ghi, albedo, zenith, azimuth, airmass, e0n, system)
    return _module_system_power(poa_global, night, ambient_temp, wind_speed, spec, system)


def simulate_system(weather: WeatherSample, solar: SolarSample, spec: PvModuleSpec,
                    system: SystemConfig) -> float:
    """System AC-side-less power in W for one weather sample at one cache cell.

    Runs the full decompose -> transpose -> cell-temperature -> power chain and
    scales by capacity/stc_rating. Night (zenith >= 90 degrees) produces 0.
    """
    return float(
        _chain(weather.ghi, weather.albedo, weather.ambient_temp, weather.wind_speed,
               solar.apparent_zenith, solar.azimuth, solar.airmass, solar.e0n, spec, system)
    )


REQUIRED_VARIABLES = ("ghi", "albedo", "temperature", "wind_speed")


def simulate_ensemble(ensemble: EnsembleTensor, cache: SolarCacheTable,
                      specs, system: SystemConfig) -> EnsembleTensor:
    """Simulate power for every ensemble member and every module spec.

    Returns an EnsembleTensor whose variables are the module codes; element
    (module, l, i, j, m) is the simulated system power in W. Weather NaNs
    propagate to NaN power. The solar cache is shared across members, never
    recomputed per member.

    The chain runs one location at a time: decomposition, transposition and
    the night mask, which depend only on the weather, the sun and the
    system, run once per location; cell temperature and module power run
    once per location and spec, into that spec's slice of the output. Every
    step is elementwise, so the result is bit-identical to running the whole
    chain per spec over the whole ensemble, and no temporary is larger than
    one location's (init, lead, member) block. A cache off the ensemble's
    axes raises ``DimensionMismatchError``.
    """
    if mismatch := axis_mismatch(cache, ensemble):
        raise DimensionMismatchError(f"solar cache does not pair with the ensemble: {mismatch}")
    idx = {}
    for name in REQUIRED_VARIABLES:
        try:
            idx[name] = ensemble.variable_index(name)
        except KeyError:
            raise MissingVariableError(name) from None

    ghi, albedo, temp, wind = (ensemble.values[idx[name]] for name in REQUIRED_VARIABLES)
    out = np.empty((len(specs),) + ghi.shape)
    for l in range(ghi.shape[0]):
        sun = (a[l, ..., None] for a in (cache.apparent_zenith, cache.azimuth, cache.airmass, cache.e0n))
        poa_global, night = _poa_global(ghi[l], albedo[l], *sun, system)
        for k, spec in enumerate(specs):
            out[k, l] = _module_system_power(poa_global, night, temp[l], wind[l], spec, system)
    return EnsembleTensor(
        tuple(s.code for s in specs), ensemble.locations, ensemble.init_times,
        ensemble.lead_times, ensemble.members, _Owned(out),
    )


def _specs_from_rows(rows) -> list:
    """One PvModuleSpec per row of the ``csv.DictReader`` ``rows``: each
    field's non-empty column cast to the field's type; a missing or empty
    column takes the field's default. A row that gives no spec (a value that
    does not parse, a field with no default left out, a short row) raises
    ValueError naming its line."""
    hints = typing.get_type_hints(PvModuleSpec)
    types = {f.name: hints[f.name] for f in fields(PvModuleSpec)}
    specs = []
    for row in rows:
        try:
            specs.append(PvModuleSpec(**{key: cast(row[key]) for key, cast in types.items()
                                         if key in row and row[key] != ""}))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"line {rows.line_num}: {exc}") from None
    return specs


def load_module_specs(path) -> list:
    """Read module specs from a UTF-8 delimited text file; unknown columns
    are ignored. A row that gives no spec, or a file that is not UTF-8 text,
    raises ValueError."""
    with open(path, newline="", encoding="utf-8") as fh:
        return _specs_from_rows(csv.DictReader(fh))


def load_module_catalog() -> list:
    """The 11 bundled module specs, sorted by decreasing STC rating."""
    ref = resources.files("anensolar").joinpath("catalog/modules.csv")
    with ref.open(newline="") as fh:
        return _specs_from_rows(csv.DictReader(fh))
