"""Deterministic solar astronomy: sun position, extraterrestrial irradiance,
relative air mass, and a precomputed cache shared by all ensemble members.

The position algorithm is the NOAA/Meeus low-precision ephemeris (about 0.2
degrees over 2000-2050), which is plenty at mesoscale grid spacing and hourly
cadence. Air mass is the Kasten-Young relative formula without pressure
correction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coredata import MISSING, LeadTimeAxis, LocationSet, TimeAxis, _Owned, _Tensor

SOLAR_CONSTANT = 1361.1  # W/m^2, total solar irradiance at 1 AU

_DEG = np.pi / 180.0


def _day_of_year(epoch_seconds) -> np.ndarray:
    t = np.asarray(epoch_seconds, dtype="int64").astype("datetime64[s]")
    days = t.astype("datetime64[D]")
    year_start = days.astype("datetime64[Y]").astype("datetime64[D]")
    return (days - year_start).astype("int64") + 1


def distance_correction(day_of_year, form: str = "cosine") -> np.ndarray:
    """Earth-sun distance irradiance correction r, so that E0n = S0 * r.

    ``form`` selects the published approximation: "cosine" is
    1 + 0.033*cos(2*pi*doy/365); "spencer" is the four-term Fourier series.
    """
    doy = np.asarray(day_of_year, dtype=float)
    if form == "cosine":
        return 1.0 + 0.033 * np.cos(2.0 * np.pi * doy / 365.0)
    if form == "spencer":
        g = 2.0 * np.pi * (doy - 1.0) / 365.0
        return (
            1.000110
            + 0.034221 * np.cos(g)
            + 0.001280 * np.sin(g)
            + 0.000719 * np.cos(2.0 * g)
            + 0.000077 * np.sin(2.0 * g)
        )
    raise ValueError(f"unknown distance-correction form {form!r}")


def extraterrestrial_normal(epoch_seconds, solar_constant: float = SOLAR_CONSTANT,
                            form: str = "cosine"):
    """Extraterrestrial normal irradiance E0n in W/m^2 at the given UTC instant(s)."""
    r = distance_correction(_day_of_year(epoch_seconds), form=form)
    out = solar_constant * r
    if np.isscalar(epoch_seconds):
        return float(out)
    return out


def relative_airmass(apparent_zenith):
    """Kasten-Young relative air mass; NaN at or below the horizon (zenith >= 90)."""
    z = np.asarray(apparent_zenith, dtype=float)
    with np.errstate(invalid="ignore"):
        am = 1.0 / (np.cos(z * _DEG) + 0.50572 * (96.07995 - z) ** (-1.6364))
        am = np.where(z >= 90.0, MISSING, am)
    if np.isscalar(apparent_zenith):
        return float(am)
    return am


@dataclass(frozen=True)
class SolarPosition:
    """Sun position at one instant and place (angles in degrees, EOT in minutes)."""

    apparent_zenith: float
    azimuth: float
    declination: float
    equation_of_time: float


def _sun_geometry(t):
    """Declination (degrees) and equation of time (minutes) at UTC instants
    ``t`` (epoch seconds); the place-independent half of the ephemeris."""
    jd = t / 86400.0 + 2440587.5
    jc = (jd - 2451545.0) / 36525.0

    geom_mean_long = np.mod(280.46646 + jc * (36000.76983 + 0.0003032 * jc), 360.0)
    geom_mean_anom = 357.52911 + jc * (35999.05029 - 0.0001537 * jc)
    ecc = 0.016708634 - jc * (0.000042037 + 0.0000001267 * jc)

    m = geom_mean_anom * _DEG
    eq_center = (
        np.sin(m) * (1.914602 - jc * (0.004817 + 0.000014 * jc))
        + np.sin(2 * m) * (0.019993 - 0.000101 * jc)
        + np.sin(3 * m) * 0.000289
    )
    true_long = geom_mean_long + eq_center
    omega = (125.04 - 1934.136 * jc) * _DEG
    app_long = true_long - 0.00569 - 0.00478 * np.sin(omega)

    mean_obliq = 23.0 + (26.0 + (21.448 - jc * (46.815 + jc * (0.00059 - jc * 0.001813))) / 60.0) / 60.0
    obliq = mean_obliq + 0.00256 * np.cos(omega)

    decl = np.arcsin(np.sin(obliq * _DEG) * np.sin(app_long * _DEG)) / _DEG

    y = np.tan(obliq * _DEG / 2.0) ** 2
    l0 = geom_mean_long * _DEG
    eot = 4.0 / _DEG * (
        y * np.sin(2 * l0)
        - 2.0 * ecc * np.sin(m)
        + 4.0 * ecc * y * np.sin(m) * np.cos(2 * l0)
        - 0.5 * y * y * np.sin(4 * l0)
        - 1.25 * ecc * ecc * np.sin(2 * m)
    )  # minutes
    return decl, eot


def _true_zenith(t, lat, lon, decl, eot):
    """Geometric zenith in degrees (no refraction) at UTC instants ``t``
    (epoch seconds) and places ``lat``/``lon`` (degrees), broadcast together,
    with the array its cosine was built in and where the hour angle is past
    noon. ``decl`` and ``eot`` are ``_sun_geometry(t)``."""
    # true solar time in minutes, then the hour angle in degrees
    hour_angle = np.add(np.mod(t, 86400.0) / 60.0 + eot, 4.0 * lon,
                        out=np.empty(np.broadcast_shapes(t.shape, lat.shape, lon.shape)))
    np.mod(hour_angle, 1440.0, out=hour_angle)
    np.divide(hour_angle, 4.0, out=hour_angle)
    wrap = hour_angle < 0.0
    np.subtract(hour_angle, 180.0, out=hour_angle)
    np.add(hour_angle, 360.0, out=hour_angle, where=wrap)
    afternoon = hour_angle > 0.0

    phi = lat * _DEG
    d = decl * _DEG
    cos_zen = np.multiply(hour_angle, _DEG, out=hour_angle)  # h
    np.cos(cos_zen, out=cos_zen)
    np.multiply(np.cos(phi) * np.cos(d), cos_zen, out=cos_zen)
    np.add(np.sin(phi) * np.sin(d), cos_zen, out=cos_zen)
    np.clip(cos_zen, -1.0, 1.0, out=cos_zen)
    zen = np.arccos(cos_zen, out=np.empty_like(cos_zen))
    np.divide(zen, _DEG, out=zen)
    return zen, cos_zen, afternoon


def _refract(zen):
    """The apparent zenith: ``zen``, a geometric zenith, less the refraction
    correction and clipped to [0, 180], in place."""
    np.subtract(zen, _refraction_correction(90.0 - zen), out=zen)
    np.clip(zen, 0.0, 180.0, out=zen)
    return zen


def _apparent_zenith(epoch_seconds, latitude, longitude):
    """The apparent zenith of ``_noaa_arrays`` alone, in degrees; broadcasts
    over inputs and spends nothing on the azimuth."""
    t = np.asarray(epoch_seconds, dtype=float)
    decl, eot = _sun_geometry(t)
    zen, _, _ = _true_zenith(t, np.asarray(latitude, dtype=float), np.asarray(longitude, dtype=float),
                             decl, eot)
    return _refract(zen)


def _noaa_arrays(epoch_seconds, latitude, longitude, geometry=None):
    """Vectorized NOAA ephemeris; broadcasts over inputs.

    Returns (apparent_zenith, azimuth, declination, equation_of_time).
    Azimuth is degrees clockwise from north; zenith includes the standard
    atmospheric refraction correction. Each intermediate of the broadcast
    shape is computed in place in one of three buffers, which become the
    zenith and the azimuth, so memory follows a few fields, not every step.
    ``geometry``, when given, is ``_sun_geometry`` of the same instants,
    computed once for several calls.
    """
    t = np.asarray(epoch_seconds, dtype=float)
    lat = np.asarray(latitude, dtype=float)
    lon = np.asarray(longitude, dtype=float)
    decl, eot = _sun_geometry(t) if geometry is None else geometry
    zen, cos_zen, afternoon = _true_zenith(t, lat, lon, decl, eot)

    phi = lat * _DEG
    d = decl * _DEG
    with np.errstate(invalid="ignore", divide="ignore"):
        az = np.multiply(np.sin(phi), cos_zen, out=cos_zen)  # the azimuth ratio
        np.subtract(az, np.sin(d), out=az)
        spare = np.multiply(zen, _DEG, out=np.empty_like(zen))
        np.sin(spare, out=spare)
        np.multiply(np.cos(phi), spare, out=spare)
        np.divide(az, spare, out=az)
        np.clip(az, -1.0, 1.0, out=az)
        np.arccos(az, out=az)
        np.divide(az, _DEG, out=az)
    az[np.isnan(az)] = 0.0
    # clockwise from north: 540 - az in the morning, az + 180 in the afternoon
    np.subtract(540.0, az, out=spare)
    np.mod(spare, 360.0, out=spare)
    np.add(az, 180.0, out=az)
    np.mod(az, 360.0, out=az)
    np.copyto(az, spare, where=~afternoon)
    del spare
    return _refract(zen), az, decl, eot


def _refraction_correction(elevation_deg):
    """NOAA atmospheric refraction in degrees as a function of true elevation."""
    e = np.asarray(elevation_deg, dtype=float)
    r = np.zeros_like(e)  # above 85 degrees
    # each band's formula on the cells of that band alone; a NaN elevation
    # falls in the lowest band, whose tangent is taken at -9 degrees or above
    low = ~(e > -0.575)
    mid = (e > -0.575) & (e <= 5.0)
    high = (e > 5.0) & (e <= 85.0)
    te = np.tan(np.maximum(e[low], -9.0) * _DEG)
    r[low] = -20.772 / te
    em = e[mid]
    r[mid] = 1735.0 + em * (-518.2 + em * (103.4 + em * (-12.79 + 0.711 * em)))
    te = np.tan(e[high] * _DEG)
    r[high] = 58.1 / te - 0.07 / te**3 + 0.000086 / te**5
    np.divide(r, 3600.0, out=r)
    return r


def solar_position(epoch_seconds: float, latitude: float, longitude: float) -> SolarPosition:
    """Sun position for one UTC instant at (latitude, longitude) in degrees."""
    zen, az, decl, eot = _noaa_arrays(float(epoch_seconds), float(latitude), float(longitude))
    return SolarPosition(float(zen), float(az), float(decl), float(eot))


@dataclass(frozen=True)
class SolarSample:
    """One precomputed cell of the solar cache."""

    apparent_zenith: float
    azimuth: float
    e0n: float
    airmass: float


@dataclass(frozen=True)
class SolarCacheTable(_Tensor):
    """Sun geometry precomputed once for every (location, init, lead) cell.

    All arrays are (L, I, J). The table is immutable and meant to be shared:
    every ensemble member and every module reads the same astronomy instead of
    recomputing it.
    """

    locations: LocationSet
    init_times: TimeAxis
    lead_times: LeadTimeAxis
    apparent_zenith: np.ndarray
    azimuth: np.ndarray
    e0n: np.ndarray
    airmass: np.ndarray

    AXES = ("locations", "init_times", "lead_times")
    ARRAYS = ("apparent_zenith", "azimuth", "e0n", "airmass")

    def daylight_mask(self) -> np.ndarray:
        """True where the sun is above the horizon (zenith < 90 degrees)."""
        return self.apparent_zenith < 90.0

    def sample(self, location: int, init_index: int, lead_index: int) -> SolarSample:
        idx = (location, init_index, lead_index)
        return SolarSample(*(float(getattr(self, f)[idx]) for f in self.ARRAYS))


class SunTerms(NamedTuple):
    """The place-independent terms of the ephemeris at the valid times of
    an (init, lead) grid, each (1, I, J): the instants, the declination, the
    equation of time and the extraterrestrial irradiance."""

    instants: np.ndarray
    declination: np.ndarray
    equation_of_time: np.ndarray
    e0n: np.ndarray


def sun_terms(init_times: TimeAxis, lead_times: LeadTimeAxis) -> SunTerms:
    """The ``SunTerms`` of every (init, lead) valid time, which a command
    that builds one cache per location computes once and passes to each
    ``precompute_solar`` call."""
    valid = init_times.instants[None, :, None] + lead_times.offsets[None, None, :]  # (1, I, J)
    t = valid.astype(float)
    return SunTerms(t, *_sun_geometry(t), extraterrestrial_normal(valid))


def precompute_solar(locations: LocationSet, init_times: TimeAxis,
                     lead_times: LeadTimeAxis, sun: SunTerms | None = None) -> SolarCacheTable:
    """Precompute sun geometry over the full location x init x lead cross
    product. ``sun`` is ``sun_terms(init_times, lead_times)``, computed here
    when not given; only the zenith, azimuth and air mass depend on the
    place, so the caches of separate locations under one ``sun`` equal
    those locations of one cache over them all, bit for bit."""
    if sun is None:
        sun = sun_terms(init_times, lead_times)
    lat = locations.latitude[:, None, None]
    lon = locations.longitude[:, None, None]
    zen, az, _, _ = _noaa_arrays(sun.instants, lat, lon, (sun.declination, sun.equation_of_time))
    shape = (len(locations), len(init_times), len(lead_times))
    e0n = np.broadcast_to(sun.e0n, shape)
    am = relative_airmass(zen)
    # zen, az and am are fresh arrays the table keeps uncopied; the broadcast
    # view is copied into an array of its own
    return SolarCacheTable(locations, init_times, lead_times, _Owned(zen), _Owned(az), e0n, _Owned(am))
