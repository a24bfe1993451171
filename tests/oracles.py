"""Independent reference implementations used as test oracles.

Each oracle is deliberately written as plain scalar code on a different route
than the library (no shared helpers), so agreement is meaningful:

- ``psa_position``: the Blanco-Muriel PSA ephemeris (a published almanac
  algorithm distinct from the library's NOAA-class one);
- ``disc_reference``: the DISC coefficient tables evaluated term by term;
- ``brute_force_search``: exhaustive evaluation of the windowed similarity
  metric plus a full sort;
- ``naive_average_linkage``: average-linkage merges with cluster distances
  recomputed from the raw pairwise matrix at every step (no incremental
  update);
- ``lance_williams_linkage``: the library's earlier average linkage, one
  ``argmin`` over the whole Lance-Williams matrix per merge, kept verbatim.
  Like ``reference_weight_score`` it shares the library's arithmetic: it pins
  the stored-nearest-neighbour ``average_linkage_merges`` to the same merges
  and heights with ``==``, mathematically tied averages included;
- ``gather_members``: the multivariate ensemble gather as scalar loops;
- ``lookup_aligned``: per-element valid-time search for observation alignment;
- ``reference_weight_score``: the weight objective as the plain chain of
  library stages, one fresh search per call. Unlike the others it reuses the
  library: it pins the table-scan ``WeightObjective`` to the composition it
  replaces;
- ``per_location_search``: per-location weight rows as one search per
  one-location slice, merged along the location axis; it pins the single
  search with (L, P) weights to that composition;
- ``loop_aggregate``: grouped verification with one Python key per cell; it
  pins the group-code ``aggregate`` to that loop;
- ``whole_array_refraction``: the library's earlier refraction correction,
  every band's formula over every cell, kept verbatim. It shares the
  library's arithmetic: it pins the banded ``_refraction_correction`` to the
  same bits.
"""

from __future__ import annotations

import math

import numpy as np


# -- PSA solar ephemeris --------------------------------------------------------

def psa_position(epoch_seconds: float, latitude: float, longitude: float):
    """Blanco-Muriel et al. solar vector: (zenith_deg, azimuth_deg from north)."""
    rad = math.pi / 180.0
    earth_mean_radius = 6371.01
    astronomical_unit = 149597890.0

    secs = float(epoch_seconds)
    days = int(secs // 86400)
    rem = secs - days * 86400.0
    date = np.datetime64(int(secs), "s").astype("datetime64[D]")
    ymd = str(date).split("-")
    year, month, day = int(ymd[0]), int(ymd[1]), int(ymd[2])
    decimal_hours = rem / 3600.0

    li_aux1 = int((month - 14) / 12) if (month - 14) < 0 else (month - 14) // 12
    li_aux1 = math.trunc((month - 14) / 12.0)
    li_aux2 = (
        (1461 * (year + 4800 + li_aux1)) // 4
        + (367 * (month - 2 - 12 * li_aux1)) // 12
        - (3 * ((year + 4900 + li_aux1) // 100)) // 4
        + day - 32075
    )
    julian_date = li_aux2 - 0.5 + decimal_hours / 24.0
    elapsed = julian_date - 2451545.0

    omega = 2.1429 - 0.0010394594 * elapsed
    mean_longitude = 4.8950630 + 0.017202791698 * elapsed
    mean_anomaly = 6.2400600 + 0.0172019699 * elapsed
    ecliptic_longitude = (
        mean_longitude
        + 0.03341607 * math.sin(mean_anomaly)
        + 0.00034894 * math.sin(2 * mean_anomaly)
        - 0.0001134
        - 0.0000203 * math.sin(omega)
    )
    ecliptic_obliquity = 0.4090928 - 6.2140e-9 * elapsed + 0.0000396 * math.cos(omega)

    sin_el = math.sin(ecliptic_longitude)
    dy = math.cos(ecliptic_obliquity) * sin_el
    dx = math.cos(ecliptic_longitude)
    right_ascension = math.atan2(dy, dx)
    if right_ascension < 0:
        right_ascension += 2 * math.pi
    declination = math.asin(math.sin(ecliptic_obliquity) * sin_el)

    gmst = 6.6974243242 + 0.0657098283 * elapsed + decimal_hours
    lmst = (gmst * 15 + longitude) * rad
    hour_angle = lmst - right_ascension
    lat_rad = latitude * rad
    cos_lat = math.cos(lat_rad)
    sin_lat = math.sin(lat_rad)
    cos_ha = math.cos(hour_angle)
    zenith = math.acos(cos_lat * cos_ha * math.cos(declination) + math.sin(declination) * sin_lat)
    dy = -math.sin(hour_angle)
    dx = math.tan(declination) * cos_lat - sin_lat * cos_ha
    azimuth = math.atan2(dy, dx)
    if azimuth < 0:
        azimuth += 2 * math.pi
    azimuth /= rad
    parallax = (earth_mean_radius / astronomical_unit) * math.sin(zenith)
    zenith = (zenith + parallax) / rad
    return zenith, azimuth


def whole_array_refraction(elevation_deg):
    """NOAA atmospheric refraction in degrees as a function of true elevation."""
    e = np.asarray(elevation_deg, dtype=float)
    te = np.tan(np.clip(e, -9.0, 89.9) * (np.pi / 180.0))
    # each band overwrites the one below it, one full-shape term at a time
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.divide(-20.772, te, out=np.empty_like(e))
        np.copyto(r, 1735.0 + e * (-518.2 + e * (103.4 + e * (-12.79 + 0.711 * e))), where=e > -0.575)
        np.copyto(r, 58.1 / te - 0.07 / te**3 + 0.000086 / te**5, where=e > 5.0)
    r[e > 85.0] = 0.0
    np.divide(r, 3600.0, out=r)
    return r


# -- DISC reference --------------------------------------------------------------

def disc_reference(ghi: float, zenith_deg: float, airmass: float, e0n: float):
    """Scalar DISC decomposition from the published coefficient tables.

    Returns (dni, dhi, kt) under the same domain rules as the library: kt
    clamped to [0, 1.1], dni clipped to [0, e0n], no direct component at
    zenith >= 87.5 degrees or zero GHI, dhi floored at zero.
    """
    cos_z = math.cos(math.radians(zenith_deg))
    if e0n * cos_z != 0:
        kt = ghi / (e0n * cos_z)
    else:
        kt = 0.0
    kt = min(max(kt, 0.0), 1.1)

    if zenith_deg >= 87.5 or ghi <= 0.0:
        dni = 0.0
        if ghi <= 0.0:
            kt = 0.0
    else:
        am = airmass
        if kt <= 0.6:
            a = 0.512 - 1.56 * kt + 2.286 * kt * kt - 2.222 * kt ** 3
            b = 0.37 + 0.962 * kt
            c = -0.28 + 0.932 * kt - 2.048 * kt * kt
        else:
            a = -5.743 + 21.77 * kt - 27.49 * kt * kt + 11.56 * kt ** 3
            b = 41.4 - 118.5 * kt + 66.05 * kt * kt + 31.9 * kt ** 3
            c = -47.01 + 184.2 * kt - 222.0 * kt * kt + 73.81 * kt ** 3
        delta_kn = a + b * math.exp(c * am)
        knc = 0.866 - 0.122 * am + 0.0121 * am * am - 0.000653 * am ** 3 + 1.4e-5 * am ** 4
        dni = (knc - delta_kn) * e0n
        dni = min(max(dni, 0.0), e0n)
    dhi = max(ghi - dni * cos_z, 0.0)
    return dni, dhi, kt


# -- similarity / search oracle ---------------------------------------------------

def eq1_distance(values, loc, t, t_prime, lead, weights, sigma, half_window, sigma_epsilon):
    """Scalar windowed similarity; inf when the candidate misses a needed value."""
    n_pred = values.shape[0]
    n_lead = values.shape[3]
    total = 0.0
    for p in range(n_pred):
        w = weights[p]
        s = sigma[p, loc, lead]
        if w == 0.0 or math.isnan(s) or s < sigma_epsilon:
            continue
        acc = 0.0
        for j in range(-half_window, half_window + 1):
            k = lead + j
            if k < 0 or k >= n_lead:
                continue
            f = values[p, loc, t, k]
            a = values[p, loc, t_prime, k]
            if math.isnan(f):
                continue
            if math.isnan(a):
                return math.inf
            diff = f - a
            acc += diff * diff  # x*x, not x**2: the scalar pow path is not exact
        total += (w / s) * math.sqrt(acc)
    return total


def population_sigma(values, search_start, search_stop):
    """Per (predictor, location, lead) population std over finite search values."""
    n_pred, n_loc, _, n_lead = values.shape
    out = np.full((n_pred, n_loc, n_lead), np.nan)
    for p in range(n_pred):
        for l in range(n_loc):
            for j in range(n_lead):
                xs = [values[p, l, i, j] for i in range(search_start, search_stop)
                      if not math.isnan(values[p, l, i, j])]
                if len(xs) >= 2:
                    mean = sum(xs) / len(xs)
                    out[p, l, j] = math.sqrt(sum((x - mean) ** 2 for x in xs) / len(xs))
    return out


def brute_force_search(values, weights, members, half_window, sigma_epsilon,
                       test_range, search_range, operational, sigma=None,
                       allow_partial=False):
    """Exhaustive analog search; returns (index, distance) arrays shaped
    (L, n_test, n_lead, members) with NaN padding, or raises if a cell has
    fewer finite candidates than members and partial lists are not allowed."""
    n_pred, n_loc, n_init, n_lead = values.shape
    if sigma is None:
        sigma = population_sigma(values, search_range.start, search_range.stop)
    tests = list(test_range)
    out_i = np.full((n_loc, len(tests), n_lead, members), np.nan)
    out_d = np.full((n_loc, len(tests), n_lead, members), np.nan)
    for l in range(n_loc):
        for row, t in enumerate(tests):
            for j in range(n_lead):
                if operational:
                    cands = [c for c in range(search_range.start, t)]
                else:
                    cands = list(range(search_range.start, search_range.stop))
                scored = []
                for c in cands:
                    d = eq1_distance(values, l, t, c, j, weights, sigma, half_window, sigma_epsilon)
                    if math.isfinite(d):
                        scored.append((d, c))
                scored.sort(key=lambda pair: (pair[0], pair[1]))
                take = scored[:members]
                if len(take) < members and not allow_partial:
                    raise AssertionError("oracle: insufficient candidates")
                for m, (d, c) in enumerate(take):
                    out_i[l, row, j, m] = c
                    out_d[l, row, j, m] = d
    return out_i, out_d


# -- gather / alignment oracles ----------------------------------------------------

def gather_members(aligned_values, search_index):
    """Scalar multivariate gather: member m of every variable comes from the
    same historical init index."""
    n_var = aligned_values.shape[0]
    n_loc, n_test, n_lead, members = search_index.shape
    out = np.full((n_var, n_loc, n_test, n_lead, members), np.nan)
    for v in range(n_var):
        for l in range(n_loc):
            for t in range(n_test):
                for j in range(n_lead):
                    for m in range(members):
                        src = search_index[l, t, j, m]
                        if not math.isnan(src):
                            out[v, l, t, j, m] = aligned_values[v, l, int(src), j]
    return out


def lookup_aligned(obs_values, obs_times, init_times, lead_times):
    """Per-element exact valid-time lookup."""
    n_var, n_loc, _ = obs_values.shape
    out = np.full((n_var, n_loc, len(init_times), len(lead_times)), np.nan)
    index_of = {int(t): k for k, t in enumerate(obs_times)}
    for v in range(n_var):
        for l in range(n_loc):
            for i, t0 in enumerate(init_times):
                for j, dt in enumerate(lead_times):
                    k = index_of.get(int(t0) + int(dt))
                    if k is not None:
                        out[v, l, i, j] = obs_values[v, l, k]
    return out


# -- clustering oracle ---------------------------------------------------------------

def naive_average_linkage(points, stop_at=1):
    """O(n^3) average linkage recomputing cluster distances from the raw
    pairwise matrix at every merge; same positional tie-breaking as the
    library (smallest pair (i, j))."""
    n = len(points)
    base = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            base[i, j] = math.sqrt(sum((points[i][k] - points[j][k]) ** 2
                                       for k in range(points.shape[1])))
    clusters = [[i] for i in range(n)]
    merges = []
    while len(clusters) > stop_at:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                total = 0.0
                for a in clusters[i]:
                    for b in clusters[j]:
                        total += base[a, b]
                d = total / (len(clusters[i]) * len(clusters[j]))
                if best is None or d < best[2]:
                    best = (i, j, d)
        i, j, d = best
        merges.append((tuple(clusters[i]), tuple(clusters[j]), d))
        clusters[i] = clusters[i] + clusters[j]
        del clusters[j]
    return merges, clusters


def lance_williams_linkage(points: np.ndarray, stop_at: int = 1):
    """Agglomerative merge sequence under unweighted average linkage.

    Starting from singleton clusters, repeatedly joins the pair with the
    smallest average Euclidean distance until ``stop_at`` clusters remain;
    ties between numerically equal distances are broken by the smallest
    positional pair (i, j), and the merged cluster replaces position i while
    position j is removed. Distances are maintained with the Lance-Williams
    update, whose rounding can separate averages that are mathematically
    tied, so such a tie may go to another pair than a direct recomputation
    of the averages would pick.

    Each merge is one ``argmin`` over the remaining k x k distance matrix
    with the diagonal and lower triangle masked to +inf: its row-major first
    occurrence is the smallest positional pair. A merge costs O(k^2) array
    work and no Python loop, O(n^3) element operations in all.

    Returns (merges, member lists) where each merge records
    (members of i, members of j, linkage distance) at the time of merging.
    """
    n = len(points)
    if stop_at < 1 or stop_at > n:
        raise ValueError(f"stop_at must be in 1..{n}")
    members = [[i] for i in range(n)]
    sizes = np.ones(n)
    if points.size:
        d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    else:
        d = np.zeros((n, n))
    # +inf on and below the diagonal; its leading k x k block masks k clusters
    lower = np.where(np.tri(n, dtype=bool), np.inf, 0.0)
    merges = []
    while len(members) > stop_at:
        k = len(members)
        best_i, best_j = divmod(int(np.argmin(d + lower[:k, :k])), k)
        best_d = d[best_i, best_j]
        merges.append((tuple(members[best_i]), tuple(members[best_j]), float(best_d)))
        ni, nj = sizes[best_i], sizes[best_j]
        row = (ni * d[best_i, :] + nj * d[best_j, :]) / (ni + nj)
        d[best_i, :] = row
        d[:, best_i] = row
        d[best_i, best_i] = 0.0
        keep = np.arange(len(members)) != best_j
        d = d[np.ix_(keep, keep)]
        members[best_i] = members[best_i] + members[best_j]
        sizes[best_i] += sizes[best_j]
        del members[best_j]
        sizes = np.delete(sizes, best_j)
    return merges, members


# -- CRPS oracle ----------------------------------------------------------------------

def crps_double_sum(members, truth):
    m = len(members)
    term1 = sum(abs(x - truth) for x in members) / m
    term2 = sum(abs(x - y) for x in members for y in members) / (2.0 * m * m)
    return term1 - term2


# -- weight objective oracle ------------------------------------------------------------

def reference_weight_score(forecasts, analysis, config, test_range, search_range,
                           spec, system, weights, loc):
    """Mean daylight CRPS of the power ensemble of one weight vector at one
    location: search_analogs on the single-location slice ->
    build_multivariate_ensemble -> simulate_ensemble -> crps_field."""
    import dataclasses

    from anensolar.anen import build_multivariate_ensemble, compute_sigma, search_analogs
    from anensolar.coredata import align_observations
    from anensolar.driver import analysis_weather_ensemble
    from anensolar.pvchain import simulate_ensemble
    from anensolar.solar import precompute_solar
    from anensolar.verify import crps_field

    sigma = compute_sigma(forecasts, search_range)
    fc = forecasts.at_locations(loc, loc + 1)
    sg = sigma.at_locations(loc, loc + 1)
    an = analysis.at_locations(loc, loc + 1)
    truth_weather = analysis_weather_ensemble(an, fc.init_times, fc.lead_times, test_range)
    cache = precompute_solar(fc.locations, truth_weather.init_times, fc.lead_times)
    truth = simulate_ensemble(truth_weather, cache, [spec], system).values[0, ..., 0]

    cfg = dataclasses.replace(config, weights=np.asarray(weights, dtype=float))
    indices = search_analogs(fc, cfg, test_range, search_range, sg)
    aligned = align_observations(an, fc.init_times, fc.lead_times)
    weather = build_multivariate_ensemble(indices, aligned)
    power = simulate_ensemble(weather, cache, [spec], system).values[0]
    scores = crps_field(power, truth)
    ok = cache.daylight_mask() & np.isfinite(scores) & np.isfinite(truth)
    if not ok.any():
        return float("inf")
    return float(scores[ok].mean())


# -- per-location search oracle ------------------------------------------------------------

def per_location_search(forecasts, config, test_range, search_range, weight_rows, sigma=None):
    """Analog search with one weight row per location, composed from one-location
    searches: slice location l out of the archive (and of ``sigma``), search it
    with row l, and stack the (index, distance) results along the location axis.
    Reuses the library's search on each slice."""
    import dataclasses

    from anensolar.anen import search_analogs

    index, distance = [], []
    for loc, row in enumerate(np.asarray(weight_rows, dtype=float)):
        fc = forecasts.at_locations(loc, loc + 1)
        sg = None if sigma is None else sigma.at_locations(loc, loc + 1)
        found = search_analogs(fc, dataclasses.replace(config, weights=row), test_range,
                               search_range, sg)
        index.append(found.search_index)
        distance.append(found.distance)
    return np.concatenate(index), np.concatenate(distance)


# -- grouped verification oracle --------------------------------------------------------------

def loop_aggregate(ensemble, truth, grouping, *, init_times=None, alignment=None,
                   daylight=None, region_map=None):
    """Grouped verification with an object array of group keys per cell and a
    per-cell Python loop collecting each group's flat indices. Reuses the
    library's metric fields and report types."""
    from anensolar.verify import (
        DAYPART_SLOTS,
        SEASON_OF_MONTH,
        ReportRow,
        VerifyReport,
        _month_of,
        crps_field,
        spread_field,
    )

    if grouping in ("lead-time", "lead_time"):
        grouping = "lead"
    ens = np.asarray(ensemble, dtype=float)
    if ens.ndim == 3:
        ens = ens[..., None]
    tru = np.asarray(truth, dtype=float)
    n_loc, n_init, n_lead, _ = ens.shape
    valid = np.isfinite(tru) & np.all(np.isfinite(ens), axis=-1)
    if daylight is not None:
        valid &= daylight
    err = ens.mean(axis=-1) - tru
    crps_all = crps_field(ens, tru)
    spread_all = spread_field(ens)
    if alignment is not None:
        slots = alignment.slots(n_lead)
    else:
        slots = np.broadcast_to(np.arange(n_lead)[None, :], (n_loc, n_lead))
    if grouping == "season":
        season = np.array([SEASON_OF_MONTH[m] for m in _month_of(init_times.instants)])

    keys = np.empty((n_loc, n_init, n_lead), dtype=object)
    for l in range(n_loc):
        for j in range(n_lead):
            if grouping == "lead":
                keys[l, :, j] = int(slots[l, j])
            elif grouping == "daypart":
                label = None
                for part, (lo, hi) in DAYPART_SLOTS.items():
                    if lo <= int(slots[l, j]) <= hi:
                        label = part
                keys[l, :, j] = label
            elif grouping == "location":
                keys[l, :, j] = l
            elif grouping == "region":
                keys[l, :, j] = region_map.get(l) if region_map else None
            else:
                keys[l, :, j] = season

    groups = {}
    flat_keys = keys.ravel()
    for idx in np.flatnonzero(valid.ravel()):
        if flat_keys[idx] is not None:
            groups.setdefault(flat_keys[idx], []).append(idx)
    e2, b, c, s = ((err ** 2).ravel(), err.ravel(), crps_all.ravel(), spread_all.ravel())
    rows = []
    for k in sorted(groups, key=lambda v: (str(type(v)), v)):
        sel = np.array(groups[k])
        rows.append(ReportRow(k, float(np.sqrt(e2[sel].mean())), float(b[sel].mean()),
                              float(c[sel].mean()), float(s[sel].mean()), int(sel.size)))
    return VerifyReport(grouping, tuple(rows))
