"""Output checks of the two CLI workloads against references recorded from
the commit that added the benchmark (expected.json, written by record.py).

``analogs.ansr``, ``ensemble.ansr`` and ``weights.csv`` must match their
recorded SHA-256 digests bit for bit. ``power.ansr`` must hold no negative
value, and each of its summaries must match the recorded one within the
relative tolerance ``power_rel`` of expected.json. Each value of ``report.csv``
must match within ``report_rel`` of the largest value in its column. So a
last-ulp change in the PV chain or in CRPS does not count as wrong.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

POWER_STRIDE = 7


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _float_block(path: Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    sep = raw.find(b"\x00\n")
    if sep < 0:
        raise ValueError(f"{path}: no header/payload separator")
    return np.frombuffer(raw[sep + 2:], dtype="<f8")


def power_summary(path: Path) -> dict:
    """NaN count, sum and sum of squares of the power block, plus the sums of
    its POWER_STRIDE interleaved slices, so a change anywhere shows."""
    x = _float_block(path)
    nan = np.isnan(x)
    v = np.where(nan, 0.0, x)
    return {
        "values": int(x.size),
        "nan": int(nan.sum()),
        "sums": [float(v.sum()), float((v * v).sum())]
                + [float(v[k::POWER_STRIDE].sum()) for k in range(POWER_STRIDE)],
    }


def report_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh)]


def chain_reference(out: Path) -> dict:
    return {
        "analogs_sha256": sha256(out / "analogs.ansr"),
        "ensemble_sha256": sha256(out / "ensemble.ansr"),
        "power": power_summary(out / "power.ansr"),
        "report": report_rows(out / "report.csv"),
    }


def weights_reference(out: Path) -> dict:
    return {"weights_sha256": sha256(out / "weights.csv")}


def _check_power(out: Path, ref: dict, rel: float) -> str | None:
    got = power_summary(out / "power.ansr")
    if (got["values"], got["nan"]) != (ref["values"], ref["nan"]):
        return f"power.ansr has {got['values']} values, {got['nan']} NaN; expected {ref['values']}, {ref['nan']}"
    if np.nanmin(_float_block(out / "power.ansr")) < 0:
        return "power.ansr has negative values"
    # With no negative value every summary is its own sum of |v| (or of v*v),
    # so each is held to the relative tolerance on its own scale.
    for k, (a, b) in enumerate(zip(got["sums"], ref["sums"])):
        if not math.isclose(a, b, rel_tol=rel):
            return f"power.ansr summary {k} is {a!r}, expected {b!r}"
    return None


def _check_report(out: Path, ref: list, rel: float) -> str | None:
    got = report_rows(out / "report.csv")
    if len(got) != len(ref) or got[0] != ref[0]:
        return "report.csv header or row count differs"
    for col in range(1, len(ref[0])):
        exact = ref[0][col] == "count"
        scale = max(abs(float(row[col])) for row in ref[1:]) if len(ref) > 1 else 0.0
        for g, r in zip(got[1:], ref[1:]):
            if g[0] != r[0]:
                return f"report.csv group {g[0]!r} where {r[0]!r} was expected"
            a, b = float(g[col]), float(r[col])
            if (a != b) if exact else not math.isclose(a, b, rel_tol=rel, abs_tol=rel * scale):
                return f"report.csv {ref[0][col]} of group {r[0]} is {a!r}, expected {b!r}"
    return None


def _digest(out: Path, name: str, expected: str) -> str | None:
    path = out / name
    if not path.exists():
        return f"{name} was not written"
    got = sha256(path)
    return None if got == expected else f"{name} digest {got[:12]} differs from {expected[:12]}"


def check_chain(out: Path, ref: dict, tolerance: dict) -> list:
    """One (name, problem or None) per check of a forecast chain."""
    results = [
        ("analogs", _digest(out, "analogs.ansr", ref["analogs_sha256"])),
        ("ensemble", _digest(out, "ensemble.ansr", ref["ensemble_sha256"])),
    ]
    for name, file, fn, rel in (("power", "power.ansr", _check_power, tolerance["power_rel"]),
                                ("report", "report.csv", _check_report, tolerance["report_rel"])):
        if not (out / file).exists():
            results.append((name, f"{file} was not written"))
            continue
        try:
            results.append((name, fn(out, ref[name], rel)))
        except (ValueError, IndexError) as exc:
            results.append((name, f"{file} cannot be read: {exc}"))
    return results


def check_weights(out: Path, ref: dict) -> list:
    return [("weights", _digest(out, "weights.csv", ref["weights_sha256"]))]
