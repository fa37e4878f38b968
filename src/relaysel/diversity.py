"""Finite-SNR diversity order: local log-log slopes of metric sweeps.

The diversity order is the high-SNR limit of -dlog(value)/dlog(SNR); at
finite SNR we report the local slope against log10 of the *linear* SNR
(snr_db / 10), which keeps the limit convention-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytic import aser_total
from .channel import SystemConfig, db_to_linear
from .specfn import SeriesControl, SeriesError

# asymptotic_checks' slope tolerances: fitted slope vs the expected order
# with feedback delay (1) and with full diversity (M), and the ceiling on
# the terminal local slope under an estimation-error floor (0)
TOL_DELAY = 0.15
TOL_FULL = 0.3
FLOOR_CEILING = 0.2


@dataclass(frozen=True)
class SweepCurve:
    """Metric values sampled on a strictly increasing dB grid."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.points) < 2:
            raise ValueError("a sweep curve needs at least two points")
        snrs = [p[0] for p in self.points]
        if any(b <= a for a, b in zip(snrs, snrs[1:])):
            raise ValueError("snr_db grid must be strictly increasing")
        if any(p[1] <= 0.0 for p in self.points):
            raise ValueError("curve values must be positive")

    @property
    def snr_db(self) -> np.ndarray:
        return np.array([p[0] for p in self.points])

    @property
    def values(self) -> np.ndarray:
        return np.array([p[1] for p in self.points])


def effective_diversity(curve: SweepCurve) -> list[tuple[float, float]]:
    """Local negative slope of log10(value) against log10(linear SNR):
    central differences inside, one-sided at the ends."""
    x = curve.snr_db / 10.0  # log10 of linear SNR
    y = np.log10(curve.values)
    d = np.empty(len(x))
    d[0] = -(y[1] - y[0]) / (x[1] - x[0])
    d[-1] = -(y[-1] - y[-2]) / (x[-1] - x[-2])
    d[1:-1] = -(y[2:] - y[:-2]) / (x[2:] - x[:-2])
    return list(zip(curve.snr_db.tolist(), d.tolist()))


def fit_slope(curve: SweepCurve, lo_db: float, hi_db: float) -> float:
    """Least-squares negative slope of log10(value) over [lo_db, hi_db]."""
    mask = (curve.snr_db >= lo_db - 1e-9) & (curve.snr_db <= hi_db + 1e-9)
    if int(mask.sum()) < 2:
        raise ValueError(f"need at least two points in [{lo_db}, {hi_db}] dB")
    x = curve.snr_db[mask] / 10.0
    y = np.log10(curve.values[mask])
    slope = np.polyfit(x, y, 1)[0]
    return -float(slope)


def aser_sweep(
    config: SystemConfig,
    snr_db: Sequence[float],
    ctrl: SeriesControl = SeriesControl(),
) -> SweepCurve:
    """Evaluate the closed-form ASER on a dB grid, in one call over its
    powers, and package it as a curve.  A point without a finite positive
    linear power, or at which the config leaves the float range, raises
    ValueError; the first point whose series fails raises its SeriesError."""
    results = aser_total(config, ctrl, powers=[db_to_linear(s) for s in snr_db])
    for res in results:
        if isinstance(res, SeriesError):
            raise res
    return SweepCurve(tuple((float(s), res.value) for s, res in zip(snr_db, results)))


def _expected_scenario(config: SystemConfig) -> tuple[str, float]:
    rho_e = min(fp.rho_e for fp in config.source_links + config.relay_links)
    rho_f = min(fp.rho_f for fp in config.relay_links)
    if rho_e < 1.0:
        return "estimation-error-floor", 0.0
    if rho_f < 1.0:
        return "feedback-delay", 1.0
    return "full-diversity", float(config.M)


def asymptotic_checks(
    config: SystemConfig,
    snr_db: Sequence[float],
    ctrl: SeriesControl = SeriesControl(),
) -> dict:
    """Classify a config's regime and test the terminal slope of its ASER
    over a strictly increasing dB grid (see `aser_sweep`).

    Expected orders: M for perfect CSI and fresh feedback, 1 with feedback
    delay only, 0 with estimation errors.  The estimation-error case checks
    the terminal local slope against FLOOR_CEILING; the others fit the slope
    over the last 10 dB of the grid and allow TOL_FULL or TOL_DELAY.
    """
    if len(snr_db) < 4:
        raise ValueError("need at least four points to assess a slope")
    if snr_db[-1] - snr_db[0] < 10.0:
        raise ValueError("SNR range too narrow to estimate an asymptotic slope")

    curve = aser_sweep(config, snr_db, ctrl)
    scenario, expected = _expected_scenario(config)
    if scenario == "estimation-error-floor":
        observed = effective_diversity(curve)[-1][1]
        passed = observed < FLOOR_CEILING
        detail = f"terminal slope {observed:.3f} < {FLOOR_CEILING}"
    else:
        observed = fit_slope(curve, snr_db[-1] - 10.0, snr_db[-1])
        tol = TOL_FULL if scenario == "full-diversity" else TOL_DELAY
        passed = abs(observed - expected) <= tol
        detail = f"fitted slope {observed:.3f} vs {expected} +- {tol}"
    return {
        "scenario": scenario,
        "expected_order": expected,
        "observed": observed,
        "passed": bool(passed),
        "detail": detail,
        "curve": curve,
    }
