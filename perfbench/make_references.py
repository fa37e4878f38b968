#!/usr/bin/env python3
"""Regenerate the reference outputs the benchmark gates against.

    python3 perfbench/make_references.py

* references/figures.json: the 781 rows of figures 1-9 as the program
  computes them (a snapshot of the commit that defined the benchmark).
* references/scaling.json:
  - "draws": for each of the POOL asymmetric parameter draws, the value and
    condition estimate of every M-axis point (snapshot);
  - "common": the seed-independent rho_f-axis points (snapshot);
  - "independent": the rho_f = 0.9999 ASER and capacity points, which the
    series cannot reach, by nested scipy quadrature over the old-SNR density
    and the noncentral chi-square law of the current SNR.  This path uses
    neither relaysel.specfn nor the series.  Before they are written, the
    same quadrature is checked against the program at rho_f = 0.999, where
    the series converges, to the gate's tolerance.

Snapshots record what the program computed; rerunning this script on a later
commit overwrites them, so do that only on purpose.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy import integrate, special, stats

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

# the series converges here, so the quadrature can be checked against it
MODEL_RHO_F = 0.999


def _rows(rows, with_cond: bool) -> list:
    if with_cond:
        return [[r.snr_db, r.value, r.condition_estimate] for r in rows]
    return [[r.snr_db, r.metric, r.label, r.value] for r in rows]


def figures() -> dict:
    return {str(fig): _rows(workloads.run_figure(fig), False) for fig in range(1, 10)}


# ---------------------------------------------------------------------------
# independent references: nested quadrature, symmetric M = 3, rho_e = 1
# ---------------------------------------------------------------------------

def _inner(f, theta: float, nc: float, nodes: int, panels: int) -> float:
    """E[f(theta Y)], Y ~ noncentral chi-square(2, nc), by composite
    Gauss-Legendre over +-14 standard deviations of Y."""
    mean, sd = 2.0 + nc, math.sqrt(4.0 + 4.0 * nc)
    edges = np.linspace(max(0.0, mean - 14.0 * sd), mean + 14.0 * sd + 60.0, panels + 1)
    return sum(
        integrate.fixed_quad(lambda y: f(theta * y) * stats.ncx2.pdf(y, 2.0, nc), a, b, n=nodes)[0]
        for a, b in zip(edges[:-1], edges[1:])
    )


def quadrature_point(metric: str, rho_f: float, power: float, M: int = 3,
                     nodes: int = 64, panels: int = 12) -> float:
    """ASER or capacity lower bound of SystemConfig.symmetric(M, power,
    rho_f=rho_f) under the "derived" convention, from the model directly:
    unit-variance links give lam = 1, c = 2 rho_f^2 lam / (1 - rho_f^2) and
    theta = (1 - rho_f^2) / (2 lam); rate 1 and BPSK (alpha 1, beta 2)."""
    lam, alpha, beta = 1.0, 1.0, 2.0
    one_minus = 1.0 - rho_f**2
    c = 2.0 * rho_f**2 * lam / one_minus
    theta = one_minus / (2.0 * lam)
    if metric == "aser":
        bp = beta * power
        f = lambda g: alpha * 0.5 * special.erfc(np.sqrt(bp * g / 2.0))  # noqa: E731
        p = 1.0 - 0.5 * alpha * (1.0 - math.sqrt(bp / (bp + 2.0 * lam)))
        empty = 0.5
    else:
        f = lambda g: 0.5 * np.log2(1.0 + power * g)  # noqa: E731
        p = math.exp(-lam * 3.0 / power)  # R_o = (2^(2R) - 1) / P
        empty = 0.0
    total = empty * (1.0 - p) ** M
    for size in range(1, M + 1):
        def outer(g: float) -> float:
            # m has the largest old SNR among `size` identical decoded relays
            dens = lam * math.exp(-lam * g) * (-math.expm1(-lam * g)) ** (size - 1)
            return dens * _inner(f, theta, c * g, nodes, panels)

        val, _ = integrate.quad(outer, 0.0, 60.0 / lam, points=[1e-3, 1e-2, 0.1, 1.0, 5.0],
                                epsabs=0.0, epsrel=1e-10, limit=400)
        total += math.comb(M, size) * p**size * (1.0 - p) ** (M - size) * size * val
    return total


def _within_gate(got: float, want: float) -> bool:
    return abs(got - want) <= workloads.INDEPENDENT_RTOL * abs(want) + workloads.INDEPENDENT_ATOL


def check_model(common: dict) -> None:
    """Compare the quadrature with the program's snapshot at MODEL_RHO_F,
    where both give a value, so a mistake in the quadrature's model (p, the
    empty-set value, the order-statistic density, the ncx2 scaling) stops
    the script instead of becoming a reference."""
    for metric in workloads.PROBE_METRICS:
        for snr, value, _ in common[f"rho_f={MODEL_RHO_F}.{metric}"]:
            quad = quadrature_point(metric, MODEL_RHO_F, 10.0 ** (snr / 10.0))
            print(f"model check {metric} {snr:g} dB: series {value!r}, quadrature {quad!r}",
                  file=sys.stderr)
            if not _within_gate(quad, value):
                raise SystemExit(f"quadrature disagrees with the series for {metric} at {snr} dB, "
                                 f"rho_f = {MODEL_RHO_F}")


def independent() -> dict[str, float]:
    out = {}
    for metric in workloads.PROBE_METRICS:
        for snr in workloads.SNR_DB:
            power = 10.0 ** (snr / 10.0)
            coarse = quadrature_point(metric, workloads.PROBE_RHO_F, power)
            fine = quadrature_point(metric, workloads.PROBE_RHO_F, power, nodes=96, panels=16)
            diff = abs(fine - coarse)
            print(f"{metric} {snr:g} dB: {fine!r} (coarse/fine diff {diff:.2g})", file=sys.stderr)
            if diff > 0.1 * (workloads.INDEPENDENT_RTOL * abs(fine) + workloads.INDEPENDENT_ATOL):
                raise SystemExit(f"quadrature not converged for {metric} at {snr} dB")
            out[f"rho_f={workloads.PROBE_RHO_F}.{metric}@{snr:g}"] = fine
    return out


def scaling() -> dict:
    common = {
        name: _rows(workloads._sweep(metric, cfg, grid), True)
        for name, metric, cfg, grid, _ in workloads.scaling_inputs(0)
        if name.startswith("rho_f=")
    }
    check_model(common)
    probes = independent()
    draws = []
    for draw in range(workloads.POOL):
        draws.append({
            name: _rows(workloads._sweep(metric, cfg, grid), True)
            for name, metric, cfg, grid, _ in workloads.scaling_inputs(draw)
            if not name.startswith("rho_f=")
        })
        print(f"scaling draw {draw} done", file=sys.stderr)
    return {"draws": draws, "common": common, "independent": probes}


def main() -> None:
    refs = workloads.REFERENCES
    refs.mkdir(exist_ok=True)
    (refs / "figures.json").write_text(json.dumps(figures()) + "\n")
    (refs / "scaling.json").write_text(json.dumps(scaling()) + "\n")


if __name__ == "__main__":
    main()
