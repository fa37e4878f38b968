"""Fading/estimation model: parameters, derived per-link constants, sampling.

The model couples three effects per link:
  * Rayleigh fading: true gain h ~ CN(0, sigma2_h).
  * MMSE estimation error: h = rho_e * h_hat + u, so the receiver works with
    h_hat ~ CN(0, sigma2_hat) and an effective post-filter SNR
    gamma_hat = rho_e^2 |h_hat|^2 / (1 + P sigma2_u).
  * Selection staleness: the estimate used for relay selection (h_hat_o) and
    the one in force during transmission (h_hat) are jointly Gaussian with
    correlation rho_f, h_hat = rho_f h_hat_o + sigma_hat sqrt(1-rho_f^2) v.

Conditioned on the old SNR g, the current SNR is theta times a noncentral
chi-square with 2 degrees of freedom and noncentrality c*g; the constants
(lam, c, theta) below feed every closed form in `analytic`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .specfn import bessel_j0

CONVENTIONS = ("derived", "paper")


@dataclass(frozen=True)
class FadingParams:
    """Per-link fading, estimation and staleness parameters."""

    sigma2_h: float = 1.0
    rho_e: float = 1.0
    rho_f: float = 1.0

    def __post_init__(self):
        if not (self.sigma2_h > 0.0 and math.isfinite(self.sigma2_h)):
            raise ValueError(f"sigma2_h must be finite and > 0, got {self.sigma2_h}")
        if not 0.0 < self.rho_e <= 1.0:
            raise ValueError(f"rho_e must be in (0, 1], got {self.rho_e}")
        if not 0.0 <= self.rho_f <= 1.0:
            raise ValueError(f"rho_f must be in [0, 1], got {self.rho_f}")

    @property
    def sigma2_hat(self) -> float:
        return self.sigma2_h / self.rho_e


@dataclass(frozen=True)
class LinkParams:
    """Derived constants of one link at a given transmit power.

    lam is the exponential rate of the effective SNR, c the noncentrality
    coupling of current-given-old (+inf when rho_f = 1), theta the
    conditional scale ((1 - rho_f^2) / (2 lam), 0 when rho_f = 1).
    """

    lam: float
    c: float
    theta: float
    sigma2_hat: float
    sigma2_u: float
    sigma2_e: float
    rho_e: float
    rho_f: float

    @property
    def degenerate(self) -> bool:
        """True when rho_f = 1: current SNR equals the old one exactly."""
        return self.rho_f == 1.0

    @property
    def q(self) -> float:
        """Series rate lam / (1 - rho_f^2) = 1 / (2 theta)."""
        if self.degenerate:
            return math.inf
        return 0.5 / self.theta


def derive_link_params(fp: FadingParams, power: float, convention: str = "derived") -> LinkParams:
    """Map (fading params, power) to the constants the closed forms use.

    convention="paper" uses the nominal rate lam = (1 + P sigma2_u) / rho_e;
    convention="derived" uses lam = (1 + P sigma2_u) / (rho_e^2 sigma2_hat),
    the rate that makes the sampled gamma_hat exactly Exponential(lam).  The
    two coincide when rho_e * sigma2_hat = 1 (in particular for perfect CSI
    with unit estimate variance).
    """
    if power <= 0.0:
        raise ValueError("power must be > 0")
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown lambda convention {convention!r}")
    sigma2_hat = fp.sigma2_hat
    sigma2_u = (1.0 - fp.rho_e) * fp.sigma2_h
    sigma2_e = (1.0 - fp.rho_e) * sigma2_hat
    if convention == "paper":
        lam = (1.0 + power * sigma2_u) / fp.rho_e
    else:
        lam = (1.0 + power * sigma2_u) / (fp.rho_e**2 * sigma2_hat)
    if fp.rho_f == 1.0:
        c, theta = math.inf, 0.0
    else:
        one_minus = 1.0 - fp.rho_f**2
        c = 2.0 * fp.rho_f**2 * lam / one_minus
        theta = one_minus / (2.0 * lam)
    return LinkParams(
        lam=lam,
        c=c,
        theta=theta,
        sigma2_hat=sigma2_hat,
        sigma2_u=sigma2_u,
        sigma2_e=sigma2_e,
        rho_e=fp.rho_e,
        rho_f=fp.rho_f,
    )


def doppler_correlation(f_d: float, block_duration: float, delay_blocks: int) -> float:
    """Correlation J0(2 pi f_d T i) between estimates i blocks apart.

    The raw Bessel value is returned; it can be negative past the first zero,
    in which case it is not admissible as rho_f (FadingParams rejects it).
    """
    if f_d < 0.0:
        raise ValueError("Doppler frequency must be nonnegative")
    if block_duration <= 0.0:
        raise ValueError("block duration must be positive")
    if delay_blocks < 1:
        raise ValueError("delay must be at least one block")
    return bessel_j0(2.0 * math.pi * f_d * block_duration * delay_blocks)


@dataclass(frozen=True)
class SystemConfig:
    """Full system description: M relays, two hops per relay, one power."""

    M: int
    power: float
    rate: float = 1.0
    alpha: float = 1.0
    beta: float = 2.0
    source_links: tuple[FadingParams, ...] = ()
    relay_links: tuple[FadingParams, ...] = ()
    lambda_convention: str = "derived"

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be >= 1")
        for name in ("power", "rate", "alpha", "beta"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if self.lambda_convention not in CONVENTIONS:
            raise ValueError(f"unknown lambda convention {self.lambda_convention!r}")
        for name, links in (("source_links", self.source_links), ("relay_links", self.relay_links)):
            if len(links) != self.M:
                raise ValueError(f"{name} must have exactly M={self.M} entries")

    @classmethod
    def symmetric(
        cls,
        M: int,
        power: float,
        rate: float = 1.0,
        alpha: float = 1.0,
        beta: float = 2.0,
        rho_e: float = 1.0,
        rho_f: float = 1.0,
        sigma2_h: float | None = None,
        lambda_convention: str = "derived",
    ) -> "SystemConfig":
        """All links identical; sigma2_h defaults to rho_e (unit sigma2_hat)."""
        if sigma2_h is None:
            sigma2_h = rho_e
        fp = FadingParams(sigma2_h=sigma2_h, rho_e=rho_e, rho_f=rho_f)
        return cls(
            M=M,
            power=power,
            rate=rate,
            alpha=alpha,
            beta=beta,
            source_links=(fp,) * M,
            relay_links=(fp,) * M,
            lambda_convention=lambda_convention,
        )

    @property
    def r_o(self) -> float:
        """Outage threshold (2^(2R) - 1) / P on the normalized SNR."""
        return (2.0 ** (2.0 * self.rate) - 1.0) / self.power

    def with_power(self, power: float) -> "SystemConfig":
        return replace(self, power=power)

    def source_params(self) -> list[LinkParams]:
        return [derive_link_params(fp, self.power, self.lambda_convention) for fp in self.source_links]

    def relay_params(self) -> list[LinkParams]:
        return [derive_link_params(fp, self.power, self.lambda_convention) for fp in self.relay_links]

    def is_symmetric(self) -> bool:
        return all(fp == self.source_links[0] for fp in self.source_links) and all(
            fp == self.relay_links[0] for fp in self.relay_links
        )


@dataclass(frozen=True)
class TrialDraw:
    """One joint realization of estimates and effective SNRs for all links."""

    h_sm_o_hat: np.ndarray
    h_sm_hat: np.ndarray
    h_md_o_hat: np.ndarray
    h_md_hat: np.ndarray
    gamma_sm_o: np.ndarray
    gamma_md_o: np.ndarray
    gamma_md: np.ndarray


def _complex_normal(rng: np.random.Generator, n: int, m: int, variance: np.ndarray) -> np.ndarray:
    z = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    return z * np.sqrt(np.asarray(variance) / 2.0)


def _gamma_scale(config: SystemConfig, links: tuple[FadingParams, ...]) -> np.ndarray:
    """Factor mapping |h_hat|^2 to gamma_hat such that E[gamma_hat] = 1/lam."""
    out = np.empty(len(links))
    for i, fp in enumerate(links):
        lp = derive_link_params(fp, config.power, config.lambda_convention)
        out[i] = 1.0 / (lp.lam * fp.sigma2_hat)
    return out


def sample_gamma_batch(config: SystemConfig, rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    """Draw n joint trials; returns (n, M) arrays of the three SNRs used
    by the selection protocol: gamma_sm_o, gamma_md_o, gamma_md."""
    M = config.M
    s_var = np.array([fp.sigma2_hat for fp in config.source_links])
    r_var = np.array([fp.sigma2_hat for fp in config.relay_links])
    rho_f = np.array([fp.rho_f for fp in config.relay_links])

    h_sm_o = _complex_normal(rng, n, M, s_var)
    h_md_o = _complex_normal(rng, n, M, r_var)
    v = _complex_normal(rng, n, M, np.ones(M))
    h_md = rho_f * h_md_o + np.sqrt(r_var) * np.sqrt(1.0 - rho_f**2) * v

    s_scale = _gamma_scale(config, config.source_links)
    r_scale = _gamma_scale(config, config.relay_links)
    return {
        "gamma_sm_o": np.abs(h_sm_o) ** 2 * s_scale,
        "gamma_md_o": np.abs(h_md_o) ** 2 * r_scale,
        "gamma_md": np.abs(h_md) ** 2 * r_scale,
        "h_md_o_hat": h_md_o,
        "h_md_hat": h_md,
        "h_sm_o_hat": h_sm_o,
    }


def sample_trial(config: SystemConfig, rng: np.random.Generator) -> TrialDraw:
    """One TrialDraw; gamma fields are deterministic functions of the drawn
    complex estimates (current source estimates are drawn for completeness,
    the protocol itself only consumes the three gamma arrays)."""
    batch = sample_gamma_batch(config, rng, 1)
    M = config.M
    s_var = np.array([fp.sigma2_hat for fp in config.source_links])
    s_rho_f = np.array([fp.rho_f for fp in config.source_links])
    v = _complex_normal(rng, 1, M, np.ones(M))
    h_sm = s_rho_f * batch["h_sm_o_hat"] + np.sqrt(s_var) * np.sqrt(1.0 - s_rho_f**2) * v
    return TrialDraw(
        h_sm_o_hat=batch["h_sm_o_hat"][0],
        h_sm_hat=h_sm[0],
        h_md_o_hat=batch["h_md_o_hat"][0],
        h_md_hat=batch["h_md_hat"][0],
        gamma_sm_o=batch["gamma_sm_o"][0],
        gamma_md_o=batch["gamma_md_o"][0],
        gamma_md=batch["gamma_md"][0],
    )
