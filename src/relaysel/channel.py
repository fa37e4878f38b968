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

The sampler draws SNRs, not complex gains: each old SNR is one
Exponential(lam) draw (`sample_gamma_batch`), and the current SNR is drawn
in place from its law given the old one (`draw_current_into`), which the
simulator does only for the relay it selects.  Both fill caller-owned
buffers, so the simulator allocates nothing per chunk.
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
    lam, c, theta = _link_constants(fp, power, convention)
    return LinkParams(
        lam=lam,
        c=c,
        theta=theta,
        sigma2_hat=fp.sigma2_hat,
        sigma2_u=(1.0 - fp.rho_e) * fp.sigma2_h,
        sigma2_e=(1.0 - fp.rho_e) * fp.sigma2_hat,
        rho_e=fp.rho_e,
        rho_f=fp.rho_f,
    )


def _link_constants(fp: FadingParams, power: float, convention: str) -> tuple[float, float, float]:
    """(lam, c, theta) of `derive_link_params`.  ValueError unless lam is
    finite and positive and, for rho_f < 1, c is finite and theta positive
    (so that the series rate 1 / (2 theta) is finite)."""
    if power <= 0.0:
        raise ValueError("power must be > 0")
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown lambda convention {convention!r}")
    sigma2_u = (1.0 - fp.rho_e) * fp.sigma2_h
    scale = fp.rho_e if convention == "paper" else fp.rho_e**2 * fp.sigma2_hat
    lam = (1.0 + power * sigma2_u) / scale if scale > 0.0 else math.inf
    if fp.rho_f == 1.0:
        c, theta = math.inf, 0.0
    else:
        one_minus = 1.0 - fp.rho_f**2
        c = 2.0 * fp.rho_f**2 * lam / one_minus
        theta = one_minus / (2.0 * lam)
    if not (0.0 < lam < math.inf) or (fp.rho_f < 1.0 and not (c < math.inf and theta > 0.0)):
        raise ValueError(
            f"link {fp} at power {power:.6g} has constants out of floating-point "
            f"range: lam = {lam:.6g}, c = {c:.6g}, theta = {theta:.6g}"
        )
    return lam, c, theta


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
        if self.alpha > 2.0:
            # the relay decode probability 1 - (alpha/2)(1 - sqrt(beta P /
            # (beta P + 2 lam))) of the closed forms is negative beyond it
            raise ValueError(f"alpha must be <= 2 for the closed forms, got {self.alpha}")
        if self.lambda_convention not in CONVENTIONS:
            raise ValueError(f"unknown lambda convention {self.lambda_convention!r}")
        for name, links in (("source_links", self.source_links), ("relay_links", self.relay_links)):
            if len(links) != self.M:
                raise ValueError(f"{name} must have exactly M={self.M} entries")
        try:
            r_o = self.r_o
        except OverflowError:
            r_o = math.inf
        if r_o == math.inf:
            raise ValueError(
                f"rate {self.rate} at power {self.power:.6g} has no finite outage "
                "threshold (2^(2R) - 1) / P"
            )
        if self.beta * self.power == math.inf:
            raise ValueError(f"beta * power = {self.beta} * {self.power:.6g} is not finite")
        # one check per distinct link object: symmetric configs repeat one
        # object, and keying by id skips hashing the dataclass fields
        for fp in {id(fp): fp for fp in self.source_links + self.relay_links}.values():
            _link_constants(fp, self.power, self.lambda_convention)

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


def sample_gamma_batch(
    config: SystemConfig,
    rng: np.random.Generator,
    n: int,
    *,
    rates: tuple[np.ndarray, np.ndarray] | None = None,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Draw n trials of the old SNRs: (n, M) arrays gamma_sm_o (source to
    relay) and gamma_md_o (relay to destination), each Exponential(lam) per
    link.  `rates` = (source lam, relay lam) skips re-deriving the links.
    `out` = (gamma_sm_o, gamma_md_o) are C-contiguous float64 (n, M) arrays
    that receive the draws in place of fresh ones; the values are the same."""
    if rates is None:
        rates = (
            np.array([lp.lam for lp in config.source_params()]),
            np.array([lp.lam for lp in config.relay_params()]),
        )
    shape = (n, config.M)
    if out is None:
        out = (np.empty(shape), np.empty(shape))
    for buf in out:
        if not (
            isinstance(buf, np.ndarray) and buf.dtype == np.float64 and buf.shape == shape
            and buf.flags.c_contiguous
        ):
            raise ValueError(f"out: expected two C-contiguous float64 arrays of shape {shape}")
    for buf, lam in zip(out, rates):
        rng.standard_exponential(out=buf)
        buf /= lam
    return {"gamma_sm_o": out[0], "gamma_md_o": out[1]}


def draw_current_into(
    rng: np.random.Generator,
    g: np.ndarray,
    rho_f: np.ndarray | float,
    theta: np.ndarray | float,
    x: np.ndarray,
    y: np.ndarray,
) -> np.ndarray:
    """Overwrite g with the current SNRs of links with rho_f < 1 given
    their old SNRs g.

    With the old estimate rotated onto the real axis, the current one is
    rho_f sqrt(g) + sqrt(theta) (x + i y) on the SNR scale, x, y ~ N(0, 1),
    so the current SNR is (rho_f sqrt(g) + sqrt(theta) x)^2 + theta y^2:
    theta times a noncentral chi-square with 2 degrees of freedom and
    noncentrality c g.  x and y are C-contiguous float64 scratch arrays of
    g's shape; rho_f and theta broadcast against g and are only read.
    Draws x, then y, from rng."""
    rng.standard_normal(out=x)
    np.sqrt(theta, out=y)
    x *= y
    np.sqrt(g, out=g)
    g *= rho_f
    g += x
    g *= g
    rng.standard_normal(out=y)
    y *= y
    y *= theta
    g += y
    return g
