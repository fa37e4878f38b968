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
(lam, c, theta) below feed every closed form in `analytic`.  A FadingParams
keeps the parts of them that do not depend on the power (sigma2_u, each
convention's rate scale, 1 - rho_f^2 and 2 rho_f^2), so deriving a link at
one power takes a few flops.

The sampler draws SNRs, not complex gains: each old SNR is one
Exponential(lam) draw (`sample_gamma_batch`).  The current SNR given the
old one is a draw and a kernel: `draw_current_noise` draws the two standard
normals of a trial, and `current_snr_into` turns an old SNR and that noise
into the current SNR in place.  The simulator draws the noise once per
trial and runs the kernel only for the relay it selects, so the branches
that select different relays on one trial share the draw.  Every function
here fills caller-owned buffers, so the simulator allocates nothing per
chunk.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

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
        # (sigma2_u, rate scale per convention, 1 - rho_f^2, 2 rho_f^2): not a
        # field, as SystemConfig._symmetric is not, so ==, hash and repr skip it
        scales = {"paper": self.rho_e, "derived": self.rho_e**2 * self.sigma2_hat}
        parts = (self.sigma2_u, scales, 1.0 - self.rho_f**2, 2.0 * self.rho_f**2)
        object.__setattr__(self, "_constants", parts)

    @property
    def sigma2_hat(self) -> float:
        """Variance of the estimate h_hat."""
        return self.sigma2_h / self.rho_e

    @property
    def sigma2_u(self) -> float:
        """Variance of the residual u in h = rho_e h_hat + u."""
        return (1.0 - self.rho_e) * self.sigma2_h

    @property
    def sigma2_e(self) -> float:
        """Estimation-error variance (1 - rho_e) sigma2_hat."""
        return (1.0 - self.rho_e) * self.sigma2_hat


@dataclass(frozen=True)
class LinkParams:
    """Derived constants of one link at a given transmit power.

    lam is the exponential rate of the effective SNR, c the noncentrality
    coupling of current-given-old (+inf when rho_f = 1), theta the
    conditional scale ((1 - rho_f^2) / (2 lam), 0 when rho_f = 1).  Kernel
    tables depend on these four fields alone; what does not depend on the
    power (rho_e and the variances) is read from FadingParams.
    """

    lam: float
    c: float
    theta: float
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
    link = object.__new__(LinkParams)  # as with_power: no frozen __init__ setattrs
    link.__dict__.update(lam=lam, c=c, theta=theta, rho_f=fp.rho_f)
    return link


def _link_constants(fp: FadingParams, power: float, convention: str) -> tuple[float, float, float]:
    """(lam, c, theta) of `derive_link_params`.  ValueError unless lam is
    finite and positive and, for rho_f < 1, c is finite and theta positive
    (so that the series rate 1 / (2 theta) is finite)."""
    if power <= 0.0:
        raise ValueError("power must be > 0")
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown lambda convention {convention!r}")
    sigma2_u, scales, one_minus, two_rho2 = fp._constants
    scale = scales[convention]
    lam = (1.0 + power * sigma2_u) / scale if scale > 0.0 else math.inf
    if fp.rho_f == 1.0:
        c, theta = math.inf, 0.0
    else:
        c = two_rho2 * lam / one_minus
        # lam = 0 (an overflowed scale) fails the range check, not the division
        theta = one_minus / (2.0 * lam) if lam > 0.0 else math.inf
    if not (0.0 < lam < math.inf) or (fp.rho_f < 1.0 and not (c < math.inf and theta > 0.0)):
        raise ValueError(
            f"link {fp} at power {power:.6g} has constants out of floating-point "
            f"range: lam = {lam:.6g}, c = {c:.6g}, theta = {theta:.6g}"
        )
    return lam, c, theta


def db_to_linear(db: float) -> float:
    """10^(db / 10), the linear power of a level in dB; ValueError unless
    that is finite and > 0.  A numpy scalar is taken as the float it holds:
    its power warns on overflow where a float's raises OverflowError."""
    db = float(db)
    try:
        power = 10.0 ** (db / 10.0)
    except OverflowError:
        power = math.inf
    if not (math.isfinite(power) and power > 0.0):
        raise ValueError(f"{db!r} dB has no finite positive linear power")
    return power


def _check_positive(name: str, value: float) -> None:
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


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


class PowerRangeError(ValueError):
    """A power-dependent check of `SystemConfig.at_powers` failed at
    `powers[index]`; the text is that of `SystemConfig.with_power`."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


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
            _check_positive(name, getattr(self, name))
        # numpy scalar arithmetic warns on overflow where float arithmetic
        # gives inf or raises, which the range checks turn into typed errors
        object.__setattr__(self, "power", float(self.power))
        if self.alpha > 2.0:
            # the relay decode probability 1 - (alpha/2)(1 - sqrt(beta P /
            # (beta P + 2 lam))) of the closed forms is negative beyond it
            raise ValueError(f"alpha must be <= 2 for the closed forms, got {self.alpha}")
        if self.lambda_convention not in CONVENTIONS:
            raise ValueError(f"unknown lambda convention {self.lambda_convention!r}")
        for name, links in (("source_links", self.source_links), ("relay_links", self.relay_links)):
            if len(links) != self.M:
                raise ValueError(f"{name} must have exactly M={self.M} entries")
        # a plain attribute, not a field: ==, hash and replace see only the
        # fields, replace reruns this check, and with_power copies its result,
        # which does not depend on the power.  Tuple == compares items by
        # identity before ==, and stops at the first unequal pair.
        src, rel = tuple(self.source_links), tuple(self.relay_links)
        object.__setattr__(self, "_symmetric", src == (src[0],) * self.M and rel == (rel[0],) * self.M)
        self._check_power_range()

    def _check_power_range(self) -> None:
        """The checks that depend on the power, given a valid power and
        valid other fields: a finite R_o and beta P, and link constants in
        floating-point range."""
        try:
            r_o = self.r_o
        except OverflowError:
            r_o = math.inf
        if r_o == math.inf:
            raise ValueError(
                f"rate {self.rate} at power {self.power:.6g} has no finite outage "
                "threshold (2^(2R) - 1) / P"
            )
        if not 0.0 < self.beta * self.power < math.inf:
            raise ValueError(
                f"beta * power = {self.beta} * {self.power:.6g} is not finite and > 0"
            )
        # one check per distinct link: equal links have equal constants, so a
        # symmetric config checks its first source and relay link, and the
        # others are keyed by id, which skips hashing the dataclass fields
        if self._symmetric:
            links = (self.source_links[0], self.relay_links[0])
        else:
            links = self.source_links + self.relay_links
        for fp in {id(fp): fp for fp in links}.values():
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
        """This config at another power.  It equals
        `dataclasses.replace(self, power=power)` in ==, hash and
        is_symmetric(), and raises the same ValueErrors, but it copies the
        other fields as they are and reruns only the checks that depend on
        the power."""
        _check_positive("power", power)
        new = self._copy_at(float(power))  # as __post_init__ takes it
        new._check_power_range()
        return new

    def at_powers(self, powers: Sequence[float]) -> list["SystemConfig"]:
        """This config at each of the powers, in order, equal to what
        `with_power` builds, with the checks run at the smallest and the
        largest power only.  Each check compares the result of correctly
        rounded arithmetic that is monotone in the power, so the powers that
        pass form one interval, and its two ends vouch for every power
        between them.  A failing check raises `PowerRangeError` with the
        text `with_power` raises and the index of the power; a power that is
        not finite and > 0 fails before the ends, the smallest before the
        largest."""

        def check(i: int) -> None:
            try:
                self.with_power(powers[i])
            except ValueError as e:
                raise PowerRangeError(str(e), i) from e

        for i, power in enumerate(powers):
            if not (power > 0.0 and math.isfinite(power)):
                check(i)
        if powers:
            indices = range(len(powers))
            check(min(indices, key=powers.__getitem__))
            check(max(indices, key=powers.__getitem__))
        return [self._copy_at(float(power)) for power in powers]

    def _copy_at(self, power: float) -> "SystemConfig":
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, power=power)
        return new

    def source_params(self) -> list[LinkParams]:
        return self._derive(self.source_links)

    def relay_params(self) -> list[LinkParams]:
        return self._derive(self.relay_links)

    def symmetric_params(self) -> tuple[LinkParams, LinkParams]:
        """The (source, relay) LinkParams of relay 0, which on a symmetric
        config are those of every relay.  Both hops holding one FadingParams
        object, as `symmetric` builds them, take one derivation."""
        src, rel = self.source_links[0], self.relay_links[0]
        source = derive_link_params(src, self.power, self.lambda_convention)
        if rel is src:
            return source, source
        return source, derive_link_params(rel, self.power, self.lambda_convention)

    def _derive(self, links: tuple[FadingParams, ...]) -> list[LinkParams]:
        """derive_link_params of every link, in order, called once per
        distinct link object (keyed by id, as in __post_init__)."""
        out, derived = [], {}
        for fp in links:
            lp = derived.get(id(fp))
            if lp is None:
                lp = derived[id(fp)] = derive_link_params(fp, self.power, self.lambda_convention)
            out.append(lp)
        return out

    def is_symmetric(self) -> bool:
        """True when all source links are equal and all relay links are."""
        return self._symmetric


def per_link(values) -> float | np.ndarray:
    """Per-link constants as one float when every link shares it, as on
    identical links, else as an (M,) array; `sample_gamma_batch` and the
    simulator take either, and a float skips the per-link arithmetic."""
    values = [float(v) for v in values]
    if values.count(values[0]) == len(values):
        return values[0]
    return np.array(values)


def sample_gamma_batch(
    config: SystemConfig,
    rng: np.random.Generator,
    n: int,
    *,
    rates: tuple[np.ndarray | float, np.ndarray | float] | None = None,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Draw n trials of the old SNRs: (n, M) arrays gamma_sm_o (source to
    relay) and gamma_md_o (relay to destination), each Exponential(lam) per
    link.  `rates` = (source rate, relay rate), each a float or an (M,)
    array as `per_link` gives it, sets the rates that the draws are taken
    at in place of the config's lam, which are then not derived.  They need
    not be the config's: `montecarlo.simulate` passes 1.0 for the relay hop
    on identical relay links and divides only the selected draw by lam, and
    a rate of 1.0 costs no divide.  `out` = (gamma_sm_o, gamma_md_o) are
    C-contiguous float64 (n, M) arrays that receive the draws in place of
    fresh ones; the values are the same."""
    if rates is None:
        rates = (
            per_link(lp.lam for lp in config.source_params()),
            per_link(lp.lam for lp in config.relay_params()),
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
        if np.ndim(lam) == 0:
            if lam != 1.0:  # a unit rate leaves the draws as they are
                buf /= lam
            continue
        # column by column: a broadcast divide by the (M,) rates runs an
        # inner loop only M long, and is slower for the same bits
        for j, rate in enumerate(lam):
            buf[:, j] /= rate
    return {"gamma_sm_o": out[0], "gamma_md_o": out[1]}


def draw_current_noise(rng: np.random.Generator, x: np.ndarray, y: np.ndarray) -> None:
    """Fill x, then y, with standard normals: the noise of one current SNR
    per entry, which `current_snr_into` turns into that SNR."""
    rng.standard_normal(out=x)
    rng.standard_normal(out=y)


def current_snr_into(
    g: np.ndarray,
    rho_f: np.ndarray | float,
    theta: np.ndarray | float,
    x: np.ndarray,
    y: np.ndarray,
    scratch: np.ndarray,
) -> np.ndarray:
    """Overwrite g with the current SNRs of links with rho_f < 1 given
    their old SNRs g and the noise x, y ~ N(0, 1).

    With the old estimate rotated onto the real axis, the current one is
    rho_f sqrt(g) + sqrt(theta) (x + i y) on the SNR scale, so the current
    SNR is (rho_f sqrt(g) + sqrt(theta) x)^2 + theta y^2: theta times a
    noncentral chi-square with 2 degrees of freedom and noncentrality c g.
    rho_f and theta broadcast against g; they, x and y are only read.
    scratch is a float64 array of g's shape, apart from x and y, that is
    overwritten."""
    np.sqrt(theta, out=scratch)
    scratch *= x
    np.sqrt(g, out=g)
    g *= rho_f
    g += scratch
    g *= g
    np.multiply(y, y, out=scratch)
    scratch *= theta
    g += scratch
    return g
