import numpy as np
import pytest

from relaysel.channel import FadingParams, SystemConfig
from relaysel.specfn import SeriesControl

# the one series policy: the library default, which the CLI uses as well.
# Tests that take a ctrl argument pass it explicitly
CTRL = SeriesControl()


@pytest.fixture
def ctrl():
    return CTRL


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def sym_config(M=2, power=10.0, rho_e=1.0, rho_f=0.9, rate=1.0, **kw) -> SystemConfig:
    return SystemConfig.symmetric(M=M, power=power, rho_e=rho_e, rho_f=rho_f, rate=rate, **kw)


def mixed_asym_config(M: int, power: float = 10.0) -> SystemConfig:
    """Asymmetric config with rho_e < 1 on every link; odd-indexed relay
    links have rho_f = 1 (exact order statistics), the rest rho_f < 1."""
    gen = np.random.default_rng(M)

    def link(rho_f: float) -> FadingParams:
        return FadingParams(
            sigma2_h=float(gen.uniform(0.6, 1.4)),
            rho_e=float(gen.uniform(0.85, 0.99)),
            rho_f=rho_f,
        )

    src = tuple(link(float(gen.uniform(0.5, 0.95))) for _ in range(M))
    rel = tuple(link(1.0 if i % 2 else float(gen.uniform(0.6, 0.95))) for i in range(M))
    return SystemConfig(M=M, power=power, source_links=src, relay_links=rel)


def slow_fading_asym_config(rho: float) -> SystemConfig:
    """Asymmetric M = 3 at P = 100 with rho_e = 0.97 on every link: sources
    at rho_f = 0.9, relay variances (0.95, 1.05, 1.0) and relay rho_f
    (rho, 0.99999 rho, rho), so that rho -> 1 makes the k-series of every
    relay link long while the three links stay distinct."""
    src = tuple(FadingParams(1.0, 0.97, 0.9) for _ in range(3))
    rel = tuple(
        FadingParams(v, 0.97, r) for v, r in zip((0.95, 1.05, 1.0), (rho, 0.99999 * rho, rho))
    )
    return SystemConfig(M=3, power=100.0, source_links=src, relay_links=rel)
