"""Decode-and-forward relay selection under outdated CSI and estimation
errors: exact closed-form outage / SER / capacity metrics with independent
Monte-Carlo validation.

Importing the package loads the closed forms (analytic, channel, diversity,
specfn) and numpy.  The Monte-Carlo names (`McEstimate`, `simulate_*`) load
relaysel.montecarlo, and with it its thread pool, on first access.
"""

from .analytic import (
    DecodingSet,
    MetricCurve,
    MetricResult,
    all_decoding_sets,
    aser_conditional_pdf,
    aser_total,
    capacity_lb_avg,
    cdf_max_others,
    outage_conditional,
    outage_conditional_quadrature,
    outage_total,
    prob_decoding_set,
    prob_relay_decodes,
    relay_error_prob,
    selected_snr_pdf,
)
from .channel import (
    FadingParams,
    LinkParams,
    SystemConfig,
    derive_link_params,
    doppler_correlation,
)
from .diversity import SweepCurve, asymptotic_checks, effective_diversity, fit_slope
from .specfn import SeriesControl, SeriesError

__version__ = "0.1.0"

__all__ = [
    "DecodingSet",
    "FadingParams",
    "LinkParams",
    "McEstimate",
    "MetricCurve",
    "MetricResult",
    "SeriesControl",
    "SeriesError",
    "SweepCurve",
    "SystemConfig",
    "all_decoding_sets",
    "aser_conditional_pdf",
    "aser_total",
    "asymptotic_checks",
    "capacity_lb_avg",
    "cdf_max_others",
    "derive_link_params",
    "doppler_correlation",
    "effective_diversity",
    "fit_slope",
    "outage_conditional",
    "outage_conditional_quadrature",
    "outage_total",
    "prob_decoding_set",
    "prob_relay_decodes",
    "relay_error_prob",
    "selected_snr_pdf",
    "simulate_capacity",
    "simulate_outage",
    "simulate_ser",
    "__version__",
]

# resolved from relaysel.montecarlo on first access (PEP 562)
_SIMULATOR_NAMES = frozenset({"McEstimate", "simulate_capacity", "simulate_outage", "simulate_ser"})


def __getattr__(name: str):
    if name in _SIMULATOR_NAMES:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SIMULATOR_NAMES)
