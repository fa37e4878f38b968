"""Stochastic oracle: simulate the selection protocol trial by trial.

Each trial draws the old estimated SNRs of every link as exponentials,
forms the decoding set, selects the relay with the best *old* relay-to-
destination SNR, and only then draws that relay's *current* SNR given its
old one, on which the metric is scored; no other current SNR is drawn.
Trials are processed in fixed-size chunks, each chunk seeded from
SeedSequence(seed, chunk_index) and run end to end (draw, decode, select,
score) on a thread pool as wide as the available CPUs.  The calling thread
adds the per-chunk partial sums in chunk order, so results are bit-for-bit
reproducible for a given (config, seed, trials) whatever the worker count.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import SystemConfig, sample_current, sample_gamma_batch

CHUNK_SIZE = 1 << 15

# numpy's generators and ufuncs and scipy's erfc release the GIL, so chunks
# on threads use every CPU this process may run on
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)

# sample_gamma_batch is called through this module's name one thread at a
# time: a tracer that wraps that name keeps a single span stack, which
# concurrent calls would garble (lost calls and trials, wrong self times)
_DRAW_LOCK = threading.Lock()


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    trials: int
    seed: int


def _chunk_rng(seed: int, chunk_idx: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_idx,)))


def _chunks(trials: int):
    done = 0
    idx = 0
    while done < trials:
        n = min(CHUNK_SIZE, trials - done)
        yield idx, n
        done += n
        idx += 1


def _q_array(x: np.ndarray) -> np.ndarray:
    from scipy.special import erfc  # here, so importing relaysel loads no scipy

    return 0.5 * erfc(x / math.sqrt(2.0))


def _select(
    rng: np.random.Generator,
    gamma_md_o: np.ndarray,
    decoded: np.ndarray,
    rho_f: np.ndarray,
    theta: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Best old relay-destination SNR among decoded relays, then the current
    SNR of that relay alone.  Ties (probability zero for continuous draws)
    break toward the lowest index via argmax."""
    masked = np.where(decoded, gamma_md_o, -np.inf)
    m_star = np.argmax(masked, axis=1)
    best = np.take_along_axis(masked, m_star[:, None], axis=1)[:, 0]
    # -inf marks a trial in which no relay decoded
    any_dec = best > -np.inf
    g = np.where(any_dec, best, 0.0)
    return any_dec, sample_current(rng, g, rho_f[m_star], theta[m_star])


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _estimate(
    config: SystemConfig, trials: int, seed: int, decode: Callable, score: Callable
) -> McEstimate:
    """Mean and standard error of a per-trial score over `trials` trials.

    decode(rng, gamma_sm_o) returns the (n, M) mask of relays that decode;
    score(rng, any_decoded, current) returns the (n,) contributions.  Link
    constants are derived once per call, not once per chunk.
    """
    if not _is_int(trials) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    trials, seed = int(trials), int(seed)
    source, relay = config.source_params(), config.relay_params()
    rates = (np.array([lp.lam for lp in source]), np.array([lp.lam for lp in relay]))
    rho_f = np.array([lp.rho_f for lp in relay])
    theta = np.array([lp.theta for lp in relay])

    def run_chunk(chunk: tuple[int, int]) -> tuple[float, float]:
        idx, n = chunk
        rng = _chunk_rng(seed, idx)
        with _DRAW_LOCK:
            batch = sample_gamma_batch(config, rng, n, rates=rates)
        decoded = decode(rng, batch["gamma_sm_o"])
        any_dec, current = _select(rng, batch["gamma_md_o"], decoded, rho_f, theta)
        contrib = score(rng, any_dec, current)
        return float(contrib.sum()), float((contrib * contrib).sum())

    chunks = list(_chunks(trials))
    total = 0.0
    total_sq = 0.0
    with ThreadPoolExecutor(max_workers=min(_WORKERS, len(chunks))) as pool:
        for s, sq in pool.map(run_chunk, chunks):
            total += s
            total_sq += sq
    mean = total / trials
    var = max(total_sq / trials - mean * mean, 0.0)
    return McEstimate(mean, math.sqrt(var / trials), trials, seed)


def _decode_threshold(config: SystemConfig) -> Callable:
    r_o = config.r_o
    return lambda rng, gamma_sm_o: gamma_sm_o >= r_o


def simulate_outage(config: SystemConfig, trials: int, seed: int) -> McEstimate:
    """Outage frequency: empty decoding set, or selected current SNR < R_o."""
    r_o = config.r_o

    def score(rng, any_dec, current):
        return (~any_dec | (current < r_o)).astype(float)

    return _estimate(config, trials, seed, _decode_threshold(config), score)


def simulate_ser(
    config: SystemConfig, trials: int, seed: int, estimator: str = "conditional"
) -> McEstimate:
    """Average symbol error rate.

    estimator="conditional" accumulates the conditional error probability of
    each trial (1/2 with an empty decoding set, alpha Q(sqrt(beta P gamma))
    otherwise), a Rao-Blackwellized estimator whose variance is orders of
    magnitude below bit counting at high SNR.  estimator="bernoulli" flips
    an actual error bit per trial and exists as a cross-check.
    """
    if estimator not in ("conditional", "bernoulli"):
        raise ValueError(f"unknown estimator {estimator!r}")
    bp = config.beta * config.power

    def error_prob(gamma):
        return np.clip(config.alpha * _q_array(np.sqrt(bp * gamma)), 0.0, 1.0)

    def decode(rng, gamma_sm_o):
        p_relay_err = error_prob(gamma_sm_o)
        return rng.random(p_relay_err.shape) >= p_relay_err

    def score(rng, any_dec, current):
        cond_err = np.where(any_dec, error_prob(current), 0.5)
        if estimator == "bernoulli":
            return (rng.random(len(cond_err)) < cond_err).astype(float)
        return cond_err

    return _estimate(config, trials, seed, decode, score)


def simulate_capacity(config: SystemConfig, trials: int, seed: int) -> McEstimate:
    """Mean of (1/2) log2(1 + P gamma) on the selected link, 0 when no relay
    decodes; decoding gated on the old source SNR against R_o."""

    def score(rng, any_dec, current):
        return np.where(any_dec, 0.5 * np.log2(1.0 + config.power * current), 0.0)

    return _estimate(config, trials, seed, _decode_threshold(config), score)
