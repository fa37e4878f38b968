"""Stochastic oracle: simulate the selection protocol trial by trial.

Each trial draws the old estimated SNRs of every link as exponentials,
forms the decoding set, selects the relay with the best *old* relay-to-
destination SNR, and only then draws that relay's *current* SNR given its
old one, on which the metric is scored; no other current SNR is drawn.
Trials are processed in fixed-size chunks, each chunk seeded from
SeedSequence(seed, chunk_index) and run end to end (draw, decode, select,
score).  The chunks are dealt round-robin to one task per worker on a thread
pool as wide as the available CPUs; each task allocates one workspace and
runs every chunk it is dealt in place in it, so the per-chunk path allocates
no array of chunk size.  The SER decode evaluates erfc only for the entries
that the Chernoff bound Q(x) <= exp(-x^2/2)/2 cannot decide, and compares
those exactly, so its mask is the exact mask.  The calling thread adds the
per-chunk partial sums in chunk order, so results are bit-for-bit
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

from .channel import SystemConfig, draw_current_into, sample_gamma_batch

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

# the screen's bound is computed to ~1e-13 relative and the exact error
# probability to a few ulps; the slack keeps every screened entry decided
# the way the exact comparison decides it.  Below the smallest normal float
# the relative accuracy of both is gone, so such bounds decide nothing.
_SCREEN_SLACK = 1.0 + 1e-9
_SCREEN_FLOOR = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    trials: int
    seed: int


class _Workspace:
    """The buffers of one worker task, reused by every chunk it runs; a
    chunk of n trials works on the leading [:n] views.  Pages are touched
    only by the steps that use them, so a metric that needs no uniforms
    costs no memory for them."""

    def __init__(self, M: int):
        links = (CHUNK_SIZE, M)
        # old SNRs, SER uniforms, and a scratch for the SER bound and error
        # probabilities and for the selection mask
        self.sm, self.md, self.u, self.scratch = (np.empty(links) for _ in range(4))
        self.decoded, self.undecided, self.flag = (np.empty(links, bool) for _ in range(3))
        self.m_star, self.pick = np.empty(CHUNK_SIZE, np.intp), np.empty(CHUNK_SIZE, np.intp)
        # per trial: the selected SNR, its live subset, the selected link
        # constants and two normal scratch vectors that the score reuses
        self.g, self.g_live, self.rho, self.theta, self.x, self.y = (
            np.empty(CHUNK_SIZE) for _ in range(6)
        )
        self.none, self.live = np.empty(CHUNK_SIZE, bool), np.empty(CHUNK_SIZE, bool)


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


def _error_prob_into(gamma: np.ndarray, alpha: float, bp: float) -> np.ndarray:
    """Overwrite gamma with the symbol error probability at SNR gamma,
    clip(alpha Q(sqrt(bp gamma)), 0, 1), Q(x) = erfc(x / sqrt 2) / 2."""
    from scipy.special import erfc  # here, so importing relaysel loads no scipy

    gamma *= bp
    np.sqrt(gamma, out=gamma)
    gamma /= math.sqrt(2.0)
    erfc(gamma, out=gamma)
    gamma *= 0.5
    gamma *= alpha
    return np.clip(gamma, 0.0, 1.0, out=gamma)


def _decode_screened(ws: _Workspace, n: int, alpha: float, bp: float) -> np.ndarray:
    """Relays that decode a symbol: u >= clip(alpha Q(sqrt(bp gamma)), 0, 1)
    per entry, for the old source SNRs gamma in ws.sm[:n] (overwritten) and
    the uniforms u in ws.u[:n].

    Q(x) <= exp(-x^2/2)/2 (Chiani, Dardari & Simon 2003), so an entry with u
    at or above that bound decodes; erfc runs only on the other entries.
    """
    gamma, u, bound = ws.sm[:n], ws.u[:n], ws.scratch[:n]
    np.multiply(gamma, -0.5 * bp, out=bound)
    np.exp(bound, out=bound)
    bound *= 0.5 * alpha * _SCREEN_SLACK
    np.clip(bound, _SCREEN_FLOOR, 1.0, out=bound)
    decoded = np.greater_equal(u, bound, out=ws.decoded[:n])
    undecided = np.logical_not(decoded, out=ws.undecided[:n])
    idx = np.flatnonzero(undecided)
    k = idx.size
    if k:
        p = np.take(gamma.reshape(-1), idx, out=bound.reshape(-1)[:k], mode="clip")
        u_k = np.take(u.reshape(-1), idx, out=gamma.reshape(-1)[:k], mode="clip")
        _error_prob_into(p, alpha, bp)
        exact = np.greater_equal(u_k, p, out=ws.flag.reshape(-1)[:k])
        np.put(decoded, idx, exact, mode="clip")
    return decoded


def _select(
    rng: np.random.Generator,
    decoded: np.ndarray,
    rho_f: np.ndarray,
    theta: np.ndarray,
    ws: _Workspace,
) -> tuple[np.ndarray, np.ndarray]:
    """Best old relay-destination SNR (ws.md[:n], overwritten) among decoded
    relays, then the current SNR of that relay alone.  Ties (probability
    zero for continuous draws) break toward the lowest index.  Returns
    (none, current): the trials in which no relay decoded, and the current
    SNR, drawn from old SNR 0 and relay 0's link in those trials."""
    n, M = decoded.shape
    md = ws.md[:n]
    # (decoded - 1/2) inf is +inf where a relay decoded and -inf elsewhere,
    # so the minimum with it masks out the relays that did not decode
    cap = np.subtract(decoded, 0.5, out=ws.scratch[:n])
    cap *= np.inf
    np.minimum(md, cap, out=md)
    # argmax over the M columns: a later column wins only when strictly
    # greater, so ties keep the lowest index
    g, m_star = ws.g[:n], ws.m_star[:n]
    np.copyto(g, md[:, 0])
    m_star.fill(0)
    better, step = ws.none[:n], ws.pick[:n]  # scratch until `none` is set
    for j in range(1, M):
        np.greater(md[:, j], g, out=better)
        np.maximum(g, md[:, j], out=g)
        np.multiply(better, j, out=step)
        np.maximum(m_star, step, out=m_star)
    # -inf marks a trial in which no relay decoded
    none = np.equal(g, -np.inf, out=ws.none[:n])
    np.copyto(g, 0.0, where=none)

    # relays with rho_f = 1 keep the old SNR and draw nothing
    live_links = rho_f < 1.0
    if not live_links.any():
        return none, g
    if live_links.all():
        idx, pick, g_live = None, m_star, g
    else:
        idx = np.flatnonzero(np.take(live_links, m_star, out=ws.live[:n], mode="clip"))
        pick = np.take(m_star, idx, out=ws.pick[: idx.size], mode="clip")
        g_live = np.take(g, idx, out=ws.g_live[: idx.size], mode="clip")
    k = len(pick)
    draw_current_into(
        rng,
        g_live,
        np.take(rho_f, pick, out=ws.rho[:k], mode="clip"),
        np.take(theta, pick, out=ws.theta[:k], mode="clip"),
        ws.x[:k],
        ws.y[:k],
    )
    if idx is not None:
        np.put(g, idx, g_live, mode="clip")
    return none, g


def _sums(contrib: np.ndarray) -> tuple[float, float]:
    """(sum, sum of squares) of the per-trial contributions; squares contrib
    in place."""
    total = float(contrib.sum())
    contrib *= contrib
    return total, float(contrib.sum())


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _estimate(
    config: SystemConfig, trials: int, seed: int, decode: Callable, score: Callable
) -> McEstimate:
    """Mean and standard error of a per-trial score over `trials` trials.

    decode(rng, ws, n) returns the (n, M) mask of relays that decode, from
    the old source SNRs in ws.sm[:n]; score(rng, none, current, ws) returns
    the (sum, sum of squares) of the n per-trial contributions and may
    overwrite current and use ws.y and ws.flag as scratch.  Link constants
    are derived once per call, not once per chunk.  Worker w runs chunks
    w, w + workers, ... in one workspace.
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

    def run_task(chunks: list[tuple[int, int]], ws: _Workspace) -> list[tuple[float, float]]:
        sums = []
        for idx, n in chunks:
            rng = _chunk_rng(seed, idx)
            with _DRAW_LOCK:
                sample_gamma_batch(config, rng, n, rates=rates, out=(ws.sm[:n], ws.md[:n]))
            decoded = decode(rng, ws, n)
            none, current = _select(rng, decoded, rho_f, theta, ws)
            sums.append(score(rng, none, current, ws))
        return sums

    chunks = list(_chunks(trials))
    workers = min(_WORKERS, len(chunks))
    # allocated here rather than in the workers, so that the calling
    # thread's heap serves them on every call instead of a heap per thread
    spaces = [_Workspace(config.M) for _ in range(workers)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        per_task = list(pool.map(run_task, [chunks[w::workers] for w in range(workers)], spaces))
    total = 0.0
    total_sq = 0.0
    for i in range(len(chunks)):
        s, sq = per_task[i % workers][i // workers]
        total += s
        total_sq += sq
    mean = total / trials
    var = max(total_sq / trials - mean * mean, 0.0)
    return McEstimate(mean, math.sqrt(var / trials), trials, seed)


def _decode_threshold(config: SystemConfig) -> Callable:
    r_o = config.r_o
    return lambda rng, ws, n: np.greater_equal(ws.sm[:n], r_o, out=ws.decoded[:n])


def simulate_outage(config: SystemConfig, trials: int, seed: int) -> McEstimate:
    """Outage frequency: empty decoding set, or selected current SNR < R_o."""
    r_o = config.r_o

    def score(rng, none, current, ws):
        outage = np.less(current, r_o, out=ws.flag.reshape(-1)[: len(current)])
        outage |= none
        count = float(np.count_nonzero(outage))
        return count, count

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
    alpha, bp = config.alpha, config.beta * config.power

    def decode(rng, ws, n):
        rng.random(out=ws.u[:n])
        return _decode_screened(ws, n, alpha, bp)

    def score(rng, none, current, ws):
        cond_err = _error_prob_into(current, alpha, bp)
        np.copyto(cond_err, 0.5, where=none)
        if estimator == "bernoulli":
            n = len(cond_err)
            u = rng.random(out=ws.y[:n])
            count = float(np.count_nonzero(np.less(u, cond_err, out=ws.flag.reshape(-1)[:n])))
            return count, count
        return _sums(cond_err)

    return _estimate(config, trials, seed, decode, score)


def simulate_capacity(config: SystemConfig, trials: int, seed: int) -> McEstimate:
    """Mean of (1/2) log2(1 + P gamma) on the selected link, 0 when no relay
    decodes; decoding gated on the old source SNR against R_o."""

    def score(rng, none, current, ws):
        contrib = current
        contrib *= config.power
        contrib += 1.0
        np.log2(contrib, out=contrib)
        contrib *= 0.5
        np.copyto(contrib, 0.0, where=none)
        return _sums(contrib)

    return _estimate(config, trials, seed, _decode_threshold(config), score)
