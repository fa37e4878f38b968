"""Stochastic oracle: simulate the selection protocol trial by trial.

Each trial draws the old estimated SNRs of every link as exponentials,
forms the decoding set, selects the relay with the best *old* relay-to-
destination SNR, and scores the metric on that relay's *current* SNR given
its old one; no other current SNR is formed.  Trials are processed in
fixed-size chunks, each chunk seeded from SeedSequence(seed, chunk_index)
and run end to end.  One pass (`simulate`) serves every requested metric,
and a chunk's random stream runs in this order:

1. the old SNRs of every link (`sample_gamma_batch`);
2. the current-SNR noise, two standard normals per trial, drawn only when
   some relay link has rho_f < 1 (`draw_current_noise`);
3. the branches.  The threshold branch decodes on the old source SNR
   against R_o, selects, and scores outage and capacity; it draws nothing.
   The SER branch draws its uniforms, decodes on them, selects, and scores
   the ASER (the Bernoulli estimator then draws one more uniform a trial).

Both branches form their selected relay's current SNR from the one noise
draw of the trial (`current_snr_into`), so they may select different
relays and still agree in law with a draw per branch.  The stream of a
metric does not depend on which other metrics a pass serves, so each
estimate equals that of a pass for it alone to the bit.  On identical
relay links the selection keeps only the running maximum, as no link
constant is gathered, and the relay-destination draws stay unit-rate: only
the selected one is divided by the shared rate, which gives the same bits.

The chunks are dealt round-robin to one task per worker on a thread pool
as wide as the available CPUs; each task runs every chunk it is dealt in
place in one workspace, so the per-chunk path allocates no array of chunk
size.  The workspaces outlive the call in a small pool, so their pages are
faulted in once per process rather than once per call.  The SER decode
evaluates erfc only for the entries that the Chernoff bound
Q(x) <= exp(-x^2/2)/2 cannot decide, and compares those exactly, so its
mask is the exact mask.  The calling thread adds the per-chunk partial sums
in chunk order, so results are bit-for-bit reproducible for a given
(config, seed, trials) whatever the worker count.
"""
from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .channel import (
    SystemConfig,
    current_snr_into,
    draw_current_noise,
    per_link,
    sample_gamma_batch,
)

CHUNK_SIZE = 1 << 15
METRICS = ("outage", "aser", "capacity")

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


# the arenas of a workspace, one per dtype: per-link (CHUNK_SIZE, M) views
# first, then per-trial (CHUNK_SIZE,) views
_LAYOUT = (
    # old SNRs, SER uniforms, and a scratch for the SER bound and error
    # probabilities, the selection mask and the current-SNR kernel; per
    # trial: the selected SNR, its saved old value, the gathered link
    # constants and the current-SNR noise
    (np.float64, ("sm", "md", "u", "scratch"), ("g", "g_old", "rho", "theta", "x", "y")),
    (np.bool_, ("decoded", "undecided", "flag"), ("none", "fresh")),
    (np.intp, (), ("m_star", "step")),
)


class _Workspace:
    """The buffers of one worker task, reused by every chunk it runs; a
    chunk of n trials works on the leading [:n] views.  The views are
    carved from flat arenas sized for the largest M the workspace has
    served, so a call at a smaller M reuses pages that a larger one
    faulted in.  Pages are touched only by the steps that use them, so a
    metric that needs no uniforms costs no memory for them."""

    def __init__(self, M: int):
        self.capacity = 0
        self.fit(M)

    def fit(self, M: int) -> "_Workspace":
        """Carve the views for M relays, first growing the arenas if M is
        larger than any seen."""
        n = CHUNK_SIZE
        if M > self.capacity:
            self._arenas = [np.empty(n * (len(m) * M + len(v)), t) for t, m, v in _LAYOUT]
            self.capacity = M
        for arena, (_, links, trials) in zip(self._arenas, _LAYOUT):
            cut = n * M * len(links)
            for name, view in zip(links, arena[:cut].reshape(-1, n, M)):
                setattr(self, name, view)
            for name, view in zip(trials, arena[cut : cut + n * len(trials)].reshape(-1, n)):
                setattr(self, name, view)
        return self


# workspaces kept between calls, at most _WORKERS of them; a call takes what
# it needs and puts them back when it returns
_POOL: list[_Workspace] = []
_POOL_LOCK = threading.Lock()


def _take_workspaces(count: int, M: int) -> list[_Workspace]:
    """count workspaces fitted to M, from the pool first.  Called by the
    calling thread, so its heap serves any new or grown arena."""
    with _POOL_LOCK:
        spaces = [_POOL.pop() for _ in range(min(count, len(_POOL)))]
    spaces += [_Workspace(M) for _ in range(count - len(spaces))]
    return [ws.fit(M) for ws in spaces]


def _give_back(spaces: list[_Workspace]) -> None:
    with _POOL_LOCK:
        _POOL.extend(spaces)
        del _POOL[_WORKERS:]


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
    alpha Q(sqrt(bp gamma)), Q(x) = erfc(x / sqrt 2) / 2.  SystemConfig
    enforces alpha <= 2, so the value is already in [0, 1]; above 1 it would
    still compare with a uniform u < 1 as 1 does."""
    from scipy.special import erfc  # here, so importing relaysel loads no scipy

    gamma *= bp
    np.sqrt(gamma, out=gamma)
    gamma /= math.sqrt(2.0)
    erfc(gamma, out=gamma)
    gamma *= 0.5
    gamma *= alpha
    return gamma


def _decode_screened(ws: _Workspace, n: int, alpha: float, bp: float) -> np.ndarray:
    """Relays that decode a symbol: u >= clip(alpha Q(sqrt(bp gamma)), 0, 1)
    per entry, for the old source SNRs gamma in ws.sm[:n] (overwritten) and
    the uniforms u in ws.u[:n].

    Q(x) <= exp(-x^2/2)/2 (Chiani, Dardari & Simon 2003), so an entry with u
    at or above that bound decodes; erfc runs only on the other entries.  The
    bound has no upper clip: u < 1, so a bound above 1 leaves its entry
    undecided, as a bound of 1 would.
    """
    gamma, u, bound = ws.sm[:n], ws.u[:n], ws.scratch[:n]
    np.multiply(gamma, -0.5 * bp, out=bound)
    bound += math.log(0.5 * alpha * _SCREEN_SLACK)
    np.exp(bound, out=bound)
    np.maximum(bound, _SCREEN_FLOOR, out=bound)
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
    decoded: np.ndarray,
    rho_f: np.ndarray | float,
    theta: np.ndarray | float,
    ws: _Workspace,
    lam: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Best old relay-destination SNR (ws.md[:n], left as it is) among
    decoded relays, then the current SNR of that relay alone, from the
    trial's noise in ws.x[:n] and ws.y[:n] (only read; unused when every
    relay link has rho_f = 1).  rho_f and theta are the relay links'
    constants: floats when every link shares both, else (M,) arrays.  Ties
    (probability zero for continuous draws) break toward the lowest index.
    Returns (none, current): the trials in which no relay decoded, and the
    current SNR, formed from old SNR 0 and relay 0's link in those
    trials.

    With float constants only the maximum is kept, since no link constant
    is gathered, and ws.md may hold unit-rate draws: the selected maximum is
    then divided by the shared rate lam, which gives the bits of dividing
    every draw, fl(max E) / lam = max fl(E / lam), as the division by a
    positive constant is monotone and correctly rounded."""
    n, M = decoded.shape
    # (decoded - 1/2) inf is +inf where a relay decoded and -inf elsewhere,
    # so the minimum with it masks out the relays that did not decode
    md = np.subtract(decoded, 0.5, out=ws.scratch[:n])
    md *= np.inf
    np.minimum(ws.md[:n], md, out=md)
    g = ws.g[:n]
    np.copyto(g, md[:, 0])
    gather = np.ndim(rho_f) != 0
    if gather:
        # argmax over the M columns: a later column wins only when strictly
        # greater, so ties keep the lowest index
        m_star = ws.m_star[:n]
        m_star.fill(0)
        better, step = ws.none[:n], ws.step[:n]  # scratch until `none` is set
        for j in range(1, M):
            np.greater(md[:, j], g, out=better)
            np.maximum(g, md[:, j], out=g)
            np.multiply(better, j, out=step)
            np.maximum(m_star, step, out=m_star)
    else:  # identical relay links: no constant to gather, so no argmax
        for j in range(1, M):
            np.maximum(g, md[:, j], out=g)
    # -inf marks a trial in which no relay decoded
    none = np.equal(g, -np.inf, out=ws.none[:n])
    np.copyto(g, 0.0, where=none)

    # relays with rho_f = 1 keep the old SNR
    x, y, scratch = ws.x[:n], ws.y[:n], ws.scratch.reshape(-1)[:n]
    if not gather:
        g /= lam
        if rho_f < 1.0:
            current_snr_into(g, rho_f, theta, x, y, scratch)
        return none, g
    fresh_links = rho_f == 1.0
    if fresh_links.all():
        return none, g
    # every trial takes its selected link's constants; where that link has
    # rho_f = 1 the old SNR is put back, since its sqrt-then-square can move
    # the last bit
    fresh, old = None, ws.g_old[:n]
    if fresh_links.any():
        fresh = np.take(fresh_links, m_star, out=ws.fresh[:n], mode="clip")
        np.copyto(old, g)
    current_snr_into(
        g,
        np.take(rho_f, m_star, out=ws.rho[:n], mode="clip"),
        np.take(theta, m_star, out=ws.theta[:n], mode="clip"),
        x,
        y,
        scratch,
    )
    if fresh is not None:
        np.copyto(g, old, where=fresh)
    return none, g


def _sums(contrib: np.ndarray) -> tuple[float, float]:
    """(sum, sum of squares) of the per-trial contributions; squares contrib
    in place."""
    total = float(contrib.sum())
    contrib *= contrib
    return total, float(contrib.sum())


def _count(flags: np.ndarray) -> tuple[float, float]:
    """(sum, sum of squares) of per-trial 0/1 contributions."""
    count = float(np.count_nonzero(flags))
    return count, count


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def simulate(
    config: SystemConfig,
    trials: int,
    seed: int,
    metrics: tuple[str, ...] = METRICS,
    estimator: str = "conditional",
) -> Mapping[str, McEstimate]:
    """Mean and standard error of each requested metric over `trials` trials,
    as an immutable mapping from metric name to McEstimate.

    Every chunk draws the old SNRs once and then, if some relay link has
    rho_f < 1, the current-SNR noise of every trial once.  The threshold
    branch (outage, capacity) decodes on the old source SNR against R_o and
    selects, drawing nothing; outage is scored, then capacity, which
    overwrites the current SNRs.  The SER branch (aser) then draws its
    uniforms, decodes on them and selects anew.  Both form the current SNR
    from the one noise draw, so each metric sees the random stream that a
    call for it alone would see, and its estimate is the same to the bit.
    Only the branches that a requested metric needs run.  Link constants
    are derived once per call, not once per chunk, and are scalars when
    every link shares them.  Worker w runs chunks w, w + workers, ... in
    one workspace from the pool.

    aser with estimator="conditional" accumulates the conditional error
    probability of each trial (1/2 with an empty decoding set,
    alpha Q(sqrt(beta P gamma)) otherwise), a Rao-Blackwellized estimator
    whose variance is orders of magnitude below bit counting at high SNR.
    estimator="bernoulli" flips an actual error bit per trial, from uniforms
    drawn after the selection, and exists as a cross-check.
    """
    metrics = tuple(metrics)
    if not metrics or not set(metrics) <= set(METRICS):
        raise ValueError(f"metrics must be a non-empty selection of {METRICS}, got {metrics!r}")
    if estimator not in ("conditional", "bernoulli"):
        raise ValueError(f"unknown estimator {estimator!r}")
    if not _is_int(trials) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    trials, seed = int(trials), int(seed)
    outage, ser, capacity = (m in metrics for m in METRICS)
    threshold = outage or capacity
    r_o, power = config.r_o, config.power
    alpha, bp = config.alpha, config.beta * config.power
    source, relay = config.source_params(), config.relay_params()
    source_lam, relay_lam = (per_link(lp.lam for lp in links) for links in (source, relay))
    # floats only when every relay link shares both, so _select gathers both
    # or neither
    if len({(lp.rho_f, lp.theta) for lp in relay}) == 1:
        rho_f, theta = float(relay[0].rho_f), float(relay[0].theta)
    else:
        rho_f = np.array([lp.rho_f for lp in relay])
        theta = np.array([lp.theta for lp in relay])
    # on identical relay links the relay-destination draws stay unit-rate
    # and _select divides only the selected one by the shared rate
    hop = 1.0
    if np.ndim(rho_f) == 0 and np.ndim(relay_lam) == 0:
        hop, relay_lam = relay_lam, 1.0
    rates = (source_lam, relay_lam)
    stale = any(lp.rho_f < 1.0 for lp in relay)

    def run_chunk(idx: int, n: int, ws: _Workspace) -> dict[str, tuple[float, float]]:
        rng = _chunk_rng(seed, idx)
        with _DRAW_LOCK:
            sample_gamma_batch(config, rng, n, rates=rates, out=(ws.sm[:n], ws.md[:n]))
        if stale:
            draw_current_noise(rng, ws.x[:n], ws.y[:n])
        sums = {}
        if threshold:
            decoded = np.greater_equal(ws.sm[:n], r_o, out=ws.decoded[:n])
            none, current = _select(decoded, rho_f, theta, ws, hop)
            if outage:
                lost = np.less(current, r_o, out=ws.flag.reshape(-1)[:n])
                lost |= none
                sums["outage"] = _count(lost)
            if capacity:
                current *= power
                current += 1.0
                np.log2(current, out=current)
                current *= 0.5
                np.copyto(current, 0.0, where=none)
                sums["capacity"] = _sums(current)
        if ser:
            rng.random(out=ws.u[:n])
            decoded = _decode_screened(ws, n, alpha, bp)
            none, current = _select(decoded, rho_f, theta, ws, hop)
            cond_err = _error_prob_into(current, alpha, bp)
            np.copyto(cond_err, 0.5, where=none)
            if estimator == "bernoulli":
                u = rng.random(out=ws.scratch.reshape(-1)[:n])
                sums["aser"] = _count(np.less(u, cond_err, out=ws.flag.reshape(-1)[:n]))
            else:
                sums["aser"] = _sums(cond_err)
        return sums

    def run_task(chunks: list[tuple[int, int]], ws: _Workspace) -> list[dict]:
        return [run_chunk(idx, n, ws) for idx, n in chunks]

    chunks = list(_chunks(trials))
    workers = min(_WORKERS, len(chunks))
    spaces = _take_workspaces(workers, config.M)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_task = list(pool.map(run_task, [chunks[w::workers] for w in range(workers)], spaces))
    finally:
        _give_back(spaces)
    per_chunk = [per_task[i % workers][i // workers] for i in range(len(chunks))]
    estimates = {}
    for metric in metrics:
        total = 0.0
        total_sq = 0.0
        for sums in per_chunk:
            s, sq = sums[metric]
            total += s
            total_sq += sq
        mean = total / trials
        var = max(total_sq / trials - mean * mean, 0.0)
        estimates[metric] = McEstimate(mean, math.sqrt(var / trials), trials, seed)
    return MappingProxyType(estimates)


# validate's three per-metric calls on one setup read one pass through this;
# validate clears it when it returns
_shared_pass = functools.lru_cache(maxsize=1)(simulate)
clear_shared_pass = _shared_pass.cache_clear


def _simulate_one(
    metric: str, config: SystemConfig, trials: int, seed: int, estimator: str, shared: bool
) -> McEstimate:
    if shared:
        return _shared_pass(config, trials, seed, METRICS, estimator)[metric]
    return simulate(config, trials, seed, (metric,), estimator)[metric]


def simulate_outage(config: SystemConfig, trials: int, seed: int, shared: bool = False) -> McEstimate:
    """Outage frequency: empty decoding set, or selected current SNR < R_o.
    shared=True reads the estimate from the all-metric pass of the last
    shared call with the same (config, trials, seed), or runs that pass."""
    return _simulate_one("outage", config, trials, seed, "conditional", shared)


def simulate_ser(
    config: SystemConfig,
    trials: int,
    seed: int,
    estimator: str = "conditional",
    shared: bool = False,
) -> McEstimate:
    """Average symbol error rate, by the `estimator` of `simulate`; shared
    as for simulate_outage."""
    return _simulate_one("aser", config, trials, seed, estimator, shared)


def simulate_capacity(config: SystemConfig, trials: int, seed: int, shared: bool = False) -> McEstimate:
    """Mean of (1/2) log2(1 + P gamma) on the selected link, 0 when no relay
    decodes; decoding gated on the old source SNR against R_o.  shared as
    for simulate_outage."""
    return _simulate_one("capacity", config, trials, seed, "conditional", shared)
