"""Closed-form outage / SER / capacity expressions and their oracles.

Every metric decomposes the same way: sum over decoding sets D, weight by
the probability of D, and inside D sum over the selection candidate m the
joint probability/expectation of {m has the largest old SNR} and a function
of m's current SNR.  Conditioned on the old SNR g, the current SNR is
theta * noncentral-chi-square(2 dof, noncentrality c g), which expands into
Poisson-weighted gamma terms; integrating g against the old-SNR density and
the inclusion-exclusion expansion of the maximum's CDF turns every
candidate term into

    sum_k  kernel[k] * sum_{S subset of D\\{m}} sign(S) lam_m (c/2)^k / a_S^(k+1)

with a_S = lam_m + c/2 + sum_{i in S} lam_i and a metric-specific kernel[k]
(an incomplete-gamma ratio for outage, an averaged Gaussian tail for SER, an
averaged log for capacity).  The mixture over k of one subset row is itself
one exponential law: with a = lam_m + sum_{i in S} lam_i, the row equals
(lam_m / a) E[f(X)] for X ~ Exponential(r), r = q a / (a + c/2), which is
the rho_f = 1 kernel of the metric evaluated at rate r instead of a (the
"paper" ASER, whose rho_f < 1 kernel is a Q-function approximation, takes
the k = 0 entry of that kernel at rate r).

Relays decode independently, relay i with probability p_i, so for a fixed
(m, S) the weights of all decoding sets D containing S and m add up to
p_m prod_{i in S} p_i.  The general (asymmetric) path therefore evaluates

    empty-set term + sum_m p_m sum_{S subset of [M]\\{m}} prod_{i in S}(-p_i) f_m(a_S)

over one subset expansion of all M relays: M 2^(M-1) rows instead of the
M 3^(M-1) of the explicit decoding-set sum, each in the finite form above,
all in one kernel call, so no series and no kernel table.  The symmetric
path groups the decoding sets by size and the subsets by size with binomial
multiplicities; a subset of size s has rate sum s*lam in every decoding set,
so the M rows s = 0..M-1 are evaluated once per call, and one stacked
product against a per-M table of the multiplicities combines them for
every size at once.  rho_f = 1 collapses to exact order-statistics forms
(the kernel evaluated at the rate sums) on both.

Each metric is one `_Metric` record: its decode probability, its value when
no relay decodes, its kernel table, its rho_f = 1 kernel and its final
scaling.  A candidate sum is one row kernel and one signed subset sum.  The
k-series rows (`_series_rows`) serve one case alone: the symmetric driver
(`_total_symmetric`) on a rho_f < 1 link, the only reader of the series
policy (`SeriesControl`) and of the kernel tables.  Every other row is a
finite one (`_finite_rows`): the symmetric driver's at rho_f = 1, the
general driver's (`_total_general`, which combines every candidate and its
condition in one stacked product) and those of the per-candidate
`outage_conditional` and `aser_conditional_pdf` (`_candidate_term`).  Both
drivers sum over decoding sets and raise `SeriesError` on a negative total.
The public `*_general` / `*_symmetric` functions and their dispatchers only
pick a record and a driver.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from . import specfn
from .channel import LinkParams, SystemConfig
from .specfn import SeriesControl, SeriesError

LN2 = math.log(2.0)
CONDITION_FLAG = 1e12
# cap on the general path's peak allocation.  Besides its M x 2^(M-1)
# float64 subset rows it holds the gathered rate sums, a, r, the kernel's
# temporaries and the combine's operands: tracemalloc puts its peak at
# 6.3-15.2 times the rows over M = 6..16 (the most for capacity, and at
# small M, where fixed costs count), and the "paper" ASER's two buffers of
# one row's 20 terms add 40 / M rows (22 times at M = 6, 6.9 at M = 16), so
# the cap is applied to ROWS_PEAK_FACTOR times the rows.  The largest real
# sweeps (M = 10) need 40 kB of rows
ROWS_MAX_BYTES = 1 << 28
ROWS_PEAK_FACTOR = 16


@dataclass(frozen=True)
class DecodingSet:
    """Subset of relay indices that decoded the source block correctly."""

    members: tuple[int, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.members))
        if len(set(ordered)) != len(ordered):
            raise ValueError("decoding set has duplicate relay indices")
        if ordered and ordered[0] < 0:
            raise ValueError("relay indices must be nonnegative")
        object.__setattr__(self, "members", ordered)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, idx: int) -> bool:
        return idx in self.members


def all_decoding_sets(M: int):
    """All 2^M decoding sets, empty set first, in deterministic order."""
    for size in range(M + 1):
        for combo in combinations(range(M), size):
            yield DecodingSet(combo)


@dataclass(frozen=True)
class MetricResult:
    value: float
    series_terms_used: int
    condition_estimate: float


# ---------------------------------------------------------------------------
# decoding-set probabilities
# ---------------------------------------------------------------------------

def prob_relay_decodes(link: LinkParams, r_o: float) -> float:
    """Pr[old source-hop SNR >= R_o] = exp(-lam * R_o)."""
    if r_o < 0.0:
        raise ValueError("R_o must be nonnegative")
    return math.exp(-link.lam * r_o)


def prob_decoding_set(config: SystemConfig, D: DecodingSet) -> float:
    """Probability that exactly the relays in D decode (rate-threshold gate)."""
    _check_subset(config, D)
    r_o = config.r_o
    p = 1.0
    for i, lp in enumerate(config.source_params()):
        p_dec = prob_relay_decodes(lp, r_o)
        p *= p_dec if i in D else (1.0 - p_dec)
    return p


def relay_error_prob(link: LinkParams, config: SystemConfig) -> float:
    """Average decoding-error probability of one relay,
    (alpha/2) [1 - sqrt(beta P / (beta P + 2 lam))]."""
    bp = config.beta * config.power
    return 0.5 * config.alpha * (1.0 - math.sqrt(bp / (bp + 2.0 * link.lam)))


def _check_subset(config: SystemConfig, D: DecodingSet) -> None:
    if D.members and D.members[-1] >= config.M:
        raise ValueError(f"decoding set {D.members} exceeds relay count M={config.M}")


# ---------------------------------------------------------------------------
# the max-of-others CDF
# ---------------------------------------------------------------------------

def cdf_max_others(x, D: DecodingSet, excluded: int, links: list[LinkParams]):
    """CDF of max of the other members' old SNRs, product form
    prod_{i in D, i != excluded} (1 - exp(-lam_i x)), 0 for x < 0.  An
    array x gives an array, a scalar a float."""
    if excluded not in D:
        raise ValueError("excluded index must belong to the decoding set")
    x = np.asarray(x, dtype=float)
    p = np.where(x < 0.0, 0.0, 1.0)
    x = np.maximum(x, 0.0)
    for i in D:
        if i != excluded:
            p = p * -np.expm1(-links[i].lam * x)
    return float(p) if p.ndim == 0 else p


# ---------------------------------------------------------------------------
# shared series machinery
# ---------------------------------------------------------------------------

def _subset_expansion(
    other_lams: list[float], weights: list[float] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Inclusion-exclusion coefficients and rate sums over all subsets,
    indexed by bit mask.  The masks with top bit i are the masks below 2^i
    plus relay i, so each doubling step flips the sign and adds lam_i; rate
    sums accumulate in increasing relay order.  With weights, the
    coefficient of S is prod_{i in S} (-weights_i) instead of (-1)^|S|."""
    coeffs = np.ones(1 << len(other_lams))
    extra = np.zeros(1 << len(other_lams))
    for i, lam in enumerate(other_lams):
        half = 1 << i
        w = 1.0 if weights is None else weights[i]
        coeffs[half : 2 * half] = -w * coeffs[:half]
        extra[half : 2 * half] = extra[:half] + lam
    return coeffs, extra


def _series_length(
    link: LinkParams, ctrl: SeriesControl, kernel_cap: float, gamma_cut: float | None = None
) -> int:
    """Series index needed so that the geometric tail of the link's series
    (times a kernel bound) drops below ctrl.abs_tol; its largest ratio is
    (c/2) / a_S at S = {}.  gamma_cut, when given, is the index past which
    the outage kernel itself is below ~1e-18 and may stop the series
    earlier.  Raises SeriesError past ctrl.k_max."""
    half_c = 0.5 * link.c
    r_max = half_c / (link.lam + half_c)
    if r_max <= 0.0:
        return 0
    num = math.log(ctrl.abs_tol * (1.0 - r_max) / max(kernel_cap, 1e-300))
    k_geo = max(0, math.ceil(num / math.log(r_max)) + 2)
    k_need = k_geo
    if gamma_cut is not None:
        k_need = min(k_need, math.ceil(gamma_cut))
    if k_need > ctrl.k_max:
        raise SeriesError(
            f"series needs {k_need} terms but k_max is {ctrl.k_max} "
            f"(geometric ratio {r_max:.6g})"
        )
    return k_need


# the series index k = 0, 1, ... as floats: specfn's shared read-only grid
_SERIES_INDEX = specfn._INDEX


def _series_rows(
    link: LinkParams, lam_extra: np.ndarray, kernel: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """sum_k kernel[k] lam (c/2)^k / a_j^(k+1) over k < len(kernel) for
    every rate sum a_j = lam + c/2 + lam_extra[j]: one uncombined row per
    subset, written into out when given."""
    lam, half_c = link.lam, 0.5 * link.c
    # the per-row sums and quotients on Python floats, rounded as numpy
    # rounds them: on the symmetric path's few rows numpy's per-call cost
    # outweighs the arithmetic
    bases = [lam + half_c + extra for extra in lam_extra.tolist()]
    ratios = [half_c / base for base in bases]
    ratio = np.array(ratios)
    k = _SERIES_INDEX.upto(len(kernel))[: len(kernel)]
    # the exponent product is the one (rows x K) buffer, and exp writes into
    # it: a second one of ~430 kB at rho_f = 0.999 (K ~ 18,000) made glibc
    # hand the heap's top back and fault it in again on every call
    if 0.0 not in ratios:
        powers = np.log(ratio)[:, None] * k
        np.exp(powers, out=powers)
    else:
        # a zero ratio (rho_f = 0, or one that underflowed) gives log -inf:
        # 0^k is 0 for k > 0, and the -inf * 0 at k = 0 is replaced by 0^0 = 1
        with np.errstate(divide="ignore", invalid="ignore"):
            powers = np.log(ratio)[:, None] * k
            np.exp(powers, out=powers)
        powers[ratio == 0.0, 0] = 1.0
    return np.multiply([lam / base for base in bases], powers @ kernel, out=out)


def _result(total: float, terms: int, values: list[float], mags: list[float]) -> MetricResult:
    """A driver's total with its diagnostics: the series terms behind it,
    and its condition, the largest mags[i] / |values[i]| of its signed sums
    (values) and their sums of term magnitudes (mags), at least 1, with one
    warning when it exceeds CONDITION_FLAG.  Every metric is nonnegative, so
    a negative total lost its digits to cancellation: SeriesError."""
    cond = 1.0
    for value, mag in zip(values, mags):
        if value != 0.0 and (ratio := mag / abs(value)) > cond:
            cond = ratio
    if cond > CONDITION_FLAG:
        warnings.warn(
            f"inclusion-exclusion cancellation condition {cond:.3g} exceeds "
            f"{CONDITION_FLAG:.0e}; result digits are suspect",
            RuntimeWarning,
            stacklevel=3,
        )
    if total < 0.0:
        raise SeriesError(
            f"total {total:.3g} is negative: the inclusion-exclusion sum lost "
            f"its digits to cancellation (condition {cond:.3g})"
        )
    # built as derive_link_params builds a LinkParams: a sweep makes one per
    # row, and the frozen __init__'s setattr per field costs more
    res = object.__new__(MetricResult)
    res.__dict__.update(value=total, series_terms_used=terms, condition_estimate=cond)
    return res


# ---------------------------------------------------------------------------
# one metric record, one candidate, two drivers
# ---------------------------------------------------------------------------

class _Metric(NamedTuple):
    """What one metric adds to the shared decomposition.

    decode(source link) is the relay's (decode, fail) probability pair;
    empty is the metric's value when no relay decodes; table(relay link,
    ctrl) is the kernel table at the series length ctrl asks for, built
    only for the series rows of a rho_f < 1 link; degenerate(r) is the
    rho_f = 1 kernel E[f(X)], X ~ Exponential(r), at an array of rates r;
    finish maps a raw candidate sum to the metric's units.  stale(r), when
    set, replaces degenerate on the finite rows of rho_f < 1 links, for a
    metric whose f there differs from its rho_f = 1 one (the "paper" ASER).
    """

    decode: Callable[[LinkParams], tuple[float, float]]
    empty: float
    table: Callable[[LinkParams, SeriesControl], np.ndarray]
    degenerate: Callable[[np.ndarray], np.ndarray]
    finish: Callable[[float], float]
    stale: Callable[[np.ndarray], np.ndarray] | None = None


def _finite_rows(metric: _Metric, links: list[LinkParams], lam_extra: np.ndarray) -> np.ndarray:
    """Uncombined subset rows in finite form, row i for candidate links[i]
    at the rate sums a = lam_i + lam_extra[i].  The Poisson mixture of
    `_series_rows` is one exponential law: sum_k kernel[k] lam (c/2)^k /
    (a + c/2)^(k+1) = (lam / a) E[f(X)] with X ~ Exponential(r) and
    r = q a / (a + c/2), which is r = a at rho_f = 1.  So every row is
    lam / a times the metric's kernel at r, one call for all rows."""
    lam = np.array([lp.lam for lp in links])[:, None]
    a = lam + lam_extra
    live = [lp for lp in links if not lp.degenerate]
    if not live:
        kernel = metric.degenerate(a)
    else:
        q = np.array([lp.q for lp in live])[:, None]
        half_c = 0.5 * np.array([lp.c for lp in live])[:, None]
        if len(live) == len(links):
            # all rows stale: no boolean gathers, and only the stale kernel
            r = q * a
            r /= a + half_c
            kernel = (metric.stale or metric.degenerate)(r)
        else:
            stale = np.array([not lp.degenerate for lp in links])
            r = a.copy()
            r[stale] = q * a[stale] / (a[stale] + half_c)
            kernel = metric.degenerate(r)
            if metric.stale is not None:
                kernel[stale] = metric.stale(r[stale])
    # lam / a * kernel, in a's buffer
    np.divide(lam, a, out=a)
    a *= kernel
    return a


def _check_candidate(config: SystemConfig, D: DecodingSet, m: int) -> None:
    _check_subset(config, D)
    if m not in D:
        raise ValueError("candidate m must belong to the decoding set")


def _candidate_term(metric: _Metric, D: DecodingSet, m: int, config: SystemConfig) -> float:
    """E[f(current SNR of m); m has the largest old SNR in D], f the
    metric's kernel: the signed sum over the subsets of D \\ {m} of
    candidate m's finite rows (`_finite_rows`), in the metric's units."""
    _check_candidate(config, D, m)
    rel = config.relay_params()
    coeffs, lam_extra = _subset_expansion([rel[i].lam for i in D if i != m])
    return metric.finish(float(coeffs @ _finite_rows(metric, [rel[m]], lam_extra[None, :])[0]))


def _total_general(
    config: SystemConfig, metric: _Metric, empty_term: float | None = None
) -> MetricResult:
    """empty_term + sum_m p_m sum_{S subset of [M]\\{m}} prod_{i in S}(-p_i)
    f_m(a_S): the decoding-set sum folded into the subset sum.  One subset
    expansion over all M relays serves every candidate: m's subsets are the
    masks with bit m clear, whose coefficients and rate sums are those of
    the expansion without relay m, bit for bit.  The M x 2^(M-1) rows are
    evaluated in finite form (`_finite_rows`), so every row reports one
    series term.  One stacked product gives every candidate's signed and
    magnitude sums, one BLAS dot each on the contiguous operands of a per-m
    `coeffs[masks[m]] @ rows[m]`.  empty_term defaults to empty * prod_i fail_i."""
    rel = config.relay_params()
    M = len(rel)
    need = ROWS_PEAK_FACTOR * M * (1 << (M - 1)) * 8
    if need > ROWS_MAX_BYTES:
        raise SeriesError(
            f"the general path at M = {M} needs {need:.3g} bytes at its peak, "
            f"{ROWS_PEAK_FACTOR} times its {M} x 2^{M - 1} float64 subset rows, "
            f"above the cap of {ROWS_MAX_BYTES} bytes"
        )
    p, fail = zip(*map(metric.decode, config.source_params()))
    coeffs, lam_extra = _subset_expansion([lp.lam for lp in rel], p)
    masks = _general_masks(M)
    rows = _finite_rows(metric, rel, lam_extra[masks])
    # the stack comes after the rows' temporaries are gone; the coefficients
    # are gathered into it (take's "clip" mode writes there unbuffered, and
    # every mask is in range)
    ops = np.empty((2, 2, M, 1 << (M - 1)))  # (coefficients, rows) x (signed, magnitude)
    np.take(coeffs, masks, out=ops[0, 0], mode="clip")
    ops[1, 0] = rows
    np.abs(ops[:, 0], out=ops[:, 1])
    values, mags = metric.finish(ops[0, :, :, None, :] @ ops[1, :, :, :, None])[:, :, 0, 0].tolist()
    total = metric.empty * math.prod(fail) if empty_term is None else empty_term
    for pm, value in zip(p, values):
        total += pm * value
    return _result(total, 1, values, mags)


@functools.lru_cache(maxsize=32)
def _general_masks(M: int) -> np.ndarray:
    """Read-only, once per M: masks[m, j] is the j-th subset mask with bit
    m clear, j's bits split around bit m."""
    j = np.arange(1 << (M - 1))
    bit = np.arange(M)[:, None]
    masks = (j >> bit << (bit + 1)) | (j & ((1 << bit) - 1))
    masks.flags.writeable = False
    return masks


@functools.lru_cache(maxsize=32)
def _size_table(M: int) -> tuple[np.ndarray, tuple[float, ...], np.ndarray]:
    """The decoding-set sizes l = 1..M of a symmetric config, once per M.
    The read-only (2, M, 1, M) array holds in [0, l - 1, 0] the subset
    multiplicities (-1)^s C(l-1, s) for s < l, zero-padded to M, and in
    [1, l - 1, 0] their magnitudes; the tuple holds C(M, l) as floats; the
    read-only (M,) array holds the subset sizes s = 0..M-1 as floats, whose
    products with lam are the rows' rate sums."""
    table = np.zeros((2, M, 1, M))
    for l in range(1, M + 1):
        mult = [float(math.comb(l - 1, s)) for s in range(l)]
        table[0, l - 1, 0, :l] = [-c if s % 2 else c for s, c in enumerate(mult)]
        table[1, l - 1, 0, :l] = mult
    sizes = np.arange(M, dtype=float)
    table.flags.writeable = sizes.flags.writeable = False
    return table, tuple(float(math.comb(M, l)) for l in range(1, M + 1)), sizes


def _total_symmetric(config: SystemConfig, metric: _Metric, ctrl: SeriesControl) -> MetricResult:
    """Identical links: decoding sets grouped by size l with weight
    C(M, l) p^l fail^(M-l), and the subsets of each by size s, which
    collapse to (-1)^s C(l-1, s) times the row at rate sum s*lam.  The row
    for s is the same for every l, so the M rows are evaluated once: in
    finite form (`_finite_rows`) at rho_f = 1, else as the k-series over the
    metric's kernel table at ctrl's series length (`_series_rows`), written
    straight into the stacked operand.  One stacked product with
    `_size_table(M)` gives every size's signed sum and magnitude sum, one
    BLAS dot per size, and the metric's finish maps them as Python floats.
    A row's zero padding past s = l - 1 adds exact zeros, so each dot
    equals the l-term dot of a per-size loop bit for bit while BLAS sums
    those M terms in order (OpenBLAS's Haswell ddot does below 16 terms);
    past that the order, not the terms, can differ.  The condition is the largest of the sizes' conditions, with one
    warning for them all.  The link is derived once, or twice when the two
    hops hold different FadingParams objects (`SystemConfig.symmetric_params`)."""
    if not config.is_symmetric():
        raise ValueError("symmetric path requires identical per-link parameters")
    M = config.M
    src, rel = config.symmetric_params()
    p, fail = metric.decode(src)
    table, comb, sizes = _size_table(M)
    both = np.empty((2, 1, M, 1))  # the rows, then their magnitudes
    rows = both[0, 0, :, 0]
    if rel.degenerate:
        rows[:] = _finite_rows(metric, [rel], (sizes * rel.lam)[None, :])[0]
        terms = 1
    else:
        kernel = metric.table(rel, ctrl)
        _series_rows(rel, sizes * rel.lam, kernel, out=rows)
        terms = len(kernel)
    np.abs(rows, out=both[1, 0, :, 0])
    values, mags = (table @ both)[:, :, 0, 0].tolist()
    finish = metric.finish
    values, mags = [finish(v) for v in values], [finish(v) for v in mags]
    total = metric.empty * fail**M
    for l, (c, value) in enumerate(zip(comb, values), 1):
        total += c * p**l * fail ** (M - l) * l * value
    return _result(total, terms, values, mags)


def _threshold_decode(r_o: float) -> Callable[[LinkParams], tuple[float, float]]:
    """The (decode, fail) pair of a relay that decodes when its old source
    SNR reaches R_o: (exp(-lam R_o), 1 - exp(-lam R_o))."""

    def decode(link: LinkParams) -> tuple[float, float]:
        p = prob_relay_decodes(link, r_o)
        return p, 1.0 - p

    return decode


# ---------------------------------------------------------------------------
# outage
# ---------------------------------------------------------------------------

def _outage(config: SystemConfig) -> _Metric:
    """Outage: relay i decodes with probability exp(-lam_i R_o), the empty set
    is certain outage, and the kernel is gamma(k+1, q R_o) / k!."""
    r_o = config.r_o

    def table(link: LinkParams, ctrl: SeriesControl) -> np.ndarray:
        x = link.q * r_o
        K = _series_length(link, ctrl, 1.0, x + 45.0 * math.sqrt(x) + 50.0)
        return specfn.lower_gamma_ratio_table(K, x)

    return _Metric(_threshold_decode(r_o), 1.0, table, lambda r: -np.expm1(-r * r_o), lambda v: v)


def outage_conditional(
    D: DecodingSet, m: int, config: SystemConfig, ctrl: SeriesControl = SeriesControl()
) -> float:
    """Joint probability, conditioned on D, that relay m is selected and its
    current SNR is below R_o.  Summing over m in D gives the decoding-set
    outage probability.  It is evaluated in finite form, which needs no
    series policy: ctrl has no effect."""
    return _candidate_term(_outage(config), D, m, config)


# Gauss-Kronrod G7-K15 on [-1, 1] as QUADPACK's qk15 lists it: the Kronrod
# nodes from 1 down to the centre, their weights, and the Gauss weights of the
# odd-indexed ones; the rule mirrors them to the 15 nodes
_XGK = np.array([
    0.991455371120812639, 0.949107912342758525, 0.864864423359769073, 0.741531185599394440,
    0.586087235467691130, 0.405845151377397167, 0.207784955007898468, 0.0,
])
_WGK = np.array([
    0.022935322010529225, 0.063092092629978553, 0.104790010322250184, 0.140653259715525919,
    0.169004726639267903, 0.190350578064785410, 0.204432940075298892, 0.209482141084727828,
])
_WG = np.array([0.129484966168869693, 0.279705391489276668, 0.381830050505118945,
                0.417959183673469388])
_GK_NODES = np.concatenate((-_XGK, _XGK[-2::-1]))
_KRONROD_WEIGHTS = np.concatenate((_WGK, _WGK[-2::-1]))
_GAUSS_WEIGHTS = np.zeros(15)
_GAUSS_WEIGHTS[1::2] = np.concatenate((_WG, _WG[-2::-1]))
QUAD_RTOL = 1e-10
# bisection rounds before the panel rule gives up: 2^-50 of a panel is far
# below the resolution of its end points
QUAD_ROUNDS_MAX = 50
# open panels after which it gives up: each round bisects every panel that
# fails, so an integrand too noisy to meet the tolerance doubles them per
# round, and the round cap alone would not bound the memory
QUAD_PANELS_MAX = 1 << 12


def _panel_quadrature(f: Callable[[np.ndarray], np.ndarray], points: list[float]) -> float:
    """int f over [points[0], points[-1]] for f >= 0, by adaptive G7-K15
    panels that start at the given break points.  Each round evaluates f
    once, on the nodes of every open panel.  A panel closes when |K15 - G7|
    is within its share of QUAD_RTOL * |estimate|, half of which is shared
    out by length and half by the panel's integral of |f|; the others are
    bisected.  Raises SeriesError when panels are still open after
    QUAD_ROUNDS_MAX rounds or more than QUAD_PANELS_MAX are open."""
    lo, hi = np.array(points[:-1]), np.array(points[1:])
    span = points[-1] - points[0]
    closed = closed_abs = 0.0
    for rounds in range(1, QUAD_ROUNDS_MAX + 1):
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        vals = f((mid[:, None] + half[:, None] * _GK_NODES).ravel()).reshape(len(lo), -1)
        kronrod = half * (vals @ _KRONROD_WEIGHTS)
        err = np.abs(kronrod - half * (vals @ _GAUSS_WEIGHTS))
        absint = half * (np.abs(vals) @ _KRONROD_WEIGHTS)
        estimate = closed + kronrod.sum()
        mass = max(closed_abs + absint.sum(), np.finfo(float).tiny)
        share = 0.5 * QUAD_RTOL * abs(estimate) * ((hi - lo) / span + absint / mass)
        done = err <= share
        closed += kronrod[done].sum()
        closed_abs += absint[done].sum()
        if done.all():
            return float(closed)
        lo, mid, hi = lo[~done], mid[~done], hi[~done]
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        if len(lo) > QUAD_PANELS_MAX:
            break
    raise SeriesError(
        f"panel quadrature left {len(lo)} panels above tolerance after "
        f"{rounds} rounds (caps: {QUAD_ROUNDS_MAX} rounds, {QUAD_PANELS_MAX} panels)"
    )


def outage_conditional_quadrature(D: DecodingSet, m: int, config: SystemConfig) -> float:
    """Independent oracle for outage_conditional: the integral
    int F(R_o | g) F_max_others(g) lam e^(-lam g) dg over [0, 60 / lam] by
    an adaptive Gauss-Kronrod panel rule (`_panel_quadrature`).  The inner
    CDF F(R_o | g) = 1 - Q1(sqrt(c g), sqrt(2 q R_o)) is `specfn.marcum_q1`'s
    complement, scipy's noncentral chi-square CDF, one array call per round.
    The panels start at the break points 0, R_o, 1 / lam, 10 / lam, and
    R_o / rho_f^2 + k w for k in {0, +-1, +-3, +-8} where positive, which
    bracket the step in which F falls from 1 to 0 (w = 2 sqrt(theta R_o) /
    rho_f^2, narrow as rho_f -> 1); rho_f = 1 integrates
    F_max_others(g) lam e^(-lam g) over [0, R_o] by the same rule.  Raises
    SeriesError if the rule does not converge, or where the CDF returns NaN
    (noncentralities of about 1e12 and above)."""
    _check_candidate(config, D, m)
    rel = config.relay_params()
    link = rel[m]
    r_o = config.r_o
    lam = link.lam

    def density(g: np.ndarray) -> np.ndarray:
        return cdf_max_others(g, D, m, rel) * lam * np.exp(-lam * g)

    if link.degenerate:
        return _panel_quadrature(density, [0.0, r_o])

    root_2qro = math.sqrt(2.0 * link.q * r_o)

    def integrand(g: np.ndarray) -> np.ndarray:
        inner = specfn.marcum_q1(np.sqrt(link.c * g), root_2qro, complement=True)
        return inner * density(g)

    upper = 60.0 / lam
    breaks = {0.0, r_o, 1.0 / lam, 10.0 / lam, upper}
    if link.rho_f > 0.0:
        # F steps within a few w of R_o / rho_f^2, w the current SNR's
        # standard deviation there in units of g.  A panel wider than the
        # step can hold it between its nodes and close on a reading of 0
        step = r_o / link.rho_f**2
        w = 2.0 * math.sqrt(link.theta * r_o) / link.rho_f**2
        breaks.update(b for k in (0, -8, -3, -1, 1, 3, 8) if (b := step + k * w) > 0.0)
    return _panel_quadrature(integrand, sorted(b for b in breaks if b <= upper))


def outage_total_general(config: SystemConfig, ctrl: SeriesControl = SeriesControl()) -> MetricResult:
    """Total outage probability over all 2^M decoding sets; the empty set
    (certain outage) has weight Pr[D = {}].  In finite form: ctrl has no effect."""
    return _total_general(config, _outage(config), prob_decoding_set(config, DecodingSet(())))


def outage_total_symmetric(config: SystemConfig, ctrl: SeriesControl = SeriesControl()) -> MetricResult:
    return _total_symmetric(config, _outage(config), ctrl)


def outage_total(config: SystemConfig, ctrl: SeriesControl = SeriesControl()) -> MetricResult:
    path = outage_total_symmetric if config.is_symmetric() else outage_total_general
    return path(config, ctrl)


# ---------------------------------------------------------------------------
# average symbol error rate
# ---------------------------------------------------------------------------

# terms of the Q-function approximation behind the "paper" kernel
N_A = 20


# (n - 1)/2 and (n + 1)/2 for n = 1..N_A, the powers of beta P and the
# shapes of the gamma integrals behind the approximation's terms
_HALF_N_MINUS_1 = np.arange(N_A) / 2.0
_HALF_N_PLUS_1 = np.arange(2.0, N_A + 2.0) / 2.0
_HALF_N_MINUS_1.flags.writeable = _HALF_N_PLUS_1.flags.writeable = False


def _paper_lgamma_rows(lo: int, hi: int) -> np.ndarray:
    """Rows k = lo..hi-1 of lgamma(k + (n+1)/2) - ln k! for n = 1..N_A.
    Gamma(k + (n+1)/2) and k! = Gamma(k + 1) both take arguments on the
    half-integer grid 1, 1.5, ..., at index 2k + n - 1 and 2k."""
    lgam_half = specfn.ln_gamma_half_grid(2 * hi + N_A - 3)
    two_k = 2 * np.arange(lo, hi)[:, None]
    return lgam_half[two_k + np.arange(N_A)] - lgam_half[two_k]


# the parts of the "paper" kernel exponent that depend on the indices k and
# n alone, row k for k = 0, 1, ...: lgamma(k + (n+1)/2) - ln k!, the shapes
# k + (n+1)/2, and k + 1 and (n - 1)/2 repeated to full rows.  Full-size
# grids, not one of row pairs and no row-broadcast operand: a table then
# reads contiguous operands, which numpy takes in one loop, not one per row
_PAPER_LGAMMA = specfn._Grid(_paper_lgamma_rows)
_PAPER_SHAPES = specfn._Grid(lambda lo, hi: np.arange(lo, hi, dtype=float)[:, None] + _HALF_N_PLUS_1)
_PAPER_K1 = specfn._Grid(lambda lo, hi: np.repeat(np.arange(lo + 1.0, hi + 1.0)[:, None], N_A, axis=1))
_PAPER_HALF_N_MINUS_1 = specfn._Grid(lambda lo, hi: np.tile(_HALF_N_MINUS_1, (hi - lo, 1)))


def _paper_kernel_table(K: int, q: float, bp: float) -> np.ndarray:
    """The ASER kernel of the "paper" convention, built on the Q-function
    approximation: kernel[k] = q^(k+1)/k! *
    sum_n a_n (beta P)^((n-1)/2) Gamma(k+(n+1)/2) / (q + beta P)^(k+(n+1)/2)."""
    a = specfn.qapprox_coefficients(N_A)
    rows = K + 1
    # the power-dependent terms are added in the order of the per-k formula
    # lgam + (k+1) ln q + (n-1)/2 ln(beta P) - (k+(n+1)/2) ln(q + beta P),
    # in the exponent's buffer and one of the products
    exps = np.multiply(_PAPER_K1.upto(K)[:rows], math.log(q))
    exps += _PAPER_LGAMMA.upto(K)[:rows]
    product = np.multiply(_PAPER_HALF_N_MINUS_1.upto(K)[:rows], math.log(bp))
    exps += product
    exps -= np.multiply(_PAPER_SHAPES.upto(K)[:rows], math.log(q + bp), out=product)
    np.exp(exps, out=exps)
    # a stack of (1 x N_A) @ (N_A x 1) products: numpy takes one BLAS dot per
    # row, exactly as `a @ row` does, so the table matches a per-k evaluation
    # bit for bit.  A single `terms @ a` mat-vec sums in another order and
    # moves the figure-8 diversity rows by 2.5e-11 relative.
    return (exps[:, None, :] @ a[:, None]).ravel()


def _paper_kernel_at_rates(r: np.ndarray, bp: float) -> np.ndarray:
    """The k = 0 entry of `_paper_kernel_table` at q = r, elementwise over a
    2-D array of rates: the "paper" kernel averaged over X ~ Exponential(r),
    r sum_n a_n (beta P)^((n-1)/2) Gamma((n+1)/2) / (r + beta P)^((n+1)/2).
    Its N_A alternating terms are summed as the table sums them, one BLAS
    dot per rate.  The terms are formed one row of rates at a time, in two
    buffers of one row's terms: those of all rows at once are N_A times the
    rows."""
    a = specfn.qapprox_coefficients(N_A)
    lgam = specfn.ln_gamma_half_grid(N_A - 1)[:N_A]
    power_part = _HALF_N_MINUS_1 * math.log(bp)
    out = np.empty(r.shape)
    exps, scaled = np.empty((2, r.shape[-1], N_A))
    for rates, dest in zip(r, out):
        # lgamma((n+1)/2) + ln r + (n-1)/2 ln(beta P) - (n+1)/2 ln(r + beta P)
        np.add(lgam, np.log(rates)[:, None], out=exps)
        exps += power_part
        exps -= np.multiply(_HALF_N_PLUS_1, np.log(rates + bp)[:, None], out=scaled)
        np.exp(exps, out=exps)
        dest[:] = (exps[:, None, :] @ a[:, None])[:, 0, 0]
    return out


def _aser(config: SystemConfig) -> _Metric:
    """ASER: relay i decodes with probability 1 - B_i (B_i its average
    decoding error probability), the all-off term is ½, and the kernel is
    alpha * E[Q(sqrt(beta P gamma))]: exact for the "derived" convention,
    the Q-function approximation for the "paper" one."""
    paper = config.lambda_convention == "paper"
    bp = config.beta * config.power
    alpha = config.alpha

    def decode(link: LinkParams) -> tuple[float, float]:
        b = relay_error_prob(link, config)
        return 1.0 - b, b

    def table(link: LinkParams, ctrl: SeriesControl) -> np.ndarray:
        K = _series_length(link, ctrl, 0.5)
        if paper:
            return _paper_kernel_table(K, link.q, bp)
        return specfn.mean_q_gamma_table(K + 1, bp / (2.0 * link.q))

    def degenerate(r: np.ndarray) -> np.ndarray:
        # E[Q(sqrt(beta P X))], X ~ Exponential(r): (1 - sqrt(c / (1 + c))) / 2
        c = bp / (2.0 * r)
        return 0.5 * (1.0 - np.sqrt(c / (1.0 + c)))

    stale = (lambda r: _paper_kernel_at_rates(r, bp)) if paper else None
    return _Metric(decode, 0.5, table, degenerate, lambda v: alpha * v, stale)


def aser_total_general(config: SystemConfig, ctrl: SeriesControl = SeriesControl()) -> MetricResult:
    """ASER over all 2^M decoding sets, in finite form: ctrl has no effect."""
    return _total_general(config, _aser(config))


def aser_total_symmetric(config: SystemConfig, ctrl: SeriesControl = SeriesControl()) -> MetricResult:
    return _total_symmetric(config, _aser(config), ctrl)


def aser_total(config: SystemConfig, ctrl: SeriesControl = SeriesControl()) -> MetricResult:
    path = aser_total_symmetric if config.is_symmetric() else aser_total_general
    return path(config, ctrl)


# ---------------------------------------------------------------------------
# selected-SNR density
# ---------------------------------------------------------------------------

def aser_conditional_pdf(x: float, D: DecodingSet, m: int, config: SystemConfig) -> float:
    """Joint density, conditioned on D, of {current SNR of m = x, m selected}.

    Integrates over x to the probability that m is selected; summing over
    m in D (selected_snr_pdf) yields a proper density integrating to one.
    It is the derivative of outage_conditional in its threshold: at
    rho_f < 1 the finite form with each row's kernel 1 - e^(-r x) replaced
    by r e^(-r x).  At rho_f = 1 it is the product
    cdf_max_others(x) lam e^(-lam x), where the signed subset sum would
    cancel as x -> 0.
    """
    _check_candidate(config, D, m)
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    rel = config.relay_params()
    if rel[m].degenerate:
        lam = rel[m].lam
        return cdf_max_others(x, D, m, rel) * lam * math.exp(-lam * x)
    metric = _outage(config)._replace(degenerate=lambda r: r * np.exp(-r * x))
    return _candidate_term(metric, D, m, config)


def selected_snr_pdf(x: float, D: DecodingSet, config: SystemConfig) -> float:
    """Density of the selected relay's current SNR given decoding set D."""
    return sum(aser_conditional_pdf(x, D, m, config) for m in D)


# ---------------------------------------------------------------------------
# average capacity lower bound
# ---------------------------------------------------------------------------

def _capacity(config: SystemConfig) -> _Metric:
    """Capacity lower bound in bits/s/Hz: decoding as for outage, the empty
    set contributes zero capacity, and the kernel is E[ln(1 + X_k / b)]."""
    power = config.power

    def table(link: LinkParams, ctrl: SeriesControl) -> np.ndarray:
        b = link.q / power
        cap = math.log1p((_series_length(link, ctrl, 1.0) + 2.0) / b) + 2.0
        return specfn.log_gamma_mean_table(_series_length(link, ctrl, cap), b)

    def degenerate(r: np.ndarray) -> np.ndarray:
        # E[ln(1 + P X)], X ~ Exponential(r): e^b E1(b) with b = r / P
        return specfn.exp1_scaled(r / power)

    return _Metric(_threshold_decode(config.r_o), 0.0, table, degenerate, lambda v: v / (2.0 * LN2))


def capacity_lb_avg_general(
    config: SystemConfig, ctrl: SeriesControl = SeriesControl()
) -> MetricResult:
    """Capacity lower bound over all 2^M decoding sets, in finite form: ctrl has no effect."""
    return _total_general(config, _capacity(config))


def capacity_lb_avg_symmetric(
    config: SystemConfig, ctrl: SeriesControl = SeriesControl()
) -> MetricResult:
    return _total_symmetric(config, _capacity(config), ctrl)


def capacity_lb_avg(config: SystemConfig, ctrl: SeriesControl = SeriesControl()) -> MetricResult:
    path = capacity_lb_avg_symmetric if config.is_symmetric() else capacity_lb_avg_general
    return path(config, ctrl)
