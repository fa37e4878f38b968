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
averaged log for capacity).

Relays decode independently, relay i with probability p_i, so for a fixed
(m, S) the weights of all decoding sets D containing S and m add up to
p_m prod_{i in S} p_i.  The general (asymmetric) path therefore evaluates

    empty-set term + sum_m p_m sum_{S subset of [M]\\{m}} prod_{i in S}(-p_i) f_m(a_S)

with one candidate pass per relay: M 2^(M-1) subset rows instead of the
M 3^(M-1) of the explicit decoding-set sum.  The symmetric path groups the
decoding sets by size and the subsets by size with binomial multiplicities.
rho_f = 1 collapses to exact order-statistics forms (a kernel evaluated at
the rate sums instead of a series).

Each metric is one `_Metric` record: its decode probability, its value when
no relay decodes, its kernel table, its rho_f = 1 kernel and its final
scaling.  One candidate function (`_candidate`) evaluates the term above for
any record, and two drivers (`_total_general`, `_total_symmetric`) sum it
over decoding sets; the public `*_general` / `*_symmetric` functions and
their dispatchers only pick a record and a driver.
"""

from __future__ import annotations

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
    oracle_value: float | None = None


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
# conditional current-given-old CDF and the max-of-others CDF
# ---------------------------------------------------------------------------

def cdf_current_given_old(
    x: float, gamma_old: float, link: LinkParams, ctrl: SeriesControl = SeriesControl()
) -> float:
    """CDF of the current SNR given the old one: Poisson mixture
    sum_k w_k(c g / 2) * P(k+1, q x) with q = lam / (1 - rho_f^2).

    Equals 1 - MarcumQ1(sqrt(c g), sqrt(2 q x)); rho_f = 1 degenerates to a
    step at gamma_old.
    """
    if x < 0.0 or gamma_old < 0.0:
        raise ValueError("x and gamma_old must be nonnegative")
    if link.degenerate:
        return 1.0 if gamma_old <= x else 0.0
    if x == 0.0:
        return 0.0
    q = link.q
    if gamma_old == 0.0:
        return float(specfn.lower_gamma_ratio_table(0, q * x)[0])
    k_lo, w = specfn.poisson_weight_window(0.5 * link.c * gamma_old, ctrl.abs_tol, ctrl.k_max)
    g_table = specfn.lower_gamma_ratio_table(k_lo + len(w) - 1, q * x)
    return float(w @ g_table[k_lo:])


def cdf_max_others(
    x: float, D: DecodingSet, excluded: int, links: list[LinkParams]
) -> float:
    """CDF of max of the other members' old SNRs, product form
    prod_{i in D, i != excluded} (1 - exp(-lam_i x))."""
    if excluded not in D:
        raise ValueError("excluded index must belong to the decoding set")
    if x < 0.0:
        return 0.0
    p = 1.0
    for i in D:
        if i != excluded:
            p *= -math.expm1(-links[i].lam * x)
    return p


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


def _symmetric_expansion(l: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Grouped expansion for identical links: subsets of size s collapse to
    (-1)^s C(l-1, s) with rate sum s*lam."""
    s = np.arange(l, dtype=float)
    signs = np.where(np.arange(l) % 2 == 0, 1.0, -1.0)
    mult = np.array([specfn.binomial(l - 1, int(i)) for i in range(l)], dtype=float)
    return signs * mult, s * lam


def _series_length(
    r_max: float,
    tol: float,
    k_max: int,
    kernel_cap: float,
    gamma_cut: float | None = None,
) -> int:
    """Series index needed so that the geometric tail (times a kernel bound)
    drops below tol.  gamma_cut, when given, is the index past which the
    outage kernel itself is below ~1e-18 and may stop the series earlier."""
    if r_max <= 0.0:
        return 0
    num = math.log(tol * (1.0 - r_max) / max(kernel_cap, 1e-300))
    k_geo = max(0, math.ceil(num / math.log(r_max)) + 2)
    k_need = k_geo
    if gamma_cut is not None:
        k_need = min(k_need, math.ceil(gamma_cut))
    if k_need > k_max:
        raise SeriesError(
            f"series needs {k_need} terms but k_max is {k_max} "
            f"(geometric ratio {r_max:.6g})"
        )
    return k_need


def _r_max(link: LinkParams) -> float:
    """Largest geometric ratio (c/2) / a_S of a link's series, at S = {}."""
    half_c = 0.5 * link.c
    return half_c / (link.lam + half_c)


def _series_dot(
    link: LinkParams,
    coeffs: np.ndarray,
    lam_extra: np.ndarray,
    kernel: np.ndarray,
) -> tuple[float, float]:
    """sum_j coeffs_j sum_k kernel[k] lam (c/2)^k / a_j^(k+1), plus the same
    with all magnitudes (for the cancellation condition estimate)."""
    half_c = 0.5 * link.c
    base = link.lam + half_c + lam_extra
    t0 = link.lam / base
    ratio = half_c / base
    K = len(kernel) - 1
    # ratio = 0 (rho_f = 0) gives log -inf: 0^k is 0 for k > 0, and the
    # -inf * 0 at k = 0 is replaced by 0^0 = 1
    with np.errstate(divide="ignore", invalid="ignore"):
        powers = np.exp(np.outer(np.log(ratio), np.arange(K + 1)))
    powers[ratio == 0.0, 0] = 1.0
    per_subset = t0 * (powers @ kernel)
    value = float(coeffs @ per_subset)
    abs_sum = float(np.abs(coeffs) @ np.abs(per_subset))
    return value, abs_sum


class _Diag:
    """Aggregates series diagnostics across the candidate terms."""

    def __init__(self):
        self.terms = 0
        self.condition = 1.0

    def update(self, terms: int, value: float, abs_sum: float) -> None:
        self.terms = max(self.terms, terms)
        cond = abs_sum / abs(value) if value != 0.0 else 1.0
        self.condition = max(self.condition, cond)
        if cond > CONDITION_FLAG:
            warnings.warn(
                f"inclusion-exclusion cancellation condition {cond:.3g} exceeds "
                f"{CONDITION_FLAG:.0e}; result digits are suspect",
                RuntimeWarning,
                stacklevel=3,
            )


def _link_tables(links: list[LinkParams], build) -> list:
    """build(link) for every relay link, evaluated once per distinct link.

    A kernel table and its series length depend only on the link (and the
    config and SeriesControl that build closes over), never on the decoding
    set, so one metric evaluation builds each table once.
    """
    built = {lp: build(lp) for lp in dict.fromkeys(links)}
    return [built[lp] for lp in links]


# ---------------------------------------------------------------------------
# one metric record, one candidate, two drivers
# ---------------------------------------------------------------------------

class _Metric(NamedTuple):
    """What one metric adds to the shared decomposition.

    decode(source link) is the relay's (decode, fail) probability pair;
    empty is the metric's value when no relay decodes; table(relay link) is
    the kernel table truncated to its series length, None when rho_f = 1;
    degenerate(a) is the rho_f = 1 kernel at rate sums a; finish maps a raw
    candidate sum to the metric's units.
    """

    decode: Callable[[LinkParams], tuple[float, float]]
    empty: float
    table: Callable[[LinkParams], np.ndarray | None]
    degenerate: Callable[[np.ndarray], np.ndarray]
    finish: Callable[[float], float]


def _candidate(
    metric: _Metric,
    link: LinkParams,
    table: np.ndarray | None,
    coeffs: np.ndarray,
    lam_extra: np.ndarray,
    diag: _Diag,
) -> float:
    """E[f(current SNR of m); m has the largest old SNR] over the subsets
    that coeffs and lam_extra describe; f is the metric's kernel."""
    if table is None:
        a = link.lam + lam_extra
        per_subset = link.lam / a * metric.degenerate(a)
        value = float(coeffs @ per_subset)
        abs_sum = float(np.abs(coeffs) @ np.abs(per_subset))
        terms = 1
    else:
        value, abs_sum = _series_dot(link, coeffs, lam_extra, table)
        terms = len(table)
    value = metric.finish(value)
    diag.update(terms, value, metric.finish(abs_sum))
    return value


def _total_general(
    config: SystemConfig, metric: _Metric, empty_term: float | None = None
) -> MetricResult:
    """empty_term + sum_m p_m sum_{S subset of [M]\\{m}} prod_{i in S}(-p_i)
    f_m(a_S): the decoding-set sum folded into the subset sum, one candidate
    call per relay.  empty_term defaults to empty * prod_i fail_i."""
    rel = config.relay_params()
    tables = _link_tables(rel, metric.table)
    p, fail = zip(*map(metric.decode, config.source_params()))
    M = len(rel)
    diag = _Diag()
    total = metric.empty * math.prod(fail) if empty_term is None else empty_term
    for m in range(M):
        others = [i for i in range(M) if i != m]
        coeffs, lam_extra = _subset_expansion(
            [rel[i].lam for i in others], [p[i] for i in others]
        )
        total += p[m] * _candidate(metric, rel[m], tables[m], coeffs, lam_extra, diag)
    return MetricResult(total, diag.terms, diag.condition)


def _total_symmetric(config: SystemConfig, metric: _Metric) -> MetricResult:
    """Identical links: decoding sets grouped by size l with weight
    C(M, l) p^l fail^(M-l), and the subsets of each by size (signed binomial
    sum).  Must agree with the general path exactly."""
    if not config.is_symmetric():
        raise ValueError("symmetric path requires identical per-link parameters")
    M = config.M
    p, fail = metric.decode(config.source_params()[0])
    rel = config.relay_params()[0]
    table = metric.table(rel)
    diag = _Diag()
    total = metric.empty * fail**M
    for l in range(1, M + 1):
        coeffs, lam_extra = _symmetric_expansion(l, rel.lam)
        per_m = _candidate(metric, rel, table, coeffs, lam_extra, diag)
        weight = specfn.binomial(M, l) * p**l * fail ** (M - l)
        total += weight * l * per_m
    return MetricResult(total, diag.terms, diag.condition)


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

def _outage(config: SystemConfig, ctrl: SeriesControl) -> _Metric:
    """Outage: relay i decodes with probability exp(-lam_i R_o), the empty set
    is certain outage, and the kernel is gamma(k+1, q R_o) / k!."""
    r_o = config.r_o

    def table(link: LinkParams) -> np.ndarray | None:
        if link.degenerate:
            return None
        x = link.q * r_o
        gamma_cut = x + 45.0 * math.sqrt(x) + 50.0
        K = _series_length(_r_max(link), ctrl.abs_tol, ctrl.k_max, 1.0, gamma_cut)
        return specfn.lower_gamma_ratio_table(K, x)

    return _Metric(_threshold_decode(r_o), 1.0, table, lambda a: -np.expm1(-a * r_o), lambda v: v)


def outage_conditional(
    D: DecodingSet, m: int, config: SystemConfig, ctrl: SeriesControl = SeriesControl()
) -> float:
    """Joint probability, conditioned on D, that relay m is selected and its
    current SNR is below R_o.  Summing over m in D gives the decoding-set
    outage probability."""
    _check_subset(config, D)
    if m not in D:
        raise ValueError("candidate m must belong to the decoding set")
    rel = config.relay_params()
    link = rel[m]
    coeffs, lam_extra = _subset_expansion([rel[i].lam for i in D if i != m])
    metric = _outage(config, ctrl)
    return _candidate(metric, link, metric.table(link), coeffs, lam_extra, _Diag())


def outage_conditional_quadrature(D: DecodingSet, m: int, config: SystemConfig) -> float:
    """Independent oracle for outage_conditional: adaptive quadrature of
    int F(R_o | g) F_max_others(g) lam e^(-lam g) dg with the inner CDF
    evaluated through the Marcum Q function."""
    from scipy import integrate  # only this oracle needs scipy's quadrature

    _check_subset(config, D)
    if m not in D:
        raise ValueError("candidate m must belong to the decoding set")
    rel = config.relay_params()
    link = rel[m]
    r_o = config.r_o
    lam = link.lam

    def chi(g: float) -> float:
        return cdf_max_others(g, D, m, rel)

    if link.degenerate:
        val, _ = integrate.quad(
            lambda g: chi(g) * lam * math.exp(-lam * g), 0.0, r_o, limit=200
        )
        return val

    root_2qro = math.sqrt(2.0 * link.q * r_o)

    def integrand(g: float) -> float:
        inner = 1.0 - specfn.marcum_q1(math.sqrt(link.c * g), root_2qro)
        return inner * chi(g) * lam * math.exp(-lam * g)

    upper = 60.0 / lam
    val, _ = integrate.quad(
        integrand, 0.0, upper, limit=400, points=[r_o, 1.0 / lam, 10.0 / lam]
    )
    return val


def outage_total_general(config: SystemConfig, ctrl: SeriesControl = SeriesControl()) -> MetricResult:
    """Total outage probability over all 2^M decoding sets; the empty set
    (certain outage) has weight Pr[D = {}]."""
    return _total_general(config, _outage(config, ctrl), prob_decoding_set(config, DecodingSet(())))


def outage_total_symmetric(config: SystemConfig, ctrl: SeriesControl = SeriesControl()) -> MetricResult:
    return _total_symmetric(config, _outage(config, ctrl))


def outage_total(config: SystemConfig, ctrl: SeriesControl = SeriesControl()) -> MetricResult:
    path = outage_total_symmetric if config.is_symmetric() else outage_total_general
    return path(config, ctrl)


# ---------------------------------------------------------------------------
# average symbol error rate
# ---------------------------------------------------------------------------

# terms of the Q-function approximation behind the "paper" kernel
N_A = 20


def _paper_kernel_table(K: int, q: float, bp: float, n_a: int) -> np.ndarray:
    """The ASER kernel of the "paper" convention, built on the Q-function
    approximation: kernel[k] = q^(k+1)/k! *
    sum_n a_n (beta P)^((n-1)/2) Gamma(k+(n+1)/2) / (q + beta P)^(k+(n+1)/2)."""
    # Gamma(k+(n+1)/2) and k! = Gamma(k+1) both take arguments on the
    # half-integer grid 1, 1.5, ..., K + (n_a+1)/2: lgamma is evaluated once
    # there, at index 2k + n - 1 and 2k.
    a = specfn.qapprox_coefficients(n_a)
    n = np.arange(1, n_a + 1, dtype=float)
    two_k = 2 * np.arange(K + 1)[:, None]
    k = np.arange(K + 1, dtype=float)[:, None]
    log_bp = math.log(bp)
    log_q = math.log(q)
    log_denom = math.log(q + bp)
    half_grid = (1.0 + 0.5 * np.arange(2 * K + n_a)).tolist()
    lgam_half = np.array([math.lgamma(x) for x in half_grid])
    exps = (
        lgam_half[two_k + np.arange(n_a)]
        - lgam_half[two_k]
        + (k + 1.0) * log_q
        + (n - 1.0) / 2.0 * log_bp
        - (k + (n + 1.0) / 2.0) * log_denom
    )
    # a stack of (1 x n_a) @ (n_a x 1) products: numpy takes one BLAS dot per
    # row, exactly as `a @ row` does, so the table matches a per-k evaluation
    # bit for bit.  A single `terms @ a` mat-vec sums in another order and
    # moves the figure-8 diversity rows by 2.5e-11 relative.
    return (np.exp(exps)[:, None, :] @ a[:, None]).ravel()


def _aser(config: SystemConfig, ctrl: SeriesControl) -> _Metric:
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

    def table(link: LinkParams) -> np.ndarray | None:
        if link.degenerate:
            return None
        K = _series_length(_r_max(link), ctrl.abs_tol, ctrl.k_max, 0.5)
        if paper:
            return _paper_kernel_table(K, link.q, bp, N_A)
        return specfn.mean_q_gamma_table(K + 1, bp / (2.0 * link.q))

    def degenerate(a: np.ndarray) -> np.ndarray:
        # E[Q(sqrt(beta P X))], X ~ Exponential(a): (1 - sqrt(c / (1 + c))) / 2
        c = bp / (2.0 * a)
        return 0.5 * (1.0 - np.sqrt(c / (1.0 + c)))

    return _Metric(decode, 0.5, table, degenerate, lambda v: alpha * v)


def aser_total_general(config: SystemConfig, ctrl: SeriesControl = SeriesControl()) -> MetricResult:
    return _total_general(config, _aser(config, ctrl))


def aser_total_symmetric(config: SystemConfig, ctrl: SeriesControl = SeriesControl()) -> MetricResult:
    return _total_symmetric(config, _aser(config, ctrl))


def aser_total(config: SystemConfig, ctrl: SeriesControl = SeriesControl()) -> MetricResult:
    path = aser_total_symmetric if config.is_symmetric() else aser_total_general
    return path(config, ctrl)


# ---------------------------------------------------------------------------
# selected-SNR density
# ---------------------------------------------------------------------------

def aser_conditional_pdf(
    x: float,
    D: DecodingSet,
    m: int,
    config: SystemConfig,
    ctrl: SeriesControl = SeriesControl(),
) -> float:
    """Joint density, conditioned on D, of {current SNR of m = x, m selected}.

    Integrates over x to the probability that m is selected; summing over
    m in D (selected_snr_pdf) yields a proper density integrating to one.
    Equals the derivative of outage_conditional in its threshold argument.
    """
    _check_subset(config, D)
    if m not in D:
        raise ValueError("candidate m must belong to the decoding set")
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    rel = config.relay_params()
    link = rel[m]
    coeffs, lam_extra = _subset_expansion([rel[i].lam for i in D if i != m])
    if link.degenerate:
        return cdf_max_others(x, D, m, rel) * link.lam * math.exp(-link.lam * x)
    q = link.q
    if x == 0.0:
        # only the k = 0 gamma density is nonzero at the origin
        per_subset = link.lam / (link.lam + 0.5 * link.c + lam_extra)
        return q * float(coeffs @ per_subset)
    k_lo, w = specfn.poisson_weight_window(q * x, ctrl.abs_tol, ctrl.k_max)
    half_c = 0.5 * link.c
    base = link.lam + half_c + lam_extra
    t0 = link.lam / base
    ratio = half_c / base
    k = np.arange(k_lo, k_lo + len(w), dtype=float)
    # ratio = 0 (rho_f = 0) gives log -inf: 0^k is 0 for k > 0, and the
    # -inf * 0 at k = 0 is replaced by 0^0 = 1
    with np.errstate(divide="ignore", invalid="ignore"):
        powers = np.exp(np.outer(np.log(ratio), k))
    if k_lo == 0:
        powers[ratio == 0.0, 0] = 1.0
    per_subset = t0 * (powers @ w)
    return q * float(coeffs @ per_subset)


def selected_snr_pdf(
    x: float, D: DecodingSet, config: SystemConfig, ctrl: SeriesControl = SeriesControl()
) -> float:
    """Density of the selected relay's current SNR given decoding set D."""
    return sum(aser_conditional_pdf(x, D, m, config, ctrl) for m in D)


# ---------------------------------------------------------------------------
# average capacity lower bound
# ---------------------------------------------------------------------------

def _capacity(config: SystemConfig, ctrl: SeriesControl) -> _Metric:
    """Capacity lower bound in bits/s/Hz: decoding as for outage, the empty
    set contributes zero capacity, and the kernel is E[ln(1 + X_k / b)]."""
    power = config.power

    def table(link: LinkParams) -> np.ndarray | None:
        if link.degenerate:
            return None
        b = link.q / power
        r_max = _r_max(link)
        k0 = _series_length(r_max, ctrl.abs_tol, ctrl.k_max, 1.0)
        cap = math.log1p((k0 + 2.0) / b) + 2.0
        K = _series_length(r_max, ctrl.abs_tol, ctrl.k_max, cap)
        return specfn.log_gamma_mean_table(K, b)

    def degenerate(a: np.ndarray) -> np.ndarray:
        return np.array([specfn.log_gamma_mean_table(0, ai / power)[0] for ai in a])

    return _Metric(_threshold_decode(config.r_o), 0.0, table, degenerate, lambda v: v / (2.0 * LN2))


def capacity_lb_avg_general(
    config: SystemConfig, ctrl: SeriesControl = SeriesControl()
) -> MetricResult:
    return _total_general(config, _capacity(config, ctrl))


def capacity_lb_avg_symmetric(
    config: SystemConfig, ctrl: SeriesControl = SeriesControl()
) -> MetricResult:
    return _total_symmetric(config, _capacity(config, ctrl))


def capacity_lb_avg(config: SystemConfig, ctrl: SeriesControl = SeriesControl()) -> MetricResult:
    path = capacity_lb_avg_symmetric if config.is_symmetric() else capacity_lb_avg_general
    return path(config, ctrl)
