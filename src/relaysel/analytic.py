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
rho_f = 1 collapses to exact order-statistics forms and is handled as a
separate branch throughout.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations

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
    with np.errstate(divide="ignore"):
        log_ratio = np.log(ratio)
    log_ratio[ratio == 0.0] = -np.inf
    powers = np.exp(np.outer(log_ratio, np.arange(K + 1)))
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
# outage
# ---------------------------------------------------------------------------

def _outage_link_table(link: LinkParams, r_o: float, ctrl: SeriesControl) -> np.ndarray | None:
    """Outage kernel gamma(k+1, q R_o) / k! of one link, truncated to its
    series length; None when rho_f = 1, which needs no series."""
    if link.degenerate:
        return None
    x = link.q * r_o
    half_c = 0.5 * link.c
    r_max = half_c / (link.lam + half_c)
    gamma_cut = x + 45.0 * math.sqrt(x) + 50.0
    K = _series_length(r_max, ctrl.abs_tol, ctrl.k_max, 1.0, gamma_cut)
    return specfn.lower_gamma_ratio_table(K, x)


def _outage_candidate(
    link: LinkParams,
    table: np.ndarray | None,
    coeffs: np.ndarray,
    lam_extra: np.ndarray,
    r_o: float,
    diag: _Diag,
) -> float:
    """Pr[current SNR of m <= R_o and m has the max old SNR | D]."""
    if link.degenerate:
        a = link.lam + lam_extra
        per_subset = link.lam / a * (-np.expm1(-a * r_o))
        value = float(coeffs @ per_subset)
        diag.update(1, value, float(np.abs(coeffs) @ np.abs(per_subset)))
        return value
    value, abs_sum = _series_dot(link, coeffs, lam_extra, table)
    diag.update(len(table), value, abs_sum)
    return value


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
    table = _outage_link_table(link, config.r_o, ctrl)
    return _outage_candidate(link, table, coeffs, lam_extra, config.r_o, _Diag())


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


def _merged_total_general(
    rel: list[LinkParams], tables: list, p: list[float], empty_value: float, candidate
) -> MetricResult:
    """empty_value + sum_m p_m sum_{S subset of [M]\\{m}} prod_{i in S}(-p_i)
    f_m(a_S): the decoding-set sum folded into the subset sum.  p_i is relay
    i's decoding probability; candidate(link, table, coeffs, lam_extra, diag)
    is the metric's candidate term, called once per relay."""
    M = len(rel)
    diag = _Diag()
    total = empty_value
    for m in range(M):
        others = [i for i in range(M) if i != m]
        coeffs, lam_extra = _subset_expansion(
            [rel[i].lam for i in others], [p[i] for i in others]
        )
        total += p[m] * candidate(rel[m], tables[m], coeffs, lam_extra, diag)
    return MetricResult(total, diag.terms, diag.condition)


def outage_total_general(config: SystemConfig, ctrl: SeriesControl = SeriesControl()) -> MetricResult:
    """Total outage probability, summed over all 2^M decoding sets by the
    merged driver; the empty set (certain outage) has weight Pr[D = {}]."""
    rel = config.relay_params()
    r_o = config.r_o
    tables = _link_tables(rel, lambda lp: _outage_link_table(lp, r_o, ctrl))
    p = [prob_relay_decodes(lp, r_o) for lp in config.source_params()]
    return _merged_total_general(
        rel,
        tables,
        p,
        prob_decoding_set(config, DecodingSet(())),
        lambda link, table, coeffs, lam_extra, diag: _outage_candidate(
            link, table, coeffs, lam_extra, r_o, diag
        ),
    )


def outage_total_symmetric(config: SystemConfig, ctrl: SeriesControl = SeriesControl()) -> MetricResult:
    """Symmetric fast path: group decoding sets by size l, weight by the
    binomial count, and collapse the inclusion-exclusion sum over subsets to
    a signed binomial sum.  Must agree with the general path exactly."""
    if not config.is_symmetric():
        raise ValueError("symmetric path requires identical per-link parameters")
    src = config.source_params()[0]
    rel = config.relay_params()[0]
    r_o = config.r_o
    p = prob_relay_decodes(src, r_o)
    table = _outage_link_table(rel, r_o, ctrl)
    diag = _Diag()
    total = (1.0 - p) ** config.M  # empty set: certain outage
    for l in range(1, config.M + 1):
        coeffs, lam_extra = _symmetric_expansion(l, rel.lam)
        per_m = _outage_candidate(rel, table, coeffs, lam_extra, r_o, diag)
        weight = specfn.binomial(config.M, l) * p**l * (1.0 - p) ** (config.M - l)
        total += weight * l * per_m
    return MetricResult(total, diag.terms, diag.condition)


def outage_total(config: SystemConfig, ctrl: SeriesControl = SeriesControl()) -> MetricResult:
    if config.is_symmetric():
        return outage_total_symmetric(config, ctrl)
    return outage_total_general(config, ctrl)


# ---------------------------------------------------------------------------
# average symbol error rate
# ---------------------------------------------------------------------------

ASER_KERNELS = ("exact", "qapprox", "paper")


def _aser_kernel_table(
    kind: str, K: int, q: float, config: SystemConfig, n_a: int
) -> np.ndarray:
    bp = config.beta * config.power
    if kind == "exact":
        return specfn.mean_q_gamma_table(K + 1, bp / (2.0 * q))
    # Q-approximation kernels: kernel[k] = q^(k+1)/k! *
    #   sum_n a_n (beta P)^((n-1)/2) Gamma(k+(n+1)/2) / (q + beta P h)^(k+(n+1)/2)
    # h = 1/2 is the faithful expansion; h = 1 is the variant the "paper"
    # convention evaluates.
    # Gamma(k+(n+1)/2) and k! = Gamma(k+1) both take arguments on the
    # half-integer grid 1, 1.5, ..., K + (n_a+1)/2: lgamma is evaluated once
    # there, at index 2k + n - 1 and 2k.
    h = 0.5 if kind == "qapprox" else 1.0
    a = specfn.qapprox_coefficients(n_a)
    n = np.arange(1, n_a + 1, dtype=float)
    two_k = 2 * np.arange(K + 1)[:, None]
    k = np.arange(K + 1, dtype=float)[:, None]
    log_bp = math.log(bp)
    log_q = math.log(q)
    log_denom = math.log(q + bp * h)
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


def _aser_link_table(
    link: LinkParams, config: SystemConfig, ctrl: SeriesControl, n_a: int, kernel_kind: str
) -> np.ndarray | None:
    """ASER kernel table of one link, truncated to its series length; None
    when rho_f = 1."""
    if link.degenerate:
        return None
    half_c = 0.5 * link.c
    r_max = half_c / (link.lam + half_c)
    K = _series_length(r_max, ctrl.abs_tol, ctrl.k_max, 0.5)
    return _aser_kernel_table(kernel_kind, K, link.q, config, n_a)


def _aser_candidate(
    link: LinkParams,
    table: np.ndarray | None,
    coeffs: np.ndarray,
    lam_extra: np.ndarray,
    config: SystemConfig,
    diag: _Diag,
) -> float:
    """alpha * E[Q(sqrt(beta P gamma_m)) ; m selected | D]."""
    if link.degenerate:
        bp = config.beta * config.power
        a = link.lam + lam_extra
        qbar = np.array([specfn.mean_q_gamma(1, bp / (2.0 * ai)) for ai in a])
        per_subset = link.lam / a * qbar
        value = config.alpha * float(coeffs @ per_subset)
        diag.update(1, value, config.alpha * float(np.abs(coeffs) @ np.abs(per_subset)))
        return value
    value, abs_sum = _series_dot(link, coeffs, lam_extra, table)
    diag.update(len(table), config.alpha * value, config.alpha * abs_sum)
    return config.alpha * value


def _aser_kernel_kind(config: SystemConfig, kernel: str | None) -> str:
    if kernel is None:
        return "paper" if config.lambda_convention == "paper" else "exact"
    if kernel not in ASER_KERNELS:
        raise ValueError(f"unknown ASER kernel {kernel!r}")
    return kernel


def aser_total_general(
    config: SystemConfig,
    ctrl: SeriesControl = SeriesControl(),
    n_a: int = 20,
    kernel: str | None = None,
) -> MetricResult:
    """ASER over all decoding sets by the merged driver; relay i decodes
    with probability 1 - B_i (B_i its average decoding error probability),
    and the all-off term is ½ prod B_i."""
    kind = _aser_kernel_kind(config, kernel)
    rel = config.relay_params()
    b = [relay_error_prob(lp, config) for lp in config.source_params()]
    tables = _link_tables(rel, lambda lp: _aser_link_table(lp, config, ctrl, n_a, kind))
    return _merged_total_general(
        rel,
        tables,
        [1.0 - bi for bi in b],
        0.5 * math.prod(b),
        lambda link, table, coeffs, lam_extra, diag: _aser_candidate(
            link, table, coeffs, lam_extra, config, diag
        ),
    )


def aser_total_symmetric(
    config: SystemConfig,
    ctrl: SeriesControl = SeriesControl(),
    n_a: int = 20,
    kernel: str | None = None,
) -> MetricResult:
    if not config.is_symmetric():
        raise ValueError("symmetric path requires identical per-link parameters")
    kind = _aser_kernel_kind(config, kernel)
    rel = config.relay_params()[0]
    b = relay_error_prob(config.source_params()[0], config)
    table = _aser_link_table(rel, config, ctrl, n_a, kind)
    diag = _Diag()
    total = 0.5 * b**config.M
    for l in range(1, config.M + 1):
        coeffs, lam_extra = _symmetric_expansion(l, rel.lam)
        per_m = _aser_candidate(rel, table, coeffs, lam_extra, config, diag)
        weight = specfn.binomial(config.M, l) * (1.0 - b) ** l * b ** (config.M - l)
        total += weight * l * per_m
    return MetricResult(total, diag.terms, diag.condition)


def aser_total(
    config: SystemConfig,
    ctrl: SeriesControl = SeriesControl(),
    n_a: int = 20,
    kernel: str | None = None,
) -> MetricResult:
    if config.is_symmetric():
        return aser_total_symmetric(config, ctrl, n_a, kernel)
    return aser_total_general(config, ctrl, n_a, kernel)


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

def _capacity_link_table(
    link: LinkParams, config: SystemConfig, ctrl: SeriesControl
) -> np.ndarray | None:
    """Capacity kernel E[ln(1 + X_k / b)] of one link, truncated to its
    series length; None when rho_f = 1."""
    if link.degenerate:
        return None
    b = link.q / config.power
    half_c = 0.5 * link.c
    r_max = half_c / (link.lam + half_c)
    k0 = _series_length(r_max, ctrl.abs_tol, ctrl.k_max, 1.0)
    cap = math.log1p((k0 + 2.0) / b) + 2.0
    K = _series_length(r_max, ctrl.abs_tol, ctrl.k_max, cap)
    return specfn.log_gamma_mean_table(K, b)


def _capacity_candidate(
    link: LinkParams,
    table: np.ndarray | None,
    coeffs: np.ndarray,
    lam_extra: np.ndarray,
    config: SystemConfig,
    diag: _Diag,
) -> float:
    """E[(1/2) log2(1 + P gamma_m) ; m selected | D], in bits/s/Hz."""
    if link.degenerate:
        a = link.lam + lam_extra
        logs = np.array([specfn.log_gamma_mean_table(0, ai / config.power)[0] for ai in a])
        per_subset = link.lam / a * logs
        value = float(coeffs @ per_subset) / (2.0 * LN2)
        diag.update(1, value, float(np.abs(coeffs) @ np.abs(per_subset)) / (2.0 * LN2))
        return value
    value, abs_sum = _series_dot(link, coeffs, lam_extra, table)
    diag.update(len(table), value, abs_sum)
    return value / (2.0 * LN2)


def capacity_lb_avg_general(
    config: SystemConfig, ctrl: SeriesControl = SeriesControl()
) -> MetricResult:
    """Average capacity lower bound over all decoding sets by the merged
    driver; the empty set contributes zero capacity."""
    rel = config.relay_params()
    tables = _link_tables(rel, lambda lp: _capacity_link_table(lp, config, ctrl))
    p = [prob_relay_decodes(lp, config.r_o) for lp in config.source_params()]
    return _merged_total_general(
        rel,
        tables,
        p,
        0.0,
        lambda link, table, coeffs, lam_extra, diag: _capacity_candidate(
            link, table, coeffs, lam_extra, config, diag
        ),
    )


def capacity_lb_avg_symmetric(
    config: SystemConfig, ctrl: SeriesControl = SeriesControl()
) -> MetricResult:
    if not config.is_symmetric():
        raise ValueError("symmetric path requires identical per-link parameters")
    src = config.source_params()[0]
    rel = config.relay_params()[0]
    p = prob_relay_decodes(src, config.r_o)
    table = _capacity_link_table(rel, config, ctrl)
    diag = _Diag()
    total = 0.0  # empty set contributes zero capacity
    for l in range(1, config.M + 1):
        coeffs, lam_extra = _symmetric_expansion(l, rel.lam)
        per_m = _capacity_candidate(rel, table, coeffs, lam_extra, config, diag)
        weight = specfn.binomial(config.M, l) * p**l * (1.0 - p) ** (config.M - l)
        total += weight * l * per_m
    return MetricResult(total, diag.terms, diag.condition)


def capacity_lb_avg(config: SystemConfig, ctrl: SeriesControl = SeriesControl()) -> MetricResult:
    if config.is_symmetric():
        return capacity_lb_avg_symmetric(config, ctrl)
    return capacity_lb_avg_general(config, ctrl)
