"""SER and capacity closed forms against quadrature and structural oracles."""

import dataclasses
import itertools
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy import integrate

from relaysel import analytic as an
from relaysel import channel as ch
from relaysel import specfn
from relaysel.specfn import SeriesControl, SeriesError, gaussian_q

from conftest import CTRL, mixed_asym_config, slow_fading_asym_config, sym_config


# ---------------------------------------------------------------------------
# per-relay decoding error probability
# ---------------------------------------------------------------------------

def b_i_quadrature(lam: float, alpha: float, beta: float, power: float) -> float:
    val, _ = integrate.quad(
        lambda g: alpha * gaussian_q(math.sqrt(beta * power * g)) * lam * math.exp(-lam * g),
        0.0, np.inf, limit=300,
    )
    return val


def test_relay_error_prob_values():
    cfg = sym_config(M=1, power=10.0, rho_f=1.0)
    lp = cfg.source_params()[0]
    v = an.relay_error_prob(lp, cfg)
    assert v == pytest.approx(0.5 * (1.0 - math.sqrt(20.0 / 22.0)), rel=1e-14)
    # exact evaluation gives 0.0232687; the often-quoted 0.02325 is a rounding
    assert v == pytest.approx(0.023268705377203824, rel=1e-12)
    assert v == pytest.approx(b_i_quadrature(1.0, 1.0, 2.0, 10.0), abs=1e-10)

    low = sym_config(M=1, power=0.5, rho_f=1.0)
    v2 = an.relay_error_prob(low.source_params()[0], low)
    assert v2 == pytest.approx(0.5 * (1.0 - math.sqrt(1.0 / 3.0)), rel=1e-14)
    assert v2 == pytest.approx(0.21132, abs=5e-6)
    assert v2 == pytest.approx(b_i_quadrature(1.0, 1.0, 2.0, 0.5), abs=1e-10)


def test_relay_error_prob_decreases_with_power():
    vals = []
    for p in (0.5, 2.0, 10.0, 100.0, 1e4):
        cfg = sym_config(M=1, power=p, rho_f=1.0)
        vals.append(an.relay_error_prob(cfg.source_params()[0], cfg))
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-3


# ---------------------------------------------------------------------------
# selected-SNR density
# ---------------------------------------------------------------------------

# as rho_f -> 1, q x outgrows any k-series cap (q x = 1.4e5 at rho_f = 0.99999
# and x = 2 here); the finite form sums no series
PDF_RHO_FS = [0.85, 0.999, 0.99999]


@pytest.mark.parametrize("rho_f", PDF_RHO_FS)
def test_pdf_normalizes_to_one(rho_f):
    cfg = sym_config(M=3, power=10.0, rho_e=0.97, rho_f=rho_f)
    D = an.DecodingSet((0, 1, 2))
    total, _ = integrate.quad(lambda x: an.selected_snr_pdf(x, D, cfg), 0.0, 80.0, limit=300)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_pdf_per_candidate_integrates_to_selection_probability():
    cfg = sym_config(M=3, power=10.0, rho_f=0.85)
    D = an.DecodingSet((0, 1, 2))
    per, _ = integrate.quad(
        lambda x: an.aser_conditional_pdf(x, D, 0, cfg), 0.0, 80.0, limit=300
    )
    assert per == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_pdf_degenerate_single_member_is_exponential():
    cfg = sym_config(M=1, power=10.0, rho_f=1.0)
    lam = cfg.relay_params()[0].lam
    D = an.DecodingSet((0,))
    for x in (0.0, 0.4, 2.0):
        assert an.aser_conditional_pdf(x, D, 0, cfg) == pytest.approx(
            lam * math.exp(-lam * x), rel=1e-12
        )


def test_pdf_degenerate_keeps_the_product_form():
    # at rho_f = 1 the signed subset sum of the finite rows cancels as
    # x -> 0 (4.4e4 relative off here); the product form is exact.  The
    # reference is 50-digit mpmath of (1 - e^(-x))^5 e^(-x), lam = 1
    cfg = sym_config(M=6, power=10.0, rho_f=1.0)
    assert cfg.relay_params()[0].lam == 1.0
    D = an.DecodingSet(tuple(range(6)))
    got = an.aser_conditional_pdf(1e-4, D, 0, cfg)
    assert got == pytest.approx(9.9965006332545932764316e-21, rel=1e-14)


@pytest.mark.parametrize("rho_f", [0.0, 0.85])
def test_pdf_at_zero_is_the_k_0_density(rho_f):
    # only the k = 0 gamma density is nonzero at the origin:
    # q sum_S (-1)^|S| lam / (lam + c/2 + lam_S)
    links = tuple(ch.FadingParams(v, 0.95, rho_f) for v in (0.8, 0.95, 1.1))
    cfg = ch.SystemConfig(M=3, power=10.0, source_links=links, relay_links=links)
    rel = cfg.relay_params()
    D = an.DecodingSet((0, 1, 2))
    for m in D:
        link = rel[m]
        others = [rel[i].lam for i in D if i != m]
        want = link.q * math.fsum(
            (-1) ** len(S) * link.lam / (link.lam + 0.5 * link.c + sum(S))
            for r in range(len(others) + 1) for S in itertools.combinations(others, r)
        )
        assert an.aser_conditional_pdf(0.0, D, m, cfg) == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("rho_f", PDF_RHO_FS)
def test_pdf_matches_threshold_derivative(rho_f):
    cfg = sym_config(M=3, power=10.0, rho_e=0.97, rho_f=rho_f)
    D = an.DecodingSet((0, 1, 2))
    h = 1e-5

    def outage_at(x):
        rate = 0.5 * math.log2(1.0 + cfg.power * x)
        cfg_x = dataclasses.replace(cfg, rate=rate)
        return an.outage_conditional(D, 0, cfg_x, CTRL)

    for x0 in (0.5, 2.0):
        fd = (outage_at(x0 + h) - outage_at(x0 - h)) / (2.0 * h)
        assert an.aser_conditional_pdf(x0, D, 0, cfg) == pytest.approx(fd, abs=1e-5)


# ---------------------------------------------------------------------------
# total ASER
# ---------------------------------------------------------------------------

def aser_quadrature(cfg) -> float:
    """Oracle: decoding-set sum with alpha Q(sqrt(beta P x)) integrated
    against the selected-SNR density."""
    b = [an.relay_error_prob(lp, cfg) for lp in cfg.source_params()]
    bp = cfg.beta * cfg.power
    total = 0.0
    for D in an.all_decoding_sets(cfg.M):
        w = 1.0
        for i in range(cfg.M):
            w *= (1.0 - b[i]) if i in D else b[i]
        if not D.members:
            total += 0.5 * w
            continue
        val, _ = integrate.quad(
            lambda x: cfg.alpha
            * gaussian_q(math.sqrt(bp * x))
            * an.selected_snr_pdf(x, D, cfg),
            0.0, 60.0, limit=300,
        )
        total += w * val
    return total


def test_aser_matches_quadrature():
    cfg = sym_config(M=2, power=10.0, rho_e=0.97, rho_f=0.85)
    assert an.aser_total(cfg, CTRL).value == pytest.approx(aser_quadrature(cfg), abs=1e-8)


def test_aser_degenerate_matches_quadrature():
    cfg = sym_config(M=2, power=15.0, rho_f=1.0)
    assert an.aser_total(cfg, CTRL).value == pytest.approx(aser_quadrature(cfg), abs=1e-9)


def test_aser_heterogeneous_matches_quadrature():
    src = (ch.FadingParams(1.0, 1.0, 1.0), ch.FadingParams(0.95, 0.95, 1.0))
    rel = (ch.FadingParams(1.0, 1.0, 0.8), ch.FadingParams(0.9, 0.9, 1.0))
    cfg = ch.SystemConfig(M=2, power=6.0, source_links=src, relay_links=rel)
    assert an.aser_total(cfg, CTRL).value == pytest.approx(aser_quadrature(cfg), abs=1e-8)


def test_aser_symmetric_equals_general():
    for M in range(1, 6):
        cfg = sym_config(M=M, power=12.0, rho_e=0.97, rho_f=0.85)
        g = an.aser_total_general(cfg, CTRL).value
        s = an.aser_total_symmetric(cfg, CTRL).value
        assert abs(g - s) <= 1e-10 * abs(s)


def test_aser_single_relay_slope_is_one():
    # perfect CSI, M = 1: classic two-hop DF decays like 1/P
    cfg = sym_config(M=1, power=1.0, rho_f=1.0)
    v30 = an.aser_total(cfg.with_power(10.0**3.0), CTRL).value
    v40 = an.aser_total(cfg.with_power(10.0**4.0), CTRL).value
    slope = -(math.log10(v40) - math.log10(v30))
    assert slope == pytest.approx(1.0, abs=0.05)


def test_aser_error_floor_with_estimation_error():
    cfg = sym_config(M=2, power=1.0, rho_e=0.99, rho_f=0.9)
    v30 = an.aser_total(cfg.with_power(10.0**3.0), CTRL).value
    v40 = an.aser_total(cfg.with_power(10.0**4.0), CTRL).value
    assert abs(v40 - v30) / v30 < 0.10  # flat within 10% over a decade


def test_aser_paper_kernel_differs_by_convention_factor():
    # the "paper" kernel base corresponds to dropping the 1/2 in the
    # Gaussian-tail exponent; at high SNR it roughly halves the value.  With
    # rho_e = 1 and unit variance both conventions give the same lam, so
    # only the kernel differs.
    cfg = sym_config(M=2, power=100.0, rho_e=1.0, rho_f=0.9)
    paper_cfg = dataclasses.replace(cfg, lambda_convention="paper")
    assert paper_cfg.relay_params() == cfg.relay_params()
    exact = an.aser_total(cfg, CTRL).value
    alt = an.aser_total(paper_cfg, CTRL).value
    assert 0.4 < alt / exact < 0.75


def test_aser_values_in_unit_interval():
    rng = np.random.default_rng(17)
    for _ in range(15):
        cfg = ch.SystemConfig.symmetric(
            M=int(rng.integers(1, 5)),
            power=float(rng.uniform(0.5, 300.0)),
            rho_e=float(rng.uniform(0.9, 1.0)),
            rho_f=float(rng.uniform(0.0, 1.0)),
        )
        v = an.aser_total(cfg, CTRL).value
        assert -1e-9 <= v <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# capacity lower bound
# ---------------------------------------------------------------------------

def capacity_quadrature(cfg) -> float:
    total = 0.0
    for D in an.all_decoding_sets(cfg.M):
        if not D.members:
            continue
        w = an.prob_decoding_set(cfg, D)
        val, _ = integrate.quad(
            lambda x: 0.5 * math.log2(1.0 + cfg.power * x) * an.selected_snr_pdf(x, D, cfg),
            0.0, 150.0, limit=400,
        )
        total += w * val
    return total


def test_capacity_matches_quadrature():
    cfg = sym_config(M=2, power=10.0, rho_e=1.0, rho_f=0.9)
    assert an.capacity_lb_avg(cfg, CTRL).value == pytest.approx(
        capacity_quadrature(cfg), abs=1e-6
    )


def test_capacity_heterogeneous_matches_quadrature():
    src = (ch.FadingParams(1.0, 1.0, 1.0), ch.FadingParams(0.95, 0.95, 1.0))
    rel = (ch.FadingParams(1.0, 1.0, 0.8), ch.FadingParams(0.9, 0.9, 1.0))
    cfg = ch.SystemConfig(M=2, power=6.0, source_links=src, relay_links=rel)
    assert an.capacity_lb_avg(cfg, CTRL).value == pytest.approx(
        capacity_quadrature(cfg), abs=1e-6
    )


def test_capacity_vanishes_at_zero_power():
    cfg = sym_config(M=2, power=1e-9, rho_f=0.9)
    assert an.capacity_lb_avg(cfg, CTRL).value == pytest.approx(0.0, abs=1e-6)


def test_capacity_nondecreasing_in_power():
    cfg = sym_config(M=2, power=1.0, rho_e=0.95, rho_f=0.9)
    vals = [
        an.capacity_lb_avg(cfg.with_power(10 ** (s / 10.0)), CTRL).value
        for s in range(0, 41, 4)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_capacity_ceiling_with_estimation_error():
    cfg = sym_config(M=2, power=1.0, rho_e=0.95, rho_f=0.9)
    c30 = an.capacity_lb_avg(cfg.with_power(10.0**3.0), CTRL).value
    c40 = an.capacity_lb_avg(cfg.with_power(10.0**4.0), CTRL).value
    assert 0.0 <= c40 - c30 < 0.05


def test_capacity_symmetric_equals_general():
    for M in range(1, 6):
        cfg = sym_config(M=M, power=12.0, rho_e=0.97, rho_f=0.85)
        g = an.capacity_lb_avg_general(cfg, CTRL).value
        s = an.capacity_lb_avg_symmetric(cfg, CTRL).value
        assert abs(g - s) <= 1e-10 * abs(s)


def test_capacity_degenerate_matches_quadrature():
    cfg = sym_config(M=2, power=15.0, rho_f=1.0)
    assert an.capacity_lb_avg(cfg, CTRL).value == pytest.approx(
        capacity_quadrature(cfg), abs=1e-6
    )


# ---------------------------------------------------------------------------
# kernel tables
# ---------------------------------------------------------------------------

def aser_qapprox_table_per_k(K, q, cfg, n_a):
    """Reference: the Q-approximation ASER kernel evaluated one k at a time."""
    bp = cfg.beta * cfg.power
    a = specfn.qapprox_coefficients(n_a)
    n = np.arange(1, n_a + 1, dtype=float)
    log_bp = math.log(bp)
    log_q = math.log(q)
    log_denom = math.log(q + bp)
    out = np.empty(K + 1)
    for k in range(K + 1):
        exps = (
            np.array([math.lgamma(k + (v + 1.0) / 2.0) for v in n])
            - specfn.ln_factorial(k)
            + (k + 1.0) * log_q
            + (n - 1.0) / 2.0 * log_bp
            - (k + (n + 1.0) / 2.0) * log_denom
        )
        out[k] = float(a @ np.exp(exps))
    return out


@pytest.mark.parametrize("convention", ["paper"])
@pytest.mark.parametrize("K", [0, 1, 150])
@pytest.mark.parametrize("n_a", [an.N_A])  # the reference loop's term count, the kernel's
def test_aser_qapprox_table_matches_per_k_loop(convention, K, n_a):
    cfg = sym_config(M=2, power=31.6, rho_e=0.97, rho_f=0.95, lambda_convention=convention)
    q = cfg.relay_params()[0].q
    got = an._paper_kernel_table(K, q, cfg.beta * cfg.power)
    want = aser_qapprox_table_per_k(K, q, cfg, n_a)
    assert got.shape == want.shape
    assert np.all(got == want)


def _paper_kernel_table_per_call_grid(K, q, bp, n_a):
    """The "paper" kernel with its lgamma grid rebuilt by a list
    comprehension on every call."""
    a = specfn.qapprox_coefficients(n_a)
    n = np.arange(1, n_a + 1, dtype=float)
    two_k = 2 * np.arange(K + 1)[:, None]
    k = np.arange(K + 1, dtype=float)[:, None]
    half_grid = (1.0 + 0.5 * np.arange(2 * K + n_a)).tolist()
    lgam_half = np.array([math.lgamma(x) for x in half_grid])
    exps = (
        lgam_half[two_k + np.arange(n_a)]
        - lgam_half[two_k]
        + (k + 1.0) * math.log(q)
        + (n - 1.0) / 2.0 * math.log(bp)
        - (k + (n + 1.0) / 2.0) * math.log(q + bp)
    )
    return (np.exp(exps)[:, None, :] @ a[:, None]).ravel()


@pytest.mark.parametrize("order", [(400, 50, 1), (1, 50, 400)], ids=["large-first", "small-first"])
def test_paper_kernel_table_matches_per_call_grid(monkeypatch, order):
    # fresh process-wide grids, so the first K of `order` is what grows them
    for module, name in ((specfn, "_LGAMMA_HALF"), (an, "_PAPER_LGAMMA"), (an, "_PAPER_SHAPES"),
                         (an, "_PAPER_K1"), (an, "_PAPER_HALF_N_MINUS_1")):
        monkeypatch.setattr(module, name, specfn._Grid(getattr(module, name)._rows))
    cfg = sym_config(M=2, power=31.6, rho_e=0.97, rho_f=0.95, lambda_convention="paper")
    q, bp = cfg.relay_params()[0].q, cfg.beta * cfg.power
    for K in order:
        got = an._paper_kernel_table(K, q, bp)
        assert np.array_equal(got, _paper_kernel_table_per_call_grid(K, q, bp, an.N_A))


@pytest.mark.parametrize("order", [(0, 1, 29, 138, 400), (400, 138, 29, 1, 0)],
                         ids=["small-first", "large-first"])
def test_paper_kernel_table_slices_the_shared_exponent_grid(monkeypatch, order):
    # each K is a slice of whatever grid the earlier K left; the rows of a
    # smaller K must be a prefix of a larger K's, so every table equals the
    # per-call formula bit for bit
    for name in ("_PAPER_LGAMMA", "_PAPER_SHAPES", "_PAPER_K1", "_PAPER_HALF_N_MINUS_1"):
        monkeypatch.setattr(an, name, specfn._Grid(getattr(an, name)._rows))
    cfg = sym_config(M=2, power=31.6, rho_e=0.97, rho_f=0.95, lambda_convention="paper")
    q, bp = cfg.relay_params()[0].q, cfg.beta * cfg.power
    for K in order:
        got = an._paper_kernel_table(K, q, bp)
        assert got.shape == (K + 1,)
        assert np.array_equal(got, _paper_kernel_table_per_call_grid(K, q, bp, an.N_A))


def test_series_grids_are_read_only():
    parts = (an._PAPER_LGAMMA.upto(30), an._PAPER_SHAPES.upto(30), an._SERIES_INDEX.upto(30),
             an._PAPER_K1.upto(30), an._PAPER_HALF_N_MINUS_1.upto(30),
             an._HALF_N_MINUS_1, an._HALF_N_PLUS_1)
    for part in parts:
        with pytest.raises(ValueError):
            part[0] = 1.0
        with pytest.raises(ValueError):
            part += 1.0
    # a table built from them is the caller's own
    table = an._paper_kernel_table(30, 0.5, 20.0)
    table[0] = 1.0
    assert np.array_equal(an._PAPER_LGAMMA.upto(30), parts[0])


def _point_series_rows(link, lam_extra, kernel):
    """`an._series_rows` of one point: a block of one link."""
    return an._series_rows([link], lam_extra[None, :], [kernel])[0]


def _series_rows_outer(link, lam_extra, kernel):
    """`_series_rows` as an np.outer product, every ratio under errstate."""
    half_c = 0.5 * link.c
    base = link.lam + half_c + lam_extra
    ratio = half_c / base
    with np.errstate(divide="ignore", invalid="ignore"):
        powers = np.exp(np.outer(np.log(ratio), np.arange(len(kernel))))
    powers[ratio == 0.0, 0] = 1.0
    return link.lam / base * (powers @ kernel)


@pytest.mark.parametrize("rho_f", [0.0, 1e-162, 1e-160, 0.5, 0.999])
def test_series_rows_at_extreme_rho_f_match_the_outer_product(rho_f):
    # rho_f = 0 gives a zero ratio, 1e-162 one that underflows to zero and
    # 1e-160 a subnormal one; none may raise a RuntimeWarning.  The longest
    # kernel is the capacity table of rho_f = 0.999 at P = 10, 17,946 terms,
    # whose (4 x 17,946) powers are exponentiated in place
    link = ch.derive_link_params(ch.FadingParams(1.0, 1.0, rho_f), 10.0)
    lam_extra = np.arange(4, dtype=float) * link.lam
    ratio = 0.5 * link.c / (link.lam + 0.5 * link.c + lam_extra)
    assert (ratio == 0.0).all() if rho_f < 1e-161 else (ratio > 0.0).all()
    kernels = [np.array([0.25]), specfn.mean_q_gamma_table(60, 3.0),
               specfn.log_gamma_mean_table(17_945, 50.025)]
    for kernel in kernels:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _point_series_rows(link, lam_extra, kernel)
        assert np.array_equal(got, _series_rows_outer(link, lam_extra, kernel))
    # in one block the three share a powers buffer as long as the longest:
    # each point's rows keep their bits
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = an._series_rows([link] * 3, np.tile(lam_extra, (3, 1)), kernels)
    for got, kernel in zip(block, kernels):
        assert np.array_equal(got, _series_rows_outer(link, lam_extra, kernel))


def _asymmetric_m3():
    src = tuple(ch.FadingParams(v, 1.0, 0.9) for v in (1.0, 0.95, 1.05))
    rel = tuple(ch.FadingParams(v, 1.0, r) for v, r in ((1.0, 0.85), (0.9, 0.9), (1.1, 0.88)))
    return ch.SystemConfig(M=3, power=10.0, source_links=src, relay_links=rel)


def _shared_link_m3():
    """Relays 0 and 2 share one link, so only two distinct tables exist."""
    src = tuple(ch.FadingParams(v, 1.0, 0.9) for v in (1.0, 0.95, 1.05))
    rel = tuple(ch.FadingParams(v, 1.0, r) for v, r in ((1.0, 0.85), (0.9, 0.9), (1.0, 0.85)))
    return ch.SystemConfig(M=3, power=10.0, source_links=src, relay_links=rel)


@pytest.mark.parametrize(
    "metric, module, table_fn",
    [
        (lambda cfg: an.outage_total(cfg, CTRL), specfn, "lower_gamma_ratio_table"),
        (lambda cfg: an.aser_total(cfg, CTRL), specfn, "mean_q_gamma_table"),
        (
            lambda cfg: an.aser_total(dataclasses.replace(cfg, lambda_convention="paper"), CTRL),
            an,
            "_paper_kernel_table",
        ),
        (lambda cfg: an.capacity_lb_avg(cfg, CTRL), specfn, "log_gamma_mean_table"),
    ],
    ids=["outage", "aser-exact", "aser-qapprox", "capacity"],
)
@pytest.mark.parametrize(
    "make_cfg, builds",
    [
        (lambda: sym_config(M=4, power=10.0, rho_e=0.97, rho_f=0.9), 1),
        (_asymmetric_m3, 0),
        (_shared_link_m3, 0),
    ],
    ids=["symmetric-M4", "asymmetric-M3", "shared-link-M3"],
)
def test_kernel_table_built_once_per_distinct_link(monkeypatch, metric, module, table_fn, make_cfg, builds):
    # the symmetric path builds its one link's table once; the general path
    # evaluates its rows in finite form and builds none, however many
    # distinct links the config has
    cfg = make_cfg()
    calls = []
    original = getattr(module, table_fn)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, table_fn, counting)
    metric(cfg)
    assert len(calls) == builds


# ---------------------------------------------------------------------------
# merged general-path driver
# ---------------------------------------------------------------------------

def _series_candidate(metric, rel, tables, D, m) -> float:
    """Candidate m's term in D from the k-series rows (`an._series_rows`),
    or at rho_f = 1 (table None) the inline kernel lam / a * degenerate(a),
    so that the finite form of the general path meets an independent formula."""
    coeffs, lam_extra = an._subset_expansion([rel[i].lam for i in D if i != m])
    if tables[m] is None:
        a = rel[m].lam + lam_extra
        rows = rel[m].lam / a * metric.degenerate(a)
    else:
        rows = _point_series_rows(rel[m], lam_extra, tables[m])
    return metric.finish(float(coeffs @ rows))


def _series_tables(metric, rel, ctrl):
    """Each relay link's kernel table, None at rho_f = 1."""
    return [None if lp.degenerate else metric.table(lp, ctrl) for lp in rel]


def _aser_reference(cfg, ctrl=CTRL) -> float:
    """ASER as the explicit sum over decoding sets D and candidates m in D."""
    rel = cfg.relay_params()
    b = [an.relay_error_prob(lp, cfg) for lp in cfg.source_params()]
    metric = an._aser(cfg)
    tables = _series_tables(metric, rel, ctrl)
    total = 0.0
    for D in an.all_decoding_sets(cfg.M):
        w = math.prod((1.0 - b[i]) if i in D else b[i] for i in range(cfg.M))
        inner = 0.5 if not D.members else 0.0
        inner += sum(_series_candidate(metric, rel, tables, D, m) for m in D)
        total += w * inner
    return total


def _capacity_reference(cfg, ctrl=CTRL) -> float:
    """Capacity as the explicit sum over decoding sets D and candidates m in D."""
    rel = cfg.relay_params()
    metric = an._capacity(cfg)
    tables = _series_tables(metric, rel, ctrl)
    total = 0.0
    for D in an.all_decoding_sets(cfg.M):
        inner = sum(_series_candidate(metric, rel, tables, D, m) for m in D)
        total += an.prob_decoding_set(cfg, D) * inner
    return total


@pytest.mark.parametrize(
    "general, reference",
    [(an.aser_total_general, _aser_reference), (an.capacity_lb_avg_general, _capacity_reference)],
    ids=["aser", "capacity"],
)
@pytest.mark.parametrize("M", [1, 2, 3, 5, 7])
@pytest.mark.parametrize("power", [3.0, 30.0])
def test_general_equals_decoding_set_sum(general, reference, M, power):
    cfg = mixed_asym_config(M, power)
    res = general(cfg, CTRL)
    want = reference(cfg)
    tol = max(1e-11, 100.0 * np.finfo(float).eps * res.condition_estimate)
    assert abs(res.value - want) <= tol * abs(want)


@pytest.mark.parametrize(
    "general, record",
    [
        (an.outage_total_general, an._outage),
        (an.aser_total_general, an._aser),
        (an.capacity_lb_avg_general, an._capacity),
    ],
    ids=["outage", "aser", "capacity"],
)
@pytest.mark.parametrize("M", [2, 5])
def test_general_path_evaluates_one_candidate_per_relay(monkeypatch, general, record, M):
    # one finite-form kernel call holds every candidate's rows: row m is
    # relay m at the subset rate sums of the other relays, and coefficient
    # row m of the stacked combine gathers the coefficients of those subsets
    # from one expansion of all M relays; both are the per-candidate
    # expansion without relay m, bit for bit
    row_calls, expansions, masks = [], [], []
    finite_rows, expansion, general_masks = an._finite_rows, an._subset_expansion, an._general_masks

    def counting_rows(metric, links, lam_extra):
        row_calls.append((links, lam_extra))
        return finite_rows(metric, links, lam_extra)

    def recording_expansion(*args):
        expansions.append(expansion(*args))
        return expansions[-1]

    def recording_masks(M):
        masks.append(general_masks(M))
        return masks[-1]

    monkeypatch.setattr(an, "_finite_rows", counting_rows)
    monkeypatch.setattr(an, "_subset_expansion", recording_expansion)
    monkeypatch.setattr(an, "_general_masks", recording_masks)
    cfg = mixed_asym_config(M)
    general(cfg, CTRL)
    rel = cfg.relay_params()
    p = [record(cfg).decode(lp)[0] for lp in cfg.source_params()]
    assert len(row_calls) == len(expansions) == len(masks) == 1
    links, lam_extra = row_calls[0]
    (all_coeffs, all_extra), mask = expansions[0], masks[0]
    assert links == rel
    assert lam_extra.shape == mask.shape == (M, 1 << (M - 1))
    assert not mask.flags.writeable
    for m in range(M):
        others = [i for i in range(M) if i != m]
        coeffs, extra = expansion([rel[i].lam for i in others], [p[i] for i in others])
        assert np.array_equal(lam_extra[m], extra)
        assert np.array_equal(all_extra[mask[m]], extra)
        assert np.array_equal(all_coeffs[mask[m]], coeffs)


def _finite_rows_reference(metric, links, lam_extra):
    """`_finite_rows` with boolean gathers of the stale rows in every case."""
    lam = np.array([lp.lam for lp in links])[:, None]
    a = lam + lam_extra
    stale = np.array([not lp.degenerate for lp in links])
    r = a.copy()
    if stale.any():
        live = [lp for lp in links if not lp.degenerate]
        q = np.array([lp.q for lp in live])[:, None]
        half_c = 0.5 * np.array([lp.c for lp in live])[:, None]
        r[stale] = q * a[stale] / (a[stale] + half_c)
    kernel = metric.degenerate(r)
    if metric.stale is not None and stale.any():
        kernel[stale] = metric.stale(r[stale])
    return lam / a * kernel


def _per_candidate_reference(cfg, metric) -> an.MetricResult:
    """The general sum as a loop over the candidates m: one combine step per
    candidate, its coefficients and rows gathered by m's masks."""
    rel = cfg.relay_params()
    M = len(rel)
    p, fail = zip(*map(metric.decode, cfg.source_params()))
    coeffs, lam_extra = an._subset_expansion([lp.lam for lp in rel], p)
    j = np.arange(1 << (M - 1))
    bit = np.arange(M)[:, None]
    masks = (j >> bit << (bit + 1)) | (j & ((1 << bit) - 1))
    rows = _finite_rows_reference(metric, rel, lam_extra[masks])
    total = metric.empty * math.prod(fail)
    values, mags = [], []
    for m in range(M):
        value, mag = _combine(metric, coeffs[masks[m]], rows[m])
        total += p[m] * value
        values.append(value)
        mags.append(mag)
    return an._result(total, 1, values, mags)


def _per_candidate_configs():
    """M = 1..14 in both conventions at P = 1, 10, 1e3: identical links at
    every (rho_f, rho_e) pair, and mixed_asym_config, whose odd relays have
    rho_f = 1 beside stale ones."""
    for M, convention, power in itertools.product(range(1, 15), ("derived", "paper"), (1.0, 10.0, 1e3)):
        for rho_f, rho_e in itertools.product((0.0, 0.5, 0.9, 0.99, 1.0), (1.0, 0.97)):
            yield sym_config(M=M, power=power, rho_e=rho_e, rho_f=rho_f, lambda_convention=convention)
        yield dataclasses.replace(mixed_asym_config(M, power), lambda_convention=convention)


def _bits(call):
    """(value, terms and condition with the floats as hex, or the
    SeriesError text; the texts of the RuntimeWarnings raised)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            res = call()
            assert type(res.value) is float
            got = (res.value.hex(), res.series_terms_used, res.condition_estimate.hex())
        except SeriesError as e:
            got = str(e)
    return got, [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("metric", ["outage", "aser", "capacity"])
def test_general_driver_equals_the_per_candidate_loop_bit_for_bit(metric):
    # one stacked product over all candidates m reproduces the per-candidate
    # combine steps: the same values, conditions, term counts, errors and
    # warnings
    make = {"outage": an._outage, "aser": an._aser, "capacity": an._capacity}[metric]
    for cfg in _per_candidate_configs():
        got = _bits(lambda: an._total_general(cfg, make(cfg)))
        want = _bits(lambda: _per_candidate_reference(cfg, make(cfg)))
        assert got == want, cfg


@pytest.mark.parametrize("convention", ["derived", "paper"])
@pytest.mark.parametrize("rho", [0.99, 0.9999, 0.99999])
def test_general_aser_and_capacity_finite_near_rho_f_one(rho, convention):
    # at rho_f = 0.9999 the k-series needs ~1.8e5 terms and raised
    # SeriesError; each finite row is one kernel evaluation at any rho_f
    cfg = dataclasses.replace(slow_fading_asym_config(rho), lambda_convention=convention)
    aser = an.aser_total_general(cfg, CTRL)
    cap = an.capacity_lb_avg_general(cfg, CTRL)
    assert 0.0 < aser.value < 0.5 * cfg.alpha
    assert 0.0 < cap.value < math.log2(1.0 + 100.0 * cfg.power)
    assert aser.series_terms_used == cap.series_terms_used == 1


def test_general_path_builds_no_kernel_table(monkeypatch):
    # the general path, the per-candidate functions and the symmetric path at
    # rho_f = 1 need no series: neither a kernel table, nor its length, nor a
    # Poisson window
    def forbid(name):
        def spy(*args, **kwargs):
            raise AssertionError(f"finite form called {name}")
        return spy

    for name in ("lower_gamma_ratio_table", "mean_q_gamma_table", "log_gamma_mean_table",
                 "poisson_weight_window"):
        monkeypatch.setattr(specfn, name, forbid(name))
    for name in ("_paper_kernel_table", "_series_length", "_series_rows"):
        monkeypatch.setattr(an, name, forbid(name))
    for cfg in (mixed_asym_config(5), slow_fading_asym_config(0.9999)):
        for convention in ("derived", "paper"):
            c = dataclasses.replace(cfg, lambda_convention=convention)
            for general in (an.outage_total_general, an.aser_total_general, an.capacity_lb_avg_general):
                assert general(c, CTRL).value > 0.0
        # relay 0 of both configs has rho_f < 1
        D = an.DecodingSet((0, 1, 2))
        assert not cfg.relay_params()[0].degenerate
        assert an.outage_conditional(D, 0, cfg, CTRL) > 0.0
        assert an.aser_conditional_pdf(1.0, D, 0, cfg) > 0.0
    for convention in ("derived", "paper"):
        cfg = sym_config(M=4, power=10.0, rho_f=1.0, lambda_convention=convention)
        for symmetric in (an.outage_total_symmetric, an.aser_total_symmetric,
                          an.capacity_lb_avg_symmetric):
            assert symmetric(cfg, CTRL).value > 0.0


def test_paper_kernel_at_rates_is_the_table_first_entry():
    # the "paper" kernel of a finite row at rate r is the k = 0 entry of the
    # series table at q = r, summed the same way
    r = np.concatenate((np.logspace(-3, 5, 200), [0.37, 1.0, 2.5])).reshape(7, 29)
    for bp in (0.2, 20.0, 2e5):
        got = an._paper_kernel_at_rates(r, bp)
        want = np.array([an._paper_kernel_table(0, q, bp)[0] for q in r.ravel()])
        assert got.shape == r.shape
        assert np.allclose(got.ravel(), want, rtol=1e-15, atol=0.0)


_AGREEMENT_GRID = list(itertools.product(
    range(1, 7), (1.0, 10.0, 1e3), (0.0, 0.5, 0.9, 0.99, 0.999, 1.0), (1.0, 0.97)
))


@pytest.mark.parametrize("convention", ["derived", "paper"])
@pytest.mark.parametrize("metric", ["outage_total", "aser_total", "capacity_lb_avg"])
def test_symmetric_and_general_drivers_agree(metric, convention):
    # the symmetric driver sums the k-series, the general one the finite
    # form: two formulas for one value.  They agree to 1e-10, or within the
    # digits the inclusion-exclusion sum leaves; 256 eps x condition also
    # covers the ASER kernels' own cancellation at large beta P / lam, which
    # the condition estimate does not see (up to ~110 eps x condition here).
    # A point where the series raises, or its sum cancels past the warning
    # threshold, has no value to compare
    eps = np.finfo(float).eps
    compared = 0
    for M, power, rho_f, rho_e in _AGREEMENT_GRID:
        cfg = sym_config(M=M, power=power, rho_e=rho_e, rho_f=rho_f, lambda_convention=convention)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                sym = getattr(an, f"{metric}_symmetric")(cfg, CTRL)
        except (SeriesError, RuntimeWarning):
            continue
        gen = getattr(an, f"{metric}_general")(cfg, CTRL)
        tol = max(1e-10, 256.0 * eps * max(sym.condition_estimate, gen.condition_estimate))
        assert abs(gen.value - sym.value) <= tol * abs(sym.value), (M, power, rho_f, rho_e)
        compared += 1
    assert compared >= len(_AGREEMENT_GRID) - 4


@pytest.mark.parametrize(
    "symmetric",
    [an.outage_total_symmetric, an.aser_total_symmetric, an.capacity_lb_avg_symmetric],
    ids=["outage", "aser", "capacity"],
)
def test_symmetric_path_rejects_asymmetric_config(symmetric):
    with pytest.raises(ValueError, match="identical per-link parameters"):
        symmetric(mixed_asym_config(3), CTRL)


@pytest.mark.parametrize(
    "symmetric",
    [an.outage_total_symmetric, an.aser_total_symmetric, an.capacity_lb_avg_symmetric],
    ids=["outage", "aser", "capacity"],
)
@pytest.mark.parametrize("rho_f", [0.9, 1.0])
def test_symmetric_path_evaluates_its_m_rows_once(monkeypatch, symmetric, rho_f):
    # a subset of size s has rate sum s * lam in every decoding set, so one
    # call evaluates the rows s = 0..M-1 and every set size reuses them: in
    # finite form at rho_f = 1, else as the k-series
    finite, series = [], []
    finite_rows, series_rows = an._finite_rows, an._series_rows

    def counting_finite(metric, links, lam_extra):
        finite.append(lam_extra.ravel())
        return finite_rows(metric, links, lam_extra)

    def counting_series(links, lam_extra, kernels, out=None):
        series.append(lam_extra.ravel())
        return series_rows(links, lam_extra, kernels, out)

    monkeypatch.setattr(an, "_finite_rows", counting_finite)
    monkeypatch.setattr(an, "_series_rows", counting_series)
    cfg = sym_config(M=4, power=10.0, rho_f=rho_f)
    symmetric(cfg, CTRL)
    lam = cfg.relay_params()[0].lam
    used, unused = (finite, series) if rho_f == 1.0 else (series, finite)
    assert [c.tolist() for c in used] == [[s * lam for s in range(4)]]
    assert unused == []


def _all_fresh_m14() -> ch.SystemConfig:
    links = tuple(ch.FadingParams(0.5 + 0.1 * i, 1.0, 1.0) for i in range(14))
    return ch.SystemConfig(M=14, power=100.0, source_links=links, relay_links=links)


@pytest.mark.parametrize("driver, cfg", [
    (an.aser_total_symmetric, sym_config(M=8, power=1000.0, rho_f=1.0)),
    (an.aser_total_general, sym_config(M=8, power=1000.0, rho_f=1.0)),
    (an.outage_total_general, _all_fresh_m14()),
], ids=["aser-symmetric-M8", "aser-general-M8", "outage-general-M14"])
def test_negative_total_is_a_series_error(driver, cfg):
    # every metric is nonnegative: these sums cancel to -9.4e-16, -9.5e-16
    # and -1.1e-15, and no digit of them is left
    with pytest.warns(RuntimeWarning, match="cancellation"):
        with pytest.raises(SeriesError, match="negative"):
            driver(cfg, CTRL)


@pytest.mark.parametrize("path", ["general", "symmetric"])
@pytest.mark.parametrize("metric", ["outage_total", "aser_total", "capacity_lb_avg"])
def test_rho_f_zero_evaluates_without_warnings(metric, path):
    # rho_f = 0 makes every series ratio 0, whose log is -inf: the k = 0
    # power is 0^0 = 1, not the -inf * 0 of the log form
    cfg = sym_config(M=3, power=10.0, rho_f=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = getattr(an, f"{metric}_{path}")(cfg, CTRL).value
    assert math.isfinite(value)


# ---------------------------------------------------------------------------
# grouped symmetric driver
# ---------------------------------------------------------------------------

def _combine(metric, coeffs, rows) -> tuple[float, float]:
    """One signed subset sum coeffs @ rows and its magnitude sum
    |coeffs| @ |rows|, both in the metric's units."""
    return (metric.finish(float(coeffs @ rows)),
            metric.finish(float(np.abs(coeffs) @ np.abs(rows))))


def _per_size_reference(cfg, metric) -> an.MetricResult:
    """The symmetric sum as a loop over the decoding-set sizes l: one
    combine step per size with the multiplicities (-1)^s C(l-1, s) built
    from math.comb, and the source and relay links derived separately; the
    rows in the inline rho_f = 1 kernel, or the k-series at CTRL's length."""
    M = cfg.M
    p, fail = metric.decode(cfg.source_params()[0])
    rel = cfg.relay_params()[0]
    lam_extra = np.arange(M, dtype=float) * rel.lam
    if rel.degenerate:
        a = rel.lam + lam_extra
        rows, terms = rel.lam / a * metric.degenerate(a), 1
    else:
        table = metric.table(rel, CTRL)
        rows, terms = _point_series_rows(rel, lam_extra, table), len(table)
    signs = np.where(np.arange(M) % 2 == 0, 1.0, -1.0)
    total = metric.empty * fail**M
    values, mags = [], []
    for l in range(1, M + 1):
        mult = np.array([math.comb(l - 1, s) for s in range(l)], dtype=float)
        per_m, mag = _combine(metric, signs[:l] * mult, rows[:l])
        total += math.comb(M, l) * p**l * fail ** (M - l) * l * per_m
        values.append(per_m)
        mags.append(mag)
    return an._result(total, terms, values, mags)


def _outcome(call):
    """(result or SeriesError text, whether a RuntimeWarning was raised)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = call()
        except SeriesError as e:
            got = str(e)
    return got, any(issubclass(w.category, RuntimeWarning) for w in caught)


_PER_SIZE_GRID = list(itertools.product(
    range(1, 15), ("derived", "paper"), (0.0, 0.5, 0.9, 0.99, 1.0), (1.0, 0.97), (1.0, 10.0, 1e3)
))


@pytest.mark.parametrize("metric", ["outage", "aser", "capacity"])
def test_symmetric_driver_equals_the_per_size_loop_bit_for_bit(metric):
    # one stacked product over all sizes l reproduces the per-size combine
    # steps: the same values, conditions, term counts, errors and warnings
    make = {"outage": an._outage, "aser": an._aser, "capacity": an._capacity}[metric]
    for M, convention, rho_f, rho_e, power in _PER_SIZE_GRID:
        cfg = sym_config(M=M, power=power, rho_e=rho_e, rho_f=rho_f, lambda_convention=convention)
        got = _outcome(lambda: an._total_symmetric(cfg, make, CTRL))
        want = _outcome(lambda: _per_size_reference(cfg, make(cfg)))
        assert got == want, (M, convention, rho_f, rho_e, power)
        if isinstance(got[0], an.MetricResult):
            assert type(got[0].value) is float


def _curves():
    """(name, total, config, powers): every figure preset's curve, the
    scaling benchmark's rho_f -> 1 sweeps of M = 3 at 10, 20 and 30 dB
    (K ~ 1,500 and 18,000 terms, and SeriesErrors at 0.9999), and the M = 8
    ASER whose 30 dB point cancels past the warning to a negative total."""
    from relaysel import cli

    totals = {"outage": an.outage_total, "aser": an.aser_total, "diversity": an.aser_total,
              "capacity": an.capacity_lb_avg}
    out = []
    for fig, (metric, grid, curves) in cli._FIGURES.items():
        powers = [ch.db_to_linear(s) for s in cli._grid(*grid)]
        out += [(f"figure {fig} {label}", totals[metric], cfg, powers) for label, cfg in curves()]
    powers = [ch.db_to_linear(s) for s in (10.0, 20.0, 30.0)]
    for rho_f in (0.99, 0.999, 0.9999):
        cfg = ch.SystemConfig.symmetric(M=3, power=1.0, rho_f=rho_f)
        out += [(f"rho_f={rho_f} {m}", totals[m], cfg, powers) for m in ("outage", "aser", "capacity")]
    out.append(("fresh M=8 aser", an.aser_total, sym_config(M=8, rho_f=1.0), powers))
    return out


def _point_bits(outcome):
    """A point's result as exact bits, or its SeriesError's type and text."""
    if isinstance(outcome, SeriesError):
        return type(outcome), str(outcome)
    return outcome.value.hex(), outcome.series_terms_used, outcome.condition_estimate.hex()


def _point(total, cfg):
    """total(cfg, CTRL), or the SeriesError it raises."""
    try:
        return total(cfg, CTRL)
    except SeriesError as e:
        return e


def _warned(call):
    """call()'s value and the text of every warning it gave, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = call()
    return got, [str(w.message) for w in caught]


def test_curve_equals_its_points_bit_for_bit():
    # one call over a grid's powers gives each point the value, series
    # terms, condition, error and warnings of a call at that power alone:
    # blocks of points share a powers buffer as long as their longest
    # series, and each point's sums still run over its own terms only
    for name, total, cfg, powers in _curves():
        curve, warned = _warned(lambda: total(cfg, CTRL, powers=powers))
        assert isinstance(curve, an.MetricCurve) and len(curve) == len(powers), name
        want, want_warned = [], []
        for power in powers:
            point, texts = _warned(lambda: _point(total, cfg.with_power(power)))
            want.append(_point_bits(point))
            want_warned += texts
        assert [_point_bits(r) for r in curve] == want, name
        assert warned == want_warned, name


def test_curve_keeps_each_points_series_error():
    # at rho_f = 0.99 the outage series needs 1,572 terms for its geometric
    # tail, and fewer where the kernel's gamma cut x + 45 sqrt(x) + 50
    # (x = q R_o, which falls with the power) stops it: with k_max = 1000
    # only the two lowest powers fail, each in its own slot
    ctrl = SeriesControl(k_max=1000)
    cfg = sym_config(M=3, power=1.0, rho_f=0.99)
    powers = [0.1, 10**-0.5, 1.0, 10.0]
    curve = an.outage_total(cfg, ctrl, powers=powers)
    assert [str(r) for r in curve[:2]] == [
        "series needs 1572 terms but k_max is 1000 (geometric ratio 0.9801)",
        "series needs 1510 terms but k_max is 1000 (geometric ratio 0.9801)",
    ]
    assert [type(r) for r in curve] == [SeriesError, SeriesError, an.MetricResult, an.MetricResult]
    for res, power in zip(curve, powers):
        if isinstance(res, SeriesError):
            with pytest.raises(SeriesError) as err:
                an.outage_total(cfg.with_power(power), ctrl)
            assert str(err.value) == str(res)
        else:
            assert res == an.outage_total(cfg.with_power(power), ctrl)
    # the curve's diagnostics cover its points: their terms, their worst condition
    assert curve.series_terms_used == curve[2].series_terms_used + curve[3].series_terms_used
    assert curve.condition_estimate == max(curve[2].condition_estimate, curve[3].condition_estimate)


@pytest.mark.parametrize("make_cfg", [lambda: sym_config(M=3, rho_f=0.9), lambda: mixed_asym_config(3)],
                         ids=["symmetric", "general"])
def test_curve_powers_are_checked_as_at_powers_checks_them(make_cfg):
    # a power that is not finite and > 0 raises what SystemConfig.at_powers
    # raises, before any point is evaluated; no powers give an empty curve
    cfg = make_cfg()
    for total in (an.outage_total, an.aser_total, an.capacity_lb_avg):
        for bad in ([1.0, 0.0], [math.inf, 1.0], [1.0, math.nan]):
            with pytest.raises(ch.PowerRangeError) as err:
                total(cfg, CTRL, powers=bad)
            with pytest.raises(ch.PowerRangeError) as want:
                cfg.at_powers(bad)
            assert (str(err.value), err.value.index) == (str(want.value), want.value.index)
        assert total(cfg, CTRL, powers=[]) == []
        curve = total(cfg, CTRL, powers=[1.0, 10.0])
        assert curve == [total(cfg.with_power(p), CTRL) for p in (1.0, 10.0)]


def test_symmetric_driver_warns_on_cancellation():
    # M = 6 outage at rho_f = 1 and P = 1e3 cancels to condition 7.5e14 and
    # keeps a positive total
    cfg = sym_config(M=6, power=1e3, rho_f=1.0)
    with pytest.warns(RuntimeWarning, match="cancellation condition"):
        res = an.outage_total_symmetric(cfg, CTRL)
    assert res.value > 0.0 and res.condition_estimate > an.CONDITION_FLAG


def test_general_path_warns_once_per_call():
    # all six candidates of M = 6 outage at rho_f = 1 and P = 1e3 cancel past
    # CONDITION_FLAG; the call warns once, with the largest condition
    cfg = sym_config(M=6, power=1e3, rho_f=1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = an.outage_total_general(cfg, CTRL)
    assert res.value > 0.0 and res.condition_estimate > an.CONDITION_FLAG
    assert [(w.category, str(w.message)) for w in caught] == [(
        RuntimeWarning,
        f"inclusion-exclusion cancellation condition {res.condition_estimate:.3g} exceeds "
        f"{an.CONDITION_FLAG:.0e}; result digits are suspect",
    )]


@pytest.mark.parametrize("total", [an.outage_total, an.aser_total, an.capacity_lb_avg],
                         ids=["outage", "aser", "capacity"])
@pytest.mark.parametrize("shared", [True, False], ids=["one-object", "two-objects"])
def test_symmetric_metric_derives_each_link_object_once(total, shared, monkeypatch):
    # both hops holding one FadingParams object take one derivation; two
    # objects, equal or not, take one each
    src = ch.FadingParams(1.0, 0.97, 0.9)
    rel = src if shared else ch.FadingParams(1.0, 0.97, 0.9)
    cfg = ch.SystemConfig(M=4, power=10.0, source_links=(src,) * 4, relay_links=(rel,) * 4)
    calls = []
    original = ch.derive_link_params

    def counting(fp, power, convention="derived"):
        calls.append(fp)
        return original(fp, power, convention)

    monkeypatch.setattr(ch, "derive_link_params", counting)
    total(cfg, CTRL)
    assert [id(fp) for fp in calls] == ([id(src)] if shared else [id(src), id(rel)])


_FAULTS_PER_CALL = """
import resource
from relaysel import analytic as an
from relaysel.channel import FadingParams, SystemConfig

def faults(metric, cfg):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    metric(cfg)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

slow = SystemConfig.symmetric(M=3, power=10.0, rho_f=0.999)
powers = [10.0, 100.0, 1000.0]
curves = [(lambda cfg: an.aser_total(cfg, powers=powers), slow),
          (lambda cfg: an.capacity_lb_avg(cfg, powers=powers), slow)]
# each curve in turn, first in the process: the most pages of three warm calls
warm = [max([faults(*call) for _ in range(4)][1:]) for call in curves]
rho_f = [0.89 + 0.02 * i / 11 for i in range(12)]
sigma2_h = [0.9 + 0.2 * ((5 * i) % 12) / 11 for i in range(12)]
wide = SystemConfig(
    M=12, power=10.0, source_links=tuple(FadingParams(v, 1.0, 0.9) for v in sigma2_h[::-1]),
    relay_links=tuple(FadingParams(v, 1.0, r) for v, r in zip(sigma2_h, rho_f)),
)
calls = [(an.aser_total, slow), (an.capacity_lb_avg, slow),
         (an.outage_total, wide), (an.aser_total, wide), (an.capacity_lb_avg, wide)]
for call in calls:
    faults(*call)
print(*(faults(*call) for call in calls), *warm)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="ru_minflt counts this process on Linux"
)
def test_analytic_calls_do_not_fault_in_fresh_pages():
    # a warm call writes its long temporaries in place, so the allocator
    # keeps reusing the same heap: the rho_f = 0.999 symmetric series
    # (K ~ 17,000 terms) and the general path's 12 x 2^11 subset rows fault
    # in no fresh pages (165-180 and 350-400 pages a call when each step
    # allocated its own array).  A curve of three such points runs one
    # point per block, each point's table gone before the next is built:
    # with the previous point's table still held, the ASER curve faulted
    # 162 pages a warm call.  A fresh interpreter, so that what earlier
    # tests left in the allocator does not hide the faults
    cp = subprocess.run(
        [sys.executable, "-c", _FAULTS_PER_CALL], capture_output=True, text=True, check=True
    )
    per_call = list(map(int, cp.stdout.split()))
    assert len(per_call) == 7 and max(per_call) < 32, per_call
