"""SER and capacity closed forms against quadrature and structural oracles."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from relaysel import analytic as an
from relaysel import channel as ch
from relaysel import specfn
from relaysel.specfn import SeriesControl, gaussian_q

from conftest import CTRL, mixed_asym_config, sym_config


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

def test_pdf_normalizes_to_one():
    cfg = sym_config(M=3, power=10.0, rho_e=0.97, rho_f=0.85)
    D = an.DecodingSet((0, 1, 2))
    total, _ = integrate.quad(
        lambda x: an.selected_snr_pdf(x, D, cfg, CTRL), 0.0, 80.0, limit=300
    )
    assert total == pytest.approx(1.0, abs=1e-6)


def test_pdf_per_candidate_integrates_to_selection_probability():
    cfg = sym_config(M=3, power=10.0, rho_f=0.85)
    D = an.DecodingSet((0, 1, 2))
    per, _ = integrate.quad(
        lambda x: an.aser_conditional_pdf(x, D, 0, cfg, CTRL), 0.0, 80.0, limit=300
    )
    assert per == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_pdf_degenerate_single_member_is_exponential():
    cfg = sym_config(M=1, power=10.0, rho_f=1.0)
    lam = cfg.relay_params()[0].lam
    D = an.DecodingSet((0,))
    for x in (0.0, 0.4, 2.0):
        assert an.aser_conditional_pdf(x, D, 0, cfg, CTRL) == pytest.approx(
            lam * math.exp(-lam * x), rel=1e-12
        )


def test_pdf_matches_threshold_derivative():
    cfg = sym_config(M=3, power=10.0, rho_e=0.97, rho_f=0.85)
    D = an.DecodingSet((0, 1, 2))
    x0, h = 0.5, 1e-5

    def outage_at(x):
        rate = 0.5 * math.log2(1.0 + cfg.power * x)
        cfg_x = dataclasses.replace(cfg, rate=rate)
        return an.outage_conditional(D, 0, cfg_x, CTRL)

    fd = (outage_at(x0 + h) - outage_at(x0 - h)) / (2.0 * h)
    assert an.aser_conditional_pdf(x0, D, 0, cfg, CTRL) == pytest.approx(fd, abs=1e-5)


# ---------------------------------------------------------------------------
# total ASER
# ---------------------------------------------------------------------------

def aser_quadrature(cfg, ctrl=CTRL) -> float:
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
            * an.selected_snr_pdf(x, D, cfg, ctrl),
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

def capacity_quadrature(cfg, ctrl=CTRL) -> float:
    total = 0.0
    for D in an.all_decoding_sets(cfg.M):
        if not D.members:
            continue
        w = an.prob_decoding_set(cfg, D)
        val, _ = integrate.quad(
            lambda x: 0.5 * math.log2(1.0 + cfg.power * x) * an.selected_snr_pdf(x, D, cfg, ctrl),
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
@pytest.mark.parametrize("n_a", [1, 20])
def test_aser_qapprox_table_matches_per_k_loop(convention, K, n_a):
    cfg = sym_config(M=2, power=31.6, rho_e=0.97, rho_f=0.95, lambda_convention=convention)
    q = cfg.relay_params()[0].q
    got = an._paper_kernel_table(K, q, cfg.beta * cfg.power, n_a)
    want = aser_qapprox_table_per_k(K, q, cfg, n_a)
    assert got.shape == want.shape
    assert np.all(got == want)


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
    "metric, table_fn",
    [
        (lambda cfg: an.outage_total(cfg, CTRL), "lower_gamma_ratio_table"),
        (lambda cfg: an.aser_total(cfg, CTRL), "mean_q_gamma_table"),
        (
            lambda cfg: an.aser_total(dataclasses.replace(cfg, lambda_convention="paper"), CTRL),
            "qapprox_coefficients",
        ),
        (lambda cfg: an.capacity_lb_avg(cfg, CTRL), "log_gamma_mean_table"),
    ],
    ids=["outage", "aser-exact", "aser-qapprox", "capacity"],
)
@pytest.mark.parametrize(
    "make_cfg, distinct",
    [
        (lambda: sym_config(M=4, power=10.0, rho_e=0.97, rho_f=0.9), 1),
        (_asymmetric_m3, 3),
        (_shared_link_m3, 2),
    ],
    ids=["symmetric-M4", "asymmetric-M3", "shared-link-M3"],
)
def test_kernel_table_built_once_per_distinct_link(monkeypatch, metric, table_fn, make_cfg, distinct):
    cfg = make_cfg()
    calls = []
    original = getattr(specfn, table_fn)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(specfn, table_fn, counting)
    metric(cfg)
    assert len(calls) == distinct


# ---------------------------------------------------------------------------
# merged general-path driver
# ---------------------------------------------------------------------------

def _aser_reference(cfg, ctrl=CTRL) -> float:
    """ASER as the explicit sum over decoding sets D and candidates m in D."""
    rel = cfg.relay_params()
    b = [an.relay_error_prob(lp, cfg) for lp in cfg.source_params()]
    metric = an._aser(cfg, ctrl)
    tables = [metric.table(lp) for lp in rel]
    total = 0.0
    for D in an.all_decoding_sets(cfg.M):
        w = math.prod((1.0 - b[i]) if i in D else b[i] for i in range(cfg.M))
        inner = 0.5 if not D.members else 0.0
        for m in D:
            coeffs, lam_extra = an._subset_expansion([rel[i].lam for i in D if i != m])
            inner += an._candidate(metric, rel[m], tables[m], coeffs, lam_extra, an._Diag())
        total += w * inner
    return total


def _capacity_reference(cfg, ctrl=CTRL) -> float:
    """Capacity as the explicit sum over decoding sets D and candidates m in D."""
    rel = cfg.relay_params()
    metric = an._capacity(cfg, ctrl)
    tables = [metric.table(lp) for lp in rel]
    total = 0.0
    for D in an.all_decoding_sets(cfg.M):
        inner = 0.0
        for m in D:
            coeffs, lam_extra = an._subset_expansion([rel[i].lam for i in D if i != m])
            inner += an._candidate(metric, rel[m], tables[m], coeffs, lam_extra, an._Diag())
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
    "general",
    [an.outage_total_general, an.aser_total_general, an.capacity_lb_avg_general],
    ids=["outage", "aser", "capacity"],
)
@pytest.mark.parametrize("M", [2, 5])
def test_general_path_evaluates_one_candidate_per_relay(monkeypatch, general, M):
    calls = []
    original = an._candidate

    def counting(metric, link, *args):
        calls.append(link)
        return original(metric, link, *args)

    monkeypatch.setattr(an, "_candidate", counting)
    cfg = mixed_asym_config(M)
    general(cfg, CTRL)
    assert calls == cfg.relay_params()


@pytest.mark.parametrize(
    "symmetric",
    [an.outage_total_symmetric, an.aser_total_symmetric, an.capacity_lb_avg_symmetric],
    ids=["outage", "aser", "capacity"],
)
def test_symmetric_path_rejects_asymmetric_config(symmetric):
    with pytest.raises(ValueError, match="identical per-link parameters"):
        symmetric(mixed_asym_config(3), CTRL)


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
