"""Outage closed forms: examples, oracles, symmetry, degenerate branches."""

import math
import tracemalloc

import numpy as np
import pytest

from relaysel import analytic as an
from relaysel import channel as ch
from relaysel import specfn
from relaysel.specfn import SeriesControl, SeriesError

from conftest import CTRL, mixed_asym_config, slow_fading_asym_config, sym_config


# ---------------------------------------------------------------------------
# decoding-set probabilities
# ---------------------------------------------------------------------------

def test_prob_relay_decodes_zero_threshold():
    cfg = sym_config(M=1, power=10.0, rho_f=1.0)
    lp = cfg.source_params()[0]
    assert an.prob_relay_decodes(lp, 0.0) == 1.0


def test_prob_relay_decodes_value_and_mc_frequency():
    # lam = 1, R = 1, P = 10 -> R_o = 0.3, probability e^-0.3
    cfg = sym_config(M=1, power=10.0, rho_f=1.0)
    lp = cfg.source_params()[0]
    assert lp.lam == 1.0
    assert cfg.r_o == pytest.approx(0.3, rel=1e-14)
    p = an.prob_relay_decodes(lp, cfg.r_o)
    assert p == pytest.approx(math.exp(-0.3), rel=1e-14)
    assert p == pytest.approx(0.74082, abs=5e-6)
    batch = ch.sample_gamma_batch(cfg, np.random.default_rng(3), 200_000)
    freq = float((batch["gamma_sm_o"] >= cfg.r_o).mean())
    assert abs(freq - p) < 5.0 * math.sqrt(p * (1 - p) / 200_000)


def test_prob_relay_decodes_infinite_threshold():
    cfg = sym_config(M=1, power=10.0)
    assert an.prob_relay_decodes(cfg.source_params()[0], 1e9) == pytest.approx(0.0, abs=1e-300)


def test_prob_decoding_set_certain_with_zero_threshold():
    cfg = sym_config(M=3, power=10.0, rate=1e-12)  # R_o ~ 0
    full = an.DecodingSet((0, 1, 2))
    assert an.prob_decoding_set(cfg, full) == pytest.approx(1.0, rel=1e-9)


def test_partition_of_unity_up_to_m8():
    rng = np.random.default_rng(5)
    for M in range(1, 9):
        links = tuple(
            ch.FadingParams(
                sigma2_h=float(rng.uniform(0.5, 1.5)),
                rho_e=float(rng.uniform(0.85, 1.0)),
                rho_f=float(rng.uniform(0.5, 1.0)),
            )
            for _ in range(M)
        )
        cfg = ch.SystemConfig(M=M, power=7.0, source_links=links, relay_links=links)
        total = sum(an.prob_decoding_set(cfg, D) for D in an.all_decoding_sets(M))
        assert abs(total - 1.0) < 1e-12


def test_two_relay_single_member_probability():
    cfg = sym_config(M=2, power=10.0, rho_f=1.0)
    val = an.prob_decoding_set(cfg, an.DecodingSet((0,)))
    expect = math.exp(-0.3) * (1.0 - math.exp(-0.3))
    assert val == pytest.approx(expect, rel=1e-14)
    assert val == pytest.approx(0.19201, abs=5e-6)
    batch = ch.sample_gamma_batch(cfg, np.random.default_rng(4), 200_000)
    dec = batch["gamma_sm_o"] >= cfg.r_o
    freq = float((dec[:, 0] & ~dec[:, 1]).mean())
    assert abs(freq - val) < 5.0 * math.sqrt(val * (1 - val) / 200_000)


# ---------------------------------------------------------------------------
# the max-of-others CDF
# ---------------------------------------------------------------------------

def test_cdf_max_others_cases():
    cfg = sym_config(M=3, power=10.0, rho_f=1.0)
    links = cfg.relay_params()
    solo = an.DecodingSet((1,))
    assert an.cdf_max_others(0.7, solo, 1, links) == 1.0  # empty product
    full = an.DecodingSet((0, 1, 2))
    assert an.cdf_max_others(0.0, full, 0, links) == 0.0
    val = an.cdf_max_others(1.0, full, 0, links)
    assert val == pytest.approx((1.0 - math.exp(-1.0)) ** 2, rel=1e-14)
    assert val == pytest.approx(0.39958, abs=5e-6)


# ---------------------------------------------------------------------------
# conditional outage, series vs quadrature
# ---------------------------------------------------------------------------

def test_outage_conditional_zero_threshold():
    cfg = sym_config(M=2, power=10.0, rho_f=0.9, rate=1e-9)
    D = an.DecodingSet((0, 1))
    assert an.outage_conditional(D, 0, cfg, CTRL) == pytest.approx(0.0, abs=1e-9)


def test_outage_conditional_degenerate_order_statistics():
    # rho_f = 1: candidates sum to the CDF of the max of |D| exponentials
    cfg = sym_config(M=3, power=10.0, rho_f=1.0)
    lam = cfg.relay_params()[0].lam
    D = an.DecodingSet((0, 1, 2))
    total = sum(an.outage_conditional(D, m, cfg, CTRL) for m in D)
    expect = (-math.expm1(-lam * cfg.r_o)) ** 3
    assert total == pytest.approx(expect, abs=1e-13)


def test_outage_conditional_matches_quadrature_spot():
    cfg = sym_config(M=2, power=10.0, rho_f=0.9)
    D = an.DecodingSet((0, 1))
    series = an.outage_conditional(D, 0, cfg, CTRL)
    quad = an.outage_conditional_quadrature(D, 0, cfg)
    assert series == pytest.approx(quad, abs=1e-7)


def test_outage_quadrature_single_member_is_marginal_cdf():
    cfg = sym_config(M=1, power=10.0, rho_f=0.85)
    lam = cfg.relay_params()[0].lam
    D = an.DecodingSet((0,))
    val = an.outage_conditional_quadrature(D, 0, cfg)
    assert val == pytest.approx(-math.expm1(-lam * cfg.r_o), abs=1e-9)


def test_outage_quadrature_degenerate_branch():
    cfg = sym_config(M=2, power=10.0, rho_f=1.0)
    lam = cfg.relay_params()[0].lam
    D = an.DecodingSet((0, 1))
    total = sum(an.outage_conditional_quadrature(D, m, cfg) for m in D)
    assert total == pytest.approx((-math.expm1(-lam * cfg.r_o)) ** 2, abs=1e-9)


def test_outage_conditional_random_sweep_vs_quadrature():
    rng = np.random.default_rng(11)
    for _ in range(15):
        M = int(rng.integers(1, 6))
        cfg = ch.SystemConfig.symmetric(
            M=M,
            power=float(rng.uniform(1.0, 100.0)),
            rho_e=float(rng.uniform(0.9, 1.0)),
            rho_f=float(rng.uniform(0.5, 0.99)),
        )
        size = int(rng.integers(1, M + 1))
        D = an.DecodingSet(tuple(sorted(rng.choice(M, size=size, replace=False).tolist())))
        m = int(rng.choice(D.members))
        series = an.outage_conditional(D, m, cfg, CTRL)
        quad = an.outage_conditional_quadrature(D, m, cfg)
        assert series == pytest.approx(quad, abs=1e-6)


def test_outage_conditional_heterogeneous_vs_quadrature():
    src = tuple(ch.FadingParams(0.95, 0.95, 1.0) for _ in range(3))
    rel = (
        ch.FadingParams(1.0, 1.0, 0.7),
        ch.FadingParams(0.9, 0.9, 0.95),
        ch.FadingParams(0.98, 0.98, 1.0),
    )
    cfg = ch.SystemConfig(M=3, power=8.0, source_links=src, relay_links=rel)
    D = an.DecodingSet((0, 1, 2))
    for m in D:
        series = an.outage_conditional(D, m, cfg, CTRL)
        quad = an.outage_conditional_quadrature(D, m, cfg)
        assert series == pytest.approx(quad, abs=1e-6)


# ---------------------------------------------------------------------------
# the quadrature oracle against pinned references
# ---------------------------------------------------------------------------

ORACLE_M = {1.0: 6, 10.0: 3, 1e3: 5}  # relays per power, so M <= 6


def oracle_config(rho_f: float, power: float) -> ch.SystemConfig:
    """Asymmetric links (variance and rho_e differ per relay), all at rho_f."""
    links = tuple(
        ch.FadingParams(0.8 + 0.08 * i, 1.0 - 0.02 * i, rho_f) for i in range(ORACLE_M[power])
    )
    return ch.SystemConfig(M=len(links), power=power, source_links=links, relay_links=links)


def noncentral_chi2_cdf(x: float, nc: float) -> float:
    """P(X <= x) for X noncentral chi-square with 2 degrees of freedom, as
    the Poisson(nc / 2) mixture of central laws with 2 + 2k degrees of
    freedom: sum_k Pr[K = k] P(k + 1, x / 2), over the k within
    12 sqrt(nc / 2) + 40 of the mean."""
    from scipy import special

    mean = 0.5 * nc
    spread = 12.0 * math.sqrt(mean) + 40.0
    k = np.arange(max(0.0, math.floor(mean - spread)), math.ceil(mean + spread) + 1.0)
    pmf = np.exp(special.xlogy(k, mean) - mean - special.gammaln(k + 1.0))
    return float(pmf @ special.gammainc(k + 1.0, 0.5 * x))


def scipy_reference(D: an.DecodingSet, m: int, cfg: ch.SystemConfig) -> float:
    """scipy quad at epsrel 1e-12 of the same integral, the inner CDF the
    Poisson mixture above, which shares no code with `specfn.marcum_q1`; an
    IntegrationWarning is an error."""
    import warnings

    from scipy import integrate

    rel = cfg.relay_params()
    link, r_o = rel[m], cfg.r_o
    lam = link.lam

    def density(g: float) -> float:
        p = lam * math.exp(-lam * g)
        for i in D:
            if i != m:
                p *= -math.expm1(-rel[i].lam * g)
        return p

    x = 2.0 * link.q * r_o
    breaks = [r_o, 1.0 / lam, 10.0 / lam] + ([r_o / link.rho_f**2] if link.rho_f > 0.0 else [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, _ = integrate.quad(
            lambda g: noncentral_chi2_cdf(x, link.c * g) * density(g), 0.0, 60.0 / lam,
            points=sorted(b for b in breaks if b < 60.0 / lam), limit=400,
            epsabs=0.0, epsrel=1e-12,
        )
    return val


@pytest.mark.parametrize("power", sorted(ORACLE_M))
@pytest.mark.parametrize("rho_f", [0.0, 0.5, 0.9, 0.99])
def test_outage_quadrature_matches_scipy_reference(rho_f, power):
    cfg = oracle_config(rho_f, power)
    D = an.DecodingSet(tuple(range(cfg.M)))
    for m in D:
        want = scipy_reference(D, m, cfg)
        assert an.outage_conditional_quadrature(D, m, cfg) == pytest.approx(want, rel=1e-10)


# Where scipy's quadrature of the old oracle warned (rho_f >= 0.999), the
# references are 50-digit mpmath values of the finite form the integral
# takes: given an Exponential(a) old SNR the current SNR is Exponential with
# mean (1 - rho_f^2) / lam + rho_f^2 / a, so the candidate term is
#   sum_{S subset of D\{m}} (-1)^|S| (lam / a_S)
#       (1 - exp(-R_o / ((1 - rho_f^2) / lam + rho_f^2 / a_S)))
# with a_S = lam + sum_{i in S} lam_i, at the config's float constants.
PINNED = [
    (0.999, 1.0, 0, "1.1516162580555552945112840673116e-1"),
    (0.999, 1.0, 5, "1.4830156802152383490864204363202e-1"),
    (0.999, 10.0, 0, "1.3136841730349135589139138365753e-2"),
    (0.999, 10.0, 2, "1.2725376787474846955545360799189e-2"),
    (0.999, 1e3, 0, "9.2314153802704643411310280763428e-6"),
    (0.999, 1e3, 4, "2.4889813929471965947641712016659e-7"),
    (0.9999, 1.0, 0, "1.1513923960918510911085429861155e-1"),
    (0.9999, 1.0, 5, "1.4826192356120810397499883319056e-1"),
    (0.9999, 10.0, 0, "1.2895958315508965866020157906854e-2"),
    (0.9999, 10.0, 2, "1.2528812022810799522284354368225e-2"),
    (0.9999, 1e3, 0, "5.2727355842331261513909575841185e-7"),
    (0.9999, 1e3, 4, "2.2158686255011434022764640022969e-7"),
    # the step of F(R_o | g) is narrower here than the panel that holds it
    (0.99999, 1e3, 0, "2.6716631641612543748248719252222e-7"),
    (0.99999, 1e3, 4, "2.1894804841643253933605856540689e-7"),
    (1.0, 1.0, 0, "1.1513675811955475277106047223578e-1"),
    (1.0, 1.0, 5, "1.4825753078057069826334093897761e-1"),
    (1.0, 10.0, 0, "1.2869162749452785008556963020648e-2"),
    (1.0, 10.0, 2, "1.2506953417872647110076969173632e-2"),
    (1.0, 1e3, 0, "2.4392102963857564341077937484855e-7"),
    (1.0, 1e3, 4, "2.1865587580673550925817188110949e-7"),
]


@pytest.mark.parametrize("rho_f, power, m, want", PINNED)
def test_outage_quadrature_matches_pinned_mpmath(rho_f, power, m, want):
    import warnings

    cfg = oracle_config(rho_f, power)
    D = an.DecodingSet(tuple(range(cfg.M)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = an.outage_conditional_quadrature(D, m, cfg)
    assert got == pytest.approx(float(want), rel=1e-10)


def test_outage_quadrature_slow_fading_is_fast():
    # rho_f = 0.99999 at P = 100: the inner CDF falls from 1 to 0 within
    # ~10% of g = R_o / rho_f^2, on a range 2000 times longer
    import time

    links = tuple(ch.FadingParams(0.8 + 0.08 * i, 1.0 - 0.02 * i, 0.99999) for i in range(4))
    cfg = ch.SystemConfig(M=4, power=100.0, source_links=links, relay_links=links)
    t0 = time.perf_counter()
    got = an.outage_conditional_quadrature(an.DecodingSet((0, 1, 2, 3)), 0, cfg)
    assert time.perf_counter() - t0 < 1.0
    assert got == pytest.approx(2.5503669478177640069715770113443e-5, rel=1e-10)


def test_outage_quadrature_memory_is_bounded():
    import tracemalloc

    cfg = oracle_config(0.9999, 1e3)
    D = an.DecodingSet(tuple(range(cfg.M)))
    tracemalloc.start()
    try:
        an.outage_conditional_quadrature(D, 0, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20  # 16 MiB


def test_outage_quadrature_round_cap_is_a_series_error(monkeypatch):
    cfg = oracle_config(0.9, 10.0)
    D = an.DecodingSet(tuple(range(cfg.M)))
    assert an.outage_conditional_quadrature(D, 0, cfg) > 0.0
    monkeypatch.setattr(an, "QUAD_ROUNDS_MAX", 1)
    with pytest.raises(SeriesError, match="after 1 rounds"):
        an.outage_conditional_quadrature(D, 0, cfg)


def test_outage_quadrature_noisy_integrand_is_a_series_error(monkeypatch):
    # 1 - Q1 in floating point carries ~1e-16 absolute noise where the CDF
    # is tiny, which no panel size resolves to 1e-10 of a 5e-7 integral:
    # bisection would double the open panels each round until memory ran out
    cfg = oracle_config(0.9999, 1e3)
    D = an.DecodingSet(tuple(range(cfg.M)))
    real = specfn.marcum_q1
    monkeypatch.setattr(specfn, "marcum_q1", lambda a, b, complement: 1.0 - real(a, b))
    monkeypatch.setattr(an, "QUAD_PANELS_MAX", 256)
    with pytest.raises(SeriesError, match="256 panels"):
        an.outage_conditional_quadrature(D, 0, cfg)


# ---------------------------------------------------------------------------
# total outage
# ---------------------------------------------------------------------------

def test_outage_total_single_relay_hand_composition():
    # M = 1, perfect CSI: outage = Pr[src hop fails] + Pr[src ok] * Pr[dst fails]
    cfg = sym_config(M=1, power=10.0, rho_f=1.0)
    ro = cfg.r_o
    expect = (1.0 - math.exp(-ro)) + math.exp(-ro) * (1.0 - math.exp(-ro))
    assert an.outage_total(cfg, CTRL).value == pytest.approx(expect, rel=1e-12)


def test_outage_total_vanishes_with_threshold():
    cfg = sym_config(M=2, power=10.0, rho_f=0.9, rate=1e-9)
    assert an.outage_total(cfg, CTRL).value == pytest.approx(0.0, abs=1e-8)


def test_outage_symmetric_equals_general():
    for M in range(1, 6):
        cfg = sym_config(M=M, power=12.0, rho_e=0.97, rho_f=0.85)
        g = an.outage_total_general(cfg, CTRL).value
        s = an.outage_total_symmetric(cfg, CTRL).value
        assert abs(g - s) <= 1e-10 * abs(s)


def outage_decoding_set_reference(cfg, ctrl=CTRL) -> float:
    """Explicit sum over decoding sets D and candidates m in D."""
    total = 0.0
    for D in an.all_decoding_sets(cfg.M):
        inner = sum(an.outage_conditional(D, m, cfg, ctrl) for m in D) if D.members else 1.0
        total += an.prob_decoding_set(cfg, D) * inner
    return total


@pytest.mark.parametrize("M", [1, 2, 3, 5, 7])
@pytest.mark.parametrize("power", [3.0, 30.0])
def test_outage_general_equals_decoding_set_sum(M, power):
    cfg = mixed_asym_config(M, power)
    res = an.outage_total_general(cfg, CTRL)
    want = outage_decoding_set_reference(cfg)
    tol = max(1e-11, 100.0 * np.finfo(float).eps * res.condition_estimate)
    assert abs(res.value - want) <= tol * abs(want)


def test_outage_monotone_in_power_and_rate():
    base = sym_config(M=3, power=1.0, rho_e=1.0, rho_f=0.9)
    powers = [10 ** (s / 10.0) for s in range(0, 31, 3)]
    vals = [an.outage_total(base.with_power(p), CTRL).value for p in powers]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    import dataclasses

    rates = [0.25, 0.5, 1.0, 1.5, 2.0]
    rvals = [
        an.outage_total(dataclasses.replace(base, power=10.0, rate=r), CTRL).value
        for r in rates
    ]
    assert all(b >= a - 1e-12 for a, b in zip(rvals, rvals[1:]))


def test_outage_values_are_probabilities_without_clamping():
    rng = np.random.default_rng(13)
    for _ in range(20):
        cfg = ch.SystemConfig.symmetric(
            M=int(rng.integers(1, 6)),
            power=float(rng.uniform(0.5, 300.0)),
            rho_e=float(rng.uniform(0.9, 1.0)),
            rho_f=float(rng.uniform(0.0, 1.0)),
        )
        v = an.outage_total(cfg, CTRL).value
        assert 0.0 <= v <= 1.0 + 1e-9


def test_outage_degenerate_limit_matches_series():
    big = SeriesControl(abs_tol=1e-12, k_max=200_000)
    near = sym_config(M=2, power=10.0, rho_f=0.9999)
    exact = sym_config(M=2, power=10.0, rho_f=1.0)
    v_near = an.outage_total(near, big).value
    v_exact = an.outage_total(exact, big).value
    assert abs(v_near - v_exact) < 1e-4


def test_outage_series_error_respects_k_max():
    cfg = sym_config(M=2, power=10.0, rho_f=0.9999)
    with pytest.raises(SeriesError):
        an.outage_total(cfg, SeriesControl(abs_tol=1e-12, k_max=512))


@pytest.mark.parametrize("total", [an.outage_total, an.aser_total, an.capacity_lb_avg],
                         ids=["outage", "aser", "capacity"])
def test_general_path_refuses_rows_above_the_memory_cap(total, monkeypatch):
    # the finite form holds one float64 per subset row, 2^(M-1) rows for
    # each of the M candidates, and no series terms; the cap admits exactly
    # ROWS_PEAK_FACTOR times that much, the bound on the path's peak
    cfg = mixed_asym_config(5, power=20.0)
    res = total(cfg)
    assert res.series_terms_used == 1
    need = an.ROWS_PEAK_FACTOR * 5 * (1 << 4) * 8
    monkeypatch.setattr(an, "ROWS_MAX_BYTES", need)
    assert total(cfg) == res
    monkeypatch.setattr(an, "ROWS_MAX_BYTES", need - 1)
    with pytest.raises(SeriesError, match="general path at M = 5"):
        total(cfg)
    # the symmetric path holds M rows, not 2^(M-1), and has no such cap
    monkeypatch.setattr(an, "ROWS_MAX_BYTES", 0)
    assert total(sym_config(M=5, power=20.0)).value > 0.0


def test_general_path_peak_stays_under_the_memory_cap(monkeypatch):
    # with a cap that admits M = 11 and no more, every metric's M = 11 call
    # peaks under it, and M = 12 is refused before its rows are allocated
    cap = an.ROWS_PEAK_FACTOR * 11 * (1 << 10) * 8
    monkeypatch.setattr(an, "ROWS_MAX_BYTES", cap)
    for total in (an.outage_total, an.aser_total, an.capacity_lb_avg):
        admitted, refused = mixed_asym_config(11, power=100.0), mixed_asym_config(12, power=100.0)
        total(admitted)  # warm-up: first-use tables are not the call's own
        tracemalloc.start()
        try:
            total(admitted)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            with pytest.raises(SeriesError, match="general path at M = 12"):
                total(refused)
            _, refused_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= cap, (total.__name__, peak)
        assert refused_peak < 12 * (1 << 11) * 8 // 4, (total.__name__, refused_peak)


@pytest.mark.parametrize("rho", [0.99, 0.9999, 0.99999])
def test_general_outage_near_rho_f_one_matches_quadrature(rho):
    # the finite form has no series to run out of terms as rho_f -> 1; the
    # reference integrates every (D, m) candidate by the panel rule
    cfg = slow_fading_asym_config(rho)
    want = 0.0
    for D in an.all_decoding_sets(cfg.M):
        inner = sum(an.outage_conditional_quadrature(D, m, cfg) for m in D) if D.members else 1.0
        want += an.prob_decoding_set(cfg, D) * inner
    res = an.outage_total_general(cfg, CTRL)
    assert res.series_terms_used == 1
    assert abs(res.value - want) <= 1e-12 * want


def test_metric_result_diagnostics_populated():
    res = an.outage_total(sym_config(M=4, power=10.0, rho_f=0.9), CTRL)
    assert res.series_terms_used > 10
    assert res.condition_estimate >= 1.0
    assert res.condition_estimate < 1e6
