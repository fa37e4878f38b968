"""Parameter derivation and the joint (old, current) sampling model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from relaysel import channel as ch


# ---------------------------------------------------------------------------
# parameter validation and derivation
# ---------------------------------------------------------------------------

def test_fading_params_validation():
    with pytest.raises(ValueError):
        ch.FadingParams(sigma2_h=0.0)
    with pytest.raises(ValueError):
        ch.FadingParams(rho_e=0.0)
    with pytest.raises(ValueError):
        ch.FadingParams(rho_e=1.2)
    with pytest.raises(ValueError):
        ch.FadingParams(rho_f=-0.1)  # negative correlation is not admissible


def test_perfect_csi_collapses_conventions():
    fp = ch.FadingParams(sigma2_h=1.0, rho_e=1.0, rho_f=0.7)
    for conv in ("paper", "derived"):
        lp = ch.derive_link_params(fp, 25.0, conv)
        assert lp.sigma2_u == 0.0
        assert lp.sigma2_hat == 1.0
        assert lp.lam == 1.0


def test_convention_values_and_ratio():
    # sigma_e^2 = 0.1 normalization: rho_e = 0.9, sigma2_h = 0.9, sigma2_hat = 1
    fp = ch.FadingParams(sigma2_h=0.9, rho_e=0.9, rho_f=0.9)
    paper = ch.derive_link_params(fp, 10.0, "paper")
    derived = ch.derive_link_params(fp, 10.0, "derived")
    assert paper.sigma2_u == pytest.approx(0.09, rel=1e-14)
    assert paper.sigma2_e == pytest.approx(0.1, rel=1e-14)
    assert paper.lam == pytest.approx((1.0 + 10.0 * 0.09) / 0.9, rel=1e-14)
    assert derived.lam == pytest.approx((1.0 + 10.0 * 0.09) / (0.81 * 1.0), rel=1e-14)
    # nominal rate over self-consistent rate = rho_e * sigma2_hat
    assert paper.lam / derived.lam == pytest.approx(fp.rho_e * fp.sigma2_hat, rel=1e-12)


def test_link_invariants():
    fp = ch.FadingParams(sigma2_h=0.8, rho_e=0.8, rho_f=0.6)
    lp = ch.derive_link_params(fp, 4.0, "derived")
    assert lp.sigma2_u == pytest.approx((1.0 - 0.8) * 0.8, rel=1e-14)
    assert lp.sigma2_e == pytest.approx((1.0 - 0.8) * 1.0, rel=1e-14)
    assert 2.0 * lp.theta * lp.lam == pytest.approx(1.0 - 0.36, rel=1e-12)
    assert lp.c == pytest.approx(2.0 * 0.36 * lp.lam / (1.0 - 0.36), rel=1e-12)
    assert lp.q == pytest.approx(lp.lam / (1.0 - 0.36), rel=1e-12)


def test_degenerate_feedback_sentinels():
    lp = ch.derive_link_params(ch.FadingParams(rho_f=1.0), 5.0)
    assert math.isinf(lp.c)
    assert lp.theta == 0.0
    assert lp.degenerate
    assert math.isinf(lp.q)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=4.0),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.0, max_value=0.999),
    st.floats(min_value=0.1, max_value=200.0),
)
def test_scale_consistency(sigma2_h, rho_e, rho_f, power):
    fp1 = ch.FadingParams(sigma2_h=sigma2_h, rho_e=rho_e, rho_f=rho_f)
    fp2 = ch.FadingParams(sigma2_h=2.0 * sigma2_h, rho_e=rho_e, rho_f=rho_f)
    lp1 = ch.derive_link_params(fp1, power)
    lp2 = ch.derive_link_params(fp2, power)
    assert lp2.sigma2_u == pytest.approx(2.0 * lp1.sigma2_u, rel=1e-12)
    assert lp2.sigma2_hat == pytest.approx(2.0 * lp1.sigma2_hat, rel=1e-12)
    # determinism
    again = ch.derive_link_params(fp1, power)
    assert again == lp1


# ---------------------------------------------------------------------------
# Doppler correlation
# ---------------------------------------------------------------------------

def test_doppler_static_channel():
    assert ch.doppler_correlation(0.0, 1e-3, 1) == 1.0


def test_doppler_first_bessel_root_decorrelates():
    # 2 pi f_d T i at the first root of J0
    root = 2.404825557695773
    f_d = root / (2.0 * math.pi * 1e-3 * 1)
    assert abs(ch.doppler_correlation(f_d, 1e-3, 1)) < 1e-9


def test_doppler_small_argument_expansion():
    for x in (1e-3, 0.05, 0.2):
        f_d = x / (2.0 * math.pi)
        val = ch.doppler_correlation(f_d, 1.0, 1)
        assert val == pytest.approx(1.0 - x * x / 4.0, abs=x**4)


def test_doppler_can_go_negative_and_is_rejected_as_rho_f():
    val = ch.doppler_correlation(0.6, 1.0, 1)  # past the first zero
    assert val < 0.0
    with pytest.raises(ValueError):
        ch.FadingParams(rho_f=val)


# ---------------------------------------------------------------------------
# system config
# ---------------------------------------------------------------------------

def test_r_o_definition():
    cfg = ch.SystemConfig.symmetric(M=2, power=10.0, rate=1.0)
    assert cfg.r_o == pytest.approx((2.0**2 - 1.0) / 10.0, rel=1e-14)


def test_config_link_count_validation():
    fp = ch.FadingParams()
    with pytest.raises(ValueError):
        ch.SystemConfig(M=2, power=1.0, source_links=(fp,), relay_links=(fp, fp))


@pytest.mark.parametrize("field", ["power", "rate", "alpha", "beta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_scalars(field, value):
    kwargs = {"M": 2, "power": 10.0, field: value}
    fp = ch.FadingParams()
    with pytest.raises(ValueError, match=field):
        ch.SystemConfig(source_links=(fp, fp), relay_links=(fp, fp), **kwargs)


def test_config_rejects_alpha_above_two():
    # beyond alpha = 2 the closed forms' relay decode probability
    # 1 - (alpha/2)(1 - sqrt(beta P / (beta P + 2 lam))) can be negative
    assert ch.SystemConfig.symmetric(M=2, power=10.0, alpha=2.0).alpha == 2.0
    with pytest.raises(ValueError, match="alpha must be <= 2"):
        ch.SystemConfig.symmetric(M=2, power=10.0, alpha=2.5)


@pytest.mark.parametrize("field", ["sigma2_h", "rho_e", "rho_f"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_fading_params_reject_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        ch.FadingParams(**{field: value})


# ---------------------------------------------------------------------------
# sampling model
# ---------------------------------------------------------------------------

def _current(rng, g, rho_f, theta):
    """Current SNRs drawn from a copy of the old SNRs g."""
    g = np.array(g, dtype=float)
    return ch.draw_current_into(rng, g, rho_f, theta, np.empty_like(g), np.empty_like(g))


def _old_and_current(cfg, rng, n):
    """n draws of (old, current) relay-to-destination SNRs of relay 0."""
    lp = cfg.relay_params()[0]
    g = ch.sample_gamma_batch(cfg, rng, n)["gamma_md_o"][:, 0]
    return g, _current(rng, g, lp.rho_f, lp.theta), lp


def test_trial_gammas_are_functions_of_draws():
    cfg = ch.SystemConfig.symmetric(M=2, power=8.0, rho_e=0.9, rho_f=0.8)
    lp = cfg.relay_params()[0]
    n = 1000
    batch = ch.sample_gamma_batch(cfg, np.random.default_rng(3), n)
    ref = np.random.default_rng(3)
    np.testing.assert_allclose(batch["gamma_sm_o"], ref.standard_exponential((n, 2)) / lp.lam, rtol=1e-15)
    np.testing.assert_allclose(batch["gamma_md_o"], ref.standard_exponential((n, 2)) / lp.lam, rtol=1e-15)
    g = batch["gamma_md_o"][:, 0]
    cur = _current(np.random.default_rng(4), g, lp.rho_f, lp.theta)
    x, y = np.random.default_rng(4).standard_normal((2, n))
    expect = (lp.rho_f * np.sqrt(g) + np.sqrt(lp.theta) * x) ** 2 + lp.theta * y**2
    np.testing.assert_allclose(cur, expect, rtol=1e-14)
    assert np.all(np.isfinite(batch["gamma_sm_o"]))


@pytest.mark.parametrize("convention", ["derived", "paper"])
def test_sample_mean_matches_rate(convention):
    n = 1_000_000
    cfg = ch.SystemConfig.symmetric(
        M=1, power=10.0, rho_e=0.9, rho_f=0.8, lambda_convention=convention
    )
    g, cur, lp = _old_and_current(cfg, np.random.default_rng(7), n)
    # Exponential(lam): std of the sample mean is 1/(lam sqrt(n))
    se = 1.0 / (lp.lam * math.sqrt(n))
    assert abs(g.mean() - 1.0 / lp.lam) < 5.0 * se
    assert abs(cur.mean() - 1.0 / lp.lam) < 5.0 * se


def test_current_marginal_is_exponential():
    # Kolmogorov-Smirnov of the current SNR against Exponential(lam)
    cfg = ch.SystemConfig.symmetric(M=1, power=10.0, rho_e=0.95, rho_f=0.7)
    _, cur, lp = _old_and_current(cfg, np.random.default_rng(11), 100_000)
    assert stats.kstest(cur, stats.expon(scale=1.0 / lp.lam).cdf).pvalue > 1e-3


def test_sample_correlation_matches_rho_f():
    # corr(old SNR, current SNR) = rho_f^2; the standard error comes from
    # 100 batch correlations
    n = 1_000_000
    rho_f = 0.8
    cfg = ch.SystemConfig.symmetric(M=1, power=10.0, rho_f=rho_f)
    g, cur, _ = _old_and_current(cfg, np.random.default_rng(8), n)
    r = float(np.corrcoef(g, cur)[0, 1])
    batches = [np.corrcoef(a, b)[0, 1] for a, b in zip(g.reshape(100, -1), cur.reshape(100, -1))]
    se = float(np.std(batches)) / math.sqrt(len(batches))
    assert abs(r - rho_f**2) < 5.0 * se


def test_current_given_old_is_scaled_noncentral_chi2():
    # at fixed g the current SNR is theta * ncx2(df=2, nc=c g), checked
    # against scipy's distribution rather than the library's own series
    cfg = ch.SystemConfig.symmetric(M=1, power=10.0, rho_e=0.9, rho_f=0.85)
    lp = cfg.relay_params()[0]
    g = 0.7
    cur = _current(np.random.default_rng(12), np.full(100_000, g), lp.rho_f, lp.theta)
    law = stats.ncx2(df=2, nc=lp.c * g, scale=lp.theta)
    assert stats.kstest(cur, law.cdf).pvalue > 1e-3


def test_empirical_cdf_is_exponential():
    # Kolmogorov-Smirnov against Exponential(lam) at the 99% level
    n = 100_000
    cfg = ch.SystemConfig.symmetric(M=1, power=10.0, rho_e=0.95, rho_f=0.9)
    batch = ch.sample_gamma_batch(cfg, np.random.default_rng(9), n)
    lam = cfg.relay_params()[0].lam
    sample = np.sort(batch["gamma_md_o"].ravel())
    cdf = -np.expm1(-lam * sample)
    i = np.arange(1, n + 1)
    d = max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n))
    assert d < 1.63 / math.sqrt(n)


def test_conditional_mean_given_old():
    # E[gamma | gamma_old = g] = (1 - rho_f^2)/lam + rho_f^2 g, checked in bins
    n = 400_000
    rho_f = 0.8
    cfg = ch.SystemConfig.symmetric(M=1, power=10.0, rho_f=rho_f)
    g, cur, lp = _old_and_current(cfg, np.random.default_rng(10), n)
    for lo, hi in [(0.2, 0.3), (0.8, 1.0), (1.5, 2.0)]:
        mask = (g >= lo) & (g < hi)
        count = int(mask.sum())
        assert count > 500
        expect = (1.0 - rho_f**2) / lp.lam + rho_f**2 * g[mask].mean()
        se = cur[mask].std() / math.sqrt(count)
        assert abs(cur[mask].mean() - expect) < 5.0 * se


def test_batch_sampling_is_reproducible():
    cfg = ch.SystemConfig.symmetric(M=3, power=5.0, rho_f=0.9)
    a = ch.sample_gamma_batch(cfg, np.random.default_rng(123), 1000)
    b = ch.sample_gamma_batch(cfg, np.random.default_rng(123), 1000)
    assert set(a) == {"gamma_sm_o", "gamma_md_o"}
    for key in a:
        np.testing.assert_array_equal(a[key], b[key])
    lp = cfg.relay_params()[0]
    cur_a, cur_b = (
        _current(np.random.default_rng(124), a["gamma_md_o"], lp.rho_f, lp.theta)
        for _ in range(2)
    )
    np.testing.assert_array_equal(cur_a, cur_b)


def test_batch_sampling_into_given_buffers():
    cfg = ch.SystemConfig.symmetric(M=3, power=5.0, rho_e=0.9, rho_f=0.9)
    n = 1000
    want = ch.sample_gamma_batch(cfg, np.random.default_rng(125), n)
    # leading views of larger buffers, as the simulator's workspace hands out
    sm, md = np.full((2 * n, 3), np.nan)[:n], np.full((2 * n, 3), np.nan)[:n]
    got = ch.sample_gamma_batch(cfg, np.random.default_rng(125), n, out=(sm, md))
    assert got["gamma_sm_o"] is sm and got["gamma_md_o"] is md
    for key in want:
        assert want[key].tobytes() == got[key].tobytes()


@pytest.mark.parametrize("bad", [
    np.empty((999, 3)),
    np.empty((1000, 2)),
    np.empty((1000, 3), dtype=np.float32),
    np.empty((3, 1000)).T,
    [[0.0] * 3] * 1000,
], ids=["rows", "columns", "float32", "not-c-contiguous", "list"])
def test_batch_sampling_rejects_wrong_buffers(bad):
    cfg = ch.SystemConfig.symmetric(M=3, power=5.0, rho_f=0.9)
    with pytest.raises(ValueError, match="out"):
        ch.sample_gamma_batch(cfg, np.random.default_rng(1), 1000, out=(np.empty((1000, 3)), bad))
