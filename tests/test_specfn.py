"""Special-function kernel against independent quadrature/bisection oracles.

Expected values below were produced by the oracle functions in this file
(adaptive quadrature of the defining integrals, bisection for roots) and
frozen; the oracle is re-run next to each frozen value.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import special as sp

from relaysel import specfn


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def gamma_quad(s: int, x: float) -> float:
    v, _ = integrate.quad(lambda t: t ** (s - 1) * math.exp(-t), 0.0, x, limit=200)
    return v


def j0_quad(x: float) -> float:
    v, _ = integrate.quad(lambda th: math.cos(x * math.sin(th)), 0.0, math.pi, limit=200)
    return v / math.pi


def e1_quad(y: float) -> float:
    v, _ = integrate.quad(lambda t: math.exp(-t) / t, y, np.inf, limit=200)
    return v


def q_quad(x: float) -> float:
    v, _ = integrate.quad(
        lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi), x, np.inf, limit=200
    )
    return v


def marcum_quad(a: float, b: float) -> float:
    """Integral of the Rician density x e^{-(x^2+a^2)/2} I0(ax) over [b, inf)."""
    v, _ = integrate.quad(
        lambda x: x * math.exp(-0.5 * (x - a) ** 2) * sp.i0e(a * x), b, np.inf, limit=200
    )
    return v


# ---------------------------------------------------------------------------
# lower incomplete gamma
# ---------------------------------------------------------------------------

def test_gamma_trivial_zero():
    assert specfn.lower_incomplete_gamma(1, 0.0) == 0.0


def test_gamma_frozen_values():
    # frozen from gamma_quad
    assert specfn.lower_incomplete_gamma(1, 1.0) == pytest.approx(0.6321205588285577, abs=1e-12)
    assert specfn.lower_incomplete_gamma(2, 3.0) == pytest.approx(0.8008517265285442, abs=1e-12)
    assert specfn.lower_incomplete_gamma(1, 1.0) == pytest.approx(gamma_quad(1, 1.0), abs=1e-10)
    assert specfn.lower_incomplete_gamma(2, 3.0) == pytest.approx(gamma_quad(2, 3.0), abs=1e-10)


def test_gamma_limit_is_factorial():
    for s in (1, 2, 5):
        assert specfn.lower_incomplete_gamma(s, 400.0) == pytest.approx(
            math.factorial(s - 1), rel=1e-12
        )


def test_gamma_rejects_bad_arguments():
    with pytest.raises(ValueError):
        specfn.lower_incomplete_gamma(0, 1.0)
    with pytest.raises(ValueError):
        specfn.lower_incomplete_gamma(2, -0.5)


def test_gamma_ratio_is_cdf_in_x():
    xs = np.linspace(0.0, 60.0, 200)
    for s in (1, 3, 8):
        vals = [specfn.lower_gamma_ratio_table(s - 1, x)[-1] for x in xs]
        assert vals[0] == 0.0
        # adjacent values come from independent log-space sums; allow their
        # ~1e-13 absolute noise
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert 0.0 <= min(vals) and max(vals) <= 1.0
        assert vals[-1] == pytest.approx(1.0, abs=1e-9)


def test_gamma_ratio_table_matches_scalar():
    table = specfn.lower_gamma_ratio_table(30, 7.5)
    for k in (0, 3, 17, 30):
        assert table[k] == pytest.approx(sp.gammainc(k + 1, 7.5), rel=1e-13, abs=1e-15)


# ---------------------------------------------------------------------------
# Bessel J0
# ---------------------------------------------------------------------------

def test_j0_trivial():
    assert specfn.bessel_j0(0.0) == 1.0


def test_j0_first_root():
    # root located by bisection on the quadrature-evaluated J0
    lo, hi = 2.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if j0_quad(lo) * j0_quad(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    assert root == pytest.approx(2.404825557695773, abs=1e-9)
    assert abs(specfn.bessel_j0(2.404825557695773)) < 1e-9


def test_j0_frozen_value_and_quadrature():
    assert specfn.bessel_j0(1.0) == pytest.approx(0.7651976865579666, abs=1e-12)
    for x in (0.3, 1.0, 4.5, 11.0, 13.0, 25.0):
        assert specfn.bessel_j0(x) == pytest.approx(j0_quad(x), abs=1e-10)


def test_j0_even_and_bounded():
    for x in (0.1, 2.7, 9.0, 40.0):
        assert specfn.bessel_j0(-x) == specfn.bessel_j0(x)
        assert abs(specfn.bessel_j0(x)) <= 1.0


def test_j0_ode_residual():
    # J0'' + J0'/x + J0 = 0; five-point central stencils, h chosen to balance
    # truncation against the ~1e-13 evaluation noise amplified by 1/h^2
    h = 0.02
    for x in np.linspace(0.5, 10.0, 97):
        f = [specfn.bessel_j0(x + i * h) for i in (-2, -1, 0, 1, 2)]
        d1 = (-f[4] + 8.0 * f[3] - 8.0 * f[1] + f[0]) / (12.0 * h)
        d2 = (-f[4] + 16.0 * f[3] - 30.0 * f[2] + 16.0 * f[1] - f[0]) / (12.0 * h * h)
        assert abs(d2 + d1 / x + f[2]) < 1e-7


# ---------------------------------------------------------------------------
# exponential integral
# ---------------------------------------------------------------------------

def test_ei_frozen_values():
    # frozen from e1_quad
    assert specfn.exp_integral_ei(-1.0) == pytest.approx(0.21938393439552026, rel=1e-12)
    assert specfn.exp_integral_ei(-10.0) == pytest.approx(4.156968929685325e-06, rel=1e-12)
    assert specfn.exp_integral_ei(-1.0) == pytest.approx(e1_quad(1.0), rel=1e-9)
    assert specfn.exp_integral_ei(-10.0) == pytest.approx(e1_quad(10.0), rel=1e-9)


def test_ei_convention_identity_on_grid():
    # source convention at x < 0 equals minus the standard Ei at the same x
    for x in (-0.05, -0.5, -1.0, -2.5, -7.0, -30.0):
        assert specfn.exp_integral_ei(x) == pytest.approx(-sp.expi(x), rel=1e-12)


def test_ei_positive_and_decreasing():
    vals = [specfn.exp_integral_ei(-y) for y in (0.2, 0.5, 1.0, 3.0, 8.0)]
    assert all(v > 0.0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_ei_rejects_nonnegative():
    for x in (0.0, 1.0):
        with pytest.raises(ValueError):
            specfn.exp_integral_ei(x)


# ---------------------------------------------------------------------------
# Gaussian tail and its exponential-type approximation
# ---------------------------------------------------------------------------

def test_q_trivial_and_frozen():
    assert specfn.gaussian_q(0.0) == 0.5
    assert specfn.gaussian_q(1.0) == pytest.approx(0.15865525393145705, rel=1e-12)
    assert specfn.gaussian_q(1.0) == pytest.approx(q_quad(1.0), rel=1e-9)


def test_q_limits():
    assert specfn.gaussian_q(-40.0) == pytest.approx(1.0, abs=1e-15)
    assert specfn.gaussian_q(40.0) == pytest.approx(0.0, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))
def test_q_mirror_identity(x):
    assert specfn.gaussian_q(x) + specfn.gaussian_q(-x) == pytest.approx(1.0, abs=1e-14)


def test_qapprox_leading_coefficient():
    # direct evaluation of a_1 = A / (2 B sqrt(pi))
    a1 = specfn.QAPPROX_A / (2.0 * specfn.QAPPROX_B * math.sqrt(math.pi))
    assert a1 == pytest.approx(0.49211250018702973, rel=1e-12)
    for n_a in (1, 5, 20):
        assert specfn.gaussian_q_approx(0.0, n_a) == pytest.approx(a1, rel=1e-12)


def test_qapprox_measured_error_bound():
    # measured max relative error vs the exact tail on x in [0.5, 5] with
    # n_a = 20; the documented bound is 0.095 (worst near x = 5)
    xs = np.linspace(0.5, 5.0, 451)
    rel = max(
        abs(specfn.gaussian_q_approx(x, 20) - specfn.gaussian_q(x)) / specfn.gaussian_q(x)
        for x in xs
    )
    assert rel < 0.095
    assert rel > 0.05  # the bound is not vacuous: the approximation is this rough


def test_qapprox_partial_sums_alternate():
    x = 1.0
    limit = specfn.gaussian_q_approx(x, 60)
    resid = [specfn.gaussian_q_approx(x, n) - limit for n in range(1, 9)]
    signs = [math.copysign(1.0, r) for r in resid]
    assert all(a * b < 0 for a, b in zip(signs, signs[1:]))


def test_qapprox_rejects_negative_x():
    with pytest.raises(ValueError):
        specfn.gaussian_q_approx(-0.1, 5)


# ---------------------------------------------------------------------------
# Marcum Q
# ---------------------------------------------------------------------------

def test_marcum_trivial_branches():
    assert specfn.marcum_q1(3.7, 0.0) == 1.0
    for b in (0.5, 2.0):
        assert specfn.marcum_q1(0.0, b) == pytest.approx(math.exp(-0.5 * b * b), rel=1e-14)


def test_marcum_frozen_value():
    # frozen from marcum_quad(1, 2)
    assert specfn.marcum_q1(1.0, 2.0) == pytest.approx(0.26901206003591005, abs=1e-12)
    assert specfn.marcum_q1(1.0, 2.0) == pytest.approx(marcum_quad(1.0, 2.0), abs=1e-10)


def test_marcum_grid_against_quadrature():
    grid = np.linspace(0.0, 5.0, 20)
    worst = 0.0
    for a in grid:
        for b in grid:
            worst = max(worst, abs(specfn.marcum_q1(a, b) - marcum_quad(a, b)))
    assert worst < 1e-9


def test_marcum_monotonicity():
    bs = np.linspace(0.0, 6.0, 25)
    vals = [specfn.marcum_q1(2.0, b) for b in bs]
    assert all(y <= x + 1e-12 for x, y in zip(vals, vals[1:]))
    avals = [specfn.marcum_q1(a, 2.0) for a in np.linspace(0.0, 6.0, 25)]
    assert all(y >= x - 1e-12 for x, y in zip(avals, avals[1:]))


def test_marcum_large_noncentrality():
    # far beyond the underflow point of exp(-a^2/2)
    a, b = 70.0, 65.0
    assert specfn.marcum_q1(a, b) == pytest.approx(marcum_quad(a, b), abs=1e-9)


# ---------------------------------------------------------------------------
# factorials / binomials
# ---------------------------------------------------------------------------

def test_binomial_values():
    assert specfn.binomial(4, 2) == 6
    for n in (0, 1, 7, 30):
        assert specfn.binomial(n, 0) == 1
    with pytest.raises(ValueError):
        specfn.binomial(3, 4)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=60), st.data())
def test_binomial_pascal(n, data):
    k = data.draw(st.integers(min_value=1, max_value=n - 1))
    assert specfn.binomial(n, k) == specfn.binomial(n - 1, k - 1) + specfn.binomial(n - 1, k)


def test_ln_factorial_against_stirling():
    n = 170
    stirling = (
        (n + 0.5) * math.log(n) - n + 0.5 * math.log(2.0 * math.pi)
        + 1.0 / (12.0 * n) - 1.0 / (360.0 * n**3)
    )
    v = specfn.ln_factorial(n)
    assert math.isfinite(v)
    assert v == pytest.approx(stirling, rel=1e-10)
    assert specfn.ln_factorial(5) == pytest.approx(math.log(120.0), rel=1e-14)


# ---------------------------------------------------------------------------
# averaged kernels
# ---------------------------------------------------------------------------

def test_mean_q_gamma_against_quadrature():
    for shape, c in [(1, 0.5), (2, 1.0), (3, 10.0), (5, 0.1), (12, 2.0)]:
        val, _ = integrate.quad(
            lambda x: specfn.gaussian_q(math.sqrt(2.0 * c * x))
            * x ** (shape - 1) * math.exp(-x) / math.gamma(shape),
            0.0, np.inf, limit=300,
        )
        assert specfn.mean_q_gamma_table(shape, c)[-1] == pytest.approx(val, abs=1e-10)


def test_mean_q_gamma_shape_one_is_closed_form():
    # shape 1 must reduce to (1 - sqrt(c/(1+c))) / 2
    for c in (0.2, 1.0, 9.0):
        expect = 0.5 * (1.0 - math.sqrt(c / (1.0 + c)))
        assert specfn.mean_q_gamma_table(1, c)[-1] == pytest.approx(expect, rel=1e-14)


def test_log_gamma_mean_against_quadrature():
    for b in (0.3, 1.6, 14.0, 16.0, 120.0):
        table = specfn.log_gamma_mean_table(12, b)
        for k in (0, 4, 12):
            val, _ = integrate.quad(
                lambda x: math.log1p(x / b) * x**k * math.exp(-x) / math.gamma(k + 1),
                0.0, np.inf, limit=300,
            )
            assert table[k] == pytest.approx(val, abs=1e-10)


def test_log_gamma_mean_first_entry_is_ei_identity():
    # L[0] must equal e^b E1(b), the closed form behind the capacity series
    for b in (0.4, 2.0, 9.0):
        expect = math.exp(b) * specfn.exp1(b)
        assert specfn.log_gamma_mean_table(0, b)[0] == pytest.approx(expect, rel=1e-13)


# L[k] = sum_{j<=k} e^b b^j Gamma(-j, b), from mpmath 1.3.0: the increments
# by their forward recurrence at 320 digits from e^b E1(b) (the recurrence
# loses at most ~e^b, i.e. 174 digits at b = 400), rounded to 40 digits.  A
# 45-digit quadrature of E[ln(1 + X/b)] agrees to 1e-46 at k in {0, ceil(b),
# ceil(b) + 3} and to 40 digits at k = K.  The b are the exact binary values.
LOG_GAMMA_MEAN_40 = [
    (16.0, 3000, {
        0: "0.05900810360855643618650934197384251560888",
        1: "0.1148784458716534572023598703923622658669",
        5: "0.3125014860431783431698565924412625050073",
        15: "0.6854751157999115382420520386364109209866",
        16: "0.7162445603248893173706887888276691663426",
        17: "0.7461086125366749370143247886476614060075",
        19: "0.8033206753841436219766214904273116179844",
        1500: "4.551575103105154772006082077460759552645",
        3000: "5.239264659603356467595498930692741612778",
    }),
    # the rho_f = 0.999 capacity table of the scaling benchmark
    (50.0250125062538, 17945, {
        0: "0.01960548758909316967596065989814572650398",
        1: "0.03884072575350365934169832811523387639568",
        5: "0.1123386985223850503029770672642732469519",
        50: "0.7003606762880931226674733357544324592686",
        51: "0.7102109317003509579230417842056163228632",
        52: "0.7199655634275049500973090107547690493324",
        54: "0.7391952247445095212612067031910505941074",
        8972: "5.194956686070746098052866519663774739729",
        17945: "5.885355342452449183444170429179512676259",
    }),
    (400.0, 2000, {
        0: "0.002493781017939885038127420133242601415574",
        1: "0.00498137384198586978715936683620203518599",
        5: "0.0148704710461782909381055592101835425655",
        399: "0.6928349083022470733624953757900801447977",
        400: "0.6940841275408310251986847944734206878035",
        401: "0.6953317891482285794768000875573702708401",
        403: "0.6978224549635139573940763714499375862503",
        1000: "1.253222054125806982224205317879273979674",
        2000: "1.792002501876422313670087755114489510041",
    }),
]


@pytest.mark.parametrize("b, k_max, want", LOG_GAMMA_MEAN_40, ids=["16", "50.03", "400"])
def test_log_gamma_mean_large_b_against_mpmath(b, k_max, want):
    # k < ceil(b) are integrated, k > ceil(b) come from the recurrence
    table = specfn.log_gamma_mean_table(k_max, b)
    assert len(table) == k_max + 1
    for k, value in want.items():
        assert table[k] == pytest.approx(float(value), rel=1e-13, abs=0.0), k


@pytest.mark.parametrize("b, k_max, want", LOG_GAMMA_MEAN_40, ids=["16", "50.03", "400"])
def test_log_gamma_mean_large_b_short_tables(b, k_max, want):
    # k_max < ceil(b) is all quadrature and k_max = ceil(b) ends on it; either
    # is the prefix of the long table, whose entries do not depend on k_max
    full = specfn.log_gamma_mean_table(k_max, b)
    cb = math.ceil(b)
    for short in (0, 5, cb - 1, cb, cb + 1):
        table = specfn.log_gamma_mean_table(short, b)
        np.testing.assert_array_equal(table, full[: short + 1])
        assert table[-1] == pytest.approx(float(want[short]), rel=1e-13, abs=0.0)


def _mean_q_gamma_loop(shape_max, c):
    # the scalar loop mean_q_gamma_table replaced, kept as its reference
    if c == 0.0:
        return np.full(shape_max, 0.5)
    mu = math.sqrt(c / (1.0 + c))
    z4 = 1.0 - mu * mu
    t = 1.0
    s = 1.0
    out = np.empty(shape_max)
    out[0] = 0.5 * (1.0 - mu * s)
    for m in range(2, shape_max + 1):
        jj = m - 1
        t *= z4 * (1.0 - 0.5 / jj)
        s += t
        out[m - 1] = 0.5 * (1.0 - mu * s)
    return np.maximum(out, 0.0)


def _log_gamma_mean_loop(k_max, b):
    # the numpy-scalar recurrence of the b <= 15 branch, kept as its reference
    v = np.empty(k_max + 1)
    v[0] = math.exp(b) * specfn.exp1(b)
    for j in range(1, k_max + 1):
        v[j] = (1.0 - b * v[j - 1]) / j
    return np.cumsum(v)


TABLE_SIZES = (1, 2, 7, 100, 18000)
SMALL_ARGS = (0.005, 0.1, 1.0, 3.7, 9.0, 14.9, 15.0)


@pytest.mark.parametrize("c", (0.0,) + SMALL_ARGS + (2e3, 5e6))
def test_mean_q_gamma_table_bit_identical_to_loop(c):
    for size in TABLE_SIZES:
        np.testing.assert_array_equal(specfn.mean_q_gamma_table(size, c), _mean_q_gamma_loop(size, c))


@pytest.mark.parametrize("b", SMALL_ARGS)
def test_log_gamma_mean_small_b_bit_identical_to_loop(b):
    for size in TABLE_SIZES:
        got = specfn.log_gamma_mean_table(size - 1, b)
        np.testing.assert_array_equal(got, _log_gamma_mean_loop(size - 1, b))
        # a numpy scalar b takes the same path
        np.testing.assert_array_equal(specfn.log_gamma_mean_table(size - 1, np.float64(b)), got)


# ---------------------------------------------------------------------------
# series control
# ---------------------------------------------------------------------------

def test_series_control_validation():
    with pytest.raises(ValueError):
        specfn.SeriesControl(abs_tol=0.0)
    with pytest.raises(ValueError):
        specfn.SeriesControl(k_max=0)
    ctrl = specfn.SeriesControl()
    assert ctrl.abs_tol == 1e-12 and ctrl.k_max == 512


def test_poisson_window_raises_past_cap():
    with pytest.raises(specfn.SeriesError):
        specfn.poisson_weight_window(5000.0, 1e-12, k_cap=512)
