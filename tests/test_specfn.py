"""Special-function kernel against independent quadrature/bisection oracles.

Expected values below were produced by the oracle functions in this file
(adaptive quadrature of the defining integrals, bisection for roots) and
frozen; the oracle is re-run next to each frozen value.
"""

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

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


# e^b E1(b) from mpmath 1.3.0 at 50 digits, rounded to 30; the b are the
# exact binary values.  They cover both branches and the switch at b = 1,
# and b = 710, where e^b alone overflows
EXP1_SCALED_30 = [
    (1e-06, "13.2383091313650035014524393018"),
    (0.0001, "8.63408807021272528227210922889"),
    (0.01, "4.07851144345642582664274874835"),
    (0.1, "2.01464254470845163477241961994"),
    (0.5, "0.922910632483730468832849375829"),
    (0.9, "0.639949226639299730303175030159"),
    (0.999, "0.596751313368685824812663697872"),
    (1.0, "0.596347362323194074341078499369"),
    (1.001, "0.595944007625447721039236958827"),
    (1.5, "0.448256669291582953916931735604"),
    (2.0, "0.361328616888222584697161657679"),
    (3.0, "0.262083740255318496188718606022"),
    (7.5, "0.119025047208411135192992036048"),
    (15.0, "0.0627202791074092418164341472658"),
    (50.0, "0.0196151099301148703653076098"),
    (300.0, "0.00332229556527070706443622859059"),
    (709.0, "0.00140845349039518285020929058799"),
    (710.0, "0.00140647253534139186209537395532"),
    (1000.0, "0.000999001994023880714999960709356"),
    (10000.0, "0.0000999900019994002398800719496403"),
    (100000.0, "0.0000099999000019999400023998800072"),
    (1000000.0, "0.00000099999900000199999400002399988"),
]


def test_exp1_scaled_against_mpmath():
    b = np.array([x for x, _ in EXP1_SCALED_30])
    want = np.array([float(v) for _, v in EXP1_SCALED_30])
    got = specfn.exp1_scaled(b)
    assert np.all(np.abs(got - want) <= 1e-14 * want)


# E1(y) from mpmath 1.3.0 at 50 digits, rounded to 40, at points of
# np.linspace(1, 1.5, 2001)[1:] (exact binary values): every 125th, and the
# 20 where a modified Lentz fraction, which the scalar exp1 once used, was
# worst (8e-15 to 1.1e-14 relative)
E1_JUST_ABOVE_ONE_40 = [
    (1.00025, "0.2192919875229033165480273784411441267657"),
    (1.01825, "0.2127908248201042117515321557507402968072"),
    (1.02325, "0.2110258166075731085613992769494324469366"),
    (1.0235, "0.2109380237681460504034706060546956334287"),
    (1.0315, "0.2081514138239552009132861427620594196201"),
    (1.03275, "0.2077199626456311492312823825137315930446"),
    (1.04925, "0.2021229518690769587111664127604733211973"),
    (1.051, "0.2015398642504653720471238446455337760125"),
    (1.06275, "0.1976759190313249097897648963657583970486"),
    (1.0785, "0.1926328216432259384336454275926188726161"),
    (1.0865, "0.1901293447931214889283099515476218870921"),
    (1.09125, "0.1886610102163624805731107722193441987067"),
    (1.094, "0.1878170126994721147995059261287535428515"),
    (1.1245, "0.1787470855856686478550715176418592925264"),
    (1.12525, "0.178530599475241743113524659358761405583"),
    (1.1355, "0.1756024453162102711767258963074742910801"),
    (1.1365, "0.1753197860578126324372742623771661028522"),
    (1.13775, "0.174967208378984469049140708780161404883"),
    (1.1565, "0.1697764884990082747937922136110900587153"),
    (1.158, "0.1693690360314131681035467156825251151386"),
    (1.18775, "0.1615179684962776911472881418663179911908"),
    (1.21075, "0.1557366179808695816436571908920559849683"),
    (1.219, "0.1537214383120397456931644910470048862814"),
    (1.25025, "0.1463560844569384491087631055165536239725"),
    (1.2815, "0.1393935986921155564825943278421589217266"),
    (1.28475, "0.1386915600647507438074280524249808707842"),
    (1.2922500000000001, "0.1370868660802417290788206507622501810054"),
    (1.30925, "0.1335275546279486983287058528351749904832"),
    (1.31275, "0.1328079298562609857331315924201454038314"),
    (1.344, "0.1265750650935240462912214317508559775516"),
    (1.3495, "0.1255129010986039484838454590550162307853"),
    (1.36025, "0.123465975980965666686181925545413565933"),
    (1.37525, "0.1206728364203543331377260565648477677621"),
    (1.4065, "0.1150807492085974844601226591733950023243"),
    (1.43775, "0.1097798296890001319550553024748480487551"),
    (1.469, "0.1047524890154461392002095716343781085859"),
    (1.5, "0.1000195824066326519019093399116669782617"),
]


def test_scalar_exp1_against_mpmath_just_above_one():
    # the continued fraction from exp1_scaled, times e^-y
    for y, v in E1_JUST_ABOVE_ONE_40:
        want = float(v)
        assert abs(specfn.exp1(y) - want) <= 1e-15 * want, y


def test_exp1_scaled_against_scalar_exp1_on_a_dense_grid():
    # the scalar E1 times e^b, where e^b is finite, on both sides of b = 1
    b = np.concatenate((np.logspace(-6, 2.5, 400), np.linspace(0.9, 1.1, 41)))
    want = np.array([math.exp(x) * specfn.exp1(x) for x in b])
    assert np.allclose(specfn.exp1_scaled(b), want, rtol=1e-13, atol=0.0)


def test_exp1_scaled_array_equals_elementwise_calls():
    # each element's continued fraction starts at its own depth, so no
    # element's value depends on the others in the array
    b = np.concatenate((np.logspace(-6, 6, 301), [1.0, 1.5, 2.0])).reshape(8, 38)
    got = specfn.exp1_scaled(b)
    want = np.array([specfn.exp1_scaled(np.array([x]))[0] for x in b.ravel()])
    assert got.shape == b.shape
    assert np.array_equal(got.ravel(), want)
    # and at the general path's sizes: those values 60 times over, b < 1
    # and b >= 1 shuffled together, 18,240 elements in one call
    pick = np.random.default_rng(20240817).permutation(60 * b.size) % b.size
    assert np.array_equal(specfn.exp1_scaled(b.ravel()[pick]), want[pick])
    # arrays up to _EXP1_SCALAR_MAX elements run element by element: at every
    # size on either side of it, a call equals the same values taken from one
    # large array-path call, on [1, 3] (depths 104 to 46), on [700, 1e6],
    # where e^b overflows and the element path must not form it, and on
    # [1e-6, 1e6], where one call holds both branches
    rng = np.random.default_rng(7)
    pools = [rng.uniform(1.0, 3.0, 64), rng.uniform(700.0, 1e6, 64),
             np.exp(rng.uniform(math.log(1e-6), math.log(1e6), 64))]
    for pool in pools:
        whole = specfn.exp1_scaled(pool)
        assert pool.size > specfn._EXP1_SCALAR_MAX
        for size in range(1, specfn._EXP1_SCALAR_MAX + 2):
            start = rng.integers(0, pool.size - size + 1)
            part = slice(start, start + size)
            assert np.array_equal(specfn.exp1_scaled(pool[part]), whole[part]), size


def _exp1_scaled_fraction_every_level(x: np.ndarray) -> np.ndarray:
    """The b >= 1 branch as a loop that runs every level on every element
    and restarts each one at its own depth."""
    depth = np.ceil(100.0 / x**0.8).astype(np.int64) + 4
    f = x + (2.0 * depth.max() + 1.0)
    for j in range(int(depth.max()) - 1, -1, -1):
        f = x + (2.0 * j + 1.0) - (j + 1.0) ** 2 / f
        start = depth == j
        f[start] = x[start] + (2.0 * j + 1.0)
    return 1.0 / f


@pytest.mark.parametrize("draw", [
    lambda rng: rng.uniform(1.0, 30.0, 1024),
    lambda rng: rng.uniform(1.0, 2.0, 3),
    # just above 1, where the depth (104) is largest
    lambda rng: 1.0 + rng.uniform(0.0, 1e-9, 17),
    # many elements of one depth, in shuffled order
    lambda rng: rng.permutation(np.repeat(rng.uniform(1.0, 1e3, 5), 7)),
    lambda rng: np.exp(rng.uniform(0.0, np.log(1e6), 257)),
    lambda rng: np.array([rng.uniform(1.0, 1e6)]),
], ids=["1024-on-1-30", "3-on-1-2", "just-above-1", "equal-depths", "log-1-1e6", "one"])
def test_exp1_scaled_fraction_equals_the_every_level_loop(draw):
    # the fraction runs each level only on the elements still open there
    b = draw(np.random.default_rng(20240817))
    assert (b >= 1.0).all()
    assert np.array_equal(specfn.exp1_scaled(b), _exp1_scaled_fraction_every_level(b))


def test_exp1_rejects_nonpositive_and_nan():
    for y in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="requires y > 0"):
            specfn.exp1(y)


def test_exp1_scaled_rejects_nonpositive():
    for b in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            specfn.exp1_scaled(np.array([1.0, b]))


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


def test_marcum_array_equals_scalar_calls():
    a = np.linspace(0.0, 8.0, 17)[:, None]
    b = np.array([0.0, 0.3, 1.0, 2.5, 6.0, 40.0])
    for complement in (False, True):
        got = specfn.marcum_q1(a, b, complement=complement)
        assert got.shape == (17, 6)
        want = [[specfn.marcum_q1(x, y, complement=complement) for y in b] for x in a[:, 0]]
        assert np.max(np.abs(got - np.array(want))) <= 1e-15


def test_marcum_scalar_call_returns_float():
    assert type(specfn.marcum_q1(1.0, 2.0)) is float
    assert type(specfn.marcum_q1(np.float64(1.0), 2, complement=True)) is float
    assert type(specfn.marcum_q1(0.0, 2.0)) is float and type(specfn.marcum_q1(2.0, 0.0)) is float


def test_marcum_complement_edges_and_tail():
    assert specfn.marcum_q1(3.7, 0.0, complement=True) == 0.0
    assert specfn.marcum_q1(0.0, 0.5, complement=True) == pytest.approx(
        -math.expm1(-0.125), rel=1e-14
    )
    assert specfn.marcum_q1(1.0, 2.0, complement=True) == pytest.approx(
        1.0 - 0.26901206003591005, rel=1e-12
    )
    # deep lower tail, far below what 1 - Q1 in floating point resolves:
    # 25-digit mpmath sums of Pr[N = k] Pr[Y > k]
    for a, b, want in (
        (10.0, 1.0, 3.413648946230375215813801e-20),
        (20.0, 3.0, 1.577984921455947136430267e-65),
        (30.0, 20.0, 6.207589807643933402399397e-24),
    ):
        assert specfn.marcum_q1(a, b, complement=True) == pytest.approx(want, rel=1e-10)


def test_marcum_nan_from_the_noncentral_chi2_cdf_is_a_series_error():
    # chndtr returns NaN near x ~ nc at noncentralities of ~1e12 and above;
    # one such element fails the whole call, never passes a NaN on
    for complement in (False, True):
        with pytest.raises(specfn.SeriesError, match="returned NaN"):
            specfn.marcum_q1(1e6, 1e6, complement=complement)
        with pytest.raises(specfn.SeriesError, match="returned NaN"):
            specfn.marcum_q1(np.array([1.0, 1e6]), np.array([2.0, 1e6]), complement=complement)


def test_marcum_large_array_memory_is_bounded():
    # 300 nodes whose Poisson mixtures span ~8,600 terms each: a kernel that
    # held every (node, k) term at once would take 21 MB
    import tracemalloc

    one = specfn.marcum_q1(600.0, 598.0)
    tracemalloc.start()
    try:
        got = specfn.marcum_q1(np.full(300, 600.0), 598.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(got == one) and 0.9 < one < 1.0
    assert peak < 16 << 20  # 16 MiB


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


def test_ln_factorial_table_matches_lgamma():
    table = specfn._ln_factorial_array(300)
    assert len(table) == 301
    assert np.array_equal(table, [math.lgamma(n + 1.0) for n in range(301)])
    assert all(specfn.ln_factorial(n) == table[n] for n in (0, 1, 170, 300))
    assert type(specfn.ln_factorial(7)) is float


def test_half_integer_lgamma_grid():
    grid = specfn.ln_gamma_half_grid(41)
    assert len(grid) >= 42
    assert np.array_equal(grid[:42], [math.lgamma(1.0 + 0.5 * j) for j in range(42)])
    with pytest.raises(ValueError):
        specfn.ln_gamma_half_grid(-1)


def test_memoised_tables_are_read_only():
    a = specfn.qapprox_coefficients(20)
    assert specfn.qapprox_coefficients(20) is a
    for table in (a, specfn._ln_factorial_array(30), specfn.ln_gamma_half_grid(30)):
        with pytest.raises(ValueError):
            table[0] = 1.0
        with pytest.raises(ValueError):
            table += 1.0


def test_grid_never_shrinks_under_concurrent_growth():
    """Workers grow a fresh table to nearby lengths at once.  A lost update
    would let a shorter table replace a longer one already handed out."""
    sizes = [400 + 25 * i for i in range(8)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            # Python bytecode per row: threads switch mid-growth
            grid = specfn._Grid(lambda lo, hi: np.array([float(j) for j in range(lo, hi)]))
            start = threading.Barrier(len(sizes))

            def grow(n: int) -> bool:
                start.wait(timeout=10)
                table = grid.upto(n)
                return len(table) > n and table[n] == n

            with ThreadPoolExecutor(max_workers=len(sizes)) as pool:
                assert all(pool.map(grow, sizes, timeout=60))
            table = grid.upto(0)
            assert len(table) > max(sizes)
            assert np.array_equal(table, np.arange(len(table)))
    finally:
        sys.setswitchinterval(old)


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
    # every increment is the continued fraction, including j < b, where the
    # recurrence would amplify the error of its seed
    table = specfn.log_gamma_mean_table(k_max, b)
    assert len(table) == k_max + 1
    for k, value in want.items():
        assert table[k] == pytest.approx(float(value), rel=2e-14, abs=0.0), k


@pytest.mark.parametrize("b, k_max, want", LOG_GAMMA_MEAN_40, ids=["16", "50.03", "400"])
def test_log_gamma_mean_large_b_short_tables(b, k_max, want):
    # tables that end before, at and after ceil(b) are each the prefix of
    # the long table, whose entries do not depend on k_max
    full = specfn.log_gamma_mean_table(k_max, b)
    cb = math.ceil(b)
    for short in (0, 5, cb - 1, cb, cb + 1):
        table = specfn.log_gamma_mean_table(short, b)
        np.testing.assert_array_equal(table, full[: short + 1])
        assert table[-1] == pytest.approx(float(want[short]), rel=2e-14, abs=0.0)


# e^b E_n(b) from mpmath 1.3.0: a 45-digit quadrature of
# int_0^inf e^(-b u) (1 + u)^(-n) du, rounded to 30 digits.  A 400-level
# continued fraction agrees to 2e-46, and 120-digit mpmath.expint to 1e-28
# except at (257, 400), where expint returns -8e26.  The orders are those
# the fraction serves: every n for b > 15, and n > 256 for b <= 15, where
# the table's recurrence covers the rest.  The b are the exact binary
# values; 15.000000000000002 is the double just above 15.
EXPN_SCALED_30 = [
    (257, 1e-06, "0.00390624998468137260932916519158"),
    (258, 1e-06, "0.00389105056845817126583123567096"),
    (1000, 1e-06, "0.00100100099999799398697596300843"),
    (65537, 1e-06, "0.0000152587890622671658035817935216"),
    (257, 0.5, "0.00389860573392552522130003547676"),
    (258, 0.5, "0.0038834657475993666824488326158"),
    (1000, 0.5, "0.00100049974887356329038350922356"),
    (65537, 0.5, "0.0000152586726462900014222142978435"),
    (257, 14.9, "0.00369064724643554689997672643131"),
    (258, 14.9, "0.00367707920633505972715628591661"),
    (1000, 14.9, "0.000986276252158455245003617390862"),
    (65537, 14.9, "0.0000152553206215680865341695601639"),
    (257, 15.0, "0.00368928090229316211663930948226"),
    (258, 15.0, "0.00367572290453541855350354224812"),
    (1000, 15.0, "0.000986178893077821488080819570337"),
    (65537, 15.0, "0.000015255297348767910470552692872"),
    (1, 15.000000000000002, "0.0627202791074092348062416154548"),
    (2, 15.000000000000002, "0.0591958133888613664927790066387"),
    (16, 15.000000000000002, "0.0327871599628833399342192372887"),
    (64, 15.000000000000002, "0.0127887345709749269623881180412"),
    (257, 15.000000000000002, "0.00368928090229316209237717897872"),
    (1000, 15.000000000000002, "0.000986178893077821486351545768967"),
    (65537, 15.000000000000002, "0.000015255297348767910470139285525"),
    (1, 15.5, "0.0608074334760914584479960555392"),
    (2, 15.5, "0.0574847811205823940560611391419"),
    (16, 15.5, "0.0322500730125449466842035262599"),
    (64, 15.5, "0.0127066469500635353793043847723"),
    (257, 15.5, "0.00368246438180742020264917268934"),
    (1000, 15.5, "0.000985692386133211619880309062611"),
    (65537, 15.5, "0.0000152551809858321549781857887715"),
    (1, 16.0, "0.0590081036085564361865093419738"),
    (2, 16.0, "0.0558703422630970210158505284185"),
    (16, 16.0, "0.0317305554750222208713632498087"),
    (64, 16.0, "0.0126256170338905619068364953041"),
    (257, 16.0, "0.00367567309152515485493725949959"),
    (1000, 16.0, "0.000985206359430328138046492530917"),
    (65537, 16.0, "0.0000152550646246715777390024698239"),
    (1, 50.0250125062538, "0.0196054875890931696759606598981"),
    (2, 50.0250125062538, "0.0192352381644104896657376682171"),
    (16, 50.0250125062538, "0.0152003184704393040659895553129"),
    (64, 50.0250125062538, "0.00881305405307206277074510625449"),
    (257, 50.0250125062538, "0.00326595836468442350158876672596"),
    (1000, 50.0250125062538, "0.000953222747196060430033116440696"),
    (65537, 50.0250125062538, "0.0000152471504132098796673563293165"),
    (1, 400.0, "0.00249378101793988503812742013324"),
    (2, 400.0, "0.00248759282404598474903194670296"),
    (16, 400.0, "0.00240406740276233295272207805041"),
    (64, 400.0, "0.00215581089177901433185901359457"),
    (257, 400.0, "0.0015229751032472100754618646548"),
    (1000, 400.0, "0.00071465018284184665157755948642"),
    (65537, 400.0, "0.0000151662203954276363864996454557"),
    (1, 10000.0, "0.0000999900019994002398800719496403"),
    (2, 10000.0, "0.0000999800059976011992805035971625"),
    (16, 10000.0, "0.0000998402715113283834184323045321"),
    (64, 10000.0, "0.0000993641327267128758256414581111"),
    (257, 10000.0, "0.0000974946321894338990574488072546"),
    (1000, 10000.0, "0.0000909098421059434870166982192292"),
    (65537, 10000.0, "0.0000132386974071803993968451938354"),
]


def test_expn_scaled_against_mpmath():
    for b in sorted({b for _, b, _ in EXPN_SCALED_30}):
        rows = [(n, v) for n, x, v in EXPN_SCALED_30 if x == b]
        got = specfn.expn_scaled(np.array([n for n, _ in rows]), b)
        want = np.array([float(v) for _, v in rows])
        assert np.all(np.abs(got - want) <= 4e-16 * want), b


@pytest.mark.parametrize("b, n_lo", [
    (1e-6, 257), (0.5, 257), (14.9, 257), (15.0, 257), (15.000000000000002, 1), (15.5, 1),
    (50.0250125062538, 1), (400.0, 1), (1e4, 1),
])
def test_expn_scaled_obeys_the_order_recurrence(b, n_lo):
    # n E_{n+1}(b) + b E_n(b) = e^-b, times e^b, at every consecutive pair
    # of orders up to 65537; both terms are positive, so the identity
    # checks each value
    n = np.arange(n_lo, 65538)
    v = specfn.expn_scaled(n, b)
    np.testing.assert_allclose(n[:-1] * v[1:] + b * v[:-1], 1.0, rtol=8e-16, atol=0.0)


def test_expn_scaled_array_equals_elementwise_calls():
    # each element's fraction starts at its own depth, so no element's value
    # depends on the other orders in the array
    for b, n in ((0.3, np.array([257, 300, 4000, 65537])), (20.0, np.array([1, 2, 3, 90, 65537]))):
        got = specfn.expn_scaled(n, b)
        for i, order in enumerate(n):
            assert got[i] == specfn.expn_scaled(np.array([order]), b)[0]
    assert specfn.expn_scaled(np.array([], dtype=int), 3.0).shape == (0,)


@pytest.mark.parametrize("n, b", [
    (np.array([256, 257]), 15.0),   # the recurrence's orders at b <= 15
    (np.array([1]), 0.5),
    (np.array([300, 299]), 20.0),   # not ascending
    (np.array([0, 1]), 20.0),       # order 0
    (np.array([[1, 2]]), 20.0),     # not 1-D
    (np.array([300]), 0.0),
    (np.array([300]), -1.0),
])
def test_expn_scaled_rejects_arguments_outside_its_domain(n, b):
    with pytest.raises(ValueError):
        specfn.expn_scaled(n, b)


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
    # the numpy-scalar recurrence of the b <= 15 branch, kept as its
    # reference.  It hands over to the continued fraction at
    # _RECURRENCE_HEAD, as the table does: past it the two give different
    # increments, and their running sums would agree only by rounding luck
    head = min(k_max + 1, specfn._RECURRENCE_HEAD)
    v = np.empty(k_max + 1)
    v[0] = math.exp(b) * specfn.exp1(b)
    for j in range(1, head):
        v[j] = (1.0 - b * v[j - 1]) / j
    v[head:] = specfn.expn_scaled(np.arange(head + 1, k_max + 2), b)
    return np.cumsum(v)


TABLE_SIZES = (1, 2, 7, 100, 18000)
SMALL_ARGS = (0.005, 0.1, 1.0, 3.7, 9.0, 14.9, 15.0)


# 0.1999 at 16,572 terms is a rho_f = 0.999 ASER table, whose product reaches
# subnormal terms; 1e-20 and 1e17 round 4z to exactly 1 and 0
@pytest.mark.parametrize("c", (0.0,) + SMALL_ARGS + (0.1999, 2e3, 5e6, 1e-20, 1e-12, 1e12, 1e17))
def test_mean_q_gamma_table_bit_identical_to_loop(c):
    for size in TABLE_SIZES + (16572,):
        np.testing.assert_array_equal(specfn.mean_q_gamma_table(size, c), _mean_q_gamma_loop(size, c))


@pytest.mark.parametrize("b", SMALL_ARGS)
def test_log_gamma_mean_small_b_bit_identical_to_loop(b):
    for size in TABLE_SIZES:
        got = specfn.log_gamma_mean_table(size - 1, b)
        np.testing.assert_array_equal(got, _log_gamma_mean_loop(size - 1, b))
        # a numpy scalar b takes the same path
        np.testing.assert_array_equal(specfn.log_gamma_mean_table(size - 1, np.float64(b)), got)


def test_log_gamma_mean_large_b_is_the_fraction():
    # b > 15 sums the continued fraction's increments from j = 0; no
    # quadrature rule is left to solve
    for b, k_max in ((15.000000000000002, 300), (20.0, 40), (50.0250125062538, 17945)):
        want = np.cumsum(specfn.expn_scaled(np.arange(1, k_max + 2), b))
        np.testing.assert_array_equal(specfn.log_gamma_mean_table(k_max, b), want)


def _log_gamma_mean_scalar(k_max, b):
    # one increment at a time on Python floats: V_0 = e^b E1(b), then
    # V_j = (1 - b V_{j-1}) / j below _RECURRENCE_HEAD and the continued
    # fraction of order j + 1 from there, summed as they come
    table, total = [], 0.0
    for j in range(k_max + 1):
        if j == 0:
            v = math.exp(b) * specfn.exp1(b)
        elif j < specfn._RECURRENCE_HEAD:
            v = (1.0 - b * v) / j
        else:
            v = float(specfn.expn_scaled([j + 1], b)[0])
        total += v
        table.append(total)
    return np.array(table)


@pytest.mark.parametrize("b", (0.05, 0.5, 5.0, 14.9))
@pytest.mark.parametrize("k_max", (0, 1, 255, 256, 300))
def test_log_gamma_mean_small_b_bit_identical_to_scalar_reference(b, k_max):
    np.testing.assert_array_equal(
        specfn.log_gamma_mean_table(k_max, b), _log_gamma_mean_scalar(k_max, b)
    )


@pytest.mark.parametrize("b", SMALL_ARGS + (15.000000000000002, 15.5, 50.0250125062538, 400.0))
def test_log_gamma_mean_prefix_does_not_depend_on_k_max(b):
    # for b <= 15 the recurrence hands over to the fraction at j = 256; a
    # table that ends on either side of it is the prefix of a longer one
    full = specfn.log_gamma_mean_table(18000, b)
    for k_max in (255, 256, 257):
        np.testing.assert_array_equal(specfn.log_gamma_mean_table(k_max, b), full[: k_max + 1])


# ---------------------------------------------------------------------------
# series control
# ---------------------------------------------------------------------------

def test_series_control_validation():
    with pytest.raises(ValueError):
        specfn.SeriesControl(abs_tol=0.0)
    with pytest.raises(ValueError):
        specfn.SeriesControl(k_max=0)
    ctrl = specfn.SeriesControl()
    assert ctrl.abs_tol == 1e-12 and ctrl.k_max == 65536


def test_poisson_window_raises_past_cap():
    with pytest.raises(specfn.SeriesError):
        specfn.poisson_weight_window(5000.0, 1e-12, k_cap=512)


# Pr[Poisson(200000.5) = k] from mpmath 1.3.0 at 40 digits, rounded to 25:
# the window's two ends, the mode and two points between
POISSON_PMF_25 = {
    196685: "8.965046336595196664455854e-16",
    198765: "0.00001954283762620408698810729",
    200000: "0.0008920611288464882644173524",
    201234: "0.0000199745622413391626568017",
    203333: "9.027122620679629945249604e-16",
}


def test_poisson_window_keeps_its_relative_digits_at_large_k():
    # k ln(lam) - lam - ln k! loses eps ln k! (6e-10 relative here); the
    # saddle-point form keeps about eps |k - lam|
    k_lo, w = specfn.poisson_weight_window(200000.5, 1e-12, 1 << 20)
    assert (k_lo, k_lo + len(w) - 1) == (196685, 203333)
    for k, want in POISSON_PMF_25.items():
        assert w[k - k_lo] == pytest.approx(float(want), rel=1e-12, abs=0.0), k
