"""Parameter derivation and the joint (old, current) sampling model."""

import copy
import dataclasses
import itertools
import math
import pickle
import re

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
    assert fp.sigma2_u == 0.0
    assert fp.sigma2_e == 0.0
    assert fp.sigma2_hat == 1.0
    for conv in ("paper", "derived"):
        assert ch.derive_link_params(fp, 25.0, conv).lam == 1.0


def test_convention_values_and_ratio():
    # sigma_e^2 = 0.1 normalization: rho_e = 0.9, sigma2_h = 0.9, sigma2_hat = 1
    fp = ch.FadingParams(sigma2_h=0.9, rho_e=0.9, rho_f=0.9)
    paper = ch.derive_link_params(fp, 10.0, "paper")
    derived = ch.derive_link_params(fp, 10.0, "derived")
    assert fp.sigma2_u == pytest.approx(0.09, rel=1e-14)
    assert fp.sigma2_e == pytest.approx(0.1, rel=1e-14)
    assert paper.lam == pytest.approx((1.0 + 10.0 * 0.09) / 0.9, rel=1e-14)
    assert derived.lam == pytest.approx((1.0 + 10.0 * 0.09) / (0.81 * 1.0), rel=1e-14)
    # nominal rate over self-consistent rate = rho_e * sigma2_hat
    assert paper.lam / derived.lam == pytest.approx(fp.rho_e * fp.sigma2_hat, rel=1e-12)


def test_link_invariants():
    fp = ch.FadingParams(sigma2_h=0.8, rho_e=0.8, rho_f=0.6)
    lp = ch.derive_link_params(fp, 4.0, "derived")
    assert fp.sigma2_u == pytest.approx((1.0 - 0.8) * 0.8, rel=1e-14)
    assert fp.sigma2_e == pytest.approx((1.0 - 0.8) * 1.0, rel=1e-14)
    assert 2.0 * lp.theta * lp.lam == pytest.approx(1.0 - 0.36, rel=1e-12)
    assert lp.c == pytest.approx(2.0 * 0.36 * lp.lam / (1.0 - 0.36), rel=1e-12)
    assert lp.q == pytest.approx(lp.lam / (1.0 - 0.36), rel=1e-12)


def test_link_params_hold_only_power_dependent_constants():
    # the variances depend on the link alone and stay on FadingParams
    assert [f.name for f in dataclasses.fields(ch.LinkParams)] == ["lam", "c", "theta", "rho_f"]


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
    assert fp2.sigma2_u == pytest.approx(2.0 * fp1.sigma2_u, rel=1e-12)
    assert fp2.sigma2_e == pytest.approx(2.0 * fp1.sigma2_e, rel=1e-12)
    assert fp2.sigma2_hat == pytest.approx(2.0 * fp1.sigma2_hat, rel=1e-12)
    # determinism
    lp1 = ch.derive_link_params(fp1, power)
    assert ch.derive_link_params(fp1, power) == lp1


def _link_constants_reference(fp, power, convention):
    """(lam, c, theta) by the per-call formula, from the fields alone.  A
    zero lam (sigma2_hat overflows) gives theta = inf, which is out of range."""
    if power <= 0.0:
        raise ValueError("power must be > 0")
    if convention not in ch.CONVENTIONS:
        raise ValueError(f"unknown lambda convention {convention!r}")
    scale = fp.rho_e if convention == "paper" else fp.rho_e**2 * fp.sigma2_hat
    lam = (1.0 + power * fp.sigma2_u) / scale if scale > 0.0 else math.inf
    if fp.rho_f == 1.0:
        c, theta = math.inf, 0.0
    else:
        one_minus = 1.0 - fp.rho_f**2
        c = 2.0 * fp.rho_f**2 * lam / one_minus
        theta = one_minus / (2.0 * lam) if lam > 0.0 else math.inf
    if not (0.0 < lam < math.inf) or (fp.rho_f < 1.0 and not (c < math.inf and theta > 0.0)):
        raise ValueError(
            f"link {fp} at power {power:.6g} has constants out of floating-point "
            f"range: lam = {lam:.6g}, c = {c:.6g}, theta = {theta:.6g}"
        )
    return lam, c, theta


def _hex_or_error(call):
    try:
        return tuple(float(v).hex() for v in call())
    except ValueError as e:
        return str(e)


# rho_e**2 underflows to 0 below about 1.5e-162, and sigma2_h / rho_e
# overflows at the largest sigma2_h
_DERIVATION_GRID_POWERS = [-1.0, 0.0, 1e-300, 1e-150, 1e-10, 1.0, 10.0, 1e10, 1e150, 1e300]
_DERIVATION_GRID = list(itertools.product(
    (0.0, 1e-160, 0.5, 0.999999, 1.0),
    (1.0, 0.97, 1e-150, 1e-161, 1.5e-162, 1e-162, 1e-170, 5e-324),
    (1e-300, 1.0, 1e300),
    _DERIVATION_GRID_POWERS,
    ("derived", "paper", "nominal"),
))


def test_link_constants_match_the_per_call_formula_bit_for_bit():
    # the power-independent parts kept on FadingParams give the per-call
    # formula's constants and errors, whole or in range
    errors = []
    for rho_f, rho_e, sigma2_h, power, convention in _DERIVATION_GRID:
        fp = ch.FadingParams(sigma2_h=sigma2_h, rho_e=rho_e, rho_f=rho_f)
        want = _hex_or_error(lambda: _link_constants_reference(fp, power, convention))
        got = _hex_or_error(lambda: ch._link_constants(fp, power, convention))
        assert got == want, (fp, power, convention)
        link = _hex_or_error(lambda: dataclasses.astuple(ch.derive_link_params(fp, power, convention)))
        assert link == (want if isinstance(want, str) else want + (float(rho_f).hex(),)), (fp, power)
        if isinstance(want, str):
            errors.append(want)
    # every branch is taken: values in range, the three errors, and a zero lam
    assert len(errors) < len(_DERIVATION_GRID)
    for text in ("power must be > 0", "unknown lambda convention", "out of floating-point range",
                 "lam = 0, c = 0, theta = inf"):
        assert any(text in e for e in errors), text


def test_link_params_over_an_array_of_powers_equal_the_float_ones():
    # one derivation over an array of powers gives each power the float
    # call's constants bit for bit; where some power's float call raises,
    # the array call raises one of those errors, with its text
    powers = _DERIVATION_GRID_POWERS
    windows = [powers[i : i + 3] for i in range(len(powers) - 2)] + [powers, powers[::-1]]
    compared = raised = 0
    for rho_f, rho_e, sigma2_h, convention in itertools.product(
        (0.0, 1e-160, 0.5, 0.999999, 1.0), (1.0, 0.97, 1e-150, 1.5e-162, 1e-170, 5e-324),
        (1e-300, 1.0, 1e300), ("derived", "paper", "nominal"),
    ):
        fp = ch.FadingParams(sigma2_h=sigma2_h, rho_e=rho_e, rho_f=rho_f)
        for window in windows:
            want = [_hex_or_error(lambda: dataclasses.astuple(ch.derive_link_params(fp, p, convention)))
                    for p in window]
            errors = [w for w in want if isinstance(w, str)]
            try:
                link = ch.derive_link_params(fp, np.array(window), convention)
            except ValueError as e:
                assert str(e) in errors, (fp, window, convention)
                raised += 1
                continue
            assert not errors, (fp, window, convention)
            got = [tuple(float(v).hex() for v in dataclasses.astuple(lp)) for lp in link.per_power()]
            assert got == want, (fp, window, convention)
            compared += 1
    assert compared and raised


def test_fading_params_parts_survive_replace_copy_and_pickle():
    # the precomputed parts are not a field: they stay out of ==, hash and
    # repr, and every way of making a FadingParams carries a fresh one's
    fp = ch.FadingParams(sigma2_h=0.8, rho_e=0.97, rho_f=0.9)
    assert [f.name for f in dataclasses.fields(fp)] == ["sigma2_h", "rho_e", "rho_f"]
    assert "_constants" not in repr(fp)
    made = [
        (dataclasses.replace(fp, rho_f=0.5), ch.FadingParams(0.8, 0.97, 0.5)),
        (dataclasses.replace(fp, sigma2_h=2.0, rho_e=0.5), ch.FadingParams(2.0, 0.5, 0.9)),
        (copy.deepcopy(fp), fp),
        (copy.copy(fp), fp),
        (pickle.loads(pickle.dumps(fp)), fp),
    ]
    for got, fresh in made:
        assert got == fresh and hash(got) == hash(fresh) and repr(got) == repr(fresh)
        assert got._constants == ch.FadingParams(fresh.sigma2_h, fresh.rho_e, fresh.rho_f)._constants
        for convention in ch.CONVENTIONS:
            assert ch.derive_link_params(got, 10.0, convention) == ch.derive_link_params(
                fresh, 10.0, convention)


@pytest.mark.parametrize("rho_f", [0.0, 0.9, 1.0])
def test_derived_link_params_behave_like_constructed_ones(rho_f):
    # derive_link_params sets the fields without the frozen __init__
    lp = ch.derive_link_params(ch.FadingParams(0.8, 0.97, rho_f), 10.0)
    built = ch.LinkParams(lp.lam, lp.c, lp.theta, lp.rho_f)
    assert type(lp) is ch.LinkParams
    assert lp == built and hash(lp) == hash(built) and repr(lp) == repr(built)
    assert list(vars(lp).items()) == list(vars(built).items())
    assert (lp.degenerate, lp.q) == (built.degenerate, built.q)
    assert copy.deepcopy(lp) == pickle.loads(pickle.dumps(lp)) == built
    with pytest.raises(dataclasses.FrozenInstanceError):
        lp.lam = 1.0


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


def _count_derivations(monkeypatch) -> list:
    """Record the FadingParams of every derive_link_params call."""
    calls = []
    original = ch.derive_link_params

    def counting(fp, power, convention="derived"):
        calls.append(fp)
        return original(fp, power, convention)

    monkeypatch.setattr(ch, "derive_link_params", counting)
    return calls


@pytest.mark.parametrize("which", ["source", "relay"])
def test_link_params_derived_once_per_distinct_link_object(monkeypatch, which):
    a = ch.FadingParams(1.0, 0.95, 0.9)
    b = ch.FadingParams(1.1, 0.95, 0.8)
    a_twin = ch.FadingParams(1.0, 0.95, 0.9)  # equal to a, another object
    links = (a, b, a, a_twin, b)
    cfg = ch.SystemConfig(M=5, power=10.0, source_links=links, relay_links=links[::-1])
    want = [ch.derive_link_params(fp, cfg.power) for fp in getattr(cfg, f"{which}_links")]
    calls = _count_derivations(monkeypatch)
    got = getattr(cfg, f"{which}_params")()
    assert sorted(map(id, calls)) == sorted(map(id, (a, b, a_twin)))
    assert got == want  # M entries, in link order


def test_symmetric_config_derives_one_link_per_list(monkeypatch):
    cfg = ch.SystemConfig.symmetric(M=6, power=10.0, rho_e=0.95, rho_f=0.9)
    calls = _count_derivations(monkeypatch)
    src, rel = cfg.source_params(), cfg.relay_params()
    assert len(calls) == 2
    assert src == [ch.derive_link_params(cfg.source_links[0], cfg.power)] * 6
    assert rel == [ch.derive_link_params(cfg.relay_links[0], cfg.power)] * 6


def test_symmetry_flag_stays_out_of_equality_hash_and_replace():
    fp = ch.FadingParams(1.0, 1.0, 0.9)
    twin = ch.FadingParams(1.0, 1.0, 0.9)
    other = ch.FadingParams(1.2, 1.0, 0.9)
    sym = ch.SystemConfig(M=2, power=10.0, source_links=(fp, fp), relay_links=(fp, fp))
    asym = dataclasses.replace(sym, relay_links=(fp, other))
    assert sym.is_symmetric() and not asym.is_symmetric()
    assert [f.name for f in dataclasses.fields(sym)] == [
        "M", "power", "rate", "alpha", "beta", "source_links", "relay_links", "lambda_convention"
    ]
    assert "_symmetric" not in repr(sym)
    # equal links held by distinct objects: symmetric, and equal to sym
    same = ch.SystemConfig(M=2, power=10.0, source_links=(fp, twin), relay_links=(twin, fp))
    assert same.is_symmetric() and same == sym and hash(same) == hash(sym)
    # replace and with_power rerun the check on the new fields
    back = dataclasses.replace(asym, relay_links=(fp, fp))
    assert back.is_symmetric() and back == sym and hash(back) == hash(sym)
    assert not dataclasses.replace(sym, source_links=(other, fp)).is_symmetric()
    assert sym.with_power(20.0).is_symmetric() and not asym.with_power(20.0).is_symmetric()
    assert sym.with_power(20.0) == dataclasses.replace(sym, power=20.0) != sym
    assert sym.with_power(10.0) == sym and hash(sym.with_power(10.0)) == hash(sym)
    # links given as lists are compared by value too
    assert ch.SystemConfig(M=2, power=10.0, source_links=[fp, twin], relay_links=[fp, fp]).is_symmetric()


def _with_power_bases() -> list:
    fp = ch.FadingParams(1.0, 0.97, 0.9)
    twin = ch.FadingParams(1.0, 0.97, 0.9)
    other = ch.FadingParams(1.2, 0.9, 1.0)
    return [
        ch.SystemConfig.symmetric(M=3, power=10.0, rho_e=0.9, rho_f=0.9),
        ch.SystemConfig(M=2, power=10.0, source_links=(fp, twin), relay_links=(twin, fp)),
        ch.SystemConfig(M=3, power=10.0, source_links=(fp, other, fp), relay_links=(other, fp, twin),
                        lambda_convention="paper"),
        ch.SystemConfig.symmetric(M=3, power=10.0, rho_e=0.5, rho_f=0.9, sigma2_h=10.0, beta=1e-3),
    ]


@pytest.mark.parametrize("power", [1e-3, 1.0, 10.0, 123.456, 1e6])
def test_with_power_equals_replace(power):
    for cfg in _with_power_bases():
        got, want = cfg.with_power(power), dataclasses.replace(cfg, power=power)
        assert got == want and hash(got) == hash(want)
        assert got.is_symmetric() == want.is_symmetric() == cfg.is_symmetric()
        assert got.power == power and cfg.power == 10.0
        assert got.relay_params() == want.relay_params()


@pytest.mark.parametrize("power, reason", [
    (0.0, "power must be finite and > 0"),
    (-1.0, "power must be finite and > 0"),
    (math.nan, "power must be finite and > 0"),
    (math.inf, "power must be finite and > 0"),
    (1e-320, "no finite outage threshold"),
    (1e308, "beta \\* power"),
])
def test_with_power_raises_what_replace_raises(power, reason):
    # the last base keeps beta P finite at 1e308, where its link rate
    # overflows instead.  A numpy scalar power gets the float's error, not
    # numpy's overflow warning, from both
    for cfg in _with_power_bases():
        with pytest.raises(ValueError) as want:
            dataclasses.replace(cfg, power=power)
        with pytest.raises(ValueError) as got:
            cfg.with_power(power)
        assert str(got.value) == str(want.value)
        for build in (dataclasses.replace, ch.SystemConfig.with_power):
            with pytest.raises(ValueError) as got:
                build(cfg, power=np.float64(power))
            assert str(got.value) == str(want.value)
        if cfg.beta == 2.0:
            assert re.search(reason, str(got.value))
        elif power == 1e308:
            assert "out of floating-point range" in str(got.value)


@pytest.mark.parametrize("db", [-300.0, 0, 10.0, 33.3, 3000.0])
def test_db_to_linear_matches_the_power_formula(db):
    # a numpy scalar gives the float's power, bit for bit
    for point in (db, np.float64(db)):
        assert ch.db_to_linear(point) == 10.0 ** (db / 10.0)


@pytest.mark.parametrize("db", [4000.0, -4000.0, math.inf, -math.inf, math.nan])
def test_db_to_linear_rejects_levels_without_a_linear_power(db):
    # 10^400 overflows a float and 10^-400 underflows to 0; numpy's power of a
    # numpy scalar would only warn on the overflow
    for point in (db, np.float64(db)):
        with pytest.raises(ValueError) as err:
            ch.db_to_linear(point)
        assert str(err.value) == f"{db!r} dB has no finite positive linear power"


def _passes(cfg: ch.SystemConfig, power: float) -> bool:
    try:
        cfg.with_power(power)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("index", range(4))
def test_power_range_checks_pass_on_an_interval(index):
    # at_powers checks only the smallest and largest power, so the powers
    # that pass must be one interval, also at the float neighbours of each
    # end of it
    cfg = _with_power_bases()[index]
    grid = np.geomspace(5e-324, 1.7e308, 4001).tolist()
    ok = [_passes(cfg, p) for p in grid]
    ends = [i for i in range(1, len(ok)) if ok[i] != ok[i - 1]]
    assert len(ends) == 2 and ok[ends[0]], ends
    for i in ends:
        lo, hi = grid[i - 1], grid[i]
        while math.nextafter(lo, math.inf) < hi:  # bisect to adjacent floats
            mid = math.sqrt(lo) * math.sqrt(hi)
            mid = mid if lo < mid < hi else math.nextafter(lo, math.inf)
            if _passes(cfg, mid) == ok[i - 1]:
                lo = mid
            else:
                hi = mid
        near = [lo, hi]
        for _ in range(64):
            near = [math.nextafter(near[0], 0.0)] + near + [math.nextafter(near[-1], math.inf)]
        flags = [_passes(cfg, p) for p in near]
        assert flags == [ok[i - 1]] * 65 + [ok[i]] * 65


def test_at_powers_equals_with_power():
    powers = [100.0, 1e-3, 10.0, 1e-3, 123.456, 1e6]
    for cfg in _with_power_bases():
        got = cfg.at_powers(powers)
        assert len(got) == len(powers)
        for point, power in zip(got, powers):
            want = cfg.with_power(power)
            assert point == want and hash(point) == hash(want)
            assert point.is_symmetric() == want.is_symmetric() == cfg.is_symmetric()
            assert point.relay_params() == want.relay_params()
        assert cfg.at_powers([]) == [] and cfg.power == 10.0


def test_at_powers_checks_an_interval_once(monkeypatch):
    # a config keeps the last interval whose ends passed, and so do its
    # copies at other powers: a grid inside it is not checked again, one
    # reaching outside is, and replace starts afresh
    checked = []
    original = ch.SystemConfig._check_power_range

    def counting(self):
        checked.append(self.power)
        return original(self)

    monkeypatch.setattr(ch.SystemConfig, "_check_power_range", counting)
    cfg = ch.SystemConfig.symmetric(M=3, power=1.0, rho_f=0.9)
    checked.clear()
    cfg.at_powers([10.0, 1.0, 100.0])
    assert checked == [1.0, 100.0]
    points = cfg.at_powers([2.0, 50.0])
    points[0].at_powers([1.0, 100.0])
    assert checked == [1.0, 100.0]
    cfg.at_powers([0.5, 10.0])
    assert checked == [1.0, 100.0, 0.5, 10.0]
    with pytest.raises(ch.PowerRangeError) as err:
        cfg.at_powers([2.0, math.nan])
    assert err.value.index == 1
    other = dataclasses.replace(cfg, rate=2.0)
    other.at_powers([2.0])
    assert checked[-3:] == [1.0, 2.0, 2.0]  # replace's own check, then both ends
    assert other == dataclasses.replace(cfg, rate=2.0) and hash(other) == hash(dataclasses.replace(cfg, rate=2.0))


@pytest.mark.parametrize("powers, index", [
    ([10.0, 1e-320, 1e308], 1),  # the smallest power fails before the largest
    ([10.0, 1e308, 100.0], 1),
    ([1e-320, 10.0, math.nan], 2),  # a power not finite and > 0 fails first
    ([10.0, 0.0, 1e-320], 1),
    ([math.inf], 0),
])
def test_at_powers_raises_what_with_power_raises(powers, index):
    # numpy scalar powers raise what the floats raise
    for cfg in _with_power_bases():
        with pytest.raises(ValueError) as want:
            cfg.with_power(powers[index])
        for points in (powers, [np.float64(p) for p in powers]):
            with pytest.raises(ch.PowerRangeError) as got:
                cfg.at_powers(points)
            assert got.value.index == index and str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# sampling model
# ---------------------------------------------------------------------------

def _current(rng, g, rho_f, theta):
    """Current SNRs drawn from a copy of the old SNRs g."""
    g = np.array(g, dtype=float)
    x, y = np.empty_like(g), np.empty_like(g)
    ch.draw_current_noise(rng, x, y)
    return ch.current_snr_into(g, rho_f, theta, x, y, np.empty_like(g))


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


def test_shared_rate_gives_the_per_link_bits():
    # identical links divide by one scalar rate; the per-link column divide
    # by the same rate rounds every entry the same way
    cfg = ch.SystemConfig.symmetric(M=4, power=5.0, rho_e=0.9, rho_f=0.9)
    lam = cfg.relay_params()[0].lam
    assert ch.per_link(lp.lam for lp in cfg.relay_params()) == lam
    n = 3000
    scalar = ch.sample_gamma_batch(cfg, np.random.default_rng(126), n, rates=(lam, lam))
    arrays = ch.sample_gamma_batch(cfg, np.random.default_rng(126), n, rates=(np.full(4, lam),) * 2)
    for key in scalar:
        assert scalar[key].tobytes() == arrays[key].tobytes()
    assert ch.per_link([1.0, 2.0, 1.0]).tolist() == [1.0, 2.0, 1.0]


def test_current_kernel_reads_its_noise_only():
    rng = np.random.default_rng(127)
    g = rng.standard_exponential(500)
    x, y = np.empty(500), np.empty(500)
    ch.draw_current_noise(rng, x, y)
    noise = x.copy(), y.copy()
    theta = np.full(500, 0.3)
    cur = ch.current_snr_into(g.copy(), 0.8, theta, x, y, np.empty(500))
    np.testing.assert_array_equal(cur, (0.8 * np.sqrt(g) + np.sqrt(0.3) * x) ** 2 + 0.3 * y**2)
    assert x.tobytes() == noise[0].tobytes() and y.tobytes() == noise[1].tobytes()
    assert theta.tobytes() == np.full(500, 0.3).tobytes()


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
