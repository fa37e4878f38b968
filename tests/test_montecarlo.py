"""Simulator contracts: determinism, estimator statistics, cross-checks."""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from relaysel import analytic as an
from relaysel import montecarlo as mc

from conftest import CTRL, mixed_asym_config, sym_config


def test_outage_zero_threshold_never_in_outage():
    cfg = sym_config(M=2, power=10.0, rho_f=0.9, rate=1e-12)
    est = mc.simulate_outage(cfg, 20_000, 1)
    assert est.mean == 0.0


def test_outage_single_relay_matches_hand_composition():
    cfg = sym_config(M=1, power=10.0, rho_f=1.0)
    ro = cfg.r_o
    expect = (1.0 - math.exp(-ro)) + math.exp(-ro) * (1.0 - math.exp(-ro))
    est = mc.simulate_outage(cfg, 1_000_000, 2)
    assert abs(est.mean - expect) < 3.0 * est.std_error


def test_outage_matches_analytic_m4():
    cfg = sym_config(M=4, power=10.0, rho_e=1.0, rho_f=0.9)
    est = mc.simulate_outage(cfg, 400_000, 3)
    value = an.outage_total(cfg, CTRL).value
    assert abs(value - est.mean) < 3.0 * est.std_error


def test_determinism_bit_for_bit():
    cfg = sym_config(M=3, power=10.0, rho_e=0.95, rho_f=0.8)
    # span several chunks to exercise the chunked accumulation
    trials = mc.CHUNK_SIZE * 2 + 12345
    for sim in (mc.simulate_outage, mc.simulate_ser, mc.simulate_capacity):
        a = sim(cfg, trials, 99)
        b = sim(cfg, trials, 99)
        assert a.mean == b.mean and a.std_error == b.std_error
    c = mc.simulate_outage(cfg, trials, 100)
    assert c.mean != mc.simulate_outage(cfg, trials, 99).mean


def test_std_error_scales_with_sqrt_trials():
    cfg = sym_config(M=2, power=10.0, rho_f=0.9)
    small = mc.simulate_ser(cfg, 100_000, 5)
    large = mc.simulate_ser(cfg, 200_000, 6)
    ratio = small.std_error / large.std_error
    assert ratio == pytest.approx(math.sqrt(2.0), rel=0.10)


def test_ser_vanishes_at_high_power():
    cfg = sym_config(M=2, power=10.0**5, rho_f=1.0)
    est = mc.simulate_ser(cfg, 50_000, 7)
    assert est.mean < 1e-4


def test_ser_low_power_sanity_bound():
    # P -> 0: every error probability tends to 1/2, so the mean is >= 1/4
    cfg = sym_config(M=2, power=1e-6, rho_f=0.9)
    est = mc.simulate_ser(cfg, 50_000, 8)
    assert est.mean > 0.25


def test_ser_matches_analytic():
    cfg = sym_config(M=3, power=10.0**1.5, rho_e=1.0, rho_f=1.0)
    est = mc.simulate_ser(cfg, 400_000, 9)
    value = an.aser_total(cfg, CTRL).value
    assert abs(value - est.mean) < 3.0 * est.std_error


def test_conditional_and_bernoulli_estimators_agree():
    for seed, (m, p, rf) in enumerate([(2, 10.0, 0.9), (3, 31.6, 1.0), (1, 3.16, 0.7)]):
        cfg = sym_config(M=m, power=p, rho_f=rf)
        cond = mc.simulate_ser(cfg, 300_000, 200 + seed, estimator="conditional")
        bern = mc.simulate_ser(cfg, 300_000, 300 + seed, estimator="bernoulli")
        combined = math.hypot(cond.std_error, bern.std_error)
        assert abs(cond.mean - bern.mean) < 3.0 * combined
        assert bern.std_error > cond.std_error  # the whole point of conditioning


# analytic value and simulator per metric, for the cross-checks below
_ORACLES = {
    "outage": (an.outage_total, mc.simulate_outage),
    "aser": (an.aser_total, mc.simulate_ser),
    "capacity": (an.capacity_lb_avg, mc.simulate_capacity),
}


@pytest.mark.parametrize("metric", sorted(_ORACLES))
@pytest.mark.parametrize("M", [2, 3, 5])
def test_matches_analytic_on_mixed_asymmetric_links(M, metric):
    # asymmetric links, rho_e < 1 everywhere, rho_f = 1 and rho_f < 1 relay
    # links side by side: the configs acceptance criterion 2 does not cover
    cfg = mixed_asym_config(M)
    seed = 500 + 10 * M + sorted(_ORACLES).index(metric)
    value_fn, sim = _ORACLES[metric]
    est = sim(cfg, 400_000, seed)
    z = abs(value_fn(cfg, CTRL).value - est.mean) / est.std_error
    assert z < 4.0


def test_capacity_zero_power_limit():
    cfg = sym_config(M=2, power=1e-9, rho_f=0.9)
    est = mc.simulate_capacity(cfg, 50_000, 10)
    assert est.mean < 1e-6


def test_capacity_matches_analytic():
    cfg = sym_config(M=2, power=10.0, rho_e=0.97, rho_f=0.85)
    est = mc.simulate_capacity(cfg, 400_000, 11)
    value = an.capacity_lb_avg(cfg, CTRL).value
    assert abs(value - est.mean) < 3.0 * est.std_error


def test_capacity_fresh_feedback_dominates_paired_seed():
    fresh = sym_config(M=3, power=10.0, rho_f=1.0)
    stale = sym_config(M=3, power=10.0, rho_f=0.6)
    c_fresh = mc.simulate_capacity(fresh, 200_000, 12)
    c_stale = mc.simulate_capacity(stale, 200_000, 12)
    assert c_fresh.mean >= c_stale.mean


def test_estimates_carry_metadata():
    cfg = sym_config(M=1, power=5.0)
    est = mc.simulate_outage(cfg, 1000, 13)
    assert est.trials == 1000 and est.seed == 13 and est.std_error >= 0.0


def test_trials_validation():
    cfg = sym_config(M=1, power=5.0)
    with pytest.raises(ValueError):
        mc.simulate_outage(cfg, 0, 1)
    with pytest.raises(ValueError):
        mc.simulate_ser(cfg, 10, 1, estimator="bogus")
    # bool is not a count or a seed; floats and negatives are rejected up
    # front rather than deep inside numpy
    for trials, seed in [(True, 1), (1e5, 1), (-3, 1), (10, 1.5), (10, True), (10, -1)]:
        for sim in (mc.simulate_outage, mc.simulate_ser, mc.simulate_capacity):
            with pytest.raises(ValueError):
                sim(cfg, trials, seed)


def test_numpy_integer_trials_and_seed_accepted():
    cfg = sym_config(M=2, power=5.0)
    a = mc.simulate_outage(cfg, np.int64(1000), np.uint32(4))
    b = mc.simulate_outage(cfg, 1000, 4)
    assert a == b and type(a.trials) is int and type(a.seed) is int


@pytest.mark.parametrize("sim, kwargs", [
    (mc.simulate_outage, {}),
    (mc.simulate_ser, {}),
    (mc.simulate_ser, {"estimator": "bernoulli"}),
    (mc.simulate_capacity, {}),
], ids=["outage", "ser", "ser-bernoulli", "capacity"])
def test_result_independent_of_worker_count(monkeypatch, sim, kwargs):
    # a partial last chunk, and more chunks than workers on either side;
    # several seeds, since a reduction order that follows the worker count
    # leaves the bits unchanged for some partial sums
    cfg = mixed_asym_config(3)
    trials = 5 * mc.CHUNK_SIZE + 777
    for seed in range(41, 45):
        results = []
        for workers in (1, 3):
            monkeypatch.setattr(mc, "_WORKERS", workers)
            results.append(sim(cfg, trials, seed, **kwargs))
        assert results[0] == results[1]


def test_sampler_called_one_thread_at_a_time(monkeypatch):
    # a wrapper around the sampler name (as a tracer installs) that would
    # lose counts or see overlapping calls if the sampler ran concurrently
    real = mc.sample_gamma_batch
    seen = {"active": 0, "overlaps": 0, "calls": 0, "trials": 0}

    def wrapper(config, rng, n, **kwargs):
        seen["active"] += 1
        seen["overlaps"] += seen["active"] > 1
        try:
            return real(config, rng, n, **kwargs)
        finally:
            calls, trials = seen["calls"], seen["trials"]
            time.sleep(0)  # invite a thread switch inside the read-modify-write
            seen["calls"], seen["trials"] = calls + 1, trials + n
            seen["active"] -= 1

    monkeypatch.setattr(mc, "sample_gamma_batch", wrapper)
    monkeypatch.setattr(mc, "_WORKERS", 8)  # more workers than cores
    trials = 12 * mc.CHUNK_SIZE + 5
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        mc.simulate_ser(mixed_asym_config(3), trials, 17)
    finally:
        sys.setswitchinterval(interval)
    assert seen == {"active": 0, "overlaps": 0, "calls": 13, "trials": trials}


def test_import_cli_loads_no_scipy():
    code = "import sys, relaysel.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert cp.stdout.strip() == "[]"
