"""Simulator contracts: determinism, estimator statistics, cross-checks."""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from scipy.special import erfc

from relaysel import analytic as an
from relaysel import montecarlo as mc
from relaysel.channel import SystemConfig

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


_GOLDEN_CONFIGS = {
    "sym-rho_f-0.9": lambda: sym_config(M=3, power=10.0, rho_e=0.95, rho_f=0.9),
    "sym-rho_f-1": lambda: sym_config(M=3, power=10.0, rho_f=1.0),
    "mixed-asym-3": lambda: mixed_asym_config(3),
}

# float.hex of (mean, std_error) at seed 2026, recorded with the simulator
# that allocated fresh arrays for every chunk; the in-place chunk kernel
# must reproduce every bit
_GOLDEN = {
    ("sym-rho_f-0.9", "outage"): ("0x1.2806587e45d41p-2", "0x1.798b293553092p-10"),
    ("sym-rho_f-0.9", "ser"): ("0x1.3172b5b15087fp-7", "0x1.e25491e995f14p-14"),
    ("sym-rho_f-0.9", "ser-bernoulli"): ("0x1.343afb522278fp-7", "0x1.418ff846afcb2p-12"),
    ("sym-rho_f-0.9", "capacity"): ("0x1.51757734d15aap+0", "0x1.0ce25cfbf286bp-9"),
    ("sym-rho_f-1", "outage"): ("0x1.7811b6d2bc41cp-4", "0x1.e0f7c82a3a0aap-11"),
    ("sym-rho_f-1", "ser"): ("0x1.9d4f566735682p-11", "0x1.7b4a1811c6561p-16"),
    ("sym-rho_f-1", "ser-bernoulli"): ("0x1.ac9cbadde306ap-11", "0x1.7cd537c5347cep-14"),
    ("sym-rho_f-1", "capacity"): ("0x1.d014abbf562a6p+0", "0x1.edf48fd906f10p-10"),
    ("mixed-asym-3", "outage"): ("0x1.9914410471035p-2", "0x1.97e771e00e03bp-10"),
    ("mixed-asym-3", "ser"): ("0x1.06158dc743c47p-6", "0x1.4a7c2423bfc87p-13"),
    ("mixed-asym-3", "ser-bernoulli"): ("0x1.f90225a7ce744p-7", "0x1.9a5a1327fc373p-12"),
    ("mixed-asym-3", "capacity"): ("0x1.1d9c41bc90703p+0", "0x1.0c8729b921b33p-9"),
}

_SIMULATORS = {
    "outage": mc.simulate_outage,
    "ser": mc.simulate_ser,
    "ser-bernoulli": lambda cfg, trials, seed: mc.simulate_ser(
        cfg, trials, seed, estimator="bernoulli"
    ),
    "capacity": mc.simulate_capacity,
}


@pytest.mark.parametrize("config, sim", sorted(_GOLDEN), ids=lambda v: v)
def test_estimates_match_recorded_bits(config, sim):
    # several full chunks and a partial last one
    est = _SIMULATORS[sim](_GOLDEN_CONFIGS[config](), 3 * mc.CHUNK_SIZE + 777, 2026)
    assert (est.mean.hex(), est.std_error.hex()) == _GOLDEN[(config, sim)]


def _screen_cases():
    """(gamma, u) pairs per (alpha, beta P): the edge SNRs, and SNRs whose
    Chernoff bound alpha/2 exp(-beta P gamma / 2) lands within an ulp or so
    of u, so that the screen's slack is what decides them."""
    top = np.nextafter(1.0, 0.0)
    for alpha in (0.5, 1.0, 2.0, 4.0):
        for bp in (1e-3, 20.0, 1e6):
            gammas = [0.0, 5e-324, 1e-300, 1e3]
            us = [0.0, top, 0.3, 1e-3, 1e-12]
            for u in us[1:]:
                # the bound equals u at gamma_eq
                gamma_eq = -2.0 / bp * math.log(u / (0.5 * alpha))
                if gamma_eq > 0.0:
                    gammas += list(gamma_eq * (1.0 + np.arange(-40, 41) * 2.0**-52))
            g, u = np.meshgrid(np.array(gammas), np.array(us), indexing="ij")
            yield alpha, bp, g.reshape(-1, 1), u.reshape(-1, 1)


def test_screened_decode_is_the_exact_mask():
    screened = 0
    for alpha, bp, gamma, u in _screen_cases():
        want = u >= np.clip(alpha * (0.5 * erfc(np.sqrt(bp * gamma) / math.sqrt(2.0))), 0.0, 1.0)
        ws = mc._Workspace(1)
        n = len(gamma)
        ws.sm[:n], ws.u[:n] = gamma, u
        got = mc._decode_screened(ws, n, alpha, bp)
        np.testing.assert_array_equal(got, want, err_msg=f"alpha={alpha}, beta P={bp}")
        screened += int(np.count_nonzero(~ws.undecided[:n]))
    assert screened > 0  # the bound decided some entries without erfc


def test_screened_decode_on_random_draws():
    rng = np.random.default_rng(7)
    gamma = rng.standard_exponential((5000, 3)) * np.array([0.01, 1.0, 30.0])
    u = rng.random((5000, 3))
    for alpha, bp in [(1.0, 2.0), (2.0, 20.0), (4.0, 200.0), (0.5, 0.02)]:
        want = u >= np.clip(alpha * (0.5 * erfc(np.sqrt(bp * gamma) / math.sqrt(2.0))), 0.0, 1.0)
        ws = mc._Workspace(3)
        ws.sm[:5000], ws.u[:5000] = gamma, u
        np.testing.assert_array_equal(mc._decode_screened(ws, 5000, alpha, bp), want)


_FAULTS_PER_CHUNK = """
import resource
from relaysel import montecarlo as mc
from relaysel.channel import SystemConfig
mc._WORKERS = 1
cfg = SystemConfig.symmetric(M=4, power=10.0, rho_f=0.9)
chunks = 16
mc.simulate_outage(cfg, chunks * mc.CHUNK_SIZE, 1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
mc.simulate_outage(cfg, chunks * mc.CHUNK_SIZE, 2)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / chunks)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="ru_minflt counts this process on Linux"
)
def test_chunks_do_not_fault_in_fresh_pages():
    # each chunk works in its task's workspace, so the page faults are the
    # workspace's first touch, not per-chunk temporaries that the allocator
    # hands back to the system and faults in again; a fresh interpreter, so
    # that what earlier tests left in the allocator does not hide them
    cp = subprocess.run(
        [sys.executable, "-c", _FAULTS_PER_CHUNK], capture_output=True, text=True, check=True
    )
    assert float(cp.stdout) < 150


def test_select_keeps_the_old_snr_of_rho_f_1_relays():
    M, n = 3, 5000
    md = np.random.default_rng(31).standard_exponential((n, M))
    decoded = np.ones((n, M), bool)
    m_star = md.argmax(axis=1)
    old = md[np.arange(n), m_star]
    ws = mc._Workspace(M)

    # relay 1 is stale, relays 0 and 2 are current (rho_f = 1)
    ws.md[:n] = md
    rho_f, theta = np.array([1.0, 0.8, 1.0]), np.array([0.0, 0.18, 0.0])
    none, cur = mc._select(np.random.default_rng(32), decoded, rho_f, theta, ws)
    assert not none.any()
    kept = m_star != 1
    assert kept.any() and not kept.all()
    assert cur[kept].tobytes() == old[kept].tobytes()
    assert np.all(cur[~kept] != old[~kept])

    # every relay at rho_f = 1: the old SNRs come back and nothing is drawn
    ws.md[:n] = md
    rng = np.random.default_rng(33)
    state = rng.bit_generator.state
    none, cur = mc._select(rng, decoded, np.ones(M), np.zeros(M), ws)
    assert rng.bit_generator.state == state
    assert cur.tobytes() == old.tobytes()
