"""Command-line surface: subcommands, CSV contract, exit codes."""

import csv
import dataclasses
import inspect
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from relaysel import analytic, channel, cli, montecarlo
from relaysel.channel import FadingParams, SystemConfig
from relaysel.diversity import aser_sweep
from relaysel.cli import (
    CSV_COLUMNS,
    ConfigError,
    MetricPoint,
    SweepSpec,
    load_config,
    render_csv,
    run_sweep,
    validate,
)


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "relaysel", *args], capture_output=True, text=True
    )


@pytest.fixture
def config_file(tmp_path: Path) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"M": 4, "rho_e": 1.0, "rho_f": 0.9, "rate": 1.0}))
    return str(path)


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def test_load_config_minimal():
    cfg = load_config({"M": 2})
    assert cfg.M == 2 and cfg.power == 1.0 and cfg.rate == 1.0
    assert cfg.alpha == 1.0 and cfg.beta == 2.0
    assert cfg.lambda_convention == "derived"


def test_load_config_power_forms():
    assert load_config({"M": 1, "power_db": 10.0}).power == pytest.approx(10.0)
    assert load_config({"M": 1, "power_linear": 5.0}).power == 5.0
    with pytest.raises(ConfigError, match="power"):
        load_config({"M": 1, "power_db": 10.0, "power_linear": 5.0})


def test_load_config_sigma2_e_normalization():
    cfg = load_config({"M": 2, "sigma2_e": 0.05})
    fp = cfg.relay_links[0]
    assert fp.rho_e == pytest.approx(0.95)
    assert fp.sigma2_h == pytest.approx(0.95)
    assert fp.sigma2_hat == pytest.approx(1.0)
    with pytest.raises(ConfigError, match="sigma2_e"):
        load_config({"M": 2, "sigma2_e": 0.05, "rho_e": 0.9})


def test_load_config_per_link_overrides():
    cfg = load_config(
        {"M": 2, "rho_f": 0.9, "relay_links": [{"rho_f": 0.8}, {"rho_f": 1.0}]}
    )
    assert cfg.relay_links[0].rho_f == 0.8
    assert cfg.relay_links[1].rho_f == 1.0
    assert cfg.source_links[0].rho_f == 0.9


def test_load_config_field_paths_in_errors():
    with pytest.raises(ConfigError, match=r"relay_links\[1\]"):
        load_config({"M": 2, "relay_links": [{"rho_f": 0.5}, {"rho_f": 2.0}]})
    with pytest.raises(ConfigError, match="unknown field"):
        load_config({"M": 2, "rho_x": 1.0})
    with pytest.raises(ConfigError, match="M"):
        load_config({})


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"M": 2.7}, "M"),
        ({"M": True}, "M"),
        ({"M": "3"}, "M"),
        ({"M": 2, "power_db": "loud"}, "power_db"),
        ({"M": 2, "power_db": None}, "power_db"),
        ({"M": 2, "power_db": 1e4}, "power_db"),
        ({"M": 2, "power_db": float("nan")}, "power_db"),
        ({"M": 2, "power_linear": float("inf")}, "power_linear"),
        ({"M": 2, "power_linear": float("nan")}, "power_linear"),
        ({"M": 2, "rate": float("nan")}, "rate"),
        ({"M": 2, "rate": None}, "rate"),
        ({"M": 2, "alpha": float("-inf")}, "alpha"),
        ({"M": 2, "beta": float("nan")}, "beta"),
        ({"M": 2, "beta": True}, "beta"),
        ({"M": 2, "rho_f": [0.9, "x"]}, r"rho_f\[1\]"),
        ({"M": 2, "sigma2_h": float("inf")}, "sigma2_h"),
        ({"M": 2, "relay_links": [{"rho_f": 0.5}, {"rho_e": float("nan")}]}, r"relay_links\[1\]"),
        ({"M": 2, "relay_links": [{"sigma2_h": "big"}, {}]}, r"relay_links\[0\]"),
    ],
)
def test_load_config_rejects_malformed_values(doc, field):
    with pytest.raises(ConfigError, match=field):
        load_config(doc)


@pytest.mark.parametrize("doc, args, message", [
    ({"M": 2, "rho_f": 0.9, "alpha": 3.0, "beta": 0.2}, ["sweep", "--metric", "aser"],
     "alpha must be <= 2"),
    ({"M": 2, "rate": 600}, ["sweep", "--metric", "outage"], "outage threshold"),
    ({"M": 2, "rate": 600}, ["info"], "outage threshold"),
    ({"M": 2, "rate": 600}, ["validate", "--trials", "10"], "outage threshold"),
    ({"M": 2, "rate": 500}, ["sweep", "--metric", "outage", "--snr-db", "-100:0:50"],
     "outage threshold"),
    ({"M": 2, "beta": 1e308}, ["sweep", "--metric", "aser", "--snr-db", "0:10:10"],
     "beta * power"),
    ({"M": 2, "rho_f": 0.9, "beta": 1e-300, "lambda_convention": "paper"},
     ["sweep", "--metric", "aser", "--snr-db", "-300"], "beta * power"),
    ({"M": 2, "sigma2_h": 1e-320}, ["sweep", "--metric", "outage"], "floating-point range"),
    ({"M": 2, "rho_e": 1e-320}, ["sweep", "--metric", "outage"], "floating-point range"),
    ({"M": 1, "power_db": 100, "rho_e": 1e-10, "sigma2_h": 1e290},
     ["sweep", "--metric", "outage", "--lambda-convention", "paper"], "lambda-convention"),
    # sigma2_hat = sigma2_h / rho_e overflows, so the derived lam is 0
    ({"M": 2, "rho_f": 0.5, "rho_e": 1e-150, "sigma2_h": 1e300}, ["sweep", "--metric", "outage"],
     "lam = 0, c = 0, theta = inf"),
    # the slope is taken of the closed-form ASER only; Monte Carlo would be
    # silently skipped
    ({"M": 2, "rho_f": 0.9}, ["sweep", "--metric", "diversity", "--snr-db", "10:20:10", "--mode", "mc"],
     "mode: a diversity sweep is analytic only"),
    ({"M": 2, "rho_f": 0.9}, ["sweep", "--metric", "diversity", "--snr-db", "10:20:10", "--mode", "both"],
     "mode: a diversity sweep is analytic only"),
], ids=[
    "alpha-3", "rate-600-sweep", "rate-600-info", "rate-600-validate", "rate-500-low-snr",
    "beta-1e308", "beta-power-underflow", "sigma2_h-1e-320", "rho_e-1e-320", "paper-lam-overflow",
    "derived-lam-zero", "diversity-mc", "diversity-both",
])
def test_cli_rejects_configs_it_cannot_evaluate(tmp_path, monkeypatch, doc, args, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    evaluated = []
    monkeypatch.setattr(cli.analytic, "aser_total", lambda *a: evaluated.append(a))
    res = CliRunner().invoke(cli.main, [args[0], "--config", str(path), *args[1:]])
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert evaluated == []  # rejected before any grid point is evaluated


def test_cli_non_numeric_power_exits_2(tmp_path: Path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"M": 2, "power_db": "loud"}))
    res = run_cli("info", "--config", str(path))
    assert res.returncode == 2
    assert "power_db" in res.stderr
    assert "Traceback" not in res.stderr


# ---------------------------------------------------------------------------
# sweeps and CSV contract
# ---------------------------------------------------------------------------

def test_run_sweep_rows_and_monotone_outage():
    cfg = load_config({"M": 4, "rho_e": 1.0, "rho_f": 0.9})
    spec = SweepSpec(
        metric="outage", snr_db=tuple(float(s) for s in range(0, 31, 2)),
        mode="analytic", trials=1, seed=1, config=cfg,
    )
    rows = run_sweep(spec)
    assert len(rows) == 16
    vals = [r.value for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_run_sweep_both_mode_has_z_scores():
    cfg = load_config({"M": 2, "rho_f": 0.9})
    spec = SweepSpec(
        metric="outage", snr_db=(5.0, 10.0), mode="both",
        trials=50_000, seed=3, config=cfg,
    )
    rows = run_sweep(spec)
    for r in rows:
        assert r.value is not None and r.mc_mean is not None
        assert r.z_score is not None and r.z_score < 5.0


def test_z_score_of_a_zero_standard_error():
    # every trial scored the same: only an exact match has z = 0
    est = montecarlo.McEstimate(0.0, 0.0, 20_000, 1)
    assert cli._z_score(0.0, est) == 0.0
    assert cli._z_score(1e-300, est) == math.inf
    assert cli._z_score(0.5, montecarlo.McEstimate(0.25, 0.125, 20_000, 1)) == 2.0


def test_cli_sweep_z_score_of_an_outage_no_trial_can_see(tmp_path):
    # the series gives 1.42e-16 for an outage of 1.64e-18; no trial of
    # 20000 is in outage, an outcome of probability 1 - 2.8e-12 under either
    # value, so the row's z-score is that of a two-sided tail of ~1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"M": 8, "rho_f": 1.0}))
    cp = run_cli(
        "sweep", "--config", str(path), "--metric", "outage", "--snr-db", "30",
        "--mode", "both", "--trials", "20000",
    )
    assert cp.returncode == 0, cp.stderr
    row = cp.stdout.splitlines()[1].split(",")
    assert float(row[3]) > 0.0 and row[4:6] == ["0.0", "0.0"]
    assert 0.0 <= float(row[6]) < 1e-10


def test_z_score_of_an_outage_count_with_no_events():
    # 0 events in 20000 trials has probability (1 - p)^20000: 0.990 at the
    # analytic p = 4.96e-7, e^-20 at a wrong p = 1e-3
    est = montecarlo.McEstimate(0.0, 0.0, 20_000, 1)
    assert cli._z_score(4.96e-7, est, counted=True) == pytest.approx(0.0124, abs=1e-4)
    assert cli._z_score(1e-3, est, counted=True) == pytest.approx(5.99, abs=0.01)
    assert cli._z_score(0.0, est, counted=True) == 0.0
    assert cli._z_score(1.0, est, counted=True) == math.inf
    assert cli._z_score(0.5, est, counted=True) == math.inf  # 2^-20000 underflows
    # all trials in outage: p^n
    full = montecarlo.McEstimate(1.0, 0.0, 20_000, 1)
    assert cli._z_score(1.0 - 4.96e-7, full, counted=True) == pytest.approx(0.0124, abs=1e-4)
    assert cli._z_score(1.0 - 1e-3, full, counted=True) == pytest.approx(5.99, abs=0.01)
    # a value that is no probability, and an estimate that is not counted
    assert cli._z_score(-1e-9, est, counted=True) == math.inf
    assert cli._z_score(4.96e-7, est) == math.inf


def test_validate_scores_a_rare_outage_by_its_probability(monkeypatch):
    # the analytic outage is 4.96e-7 and no trial of 20000 is in outage
    cfg = load_config({"M": 3, "rho_f": 0.999, "power_db": 30})
    ok, report = validate(cfg, 20_000, 1)
    assert "PASS  analytic-vs-mc[outage]: z = 0.01 (tol 4.0)" in report, report
    # a wrong outage of 1e-3 leaves no events a chance of e^-20
    wrong = analytic.MetricResult(1e-3, 0, 1.0)
    monkeypatch.setitem(cli._ANALYTIC, "outage", lambda _cfg: wrong)
    ok, report = validate(cfg, 20_000, 1)
    assert not ok
    assert "FAIL  analytic-vs-mc[outage]: z = 5.99 (tol 4.0)" in report, report


# at -10 dB R_o = 30, so each relay decodes with probability ~e^-30: the
# analytic capacity is 3.4e-14, and no trial of 20000 has a relay to select
WEAK_DECODING = {"M": 3, "rho_f": [0.9, 0.8, 0.9], "sigma2_h": [0.95, 1.05, 1.0], "power_db": -10}


def test_validate_scores_a_capacity_with_no_decoding_trial_by_its_probability():
    ok, report = validate(load_config(WEAK_DECODING), 20_000, 1)
    assert "PASS  analytic-vs-mc[capacity]: z = 0.00 (tol 4.0)" in report, report
    assert ok, report


def test_sweep_scores_a_capacity_with_no_decoding_trial_by_its_probability():
    spec = SweepSpec(
        metric="capacity", snr_db=(-10.0,), mode="both", trials=20_000, seed=1,
        config=load_config({k: v for k, v in WEAK_DECODING.items() if k != "power_db"}),
    )
    (row,) = run_sweep(spec)
    assert 0.0 < row.value < 1e-12 and (row.mc_mean, row.mc_stderr) == (0.0, 0.0)
    assert row.z_score < 1e-3


@pytest.mark.parametrize("snr, rho_e, sigma2_h, beta, message", [
    (-3200.0, 1.0, 1.0, 2.0, "rate 1.0 at power 9.99989e-321 has no finite outage threshold "
                             "(2^(2R) - 1) / P"),
    (3080.0, 1.0, 1.0, 2.0, "beta * power = 2.0 * 1e+308 is not finite and > 0"),
    (3080.0, 0.5, 10.0, 1e-3, "link FadingParams(sigma2_h=10.0, rho_e=0.5, rho_f=0.9) at power "
                              "1e+308 has constants out of floating-point range: lam = inf, "
                              "c = inf, theta = 0"),
])
def test_sweep_spec_power_range_errors(snr, rho_e, sigma2_h, beta, message):
    # a numpy scalar point gets the float's error, not numpy's overflow warning
    cfg = SystemConfig.symmetric(M=3, power=1.0, rho_e=rho_e, rho_f=0.9, sigma2_h=sigma2_h, beta=beta)
    for point in (snr, np.float64(snr)):
        with pytest.raises(ConfigError) as err:
            SweepSpec(metric="outage", snr_db=(10.0, point), mode="analytic", trials=0, seed=0, config=cfg)
        assert str(err.value) == f"snr_db: at {snr!r} dB: {message}"


@pytest.mark.parametrize("snr", [4000.0, math.inf, math.nan])
def test_sweep_spec_rejects_numpy_snr_without_finite_power(snr):
    # the float's ConfigError text, where numpy's power of a numpy scalar
    # warns on overflow
    cfg = SystemConfig.symmetric(M=3, power=1.0, rho_f=0.9)
    for point in (snr, np.float64(snr)):
        with pytest.raises(ConfigError) as err:
            SweepSpec(metric="outage", snr_db=(10.0, point), mode="analytic", trials=0, seed=0, config=cfg)
        assert str(err.value) == f"snr_db: {snr!r} dB has no finite positive linear power"


# a symmetric config, one whose links overflow before beta P does, and an
# asymmetric one with a rho_f = 1 link
_RANGE_CONFIGS = [
    SystemConfig.symmetric(M=3, power=1.0, rho_f=0.9),
    SystemConfig.symmetric(M=3, power=1.0, rho_e=0.5, rho_f=0.9, sigma2_h=10.0, beta=1e-3),
    load_config({"M": 3, "rho_f": [1.0, 0.9, 0.99], "sigma2_h": [0.95, 1.05, 1.0], "rate": 3.0}),
]


@pytest.mark.parametrize("cfg", _RANGE_CONFIGS, ids=["symmetric", "link-overflow", "asymmetric"])
def test_sweep_points_equal_with_power(cfg, monkeypatch):
    # each row's config, from SystemConfig.at_powers over the powers that
    # the sweep's one metric call receives, is the one with_power builds:
    # equal, with the same hash and symmetry flag
    seen = []

    def record(config, *, powers):
        seen.extend(config.at_powers(powers))
        return analytic.MetricCurve(analytic.MetricResult(0.5, 1, 1.0) for _ in powers)

    monkeypatch.setitem(cli._ANALYTIC, "outage", record)
    grid = (-20.0, -3.5, 0.0, 7.25, 30.0, 60.0)
    spec = SweepSpec(metric="outage", snr_db=grid, mode="analytic", trials=0, seed=0, config=cfg)
    rows = run_sweep(spec)
    assert [r.value for r in rows] == [0.5] * len(grid)
    assert seen == spec._configs and len(seen) == len(grid)
    for snr, point in zip(grid, seen):
        want = cfg.with_power(10.0 ** (snr / 10.0))
        assert point == want and hash(point) == hash(want)
        assert point.is_symmetric() == want.is_symmetric() == cfg.is_symmetric()


def test_library_default_series_policy_is_the_cli_policy():
    # rho_f = 0.99 needs 1539 series terms; the library default, the
    # diversity sweep and the CLI sweep evaluate it alike
    cfg = SystemConfig.symmetric(M=3, power=100.0, rho_f=0.99)
    res = analytic.aser_total(cfg)
    assert res.value == 1.1177713823089605e-05 and res.series_terms_used == 1539
    grid = (20.0, 30.0)
    curve = aser_sweep(cfg, grid)
    spec = SweepSpec(metric="aser", snr_db=grid, mode="analytic", trials=0, seed=0, config=cfg)
    rows = run_sweep(spec)
    assert curve.points[0] == (20.0, res.value)
    assert [(r.snr_db, r.value) for r in rows] == list(curve.points)
    assert (rows[0].series_terms, rows[0].condition_estimate) == (
        res.series_terms_used, res.condition_estimate
    )


def test_render_csv_schema():
    rows = [MetricPoint(snr_db=10.0, metric="outage", mode="analytic", value=0.25)]
    text = render_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "10.0" and cells[3] == "0.25"
    assert cells[4] == "" and cells[9] == ""  # inapplicable columns stay empty


# every kind of cell: None, an int series_terms, floats down to 1e-300 and
# one that needs 17 significant digits, a negative z_score, a label the
# writer quotes, and the three modes
CSV_ROWS = [
    MetricPoint(snr_db=0.0, metric="outage", mode="analytic", value=1e-300, series_terms=1537,
                condition_estimate=1.0, label='rho_f=0.9,"stale" links'),
    MetricPoint(snr_db=2.5, metric="aser", mode="mc", mc_mean=0.30000000000000004, mc_stderr=1.5e-05),
    MetricPoint(snr_db=-10.0, metric="capacity", mode="both", value=2.0, mc_mean=1.9999,
                mc_stderr=0.001, z_score=-1.25, series_terms=1, condition_estimate=3.7e12, label="a"),
    MetricPoint(snr_db=45.0, metric="diversity", mode="analytic", value=0.9999999999999999, label="M=2"),
]
CSV_HEADER = "snr_db,metric,mode,value,mc_mean,mc_stderr,z_score,series_terms,condition_estimate,label\n"


def test_render_csv_bytes():
    # the text render_csv wrote for these rows when it formatted every cell
    # with _cell and wrote the rows one writerow at a time
    assert render_csv(CSV_ROWS) == (
        CSV_HEADER
        + '0.0,outage,analytic,1e-300,,,,1537,1.0,"rho_f=0.9,""stale"" links"\n'
        + "2.5,aser,mc,,0.30000000000000004,1.5e-05,,,,\n"
        + "-10.0,capacity,both,2.0,1.9999,0.001,-1.25,1,3700000000000.0,a\n"
        + "45.0,diversity,analytic,0.9999999999999999,,,,,,M=2\n"
    )
    assert render_csv(iter(CSV_ROWS)) == render_csv(CSV_ROWS)
    assert render_csv([]) == CSV_HEADER


def test_render_csv_formats_numpy_and_bool_cells_through_cell():
    # cells the writer would format otherwise than _cell: a numpy float
    # (repr np.float64(...)), a float32, a numpy int (_cell writes 7.0) and
    # a bool
    row = MetricPoint(snr_db=np.float64(4.0), metric="outage", mode="both", value=np.float64(0.1),
                      mc_mean=np.float32(0.1), mc_stderr=0.0, z_score=np.float64(-0.0),
                      series_terms=np.int64(7), condition_estimate=True, label="x")
    assert render_csv([CSV_ROWS[3], row]) == (
        CSV_HEADER
        + "45.0,diversity,analytic,0.9999999999999999,,,,,,M=2\n"
        + "4.0,outage,both,0.1,0.10000000149011612,0.0,-0.0,7.0,True,x\n"
    )


def _signature(cls) -> list[tuple[str, object]]:
    """(name, default) of each constructor parameter, in order."""
    return [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]


def test_metric_result_record():
    none = inspect.Parameter.empty
    assert _signature(analytic.MetricResult) == [
        ("value", none), ("series_terms_used", none), ("condition_estimate", none)
    ]
    res = analytic.MetricResult(1e-3, 0, 1.0)
    same = analytic.MetricResult(value=1e-3, series_terms_used=0, condition_estimate=1.0)
    assert res == same and hash(res) == hash(same)
    assert res != analytic.MetricResult(1e-3, 1, 1.0)
    assert (res.value, res.series_terms_used, res.condition_estimate) == (1e-3, 0, 1.0)
    with pytest.raises(AttributeError):
        res.value = 2.0
    assert repr(res) == "MetricResult(value=0.001, series_terms_used=0, condition_estimate=1.0)"
    # a frozen dataclass, not a tuple: the dataclass helpers apply
    assert res != (1e-3, 0, 1.0)
    assert dataclasses.replace(res, value=2.0) == analytic.MetricResult(2.0, 0, 1.0)
    assert dataclasses.astuple(res) == (1e-3, 0, 1.0)


def test_metric_point_record():
    assert _signature(MetricPoint) == [
        ("snr_db", inspect.Parameter.empty), ("metric", inspect.Parameter.empty),
        ("mode", inspect.Parameter.empty), ("value", None), ("mc_mean", None),
        ("mc_stderr", None), ("z_score", None), ("series_terms", None),
        ("condition_estimate", None), ("label", ""),
    ]
    assert tuple(name for name, _ in _signature(MetricPoint)) == CSV_COLUMNS
    row = MetricPoint(snr_db=10.0, metric="aser", mode="analytic", value=0.25, label="x")
    positional = MetricPoint(10.0, "aser", "analytic", 0.25, None, None, None, None, None, "x")
    assert row == positional and hash(row) == hash(positional)
    assert row != MetricPoint(10.0, "aser", "analytic", 0.25)
    assert (row.snr_db, row.metric, row.mode, row.value, row.mc_mean, row.label) == (
        10.0, "aser", "analytic", 0.25, None, "x"
    )
    with pytest.raises(AttributeError):
        row.value = 0.5
    # a named tuple: it is the tuple of its cells, and the named-tuple
    # helpers stand in for the dataclass ones
    assert row == (10.0, "aser", "analytic", 0.25, None, None, None, None, None, "x")
    assert tuple(row._asdict()) == CSV_COLUMNS
    assert row._replace(label="") == MetricPoint(10.0, "aser", "analytic", 0.25)
    assert repr(CSV_ROWS[0]) == (
        "MetricPoint(snr_db=0.0, metric='outage', mode='analytic', value=1e-300, mc_mean=None, "
        "mc_stderr=None, z_score=None, series_terms=1537, condition_estimate=1.0, "
        "label='rho_f=0.9,\"stale\" links')"
    )
    assert repr(CSV_ROWS[1]) == (
        "MetricPoint(snr_db=2.5, metric='aser', mode='mc', value=None, "
        "mc_mean=0.30000000000000004, mc_stderr=1.5e-05, z_score=None, series_terms=None, "
        "condition_estimate=None, label='')"
    )


def test_cli_help():
    cp = run_cli("--help")
    assert cp.returncode == 0
    for sub in ("sweep", "reproduce", "validate", "info"):
        assert sub in cp.stdout


def test_cli_sweep_deterministic_bytes(config_file, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [
        "sweep", "--config", config_file, "--metric", "outage", "--snr-db", "0:10:5",
        "--mode", "both", "--trials", "20000", "--seed", "42",
    ]
    assert run_cli(*args, "--out", str(out1)).returncode == 0
    assert run_cli(*args, "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_sweep_probability_bounds(config_file, tmp_path):
    out = tmp_path / "o.csv"
    cp = run_cli(
        "sweep", "--config", config_file, "--metric", "aser",
        "--snr-db", "0:20:5", "--out", str(out),
    )
    assert cp.returncode == 0
    rows = read_rows(out)
    assert rows[0].keys() == set(CSV_COLUMNS) or list(rows[0].keys()) == list(CSV_COLUMNS)
    assert all(0.0 <= float(r["value"]) <= 1.0 for r in rows)


def test_cli_diversity_consumes_aser_sweep(config_file, tmp_path):
    aser_csv = tmp_path / "aser.csv"
    cp = run_cli(
        "sweep", "--config", config_file, "--metric", "aser",
        "--snr-db", "20:30:2", "--out", str(aser_csv),
    )
    assert cp.returncode == 0
    div_csv = tmp_path / "div.csv"
    cp = run_cli("sweep", "--metric", "diversity", "--in", str(aser_csv), "--out", str(div_csv))
    assert cp.returncode == 0
    rows = read_rows(div_csv)
    assert len(rows) == 6
    assert all(r["metric"] == "diversity" for r in rows)
    # M = 4 with feedback delay: slope near one on this window
    mid = [float(r["value"]) for r in rows[1:-1]]
    assert all(0.7 < d < 1.4 for d in mid)


@pytest.mark.parametrize("case, message", [
    ("multi-curve", "strictly increasing"),
    ("non-positive", "must be positive"),
    ("no-snr_db-column", "no snr_db column"),
    ("missing", "cannot read"),
], ids=["multi-curve", "non-positive", "no-snr_db-column", "missing"])
def test_cli_diversity_from_csv_rejects_unusable_files(tmp_path, case, message):
    path = tmp_path / "aser.csv"
    header = ",".join(CSV_COLUMNS) + "\n"
    if case == "multi-curve":
        cli.reproduce_figure(4, str(path))  # five ASER curves on one grid
    elif case == "non-positive":
        path.write_text(header + "0.0,aser,analytic,0.1,,,,,,\n2.0,aser,analytic,0.0,,,,,,\n")
    elif case == "no-snr_db-column":
        path.write_text("metric,value\naser,0.1\naser,0.05\n")
    res = CliRunner().invoke(cli.main, ["sweep", "--metric", "diversity", "--in", str(path)])
    assert res.exit_code == 2, res.output
    assert str(path) in res.output and message in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("extra, option", [
    (["--config", "nonexistent.json"], "--config"),
    (["--lambda-convention", "paper"], "--lambda-convention"),
    (["--mode", "mc"], "--mode"),
    (["--mode", "both"], "--mode"),
    (["--mode", "analytic"], "--mode"),
    (["--snr-db", "0:5:1"], "--snr-db"),
    (["--trials", "7"], "--trials"),
    (["--seed", "-3"], "--seed"),
], ids=["config", "lambda-convention", "mode-mc", "mode-both", "mode-analytic", "snr-db", "trials",
        "seed"])
def test_cli_diversity_from_csv_rejects_options_it_would_ignore(tmp_path, extra, option):
    # --in reads no config and simulates nothing: an option that only a
    # config sweep reads is an error when given, even at its default value,
    # not silently dropped
    path = tmp_path / "aser.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n0.0,aser,analytic,0.1,,,,,,\n10.0,aser,analytic,0.01,,,,,,\n")
    res = CliRunner().invoke(cli.main, ["sweep", "--metric", "diversity", "--in", str(path), *extra])
    assert res.exit_code == 2, res.output
    assert f"error: {option}:" in res.output
    assert "Traceback" not in res.output


def test_cli_sweep_without_in_requires_a_config():
    res = CliRunner().invoke(cli.main, ["sweep", "--metric", "outage"])
    assert res.exit_code == 2, res.output
    assert "error: --config: required unless --in is given" in res.output


def test_cli_exit_code_on_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"M": 0}')
    cp = run_cli("sweep", "--config", str(bad), "--metric", "outage")
    assert cp.returncode == 2
    assert "error" in cp.stderr


@pytest.mark.parametrize("snr_db", ["nan", "inf", "-inf", "4000"])
def test_cli_sweep_rejects_snr_without_finite_power(config_file, snr_db):
    res = CliRunner().invoke(
        cli.main, ["sweep", "--config", config_file, "--metric", "outage", "--snr-db", snr_db]
    )
    assert res.exit_code == 2, res.output
    assert "snr" in res.output


@pytest.mark.parametrize("snr_db, message", [
    ("10", "diversity sweep needs at least two"),
    ("10:10:1", "diversity sweep needs at least two"),
    # rounding to 10 decimals leaves 0, 1e-11, ..., 1e-10 with repeats,
    # which the grid parser rejects for every metric
    ("0:1e-10:1e-11", "not strictly increasing"),
], ids=["10", "10:10:1", "0:1e-10:1e-11"])
def test_cli_diversity_sweep_rejects_grid_without_two_increasing_points(
    config_file, snr_db, message, monkeypatch
):
    evaluated = []
    monkeypatch.setattr(cli.analytic, "aser_total", lambda *a: evaluated.append(a))
    res = CliRunner().invoke(
        cli.main, ["sweep", "--config", config_file, "--metric", "diversity", "--snr-db", snr_db]
    )
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert evaluated == []


def test_cli_diversity_sweep_exits_3_when_the_aser_series_fails(tmp_path):
    # rho_f = 0.9999 needs more series terms than the CLI's k_max at both points
    path = tmp_path / "slow.json"
    path.write_text(json.dumps({"M": 3, "rho_e": 1.0, "rho_f": 0.9999, "rate": 1.0}))
    res = CliRunner().invoke(
        cli.main, ["sweep", "--config", str(path), "--metric", "diversity", "--snr-db", "10:20:10"]
    )
    assert res.exit_code == 3, res.output
    assert "ASER series failed at snr_db [10.0, 20.0]" in res.output
    assert "Traceback" not in res.output


def test_cli_diversity_sweep_exits_3_when_the_aser_is_zero(tmp_path):
    # eight fresh relays at 400-420 dB: every ASER is below 1e-320 and reads
    # 0.0, whose log has no slope.  A numerical failure, not a rejected config
    path = tmp_path / "m8.json"
    path.write_text(json.dumps({"M": 8, "rho_f": 1.0}))
    res = CliRunner().invoke(
        cli.main, ["sweep", "--config", str(path), "--metric", "diversity", "--snr-db", "400:420:10"]
    )
    assert res.exit_code == 3, res.output
    assert "the ASER is 0.0 at snr_db [400.0, 410.0, 420.0]" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("text, count, last", [
    ("0:30:2", 16, 30.0),
    ("0:1:0.1", 11, 1.0),
    ("0:0.3:0.1", 4, 0.3),
    # an absolute 1e-9 dB slack let these overshoot STOP by a step
    ("0:1e-8:1e-9", 11, 1e-8),
    ("5:5.000001:1e-7", 11, 5.000001),
    ("0:1e-10:1e-11", None, None),
    ("0:1e-9:1e-11", None, None),
])
def test_parse_grid_slack_is_relative_to_the_step(text, count, last):
    if count is None:
        with pytest.raises(ConfigError, match="not strictly increasing"):
            cli._parse_grid(text)
        return
    grid = cli._parse_grid(text)
    assert len(grid) == count and grid[-1] == last
    assert all(b > a for a, b in zip(grid, grid[1:]))


@pytest.mark.parametrize(
    "text", ["0:inf:2", "-inf:0:2", "0:30:nan", "0:30:1e-300", "0:1e6:1", "0:100000:1"]
)
def test_parse_grid_rejects_unbounded_grids(text):
    # each of these loops forever, or grows its list without bound, when the
    # grid is built by repeated addition
    with pytest.raises(ConfigError, match="snr-db"):
        cli._parse_grid(text)


def test_parse_grid_point_count_bound():
    assert len(cli._parse_grid("0:99999:1")) == cli._GRID_MAX_POINTS


@pytest.mark.parametrize(
    "start, stop, step", [(0, 30, 2), (0, 40, 2), (5, 45, 2), (0, 1, 0.1), (-10, 10, 0.5), (0, 40, 2.5)]
)
def test_grid_matches_repeated_addition(start, stop, step):
    want = []
    v = float(start)
    while v <= stop + 1e-9:
        want.append(round(v, 10))
        v += step
    got = cli._grid(start, stop, step)
    assert got == tuple(want)
    assert all(type(x) is float for x in got)


def test_cli_exit_code_on_unknown_figure():
    cp = run_cli("reproduce", "--figure", "12")
    assert cp.returncode == 2


def test_cli_info_reports_link_params(config_file):
    cp = run_cli("info", "--config", config_file)
    assert cp.returncode == 0
    doc = json.loads(cp.stdout)
    assert doc["M"] == 4 and doc["r_o"] == pytest.approx(3.0)
    assert len(doc["relay_links"]) == 4
    assert doc["relay_links"][0]["lam"] == pytest.approx(1.0)


def test_cli_info_asymmetric_imperfect_estimation(tmp_path):
    # per-link variances come from the fading parameters, the rest from the
    # links derived at the config's power; rho_f = 1 prints c as Infinity
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "M": 2, "power_db": 12.0, "rate": 1.5, "lambda_convention": "paper",
        "source_links": [{"sigma2_h": 0.8, "rho_e": 0.9, "rho_f": 0.7},
                         {"sigma2_h": 1.3, "rho_e": 0.95, "rho_f": 0.85}],
        "relay_links": [{"sigma2_h": 0.6, "rho_e": 0.85, "rho_f": 1.0},
                        {"sigma2_h": 1.1, "rho_e": 0.99, "rho_f": 0.6}],
    }))
    want = {
        "M": 2, "power": 15.848931924611133, "snr_db": 12.0, "rate": 1.5,
        "r_o": 0.44167014113613534, "alpha": 1.0, "beta": 2.0, "lambda_convention": "paper",
        "source_links": [
            {"lam": 2.519905059965434, "c": 4.842170507384559, "theta": 0.10119428864653253,
             "sigma2_hat": 0.888888888888889, "sigma2_u": 0.07999999999999999,
             "sigma2_e": 0.08888888888888888, "rho_e": 0.9, "rho_f": 0.7},
            {"lam": 2.1370321843155, "c": 11.127969392201427, "theta": 0.06492649058743223,
             "sigma2_hat": 1.368421052631579, "sigma2_u": 0.06500000000000006,
             "sigma2_e": 0.06842105263157901, "rho_e": 0.95, "rho_f": 0.85},
        ],
        "relay_links": [
            {"lam": 2.8545927920176495, "c": math.inf, "theta": 0.0,
             "sigma2_hat": 0.7058823529411765, "sigma2_u": 0.09000000000000001,
             "sigma2_e": 0.1058823529411765, "rho_e": 0.85, "rho_f": 1.0},
            {"lam": 1.1862002537078005, "c": 1.3344752854212754, "theta": 0.2697689525859993,
             "sigma2_hat": 1.1111111111111112, "sigma2_u": 0.011000000000000012,
             "sigma2_e": 0.011111111111111122, "rho_e": 0.99, "rho_f": 0.6},
        ],
    }
    cp = run_cli("info", "--config", str(path))
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == json.dumps(want, indent=2) + "\n"


def test_cli_validate_passes_default(config_file):
    cp = run_cli("validate", "--config", config_file, "--trials", "60000")
    assert cp.returncode == 0, cp.stdout + cp.stderr
    assert "PASS" in cp.stdout and "FAIL" not in cp.stdout


@pytest.mark.parametrize("rho_f, power_db", [
    pytest.param([0.99999, 0.9999, 0.99999], 0, id="0"),
    pytest.param([0.99999, 0.9999, 0.99999], 20, id="20"),
    # the outage oracle's inner CDF reaches b^2/2 = 1.6e8 here
    pytest.param([0.99999999, 0.9999999, 0.99999999], 0, id="0-rho_f_0.99999999"),
])
def test_cli_validate_passes_slow_fading_asymmetric_links(tmp_path, rho_f, power_db):
    # rho_f -> 1 on distinct links: a k-series for the candidate check would
    # need 175,827 terms at 0 dB and rho_f = 0.99999, past k_max
    path = tmp_path / "slow.json"
    path.write_text(json.dumps({
        "M": 3, "rho_f": rho_f, "sigma2_h": [0.95, 1.05, 1.0], "power_db": power_db,
    }))
    res = CliRunner().invoke(cli.main, ["validate", "--config", str(path), "--trials", "20000"])
    assert res.exit_code == 0, res.output
    assert "PASS  closed-form-vs-quadrature" in res.output and "FAIL" not in res.output


@pytest.mark.parametrize("option, value", [("--trials", "0"), ("--seed", "-1")])
def test_cli_validate_rejects_bad_trials_and_seed(config_file, option, value):
    cp = run_cli("validate", "--config", config_file, option, value)
    assert cp.returncode == 2, cp.stdout + cp.stderr
    assert cp.stderr.startswith(f"error: {option[2:]}:")
    assert "Traceback" not in cp.stderr


@pytest.mark.parametrize("mode", ["mc", "both"])
def test_cli_sweep_rejects_a_negative_seed_when_monte_carlo_runs(config_file, mode):
    # the simulator rejects negative seeds, as validate does; the sweep's
    # per-row seeds would otherwise fold them into range
    cp = run_cli("sweep", "--config", config_file, "--metric", "outage", "--snr-db", "10",
                 "--mode", mode, "--trials", "100", "--seed", "-5")
    assert cp.returncode == 2, cp.stdout + cp.stderr
    assert cp.stderr.startswith("error: seed:")
    assert "Traceback" not in cp.stderr and cp.stdout == ""
    # analytic rows take no seed
    res = CliRunner().invoke(cli.main, ["sweep", "--config", config_file, "--metric", "outage",
                                        "--snr-db", "10", "--seed", "-5"])
    assert res.exit_code == 0, res.output


def test_validate_detects_corrupted_lambda(monkeypatch):
    # the closed forms see relay-link variances halved, so their rates are
    # off by 2x; the simulator draws from the true config
    cfg = load_config({"M": 4, "rho_f": 0.9})
    corrupted = dataclasses.replace(cfg, relay_links=tuple(
        FadingParams(fp.sigma2_h / 2.0, fp.rho_e, fp.rho_f) for fp in cfg.relay_links
    ))
    monkeypatch.setattr(cli, "_ANALYTIC", {
        name: (lambda _cfg, f=f: f(corrupted)) for name, f in cli._ANALYTIC.items()
    })
    ok, report = validate(cfg, 60_000, 42)
    assert not ok
    failed = [line for line in report if line.startswith("FAIL")]
    assert len(failed) == 3 and all("analytic-vs-mc" in line for line in failed), report


def test_validate_degenerate_branch_runs():
    # every relay link fresh, on identical links and on distinct ones
    for doc in (
        {"M": 3, "rho_f": 1.0},
        {"M": 4, "rho_f": 1.0, "sigma2_h": [0.9, 1.1, 1.0, 0.95], "power_db": 10},
    ):
        ok, report = validate(load_config(doc), 60_000, 42)
        assert ok, report
        assert any(line.startswith("PASS  degenerate-order-statistics") for line in report), report


def test_validate_degenerate_check_is_relative():
    # the symmetric outage at M = 8, 20 dB is 5.1e-6 off the order-statistics
    # value, an absolute difference of only 6.7e-16; the general path's over
    # ten distinct fresh links at 20 dB is 7.7e-4 off
    for doc in (
        {"M": 8, "rho_f": 1.0, "power_db": 20},
        {"M": 10, "rho_f": 1.0, "power_db": 20,
         "sigma2_h": [0.9, 1.1, 1.0, 0.95, 1.05, 0.92, 1.08, 0.97, 1.03, 1.0]},
    ):
        with pytest.warns(RuntimeWarning, match="cancellation"):
            ok, report = validate(load_config(doc), 2_000, 42)
        assert not ok
        assert any(line.startswith("FAIL  degenerate-order-statistics") for line in report), report


def test_validate_series_vs_quadrature_is_relative():
    # the candidate terms are near 7e-14, so the closed form's 1.5e-3 relative
    # error is an absolute difference of only 1.1e-16
    cfg = load_config({"M": 8, "rho_f": 1.0, "power_db": 20})
    with pytest.warns(RuntimeWarning, match="cancellation"):
        ok, report = validate(cfg, 2_000, 42)
    assert not ok
    assert any(line.startswith("FAIL  closed-form-vs-quadrature") for line in report), report


@pytest.mark.parametrize("doc, calls", [
    ({"M": 4, "rho_f": 0.9}, 1),
    ({"M": 4, "rho_f": [0.85, 0.9, 0.9, 0.95]}, 4),
])
def test_validate_integrates_each_distinct_candidate_once(monkeypatch, doc, calls):
    # on identical links every candidate is the same integral, bit for bit
    real = analytic.outage_conditional_quadrature
    seen = []

    def counting(D, m, config):
        seen.append(m)
        return real(D, m, config)

    monkeypatch.setattr(analytic, "outage_conditional_quadrature", counting)
    ok, report = validate(load_config(doc), 2_000, 42)
    assert seen == list(range(calls))
    assert any(line.startswith("PASS  closed-form-vs-quadrature") for line in report), report


def test_validate_loads_no_scipy_integrate():
    code = (
        "import sys; from relaysel import cli; "
        "cli.validate(cli.load_config({'M': 2, 'rho_f': [0.9, 0.8]}), 2000, 1); "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))"
    )
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip() == "[]"


def test_validate_draws_the_old_snrs_once_per_chunk(monkeypatch):
    # the three analytic-vs-mc checks share one Monte-Carlo pass, and a
    # second identical validate runs its own
    real = montecarlo.sample_gamma_batch
    calls = []

    def counting(config, rng, n, **kwargs):
        calls.append(n)
        return real(config, rng, n, **kwargs)

    monkeypatch.setattr(montecarlo, "sample_gamma_batch", counting)
    cfg = load_config({"M": 2, "rho_f": 0.9})
    trials = 2 * montecarlo.CHUNK_SIZE + 5
    first = validate(cfg, trials, 42)
    assert len(calls) == math.ceil(trials / montecarlo.CHUNK_SIZE) and sum(calls) == trials
    assert validate(cfg, trials, 42) == first
    assert len(calls) == 2 * math.ceil(trials / montecarlo.CHUNK_SIZE)


def test_cli_negative_total_is_a_series_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"M": 8, "rho_f": 1.0}))
    out = tmp_path / "aser.csv"
    # the ASER at 30 dB sums to -9.4e-16: the sweep leaves its cell empty
    cp = run_cli(
        "sweep", "--config", str(path), "--metric", "aser", "--snr-db", "10:30:10",
        "--out", str(out),
    )
    assert cp.returncode == 0, cp.stderr
    assert [r["value"] == "" for r in read_rows(out)] == [False, False, True]
    assert "warning: snr 30.0 dB: total" in cp.stderr and "is negative" in cp.stderr
    path.write_text(json.dumps({"M": 8, "rho_f": 1.0, "power_db": 30}))
    cp = run_cli("validate", "--config", str(path), "--trials", "2000")
    assert cp.returncode == 3, cp.stdout + cp.stderr
    assert "is negative" in cp.stderr and "Traceback" not in cp.stderr


# ---------------------------------------------------------------------------
# figure reproduction
# ---------------------------------------------------------------------------

def test_cli_reproduce_figure_1_ordering(tmp_path):
    out = tmp_path / "fig1.csv"
    cp = run_cli("reproduce", "--figure", "1", "--out", str(out))
    assert cp.returncode == 0
    rows = read_rows(out)
    labels = sorted({r["label"] for r in rows})
    assert labels == [f"rho_f={v}" for v in ("0.6", "0.7", "0.8", "0.9", "1.0")]
    by_label = {
        lab: [float(r["value"]) for r in rows if r["label"] == lab] for lab in labels
    }
    fresh = by_label["rho_f=1.0"]
    for lab in labels[:-1]:
        assert all(f <= o for f, o in zip(fresh, by_label[lab]))


def test_reproduce_figure_builds_only_its_own_curves(tmp_path, monkeypatch):
    real = cli._sym
    built = []

    def counting(M, rho_e, rho_f):
        built.append((M, rho_e, rho_f))
        return real(M, rho_e, rho_f)

    monkeypatch.setattr(cli, "_sym", counting)
    rows = cli.reproduce_figure(2, str(tmp_path / "fig2.csv"))
    assert len(built) == len({r.label for r in rows}) == 6
    with pytest.raises(ConfigError, match="unknown id 10"):
        cli.reproduce_figure(10, str(tmp_path / "fig10.csv"))
    assert len(built) == 6


def test_reproduce_figure_makes_one_metric_call_per_curve(tmp_path, monkeypatch):
    # figure 4's five curves of 16 points: one symmetric metric call and one
    # link derivation per curve (both hops share one FadingParams object),
    # where a call per row made 80 of each
    calls = {"symmetric": 0, "derive": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("outage_total_symmetric", "aser_total_symmetric", "capacity_lb_avg_symmetric"):
        monkeypatch.setattr(analytic, name, counting("symmetric", getattr(analytic, name)))
    monkeypatch.setattr(channel, "derive_link_params", counting("derive", channel.derive_link_params))
    rows = cli.reproduce_figure(4, str(tmp_path / "fig4.csv"))
    assert len(rows) == 80 and len({r.label for r in rows}) == 5
    assert calls == {"symmetric": 5, "derive": 5}


def test_reproduce_figure_3_error_floor(tmp_path):
    out = tmp_path / "fig3.csv"
    assert run_cli("reproduce", "--figure", "3", "--out", str(out)).returncode == 0
    rows = read_rows(out)
    for lab in ("rho_e=0.9", "rho_e=0.95"):
        curve = [(float(r["snr_db"]), float(r["value"])) for r in rows if r["label"] == lab]
        top = curve[-1][1]
        ten_below = next(v for s, v in curve if s == curve[-1][0] - 10.0)
        assert abs(top - ten_below) / ten_below < 0.10


def test_reproduce_figure_9_capacity_shapes(tmp_path):
    out = tmp_path / "fig9.csv"
    assert run_cli("reproduce", "--figure", "9", "--out", str(out)).returncode == 0
    rows = read_rows(out)
    perfect = [
        (float(r["snr_db"]), float(r["value"]))
        for r in rows
        if r["label"] == "rho_f=0.9,rho_e=1.0"
    ]
    floor = [
        (float(r["snr_db"]), float(r["value"]))
        for r in rows
        if r["label"] == "rho_f=0.9,rho_e=0.9"
    ]
    # perfect CSI keeps the half-log2 growth at high SNR
    slope = (perfect[-1][1] - perfect[-3][1]) / ((perfect[-1][0] - perfect[-3][0]) / 10.0)
    assert slope == pytest.approx(0.5 * 3.321928, rel=0.05)  # 0.5 log2(10) per decade
    # estimation error produces a ceiling
    assert floor[-1][1] - floor[-3][1] < 0.02
    assert all(v >= 0.0 for _, v in floor)
