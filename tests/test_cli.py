"""Command-line surface: subcommands, CSV contract, exit codes."""

import csv
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from relaysel import cli
from relaysel.channel import FadingParams
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
    ({"M": 2, "sigma2_h": 1e-320}, ["sweep", "--metric", "outage"], "floating-point range"),
    ({"M": 2, "rho_e": 1e-320}, ["sweep", "--metric", "outage"], "floating-point range"),
    ({"M": 1, "power_db": 100, "rho_e": 1e-10, "sigma2_h": 1e290},
     ["sweep", "--metric", "outage", "--lambda-convention", "paper"], "lambda-convention"),
], ids=[
    "alpha-3", "rate-600-sweep", "rate-600-info", "rate-600-validate", "rate-500-low-snr",
    "beta-1e308", "sigma2_h-1e-320", "rho_e-1e-320", "paper-lam-overflow",
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


def test_render_csv_schema():
    rows = [MetricPoint(snr_db=10.0, metric="outage", mode="analytic", value=0.25)]
    text = render_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "10.0" and cells[3] == "0.25"
    assert cells[4] == "" and cells[9] == ""  # inapplicable columns stay empty


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
    cp = run_cli(
        "sweep", "--config", config_file, "--metric", "diversity",
        "--in", str(aser_csv), "--out", str(div_csv),
    )
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
def test_cli_diversity_from_csv_rejects_unusable_files(tmp_path, config_file, case, message):
    path = tmp_path / "aser.csv"
    header = ",".join(CSV_COLUMNS) + "\n"
    if case == "multi-curve":
        cli.reproduce_figure(4, str(path))  # five ASER curves on one grid
    elif case == "non-positive":
        path.write_text(header + "0.0,aser,analytic,0.1,,,,,,\n2.0,aser,analytic,0.0,,,,,,\n")
    elif case == "no-snr_db-column":
        path.write_text("metric,value\naser,0.1\naser,0.05\n")
    res = CliRunner().invoke(
        cli.main, ["sweep", "--config", config_file, "--metric", "diversity", "--in", str(path)]
    )
    assert res.exit_code == 2, res.output
    assert str(path) in res.output and message in res.output
    assert "Traceback" not in res.output


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


def test_cli_validate_passes_default(config_file):
    cp = run_cli("validate", "--config", config_file, "--trials", "60000")
    assert cp.returncode == 0, cp.stdout + cp.stderr
    assert "PASS" in cp.stdout and "FAIL" not in cp.stdout


@pytest.mark.parametrize("option, value", [("--trials", "0"), ("--seed", "-1")])
def test_cli_validate_rejects_bad_trials_and_seed(config_file, option, value):
    cp = run_cli("validate", "--config", config_file, option, value)
    assert cp.returncode == 2, cp.stdout + cp.stderr
    assert cp.stderr.startswith(f"error: {option[2:]}:")
    assert "Traceback" not in cp.stderr


def test_validate_detects_corrupted_lambda(monkeypatch):
    # the closed forms see relay-link variances halved, so their rates are
    # off by 2x; the simulator draws from the true config
    cfg = load_config({"M": 4, "rho_f": 0.9})
    corrupted = dataclasses.replace(cfg, relay_links=tuple(
        FadingParams(fp.sigma2_h / 2.0, fp.rho_e, fp.rho_f) for fp in cfg.relay_links
    ))
    monkeypatch.setattr(cli, "_ANALYTIC", {
        name: (lambda _cfg, ctrl, f=f: f(corrupted, ctrl)) for name, f in cli._ANALYTIC.items()
    })
    ok, report = validate(cfg, 60_000, 42)
    assert not ok
    failed = [line for line in report if line.startswith("FAIL")]
    assert len(failed) == 3 and all("analytic-vs-mc" in line for line in failed), report


def test_validate_degenerate_branch_runs():
    cfg = load_config({"M": 3, "rho_f": 1.0})
    ok, report = validate(cfg, 60_000, 42)
    assert ok, report
    assert any("degenerate-order-statistics" in line for line in report)


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
