"""Command-line harness: sweeps, figure presets, cross-validation, CSV output.

Configuration document (JSON):

    {
      "M": 4,                      required relay count
      "power_db": 10.0,            or "power_linear" (never both); optional
                                   when a sweep grid supplies the power
      "rate": 1.0,                 target rate R in bits/s/Hz (R_o = (2^2R-1)/P)
      "alpha": 1.0, "beta": 2.0,   modulation constants (BPSK defaults);
                                   0 < alpha <= 2, so that the relay
                                   decode probability is a probability
      "rho_e": 1.0,                scalar or list of M
      "rho_f": 0.9,                scalar or list of M
      "sigma2_h": 1.0,             scalar or list of M; defaults to rho_e so
                                   the estimate variance is one
      "sigma2_e": 0.05,            alternative: sets rho_e = sigma2_h = 1 - sigma2_e
      "lambda_convention": "derived" | "paper",
      "source_links": [{"sigma2_h":..,"rho_e":..,"rho_f":..}, ...],
      "relay_links":  [...]        full per-link overrides
    }

"M" must be a JSON integer; every other number must be finite (booleans are
not numbers).  A configuration whose derived quantities leave the float
range at some power it is evaluated at (2^(2R), beta P, a link's lam, c or
theta) is rejected too.  Anything else is a configuration error (exit
code 2).

CSV schema (fixed column order, one schema for every metric; empty cells
where a column does not apply):

    snr_db, metric, mode, value, mc_mean, mc_stderr, z_score,
    series_terms, condition_estimate, label

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, replace

import click

from . import analytic, montecarlo
from .channel import CONVENTIONS, FadingParams, SystemConfig
from .diversity import SweepCurve, effective_diversity
from .specfn import SeriesControl, SeriesError

METRICS = ("outage", "aser", "capacity", "diversity")
MODES = ("analytic", "mc", "both")

# headroom over the SeriesControl default so figure presets near rho_f = 1
# converge; tolerance stays at the default
CLI_CTRL = SeriesControl(abs_tol=1e-12, k_max=65536)
# far above any real sweep: a grid with more points is a mistyped STEP
_GRID_MAX_POINTS = 100_000

CSV_COLUMNS = (
    "snr_db",
    "metric",
    "mode",
    "value",
    "mc_mean",
    "mc_stderr",
    "z_score",
    "series_terms",
    "condition_estimate",
    "label",
)


class ConfigError(ValueError):
    """Configuration document rejected; message carries the field path."""


# ---------------------------------------------------------------------------
# configuration loading
# ---------------------------------------------------------------------------

def _as_link_list(doc: dict, key: str, M: int, defaults: list[dict]) -> tuple[FadingParams, ...]:
    raw = doc.get(key)
    if raw is None:
        raw = [{}] * M
    if not isinstance(raw, list) or len(raw) != M:
        raise ConfigError(f"{key}: must be a list of exactly M={M} objects")
    links = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ConfigError(f"{key}[{i}]: must be an object")
        merged = dict(defaults[i])
        for fname, fval in entry.items():
            if fname not in ("sigma2_h", "rho_e", "rho_f"):
                raise ConfigError(f"{key}[{i}].{fname}: unknown field")
            merged[fname] = _number(f"{key}[{i}].{fname}", fval)
        try:
            links.append(FadingParams(**merged))
        except ValueError as e:
            raise ConfigError(f"{key}[{i}]: {e}") from e
    return tuple(links)


def _number(key: str, val) -> float:
    """A finite JSON number (or numeric string); booleans are not numbers."""
    try:
        if isinstance(val, bool):
            raise TypeError
        out = float(val)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{key}: expected a number, got {val!r}") from e
    if not math.isfinite(out):
        raise ConfigError(f"{key}: must be finite, got {val!r}")
    return out


def _scalar_or_list(doc: dict, key: str, M: int, default) -> list:
    val = doc.get(key, default)
    if isinstance(val, list):
        if len(val) != M:
            raise ConfigError(f"{key}: list must have exactly M={M} entries")
        return [_number(f"{key}[{i}]", v) for i, v in enumerate(val)]
    return [_number(key, val)] * M


def load_config(doc: dict) -> SystemConfig:
    """Build a SystemConfig from a configuration document (parsed JSON)."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be a JSON object")
    known = {
        "M", "power_db", "power_linear", "rate", "alpha", "beta", "rho_e",
        "rho_f", "sigma2_h", "sigma2_e", "lambda_convention",
        "source_links", "relay_links",
    }
    for key in doc:
        if key not in known:
            raise ConfigError(f"{key}: unknown field")
    if "M" not in doc:
        raise ConfigError("M: required field is missing")
    M = doc["M"]
    if isinstance(M, bool) or not isinstance(M, int):
        raise ConfigError(f"M: must be an integer, got {M!r}")
    if M < 1:
        raise ConfigError("M: must be >= 1")

    if "power_db" in doc and "power_linear" in doc:
        raise ConfigError("power_db/power_linear: give one or the other, not both")
    if "power_db" in doc:
        power_db = _number("power_db", doc["power_db"])
        try:
            power = 10.0 ** (power_db / 10.0)
        except OverflowError as e:
            raise ConfigError(f"power_db: {power_db} dB overflows the linear power") from e
    elif "power_linear" in doc:
        power = _number("power_linear", doc["power_linear"])
    else:
        power = 1.0  # sweeps override it per grid point

    if "sigma2_e" in doc:
        if "rho_e" in doc or "sigma2_h" in doc:
            raise ConfigError(
                "sigma2_e: alternative parameterization, incompatible with rho_e/sigma2_h"
            )
        s2e = _scalar_or_list(doc, "sigma2_e", M, 0.0)
        rho_e = [1.0 - v for v in s2e]
        sigma2_h = [1.0 - v for v in s2e]
    else:
        rho_e = _scalar_or_list(doc, "rho_e", M, 1.0)
        sigma2_h = _scalar_or_list(doc, "sigma2_h", M, None) if "sigma2_h" in doc else rho_e
    rho_f = _scalar_or_list(doc, "rho_f", M, 1.0)

    defaults = [
        {"sigma2_h": sigma2_h[i], "rho_e": rho_e[i], "rho_f": rho_f[i]} for i in range(M)
    ]
    source_links = _as_link_list(doc, "source_links", M, defaults)
    relay_links = _as_link_list(doc, "relay_links", M, defaults)

    convention = doc.get("lambda_convention", "derived")
    if convention not in CONVENTIONS:
        raise ConfigError(f"lambda_convention: must be one of {CONVENTIONS}")

    try:
        return SystemConfig(
            M=M,
            power=power,
            rate=_number("rate", doc.get("rate", 1.0)),
            alpha=_number("alpha", doc.get("alpha", 1.0)),
            beta=_number("beta", doc.get("beta", 2.0)),
            source_links=source_links,
            relay_links=relay_links,
            lambda_convention=convention,
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e


def load_config_file(path: str) -> SystemConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file is not valid JSON: {e}") from e
    return load_config(doc)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricPoint:
    snr_db: float
    metric: str
    mode: str
    value: float | None = None
    mc_mean: float | None = None
    mc_stderr: float | None = None
    z_score: float | None = None
    series_terms: int | None = None
    condition_estimate: float | None = None
    label: str = ""


@dataclass(frozen=True)
class SweepSpec:
    metric: str
    snr_db: tuple[float, ...]
    mode: str
    trials: int
    seed: int
    config: SystemConfig
    label: str = ""

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ConfigError(f"metric: must be one of {METRICS}")
        if self.mode not in MODES:
            raise ConfigError(f"mode: must be one of {MODES}")
        if not self.snr_db:
            raise ConfigError("snr_db: grid must be nonempty")
        for snr in self.snr_db:
            _linear_power(snr)
        # SystemConfig's range checks are monotone in the power, so the
        # grid's two ends decide them for every point
        for snr in (min(self.snr_db), max(self.snr_db)):
            try:
                self.config.with_power(_linear_power(snr))
            except ValueError as e:
                raise ConfigError(f"snr_db: at {snr!r} dB: {e}") from e
        # the slope needs two points, and SweepCurve a strictly increasing grid
        grid = self.snr_db
        if self.metric == "diversity" and (
            len(grid) < 2 or any(b <= a for a, b in zip(grid, grid[1:]))
        ):
            raise ConfigError("snr_db: a diversity sweep needs at least two increasing points")
        if self.mode in ("mc", "both") and self.trials < 1:
            raise ConfigError("trials: must be >= 1 when Monte Carlo runs")


_ANALYTIC = {
    "outage": lambda cfg, ctrl: analytic.outage_total(cfg, ctrl),
    "aser": lambda cfg, ctrl: analytic.aser_total(cfg, ctrl),
    "capacity": lambda cfg, ctrl: analytic.capacity_lb_avg(cfg, ctrl),
}

_SIMULATE = {
    "outage": montecarlo.simulate_outage,
    "aser": montecarlo.simulate_ser,
    "capacity": montecarlo.simulate_capacity,
}


def _linear_power(snr_db: float) -> float:
    """10^(snr_db / 10); ConfigError unless that is finite and > 0."""
    try:
        power = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        power = math.inf
    if not (math.isfinite(power) and power > 0.0):
        raise ConfigError(f"snr_db: {snr_db!r} dB has no finite positive linear power")
    return power


def _row_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index) % (1 << 63)


def run_sweep(spec: SweepSpec, ctrl: SeriesControl = CLI_CTRL) -> list[MetricPoint]:
    """One row per grid point; `both` mode adds MC columns and a z-score.
    Numerical failures are surfaced per row (value left empty) rather than
    aborting the whole sweep."""
    if spec.metric == "diversity":
        return _diversity_rows_from_config(spec, ctrl)
    rows = []
    for i, snr in enumerate(spec.snr_db):
        cfg = spec.config.with_power(_linear_power(snr))
        value = terms = cond = None
        if spec.mode in ("analytic", "both"):
            try:
                res = _ANALYTIC[spec.metric](cfg, ctrl)
                value, terms, cond = res.value, res.series_terms_used, res.condition_estimate
            except SeriesError as e:
                click.echo(f"warning: snr {snr} dB: {e}", err=True)
        mean = stderr = z = None
        if spec.mode in ("mc", "both"):
            est = _SIMULATE[spec.metric](cfg, spec.trials, _row_seed(spec.seed, i))
            mean, stderr = est.mean, est.std_error
            if value is not None:
                diff = abs(value - mean)
                z = diff / stderr if stderr > 0 else (0.0 if diff < 1e-15 else math.inf)
        rows.append(
            MetricPoint(
                snr_db=snr, metric=spec.metric, mode=spec.mode, value=value,
                mc_mean=mean, mc_stderr=stderr, z_score=z, series_terms=terms,
                condition_estimate=cond, label=spec.label,
            )
        )
    return rows


def _diversity_rows_from_config(spec: SweepSpec, ctrl: SeriesControl) -> list[MetricPoint]:
    aser_spec = replace(spec, metric="aser", mode="analytic")
    base = run_sweep(aser_spec, ctrl)
    failed = [r.snr_db for r in base if r.value is None]
    if failed:
        raise SeriesError(f"diversity: the ASER series failed at snr_db {failed}, so no slope")
    return diversity_rows([(r.snr_db, r.value) for r in base], spec.label)


def diversity_rows(points: list[tuple[float, float]], label: str = "") -> list[MetricPoint]:
    """Differentiate an (snr_db, aser) table into diversity-order rows."""
    curve = SweepCurve(tuple(points))
    return [
        MetricPoint(snr_db=s, metric="diversity", mode="analytic", value=d, label=label)
        for s, d in effective_diversity(curve)
    ]


def diversity_rows_from_csv(path: str, label: str = "") -> list[MetricPoint]:
    """Consume a prior ASER sweep CSV (one curve) and append the diversity
    column.  A file that cannot be read or does not hold one such curve is
    a ConfigError naming the file."""
    points = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                if row.get("metric") != "aser":
                    continue
                val = row.get("value") or row.get("mc_mean")
                if val:
                    points.append((float(row["snr_db"]), float(val)))
    except OSError as e:
        raise ConfigError(f"{path}: cannot read the aser sweep: {e}") from e
    except KeyError as e:
        raise ConfigError(f"{path}: no {e.args[0]} column") from e
    except (ValueError, csv.Error) as e:
        raise ConfigError(f"{path}: {e}") from e
    if len(points) < 2:
        raise ConfigError(f"{path}: fewer than two usable aser rows")
    try:
        return diversity_rows(points, label)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


def render_csv(rows: list[MetricPoint]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow([
            _cell(r.snr_db), r.metric, r.mode, _cell(r.value), _cell(r.mc_mean),
            _cell(r.mc_stderr), _cell(r.z_score), _cell(r.series_terms),
            _cell(r.condition_estimate), r.label,
        ])
    return buf.getvalue()


def write_csv(rows: list[MetricPoint], path: str) -> None:
    text = render_csv(rows)
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

def _grid_steps(start: float, stop: float, step: float) -> float:
    """(stop - start) / step with a slack of 1e-9 steps for rounding."""
    return (stop - start) / step + 1e-9


def _grid(start: float, stop: float, step: float) -> tuple[float, ...]:
    """start, start + step, ... up to stop (1e-9 steps of slack), rounded to
    10 decimals."""
    count = math.floor(_grid_steps(start, stop, step)) + 1
    return tuple(round(float(start) + i * float(step), 10) for i in range(count))


def _sym(M: int, rho_e: float, rho_f: float) -> SystemConfig:
    return SystemConfig.symmetric(
        M=M, power=1.0, rho_e=rho_e, rho_f=rho_f, lambda_convention="paper"
    )


def _figure_presets() -> dict[int, dict]:
    rho_fs = (0.6, 0.7, 0.8, 0.9, 1.0)
    rho_es = (0.9, 0.95, 0.99, 1.0)
    return {
        1: {
            "metric": "outage", "snr": _grid(0, 30, 2),
            "curves": [(f"rho_f={r}", _sym(4, 1.0, r)) for r in rho_fs],
        },
        2: {
            "metric": "outage", "snr": _grid(0, 30, 2),
            "curves": [
                (f"M={m},rho_f={r}", _sym(m, 1.0, r)) for m in (2, 3, 4) for r in (0.9, 1.0)
            ],
        },
        3: {
            "metric": "outage", "snr": _grid(0, 40, 2),
            "curves": [(f"rho_e={r}", _sym(2, r, 0.9)) for r in rho_es],
        },
        4: {
            "metric": "aser", "snr": _grid(0, 30, 2),
            "curves": [(f"rho_f={r}", _sym(3, 1.0, r)) for r in rho_fs],
        },
        5: {
            "metric": "aser", "snr": _grid(0, 40, 2),
            "curves": [(f"rho_e={r}", _sym(2, r, 0.9)) for r in rho_es],
        },
        6: {
            "metric": "diversity", "snr": _grid(5, 45, 2),
            "curves": [(f"rho_f={r}", _sym(4, 1.0, r)) for r in (0.6, 0.7, 0.8, 0.9)],
        },
        7: {
            "metric": "diversity", "snr": _grid(5, 45, 2),
            "curves": [(f"M={m}", _sym(m, 1.0, 0.9)) for m in (2, 3, 4)],
        },
        8: {
            "metric": "diversity", "snr": _grid(5, 45, 2),
            "curves": [(f"rho_e={r}", _sym(3, r, 0.9)) for r in rho_es],
        },
        9: {
            "metric": "capacity", "snr": _grid(0, 40, 2),
            "curves": [
                ("rho_f=1.0,rho_e=1.0", _sym(3, 1.0, 1.0)),
                ("rho_f=0.9,rho_e=1.0", _sym(3, 1.0, 0.9)),
                ("rho_f=0.6,rho_e=1.0", _sym(3, 1.0, 0.6)),
                ("rho_f=0.9,rho_e=0.99", _sym(3, 0.99, 0.9)),
                ("rho_f=0.9,rho_e=0.95", _sym(3, 0.95, 0.9)),
                ("rho_f=0.9,rho_e=0.9", _sym(3, 0.9, 0.9)),
            ],
        },
    }


def reproduce_figure(fig_id: int, output_path: str, ctrl: SeriesControl = CLI_CTRL) -> list[MetricPoint]:
    """Emit the analytic CSV behind one of the nine reference figures.

    Presets follow the source experiment set-up: BPSK (alpha=1, beta=2),
    rate 1 bits/s/Hz, unit estimate variance, "paper" lambda convention.
    rho_e grids are {0.9, 0.95, 0.99, 1} where the captions only say
    "varying".
    """
    presets = _figure_presets()
    if fig_id not in presets:
        raise ConfigError(f"figure: unknown id {fig_id}, valid ids are 1..9")
    preset = presets[fig_id]
    rows: list[MetricPoint] = []
    for label, cfg in preset["curves"]:
        spec = SweepSpec(
            metric=preset["metric"], snr_db=preset["snr"], mode="analytic",
            trials=0, seed=0, config=cfg, label=label,
        )
        rows.extend(run_sweep(spec, ctrl))
    write_csv(rows, output_path)
    return rows


# ---------------------------------------------------------------------------
# cross-oracle validation
# ---------------------------------------------------------------------------

def validate(
    config: SystemConfig,
    trials: int,
    seed: int,
    ctrl: SeriesControl = CLI_CTRL,
) -> tuple[bool, list[str]]:
    """Run the cross-oracle suite; returns (all_passed, report lines).

    Checks: decoding-set partition of unity, series vs quadrature for every
    selection candidate, symmetric vs general formula agreement, the
    rho_f = 1 degenerate branch, and analytic vs Monte Carlo z-scores.
    """
    if trials < 1:
        raise ConfigError("trials: must be >= 1")
    if seed < 0:
        raise ConfigError("seed: must be >= 0")
    report: list[str] = []
    ok = True

    def check(name: str, passed: bool, detail: str) -> None:
        nonlocal ok
        ok = ok and passed
        report.append(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")

    total = sum(analytic.prob_decoding_set(config, D) for D in analytic.all_decoding_sets(config.M))
    check("partition-of-unity", abs(total - 1.0) < 1e-12, f"|sum-1| = {abs(total - 1.0):.3g} (tol 1e-12)")

    full = analytic.DecodingSet(tuple(range(config.M)))
    worst = 0.0
    for m in full:
        series = analytic.outage_conditional(full, m, config, ctrl)
        quad = analytic.outage_conditional_quadrature(full, m, config)
        worst = max(worst, abs(series - quad))
    check("series-vs-quadrature", worst < 1e-6, f"max |diff| = {worst:.3g} (tol 1e-6)")

    if config.is_symmetric():
        pairs = {
            "outage": (analytic.outage_total_general, analytic.outage_total_symmetric),
            "aser": (analytic.aser_total_general, analytic.aser_total_symmetric),
            "capacity": (analytic.capacity_lb_avg_general, analytic.capacity_lb_avg_symmetric),
        }
        for name, (gen, sym) in pairs.items():
            g = gen(config, ctrl).value
            s = sym(config, ctrl).value
            rel = abs(g - s) / max(abs(s), 1e-300)
            check(f"symmetric-vs-general[{name}]", rel < 1e-10, f"rel diff = {rel:.3g} (tol 1e-10)")

    rel_links = config.relay_params()
    if config.is_symmetric() and rel_links[0].degenerate:
        lam = rel_links[0].lam
        r_o = config.r_o
        direct = 0.0
        for D in analytic.all_decoding_sets(config.M):
            w = analytic.prob_decoding_set(config, D)
            direct += w * (1.0 if not D.members else (-math.expm1(-lam * r_o)) ** len(D))
        got = analytic.outage_total(config, ctrl).value
        check(
            "degenerate-order-statistics", abs(got - direct) < 1e-12,
            f"|diff| = {abs(got - direct):.3g} (tol 1e-12)",
        )

    z_tol = 4.0  # validate() runs at arbitrary trial counts; keep false alarms rare
    for name, sim in _SIMULATE.items():
        value = _ANALYTIC[name](config, ctrl).value
        est = sim(config, trials, seed)
        diff = abs(value - est.mean)
        z = diff / est.std_error if est.std_error > 0 else (0.0 if diff < 1e-15 else math.inf)
        check(f"analytic-vs-mc[{name}]", z < z_tol, f"z = {z:.2f} (tol {z_tol})")

    return ok, report


# ---------------------------------------------------------------------------
# click wiring
# ---------------------------------------------------------------------------

def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        values = [float(p) for p in text.split(":")]
    except ValueError:
        values = []
    if len(values) in (1, 3) and all(math.isfinite(v) for v in values):
        if len(values) == 1:
            return (values[0],)
        start, stop, step = values
        if step > 0 and stop >= start:
            # the point count, checked before anything is built
            if _grid_steps(start, stop, step) >= _GRID_MAX_POINTS:
                raise ConfigError(f"snr-db: {text!r} has more than {_GRID_MAX_POINTS} points")
            grid = _grid(start, stop, step)
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ConfigError(
                    f"snr-db: {text!r} rounds to points that are not strictly increasing"
                    " at 10 decimals"
                )
            return grid
    raise ConfigError(
        f"snr-db: expected START:STOP:STEP or a single value, all finite, got {text!r}"
    )


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@contextlib.contextmanager
def _exit_codes():
    """Configuration errors exit with code 2, numerical failures with 3."""
    try:
        yield
    except ConfigError as e:
        _fail(2, str(e))
    except SeriesError as e:
        _fail(3, str(e))


@click.group()
def main():
    """Exact performance analysis of decode-and-forward relay selection with
    outdated CSI and channel estimation errors, cross-checked by simulation."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(), help="JSON config file")
@click.option("--metric", type=click.Choice(METRICS), required=True)
@click.option("--snr-db", "snr_db", default="0:30:2", show_default=True, help="START:STOP:STEP grid in dB")
@click.option("--mode", type=click.Choice(MODES), default="analytic", show_default=True)
@click.option("--trials", default=100_000, show_default=True)
@click.option("--seed", default=42, show_default=True)
@click.option("--out", "out_path", default="-", show_default=True, help="output CSV path, - for stdout")
@click.option("--lambda-convention", type=click.Choice(CONVENTIONS), default=None,
              help="override the config's convention")
@click.option("--in", "in_path", default=None, type=click.Path(),
              help="prior aser sweep CSV to differentiate (metric=diversity only)")
def sweep(config_path, metric, snr_db, mode, trials, seed, out_path, lambda_convention, in_path):
    """Evaluate one metric over an SNR grid; optionally cross-check with MC."""
    with _exit_codes():
        if in_path is not None:
            if metric != "diversity":
                raise ConfigError("--in only applies to the diversity metric")
            rows = diversity_rows_from_csv(in_path)
        else:
            config = load_config_file(config_path)
            if lambda_convention:
                try:
                    config = replace(config, lambda_convention=lambda_convention)
                except ValueError as e:
                    raise ConfigError(f"lambda-convention: {e}") from e
            spec = SweepSpec(metric=metric, snr_db=_parse_grid(snr_db), mode=mode,
                             trials=trials, seed=seed, config=config)
            rows = run_sweep(spec)
        write_csv(rows, out_path)


@main.command()
@click.option("--figure", type=int, required=True, help="figure id, 1..9")
@click.option("--out", "out_path", default="-", show_default=True)
def reproduce(figure, out_path):
    """Emit the CSV for one of the nine reference figures ("paper" convention)."""
    with _exit_codes():
        reproduce_figure(figure, out_path)


@main.command("validate")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--trials", default=200_000, show_default=True)
@click.option("--seed", default=42, show_default=True)
def validate_cmd(config_path, trials, seed):
    """Cross-validate every oracle pair on the given configuration."""
    with _exit_codes():
        config = load_config_file(config_path)
        ok, report = validate(config, trials, seed)
    for line in report:
        click.echo(line)
    if not ok:
        sys.exit(1)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
def info(config_path):
    """Print the derived per-link constants for a configuration."""
    with _exit_codes():
        config = load_config_file(config_path)

    def link_doc(lp):
        return {
            "lam": lp.lam, "c": lp.c, "theta": lp.theta,
            "sigma2_hat": lp.sigma2_hat, "sigma2_u": lp.sigma2_u,
            "sigma2_e": lp.sigma2_e, "rho_e": lp.rho_e, "rho_f": lp.rho_f,
        }
    out = {
        "M": config.M,
        "power": config.power,
        "snr_db": 10.0 * math.log10(config.power),
        "rate": config.rate,
        "r_o": config.r_o,
        "alpha": config.alpha,
        "beta": config.beta,
        "lambda_convention": config.lambda_convention,
        "source_links": [link_doc(lp) for lp in config.source_params()],
        "relay_links": [link_doc(lp) for lp in config.relay_params()],
    }
    click.echo(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
