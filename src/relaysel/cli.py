"""Library side of the command-line harness: configuration loading, sweeps,
figure presets, cross-oracle validation and CSV output.

This module imports neither click nor the Monte-Carlo simulator, so that
importing it (as scripts and the benchmark do) loads only the closed forms:
the simulator is imported when a sweep or `validate` first simulates, and
the click commands live in relaysel.commands, which only `python -m
relaysel` and the `relaysel` console script load.  `relaysel.cli.main`
still names the click group, resolved on first access, for the console
script's `relaysel.cli:main` entry point.

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

Errors are typed: ConfigError for a rejected configuration and SeriesError
for a numerical failure, which the commands turn into exit codes 2 and 3.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from . import analytic
from .channel import CONVENTIONS, FadingParams, PowerRangeError, SystemConfig, db_to_linear
from .diversity import SweepCurve, effective_diversity
from .specfn import SeriesError

if TYPE_CHECKING:
    from .montecarlo import McEstimate

METRICS = ("outage", "aser", "capacity", "diversity")
MODES = ("analytic", "mc", "both")

# far above any real sweep: a grid with more points is a mistyped STEP
_GRID_MAX_POINTS = 100_000

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
            power = db_to_linear(power_db)
        except ValueError as e:
            raise ConfigError(f"power_db: {e}") from e
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

class MetricPoint(NamedTuple):
    """One CSV row, its fields the CSV columns in order.  A named tuple, not
    a frozen dataclass: a sweep builds one per row, and the dataclass
    __init__ costs several times as much.  So a row is a tuple (it unpacks,
    orders and compares equal to a plain tuple of its cells), and the
    `dataclasses` helpers do not apply to it; `_replace` and `_asdict` do."""

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


CSV_COLUMNS = MetricPoint._fields


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
        if self.metric == "diversity" and self.mode != "analytic":
            raise ConfigError(f"mode: a diversity sweep is analytic only, got {self.mode!r}")
        if not self.snr_db:
            raise ConfigError("snr_db: grid must be nonempty")
        try:
            configs = self.config.at_powers([db_to_linear(snr) for snr in self.snr_db])
        except PowerRangeError as e:
            raise ConfigError(f"snr_db: at {float(self.snr_db[e.index])!r} dB: {e}") from e
        except ValueError as e:
            raise ConfigError(f"snr_db: {e}") from e
        # the points' configs, for run_sweep: a plain attribute, not a field,
        # as SystemConfig._symmetric is, so ==, hash and replace ignore it
        object.__setattr__(self, "_configs", configs)
        # the slope needs two points, and SweepCurve a strictly increasing grid
        grid = self.snr_db
        if self.metric == "diversity" and (
            len(grid) < 2 or any(b <= a for a, b in zip(grid, grid[1:]))
        ):
            raise ConfigError("snr_db: a diversity sweep needs at least two increasing points")
        if self.mode in ("mc", "both") and self.trials < 1:
            raise ConfigError("trials: must be >= 1 when Monte Carlo runs")
        if self.mode in ("mc", "both") and self.seed < 0:
            raise ConfigError("seed: must be >= 0 when Monte Carlo runs")


# lambdas, so that each call looks the function up on the module: a tracer
# or a test that replaces analytic.* at run time is seen, where a reference
# captured at import would keep calling the original
_ANALYTIC = {
    "outage": lambda cfg: analytic.outage_total(cfg),
    "aser": lambda cfg: analytic.aser_total(cfg),
    "capacity": lambda cfg: analytic.capacity_lb_avg(cfg),
}


def _montecarlo():
    """relaysel.montecarlo, imported at the first simulation: the analytic
    commands never load the simulator or its thread pool."""
    from . import montecarlo

    return montecarlo


# looked up at each call, as _ANALYTIC is, from the simulator module
_SIMULATE = {
    "outage": lambda *args, **kwargs: _montecarlo().simulate_outage(*args, **kwargs),
    "aser": lambda *args, **kwargs: _montecarlo().simulate_ser(*args, **kwargs),
    "capacity": lambda *args, **kwargs: _montecarlo().simulate_capacity(*args, **kwargs),
}


def _row_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index) % (1 << 63)


def _z_score(value: float, est: McEstimate, counted: bool = False) -> float:
    """|value - MC mean| in standard errors.  A zero standard error gives 0
    only when the two agree exactly, and inf otherwise.

    A counted estimate (0/1 per trial) with mean 0 or 1 saw the same outcome
    in all n trials.  With counted=True it is scored by that outcome's exact
    probability P under value = p, (1 - p)^n or p^n, given as the two-sided
    normal z with the same tail: 0 at P = 1, inf where P underflows or p is
    not a probability.
    """
    diff = abs(value - est.mean)
    if est.std_error > 0:
        return diff / est.std_error
    if not (counted and est.mean in (0.0, 1.0) and 0.0 <= value <= 1.0):
        return 0.0 if diff == 0.0 else math.inf
    if est.mean == 0.0:
        log_p = math.log1p(-value) if value < 1.0 else -math.inf
    else:
        log_p = math.log(value) if value > 0.0 else -math.inf
    half = 0.5 * math.exp(est.trials * log_p)
    if half == 0.0:
        return math.inf
    if half >= 0.5:
        return 0.0
    from statistics import NormalDist  # not at module level: ~3 ms of every cold start

    return -NormalDist().inv_cdf(half)


def _mc_z_score(metric: str, config: SystemConfig, value: float, est: McEstimate) -> float:
    """`_z_score` of an analytic value against its Monte-Carlo estimate.  An
    outage trial counts a 0/1 outcome.  A capacity trial is 0 when no relay
    decodes, and almost surely only then, so n capacity trials that all read
    0 count no decoding event and are scored by its probability Pr[D = {}]^n."""
    if metric == "capacity" and est.mean == 0.0 and est.std_error == 0.0:
        empty = analytic.prob_decoding_set(config, analytic.DecodingSet(()))
        return _z_score(1.0 - empty, est, counted=True)
    return _z_score(value, est, counted=metric == "outage")


def run_sweep(spec: SweepSpec) -> list[MetricPoint]:
    """One row per grid point; `both` mode adds MC columns and a z-score.
    Numerical failures are surfaced per row (value left empty) rather than
    aborting the whole sweep.  A diversity sweep evaluates the ASER at its
    points and returns the slopes of that curve."""
    metric = "aser" if spec.metric == "diversity" else spec.metric
    rows = []
    for i, (snr, cfg) in enumerate(zip(spec.snr_db, spec._configs)):
        value = terms = cond = None
        if spec.mode in ("analytic", "both"):
            try:
                res = _ANALYTIC[metric](cfg)
                value, terms, cond = res.value, res.series_terms_used, res.condition_estimate
            except SeriesError as e:
                print(f"warning: snr {snr} dB: {e}", file=sys.stderr, flush=True)
        mean = stderr = z = None
        if spec.mode in ("mc", "both"):
            est = _SIMULATE[metric](cfg, spec.trials, _row_seed(spec.seed, i))
            mean, stderr = est.mean, est.std_error
            if value is not None:
                z = _mc_z_score(metric, cfg, value, est)
        rows.append(MetricPoint(snr, metric, spec.mode, value, mean, stderr, z, terms, cond, spec.label))
    if spec.metric != "diversity":
        return rows
    failed = [r.snr_db for r in rows if r.value is None]
    if failed:
        raise SeriesError(f"diversity: the ASER series failed at snr_db {failed}, so no slope")
    # an ASER below the float range reads 0.0, and log 0 has no slope
    zero = [r.snr_db for r in rows if r.value == 0.0]
    if zero:
        raise SeriesError(f"diversity: the ASER is 0.0 at snr_db {zero}, so no slope")
    return diversity_rows([(r.snr_db, r.value) for r in rows], spec.label)


def diversity_rows(points: list[tuple[float, float]], label: str = "") -> list[MetricPoint]:
    """Differentiate an (snr_db, aser) table into diversity-order rows."""
    curve = SweepCurve(tuple(points))
    return [
        MetricPoint(s, "diversity", "analytic", d, None, None, None, None, None, label)
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


_WRITER_CELLS = (str, float)


def _cells(r: MetricPoint) -> list:
    # a str, and a Python float (most cells of a sweep), go to the writer as
    # they are: it writes a float's repr, as _cell does, in C.  Every other
    # cell (None, int, bool, numpy scalars) goes through _cell
    return [v if type(v) in _WRITER_CELLS else _cell(v) for v in r]


def render_csv(rows: list[MetricPoint]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(map(_cells, rows))
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


_RHO_FS = (0.6, 0.7, 0.8, 0.9, 1.0)
_RHO_ES = (0.9, 0.95, 0.99, 1.0)

# figure id -> (metric, SNR grid (start, stop, step) in dB, curve builder);
# a figure builds only its own curves
_FIGURES = {
    1: ("outage", (0, 30, 2), lambda: [(f"rho_f={r}", _sym(4, 1.0, r)) for r in _RHO_FS]),
    2: ("outage", (0, 30, 2), lambda: [
        (f"M={m},rho_f={r}", _sym(m, 1.0, r)) for m in (2, 3, 4) for r in (0.9, 1.0)
    ]),
    3: ("outage", (0, 40, 2), lambda: [(f"rho_e={r}", _sym(2, r, 0.9)) for r in _RHO_ES]),
    4: ("aser", (0, 30, 2), lambda: [(f"rho_f={r}", _sym(3, 1.0, r)) for r in _RHO_FS]),
    5: ("aser", (0, 40, 2), lambda: [(f"rho_e={r}", _sym(2, r, 0.9)) for r in _RHO_ES]),
    6: ("diversity", (5, 45, 2), lambda: [
        (f"rho_f={r}", _sym(4, 1.0, r)) for r in (0.6, 0.7, 0.8, 0.9)
    ]),
    7: ("diversity", (5, 45, 2), lambda: [(f"M={m}", _sym(m, 1.0, 0.9)) for m in (2, 3, 4)]),
    8: ("diversity", (5, 45, 2), lambda: [(f"rho_e={r}", _sym(3, r, 0.9)) for r in _RHO_ES]),
    9: ("capacity", (0, 40, 2), lambda: [
        ("rho_f=1.0,rho_e=1.0", _sym(3, 1.0, 1.0)),
        ("rho_f=0.9,rho_e=1.0", _sym(3, 1.0, 0.9)),
        ("rho_f=0.6,rho_e=1.0", _sym(3, 1.0, 0.6)),
        ("rho_f=0.9,rho_e=0.99", _sym(3, 0.99, 0.9)),
        ("rho_f=0.9,rho_e=0.95", _sym(3, 0.95, 0.9)),
        ("rho_f=0.9,rho_e=0.9", _sym(3, 0.9, 0.9)),
    ]),
}


def reproduce_figure(fig_id: int, output_path: str) -> list[MetricPoint]:
    """Emit the analytic CSV behind one of the nine reference figures.

    Presets follow the source experiment set-up: BPSK (alpha=1, beta=2),
    rate 1 bits/s/Hz, unit estimate variance, "paper" lambda convention.
    rho_e grids are {0.9, 0.95, 0.99, 1} where the captions only say
    "varying".
    """
    if fig_id not in _FIGURES:
        raise ConfigError(f"figure: unknown id {fig_id}, valid ids are 1..9")
    metric, grid, curves = _FIGURES[fig_id]
    snr = _grid(*grid)
    rows: list[MetricPoint] = []
    for label, cfg in curves():
        spec = SweepSpec(
            metric=metric, snr_db=snr, mode="analytic", trials=0, seed=0, config=cfg, label=label,
        )
        rows.extend(run_sweep(spec))
    write_csv(rows, output_path)
    return rows


# ---------------------------------------------------------------------------
# cross-oracle validation
# ---------------------------------------------------------------------------

def validate(config: SystemConfig, trials: int, seed: int) -> tuple[bool, list[str]]:
    """Run the cross-oracle suite; returns (all_passed, report lines).

    Checks: decoding-set partition of unity, closed form vs quadrature for
    every distinct selection candidate, symmetric vs general formula
    agreement, the outage total against its exact product form on any
    config whose relay links all have rho_f = 1 (symmetric or not), and
    analytic vs Monte Carlo z-scores.
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
    # on identical links every candidate is the same integral, bit for bit
    candidates = full.members[:1] if config.is_symmetric() else full.members
    worst = 0.0
    for m in candidates:
        closed = analytic.outage_conditional(full, m, config)
        quad = analytic.outage_conditional_quadrature(full, m, config)
        worst = max(worst, abs(closed - quad) / max(abs(quad), 1e-300))
    check("closed-form-vs-quadrature", worst < 1e-8, f"max rel diff = {worst:.3g} (tol 1e-8)")

    if config.is_symmetric():
        pairs = {
            "outage": (analytic.outage_total_general, analytic.outage_total_symmetric),
            "aser": (analytic.aser_total_general, analytic.aser_total_symmetric),
            "capacity": (analytic.capacity_lb_avg_general, analytic.capacity_lb_avg_symmetric),
        }
        for name, (gen, sym) in pairs.items():
            g = gen(config).value
            s = sym(config).value
            rel = abs(g - s) / max(abs(s), 1e-300)
            check(f"symmetric-vs-general[{name}]", rel < 1e-10, f"rel diff = {rel:.3g} (tol 1e-10)")

    rel_links = config.relay_params()
    if all(lp.degenerate for lp in rel_links):
        # fresh links: the selected relay is the strongest decoder, so an
        # outage needs each relay to fail decoding or to be below R_o
        r_o = config.r_o
        direct = 1.0
        for src, rel in zip(config.source_params(), rel_links):
            p = analytic.prob_relay_decodes(src, r_o)
            direct *= 1.0 - p + p * -math.expm1(-rel.lam * r_o)
        got = analytic.outage_total(config).value
        rel = abs(got - direct) / max(abs(direct), 1e-300)
        check("degenerate-order-statistics", rel < 1e-10, f"rel diff = {rel:.3g} (tol 1e-10)")

    z_tol = 4.0  # validate() runs at arbitrary trial counts; keep false alarms rare
    try:
        for name, sim in _SIMULATE.items():
            value = _ANALYTIC[name](config).value
            # the first metric runs one pass for all three; the others read it
            est = sim(config, trials, seed, shared=True)
            z = _mc_z_score(name, config, value, est)
            check(f"analytic-vs-mc[{name}]", z < z_tol, f"z = {z:.2f} (tol {z_tol})")
    finally:
        _montecarlo().clear_shared_pass()

    return ok, report


# ---------------------------------------------------------------------------
# the --snr-db grid text
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


def __getattr__(name: str):
    # the click group, for the `relaysel.cli:main` entry point (PEP 562)
    if name == "main":
        from .commands import main

        return main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    from .commands import main

    main()
