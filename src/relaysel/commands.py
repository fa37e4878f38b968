"""Click commands of the `relaysel` console script: sweep, reproduce,
validate and info.

This is the only module that imports click.  `python -m relaysel` and the
console script load it (the script through `relaysel.cli.main`); a library
caller imports relaysel.cli, whose functions every command here calls
through the module, so a test or tracer that replaces one of them is seen.
The commands add option parsing and turn the library's typed errors into
exit codes: 0 success, 1 validation failure, 2 configuration error
(ConfigError), 3 numerical failure (SeriesError).
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import replace

import click
from click.core import ParameterSource

from . import cli
from .channel import CONVENTIONS
from .cli import METRICS, MODES, ConfigError, SweepSpec
from .specfn import SeriesError


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
@click.option("--config", "config_path", default=None, type=click.Path(),
              help="JSON config file (required unless --in is given)")
@click.option("--metric", type=click.Choice(METRICS), required=True)
@click.option("--snr-db", "snr_db", default="0:30:2", show_default=True, help="START:STOP:STEP grid in dB")
@click.option("--mode", type=click.Choice(MODES), default="analytic", show_default=True)
@click.option("--trials", default=100_000, show_default=True)
@click.option("--seed", default=42, show_default=True)
@click.option("--out", "out_path", default="-", show_default=True, help="output CSV path, - for stdout")
@click.option("--lambda-convention", type=click.Choice(CONVENTIONS), default=None,
              help="override the config's convention")
@click.option("--in", "in_path", default=None, type=click.Path(),
              help="prior aser sweep CSV to differentiate (metric=diversity only; reads no config)")
def sweep(config_path, metric, snr_db, mode, trials, seed, out_path, lambda_convention, in_path):
    """Evaluate one metric over an SNR grid; optionally cross-check with MC."""
    with _exit_codes():
        if in_path is not None:
            if metric != "diversity":
                raise ConfigError("--in only applies to the diversity metric")
            ctx = click.get_current_context()
            for param in ctx.command.params:
                given = ctx.get_parameter_source(param.name) is not ParameterSource.DEFAULT
                if given and param.name not in ("metric", "in_path", "out_path"):
                    raise ConfigError(f"{param.opts[0]}: does not apply with --in, which reads "
                                      "no config and simulates nothing")
            rows = cli.diversity_rows_from_csv(in_path)
        else:
            if config_path is None:
                raise ConfigError("--config: required unless --in is given")
            config = cli.load_config_file(config_path)
            if lambda_convention:
                try:
                    config = replace(config, lambda_convention=lambda_convention)
                except ValueError as e:
                    raise ConfigError(f"lambda-convention: {e}") from e
            spec = SweepSpec(metric=metric, snr_db=cli._parse_grid(snr_db), mode=mode,
                             trials=trials, seed=seed, config=config)
            rows = cli.run_sweep(spec)
        cli.write_csv(rows, out_path)


@main.command()
@click.option("--figure", type=int, required=True, help="figure id, 1..9")
@click.option("--out", "out_path", default="-", show_default=True)
def reproduce(figure, out_path):
    """Emit the CSV for one of the nine reference figures ("paper" convention)."""
    with _exit_codes():
        cli.reproduce_figure(figure, out_path)


@main.command("validate")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--trials", default=200_000, show_default=True)
@click.option("--seed", default=42, show_default=True)
def validate_cmd(config_path, trials, seed):
    """Cross-validate every oracle pair on the given configuration."""
    with _exit_codes():
        config = cli.load_config_file(config_path)
        ok, report = cli.validate(config, trials, seed)
    for line in report:
        click.echo(line)
    if not ok:
        sys.exit(1)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
def info(config_path):
    """Print the derived per-link constants for a configuration."""
    with _exit_codes():
        config = cli.load_config_file(config_path)

    def link_doc(fp, lp):
        return {
            "lam": lp.lam, "c": lp.c, "theta": lp.theta,
            "sigma2_hat": fp.sigma2_hat, "sigma2_u": fp.sigma2_u,
            "sigma2_e": fp.sigma2_e, "rho_e": fp.rho_e, "rho_f": lp.rho_f,
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
        "source_links": list(map(link_doc, config.source_links, config.source_params())),
        "relay_links": list(map(link_doc, config.relay_links, config.relay_params())),
    }
    click.echo(json.dumps(out, indent=2))
