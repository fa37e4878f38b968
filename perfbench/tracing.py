"""Per-layer tracing from outside the program.

The tracer replaces public functions of relaysel, at the name their caller
looks up, with wrappers that record calls and time, and puts the originals
back on exit.  A span's self time is its duration minus the time of the
wrapped calls made inside it.  Nothing is wrapped outside a `with Tracer()`
block, so untraced passes run the program as shipped.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

from relaysel import analytic, channel, cli, montecarlo, specfn
from relaysel.specfn import SeriesError

MODULES = {
    "specfn": specfn,
    "channel": channel,
    "analytic": analytic,
    "montecarlo": montecarlo,
    "cli": cli,
}

METRIC_SPANS = ("analytic.outage_total", "analytic.aser_total", "analytic.capacity_lb_avg")
SIMULATE_SPANS = {
    "outage": "montecarlo.simulate_outage",
    "aser": "montecarlo.simulate_ser",
    "capacity": "montecarlo.simulate_capacity",
}
# counters read at layer boundaries, with their units; names ending in .max
# keep the largest value seen, the others sum
COUNTERS = {
    "specfn.log_gamma_mean_table.entries": "count",
    "analytic.series_terms.sum": "count",
    "analytic.series_terms.max": "count",
    "analytic.condition.max": "ratio",
    "analytic.series_errors": "count",
    "channel.sample_gamma_batch.trials": "count",
    "montecarlo.trials": "count",
    "cli.validate.checks": "count",
    "cli.validate.checks_failed": "count",
}


@dataclass(frozen=True)
class Target:
    """A name to wrap: `module.attr`, recorded as span `span`.  `branch`, when
    set, also books the call and its self time to that bucket."""

    module: str
    attr: str
    span: str
    branch: str | None = None


def _targets() -> list[Target]:
    out = [
        Target("specfn", name, f"specfn.{name}")
        for name in (
            "lower_gamma_ratio_table", "mean_q_gamma_table", "log_gamma_mean_table",
            "qapprox_coefficients", "marcum_q1", "ln_factorial", "poisson_weight_window",
        )
    ]
    for metric in ("outage_total", "aser_total", "capacity_lb_avg"):
        span = f"analytic.{metric}"
        out.append(Target("analytic", metric, span))
        # the dispatcher looks its branches up in analytic's namespace, and
        # validate() calls them directly; both count toward the metric
        out.append(Target("analytic", f"{metric}_general", span, "analytic.general"))
        out.append(Target("analytic", f"{metric}_symmetric", span, "analytic.symmetric"))
    out += [
        Target("analytic", "prob_decoding_set", "analytic.prob_decoding_set"),
        Target("analytic", "outage_conditional_quadrature", "analytic.outage_conditional_quadrature"),
        Target("channel", "derive_link_params", "channel.derive_link_params"),
        # montecarlo calls its own `from .channel import sample_gamma_batch`
        Target("montecarlo", "sample_gamma_batch", "channel.sample_gamma_batch"),
        # cli imported effective_diversity by name
        Target("cli", "effective_diversity", "diversity.effective_diversity"),
        Target("cli", "run_sweep", "cli.run_sweep"),
        Target("cli", "validate", "cli.validate"),
        Target("cli", "render_csv", "cli.render_csv"),
    ]
    return out


def span_names() -> list[str]:
    """Every span and branch bucket the tracer can record, in report order."""
    names = [n for t in _targets() for n in (t.span, t.branch) if n]
    return list(dict.fromkeys(names + list(SIMULATE_SPANS.values())))


class _Frame:
    __slots__ = ("span", "start", "child")

    def __init__(self, span: str, start: float):
        self.span = span
        self.start = start
        self.child = 0.0


class Tracer:
    """Context manager that wraps every target for the duration of a block."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self.present: set[str] = set()
        self.absent: list[str] = []
        self._stack: list[_Frame] = []
        self._restore: list[Callable[[], None]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn: Callable, span: str, branch: str | None) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = not stack or stack[-1].span != span
            frame = _Frame(span, clock())
            stack.append(frame)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except SeriesError as e:
                error = e
                raise
            finally:
                end = clock()
                stack.pop()
                incl = end - frame.start
                own = incl - frame.child
                if stack:
                    stack[-1].child += incl
                self.self_s[span] += own
                if outer:
                    self.calls[span] += 1
                    self.incl_s[span] += incl
                    self._observe(span, args, result, error)
                if branch is not None:
                    self.calls[branch] += 1
                    self.self_s[branch] += own

        wrapper.perfbench_span = span
        return wrapper

    def _observe(self, span: str, args: tuple, result: Any, error: Exception | None) -> None:
        """Counters read from arguments and results at the layer boundary."""
        if span in METRIC_SPANS:
            if error is not None:
                self.counts["analytic.series_errors"] += 1
            elif result is not None:
                c = self.counts
                c["analytic.series_terms.sum"] += result.series_terms_used
                c["analytic.series_terms.max"] = max(c["analytic.series_terms.max"], result.series_terms_used)
                c["analytic.condition.max"] = max(c["analytic.condition.max"], result.condition_estimate)
        elif span == "specfn.log_gamma_mean_table":
            self.counts["specfn.log_gamma_mean_table.entries"] += args[0] + 1
        elif span == "channel.sample_gamma_batch":
            self.counts["channel.sample_gamma_batch.trials"] += args[2]
        elif span in SIMULATE_SPANS.values():
            self.counts["montecarlo.trials"] += args[1]
        elif span == "cli.validate" and result is not None:
            _, report = result
            self.counts["cli.validate.checks"] += len(report)
            self.counts["cli.validate.checks_failed"] += sum(
                not line.startswith("PASS") for line in report)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """calls and self_s of every present span, the counters, and the
        Monte-Carlo rate; spans whose target is absent are left out."""
        m: dict[str, tuple[float, str]] = {}
        for span in span_names():
            if span in self.present:
                m[f"{span}.calls"] = (self.calls[span], "count")
                m[f"{span}.self_s"] = (self.self_s[span], "s")
        for name, unit in COUNTERS.items():
            m[name] = (self.counts[name], unit)
        sim_s = sum(self.incl_s[s] for s in SIMULATE_SPANS.values())
        m["montecarlo.trials_per_s"] = (self.counts["montecarlo.trials"] / sim_s if sim_s else 0.0, "1/s")
        return m

    def __enter__(self) -> "Tracer":
        for t in _targets():
            module = MODULES[t.module]
            fn = getattr(module, t.attr, None)
            if fn is None:
                self.absent.append(f"{t.module}.{t.attr}")
                continue
            self.present.add(t.span)
            if t.branch:
                self.present.add(t.branch)
            setattr(module, t.attr, self._wrap(fn, t.span, t.branch))
            self._restore.append(lambda m=module, a=t.attr, f=fn: setattr(m, a, f))
        # cli._SIMULATE captured the simulate_* functions at import
        table = getattr(cli, "_SIMULATE", None)
        if table is None:
            self.absent.append("cli._SIMULATE")
        else:
            saved = dict(table)
            for key, fn in saved.items():
                span = SIMULATE_SPANS.get(key, f"montecarlo.simulate_{key}")
                self.present.add(span)
                table[key] = self._wrap(fn, span, None)
            self._restore.append(lambda: table.update(saved))
        return self

    def __exit__(self, *exc) -> None:
        for undo in reversed(self._restore):
            undo()
        self._restore.clear()


def wrapped_names() -> list[str]:
    """Targets that currently hold a tracer wrapper (must be empty outside
    a traced block)."""
    found = []
    for t in _targets():
        if hasattr(getattr(MODULES[t.module], t.attr, None), "perfbench_span"):
            found.append(f"{t.module}.{t.attr}")
    for key, fn in getattr(cli, "_SIMULATE", {}).items():
        if hasattr(fn, "perfbench_span"):
            found.append(f"cli._SIMULATE[{key}]")
    return found
