#!/usr/bin/env python3
"""relaysel benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload figures|scaling|validate \
        --seed N --seconds S --trace 0|1

Run from a checkout that holds `src/relaysel`.  With --trace 0 the last line
of stdout is a JSON object with the end-to-end metrics (wall_s, setup_s,
peak_rss_mb); with --trace 1 it carries the per-layer metrics of a separate
traced pass.  The line before it stamps the run with the machine, thread and
library versions, source digest, seed and the unscaled times.  Failed gate
checks are listed on stderr.  LAYERS.md maps every metric to its layer and
workload.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 3
COLD_STARTS = 5
COLD_START_TIMEOUT_S = 60

# layers each workload must reach; a present target with no call there means
# the trace lost its hook (or the workload stopped exercising the layer)
PREDICTED = {
    "figures": ["specfn.qapprox_coefficients", "specfn.ln_factorial", "specfn.lower_gamma_ratio_table",
                "analytic.outage_total", "analytic.aser_total", "analytic.capacity_lb_avg",
                "analytic.symmetric", "channel.derive_link_params",
                "diversity.effective_diversity", "cli.run_sweep", "cli.render_csv"],
    "scaling": ["specfn.lower_gamma_ratio_table", "specfn.mean_q_gamma_table",
                "specfn.log_gamma_mean_table", "analytic.outage_total", "analytic.aser_total",
                "analytic.capacity_lb_avg", "analytic.general", "analytic.symmetric",
                "analytic.prob_decoding_set", "channel.derive_link_params", "cli.run_sweep"],
    "validate": ["specfn.marcum_q1", "analytic.outage_conditional_quadrature",
                 "analytic.prob_decoding_set", "channel.derive_link_params",
                 "channel.sample_gamma_batch", "montecarlo.simulate_outage",
                 "montecarlo.simulate_ser", "montecarlo.simulate_capacity", "cli.validate"],
}


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _cold_start(workload: str, seed: int, importtime: bool = False) -> tuple[float, dict, str]:
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        str(HERE / "coldstart.py"), "--workload", workload, "--seed", str(seed)]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=COLD_START_TIMEOUT_S)
    wall = time.perf_counter() - t
    if proc.returncode != 0:
        _fail(f"cold start failed:\n{proc.stderr}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def setup_times(workload: str, seed: int) -> tuple[float, float]:
    """Median over COLD_STARTS cold starts: (scaled, unscaled) seconds.  The
    child runs the calibration kernel itself, on the CPU it ran on, and that
    time is taken out of its wall time."""
    scaled, raw = [], []
    for _ in range(COLD_STARTS):
        wall, inner, _ = _cold_start(workload, seed)
        wall -= inner["cal_total_s"]
        raw.append(wall)
        scaled.append(wall * speed.scale(inner["cal_s"]))
    return statistics.median(scaled), statistics.median(raw)


def setup_breakdown(workload: str, seed: int) -> dict[str, float]:
    """Self import time per top-level package, from `python -X importtime`."""
    _, inner, log = _cold_start(workload, seed, importtime=True)
    self_us: dict[str, int] = defaultdict(int)
    for m in re.finditer(r"^import time:\s+(\d+) \|\s+\d+ \|\s+(\S+)", log, re.M):
        self_us[m.group(2).split(".")[0]] += int(m.group(1))
    return {
        "setup.import_numpy_s": self_us["numpy"] * 1e-6,
        "setup.import_scipy_s": self_us["scipy"] * 1e-6,
        "setup.import_relaysel_s": self_us["relaysel"] * 1e-6,
        "setup.inputs_s": inner["inputs_s"],
    }


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_pass(ops, outcome) -> tuple[list[float], list[float], float]:
    """One pass over the ops; returns per-op wall times, per-op speed scales
    and the CPU time of the ops."""
    times, scales, cpu = [], [], 0.0
    before = speed.calibrate()
    for op in ops:
        c, t = time.process_time(), time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception:  # an op that raises is a failed operation; keep measuring
            result, error = None, traceback.format_exc()
        times.append(time.perf_counter() - t)
        cpu += time.process_time() - c
        after = speed.calibrate()
        scales.append(speed.scale(before, after))
        before = after
        if error is None:
            outcome.add(op.check(result))
        else:
            print(error, end="", file=sys.stderr)
            outcome.add(type(outcome)(attempted=1, failed=1, notes=[f"{op.name}: raised"]))
    return times, scales, cpu


def measure(ops, seconds: float, outcome):
    """Untraced passes for `seconds` (at least MIN_PASSES).  Returns each
    op's median scaled time, its median unscaled time, the median CPU time
    per pass and the number of passes."""
    scaled: list[list[float]] = [[] for _ in ops]
    raw: list[list[float]] = [[] for _ in ops]
    cpus = []
    start = time.perf_counter()
    while True:
        times, scales, cpu = run_pass(ops, outcome)
        for acc_s, acc_r, t, k in zip(scaled, raw, times, scales):
            acc_s.append(t * k)
            acc_r.append(t)
        cpus.append(cpu)
        elapsed = time.perf_counter() - start
        if len(cpus) >= MIN_PASSES and elapsed * (len(cpus) + 1) / len(cpus) > seconds:
            break
    return ([statistics.median(ts) for ts in scaled], [statistics.median(ts) for ts in raw],
            statistics.median(cpus), len(cpus))


# ---------------------------------------------------------------------------
# stamp
# ---------------------------------------------------------------------------

def _blas_threads():
    import ctypes
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        cdll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(cdll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def stamp(seed: int, workload: str) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "relaysel").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "relaysel" / "__init__.py").is_file():
        _fail(f"no relaysel sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}")
    import relaysel

    if Path(relaysel.__file__).resolve().parent != (SRC / "relaysel").resolve():
        _fail(f"imported relaysel from {relaysel.__file__}, not from {SRC}")

    speed.calibrate()  # warm the kernel before its first timed use
    metrics: dict[str, tuple[float, str]] = {}
    unscaled: dict[str, float] = {}
    if args.trace:
        metrics.update((k, (v, "s")) for k, v in setup_breakdown(args.workload, args.seed).items())
    else:
        setup_s, unscaled["setup_s"] = setup_times(args.workload, args.seed)
        metrics["setup_s"] = (setup_s, "s")

    ops = workloads.build(args.workload, args.seed)
    wrapped = tracing.wrapped_names()
    if wrapped:
        _fail(f"tracer wrappers present in an untraced run: {wrapped}")
    outcome = workloads.Outcome()
    op_medians, raw_medians, cpu_s, passes = measure(ops, args.seconds, outcome)
    unscaled["wall_s"] = sum(raw_medians)
    correct = True

    if args.trace:
        tracer = tracing.Tracer()
        with tracer:
            traced_times, traced_scales, _ = run_pass(ops, outcome)
        if tracing.wrapped_names():
            _fail("tracer wrappers left in place after the traced pass")
        metrics.update(tracer.metrics())
        metrics.update((k, (t, "s")) for k, t in workloads.slice_times(ops, raw_medians).items())
        metrics["process.cpu_s"] = (cpu_s, "s")
        traced_wall = sum(t * k for t, k in zip(traced_times, traced_scales))
        metrics["process.trace_overhead_s"] = (traced_wall - sum(op_medians), "s")
        for span in PREDICTED[args.workload]:
            if span in tracer.present and tracer.calls[span] == 0:
                correct = False
                print(f"perfbench: predicted layer {span} recorded no call", file=sys.stderr)
        if tracer.absent:
            print(f"perfbench: trace targets absent from the program: {tracer.absent}", file=sys.stderr)
    else:
        metrics["wall_s"] = (sum(op_medians), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    for note in dict.fromkeys(outcome.notes):
        print(f"perfbench: {note}", file=sys.stderr)
    correct = correct and outcome.failed == 0
    info = stamp(args.seed, args.workload)
    info.update(passes=passes, series_errors=outcome.series_errors, unscaled=unscaled)
    print(json.dumps({"stamp": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
