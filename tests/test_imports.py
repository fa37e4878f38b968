"""What importing relaysel and running each command loads, each checked in a
fresh interpreter: the closed forms import neither click nor the simulator,
its thread pool or scipy."""

import json
import subprocess
import sys

import pytest

# modules that no import of the library and no analytic command may load
HEAVY = ("click", "relaysel.montecarlo", "concurrent.futures", "scipy")


def run_python(code: str) -> str:
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    return cp.stdout.strip().splitlines()[-1]


def loaded(prefixes=HEAVY) -> str:
    """Code that prints, as JSON, the loaded modules under `prefixes`."""
    return (
        "print(json.dumps(sorted(m for m in sys.modules "
        f"if any(m == p or m.startswith(p + '.') for p in {tuple(prefixes)!r}))))"
    )


@pytest.mark.parametrize("module", ["relaysel", "relaysel.cli"])
def test_import_loads_no_click_simulator_or_scipy(module):
    out = run_python(f"import json, sys, {module}; {loaded()}")
    assert json.loads(out) == []


def test_simulator_names_resolve_on_first_access():
    out = run_python(
        "import json, sys, relaysel; "
        "before = 'relaysel.montecarlo' in sys.modules; "
        "fn = relaysel.simulate_outage; "
        "import relaysel.montecarlo as mc; "
        "same = [getattr(relaysel, n) is getattr(mc, n) for n in "
        "('McEstimate', 'simulate_outage', 'simulate_ser', 'simulate_capacity')]; "
        "print(json.dumps([before, fn is mc.simulate_outage, same, "
        "{'McEstimate', 'simulate_outage'} <= set(dir(relaysel))]))"
    )
    assert json.loads(out) == [False, True, [True] * 4, True]


def test_star_import_binds_every_public_name():
    out = run_python(
        "import json, relaysel; ns = {}; exec('from relaysel import *', ns); "
        "print(json.dumps([n for n in relaysel.__all__ if n not in ns]))"
    )
    assert json.loads(out) == []


def test_unknown_package_attribute_is_an_attribute_error():
    import relaysel

    with pytest.raises(AttributeError, match="no attribute 'simulate_everything'"):
        relaysel.simulate_everything  # noqa: B018


def test_cli_main_is_the_click_group():
    # the console script's entry point is relaysel.cli:main
    out = run_python(
        "import json; from relaysel.cli import main; import relaysel.commands as c; "
        "print(json.dumps([main is c.main, type(main).__name__]))"
    )
    assert json.loads(out) == [True, "Group"]


@pytest.mark.parametrize("args, simulates", [
    (["info", "--config", "{cfg}"], False),
    (["reproduce", "--figure", "1", "--out", "{tmp}/f1.csv"], False),
    (["sweep", "--config", "{cfg}", "--metric", "aser", "--snr-db", "0:10:5",
      "--mode", "analytic", "--out", "{tmp}/a.csv"], False),
    (["sweep", "--config", "{cfg}", "--metric", "outage", "--snr-db", "10",
      "--mode", "both", "--trials", "2000", "--out", "{tmp}/b.csv"], True),
    (["validate", "--config", "{cfg}", "--trials", "2000"], True),
], ids=["info", "reproduce", "sweep-analytic", "sweep-both", "validate"])
def test_only_simulating_commands_load_the_simulator(tmp_path, args, simulates):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"M": 2, "rho_f": 0.9, "power_db": 10}))
    args = [a.format(cfg=cfg, tmp=tmp_path) for a in args]
    out = run_python(
        "import json, sys; from relaysel.cli import main; "
        f"main({args!r}, standalone_mode=False); "
        "print(json.dumps('relaysel.montecarlo' in sys.modules))"
    )
    assert json.loads(out) is simulates


def test_capacity_commands_load_no_scipy(tmp_path):
    # the capacity kernel's E1 (figure 9, and a fresh-link capacity sweep at
    # b = r/P in [1, 3]) is relaysel's own: scipy.special's import would add
    # about 270 ms to each of these cold starts
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"M": 3, "rho_f": 1.0}))
    commands = [
        ["reproduce", "--figure", "9", "--out", str(tmp_path / "f9.csv")],
        ["sweep", "--config", str(cfg), "--metric", "capacity", "--mode", "analytic",
         "--snr-db", "0:4:2", "--out", str(tmp_path / "c.csv")],
    ]
    out = run_python(
        "import json, sys; from relaysel.cli import main; "
        f"[main(args, standalone_mode=False) for args in {commands!r}]; "
        "print(json.dumps('scipy' in sys.modules))"
    )
    assert json.loads(out) is False
    assert len((tmp_path / "c.csv").read_text().splitlines()) == 4
