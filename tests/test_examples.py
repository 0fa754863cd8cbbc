"""The example scripts must run end-to-end (they double as integration tests)."""

import importlib.util
import pathlib
import re
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

# Every example runs a complete simulation; the whole module is gated behind
# the `slow` marker so `-m "not slow"` gives a fast tier-1 run.
pytestmark = pytest.mark.slow


def _load(name: str):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(name.replace(".py", ""), path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_directory_has_at_least_three_scenarios():
    scripts = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))
    assert "quickstart.py" in scripts
    assert len(scripts) >= 3


def test_quickstart_example_runs(capsys):
    module = _load("quickstart.py")
    module.main()
    output = capsys.readouterr().out
    assert "Deliveries at L1" in output
    assert "same sequence: True" in output


def test_distributed_log_example_runs(capsys):
    module = _load("distributed_log.py")
    module.main()
    output = capsys.readouterr().out
    assert "Appends completed" in output
    assert "replica-0" in output


def test_recovery_demo_example_runs(capsys):
    module = _load("recovery_demo.py")
    # A tenth of the script's 90 simulated seconds (~29k operations each):
    # the same crash, checkpoints, trims, state transfer and replay in ~40 s
    # of wall time instead of seven minutes.
    module.CRASH_AT, module.RECOVER_AT, module.END = 2.0, 6.0, 9.0
    module.CHECKPOINT_INTERVAL, module.TRIM_INTERVAL = 1.0, 2.0
    module.main()
    output = capsys.readouterr().out
    assert "Recoveries completed:                  1" in output
    assert "Remote state transfers during recovery: 1" in output
    assert "matches an operational replica: True" in output
    assert re.search(r"Checkpoints written \(all replicas\): +[1-9]", output)
    assert re.search(r"Acceptor log records trimmed: +[1-9]", output)
