"""scripts/run_all.py: one run of each CLI command, in the CLI's order,
on its committed config."""
import importlib.util
from pathlib import Path

import pytest

from bevlift.cli import _COMMANDS

ROOT = Path(__file__).resolve().parent.parent


def run_all_with(monkeypatch, codes):
    """scripts/run_all.py with main replaced by a recorder that returns
    codes[command] (0 when absent); returns the module and the argv list."""
    spec = importlib.util.spec_from_file_location("run_all", ROOT / "scripts" / "run_all.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    calls = []

    def main(argv):
        calls.append(argv)
        return codes.get(argv[0], 0)

    monkeypatch.setattr(module, "main", main)
    return module, calls


def test_runs_each_command_once_on_its_committed_config(monkeypatch):
    run_all, calls = run_all_with(monkeypatch, {})
    assert run_all.run() == 0
    assert [argv[0] for argv in calls] == list(_COMMANDS)
    for command, config_flag, config, out_flag, out in calls:
        assert config_flag == "--config" and Path(config).is_file()
        assert Path(config) == ROOT / "configs" / f"experiment_{command}.json"
        assert out_flag == "--out" and Path(out) == run_all.OUT / command


@pytest.mark.parametrize("failing", list(_COMMANDS))
def test_stops_at_the_first_nonzero_exit(monkeypatch, failing):
    run_all, calls = run_all_with(monkeypatch, {failing: 3})
    assert run_all.run() == 3
    commands = list(_COMMANDS)
    assert [argv[0] for argv in calls] == commands[:commands.index(failing) + 1]
