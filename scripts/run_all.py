#!/usr/bin/env python3
"""Run every CLI experiment with the committed configs into out/.

Convenience driver for a full artifact refresh; equivalent to invoking
each subcommand by hand on its configs/experiment_<command>.json.
"""
import sys
from pathlib import Path

from bevlift.cli import _COMMANDS, main

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "out"


def run() -> int:
    for command in _COMMANDS:
        out_dir = OUT / command
        print(f"== bevlift {command} -> {out_dir}")
        code = main([
            command,
            "--config", str(ROOT / "configs" / f"experiment_{command}.json"),
            "--out", str(out_dir),
        ])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(run())
