#!/usr/bin/env python3
"""Run every CLI experiment with the committed configs into out/.

Convenience driver for a full artifact refresh; equivalent to invoking
the four subcommands by hand.
"""
import sys
from pathlib import Path

from bevlift.cli import main

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "out"

RUNS = (
    ("render", "experiment_render.json"),
    ("lift", "experiment_lift.json"),
    ("robustness", "experiment_robustness.json"),
    ("bench", "experiment_bench.json"),
)


def run() -> int:
    for command, config in RUNS:
        out_dir = OUT / command
        print(f"== bevlift {command} -> {out_dir}")
        code = main([
            command,
            "--config", str(ROOT / "configs" / config),
            "--out", str(out_dir),
        ])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(run())
