"""Golden gates of the lift and pool path and of the artifact tables,
both rebuilt through scripts/make_goldens.py: the committed lift
experiment must reproduce tests/golden/lift_checksums.json exactly, also
when its positions are first read after pooling, and
the files `render` and `lift` write in every format must reproduce
tests/golden/table_digests.json."""
import importlib.util
import json
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _make_goldens():
    spec = importlib.util.spec_from_file_location(
        "make_goldens", ROOT / "scripts" / "make_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lift_checksums_match_golden(mast_rig, corridor7):
    golden = json.loads((ROOT / "tests" / "golden" / "lift_checksums.json").read_text())
    module = _make_goldens()
    frame = module.lift_frame(replace(mast_rig), corridor7)  # a rig with no plan yet
    for wedge in frame[:2]:
        # the plan holds factored rays: pooling built no (n, 3) positions
        assert wedge.n_points > 0 and "positions" not in vars(wedge.plan)
    assert len(golden) == 8
    assert module.frame_checksums(*frame) == golden


def test_table_digests_match_golden():
    golden = json.loads((ROOT / "tests" / "golden" / "table_digests.json").read_text())
    fresh = _make_goldens().table_digests()
    assert len(golden) == 32
    assert fresh == golden
