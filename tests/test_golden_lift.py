"""Golden gates of the lift and pool path and of the artifact tables,
both rebuilt through scripts/make_goldens.py: the committed lift
experiment must reproduce tests/golden/lift_checksums.json exactly, and
the files `render` and `lift` write in every format must reproduce
tests/golden/table_digests.json."""
import importlib.util
import json
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
    fresh = _make_goldens().lift_checksums(mast_rig, corridor7)
    assert len(golden) == 8
    assert fresh == golden


def test_table_digests_match_golden():
    golden = json.loads((ROOT / "tests" / "golden" / "table_digests.json").read_text())
    fresh = _make_goldens().table_digests()
    assert len(golden) == 32
    assert fresh == golden
