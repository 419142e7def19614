"""Golden gates of the lift and pool path and of the artifact tables,
both rebuilt through scripts/make_goldens.py: the committed lift
experiment must reproduce tests/golden/lift_checksums.json exactly, also
when its positions are first read after pooling, and
the files `render` and `lift` write in every format must reproduce
tests/golden/table_digests.json.  Every golden test also passes under
OpenBLAS's kernels without FMA and under numpy's dispatch without AVX-512,
each in a child process."""
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bevlift

ROOT = Path(__file__).resolve().parent.parent

# Every test that compares a fresh run with tests/golden.
GOLDEN_TESTS = (
    "tests/test_golden_lift.py::test_lift_checksums_match_golden",
    "tests/test_golden_lift.py::test_table_digests_match_golden",
    "tests/test_robustness.py::TestScatterOverlap::test_matches_golden_run",
    "tests/test_robustness.py::TestLocalizationError::test_disturbed_run_matches_golden_table",
)

# numpy's AVX-512 dispatch targets on x86-64.
AVX512_FEATURES = ("AVX512_SPR", "AVX512_ICL", "X86_V4")


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


def _dynamic_arch_openblas() -> bool:
    """Whether numpy runs on an OpenBLAS built with DYNAMIC_ARCH, the only
    kind that reads OPENBLAS_CORETYPE."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def _golden_tests_pass_in_child(**env):
    """Run GOLDEN_TESTS in a child process with env added to its
    environment; only the child's environment changes."""
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, (
               str(Path(bevlift.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))))}
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *GOLDEN_TESTS],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stdout[-3000:] + child.stderr[-3000:]
    assert f"{len(GOLDEN_TESTS)} passed" in child.stdout


@pytest.mark.skipif(not _dynamic_arch_openblas(),
                    reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so "
                           "OPENBLAS_CORETYPE would not change its kernels")
def test_goldens_hold_under_the_blas_kernels_without_fma():
    # Every product that reaches an artifact is a fixed-order one, so the
    # goldens do not depend on which kernel OpenBLAS picks.
    _golden_tests_pass_in_child(OPENBLAS_CORETYPE="Sandybridge")


def _avx512_features() -> list:
    """The AVX512_FEATURES numpy dispatches to on this CPU."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy before 2.0
        from numpy.core._multiarray_umath import __cpu_features__
    return [name for name in AVX512_FEATURES if __cpu_features__.get(name)]


@pytest.mark.skipif(not _avx512_features(),
                    reason="numpy reports none of the AVX-512 features on this CPU, so "
                           "NPY_DISABLE_CPU_FEATURES would not change its kernels")
def test_goldens_hold_under_numpy_dispatch_without_avx512():
    # numpy's exp, log and power (the noise kernel, the DID and SID edges)
    # dispatch on the CPU; under AVX-512 some DID edges differ by one ulp
    # from the AVX2 kernels', though no golden byte moves.
    _golden_tests_pass_in_child(NPY_DISABLE_CPU_FEATURES=" ".join(_avx512_features()))
