import pytest
from hypothesis import HealthCheck, settings
from pathlib import Path

from bevlift.binning import BinSpec
from bevlift.geometry import load_rig
from bevlift.robustness import (
    DisturbanceSpec,
    disturbance_trials,
    localization_error,
    scatter_overlap,
)
from bevlift.scene import NoiseModel, load_scene

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

ROOT = Path(__file__).resolve().parent.parent

# Settings of the committed robustness experiment; the golden files under
# tests/golden were produced with exactly these.
EXPERIMENT_HEIGHT_BINS = BinSpec("DID", 90, -0.2, 3.6, 1.2)
EXPERIMENT_DEPTH_BINS = BinSpec("DEPTH_UD", 206, 1.0, 104.0)
EXPERIMENT_NOISE = NoiseModel("gaussian_bin_blur", sigma_bins=1.0)
EXPERIMENT_DISTURBANCE = DisturbanceSpec(1.67, 1.67, seed=0, n_trials=100)
EXPERIMENT_STRIDE = 8


@pytest.fixture(scope="session")
def mast_rig():
    return load_rig(ROOT / "configs" / "rig_default.json")


@pytest.fixture(scope="session")
def truck_rig():
    return load_rig(ROOT / "configs" / "rig_truck.json")


@pytest.fixture(scope="session")
def corridor7():
    return load_scene(ROOT / "configs" / "scenes" / "corridor_seed7.json")


@pytest.fixture(scope="session")
def intersection11():
    return load_scene(ROOT / "configs" / "scenes" / "intersection_seed11.json")


@pytest.fixture(scope="session")
def corridor13():
    return load_scene(ROOT / "configs" / "scenes" / "corridor_seed13.json")


@pytest.fixture(scope="session")
def experiment_trials(mast_rig):
    """The perturbed rigs of the committed disturbance plan, which both
    studies of a run share."""
    return disturbance_trials(mast_rig, EXPERIMENT_DISTURBANCE)


@pytest.fixture(scope="session")
def overlap_seed7(corridor7, mast_rig, experiment_trials):
    """The committed 100-trial scatter overlap study (shared by the golden
    comparison and the acceptance gate)."""
    return scatter_overlap(corridor7, mast_rig, experiment_trials)


@pytest.fixture(scope="session")
def disturbed_errors_seed7(corridor7, mast_rig, experiment_trials):
    """The committed 100-trial disturbed localization run (slowest shared
    computation in the suite; built once)."""
    return localization_error(
        corridor7, mast_rig,
        EXPERIMENT_HEIGHT_BINS, EXPERIMENT_DEPTH_BINS, EXPERIMENT_NOISE,
        experiment_trials, EXPERIMENT_STRIDE,
    )
