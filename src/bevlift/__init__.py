"""Ground-aligned height lifting of camera features into a bird's-eye grid,
with a depth-based twin and the instrumentation to compare the two."""

from .binning import BinSpec, bin_edges, bin_midpoints, value_to_bin
from .bevpool import BevGrid, GridSpec, grid_cell_of, pool
from .errors import (
    AboveCamera,
    CameraBelowGround,
    ConfigError,
    DegenerateOrientation,
    EmptyInput,
    ExtentTooSmall,
    HorizonRay,
    InvalidGeometry,
    NonPositiveDepth,
    NoVisibleObjects,
    OutOfRange,
    PipelineError,
    ShapeMismatch,
)
from .geometry import (
    Box3D,
    CameraRig,
    Extrinsics,
    Intrinsics,
    extrinsics_from_pose,
    load_rig,
    pixel_to_ref_cam,
    project_ego,
    save_rig,
)
from .lifting import (
    ContextMap,
    DistributionMap,
    FusedMap,
    WedgeCloud,
    build_wedge,
    build_wedge_depth,
    fuse,
    lift_pixel_depth,
    lift_pixel_height,
    lift_pixel_height_composed,
)
from .robustness import (
    DisturbanceSpec,
    DisturbanceTrials,
    ErrorReport,
    OverlapReport,
    disturbance_trials,
    height_error_law,
    localization_error,
    matched_surface_points,
    perturb_extrinsics,
    perturb_rig,
    scatter_overlap,
)
from .scene import (
    NoiseModel,
    Scene,
    cast_rays,
    generate_scene,
    predict_depth_distribution,
    predict_height_distribution,
    render,
    save_scene,
)

__version__ = "0.1.0"
