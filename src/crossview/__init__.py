"""Cross-view geolocalization toolkit.

Deterministic reference implementation of a UAV-to-satellite localization
pipeline: pose geometry and ground-cell grid, matching-network loss math,
synthetic matching backends, inverse-distance candidate fusion, a pose Kalman
filter driven by visual odometry, and a simulation harness that reproduces
the four-way method comparison end to end.
"""

from .config import ConfigError, SimConfig, load_config, parse_config
from .estimator import (
    OBSERVATION_MATRIX,
    FilterState,
    ProcessNoise,
    VoIncrement,
    correct,
    predict,
    state_vector,
)
from .fusion import FusedMeasurement, fuse
from .geometry import (
    Pose6D,
    cell_center,
    cell_index,
    compose_increment,
    euler_to_rotmat,
    ground_intersection,
    is_rotation_matrix,
    rotmat_to_euler,
    wrap_angle,
    wrap_angles,
)
from .losses import (
    CameraLossWeights,
    camera_loss,
    cell_cross_entropy,
    cell_cross_entropy_grad,
    contrastive_loss,
    contrastive_loss_grad,
    feature_distance,
    gradient_self_test,
)
from .matchers import (
    D_MIN,
    MatchResult,
    SceneMatcher,
    SyntheticMatcher,
    UavObservation,
    match_variances,
)
from .sim import (
    METHODS,
    ExperimentResult,
    Flight,
    RmseSummary,
    TrajectoryFrame,
    gen_trajectory,
    load_trajectory,
    rmse,
    run_experiment,
    save_estimates,
    save_trajectory,
    simulate_vo,
    suggested_tile_bounds,
    write_summary,
)
from .tiles import (
    TileRecord,
    TileSet,
    generate_grid,
    k_nearest,
    load_tiles,
    save_tiles,
)

__version__ = "0.1.0"
