"""Linear-quadratic control under rough, non-semimartingale noise."""

from .noise import (
    NoiseError,
    NoiseModel,
    SamplePath,
    empirical_char_fn,
    fbm_covariance,
    make_grid,
    sample_path,
    sample_paths,
    stable_char_fn,
)
from .lift import (
    DegeneratePathError,
    LiftError,
    OffGridError,
    RoughPath,
    chen_defect,
    holder_estimate,
    lift_piecewise_linear,
    reconstruct,
    rough_integral_admissible,
)
from .riccati import (
    ControlDesign,
    RiccatiError,
    care_residual,
    solve_care,
    spectral_abscissa,
)
from .pendulum import PendulumModel, build_pendulum
from .control import (
    PredictorError,
    completion_of_squares_gap,
    default_horizon,
)
from .observer import (
    NoiseSecondMoments,
    ObserverDesign,
    ObserverError,
    estimate_second_moments,
    gain_stationarity_check,
    observer_gain,
    solve_observer_steady_state,
)
from .sim import (
    SimConfig,
    SimError,
    StateSpaceModel,
    Trajectory,
    average_cost,
    continuity_probe,
    integrate,
)
from .bench import SCENARIOS, ExperimentReport, emit_plot_data, run_comparison

__version__ = "0.1.0"
