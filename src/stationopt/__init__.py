"""Transient gas-flow control for pipeline network stations.

The package builds element-wise MIP models of a network station,
constructs compressor-configuration operating-range polytopes from unit
data, and runs a three-stage algorithm (stationary initial solve,
improvement heuristic, rolling-horizon smoothing) that produces a
time-stamped control recommendation.
"""

from .gas import (
    GasConstants,
    PapayRangeWarning,
    adiabatic_head,
    compression_power,
    nikuradse_friction,
    papay_z,
    pipe_velocity_constant,
    ratio_from_head,
    resistor_velocity_constant,
)
from .polytope import (
    DegenerateRegionError,
    EmptyRegionError,
    HPolytope,
    UnboundedRegionError,
    enumerate_vertices,
    least_squares_hyperplane,
    project_out,
    remove_redundant,
    sample_uniform,
    triangulate,
)
from .network import (
    Scenario,
    StateSnapshot,
    StationSpec,
    Violation,
    mode_available,
    validate,
)
from .ranges import (
    build_spec_ranges,
    configuration_polytope,
    lift_unit_range,
    linearize_power_bound,
    stage_polytope,
    unit_polytope,
)
from .model import ModelInstance, ObjectiveWeights
from .solve import (
    BackendError,
    InProcessBackend,
    SolveResult,
    SolveSettings,
    check_assignment,
    default_settings_for,
)
from .solve import solve as solve_model  # `stationopt.solve` stays the module
from .algorithm import (
    ControlPlan,
    InitialSolutionAbort,
    ModeSequence,
    SmoothingError,
    StationSolver,
    compute_gap,
    convex_combination,
    not_soon_infeasible,
    transitions_work,
)
from .io import (
    interpolate_scenario,
    load_instance,
    load_weights,
    regrid_instance,
    template_grid,
)

__version__ = "0.1.0"
