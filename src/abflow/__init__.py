"""Flow of the quantum probability current around a magnetic string.

The field is a uniform stream superposed with a point vortex at the origin;
the package evaluates it and its complex potential in closed form, locates
and classifies the critical points, samples trajectories on their level set
of the Hamiltonian and times them by quadrature, extracts level curves and
circulation, and checks every analytic identity numerically.
"""

from .contour import (
    CirculationResult,
    Polyline,
    PortraitSpec,
    circulation,
    circulation_from_flux,
    level_curves,
    portrait,
)
from .critical import (
    CriticalPoint,
    PointKind,
    jacobian,
    jacobian_entries,
    local_quadratic_potential,
    separatrix_level,
    stagnation_point,
    vortex_singularity,
)
from .dynamics import (
    SeparatrixResult,
    Trajectory,
    TrajectoryStatus,
    integrate,
    trace_separatrix,
)
from .errors import (
    AbflowError,
    InvalidContourError,
    InvalidParamsError,
    InvalidStartError,
    NumericalError,
    SingularPointError,
)
from .field import (
    FlowParams,
    PhysicalConstants,
    complex_derivative,
    complex_potential,
    current,
    decompose_potential,
    delta_to_flux,
    flux_to_delta,
    hamiltonian,
    near_branch_cut,
    potential_values,
    stream_function,
    stream_values,
    vector_potential,
    velocity,
    velocity_potential,
)
from .verify import CheckReport, format_report, run_suite, suite_passed

__version__ = "0.1.0"
