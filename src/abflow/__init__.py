"""Flow of the quantum probability current around a magnetic string.

The field is a uniform stream superposed with a point vortex at the origin;
the package evaluates it and its complex potential in closed form, locates
the saddle and its linearization, samples trajectories on their level set
of the Hamiltonian and times them by quadrature, extracts level curves and
circulation, and checks every analytic identity numerically.
"""

from .contour import (
    CirculationResult,
    Polyline,
    PortraitSpec,
    circulation,
    circulation_from_flux,
    portrait,
)
from .critical import (
    CriticalPoint,
    jacobian,
    jacobian_entries,
    separatrix_level,
    stagnation_point,
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
    InvalidParamsError,
    NumericalError,
    SingularPointError,
)
from .field import (
    FlowParams,
    PhysicalConstants,
    complex_derivative,
    complex_potential,
    current,
    flux_to_delta,
    hamiltonian,
    near_branch_cut,
    potential_values,
    stream_function,
    stream_values,
    velocity,
    velocity_potential,
)
from .verify import CheckReport, format_report, run_suite, suite_passed

__version__ = "0.1.0"
