"""Flow of the quantum probability current around a magnetic string.

The field is a uniform stream superposed with a point vortex at the origin;
the package evaluates it and its complex potential in closed form, locates
the saddle and its linearization, samples trajectories on their level set
of the Hamiltonian and times them by quadrature, extracts level curves and
circulation, and checks every analytic identity numerically.  The public
names are those the modules list in their ``__all__``.
"""

from .contour import *
from .critical import *
from .dynamics import *
from .errors import *
from .field import *
from .verify import *

__version__ = "0.1.0"
