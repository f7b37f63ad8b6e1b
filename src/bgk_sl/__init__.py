"""Semi-Lagrangian discrete-velocity solver for the BGK kinetic equation.

High-order characteristic schemes (implicit Euler, DIRK2/3, BDF2/3) with
WENO interpolation at the characteristic feet and an exact node gather where
the feet land on nodes, a reduced two-distribution formulation for 3D
velocity spaces in slab symmetry, and an exact Euler Riemann solver for
fluid-limit reference.
"""
from .boundaries import extend_field, map_nodes
from .chu import ChuReduced3V
from .config import DEFAULT_INTERP, Boundary, Integrator, Interp, SchemeConfig
from .errors import ConfigError, DegenerateStateError, NumericalError
from .grid import PhaseGrid, TimeControl
from .harness import (
    RunResult,
    cfl_sweep,
    convergence_study,
    cost_study,
    l1_norm,
    l2_norm,
    refinement_error,
    restrict,
    run_case,
    scheme_label,
)
from .integrators import (
    BDF2_TABLEAU,
    BDF3_TABLEAU,
    EULER_TABLEAU,
    RK2_TABLEAU,
    RK3_TABLEAU,
    TABLEAUS,
    StepContext,
    Tableau,
    TimeStepper,
    tableau_step,
)
from .lattice import LatticeTransport
from .moments import Moments, relaxation_solve, velocity_moments
from .riemann import GasState, RiemannSolution, riemann_profile
from .scenarios import SCENARIOS, Scenario, load_scenario, make_system, with_overrides
from .systems import KineticSystem, Monatomic1V
from .transport import InterpolatedTransport
from .weno import Interpolator

__version__ = "1.0.0"
