"""Double-obstacle Isaacs equations: reflected backward SDE solvers,
penalized approximations, and game-value checks on lattices and
finite-difference grids.

Modules:
    expressions  safe mini-language for coefficient strings
    model        problem data, Hamiltonians, validation, the space-time
                 grid and penalty schedule, obstacle variants and the
                 reflected step both backward solvers take
    forwardsim   path simulation, recombining lattices, forward estimates
    rbsde        backward solvers with reflection and penalization
    pde          finite-difference value fields and penalization sweeps
    games        value comparison, dynamic programming, crosschecks
    problems     builtin problems and the expression-based constructor
    cli          INI-configured runs (the `isaacs run` command)
"""

__version__ = "0.1.0"

from .expressions import Expression, ExpressionError, parse_expression
from .model import (
    CoefficientError,
    CoefficientSet,
    ControlGrid,
    HamiltonianInput,
    IsaacsReport,
    PenalizationSchedule,
    ProblemSpec,
    SpaceTimeGrid,
    ValidationReport,
    Variant,
    isaacs_condition_check,
    obstacle_step,
    validate_problem,
)
from .forwardsim import (
    ForwardTrajectoryBatch,
    LatticeError,
    RecombiningLattice,
    build_lattice,
    check_forward_estimates,
    simulate_paths,
)
from .rbsde import (
    RBSDESolution,
    apriori_estimate_check,
    backward_semigroup,
    comparison_check,
    solve_backward,
)
from .pde import (
    CflError,
    ConvergenceReport,
    ValueField,
    cfl_number,
    run_penalization_sweep,
    solve_isaacs_double_obstacle,
    solve_isaacs_penalized,
)
from .games import GameVerdict, compute_values, dpp_check, fixed_control_crosscheck
from .problems import BUILTINS, builtin, from_expressions
