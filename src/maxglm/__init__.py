"""Structure-preserving solvers for a hyperbolic Maxwell system with
divergence cleaning.

Two discretizations of the same first-order system (magnetic and electric
fields plus two cleaning scalars):

* a collocated finite-volume scheme whose numerical flux conserves the
  discrete total energy exactly (for quadratic and convex non-quadratic
  energies alike), advanced with explicit Runge-Kutta methods;
* a staggered semi-implicit scheme built on compatible cell/vertex
  difference operators, which keeps the relevant discrete divergences at
  roundoff and allows time steps independent of the cleaning speed.

See the README for the CLI (`maxglm run/convergence/ap/check`) and the
experiment configurations.
"""

from .diagnostics import (DiagnosticsSeries, collocated_divergence,
                          convergence_order, staggered_divergences,
                          total_energy_collocated)
from .grid import Grid2D, l2_norm, read_snapshot, write_snapshot
from .harness import (RunConfig, check, ic_gaussian, ic_planar, simulate,
                      study_ap, study_convergence)
from .htc import FVState, abgrall_flux, cfl_dt, rk_step, semidiscrete_rhs
from .mimetic import (check_identities, curl_c2v, curl_v2c, div_c2v, div_v2c,
                      grad_c2v, grad_v2c)
from .model import (EnergyModel, ModelParams, SystemMatrices,
                    assemble_matrices, energy_density, energy_flux,
                    main_field, max_signal_speed, physical_flux)
from .simm import (CGConfig, NonConvergence, StaggeredState, apply_E_operator,
                   apply_phi_operator, cg_solve, simm_step,
                   total_energy_staggered)
from .tableaux import ButcherTableau, get_tableau

__version__ = "0.1.0"

__all__ = [
    "ButcherTableau", "CGConfig", "DiagnosticsSeries", "EnergyModel",
    "FVState", "Grid2D", "ModelParams", "NonConvergence", "RunConfig",
    "StaggeredState", "SystemMatrices", "abgrall_flux", "apply_E_operator",
    "apply_phi_operator", "assemble_matrices", "cfl_dt", "cg_solve", "check",
    "check_identities", "collocated_divergence", "convergence_order",
    "curl_c2v", "curl_v2c", "div_c2v", "div_v2c", "energy_density",
    "energy_flux", "get_tableau", "grad_c2v", "grad_v2c", "ic_gaussian",
    "ic_planar", "l2_norm", "main_field", "max_signal_speed", "physical_flux",
    "read_snapshot", "rk_step", "semidiscrete_rhs", "simm_step", "simulate",
    "staggered_divergences", "study_ap", "study_convergence",
    "total_energy_collocated", "total_energy_staggered", "write_snapshot",
]
