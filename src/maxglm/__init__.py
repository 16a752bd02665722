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
experiment configurations.  The package exports the library entry points
the README documents; everything else is imported from its module.
"""

from .grid import Grid2D
from .harness import RunConfig, check, simulate, study_ap, study_convergence
from .model import EnergyModel, ModelParams, State

__version__ = "0.1.0"

__all__ = ["EnergyModel", "Grid2D", "ModelParams", "RunConfig", "State", "check",
           "simulate", "study_ap", "study_convergence"]
