"""Energy / divergence / error time series and convergence-order helpers."""

import hashlib

import numpy as np

from .grid import l2_norm
from .htc import _central_difference
from .mimetic import div_c2v, div_v2c
from .model import FIELDS, QUADRATIC, energy_density


class DiagnosticsSeries:
    """Per-step rows of (t, energy, relative energy error, divB, divE)."""

    def __init__(self):
        self.t = []
        self.energy = []
        self.rel_energy_err = []
        self.div_B = []
        self.div_E = []

    def append(self, t, energy, div_B=0.0, div_E=0.0):
        if self.t and t <= self.t[-1]:
            raise ValueError("time must be strictly increasing")
        self.t.append(float(t))
        if not self.energy and energy == 0.0:
            raise ValueError("initial energy is 0 (the initial data is zero on this grid), "
                             "so the relative energy drift is undefined")
        self.energy.append(float(energy))
        if len(self.energy) == 1:
            self.rel_energy_err.append(0.0)
        else:
            self.rel_energy_err.append(float(energy) / self.energy[0] - 1.0)
        self.div_B.append(float(div_B))
        self.div_E.append(float(div_E))

    def __len__(self):
        return len(self.t)

    def max_abs_energy_error(self):
        return float(np.max(np.abs(self.rel_energy_err)))  # NaN if any row is NaN

    def write_energy_csv(self, path):
        write_csv(path, ("t", "energy", "rel_energy_err"),
                  map(full_precision, zip(self.t, self.energy, self.rel_energy_err)))

    def write_divergence_csv(self, path):
        write_csv(path, ("t", "div_B", "div_E"),
                  map(full_precision, zip(self.t, self.div_B, self.div_E)))


def full_precision(values):
    """CSV cells that round-trip each double exactly."""
    return ["%.17g" % v for v in values]


def write_csv(path, columns, rows):
    """A header line of column names, then one line of string cells per row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for cells in rows:
            fh.write(",".join(cells) + "\n")


def config_hash(mapping):
    """Stable short hash of a config mapping."""
    text = ";".join("%s=%r" % (k, mapping[k]) for k in sorted(mapping))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def total_energy(state):
    """Volume-weighted total energy, cell_volume * sum of energy_density(q).

    One formula for both schemes: every cell and every vertex carries the
    same weight dx*dy on the periodic grid.  The quadratic energy is
    0.5 dV sum(q^2), summed pairwise: an einsum dot is faster but sums in
    one sweep, and on the staggered t=10 gate its rounding reads a drift of
    5.6e-15 where this sum reads 2.2e-16.
    """
    if state.model.kind == QUADRATIC:
        return 0.5 * state.grid.cell_volume * float(np.square(state.q).sum())
    return state.grid.cell_volume * float(
        np.sum(energy_density(state.q, state.model)))


def collocated_divergence(state, field="B"):
    """L2 norm of the central-difference divergence of B or E (collocated).

    Informational only -- the collocated scheme makes no divergence claim.
    """
    g = state.grid
    if field not in ("B", "E"):
        raise ValueError("field must be 'B' or 'E'")
    u = state.q[..., FIELDS[field]]
    return l2_norm(g, _central_difference(u[..., 0], 0, g.dx)
                   + _central_difference(u[..., 1], 1, g.dy))


def staggered_divergences(state, state_next):
    """L2 norms of the mimetic divergences at the half-time level.

    Takes two consecutive staggered states and measures div(B^{n+1/2}) at the
    vertices and div(E^{n+1/2}) at the cells -- the quantities the scheme
    actually controls.
    """
    g = state.grid
    half = 0.5 * (state.q + state_next.q)
    return (l2_norm(g, div_c2v(g, half[..., FIELDS["B"]])),
            l2_norm(g, div_v2c(g, half[..., FIELDS["E"]])))


def convergence_order(errors):
    """Observed orders from a refinement sequence [(N, error), ...].

    Consecutive rows give order = log(e_coarse/e_fine) / log(N_fine/N_coarse).
    """
    orders = []
    for (n0, e0), (n1, e1) in zip(errors, errors[1:]):
        if e0 <= 0.0 or e1 <= 0.0:
            raise ValueError("convergence orders need positive errors")
        if n1 <= n0:
            raise ValueError("resolutions must increase")
        orders.append(np.log(e0 / e1) / np.log(n1 / n0))
    return orders

