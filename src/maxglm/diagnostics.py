"""Energy / divergence / error time series and convergence-order helpers."""

import hashlib

import numpy as np

from .grid import l2_norm
from .htc import _central_difference
from .mimetic import div_c2v, div_v2c
from .model import energy_density

_FMT = "%.17g"  # full double precision in all CSV output


class DiagnosticsSeries:
    """Per-step rows of (t, energy, relative energy error, divB, divE)."""

    def __init__(self, meta=None):
        self.meta = dict(meta or {})
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
        return max(abs(e) for e in self.rel_energy_err)

    def write_energy_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,energy,rel_energy_err\n")
            for t, e, r in zip(self.t, self.energy, self.rel_energy_err):
                fh.write(",".join(_FMT % v for v in (t, e, r)) + "\n")

    def write_divergence_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,div_B,div_E\n")
            for t, b, e in zip(self.t, self.div_B, self.div_E):
                fh.write(",".join(_FMT % v for v in (t, b, e)) + "\n")


def config_hash(mapping):
    """Stable short hash of a config mapping, for series metadata."""
    text = ";".join("%s=%r" % (k, mapping[k]) for k in sorted(mapping))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def total_energy_collocated(state):
    """Volume-weighted total energy of a collocated state."""
    return state.grid.cell_volume * float(
        np.sum(energy_density(state.q, state.model)))


def collocated_divergence(state, field="B"):
    """L2 norm of the central-difference divergence of B or E (collocated).

    Informational only -- the collocated scheme makes no divergence claim.
    """
    g = state.grid
    if field == "B":
        u = state.q[..., 0:3]
    elif field == "E":
        u = state.q[..., 4:7]
    else:
        raise ValueError("field must be 'B' or 'E'")
    return l2_norm(g, _central_difference(u[..., 0], 0, g.dx)
                   + _central_difference(u[..., 1], 1, g.dy))


def staggered_divergences(state, state_next):
    """L2 norms of the mimetic divergences at the half-time level.

    Takes two consecutive staggered states and measures div(B^{n+1/2}) at the
    vertices and div(E^{n+1/2}) at the cells -- the quantities the scheme
    actually controls.
    """
    g = state.grid
    B_half = 0.5 * (state.B_c + state_next.B_c)
    E_half = 0.5 * (state.E_p + state_next.E_p)
    return l2_norm(g, div_c2v(g, B_half)), l2_norm(g, div_v2c(g, E_half))


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


def write_errors_csv(path, component_names, rows):
    """errors.csv writer: one row per resolution.

    rows -- list of (N, {component: error}); orders between consecutive
    resolutions are appended per component (empty for the first row).
    """
    with open(path, "w", encoding="utf-8") as fh:
        head = ["N"] + list(component_names)
        head += ["order_" + c for c in component_names]
        fh.write(",".join(head) + "\n")
        prev = None
        for N, errs in rows:
            cells = [str(N)] + [_FMT % errs[c] for c in component_names]
            if prev is None:
                cells += [""] * len(component_names)
            else:
                pN, perrs = prev
                for c in component_names:
                    if perrs[c] > 0.0 and errs[c] > 0.0:
                        order = convergence_order([(pN, perrs[c]), (N, errs[c])])[0]
                        cells.append("%.3f" % order)
                    else:
                        # roundoff-level component (e.g. identically zero field)
                        cells.append("")
            fh.write(",".join(cells) + "\n")
            prev = (N, errs)
