"""Continuous model: state vector, energy potentials, main field and fluxes.

The conserved state is the 8-vector

    q = (B1, B2, B3, phi, E1, E2, E3, psi)

where B is the magnetic field, E the rescaled electric field and phi/psi the
two cleaning scalars that transport divergence errors at speed ch.  Both
schemes hold their solution as one `State`: an (nx, ny, 8) array in this slot
order, whatever mesh points (cells or vertices) each field is sampled at.
The system

    dq/dt + d/dx_k f_k(q) = 0,      f_k(q) = H_k p(q),      p = dE/dq

is symmetric hyperbolic: the H_k are constant symmetric matrices built from
the two wave speeds (c0, ch), and p is the main field (dual variables) of the
energy potential.  For the quadratic potential p = q and f_k reduces to the
familiar curl/grad/div right hand sides; the exponential potential gives a
genuinely nonlinear flux with the same symmetric structure.

Every function in this module is vectorized: q may be a single (8,) vector or
an array of states with the component axis last, shape (..., 8).
"""

import math
from collections import namedtuple

import numpy as np

# Slot indices of the components inside the state vector.
B1, B2, B3, PHI, E1, E2, E3, PSI = range(8)
# The four fields as indices into the last axis of q.
FIELDS = {"B": slice(B1, PHI), "phi": PHI, "E": slice(E1, PSI), "psi": PSI}

QUADRATIC = "quadratic"
EXPONENTIAL = "exponential"


class ModelParams:
    """The two constant wave speeds: light speed c0 and cleaning speed ch."""

    def __init__(self, c0=1.0, ch=1.0):
        c0 = float(c0)
        ch = float(ch)
        if not (0.0 < c0 < math.inf and 0.0 < ch < math.inf):
            raise ValueError("wave speeds must be finite and positive, got c0=%r ch=%r"
                             % (c0, ch))
        self.c0 = c0
        self.ch = ch


class SystemMatrices(namedtuple("SystemMatrices", "H1 H2 H3 R Lambda")):
    """The symmetric flux matrices H1, H2, H3 plus the eigendecomposition of H1.

    Lambda holds the eigenvalues (-ch, -ch, -c0, -c0, +c0, +c0, +ch, +ch) and
    R the matching right eigenvectors as columns, so H1 @ R == R @ diag(Lambda).
    """


def assemble_matrices(params):
    """Build the constant symmetric system matrices for given wave speeds."""
    c0, ch = params.c0, params.ch

    def sym(entries):
        H = np.zeros((8, 8))
        for i, j, v in entries:
            H[i, j] = v
            H[j, i] = v
        return H

    H1 = sym([(B1, PHI, ch), (B2, E3, -c0), (B3, E2, c0), (E1, PSI, ch)])
    H2 = sym([(B1, E3, c0), (B2, PHI, ch), (B3, E1, -c0), (E2, PSI, ch)])
    H3 = sym([(B1, E2, -c0), (B2, E1, c0), (B3, PHI, ch), (E3, PSI, ch)])

    Lambda = np.array([-ch, -ch, -c0, -c0, c0, c0, ch, ch])
    # Right eigenvectors of H1, columns ordered to match Lambda.
    R = np.array(
        [
            [-1, 0, 0, 0, 0, 0, 0, 1],
            [0, 0, 1, 0, 0, -1, 0, 0],
            [0, 0, 0, -1, 1, 0, 0, 0],
            [1, 0, 0, 0, 0, 0, 0, 1],
            [0, -1, 0, 0, 0, 0, 1, 0],
            [0, 0, 0, 1, 1, 0, 0, 0],
            [0, 0, 1, 0, 0, 1, 0, 0],
            [0, 1, 0, 0, 0, 0, 1, 0],
        ],
        dtype=float,
    )
    return SystemMatrices(H1, H2, H3, R, Lambda)


class EnergyModel:
    """An energy potential variant ('quadratic' or 'exponential') plus speeds.

    quadratic:    E(q) = (B^2 + E^2)/2 + (phi^2 + psi^2)/2          p(q) = q
    exponential:  E(q) = c0 (e^{B^2/2} - 1) + c0 (e^{E^2/2} - 1)
                         + (ch^2/c0)(e^{phi^2/2} - 1 + e^{psi^2/2} - 1)
                                                                   p(q) = dE/dq

    Both are strictly convex, so p is invertible and the flux f_k = H_k p(q)
    admits the extra conservation law for the total energy.  Both vanish in
    vacuum (q = 0): the exponential one is measured from its vacuum value
    2 c0 + 2 ch^2/c0, which would otherwise swamp the energy of a small pulse
    (its drift could not resolve the scheme).
    """

    def __init__(self, kind, params):
        if kind not in (QUADRATIC, EXPONENTIAL):
            raise ValueError("unknown energy model %r" % (kind,))
        self.kind = kind
        self.params = params
        self.matrices = assemble_matrices(params)


class State:
    """A solution on a grid: the (nx, ny, 8) state array q at time t."""

    def __init__(self, grid, model, q, t=0.0):
        q = np.asarray(q, dtype=float)
        if q.shape != (grid.nx, grid.ny, 8):
            raise ValueError("state shape %r does not fit the grid" % (q.shape,))
        self.grid = grid
        self.model = model
        self.q = q
        self.t = float(t)


def _squared_magnitudes(q):
    """(..., 4) array [|B|^2, phi^2, |E|^2, psi^2] of states q, shape (..., 8).

    The 3-vector sums add in component order, (q0^2 + q1^2) + q2^2, which is
    bitwise what np.sum over a 3-element last axis gives, at a fraction of
    the cost of that reduction.
    """
    sq = q * q
    sq = sq.reshape(sq.shape[:-1] + (2, 4))  # rows (B1, B2, B3, phi), (E1, E2, E3, psi)
    s = np.add(sq[..., 0], sq[..., 1])
    s += sq[..., 2]
    return np.stack([s, sq[..., 3]], axis=-1).reshape(q.shape[:-1] + (4,))


def energy_density(q, model):
    """Pointwise total energy density E(q), zero at q = 0 (expm1, not exp - 1)."""
    s = _squared_magnitudes(np.asarray(q, dtype=float))
    if model.kind == QUADRATIC:
        return 0.5 * (s[..., 0] + s[..., 2]) + 0.5 * (s[..., 1] + s[..., 3])
    c0, ch = model.params.c0, model.params.ch
    w = ch * ch / c0
    s *= 0.5
    np.expm1(s, out=s)
    return c0 * s[..., 0] + c0 * s[..., 2] + w * s[..., 1] + w * s[..., 3]


def main_field(q, model):
    """Dual variables p = dE/dq (the main field).  Identity for 'quadratic'.

    Exponential: p = c0 e^{|B|^2/2} B, w e^{phi^2/2} phi, c0 e^{|E|^2/2} E,
    w e^{psi^2/2} psi with w = ch^2/c0, from one exp over the four squared
    magnitudes.
    """
    q = np.asarray(q, dtype=float)
    if model.kind == QUADRATIC:
        return q.copy()
    c0, ch = model.params.c0, model.params.ch
    w = ch * ch / c0
    s = _squared_magnitudes(q)
    s *= 0.5
    np.exp(s, out=s)
    s *= (c0, w, c0, w)
    return np.repeat(s, (3, 1, 3, 1), axis=-1) * q


def _H(model, k):
    if k not in (1, 2, 3):
        raise ValueError("axis k must be 1, 2 or 3, got %r" % (k,))
    return model.matrices[k - 1]


def physical_flux(q, model, k):
    """Flux vector f_k(q) = H_k p(q) along axis k in {1, 2, 3}."""
    H = _H(model, k)
    p = main_field(q, model)
    # H is symmetric, so the row-vector contraction p @ H equals H @ p.
    return p @ H


def energy_flux(q, model, k):
    """Energy flux F_k(q) = 1/2 p(q)^T H_k p(q) along axis k."""
    H = _H(model, k)
    p = main_field(q, model)
    return 0.5 * np.sum(p * (p @ H), axis=-1)
