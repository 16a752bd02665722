"""Periodic uniform 2D Cartesian mesh and the L2 norm.

Index conventions (shared by every stencil in the code base):

  * cell (i, j) is centered at  (x_min + (i+1/2) dx,  y_min + (j+1/2) dy)
  * vertex (i, j) sits at the upper-right corner of cell (i, j), i.e. at
    (x_min + (i+1) dx,  y_min + (j+1) dy)

Both index sets run over 0..nx-1 x 0..ny-1 with periodic wrap, so cell and
vertex arrays have the same shape.  Scalar fields are (nx, ny) arrays, vector
fields (nx, ny, 3) with the component axis last.
"""

import math

import numpy as np


class Grid2D:
    def __init__(self, nx, ny, x_min=-1.0, x_max=1.0, y_min=-1.0, y_max=1.0):
        nx = int(nx)
        ny = int(ny)
        if nx < 2 or ny < 2:
            raise ValueError("grid needs at least 2 cells per direction")
        if not (x_max > x_min and y_max > y_min):
            raise ValueError("empty domain")
        self.nx = nx
        self.ny = ny
        self.x_min = float(x_min)
        self.x_max = float(x_max)
        self.y_min = float(y_min)
        self.y_max = float(y_max)
        self.dx = (self.x_max - self.x_min) / nx
        self.dy = (self.y_max - self.y_min) / ny

    @property
    def cell_volume(self):
        return self.dx * self.dy

    def cell_centers(self):
        """Meshgrid (X, Y) of cell center coordinates, shape (nx, ny) each."""
        x = self.x_min + (np.arange(self.nx) + 0.5) * self.dx
        y = self.y_min + (np.arange(self.ny) + 0.5) * self.dy
        return np.meshgrid(x, y, indexing="ij")

    def vertices(self):
        """Meshgrid (X, Y) of vertex coordinates, shape (nx, ny) each."""
        x = self.x_min + (np.arange(self.nx) + 1.0) * self.dx
        y = self.y_min + (np.arange(self.ny) + 1.0) * self.dy
        return np.meshgrid(x, y, indexing="ij")

    def points(self, location):
        if location == "cells":
            return self.cell_centers()
        if location == "vertices":
            return self.vertices()
        raise ValueError("location must be 'cells' or 'vertices', got %r" % (location,))


def l2_norm(grid, u):
    """Volume-weighted L2 norm sqrt(sum dx*dy*u^2); vector fields sum components."""
    return math.sqrt(grid.cell_volume * float(np.sum(u * u)))

