"""Periodic uniform 2D Cartesian mesh, the L2 norm and snapshot files.

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

    def __repr__(self):
        return "Grid2D(%dx%d on [%g,%g]x[%g,%g])" % (
            self.nx, self.ny, self.x_min, self.x_max, self.y_min, self.y_max)


def l2_norm(grid, u):
    """Volume-weighted L2 norm sqrt(sum dx*dy*u^2); vector fields sum components."""
    return math.sqrt(grid.cell_volume * float(np.sum(u * u)))


# ---------------------------------------------------------------------------
# Snapshot files: text header, then comma separated values, one x-row per line.

def write_snapshot(path, grid, values, location, time):
    values = np.asarray(values, dtype=float)
    comps = 1 if values.ndim == 2 else 3
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# nx = %d\n# ny = %d\n" % (grid.nx, grid.ny))
        fh.write("# x_min = %.17g\n# x_max = %.17g\n" % (grid.x_min, grid.x_max))
        fh.write("# y_min = %.17g\n# y_max = %.17g\n" % (grid.y_min, grid.y_max))
        fh.write("# location = %s\n# components = %d\n" % (location, comps))
        fh.write("# time = %.17g\n" % (time,))
        flat = values.reshape(grid.nx, -1)  # row-major: one line per x-index
        for row in flat:
            fh.write(",".join("%.17g" % v for v in row))
            fh.write("\n")


def read_snapshot(path):
    """Inverse of write_snapshot; returns (grid, values, location, time)."""
    header = {}
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                header[key.strip()] = val.strip()
            else:
                rows.append([float(tok) for tok in line.split(",")])
    grid = Grid2D(
        int(header["nx"]), int(header["ny"]),
        float(header["x_min"]), float(header["x_max"]),
        float(header["y_min"]), float(header["y_max"]))
    comps = int(header["components"])
    values = np.array(rows)
    if comps == 3:
        values = values.reshape(grid.nx, grid.ny, 3)
    else:
        values = values.reshape(grid.nx, grid.ny)
    return grid, values, header["location"], float(header["time"])
