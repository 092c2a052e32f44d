"""Fine-scale reference solver and the closed-form data of the
homogeneous benchmark (the Robin data whose exact solution is the plane
wave exp(i k (0.6, 0.8).x), bump source)."""

import csv
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .assembly import load_boundary, load_volume
from .errors import DimensionMismatch, MalformedRaster, SingularSystem, SingularMatrix
from .medium import read_raster_array

__all__ = [
    "ProblemSpec",
    "Solution",
    "solve_fine",
    "fine_load",
    "robin_data_plane_wave",
    "bump_source",
    "piecewise_source",
    "export_field",
]


@dataclass
class ProblemSpec:
    """One boundary-value problem: wavenumber, medium and data on a grid."""

    grid: object
    medium: object
    k: float
    f: np.ndarray  # complex nodal volume source
    g: np.ndarray  # complex nodal Robin data (zero off the boundary)
    model: str = "custom"

    def __post_init__(self):
        n = self.grid.n_nodes
        if self.f.shape[0] != n or self.g.shape[0] != n:
            raise DimensionMismatch("source/boundary data length does not match grid")
        if self.k <= 0.0:
            raise ValueError("wavenumber must be positive")


@dataclass
class Solution:
    values: np.ndarray
    provenance: str = "reference"
    meta: dict = field(default_factory=dict)


def fine_load(spec):
    """Fine load vector M f + Mb g shared by reference and multiscale solves."""
    return load_volume(spec.grid, spec.f) + load_boundary(spec.grid, spec.g)


def solve_fine(spec, forms=None):
    """Direct solve of the fine Q1 system B(k) u = M f + Mb g."""
    if forms is None:
        from .assembly import assemble_B

        B = assemble_B(spec.grid, spec.medium, spec.k)
    else:
        B = forms.B
    b = fine_load(spec)
    try:
        u = kernels.factorize(B).solve(b.astype(complex))
    except SingularMatrix as exc:
        raise SingularSystem(str(exc)) from exc
    return Solution(u, provenance="reference", meta={"k": spec.k})


def robin_data_plane_wave(grid, k):
    """Impedance data making the plane wave the exact solution.

    Four closed-form branches, one per edge; corner nodes take the value of
    the first covering edge in the order left, right, bottom, top.
    """
    xy = grid.node_coords
    x, y = xy[:, 0], xy[:, 1]
    g = np.zeros(grid.n_nodes, dtype=complex)
    bottom = np.isclose(y, 0.0)
    top = np.isclose(y, 1.0)
    left = np.isclose(x, 0.0)
    right = np.isclose(x, 1.0)
    # later assignments win, so write in reverse priority order
    g[top] = -0.2j * k * np.exp(1j * k * (0.6 * x[top] + 0.8))
    g[bottom] = -1.8j * k * np.exp(1j * k * 0.6 * x[bottom])
    g[right] = -0.4j * k * np.exp(1j * k * (0.6 + 0.8 * y[right]))
    g[left] = -1.6j * k * np.exp(1j * k * 0.8 * y[left])
    return g


def bump_source(grid):
    """Smooth bump supported in the disk of radius 1/20 around the origin."""
    xy = grid.node_coords
    r2 = 400.0 * (xy[:, 0] ** 2 + xy[:, 1] ** 2)
    f = np.zeros(grid.n_nodes)
    inside = r2 < 1.0
    f[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    return f.astype(complex)


def piecewise_source(grid, raster):
    """Nodal source from a per-cell raster by cell-to-node averaging."""
    if isinstance(raster, np.ndarray):
        values, nx, ny = raster.ravel(), grid.nx, grid.ny
    elif hasattr(raster, "values"):
        values, nx, ny = raster.values, raster.nx, raster.ny
    else:
        values, nx, ny = read_raster_array(raster)
    if nx != grid.nx or ny != grid.ny or values.size != grid.n_cells:
        raise MalformedRaster(
            f"source raster is {nx}x{ny}, grid has {grid.nx}x{grid.ny} cells"
        )
    vals = values.reshape(grid.ny, grid.nx)
    acc = np.zeros((grid.ny + 1, grid.nx + 1))
    cnt = np.zeros((grid.ny + 1, grid.nx + 1))
    for dj in (0, 1):
        for di in (0, 1):
            acc[dj : dj + grid.ny, di : di + grid.nx] += vals
            cnt[dj : dj + grid.ny, di : di + grid.nx] += 1.0
    return (acc / cnt).ravel().astype(complex)


def export_field(grid, values, path):
    """CSV export 'x,y,re,im', nodes in lexicographic order."""
    xy = grid.node_coords
    values = np.asarray(values, dtype=complex)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "re", "im"])
        for p in range(grid.n_nodes):
            writer.writerow(
                [
                    repr(float(xy[p, 0])),
                    repr(float(xy[p, 1])),
                    repr(float(values[p].real)),
                    repr(float(values[p].imag)),
                ]
            )
