"""Problem data: grid, non-negative potential and interaction strength."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, GridFunction


@dataclass(frozen=True, eq=False)
class Problem:
    """A Gross-Pitaevskii eigenvalue problem on a box grid.

    Attributes:
        grid: the discretization.
        V: potential values at the interior nodes, V >= 0.
        beta: interaction strength, beta >= 0.
    """

    grid: Grid
    V: GridFunction
    beta: float

    def __post_init__(self):
        if self.V.grid != self.grid:
            raise ValueError("potential does not live on the problem grid")
        if np.any(self.V.values < 0.0):
            raise ValueError("potential must be non-negative")
        if not self.beta >= 0.0:  # also rejects NaN
            raise ValueError("beta must be non-negative")


def zero_potential(grid: Grid) -> GridFunction:
    return GridFunction(grid, np.zeros(grid.dof))


def harmonic_potential(grid: Grid, omega: float) -> GridFunction:
    """V = (omega^2 / 2) * sum_i (x_i - center_i)^2, centered in the box.

    A potential beyond the float range is GridFunction's non-finite ValueError.
    """
    V = np.zeros(grid.n)
    for axis, (a, b) in enumerate(grid.bounds):
        V += grid.along(axis, (grid.axis_coords(axis) - 0.5 * (a + b)) ** 2)
    try:
        scale = 0.5 * omega**2
    except OverflowError:
        scale = math.inf
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is nan, rejected too
        return GridFunction(grid, (scale * V).ravel())


def well_potential(grid: Grid, depth: float, lo: float, hi: float) -> GridFunction:
    """V = depth outside [lo, hi] on every axis, 0 inside; the well must
    hold at least one interior node."""
    if not depth >= 0.0:  # also rejects NaN
        raise ValueError("well depth must be non-negative")
    if not lo <= hi:
        raise ValueError(f"well bounds must satisfy lo <= hi, got {lo}, {hi}")
    inside = np.ones(grid.n, dtype=bool)
    for axis in range(grid.dim):
        x = grid.axis_coords(axis)
        inside &= grid.along(axis, (x >= lo) & (x <= hi))
    if not inside.any():
        raise ValueError(f"well [{lo}, {hi}] holds no interior node")
    V = np.where(inside, 0.0, depth)
    return GridFunction(grid, V.ravel())
