"""Hypothesis strategies shared by the property tests."""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from gpflow.grid import GridFunction, build_grid
from gpflow.problem import Problem


@st.composite
def small_problems(draw, max_dim=3, max_n=7):
    """A random grid of 1 to ``max_dim`` axes with <= ``max_n`` nodes per
    axis, V >= 0, beta >= 0, and a seeded generator for the grid functions
    drawn on it."""
    dim = draw(st.integers(1, max_dim))
    n = draw(st.lists(st.integers(1, max_n), min_size=dim, max_size=dim))
    lengths = draw(st.lists(st.floats(0.5, 2.0), min_size=dim, max_size=dim))
    grid = build_grid(dim, n, [(0.0, length) for length in lengths])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v_scale = draw(st.sampled_from([0.0, 1.0, 100.0]))
    beta = draw(st.sampled_from([0.0, 10.0, 100.0]))
    V = GridFunction(grid, v_scale * rng.uniform(0.0, 1.0, grid.dof))
    return Problem(grid, V, beta), rng


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
