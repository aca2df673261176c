"""Seeded random test corpora: step functions on the line and on the
half-plane window, and atomic measure clouds.

Everything takes a ``numpy.random.Generator`` so a run is reproducible
from the 64-bit seed recorded in reports.
"""

from __future__ import annotations

import numpy as np

from .maximal import StepFunction1D, StepFunction2D
from .measure import AtomicMeasure

__all__ = ["random_step_1d", "random_step_2d", "random_atoms"]


# Step values are standard normal draws with a share of the cells zeroed, so
# that level sets have nontrivial geometry; 2-D steps live on a 32 x 32 grid
# over [-4, 4] x (0, 4].  Atom masses are standard exponential draws.
_ZERO_FRACTION_1D = 0.35
_ZERO_FRACTION_2D = 0.5
_CELLS_2D = 32
_HALF_WIDTH_2D = 4.0
_HEIGHT_2D = 4.0


def random_step_1d(
    rng: np.random.Generator,
    n_cells: int = 64,
    half_width: float = 8.0,
) -> StepFunction1D:
    """Compactly supported random step function; a fraction of cells is
    zeroed so level sets have nontrivial geometry."""
    edges = np.linspace(-half_width, half_width, n_cells + 1)
    values = rng.normal(0.0, 1.0, n_cells)
    values[rng.random(n_cells) < _ZERO_FRACTION_1D] = 0.0
    return StepFunction1D(edges, values)


def random_step_2d(rng: np.random.Generator) -> StepFunction2D:
    shape = (_CELLS_2D, _CELLS_2D)
    x_edges = np.linspace(-_HALF_WIDTH_2D, _HALF_WIDTH_2D, _CELLS_2D + 1)
    y_edges = np.linspace(0.0, _HEIGHT_2D, _CELLS_2D + 1)
    values = rng.normal(0.0, 1.0, shape)
    values[rng.random(shape) < _ZERO_FRACTION_2D] = 0.0
    return StepFunction2D(x_edges, y_edges, values)


def random_atoms(
    rng: np.random.Generator,
    n_atoms: int = 12,
    x_span: float = 8.0,
    y_decades: tuple[float, float] = (-3.0, 1.5),
) -> AtomicMeasure:
    """Atom cloud with log-uniform heights, so small Carleson boxes see
    mass as well as large ones."""
    xs = rng.uniform(-x_span, x_span, n_atoms)
    ys = 10.0 ** rng.uniform(y_decades[0], y_decades[1], n_atoms)
    masses = rng.exponential(1.0, n_atoms)
    return AtomicMeasure(tuple(xs), tuple(ys), tuple(masses))
