"""Threshold sweep: where a single pulse still acts as a clean CN gate.

Each cell builds a two-spin system with frequency separation
delta = (delta_ratio) * Omega and coupling J = (j_ratio) * Omega, applies the
standard CN pi-pulse to a fixed test superposition, and reports the
worst-case relative entry deviation of the resulting density-matrix block
against the same pulse with the non-resonant spin undriven.  That reference
isolates the frequency-separation effect the sweep studies; drive-induced
phases on the coupled target transition, which do not depend on the
separation, cancel out.

``run_sweep`` is the one entry; one cell is a 1 x 1 grid.  The grid is
evaluated in blocks of up to 512 cells (``_SWEEP_BLOCK``): the rotating
Hamiltonians of a block (two per cell, control driven and undriven, each
phase-zero pulse starting at t = 0) are built as one stack and diagonalized
by one stacked real eigensolve, and their factors act on the test state
(``dynamics.pulse_states``) without forming a propagator: bit for bit the
numbers of the cell-by-cell public route through ``cn_pulse`` and
``evolve_pulse``.  A block whose cells are all valid and finite, as every
cell of an ordinary grid is, runs no Python per cell.  A bad cell
(an invalid system, or numbers that overflow double precision) still yields
its own ``error:`` row and is kept out of the other cells' arithmetic.  The
``sweep`` command of ``spinpulse.cli`` validates its config once, at the
edge, by the same fields (``SWEEP_FIELDS``), evaluates the grid without
reading them again and writes the cells as CSV.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .model import (
    REQUIRED,
    ConfigurationError,
    QuantumState,
    SpinSystem,
    _positive_real,
    finite_real,
    finite_reals,
    ising_diagonal,
    read_fields,
    too_large,
)
from .dynamics import pulse_states
from .design import cn_pulse
from .ensemble import deviation_metric

#: test superposition used by the sweep cells (read-only)
SWEEP_INITIAL = QuantumState(
    [math.sqrt(0.3), math.sqrt(0.2), 1.0 / math.sqrt(3.0), 1.0 / math.sqrt(6.0)]
).amplitudes


class SweepCell(NamedTuple):
    """One grid cell (immutable): its deviation, or None and the error that stopped it."""

    delta_ratio: float
    j_ratio: float
    deviation: float | None
    error: str | None = None


def axis(values) -> list[float]:
    """A sweep axis as floats: a non-empty list, strictly positive, sorted ascending."""
    values = finite_reals(values)
    if values.ndim != 1:
        raise ValueError("axis must be a list of numbers")
    if not values.size or values.min() <= 0:
        raise ValueError("axis values must be strictly positive and finite")
    if (values[1:] < values[:-1]).any():
        raise ValueError("axis must be sorted ascending")
    return values.tolist()


#: a sweep's arguments, which are also the ``sweep`` config's fields
SWEEP_FIELDS = {
    "delta_ratios": (axis, REQUIRED),
    "j_ratios": (axis, REQUIRED),
    "rabi": (_positive_real, 0.1),
    "base_larmor": (finite_real, 100.0),
}

#: grid cells evaluated together; bounds the Hamiltonian stack at about a
#: thousand 4 x 4 matrices, however large the grid (a 900-cell grid peaks at
#: ~0.8 MiB in blocks of 512, ~1.2 MiB in one block)
_SWEEP_BLOCK = 512
#: the two-spin coupling matrix of a unit Ising constant
_UNIT_COUPLING = np.array([[0.0, 1.0], [1.0, 0.0]])
_UNIT_COUPLING.setflags(write=False)
#: the stand-in system ``_sweep_drive`` designs the sweep pulse on
_STAND_IN = SpinSystem.uniform([0.0, 0.0], 0.0)


def _sweep_drive(rabi: float) -> tuple[float, np.ndarray]:
    """Duration and Rabi frequencies of the sweep pulses: control driven, undriven.

    They depend on rabi alone, so every cell shares them.  cn_pulse builds
    the driven pulse on a stand-in system, so a bad rabi fails as it does
    there; the undriven pulse differs from it only in the control's Rabi
    frequency.
    """
    pulse = cn_pulse(_STAND_IN, 0, 1, "standard", rabi=[rabi, rabi])
    return pulse.duration, np.array([pulse.rabi, [0.0, pulse.rabi[1]]])


def _block_deviations(
    delta_ratio: np.ndarray,
    j_ratio: np.ndarray,
    rabi: float,
    base_larmor: float,
    pulse: tuple[float, np.ndarray] | str,
) -> tuple[list[float | None], list[str | None]]:
    """The deviation of each cell of a block and the text of the error that stopped it.

    Each cell has one of the two; the other is None.  ``pulse`` is
    ``_sweep_drive(rabi)``, or the text of its error.  Every cell's two
    pulses (control driven and undriven) go through one stacked eigensolve
    and act on the test state; a cell whose system is invalid, or whose
    numbers overflow, gets its own error and does not change the other cells.
    """
    # overflow is checked cell by cell below, so it must not raise for the block
    with np.errstate(over="ignore", invalid="ignore"):
        coupling = j_ratio * rabi
        larmor = np.empty((len(coupling), 2))
        larmor[:, 0] = base_larmor + delta_ratio * rabi
        larmor[:, 1] = base_larmor
        valid = np.isfinite(larmor).all(1) & np.isfinite(coupling)
        all_valid = bool(valid.all())
        errors: list = [None] * len(coupling)
        if not all_valid:
            for i in np.flatnonzero(~valid):
                try:  # the cell's own SpinSystem raises with the same checks and text
                    SpinSystem.uniform(larmor[i], coupling[i])
                except ConfigurationError as exc:
                    errors[i] = str(exc)
            larmor, coupling = larmor[valid], coupling[valid]
        if isinstance(pulse, str):
            return [None] * len(errors), [pulse if e is None else e for e in errors]
        duration, rabis = pulse
        energies = ising_diagonal(larmor, coupling[:, None, None] * _UNIT_COUPLING)
        energies = np.repeat(energies, 2, axis=0)  # each cell once per drive setting
        # the target (spin 1) flips with the control (spin 0) excited: |10> -> |11>
        carrier = energies[:, 3] - energies[:, 2]
        rabis = np.tile(rabis, (len(carrier) // 2, 1))
        psi = pulse_states(SWEEP_INITIAL, energies, carrier, rabis, duration)
        # the interaction picture, as to_interaction_picture takes it: phase
        # times state, since a complex product's rounding depends on the order
        psi = np.exp(1j * energies * duration) * psi
        rho = psi[:, :, None] * psi.conj()[:, None, :]
        # a non-finite energy, carrier, state or phase makes the deviation NaN
        deviation = deviation_metric(rho[0::2], rho[1::2])
    if all_valid and np.isfinite(deviation).all():  # the common case: no cell failed
        return deviation.tolist(), errors
    deviations: list = [None] * len(errors)
    for i, value in zip(np.flatnonzero(valid).tolist(), deviation.tolist()):
        if math.isfinite(value):
            deviations[i] = value
        else:
            errors[i] = str(too_large("deviation not finite"))
    return deviations, errors


def run_sweep(
    delta_ratios: Sequence[float],
    j_ratios: Sequence[float],
    rabi: float | None = None,
    base_larmor: float | None = None,
) -> list[SweepCell]:
    """Evaluate every grid cell; cells are independent and order-insensitive.

    The arguments are read as a ``sweep`` config's fields (``SWEEP_FIELDS``:
    axes strictly positive and sorted ascending, rabi > 0, default 0.1,
    base_larmor default 100); a bad one raises ConfigurationError, and None
    takes the default.  The cells are evaluated block by block; a cell's
    failure is recorded in its row and does not stop the sweep.  The
    ``sweep`` command, which has read these fields from its config, skips
    this reading and evaluates the grid directly.
    """
    fields = {"delta_ratios": delta_ratios, "j_ratios": j_ratios, "rabi": rabi,
              "base_larmor": base_larmor}
    return _grid_cells(**read_fields(fields, SWEEP_FIELDS))


def _grid_cells(
    delta_ratios: list[float], j_ratios: list[float], rabi: float, base_larmor: float
) -> list[SweepCell]:
    """The cells of ``run_sweep`` from arguments already read by ``SWEEP_FIELDS``."""
    delta_ratio = np.repeat(delta_ratios, len(j_ratios))
    j_ratio = np.tile(j_ratios, len(delta_ratios))
    try:
        pulse = _sweep_drive(rabi)
    except (ConfigurationError, FloatingPointError) as exc:  # FloatingPointError under main
        pulse = str(exc)
    deviations: list = []
    errors: list = []
    for first in range(0, len(delta_ratio), _SWEEP_BLOCK):
        block = slice(first, first + _SWEEP_BLOCK)
        d, e = _block_deviations(delta_ratio[block], j_ratio[block], rabi, base_larmor, pulse)
        deviations += d
        errors += e
    rows = zip(delta_ratio.tolist(), j_ratio.tolist(), deviations, errors)
    return list(map(SweepCell._make, rows))
