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
evaluated in blocks of cells: the rotating Hamiltonians of a block (two per
cell, control driven and undriven, each pulse starting at t = 0 with its
phase in the drive) are built as one stack and exponentiated by one stacked
complex eigensolve, with the same numbers as a cell-by-cell evaluation by a
complex eigensolve each; the cell-by-cell public route through
``pulse_propagator``, whose eigensolve is real, agrees within 1e-11.  A bad cell
(an invalid system, or numbers that overflow double precision) still yields
its own ``error:`` row and is kept out of the other cells' arithmetic.  The
``sweep`` command of ``spinpulse.cli`` writes the cells as CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .model import (
    REQUIRED,
    ConfigurationError,
    QuantumState,
    SpinSystem,
    drive_half,
    finite_real,
    finite_reals,
    ising_diagonal,
    read_fields,
    too_large,
)
from .dynamics import pulse_propagators
from .design import cn_pulse
from .ensemble import deviation_metric

#: test superposition used by the sweep cells (read-only)
SWEEP_INITIAL = QuantumState(
    [math.sqrt(0.3), math.sqrt(0.2), 1.0 / math.sqrt(3.0), 1.0 / math.sqrt(6.0)]
).amplitudes


@dataclass(frozen=True)
class SweepCell:
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
    "rabi": (partial(finite_real, low=0.0, above=True), 0.1),
    "base_larmor": (finite_real, 100.0),
}

#: grid cells evaluated together; bounds the Hamiltonian and propagator
#: stacks at a few hundred 4 x 4 matrices, however large the grid
_SWEEP_BLOCK = 128
#: the two-spin coupling matrix of a unit Ising constant
_UNIT_COUPLING = np.array([[0.0, 1.0], [1.0, 0.0]])
#: the stand-in system ``_sweep_drive`` designs the sweep pulse on
_STAND_IN = SpinSystem.uniform([0.0, 0.0], 0.0)


def _sweep_drive(rabi: float) -> tuple[float, np.ndarray]:
    """Duration and drive halves (control driven, then undriven) of the sweep pulse.

    Both depend on rabi alone, so every cell shares them.  cn_pulse builds
    them on a stand-in system, so a bad rabi fails as it does there.
    """
    pulses = [cn_pulse(_STAND_IN, 0, 1, "standard", rabi=[r, rabi]) for r in (rabi, 0.0)]
    # the complex stack e^{i phi} R, with the phase left out of the frame: a
    # real eigensolve would move the sweep's deviations by up to ~1.2e-12
    drive = np.stack([np.exp(1j * p.phase) * drive_half(_STAND_IN, p) for p in pulses])
    return pulses[0].duration, drive


def _block_deviations(
    delta_ratio: np.ndarray,
    j_ratio: np.ndarray,
    rabi: float,
    base_larmor: float,
    pulse: tuple[float, np.ndarray] | str,
) -> list[float | str]:
    """Deviation of each cell of a block, or the text of the error that stopped it.

    ``pulse`` is ``_sweep_drive(rabi)``, or the text of its error.  Every
    cell's two Hamiltonians (control driven and undriven) go through one
    stacked eigensolve; a cell whose system is invalid, or whose numbers
    overflow, gets its own error and does not change the other cells.
    """
    # overflow is checked cell by cell below, so it must not raise for the block
    with np.errstate(over="ignore", invalid="ignore"):
        coupling = j_ratio * rabi
        control_larmor = base_larmor + delta_ratio * rabi
        larmor = np.stack((control_larmor, np.full_like(control_larmor, base_larmor)), 1)
        valid = np.isfinite(larmor).all(1) & np.isfinite(coupling)
        out: list = [None] * len(coupling)
        for i in np.flatnonzero(~valid):
            try:  # the cell's own SpinSystem raises with the same checks and text
                SpinSystem.uniform(larmor[i], coupling[i])
            except ConfigurationError as exc:
                out[i] = str(exc)
        if isinstance(pulse, str):
            return [pulse if v is None else v for v in out]
        duration, drive = pulse
        energies = ising_diagonal(larmor[valid], coupling[valid, None, None] * _UNIT_COUPLING)
        energies = np.repeat(energies, 2, axis=0)  # each cell once per drive setting
        # the target (spin 1) flips with the control (spin 0) excited: |10> -> |11>
        carrier = energies[:, 3] - energies[:, 2]
        drives = np.tile(drive, (len(carrier) // 2, 1, 1))
        u = pulse_propagators(energies, carrier, drives, duration)
        psi = np.exp(1j * energies * duration) * (u @ SWEEP_INITIAL)  # interaction picture
        rho = psi[:, :, None] * psi.conj()[:, None, :]
        # a non-finite energy, carrier, propagator or phase makes the deviation NaN
        deviation = deviation_metric(rho[0::2], rho[1::2])
    for i, value in zip(np.flatnonzero(valid).tolist(), deviation.tolist()):
        out[i] = value if math.isfinite(value) else str(too_large("deviation not finite"))
    return out


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
    failure is recorded in its row and does not stop the sweep.
    """
    args = read_fields({"delta_ratios": delta_ratios, "j_ratios": j_ratios, "rabi": rabi,
                        "base_larmor": base_larmor}, SWEEP_FIELDS)
    rabi, base_larmor = args["rabi"], args["base_larmor"]
    grid = [(dr, jr) for dr in args["delta_ratios"] for jr in args["j_ratios"]]
    delta_ratio, j_ratio = np.array(grid).reshape(-1, 2).T
    try:
        pulse = _sweep_drive(rabi)
    except (ConfigurationError, FloatingPointError) as exc:  # FloatingPointError under main
        pulse = str(exc)
    values = []
    for first in range(0, len(grid), _SWEEP_BLOCK):
        block = slice(first, first + _SWEEP_BLOCK)
        values += _block_deviations(delta_ratio[block], j_ratio[block], rabi, base_larmor, pulse)
    return [
        SweepCell(dr, jr, None, error=v) if isinstance(v, str) else SweepCell(dr, jr, v)
        for (dr, jr), v in zip(grid, values)
    ]
