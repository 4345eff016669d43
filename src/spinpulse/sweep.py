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
evaluated in blocks of up to 512 cells (``_SWEEP_BLOCK``).  Each cell's
system is built once, and its two phase-zero pulses, control driven and
undriven, are two drive settings broadcast over the block's systems by
``dynamics.pulse_states``: one stacked real eigensolve, bit for bit the
numbers of the cell-by-cell public route through ``cn_pulse`` and
``evolve_pulse``.  An ordinary block runs no Python per cell; a bad cell
(an invalid system, or numbers that overflow double precision) yields its
own ``error:`` row and leaves the other cells unchanged.  The ``sweep``
command of ``spinpulse.cli`` reads its config once, at the edge, by the
same fields (``SWEEP_FIELDS``), and writes the cells as CSV.
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
from .design import _pi_duration
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
#: ~0.7 MiB in blocks of 512, ~1.0 MiB in one block)
_SWEEP_BLOCK = 512
#: the two-spin coupling matrix of a unit Ising constant
_UNIT_COUPLING = np.array([[0.0, 1.0], [1.0, 0.0]])
_UNIT_COUPLING.setflags(write=False)


def _sweep_drive(rabi: float) -> tuple[float, np.ndarray]:
    """Duration and Rabi frequencies of the sweep pulses: control driven, undriven.

    Every cell shares them; the duration is cn_pulse's pi-pulse, from the same helper.
    """
    return _pi_duration(rabi), np.array([[rabi, rabi], [0.0, rabi]])


def _block_deviations(
    delta_ratio: np.ndarray,
    j_ratio: np.ndarray,
    rabi: float,
    base_larmor: float,
    pulse: tuple[float, np.ndarray] | str,
) -> tuple[list[float | None], list[str | None]]:
    """The deviation of each cell of a block and the text of the error that stopped it.

    Each cell has one of the two; the other is None.  ``pulse`` is
    ``_sweep_drive(rabi)``, or the text of its error.  Finiteness is checked
    once, on the deviations; only a block with a failed cell tells why each
    one failed (its system, the drive or an overflow).
    """
    # a failed cell is classified below, so no overflow may raise for the block
    with np.errstate(over="ignore", invalid="ignore"):
        coupling = j_ratio * rabi
        larmor = np.empty((len(coupling), 2))
        larmor[:, 0] = base_larmor + delta_ratio * rabi
        larmor[:, 1] = base_larmor
        if isinstance(pulse, str):
            deviation = np.full(len(coupling), np.nan)
        else:
            duration, rabis = pulse
            energies = ising_diagonal(larmor, coupling[:, None, None] * _UNIT_COUPLING)
            # the target (spin 1) flips with the control (spin 0) excited: |10> -> |11>
            carrier = energies[:, 3] - energies[:, 2]
            # (2, n, 4): every cell under the driven, then the undriven setting
            psi = pulse_states(SWEEP_INITIAL, energies, carrier, rabis[:, None, :], duration)
            # the interaction picture, as to_interaction_picture takes it: phase
            # times state, since a complex product's rounding depends on the order
            psi = np.exp(1j * energies * duration) * psi
            rho = psi[..., :, None] * psi.conj()[..., None, :]
            # a non-finite system, carrier, state or phase makes the deviation NaN
            deviation = deviation_metric(rho[0], rho[1])
    deviations, errors = deviation.tolist(), [None] * len(deviation)
    if np.isfinite(deviation).all():  # the common case: no cell failed
        return deviations, errors
    valid = np.isfinite(larmor).all(1) & np.isfinite(coupling)
    failure = pulse if isinstance(pulse, str) else str(too_large("deviation not finite"))
    for i in np.flatnonzero(~np.isfinite(deviation)).tolist():
        deviations[i], errors[i] = None, failure
        if not valid[i]:
            try:  # the cell's own SpinSystem raises with the same checks and text
                SpinSystem.uniform(larmor[i], coupling[i])
            except ConfigurationError as exc:
                errors[i] = str(exc)
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
    grid = np.empty((2, len(delta_ratios), len(j_ratios)))
    grid[0], grid[1] = np.array(delta_ratios)[:, None], j_ratios  # every (delta, J) pair
    delta_ratio, j_ratio = grid.reshape(2, -1)
    try:
        pulse = _sweep_drive(rabi)
    except ConfigurationError as exc:
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
