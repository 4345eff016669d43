"""Room-temperature ensemble dynamics of a four-spin molecule.

At k_B T >> hbar omega_k the density matrix of the ensemble splits into an
identity part (invariant under unitaries, not stored) and a traceless
deviation part that carries all observable dynamics.  The deviation matrix
is kept dimensionless here; the physical thermal prefactor
(sum_k hbar omega_k) / (32 k_B T) scales it uniformly and is never applied
numerically because the dynamics is linear.

The 16-dimensional basis uses the single-index convention |psij> with
n = j + 2i + 4s + 8p.  Indices 0..3 (states |00ij>) form the "active" block
r whose entries follow a superposition of the two rightmost qubits; indices
4..15 form the "background" block b, initialized to the thermal-equilibrium
diagonal below, which a well-designed gate pulse must leave unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ConfigurationError, PulseSpec, QuantumState, SpinSystem, _checked
from .model import _complex_numeric, _finite_complexes, _norm_drift, finite_real, require_finite
from .dynamics import free_evolution_phases, pulse_propagator

N_SPINS = 4
DIM = 16
ACTIVE_DIM = 4

#: thermal-equilibrium diagonal of the background block, indices 4..15 (read-only)
BACKGROUND_DIAGONAL = np.array(
    [-0.5, 0.5, 0.5, 0.5, 0.5, -0.5, -0.5, -0.5, -1.0, 0.0, 0.0, 0.0]
)
BACKGROUND_DIAGONAL.setflags(write=False)

#: relative floor used by deviation_metric for near-zero reference entries
METRIC_FLOOR = 1e-3


@dataclass(frozen=True, eq=False)
class DeviationDensityMatrix:
    """Traceless 16x16 deviation density matrix, active block in indices 0..3 (immutable)."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(_checked("entries", _complex_numeric, self.entries))
        object.__setattr__(self, "entries", entries)
        if self.entries.shape != (DIM, DIM):
            raise ConfigurationError(f"deviation matrix must be {DIM}x{DIM}")
        with np.errstate(over="ignore", invalid="ignore"):  # a difference too large is inf
            dev = abs(self.entries - self.entries.conj().T).max()
        if not dev <= 1e-9:  # NaN fails too
            raise ConfigurationError(f"deviation matrix is not Hermitian ({dev:.3e})")
        self.entries.setflags(write=False)

    @classmethod
    def _built(cls, entries: np.ndarray) -> "DeviationDensityMatrix":
        """A deviation matrix on fresh ``entries`` that are Hermitian by construction.

        Like ``QuantumState(check=False)``, it takes ownership of them, with
        no copy and no re-check: an absolute Hermiticity tolerance would refuse
        only rounding, which grows with the entries.  Raises ConfigurationError
        if an entry is not finite, that is if the arithmetic that built them overflowed.
        """
        rho = object.__new__(cls)
        object.__setattr__(rho, "entries", require_finite(entries, "deviation matrix"))
        entries.setflags(write=False)
        return rho

    @property
    def active_block(self) -> np.ndarray:
        """4x4 block r over the active states |00ij>."""
        return self.entries[:ACTIVE_DIM, :ACTIVE_DIM].copy()

    @property
    def background_diagonal(self) -> np.ndarray:
        """Diagonal of the background block, indices 4..15."""
        return np.real(np.diag(self.entries)[ACTIVE_DIM:]).copy()

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.entries)))


def init_deviation(active_amplitudes) -> DeviationDensityMatrix:
    """Deviation matrix for an active superposition at thermal equilibrium.

    The active block is the outer product of the normalized amplitude
    4-vector over |00ij>; the background starts diagonal with the
    equilibrium values, summing to -1 so the whole matrix is traceless.
    """
    amps = _checked("active_amplitudes", _complex_numeric, active_amplitudes)
    if amps.shape != (ACTIVE_DIM,):
        raise ConfigurationError(f"active amplitudes must be a length-{ACTIVE_DIM} vector")
    if not _norm_drift(amps) <= QuantumState.NORM_TOL:  # NaN fails too
        raise ConfigurationError("active amplitudes must be normalized")
    rho = np.zeros((DIM, DIM), dtype=complex)
    rho[:ACTIVE_DIM, :ACTIVE_DIM] = np.outer(amps, amps.conj())
    rho[np.arange(ACTIVE_DIM, DIM), np.arange(ACTIVE_DIM, DIM)] = BACKGROUND_DIAGONAL
    return DeviationDensityMatrix(rho)


def evolve_deviation(
    rho: DeviationDensityMatrix,
    system: SpinSystem,
    pulse: PulseSpec,
    t_start: float = 0.0,
) -> DeviationDensityMatrix:
    """Conjugate the deviation matrix by the exact pulse propagator.

    rho -> U rho U+ preserves Hermiticity, spectrum, and trace; only the
    traceless deviation needs evolving since the identity part commutes with
    everything.  The result is Hermitian by construction and is built
    without a re-check; raises ConfigurationError if an entry of it
    overflows double precision.
    """
    if system.n_spins != N_SPINS:
        raise ConfigurationError(f"ensemble dynamics is defined for {N_SPINS}-spin systems")
    u = pulse_propagator(system, pulse, t_start=t_start)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is inf, refused
        entries = u @ rho.entries @ u.conj().T
    return DeviationDensityMatrix._built(entries)


def to_interaction_picture(
    rho: DeviationDensityMatrix, system: SpinSystem, t: float
) -> DeviationDensityMatrix:
    """Strip free-evolution phases: rho -> D(t)+ rho D(t), D = diag(e^{-i E_n t}).

    Diagonal entries are untouched; coherences lose the phases accumulated at
    the energy differences, making them comparable against ideal gate
    targets.  As with ``evolve_deviation``, the result is built without a
    re-check, and an entry that overflows double precision raises
    ConfigurationError, as does a ``t`` that is not a finite number, naming it.
    """
    phases = free_evolution_phases(system, -_checked("t", finite_real, t))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is inf, refused
        entries = phases[:, None] * rho.entries * phases.conj()[None, :]
    return DeviationDensityMatrix._built(entries)


def _metric(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``deviation_metric``'s formula on blocks (..., m, m), unchecked: inf and NaN pass."""
    return (np.abs(a - b) / np.maximum(np.abs(b), METRIC_FLOOR)).max(axis=(-2, -1))


def deviation_metric(r_obtained, r_reference):
    """Worst-case relative entry deviation between two complex blocks.

    max over entries of |obtained - reference| / max(|reference|, METRIC_FLOOR).
    The comparison is on complex entries, so a global phase between
    otherwise identical blocks registers as a real deviation; compare
    physically fixed blocks (e.g. interaction-picture ones).  A single pair
    of blocks gives a float; it raises ConfigurationError naming a block that
    is not finite, and if the metric of finite blocks overflows double
    precision.  Stacks of blocks (..., m, m) give an array with one metric
    per block, inf or NaN included, so that each block's caller reports it.
    Blocks of two shapes, or that are not matrices, raise ValueError naming the shapes.
    """
    a = _checked("r_obtained", _complex_numeric, r_obtained)
    b = _checked("r_reference", _complex_numeric, r_reference)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim < 2:
        raise ValueError(f"blocks must be matrices or stacks of them, got shape {a.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        metric = _metric(a, b)
    if metric.ndim == 0 and not np.isfinite(metric):  # only then read the blocks' finiteness
        _checked("r_obtained", _finite_complexes, a)
        _checked("r_reference", _finite_complexes, b)
    return metric if metric.ndim else require_finite(float(metric), "deviation metric")
