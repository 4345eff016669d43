"""Spin systems, pulses, and Hamiltonian constructors.

Physical model: N spin-1/2 qubits with Larmor frequencies omega_k and Ising
couplings J_kn, driven by one circularly polarized resonant pulse at a time.
Units are dimensionless angular frequencies with hbar = 1.

Conventions (fixed throughout the package):

* ``|0>`` is the ground state and corresponds to I^z = +1/2 in the
  ``-omega_k * I^z_k`` Zeeman term.  With this sign the transition frequency
  of a target spin shifts by +J per ground-state neighbour and -J per
  excited neighbour, so a carrier at ``omega_target - J`` drives the target
  exactly when a single coupled control spin is excited.
* Basis index: the leftmost qubit in ket notation is the most significant
  bit, e.g. ``|psij> -> n = j + 2i + 4s + 8p`` for four spins.
* Each Ising bond contributes ``-2 J_kn I^z_k I^z_n`` to the Hamiltonian
  once in total, which reproduces the omega +/- J doublet splitting.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import reprlib
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np


class ConfigurationError(ValueError):
    """Raised when a system, pulse, or config document is inconsistent."""


# ---------------------------------------------------------------------------
# numeric fields of config documents: bools and strings are not numbers
# ---------------------------------------------------------------------------


def finite_real(value, low: float = -math.inf, above: bool = False) -> float:
    """A finite number >= low (> low if ``above``); raises ValueError otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"expected a number, got {reprlib.repr(value)}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    if value < low or above and value == low:
        raise ValueError(f"must be {'>' if above else '>='} {low:g}")
    return value


def _holds_bool(value) -> bool:
    if isinstance(value, (list, tuple)):
        return any(map(_holds_bool, value))
    return isinstance(value, (bool, np.bool_))


def finite_reals(value) -> np.ndarray:
    """A finite float array of any shape, built from numbers only; raises ValueError otherwise."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf" or _holds_bool(value):
        raise ValueError(f"expected numeric value(s), got {reprlib.repr(value)}")
    arr = arr.astype(float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("must be finite")
    return arr


# ---------------------------------------------------------------------------
# basis utilities
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def spin_z_values(n_spins: int) -> np.ndarray:
    """(2^N, N) array of I^z eigenvalues: +1/2 for bit 0, -1/2 for bit 1 (read-only, cached)."""
    dim = 2**n_spins
    idx = np.arange(dim)
    bits = (idx[:, None] >> (n_spins - 1 - np.arange(n_spins))[None, :]) & 1
    s = 0.5 - bits.astype(float)
    s.setflags(write=False)
    return s


@functools.lru_cache(maxsize=8)
def total_spin_z(n_spins: int) -> np.ndarray:
    """Diagonal of the total I^z operator over the 2^N basis (read-only, cached)."""
    z = spin_z_values(n_spins).sum(axis=1)
    z.setflags(write=False)
    return z


@functools.lru_cache(maxsize=8)
def _spin_flips(n_spins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays (ground, excited, spin) of every single-spin flip (cached)."""
    ground, spin = np.nonzero(spin_z_values(n_spins) > 0)
    return ground, ground | (1 << (n_spins - 1 - spin)), spin


def basis_label(index: int, n_spins: int) -> str:
    """Bit-string ket label of a basis index, leftmost spin first."""
    return format(index, f"0{n_spins}b")


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass
class SpinSystem:
    """N spins with Larmor frequencies and symmetric Ising couplings.

    ``couplings`` is a full symmetric matrix with zero diagonal; entry
    (k, n) is the Ising constant J_kn shared by spins k and n.
    """

    n_spins: int
    larmor: np.ndarray
    couplings: np.ndarray

    def __post_init__(self):
        if self.n_spins < 1:
            raise ConfigurationError("n_spins must be a positive integer")
        self.larmor = np.asarray(self.larmor, dtype=float)
        self.couplings = np.asarray(self.couplings, dtype=float)
        if self.larmor.shape != (self.n_spins,):
            raise ConfigurationError(
                f"larmor must have length {self.n_spins}, got shape {self.larmor.shape}"
            )
        if not np.all(np.isfinite(self.larmor)):
            raise ConfigurationError("larmor frequencies must be finite")
        if self.couplings.shape != (self.n_spins, self.n_spins):
            raise ConfigurationError(
                f"couplings must be {self.n_spins}x{self.n_spins}, got {self.couplings.shape}"
            )
        if not np.all(np.isfinite(self.couplings)):
            raise ConfigurationError("couplings must be finite")
        if not np.allclose(self.couplings, self.couplings.T, atol=1e-12):
            raise ConfigurationError("couplings must be symmetric")
        if not np.allclose(np.diag(self.couplings), 0.0, atol=1e-12):
            raise ConfigurationError("couplings must have zero diagonal")
        self.larmor.setflags(write=False)
        self.couplings.setflags(write=False)

    @property
    def dim(self) -> int:
        return 2**self.n_spins

    @classmethod
    def uniform(cls, larmor: Sequence[float], coupling: float) -> "SpinSystem":
        """System with one Ising constant shared by every spin pair."""
        n = len(larmor)
        j = np.full((n, n), float(coupling))
        np.fill_diagonal(j, 0.0)
        return cls(n, np.asarray(larmor, dtype=float), j)


@dataclass
class PulseSpec:
    """One circularly polarized resonant pulse.

    carrier:  angular frequency of the rotating field
    phase:    field phase phi; phi = 0 imprints the standard +pi/2 phase
              shift on the driven transition, phi = pi/2 removes it
    rabi:     per-spin Rabi frequencies (length must match the system)
    duration: pulse length, strictly positive
    """

    carrier: float
    phase: float
    rabi: np.ndarray
    duration: float

    def __post_init__(self):
        self.rabi = np.asarray(self.rabi, dtype=float)
        if self.rabi.ndim != 1:
            raise ConfigurationError("rabi must be a 1-d sequence")
        if np.any(self.rabi < 0) or not np.all(np.isfinite(self.rabi)):
            raise ConfigurationError("rabi frequencies must be finite and >= 0")
        if not (self.duration > 0 and np.isfinite(self.duration)):
            raise ConfigurationError("pulse duration must be strictly positive")
        self.phase = float(self.phase) % (2 * np.pi)
        self.rabi.setflags(write=False)

    def check_against(self, system: SpinSystem) -> None:
        if len(self.rabi) != system.n_spins:
            raise ConfigurationError(
                f"pulse defines {len(self.rabi)} Rabi frequencies for a "
                f"{system.n_spins}-spin system"
            )


@dataclass(frozen=True)
class DelaySpec:
    """Free-evolution interval between pulses (duration >= 0)."""

    duration: float

    def __post_init__(self):
        if not (self.duration >= 0 and np.isfinite(self.duration)):
            raise ConfigurationError("delay duration must be finite and >= 0")


class QuantumState:
    """Normalized amplitude vector over the 2^N computational basis."""

    __slots__ = ("amplitudes",)

    #: construction-time tolerance on | ||psi|| - 1 |
    NORM_TOL = 1e-9

    def __init__(self, amplitudes: Sequence[complex], check: bool = True):
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size == 0 or (amps.size & (amps.size - 1)):
            raise ValueError("amplitudes must be a 1-d vector of length 2^N")
        if check:
            drift = abs(np.linalg.norm(amps) - 1.0)
            if drift > self.NORM_TOL:
                raise ValueError(f"state is not normalized (|norm - 1| = {drift:.3e})")
        self.amplitudes = amps
        self.amplitudes.setflags(write=False)

    @property
    def n_spins(self) -> int:
        return int(np.log2(len(self.amplitudes)))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @property
    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def __len__(self) -> int:
        return len(self.amplitudes)

    @classmethod
    def basis(cls, n_spins: int, index: int) -> "QuantumState":
        amps = np.zeros(2**n_spins, dtype=complex)
        amps[index] = 1.0
        return cls(amps)

    def __repr__(self) -> str:
        return f"QuantumState(n_spins={self.n_spins})"


def fidelity(a: QuantumState | np.ndarray, b: QuantumState | np.ndarray) -> float:
    """Overlap fidelity |<a|b>|^2 between two pure states."""
    va = a.amplitudes if isinstance(a, QuantumState) else np.asarray(a)
    vb = b.amplitudes if isinstance(b, QuantumState) else np.asarray(b)
    return float(abs(np.vdot(va, vb)) ** 2)


# ---------------------------------------------------------------------------
# Hamiltonian constructors
# ---------------------------------------------------------------------------


def ising_diagonal(larmor: np.ndarray, couplings: np.ndarray) -> np.ndarray:
    """Lab-frame eigenenergies E_n of drive-free Ising Hamiltonians.

    E_n = -sum_k omega_k s_k(n) - 2 sum_{k<m} J_km s_k(n) s_m(n), with
    s = +1/2 for a ground spin and -1/2 for an excited spin.  J is symmetric
    with zero diagonal, so the pair sum is the full quadratic form s J s.
    ``larmor`` (..., N) and ``couplings`` (..., N, N) may carry leading
    batch axes, which broadcast; the result is (..., 2^N).
    """
    s = spin_z_values(np.shape(larmor)[-1])
    return -(larmor @ s.T) - np.einsum("nk,...km,nm->...n", s, couplings, s)


def diagonal_energies(system: SpinSystem) -> np.ndarray:
    """Lab-frame eigenenergies E_n of the system's drive-free Ising Hamiltonian.

    These are the energies that drive free-evolution phases exp(-i E_n t);
    see ``ising_diagonal`` for the formula.
    """
    return ising_diagonal(system.larmor, system.couplings)


def drive_half(system: SpinSystem, pulse: PulseSpec) -> np.ndarray:
    """(ground, excited) half R of the pulse drive.

    The drive -sum_k Omega_k [cos(a) I^x_k - sin(a) I^y_k] at field angle a
    equals e^{ia} R + e^{-ia} R^dagger, where R holds -Omega_k/2 at
    (ground, ground with spin k flipped) for every spin k.  The angle is the
    phase phi in the rotating frame and w t + phi in the lab frame.
    """
    pulse.check_against(system)
    ground, excited, spin = _spin_flips(system.n_spins)
    r = np.zeros((system.dim, system.dim), dtype=complex)
    r[ground, excited] = -0.5 * pulse.rabi[spin]
    return r


def rotating_hamiltonian(energies: np.ndarray, carrier, drive: np.ndarray) -> np.ndarray:
    """Rotating-frame Hamiltonians diag(E + omega I^z_total) + D + D^dagger.

    ``energies`` (..., dim) are Ising diagonals E, ``carrier`` (...) the
    carrier frequencies omega and ``drive`` (..., dim, dim) the drive half
    D = e^{i phi} R (see ``drive_half``), with the same leading batch axes.
    """
    dim = np.shape(energies)[-1]
    h = drive + np.swapaxes(drive.conj(), -1, -2)
    idx = np.arange(dim)
    h[..., idx, idx] += energies + np.multiply.outer(carrier, total_spin_z(int(np.log2(dim))))
    return h


def build_rotating_hamiltonian(system: SpinSystem, pulse: PulseSpec) -> np.ndarray:
    """Effective Hamiltonian in the frame rotating with the pulse carrier.

    H = -sum_k [ (omega_k - omega) I^z_k + Omega_k (cos(phi) I^x_k
        - sin(phi) I^y_k) ] - sum_{k<m} 2 J_km I^z_k I^z_m

    The drive term is time independent here because the lab-frame field is
    circularly polarized; no rotating-wave approximation is involved.  The
    diagonal is E_n + omega * I^z_total; off-diagonal elements connect
    single-spin-flip pairs with value -(Omega_k/2) e^{+i phi} on the
    (ground, excited) side.  Returns a complex Hermitian ndarray.
    """
    drive = np.exp(1j * pulse.phase) * drive_half(system, pulse)
    return rotating_hamiltonian(diagonal_energies(system), pulse.carrier, drive)


def transition_frequency(
    system: SpinSystem, target: int, spectator_state: Mapping[int, int]
) -> float:
    """Resonant frequency for flipping ``target`` with the others held fixed.

    ``spectator_state`` assigns 0 (ground) or 1 (excited) to every spin
    except the target.  Returns E(target excited) - E(target ground), i.e.
    omega_target + 2 sum_m J_tm s_m over the spectator assignment.
    """
    if not 0 <= target < system.n_spins:
        raise ConfigurationError(f"target spin {target} out of range")
    expected = set(range(system.n_spins)) - {target}
    if set(spectator_state) != expected:
        missing = sorted(expected - set(spectator_state))
        extra = sorted(set(spectator_state) - expected)
        raise ConfigurationError(
            f"spectator assignment must cover every non-target spin exactly "
            f"(missing {missing}, unexpected {extra})"
        )
    energies = diagonal_energies(system)
    ground = 0
    for spin, bit in spectator_state.items():
        if bit not in (0, 1):
            raise ConfigurationError(f"spectator value for spin {spin} must be 0 or 1")
        ground |= bit << (system.n_spins - 1 - spin)
    excited = ground | (1 << (system.n_spins - 1 - target))
    return float(energies[excited] - energies[ground])


# ---------------------------------------------------------------------------
# JSON loading
# ---------------------------------------------------------------------------


def _field(doc: Mapping, name: str, convert, default=None):
    """``doc[name]`` (``default`` if absent) through ``convert``, errors named by field."""
    try:
        return convert(doc.get(name, default))
    except ValueError as exc:
        raise ConfigurationError(f"{name}: {exc}") from None


def system_from_dict(doc: Mapping) -> SpinSystem:
    """Build a SpinSystem from a mapping with n_spins (1 to 4), larmor, couplings.

    Frequencies and couplings must be numbers: strings and bools are rejected.
    """
    missing = [k for k in ("n_spins", "larmor", "couplings") if k not in doc]
    if missing:
        raise ConfigurationError(f"system document missing fields: {', '.join(missing)}")
    if isinstance(doc["n_spins"], bool) or doc["n_spins"] not in range(1, 5):
        raise ConfigurationError("n_spins must be an integer from 1 to 4 (dimension <= 16)")
    larmor = _field(doc, "larmor", finite_reals)
    return SpinSystem(int(doc["n_spins"]), larmor, _field(doc, "couplings", finite_reals))


def pulse_from_dict(doc: Mapping) -> PulseSpec:
    """Build a PulseSpec from a mapping with carrier, phase, rabi, duration.

    Every field must be numeric: strings and bools are rejected.
    """
    missing = [k for k in ("carrier", "rabi", "duration") if k not in doc]
    if missing:
        raise ConfigurationError(f"pulse document missing fields: {', '.join(missing)}")
    return PulseSpec(
        carrier=_field(doc, "carrier", finite_real),
        phase=_field(doc, "phase", finite_real, 0.0),
        rabi=_field(doc, "rabi", finite_reals),
        duration=_field(doc, "duration", finite_real),
    )


def load_spin_config(source) -> tuple[SpinSystem, list[PulseSpec]]:
    """Load a system and its pulse list from a JSON document.

    ``source`` may be a path, an open file object, or an already-parsed
    mapping.  Schema: ``{n_spins, larmor[], couplings[][], pulses[]}`` where
    each pulse has ``{carrier, phase, rabi[], duration}``.
    """
    if isinstance(source, Mapping):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    system = system_from_dict(doc)
    pulses = [pulse_from_dict(p) for p in doc.get("pulses", [])]
    for p in pulses:
        p.check_against(system)
    return system, pulses
